import hashlib
import re
from dataclasses import replace
from functools import reduce
from itertools import product

import numpy as np
import pytest

from packedhe.conv import Kernel
from packedhe.encoding import MatrixShape, PackedMatrix
from packedhe.engine import EngineError, LayoutError, OpMeter, SlotEngine, next_pow2
from packedhe.matmul import FcFold, encode_fc_tiles, matmul_chunked
from packedhe.oracle import oracle_conv, oracle_flatten, oracle_forward, oracle_poly
from packedhe.pipeline import (
    FC1_CHUNKS,
    FC1_IN,
    FC1_OUT,
    FC2_IN,
    FC2_OUT,
    IMAGE_SIDE,
    IMAGE_SLOTS,
    IMAGES_PER_CT,
    KERNEL_COUNT,
    KERNEL_SIZE,
    MAP_FEATURES,
    MAP_SIDE,
    FC_LAYERS,
    PIPELINE_DEPTH,
    WEIGHT_SHAPES,
    ModelWeights,
    argmax_decide,
    batch_layout,
    encode_model,
    fc_blocking,
    flatten,
    flatten_lanes,
    forward_encoded,
    pack_batch,
    poly_activation,
)
from packedhe.serial import load_model, write_model
from packedhe.virtual import VirtualLayout, batched_conv_layer, reform, tile_kernel_span

from conftest import make_engine, rand_int_matrix
from test_matmul_chunked import fitting_groups, formula_plan, grouped_counts

ACT1 = (-0.00015120704, 0.4610149, 2.0225089, -1.4511951)
ACT2 = (-1.5650465, -0.9943767, 1.6794522, 0.5350255)
# fc1's input width: the lanes of each chunk its flatten_lanes map reaches
FC1_LANES = 952


def fc_shape(out_dim: int, chunks: int, in_width: int, rows: int = IMAGES_PER_CT, p: int | None = None) -> tuple:
    """(blocks B, chunks C, block width p, row width n, input width w, rows)
    of an FC layer over ``rows`` images of image-stride rows in
    power-of-two neuron blocks of width ``p``, by default the widest that
    fits the batch (the fewest blocks)."""
    p = min(next_pow2(out_dim), rows) if p is None else p
    return next_pow2(out_dim) // p, chunks, p, IMAGE_SLOTS, in_width, rows


# The neuron block width p of the (fc1, fc2) plans fc_blocking picks, by
# batch rows: fc1 always takes its widest block, while fc2 takes blocks
# narrower than the batch at 8, 16 and 32 rows, which the one bias seed
# per layer leaves room for.
FC_BLOCK_P = {1: (1, 1), 2: (2, 2), 4: (4, 4), 8: (8, 2), 16: (16, 4), 32: (32, 8)}


def mnist_fc_shapes(rows: int = IMAGES_PER_CT) -> tuple:
    """The ``fc_shape`` of fc1 and fc2 at the block widths fc_blocking
    picks over ``rows`` images."""
    p1, p2 = FC_BLOCK_P[rows]
    return fc_shape(FC1_OUT, FC1_CHUNKS, FC1_LANES, rows, p1), fc_shape(FC2_OUT, 1, FC2_IN, rows, p2)


def fc_counts(blocks: int, chunks: int, p: int, n: int, w: int, rows: int) -> tuple:
    """(rot, mul, cmul) of an FC layer: one interleaved product on the
    single-rotation row-cycle path, at the group G and the giant step g
    that minimise the rotation formula (``formula_plan``); the layer's one
    bias seed is the product's accumulator seed, at no cost."""
    return grouped_counts(blocks, chunks, p, w, *formula_plan(blocks, chunks, p, w, n, rows), rows)


# (rot, mul, cmul) per batch of conv, act1, flatten and act2, which do not
# depend on the FC layout: conv 216 + flatten 12 rotations.
NON_FC_COUNTS = (228, 46, 77)


def random_weights(rng) -> ModelWeights:
    kerns = [
        Kernel(rng.uniform(-0.4, 0.4, size=(3, 3)), bias=float(rng.uniform(-0.1, 0.1)))
        for _ in range(4)
    ]
    return ModelWeights(
        conv_kernels=kerns,
        fc1_weight=rng.uniform(-0.05, 0.05, size=(64, 2704)),
        fc1_bias=rng.uniform(-0.1, 0.1, size=64),
        fc2_weight=rng.uniform(-0.3, 0.3, size=(10, 64)),
        fc2_bias=rng.uniform(-0.1, 0.1, size=10),
        act1=ACT1,
        act2=ACT2,
    )


def test_poly_activation_identity_coeffs(rng):
    eng = make_engine(8)
    ct = eng.enc(rng.uniform(-2, 2, size=8))
    (out,) = poly_activation(eng, [ct], (0.0, 1.0, 0.0, 0.0))
    np.testing.assert_allclose(eng.dec(out), eng.dec(ct), atol=1e-15)


def test_poly_activation_constant_at_zero():
    eng = make_engine(8)
    (out,) = poly_activation(eng, [eng.enc([])], ACT1)
    np.testing.assert_allclose(eng.dec(out), np.full(8, ACT1[0]), atol=1e-18)


def test_poly_activation_act2_at_one():
    eng = make_engine(4)
    (out,) = poly_activation(eng, [eng.enc(np.ones(4))], ACT2)
    np.testing.assert_allclose(eng.dec(out), np.full(4, -0.3449455), atol=1e-12)


def test_poly_activation_meter_and_depth(rng):
    eng = make_engine(8)
    cts = [eng.enc(rng.uniform(-1, 1, size=8)) for _ in range(3)]
    spent = {}
    with eng.scope("call", spent):
        outs = poly_activation(eng, cts, ACT1)
    delta = spent["call"]
    # per ciphertext two ct-ct and two constant products; the two constant
    # encodings are shared by the stage
    assert (delta.mul_count, delta.cmul_count, delta.enc_count) == (2 * 3, 2 * 3, 2)
    for ct, out in zip(cts, outs, strict=True):
        assert out.depth == ct.depth + 2
        np.testing.assert_allclose(eng.dec(out), oracle_poly(eng.dec(ct), ACT1), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("slots", [1024, 2048, 16384, 32768])
def test_batch_layout_fills_the_ciphertext_with_image_blocks(slots):
    layout = batch_layout(slots)
    assert (layout.m, layout.f, layout.h, layout.w) == (slots // 1024, 1024, 28, 28)


@pytest.mark.parametrize("slots", [512, 2, 1])
def test_batch_layout_rejects_fewer_slots_than_an_image_block(slots):
    with pytest.raises(EngineError, match=f"^{slots} slots cannot hold a 1024-slot image block$"):
        batch_layout(slots)


def test_pack_batch_layout(rng):
    eng = make_engine(64)
    lay = VirtualLayout(4, 16, 3, 4)
    imgs = rng.uniform(0, 1, size=(3, 3, 4))
    vec = eng.dec(pack_batch(eng, imgs, lay)).reshape(4, 16)
    for b in range(3):
        np.testing.assert_array_equal(vec[b, :12], imgs[b].reshape(-1))
    assert np.count_nonzero(vec[3]) == 0
    with pytest.raises(LayoutError):
        pack_batch(eng, rng.uniform(size=(5, 3, 4)), lay)
    with pytest.raises(LayoutError):
        pack_batch(eng, rng.uniform(size=(1, 4, 4)), lay)


def test_conv_layer_constant_bias_blocks(rng):
    eng = make_engine(512)
    lay = VirtualLayout(4, 128, 8, 8)
    spans = [tile_kernel_span(eng, Kernel(np.zeros((3, 3)), bias=b), lay) for b in (1.0, -2.0)]
    ct = pack_batch(eng, rng.uniform(0, 1, size=(4, 8, 8)), lay)
    outs = batched_conv_layer(eng, ct, lay, spans)
    for out, bias in zip(outs, (1.0, -2.0)):
        grid = eng.dec(out).reshape(4, 128)[:, :64].reshape(4, 8, 8)
        np.testing.assert_array_equal(grid[:, :6, :6], np.full((4, 6, 6), bias))


def test_conv_layer_oracle_per_image(rng):
    eng = make_engine(512)
    lay = VirtualLayout(4, 128, 8, 8)
    kern = Kernel(rand_int_matrix(rng, 3, 3), bias=0.25)
    imgs = rng.integers(0, 4, size=(4, 8, 8)).astype(float)
    outs = batched_conv_layer(eng, pack_batch(eng, imgs, lay), lay, [tile_kernel_span(eng, kern, lay)])
    grid = eng.dec(outs[0]).reshape(4, 128)
    for b in range(4):
        block = grid[b, :64].reshape(8, 8)[:6, :6]
        np.testing.assert_array_equal(block, oracle_conv(imgs[b], kern.weights, 0.25))


def test_flatten_maps_matches_oracle_order(rng):
    eng = make_engine(512)
    lay = VirtualLayout(4, 128, 8, 8)
    # synthetic "maps": valid 6x6 block per image, garbage elsewhere must vanish
    maps_plain = rng.integers(-3, 9, size=(2, 4, 6, 6)).astype(float)  # [map][image]
    map_cts = []
    for c in range(2):
        grid = np.full((4, 128), 7.5)
        for b in range(4):
            img = np.zeros((8, 8))
            img[:6, :6] = maps_plain[c, b]
            grid[b, :64] = img.reshape(-1)
        map_cts.append(eng.enc(grid.reshape(-1)))
    chunks = [out for ct in map_cts for out in reform(eng, ct, lay, 6, 6)]
    grids = [eng.dec(chunk).reshape(4, 128) for chunk in chunks]
    for b in range(4):
        want = oracle_flatten([maps_plain[0, b], maps_plain[1, b]])
        got = np.concatenate([grid[b, :36] for grid in grids])
        np.testing.assert_array_equal(got, want)
        # bijection: nothing outside the valid prefixes
        for grid in grids:
            assert np.count_nonzero(grid[b, 36:]) == 0


@pytest.mark.parametrize("slots", [1024, 8192, 32768])
def test_flatten_puts_each_input_where_fc1_reads_it(rng, slots):
    """On maps whose lanes outside the 26x26 block hold act1's constant
    term, as the activation leaves them, the flatten chunks decode to
    exactly the ``flatten_lanes`` scatter of ``oracle_flatten``'s inputs,
    the one ``encode_model`` gives fc1's weight columns, and every other
    slot is zero.  One level, 12 rotations, 31 cmuls and 8 keys whatever
    the slot count."""
    layout = batch_layout(slots)
    eng = make_engine(slots)
    maps = rng.uniform(-2, 2, size=(KERNEL_COUNT, layout.m, MAP_SIDE, MAP_SIDE))
    images = np.full((KERNEL_COUNT, layout.m, IMAGE_SIDE, IMAGE_SIDE), ACT1[0])
    images[:, :, :MAP_SIDE, :MAP_SIDE] = maps
    grids = np.full((KERNEL_COUNT, layout.m, layout.f), ACT1[0])
    grids[:, :, : IMAGE_SIDE * IMAGE_SIDE] = images.reshape(KERNEL_COUNT, layout.m, -1)
    cts = [eng.enc(grid.reshape(-1)) for grid in grids]
    spent = {}
    with eng.scope("flatten", spent):
        chunks = flatten(eng, cts, layout)
    chunk, lane = flatten_lanes()
    assert (chunk.max() + 1, lane.max() + 1) == (FC1_CHUNKS, FC1_LANES)
    assert len(set(zip(chunk, lane))) == FC1_IN  # no two inputs share a lane
    want = np.zeros((FC1_CHUNKS, layout.m, layout.f))
    for b in range(layout.m):
        want[chunk, b, lane] = oracle_flatten(maps[:, b])
    got = np.stack([eng.dec(ct).reshape(layout.m, layout.f) for ct in chunks])
    np.testing.assert_array_equal(got, want)
    assert [ct.depth for ct in chunks] == [1] * FC1_CHUNKS
    delta = spent["flatten"]
    assert (delta.rot_count, delta.mul_count, delta.cmul_count) == (12, 0, 31)
    assert delta.rot_offsets == {l % slots for l in (2, 4, 6, 8, 16, -726, -484, -242)}


def fc_apply(eng, parts, width, weight, bias):
    """Encode an FC layer against input matrices that each hold ``width``
    valid inputs per row (weight column i meets lane i mod width of chunk
    i // width), evaluate it as the pipeline does for FC-1 and FC-2, and
    decode its rows x lanes output."""
    rows, n = parts[0].shape
    blocks, _, p, *_ = fc_shape(len(bias), len(parts), width, rows)
    fold = FcFold.derive(width, blocks, p, rows, n, len(parts))
    chunks = [eng.enc(part.reshape(-1)) for part in parts]
    fc = encode_fc_tiles(eng, weight, bias, fold, np.divmod(np.arange(weight.shape[1]), width))
    return eng.dec(matmul_chunked(eng, chunks, fc)).reshape(rows, n)


def test_fc_layer_identity(rng):
    # 7 outputs with 4 rows: two interleaved blocks of p = 4, whose tiles
    # start at lane B*(p - 1) = 6 and need w + B - 1 lanes after it; lanes
    # 7..15 of the input hold junk the weights never read.
    eng = make_engine(64)
    x = rand_int_matrix(rng, 4, 16)
    out = fc_apply(eng, [x], 7, np.eye(7), np.zeros(7))
    np.testing.assert_array_equal(out[:, :7], x[:, :7])
    with pytest.raises(LayoutError, match="w \\+ B - 1"):  # 6 + 10 + 1 lanes > 16
        fc_apply(eng, [x], 10, np.eye(7, 10), np.zeros(7))


def test_fc_layer_random_affine(rng):
    eng = make_engine(64)
    x = rand_int_matrix(rng, 4, 16)
    w = rng.uniform(-1, 1, size=(4, 8))
    b = rng.uniform(-1, 1, size=4)
    out = fc_apply(eng, [x], 8, w, b)
    np.testing.assert_allclose(out[:, :4], x[:, :8] @ w.T + b, rtol=1e-12, atol=1e-12)


def test_fc_layer_chunked_input(rng):
    """Chunk c meets weight columns [c*w, (c+1)*w); each chunk's lanes past
    w hold junk the weights never read."""
    eng = make_engine(32)
    parts = [rand_int_matrix(rng, 4, 8) for _ in range(3)]
    w = rng.uniform(-1, 1, size=(4, 9))
    b = rng.uniform(-1, 1, size=4)
    out = fc_apply(eng, parts, 3, w, b)
    x = np.hstack([part[:, :3] for part in parts])
    np.testing.assert_allclose(out[:, :4], x @ w.T + b, rtol=1e-12, atol=1e-12)
    # 8 columns leave lane 2 of chunk 2 unread: its weights are zero
    out = fc_apply(eng, parts, 3, w[:, :8], b)
    np.testing.assert_allclose(out[:, :4], x[:, :8] @ w[:, :8].T + b, rtol=1e-12, atol=1e-12)


def test_fc_layer_blocks_wider_than_rows(rng):
    # out_dim 8 with 4 rows: two 4-wide neuron blocks interleaved over 9
    # inputs, whose tiles fill lanes 6..15 of each row
    eng = make_engine(64)
    x = rand_int_matrix(rng, 4, 16)
    w = rng.uniform(-1, 1, size=(8, 9))
    b = rng.uniform(-1, 1, size=8)
    out = fc_apply(eng, [x], 9, w, b)
    np.testing.assert_allclose(out[:, :8], x[:, :9] @ w.T + b, rtol=1e-12, atol=1e-12)
    with pytest.raises(LayoutError, match="w \\+ B - 1"):  # the full-row shape
        fc_apply(eng, [x], 16, rng.uniform(-1, 1, size=(8, 16)), b)


def test_model_weights_validation(rng):
    weights = random_weights(rng)
    weights.validate()
    bad = ModelWeights(
        conv_kernels=weights.conv_kernels,
        fc1_weight=np.zeros((64, 100)),
        fc1_bias=weights.fc1_bias,
        fc2_weight=weights.fc2_weight,
        fc2_bias=weights.fc2_bias,
        act1=ACT1,
        act2=ACT2,
    )
    with pytest.raises(EngineError):
        bad.validate()
    short_bias = ModelWeights(
        conv_kernels=weights.conv_kernels,
        fc1_weight=weights.fc1_weight,
        fc1_bias=weights.fc1_bias,
        fc2_weight=weights.fc2_weight,
        fc2_bias=np.ones(3),
        act1=ACT1,
        act2=ACT2,
    )
    with pytest.raises(EngineError, match="fc2_bias"):
        short_bias.validate()


@pytest.mark.parametrize("name", list(WEIGHT_SHAPES))
def test_validate_rejects_a_wrong_shape_for_each_entry(rng, name):
    """Every WEIGHT_SHAPES entry is checked, a vector given as a one-row
    matrix too, and the message names the entry and both shapes."""
    weights = random_weights(rng)
    shape = WEIGHT_SHAPES[name]
    for wrong in ((1, *shape), shape[:-1] + (shape[-1] - 1,)):
        bad = replace(weights, **{name: np.ones(wrong)})
        with pytest.raises(EngineError, match=rf"^{name} must have shape {re.escape(str(shape))}, got {re.escape(str(wrong))}$"):
            bad.validate()


def test_encode_model_ciphertext_count(rng):
    eng = make_engine(32768)
    model = encode_model(eng, random_weights(rng))
    assert model.ciphertext_count == 50


def test_forward_zero_images_matches_oracle_constants(rng):
    eng = make_engine(32768)
    weights = random_weights(rng)
    scores = forward_encoded(eng, pack_batch(eng, np.zeros((32, 28, 28))), encode_model(eng, weights))
    got = scores.decode(eng)[:, :10]
    want = oracle_forward(weights, np.zeros((32, 28, 28)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)


def test_pack_batch_and_encode_model_take_the_engine_layout(rng):
    """With no layout given, both sides of a 2048-slot batch use
    ``batch_layout(2048)``: two images per ciphertext."""
    eng = make_engine(2048)
    weights = random_weights(rng)
    imgs = rng.uniform(0, 1, size=(2, IMAGE_SIDE, IMAGE_SIDE))
    ct = pack_batch(eng, imgs)
    grid = eng.dec(ct).reshape(2, 1024)
    np.testing.assert_array_equal(grid[:, :784], imgs.reshape(2, 784))
    assert not grid[:, 784:].any()
    model = encode_model(eng, weights)
    assert model.layout == batch_layout(2048)
    scores = forward_encoded(eng, ct, model)
    want = oracle_forward(weights, imgs)
    np.testing.assert_allclose(scores.decode(eng)[:, :FC2_OUT], want, rtol=0.0, atol=1e-6)
    np.testing.assert_array_equal(argmax_decide(eng, scores), np.argmax(want, axis=1))


def test_forward_random_batch_oracle_agreement(rng):
    eng = make_engine(32768)
    weights = random_weights(rng)
    imgs = rng.uniform(0, 1, size=(32, 28, 28))
    ct = pack_batch(eng, imgs)
    model = encode_model(eng, weights)
    stage_meters = {}
    spent = {}
    with eng.scope("call", spent):
        scores = forward_encoded(eng, ct, model, stage_meters=stage_meters)
    total = spent["call"]
    got = scores.decode(eng)[:, :10]
    want = oracle_forward(weights, imgs)
    assert got.shape == (32, 10)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)
    labels = argmax_decide(eng, scores)
    np.testing.assert_array_equal(labels, np.argmax(want, axis=1))
    assert eng.meter_snapshot().max_depth == PIPELINE_DEPTH
    assert set(stage_meters) == {"conv", "act1", "flatten", "fc1", "act2", "fc2"}
    assert stage_meters["conv"].mul_count == KERNEL_COUNT * 9
    assert reduce(OpMeter.merged, stage_meters.values()) == total


def test_forward_fused_fc_exact_counts(rng):
    eng = make_engine(32768)
    model = encode_model(eng, random_weights(rng))
    ct = pack_batch(eng, rng.uniform(0, 1, size=(32, 28, 28)))
    stage_meters = {}
    spent = {}
    with eng.scope("call", spent):
        forward_encoded(eng, ct, model, stage_meters=stage_meters)
    total = spent["call"]
    # fc1 reads three 952-lane chunks that hold the four maps; fc2 reads
    # fc1's B*p outputs.
    fc1_shape, fc2_shape = mnist_fc_shapes()
    assert (fc1_shape[:3], fc2_shape[:3]) == ((2, 3, 32), (2, 1, 8))
    for name, fc, shape in (("fc1", model.fc1, fc1_shape), ("fc2", model.fc2, fc2_shape)):
        blocks, chunks, p, _, w, _ = shape
        assert (len(fc.tiles), len(fc.tiles[0])) == (blocks, chunks)
        assert (fc.fold.blocks, fc.fold.chunks, fc.fold.p, fc.fold.width) == (blocks, chunks, p, w)
        assert (fc.fold.rows, fc.fold.lanes) == (IMAGES_PER_CT, IMAGE_SLOTS)
        spent = stage_meters[name]
        assert (spent.rot_count, spent.mul_count, spent.cmul_count) == fc_counts(*shape)
    assert model.fc1.fold.blocks * model.fc1.fold.p == next_pow2(FC1_OUT) == FC2_IN == 64
    want = np.add(NON_FC_COUNTS, np.add(fc_counts(*fc1_shape), fc_counts(*fc2_shape)))
    assert (total.rot_count, total.mul_count, total.cmul_count) == tuple(want)
    assert total.max_depth == PIPELINE_DEPTH == 13


# Rotation keys per forward pass with one row sum per FC iteration
# (before the iterations were grouped), by slot count.
UNGROUPED_FC_KEYS = {1024: 33, 2048: 36, 16384: 53, 32768: 69}


@pytest.mark.parametrize("slots, parent_keys", [(1024, 95), (2048, 65), (16384, 54), (32768, 69)])
def test_forward_interleaved_fc_at_each_batch_height(rng, slots, parent_keys):
    """One to 32 images per ciphertext: oracle agreement, both FC layers at
    their cost formula (fc1 has 64 blocks of width 1 at 1024 slots), and no
    more rotation keys than the block-separated FC layout (``parent_keys``)
    or the ungrouped FC row sum needed."""
    layout = batch_layout(slots)
    eng = make_engine(slots)
    weights = random_weights(rng)
    imgs = rng.uniform(0, 1, size=(layout.m, IMAGE_SIDE, IMAGE_SIDE))
    model = encode_model(eng, weights)
    stage_meters = {}
    scores = forward_encoded(eng, pack_batch(eng, imgs, layout), model, stage_meters=stage_meters)
    want = oracle_forward(weights, imgs)
    np.testing.assert_allclose(scores.decode(eng)[:, :FC2_OUT], want, rtol=0.0, atol=1e-6)
    np.testing.assert_array_equal(argmax_decide(eng, scores), np.argmax(want, axis=1))
    for name, shape in zip(("fc1", "fc2"), mnist_fc_shapes(layout.m)):
        spent = stage_meters[name]
        assert (spent.rot_count, spent.mul_count, spent.cmul_count) == fc_counts(*shape)
    assert eng.meter_snapshot().max_depth == PIPELINE_DEPTH
    assert len(eng.rot_offsets) <= UNGROUPED_FC_KEYS[slots] <= parent_keys


@pytest.mark.parametrize("slots", [32768, 16384, 8192, 4096, 2048, 1024])
def test_fc_stages_make_no_rotation_by_zero(rng, slots):
    """No FC or flatten rotation is by an offset of 0 mod slots: the plain
    FC cycle's last shift, by n*p, was one, and so is the baby shift by
    n*g rows where g = p = rows (at 4096 slots and fewer)."""
    layout = batch_layout(slots)
    eng = make_engine(slots)
    model = encode_model(eng, random_weights(rng))
    stage_meters = {}
    forward_encoded(eng, pack_batch(eng, np.zeros((layout.m, IMAGE_SIDE, IMAGE_SIDE)), layout), model, stage_meters)
    for name in ("flatten", "fc1", "fc2"):
        assert stage_meters[name].rot_offsets and 0 not in stage_meters[name].rot_offsets


# fc1 and fc2 rotations per batch at the plans fc_blocking derives, and
# the ciphertexts of the model they give, by slot count.
FC_PLAN_ROTATIONS = {
    1024: (193, 18),
    2048: (202, 21),
    4096: (216, 27),
    8192: (171, 29),
    16384: (155, 29),
    32768: (195, 37),
    65536: (303, 63),
}
MODEL_CIPHERTEXTS = {1024: 250, 2048: 146, 4096: 94, 8192: 74, 16384: 58, 32768: 50, 65536: 46}


def layer_candidates(out_dim: int, chunks: int, w: int, layout: VirtualLayout) -> list:
    """(rot, cmul, blocks, p, G, g) of every plan of one FC layer by the
    cost formula: B*p = next_pow2(out_dim) with p a power of two dividing
    the rows, every group G whose fold fits the row and every multiple g
    of G dividing p."""
    out = []
    for p in (1 << t for t in range(next_pow2(out_dim).bit_length())):
        if layout.m % p:
            continue
        blocks = next_pow2(out_dim) // p
        for group in fitting_groups(blocks, p, w, layout.f):
            for giant in range(group, p + 1, group):
                if p % giant == 0:
                    rot, _, cmul = grouped_counts(blocks, chunks, p, w, group, giant, layout.m)
                    out.append((rot, cmul, blocks, p, group, giant))
    return out


@pytest.mark.parametrize("slots", sorted(FC_PLAN_ROTATIONS))
def test_fc_plan_is_the_rotation_optimum(slots, tmp_path):
    """The pair of FC plans is the one pair of fitting (p, G, g), by the
    cost formula, with the fewest FC rotations and then the fewest
    constant multiplies among the pairs within the model's budget: each
    layer stores B*C weight tiles and one bias seed, and the two may store
    no more than sum B_min*(C + 1), B_min being the layer's fewest blocks.
    Pairs of equal cost differ only in a giant step, which goes to the
    smaller g (at 65536 slots fc2's g = 4 and g = 8 tie).  The model then
    holds 4*(9 + 1) kernel ciphertexts plus those, and
    ``encode_model`` and ``load_model`` both carry the plans."""
    layout = batch_layout(slots)
    plans = fc_blocking(layout)
    assert list(plans) == ["fc1", "fc2"]
    shapes = ((FC1_OUT, FC1_CHUNKS, FC1_LANES), (FC2_OUT, 1, FC2_IN))
    assert (FC1_CHUNKS, FC1_LANES) == (3, 952)
    # each plan's width and chunks are those its input map reaches
    for fold, (_, (chunk, lane)) in zip(plans.values(), FC_LAYERS.values()):
        assert (fold.width, fold.chunks) == (lane.max() + 1, chunk.max() + 1)
    assert [(f.width, f.chunks) for f in plans.values()] == [(FC1_LANES, FC1_CHUNKS), (FC2_IN, 1)]
    layers = [layer_candidates(out_dim, chunks, w, layout) for out_dim, chunks, w in shapes]
    budget = sum(min(c[2] for c in cands) * (chunks + 1) for cands, (_, chunks, _) in zip(layers, shapes))
    within = [
        pair
        for pair in product(*layers)
        if sum(c[2] * chunks + 1 for c, (_, chunks, _) in zip(pair, shapes)) <= budget
    ]

    def cost(pair):
        return sum(c[0] for c in pair), sum(c[1] for c in pair)

    best = min(map(cost, within))
    chosen = []
    for f in plans.values():
        rot, _, cmul = grouped_counts(f.blocks, f.chunks, f.p, f.width, f.group, f.giant, layout.m)
        chosen.append((rot, cmul, f.blocks, f.p, f.group, f.giant))
    chosen = tuple(chosen)
    ties = [pair for pair in within if cost(pair) == best]
    assert {tuple(c[:5] for c in pair) for pair in ties} == {tuple(c[:5] for c in chosen)}
    assert min(ties, key=lambda pair: [c[5] for c in pair]) == chosen
    assert tuple(c[0] for c in chosen) == FC_PLAN_ROTATIONS[slots]

    model = encode_model(make_engine(slots), random_weights(np.random.default_rng(0)))
    fc_cts = sum(f.blocks * f.chunks + 1 for f in plans.values())
    assert model.ciphertext_count == KERNEL_COUNT * (KERNEL_SIZE**2 + 1) + fc_cts == MODEL_CIPHERTEXTS[slots]
    write_model(tmp_path, model)
    loaded = load_model(make_engine(slots), tmp_path)
    for fc in (model.fc1, model.fc2, loaded.fc1, loaded.fc2):
        assert len(fc.tiles) == fc.fold.blocks
    assert [model.fc1.fold, model.fc2.fold] == [loaded.fc1.fold, loaded.fc2.fold] == list(plans.values())


def test_forward_builds_each_mask_once(rng, monkeypatch):
    """One pass builds every plaintext mask once for all its consumers: k*k
    offset filters shared by the kernels, one valid-block filter shared by
    the three maps fc1 reads in place, a mask per row of the last map and
    one more per row cut between two of its pieces, per FC layer G phase
    masks plus g/G result filters shared by its blocks and its p/g giant
    steps, and two constant masks per activation stage."""
    eng = make_engine(32768)
    model = encode_model(eng, random_weights(rng))
    ct = pack_batch(eng, rng.uniform(0, 1, size=(32, 28, 28)))
    kinds = []  # "filter" for a mask built from a boolean pattern
    build = SlotEngine.mask

    def counting_mask(engine, values):
        kinds.append("filter" if np.asarray(values).dtype == np.bool_ else "constant")
        return build(engine, values)

    monkeypatch.setattr(SlotEngine, "mask", counting_mask)
    forward_encoded(eng, ct, model)
    fc_shapes = mnist_fc_shapes()
    groups, giants = zip(*(formula_plan(blocks, chunks, p, w, n, rows) for blocks, chunks, p, n, w, rows in fc_shapes))
    assert groups == (8, 4) and giants == (8, 4)
    fc_masks = sum(group + giant // group for group, giant in zip(groups, giants))
    activation_stages = 2
    flatten_masks = 1 + MAP_SIDE + FC1_CHUNKS - 1
    filters = KERNEL_SIZE**2 + flatten_masks + fc_masks
    assert (kinds.count("filter"), kinds.count("constant")) == (filters, 2 * activation_stages)
    assert len(kinds) == 9 + 29 + 9 + 5 + 4 == 56


# SHA-256 of the decoded score ciphertext of one forward pass over the
# seeded fixture of ``test_forward_scores_keep_their_bits``.  Every sum in
# the pipeline adds its terms in a fixed order, so a loop change that keeps
# that order keeps these bytes.  At 8192 slots fc1 takes two giant steps,
# and at 8192, 16384 and 32768 slots fc2 runs in 8, 4 and 2 neuron blocks.
# At 65536 slots, the slot ceiling, fc1 runs as a single neuron block
# (B = 1, p = 64, G = g = 8), the only slot count where it does.
SCORE_SHA256 = {
    32768: "c7f0c55f95a914ddc1fcff31bc98b318e3d62e8640baf870cbdf0223a65cbb41",
    16384: "5a1e5e9befc6ae0fd792e97b036b0b158454eaaf56164d0ac9f1d20b61f167cf",
    8192: "b80606043c8b3531986c76d86c00df848048427a0480c71438bf1d7e22cfa04b",
    4096: "3ba6b2ff4bb3a72bc815a25dbe7096e673b0a351ff4f937e190d2b7892eacff4",
    2048: "336c2b8ff19642ffed920d979e12311a0dbb4bf8474744f6a52915c05445f561",
    1024: "3687d9c69a3abe0617df55f7efab7a606bd2bc8cc0be75d43de11bf50e56b450",
    65536: "287faeb65a716d221b75bc36473efc053e7c8c0609ddb15bc1f33834419b15a6",
}


@pytest.mark.parametrize("slots", sorted(SCORE_SHA256, reverse=True))
def test_forward_scores_keep_their_bits(slots):
    rng = np.random.default_rng(17)
    layout = batch_layout(slots)
    weights = random_weights(rng)
    imgs = rng.uniform(0, 1, size=(layout.m, IMAGE_SIDE, IMAGE_SIDE))
    eng = make_engine(slots)
    scores = forward_encoded(eng, pack_batch(eng, imgs, layout), encode_model(eng, weights))
    assert hashlib.sha256(eng.dec(scores.ct).tobytes()).hexdigest() == SCORE_SHA256[slots]


def test_forward_depth_independent_of_content(rng):
    eng = make_engine(32768)
    weights = random_weights(rng)
    forward_encoded(eng, pack_batch(eng, rng.uniform(0, 1, size=(32, 28, 28))), encode_model(eng, weights))
    d1 = eng.meter_snapshot().max_depth
    eng2 = make_engine(32768)
    forward_encoded(eng2, pack_batch(eng2, np.zeros((32, 28, 28))), encode_model(eng2, weights))
    assert d1 == eng2.meter_snapshot().max_depth == PIPELINE_DEPTH


def test_argmax_rules():
    eng = make_engine(32)
    grid = np.zeros((2, 16))
    grid[0, 9] = 1.0  # scores [0,...,0,1] -> label 9
    pm = PackedMatrix(eng.enc(grid.reshape(-1)), MatrixShape(2, 16))
    labels = argmax_decide(eng, pm)
    assert labels[0] == 9
    assert labels[1] == 0  # all-equal scores tie-break to the lowest index


def test_fc1_in_constant():
    assert FC1_IN == 26 * 26 * 4 == 2704
