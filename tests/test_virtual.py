import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packedhe.conv import Kernel
from packedhe.engine import EngineError, LayoutError, OpMeter
from packedhe.oracle import oracle_conv
from packedhe.pipeline import pack_batch
from packedhe.virtual import (
    VirtualLayout,
    batched_conv,
    batched_conv_layer,
    reform,
    tile_kernel_span,
    vrot,
)

from conftest import make_engine, rand_int_matrix


def pack_rows(eng, layout, rows):
    grid = np.zeros((layout.m, layout.f))
    grid[:, : rows.shape[1]] = rows
    return eng.enc(grid.reshape(-1))


def test_layout_validation():
    with pytest.raises(EngineError):
        VirtualLayout(2, 12, 3, 4)  # stride not a power of two
    with pytest.raises(EngineError):
        VirtualLayout(2, 8, 3, 3)  # image exceeds stride
    for h, w in ((0, 4), (3, 0), (0, 0)):
        with pytest.raises(EngineError):
            VirtualLayout(2, 16, h, w)  # empty image
    lay = VirtualLayout(2, 16, 3, 4)
    assert lay.pad == 4 and lay.image_slots == 12


def test_vrot_example_two_images():
    eng = make_engine(32)
    lay = VirtualLayout(2, 16, 3, 4)
    rows = np.array([np.arange(1, 13), np.arange(13, 25)], dtype=float)
    ct = pack_rows(eng, lay, rows)
    out = eng.dec(vrot(eng, ct, lay, 4)).reshape(2, 16)
    np.testing.assert_array_equal(out[0, :12], np.roll(rows[0], -4))
    np.testing.assert_array_equal(out[1, :12], np.roll(rows[1], -4))
    assert np.count_nonzero(out[:, 12:]) == 0


def test_vrot_zero_keeps_values(rng):
    eng = make_engine(32)
    lay = VirtualLayout(2, 16, 3, 4)
    rows = rand_int_matrix(rng, 2, 12)
    ct = pack_rows(eng, lay, rows)
    out = eng.dec(vrot(eng, ct, lay, 0)).reshape(2, 16)
    np.testing.assert_array_equal(out[:, :12], rows)


def test_vrot_composition(rng):
    eng = make_engine(64)
    lay = VirtualLayout(4, 16, 4, 3)
    rows = rand_int_matrix(rng, 4, 12)
    ct = pack_rows(eng, lay, rows)
    hw = lay.image_slots
    for _ in range(10):
        r1, r2 = int(rng.integers(0, hw)), int(rng.integers(0, hw))
        two_step = vrot(eng, vrot(eng, ct, lay, r1), lay, r2)
        one_step = vrot(eng, ct, lay, (r1 + r2) % hw)
        np.testing.assert_array_equal(eng.dec(two_step), eng.dec(one_step))


def test_vrot_range_and_fit_errors(rng):
    eng = make_engine(64)
    lay = VirtualLayout(4, 16, 4, 3)
    ct = pack_rows(eng, lay, rand_int_matrix(rng, 4, 12))
    with pytest.raises(EngineError):
        vrot(eng, ct, lay, 12)
    small = VirtualLayout(2, 16, 4, 3)
    with pytest.raises(LayoutError):
        vrot(eng, ct, small, 1)


def test_vmul_vadd_per_image(rng):
    eng = make_engine(32)
    lay = VirtualLayout(2, 16, 3, 4)
    xs = rand_int_matrix(rng, 2, 12)
    ys = rand_int_matrix(rng, 2, 12)
    cx, cy = pack_rows(eng, lay, xs), pack_rows(eng, lay, ys)
    # the real element-wise mul/add already act per image block
    np.testing.assert_array_equal(eng.dec(eng.mul(cx, cy)).reshape(2, 16)[:, :12], xs * ys)
    np.testing.assert_array_equal(eng.dec(eng.add(cx, cy)).reshape(2, 16)[:, :12], xs + ys)
    zero = pack_rows(eng, lay, np.zeros((2, 12)))
    np.testing.assert_array_equal(eng.dec(eng.add(cx, zero)), eng.dec(cx))


def test_batched_conv_identical_images(rng):
    eng = make_engine(64)
    lay = VirtualLayout(2, 32, 4, 4)
    img = rand_int_matrix(rng, 4, 4)
    ct = pack_batch(eng, np.stack([img, img]), lay)
    kern = Kernel(rand_int_matrix(rng, 2, 2), bias=1.0)
    span = tile_kernel_span(eng, kern, lay)
    out = eng.dec(batched_conv(eng, ct, lay, span)).reshape(2, 32)
    np.testing.assert_array_equal(out[0], out[1])


def test_batched_conv_matches_per_image_oracle(rng):
    eng = make_engine(512)
    lay = VirtualLayout(4, 128, 8, 8)
    imgs = rng.integers(0, 6, size=(4, 8, 8)).astype(float)
    kern = Kernel(rand_int_matrix(rng, 3, 3), bias=0.5)
    ct = pack_batch(eng, imgs, lay)
    span = tile_kernel_span(eng, kern, lay)
    out = eng.dec(batched_conv(eng, ct, lay, span)).reshape(4, 128)
    for b in range(4):
        block = out[b, :64].reshape(8, 8)
        np.testing.assert_array_equal(block[:6, :6], oracle_conv(imgs[b], kern.weights, 0.5))


def test_batched_conv_margin_enforced(rng):
    eng = make_engine(32)
    lay = VirtualLayout(2, 16, 4, 4)  # pad 0 < (k-1)*(w+1)
    ct = pack_batch(eng, rng.integers(0, 3, size=(2, 4, 4)).astype(float), lay)
    kern = Kernel(np.ones((2, 2)))
    span = tile_kernel_span(eng, kern, lay)
    with pytest.raises(LayoutError):
        batched_conv(eng, ct, lay, span)


def test_batched_conv_amortization_meters(rng):
    def meters_for(m):
        eng = make_engine(m * 128)
        lay = VirtualLayout(m, 128, 8, 8)
        imgs = rng.integers(0, 4, size=(m, 8, 8)).astype(float)
        kern = Kernel(np.ones((3, 3)), bias=1.0)
        span = tile_kernel_span(eng, kern, lay)
        ct = pack_batch(eng, imgs, lay)
        spent = {}
        with eng.scope("call", spent):
            batched_conv(eng, ct, lay, span)
        return spent["call"]

    assert meters_for(1) == meters_for(8)


def test_reform_flattens_block():
    eng = make_engine(16)
    lay = VirtualLayout(1, 16, 3, 3)
    vals = np.zeros(16)
    vals[:9] = [11, 12, 0, 21, 22, 0, 0, 0, 0]
    (out,) = reform(eng, eng.enc(vals), lay, 2, 2)
    np.testing.assert_array_equal(eng.dec(out)[:6], [11, 12, 21, 22, 0, 0])


def test_reform_identity_when_full(rng):
    eng = make_engine(32)
    lay = VirtualLayout(2, 16, 4, 4)
    rows = rand_int_matrix(rng, 2, 16)
    ct = eng.enc(rows.reshape(-1))
    (out,) = reform(eng, ct, lay, 4, 4)
    np.testing.assert_array_equal(eng.dec(out), rows.reshape(-1))
    # out_w == w: every row is already in place, so nothing rotates
    assert eng.meter_snapshot().rot_count == 0 and eng.rot_offsets == set()


def test_reform_per_image_and_costs(rng):
    eng = make_engine(64)
    lay = VirtualLayout(2, 32, 5, 5)
    rows = np.zeros((2, 32))
    rows[:, :25] = rand_int_matrix(rng, 2, 25)
    ct = eng.enc(rows.reshape(-1))
    spent = {}
    with eng.scope("call", spent):
        (out,) = reform(eng, ct, lay, 3, 3)
    delta = spent["call"]
    got = eng.dec(out).reshape(2, 32)
    for b in range(2):
        want = rows[b, :25].reshape(5, 5)[:3, :3].reshape(-1)
        np.testing.assert_array_equal(got[b, :9], want)
        assert np.count_nonzero(got[b, 9:]) == 0
    # three rows in groups of one: giant steps by 2 and 4 slots
    assert delta == OpMeter(add_count=2, cmul_count=3, rot_count=2, max_depth=1, rot_offsets={2, 4})


def test_reform_block_too_large():
    eng = make_engine(16)
    lay = VirtualLayout(1, 16, 3, 3)
    with pytest.raises(EngineError):
        reform(eng, eng.enc(np.ones(9)), lay, 4, 2)
    for out_h, out_w in ((0, 2), (2, 0), (0, 0)):  # empty block
        with pytest.raises(EngineError):
            reform(eng, eng.enc(np.ones(9)), lay, out_h, out_w)


@st.composite
def layouts(draw, min_side=1, margin_k=1):
    """A VirtualLayout of up to 8 blocks whose images (sides >= min_side)
    leave the (k-1)*(w+1) pad margin batched convolution needs when m > 1."""
    m = 2 ** draw(st.integers(0, 3))
    h = draw(st.integers(min_side, 8))
    w = draw(st.integers(min_side, 8))
    need = h * w + (margin_k - 1) * (w + 1) if m > 1 else h * w
    f = 2 ** draw(st.integers(max(need - 1, 1).bit_length(), 8))
    return VirtualLayout(m, f, h, w)


def junk_padded(rng, layout):
    """Random integer images with junk in every pad slot: the (m, f) grid
    and the (m, h, w) images it holds.  Masked junk may come back as -0.0,
    so results are compared by value."""
    grid = rng.integers(-9, 10, size=(layout.m, layout.f)).astype(np.float64)
    return grid, grid[:, : layout.image_slots].reshape(layout.m, layout.h, layout.w)


def call_delta(eng, fn, *args):
    spent = {}
    with eng.scope("call", spent):
        out = fn(eng, *args)
    return out, spent["call"]


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_vrot_property(layout, data, seed):
    rng = np.random.default_rng(seed)
    eng = make_engine(layout.m * layout.f)
    grid, _ = junk_padded(rng, layout)
    hw = layout.image_slots
    r = data.draw(st.integers(0, hw - 1), label="r")
    out, delta = call_delta(eng, vrot, eng.enc(grid.reshape(-1)), layout, r)
    want = np.zeros_like(grid)
    want[:, :hw] = np.roll(grid[:, :hw], -r, axis=1)
    np.testing.assert_array_equal(eng.dec(out), want.reshape(-1))
    keys = {r % eng.slots, (r - hw) % eng.slots}
    assert delta == OpMeter(add_count=1, cmul_count=2, rot_count=2, max_depth=1, rot_offsets=keys)


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_reform_property(layout, data, seed):
    rng = np.random.default_rng(seed)
    eng = make_engine(layout.m * layout.f)
    grid, images = junk_padded(rng, layout)
    out_h = data.draw(st.integers(1, layout.h), label="out_h")
    out_w = data.draw(st.integers(1, layout.w), label="out_w")
    (out,) = reform(eng, eng.enc(grid.reshape(-1)), layout, out_h, out_w)
    want = np.zeros_like(grid)
    want[:, : out_h * out_w] = images[:, :out_h, :out_w].reshape(layout.m, -1)
    np.testing.assert_array_equal(eng.dec(out), want.reshape(-1))


def per_row_reform(eng, cts, layout, out_h, out_w):
    """The reform as one rotation per row: row r rotated left by
    r*(w - out_w), masked to its destination lanes and added in row order."""
    lane = np.arange(eng.slots) % layout.f
    first = np.arange(out_h)[:, None] * out_w
    dests = (lane >= first) & (lane < first + out_w)
    accs = [eng.accumulator() for _ in cts]
    for r, dest in enumerate(dests):
        keep = eng.mask(dest)
        for acc, ct in zip(accs, cts):
            acc.cmul(keep, eng.rot(ct, r * (layout.w - out_w)) if r else ct)
    return [acc.result() for acc in accs]


def reform_each(eng, cts, *args, **kwargs):
    """Each map's reform pieces in order, map after map: one call per map."""
    return [out for ct in cts for out in reform(eng, ct, *args, **kwargs)]


def reform_steps(out_h):
    """(R, g): the fewest rotations per map of a baby-and-giant-step reform
    of out_h rows, min over g of (g - 1) + (ceil(out_h/g) - 1), and the
    smallest g that reaches it."""
    cost, g = min((g - 1 + -(-out_h // g) - 1, g) for g in range(1, out_h + 1))
    return cost, g


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), maps=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_reform_maps_keeps_the_per_row_bits(layout, maps, data, seed):
    """Baby and giant steps give the per-row loop's bytes and depths, with
    maps*R(out_h) rotations (none when out_w == w), maps*out_h cmuls,
    maps*(out_h - 1) adds and the keys b*s and g*a*s."""
    rng = np.random.default_rng(seed)
    grids = [junk_padded(rng, layout)[0] for _ in range(maps)]
    out_h = data.draw(st.integers(1, layout.h), label="out_h")
    out_w = data.draw(st.integers(1, layout.w), label="out_w")
    slots = layout.m * layout.f

    def run(fn):
        eng = make_engine(slots)
        outs, delta = call_delta(eng, fn, [eng.enc(g.reshape(-1)) for g in grids], layout, out_h, out_w)
        return [(o.slots.tobytes(), o.depth) for o in outs], delta

    (got, delta), (want, _) = run(reform_each), run(per_row_reform)
    assert got == want
    s = layout.w - out_w
    cost, g = reform_steps(out_h)
    assert cost <= out_h - 1
    keys = {b * s for b in range(1, g)} | {g * a * s for a in range(1, -(-out_h // g))} if s else set()
    assert delta == OpMeter(
        add_count=maps * (out_h - 1),
        cmul_count=maps * out_h,
        rot_count=maps * cost if s else 0,
        max_depth=1,
        rot_offsets=keys,
    )


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), maps=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_reform_maps_cuts_pieces_from_a_start_lane(layout, maps, data, seed):
    """Feature j = r*out_w + x of each map's block lands at lane
    start + j mod piece of its piece j // piece, every other slot zero, in
    one level; each (row, piece) pair costs one cmul, each piece rotates
    once per group after its first and once into place."""
    rng = np.random.default_rng(seed)
    grids = [junk_padded(rng, layout) for _ in range(maps)]
    out_h = data.draw(st.integers(1, layout.h), label="out_h")
    out_w = data.draw(st.integers(1, layout.w), label="out_w")
    features = out_h * out_w
    piece = data.draw(st.integers(1, features), label="piece")
    start = data.draw(st.integers(0, layout.f - piece), label="start")
    eng = make_engine(layout.m * layout.f)
    cts = [eng.enc(grid.reshape(-1)) for grid, _ in grids]
    outs, delta = call_delta(eng, lambda *args: reform_each(*args, start=start, piece=piece), cts, layout, out_h, out_w)
    firsts = range(0, features, piece)
    assert len(outs) == maps * len(firsts)
    for (_, images), pieces in zip(grids, (outs[i : i + len(firsts)] for i in range(0, len(outs), len(firsts)))):
        block = images[:, :out_h, :out_w].reshape(layout.m, -1)
        for first, out in zip(firsts, pieces):
            want = np.zeros((layout.m, layout.f))
            kept = block[:, first : first + piece]
            want[:, start : start + kept.shape[1]] = kept
            np.testing.assert_array_equal(eng.dec(out), want.reshape(-1))
            assert out.depth == 1
    s, g = layout.w - out_w, reform_steps(out_h)[1]
    spans = [(first // out_w, (min(first + piece, features) - 1) // out_w) for first in firsts]
    rots = (g - 1) * (s > 0) + sum(
        (top // g - first_row // g) * (s > 0) + (first_row // g * g * s + first - start != 0)
        for first, (first_row, top) in zip(firsts, spans)
    )
    assert (delta.cmul_count, delta.rot_count) == (maps * sum(top - row + 1 for row, top in spans), maps * rots)
    assert delta.mul_count == 0 and delta.max_depth == 1


def test_reform_maps_rejects_pieces_past_the_block():
    eng = make_engine(32)
    lay = VirtualLayout(2, 16, 4, 4)
    for start, piece in ((13, 4), (0, 0), (-1, 2), (8, 9)):
        with pytest.raises(EngineError, match="do not fit block stride 16"):
            reform(eng, eng.enc(np.ones(32)), lay, 3, 3, start=start, piece=piece)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_batched_conv_property(k, data, seed):
    layout = data.draw(layouts(min_side=2 * k - 1, margin_k=k), label="layout")
    rng = np.random.default_rng(seed)
    kern = Kernel(rand_int_matrix(rng, k, k), bias=float(rng.integers(-3, 4)))
    grid, images = junk_padded(rng, layout)

    def run(m):
        lay = VirtualLayout(m, layout.f, layout.h, layout.w)
        eng = make_engine(m * layout.f)
        span = tile_kernel_span(eng, kern, lay)
        out, delta = call_delta(eng, batched_conv, eng.enc(grid[:m].reshape(-1)), lay, span)
        return eng.dec(out).reshape(m, layout.f), delta

    got, delta = run(layout.m)
    out_h, out_w = layout.h - k + 1, layout.w - k + 1
    for b in range(layout.m):
        want = np.zeros(layout.f)
        valid = np.zeros((layout.h, layout.w))
        valid[:out_h, :out_w] = oracle_conv(images[b], kern.weights, kern.bias)
        want[: layout.image_slots] = valid.reshape(-1)
        np.testing.assert_array_equal(got[b], want)
    # one pass of the k*k loop whatever the batch size
    assert delta == run(1)[1]
    kk = k * k
    assert (delta.mul_count, delta.rot_count, delta.cmul_count, delta.add_count) == (kk, 2 * k * kk, kk, (2 * k - 1) * kk)


def shared_vs_one_call_each(slots, run_shared, run_one):
    """Run a layer both ways inside a scope on fresh engines: (result slot
    bytes and depths, meter delta, scope entries, rotation keys)."""

    def outcome(run):
        eng = make_engine(slots)
        with eng.scope("layer"):
            outs, delta = call_delta(eng, run)
        return [(o.slots.tobytes(), o.depth) for o in outs], delta, eng.scopes, eng.rot_offsets

    return outcome(run_shared), outcome(run_one)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 3), kernels=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_batched_conv_layer_matches_one_call_per_kernel(k, kernels, data, seed):
    layout = data.draw(layouts(min_side=2 * k - 1, margin_k=k), label="layout")
    rng = np.random.default_rng(seed)
    kerns = [Kernel(rand_int_matrix(rng, k, k), bias=float(rng.integers(-3, 4))) for _ in range(kernels)]
    grid, _ = junk_padded(rng, layout)

    def operands(eng):
        return eng.enc(grid.reshape(-1)), [tile_kernel_span(eng, kern, layout) for kern in kerns]

    def shared(eng):
        ct, spans = operands(eng)
        return batched_conv_layer(eng, ct, layout, spans)

    def one_each(eng):
        ct, spans = operands(eng)
        return [batched_conv(eng, ct, layout, span) for span in spans]

    got, want = shared_vs_one_call_each(layout.m * layout.f, shared, one_each)
    assert got == want
    assert len(got[0]) == kernels


def test_batched_conv_layer_rejects_mixed_or_missing_kernels(rng):
    eng = make_engine(512)
    lay = VirtualLayout(4, 128, 8, 8)
    ct = pack_batch(eng, rng.integers(0, 4, size=(4, 8, 8)).astype(float), lay)
    spans = [tile_kernel_span(eng, Kernel(np.ones((k, k))), lay) for k in (2, 3)]
    with pytest.raises(LayoutError, match="share"):
        batched_conv_layer(eng, ct, lay, spans)
    with pytest.raises(EngineError, match="at least one kernel"):
        batched_conv_layer(eng, ct, lay, [])
