"""Every metered op is a call of its SlotEngine primitive.

perfbench's tracer and any outside observer see the engine only through
``SlotEngine.add/mul/cmul/rot``.  Wrapping them in counting shims (as the
tracer does) must therefore see exactly the counts the engine meters, also
where the program sums in place through an accumulator.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from packedhe.conv import ImageShape, Kernel, conv, kernel_spanner
from packedhe.encoding import encode_revolver, encode_row_major
from packedhe.engine import SlotEngine
from packedhe.matmul import cycle_closes, matmul
from packedhe.multicipher import conv_columns, encode_image_columns, encode_left, encode_right, matmul_outer
from packedhe.pipeline import batch_layout, encode_model, forward_encoded, pack_batch
from packedhe.virtual import VirtualLayout, batched_conv, reform, tile_kernel_span, vrot

from conftest import make_engine, rand_int_matrix
from test_pipeline import random_weights

PRIMITIVES = ("add", "mul", "cmul", "rot")

# (add, mul, cmul, rot) of each stage of one 32-image batch at 32768 slots.
# add is no end-to-end benchmark metric, so this table is what guards it.
MNIST_STAGE_COUNTS = {
    "conv": (180, 36, 36, 216),
    "act1": (12, 8, 8, 0),
    "flatten": (28, 0, 31, 12),
    "fc1": (312, 192, 36, 195),
    "act2": (3, 2, 2, 0),
    "fc2": (40, 16, 10, 37),
}

# Distinct rotation offsets (rotation keys) of each stage of that batch;
# their union is the batch's 31 keys.
MNIST_STAGE_KEYS = {"conv": 5, "act1": 0, "flatten": 8, "fc1": 21, "act2": 0, "fc2": 13}


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Calls of each primitive made through the SlotEngine class."""
    counted = Counter()
    for name in PRIMITIVES:
        orig = getattr(SlotEngine, name)

        def shim(engine, *args, _name=name, _orig=orig, **kwargs):
            counted[_name] += 1
            return _orig(engine, *args, **kwargs)

        monkeypatch.setattr(SlotEngine, name, shim)
    return counted


@pytest.fixture
def masks(monkeypatch) -> list:
    """Every PlainMask built through ``SlotEngine.mask``, in order."""
    built = []
    orig = SlotEngine.mask

    def shim(engine, *args, **kwargs):
        built.append(orig(engine, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(SlotEngine, "mask", shim)
    return built


def metered(eng) -> Counter:
    m = eng.meter_snapshot()
    return Counter(add=m.add_count, mul=m.mul_count, cmul=m.cmul_count, rot=m.rot_count)


@pytest.mark.parametrize("slots", [32768, 1024], ids=["32768-slots", "1024-slots"])
def test_forward_pass_calls_equal_meter(rng, calls, slots):
    eng = make_engine(slots)
    model = encode_model(eng, random_weights(rng))
    ct = pack_batch(eng, rng.uniform(0, 1, size=(batch_layout(slots).m, 28, 28)))
    stage_meters = {}
    forward_encoded(eng, ct, model, stage_meters=stage_meters)
    assert calls == metered(eng)
    assert sum(calls.values()) > 0
    if slots == 32768:
        got = {k: (v.add_count, v.mul_count, v.cmul_count, v.rot_count) for k, v in stage_meters.items()}
        assert got == MNIST_STAGE_COUNTS
        assert {k: len(v.rot_offsets) for k, v in stage_meters.items()} == MNIST_STAGE_KEYS
        union = set().union(*(v.rot_offsets for v in stage_meters.values()))
        assert union == eng.rot_offsets and len(union) == 31


def test_matmul_outer_calls_equal_meter(rng, calls):
    eng = make_engine(64)
    a, b = rand_int_matrix(rng, 4, 5), rand_int_matrix(rng, 5, 8)
    out = matmul_outer(eng, encode_left(eng, a, 8), encode_right(eng, b, 4))
    np.testing.assert_array_equal(out.decode(eng), a @ b)
    assert calls == metered(eng) == Counter(mul=5, add=4)


def test_conv_columns_calls_equal_meter(rng, calls):
    eng = make_engine(32)
    cei = encode_image_columns(eng, rng.integers(-2, 5, size=(2, 8, 8)).astype(float))
    conv_columns(eng, cei, Kernel(rand_int_matrix(rng, 3, 3), bias=0.5))
    assert calls == metered(eng)
    assert calls["add"] == calls["cmul"] > 0


def test_conv_calls_equal_meter(rng, calls):
    eng = make_engine(64)
    shape = ImageShape(7, 8)
    span = kernel_spanner(eng, Kernel(rand_int_matrix(rng, 3, 3), bias=1.0), shape)
    conv(eng, eng.enc(rand_int_matrix(rng, 7, 8).reshape(-1)), span, shape)
    assert calls == metered(eng)
    assert calls == Counter(mul=9, add=9 * 5, cmul=9, rot=9 * 6)


@pytest.mark.parametrize(
    "slots, m, n, p, fast",
    [(64, 8, 8, 8, True), (64, 8, 8, 2, True), (64, 6, 8, 4, False), (128, 5, 16, 3, False)],
    ids=["single-rotation", "single-rotation-p<n", "row-cycle", "row-cycle-p-odd"],
)
def test_matmul_calls_equal_meter(rng, calls, masks, slots, m, n, p, fast):
    """The paper's loop makes every op through its primitive and builds each
    filter it uses once: the column-0 filter, the p result filters and, on
    the general row cycle, two row-band filters per iteration."""
    eng = make_engine(slots)
    a, b = rand_int_matrix(rng, m, n), rand_int_matrix(rng, n, p)
    ct_a, ct_b = encode_row_major(eng, a), encode_revolver(eng, b, target_m=max(m, p))
    assert cycle_closes(eng, max(m, p), n, p) is fast
    masks.clear()
    out = matmul(eng, ct_a, ct_b)
    np.testing.assert_array_equal(out.decode(eng)[:m, :p], a @ b)
    assert calls == metered(eng)
    log_n = n.bit_length() - 1
    cycle_rot, cycle_cmul, cycle_add = (1, 0, 0) if fast else (2, 2, 1)
    assert calls == Counter(
        rot=p * (cycle_rot + 2 * log_n),
        mul=p,
        cmul=p * (2 + cycle_cmul),
        add=p * (2 * log_n + 1 + cycle_add),
    )
    assert len(masks) == 1 + p + (0 if fast else 2 * p)
    assert all(np.isin(mask.values, (0.0, 1.0)).all() for mask in masks)


def test_vrot_calls_equal_meter(rng, calls, masks):
    eng = make_engine(64)
    lay = VirtualLayout(4, 16, 4, 3)
    rows = rand_int_matrix(rng, 4, 12)
    grid = np.zeros((4, 16))
    grid[:, :12] = rows
    out = vrot(eng, eng.enc(grid.reshape(-1)), lay, 5)
    np.testing.assert_array_equal(eng.dec(out).reshape(4, 16)[:, :12], np.roll(rows, -5, axis=1))
    assert calls == metered(eng) == Counter(rot=2, cmul=2, add=1)
    assert len(masks) == 2


def test_batched_conv_calls_equal_meter(rng, calls):
    eng = make_engine(64)
    lay = VirtualLayout(2, 32, 4, 4)
    ct = pack_batch(eng, rng.integers(-2, 5, size=(2, 4, 4)).astype(float), lay)
    span = tile_kernel_span(eng, Kernel(rand_int_matrix(rng, 2, 2), bias=1.0), lay)
    batched_conv(eng, ct, lay, span)
    assert calls == metered(eng)
    assert calls["mul"] == 4 and calls["rot"] > 0


def _forward(slots):
    rng = np.random.default_rng(17)
    eng = make_engine(slots)
    model = encode_model(eng, random_weights(rng))
    forward_encoded(eng, pack_batch(eng, rng.uniform(0, 1, size=(batch_layout(slots).m, 28, 28))), model)


def _vrot():
    eng = make_engine(64)
    lay = VirtualLayout(4, 16, 4, 3)
    ct = eng.enc(np.arange(64.0))
    for r in range(12):
        vrot(eng, ct, lay, r)


def _conv():
    rng = np.random.default_rng(17)
    eng = make_engine(64)
    shape = ImageShape(7, 8)
    span = kernel_spanner(eng, Kernel(rand_int_matrix(rng, 3, 3)), shape)
    conv(eng, eng.enc(rand_int_matrix(rng, 7, 8).reshape(-1)), span, shape)


def _conv_columns():
    rng = np.random.default_rng(17)
    eng = make_engine(32)
    cei = encode_image_columns(eng, rng.integers(-2, 5, size=(2, 8, 8)).astype(float))
    cei = conv_columns(eng, cei, Kernel(rand_int_matrix(rng, 3, 3), bias=0.5))
    conv_columns(eng, cei, Kernel(rand_int_matrix(rng, 2, 2), bias=-1.0))


def _reform():
    eng = make_engine(64)
    lay = VirtualLayout(2, 32, 5, 5)
    ct = eng.enc(np.arange(64.0))
    reform(eng, ct, lay, 3, 4)
    reform(eng, ct, lay, 4, 3, start=13, piece=5)


def _matmul():
    rng = np.random.default_rng(17)
    eng = make_engine(128)
    a, b = rand_int_matrix(rng, 5, 16), rand_int_matrix(rng, 16, 3)
    matmul(eng, encode_row_major(eng, a), encode_revolver(eng, b, target_m=5))


MASK_CASES = {
    "forward-2048": lambda: _forward(2048),
    "forward-32768": lambda: _forward(32768),
    "vrot": _vrot,
    "conv": _conv,
    "conv_columns": _conv_columns,
    "reform": _reform,
    "matmul-general": _matmul,
}

# SHA-256 of the values of every PlainMask each MASK_CASES entry builds, in
# build order: a change to how a filter is laid out that keeps its bytes and
# its place in the build order keeps these.
MASK_SHA256 = {
    "forward-2048": "bf2f2b618666a1bf8e8422fc7fe9765580e9f8e2536a16423db2f144bda150e8",
    "forward-32768": "213a8670c24b814373f94ad3b4c67ee509780c04f99e6e8edf27b8d66315e1c3",
    "vrot": "2eaafc19ac204238ad14f6359e2637b8ab85ffeb7c98bf992c279616b9cb901b",
    "conv": "27c74a9124fd28717c84be78bf130bc5f2613ceaec480399c1b9aa263be81cf7",
    "conv_columns": "28039d91b35adf9d3d5d165b2f2807d137e812b8de366535354a9c837a2dbfbb",
    "reform": "1981fe9c344bb46359aeb2637b4fb0b606064ae99ea706cf501b26c66177c554",
    "matmul-general": "53d5cebac74fb3244d06c71f8a669c21c0bb313689b2591e02548bea29eb7bfb",
}


@pytest.mark.parametrize("case", MASK_CASES)
def test_built_masks_keep_their_bytes(masks, case):
    MASK_CASES[case]()
    digest = hashlib.sha256()
    for mask in masks:
        digest.update(mask.values.tobytes())
    assert masks and digest.hexdigest() == MASK_SHA256[case]
