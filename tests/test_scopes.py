"""SlotEngine.scope semantics and the scopes of the real matmul/conv loops."""

from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from packedhe.bench import measure_conv_steps, measure_matmul_steps
from packedhe.conv import ImageShape, Kernel, conv, kernel_spanner
from packedhe.engine import OpMeter, next_pow2
from packedhe.matmul import matmul
from packedhe.oracle import oracle_conv, oracle_matmul

from conftest import make_engine, rand_int_matrix
from test_matmul import encode_pair

MATMUL_SCOPES = ["matmul.row_cycle", "matmul.row_sum", "matmul.result_filter", "matmul.accumulate"]
CONV_SCOPES = ["conv.span_multiply", "conv.window_cascade", "conv.offset_filter", "conv.accumulate"]


def counts(meter: OpMeter) -> tuple:
    """(add, cmul, rot, mul): the StepCost column order."""
    return meter.add_count, meter.cmul_count, meter.rot_count, meter.mul_count


def test_scope_charges_block_and_accumulates_on_reentry():
    eng = make_engine(8)
    ct = eng.enc([1.0, 2.0])
    with eng.scope("a"):
        eng.rot(eng.mul(ct, ct), 1)
    assert eng.scopes["a"] == OpMeter(rot_count=1, mul_count=1, max_depth=1, rot_offsets={1})
    with eng.scope("a"):
        eng.add(ct, ct)
        eng.rot(ct, -1)
    assert eng.scopes["a"] == OpMeter(add_count=1, rot_count=2, mul_count=1, max_depth=1, rot_offsets={1, 7})


def test_scope_into_dict_sets_key_once_at_first_exit():
    class Recorder(dict):
        def __init__(self):
            super().__init__()
            self.sets = []

        def __setitem__(self, key, value):
            self.sets.append(key)
            super().__setitem__(key, value)

    eng = make_engine(8)
    ct = eng.enc([1.0])
    into = Recorder()
    with eng.scope("outer", into):
        with eng.scope("inner", into):
            eng.cmul(eng.mask([2.0]), ct)
        assert into.sets == ["inner"]
        eng.rot(ct, 1)
    with eng.scope("outer", into):
        eng.rot(ct, 2)
    assert into.sets == ["inner", "outer"]
    assert into["outer"] == OpMeter(cmul_count=1, rot_count=2, max_depth=1, rot_offsets={1, 2})
    assert into["inner"] == OpMeter(cmul_count=1, max_depth=1)
    assert eng.scopes == {}


def test_scope_records_the_offsets_of_its_own_rotations():
    """Each open scope, nested or not, gets the offsets (mod slots) its
    block used, an offset used before the block included; the engine's set
    is their union with the rotations outside any scope."""
    eng = make_engine(16)
    ct = eng.enc([1.0])
    eng.rot(ct, 3)
    stages = {}
    with eng.scope("outer", stages):
        eng.rot(ct, 3)
        with eng.scope("inner", stages):
            eng.rot(ct, -2)
            eng.rot(ct, 30)
        eng.rot(ct, 16)
    with eng.scope("after", stages):
        eng.add(ct, ct)
    assert stages["inner"].rot_offsets == {14}
    assert stages["outer"].rot_offsets == {0, 3, 14}
    assert stages["after"].rot_offsets == set()
    assert eng.rot_offsets == eng.meter_snapshot().rot_offsets == {0, 3, 14}
    assert reduce(OpMeter.merged, stages.values()).rot_offsets == {0, 3, 14}


@st.composite
def matmul_shapes(draw):
    """(m, n, p, slots): n a power of two, p <= n, m below, at or above p
    (non-powers of two included), and a ciphertext that either fits the
    working layout exactly or has slack, so both row-cycle paths occur."""
    n = 1 << draw(st.integers(0, 4))
    p = draw(st.integers(1, n))
    m = draw(st.integers(1, 2 * p + 3))
    slack = draw(st.integers(0, 1))
    return m, n, p, next_pow2(max(2, max(m, p) * n)) << slack


@settings(max_examples=30, deadline=None)
@given(shape=matmul_shapes(), seed=st.integers(0, 2**32 - 1))
def test_matmul_scopes_cover_the_call(shape, seed):
    m, n, p, slots = shape
    rng = np.random.default_rng(seed)
    eng = make_engine(slots)
    a, b = rand_int_matrix(rng, m, n), rand_int_matrix(rng, n, p)
    ct_a, ct_b = encode_pair(eng, a, b)
    spent = {}
    with eng.scope("call", spent):
        out = matmul(eng, ct_a, ct_b)
    call = spent["call"]
    np.testing.assert_array_equal(out.decode(eng)[:m, :p], oracle_matmul(a, b))

    assert sorted(eng.scopes) == sorted(MATMUL_SCOPES)
    total = reduce(OpMeter.merged, eng.scopes.values())
    call.enc_count -= 1  # the accumulator seed, before the loop
    assert total == call

    steps = measure_matmul_steps(m, n, p, slots)
    for name, step in zip(MATMUL_SCOPES, steps):
        assert counts(eng.scopes[name]) == tuple(p * c for c in (step.add, step.cmul, step.rot, step.mul))
        assert step.within_budget


@st.composite
def conv_shapes(draw):
    k = draw(st.integers(1, 4))
    h = draw(st.integers(2 * k - 1, 2 * k + 6))
    w = draw(st.integers(2 * k - 1, 2 * k + 6))
    return h, w, k


@settings(max_examples=20, deadline=None)
@given(shape=conv_shapes(), seed=st.integers(0, 2**32 - 1))
def test_conv_scopes_cover_the_call(shape, seed):
    h, w, k = shape
    rng = np.random.default_rng(seed)
    eng = make_engine(max(2, next_pow2(h * w)))
    image = rand_int_matrix(rng, h, w, 0, 7)
    kernel = Kernel(rand_int_matrix(rng, k, k, -3, 4), bias=float(rng.integers(-3, 4)))
    span = kernel_spanner(eng, kernel, ImageShape(h, w))
    ct = eng.enc(image.reshape(-1))
    spent = {}
    with eng.scope("call", spent):
        out = conv(eng, ct, span, ImageShape(h, w))
    call = spent["call"]
    out_h, out_w = h - k + 1, w - k + 1
    got = eng.dec(out)[: h * w].reshape(h, w)[:out_h, :out_w]
    np.testing.assert_array_equal(got, oracle_conv(image, kernel.weights, kernel.bias))

    assert sorted(eng.scopes) == sorted(CONV_SCOPES)
    assert reduce(OpMeter.merged, eng.scopes.values()) == call

    steps = measure_conv_steps(h, w, k)
    for name, step in zip(CONV_SCOPES, steps):
        assert counts(eng.scopes[name]) == tuple(k * k * c for c in (step.add, step.cmul, step.rot, step.mul))
        assert step.within_budget
