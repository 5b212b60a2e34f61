import numpy as np
import pytest

from packedhe.encoding import PackedMatrix, encode_revolver, encode_row_major
from packedhe.engine import EngineError, LayoutError
from packedhe.matmul import build_result_filter, cycle_closes, matmul, row_shifter
from packedhe.oracle import oracle_matmul

from conftest import make_engine, rand_int_matrix


def encode_pair(eng, a, b, extra_width: int = 0):
    """Encode (A, B) for matmul, padding the row width when p > n."""
    a = np.atleast_2d(np.asarray(a, float))
    b = np.atleast_2d(np.asarray(b, float))
    m, n = a.shape
    n2, p = b.shape
    assert n == n2
    width = max(n, p) + extra_width
    a_pad = np.zeros((m, width))
    a_pad[:, :n] = a
    b_pad = np.zeros((width, p))
    b_pad[:n, :] = b
    target = max(m, p)
    return encode_row_major(eng, a_pad), encode_revolver(eng, b_pad, target_m=target)


def test_row_shifter_single_step():
    eng = make_engine(8)
    b = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=float)
    bbar = encode_revolver(eng, b, target_m=2)
    out = row_shifter(eng, bbar, idx=0)
    np.testing.assert_array_equal(out.decode(eng), [[2, 4, 6, 8], [1, 3, 5, 7]])


def test_row_shifter_fast_path_is_single_rotation(rng):
    eng = make_engine(16)  # 4x4 layout fills the ciphertext
    b = rand_int_matrix(rng, 4, 2)
    bbar = encode_revolver(eng, b, target_m=4)
    spent = {}
    with eng.scope("call", spent):
        out = row_shifter(eng, bbar, idx=0)
    delta = spent["call"]
    assert (delta.rot_count, delta.cmul_count, delta.add_count) == (1, 0, 0)
    np.testing.assert_array_equal(eng.dec(out.ct), np.roll(eng.dec(bbar.ct), -4))


def test_row_shifter_general_path_costs(rng):
    eng = make_engine(64)  # slack slots force the masked path
    b = rand_int_matrix(rng, 4, 3)
    bbar = encode_revolver(eng, b, target_m=3)
    spent = {}
    with eng.scope("call", spent):
        row_shifter(eng, bbar, idx=1)
    delta = spent["call"]
    assert (delta.rot_count, delta.cmul_count, delta.add_count) == (2, 2, 1)


def test_row_shifter_p1_keeps_values(rng):
    eng = make_engine(32)
    b = rand_int_matrix(rng, 4, 1)
    bbar = encode_revolver(eng, b, target_m=3)
    out = row_shifter(eng, bbar, idx=0)
    np.testing.assert_array_equal(out.decode(eng), bbar.decode(eng))


def test_row_shifter_idx_range():
    eng = make_engine(8)
    bbar = encode_revolver(eng, np.ones((4, 2)), target_m=2)
    with pytest.raises(EngineError):
        row_shifter(eng, bbar, idx=2)


def test_result_filter_placement():
    eng = make_engine(8)
    f = build_result_filter(eng, 2, 4, 2, 0)
    np.testing.assert_array_equal(f.values.reshape(-1)[:8].reshape(2, 4),
                                  [[1, 0, 0, 0], [0, 1, 0, 0]])
    f = build_result_filter(eng, 2, 4, 2, 1)
    np.testing.assert_array_equal(f.values.reshape(-1)[:8].reshape(2, 4),
                                  [[0, 1, 0, 0], [1, 0, 0, 0]])
    eng = make_engine(16)
    f = build_result_filter(eng, 3, 4, 1, 0)
    np.testing.assert_array_equal(f.values.reshape(-1)[:12].reshape(3, 4)[:, 0], [1, 1, 1])
    # two interleaved blocks, a group of two of p = 4 iterations from idx 1:
    # row i keeps lanes 2*((i + 1 + k) mod 4) + j for k, j < 2
    eng = make_engine(32)
    f = build_result_filter(eng, 3, 10, 4, 1, blocks=2, group=2)
    np.testing.assert_array_equal(
        f.values[:30].reshape(3, 10),
        [[0, 0, 1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0, 1, 1, 0, 0]],
    )


def test_matmul_selector_example():
    eng = make_engine(8)
    a = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    b = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=float)
    ca, cb = encode_pair(eng, a, b)
    got = matmul(eng, ca, cb).decode(eng)
    np.testing.assert_array_equal(got[:2, :2], [[1, 2], [3, 4]])


def test_matmul_zero_left_operand():
    eng = make_engine(8)
    ca, cb = encode_pair(eng, np.zeros((2, 4)), np.arange(8, dtype=float).reshape(4, 2))
    assert np.count_nonzero(matmul(eng, ca, cb).decode(eng)) == 0


@pytest.mark.parametrize("extra", [1, 4], ids=["full-pack", "slack-slots"])
def test_matmul_oracle_grid(rng, extra):
    for m in (1, 2, 4, 8):
        for n in (1, 2, 4, 8):
            for p in (1, 2, 4, 8):
                slots = max(2, max(m, p) * max(n, p) * extra)
                eng = make_engine(slots)
                a = rand_int_matrix(rng, m, n)
                b = rand_int_matrix(rng, n, p)
                ca, cb = encode_pair(eng, a, b)
                got = matmul(eng, ca, cb).decode(eng)
                np.testing.assert_array_equal(got[:m, :p], oracle_matmul(a, b))
                # placement: nothing outside the top-left m x p block
                got[:m, :p] = 0
                assert np.count_nonzero(got) == 0


def test_matmul_non_pow2_rows(rng):
    eng = make_engine(64)
    a = rand_int_matrix(rng, 3, 4)
    b = rand_int_matrix(rng, 4, 2)
    ca, cb = encode_pair(eng, a, b)
    got = matmul(eng, ca, cb).decode(eng)
    np.testing.assert_array_equal(got[:3, :2], oracle_matmul(a, b))


def test_matmul_fast_path_rotation_total(rng):
    m = n = p = 4
    eng = make_engine(16)
    ca, cb = encode_pair(eng, rand_int_matrix(rng, m, n), rand_int_matrix(rng, n, p))
    spent = {}
    with eng.scope("call", spent):
        matmul(eng, ca, cb)
    delta = spent["call"]
    r_sc = 2 * (n.bit_length() - 1)
    assert delta.rot_count == p * (1 + r_sc)
    assert delta.mul_count == p


def test_matmul_general_path_per_iteration_costs(rng):
    m, n, p = 3, 4, 2
    eng = make_engine(32)
    ca, cb = encode_pair(eng, rand_int_matrix(rng, m, n), rand_int_matrix(rng, n, p))
    spent = {}
    with eng.scope("call", spent):
        matmul(eng, ca, cb)
    delta = spent["call"]
    r_sc = 2 * (n.bit_length() - 1)
    assert delta.rot_count == p * (2 + r_sc)
    # per iteration: 2 row-cycle cmuls + 1 summation cmul + 1 result filter
    assert delta.cmul_count == p * 4


def test_matmul_depth_constant_in_p(rng):
    # fast path: mul + summation filter + result filter
    eng = make_engine(16)
    ca, cb = encode_pair(eng, rand_int_matrix(rng, 4, 4), rand_int_matrix(rng, 4, 4))
    assert matmul(eng, ca, cb).ct.depth == 3
    # general path adds the row-cycle mask level, independent of p
    for p in (2, 4, 8):
        eng = make_engine(256)
        ca, cb = encode_pair(eng, rand_int_matrix(rng, 8, 8), rand_int_matrix(rng, 8, p))
        assert matmul(eng, ca, cb).ct.depth == 4


def test_matmul_requires_matching_width(rng):
    eng = make_engine(64)
    ca = encode_row_major(eng, rand_int_matrix(rng, 2, 4))
    cb = encode_revolver(eng, rand_int_matrix(rng, 8, 2), target_m=2)
    with pytest.raises(LayoutError):
        matmul(eng, ca, cb)


def test_matmul_checks_operand_roles(rng):
    """An operand is revolver encoded exactly when it records revolve_p."""
    eng = make_engine(64)
    ca, cb = encode_pair(eng, rand_int_matrix(rng, 4, 4), rand_int_matrix(rng, 4, 4))
    with pytest.raises(LayoutError, match="left operand must be row-major encoded"):
        matmul(eng, cb, cb)
    with pytest.raises(LayoutError, match="right operand must be revolver encoded"):
        matmul(eng, ca, ca)


def test_matmul_rejects_width_smaller_than_p(rng):
    eng = make_engine(64)
    ca = encode_row_major(eng, rand_int_matrix(rng, 2, 2))
    bbar = encode_revolver(eng, rand_int_matrix(rng, 2, 2), target_m=4)
    with pytest.raises(LayoutError):
        matmul(eng, ca, PackedMatrix(bbar.ct, bbar.shape, 4))


@pytest.mark.parametrize("p", [0, -3])
def test_plan_rejects_fewer_than_one_column(p):
    eng = make_engine(64)
    ca = encode_row_major(eng, np.ones((4, 4)))
    bbar = encode_revolver(eng, np.ones((4, 4)), target_m=4)
    with pytest.raises(LayoutError, match="at least one column"):
        matmul(eng, ca, PackedMatrix(bbar.ct, bbar.shape, p))


def test_plan_fast_requires_full_pack():
    eng = make_engine(32)
    assert not cycle_closes(eng, 4, 4, 2)
    eng = make_engine(16)
    assert cycle_closes(eng, 4, 4, 2)
    assert not cycle_closes(eng, 3, 4, 2)  # 3 % 2 != 0 at any fill
