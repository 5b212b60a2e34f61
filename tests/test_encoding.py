import numpy as np
import pytest

from packedhe.encoding import PackedMatrix, encode_revolver, encode_row_major, sum_col_vec, tile_blocks
from packedhe.engine import CapacityError, EngineError, LayoutError

from conftest import make_engine, rand_int_matrix


def shifted(eng, pm, l):
    """The matrix held by ``pm`` after its ciphertext is rotated left by l."""
    return PackedMatrix(eng.rot(pm.ct, l), pm.shape, pm.revolve_p).decode(eng)


# Volley Revolver's database encoding is the row-major pack.


def test_encode_db_row_major_stream():
    eng = make_engine(8)
    pm = encode_row_major(eng, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(eng.dec(pm.ct), [1, 2, 3, 4, 0, 0, 0, 0])
    assert pm.revolve_p is None  # row-major


def test_encode_db_vector_row():
    eng = make_engine(8)
    pm = encode_row_major(eng, [5, 6, 7])
    np.testing.assert_array_equal(eng.dec(pm.ct)[:3], [5, 6, 7])
    assert (pm.shape.m, pm.shape.n) == (1, 3)


def test_encode_db_full_dataset_block(rng):
    eng = make_engine(32768)
    z = rand_int_matrix(rng, 32, 1024, 0, 9)
    pm = encode_row_major(eng, z)
    np.testing.assert_array_equal(eng.dec(pm.ct), z.reshape(-1))


def test_encode_db_capacity():
    eng = make_engine(4)
    with pytest.raises(CapacityError):
        encode_row_major(eng, np.ones((2, 4)))


def test_row_major_matches_flat_index_map(rng):
    # independently place entry k at (k // n, k % n) and compare
    for m, n in [(2, 4), (3, 5), (1, 7)]:
        eng = make_engine(64)
        a = rand_int_matrix(rng, m, n)
        expect = np.zeros(64)
        for k in range(m * n):
            expect[k] = a[k // n][k % n]
        pm = encode_row_major(eng, a)
        np.testing.assert_array_equal(eng.dec(pm.ct), expect)
        np.testing.assert_array_equal(pm.decode(eng), a)


def test_revolver_rows_are_cycled_columns():
    eng = make_engine(8)
    b = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=float)
    pm = encode_revolver(eng, b, target_m=2)
    np.testing.assert_array_equal(pm.decode(eng), [[1, 3, 5, 7], [2, 4, 6, 8]])
    assert pm.revolve_p == 2  # revolver


def test_revolver_single_column_tiles_everywhere(rng):
    eng = make_engine(32)
    b = rand_int_matrix(rng, 4, 1)
    pm = encode_revolver(eng, b, target_m=5)
    got = pm.decode(eng)
    for r in range(5):
        np.testing.assert_array_equal(got[r], b[:, 0])


def test_revolver_third_row_repeats_first_column():
    eng = make_engine(16)
    b = np.array([[1, 2], [3, 4]], dtype=float)
    pm = encode_revolver(eng, b, target_m=3)
    got = pm.decode(eng)
    np.testing.assert_array_equal(got[2], got[0])
    np.testing.assert_array_equal(got[2], b[:, 0])


def test_encode_revolver_rejects_a_matrix_with_no_columns():
    """B's columns are the product's result columns: none is bad input."""
    eng = make_engine(16)
    with pytest.raises(LayoutError, match="result needs at least one column, got p=0"):
        encode_revolver(eng, np.zeros((4, 0)), 4)


def test_revolver_property_grid(rng):
    for n in (1, 2, 4):
        for p in (1, 2, 3, 4):
            for m in (1, 2, 3, 5, 8):
                eng = make_engine(64)
                b = rand_int_matrix(rng, n, p)
                got = encode_revolver(eng, b, target_m=m).decode(eng)
                for r in range(m):
                    np.testing.assert_array_equal(got[r], b[:, r % p])


# The paper's IncompleteColShift and RowShift are single rotations of the
# database (row-major) pack: by one slot and by the row width.


def test_incomplete_col_shift_stream():
    eng = make_engine(4)
    pm = encode_row_major(eng, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(eng.dec(eng.rot(pm.ct, 1)), [2, 3, 4, 1])


def test_incomplete_col_shift_equals_rot_one(rng):
    eng = make_engine(32)
    pm = encode_row_major(eng, rand_int_matrix(rng, 3, 5))
    np.testing.assert_array_equal(eng.dec(eng.rot(pm.ct, 1)), np.roll(eng.dec(pm.ct), -1))


def test_incomplete_col_shift_display_pattern(rng):
    # full 4x4 pack: every entry moves one column left, last column pulls
    # the next row's first entry, and the first entry wraps to the end
    eng = make_engine(16)
    z = rand_int_matrix(rng, 4, 4)
    got = shifted(eng, encode_row_major(eng, z), 1)
    for i in range(4):
        for j in range(3):
            assert got[i, j] == z[i, j + 1]
        assert got[i, 3] == z[(i + 1) % 4, 0]


def test_row_shift_cycles_rows():
    eng = make_engine(4)
    pm = encode_row_major(eng, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(shifted(eng, pm, 2), [[3, 4], [1, 2]])


def test_row_shift_single_row_and_full_cycle(rng):
    eng = make_engine(4)
    pm = encode_row_major(eng, [[9, 8, 7, 6]])
    np.testing.assert_array_equal(shifted(eng, pm, 4), [[9, 8, 7, 6]])
    eng = make_engine(8)
    pm = encode_row_major(eng, rand_int_matrix(rng, 4, 2))
    ct = pm.ct
    for _ in range(4):
        ct = eng.rot(ct, 2)
    np.testing.assert_array_equal(eng.dec(ct), eng.dec(pm.ct))


def test_sum_col_vec_small():
    eng = make_engine(4)
    out = sum_col_vec(eng, encode_row_major(eng, [[1, 2], [3, 4]]))
    np.testing.assert_array_equal(out.decode(eng), [[3, 3], [7, 7]])


def test_sum_col_vec_single_column_and_ones():
    eng = make_engine(8)
    col = encode_row_major(eng, [[5], [6], [7]])
    np.testing.assert_array_equal(sum_col_vec(eng, col).decode(eng), [[5], [6], [7]])
    eng = make_engine(4)
    ones = encode_row_major(eng, np.ones((1, 4)))
    np.testing.assert_array_equal(sum_col_vec(eng, ones).decode(eng), [[4, 4, 4, 4]])


def test_sum_col_vec_oracle_and_isolation(rng):
    # slack slots force the cascade to cross row boundaries; the filter
    # plus replication must still keep per-row sums separate
    for m, n, slots in [(2, 4, 8), (3, 8, 32), (5, 2, 64)]:
        eng = make_engine(slots)
        z = rand_int_matrix(rng, m, n)
        got = sum_col_vec(eng, encode_row_major(eng, z)).decode(eng)
        want = np.tile(z.sum(axis=1)[:, None], (1, n))
        np.testing.assert_array_equal(got, want)


def test_sum_col_vec_rotation_budget(rng):
    for n in (2, 4, 8, 16):
        eng = make_engine(64)
        pm = encode_row_major(eng, rand_int_matrix(rng, 2, n))
        spent = {}
        with eng.scope("call", spent):
            sum_col_vec(eng, pm)
        delta = spent["call"]
        assert delta.rot_count <= 2 * (n.bit_length() - 1)
        assert delta.cmul_count == 1


def test_sum_col_vec_rejects_non_pow2():
    eng = make_engine(32)
    with pytest.raises(EngineError):
        sum_col_vec(eng, encode_row_major(eng, np.ones((2, 3))))


@pytest.mark.parametrize("size", [1, 5, 8], ids=["one-slot", "prefix", "whole-block"])
@pytest.mark.parametrize("dtype", [bool, np.float64], ids=["bool", "float"])
def test_tile_blocks_matches_the_hand_rolled_forms(rng, dtype, size):
    """One pattern, or a stack of them, at the head of each of m = 3 blocks
    of stride f = 8 with zeros after it, in the pattern's dtype, against
    the forms it replaced: a zero (m, f) grid with its leading columns set,
    and a stack's rows zero-padded to f and repeated m times."""
    m, f = 3, 8
    stack = rng.integers(-3, 4, size=(4, size)).astype(dtype)
    grid = np.zeros((m, f), dtype=dtype)
    grid[:, :size] = stack[0]
    one = tile_blocks(stack[0], m, f)
    assert (one.dtype, one.tobytes()) == (np.dtype(dtype), grid.reshape(-1).tobytes())
    padded = np.zeros((4, f), dtype=dtype)
    padded[:, :size] = stack
    many = tile_blocks(stack, m, f)
    assert (many.dtype, many.shape) == (np.dtype(dtype), (4, m * f))
    assert many.tobytes() == np.tile(padded, m).tobytes()


def test_tile_blocks_rejects_a_pattern_past_the_block_stride():
    for pattern in (np.ones(9), np.ones((2, 9), dtype=bool)):
        with pytest.raises(CapacityError, match=r"^9-slot pattern exceeds block stride 8$"):
            tile_blocks(pattern, 3, 8)
