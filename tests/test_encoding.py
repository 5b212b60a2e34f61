import numpy as np
import pytest

from packedhe.encoding import (
    Encoding,
    encode_db,
    encode_revolver,
    encode_row_major,
    incomplete_col_shift,
    row_shift,
    sum_col_vec,
    sum_row_vec,
)
from packedhe.engine import CapacityError, EngineError

from conftest import make_engine, rand_int_matrix


def test_encode_db_row_major_stream():
    eng = make_engine(8)
    pm = encode_db(eng, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(eng.dec(pm.ct), [1, 2, 3, 4, 0, 0, 0, 0])
    assert pm.encoding is Encoding.DATABASE


def test_encode_db_vector_row():
    eng = make_engine(8)
    pm = encode_db(eng, [5, 6, 7])
    np.testing.assert_array_equal(eng.dec(pm.ct)[:3], [5, 6, 7])
    assert (pm.shape.m, pm.shape.n) == (1, 3)


def test_encode_db_full_dataset_block(rng):
    eng = make_engine(32768)
    z = rand_int_matrix(rng, 32, 1024, 0, 9)
    pm = encode_db(eng, z)
    np.testing.assert_array_equal(eng.dec(pm.ct), z.reshape(-1))


def test_encode_db_capacity():
    eng = make_engine(4)
    with pytest.raises(CapacityError):
        encode_db(eng, np.ones((2, 4)))


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
    assert pm.revolve_p == 2 and pm.encoding is Encoding.REVOLVER


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


def test_revolver_property_grid(rng):
    for n in (1, 2, 4):
        for p in (1, 2, 3, 4):
            for m in (1, 2, 3, 5, 8):
                eng = make_engine(64)
                b = rand_int_matrix(rng, n, p)
                got = encode_revolver(eng, b, target_m=m).decode(eng)
                for r in range(m):
                    np.testing.assert_array_equal(got[r], b[:, r % p])


def test_incomplete_col_shift_stream():
    eng = make_engine(4)
    pm = encode_db(eng, [[1, 2], [3, 4]])
    out = incomplete_col_shift(eng, pm)
    np.testing.assert_array_equal(eng.dec(out.ct), [2, 3, 4, 1])


def test_incomplete_col_shift_equals_rot_one(rng):
    eng = make_engine(32)
    pm = encode_db(eng, rand_int_matrix(rng, 3, 5))
    out = incomplete_col_shift(eng, pm)
    np.testing.assert_array_equal(eng.dec(out.ct), np.roll(eng.dec(pm.ct), -1))


def test_incomplete_col_shift_display_pattern(rng):
    # full 4x4 pack: every entry moves one column left, last column pulls
    # the next row's first entry, and the first entry wraps to the end
    eng = make_engine(16)
    z = rand_int_matrix(rng, 4, 4)
    got = incomplete_col_shift(eng, encode_db(eng, z)).decode(eng)
    for i in range(4):
        for j in range(3):
            assert got[i, j] == z[i, j + 1]
        assert got[i, 3] == z[(i + 1) % 4, 0]


def test_row_shift_cycles_rows():
    eng = make_engine(4)
    pm = encode_db(eng, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(row_shift(eng, pm).decode(eng), [[3, 4], [1, 2]])


def test_row_shift_single_row_and_full_cycle(rng):
    eng = make_engine(4)
    pm = encode_db(eng, [[9, 8, 7, 6]])
    np.testing.assert_array_equal(row_shift(eng, pm).decode(eng), [[9, 8, 7, 6]])
    eng = make_engine(8)
    pm = encode_db(eng, rand_int_matrix(rng, 4, 2))
    out = pm
    for _ in range(4):
        out = row_shift(eng, out)
    np.testing.assert_array_equal(out.decode(eng), pm.decode(eng))


def test_sum_row_vec_small():
    eng = make_engine(4)
    out = sum_row_vec(eng, encode_db(eng, [[1, 2], [3, 4]]))
    np.testing.assert_array_equal(out.decode(eng), [[4, 6], [4, 6]])


def test_sum_row_vec_identity_and_zero(rng):
    eng = make_engine(4)
    row = encode_db(eng, [[1, 2, 3, 4]])
    np.testing.assert_array_equal(sum_row_vec(eng, row).decode(eng), [[1, 2, 3, 4]])
    eng = make_engine(8)
    zero = encode_db(eng, np.zeros((2, 4)))
    assert np.count_nonzero(sum_row_vec(eng, zero).decode(eng)) == 0


def test_sum_row_vec_oracle_full_pack(rng):
    for m, n in [(2, 8), (4, 4), (8, 2)]:
        eng = make_engine(m * n)
        z = rand_int_matrix(rng, m, n)
        got = sum_row_vec(eng, encode_db(eng, z)).decode(eng)
        want = np.tile(z.sum(axis=0), (m, 1))
        np.testing.assert_array_equal(got, want)


def test_sum_row_vec_rotation_count(rng):
    eng = make_engine(32)
    pm = encode_db(eng, rand_int_matrix(rng, 8, 4))
    before = eng.meter_snapshot().rot_count
    sum_row_vec(eng, pm)
    assert eng.meter_snapshot().rot_count - before == 3  # log2(8)


def test_sum_row_vec_rejects_non_pow2():
    eng = make_engine(32)
    with pytest.raises(EngineError):
        sum_row_vec(eng, encode_db(eng, np.ones((3, 4))))


def test_sum_col_vec_small():
    eng = make_engine(4)
    out = sum_col_vec(eng, encode_db(eng, [[1, 2], [3, 4]]))
    np.testing.assert_array_equal(out.decode(eng), [[3, 3], [7, 7]])


def test_sum_col_vec_single_column_and_ones():
    eng = make_engine(8)
    col = encode_db(eng, [[5], [6], [7]])
    np.testing.assert_array_equal(sum_col_vec(eng, col).decode(eng), [[5], [6], [7]])
    eng = make_engine(4)
    ones = encode_db(eng, np.ones((1, 4)))
    np.testing.assert_array_equal(sum_col_vec(eng, ones).decode(eng), [[4, 4, 4, 4]])


def test_sum_col_vec_oracle_and_isolation(rng):
    # slack slots force the cascade to cross row boundaries; the filter
    # plus replication must still keep per-row sums separate
    for m, n, slots in [(2, 4, 8), (3, 8, 32), (5, 2, 64)]:
        eng = make_engine(slots)
        z = rand_int_matrix(rng, m, n)
        got = sum_col_vec(eng, encode_db(eng, z)).decode(eng)
        want = np.tile(z.sum(axis=1)[:, None], (1, n))
        np.testing.assert_array_equal(got, want)


def test_sum_col_vec_rotation_budget(rng):
    for n in (2, 4, 8, 16):
        eng = make_engine(64)
        pm = encode_db(eng, rand_int_matrix(rng, 2, n))
        before = eng.meter_snapshot()
        sum_col_vec(eng, pm)
        delta = eng.meter_snapshot().delta_since(before)
        assert delta.rot_count <= 2 * (n.bit_length() - 1)
        assert delta.cmul_count == 1


def test_sum_col_vec_rejects_non_pow2():
    eng = make_engine(32)
    with pytest.raises(EngineError):
        sum_col_vec(eng, encode_db(eng, np.ones((2, 3))))

