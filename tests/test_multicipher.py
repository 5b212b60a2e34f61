from dataclasses import fields, replace

import numpy as np
import pytest

from packedhe.conv import Kernel
from packedhe.encoding import encode_revolver, encode_row_major
from packedhe.engine import CapacityError, LayoutError, SlotEngine
from packedhe.matmul import matmul
from packedhe.multicipher import (
    ColumnEncodedImage,
    ColumnEncodedMatrix,
    conv_columns,
    encode_image_columns,
    encode_left,
    encode_right,
    matmul_outer,
    reassemble_columns,
)
from packedhe.oracle import oracle_conv, oracle_matmul

from conftest import make_engine, rand_int_matrix


def test_encode_left_broadcast():
    eng = make_engine(8)
    cem = encode_left(eng, [[1, 2], [3, 4]], p=2)
    np.testing.assert_array_equal(eng.dec(cem.cts[0])[:4], [1, 1, 3, 3])
    np.testing.assert_array_equal(eng.dec(cem.cts[1])[:4], [2, 2, 4, 4])
    assert len(cem.cts) == 2


def test_encode_right_tiling():
    eng = make_engine(8)
    cem = encode_right(eng, [[5, 6], [7, 8]], m=2)
    np.testing.assert_array_equal(eng.dec(cem.cts[0])[:4], [5, 6, 5, 6])
    np.testing.assert_array_equal(eng.dec(cem.cts[1])[:4], [7, 8, 7, 8])


def test_encode_right_identity_columns():
    eng = make_engine(16)
    cem = encode_right(eng, np.eye(3), m=2)
    for k in range(3):
        grid = eng.dec(cem.cts[k])[:6].reshape(2, 3)
        want = np.zeros((2, 3))
        want[:, k] = 1.0
        np.testing.assert_array_equal(grid, want)


def test_zero_matrix_left():
    eng = make_engine(8)
    cem = encode_left(eng, np.zeros((2, 3)), p=2)
    for ct in cem.cts:
        assert np.count_nonzero(eng.dec(ct)) == 0


def test_capacity_checks():
    eng = make_engine(4)
    with pytest.raises(CapacityError):
        encode_left(eng, np.ones((3, 2)), p=2)
    with pytest.raises(CapacityError):
        encode_image_columns(eng, np.ones((5, 3)))


def test_matmul_outer_hand_example():
    eng = make_engine(4)
    left = encode_left(eng, [[1, 2], [3, 4]], p=2)
    right = encode_right(eng, [[5, 6], [7, 8]], m=2)
    got = matmul_outer(eng, left, right).decode(eng)
    np.testing.assert_array_equal(got, [[19, 22], [43, 50]])


def test_matmul_outer_single_term(rng):
    eng = make_engine(8)
    a = rand_int_matrix(rng, 2, 1)
    b = rand_int_matrix(rng, 1, 3)
    got = matmul_outer(eng, encode_left(eng, a, 3), encode_right(eng, b, 2)).decode(eng)
    np.testing.assert_array_equal(got, oracle_matmul(a, b))


def test_matmul_outer_meter_and_oracle(rng):
    eng = make_engine(32)
    a = rand_int_matrix(rng, 8, 16)
    b = rand_int_matrix(rng, 16, 4)
    left = encode_left(eng, a, p=4)
    right = encode_right(eng, b, m=8)
    spent = {}
    with eng.scope("call", spent):
        out = matmul_outer(eng, left, right)
    delta = spent["call"]
    np.testing.assert_array_equal(out.decode(eng), oracle_matmul(a, b))
    assert delta.rot_count == 0
    assert delta.mul_count == 16
    assert out.ct.depth == 1


def test_matmul_outer_dim_mismatch(rng):
    eng = make_engine(32)
    with pytest.raises(LayoutError):
        matmul_outer(
            eng,
            encode_left(eng, rand_int_matrix(rng, 2, 3), p=2),
            encode_right(eng, rand_int_matrix(rng, 4, 2), m=2),
        )
    with pytest.raises(LayoutError):
        matmul_outer(
            eng,
            encode_left(eng, rand_int_matrix(rng, 2, 2), p=2),
            encode_left(eng, rand_int_matrix(rng, 2, 2), p=2),
        )
    # an operand's n is the number of ciphertexts it holds: a left operand
    # cut to 2 of its 3 columns is not zipped with a 3-ciphertext right one
    left = encode_left(eng, rand_int_matrix(rng, 2, 3), p=2)
    with pytest.raises(LayoutError, match=r"left \(2, 2, 2\), right \(2, 3, 2\)"):
        matmul_outer(eng, replace(left, cts=left.cts[:2]), encode_right(eng, rand_int_matrix(rng, 3, 2), m=2))
    assert "n" not in {f.name for f in fields(ColumnEncodedMatrix)}


def test_three_way_matmul_agreement(rng):
    for m, n, p in [(2, 4, 2), (4, 8, 4), (8, 2, 2)]:
        a = rand_int_matrix(rng, m, n)
        b = rand_int_matrix(rng, n, p)
        want = oracle_matmul(a, b)

        eng1 = make_engine(max(m, p) * n)
        ca = encode_row_major(eng1, a)
        cb = encode_revolver(eng1, b, target_m=max(m, p))
        rotation_based = matmul(eng1, ca, cb).decode(eng1)[:m, :p]

        eng2 = make_engine(max(2, m * p))
        outer = matmul_outer(eng2, encode_left(eng2, a, p), encode_right(eng2, b, m)).decode(eng2)

        np.testing.assert_array_equal(rotation_based, want)
        np.testing.assert_array_equal(outer, want)


def test_encode_image_columns_example():
    eng = make_engine(4)
    cei = encode_image_columns(eng, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    np.testing.assert_array_equal(eng.dec(cei.cts[0])[:3], [1, 4, 7])
    np.testing.assert_array_equal(eng.dec(cei.cts[1])[:3], [2, 5, 8])
    np.testing.assert_array_equal(eng.dec(cei.cts[2])[:3], [3, 6, 9])
    assert cei.w == len(cei.cts) == 3 and cei.m == 1
    assert "w" not in {f.name for f in fields(ColumnEncodedImage)}


def test_reassemble_columns_holds_only_the_columns_it_has(rng):
    """w is the number of column ciphertexts, so dropping one narrows the
    reassembled images rather than leaving an unwritten column."""
    eng = make_engine(16)
    imgs = rng.integers(0, 9, size=(2, 3, 4)).astype(float)
    cei = encode_image_columns(eng, imgs)
    cut = replace(cei, cts=cei.cts[:3])
    assert cut.w == 3
    np.testing.assert_array_equal(reassemble_columns(eng, cut), imgs[:, :, :3])


def test_encode_image_columns_single_column():
    eng = make_engine(4)
    cei = encode_image_columns(eng, np.array([[1.0], [2.0]]))
    assert len(cei.cts) == 1


def test_encode_image_columns_batch_offsets(rng):
    eng = make_engine(8)
    imgs = rng.integers(0, 9, size=(2, 3, 4)).astype(float)
    cei = encode_image_columns(eng, imgs)
    vec = eng.dec(cei.cts[1])
    np.testing.assert_array_equal(vec[:3], imgs[0, :, 1])
    np.testing.assert_array_equal(vec[3:6], imgs[1, :, 1])


def test_conv_columns_ones():
    eng = make_engine(4)
    cei = encode_image_columns(eng, np.ones((3, 3)))
    out = conv_columns(eng, cei, Kernel(np.ones((2, 2))))
    assert out.h == 2 and out.w == len(out.cts) == 2
    for ct in out.cts:
        np.testing.assert_array_equal(eng.dec(ct)[:2], [4, 4])


def test_conv_columns_k1_scales(rng):
    eng = make_engine(8)
    img = rand_int_matrix(rng, 4, 3)
    cei = encode_image_columns(eng, img)
    out = conv_columns(eng, cei, Kernel(np.array([[2.0]]), bias=1.0))
    re = reassemble_columns(eng, out)[0]
    np.testing.assert_array_equal(re, 2.0 * img + 1.0)


def test_conv_columns_batch_oracle_and_costs(rng, monkeypatch):
    eng = make_engine(32)
    imgs = rng.integers(-2, 5, size=(2, 16, 16)).astype(float)
    kern = Kernel(rand_int_matrix(rng, 3, 3), bias=0.5)
    cei = encode_image_columns(eng, imgs)
    masks = []
    build = SlotEngine.mask

    def counting_mask(engine, values):
        masks.append(values)
        return build(engine, values)

    monkeypatch.setattr(SlotEngine, "mask", counting_mask)
    spent = {}
    with eng.scope("call", spent):
        out = conv_columns(eng, cei, kern)
    delta = spent["call"]
    re = reassemble_columns(eng, out)
    for b in range(2):
        np.testing.assert_array_equal(re[b], oracle_conv(imgs[b], kern.weights, 0.5))
    k, w, out_w = 3, 16, 14
    assert delta.cmul_count == delta.add_count == k * k * out_w
    assert delta.rot_count == (k - 1) * w
    assert delta.mul_count == 0
    # one weighted mask per weight and one bias ciphertext, shared by the out_w columns
    assert len(masks) == k * k
    assert delta.enc_count == 1


def test_conv_columns_counts_do_not_depend_on_the_weights(rng):
    """A kernel with zero weights meters the ops, depth and keys of a dense
    one, and still matches the oracle."""
    imgs = rng.integers(-2, 5, size=(2, 10, 10)).astype(float)
    dense = rng.integers(1, 4, size=(3, 3)).astype(float)
    sparse = dense * (rng.random((3, 3)) < 0.5)
    sparse[0, 0] = sparse[2, 1] = 0.0

    def run(weights):
        eng = make_engine(32)
        spent = {}
        with eng.scope("call", spent):
            out = conv_columns(eng, encode_image_columns(eng, imgs), Kernel(weights, bias=1.0))
        for b in range(2):
            np.testing.assert_array_equal(reassemble_columns(eng, out)[b], oracle_conv(imgs[b], weights, 1.0))
        return spent["call"]

    assert run(sparse) == run(dense) == run(np.zeros((3, 3)))


def test_conv_columns_image_larger_than_ciphertext(rng):
    # the whole image (64*64 = 4096 slots) exceeds the 128-slot engine, but
    # column encoding only needs h <= slots
    eng = make_engine(128)
    img = rng.integers(0, 5, size=(64, 64)).astype(float)
    cei = encode_image_columns(eng, img)
    out = conv_columns(eng, cei, Kernel(np.ones((3, 3)), bias=2.0))
    re = reassemble_columns(eng, out)[0]
    np.testing.assert_array_equal(re, oracle_conv(img, np.ones((3, 3)), 2.0))


def test_conv_columns_kernel_too_large():
    eng = make_engine(8)
    cei = encode_image_columns(eng, np.ones((2, 2)))
    with pytest.raises(Exception):
        conv_columns(eng, cei, Kernel(np.ones((3, 3))))
