import numpy as np
import pytest

from packedhe.conv import (
    ImageShape,
    Kernel,
    build_offset_filter,
    conv,
    kernel_spanner,
    sum_for_conv,
)
from packedhe.engine import EngineError, EngineParams, SlotEngine, next_pow2
from packedhe.oracle import oracle_conv
from packedhe.virtual import VirtualLayout, batched_conv, tile_kernel_span

from conftest import make_engine, rand_int_matrix


def spanned(eng, weights, h, w, bias=0.0):
    kern = Kernel(np.asarray(weights, float), bias=bias)
    return kern, kernel_spanner(eng, kern, ImageShape(h, w))


def grid_of(eng, ct, h, w):
    return eng.dec(ct)[: h * w].reshape(h, w)


def test_kernel_spanner_4x4_k2_patterns():
    eng = make_engine(16)
    k1, k2, k3, k4 = 1.0, 2.0, 3.0, 4.0
    kern, span = spanned(eng, [[k1, k2], [k3, k4]], 4, 4)
    # offset (col 0, row 0): kernel tiles the whole grid
    np.testing.assert_array_equal(
        grid_of(eng, span.span_cts[0], 4, 4),
        [[k1, k2, k1, k2], [k3, k4, k3, k4], [k1, k2, k1, k2], [k3, k4, k3, k4]],
    )
    # offset (col 0, row 1): shifted down one row, zero top/bottom rows
    np.testing.assert_array_equal(
        grid_of(eng, span.span_cts[1], 4, 4),
        [[0, 0, 0, 0], [k1, k2, k1, k2], [k3, k4, k3, k4], [0, 0, 0, 0]],
    )
    # offset (col 1, row 0): shifted right one column, zero side columns
    np.testing.assert_array_equal(
        grid_of(eng, span.span_cts[2], 4, 4),
        [[0, k1, k2, 0], [0, k3, k4, 0], [0, k1, k2, 0], [0, k3, k4, 0]],
    )
    # offset (col 1, row 1): inner block only
    np.testing.assert_array_equal(
        grid_of(eng, span.span_cts[3], 4, 4),
        [[0, 0, 0, 0], [0, k1, k2, 0], [0, k3, k4, 0], [0, 0, 0, 0]],
    )


def test_kernel_spanner_bias_block():
    eng = make_engine(16)
    _, span = spanned(eng, [[1, 1], [1, 1]], 4, 4, bias=7.0)
    np.testing.assert_array_equal(
        grid_of(eng, span.bias_ct, 4, 4),
        [[7, 7, 7, 0], [7, 7, 7, 0], [7, 7, 7, 0], [0, 0, 0, 0]],
    )


def test_kernel_spanner_k1():
    eng = make_engine(16)
    _, span = spanned(eng, [[2.5]], 4, 4)
    assert len(span.span_cts) == 1
    np.testing.assert_array_equal(grid_of(eng, span.span_cts[0], 4, 4), np.full((4, 4), 2.5))


def test_kernel_spanner_shape_too_small():
    eng = make_engine(16)
    with pytest.raises(EngineError):
        kernel_spanner(eng, Kernel(np.ones((3, 3))), ImageShape(4, 4))


def test_sum_for_conv_all_ones():
    eng = make_engine(16)
    ct = eng.enc(np.ones(16))
    out = grid_of(eng, sum_for_conv(eng, ct, ImageShape(4, 4), 3), 4, 4)
    want = np.zeros((4, 4))
    want[0, 0] = 9.0
    np.testing.assert_array_equal(out, want)


def test_sum_for_conv_window_sums(rng):
    z = rand_int_matrix(rng, 4, 4)
    eng = make_engine(16)
    out = grid_of(eng, sum_for_conv(eng, eng.enc(z.reshape(-1)), ImageShape(4, 4), 3), 4, 4)
    assert out[0, 0] == z[0:3, 0:3].sum()
    out[0, 0] = 0
    assert np.count_nonzero(out) == 0


def test_sum_for_conv_rotation_count(rng):
    for k in (1, 2, 3):
        eng = make_engine(64)
        ct = eng.enc(rand_int_matrix(rng, 6, 8).reshape(-1))
        spent = {}
        with eng.scope("call", spent):
            sum_for_conv(eng, ct, ImageShape(6, 8), k)
        delta = spent["call"]
        assert delta.rot_count == 2 * k
        assert delta.cmul_count == 1


def test_sum_for_conv_k1_identity(rng):
    z = rand_int_matrix(rng, 3, 4)
    eng = make_engine(16)
    out = grid_of(eng, sum_for_conv(eng, eng.enc(z.reshape(-1)), ImageShape(3, 4), 1), 3, 4)
    np.testing.assert_array_equal(out, z)


def test_offset_filter_zero_offsets_match_anchor_mask(rng):
    eng = make_engine(64)
    shape = ImageShape(6, 7)
    f = build_offset_filter(eng, shape, 3, 0, 0).values[:42].reshape(6, 7)
    for y in range(6):
        for x in range(7):
            want = 1.0 if (y % 3 == 0 and y + 3 <= 6 and x % 3 == 0 and x + 3 <= 7) else 0.0
            assert f[y, x] == want


def test_offset_filters_partition_valid_anchors():
    eng = make_engine(32)
    shape, k = ImageShape(5, 5), 3
    total = np.zeros((5, 5))
    for i in range(k):
        for j in range(k):
            total += build_offset_filter(eng, shape, k, i, j).values[:25].reshape(5, 5)
    want = np.zeros((5, 5))
    want[:3, :3] = 1.0  # each valid output position exactly once
    np.testing.assert_array_equal(total, want)


def test_offset_filter_wide_image():
    # union of all offset classes for h=3, w=4, k=3: anchors in row 0, cols 0-1
    eng = make_engine(16)
    total = np.zeros((3, 4))
    for i in range(3):
        for j in range(3):
            total += build_offset_filter(eng, ImageShape(3, 4), 3, i, j).values[:12].reshape(3, 4)
    np.testing.assert_array_equal(total, [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def test_conv_ones():
    eng = make_engine(16)
    _, span = spanned(eng, [[1, 1], [1, 1]], 3, 3)
    out = grid_of(eng, conv(eng, eng.enc(np.ones(9)), span, ImageShape(3, 3)), 3, 3)
    np.testing.assert_array_equal(out, [[4, 4, 0], [4, 4, 0], [0, 0, 0]])


def test_conv_zero_kernel_leaves_bias(rng):
    eng = make_engine(32)
    _, span = spanned(eng, np.zeros((2, 2)), 4, 5, bias=2.5)
    img = rand_int_matrix(rng, 4, 5)
    out = grid_of(eng, conv(eng, eng.enc(img.reshape(-1)), span, ImageShape(4, 5)), 4, 5)
    want = np.zeros((4, 5))
    want[:3, :4] = 2.5
    np.testing.assert_array_equal(out, want)


def test_conv_random_6x6_oracle(rng):
    eng = make_engine(64)
    img = rand_int_matrix(rng, 6, 6)
    kern, span = spanned(eng, rand_int_matrix(rng, 3, 3), 6, 6, bias=1.0)
    out = grid_of(eng, conv(eng, eng.enc(img.reshape(-1)), span, ImageShape(6, 6)), 6, 6)
    np.testing.assert_array_equal(out[:4, :4], oracle_conv(img, kern.weights, 1.0))


class MaskRecordingEngine(SlotEngine):
    """Engine that keeps every mask it builds, in order."""

    def __init__(self, slots):
        super().__init__(EngineParams(slots=slots))
        self.masks = []

    def mask(self, values):
        out = super().mask(values)
        self.masks.append(out)
        return out


def test_conv_grid_oracle_and_costs(rng):
    # (4, 8, 2) and (8, 8, 3) fill the slots exactly (no pad).  Each case also
    # pins single-image conv as the m = 1 case of the batched loop.
    for h, w, k in [(4, 7, 2), (5, 5, 3), (9, 10, 5), (12, 9, 3), (4, 8, 2), (8, 8, 3)]:
        slots = max(2, next_pow2(h * w))
        shape = ImageShape(h, w)
        eng = MaskRecordingEngine(slots)
        img = rand_int_matrix(rng, h, w)
        kern, span = spanned(eng, rand_int_matrix(rng, k, k), h, w, bias=float(rng.integers(-2, 3)))
        spent = {}
        with eng.scope("call", spent):
            ct = conv(eng, eng.enc(img.reshape(-1)), span, shape)
        delta = spent["call"]
        out = grid_of(eng, ct, h, w)
        np.testing.assert_array_equal(out[: h - k + 1, : w - k + 1],
                                      oracle_conv(img, kern.weights, kern.bias))
        assert delta.mul_count == k * k
        assert delta.rot_count <= k * k * 2 * k
        assert ct.depth == 2

        loop_masks = [m.values for m in eng.masks]
        offset_masks = [build_offset_filter(eng, shape, k, i, j).values for i in range(k) for j in range(k)]
        np.testing.assert_array_equal(loop_masks, offset_masks)

        beng = make_engine(slots)
        layout = VirtualLayout(1, slots, h, w)
        bspan = tile_kernel_span(beng, kern, layout)
        assert [c.slots.tobytes() for c in bspan.span_cts + [bspan.bias_ct]] == [
            c.slots.tobytes() for c in span.span_cts + [span.bias_ct]
        ]
        spent = {}
        with beng.scope("call", spent):
            bct = batched_conv(beng, beng.enc(img.reshape(-1)), layout, bspan)
        assert spent["call"] == delta
        assert bct.slots.tobytes() == ct.slots.tobytes() and bct.depth == ct.depth


def test_conv_span_shape_mismatch(rng):
    eng = make_engine(64)
    _, span = spanned(eng, np.ones((2, 2)), 4, 4)
    with pytest.raises(EngineError):
        conv(eng, eng.enc(np.ones(16)), span, ImageShape(4, 5))
