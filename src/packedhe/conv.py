"""Homomorphic convolution on a fully packed image.

A k x k kernel is spread into k*k image-sized mask ciphertexts, one per
(column, row) offset class modulo k.  Each loop iteration multiplies the
image with one span, runs the rotate-and-add window cascade, keeps the
output positions belonging to that offset class, and accumulates onto a
bias-seeded result.  Valid (unpadded) stride-1 convolution only; the
result occupies the top-left (h-k+1) x (w-k+1) block of the h x w layout.
Spans and the loop are written once over m image blocks of stride f and
over the kernels of a layer: a single image is m = 1 with f the slot
count, virtual.batched_conv_layer passes its dataset tiling, and a single
kernel is a layer of one.  The offset filter depends only on the offset
class and the layout, so the loop runs the offset classes outside and the
kernels inside and builds each filter once for all kernels.  The loop
stays serial: even whole batches on 2 threads side by side ran only
1.04-1.24x faster than one thread on a 2-CPU host, and ``cloud-infer``
runs its batches one after the other for the same reason.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import tile_blocks
from .engine import Ciphertext, EngineError, PlainMask, SlotEngine

__all__ = [
    "ImageShape",
    "Kernel",
    "KernelSpan",
    "kernel_spanner",
    "span_matrix",
    "bias_matrix",
    "window_cascade",
    "sum_for_conv",
    "build_offset_filter",
    "conv",
]


@dataclass(frozen=True)
class ImageShape:
    h: int
    w: int

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise EngineError(f"image shape must be positive, got {self.h}x{self.w}")

    def out(self, k: int) -> tuple[int, int]:
        if k > self.h or k > self.w:
            raise EngineError(f"{k}x{k} kernel larger than {self.h}x{self.w} image")
        return self.h - k + 1, self.w - k + 1


@dataclass(frozen=True, eq=False)
class Kernel:
    """Dense square kernel plus bias."""

    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise EngineError(f"kernel must be square, got shape {w.shape}")
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class KernelSpan:
    """k*k spanned kernel ciphertexts plus the bias ciphertext.

    span_cts[i*k + j] pairs with offset (i, j): columns congruent to i and
    rows congruent to j modulo k.
    """

    span_cts: list
    bias_ct: Ciphertext
    k: int
    shape: ImageShape


def span_matrix(kernel: Kernel, shape: ImageShape, off_i: int, off_j: int) -> np.ndarray:
    """Kernel tiled over the image grid for offset class (off_i cols, off_j rows).

    Position (y, x) carries the weight its window would apply there; rows
    above off_j / columns left of off_i and positions whose window exits
    the image are zero.
    """
    h, w, k = shape.h, shape.w, kernel.k
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    anchor_y = off_j + ((ys - off_j) // k) * k
    anchor_x = off_i + ((xs - off_i) // k) * k
    ok_y = (ys >= off_j) & (anchor_y + k <= h)
    ok_x = (xs >= off_i) & (anchor_x + k <= w)
    tiled = kernel.weights[(ys - off_j) % k, (xs - off_i) % k]
    return np.where(ok_y & ok_x, tiled, 0.0)


def bias_matrix(kernel: Kernel, shape: ImageShape) -> np.ndarray:
    """Bias value over the full valid-output block, zeros elsewhere."""
    out_h, out_w = shape.out(kernel.k)
    grid = np.zeros((shape.h, shape.w), dtype=np.float64)
    grid[:out_h, :out_w] = kernel.bias
    return grid


def _span_blocks(engine: SlotEngine, kernel: Kernel, shape: ImageShape, m: int, f: int) -> KernelSpan:
    """Encrypt the k*k span matrices and the bias layout into m blocks of stride f."""
    k = kernel.k
    if shape.h < 2 * k - 1 or shape.w < 2 * k - 1:
        raise EngineError(
            f"kernel spanning needs h, w >= 2k-1 = {2 * k - 1}, got {shape.h}x{shape.w}"
        )

    def enc(grid: np.ndarray) -> Ciphertext:
        return engine.enc(tile_blocks(grid.reshape(-1), m, f))

    spans = [enc(span_matrix(kernel, shape, i, j)) for i in range(k) for j in range(k)]
    return KernelSpan(spans, enc(bias_matrix(kernel, shape)), k, shape)


def kernel_spanner(engine: SlotEngine, kernel: Kernel, shape: ImageShape) -> KernelSpan:
    """Encrypt the k*k span matrices and the bias layout for one image."""
    return _span_blocks(engine, kernel, shape, 1, engine.slots)


def window_cascade(engine: SlotEngine, ct: Ciphertext, w: int, k: int) -> Ciphertext:
    """Accumulate each k x k window into its top-left slot.

    k rotations along the row then k rotations of that partial sum by whole
    rows (2k rotations total, the pos=0 rotations included for a uniform
    cost profile).  Slots off the window grid accumulate garbage that the
    caller masks away.
    """
    col_acc = engine.accumulator()
    for pos in range(k):
        col_acc.add(engine.rot(ct, pos))
    cols = col_acc.result()
    row_acc = engine.accumulator()
    for pos in range(k):
        row_acc.add(engine.rot(cols, pos * w))
    return row_acc.result()


def _offset_keeps(shape: ImageShape, k: int, offsets_i: np.ndarray, offsets_j: np.ndarray) -> np.ndarray:
    """The boolean patterns build_offset_filter keeps for the offset pairs
    (offsets_i[s], offsets_j[s]), one row of h*w slots each, built in one
    numpy pass."""
    ys, xs = np.arange(shape.h)[:, None], np.arange(shape.w)
    on_y = ((ys - offsets_j[:, None, None]) % k == 0) & (ys + k <= shape.h)
    on_x = ((xs - offsets_i[:, None, None]) % k == 0) & (xs + k <= shape.w)
    return (on_y & on_x).reshape(offsets_i.size, -1)


def build_offset_filter(
    engine: SlotEngine, shape: ImageShape, k: int, offset_i: int, offset_j: int
) -> PlainMask:
    """0/1 mask keeping positions with x = offset_i and y = offset_j (mod k)
    whose k-window stays inside the image."""
    if not (0 <= offset_i < k and 0 <= offset_j < k):
        raise EngineError(f"offsets must be in [0, {k}), got ({offset_i}, {offset_j})")
    (keep,) = _offset_keeps(shape, k, np.array([offset_i]), np.array([offset_j]))
    return engine.mask(keep)


def sum_for_conv(engine: SlotEngine, ct: Ciphertext, shape: ImageShape, k: int) -> Ciphertext:
    """Window cascade plus the stride-k anchor mask.

    Anchors (i, j) with i, j = 0 mod k and the window inside the image end
    up holding the k x k window sum; every other slot is zero.
    """
    if k > shape.h or k > shape.w:
        raise EngineError(f"window {k} exceeds image {shape.h}x{shape.w}")
    out = window_cascade(engine, ct, shape.w, k)
    return engine.cmul(build_offset_filter(engine, shape, k, 0, 0), out)


def _conv_blocks(engine: SlotEngine, ct: Ciphertext, spans, m: int, f: int) -> list:
    """Convolve ``ct`` with every kernel of a layer, for m image blocks of
    stride f; the spans must share k and the image shape.

    k*k iterations over the offset classes; each builds its offset filter
    once, then for every kernel multiplies by the span, runs the cascade,
    applies the filter and accumulates onto that kernel's bias-seeded
    result.  The k*k filter patterns are built in one numpy pass before
    the loop.  Returns one result per span, in order.
    """
    k, shape = spans[0].k, spans[0].shape
    offsets = np.arange(k)
    keeps = tile_blocks(_offset_keeps(shape, k, np.repeat(offsets, k), np.tile(offsets, k)), m, f)
    accs = [engine.accumulator(span.bias_ct) for span in spans]
    for i in range(k):
        for j in range(k):
            keep = engine.mask(keeps[i * k + j])
            for s, span in enumerate(spans):
                with engine.scope("conv.span_multiply"):
                    t = engine.mul(ct, span.span_cts[i * k + j])
                with engine.scope("conv.window_cascade"):
                    t = window_cascade(engine, t, shape.w, k)
                with engine.scope("conv.offset_filter"):
                    t = engine.cmul(keep, t)
                with engine.scope("conv.accumulate"):
                    accs[s].add(t)
    return [acc.result() for acc in accs]


def conv(engine: SlotEngine, ct_image: Ciphertext, span: KernelSpan, shape: ImageShape) -> Ciphertext:
    """Valid stride-1 convolution of one packed image with a spanned kernel:
    the layer loop with one kernel and a single image block spanning the
    ciphertext."""
    if span.shape != shape:
        raise EngineError(f"span built for {span.shape}, image is {shape}")
    shape.out(span.k)  # validates kernel fits
    return _conv_blocks(engine, ct_image, [span], 1, engine.slots)[0]
