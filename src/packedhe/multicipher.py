"""Multi-ciphertext encodings for operands that outgrow one ciphertext.

Matrix product: each operand becomes n ciphertexts.  Left ciphertext k
broadcasts column k of A across an m x p grid; right ciphertext k tiles
row k of B down the same grid; the product is the sum of the n slot-wise
products, a rank-1 outer-product decomposition needing zero rotations at
evaluation time.

Images: an h x w image becomes w column ciphertexts of h pixels (batched:
m images stacked at stride h), so image capacity is bounded by h alone,
not h*w.  Convolution slides down each column with masked block rotations
and accumulates weighted neighbour columns.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import MatrixShape, PackedMatrix, tile_blocks
from .conv import Kernel
from .engine import CapacityError, EngineError, LayoutError, SlotEngine

__all__ = [
    "ColumnEncodedMatrix",
    "ColumnEncodedImage",
    "encode_left",
    "encode_right",
    "matmul_outer",
    "encode_image_columns",
    "conv_columns",
    "reassemble_columns",
]


@dataclass(frozen=True, eq=False)
class ColumnEncodedMatrix:
    """n ciphertexts holding one matmul operand in broadcast form; n is
    ``len(cts)``, the operand's inner dimension."""

    cts: list
    role: str  # "left" or "right"
    m: int
    p: int


@dataclass(frozen=True, eq=False)
class ColumnEncodedImage:
    """w ciphertexts, one image column each; batched images stack at ``stride``.

    ``h`` is the number of meaningful leading slots per image block; after
    a convolution it shrinks while the physical stride stays that of the
    original encoding.
    """

    cts: list
    h: int
    m: int
    stride: int

    @property
    def w(self) -> int:
        return len(self.cts)


def encode_left(engine: SlotEngine, a, p: int) -> ColumnEncodedMatrix:
    """Ciphertext k = column k of A broadcast across an m x p grid."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    m, n = a.shape
    if m * p > engine.slots:
        raise CapacityError(f"{m}x{p} broadcast needs {m * p} slots, engine has {engine.slots}")
    cts = []
    for k in range(n):
        grid = np.repeat(a[:, k], p)
        cts.append(engine.enc(grid))
    return ColumnEncodedMatrix(cts, "left", m, p)


def encode_right(engine: SlotEngine, b, m: int) -> ColumnEncodedMatrix:
    """Ciphertext k = row k of B tiled down m grid rows."""
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    n, p = b.shape
    if m * p > engine.slots:
        raise CapacityError(f"{m}x{p} tiling needs {m * p} slots, engine has {engine.slots}")
    cts = []
    for k in range(n):
        cts.append(engine.enc(tile_blocks(b[k], m, p)))
    return ColumnEncodedMatrix(cts, "right", m, p)


def matmul_outer(
    engine: SlotEngine, left: ColumnEncodedMatrix, right: ColumnEncodedMatrix
) -> PackedMatrix:
    """Sum of the n slot-wise products; no rotations, depth + 1."""
    if left.role != "left" or right.role != "right":
        raise LayoutError("operands must be a (left, right) column-encoded pair")
    dims = [(op.m, len(op.cts), op.p) for op in (left, right)]
    if dims[0] != dims[1]:
        raise LayoutError(f"operand dims (m, n, p) differ: left {dims[0]}, right {dims[1]}")
    acc = engine.accumulator()
    for lk, rk in zip(left.cts, right.cts):
        acc.mul(lk, rk)
    return PackedMatrix(acc.result(), MatrixShape(left.m, left.p))


def encode_image_columns(engine: SlotEngine, images) -> ColumnEncodedImage:
    """Split images into per-column ciphertexts (batch at stride h)."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise EngineError(f"expected one image or a batch, got ndim={arr.ndim}")
    m, h, w = arr.shape
    if m * h > engine.slots:
        raise CapacityError(f"{m} columns of {h} pixels need {m * h} slots")
    cts = []
    for j in range(w):
        stacked = arr[:, :, j].reshape(-1)
        cts.append(engine.enc(stacked))
    return ColumnEncodedImage(cts, h, m, stride=h)


def conv_columns(engine: SlotEngine, img: ColumnEncodedImage, kernel: Kernel) -> ColumnEncodedImage:
    """Valid convolution in the column domain.

    Output column j' = sum over (p, q) of K[p][q] times source column
    j'+q shifted up by p rows.  Shifts are plain rotations; the kernel
    weight is folded into the per-block validity mask, so each term costs
    one cmul.  The rotations, the k*k weighted masks and the bias
    ciphertext are shared across output columns.  Every term is metered,
    a zero weight too, so a call costs (k - 1)*w rotations and k*k*out_w
    cmuls and adds whatever the weights are.
    """
    k = kernel.k
    if k > img.h or k > img.w:
        raise EngineError(f"{k}x{k} kernel larger than {img.h}x{img.w} image")
    out_h, out_w = img.h - k + 1, img.w - k + 1
    valid = tile_blocks(np.ones(out_h), img.m, img.stride)

    # shifted[j][p] is source column j shifted up by p rows
    shifted = [[ct, *(engine.rot(ct, p) for p in range(1, k))] for ct in img.cts]

    bias_ct = engine.enc(tile_blocks(np.full(out_h, kernel.bias), img.m, img.stride))
    weighted = {
        (q, p): engine.mask(kernel.weights[p, q] * valid)
        for q in range(k)
        for p in range(k)
    }

    out_cts = []
    for jp in range(out_w):
        acc = engine.accumulator(bias_ct)
        for (q, p), mask in weighted.items():
            acc.cmul(mask, shifted[jp + q][p])
        out_cts.append(acc.result())
    return ColumnEncodedImage(out_cts, out_h, img.m, img.stride)


def reassemble_columns(engine: SlotEngine, img: ColumnEncodedImage) -> np.ndarray:
    """Decode to an (m, h, w) array; inverse of the column encoding."""
    out = np.empty((img.m, img.h, img.w), dtype=np.float64)
    for j, ct in enumerate(img.cts):
        vec = engine.dec(ct)
        for b in range(img.m):
            out[b, :, j] = vec[b * img.stride : b * img.stride + img.h]
    return out
