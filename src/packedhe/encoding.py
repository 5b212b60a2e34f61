"""Plaintext <-> slot layout transformations.

A matrix is packed row-major into the leading slots of a ciphertext (the
database layout of Volley Revolver).  The left matmul operand keeps that
layout; the right operand is transposed and vertically tiled ("revolver"
layout) so each layout row carries one column of the original matrix and
the rows can be cycled with rotations.  On the row-major pack the paper's
column and row shifts are single rotations (by 1 and by the row width),
so they need no function of their own.  Also provides the rotate-and-add
row summation used by the evaluation algorithms.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .engine import (
    CapacityError,
    Ciphertext,
    EngineError,
    LayoutError,
    PlainMask,
    SlotEngine,
    is_pow2,
    next_pow2,
)

__all__ = [
    "Encoding",
    "MatrixShape",
    "PackedMatrix",
    "encode_row_major",
    "encode_revolver",
    "column0_filter",
    "sum_col_vec",
]


class Encoding(str, Enum):
    ROW_MAJOR = "row-major"
    REVOLVER = "revolver"


@dataclass(frozen=True)
class MatrixShape:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise EngineError(f"matrix shape must be positive, got {self.m}x{self.n}")


@dataclass(frozen=True, eq=False)
class PackedMatrix:
    """A ciphertext holding an m x n matrix in its leading m*n slots.

    ``revolve_p`` records the source column count for revolver-encoded
    operands (the layout itself only shows the tiled m x n grid).
    """

    ct: Ciphertext
    shape: MatrixShape
    encoding: Encoding
    revolve_p: int | None = None

    def decode(self, engine: SlotEngine) -> np.ndarray:
        m, n = self.shape.m, self.shape.n
        return engine.dec(self.ct)[: m * n].reshape(m, n)


def _check_fit(engine: SlotEngine, m: int, n: int) -> None:
    if m * n > engine.slots:
        raise CapacityError(f"{m}x{n} matrix needs {m * n} slots, engine has {engine.slots}")


def encode_row_major(engine: SlotEngine, a) -> PackedMatrix:
    """Pack a matrix row-wise into one ciphertext: the left matmul operand
    and the database layout."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    m, n = a.shape
    _check_fit(engine, m, n)
    ct = engine.enc(a.reshape(-1))
    return PackedMatrix(ct, MatrixShape(m, n), Encoding.ROW_MAJOR)


def encode_revolver(engine: SlotEngine, b, target_m: int) -> PackedMatrix:
    """Encode the right matmul operand: transpose and tile to ``target_m`` rows.

    Layout row r holds column (r mod p) of ``b`` read top to bottom, so the
    first p rows are the transpose of ``b`` and further rows repeat the
    columns cyclically.  ``target_m`` is dictated by the left operand (use
    max(m, p) so every column appears at least once).
    """
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    n, p = b.shape
    if target_m < 1:
        raise EngineError("target_m must be positive")
    _check_fit(engine, target_m, n)
    grid = np.empty((target_m, n), dtype=np.float64)
    for r in range(target_m):
        grid[r] = b[:, r % p]
    ct = engine.enc(grid.reshape(-1))
    return PackedMatrix(ct, MatrixShape(target_m, n), Encoding.REVOLVER, revolve_p=p)


def column0_filter(engine: SlotEngine, m: int, n: int, lanes: int = 1) -> PlainMask:
    """0/1 filter keeping the first ``lanes`` columns (by default column 0)
    of every row of an m x n layout."""
    keep = np.zeros((m, n), dtype=bool)
    keep[:, :lanes] = True
    return engine.mask(keep.reshape(-1), role="filter")


def sum_col_vec(
    engine: SlotEngine,
    pm: PackedMatrix,
    width: int | None = None,
    cols: int | None = None,
    col0: PlainMask | None = None,
    stride: int = 1,
) -> PackedMatrix:
    """Replace every entry of row i with the sum of row i.

    Rotate-and-add cascade leaves the true row sum in column 0 of each row
    (other columns mix across row boundaries); a filter keeps column 0 per
    row block before the replication cascade spreads it back across the
    row.  Costs 2*log2(n) rotations and one cmul.  The filter depends only
    on the layout, so a caller summing many products of one shape builds it
    once with :func:`column0_filter` and passes it as ``col0``; by default
    it is built here.

    FC row sum: ``width`` and ``cols`` cut both cascades to the lanes that
    matter.  The collapse adds only the first ``width`` entries of each row
    (ceil(log2 width) steps) and the spread fills only the first ``cols``
    columns (ceil(log2 cols) steps; columns from next_pow2(cols) on decode
    to zero).  The sum is exact only if every entry of a row at or past
    column ``width`` is zero, as in an FC product whose weight tiles are
    zero past the layer's input width.  Both default to n, the full row sum.

    Interleaved sums: with ``stride`` s every step moves s times as far,
    so lane j < s of a row collapses the row's lanes j, j + s, j + 2s, ...
    below ``width`` (ceil(log2 ceil(width / s)) steps), the filter (then
    ``column0_filter(..., lanes=s)``) keeps lanes 0..s-1, and the spread
    copies lane j to lanes j + k*s for k < next_pow2(cols).  Every step
    stays inside the row when s * next_pow2(ceil(width / s)) <= n and
    s * next_pow2(cols) <= n, else LayoutError.
    """
    m, n = pm.shape.m, pm.shape.n
    if not is_pow2(n):
        raise EngineError(f"sum_col_vec requires a power-of-two column count, got {n}")
    width = n if width is None else width
    cols = n if cols is None else cols
    if not (
        stride >= 1
        and width >= 1
        and cols >= 1
        and stride * max(next_pow2(-(-width // stride)), next_pow2(cols)) <= n
    ):
        raise LayoutError(
            f"row sum over width {width} into {cols} columns at stride {stride} "
            f"does not fit rows {n} wide"
        )
    ct = pm.ct
    for t in range((-(-width // stride) - 1).bit_length()):
        ct = engine.add(ct, engine.rot(ct, stride << t))
    ct = engine.cmul(column0_filter(engine, m, n, stride) if col0 is None else col0, ct)
    for t in range((cols - 1).bit_length()):
        ct = engine.add(ct, engine.rot(ct, -(stride << t)))
    return PackedMatrix(ct, pm.shape, pm.encoding, pm.revolve_p)
