"""Plaintext <-> slot layout transformations.

A matrix is packed row-major into the leading slots of a ciphertext (the
database layout of Volley Revolver).  The left matmul operand keeps that
layout; the right operand is transposed and vertically tiled ("revolver"
layout) so each layout row carries one column of the original matrix and
the rows can be cycled with rotations.  On the row-major pack the paper's
column and row shifts are single rotations (by 1 and by the row width),
so they need no function of their own.  Also provides the rotate-and-add
row summation used by the evaluation algorithms, and :func:`tile_blocks`,
which lays a per-block slot pattern into every block of a batched layout.
"""

from dataclasses import dataclass

import numpy as np

from .engine import CapacityError, Ciphertext, EngineError, LayoutError, PlainMask, SlotEngine, is_pow2

__all__ = [
    "MatrixShape",
    "PackedMatrix",
    "encode_row_major",
    "encode_revolver",
    "tile_blocks",
    "column0_filter",
    "sum_col_vec",
]


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

    The matrix is row-major unless ``revolve_p`` is set: a revolver-encoded
    operand records its source column count there (the layout itself only
    shows the tiled m x n grid).
    """

    ct: Ciphertext
    shape: MatrixShape
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
    return PackedMatrix(ct, MatrixShape(m, n))


def encode_revolver(engine: SlotEngine, b, target_m: int) -> PackedMatrix:
    """Encode the right matmul operand: transpose and tile to ``target_m`` rows.

    Layout row r holds column (r mod p) of ``b`` read top to bottom, so the
    first p rows are the transpose of ``b`` and further rows repeat the
    columns cyclically.  ``target_m`` is dictated by the left operand (use
    max(m, p) so every column appears at least once).  A ``b`` with no
    columns raises LayoutError: the product would have no result column.
    """
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    n, p = b.shape
    if p < 1:
        raise LayoutError(f"result needs at least one column, got p={p}")
    if target_m < 1:
        raise EngineError("target_m must be positive")
    _check_fit(engine, target_m, n)
    grid = np.empty((target_m, n), dtype=np.float64)
    for r in range(target_m):
        grid[r] = b[:, r % p]
    ct = engine.enc(grid.reshape(-1))
    return PackedMatrix(ct, MatrixShape(target_m, n), revolve_p=p)


def tile_blocks(pattern, m: int, f: int) -> np.ndarray:
    """Lay ``pattern`` at the head of each of m blocks of stride f, with
    zeros after it, in the pattern's dtype (boolean for filters).  A stack
    of patterns (leading axes, the last running along each pattern) gives
    the stack of their (..., m*f) slot vectors.  CapacityError for a
    pattern longer than f."""
    pattern = np.asarray(pattern)
    size = pattern.shape[-1]
    if size > f:
        raise CapacityError(f"{size}-slot pattern exceeds block stride {f}")
    full = np.zeros((*pattern.shape[:-1], m, f), dtype=pattern.dtype)
    full[..., :size] = pattern[..., None, :]
    return full.reshape(*pattern.shape[:-1], m * f)


def column0_filter(engine: SlotEngine, m: int, n: int) -> PlainMask:
    """0/1 filter keeping column 0 of every row of an m x n layout."""
    return engine.mask(tile_blocks([True], m, n))


def sum_col_vec(engine: SlotEngine, pm: PackedMatrix, col0: PlainMask | None = None) -> PackedMatrix:
    """Replace every entry of row i with the sum of row i.

    Rotate-and-add cascade leaves the true row sum in column 0 of each row
    (other columns mix across row boundaries); a filter keeps column 0 per
    row block before the replication cascade spreads it back across the
    row.  Costs 2*log2(n) rotations and one cmul.  The filter depends only
    on the layout, so a caller summing many products of one shape builds it
    once with :func:`column0_filter` and passes it as ``col0``; by default
    it is built here.
    """
    m, n = pm.shape.m, pm.shape.n
    if not is_pow2(n):
        raise EngineError(f"sum_col_vec requires a power-of-two column count, got {n}")
    steps = n.bit_length() - 1
    ct = pm.ct
    for t in range(steps):
        ct = engine.add(ct, engine.rot(ct, 1 << t))
    ct = engine.cmul(column0_filter(engine, m, n) if col0 is None else col0, ct)
    for t in range(steps):
        ct = engine.add(ct, engine.rot(ct, -(1 << t)))
    return PackedMatrix(ct, pm.shape, pm.revolve_p)
