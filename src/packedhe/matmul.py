"""Single-ciphertext homomorphic matrix multiplication.

C = A * B is accumulated over p iterations.  The right operand is packed
in the revolver layout (row r = column r mod p of B); iteration idx cycles
that layout up by idx+1 rows, multiplies slot-wise with A, collapses each
row to its sum, and a one-hot-per-row filter keeps exactly the result
entry that iteration produced.  Rotation/mask costs per iteration are
constant, and so is the multiplicative depth.  A product whose inner
dimension is split across several ciphertexts adds the chunk products of
each iteration before the row sum, so it still pays one row sum per
iteration; an FC product whose weights are zero past a known input width
also cuts that row sum to the width and the p result columns.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import Encoding, MatrixShape, PackedMatrix, column0_filter, sum_col_vec
from .engine import Ciphertext, EngineError, LayoutError, PlainMask, SlotEngine

__all__ = [
    "MatmulPlan",
    "row_shifter",
    "build_result_filter",
    "matmul",
    "matmul_chunked",
]

def _cycle_closes(engine: SlotEngine, rows: int, n: int, p: int) -> bool:
    """Single-rotation row cycling is exact: rows is a multiple of p and the
    rows x n layout fills the ciphertext."""
    return rows % p == 0 and rows * n == engine.slots


@dataclass(frozen=True)
class MatmulPlan:
    """Shape bookkeeping for one product: layout height and fast-path flag.

    ``layout_m`` is max(m, p): with fewer rows than output columns the
    revolver layout could not carry every column of B, so the left operand
    is treated as zero-padded to layout_m rows (free: its trailing slots
    are already zero).  The single-rotation fast path needs the row cycle
    to close on itself, i.e. layout_m a multiple of p and the layout
    filling the ciphertext exactly.
    """

    m: int
    n: int
    p: int
    layout_m: int
    fast_path: bool

    @classmethod
    def plan(cls, engine: SlotEngine, m: int, n: int, p: int) -> "MatmulPlan":
        layout_m = max(m, p)
        if p > n:
            raise LayoutError(
                f"result needs {p} columns but rows are {n} wide; "
                f"re-encode the operands with row width >= {p}"
            )
        if layout_m * n > engine.slots:
            raise LayoutError(
                f"{layout_m}x{n} working layout needs {layout_m * n} slots, "
                f"engine has {engine.slots}"
            )
        return cls(m=m, n=n, p=p, layout_m=layout_m, fast_path=_cycle_closes(engine, layout_m, n, p))


def _row_band_mask(engine: SlotEngine, rows: int, n: int, r0: int, r1: int) -> PlainMask:
    keep = np.zeros((rows, n), dtype=bool)
    keep[r0:r1, :] = True
    return engine.mask(keep.reshape(-1), role="filter")


def row_shifter(engine: SlotEngine, bbar: PackedMatrix, p: int, idx: int) -> PackedMatrix:
    """Cycle the revolver layout up by idx+1 rows.

    Always applied to the originally encoded operand, so depth stays constant over
    the iteration loop.  Fast path: one rotation by n*(idx+1) (valid when
    the cycle closes, see MatmulPlan).  General path: one left rotation
    brings rows shift..m-1 into place, one right rotation by (p-shift)
    rows refills the freed bottom rows with the columns that wrapped
    around, each side isolated by a 0/1 row-band filter.
    """
    if bbar.encoding is not Encoding.REVOLVER:
        raise LayoutError("row_shifter needs a revolver-encoded operand")
    if bbar.revolve_p is not None and bbar.revolve_p != p:
        raise EngineError(f"operand was encoded for p={bbar.revolve_p}, got p={p}")
    if not 0 <= idx < p:
        raise EngineError(f"idx must be in [0, {p}), got {idx}")
    rows, n = bbar.shape.m, bbar.shape.n
    if rows < p:
        raise LayoutError(f"revolver layout has {rows} rows but needs at least p={p}")
    shift = idx + 1
    if _cycle_closes(engine, rows, n, p):
        out = engine.rot(bbar.ct, n * shift)
    else:
        top = engine.cmul(
            _row_band_mask(engine, rows, n, 0, rows - shift),
            engine.rot(bbar.ct, n * shift),
        )
        bottom = engine.cmul(
            _row_band_mask(engine, rows, n, rows - shift, rows),
            engine.rot(bbar.ct, n * (shift - p)),
        )
        out = engine.add(top, bottom)
    return PackedMatrix(out, bbar.shape, Encoding.REVOLVER, bbar.revolve_p)


def build_result_filter(engine: SlotEngine, m: int, n: int, p: int, idx: int) -> PlainMask:
    """One-hot row filter: row i keeps column (i + idx) mod p."""
    if not 0 <= idx < p:
        raise EngineError(f"idx must be in [0, {p}), got {idx}")
    rows = np.arange(m)
    keep = np.zeros((m, n), dtype=bool)
    keep[rows, (rows + idx) % p] = True
    return engine.mask(keep.reshape(-1), role="filter")


def _plan_product(engine: SlotEngine, ct_a: PackedMatrix, ct_bbar: PackedMatrix) -> MatmulPlan:
    """Check one (A, revolver B) operand pair and plan its product."""
    if ct_a.encoding is not Encoding.ROW_MAJOR:
        raise LayoutError("left operand must be row-major encoded")
    if ct_bbar.encoding is not Encoding.REVOLVER or ct_bbar.revolve_p is None:
        raise LayoutError("right operand must be revolver encoded")
    m, n = ct_a.shape.m, ct_a.shape.n
    if ct_bbar.shape.n != n:
        raise LayoutError(
            f"operand widths differ: A is {n} wide, encoded B is {ct_bbar.shape.n}"
        )
    plan = MatmulPlan.plan(engine, m, n, ct_bbar.revolve_p)
    if ct_bbar.shape.m != plan.layout_m:
        raise LayoutError(
            f"revolver operand tiled to {ct_bbar.shape.m} rows; "
            f"this product needs target_m={plan.layout_m}"
        )
    return plan


def matmul_chunked(
    engine: SlotEngine,
    a_chunks: Sequence[PackedMatrix],
    b_chunks: Sequence[PackedMatrix],
    init: Ciphertext | None = None,
    width: int | None = None,
) -> PackedMatrix:
    """Sum of products A_c * B_c over inner-dimension chunks, in one loop.

    Row summation and the result filter are linear, so each iteration adds
    the C chunk products of its row cycle first and then pays for one row
    sum, one filter and one accumulate: only the row cycles and the ct-ct
    multiplies scale with C.  The row sum costs 2*log2(n) rotations, or
    ceil(log2 width) + ceil(log2 p) with ``width`` (the FC row sum of
    :func:`sum_col_vec`), so an iteration costs C + 2*log2(n) rotations,
    or C + ceil(log2 width) + ceil(log2 p).

    Args:
        a_chunks: C left operands, each m x n and row-major encoded.
        b_chunks: C revolver encodings of n x p right operands, tiled to
            max(m, p) rows; every pair shares m, n and p.
        init: optional accumulator seed (e.g. a packed bias), added once.
        width: FC row sum.  The result is exact only if every B_c is zero
            from inner index ``width`` on (A_c may hold anything there);
            the row sum then collapses over ``width`` and spreads only over
            the p result columns.  1 <= width <= n, else LayoutError.

    Returns:
        PackedMatrix over the working layout; entry (i, j) of the m x p
        sum sits at slot i*n + j and every slot outside that block decodes
        to zero.
    """
    if not a_chunks or len(a_chunks) != len(b_chunks):
        raise LayoutError(
            f"need one right operand per left chunk (at least one), "
            f"got {len(a_chunks)} and {len(b_chunks)}"
        )
    plans = {_plan_product(engine, a, b) for a, b in zip(a_chunks, b_chunks)}
    if len(plans) != 1:
        shapes = sorted((pl.m, pl.n, pl.p) for pl in plans)
        raise LayoutError(f"chunks disagree on (m, n, p): {shapes}")
    (plan,) = plans
    p, n, rows = plan.p, plan.n, plan.layout_m
    work_shape = MatrixShape(rows, n)
    cols = None if width is None else p
    col0 = column0_filter(engine, rows, n)  # one layout, so one filter for every row sum

    acc = init if init is not None else engine.enc([])
    for idx in range(p):
        with engine.scope("matmul.row_cycle"):
            prod = None
            for ct_a, ct_bbar in zip(a_chunks, b_chunks):
                term = engine.mul(ct_a.ct, row_shifter(engine, ct_bbar, p, idx).ct)
                prod = term if prod is None else engine.add(prod, term)
        with engine.scope("matmul.row_sum"):
            sums = sum_col_vec(engine, PackedMatrix(prod, work_shape, Encoding.ROW_MAJOR), width, cols, col0)
        with engine.scope("matmul.result_filter"):
            kept = engine.cmul(build_result_filter(engine, rows, n, p, (idx + 1) % p), sums.ct)
        with engine.scope("matmul.accumulate"):
            acc = engine.add(acc, kept)
    return PackedMatrix(acc, work_shape, Encoding.ROW_MAJOR)


def matmul(engine: SlotEngine, ct_a: PackedMatrix, ct_bbar: PackedMatrix) -> PackedMatrix:
    """Homomorphic product of a row-major A with a revolver-encoded B.

    The one-chunk case of :func:`matmul_chunked`, with no accumulator seed.

    Args:
        ct_a: m x n row-major left operand.
        ct_bbar: revolver encoding of the n x p right operand, tiled to
            max(m, p) rows.

    Returns:
        PackedMatrix over the working layout; entry (i, j) of the m x p
        product sits at slot i*n + j and every slot outside that block
        decodes to zero.
    """
    return matmul_chunked(engine, [ct_a], [ct_bbar])

