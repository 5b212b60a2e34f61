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
also cuts that row sum to the width and the p result columns, and its
neuron blocks share one spread and one result filter per iteration.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import Encoding, MatrixShape, PackedMatrix, column0_filter, spread_column0, sum_col_vec
from .engine import Ciphertext, EngineError, LayoutError, PlainMask, SlotEngine, is_pow2

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


def build_result_filter(
    engine: SlotEngine, m: int, n: int, p: int, idx: int, blocks: int = 1
) -> PlainMask:
    """One-hot row filter: row i keeps column (i + idx) mod p.

    With ``blocks`` side-by-side p-wide blocks, row i keeps lane
    b*p + (i + idx) mod p of every block b; blocks * p <= n.
    """
    if not 0 <= idx < p:
        raise EngineError(f"idx must be in [0, {p}), got {idx}")
    if not 1 <= blocks <= n // p:
        raise LayoutError(f"{blocks} blocks of {p} columns do not fit rows {n} wide")
    rows = np.arange(m)[:, None]
    keep = np.zeros((m, n), dtype=bool)
    keep[rows, (rows + idx) % p + p * np.arange(blocks)] = True
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
    *b_blocks: Sequence[PackedMatrix],
    init: Ciphertext | None = None,
    width: int | None = None,
) -> PackedMatrix:
    """Products A_c * B_bc summed over inner-dimension chunks c, for every
    neuron block b, in one loop.

    Row summation and the result filter are linear, so each iteration adds
    the C chunk products of a block's row cycle, collapses them to one row
    sum per row, moves block b's sums to lane b*p and adds the blocks; one
    spread and one result filter then serve all B blocks, and one add
    accumulates.  Only the row cycles, the ct-ct multiplies and the
    collapse scale with B*C.  Without ``width`` (one block only) the row
    sum is the paper's, 2*log2(n) rotations, so an iteration costs
    C + 2*log2(n).  With ``width`` (the FC row sum of :func:`sum_col_vec`)
    the collapse takes ceil(log2 width) steps and the spread
    ceil(log2 p), so on the single-rotation row-cycle path the call costs
    B*p*(C + ceil(log2 width)) + p*(B - 1 + ceil(log2 p)) rotations,
    B*p*C ct-ct multiplies and p*(B + 1) constant multiplies.

    Args:
        a_chunks: C left operands, each m x n and row-major encoded.
        b_blocks: one sequence per neuron block of C revolver encodings of
            n x p right operands (one per left chunk), tiled to max(m, p)
            rows; every pair shares m, n and p.
        init: optional accumulator seed (e.g. a packed bias) in the output
            lanes, added once.
        width: FC row sum.  The result is exact only if every B_bc is zero
            from inner index ``width`` on (A_c may hold anything there);
            the row sum then collapses over ``width`` and spreads only over
            the p result columns.  1 <= width <= n, else LayoutError.  More
            than one block needs it, a power-of-two p and B*p <= n: a
            full-row spread would smear the blocks together.

    Returns:
        PackedMatrix over the working layout; entry (i, j) of block b's
        m x p sum sits at slot i*n + b*p + j, so row i's outputs fill
        lanes 0..B*p-1, and every slot outside them decodes to zero.
    """
    counts = sorted({len(b_chunks) for b_chunks in b_blocks})
    if not a_chunks or counts != [len(a_chunks)]:
        raise LayoutError(
            f"need one right operand per left chunk (at least one) in every block, "
            f"got {len(a_chunks)} left chunks and blocks of {counts}"
        )
    plans = {_plan_product(engine, a, b) for b_chunks in b_blocks for a, b in zip(a_chunks, b_chunks)}
    if len(plans) != 1:
        shapes = sorted((pl.m, pl.n, pl.p) for pl in plans)
        raise LayoutError(f"chunks disagree on (m, n, p): {shapes}")
    (plan,) = plans
    p, n, rows = plan.p, plan.n, plan.layout_m
    blocks = len(b_blocks)
    if blocks > 1 and (width is None or not is_pow2(p) or blocks * p > n):
        raise LayoutError(
            f"{blocks} neuron blocks of p={p} need the FC row sum (width), "
            f"a power-of-two p and {blocks}*{p} <= row width {n}"
        )
    work_shape = MatrixShape(rows, n)
    spread = n if width is None else p
    col0 = column0_filter(engine, rows, n)  # one layout, so one filter for every row sum

    acc = init if init is not None else engine.enc([])
    for idx in range(p):
        sums = None
        for b, b_chunks in enumerate(b_blocks):
            with engine.scope("matmul.row_cycle"):
                prod = None
                for ct_a, ct_bbar in zip(a_chunks, b_chunks):
                    term = engine.mul(ct_a.ct, row_shifter(engine, ct_bbar, p, idx).ct)
                    prod = term if prod is None else engine.add(prod, term)
            with engine.scope("matmul.row_sum"):
                col = sum_col_vec(  # row sums into column 0, no spread yet
                    engine, PackedMatrix(prod, work_shape, Encoding.ROW_MAJOR), width, cols=1, col0=col0
                ).ct
                if b:
                    col = engine.rot(col, -b * p)  # block b's sums to lane b*p
                sums = col if sums is None else engine.add(sums, col)
        with engine.scope("matmul.row_sum"):
            sums = spread_column0(engine, sums, spread)
        with engine.scope("matmul.result_filter"):
            kept = engine.cmul(build_result_filter(engine, rows, n, p, (idx + 1) % p, blocks), sums)
        with engine.scope("matmul.accumulate"):
            acc = engine.add(acc, kept)
    return PackedMatrix(acc, work_shape, Encoding.ROW_MAJOR)


def matmul(engine: SlotEngine, ct_a: PackedMatrix, ct_bbar: PackedMatrix) -> PackedMatrix:
    """Homomorphic product of a row-major A with a revolver-encoded B.

    The one-block, one-chunk case of :func:`matmul_chunked`, with no
    accumulator seed.

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

