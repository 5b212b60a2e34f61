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
neuron blocks, interleaved across the spare lanes of each row, share
that row sum, one spread and one result filter per iteration.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import Encoding, MatrixShape, PackedMatrix, column0_filter, sum_col_vec
from .engine import Ciphertext, EngineError, LayoutError, PlainMask, SlotEngine, next_pow2

__all__ = [
    "MatmulPlan",
    "row_shifter",
    "build_result_filter",
    "encode_interleaved",
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

    With ``blocks`` interleaved neuron blocks (output q at lane q, q = B*g + j
    for group g < p and block j < B), row i keeps lanes B*((i + idx) mod p) + j
    for every j < B; blocks * p <= n.
    """
    if not 0 <= idx < p:
        raise EngineError(f"idx must be in [0, {p}), got {idx}")
    if not 1 <= blocks <= n // p:
        raise LayoutError(f"{blocks} blocks of {p} columns do not fit rows {n} wide")
    rows = np.arange(m)[:, None]
    keep = np.zeros((m, n), dtype=bool)
    keep[rows, blocks * ((rows + idx) % p) + np.arange(blocks)] = True
    return engine.mask(keep.reshape(-1), role="filter")


def encode_interleaved(engine: SlotEngine, b, blocks: int, target_m: int, n: int) -> list[PackedMatrix]:
    """Encode a w x (blocks*p) right operand as ``blocks`` interleaved
    revolver tiles for :func:`matmul_chunked`.

    Output q = blocks*g + j (group g < p, block j < blocks) is to land at
    lane q.  Tile d (the d-th "diagonal") holds in its layout row r, at
    lane l + d for l < w, the weight b[l, blocks*(r mod p) + (l + d) mod
    blocks], and zero everywhere else; the left operand it meets is shifted
    right by d lanes.  blocks = 1 is :func:`encode_revolver` of b padded with
    zero rows to n.  Needs w + blocks - 1 <= n, else LayoutError.
    """
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    w, q = b.shape
    if blocks < 1 or q % blocks:
        raise LayoutError(f"{q} outputs do not split into {blocks} interleaved blocks")
    if w + blocks - 1 > n:
        raise LayoutError(
            f"{blocks} interleaved blocks over inner width {w} need rows of "
            f"w + B - 1 = {w + blocks - 1} lanes, rows are {n} wide"
        )
    p = q // blocks
    lanes = np.arange(w)
    groups = np.arange(target_m)[:, None] % p
    tiles = []
    for d in range(blocks):
        grid = np.zeros((target_m, n), dtype=np.float64)
        grid[:, lanes + d] = b[lanes, blocks * groups + (lanes + d) % blocks]
        ct = engine.enc(grid.reshape(-1))
        tiles.append(PackedMatrix(ct, MatrixShape(target_m, n), Encoding.REVOLVER, revolve_p=p))
    return tiles


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
    """Products A_c * B_c summed over inner-dimension chunks c, with B
    neuron blocks interleaved across the lanes of one row sum.

    Row summation and the result filter are linear, so each iteration adds
    the chunk products of its row cycle and collapses them to one row sum
    per row; one filter, one spread and one result filter follow, and one
    add accumulates.  With one block (``b_blocks`` = one sequence of C
    revolver encodings) and no ``width`` the row sum is the paper's,
    2*log2(n) rotations, so an iteration costs C + 2*log2(n).

    B > 1 blocks are stored interleaved (:func:`encode_interleaved`): output
    q = B*g + j sits at lane q, and ``b_blocks[d]`` holds diagonal d of
    every chunk, which meets A_c shifted right by d lanes.  The shifts are
    chained (shift d = rotation of shift d-1 by -1, C*(B-1) rotations per
    call) and hoisted out of the iteration loop.  After the B*C products of
    an iteration are added, lane j < B of each row holds the lanes of that
    row congruent to j mod B; the products stay inside their row because
    w + B - 1 <= n, and a shift reads the previous row only in lanes below
    d, where diagonal d is zero.  So one fold at stride B over
    ceil(log2 ceil((w+B-1)/B)) steps, one filter keeping lanes 0..B-1, one
    spread at stride B over ceil(log2 p) steps and one result filter
    (:func:`build_result_filter` with ``blocks``) serve all blocks.  With
    ``width`` w, on the single-rotation row-cycle path the call costs
    p*(B*C + ceil(log2 ceil((w+B-1)/B)) + ceil(log2 p)) + C*(B-1)
    rotations, B*p*C ct-ct multiplies and 2p constant multiplies; the
    general path pays two rotations and two masked multiplies per row
    cycle and one level more.

    Args:
        a_chunks: C left operands, each m x n and row-major encoded.
        b_blocks: B sequences of C revolver tiles (one per left chunk),
            tiled to max(m, p) rows; every pair shares m, n and p.  One
            sequence is a plain revolver encoding of each n x p B_c; more
            are the diagonals of :func:`encode_interleaved`.
        init: optional accumulator seed (e.g. a packed bias) in the output
            lanes, added once.
        width: FC row sum.  The result is exact only if every B_c is zero
            from inner index ``width`` on (A_c may hold anything there);
            the row sum then collapses over ``width`` (+ B - 1 lanes) and
            spreads only over the p result columns.  More than one block
            needs it, with w + B - 1 <= n and B*next_pow2(p) <= n;
            otherwise, or outside 1 <= width <= n, LayoutError.

    Returns:
        PackedMatrix over the working layout; output (i, q) of the m x B*p
        sum sits at slot i*n + q, so row i's outputs fill lanes 0..B*p-1,
        and every slot outside them decodes to zero.
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
    if blocks > 1 and (width is None or not 1 <= width <= n - blocks + 1 or blocks * next_pow2(p) > n):
        raise LayoutError(
            f"{blocks} interleaved neuron blocks of p={p} need the FC row sum over a width w "
            f"with 1 <= w and w + {blocks - 1} <= row width {n}, and {blocks}*next_pow2({p}) <= {n}; "
            f"got width {width}"
        )
    work_shape = MatrixShape(rows, n)
    fold = n if width is None else width + blocks - 1
    spread = n if width is None else p
    lanes = column0_filter(engine, rows, n, blocks)  # one layout, so one filter for every row sum

    with engine.scope("matmul.row_cycle"):
        shifted = [[a.ct for a in a_chunks]]
        for _ in range(1, blocks):
            shifted.append([engine.rot(ct, -1) for ct in shifted[-1]])
    acc = init if init is not None else engine.enc([])
    for idx in range(p):
        with engine.scope("matmul.row_cycle"):
            prod = None
            for a_cts, b_chunks in zip(shifted, b_blocks):
                for ct_a, ct_bbar in zip(a_cts, b_chunks):
                    term = engine.mul(ct_a, row_shifter(engine, ct_bbar, p, idx).ct)
                    prod = term if prod is None else engine.add(prod, term)
        with engine.scope("matmul.row_sum"):
            sums = sum_col_vec(
                engine, PackedMatrix(prod, work_shape, Encoding.ROW_MAJOR), fold, spread, lanes, blocks
            ).ct
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

