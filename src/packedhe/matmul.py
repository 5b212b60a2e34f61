"""Single-ciphertext homomorphic matrix multiplication.

:func:`matmul` is the paper's revolver product: C = A * B is accumulated
over p iterations.  The right operand is packed in the revolver layout
(row r = column r mod p of B); iteration idx cycles that layout up by
idx+1 rows, multiplies slot-wise with A, collapses each row to its sum,
and a one-hot-per-row filter keeps exactly the result entry that
iteration produced.  Rotation/mask costs per iteration are constant, and
so is the multiplicative depth.  Its shape is read from its operands (m
and n from A, p from the revolver operand), and :func:`cycle_closes`
says when one rotation cycles the rows.

:func:`matmul_chunked` is the FC product, laid out by one plan per layer
(:class:`FcFold`: blocks B, width w, chunks C, rows x lanes, group G,
offset L and giant step g, derived once).  Its weights are zero past the
input width w, so it adds the products of C input chunks in each
iteration, interleaves B neuron blocks across the spare lanes of each row
and lets a group of iterations share one row fold: each iteration folds
part way and keeps one phase class of lanes, and the group pays one fold
to the output lanes and one result filter.  Its row cycle takes baby and giant steps:
with s = idx + 1 = g*s2 + s1, the B*C weight tiles are rotated once per
baby step s1 in 1..g, the inputs once per giant step s2, and each giant
step's sum is rotated back once, so an FC call pays
B*C*g + (B*C + 1)*(p/g - 1) row-cycle rotations rather than B*C*p (g = 8
for FC-1 and 4 for FC-2 at 32768 slots, chosen with G by the call's
rotations, :attr:`FcFold.rotations`), B*C fewer when g = p = rows,
where the baby step by g rows is no rotation at all.  Its operands are
bare ciphertexts: the plan holds their geometry, ``rows`` x ``lanes``,
which must fill the ciphertext with p dividing the rows, so each baby
step is one rotation.  It opens no scopes; its caller's scope is charged.
A layer is one value, :class:`FcTiles` (the B x C tile grid, the bias
seed and the plan), which :func:`encode_fc_tiles` builds from a weight
matrix and the (chunk, lane) of each input, and :func:`matmul_chunked`
takes whole.
"""

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .encoding import MatrixShape, PackedMatrix, column0_filter, sum_col_vec, tile_blocks
from .engine import Ciphertext, EngineError, LayoutError, PlainMask, SlotEngine

__all__ = [
    "FcFold",
    "FcTiles",
    "cycle_closes",
    "row_shifter",
    "build_result_filter",
    "encode_fc_tiles",
    "matmul",
    "matmul_chunked",
]

def cycle_closes(engine: SlotEngine, rows: int, n: int, p: int) -> bool:
    """Single-rotation row cycling is exact: rows is a multiple of p and the
    rows x n layout fills the ciphertext."""
    return rows % p == 0 and rows * n == engine.slots


def _row_band_mask(engine: SlotEngine, n: int, r0: int, r1: int) -> PlainMask:
    """0/1 filter keeping rows r0..r1-1 of a layout n wide: one slot range."""
    keep = np.zeros(engine.slots, dtype=bool)
    keep[r0 * n : r1 * n] = True
    return engine.mask(keep)


def row_shifter(engine: SlotEngine, bbar: PackedMatrix, idx: int) -> PackedMatrix:
    """Cycle the revolver layout up by idx+1 rows, for p = ``bbar.revolve_p``.

    Always applied to the originally encoded operand, so depth stays constant over
    the iteration loop.  Fast path: one rotation by n*(idx+1) (valid when
    the cycle closes, see :func:`cycle_closes`).  General path: one left
    rotation brings rows shift..m-1 into place, one right rotation by
    (p-shift) rows refills the freed bottom rows with the columns that
    wrapped around, each side isolated by a 0/1 row-band filter (a
    contiguous slot range, filled directly).
    """
    p = bbar.revolve_p
    if p is None:
        raise LayoutError("row_shifter needs a revolver-encoded operand")
    if not 0 <= idx < p:
        raise EngineError(f"idx must be in [0, {p}), got {idx}")
    rows, n = bbar.shape.m, bbar.shape.n
    if rows < p:
        raise LayoutError(f"revolver layout has {rows} rows but needs at least p={p}")
    shift = idx + 1
    if cycle_closes(engine, rows, n, p):
        out = engine.rot(bbar.ct, n * shift)
    else:
        top = engine.cmul(
            _row_band_mask(engine, n, 0, rows - shift),
            engine.rot(bbar.ct, n * shift),
        )
        bottom = engine.cmul(
            _row_band_mask(engine, n, rows - shift, rows),
            engine.rot(bbar.ct, n * (shift - p)),
        )
        out = engine.add(top, bottom)
    return PackedMatrix(out, bbar.shape, p)


def _result_patterns(
    slots: int, m: int, n: int, p: int, starts: np.ndarray, blocks: int = 1, group: int = 1
) -> np.ndarray:
    """The boolean slot patterns of the result filters for idx = ``starts[s]``,
    one row each, built in one numpy pass (see :func:`build_result_filter`)."""
    rows = np.arange(m)[:, None, None]
    groups = (rows + starts[:, None, None, None] + np.arange(group)[:, None]) % p
    keep = np.zeros((starts.size, slots), dtype=bool)
    keep[np.arange(starts.size)[:, None, None, None], rows * n + blocks * groups + np.arange(blocks)] = True
    return keep


def build_result_filter(
    engine: SlotEngine, m: int, n: int, p: int, idx: int, blocks: int = 1, group: int = 1
) -> PlainMask:
    """One-hot row filter: row i keeps column (i + idx) mod p.

    With ``blocks`` interleaved neuron blocks (output q at lane q, q = B*t + j
    for group t < p and block j < B), row i keeps lanes B*((i + idx) mod p) + j
    for every j < B; blocks * p <= n.  With a ``group`` of G iterations
    idx, idx + 1, ..., idx + G - 1 sharing one filter, row i keeps lanes
    B*((i + idx + k) mod p) + j for every k < G.
    """
    if not 0 <= idx < p:
        raise EngineError(f"idx must be in [0, {p}), got {idx}")
    if not 1 <= blocks <= n // p:
        raise LayoutError(f"{blocks} blocks of {p} columns do not fit rows {n} wide")
    if not 1 <= group <= p:
        raise EngineError(f"group must be in [1, {p}], got {group}")
    (keep,) = _result_patterns(engine.slots, m, n, p, np.array([idx]), blocks, group)
    return engine.mask(keep)


@dataclass(frozen=True)
class FcFold:
    """The plan of one FC layer: the lane layout and loop shape of its
    :func:`matmul_chunked` product, derived once per layer.

    B = ``blocks`` interleaved neuron blocks of ``p`` groups over C =
    ``chunks`` input chunks of inner ``width`` w, in ciphertexts of
    ``rows`` rows ``lanes`` wide (row i at slots [i*lanes, (i+1)*lanes)).
    The weight tiles start at lane :attr:`offset` L of each row, so an
    iteration's products fill lanes [L, L + w + B - 1).  ``group`` G
    iterations, a power of two dividing p, share one fold.  The row cycle's
    ``giant`` step g is a multiple of G dividing p, so a group never
    straddles two giant steps.
    """

    blocks: int
    p: int
    width: int
    chunks: int
    rows: int
    lanes: int
    group: int
    giant: int

    @classmethod
    def derive(cls, width: int, blocks: int, p: int, rows: int, lanes: int, chunks: int) -> "FcFold":
        """The plan for ``rows`` rows ``lanes`` wide, which the encoder and
        the evaluator share: of the groups G whose fold window fits the row
        and the multiples g of G dividing p, the (G, g) with the fewest
        rotations (:attr:`rotations`), ties going to the fewer constant
        multiplies (the larger G) and then to the smaller g.  LayoutError
        if no group fits."""
        folds = [
            cls(blocks, p, width, chunks, rows, lanes, 1 << t, p)
            for t in range((p & -p).bit_length())
        ]
        fits = [fold for fold in folds if width >= 1 and fold.window <= lanes]
        if not fits:
            raise LayoutError(
                f"{blocks} interleaved neuron blocks of p={p} over inner width {width} do not fit "
                f"rows {lanes} wide: the tiles need w + B - 1 = {width + blocks - 1} lanes after an "
                f"offset of at least B*(p - 1) = {blocks * (p - 1)}"
            )
        plans = [replace(fold, giant=g) for fold in fits for g in range(fold.group, p + 1, fold.group) if p % g == 0]
        return min(plans, key=lambda plan: (plan.rotations, plan.cmuls, plan.giant))

    @property
    def offset(self) -> int:
        """L: B*p when G > 1 and B*(p - 1) when G = 1, so every output lane
        B*t + j lies at or below the first lane its iteration keeps."""
        return self.blocks * (self.p - (self.group == 1))

    @property
    def span(self) -> int:
        """L + w + B - 1: the lanes of a row an iteration's products reach."""
        return self.offset + self.width + self.blocks - 1

    @property
    def steps(self) -> int:
        """Fold steps at stride B*G per group, ceil(log2 ceil(span / (B*G)))."""
        return (-(-self.span // (self.blocks * self.group)) - 1).bit_length()

    @property
    def window(self) -> int:
        """The lanes the group fold sums into each output lane, B*G*2**steps."""
        return (self.blocks * self.group) << self.steps

    @property
    def fold_rotations(self) -> int:
        """Rotations of one call's folds: log2 G per iteration plus
        ``steps`` per group."""
        return self.p * (self.group.bit_length() - 1) + self.p // self.group * self.steps

    @property
    def rotations(self) -> int:
        """Rotations of one :func:`matmul_chunked` call in this plan: the
        lane shifts, B*C*(g - [g = rows]) baby and B*C*(p/g - 1) giant
        shifts, p/g - 1 rotations back and the folds."""
        tiles = self.blocks * self.chunks
        giants = self.p // self.giant - 1
        return (
            self.chunks * (self.blocks - 1 + (self.offset > 0))
            + tiles * (self.giant - (self.giant == self.rows))
            + (tiles + 1) * giants
            + self.fold_rotations
        )

    @property
    def cmuls(self) -> int:
        """Constant multiplies of one call: a phase mask per iteration and
        a result filter per group, p + p/G."""
        return self.p + self.p // self.group

    def phase_masks(self, engine: SlotEngine) -> list[PlainMask]:
        """Mask e (for iterations idx = e mod G) keeps, in row i, the lanes
        x in [B*(p - G), span) with x = B*((i + e + 1) mod G) + j mod B*G,
        j < B."""
        lane = np.arange(self.lanes)
        row = np.arange(self.rows)[:, None]
        phase = np.arange(self.group)[:, None, None]
        keep = (
            (lane >= self.blocks * (self.p - self.group))
            & (lane < self.span)
            & ((lane // self.blocks) % self.group == (row + phase + 1) % self.group)
        )
        return [engine.mask(pattern.reshape(-1)) for pattern in keep]


@dataclass(frozen=True, eq=False)
class FcTiles:
    """One FC layer in encoded form, the operand of :func:`matmul_chunked`.

    ``tiles`` holds ciphertexts indexed [diagonal][input_chunk], one
    diagonal per interleaved neuron block; ``bias_ct`` is the layer's one
    bias seed, every bias already at its output lane.  ``fold`` is the
    layer's plan, which the tiles were encoded with; it alone gives the
    ciphertexts their rows x lanes geometry and the grid its B x C shape.
    """

    tiles: list
    bias_ct: Ciphertext
    fold: FcFold


def encode_fc_tiles(engine: SlotEngine, weight, bias, fold: FcFold, inputs) -> FcTiles:
    """Encode an FC layer's weight matrix and bias in the plan ``fold``:
    weight column i meets lane ``lane[i]`` of input chunk ``chunk[i]``,
    (chunk, lane) = ``inputs``; lanes no column meets get zero weights.

    Output q = B*t + j (group t < p, block j < B) is to land at lane q.
    Tile (d, c), the d-th "diagonal" of chunk c, is a ciphertext of the
    plan's rows x lanes that holds in row r, at lane L + l + d for l < w,
    the weight of output B*(r mod p) + (l + d) mod B for the input at lane
    l of chunk c, and zero everywhere else; the input the tile meets is
    shifted right by L + d lanes.  The bias seed holds bias q at lane q of
    every row: the product's accumulator seed.  LayoutError unless the
    weight has at most B*p rows, the bias one entry per weight row and the
    weight one column per mapped input, and the map's (chunk, lane) entries
    are distinct and lie in the plan's C chunks of w lanes: two columns
    mapped to one lane would meet one input, and the tiles hold one of them.
    """
    weight = np.atleast_2d(np.asarray(weight, dtype=np.float64))
    bias = np.asarray(bias, dtype=np.float64)
    chunk, lane = (np.asarray(a) for a in inputs)
    out_dim, in_dim = weight.shape
    blocks, p, w = fold.blocks, fold.p, fold.width
    inside = len(chunk) == len(lane) == in_dim and ((0 <= chunk) & (chunk < fold.chunks) & (0 <= lane) & (lane < w)).all()
    distinct = inside and np.bincount(chunk * w + lane, minlength=1).max() <= 1
    if not (out_dim <= blocks * p and bias.shape == (out_dim,) and distinct):
        raise LayoutError(
            f"FC weight is {out_dim}x{in_dim} with {bias.size} biases and a lane map of {len(chunk)} chunk and "
            f"{len(lane)} lane entries; the plan takes at most {blocks * p} rows, one bias per row, one column per "
            f"map entry and distinct entries in {fold.chunks} chunks of {w} lanes"
        )
    # padded[c] is chunk c's w x (B*p) weight block, input lane by output
    padded = np.zeros((fold.chunks, w, blocks * p))
    padded[chunk, lane, :out_dim] = weight.T
    inner = np.arange(w)
    groups = np.arange(fold.rows)[:, None] % p

    def tile(block, d):
        grid = np.zeros((fold.rows, fold.lanes))
        grid[:, fold.offset + inner + d] = block[inner, blocks * groups + (inner + d) % blocks]
        return engine.enc(grid.reshape(-1))

    tiles = [[tile(block, d) for block in padded] for d in range(blocks)]
    return FcTiles(tiles, engine.enc(tile_blocks(bias, fold.rows, fold.lanes)), fold)


def _plan_product(engine: SlotEngine, ct_a: PackedMatrix, ct_bbar: PackedMatrix) -> int:
    """Check one (A, revolver B) operand pair; return the working layout's
    rows, max(m, p).

    With fewer rows than output columns the revolver layout could not
    carry every column of B, so the left operand is treated as zero-padded
    to max(m, p) rows (free: its trailing slots are already zero).
    """
    if ct_a.revolve_p is not None:
        raise LayoutError("left operand must be row-major encoded")
    p = ct_bbar.revolve_p
    if p is None:
        raise LayoutError("right operand must be revolver encoded")
    m, n = ct_a.shape.m, ct_a.shape.n
    if ct_bbar.shape.n != n:
        raise LayoutError(f"operand widths differ: A is {n} wide, encoded B is {ct_bbar.shape.n}")
    if p < 1:
        raise LayoutError(f"result needs at least one column, got p={p}")
    if p > n:
        raise LayoutError(f"result needs {p} columns but rows are {n} wide; re-encode the operands with row width >= {p}")
    rows = max(m, p)
    if rows * n > engine.slots:
        raise LayoutError(f"{rows}x{n} working layout needs {rows * n} slots, engine has {engine.slots}")
    if ct_bbar.shape.m != rows:
        raise LayoutError(f"revolver operand tiled to {ct_bbar.shape.m} rows; this product needs target_m={rows}")
    return rows


def matmul_chunked(engine: SlotEngine, inputs: Sequence[Ciphertext], fc: FcTiles) -> Ciphertext:
    """FC product: sum over C input chunks c of A_c * W_c, with B neuron
    blocks interleaved across the lanes of each row and groups of
    iterations sharing one row fold, as the layer's plan ``fc.fold`` lays
    them out.

    The operands are bare ciphertexts of the plan's rows x lanes (n =
    lanes); row i of A_c is slots [i*n, (i+1)*n).  The B blocks are stored
    interleaved (:func:`encode_fc_tiles`): output q = B*t + j sits at lane
    q, and ``fc.tiles[d]`` holds diagonal d of every chunk from lane L on,
    which meets A_c shifted right by L + d lanes.  The shifts are made
    once per call: rot(A_c, -L) (skipped when L = 0), then chained
    rotations by -1, C*[L > 0] + C*(B-1) rotations.  The iterations run in
    groups of G (:class:`FcFold`).  Each iteration adds its B*C products
    and folds the sum as soon as it is made: log2 G steps at stride B, so
    lane x holds lanes x, x + B, ..., x + (G-1)*B.  It then adds the lanes
    of its phase class (``phases[k]`` for the k-th iteration of the group)
    into the group's sum.  In every row the G iterations keep distinct
    classes mod B*G, so the group's sum folds once at stride B*G over
    ``fold.steps`` steps, up to the window F; output lane B*t + j of a row
    then holds the sum of its class over the iteration that targets group
    t.  The products are zero outside [L, span) because the tiles are, and
    the window stops before the next row's kept lanes, so nothing crosses
    a row.  Each group then applies one result filter
    (:func:`build_result_filter` with ``blocks`` and ``group``) and
    accumulates once.  Row summation and the result filter are linear, so
    the chunk products of an iteration are added before any fold.

    The row cycle takes baby and giant steps (Halevi-Shoup, CRYPTO 2018).
    Iteration idx shifts by s = idx + 1 = g*s2 + s1 with s1 in 1..g, and
    A (*) rot(B, n*s) = rot(rot(A, -n*g*s2) (*) rot(B, n*s1), n*g*s2).  So
    each giant step s2 > 0 shifts the B*C shifted inputs by -n*g*s2 once
    (B*C*(p/g - 1) rotations) and sums its groups in that rotated frame.
    Each group of the first giant step makes its B*C*G baby tiles
    rot(B, n*s1) (B*C*g rotations in all) and its result filter once and
    runs in every frame: the phase masks hold in a rotated frame because G
    divides g, and the group at ``first`` needs the filter for
    (first + 1 - g*s2) mod p, the first giant step's.  When g = p = rows
    the baby tiles at s1 = g, rot(B, n*rows) = rot(B, slots), are the
    tiles themselves and are not rotated.  Each frame but the first is
    rotated back once at the end (p/g - 1).  The call costs C*(B-1) +
    C*[L > 0] + B*C*(g - [g = rows]) + B*C*(p/g - 1) + (p/g - 1) +
    p*log2 G + (p/G)*log2(F/(B*G)) rotations, B*C*p ct-ct multiplies,
    p + p/G constant multiplies and depth 3.  It opens no scopes.

    Args:
        inputs: the C input chunks A_c.  Lanes past w may hold anything.
        fc: the encoded layer (:func:`encode_fc_tiles`, or the model
            loader, which builds the same B x C grid from the plan): its
            tiles, its bias seed, the accumulator seed added once, and its
            plan (:meth:`FcFold.derive`).

    Returns:
        The ciphertext whose row i holds output q of A_i at lane q, for
        q < B*p; every other slot decodes to zero (plus the bias seed).

    Raises:
        LayoutError, naming the rows, lanes and slots, unless there are C
        inputs, rows * lanes is the slot count, p divides the rows and the
        fold window fits the row: one rotation then cycles the rows.
    """
    fold = fc.fold
    blocks, p, rows, n = fold.blocks, fold.p, fold.rows, fold.lanes
    if not (len(inputs) == fold.chunks and rows * n == engine.slots and rows % p == 0 and fold.window <= n):
        raise LayoutError(
            f"the FC plan takes {fold.chunks} inputs, p={p} dividing its {rows} rows of {n} lanes in "
            f"{engine.slots} slots and a fold window of {fold.window} lanes: got {len(inputs)} inputs"
        )
    phases = fold.phase_masks(engine)

    bases = range(0, p, fold.giant)
    shifted = [engine.rot(ct, -fold.offset) if fold.offset else ct for ct in inputs]
    lefts = list(shifted)  # block-major, as ``flat``
    for _ in range(1, blocks):
        shifted = [engine.rot(ct, -1) for ct in shifted]
        lefts += shifted
    # rot(A, -n*base) * rot(B, n*s1) is rot(A * rot(B, n*(base + s1)), -n*base)
    frame_lefts = [lefts] + [[engine.rot(ct, -n * base) for ct in lefts] for base in bases[1:]]
    flat = [tile for diagonal in fc.tiles for tile in diagonal]
    acc = engine.accumulator(fc.bias_ct)
    frames = [acc] + [engine.accumulator() for _ in bases[1:]]
    for first in range(0, fold.giant, fold.group):
        babies = [[tile if n * s1 == engine.slots else engine.rot(tile, n * s1) for tile in flat]
                  for s1 in range(first + 1, first + fold.group + 1)]
        keep = build_result_filter(engine, rows, n, p, (first + 1) % p, blocks, fold.group)
        for frame_inputs, frame in zip(frame_lefts, frames):
            kept = engine.accumulator()
            for baby_tiles, phase in zip(babies, phases):
                terms = engine.accumulator()
                for ct_a, baby in zip(frame_inputs, baby_tiles):
                    terms.mul(ct_a, baby)
                prod = terms.result()
                for t in range(fold.group.bit_length() - 1):
                    prod = engine.add(prod, engine.rot(prod, blocks << t))
                kept.cmul(phase, prod)
            total = kept.result()
            for t in range(fold.steps):
                total = engine.add(total, engine.rot(total, (blocks * fold.group) << t))
            frame.add(engine.cmul(keep, total))
    for base, frame in zip(bases[1:], frames[1:]):
        acc.add(engine.rot(frame.result(), n * base))
    return acc.result()


def matmul(engine: SlotEngine, ct_a: PackedMatrix, ct_bbar: PackedMatrix) -> PackedMatrix:
    """Homomorphic product of a row-major A with a revolver-encoded B.

    The paper's p-iteration loop: C = sum over idx < p of
    F_idx (*) S(A (*) R_idx(B)), where R_idx cycles the revolver layout up
    by idx + 1 rows (:func:`row_shifter`), S replaces each row by its sum
    (:func:`sum_col_vec`, 2*log2(n) rotations, with one column-0 filter,
    built once, for every iteration) and F_idx keeps, in row i, column
    (i + idx + 1) mod p (the filter of :func:`build_result_filter`).  The
    0/1 patterns of all p result filters are built once per call, in one
    numpy pass before the loop; iteration idx makes its pattern a mask
    through :meth:`SlotEngine.mask`.  Each iteration costs one row cycle,
    one multiply, the row sum, one filter and one add, charged to the
    ``matmul.row_cycle``, ``matmul.row_sum``, ``matmul.result_filter`` and
    ``matmul.accumulate`` scopes.

    Args:
        ct_a: m x n row-major left operand.
        ct_bbar: revolver encoding of the n x p right operand, tiled to
            max(m, p) rows.

    Returns:
        PackedMatrix over the working layout; entry (i, j) of the m x p
        product sits at slot i*n + j and every slot outside that block
        decodes to zero.
    """
    rows = _plan_product(engine, ct_a, ct_bbar)
    p, n = ct_bbar.revolve_p, ct_a.shape.n
    work_shape = MatrixShape(rows, n)
    col0 = column0_filter(engine, rows, n)
    filters = _result_patterns(engine.slots, rows, n, p, np.arange(1, p + 1) % p)
    acc = engine.accumulator(engine.enc([]))
    for idx in range(p):
        with engine.scope("matmul.row_cycle"):
            prod = engine.mul(ct_a.ct, row_shifter(engine, ct_bbar, idx).ct)
        with engine.scope("matmul.row_sum"):
            summed = sum_col_vec(engine, PackedMatrix(prod, work_shape), col0).ct
        with engine.scope("matmul.result_filter"):
            kept = engine.cmul(engine.mask(filters[idx]), summed)
        with engine.scope("matmul.accumulate"):
            acc.add(kept)
    return PackedMatrix(acc.result(), work_shape)
