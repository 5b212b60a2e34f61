"""matmul_chunked, the FC product: C input chunks, B neuron blocks
interleaved across the lanes of each row, groups of G iterations sharing
one row fold, and a row cycle in baby and giant steps."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from packedhe.encoding import encode_revolver, encode_row_major
from packedhe.engine import LayoutError, next_pow2
from packedhe.matmul import FcFold, FcTiles, encode_fc_tiles, matmul, matmul_chunked
from packedhe.oracle import oracle_matmul

from conftest import make_engine, rand_int_matrix


@st.composite
def mismatches(draw):
    """A plan of B blocks of p over C chunks in rows x n, and one way for
    the inputs to disagree with its count."""
    n = 1 << draw(st.integers(1, 4))
    blocks = 1 << draw(st.integers(0, n.bit_length() - 1))
    p = 1 << draw(st.integers(0, (n // blocks).bit_length() - 1))
    rows = p << draw(st.integers(0 if p * n > 1 else 1, 2))
    chunks = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["inputs", "empty"]))
    return blocks, chunks, p, rows, n, kind


@settings(max_examples=25, deadline=None)
@given(case=mismatches())
def test_matmul_chunked_rejects_mismatched_chunks(case):
    """The inputs are bare ciphertexts, so all they can disagree on with
    the plan is their count, C.  The layer's B x C tile grid is built from
    the plan by the encoder and the loader, and is not checked again."""
    blocks, chunks, p, rows, n, kind = case
    eng = make_engine(rows * n)
    fold = FcFold.derive(1, blocks, p, rows, n, chunks)
    ct = eng.enc([])
    inputs = [ct] * (chunks + 1) if kind == "inputs" else []
    fc = FcTiles([[ct] * chunks for _ in range(blocks)], ct, fold)
    with pytest.raises(LayoutError, match=f"^the FC plan takes {chunks} inputs, .*: got {len(inputs)} inputs$"):
        matmul_chunked(eng, inputs, fc)


def encode_layer(eng, b_mats, fold: FcFold, init=None) -> FcTiles:
    """The layer whose chunk c meets ``b_mats[c]`` (w x B*p, input lane by
    output) in lanes 0..w-1, encoded by ``encode_fc_tiles`` and seeded with
    ``init``, a zero bias if omitted."""
    weight = np.vstack(b_mats).T
    inputs = np.divmod(np.arange(weight.shape[1]), fold.width)
    fc = encode_fc_tiles(eng, weight, np.zeros(len(weight)), fold, inputs)
    return fc if init is None else replace(fc, bias_ct=init)


def fold_layout(blocks: int, p: int, w: int, group: int) -> tuple:
    """(L, F) of a group of G iterations: the tiles' lane offset, B*p when
    G > 1 and B*(p - 1) when G = 1, and the fold window next_pow2(L + w + B - 1)."""
    offset = blocks * p if group > 1 else blocks * (p - 1)
    return offset, next_pow2(offset + w + blocks - 1)


def fold_rotations(blocks: int, p: int, w: int, group: int) -> int:
    """Rotations of a call's folds: log2 G per iteration and log2(F/(B*G))
    per group of G iterations."""
    _, window = fold_layout(blocks, p, w, group)
    steps = (window // (blocks * group)).bit_length() - 1
    return p * (group.bit_length() - 1) + p // group * steps


def grouped_counts(blocks: int, chunks: int, p: int, w: int, group: int, giant: int, rows: int) -> tuple:
    """(rot, mul, cmul) of one FC product over a layout of ``rows`` rows with
    groups of G iterations and giant steps of g: C*(B-1) chained lane shifts
    and C shifts by -L (none when L = 0) once; B*C*g baby row cycles of one
    rotation each (none for s1 = g when g = p = rows, a shift by the whole
    ciphertext), B*C*(p/g - 1) giant shifts of the inputs and p/g - 1
    rotations back; in each of the p iterations B*C multiplies, log2 G fold
    steps at stride B and the phase mask; in each of the p/G groups
    log2(F/(B*G)) fold steps and the result filter."""
    offset, _ = fold_layout(blocks, p, w, group)
    tiles = blocks * chunks
    giants = p // giant - 1
    rot = (
        chunks * (blocks - 1)
        + chunks * (offset > 0)
        + tiles * (giant - (giant == rows))
        + tiles * giants
        + giants
        + fold_rotations(blocks, p, w, group)
    )
    return rot, tiles * p, p + p // group


def fitting_groups(blocks: int, p: int, w: int, n: int) -> list:
    """Every power of two G dividing p whose fold window fits rows n wide."""
    return [g for g in (1 << t for t in range(p.bit_length())) if p % g == 0 and fold_layout(blocks, p, w, g)[1] <= n]


def formula_giant(blocks: int, chunks: int, p: int, w: int, group: int, rows: int) -> int:
    """The multiple g of G dividing p with the fewest rotations by
    ``grouped_counts``, ties going to the smaller g."""
    giants = [g for g in range(group, p + 1, group) if p % g == 0]
    return min(giants, key=lambda g: grouped_counts(blocks, chunks, p, w, group, g, rows)[0])


def formula_plan(blocks: int, chunks: int, p: int, w: int, n: int, rows: int) -> tuple:
    """(G, g): of the groups that fit rows n wide, each at its
    ``formula_giant``, the one with the fewest rotations by
    ``grouped_counts``, ties going to the larger G (the fewer constant
    multiplies); (None, None) when no G fits."""
    plans = [(group, formula_giant(blocks, chunks, p, w, group, rows)) for group in fitting_groups(blocks, p, w, n)]
    return min(
        plans, key=lambda plan: (grouped_counts(blocks, chunks, p, w, *plan, rows)[0], -plan[0]), default=(None, None)
    )


def forced_plan(
    blocks: int, chunks: int, p: int, w: int, rows: int, n: int, group: int, giant: int | None = None
) -> FcFold:
    """The derived plan with the group G forced (its offset follows from G),
    and the giant step ``giant``, by default the one ``formula_giant`` picks
    for G."""
    giant = formula_giant(blocks, chunks, p, w, group, rows) if giant is None else giant
    fold = FcFold.derive(w, blocks, p, rows, n, chunks)
    return replace(fold, group=group, giant=giant)


def test_fc_fold_group_minimises_the_rotation_formula():
    """fc1 (B = 2, C = 3, p = 32, w = 952) and fc2 (B = 2, C = 1, p = 8,
    w = 64) at 32768 slots: G = 8 and g = 8 for fc1, G = 4 and g = 4 for
    fc2; fc2 in one block of p = 16 takes G = 4 and g = 4 too, whose g = 4
    and g = 8 tie at 10 row-cycle rotations.  fc1's G = 4 ties with G = 8
    at 195 rotations and takes the fewer constant multiplies.  The plain
    row cycle (g = p) would cost 312, 42 and 69: fc1's p = 32 is its row
    count, so its 6 baby tiles at s1 = 32 need no rotation."""
    for (blocks, chunks, p, w), group, giant, rot, plain in (
        ((2, 3, 32, 952), 8, 8, 195, 312),
        ((2, 1, 8, 64), 4, 4, 37, 42),
        ((1, 1, 16, 64), 4, 4, 63, 69),
    ):
        fold = FcFold.derive(w, blocks, p, 32, 1024, chunks)
        assert (fold.blocks, fold.chunks, fold.p, fold.width, fold.rows, fold.lanes) == (blocks, chunks, p, w, 32, 1024)
        assert (fold.group, fold.giant) == formula_plan(blocks, chunks, p, w, 1024, 32) == (group, giant)
        assert fold.offset == fold_layout(blocks, p, w, group)[0] == blocks * p
        assert grouped_counts(blocks, chunks, p, w, group, giant, 32)[0] == fold.rotations == rot
        assert grouped_counts(blocks, chunks, p, w, group, p, 32)[0] == plain
    assert grouped_counts(1, 1, 16, 64, 4, 8, 32)[0] == 63
    assert grouped_counts(2, 3, 32, 952, 4, 8, 32) == (195, 192, 40)


@st.composite
def fc_shapes(draw):
    """(m, n, p, w, slots): one-block FC products whose m x n layout fills
    the ciphertext, with p a power of two dividing m, p <= n, and an input
    width w that fits beside the p outputs (w + p - 1 <= n)."""
    n = 1 << draw(st.integers(0, 5))
    m = 1 << draw(st.integers(0 if n > 1 else 1, 3))
    p = 1 << draw(st.integers(0, min(m, n).bit_length() - 1))
    w = draw(st.integers(1, n - p + 1))
    return m, n, p, w, m * n


@settings(max_examples=40, deadline=None)
@given(shape=fc_shapes(), chunks=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_fc_row_sum_folds_over_width_and_p(shape, chunks, seed):
    m, n, p, w, slots = shape
    rng = np.random.default_rng(seed)
    # A holds junk past w; the weights cover only the w inputs.
    a_mats = [rand_int_matrix(rng, m, n) for _ in range(chunks)]
    b_mats = [rand_int_matrix(rng, w, p) for _ in range(chunks)]
    fold = FcFold.derive(w, 1, p, m, n, chunks)
    eng = make_engine(slots)
    a_cts = [eng.enc(a.reshape(-1)) for a in a_mats]
    fc = encode_layer(eng, b_mats, fold)
    spent = {}
    with eng.scope("call", spent):
        out = matmul_chunked(eng, a_cts, fc)
    call = spent["call"]

    want = np.zeros(slots)
    block = sum(a[:, :w] @ b for a, b in zip(a_mats, b_mats))
    for i in range(m):
        want[i * n : i * n + p] = block[i]
    np.testing.assert_array_equal(eng.dec(out), want)

    # log2 G fold steps per iteration and log2(F/G) per group, at the
    # (G, g) the formula picks; the call opens no scopes of its own.
    assert (fold.group, fold.giant) == formula_plan(1, chunks, p, w, n, m)
    assert eng.scopes == {}
    assert (call.rot_count, call.mul_count, call.cmul_count) == grouped_counts(1, chunks, p, w, fold.group, fold.giant, m)
    assert call.max_depth == 3

    # matmul on the same weights keeps the paper's 2*log2(n) row sum.
    padded = np.zeros((n, p))
    padded[:w] = b_mats[0]
    ref = make_engine(slots)
    ref_out = matmul(ref, encode_row_major(ref, a_mats[0]), encode_revolver(ref, padded, target_m=m))
    assert ref.scopes["matmul.row_sum"].rot_count == p * 2 * (n.bit_length() - 1)
    np.testing.assert_array_equal(ref_out.decode(ref)[:m, :p], oracle_matmul(a_mats[0], padded))


def test_fc_row_sum_rejects_widths_outside_the_row():
    eng = make_engine(32)
    a = eng.enc(np.ones(32))
    fold = FcFold.derive(5, 1, 4, 4, 8, 1)
    assert (fold.group, fold.offset) == (1, 3)  # L = 3: 3 + 5 lanes fill the row
    fc = encode_layer(eng, [np.ones((5, 4))], fold)
    for width in (0, 6, 9):  # widths no fold fits, or whose tiles would leave the row
        with pytest.raises(LayoutError, match="neuron blocks .* w \\+ B - 1"):
            FcFold.derive(width, 1, 4, 4, 8, 1)
    # a plan whose fold window leaves the row (in rows of 8 lanes, or of 4,
    # or with two blocks), or whose C the inputs do not have
    for plan in (
        replace(fold, width=6),
        replace(fold, rows=8, lanes=4),
        replace(fold, blocks=2),
        replace(fold, chunks=2),
    ):
        with pytest.raises(LayoutError, match=f"^the FC plan takes .* {plan.rows} rows of {plan.lanes} lanes in 32 slots"):
            matmul_chunked(eng, [a], replace(fc, fold=plan))


@pytest.mark.parametrize(
    "rows, chunk, lane, biases",
    [
        (5, [0] * 5, range(5), 5),
        (4, [0] * 4, range(4), 4),
        (4, [0] * 5, range(1, 6), 4),
        (4, [0, 0, 0, 0, 1], range(5), 4),
        (2, [0] * 5, [0, 0, 1, 2, 3], 2),
        (2, [0] * 5, range(5), 3),
        (2, [0] * 5, range(5), 1),
        (2, [0] * 5, range(4), 2),
    ],
    ids=[
        "too-many-rows", "short-lane-map", "lane-past-w", "chunk-past-c",
        "repeated-entry", "long-bias", "short-bias", "uneven-lane-map",
    ],
)
def test_encode_fc_tiles_rejects_a_layer_outside_the_plan(rows, chunk, lane, biases):
    """The plan (B*p = 4 outputs over C = 1 chunk of w = 5 lanes) takes a
    weight of at most 4 rows with one bias per row and one column per
    mapped input, and every input at its own place inside the plan's chunks
    and lanes, or the tiles would place weights where the product does not
    read them, keep one of two columns mapped to one lane, or pad or
    broadcast a bias of the wrong length; a chunk map and a lane map of
    different lengths are refused with the same error."""
    fold = FcFold.derive(5, 1, 4, 4, 8, 1)
    chunk, lane = np.array(chunk), np.array(lane)
    with pytest.raises(
        LayoutError,
        match=rf"^FC weight is {rows}x5 with {biases} biases and a lane map of {len(chunk)} chunk and {len(lane)} "
        r"lane entries; the plan takes at most 4 rows, one bias per row, one column per map entry and distinct "
        r"entries in 1 chunks of 5 lanes$",
    ):
        encode_fc_tiles(make_engine(32), np.ones((rows, 5)), np.zeros(biases), fold, (chunk, lane))


@pytest.mark.parametrize("blocks", [1, 2, 8, 64])
def test_encode_fc_tiles_places_each_weight_by_the_lane_rule(blocks):
    """Tile by tile, against the per-lane layout rule as a loop: tile (d, c)
    holds in row r, at lane L + l + d for l < w, the weight of output
    B*(r mod p) + (l + d) mod B for the input mapped to lane l of chunk c,
    zero where no input is mapped or the output is past the weight's rows;
    the bias seed holds bias q at lane q of every row.  The lane map is
    scattered over two chunks and leaves lanes unmapped, as fc1's does."""
    rng = np.random.default_rng(blocks)
    p, rows, n, w, chunks = 2, 4, 256, 20, 2
    fold = FcFold.derive(w, blocks, p, rows, n, chunks)
    out_dim = blocks * p - 1
    places = rng.permutation(chunks * w)[: chunks * w - 7]
    chunk, lane = np.divmod(places, w)
    weight = rand_int_matrix(rng, out_dim, len(places))
    bias = rand_int_matrix(rng, 1, out_dim)[0]
    eng = make_engine(rows * n)
    fc = encode_fc_tiles(eng, weight, bias, fold, (chunk, lane))
    assert (len(fc.tiles), {len(diagonal) for diagonal in fc.tiles}, fc.fold) == (blocks, {chunks}, fold)
    column = {(c, l): i for i, (c, l) in enumerate(zip(chunk, lane))}
    for d, diagonal in enumerate(fc.tiles):
        for c, tile in enumerate(diagonal):
            grid = np.zeros((rows, n))
            for r in range(rows):
                for l in range(w):
                    q = blocks * (r % p) + (l + d) % blocks
                    if (c, l) in column and q < out_dim:
                        grid[r, fold.offset + l + d] = weight[q, column[c, l]]
            assert eng.dec(tile).tobytes() == eng.enc(grid.reshape(-1)).slots.tobytes()
    seed = np.zeros((rows, n))
    seed[:, :out_dim] = bias
    assert eng.dec(fc.bias_ct).tobytes() == seed.tobytes()


@st.composite
def fused_shapes(draw):
    """(m, B, C, n, p, w, slots): B interleaved neuron blocks of C chunks
    each, B and p powers of two with B*p <= n, over rows = max(m, p), a
    multiple of p, whose layout fills the ciphertext.  B*p + w - 1 = n (the
    widest w that fits), wider w that no group fits, p = 1 and B > m all
    occur."""
    n = 1 << draw(st.integers(0, 5))
    blocks = 1 << draw(st.integers(0, n.bit_length() - 1))
    p = 1 << draw(st.integers(0, (n // blocks).bit_length() - 1))
    widest = n - blocks * p + 1
    w = draw(st.one_of(st.just(widest), st.integers(1, widest), st.integers(1, n - blocks + 1)))
    rows = p << draw(st.integers(0 if p * n > 1 else 1, 2))
    m = rows if rows > p else draw(st.integers(1, p))
    chunks = draw(st.integers(1, 3))
    return m, blocks, chunks, n, p, w, rows * n


@settings(max_examples=40, deadline=None)
@given(shape=fused_shapes(), seed=st.integers(0, 2**32 - 1))
@example(shape=(4, 2, 2, 16, 4, 9, 64), seed=1)  # B*p + w - 1 = n
@example(shape=(2, 4, 1, 4, 1, 1, 8), seed=2)  # p = 1, B > m, L = 0
@example(shape=(2, 8, 2, 8, 1, 1, 16), seed=3)  # B > m and B*p = n
@example(shape=(8, 2, 2, 32, 8, 10, 256), seed=5)  # every G of 1..8 fits
@example(shape=(4, 2, 2, 8, 4, 5, 32), seed=6)  # w + B - 1 fits the row, but not beside the outputs
def test_fused_blocks_match_numpy_and_cost_formula(shape, seed):
    """Every G dividing p whose window fits: exact against numpy, and the
    rotation, multiply and depth counts of the formula.  The derived
    (G, g) is the formula's minimiser, and a shape no G fits is rejected."""
    m, blocks, chunks, n, p, w, slots = shape
    rows = max(m, p)
    rng = np.random.default_rng(seed)
    # A holds junk past w; the weights cover only the w inputs.
    a_mats = [rand_int_matrix(rng, m, n) for _ in range(chunks)]
    b_mats = [rand_int_matrix(rng, w, blocks * p) for _ in range(chunks)]
    seed_grid = np.zeros((rows, n))
    seed_grid[:m, : blocks * p] = rand_int_matrix(rng, m, blocks * p)
    want = seed_grid.copy()
    want[:m, : blocks * p] += sum(a[:, :w] @ b for a, b in zip(a_mats, b_mats))
    expected = np.zeros(slots)
    expected[: want.size] = want.reshape(-1)

    groups = fitting_groups(blocks, p, w, n)
    if not groups:
        with pytest.raises(LayoutError, match="neuron blocks .* w \\+ B - 1"):
            FcFold.derive(w, blocks, p, rows, n, chunks)
        return
    derived = FcFold.derive(w, blocks, p, rows, n, chunks)
    assert (derived.group, derived.giant) == formula_plan(blocks, chunks, p, w, n, rows)
    for group in groups:
        eng = make_engine(slots)
        fold = forced_plan(blocks, chunks, p, w, rows, n, group)
        a_cts = [eng.enc(a.reshape(-1)) for a in a_mats]
        fc = encode_layer(eng, b_mats, fold, eng.enc(seed_grid.reshape(-1)))
        if blocks == 1:  # one block is the revolver encoding of B placed at lanes L..L+w-1
            for tile, b in zip(fc.tiles[0], b_mats):
                placed = np.zeros((n, p))
                placed[fold.offset : fold.offset + w] = b
                revolver = encode_revolver(eng, placed, rows)
                assert eng.dec(tile).tobytes() == eng.dec(revolver.ct).tobytes()
        spent = {}
        with eng.scope("call", spent):
            out = matmul_chunked(eng, a_cts, fc)
        call = spent["call"]

        np.testing.assert_array_equal(eng.dec(out), expected)
        counts = (call.rot_count, call.mul_count, call.cmul_count)
        assert counts == grouped_counts(blocks, chunks, p, w, group, fold.giant, rows)
        assert (call.rot_count, call.cmul_count) == (fold.rotations, fold.cmuls)
        assert call.max_depth == 3
        assert eng.scopes == {}


@pytest.mark.parametrize(
    "blocks, n, p, width",
    [(3, 8, 4, 2), (3, 16, 5, 4), (2, 8, 2, 8)],
    ids=["blocks-wider-than-row", "non-pow2-p", "full-row"],
)
def test_fused_blocks_reject_layouts_that_smear(blocks, n, p, width):
    """B*p > n would wrap blocks into the next row, and with
    B*(p - 1) + w + B - 1 > n the tiles, shifted past the p output groups,
    would leave the row: no plan is derived, and a layer in a plan made by
    hand is refused, its fold window leaving the row."""
    with pytest.raises(LayoutError, match="neuron blocks .* w \\+ B - 1"):
        FcFold.derive(width, blocks, p, 8, n, 1)
    eng = make_engine(8 * n)
    ct = eng.enc(np.ones(8 * n))
    fold = FcFold(blocks, p, width, 1, 8, n, 1, p)
    assert fold.window > n
    with pytest.raises(LayoutError, match=f"^the FC plan takes 1 inputs, .* a fold window of {fold.window} lanes: "):
        matmul_chunked(eng, [ct], FcTiles([[ct]] * blocks, ct, fold))


def run_fc(slots, a_mats, b_mats, fold, init_grid=None):
    """Encode and run one FC product in the plan ``fold``, seeded with
    ``init_grid`` (zero if omitted); returns the engine, the decoded output
    and the call's meter."""
    eng = make_engine(slots)
    a_cts = [eng.enc(a.reshape(-1)) for a in a_mats]
    fc = encode_layer(eng, b_mats, fold, None if init_grid is None else eng.enc(init_grid.reshape(-1)))
    spent = {}
    with eng.scope("call", spent):
        out = matmul_chunked(eng, a_cts, fc)
    return eng, eng.dec(out), spent["call"]


@st.composite
def closing_shapes(draw):
    """(m, B, C, n, p, w, G, g): a row cycle that closes on one rotation
    (rows = max(m, p) a multiple of p and rows * n the slot count), p >= 2,
    a fold group G < p that fits and a giant step g, a multiple of G
    dividing p, below p, so there are p/g > 1 giant steps."""
    n = 1 << draw(st.integers(1, 5))
    blocks = 1 << draw(st.integers(0, n.bit_length() - 2))
    p = 1 << draw(st.integers(1, (n // blocks).bit_length() - 1))
    w = draw(st.integers(1, n - blocks * p + 1))
    groups = [g for g in fitting_groups(blocks, p, w, n) if g < p]
    assume(groups)
    group = draw(st.sampled_from(groups))
    giant = draw(st.sampled_from([g for g in range(group, p, group) if p % g == 0]))
    rows = p << draw(st.integers(0, 2))
    m = rows if rows > p else draw(st.integers(1, p))
    chunks = draw(st.integers(1, 3))
    return m, blocks, chunks, n, p, w, group, giant


@settings(max_examples=40, deadline=None)
@given(shape=closing_shapes(), seed=st.integers(0, 2**32 - 1))
@example(shape=(32, 2, 3, 64, 16, 20, 2, 8), seed=1)  # two giant steps of four groups each
@example(shape=(4, 1, 1, 2, 2, 1, 1, 1), seed=2)  # g = 1: every step but the first is giant
def test_giant_steps_match_numpy_and_the_plain_row_cycle(shape, seed):
    """With p/g > 1 giant steps the product is exact against numpy on
    integer operands, bitwise equal to the plain row cycle (g = p) on
    float ones, costs the formula in (B, C, p, G, g), and rotates by no
    offset that is 0 mod slots."""
    m, blocks, chunks, n, p, w, group, giant = shape
    rows = max(m, p)
    slots = rows * n
    rng = np.random.default_rng(seed)
    a_mats = [rand_int_matrix(rng, m, n) for _ in range(chunks)]
    b_mats = [rand_int_matrix(rng, w, blocks * p) for _ in range(chunks)]
    init_grid = np.zeros((rows, n))
    init_grid[:m, : blocks * p] = rand_int_matrix(rng, m, blocks * p)
    fold = forced_plan(blocks, chunks, p, w, rows, n, group, giant)
    eng, got, call = run_fc(slots, a_mats, b_mats, fold, init_grid)
    want = init_grid.copy()
    want[:m, : blocks * p] += sum(a[:, :w] @ b for a, b in zip(a_mats, b_mats))
    np.testing.assert_array_equal(got, want.reshape(-1))
    assert (call.rot_count, call.mul_count, call.cmul_count) == grouped_counts(blocks, chunks, p, w, group, giant, rows)
    assert call.max_depth == 3
    assert 0 not in call.rot_offsets

    a_mats = [rng.standard_normal((m, n)) for _ in range(chunks)]
    b_mats = [rng.standard_normal((w, blocks * p)) for _ in range(chunks)]
    _, stepped, _ = run_fc(slots, a_mats, b_mats, fold)
    _, plain, _ = run_fc(slots, a_mats, b_mats, replace(fold, giant=p))
    assert stepped.tobytes() == plain.tobytes()


@pytest.mark.parametrize(
    "m, blocks, chunks, n, p, w",
    [(8, 1, 1, 16, 8, 5), (8, 2, 2, 32, 8, 9), (16, 1, 2, 16, 16, 1)],
)
def test_fc_product_rejects_a_row_cycle_that_does_not_close(m, blocks, chunks, n, p, w):
    """The FC product cycles its rows with one rotation, which needs the
    plan's rows to fill the ciphertext with p dividing them.  A plan with
    slack slots, or with rows that p does not divide, raises one error that
    names the rows, the lanes and the slots, where the paper's ``matmul``
    would take its masked two-rotation path."""
    rng = np.random.default_rng(7)
    a_mats = [rand_int_matrix(rng, m, n) for _ in range(chunks)]
    b_mats = [rand_int_matrix(rng, w, blocks * p) for _ in range(chunks)]
    fold = FcFold.derive(w, blocks, p, m, n, chunks)
    _, got, call = run_fc(m * n, a_mats, b_mats, fold)
    np.testing.assert_array_equal(got.reshape(-1, n)[:, : blocks * p], sum(a[:, :w] @ b for a, b in zip(a_mats, b_mats)))
    assert call.max_depth == 3
    for plan, slots in ((fold, 2 * m * n), (replace(fold, rows=m // 2, lanes=2 * n), m * n)):
        with pytest.raises(LayoutError, match=f"p={p} dividing its {plan.rows} rows of {plan.lanes} lanes in {slots} slots"):
            run_fc(slots, a_mats, b_mats, plan)
