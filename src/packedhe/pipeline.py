"""End-to-end encrypted CNN inference.

Network: CONV (4 kernels 3x3 over 28x28 inputs) -> degree-3 polynomial
activation -> FC 2704->64 -> activation -> FC 64->10.  How images map
onto a ciphertext is decided in one place, :func:`batch_layout`: a
ciphertext of S slots holds S // 1024 images at a stride of 1024 slots,
32 of them at 32768 slots.  The batch packer, the model encoder and the
file loaders in ``serial`` all take their layout from it.

Layout strategy after the convolution: an operand spread over n
ciphertexts costs n slot-wise products per FC iteration, so fc1's 2704
inputs are packed into three ciphertexts, not four
(:func:`flatten_lanes`).  Maps 0-2 stay where the convolution put them,
each valid 26x26 block filling lanes 28r + x < 726 of its image block,
and the last map is cut into three pieces of 226 features placed in the
lanes from 726 on, by one ``virtual.reform`` call whose 26 rows move in
baby and giant steps of g = 4 rows: 3 baby, 6 giant and 3 piece
rotations, 12 per batch (:func:`flatten`).  The three chunk ciphertexts
are the inner-dimension chunks of the first FC product, whose weight
columns are scattered to the same lanes, preserving the map-major
flatten order.  Each FC layer is stated once, in ``FC_LAYERS``, as its
output count and the (chunk, lane) of each input, and has one plan, a
``matmul.FcFold`` that :func:`fc_blocking` derives once from the layout
and that map (its input width and chunk count are the map's reach).
``matmul.encode_fc_tiles`` encodes the layer from the same map into one
``matmul.FcTiles`` value that holds the plan with the weight tiles and
bias seed, and the evaluator reads the plan from there.  The plan also
holds the layer's row geometry (the layout's m rows of f lanes), so the
FC inputs, tiles and outputs are bare ciphertexts.  FC output neurons
are evaluated in B power-of-two blocks of p, with p dividing the batch
row count, which keeps every product on its single-rotation row-cycling
path; :func:`fc_blocking` picks both layers' p by rotation cost within
the model's ciphertext budget (p = 32 for FC-1 and 8 for FC-2 at 32768
slots).  A layer is one chunked product
(``matmul_chunked``) whose B neuron blocks are interleaved across the
lanes of each row: neuron q = B*t + j of group t lands at lane q.  The
weight tiles are zero past the layer's input width w (952 for FC-1, the
64 FC-1 outputs for FC-2), the p iterations run in groups of G that
share one row fold (G = 8 for FC-1 and 4 for FC-2 at 32768 slots), and
the row cycle takes baby and giant steps of g rows (g = 8 for FC-1 and 4
for FC-2).  ``matmul_chunked`` gives the cost formula
(:attr:`FcFold.rotations`): 195 rotations for FC-1 and 37 for FC-2 at
32768 slots.  A layer has one bias seed, every bias at its output lane,
which is the product's accumulator seed, and its outputs land in lanes
0..B*p-1 of each row.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .encoding import MatrixShape, PackedMatrix, tile_blocks
from .engine import Ciphertext, EngineError, EngineParams, LayoutError, SlotEngine, next_pow2
from .matmul import FcFold, FcTiles, encode_fc_tiles, matmul_chunked
from .virtual import VirtualLayout, batched_conv_layer, reform, tile_kernel_span

__all__ = [
    "IMAGE_SIDE",
    "IMAGE_SLOTS",
    "IMAGES_PER_CT",
    "KERNEL_COUNT",
    "KERNEL_SIZE",
    "MAP_SIDE",
    "MAP_FEATURES",
    "FC1_IN",
    "FC1_CHUNKS",
    "FC1_OUT",
    "FC2_IN",
    "FC2_OUT",
    "PIPELINE_DEPTH",
    "WEIGHT_SHAPES",
    "ModelWeights",
    "EncodedModel",
    "batch_layout",
    "flatten_lanes",
    "FC_LAYERS",
    "flatten",
    "fc_blocking",
    "poly_activation",
    "pack_batch",
    "encode_model",
    "forward_encoded",
    "argmax_decide",
]

IMAGE_SIDE = 28
IMAGE_SLOTS = 1024
IMAGES_PER_CT = EngineParams.slots // IMAGE_SLOTS  # 32
KERNEL_COUNT = 4
KERNEL_SIZE = 3
MAP_SIDE = IMAGE_SIDE - KERNEL_SIZE + 1  # 26
MAP_FEATURES = MAP_SIDE * MAP_SIDE  # 676
FC1_IN = KERNEL_COUNT * MAP_FEATURES  # 2704
# fc1 reads FC1_CHUNKS input chunks (see flatten_lanes): a map's valid
# block ends at lane MAP_BLOCK, and the last map is cut into FC1_CHUNKS
# pieces of FC1_PIECE features placed from that lane on, so fc1 reads
# MAP_BLOCK + FC1_PIECE = 952 lanes of each chunk.
MAP_BLOCK = IMAGE_SIDE * (MAP_SIDE - 1) + MAP_SIDE  # 726
FC1_CHUNKS = KERNEL_COUNT - 1  # 3
FC1_PIECE = -(-MAP_FEATURES // FC1_CHUNKS)  # 226
FC1_OUT = 64
FC2_IN = FC1_OUT
FC2_OUT = 10

# Multiplicative levels on the critical path at the standard layout:
# conv 2 (mul + offset filter), activation 2, flatten 1, fc 3 each
# (mul + phase filter + result filter; the row cycle is rotation-only),
# activation 2.
PIPELINE_DEPTH = 2 + 2 + 1 + 3 + 2 + 3

# The shape of each parameter besides the conv kernels, keyed by its
# ModelWeights field; the activations are cubics, constant term first.
WEIGHT_SHAPES = {
    "fc1_weight": (FC1_OUT, FC1_IN),
    "fc1_bias": (FC1_OUT,),
    "fc2_weight": (FC2_OUT, FC2_IN),
    "fc2_bias": (FC2_OUT,),
    "act1": (4,),
    "act2": (4,),
}


def batch_layout(slots: int) -> VirtualLayout:
    """The batch geometry of a ``slots``-slot ciphertext: slots // IMAGE_SLOTS
    blocks of IMAGE_SLOTS slots, each holding one IMAGE_SIDE x IMAGE_SIDE
    image (IMAGES_PER_CT of them at 32768 slots).

    The only place the geometry is fixed: the owner packs batches in it,
    the provider encodes the model against it, and the loaders reject a
    batch or model that records another.
    """
    if slots < IMAGE_SLOTS:
        raise EngineError(f"{slots} slots cannot hold a {IMAGE_SLOTS}-slot image block")
    return VirtualLayout(slots // IMAGE_SLOTS, IMAGE_SLOTS, IMAGE_SIDE, IMAGE_SIDE)


@dataclass(frozen=True, eq=False)
class ModelWeights:
    """Plaintext model parameters (ingested, not trained here); every field
    but the kernels is array-like in its ``WEIGHT_SHAPES`` shape."""

    conv_kernels: list
    fc1_weight: np.ndarray
    fc1_bias: np.ndarray
    fc2_weight: np.ndarray
    fc2_bias: np.ndarray
    act1: np.ndarray
    act2: np.ndarray

    def validate(self) -> None:
        if len(self.conv_kernels) != KERNEL_COUNT:
            raise EngineError(f"expected {KERNEL_COUNT} kernels, got {len(self.conv_kernels)}")
        for kern in self.conv_kernels:
            if kern.k != KERNEL_SIZE:
                raise EngineError(f"expected {KERNEL_SIZE}x{KERNEL_SIZE} kernels, got k={kern.k}")
        for name, shape in WEIGHT_SHAPES.items():
            if (got := np.shape(getattr(self, name))) != shape:
                raise EngineError(f"{name} must have shape {shape}, got {got}")


@dataclass(frozen=True, eq=False)
class EncodedModel:
    """Model parameters in evaluation-ready encrypted form.

    Activation coefficients stay public plaintext.
    """

    kernel_spans: list
    fc1: FcTiles
    fc2: FcTiles
    act1: tuple
    act2: tuple
    layout: VirtualLayout

    @property
    def ciphertexts(self) -> list[Ciphertext]:
        """Every ciphertext of the model, in the order of its files: each
        kernel's k*k spans and then its bias, then each FC layer's B x C
        tiles block by block and then its bias seed."""
        cts = [ct for span in self.kernel_spans for ct in (*span.span_cts, span.bias_ct)]
        for fc in (self.fc1, self.fc2):
            cts += [tile for row in fc.tiles for tile in row] + [fc.bias_ct]
        return cts

    @property
    def ciphertext_count(self) -> int:
        return len(self.ciphertexts)


def poly_activation(engine: SlotEngine, cts, coeffs) -> list[Ciphertext]:
    """Slot-wise c0 + c1 x + c2 x^2 + c3 x^3 of each ciphertext of one stage,
    in two multiplicative levels.

    x^2 is squared once; the cubic and quadratic terms share it through
    x^2 * (c3 x + c2).  Two ct-ct products and two constant products per
    ciphertext; the two constant masks and the two constant encodings are
    built once for the whole stage.
    """
    if len(coeffs) != 4:
        raise EngineError(f"expected 4 coefficients, got {len(coeffs)}")
    c0, c1, c2, c3 = (float(c) for c in coeffs)
    slots = engine.slots
    mask_c3, mask_c1 = engine.mask(np.full(slots, c3)), engine.mask(np.full(slots, c1))
    enc_c2, enc_c0 = engine.enc(np.full(slots, c2)), engine.enc(np.full(slots, c0))
    outs = []
    for ct in cts:
        x2 = engine.mul(ct, ct)
        out = engine.accumulator()
        out.mul(x2, engine.add(engine.cmul(mask_c3, ct), enc_c2))
        out.cmul(mask_c1, ct)
        out.add(enc_c0)
        outs.append(out.result())
    return outs


def pack_batch(engine: SlotEngine, images, layout: VirtualLayout | None = None) -> Ciphertext:
    """Pack up to layout.m images row-wise at the layout stride; the layout
    defaults to the engine's :func:`batch_layout`."""
    if layout is None:
        layout = batch_layout(engine.slots)
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    b, h, w = arr.shape
    if (h, w) != (layout.h, layout.w):
        raise LayoutError(f"images are {h}x{w}, layout expects {layout.h}x{layout.w}")
    if b > layout.m:
        raise LayoutError(f"{b} images exceed {layout.m} blocks per ciphertext")
    grid = np.zeros((layout.m, layout.f), dtype=np.float64)
    grid[:b, : h * w] = arr.reshape(b, h * w)
    return engine.enc(grid.reshape(-1))


def flatten_lanes() -> tuple[np.ndarray, np.ndarray]:
    """fc1's input layout: the (chunk, lane) of each of its FC1_IN inputs,
    in the map-major order of ``oracle.oracle_flatten``.

    Maps 0 .. FC1_CHUNKS - 1 stay where the convolution put them: feature
    (r, x) of map c is lane IMAGE_SIDE*r + x of chunk c, and the lanes
    between its rows are no input.  The last map's feature j = MAP_SIDE*r
    + x goes to the spare lanes past those maps' valid block: chunk
    j // FC1_PIECE at lane MAP_BLOCK + j mod FC1_PIECE.  So FC1_CHUNKS
    chunks of MAP_BLOCK + FC1_PIECE = 952 lanes hold all KERNEL_COUNT maps.
    """
    feature = np.arange(MAP_FEATURES)
    kept = IMAGE_SIDE * (feature // MAP_SIDE) + feature % MAP_SIDE
    chunk = np.concatenate([np.repeat(np.arange(FC1_CHUNKS), MAP_FEATURES), feature // FC1_PIECE])
    lane = np.concatenate([np.tile(kept, FC1_CHUNKS), MAP_BLOCK + feature % FC1_PIECE])
    return chunk, lane


# Each FC layer, by name: its output count and the (chunk, lane) of each of
# its inputs, fc1's from flatten_lanes and fc2's the FC2_IN lanes of one
# chunk.  A layer's input width and chunk count are read off its map.
FC_LAYERS = {
    "fc1": (FC1_OUT, flatten_lanes()),
    "fc2": (FC2_OUT, np.divmod(np.arange(FC2_IN), FC2_IN)),
}


def flatten(engine: SlotEngine, maps, layout: VirtualLayout) -> list[Ciphertext]:
    """fc1's FC1_CHUNKS input chunks from the KERNEL_COUNT activated maps,
    every input at its :func:`flatten_lanes` place and every other slot
    zero, in one multiplicative level.

    Chunk c is map c through one valid-block filter, shared by the maps,
    which zeroes the lanes outside the map's features (there the activation
    left its constant term), plus piece c of the last map, which one
    ``virtual.reform`` call cuts into FC1_CHUNKS pieces of FC1_PIECE
    features from lane MAP_BLOCK.  At 26 rows this costs 12 rotations (3
    baby, 6 giant and one per piece) and 31 cmuls (3 filters and 28 row
    masks, two rows being cut between pieces).
    """
    _, (_, lane) = FC_LAYERS["fc1"]
    valid = np.zeros(MAP_BLOCK, dtype=bool)
    valid[lane[:MAP_FEATURES]] = True  # map 0's lanes
    keep = engine.mask(tile_blocks(valid, layout.m, layout.f))
    pieces = reform(engine, maps[FC1_CHUNKS], layout, MAP_SIDE, MAP_SIDE, start=MAP_BLOCK, piece=FC1_PIECE)
    chunks = []
    for ct, piece in zip(maps[:FC1_CHUNKS], pieces, strict=True):
        acc = engine.accumulator()
        acc.cmul(keep, ct)
        acc.add(piece)
        chunks.append(acc.result())
    return chunks


def _layer_plans(layout: VirtualLayout, out_dim: int, inputs: tuple) -> list[FcFold]:
    """Every plan of one FC layer over its (chunk, lane) ``inputs``: w =
    max lane + 1 and C = max chunk + 1, B neuron blocks of p with B*p =
    next_pow2(out_dim), p a power of two dividing layout.m, and the (G, g)
    that :meth:`FcFold.derive` picks for them."""
    chunk, lane = inputs
    width, chunks = int(lane.max()) + 1, int(chunk.max()) + 1
    p_pad = next_pow2(out_dim)
    return [
        FcFold.derive(width, p_pad // p, p, layout.m, layout.f, chunks)
        for p in (1 << t for t in range(p_pad.bit_length()))
        if layout.m % p == 0
    ]


def fc_blocking(layout: VirtualLayout) -> dict[str, FcFold]:
    """Each FC layer's plan over ``layout``, by name, in layout.m rows of
    layout.f lanes, with the width and chunks its ``FC_LAYERS`` input map
    reaches (3 chunks of 952 lanes for fc1, one of FC2_IN for fc2).  The
    model encoder and loader both take it from here; a model records none.

    The layers' neuron blocks are chosen together.  A layer of B blocks
    over C chunks stores B*C weight tiles and one bias seed, and the two
    layers may store no more than the sum of B_min*(C + 1) ciphertexts,
    B_min being the layer's fewest blocks: what its widest plan would
    store with a bias seed per block (10 at 32768 slots).  Of the pairs
    within that budget the rule takes the fewest rotations
    (:attr:`FcFold.rotations`), then the fewest constant multiplies, then
    the larger p, fc1's first."""
    options = [_layer_plans(layout, out_dim, inputs) for out_dim, inputs in FC_LAYERS.values()]
    budget = sum(min(fold.blocks for fold in plans) * (plans[0].chunks + 1) for plans in options)
    best = min(
        (pair for pair in product(*options) if sum(fold.blocks * fold.chunks + 1 for fold in pair) <= budget),
        key=lambda pair: (sum(f.rotations for f in pair), sum(f.cmuls for f in pair), [-f.p for f in pair]),
    )
    return dict(zip(FC_LAYERS, best))


def encode_model(engine: SlotEngine, weights: ModelWeights) -> EncodedModel:
    """Provider-side encoding: kernel spans plus FC weight tiles, against
    the engine's :func:`batch_layout`."""
    weights.validate()
    layout = batch_layout(engine.slots)
    spans = [tile_kernel_span(engine, kern, layout) for kern in weights.conv_kernels]
    fc1, fc2 = fc_blocking(layout).values()
    return EncodedModel(
        kernel_spans=spans,
        fc1=encode_fc_tiles(engine, weights.fc1_weight, weights.fc1_bias, fc1, FC_LAYERS["fc1"][1]),
        fc2=encode_fc_tiles(engine, weights.fc2_weight, weights.fc2_bias, fc2, FC_LAYERS["fc2"][1]),
        act1=tuple(weights.act1),
        act2=tuple(weights.act2),
        layout=layout,
    )


def forward_encoded(
    engine: SlotEngine,
    ct_x: Ciphertext,
    model: EncodedModel,
    stage_meters: dict | None = None,
) -> PackedMatrix:
    """Run the full pipeline on one packed batch of images.

    Pass a dict as ``stage_meters`` to collect per-stage operation-count
    deltas under keys conv/act1/flatten/fc1/act2/fc2; each key is set as
    its stage ends, and a dict passed to several passes adds their counts
    (:meth:`SlotEngine.scope`).  The flatten stage (:func:`flatten`) packs
    the four activated maps into fc1's three input chunks.  Each FC layer is one
    ``matmul_chunked`` product of its encoded layer, in the plan its tiles
    were encoded with and seeded with its bias seed.
    """
    layout = model.layout
    with engine.scope("conv", stage_meters):
        maps = batched_conv_layer(engine, ct_x, layout, model.kernel_spans)
    with engine.scope("act1", stage_meters):
        maps = poly_activation(engine, maps, model.act1)
    with engine.scope("flatten", stage_meters):
        chunks = flatten(engine, maps, layout)
    with engine.scope("fc1", stage_meters):
        hidden = matmul_chunked(engine, chunks, model.fc1)
    with engine.scope("act2", stage_meters):
        (hidden,) = poly_activation(engine, [hidden], model.act2)
    with engine.scope("fc2", stage_meters):
        scores = matmul_chunked(engine, [hidden], model.fc2)
    return PackedMatrix(scores, MatrixShape(layout.m, layout.f))


def argmax_decide(engine: SlotEngine, scores: PackedMatrix) -> np.ndarray:
    """Pick the highest-scoring of the FC2_OUT classes per row; ties go to
    the lowest index."""
    mat = scores.decode(engine)
    return np.argmax(mat[:, :FC2_OUT], axis=1)
