"""Virtual ciphertexts: one dataset ciphertext treated as m image ciphertexts.

A dataset ciphertext packs m images row-wise at a fixed power-of-two
stride f, each image occupying the h*w prefix of its block.  Element-wise
add/mul act per image for free; per-image cyclic rotation (vrot) costs two
real rotations plus two filters; batched convolution runs the single-image
loop once and every image block rides along, so real-operation cost is
independent of m.  reform compacts a valid sub-block into a contiguous
prefix after a convolution shrinks the spatial dims, or into pieces of a
given size from a given lane; its out_h rows move in baby and giant steps
of g rows, (g - 1) + (ceil(out_h/g) - 1) rotations for a prefix rather
than one per row, and one more per piece it must move into place.  The
convolution loop takes all the kernels of a layer, so every offset filter
is built once and serves them all; batched_conv is its one-kernel case.
"""

from dataclasses import dataclass

import numpy as np

from .conv import ImageShape, Kernel, KernelSpan, _conv_blocks, _span_blocks
from .encoding import tile_blocks
from .engine import Ciphertext, EngineError, LayoutError, SlotEngine, is_pow2

__all__ = [
    "VirtualLayout",
    "vrot",
    "tile_kernel_span",
    "batched_conv_layer",
    "batched_conv",
    "reform",
]


@dataclass(frozen=True)
class VirtualLayout:
    """m image blocks of stride f, each holding an h x w image prefix."""

    m: int
    f: int
    h: int
    w: int

    def __post_init__(self):
        if self.m < 1:
            raise EngineError("layout needs at least one image block")
        if self.h < 1 or self.w < 1:
            raise EngineError(f"image shape must be positive, got {self.h}x{self.w}")
        if not is_pow2(self.f):
            raise EngineError(f"block stride must be a power of two, got {self.f}")
        if self.h * self.w > self.f:
            raise EngineError(
                f"{self.h}x{self.w} image does not fit block stride {self.f}"
            )

    @property
    def pad(self) -> int:
        return self.f - self.h * self.w

    @property
    def image_slots(self) -> int:
        return self.h * self.w


def _require_fit(engine: SlotEngine, layout: VirtualLayout) -> None:
    if layout.m * layout.f != engine.slots:
        raise LayoutError(
            f"layout {layout.m}x{layout.f} must fill the ciphertext exactly "
            f"({engine.slots} slots)"
        )


def vrot(engine: SlotEngine, ct: Ciphertext, layout: VirtualLayout, r: int) -> Ciphertext:
    """Rotate every image prefix cyclically left by r; pad slots stay zero.

    Realized with two real rotations: left by r for the surviving head of
    each prefix, right by h*w - r for the wrapped tail, each isolated with
    a 0/1 filter before the add.
    """
    _require_fit(engine, layout)
    hw = layout.image_slots
    if not 0 <= r < hw:
        raise EngineError(f"rotation must be in [0, {hw}), got {r}")
    head = np.arange(hw) < hw - r
    heads, tails = tile_blocks(np.stack([head, ~head]), layout.m, layout.f)
    t1 = engine.cmul(engine.mask(heads), engine.rot(ct, r))
    t2 = engine.cmul(engine.mask(tails), engine.rot(ct, r - hw))
    return engine.add(t1, t2)


def tile_kernel_span(engine: SlotEngine, kernel: Kernel, layout: VirtualLayout) -> KernelSpan:
    """Spanned kernel for a batched dataset: every image block carries its
    own copy of each span pattern (and of the bias block)."""
    return _span_blocks(engine, kernel, ImageShape(layout.h, layout.w), layout.m, layout.f)


def batched_conv_layer(
    engine: SlotEngine, ct_x: Ciphertext, layout: VirtualLayout, spans
) -> list[Ciphertext]:
    """Valid convolution of every image in the dataset with each kernel of
    a layer, one result per span; the spans must share k.

    Same loop as the single-image algorithm; rotations act globally, so the
    pad margin (k-1)*(w+1) guarantees no window read of a valid anchor ever
    crosses into the next image block.  A single block (m = 1) has no next
    block and needs no margin.  Each offset filter is built once for all
    the kernels.
    """
    _require_fit(engine, layout)
    if not spans:
        raise EngineError("a convolution layer needs at least one kernel")
    k = spans[0].k
    for span in spans:
        if span.k != k:
            raise LayoutError(f"kernels of one layer must share their size, got k={k} and k={span.k}")
        if (span.shape.h, span.shape.w) != (layout.h, layout.w):
            raise LayoutError(f"span built for {span.shape}, dataset images are {layout.h}x{layout.w}")
    if layout.m > 1 and layout.pad < (k - 1) * (layout.w + 1):
        raise LayoutError(
            f"pad {layout.pad} below the shift-absorption margin "
            f"{(k - 1) * (layout.w + 1)} for k={k}"
        )
    return _conv_blocks(engine, ct_x, spans, layout.m, layout.f)


def batched_conv(
    engine: SlotEngine, ct_x: Ciphertext, layout: VirtualLayout, span: KernelSpan
) -> Ciphertext:
    """Valid convolution of every image in the dataset simultaneously: the
    one-kernel case of :func:`batched_conv_layer`."""
    return batched_conv_layer(engine, ct_x, layout, [span])[0]


def _reform_step(out_h: int) -> int:
    """Rows per group of :func:`reform`: the g with the fewest
    rotations, (g - 1) + (ceil(out_h / g) - 1), ties going to the
    smaller g.  g <= out_h, since g = 1 and g = out_h both cost out_h - 1."""
    return min(range(1, out_h + 1), key=lambda g: g - (-out_h // g))


def _rot(engine: SlotEngine, ct: Ciphertext, l: int) -> Ciphertext:
    """``ct`` rotated left by l; no rotation, and no key, when l is 0."""
    return engine.rot(ct, l) if l else ct


def reform(
    engine: SlotEngine,
    ct: Ciphertext,
    layout: VirtualLayout,
    out_h: int,
    out_w: int,
    start: int = 0,
    piece: int | None = None,
) -> list[Ciphertext]:
    """Compact each image's top-left out_h x out_w block into
    ``piece``-feature pieces from lane ``start`` (row-major order
    preserved): feature j = r*out_w + x goes to lane start + j mod piece of
    piece j // piece.  By default there is one piece at lane 0, a
    contiguous prefix of out_h*out_w slots.  The result lists the pieces
    in order.

    Row r of the block sits at lanes r*w + x, s = w - out_w lanes per row
    away from its compacted lanes r*out_w + x.  The rows take baby and
    giant steps: with r = g*a + b (0 <= b < g, g from
    :func:`_reform_step`), the map is rotated once by b*s for every b > 0,
    and the baby for row r is masked to the lanes of the piece's features
    in its row, which sit g*a*s lanes right of their compacted place.
    Each group of g rows is summed per piece and rotated once by
    g*(a - a0)*s (a > a0, a0 the piece's first group), and each piece once
    by g*a0*s + first - start, first being its first feature (no rotation
    when that is 0).  With one piece at lane 0 this costs
    (g - 1) + (ceil(out_h/g) - 1) rotations, with keys b*s and g*a*s, and
    out_h cmuls and out_h - 1 adds; s = 0 needs no rotation at all.  At
    26 rows g = 4: 3 baby and 6 giant rotations.  A row cut between two
    pieces costs one more cmul.  Every slot pairs the same mask and
    ciphertext values as masking row r after one rotation by r*s would,
    and at most one of its terms is nonzero (the rest are signed zeros,
    whose sum is -0.0 in any order exactly when all are), so the grouping
    changes no bit.
    """
    _require_fit(engine, layout)
    if not (1 <= out_h <= layout.h and 1 <= out_w <= layout.w):
        raise EngineError(
            f"{out_h}x{out_w} block must be non-empty and within the {layout.h}x{layout.w} image prefix"
        )
    features = out_h * out_w
    piece = features if piece is None else piece
    if not (piece >= 1 and start >= 0 and start + min(piece, features) <= layout.f):
        raise EngineError(f"pieces of {piece} features from lane {start} do not fit block stride {layout.f}")
    s, g = layout.w - out_w, _reform_step(out_h)
    feature = np.arange(features)
    row = feature // out_w
    lane = feature + row // g * g * s  # feature j in its row's baby, g*a*s lanes right of its compacted lane
    babies = [_rot(engine, ct, b * s) for b in range(g)]
    outs = []
    for first in range(0, features, piece):
        rows, lanes = row[first : first + piece], lane[first : first + piece]
        top = int(rows[0]) // g * g
        keeps = np.zeros((rows[-1] - rows[0] + 1, layout.image_slots), dtype=bool)
        keeps[rows - rows[0], lanes] = True  # row r's lanes, in pattern r - rows[0]
        keeps = tile_blocks(keeps, layout.m, layout.f)
        acc = engine.accumulator()
        for group in range(top, rows[-1] + 1, g):
            total = engine.accumulator()
            for r in range(max(group, rows[0]), min(group + g, rows[-1] + 1)):
                total.cmul(engine.mask(keeps[r - rows[0]]), babies[r % g])
            acc.add(_rot(engine, total.result(), (group - top) * s))
        outs.append(_rot(engine, acc.result(), top * s + first - start))
    return outs
