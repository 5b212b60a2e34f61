"""Operation-count benchmarks for the evaluation algorithms.

Runs one real matmul and one real convolution and reads each loop step's
Add/cMult/Rot/Mult counts from the engine scopes the loops open, divided
by the iteration count.  The measured counts are compared against the
documented per-step cost formulas and any overruns are flagged.  The
row-summation step is the known soft spot: its rotation count scales with
log2 of the row width n, so a budget quoted in terms of the output-column
count p undercounts whenever p < n.  The product's row-cycle budget
follows :func:`~packedhe.matmul.cycle_closes` on its max(m, p)-row layout,
the test the product itself makes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .conv import ImageShape, Kernel, conv, kernel_spanner, sum_for_conv
from .encoding import encode_revolver, encode_row_major
from .engine import SlotEngine, EngineParams, next_pow2
from .matmul import cycle_closes, matmul

__all__ = [
    "StepCost",
    "measure_matmul_steps",
    "measure_conv_steps",
    "format_report",
    "SUMMATION_NOTE",
]

SUMMATION_NOTE = (
    "note: row-summation rotations scale with the row width "
    "(measured 2*log2(n)); a budget of 2*log2(p) undercounts whenever p < n."
)


@dataclass
class StepCost:
    step: str
    add: int
    cmul: int
    rot: int
    mul: int
    expected: tuple  # (add, cmul, rot, mul) documented formula values
    note: str = ""

    @property
    def within_budget(self) -> bool:
        return (
            self.add <= self.expected[0]
            and self.cmul <= self.expected[1]
            and self.rot <= self.expected[2]
            and self.mul <= self.expected[3]
        )


def _step(label: str, engine: SlotEngine, scope: str, iterations: int, expected: tuple, note: str = "") -> StepCost:
    """Counts charged to ``scope``, per loop iteration."""
    spent = engine.scopes[scope]
    counts = (spent.add_count, spent.cmul_count, spent.rot_count, spent.mul_count)
    if any(c % iterations for c in counts):
        raise ValueError(f"{scope} charged {counts} over {iterations} iterations, not a per-iteration constant")
    return StepCost(label, *(c // iterations for c in counts), expected=expected, note=note)


def measure_matmul_steps(m: int, n: int, p: int, slots: int | None = None) -> list:
    """Per-iteration cost of each step of one real p-iteration product.

    With ``slots`` omitted the working layout fills the ciphertext, which
    enables the single-rotation row-cycling path when max(m, p) is a
    multiple of p.  A negative size raises ValueError naming the entry; a
    zero one meets the encoders' own checks.
    """
    if min(m, n, p) < 0:
        raise ValueError(f"matrix product m={m} n={n} p={p}: no size may be negative")
    layout_m = max(m, p)
    if slots is None:
        slots = next_pow2(max(2, layout_m * n))
    engine = SlotEngine(EngineParams(slots=slots))
    rng = np.random.default_rng(7)
    a = encode_row_major(engine, rng.integers(-4, 5, size=(m, n)).astype(float))
    bbar = encode_revolver(engine, rng.integers(-4, 5, size=(n, p)).astype(float), target_m=layout_m)
    matmul(engine, a, bbar)
    log_n = int(math.log2(n)) if n > 1 else 0
    fast = cycle_closes(engine, layout_m, n, p)
    cycle = ((0, 0, 1, 1), "single-rotation path") if fast else ((1, 2, 2, 1), "masked two-rotation path")
    return [
        _step("1 row cycle + multiply", engine, "matmul.row_cycle", p, *cycle),
        _step("2 row summation", engine, "matmul.row_sum", p, (2 * log_n, 1, 2 * log_n, 0), SUMMATION_NOTE),
        _step("3 result filter", engine, "matmul.result_filter", p, (0, 1, 0, 0)),
        _step("4 accumulate", engine, "matmul.accumulate", p, (1, 0, 0, 0), "plus one seed enc per product"),
    ]


def measure_conv_steps(h: int, w: int, k: int) -> list:
    """Per-offset cost of each step of one real k*k-iteration convolution,
    plus the standalone anchor-masked window sum.  A size below 1 raises
    ValueError naming the entry."""
    if min(h, w, k) < 1:
        raise ValueError(f"convolution h={h} w={w} k={k}: every size must be positive")
    slots = max(2, next_pow2(h * w))
    engine = SlotEngine(EngineParams(slots=slots))
    rng = np.random.default_rng(11)
    shape = ImageShape(h, w)
    kernel = Kernel(rng.integers(-3, 4, size=(k, k)).astype(float), bias=1.0)
    span = kernel_spanner(engine, kernel, shape)
    image = engine.enc(rng.integers(0, 7, size=(h, w)).astype(float).reshape(-1))
    conv(engine, image, span, shape)
    with engine.scope("bench.window_sum"):
        sum_for_conv(engine, image, shape, k)
    offsets = k * k
    return [
        _step("1 span multiply", engine, "conv.span_multiply", offsets, (0, 0, 0, 1)),
        _step("2 window cascade", engine, "conv.window_cascade", offsets, (2 * k, 0, 2 * k, 0)),
        _step("3 offset filter", engine, "conv.offset_filter", offsets, (0, 1, 0, 0)),
        _step("4 accumulate", engine, "conv.accumulate", offsets, (1, 0, 0, 0)),
        _step("window sum (standalone)", engine, "bench.window_sum", 1, (2 * k, 1, 2 * k, 0)),
    ]


def format_report(matmul_grid, conv_grid) -> str:
    """Measured-vs-budget table for grids of (m, n, p) and (h, w, k)."""
    sections = [(f"matrix product m={m} n={n} p={p}", measure_matmul_steps(m, n, p)) for m, n, p in matmul_grid]
    sections += [(f"convolution h={h} w={w} k={k}", measure_conv_steps(h, w, k)) for h, w, k in conv_grid]
    header = f"{'step':<28} {'Add':>5} {'cMult':>6} {'Rot':>5} {'Mult':>5}   budget (A,cM,R,M)"
    lines = []
    for title, steps in sections:
        lines += [title, header]
        for s in steps:
            flag = "" if s.within_budget else "  ** EXCEEDS BUDGET"
            lines.append(
                f"{s.step:<28} {s.add:>5} {s.cmul:>6} {s.rot:>5} {s.mul:>5}   {s.expected}{flag}"
            )
        lines.append("")
    lines.append(SUMMATION_NOTE)
    return "\n".join(lines)
