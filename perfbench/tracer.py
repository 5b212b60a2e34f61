"""Per-layer tracing from outside the program.

The tracer rebinds public functions of the ``packedhe`` modules (every
module-level name bound to the function, so internal callers are traced
too) and the ``SlotEngine`` primitives, then restores them on exit.  Each
wrapper records calls, inclusive time and self time (inclusive minus the
traced calls it made).  Nothing inside ``src/`` is edited: pipeline stage
boundaries come from a ``stage_meters`` dict that timestamps insertions.

Statistics are kept per phase ("setup" or "items") and reported per
sample of their phase: per set-up for work done in set-up, per latency
sample (batch or pass) for work done in the measured loop.
"""

import contextlib
import sys
from collections import defaultdict
from time import perf_counter

from packedhe.engine import OpMeter, SlotEngine

# <module>.<function> in packedhe, as named in the report.
FUNCTIONS = [
    "encoding.sum_col_vec",
    "matmul.matmul",
    "matmul.row_shifter",
    "matmul.build_result_filter",
    "virtual.batched_conv",
    "virtual.reform",
    "virtual.vrot",
    "conv.conv",
    "conv.window_cascade",
    "multicipher.matmul_outer",
    "multicipher.conv_columns",
    "serial.write_ciphertext",
    "serial.read_ciphertext",
    "datafiles.load_idx_images",
    "datafiles.load_weights_csv",
]
# Spans the workloads open around cli.main calls.
CLI_SPANS = ["cli.owner_encode", "cli.provider_encode"]
# Slot vectors each primitive reads plus writes; engine.bytes_mb is
# computed from these and the engine's slot count, not measured.
PRIMITIVE_VECTORS = {"rot": 2, "add": 3, "mul": 3, "cmul": 3, "enc": 1, "mask": 1}
STAGES = ["conv", "act1", "flatten", "fc1", "act2", "fc2"]


class StageClock(dict):
    """``stage_meters`` dict that timestamps each insertion.

    ``forward_encoded`` inserts one entry as each stage ends, so the gaps
    between insertions are the stage spans.
    """

    def __init__(self):
        super().__init__()
        self.marks = [(None, perf_counter())]

    def __setitem__(self, key, value):
        self.marks.append((key, perf_counter()))
        super().__setitem__(key, value)

    def spans(self) -> dict:
        return {key: t - prev for (_, prev), (key, t) in zip(self.marks, self.marks[1:])}


class NullTracer:
    """Stand-in for untraced runs: every hook is a no-op."""

    def span(self, name):
        return contextlib.nullcontext()

    def stage_clock(self):
        return None

    def record_stages(self, clock):
        pass

    def sample(self, phase):
        return contextlib.nullcontext()

    def add_latency(self, seconds):
        pass


class EngineCensus:
    """Collect every SlotEngine built while open.

    Op counts then include the engines the CLI builds internally.  The cost
    is one list append per engine, so untraced runs keep it on.
    """

    def __init__(self):
        self._engines = []
        self._orig = None

    def __enter__(self):
        self._orig = orig = SlotEngine.__init__
        engines = self._engines

        def init(engine, *args, **kwargs):
            orig(engine, *args, **kwargs)
            engines.append(engine)

        SlotEngine.__init__ = init
        return self

    def __exit__(self, *exc):
        SlotEngine.__init__ = self._orig

    def take(self) -> OpMeter:
        """Merged meters of the engines built since the last call."""
        total = OpMeter()
        for engine in self._engines:
            total = total.merged(engine.meter_snapshot())
        self._engines.clear()
        return total


class RotKeys:
    """Record the distinct rotation keys (slot count, offset mod slots) used
    while open."""

    def __init__(self):
        self.keys = set()
        self._orig = None

    def __enter__(self):
        self._orig = orig = SlotEngine.rot
        keys = self.keys

        def rot(engine, ct, l):
            keys.add((engine.slots, l % engine.slots))
            return orig(engine, ct, l)

        SlotEngine.rot = rot
        return self

    def __exit__(self, *exc):
        SlotEngine.rot = self._orig


class Tracer:
    """Wrap the traced functions while the context is open."""

    def __init__(self):
        self.phase = "setup"
        self.samples = defaultdict(int)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self._stack = []
        self._undo = []
        self._masks = set()
        self._keys = set()
        self.stage_counts = set()

    # -- installation ------------------------------------------------

    def __enter__(self):
        for name in FUNCTIONS:
            module, attr = name.split(".")
            orig = getattr(sys.modules[f"packedhe.{module}"], attr)
            self._rebind(orig, self._wrap(name, orig, _FUNCTION_HOOKS.get(name)))
        for prim in PRIMITIVE_VECTORS:
            orig = getattr(SlotEngine, prim)
            self._undo.append((SlotEngine, prim, orig))
            setattr(SlotEngine, prim, self._wrap(f"engine.{prim}", orig, self._engine_hook(prim)))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _rebind(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "packedhe" and not modname.startswith("packedhe."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, hook):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _engine_hook(self, prim):
        vectors = PRIMITIVE_VECTORS[prim]

        def hook(tracer, args, result):
            engine = args[0]
            tracer.extra[(tracer.phase, "engine.bytes")] += 8.0 * vectors * engine.slots
            if prim == "mask":
                tracer._masks.add(hash(result.values.tobytes()))
            elif prim == "rot":
                tracer._keys.add((engine.slots, args[2] % engine.slots))

        return hook

    # -- spans and samples ---------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Span opened by the benchmark around a call into the program."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, t0)

    def _close(self, name, t0):
        """End the innermost span: count it, and charge it to its parent."""
        dur = perf_counter() - t0
        child = self._stack.pop()
        key = (self.phase, name)
        self.calls[key] += 1
        self.total[key] += dur
        self.self_s[key] += dur - child
        if self._stack:
            self._stack[-1] += dur

    @contextlib.contextmanager
    def sample(self, phase):
        """One set-up or one latency sample; distinct-key sets are per sample."""
        self.phase = phase
        self._masks.clear()
        self._keys.clear()
        yield
        self.samples[phase] += 1
        self.extra[(phase, "mask.distinct")] += len(self._masks)
        self.extra[(phase, "rot.keys")] += len(self._keys)

    def add_latency(self, seconds):
        self.extra[(self.phase, "latency")] += seconds

    def stage_clock(self):
        return StageClock()

    def record_stages(self, clock):
        """Fold one forward pass's stage spans and op counts into the phase."""
        self.stage_counts.add(tuple(sorted((k, v.rot_count, v.mul_count, v.cmul_count) for k, v in clock.items())))
        for stage, seconds in clock.spans().items():
            meter = clock[stage]
            self.extra[(self.phase, f"pipeline.{stage}.s")] += seconds
            self.extra[(self.phase, f"pipeline.{stage}.rot")] += meter.rot_count
            self.extra[(self.phase, f"pipeline.{stage}.mul")] += meter.mul_count
            self.extra[(self.phase, f"pipeline.{stage}.cmul")] += meter.cmul_count
        self.extra[(self.phase, "pipeline.covered_s")] += sum(clock.spans().values())

    # -- report ----------------------------------------------------------

    def per_sample(self, table, name) -> float:
        """Sum over phases of the phase total divided by its sample count."""
        return sum(table[(phase, name)] / n for phase, n in self.samples.items() if n)

    def items_only(self, table, name) -> float:
        n = self.samples["items"]
        return table[("items", name)] / n if n else 0.0


def _serial_write_hook(tracer, args, result):
    tracer.extra[(tracer.phase, "serial.write_ciphertext.bytes")] += 8.0 * args[1].slots.size


def _serial_read_hook(tracer, args, result):
    tracer.extra[(tracer.phase, "serial.read_ciphertext.bytes")] += 8.0 * result[0].size


_FUNCTION_HOOKS = {
    "serial.write_ciphertext": _serial_write_hook,
    "serial.read_ciphertext": _serial_read_hook,
}
