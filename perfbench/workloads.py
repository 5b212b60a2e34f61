"""The two workloads: ``infer`` and ``kernels``.

Each is a single-process closed loop with one client.  A workload builds
its inputs from the seed when constructed, then offers ``setup()`` (timed,
repeated) and ``step()`` (one latency sample).  Both return the seconds
they spent inside the program; cleanup and output checks happen outside
that window.  Program functions are called through their modules so that
the tracer's rebinding reaches them.
"""

import contextlib
import importlib
import io
import shutil
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from packedhe.engine import EngineParams, SlotEngine

from inputs import make_images, make_kernel_mix, make_weights, pixels, write_inputs

# The package re-exports functions named like their modules (conv, matmul),
# so the modules are looked up by their full names.
cli, pconv, encoding, pmatmul, multicipher, oracle, pipeline, serial, virtual = (
    importlib.import_module(f"packedhe.{name}")
    for name in ("cli", "conv", "encoding", "matmul", "multicipher", "oracle", "pipeline", "serial", "virtual")
)

SCORE_TOLERANCE = 1e-6


@dataclass
class Sample:
    """One latency sample: seconds inside the program, items, failed items."""

    latency: float
    items: int
    failed: int


def _cli(*argv) -> None:
    """Run one CLI command; its progress lines are not benchmark output."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"packedhe {argv[0]} exited with {code}")


class Infer:
    """Three-role product path at 32768 slots; one item is one image.

    Set-up is the owner and provider side (``owner-encode`` of the batch
    pool, ``provider-encode``, ``load_model``); a sample is one batch.
    """

    name = "infer"
    sample_unit = "32-image batch"
    # Distinct batches cycled through the run.  Each costs one oracle pass
    # (about 0.7 s) at start-up; the program keeps nothing between batches.
    POOL_BATCHES = 4

    def __init__(self, work, rng):
        self.items_per_sample = pipeline.IMAGES_PER_CT
        images = make_images(rng, self.POOL_BATCHES * pipeline.IMAGES_PER_CT)
        weights = make_weights(rng)
        self.idx_path, self.weights_dir = write_inputs(work / "inputs", images, weights)
        self.batch_dir = work / "batches"
        self.model_dir = work / "model"
        t0 = perf_counter()
        self.want = oracle.oracle_forward(weights, pixels(images))
        self.reference_s = perf_counter() - t0
        self.oracle_batch_s = self.reference_s / self.POOL_BATCHES
        self.want_labels = np.argmax(self.want, axis=1)
        self.batch_paths = []
        self.model = None
        self.turn = 0

    def setup(self, tracer) -> float:
        for out in (self.batch_dir, self.model_dir):
            shutil.rmtree(out, ignore_errors=True)
        t0 = perf_counter()
        with tracer.span("cli.owner_encode"):
            _cli("owner-encode", "--images", self.idx_path, "--out-dir", self.batch_dir)
        with tracer.span("cli.provider_encode"):
            _cli("provider-encode", "--weights-dir", self.weights_dir, "--out-dir", self.model_dir)
        self.model = serial.load_model(SlotEngine(), self.model_dir)
        seconds = perf_counter() - t0
        # The batches' contents are checked through the scores of every sample.
        self.batch_paths = sorted(self.batch_dir.glob(f"*{serial.CT_SUFFIX}"))
        if len(self.batch_paths) != self.POOL_BATCHES:
            raise RuntimeError(f"owner-encode wrote {len(self.batch_paths)} batches, expected {self.POOL_BATCHES}")
        return seconds

    def step(self, tracer) -> Sample:
        b = self.turn % len(self.batch_paths)
        self.turn += 1
        engine = SlotEngine()
        t0 = perf_counter()
        ct, _, valid = serial.load_batch(engine, self.batch_paths[b])
        clock = tracer.stage_clock()
        scores = pipeline.forward_encoded(engine, ct, self.model, stage_meters=clock)
        mat = scores.decode(engine)
        labels = pipeline.argmax_decide(engine, scores)
        latency = perf_counter() - t0
        if clock is not None:
            tracer.record_stages(clock)
        rows = slice(b * pipeline.IMAGES_PER_CT, b * pipeline.IMAGES_PER_CT + valid)
        bad = np.abs(mat[:valid, : pipeline.FC2_OUT] - self.want[rows]).max(axis=1) > SCORE_TOLERANCE
        bad |= labels[:valid] != self.want_labels[rows]
        return Sample(latency, valid, int(bad.sum()))


# -- kernels: encode / evaluate / reference per algorithm ----------------


def _layout(case) -> virtual.VirtualLayout:
    m, h, w = case.args["images"].shape
    return virtual.VirtualLayout(m, case.args["f"], h, w)


def _encode(engine, case):
    a = case.args
    if case.kind == "matmul":
        (m, n), p = a["a"].shape, a["b"].shape[1]
        return (
            encoding.encode_row_major(engine, a["a"]),
            encoding.encode_revolver(engine, a["b"], target_m=max(m, p)),
        )
    if case.kind == "matmul_outer":
        m, p = a["a"].shape[0], a["b"].shape[1]
        return multicipher.encode_left(engine, a["a"], p), multicipher.encode_right(engine, a["b"], m)
    if case.kind == "conv":
        shape = pconv.ImageShape(*a["image"].shape)
        return engine.enc(a["image"].reshape(-1)), pconv.kernel_spanner(engine, a["kernel"], shape)
    if case.kind == "batched_conv":
        layout = _layout(case)
        span = virtual.tile_kernel_span(engine, a["kernel"], layout)
        return pipeline.pack_batch(engine, a["images"], layout), span
    if case.kind == "vrot":
        return (pipeline.pack_batch(engine, a["images"], _layout(case)),)
    if case.kind == "conv_columns":
        return (multicipher.encode_image_columns(engine, a["images"]),)
    raise ValueError(case.kind)


def _evaluate(engine, case, operands) -> np.ndarray:
    a = case.args
    k = a["kernel"].k if "kernel" in a else 0
    if case.kind == "matmul":
        return engine.dec(pmatmul.matmul(engine, *operands).ct)
    if case.kind == "matmul_outer":
        return multicipher.matmul_outer(engine, *operands).decode(engine)
    if case.kind == "conv":
        h, w = a["image"].shape
        out = pconv.conv(engine, *operands, pconv.ImageShape(h, w))
        return engine.dec(out)[: h * w].reshape(h, w)[: h - k + 1, : w - k + 1]
    if case.kind == "batched_conv":
        layout = _layout(case)
        out = engine.dec(virtual.batched_conv(engine, operands[0], layout, operands[1]))
        grid = out.reshape(layout.m, layout.f)[:, : layout.image_slots].reshape(layout.m, layout.h, layout.w)
        return grid[:, : layout.h - k + 1, : layout.w - k + 1]
    if case.kind == "vrot":
        return engine.dec(virtual.vrot(engine, operands[0], _layout(case), a["r"]))
    if case.kind == "conv_columns":
        return multicipher.reassemble_columns(engine, multicipher.conv_columns(engine, operands[0], a["kernel"]))
    raise ValueError(case.kind)


def _reference(case) -> np.ndarray:
    """Plaintext answer from the oracle module (or numpy for vrot)."""
    a = case.args
    if case.kind == "matmul":
        (m, n), p = a["a"].shape, a["b"].shape[1]
        grid = np.zeros((case.slots // n, n))
        grid[:m, :p] = oracle.oracle_matmul(a["a"], a["b"])
        return grid.reshape(-1)
    if case.kind == "matmul_outer":
        return oracle.oracle_matmul(a["a"], a["b"])
    if case.kind == "conv":
        return oracle.oracle_conv(a["image"], a["kernel"].weights, a["kernel"].bias)
    if case.kind in ("batched_conv", "conv_columns"):
        kern = a["kernel"]
        return np.stack([oracle.oracle_conv(img, kern.weights, kern.bias) for img in a["images"]])
    if case.kind == "vrot":
        layout = _layout(case)
        grid = np.zeros((layout.m, layout.f))
        flat = a["images"].reshape(layout.m, layout.image_slots)
        grid[:, : layout.image_slots] = np.roll(flat, -a["r"], axis=1)
        return grid.reshape(-1)
    raise ValueError(case.kind)


class Kernels:
    """The paper's layout algorithms at 512-32768 slots; one item is one
    pass over the fixed mix, on operands encoded during set-up."""

    name = "kernels"
    sample_unit = "pass over the mix"
    items_per_sample = 1

    def __init__(self, work, rng):
        self.cases = make_kernel_mix(rng)
        t0 = perf_counter()
        self.want = [_reference(case) for case in self.cases]
        self.reference_s = perf_counter() - t0
        self.oracle_batch_s = 0.0
        self.operands = None

    def _engines(self) -> dict:
        return {s: SlotEngine(EngineParams(slots=s)) for s in sorted({c.slots for c in self.cases})}

    def setup(self, tracer) -> float:
        t0 = perf_counter()
        engines = self._engines()
        self.operands = [_encode(engines[c.slots], c) for c in self.cases]
        return perf_counter() - t0

    def step(self, tracer) -> Sample:
        engines = self._engines()
        t0 = perf_counter()
        got = [_evaluate(engines[c.slots], c, ops) for c, ops in zip(self.cases, self.operands)]
        latency = perf_counter() - t0
        ok = all(np.array_equal(g, w) for g, w in zip(got, self.want))
        return Sample(latency, 1, 0 if ok else 1)


WORKLOADS = {w.name: w for w in (Infer, Kernels)}
