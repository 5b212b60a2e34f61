"""Command-line front end.

Three roles share the toolkit: the data owner packs and "encrypts"
(simulated) image batches, the model provider encodes kernels and FC
weights, and the cloud side runs inference over the packed files.
Given the plaintext images and weights (``--images`` with
``--weights-dir``), ``cloud-infer`` checks every prediction against the
plaintext oracle; ``verify`` runs the three roles that way in a scratch
directory.  ``cloud-infer`` loads the model once and every batch before
any inference runs, so batches whose image indices overlap, or reach past
the end of the ``--images`` file, are bad input found up front, and so are
``--out`` and ``--report`` paths that name a directory, lie in none, name
each other, name a file the run reads or would add a batch-suffixed file
to ``--batch-dir``.  It then runs the batches one
after the other, each on its own engine.  The one engine
parameter is ``--slots``, the slot count per ciphertext, taken by
``owner-encode``, ``provider-encode`` and ``verify``; ``cloud-infer``
reads it from the model manifest's layout and rejects batch files that
hold another count.

Exit codes: 0 success, 1 bad input (a usage error or a file or value that
fails validation), 2 verification mismatch.
"""

import argparse
import json
import sys
import tempfile
from functools import reduce
from pathlib import Path

import numpy as np

from .bench import format_report
from .datafiles import load_idx_images, load_weights_csv
from .engine import MAX_SLOTS, EngineParams, OpMeter, SlotEngine
from .oracle import oracle_forward
from .pipeline import FC2_OUT, batch_layout, encode_model, forward_encoded, pack_batch
from .serial import CT_SUFFIX, SerialError, load_indexed_batch, load_model, model_params, write_batch, write_model

SCORE_TOLERANCE = 1e-6

__all__ = ["main"]


def _cmd_owner_encode(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be non-negative, got {args.limit}")
    out_dir = Path(args.out_dir)
    # cloud-infer scores every batch file in the directory, so old batches
    # would be scored with the new ones
    stale = len(list(out_dir.glob(f"*{CT_SUFFIX}")))
    if stale:
        raise ValueError(f"{out_dir} already holds {stale} {CT_SUFFIX} files; choose an empty --out-dir")
    engine = SlotEngine(EngineParams(slots=args.slots))
    layout = batch_layout(engine.slots)
    images = load_idx_images(args.images)
    if args.limit is not None:
        images = images[: args.limit]
    n = images.shape[0]
    if n == 0:
        raise ValueError("no images to encode")
    firsts = range(0, n, layout.m)
    for b, first in enumerate(firsts):
        chunk = images[first : first + layout.m]
        ct = pack_batch(engine, chunk, layout)
        # created once the first batch has packed, so images of the wrong
        # shape leave no output directory behind
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"batch_{b:05d}{CT_SUFFIX}"
        write_batch(path, ct, layout, valid_rows=chunk.shape[0], first_index=first)
    print(
        f"packed {n} images into {len(firsts)} batch files "
        f"({layout.m} per ciphertext, final batch zero-filled by {len(firsts) * layout.m - n})"
    )
    return 0


def _cmd_provider_encode(args) -> int:
    engine = SlotEngine(EngineParams(slots=args.slots))
    weights = load_weights_csv(args.weights_dir)
    model = encode_model(engine, weights)
    count = write_model(args.out_dir, model)
    print(f"encoded model into {count} ciphertext files at {args.out_dir}")
    return 0


def _oracle_mismatch(scores: np.ndarray, labels, weights, images) -> str | None:
    """Compare encrypted scores and labels with the plaintext oracle; return
    what differs, or None when both agree."""
    want = oracle_forward(weights, images)
    if scores.shape != want.shape or not np.allclose(scores, want, rtol=0.0, atol=SCORE_TOLERANCE):
        return f"score mismatch beyond {SCORE_TOLERANCE}"
    if not np.array_equal(np.argmax(want, axis=1), labels):
        return "label mismatch"
    return None


def _load_batches(params: EngineParams, batch_paths) -> list:
    """Load every batch file as (path, ct, indices), where ``indices`` is
    the range of dataset image indices of its valid rows."""
    engine = SlotEngine(params)
    loaded = [(path, load_indexed_batch(engine, path)) for path in batch_paths]
    return [(path, ct, range(first, first + valid)) for path, (ct, _, valid, first) in loaded]


def _infer_batches(params: EngineParams, model, batches) -> tuple:
    """Run forward over loaded batches (see :func:`_load_batches`), one
    after the other, against one shared model.

    Each batch gets its own engine, so each stage's recorded depth is its
    own; the stage meters are shared, so a stage re-entered by the next
    batch adds its counts and unites its rotation offsets.  Returns the
    valid rows' FC2_OUT scores of every batch, stacked in batch order, and
    the stage meters; every meter carries its distinct rotation offsets,
    and every op of a pass falls inside one stage.  A batch whose scores
    are not all finite (its values or the model's overflowed float64)
    raises SerialError naming the batch file.
    """
    stages, scores = {}, []
    for path, ct, indices in batches:
        engine = SlotEngine(params)
        # an overflow is reported once below, as bad input, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            out = forward_encoded(engine, ct, model, stage_meters=stages)
        mat = out.decode(engine)[: len(indices), :FC2_OUT]
        if not np.isfinite(mat).all():
            raise SerialError(f"{path}: non-finite scores: the batch or model values overflow float64")
        scores.append(mat)
    return np.concatenate(scores), stages


def _check_disjoint(batches) -> None:
    """Reject two batches that claim an overlapping range of image indices."""
    claims = sorted(batches, key=lambda batch: batch[2].start)
    for (prev_path, _, prev), (path, _, cur) in zip(claims, claims[1:]):
        if cur.start < prev.stop:
            raise SerialError(f"{path}: images from index {cur.start} are also claimed by {prev_path}")


def _check_outputs(args, batch_paths) -> None:
    """Reject an --out or --report path that names a directory, lies in
    none, names a file the run reads (a batch file, a file of the model
    directory, the --images IDX or a weight CSV), would add a file to
    --batch-dir that the next run reads as a batch, or names the other
    output.  Outputs are written after every batch has run, so these are
    checked first; paths are compared resolved, so a relative path or a
    symlink names its target."""
    batch_dir = Path(args.batch_dir).resolve()
    reads = [*batch_paths, *Path(args.model_dir).glob("*")]
    if args.images is not None:
        reads += [Path(args.images), *Path(args.weights_dir).glob("*.csv")]
    inputs = {path.resolve(): path for path in reads}
    for flag, path in (("--out", args.out), ("--report", args.report)):
        if path is None:
            continue
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise ValueError(f"{path}: cannot write here: it must name a file in an existing directory")
        target = Path(path).resolve()
        if target in inputs:
            raise ValueError(f"{flag} {path} names {inputs[target]}, a file this run reads")
        if target.parent == batch_dir and target.name.endswith(CT_SUFFIX):
            raise ValueError(f"{flag} {path} is a {CT_SUFFIX} file in --batch-dir, which the next run would read as a batch")
    if args.report is not None and Path(args.report).resolve() == Path(args.out).resolve():
        raise ValueError(f"--out {args.out} and --report {args.report} name the same file")


def _ops_json(meter: OpMeter) -> dict:
    return {
        "add": meter.add_count,
        "mul": meter.mul_count,
        "cmul": meter.cmul_count,
        "rot": meter.rot_count,
        "enc": meter.enc_count,
        "max_depth": meter.max_depth,
        "rot_keys": len(meter.rot_offsets),
    }


def _cmd_cloud_infer(args) -> int:
    batch_paths = sorted(Path(args.batch_dir).glob(f"*{CT_SUFFIX}"))
    if not batch_paths:
        raise ValueError(f"no batch files under {args.batch_dir}")
    if (args.images is None) != (args.weights_dir is None):
        raise ValueError("--images and --weights-dir go together")
    _check_outputs(args, batch_paths)
    params = model_params(args.model_dir)
    model = load_model(SlotEngine(params), args.model_dir)
    images = None
    if args.images is not None:  # the oracle's inputs, checked before any inference runs
        images, weights = load_idx_images(args.images), load_weights_csv(args.weights_dir)
        h, w = model.layout.h, model.layout.w
        if images.shape[1:] != (h, w):
            _, ih, iw = images.shape
            raise ValueError(f"{args.images}: images are {ih}x{iw}, the model expects {h}x{w}")
    # every batch is loaded and its index range checked before any inference runs
    batches = _load_batches(params, batch_paths)
    _check_disjoint(batches)
    if images is not None:
        reach = max((indices.stop for _, _, indices in batches if indices), default=0)
        if reach > images.shape[0]:
            raise ValueError(f"{args.images} holds {images.shape[0]} images, but the batches reach image {reach - 1}")
    scores, stage_totals = _infer_batches(params, model, batches)
    labels = np.argmax(scores, axis=1)
    indices = [index for _, _, batch_indices in batches for index in batch_indices]
    if images is not None:
        problem = _oracle_mismatch(scores, labels, weights, images[indices])
        if problem:
            print(f"verification mismatch: {problem}", file=sys.stderr)
            return 2
        print(f"verified {len(scores)} predictions against the plaintext oracle")

    out_path = Path(args.out)
    with open(out_path, "w") as fh:
        for index, label, row in zip(indices, labels, scores):
            fh.write(json.dumps({"index": index, "label": int(label), "scores": row.tolist()}) + "\n")
    print(f"wrote {len(scores)} predictions to {out_path}")
    if args.report:
        merged = reduce(OpMeter.merged, stage_totals.values())
        report = {
            "batches": len(batches),
            "predictions": len(scores),
            "ops": _ops_json(merged),
            "rot_keys": len(merged.rot_offsets),
            "stages": {name: _ops_json(spent) for name, spent in stage_totals.items()},
        }
        Path(args.report).write_text(json.dumps(report, indent=2))
        print(f"wrote op-meter report to {args.report}")
    return 0


def _cmd_verify(args) -> int:
    """Run the three roles end to end in a scratch directory: owner-encode,
    provider-encode, then cloud-infer given the same images and weights, so
    it checks every prediction against the plaintext oracle."""
    # "--flag=value" keeps a value that starts with "-" from reading as a flag;
    # cloud-infer takes its slot count from the model the provider wrote
    limit = [f"--limit={args.limit}"] if args.limit is not None else []
    with tempfile.TemporaryDirectory(prefix="packedhe-verify-") as tmp:
        batches, model, out = (Path(tmp) / name for name in ("batches", "model", "predictions.jsonl"))
        images, weights = f"--images={args.images}", f"--weights-dir={args.weights_dir}"
        roles = [
            ["owner-encode", images, f"--out-dir={batches}", *limit, f"--slots={args.slots}"],
            ["provider-encode", weights, f"--out-dir={model}", f"--slots={args.slots}"],
            ["cloud-infer", f"--batch-dir={batches}", f"--model-dir={model}", f"--out={out}", images, weights],
        ]
        parser = _build_parser()
        for argv in roles:
            step = parser.parse_args(argv)
            code = step.func(step)
            if code:
                return code
    return 0


def _parse_grid(text: str) -> list:
    grid = []
    for part in text.split(";"):
        try:
            a, b, c = (int(x) for x in part.split(","))
        except ValueError:
            raise ValueError(f"grid entry {part!r} needs 3 integers") from None
        grid.append((a, b, c))
    return grid


def _cmd_bench(args) -> int:
    matmul_grid = _parse_grid(args.matmul_grid) if args.matmul_grid else [(4, 4, 2), (3, 4, 2), (8, 8, 8)]
    conv_grid = _parse_grid(args.conv_grid) if args.conv_grid else [(4, 4, 2), (8, 8, 3), (12, 12, 5)]
    print(format_report(matmul_grid, conv_grid))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like any other bad input; 2 is kept for a
    verification mismatch.  Subparsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="packedhe",
        description="packed-slot homomorphic evaluation toolkit (simulated backend)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def slots(p):
        p.add_argument(
            "--slots",
            type=int,
            default=EngineParams.slots,
            help=f"slots per ciphertext, a power of two from 2 to {MAX_SLOTS} (default {EngineParams.slots})",
        )

    p = sub.add_parser("owner-encode", help="pack images into simulated batch ciphertext files")
    slots(p)
    p.add_argument("--images", required=True, help="IDX image file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--limit", type=int, help="encode only the first N images")
    p.set_defaults(func=_cmd_owner_encode)

    p = sub.add_parser("provider-encode", help="encode model weights for evaluation")
    slots(p)
    p.add_argument("--weights-dir", required=True, help="directory of weight CSV files")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_provider_encode)

    p = sub.add_parser("cloud-infer", help="run inference over packed batches")
    p.add_argument("--batch-dir", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--out", required=True, help="predictions output (JSON lines)")
    p.add_argument("--report", help="write an op-meter report JSON here")
    p.add_argument("--images", help="IDX images to cross-check against the plaintext oracle (with --weights-dir)")
    p.add_argument("--weights-dir", help="weight CSVs for the plaintext oracle (with --images)")
    p.set_defaults(func=_cmd_cloud_infer)

    p = sub.add_parser("verify", help="run the three roles end to end against the plaintext oracle")
    slots(p)
    p.add_argument("--images", required=True)
    p.add_argument("--weights-dir", required=True)
    p.add_argument("--limit", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="measured vs budgeted operation counts")
    p.add_argument("--matmul-grid", help='semicolon-separated "m,n,p" triples')
    p.add_argument("--conv-grid", help='semicolon-separated "h,w,k" triples')
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # EngineError, SerialError and IdxFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
