"""On-disk formats for packed batches and encoded models.

A "ciphertext" file here is a SIMULATED plaintext slot vector, named and
tagged as such so nobody mistakes the artifact for real encryption:
magic, a little-endian uint32 header length, a JSON header (format name,
slot count, depth, metadata) and raw little-endian float64 slots.  Round
trips are bit-exact.  The header holds no layout of its own: a batch
records its image layout in its metadata, and a model its image layout
in the manifest, each under the keys of ``VirtualLayout``'s fields (m, f,
h, w).  A model records nothing else of its structure: the loader
derives the kernels and the FC tiles from the layout, as the encoder
does (:func:`pipeline.fc_blocking`), and its activations must have their
``pipeline.WEIGHT_SHAPES`` lengths.  Its ciphertext files are named once,
in the order of ``EncodedModel.ciphertexts``, for the writer and the
loader alike.
"""

import json
import math
import struct
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from .conv import ImageShape, KernelSpan
from .engine import Ciphertext, EngineError, EngineParams, SlotEngine
from .matmul import FcTiles
from .pipeline import FC_LAYERS, KERNEL_COUNT, KERNEL_SIZE, WEIGHT_SHAPES, EncodedModel, batch_layout, fc_blocking
from .virtual import VirtualLayout

__all__ = [
    "SerialError",
    "CT_SUFFIX",
    "write_ciphertext",
    "read_ciphertext",
    "load_ciphertext",
    "write_batch",
    "load_batch",
    "load_indexed_batch",
    "write_model",
    "model_params",
    "load_model",
]

MAGIC = b"SIMCT\x01"
FORMAT_NAME = "simulated-plaintext-slots-v1"
# The model manifest's own format: FC weight tiles hold interleaved neuron
# blocks (neuron q at lane q) from the lane offset of their grouped row
# fold, in the blocks ``fc_blocking`` chooses by rotation cost, fc1's over
# three input chunks that hold all four maps (``pipeline.flatten_lanes``),
# and each layer's one bias seed holds bias q at lane q.  A model written
# in an older layout would load and score wrong, so the name changes
# whenever the tile or bias layout does.
MODEL_FORMAT = "simulated-model-dense-fc1-v5"
CT_SUFFIX = ".simct"  # SIMulated CipherText; contents are NOT encrypted


class SerialError(ValueError):
    """Corrupt or incompatible serialized file."""


def write_ciphertext(path, ct: Ciphertext, meta: dict | None = None) -> None:
    slots = ct.slots
    header = {
        "format": FORMAT_NAME,
        "slots": int(slots.size),
        "depth": int(ct.depth),
        "meta": meta or {},
    }
    blob = json.dumps(header).encode("utf-8")
    payload = np.asarray(slots, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def read_ciphertext(path) -> tuple[np.ndarray, dict]:
    data = Path(path).read_bytes()
    if not data.startswith(MAGIC):
        raise SerialError(f"{path}: not a {FORMAT_NAME} file")
    if len(data) < len(MAGIC) + 4:
        raise SerialError(f"{path}: truncated header")
    (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
    hstart = len(MAGIC) + 4
    if len(data) < hstart + hlen:
        raise SerialError(f"{path}: truncated header")
    try:
        header = json.loads(data[hstart : hstart + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SerialError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise SerialError(f"{path}: header must be a JSON object")
    slots = _count(path, header, "slots")
    depth = header.get("depth")
    if type(depth) is not int or depth < 0:
        raise SerialError(f"{path}: 'depth' must be a non-negative integer, got {depth!r}")
    payload = data[hstart + hlen :]
    if len(payload) != 8 * slots:
        raise SerialError(f"{path}: payload size mismatch")
    # copied, not viewed in place: unaligned at odd offsets, model tiles slowed a forward pass about 23 -> 29 ms
    vec = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        raise SerialError(f"{path}: {bad.size} non-finite slot values (first at slot {bad[0]})")
    vec.flags.writeable = False
    return vec, header


def load_ciphertext(engine: SlotEngine, path) -> tuple[Ciphertext, dict]:
    """Deserialize without touching the enc meter (the producer encrypted it)."""
    vec, header = read_ciphertext(path)
    if vec.size != engine.slots:
        raise SerialError(
            f"{path}: file has {vec.size} slots, engine expects {engine.slots}"
        )
    return Ciphertext(vec, 0, header["depth"]), header


def write_batch(path, ct: Ciphertext, layout: VirtualLayout, valid_rows: int, first_index: int) -> None:
    """Write an image batch; ``first_index`` is the dataset index of its
    first image, so the batch's rows are images first_index, first_index+1, ..."""
    write_ciphertext(
        path,
        ct,
        meta={
            "kind": "image-batch",
            "valid_rows": int(valid_rows),
            "first_index": int(first_index),
            **asdict(layout),
        },
    )


def _count(path, mapping, key: str) -> int:
    """mapping[key], which must be a positive integer."""
    value = mapping.get(key) if isinstance(mapping, dict) else None
    if type(value) is not int or value < 1:
        raise SerialError(f"{path}: {key!r} must be a positive integer, got {value!r}")
    return value


def _layout(path, mapping, slots: int | None = None) -> VirtualLayout:
    """The image layout recorded under mapping's keys named for the
    ``VirtualLayout`` fields, which must be the batch layout of ``slots``
    slots (by default of its own m * f)."""
    keys = [field.name for field in fields(VirtualLayout)]
    recorded = tuple(_count(path, mapping, key) for key in keys)
    slots = recorded[0] * recorded[1] if slots is None else slots
    try:
        layout = batch_layout(slots)
    except EngineError as exc:
        raise SerialError(f"{path}: {exc}") from exc
    if recorded != astuple(layout):
        raise SerialError(f"{path}: ({', '.join(keys)}) is {recorded}, not {layout}, the batch layout of {slots} slots")
    return layout


def load_indexed_batch(engine: SlotEngine, path) -> tuple[Ciphertext, VirtualLayout, int, int]:
    """Load an image batch as (ct, layout, valid_rows, first_index)."""
    ct, header = load_ciphertext(engine, path)
    meta = header.get("meta", {})
    if not isinstance(meta, dict) or meta.get("kind") != "image-batch":
        raise SerialError(f"{path}: not an image batch file")
    layout = _layout(path, meta, engine.slots)
    valid = _count(path, meta, "valid_rows")
    if valid > layout.m:
        raise SerialError(f"{path}: {valid} valid rows exceed {layout.m} image blocks")
    first = meta.get("first_index")
    if type(first) is not int or first < 0:
        raise SerialError(f"{path}: 'first_index' must be a non-negative integer, got {first!r}")
    return ct, layout, valid, first


def load_batch(engine: SlotEngine, path) -> tuple[Ciphertext, VirtualLayout, int]:
    """Load an image batch as (ct, layout, valid_rows)."""
    return load_indexed_batch(engine, path)[:3]


def _model_names(folds) -> list[str]:
    """The file name of each ciphertext of a model whose FC layers have
    the plans ``folds`` (in ``FC_LAYERS`` order), in the order of
    ``EncodedModel.ciphertexts``."""
    spans = [f"span{si}" for si in range(KERNEL_SIZE**2)]
    names = [f"kernel{ki}_{part}" for ki in range(KERNEL_COUNT) for part in (*spans, "bias")]
    for name, fold in zip(FC_LAYERS, folds, strict=True):
        names += [f"{name}_w_b{b}_c{c}" for b in range(fold.blocks) for c in range(fold.chunks)] + [f"{name}_bias"]
    return [name + CT_SUFFIX for name in names]


def _coefficients(path, manifest: dict, key: str) -> tuple:
    """manifest[key], a list of as many finite numbers as its ``WEIGHT_SHAPES`` entry."""
    values, (size,) = manifest.get(key), WEIGHT_SHAPES[key]
    finite = isinstance(values, list) and all(type(v) in (int, float) and math.isfinite(v) for v in values)
    if not (finite and len(values) == size):
        raise SerialError(f"{path}: {key!r} must be a list of {size} finite numbers, got {values!r}")
    return tuple(values)


def write_model(directory, model: EncodedModel) -> int:
    """Write an encoded model as a directory of files plus a manifest.

    Returns the number of ciphertext files written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = _model_names((model.fc1.fold, model.fc2.fold))
    for name, ct in zip(names, model.ciphertexts, strict=True):
        write_ciphertext(directory / name, ct)
    manifest = {
        "format": MODEL_FORMAT,
        "act1": list(map(float, model.act1)),
        "act2": list(map(float, model.act2)),
        "layout": asdict(model.layout),
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return len(names)


def _read_manifest(directory: Path, slots: int | None = None) -> tuple[Path, dict, VirtualLayout]:
    """The model manifest as (path, parsed JSON object, image layout); the
    layout must be the batch layout of ``slots`` (by default of its m * f)."""
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise SerialError(f"missing model manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SerialError(f"{manifest_path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SerialError(f"{manifest_path}: manifest must be a JSON object")
    if manifest.get("format") != MODEL_FORMAT:
        raise SerialError(
            f"{manifest_path}: 'format' is {manifest.get('format')!r}, expected {MODEL_FORMAT!r}; "
            f"re-run provider-encode to write the model in this layout"
        )
    return manifest_path, manifest, _layout(f"{manifest_path}: 'layout'", manifest.get("layout"), slots)


def model_params(directory) -> EngineParams:
    """Engine parameters of a model directory: every ciphertext in it holds
    m * f slots, from the manifest's image layout."""
    manifest_path, _, layout = _read_manifest(Path(directory))
    try:
        return EngineParams(slots=layout.m * layout.f)
    except EngineError as exc:
        raise SerialError(f"{manifest_path}: 'layout' {layout.m} x {layout.f} is no slot count: {exc}") from exc


def load_model(engine: SlotEngine, directory) -> EncodedModel:
    """Load a model directory, whose kernels and FC tiles follow from the
    manifest's layout (the batch layout of the engine's slot count); other
    manifest keys than format, activations and layout are ignored."""
    directory = Path(directory)
    manifest_path, manifest, layout = _read_manifest(directory, engine.slots)
    plans = fc_blocking(layout).values()
    cts = (load_ciphertext(engine, directory / name)[0] for name in _model_names(plans))
    shape = ImageShape(layout.h, layout.w)
    spans = [
        KernelSpan([next(cts) for _ in range(KERNEL_SIZE**2)], next(cts), KERNEL_SIZE, shape)
        for _ in range(KERNEL_COUNT)
    ]
    fcs = [FcTiles([[next(cts) for _ in range(f.chunks)] for _ in range(f.blocks)], next(cts), f) for f in plans]
    act1, act2 = (_coefficients(manifest_path, manifest, key) for key in ("act1", "act2"))
    return EncodedModel(spans, *fcs, act1, act2, layout)
