"""Fuzzing the trust boundary: corrupted batch ciphertexts, IDX files,
weight CSVs and model manifests.

Every corruption must end in SerialError / IdxFormatError / ValueError from
the reader and in exit code 1 with no traceback from the CLI command that
reads it.
"""

import json
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from packedhe.cli import main
from packedhe.datafiles import (
    IdxFormatError,
    load_idx_images,
    load_weights_csv,
    save_weights_csv,
)
from packedhe.serial import MAGIC, SerialError, read_ciphertext

from test_datafiles import write_idx_images
from test_pipeline import random_weights

SLOTS = ["--slots", "2048"]  # 2 images per batch keeps each CLI run short
CORRUPTIONS = ["truncate", "magic", "huge_header", "huge_slots", "deep_header", "non_finite"]
FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """A valid IDX file, a batch written from it and a model, at 2048 slots."""
    tmp = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(7)
    idx = tmp / "images.idx"
    write_idx_images(idx, rng.integers(0, 256, size=(3, 28, 28)))
    save_weights_csv(tmp / "weights", random_weights(rng))
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(tmp / "batches"), "--limit", "2"] + SLOTS) == 0
    assert main(["provider-encode", "--weights-dir", str(tmp / "weights"), "--out-dir", str(tmp / "model")] + SLOTS) == 0
    (batch,) = sorted((tmp / "batches").glob("*.simct"))
    return tmp, idx.read_bytes(), batch.read_bytes()


def _exits_cleanly(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


def _deep_json(draw) -> bytes:
    """JSON nested past the decoder's recursion limit."""
    depth = draw(st.integers(10_000, 200_000))
    return b"[" * depth + b"]" * draw(st.sampled_from([0, depth]))


def _corrupt_ciphertext(data: bytes, kind: str, draw) -> bytes:
    start = len(MAGIC) + 4
    (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "magic":
        magic = draw(st.binary(min_size=len(MAGIC), max_size=len(MAGIC)).filter(lambda m: m != MAGIC))
        return magic + data[len(MAGIC) :]
    if kind == "huge_header":
        return data[: len(MAGIC)] + struct.pack("<I", draw(st.integers(len(data), 2**32 - 1))) + data[start:]
    payload = data[start + hlen :]
    if kind in ("huge_slots", "deep_header"):
        header = json.loads(data[start : start + hlen])
        header["slots"] = draw(st.integers(len(payload) // 8 + 1, 2**62))
        blob = json.dumps(header).encode() if kind == "huge_slots" else _deep_json(draw)
        return MAGIC + struct.pack("<I", len(blob)) + blob + payload
    slot = draw(st.integers(0, len(payload) // 8 - 1))
    value = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    return data[: start + hlen + 8 * slot] + struct.pack("<d", value) + data[start + hlen + 8 * (slot + 1) :]


@FUZZ
@given(kind=st.sampled_from(CORRUPTIONS), data=st.data())
def test_corrupt_batch_ciphertext_fails_cleanly(pipeline_files, tmp_path, capsys, kind, data):
    tmp, _, batch = pipeline_files
    bad = _corrupt_ciphertext(batch, kind, data.draw)
    batch_dir = tmp_path / kind
    batch_dir.mkdir(exist_ok=True)
    path = batch_dir / "batch_00000.simct"
    path.write_bytes(bad)
    with pytest.raises(SerialError, match="batch_00000"):
        read_ciphertext(path)
    out = tmp_path / "preds.jsonl"
    err = _exits_cleanly(
        capsys,
        ["cloud-infer", "--batch-dir", str(batch_dir), "--model-dir", str(tmp / "model"), "--out", str(out)],
    )
    assert path.name in err
    assert not out.exists()


def _corrupt_idx(data: bytes, kind: str, fields: int, draw) -> bytes:
    """Truncate, break the magic, blow up one header count (far past the
    bytes the file holds) of an IDX file with ``fields`` u32 header words, or
    lower its item count, leaving pixels past the end the header gives."""
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "lowered_count":
        (count,) = struct.unpack_from(">I", data, 4)
        return data[:4] + struct.pack(">I", draw(st.integers(0, count - 1))) + data[8:]
    if kind == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != data[:4]))
        return magic + data[4:]
    field = draw(st.integers(1, fields - 1))
    count = draw(st.integers(len(data), 2**32 - 1))
    return data[: 4 * field] + struct.pack(">I", count) + data[4 * (field + 1) :]


@FUZZ
@given(kind=st.sampled_from(["truncate", "magic", "huge_count", "lowered_count"]), data=st.data())
def test_corrupt_idx_images_fail_cleanly(pipeline_files, tmp_path, capsys, kind, data):
    tmp, idx, _ = pipeline_files
    path = tmp_path / "images.idx"
    path.write_bytes(_corrupt_idx(idx, kind, 4, data.draw))
    with pytest.raises(IdxFormatError, match="images.idx"):
        load_idx_images(path)
    _exits_cleanly(capsys, ["owner-encode", "--images", str(path), "--out-dir", str(tmp_path / "b")] + SLOTS)
    assert not (tmp_path / "b").exists()


WEIGHT_FILES = [
    "conv_k0.csv", "conv_bias.csv", "fc1_weight.csv", "fc1_bias.csv",
    "fc2_weight.csv", "fc2_bias.csv", "act1.csv", "act2.csv",
]
NON_FINITE = ["nan", "NaN", "+nan", "inf", "-inf", "Infinity", "1e999", "-1e400"]
# No digit, no letter of "nan"/"inf", no delimiter, comment mark or blank.
NON_NUMERIC = "bcdghjklmopqrsuvwxz@$%?!"


def _corrupt_weights(text: str, kind: str, draw) -> str:
    """Drop or add one value of a row, or replace one value with a
    non-finite or a non-numeric token."""
    rows = [line.split(",") for line in text.splitlines()]
    r = draw(st.integers(0, len(rows) - 1))
    if kind == "drop_value":
        rows[r].pop()
    elif kind == "extra_value":
        rows[r].append(repr(draw(st.floats(-10, 10))))
    else:
        c = draw(st.integers(0, len(rows[r]) - 1))
        token = st.sampled_from(NON_FINITE) if kind == "non_finite" else st.text(NON_NUMERIC, min_size=1, max_size=8)
        rows[r][c] = draw(token)
    return "\n".join(",".join(row) for row in rows) + "\n"


@FUZZ
@given(
    name=st.sampled_from(WEIGHT_FILES),
    kind=st.sampled_from(["drop_value", "extra_value", "non_finite", "non_numeric"]),
    data=st.data(),
)
def test_corrupt_weight_csv_fails_cleanly(pipeline_files, tmp_path, capsys, name, kind, data):
    tmp, _, _ = pipeline_files
    weights = tmp_path / "weights"
    shutil.copytree(tmp / "weights", weights, dirs_exist_ok=True)
    victim = weights / name
    victim.write_text(_corrupt_weights(victim.read_text(), kind, data.draw))
    with pytest.raises(ValueError, match=name):
        load_weights_csv(weights)
    model = tmp_path / "model"
    err = _exits_cleanly(capsys, ["provider-encode", "--weights-dir", str(weights), "--out-dir", str(model)] + SLOTS)
    assert name in err
    assert not model.exists()


@pytest.mark.parametrize("name", WEIGHT_FILES)
@pytest.mark.parametrize("text", ["", "\n\n", "# no values\n"], ids=["empty", "blank_lines", "comment_only"])
def test_weight_csv_without_data_fails_cleanly(pipeline_files, tmp_path, capsys, name, text):
    """A weight file with no values is one error line, not a numpy warning."""
    tmp, _, _ = pipeline_files
    weights = tmp_path / "weights"
    shutil.copytree(tmp / "weights", weights)
    (weights / name).write_text(text)
    model = tmp_path / "model"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=name):
            load_weights_csv(weights)
        err = _exits_cleanly(capsys, ["provider-encode", "--weights-dir", str(weights), "--out-dir", str(model)] + SLOTS)
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == 1 and name in err and "expected shape" in err
    assert not model.exists()


def test_cli_rejects_unreadable_inputs(pipeline_files, tmp_path, capsys):
    """A directory where a file belongs, and JSON nested past the decoder's
    recursion limit in a model manifest."""
    _, _, batch = pipeline_files
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 200_000)
    batches = tmp_path / "batches"
    batches.mkdir()
    (batches / "batch_00000.simct").write_bytes(batch)
    model = tmp_path / "model"
    model.mkdir()
    (model / "manifest.json").write_bytes(deep.read_bytes())
    infer = ["cloud-infer", "--batch-dir", str(batches), "--out", str(tmp_path / "p.jsonl")]
    for argv, named in (
        (["owner-encode", "--images", str(tmp_path), "--out-dir", str(tmp_path / "b")], tmp_path),
        (infer + ["--model-dir", str(model)], model / "manifest.json"),
    ):
        assert str(named) in _exits_cleanly(capsys, argv)


MANIFEST_KEYS = ["format", "layout.m", "layout.f", "layout.h", "layout.w"]
# What older writers also recorded of the model's structure, which follows
# from the layout and which the loader no longer reads.
STALE_KEYS = [
    "kernel_count", "kernel_k", "fc1_blocks", "fc1_chunks", "fc1_block_p",
    "fc2_blocks", "fc2_chunks", "fc2_block_p", "ciphertext_count",
]
MANIFEST_VALUES = st.one_of(
    st.integers(-2, 40), st.integers(-(2**64), 2**64), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(0, 4), max_size=3), st.none(),
)


@FUZZ
@given(key=st.sampled_from(MANIFEST_KEYS), delete=st.booleans(), data=st.data())
def test_tampered_manifest_fails_cleanly(pipeline_files, tmp_path, capsys, key, delete, data):
    """One structural manifest key replaced by a different value, or deleted."""
    tmp, _, _ = pipeline_files
    model = tmp_path / "model"
    if not model.exists():
        shutil.copytree(tmp / "model", model)
    manifest = json.loads((tmp / "model" / "manifest.json").read_text())
    *parents, name = key.split(".")
    owner = manifest[parents[0]] if parents else manifest
    if delete:
        del owner[name]
    else:
        old = owner[name]
        owner[name] = data.draw(MANIFEST_VALUES.filter(lambda v: type(v) is not type(old) or v != old))
    (model / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "preds.jsonl"
    out.unlink(missing_ok=True)  # tmp_path is shared by every example
    _exits_cleanly(
        capsys, ["cloud-infer", "--batch-dir", str(tmp / "batches"), "--model-dir", str(model), "--out", str(out)]
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "fmt",
    [
        None,
        "simulated-plaintext-slots-v1",
        "simulated-model-interleaved-fc-v2",
        "simulated-model-grouped-fc-v3",
        "simulated-model-costed-fc-v4",
    ],
    ids=["missing", "block-separated-fc", "ungrouped-fc", "bias-seed-per-block", "four-fc1-chunks"],
)
def test_model_in_an_older_layout_is_rejected(pipeline_files, tmp_path, capsys, fmt):
    """A manifest without this layout's format name (one written before the
    FC neuron blocks were interleaved, before their tiles moved to the
    grouped fold's lane offset, before the blocks were chosen by cost
    with one bias seed per layer, or before fc1 read all four maps from
    three chunks, whose files would load and score wrong or not at all)
    fails at load, in one line that names the manifest and
    says to re-encode the model."""
    tmp, _, _ = pipeline_files
    model = tmp_path / "model"
    shutil.copytree(tmp / "model", model)
    manifest = json.loads((model / "manifest.json").read_text())
    if fmt is None:
        del manifest["format"]
    else:
        manifest["format"] = fmt
    (model / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "preds.jsonl"
    err = _exits_cleanly(
        capsys, ["cloud-infer", "--batch-dir", str(tmp / "batches"), "--model-dir", str(model), "--out", str(out)]
    )
    assert len(err.splitlines()) == 1 and "'format'" in err and "re-run provider-encode" in err
    assert str(model / "manifest.json") in err
    assert not out.exists()


@settings(FUZZ, max_examples=15)  # each example runs cloud-infer against the oracle
@given(stale=st.dictionaries(st.sampled_from(STALE_KEYS), MANIFEST_VALUES))
def test_stale_structure_keys_change_nothing(pipeline_files, tmp_path, capsys, stale):
    """Manifest keys that record the model's structure, at any value or
    absent, are not read: the model still verifies against the oracle and
    scores as with the manifest provider-encode wrote."""
    tmp, _, _ = pipeline_files
    verify = ["--images", str(tmp / "images.idx"), "--weights-dir", str(tmp / "weights")]
    infer = ["cloud-infer", "--batch-dir", str(tmp / "batches"), *verify]
    fresh = tmp_path / "fresh.jsonl"
    if not fresh.exists():  # tmp_path is shared by every example
        assert main(infer + ["--model-dir", str(tmp / "model"), "--out", str(fresh)]) == 0
    model = tmp_path / "model"
    if not model.exists():
        shutil.copytree(tmp / "model", model)
    manifest = json.loads((tmp / "model" / "manifest.json").read_text())
    manifest.update(stale)
    (model / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "stale.jsonl"
    assert main(infer + ["--model-dir", str(model), "--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("name", ["kernel2_span8", "kernel3_bias", "fc1_w_b1_c2", "fc2_bias"])
def test_model_missing_a_ciphertext_fails_cleanly(pipeline_files, tmp_path, capsys, name):
    """A model directory without one of its ciphertext files (a kernel
    span, a kernel bias, an FC weight tile or an FC bias seed) fails at
    load, in one error line naming the file."""
    tmp, _, _ = pipeline_files
    model = tmp_path / "model"
    shutil.copytree(tmp / "model", model)
    missing = model / f"{name}.simct"
    missing.unlink()
    out = tmp_path / "preds.jsonl"
    err = _exits_cleanly(
        capsys, ["cloud-infer", "--batch-dir", str(tmp / "batches"), "--model-dir", str(model), "--out", str(out)]
    )
    assert len(err.splitlines()) == 1 and str(missing) in err
    assert not out.exists()


@pytest.mark.parametrize("overflow", ["manifest-act1", "csv-1e300"])
def test_overflowing_model_fails_cleanly(pipeline_files, tmp_path, capsys, overflow):
    """Finite model values whose products overflow float64 end in one error
    line naming the batch: no numpy warning and no NaN predictions."""
    tmp, _, _ = pipeline_files
    model = tmp_path / "model"
    if overflow == "manifest-act1":
        shutil.copytree(tmp / "model", model)
        manifest = json.loads((model / "manifest.json").read_text())
        manifest["act1"] = [0.0, 1e300, 0.0, 0.0]
        (model / "manifest.json").write_text(json.dumps(manifest))
    else:
        weights = tmp_path / "weights"
        shutil.copytree(tmp / "weights", weights)
        (weights / "conv_k0.csv").write_text("1e300,1e300,1e300\n" * 3)
        assert main(["provider-encode", "--weights-dir", str(weights), "--out-dir", str(model)] + SLOTS) == 0
    (batch,) = sorted((tmp / "batches").glob("*.simct"))
    out = tmp_path / "preds.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _exits_cleanly(
            capsys, ["cloud-infer", "--batch-dir", str(tmp / "batches"), "--model-dir", str(model), "--out", str(out)]
        )
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == 1 and batch.name in err and "non-finite" in err
    assert not out.exists()
