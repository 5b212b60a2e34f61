import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from packedhe.cli import _infer_batches, _load_batches, main
from packedhe.datafiles import save_weights_csv
from packedhe.engine import MAX_SLOTS, EngineParams, SlotEngine
from packedhe.oracle import oracle_forward
from packedhe.pipeline import FC2_OUT, forward_encoded, pack_batch
from packedhe.serial import MAGIC, load_model, write_batch
from packedhe.virtual import VirtualLayout

from test_datafiles import write_idx_images
from test_pipeline import fc_counts, mnist_fc_shapes, random_weights
from test_primitive_calls import MNIST_STAGE_KEYS


@pytest.fixture
def workspace(tmp_path, rng):
    images = rng.integers(0, 256, size=(40, 28, 28)).astype(np.uint8)
    idx = tmp_path / "images.idx"
    write_idx_images(idx, images)
    weights_dir = tmp_path / "weights"
    weights = random_weights(rng)
    save_weights_csv(weights_dir, weights)
    return tmp_path, idx, weights_dir, weights, images


def test_owner_encode_batches(workspace, capsys):
    tmp, idx, _, _, _ = workspace
    out = tmp / "batches"
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(out)]) == 0
    files = sorted(out.glob("*.simct"))
    assert len(files) == 2  # 40 images -> 32 + 8(padded)
    assert "zero-filled by 24" in capsys.readouterr().out


def test_owner_encode_single_batch(workspace):
    tmp, idx, _, _, _ = workspace
    out = tmp / "one"
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(out), "--limit", "32"]) == 0
    assert len(sorted(out.glob("*.simct"))) == 1


def test_owner_encode_empty_input_fails(workspace):
    tmp, idx, _, _, _ = workspace
    out = tmp / "none"
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(out), "--limit", "0"]) == 1
    assert not out.exists()


def test_owner_encode_refuses_a_directory_that_holds_batches(workspace, capsys):
    """Encoding 4 images where 12 were encoded before would leave the old
    batches beside the new one, and cloud-infer would score all of them:
    owner-encode exits 1 before it writes, naming the directory and the
    count, and leaves the old files as they are."""
    tmp, idx, _, _, _ = workspace
    out = tmp / "batches"
    small = ["--slots", "2048"]
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(out), "--limit", "12"] + small) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(before) == 6
    capsys.readouterr()
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(out), "--limit", "4"] + small) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out} already holds 6 .simct files; choose an empty --out-dir\n"
    assert "packed" not in captured.out
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_owner_encode_wrong_image_shape_leaves_no_output(tmp_path, rng, capsys):
    idx = tmp_path / "small.idx"
    write_idx_images(idx, rng.integers(0, 256, size=(5, 16, 16)).astype(np.uint8))
    out = tmp_path / "batches"
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "images are 16x16, layout expects 28x28" in err and "Traceback" not in err
    assert not out.exists()


def test_provider_encode_counts(workspace, capsys):
    tmp, _, weights_dir, _, _ = workspace
    out = tmp / "model"
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(out)]) == 0
    assert "50 ciphertext files" in capsys.readouterr().out
    assert len(sorted(out.glob("*.simct"))) == 50


def test_provider_encode_missing_file(workspace, capsys):
    tmp, _, weights_dir, _, _ = workspace
    (weights_dir / "fc2_bias.csv").unlink()
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(tmp / "m")]) == 1
    assert "fc2_bias.csv" in capsys.readouterr().err


def test_cloud_infer_end_to_end(workspace, monkeypatch):
    tmp, idx, weights_dir, weights, images = workspace
    batches, model = tmp / "b", tmp / "m"
    preds = tmp / "preds.jsonl"
    report = tmp / "report.json"
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(batches)]) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)]) == 0
    # An independent rotation-key count, taken around the engine's own.
    seen = set()
    rot = SlotEngine.rot

    def counting_rot(engine, ct, l):
        seen.add(l % engine.slots)
        return rot(engine, ct, l)

    monkeypatch.setattr(SlotEngine, "rot", counting_rot)
    assert (
        main(
            [
                "cloud-infer",
                "--batch-dir", str(batches),
                "--model-dir", str(model),
                "--out", str(preds),
                "--report", str(report),
            ]
        )
        == 0
    )
    records = [json.loads(line) for line in preds.read_text().splitlines()]
    assert len(records) == 40  # padding rows dropped
    assert [r["index"] for r in records] == list(range(40))
    want = oracle_forward(weights, images.astype(float) / 255.0)
    got = np.array([r["scores"] for r in records])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)
    assert all(r["label"] == int(np.argmax(want[i])) for i, r in enumerate(records))
    summary = json.loads(report.read_text())
    ops, stages = summary["ops"], summary["stages"]
    assert ops["max_depth"] == 13 and ops["rot"] > 0
    assert list(stages) == ["conv", "act1", "flatten", "fc1", "act2", "fc2"]
    for key in ("add", "mul", "cmul", "rot", "enc"):
        assert sum(s[key] for s in stages.values()) == ops[key]
    assert max(s["max_depth"] for s in stages.values()) == ops["max_depth"]
    fc1_rot, _, _ = fc_counts(*mnist_fc_shapes()[0])
    assert summary["batches"] == 2 and stages["fc1"]["rot"] == 2 * fc1_rot
    assert summary["rot_keys"] == ops["rot_keys"] == len(seen) == 31
    assert {name: s["rot_keys"] for name, s in stages.items()} == MNIST_STAGE_KEYS


def test_cloud_infer_decodes_each_batch_once(workspace, monkeypatch):
    """A batch's scores and labels come from one decode of its score
    ciphertext."""
    tmp, idx, weights_dir, _, _ = workspace
    batches, model_dir = tmp / "b", tmp / "m"
    small = ["--slots", "2048"]
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "6"] + small) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model_dir)] + small) == 0
    params = EngineParams(slots=2048)
    model = load_model(SlotEngine(params), model_dir)
    loaded = _load_batches(params, sorted(batches.glob("*.simct")))
    decoded = []
    dec = SlotEngine.dec
    monkeypatch.setattr(SlotEngine, "dec", lambda engine, ct: decoded.append(ct) or dec(engine, ct))
    scores, _ = _infer_batches(params, model, loaded)
    assert len(decoded) == len(loaded) == 3
    assert scores.shape == (6, FC2_OUT)


# sha256 of the predictions file and the --report JSON of the run below
CLOUD_INFER_SHA256 = {
    "predictions": "498379f38380ac01ba95252b25d41ff2776fc91235196e4ae65ae8c206206f5d",
    "report": "d4fb19c5cdd0e585fcb416a46ee9d4a654d5734e79fa0d3700c917903ccb1db8",
}


def test_cloud_infer_output_is_pinned(workspace, capsys):
    """A 2048-slot run over the 40 workspace images (20 batches), checked
    against the oracle: its predictions and report, byte for byte."""
    tmp, idx, weights_dir, _, _ = workspace
    batches, model_dir, preds, report = tmp / "b", tmp / "m", tmp / "p.jsonl", tmp / "r.json"
    small = ["--slots", "2048"]
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(batches)] + small) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model_dir)] + small) == 0
    argv = ["cloud-infer", f"--batch-dir={batches}", f"--model-dir={model_dir}", f"--out={preds}", f"--report={report}"]
    assert main(argv + [f"--images={idx}", f"--weights-dir={weights_dir}"]) == 0
    assert "verified 40 predictions" in capsys.readouterr().out
    written = {"predictions": preds, "report": report}
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in written.items()} == CLOUD_INFER_SHA256


def test_cloud_infer_verify_flag(workspace, capsys):
    tmp, idx, weights_dir, _, _ = workspace
    batches, model = tmp / "b3", tmp / "m3"
    main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "32"])
    main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)])
    out = tmp / "p.jsonl"
    args = ["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(out)]
    capsys.readouterr()
    # the cross-check needs both plaintext inputs; one alone is a usage error
    for given in (["--images", str(idx)], ["--weights-dir", str(weights_dir)]):
        assert main(args + given) == 1
        assert capsys.readouterr().err == "error: --images and --weights-dir go together\n"
    assert not out.exists()
    assert main(args + ["--images", str(idx), "--weights-dir", str(weights_dir)]) == 0
    assert "verified 32 predictions" in capsys.readouterr().out


def test_cloud_infer_rejects_verify_images_of_another_size(workspace, rng, capsys):
    """Images to check against that are not the model's size fail by file
    name before inference, with no traceback and no predictions file."""
    tmp, idx, weights_dir, _, _ = workspace
    batches, model, out = tmp / "b2k", tmp / "m2k", tmp / "p2k.jsonl"
    slots = ["--slots", "2048"]
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "4"] + slots) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)] + slots) == 0
    wide = tmp / "images30.idx"
    write_idx_images(wide, rng.integers(0, 256, size=(4, 30, 30)).astype(np.uint8))
    capsys.readouterr()
    argv = ["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(out)]
    assert main(argv + ["--images", str(wide), "--weights-dir", str(weights_dir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {wide}: images are 30x30, the model expects 28x28\n"
    assert not out.exists()


def test_cloud_infer_missing_batch_keeps_indices(workspace, rng, capsys):
    # a middle batch file gone: the others keep their own image indices
    tmp, idx40, weights_dir, _, _ = workspace
    images = rng.integers(0, 256, size=(72, 28, 28)).astype(np.uint8)
    idx = tmp / "images72.idx"
    write_idx_images(idx, images)
    batches, model = tmp / "b10", tmp / "m10"
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(batches)]) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)]) == 0
    (batches / "batch_00001.simct").unlink()
    out = tmp / "gap.jsonl"
    args = ["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(out)]
    assert main(args + ["--images", str(idx), "--weights-dir", str(weights_dir)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["index"] for r in records] == list(range(32)) + list(range(64, 72))
    # the 40-image file lacks images 64..71: bad input, found before inference
    capsys.readouterr()
    assert main(args + ["--images", str(idx40), "--weights-dir", str(weights_dir)]) == 1
    assert capsys.readouterr().err == f"error: {idx40} holds 40 images, but the batches reach image 71\n"


def test_cloud_infer_checks_batch_indices_before_inference(workspace, rng, monkeypatch, capsys):
    """The batch headers give every index range, so an --images file too
    short for them and overlapping batches fail before any forward pass,
    with one error line and no predictions file."""
    tmp, idx, weights_dir, _, _ = workspace
    batches, model, out = tmp / "b2k", tmp / "m2k", tmp / "p2k.jsonl"
    slots = ["--slots", "2048"]  # two batches of 2 images: indices 0..3
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "4"] + slots) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)] + slots) == 0
    short = tmp / "images2.idx"
    write_idx_images(short, rng.integers(0, 256, size=(2, 28, 28)).astype(np.uint8))
    passes = []

    def counting_forward(*args, **kwargs):
        passes.append(args[1])
        return forward_encoded(*args, **kwargs)

    monkeypatch.setattr("packedhe.cli.forward_encoded", counting_forward)
    capsys.readouterr()
    argv = ["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(out)]
    assert main(argv + ["--images", str(short), "--weights-dir", str(weights_dir)]) == 1
    assert capsys.readouterr().err == f"error: {short} holds 2 images, but the batches reach image 3\n"
    assert passes == [] and not out.exists()

    copy = batches / "batch_00007.simct"
    copy.write_bytes((batches / "batch_00001.simct").read_bytes())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {copy}: images from index 2") and len(err.splitlines()) == 1
    assert passes == [] and not out.exists()

    copy.unlink()  # the counter sees the passes of a run that goes ahead
    assert main(argv + ["--images", str(idx), "--weights-dir", str(weights_dir)]) == 0
    assert len(passes) == 2 and out.exists()


def test_cloud_infer_checks_output_paths_before_inference(workspace, monkeypatch, capsys):
    """An --out or --report path in a missing directory, or naming a
    directory, fails before any forward pass, with one error line naming
    the path and no predictions file."""
    tmp, idx, weights_dir, _, _ = workspace
    batches, model, out = tmp / "b2k", tmp / "m2k", tmp / "p2k.jsonl"
    slots = ["--slots", "2048"]  # two batches of 2 images
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "4"] + slots) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)] + slots) == 0
    passes = []

    def counting_forward(*args, **kwargs):
        passes.append(args[1])
        return forward_encoded(*args, **kwargs)

    monkeypatch.setattr("packedhe.cli.forward_encoded", counting_forward)
    capsys.readouterr()
    argv = ["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model)]
    missing = tmp / "nodir"
    for outputs, bad in (
        (["--out", str(out), "--report", str(missing / "r.json")], missing / "r.json"),
        (["--out", str(missing / "p.jsonl")], missing / "p.jsonl"),
        (["--out", str(tmp)], tmp),
        (["--out", str(out), "--report", str(model)], model),
    ):
        assert main(argv + outputs) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: cannot write here") and len(err.splitlines()) == 1
        assert passes == [] and not out.exists() and not missing.exists()

    assert main(argv + ["--out", str(out), "--report", str(tmp / "r.json")]) == 0
    assert len(passes) == 2 and out.exists() and (tmp / "r.json").exists()


ORACLE_INPUTS = ["--images", "images.idx", "--weights-dir", "weights"]
ADDS_A_BATCH = "is a .simct file in --batch-dir, which the next run would read as a batch"


@pytest.mark.parametrize(
    "outputs, links, error",
    [
        (["--out", "p.jsonl", "--report", "p.jsonl"], {}, "--out p.jsonl and --report p.jsonl name the same file"),
        (["--out", "p.jsonl", "--report", "./p.jsonl"], {}, "--out p.jsonl and --report ./p.jsonl name the same file"),
        (["--out", "p.jsonl", "--report", "r.link"], {"r.link": "p.jsonl"}, "--out p.jsonl and --report r.link name the same file"),
        (["--out", "m2k/manifest.json"], {}, "--out m2k/manifest.json names m2k/manifest.json, a file this run reads"),
        (["--out", "./b2k/../m2k/manifest.json"], {}, "--out ./b2k/../m2k/manifest.json names m2k/manifest.json, a file this run reads"),
        (["--out", "p.jsonl", "--report", "m2k/fc1_bias.simct"], {}, "--report m2k/fc1_bias.simct names m2k/fc1_bias.simct, a file this run reads"),
        (["--out", "b2k/batch_00001.simct"], {}, "--out b2k/batch_00001.simct names b2k/batch_00001.simct, a file this run reads"),
        (["--out", "p.link"], {"p.link": "b2k/batch_00000.simct"}, "--out p.link names b2k/batch_00000.simct, a file this run reads"),
        (["--out", "p.jsonl", "--report", "images.idx"] + ORACLE_INPUTS, {}, "--report images.idx names images.idx, a file this run reads"),
        (["--out", "weights/fc1_weight.csv"] + ORACLE_INPUTS, {}, "--out weights/fc1_weight.csv names weights/fc1_weight.csv, a file this run reads"),
        (["--out", "b2k/preds.simct"], {}, f"--out b2k/preds.simct {ADDS_A_BATCH}"),
        (["--out", "p.jsonl", "--report", "./b2k/r.simct"], {}, f"--report ./b2k/r.simct {ADDS_A_BATCH}"),
        (["--out", "p.link"], {"p.link": "b2k/p.simct"}, f"--out p.link {ADDS_A_BATCH}"),
    ],
    ids=[
        "out-is-report",
        "out-is-report-relative",
        "report-links-to-out",
        "out-is-the-manifest",
        "out-is-the-manifest-relative",
        "report-is-a-model-tile",
        "out-is-a-batch",
        "out-links-to-a-batch",
        "report-is-the-images",
        "out-is-a-weight-csv",
        "out-adds-a-batch",
        "report-adds-a-batch",
        "out-links-to-a-new-batch",
    ],
)
def test_cloud_infer_refuses_outputs_that_collide(workspace, monkeypatch, capsys, outputs, links, error):
    """--out and --report naming one file, either naming a file the run
    reads, or either adding a .simct file to --batch-dir, which the next
    run would take for a batch (compared resolved, so relative paths and
    symlinks count), exit 1 before any batch loads, with one error line
    naming the paths; no file is written and every input keeps its bytes."""
    tmp, idx, weights_dir, _, _ = workspace
    slots = ["--slots", "2048"]  # two batches of 2 images
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(tmp / "b2k"), "--limit", "4"] + slots) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(tmp / "m2k")] + slots) == 0
    for name, target in links.items():
        (tmp / name).symlink_to(target)
    monkeypatch.chdir(tmp)
    before = {path: path.read_bytes() for path in tmp.rglob("*") if path.is_file()}
    loads = []
    monkeypatch.setattr("packedhe.cli.load_indexed_batch", lambda *args: loads.append(args))
    capsys.readouterr()
    assert main(["cloud-infer", "--batch-dir", "b2k", "--model-dir", "m2k"] + outputs) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert loads == []
    assert {path: path.read_bytes() for path in tmp.rglob("*") if path.is_file()} == before


def test_cloud_infer_writes_other_names_in_the_batch_dir(workspace):
    """--out and --report may name files in --batch-dir that are no batch
    files, and the next run over that directory scores the same batches."""
    tmp, idx, weights_dir, _, _ = workspace
    batches, model = tmp / "b2k", tmp / "m2k"
    slots = ["--slots", "2048"]  # two batches of 2 images
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "4"] + slots) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)] + slots) == 0
    argv = ["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model)]
    assert main(argv + ["--out", str(batches / "preds.jsonl"), "--report", str(batches / "report.json")]) == 0
    assert main(argv + ["--out", str(tmp / "again.jsonl")]) == 0
    assert (tmp / "again.jsonl").read_bytes() == (batches / "preds.jsonl").read_bytes()


def test_cloud_infer_rejects_overlapping_batches(workspace, capsys):
    tmp, idx, weights_dir, _, _ = workspace
    batches, model = tmp / "b11", tmp / "m11"
    main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "32"])
    main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)])
    copy = batches / "batch_00007.simct"
    copy.write_bytes((batches / "batch_00000.simct").read_bytes())
    out = tmp / "dup.jsonl"
    rc = main(["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "batch_00000" in err and copy.name in err and "Traceback" not in err
    assert not out.exists()


def test_cloud_infer_corrupt_batch(workspace, capsys):
    tmp, idx, weights_dir, _, _ = workspace
    batches, model = tmp / "b4", tmp / "m4"
    main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "32"])
    main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)])
    victim = sorted(batches.glob("*.simct"))[0]
    victim.write_bytes(b"garbage")
    rc = main(["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(tmp / "x.jsonl")])
    assert rc == 1
    assert victim.name in capsys.readouterr().err


def test_cloud_infer_rejects_nan_slot(workspace, capsys):
    tmp, idx, weights_dir, _, _ = workspace
    batches, model = tmp / "b6", tmp / "m6"
    main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "32"])
    main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)])
    victim = sorted(batches.glob("*.simct"))[0]
    data = victim.read_bytes()
    victim.write_bytes(data[:-8] + struct.pack("<d", float("nan")))
    out = tmp / "nan.jsonl"
    rc = main(["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(out)])
    assert rc == 1
    assert victim.name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("layout", [32, 1024, 28, 28], id="layout-value3"),
        pytest.param("act1", [0.0, 1.0, float("nan"), 0.0], id="act1-value4"),
        pytest.param("layout", {"m": 3, "f": 1024, "h": 28, "w": 28}, id="layout-value7"),
        pytest.param("act1", [0.0, 1.0, 0.5], id="act1-three-coefficients"),
        pytest.param("act2", [0.0, 1.0, 0.5, 0.25, 0.125], id="act2-five-coefficients"),
    ],
)
def test_cloud_infer_rejects_bad_manifest(workspace, capsys, key, value):
    tmp, idx, weights_dir, _, _ = workspace
    batches, model = tmp / "b7", tmp / "m7"
    main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "32"])
    main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)])
    manifest_path = model / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    rc = main(["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(tmp / "z.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert key in err and "manifest.json" in err


def test_cloud_infer_ignores_stale_structure_keys(workspace):
    """A 32768-slot model whose manifest records fc1 as one neuron block and
    the model as 47 ciphertexts, two records that agree with each other,
    still loads fc1's two blocks from its layout and verifies, with the
    predictions of the untouched model."""
    tmp, idx, weights_dir, _, _ = workspace
    batches, model = tmp / "b8", tmp / "m8"
    main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "32"])
    main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)])
    infer = ["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model),
             "--images", str(idx), "--weights-dir", str(weights_dir)]
    assert main(infer + ["--out", str(tmp / "fresh.jsonl")]) == 0
    manifest_path = model / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(fc1_blocks=1, ciphertext_count=47)
    manifest_path.write_text(json.dumps(manifest))
    assert main(infer + ["--out", str(tmp / "stale.jsonl")]) == 0
    assert (tmp / "stale.jsonl").read_bytes() == (tmp / "fresh.jsonl").read_bytes()


@pytest.mark.parametrize(
    "header", [[], {"depth": -3}, {"depth": "x"}],
    ids=["list", "negative-depth", "string-depth"],
)
def test_cloud_infer_rejects_bad_ct_header(workspace, capsys, header):
    tmp, idx, weights_dir, _, _ = workspace
    batches, model = tmp / "b9", tmp / "m9"
    main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "32"])
    main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)])
    victim = sorted(batches.glob("*.simct"))[0]
    data = victim.read_bytes()
    start = len(MAGIC) + 4
    (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
    if isinstance(header, dict):
        header = {**json.loads(data[start : start + hlen]), **header}
    blob = json.dumps(header).encode()
    victim.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + data[start + hlen :])
    rc = main(["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(tmp / "h.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert victim.name in err and "Traceback" not in err


def test_cloud_infer_rejects_batch_layout_mismatch(workspace, capsys):
    tmp, idx, weights_dir, _, images = workspace
    batches, model = tmp / "b8", tmp / "m8"
    main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)])
    # same slot count as the model, but 16 images at stride 2048
    layout = VirtualLayout(16, 2048, 28, 28)
    eng = SlotEngine()
    batches.mkdir()
    victim = batches / "batch_00000.simct"
    write_batch(victim, pack_batch(eng, images[:16] / 255.0, layout), layout, valid_rows=16, first_index=0)
    rc = main(["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(tmp / "l.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert victim.name in err and "layout" in err


def test_cloud_infer_rejects_a_model_and_batches_that_agree_on_another_image_size(workspace, capsys):
    """A 2048-slot model manifest and batch files that all record 30x30
    images agree with each other, but not with the batch layout the
    pipeline runs: cloud-infer fails on the first file it loads."""
    tmp, idx, weights_dir, _, _ = workspace
    batches, model, out = tmp / "b30", tmp / "m30", tmp / "p30.jsonl"
    slots = ["--slots", "2048"]
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "4"] + slots) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)] + slots) == 0
    manifest = json.loads((model / "manifest.json").read_text())
    manifest["layout"].update(h=30, w=30)
    (model / "manifest.json").write_text(json.dumps(manifest))
    start = len(MAGIC) + 4
    for batch in sorted(batches.glob("*.simct")):
        data = batch.read_bytes()
        (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
        header = json.loads(data[start : start + hlen])
        header["meta"].update(h=30, w=30)
        blob = json.dumps(header).encode()
        batch.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + data[start + hlen :])
    capsys.readouterr()
    assert main(["cloud-infer", "--batch-dir", str(batches), "--model-dir", str(model), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {model / 'manifest.json'}: 'layout': ")
    assert "(m, f, h, w) is (2, 1024, 30, 30)" in err and "Traceback" not in err
    assert not out.exists()


def test_cloud_infer_takes_slots_from_the_model(workspace, capsys):
    """cloud-infer sizes its engine from the model manifest, so a 16384-slot
    run needs no flag; a batch with another slot count is rejected by name."""
    tmp, idx, weights_dir, _, _ = workspace
    batches, model, wide = tmp / "b16", tmp / "m16", tmp / "b32"
    small = ["--slots", "16384"]
    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(batches)] + small) == 0
    assert main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)] + small) == 0
    infer = ["cloud-infer", "--model-dir", str(model), "--images", str(idx), "--weights-dir", str(weights_dir)]
    out = tmp / "p16.jsonl"
    assert main(infer + ["--batch-dir", str(batches), "--out", str(out)]) == 0
    assert "verified 40 predictions" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 40

    assert main(["owner-encode", "--images", str(idx), "--out-dir", str(wide), "--limit", "32"]) == 0
    capsys.readouterr()
    assert main(infer + ["--batch-dir", str(wide), "--out", str(tmp / "p32.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "batch_00000.simct: file has 32768 slots, engine expects 16384" in err and "Traceback" not in err
    assert not (tmp / "p32.jsonl").exists()


def test_verify_command(workspace):
    tmp, idx, weights_dir, _, _ = workspace
    assert main(["verify", "--images", str(idx), "--weights-dir", str(weights_dir), "--limit", "32"]) == 0


def test_verify_detects_tampered_weights(workspace):
    tmp, idx, weights_dir, weights, _ = workspace
    batches, model = tmp / "b5", tmp / "m5"
    main(["owner-encode", "--images", str(idx), "--out-dir", str(batches), "--limit", "32"])
    main(["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)])
    # perturb the plaintext weights after encoding: oracle now disagrees
    fc2 = weights_dir / "fc2_bias.csv"
    vals = [float(x) for x in fc2.read_text().strip().split(",")]
    vals[0] += 1.0
    fc2.write_text(",".join(str(v) for v in vals))
    rc = main(
        [
            "cloud-infer",
            "--batch-dir", str(batches),
            "--model-dir", str(model),
            "--out", str(tmp / "y.jsonl"),
            "--images", str(idx),
            "--weights-dir", str(weights_dir),
        ]
    )
    assert rc == 2


def test_verify_reports_mismatch(workspace, monkeypatch, capsys):
    tmp, idx, weights_dir, _, _ = workspace
    monkeypatch.setattr("packedhe.cli.oracle_forward", lambda w, x: oracle_forward(w, x) + 1e-3)
    assert main(["verify", "--images", str(idx), "--weights-dir", str(weights_dir), "--limit", "32"]) == 2
    assert "verification mismatch" in capsys.readouterr().err


def test_verify_passes_flags_to_the_roles(workspace, capsys):
    tmp, idx, weights_dir, _, _ = workspace
    argv = ["verify", "--images", str(idx), "--weights-dir", str(weights_dir), "--slots", "16384", "--limit", "40"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "packed 40 images into 3 batch files (16 per ciphertext" in out
    assert "verified 40 predictions" in out


@pytest.mark.parametrize("command", ["owner-encode", "verify"])
def test_negative_limit_rejected(workspace, capsys, command):
    tmp, idx, weights_dir, _, _ = workspace
    out = tmp / "negative"
    role = ["--out-dir", str(out)] if command == "owner-encode" else ["--weights-dir", str(weights_dir)]
    assert main([command, "--images", str(idx), "--limit", "-3", *role]) == 1
    captured = capsys.readouterr()
    assert "--limit" in captured.err and "Traceback" not in captured.err
    assert "packed" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1e400"])
def test_non_finite_weights_rejected(workspace, capsys, value):
    """A non-finite weight is a bad input (exit 1), not a failed verification."""
    tmp, idx, weights_dir, _, _ = workspace
    bias = weights_dir / "fc2_bias.csv"
    vals = bias.read_text().strip().split(",")
    vals[3] = value
    bias.write_text(",".join(vals) + "\n")
    model = tmp / "model"
    for argv in (
        ["provider-encode", "--weights-dir", str(weights_dir), "--out-dir", str(model)],
        ["verify", "--images", str(idx), "--weights-dir", str(weights_dir), "--limit", "32"],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "fc2_bias.csv" in err and "non-finite" in err and "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("name", ["fc1_weight.csv", "fc2_weight.csv", "conv_k0.csv"])
def test_reflowed_weight_file_rejected(workspace, capsys, name):
    """A weight file with the right number of values in the wrong shape (a
    transposed matrix, a kernel on one row) is a bad input naming the file,
    not weights scrambled by a reshape."""
    tmp, idx, weights_dir, _, _ = workspace
    values = np.loadtxt(weights_dir / name, delimiter=",", ndmin=2)
    reflowed = values.reshape(1, -1) if name == "conv_k0.csv" else values.T
    np.savetxt(weights_dir / name, reflowed, delimiter=",")
    argv = ["verify", "--images", str(idx), "--weights-dir", str(weights_dir), "--slots", "2048", "--limit", "4"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{name}: expected shape" in err and f"got shape {reflowed.shape}" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_bench_report(capsys):
    assert main(["bench", "--matmul-grid", "4,4,2;3,4,2", "--conv-grid", "4,4,2"]) == 0
    out = capsys.readouterr().out
    assert "row summation" in out
    assert "EXCEEDS" not in out
    assert "undercounts" in out


def test_bench_default_output_is_golden(capsys):
    """The default table, byte for byte: a change to the loops whose scopes
    bench reads must leave every per-step count where it was."""
    assert main(["bench"]) == 0
    assert capsys.readouterr().out == (Path(__file__).parent / "data" / "bench_default.txt").read_text()


def test_bench_rejects_a_product_with_no_columns(capsys):
    """p = 0 is bad input: one error line and exit 1, not a traceback."""
    assert main(["bench", "--matmul-grid", "4,4,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: result needs at least one column, got p=0\n"


@pytest.mark.parametrize("entry", ["8,8,-1", "8,8,0", "0,8,3", "8,-2,3"])
def test_bench_rejects_a_convolution_with_a_non_positive_size(capsys, entry):
    """One error line naming the entry and exit 1, not numpy's message or
    the kernel's."""
    assert main(["bench", f"--conv-grid={entry}"]) == 1
    h, w, k = entry.split(",")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: convolution h={h} w={w} k={k}: every size must be positive\n"


@pytest.mark.parametrize("entry", ["4,4,-3", "-1,4,2", "4,-1,2"])
def test_bench_rejects_a_product_with_a_negative_size(capsys, entry):
    assert main(["bench", f"--matmul-grid={entry}"]) == 1
    m, n, p = entry.split(",")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: matrix product m={m} n={n} p={p}: no size may be negative\n"


@pytest.mark.parametrize(
    "flag, grid, entry",
    [
        ("--matmul-grid", "4,x,2", "4,x,2"),
        ("--matmul-grid", "4,4,2;", ""),
        ("--matmul-grid", "4,4", "4,4"),
        ("--conv-grid", "8,8,3;8,8,3,1", "8,8,3,1"),
    ],
    ids=["not-an-integer", "empty-entry", "two-sizes", "four-sizes"],
)
def test_bench_rejects_a_malformed_grid_entry(capsys, flag, grid, entry):
    """One error line naming the malformed entry, exit 1."""
    assert main(["bench", f"{flag}={grid}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: grid entry {entry!r} needs 3 integers\n"


@pytest.mark.parametrize("value", ["1000", "0", "-4"])
def test_cli_rejects_bad_slots_flag(tmp_path, capsys, value):
    out = tmp_path / "b"
    rc = main(["owner-encode", f"--slots={value}", "--images", str(tmp_path / "none.idx"), "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"got {value}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["owner-encode", "provider-encode", "verify"])
def test_cli_rejects_slots_past_the_ceiling(workspace, capsys, command):
    """A slot count past MAX_SLOTS is refused before any slot vector is
    allocated or any file written: one error line naming the ceiling, exit 1."""
    tmp, idx, weights_dir, _, _ = workspace
    before = sorted(tmp.iterdir())
    argv = {
        "owner-encode": [f"--images={idx}", f"--out-dir={tmp / 'out'}"],
        "provider-encode": [f"--weights-dir={weights_dir}", f"--out-dir={tmp / 'out'}"],
        "verify": [f"--images={idx}", f"--weights-dir={weights_dir}"],
    }[command]
    assert main([command, f"--slots={2 * MAX_SLOTS}", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: slots must be a power of two from 2 to {MAX_SLOTS}, got {2 * MAX_SLOTS}\n"
    assert sorted(tmp.iterdir()) == before


def test_bench_rejects_a_product_past_the_slot_ceiling(capsys):
    """A 512x512 operand needs 2^18 slots: refused before it is drawn."""
    assert main(["bench", "--matmul-grid", "512,512,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: slots must be a power of two from 2 to {MAX_SLOTS}, got {1 << 18}\n"


# the least each subcommand takes, so an extra flag is the only usage error
REQUIRED = {
    "owner-encode": ["--images", "i.idx", "--out-dir", "b"],
    "provider-encode": ["--weights-dir", "w", "--out-dir", "m"],
    "cloud-infer": ["--batch-dir", "b", "--model-dir", "m", "--out", "p.jsonl"],
    "verify": ["--images", "i.idx", "--weights-dir", "w"],
    "bench": [],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["owner-encode", "--images", "x"],
        *([command, *required, "--config", "engine.json"] for command, required in REQUIRED.items()),
        ["bench", "--slots", "1024"],
        [],
        ["cloud-infer", *REQUIRED["cloud-infer"], "--slots", "16384"],
        ["cloud-infer", *REQUIRED["cloud-infer"], "--verify"],
    ],
    ids=[
        "missing-out-dir",
        *(f"{command}-config" for command in REQUIRED),
        "bench-slots",
        "no-command",
        "cloud-infer-slots",
        "cloud-infer-verify",
    ],
)
def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys, argv):
    """A usage error is a bad input (exit 1), not a verification mismatch (2)."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: packedhe") and "error:" in captured.err and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [[], ["owner-encode"]])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([*command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: packedhe")
