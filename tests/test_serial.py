import hashlib
import json
import struct

import numpy as np
import pytest

from packedhe.engine import Ciphertext
from packedhe.matmul import FcFold
from packedhe.pipeline import KERNEL_COUNT, KERNEL_SIZE, batch_layout, encode_model, forward_encoded, pack_batch
from packedhe.serial import (
    MAGIC,
    SerialError,
    load_batch,
    load_ciphertext,
    load_indexed_batch,
    load_model,
    model_params,
    read_ciphertext,
    write_batch,
    write_ciphertext,
    write_model,
)
from packedhe.virtual import VirtualLayout

from conftest import make_engine
from test_pipeline import MODEL_CIPHERTEXTS, random_weights


def test_ciphertext_round_trip_bit_exact(tmp_path, rng):
    eng = make_engine(64)
    vals = rng.uniform(-1e9, 1e9, size=64)
    vals[0] = 1.0 / 3.0  # non-representable decimal, must survive exactly
    ct = eng.enc(vals)
    ct = eng.mul(ct, ct)
    path = tmp_path / "a.simct"
    write_ciphertext(path, ct, meta={"kind": "test"})
    vec, header = read_ciphertext(path)
    assert vec.tobytes() == np.asarray(ct.slots).tobytes()
    assert header["depth"] == 1 and header["meta"]["kind"] == "test"
    loaded, _ = load_ciphertext(eng, path)
    assert loaded.depth == 1 and "layout" not in header


def test_read_returns_an_aligned_read_only_copy(tmp_path, rng):
    """Whatever byte the payload starts at (the header's length sets it),
    the slots read back as an aligned, read-only float64 vector: a view of
    the file's bytes would be unaligned and slow every op that reads it."""
    eng = make_engine(64)
    ct = eng.enc(rng.uniform(-1, 1, size=64))
    path = tmp_path / "a.simct"
    starts = set()
    for pad in range(8):
        write_ciphertext(path, ct, meta={"pad": "x" * pad})
        (hlen,) = struct.unpack_from("<I", path.read_bytes(), len(MAGIC))
        starts.add((len(MAGIC) + 4 + hlen) % 8)
        vec, _ = read_ciphertext(path)
        assert vec.dtype == np.float64 and vec.flags.aligned and vec.ctypes.data % 8 == 0
        assert not vec.flags.writeable and vec.tobytes() == ct.slots.tobytes()
    assert starts == set(range(8))


def test_read_rejects_garbage(tmp_path):
    path = tmp_path / "junk.simct"
    path.write_bytes(b"not a ciphertext at all")
    with pytest.raises(SerialError):
        read_ciphertext(path)


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda data: data[:-8], id="8-bytes-short"),
        pytest.param(lambda data: data[:-1], id="1-byte-short"),
        pytest.param(lambda data: data + b"\0", id="1-byte-long"),
        pytest.param(lambda data: data + bytes(8), id="8-bytes-long"),
    ],
)
def test_read_rejects_truncated_payload(tmp_path, rng, change):
    """A payload of any other length than 8 bytes per slot is a SerialError,
    not numpy's ValueError from reading a partial float64."""
    eng = make_engine(16)
    path = tmp_path / "t.simct"
    write_ciphertext(path, eng.enc(rng.uniform(size=16)))
    path.write_bytes(change(path.read_bytes()))
    with pytest.raises(SerialError, match="payload size mismatch"):
        read_ciphertext(path)


def test_slot_count_mismatch(tmp_path, rng):
    eng = make_engine(16)
    path = tmp_path / "x.simct"
    write_ciphertext(path, eng.enc(rng.uniform(size=16)))
    with pytest.raises(SerialError):
        load_ciphertext(make_engine(32), path)


def test_batch_round_trip(tmp_path, rng):
    eng = make_engine(1024)
    lay = batch_layout(1024)
    ct = pack_batch(eng, rng.uniform(0, 1, size=(1, 28, 28)))
    path = tmp_path / "batch.simct"
    write_batch(path, ct, lay, valid_rows=1, first_index=96)
    ct2, lay2, valid = load_batch(eng, path)
    assert lay2 == lay and valid == 1
    np.testing.assert_array_equal(eng.dec(ct2), eng.dec(ct))
    assert load_indexed_batch(eng, path)[1:] == (lay, 1, 96)


def batch_meta(layout, **fields) -> dict:
    return {"kind": "image-batch", "valid_rows": 1, "first_index": 0, **vars(layout), **fields}


@pytest.mark.parametrize("first_index", [None, -1, 2.0, "0", True])
def test_batch_rejects_bad_first_index(tmp_path, first_index):
    eng = make_engine(1024)
    meta = batch_meta(batch_layout(1024))
    del meta["first_index"]
    if first_index is not None:
        meta["first_index"] = first_index
    path = tmp_path / "batch.simct"
    write_ciphertext(path, pack_batch(eng, np.zeros((1, 28, 28))), meta=meta)
    with pytest.raises(SerialError, match="first_index"):
        load_batch(eng, path)


@pytest.mark.parametrize(
    "fields",
    [{"h": 30, "w": 30}, {"h": 27}, {"m": 2, "f": 512}, {"m": 1, "f": 2048}],
    ids=["30x30", "27x28", "stride-512", "half-filled"],
)
def test_batch_must_record_the_batch_layout(tmp_path, fields):
    """A batch whose recorded layout is not ``batch_layout`` of its slot
    count fails at load, naming the file and both layouts."""
    eng = make_engine(2048)
    path = tmp_path / "batch.simct"
    write_ciphertext(path, pack_batch(eng, np.zeros((2, 28, 28))), meta=batch_meta(batch_layout(2048), **fields))
    with pytest.raises(SerialError) as caught:
        load_indexed_batch(eng, path)
    msg = str(caught.value)
    assert msg.startswith(f"{path}: (m, f, h, w) is ") and repr(batch_layout(2048)) in msg


def test_model_round_trip_and_count(tmp_path, rng):
    eng = make_engine(32768)
    weights = random_weights(rng)
    model = encode_model(eng, weights)
    count = write_model(tmp_path / "model", model)
    assert count == 50 == model.ciphertext_count == len(list((tmp_path / "model").glob("*.simct")))
    # the structure is derived from the layout on load, so nothing records it
    manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
    assert sorted(manifest) == ["act1", "act2", "format", "layout"]
    assert all(read_ciphertext(path)[1]["meta"] == {} for path in (tmp_path / "model").glob("*.simct"))

    # fresh engine, loaded model must reproduce inference bit-for-bit
    eng2 = make_engine(32768)
    loaded = load_model(eng2, tmp_path / "model")
    imgs = rng.uniform(0, 1, size=(8, 28, 28))
    ct1 = pack_batch(eng, imgs)
    ct2 = pack_batch(eng2, imgs)
    s1 = forward_encoded(eng, ct1, model).decode(eng)
    s2 = forward_encoded(eng2, ct2, loaded).decode(eng2)
    np.testing.assert_array_equal(s1, s2)


# SHA-256 over the sorted (file name, file bytes) of the model directory
# ``write_model`` writes for the seeded weights of
# ``test_model_files_keep_their_bits``.  A change that keeps these keeps
# every model file a provider has written loadable, byte for byte.
MODEL_SHA256 = {
    1024: "18cee75ae054fdaf782aef205b3b367aba1462b35eaa5c89f314a58d8aa8ee39",
    2048: "10d0ad93f432acf6c5269613814e063341a16f006ce39192cb3944ee9f2e3b69",
    4096: "b2695c5b38e9423a43c55b21f195345ee4bff4aa16ea5b1dfe5345f7112d2a51",
    8192: "1695f19fb93c7d5888cb5add3d00f2d1e19d7f39f2ac71e02d8cc3e81c138d4c",
    16384: "4be672bdae339496d5ff79bd66b099d679e61c99fac9d5889cf8442a6c8cf9c7",
    32768: "9f57bd57742a5352426ce62bb202773016d2d2c7daa5cbd703a3fc73f62c8da3",
    65536: "cbb5019e91228ae90e53d241fd60e3aadbf19fd535621b47e14a7ae89501f3b3",
}


@pytest.mark.parametrize("slots", sorted(MODEL_SHA256))
def test_model_files_keep_their_bits(tmp_path, slots):
    eng = make_engine(slots)
    write_model(tmp_path, encode_model(eng, random_weights(np.random.default_rng(17))))
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == MODEL_SHA256[slots]


def named_ciphertexts(model) -> dict:
    """Each ciphertext of an encoded model by the stem of its file name,
    read off the model's fields in the order the files are written."""
    named = {}
    for ki, span in enumerate(model.kernel_spans):
        named.update({f"kernel{ki}_span{si}": ct for si, ct in enumerate(span.span_cts)})
        named[f"kernel{ki}_bias"] = span.bias_ct
    for name, fc in (("fc1", model.fc1), ("fc2", model.fc2)):
        named.update({f"{name}_w_b{b}_c{c}": tile for b, row in enumerate(fc.tiles) for c, tile in enumerate(row)})
        named[f"{name}_bias"] = fc.bias_ct
    return named


@pytest.mark.parametrize("slots", sorted(MODEL_CIPHERTEXTS))
def test_loaded_model_carries_the_encoder_plans(tmp_path, rng, slots):
    """The loader derives each FC layer's plan from the layout, as the
    encoder does, so a loaded model evaluates in the plan it was encoded in.
    ``EncodedModel.ciphertexts`` lists each kernel's spans and then its
    bias, then each FC layer's tiles block by block and then its bias seed;
    ``write_model`` writes each to the file named for it and returns how many
    it wrote, and every ciphertext of the loaded model is the encoder's, byte
    for byte, at its place in that list."""
    eng = make_engine(slots)
    model = encode_model(eng, random_weights(rng))
    named = named_ciphertexts(model)
    assert [id(ct) for ct in model.ciphertexts] == [id(ct) for ct in named.values()]
    count = write_model(tmp_path, model)
    files = sorted(tmp_path.glob("*.simct"))
    assert count == len(files) == len(named) == model.ciphertext_count == MODEL_CIPHERTEXTS[slots]
    assert {path.stem for path in files} == set(named)
    for path in files:
        assert read_ciphertext(path)[0].tobytes() == named[path.stem].slots.tobytes()

    loaded = load_model(make_engine(slots), tmp_path)
    assert (loaded.fc1.fold, loaded.fc2.fold) == (model.fc1.fold, model.fc2.fold)
    assert [len(span.span_cts) for span in loaded.kernel_spans] == [KERNEL_SIZE**2] * KERNEL_COUNT
    for fc in (loaded.fc1, loaded.fc2):
        assert [len(row) for row in fc.tiles] == [fc.fold.chunks] * fc.fold.blocks
    for ct, encoded in zip(loaded.ciphertexts, model.ciphertexts, strict=True):
        assert type(ct) is Ciphertext and ct.depth == encoded.depth
        assert ct.slots.tobytes() == encoded.slots.tobytes()


def test_fc_plans_are_derived_once_per_layer_and_never_per_batch(tmp_path, rng, monkeypatch):
    """Each FC layer's plan is derived once when a model is encoded and
    once when it is loaded, one ``FcFold.derive`` per candidate block
    width p (a power of two up to the batch's two rows, so 1 and 2 for
    each layer), and not at all in a forward pass."""
    calls = []
    derive = FcFold.derive.__func__

    def counting_derive(cls, *args):
        calls.append(args)
        return derive(cls, *args)

    monkeypatch.setattr(FcFold, "derive", classmethod(counting_derive))
    eng = make_engine(2048)
    model = encode_model(eng, random_weights(rng))
    assert [(width, blocks, p) for width, blocks, p, *_ in calls] == [(952, 64, 1), (952, 32, 2), (64, 16, 1), (64, 8, 2)]
    write_model(tmp_path, model)
    loaded = load_model(eng, tmp_path)
    assert calls[4:] == calls[:4]
    for _ in range(2):
        forward_encoded(eng, pack_batch(eng, np.zeros((2, 28, 28))), loaded)
    assert len(calls) == 8


@pytest.mark.parametrize(
    "fields", [{"h": 30, "w": 30}, {"m": 1, "f": 2048}, {"m": 1, "f": 512}], ids=["30x30", "stride-2048", "512-slots"]
)
def test_model_must_record_the_batch_layout(tmp_path, rng, fields):
    """A model manifest whose layout is not ``batch_layout`` of its m * f
    slots fails in ``model_params`` and ``load_model``, naming the manifest."""
    eng = make_engine(2048)
    write_model(tmp_path, encode_model(eng, random_weights(rng)))
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["layout"].update(fields)
    manifest_path.write_text(json.dumps(manifest))
    for load in (model_params, lambda d: load_model(eng, d)):
        with pytest.raises(SerialError, match=f"^{manifest_path}: 'layout': "):
            load(tmp_path)


def test_model_missing_manifest(tmp_path):
    with pytest.raises(SerialError):
        load_model(make_engine(16), tmp_path)
