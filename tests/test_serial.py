import numpy as np
import pytest

from packedhe.pipeline import encode_model, forward_encoded, pack_batch
from packedhe.serial import (
    SerialError,
    load_batch,
    load_ciphertext,
    load_indexed_batch,
    load_model,
    read_ciphertext,
    write_batch,
    write_ciphertext,
    write_model,
)
from packedhe.virtual import VirtualLayout

from conftest import make_engine
from test_pipeline import random_weights


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


def test_read_rejects_garbage(tmp_path):
    path = tmp_path / "junk.simct"
    path.write_bytes(b"not a ciphertext at all")
    with pytest.raises(SerialError):
        read_ciphertext(path)


def test_read_rejects_truncated_payload(tmp_path, rng):
    eng = make_engine(16)
    path = tmp_path / "t.simct"
    write_ciphertext(path, eng.enc(rng.uniform(size=16)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(SerialError):
        read_ciphertext(path)


def test_slot_count_mismatch(tmp_path, rng):
    eng = make_engine(16)
    path = tmp_path / "x.simct"
    write_ciphertext(path, eng.enc(rng.uniform(size=16)))
    with pytest.raises(SerialError):
        load_ciphertext(make_engine(32), path)


def test_batch_round_trip(tmp_path, rng):
    eng = make_engine(64)
    lay = VirtualLayout(4, 16, 3, 4)
    ct = pack_batch(eng, rng.uniform(0, 1, size=(3, 3, 4)), lay)
    path = tmp_path / "batch.simct"
    write_batch(path, ct, lay, valid_rows=3, first_index=96)
    ct2, lay2, valid = load_batch(eng, path)
    assert lay2 == lay and valid == 3
    np.testing.assert_array_equal(eng.dec(ct2), eng.dec(ct))
    assert load_indexed_batch(eng, path)[1:] == (lay, 3, 96)


@pytest.mark.parametrize("first_index", [None, -1, 2.0, "0", True])
def test_batch_rejects_bad_first_index(tmp_path, first_index):
    eng = make_engine(64)
    lay = VirtualLayout(4, 16, 3, 4)
    meta = {"kind": "image-batch", "valid_rows": 3, "m": 4, "f": 16, "h": 3, "w": 4}
    if first_index is not None:
        meta["first_index"] = first_index
    path = tmp_path / "batch.simct"
    write_ciphertext(path, pack_batch(eng, np.zeros((3, 3, 4)), lay), meta=meta)
    with pytest.raises(SerialError, match="first_index"):
        load_batch(eng, path)


def test_model_round_trip_and_count(tmp_path, rng):
    eng = make_engine(32768)
    weights = random_weights(rng)
    model = encode_model(eng, weights)
    count = write_model(tmp_path / "model", model)
    assert count == 52 == model.ciphertext_count

    # fresh engine, loaded model must reproduce inference bit-for-bit
    eng2 = make_engine(32768)
    loaded = load_model(eng2, tmp_path / "model")
    imgs = rng.uniform(0, 1, size=(8, 28, 28))
    ct1 = pack_batch(eng, imgs)
    ct2 = pack_batch(eng2, imgs)
    s1 = forward_encoded(eng, ct1, model).decode(eng)
    s2 = forward_encoded(eng2, ct2, loaded).decode(eng2)
    np.testing.assert_array_equal(s1, s2)


def test_model_missing_manifest(tmp_path):
    with pytest.raises(SerialError):
        load_model(make_engine(16), tmp_path)
