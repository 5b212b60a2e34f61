import hashlib
import struct

import numpy as np
import pytest

from packedhe.datafiles import (
    IdxFormatError,
    load_idx_images,
    load_weights_csv,
    save_weights_csv,
)

from test_pipeline import random_weights


def write_idx_images(path, images: np.ndarray) -> None:
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, h, w))
        fh.write(images.astype(np.uint8).tobytes())


def test_idx_round_trip_and_normalization(tmp_path, rng):
    raw = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
    raw[0, 0, 0] = 255
    raw[0, 0, 1] = 0
    path = tmp_path / "imgs.idx"
    write_idx_images(path, raw)
    images = load_idx_images(path)
    assert images.shape == (5, 4, 3)
    assert images[0, 0, 0] == 1.0
    assert images[0, 0, 1] == 0.0
    np.testing.assert_allclose(images, raw / 255.0)


def test_idx_bad_magic_names_file_and_offset(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0xDEAD, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(IdxFormatError) as err:
        load_idx_images(path)
    assert "bad.idx" in str(err.value)
    assert err.value.offset == 0


def test_idx_count_below_its_images_is_rejected(tmp_path, rng):
    """A 40-image file whose count field reads 30 neither loads 30 images
    nor drops the other 10: the error gives the offset where the header
    says the pixels end."""
    path = tmp_path / "lowered.idx"
    write_idx_images(path, rng.integers(0, 256, size=(40, 28, 28)))
    data = path.read_bytes()
    path.write_bytes(data[:4] + struct.pack(">I", 30) + data[8:])
    with pytest.raises(IdxFormatError, match="lowered.idx") as err:
        load_idx_images(path)
    assert err.value.offset == 16 + 30 * 28 * 28


def test_idx_truncated_pixels(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
    with pytest.raises(IdxFormatError):
        load_idx_images(path)


# sha256 of each file save_weights_csv writes for random_weights(default_rng(7))
WEIGHT_CSV_SHA256 = {
    "act1.csv": "c44261e6511f833415859808f2b4db23156c65e259603668b366eef42d5ecc83",
    "act2.csv": "b64598194f7d4474195636185b66568a30701c177f2a09c507b8fdecca1caa7c",
    "conv_bias.csv": "d4e1126bc9957b46dde81e8e5e9ddf806d31ea4c2dd75880e4331148e620bd7c",
    "conv_k0.csv": "dbd286096169fe34d5bb4dfd15f4ab809654d8d3fc42c606edbceead54a2d2b2",
    "conv_k1.csv": "99a78f9b624f57a94ab82c66424ee4d8d7c0d07bf54f0581f69f509476d6f7ee",
    "conv_k2.csv": "71d51c58200e3676e9a74a77f2391a7f211cdef874694b008d64ea4c4c75da3e",
    "conv_k3.csv": "a857b3801113137b6a5b08b77dc740e91f86b7b78d9bc9312c0bbafc8447646f",
    "fc1_bias.csv": "a4877d3da95377a6e201212723831cf42a9ca32375a3ef98573dcce56fe1abca",
    "fc1_weight.csv": "3159f5abdf6b2d22b82bb1b04e3dcec111f826a4e2675e0117547b95359e7404",
    "fc2_bias.csv": "f112c9f71c96acb5d5eb3a8d9e52075f7b7db46154a677df544406321d9f94ad",
    "fc2_weight.csv": "1b97076cb927e69e8527e59aeadd1aed7f239f56d489958bf1bc427856d77a09",
}


def test_save_weights_csv_bytes_are_pinned(tmp_path):
    save_weights_csv(tmp_path, random_weights(np.random.default_rng(7)))
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()} == WEIGHT_CSV_SHA256


def test_weights_csv_round_trip(tmp_path, rng):
    weights = random_weights(rng)
    save_weights_csv(tmp_path, weights)
    loaded = load_weights_csv(tmp_path)
    for a, b in zip(loaded.conv_kernels, weights.conv_kernels):
        np.testing.assert_allclose(a.weights, b.weights)
        assert a.bias == pytest.approx(b.bias)
    np.testing.assert_allclose(loaded.fc1_weight, weights.fc1_weight)
    np.testing.assert_allclose(loaded.fc1_bias, weights.fc1_bias)
    np.testing.assert_allclose(loaded.fc2_weight, weights.fc2_weight)
    np.testing.assert_allclose(loaded.fc2_bias, weights.fc2_bias)
    assert loaded.act1 == pytest.approx(weights.act1)
    assert loaded.act2 == pytest.approx(weights.act2)


def test_weights_csv_missing_file_named(tmp_path, rng):
    save_weights_csv(tmp_path, random_weights(rng))
    (tmp_path / "fc2_bias.csv").unlink()
    with pytest.raises(FileNotFoundError) as err:
        load_weights_csv(tmp_path)
    assert "fc2_bias.csv" in str(err.value)


def test_weights_csv_dimension_mismatch(tmp_path, rng):
    save_weights_csv(tmp_path, random_weights(rng))
    (tmp_path / "fc2_weight.csv").write_text("1,2\n3,4\n")
    with pytest.raises(ValueError):
        load_weights_csv(tmp_path)


@pytest.mark.parametrize(
    "name, shape",
    [("fc1_weight.csv", (2704, 64)), ("fc2_weight.csv", (64, 10)), ("conv_k0.csv", (1, 9)), ("act1.csv", (2, 2))],
    ids=["fc1-transposed", "fc2-transposed", "kernel-one-row", "vector-as-grid"],
)
def test_weights_csv_rejects_a_reflowed_file(tmp_path, rng, name, shape):
    """The right number of values in the wrong shape is not reshaped into
    scrambled weights: the error names the file and both shapes."""
    save_weights_csv(tmp_path, random_weights(rng))
    values = np.loadtxt(tmp_path / name, delimiter=",", ndmin=2)
    np.savetxt(tmp_path / name, values.T if values.shape[::-1] == shape else values.reshape(shape), delimiter=",")
    with pytest.raises(ValueError, match=rf"{name}: expected .*got shape \({shape[0]}, {shape[1]}\)"):
        load_weights_csv(tmp_path)


def test_weights_csv_vectors_load_from_a_row_or_a_column(tmp_path, rng):
    weights = random_weights(rng)
    save_weights_csv(tmp_path, weights)
    np.savetxt(tmp_path / "fc1_bias.csv", weights.fc1_bias[:, None], delimiter=",")
    np.savetxt(tmp_path / "conv_bias.csv", [[k.bias] for k in weights.conv_kernels], delimiter=",")
    loaded = load_weights_csv(tmp_path)
    np.testing.assert_array_equal(loaded.fc1_bias, weights.fc1_bias)
    assert [k.bias for k in loaded.conv_kernels] == [k.bias for k in weights.conv_kernels]
