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


def test_idx_truncated_pixels(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
    with pytest.raises(IdxFormatError):
        load_idx_images(path)


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
