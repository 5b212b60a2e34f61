"""Dataset and model-parameter ingestion.

IDX image files (big-endian, bit-exact magic validation; a file must end
where its header's image count and size say its pixels end) and the fixed
weights-directory CSV schema:

    conv_k0.csv .. conv_k3.csv   3x3 kernel each
    conv_bias.csv                4 values
    <name>.csv                   for each ``pipeline.WEIGHT_SHAPES`` entry
                                 (fc1/fc2 weight and bias, act1/act2 with
                                 the constant term first), in its shape

All CSVs are row-major plain decimal and every entry must be finite.  A
matrix must have exactly its rows and columns (a transposed or reflowed
file is rejected, not reshaped); a vector may be one row or one column.
Pixels are scaled to [0, 1].
"""

import struct
import warnings
from pathlib import Path

import numpy as np

from .conv import Kernel
from .pipeline import KERNEL_COUNT, KERNEL_SIZE, WEIGHT_SHAPES, ModelWeights

__all__ = [
    "IdxFormatError",
    "load_idx_images",
    "load_weights_csv",
    "save_weights_csv",
]

IMAGE_MAGIC = 0x00000803


class IdxFormatError(ValueError):
    """Malformed IDX file; carries the file name and byte offset."""

    def __init__(self, path, offset: int, message: str):
        super().__init__(f"{path}: offset {offset}: {message}")
        self.path = str(path)
        self.offset = offset


def _read_u32(data: bytes, path, offset: int) -> int:
    if len(data) < offset + 4:
        raise IdxFormatError(path, len(data), "truncated header")
    return struct.unpack_from(">I", data, offset)[0]


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a float array in [0, 1], shape (n, h, w)."""
    data = Path(path).read_bytes()
    magic = _read_u32(data, path, 0)
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(path, 0, f"bad image magic 0x{magic:08x}, want 0x{IMAGE_MAGIC:08x}")
    count = _read_u32(data, path, 4)
    rows = _read_u32(data, path, 8)
    cols = _read_u32(data, path, 12)
    end = 16 + count * rows * cols
    if len(data) != end:
        raise IdxFormatError(path, end, f"{count} images of {rows}x{cols} end here, file has {len(data)} bytes")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.astype(np.float64).reshape(count, rows, cols) / 255.0


def _load_csv(directory: Path, name: str, shape: tuple) -> np.ndarray:
    path = directory / name
    if not path.exists():
        raise FileNotFoundError(f"missing weight file: {path}")
    try:
        with warnings.catch_warnings():
            # numpy only warns on a file with no data; make that an error here
            warnings.simplefilter("error", UserWarning)
            arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except UserWarning:
        raise ValueError(f"{path}: expected shape {shape}, got no data") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{path}: non-finite value {arr.flat[bad[0]]} at entry {bad[0]}")
    if len(shape) == 1:
        # a vector may be written as one row or as one column
        if arr.shape not in ((1, shape[0]), (shape[0], 1)):
            raise ValueError(
                f"{path}: expected {shape[0]} values in one row or one column, got shape {arr.shape}"
            )
        return arr.reshape(shape)
    if arr.shape != shape:
        raise ValueError(f"{path}: expected shape {shape}, got shape {arr.shape}")
    return arr


def load_weights_csv(directory) -> ModelWeights:
    """Load the full model from the fixed CSV schema; each file's shape is
    checked as it is read."""
    directory = Path(directory)
    conv_bias = _load_csv(directory, "conv_bias.csv", (KERNEL_COUNT,))
    kernels = [
        Kernel(
            _load_csv(directory, f"conv_k{i}.csv", (KERNEL_SIZE, KERNEL_SIZE)),
            bias=float(conv_bias[i]),
        )
        for i in range(KERNEL_COUNT)
    ]
    return ModelWeights(
        kernels, **{name: _load_csv(directory, f"{name}.csv", shape) for name, shape in WEIGHT_SHAPES.items()}
    )


def save_weights_csv(directory, weights: ModelWeights) -> None:
    """Write a model back out in the CSV schema (testing/tooling aid)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, kern in enumerate(weights.conv_kernels):
        np.savetxt(directory / f"conv_k{i}.csv", kern.weights, delimiter=",")
    np.savetxt(directory / "conv_bias.csv", np.atleast_2d([k.bias for k in weights.conv_kernels]), delimiter=",")
    for name in WEIGHT_SHAPES:
        np.savetxt(directory / f"{name}.csv", np.atleast_2d(getattr(weights, name)), delimiter=",")
