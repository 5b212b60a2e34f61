"""Seeded input generation for the benchmark workloads.

Everything the program receives is made here from one numpy Generator:
an IDX image file, a weights directory written through the program's own
``datafiles.save_weights_csv``, and the fixed ``kernels`` mix.  The same
seed gives the same bytes.
"""

import struct
from dataclasses import dataclass

import numpy as np

from packedhe.conv import Kernel
from packedhe.datafiles import save_weights_csv
from packedhe.pipeline import (
    FC1_IN,
    FC1_OUT,
    FC2_IN,
    FC2_OUT,
    IMAGE_SIDE,
    KERNEL_COUNT,
    KERNEL_SIZE,
    ModelWeights,
)

IDX_IMAGE_MAGIC = 0x00000803

# Cubic activations with small coefficients keep the scores O(1), so the
# 1e-6 absolute score tolerance measures rounding, not range.
ACT1 = (0.05, 0.5, 0.2, -0.05)
ACT2 = (-0.1, 0.8, 0.1, -0.02)


def make_images(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` synthetic 28x28 uint8 images."""
    return rng.integers(0, 256, size=(count, IMAGE_SIDE, IMAGE_SIDE), dtype=np.uint8)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 images as an IDX3 file (big-endian header)."""
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
        fh.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())


def pixels(images: np.ndarray) -> np.ndarray:
    """Plaintext oracle input: uint8 pixels scaled to [0, 1]."""
    return images.astype(np.float64) / 255.0


def make_weights(rng: np.random.Generator) -> ModelWeights:
    """Random model with the pipeline's fixed shapes."""
    kernels = [
        Kernel(rng.uniform(-0.4, 0.4, size=(KERNEL_SIZE, KERNEL_SIZE)), bias=float(rng.uniform(-0.1, 0.1)))
        for _ in range(KERNEL_COUNT)
    ]
    return ModelWeights(
        conv_kernels=kernels,
        fc1_weight=rng.uniform(-0.05, 0.05, size=(FC1_OUT, FC1_IN)),
        fc1_bias=rng.uniform(-0.1, 0.1, size=FC1_OUT),
        fc2_weight=rng.uniform(-0.3, 0.3, size=(FC2_OUT, FC2_IN)),
        fc2_bias=rng.uniform(-0.1, 0.1, size=FC2_OUT),
        act1=ACT1,
        act2=ACT2,
    )


def write_inputs(directory, images: np.ndarray, weights: ModelWeights) -> tuple:
    """Write the IDX file and the weights directory; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    idx_path = directory / "images.idx"
    weights_dir = directory / "weights"
    write_idx_images(idx_path, images)
    save_weights_csv(weights_dir, weights)
    return idx_path, weights_dir


@dataclass(frozen=True, eq=False)
class Case:
    """One entry of the kernels mix: an algorithm, its slot count and operands."""

    kind: str
    slots: int
    args: dict


# (m, n, p, slots): revolver fast path, masked two-rotation path at two
# fills, and a fast-path product with p < n.
MATMUL_SHAPES = [
    (64, 64, 64, 4096),
    (48, 64, 16, 4096),
    (100, 128, 32, 16384),
    (32, 64, 8, 2048),
]


def make_kernel_mix(rng: np.random.Generator) -> list:
    """The fixed ``kernels`` mix at 512-32768 slots, with seeded integer
    operands so every result is exact in float64."""

    def ints(lo, hi, shape):
        return rng.integers(lo, hi, size=shape).astype(np.float64)

    def kernel(k):
        # No zero weights: conv_columns skips them, and op counts must not
        # depend on the seed.
        weights = ints(1, 4, (k, k)) * rng.choice([-1.0, 1.0], size=(k, k))
        return Kernel(weights, bias=float(rng.integers(-2, 3)))

    cases = []
    for m, n, p, slots in MATMUL_SHAPES:
        a, b = ints(-4, 5, (m, n)), ints(-4, 5, (n, p))
        cases.append(Case("matmul", slots, {"a": a, "b": b}))
        cases.append(Case("matmul_outer", slots, {"a": a, "b": b}))
    cases.append(Case("conv", 1024, {"image": ints(0, 8, (28, 28)), "kernel": kernel(3)}))
    cases.append(Case("conv", 512, {"image": ints(0, 8, (16, 16)), "kernel": kernel(5)}))
    cases.append(
        Case("batched_conv", 8192, {"images": ints(0, 8, (8, 28, 28)), "f": 1024, "kernel": kernel(3)})
    )
    cases.append(
        Case("batched_conv", 1024, {"images": ints(0, 8, (4, 12, 12)), "f": 256, "kernel": kernel(3)})
    )
    for m, f, side, slots in [(8, 1024, 28, 8192), (32, 1024, 28, 32768)]:
        # Offsets past the window-cascade shifts keep the rotation-key count
        # independent of the seed.
        r = int(rng.integers(side * side // 2, side * side))
        cases.append(Case("vrot", slots, {"images": ints(-9, 10, (m, side, side)), "f": f, "r": r}))
    cases.append(Case("conv_columns", 512, {"images": ints(0, 8, (16, 28, 28)), "kernel": kernel(3)}))
    return cases
