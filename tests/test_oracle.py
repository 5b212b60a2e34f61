import hashlib
import tracemalloc

import numpy as np
import pytest

from packedhe.oracle import oracle_conv, oracle_conv_batched, oracle_forward

from test_pipeline import random_weights


@pytest.mark.parametrize("shape", [(3, 17, 19), (2, 28, 28)], ids=["17x19", "28x28"])
@pytest.mark.parametrize("k", range(1, 17))
def test_batched_conv_equals_the_loop_bit_for_bit(shape, k):
    """The batched conv adds each window's k*k products in the order
    np.sum uses, which is a numpy detail: this is the test that fails if a
    numpy release changes it (k*k spans the sequential, eight-run and
    split cases)."""
    rng = np.random.default_rng(1000 * k + shape[1])
    images, weights, bias = rng.normal(size=shape), rng.normal(size=(k, k)), float(rng.normal())
    want = np.stack([oracle_conv(image, weights, bias) for image in images])
    got = oracle_conv_batched(images, weights, bias)
    assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()


@pytest.mark.parametrize("k", [2, 3, 12])
def test_batched_conv_keeps_the_loops_zero_signs(k):
    """np.sum starts from +0.0, so an all -0.0 window sums to +0.0, and a
    -0.0 bias then keeps it +0.0."""
    images = np.full((2, 12, 12), -0.0)
    for bias in (0.0, -0.0):
        want = np.stack([oracle_conv(image, np.ones((k, k)), bias) for image in images])
        got = oracle_conv_batched(images, np.ones((k, k)), bias)
        assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()


def test_batched_conv_rejects_a_kernel_larger_than_the_images():
    with pytest.raises(ValueError, match="bad kernel shape"):
        oracle_conv_batched(np.zeros((2, 4, 4)), np.ones((5, 5)))


# sha256 of oracle_forward's scores on the batch below, taken when each
# image ran the window-sum loop; 70 images cross a chunk boundary
ORACLE_FORWARD_SHA256 = "74ea22b89a0dafd53154e6c61d2b3a8a2b5e36e5a812e4aee83c7d2ace6920ab"


def test_oracle_forward_output_is_pinned():
    rng = np.random.default_rng(20251020)
    weights = random_weights(rng)
    images = rng.uniform(0.0, 1.0, size=(70, 28, 28))
    assert hashlib.sha256(oracle_forward(weights, images).tobytes()).hexdigest() == ORACLE_FORWARD_SHA256


def test_oracle_forward_memory_does_not_grow_with_the_images():
    """The conv maps are made a fixed number of images at a time, so four
    times the images add only their score rows to the peak."""
    rng = np.random.default_rng(7)
    weights = random_weights(rng)
    images = rng.uniform(0.0, 1.0, size=(512, 28, 28))
    peaks = []
    for count in (128, 512):
        tracemalloc.start()
        try:
            oracle_forward(weights, images[:count])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20
