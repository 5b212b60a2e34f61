"""Plaintext reference implementations.

Deliberately written against plain arrays with no slot-engine imports, so
encrypted-domain results can be cross-checked against an independent
computation path.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "oracle_matmul",
    "oracle_conv",
    "oracle_conv_batched",
    "oracle_poly",
    "oracle_flatten",
    "oracle_forward",
]

# images per conv pass in oracle_forward: its working set is about ten
# (_CHUNK, h-k+1, w-k+1) arrays, whatever the number of images
_CHUNK = 64


def oracle_matmul(a, b) -> np.ndarray:
    """Triple-loop matrix product."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    m, n = a.shape
    n2, p = b.shape
    if n != n2:
        raise ValueError(f"inner dims differ: {n} vs {n2}")
    out = np.zeros((m, p), dtype=np.float64)
    for i in range(m):
        for j in range(p):
            s = 0.0
            for k in range(n):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def oracle_conv(image, weights, bias: float = 0.0) -> np.ndarray:
    """Direct window-sum valid convolution with stride (1, 1)."""
    image = np.asarray(image, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    h, w = image.shape
    k = weights.shape[0]
    if weights.shape != (k, k) or k > h or k > w:
        raise ValueError(f"bad kernel shape {weights.shape} for image {image.shape}")
    out = np.zeros((h - k + 1, w - k + 1), dtype=np.float64)
    for i in range(h - k + 1):
        for j in range(w - k + 1):
            out[i, j] = bias + float(np.sum(image[i : i + k, j : j + k] * weights))
    return out


def _pairwise_sum(term, start: int, stop: int) -> np.ndarray:
    """Sum ``term(t)`` for t in [start, stop) in the order ``np.sum`` adds
    a contiguous float64 run (numpy's pairwise summation): under 8 terms in
    sequence from 0.0; up to 128 in eight running sums over strides of 8,
    combined pairwise, then the rest in sequence; above 128 as two halves
    split at n/2 rounded down to a multiple of 8."""
    n = stop - start
    if n < 8:
        total = np.zeros_like(term(start))
        for t in range(start, stop):
            total += term(t)
        return total
    if n <= 128:
        runs = [term(start + j) for j in range(8)]
        whole = stop - n % 8
        for t in range(start + 8, whole):
            runs[(t - start) % 8] += term(t)
        total = ((runs[0] + runs[1]) + (runs[2] + runs[3])) + ((runs[4] + runs[5]) + (runs[6] + runs[7]))
        for t in range(whole, stop):
            total += term(t)
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(term, start, start + half) + _pairwise_sum(term, start + half, stop)


def oracle_conv_batched(images, weights, bias: float = 0.0) -> np.ndarray:
    """:func:`oracle_conv` of every image in a (batch, h, w) stack, bit for
    bit: each output adds its window's k*k products in ``np.sum``'s order,
    for all windows of all images at once."""
    images = np.asarray(images, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    _, h, w = images.shape
    k = weights.shape[0]
    if weights.shape != (k, k) or k > h or k > w:
        raise ValueError(f"bad kernel shape {weights.shape} for images {images.shape[1:]}")
    windows = sliding_window_view(images, (k, k), axis=(1, 2))
    # np.sum starts from its identity, 0.0, which turns a -0.0 sum into +0.0
    return bias + (0.0 + _pairwise_sum(lambda t: windows[..., t // k, t % k] * weights[t // k, t % k], 0, k * k))


def oracle_poly(x, coeffs) -> np.ndarray:
    """Evaluate c0 + c1 x + c2 x^2 + c3 x^3 element-wise."""
    x = np.asarray(x, dtype=np.float64)
    c0, c1, c2, c3 = (float(c) for c in coeffs)
    return c0 + c1 * x + c2 * x * x + c3 * x * x * x


def oracle_flatten(maps) -> np.ndarray:
    """Flatten feature maps map-major, row-major within each map."""
    return np.concatenate([np.asarray(m, dtype=np.float64).reshape(-1) for m in maps])


def oracle_forward(weights, images) -> np.ndarray:
    """Plaintext forward pass of the conv/act/fc/act/fc pipeline.

    ``weights`` carries conv_kernels (list of Kernel-likes with .weights
    and .bias), fc1_weight/fc1_bias, fc2_weight/fc2_bias and the two
    4-coefficient activation tuples; ``images`` is (batch, h, w).  The
    conv maps are computed for _CHUNK images at a time
    (:func:`oracle_conv_batched`), so the extra memory does not grow with
    the batch; each FC layer stays one matrix-vector product per image,
    since a batched matrix product rounds differently.
    """
    images = np.asarray(images, dtype=np.float64)
    scores = []
    for start in range(0, len(images), _CHUNK):
        chunk = images[start : start + _CHUNK]
        maps = [
            oracle_poly(oracle_conv_batched(chunk, kern.weights, kern.bias), weights.act1)
            for kern in weights.conv_kernels
        ]
        for image_maps in zip(*maps):
            h1 = weights.fc1_weight @ oracle_flatten(image_maps) + weights.fc1_bias
            h1 = oracle_poly(h1, weights.act2)
            scores.append(weights.fc2_weight @ h1 + weights.fc2_bias)
    return np.stack(scores)
