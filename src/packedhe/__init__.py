"""Packed-slot homomorphic evaluation toolkit (exact simulated backend).

Import the submodules (``packedhe.engine``, ``packedhe.matmul``,
``packedhe.pipeline``, ...); the package itself re-exports nothing.
"""

__version__ = "0.1.0"
