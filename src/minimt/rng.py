"""Named, seedable random source. No global ambient randomness anywhere in
the toolkit: every consumer receives an Rng or derives one by label."""

from __future__ import annotations

import hashlib

import numpy as np

from . import tensor as _tensor


class Rng:
    """Deterministic PCG64 stream with label-based splitting.

    split(label) derives a child seed from (seed, label) only, so children
    are unaffected by how much of the parent stream has been consumed.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def split(self, label: str) -> "Rng":
        h = hashlib.blake2b(f"{self.seed}\x1f{label}".encode(), digest_size=8)
        return Rng(int.from_bytes(h.digest(), "little"))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        """Draws in the tensor module's default dtype."""
        return (self._gen.standard_normal(shape) * std).astype(_tensor.default_dtype())

    def uniform(self, shape) -> np.ndarray:
        """Draws from [0, 1) in the tensor module's default dtype."""
        return self._gen.uniform(0.0, 1.0, shape).astype(_tensor.default_dtype())

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n)."""
        return self._gen.choice(n, size=k, replace=False)
