"""Deterministic randomness: the seeded stream every consumer draws from.

Randomness goes through :class:`RngState`, a thin wrapper over numpy's
Philox counter-based bit generator.  Philox is documented, keyed by the seed,
and produces the same stream on every platform; normal variates are derived
from its uniforms with the Box-Muller transform so the full sequence is
reproducible bit-for-bit.
"""

import numpy as np

from .errors import DomainError


class RngState:
    """Seeded random stream: Philox counters underneath, Box-Muller normals.

    Each worker owns its own instance; drawing advances the internal counter.
    Identical seeds give identical sequences across platforms and runs.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def uniform(self, size=None, low=0.0, high=1.0):
        """Uniform draws in [low, high)."""
        u = self._gen.random(size)
        return low + (high - low) * u

    def normal(self, size=None, sigma=1.0):
        """Zero-mean normal draws via Box-Muller on the uniform stream."""
        if sigma < 0:
            raise DomainError(f"sigma must be >= 0, got {sigma}")
        n = 1 if size is None else int(np.prod(size))
        pairs = (n + 1) // 2
        u1 = self._gen.random(pairs)
        u2 = self._gen.random(pairs)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        z *= sigma
        if size is None:
            return float(z[0])
        return z.reshape(size)

    def permutation(self, n):
        """Deterministic permutation of range(n)."""
        return self._gen.permutation(n)

    def child(self, stream):
        """Independent stream derived from (seed, stream); used per trajectory."""
        return RngState((self.seed * 1_000_003 + int(stream)) & 0x7FFF_FFFF_FFFF_FFFF)
