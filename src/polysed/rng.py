"""Seeded, namespaced randomness.

Every random draw in the package flows from a :class:`SeededRng`.  The
generator is numpy's PCG64 keyed through ``SeedSequence``, whose output is
documented by numpy to be stable across platforms and releases, so a fixed
seed yields the same stream everywhere.  Child generators are derived by
hashing a string namespace into the seed material, which keeps the streams
of independent pipeline stages decoupled: adding draws to one stage never
shifts another stage's stream.
"""
from __future__ import annotations

import zlib

import numpy as np


class SeededRng:
    """Deterministic random stream with string-namespaced children."""

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = tuple(_path)
        ss = np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, *self._path])
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def child(self, name: str) -> "SeededRng":
        """Derive an independent stream for the stage called `name`."""
        return SeededRng(self.seed, self._path + (zlib.crc32(name.encode("utf-8")),))

    # Thin wrappers so call sites do not reach into .generator.
    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def permutation(self, n):
        return self.generator.permutation(n)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, path={self._path})"
