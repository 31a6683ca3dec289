"""Seeded, namespaced randomness.

Every random draw in the package comes from a numpy ``Generator`` made by
:func:`stream`: PCG64 keyed through ``SeedSequence``, which numpy keeps
stable across platforms and releases.  Each stream name hashes into the seed
material, so adding draws to one pipeline stage never shifts another's
stream.  :func:`derive_seed` gives the integer seed of a whole sub-run.
"""
from __future__ import annotations

import zlib

import numpy as np


def stream(seed: int, *names: str) -> np.random.Generator:
    """The random stream of `seed` namespaced by `names`, in order."""
    material = [int(seed) & 0xFFFFFFFFFFFFFFFF, *(zlib.crc32(n.encode("utf-8")) for n in names)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(material)))


def derive_seed(base: int, tag: str) -> int:
    """The seed of the sub-run `tag` of a run seeded with `base`."""
    return (base * 1000003 + zlib.crc32(tag.encode("utf-8"))) % (2 ** 63)
