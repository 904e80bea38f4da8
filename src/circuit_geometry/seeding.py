"""Deterministic RNG substreams derived from a single master seed.

Every random draw in the package flows through :func:`substream`, so a run
is reproduced exactly by its seed, and independent consumers (such as
samplers) get non-overlapping streams without coordination.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, *labels) -> np.random.Generator:
    """Return a generator for the substream named by ``labels``.

    String labels are hashed with CRC-32 (stable across platforms and
    processes); integer labels are used directly.  The same
    ``(seed, labels)`` pair always yields the same stream.
    """
    key = []
    for label in labels:
        if isinstance(label, (int, np.integer)):
            key.append(int(label) & 0xFFFFFFFF)
        else:
            key.append(zlib.crc32(str(label).encode("utf-8")))
    sequence = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=tuple(key))
    return np.random.default_rng(sequence)
