"""Deterministic random streams.

All randomness in the package flows from numpy PCG64 generators derived
from a single run seed plus a string key per purpose (init, shuffle,
dropout, fixture). Identical seed and key always reproduce the stream.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_int(key: str) -> int:
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "little")


def stream(seed: int, *keys: str) -> np.random.Generator:
    """A PCG64 generator for (seed, *keys); same arguments, same stream."""
    entropy = [int(seed)] + [_key_int(k) for k in keys]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
