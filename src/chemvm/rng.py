"""Deterministic random streams derived from a single integer seed.

Every stochastic component takes its randomness from a named substream so
that runs are reproducible bit-for-bit and adding a new consumer never
shifts the draws seen by an existing one.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_seed", "substream"]

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *names: object) -> int:
    """Map (seed, name parts) to a stable 64-bit child seed."""
    tag = "/".join(map(str, names))
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & _MASK64


def substream(seed: int, *names: object) -> random.Random:
    """A `random.Random` whose state depends only on (seed, names)."""
    return random.Random(derive_seed(seed, *names))
