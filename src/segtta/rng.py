"""Stream-keyed deterministic random number generation.

Every stochastic step in the pipeline draws from its own stream, derived
by hashing the experiment seed together with a content key (volume id,
augmentation label, backend name, ...). Streams are independent of worker
count and execution order, so results are reproducible bit for bit no
matter how the work is scheduled.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError


class SeededRng:
    """A named, reproducible random stream.

    Identical ``(seed, key)`` pairs yield identical sample sequences on
    every platform and thread schedule. ``generator()`` returns a fresh
    generator positioned at the start of the stream each time it is called.
    """

    def __init__(self, seed: int, *key_parts):
        if seed < 0:
            raise ConfigError(f"seed={seed} must be non-negative")
        self.seed = int(seed)
        self.key = tuple(str(p) for p in key_parts)

    def generator(self) -> np.random.Generator:
        digest = hashlib.sha256("\x1f".join(self.key).encode("utf-8")).digest()
        words = np.frombuffer(digest, dtype="<u4")
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=tuple(int(w) for w in words)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, key={self.key!r})"
