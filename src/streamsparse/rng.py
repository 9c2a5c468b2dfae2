"""Counter-based randomness keyed by (seed, index).

Each stream item gets one uniform draw addressed by its index, so sampling
decisions do not depend on how the caller iterates. Backed by Philox, which
supports cheap jumps to arbitrary counter positions.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 4096


class UniformByIndex:
    """uniform(i) returns the i-th draw of the Philox stream keyed by seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._chunks: dict[int, np.ndarray] = {}

    def _chunk(self, c: int) -> np.ndarray:
        arr = self._chunks.get(c)
        if arr is None:
            bg = np.random.Philox(key=self.seed)
            # each counter step yields four 64-bit words and random() consumes
            # one word per double, so a chunk spans _CHUNK / 4 counter steps
            bg.advance(c * (_CHUNK // 4))
            arr = np.random.Generator(bg).random(_CHUNK)
            self._chunks[c] = arr
        return arr

    def uniform(self, i: int) -> float:
        if i < 0:
            raise ValueError("index must be non-negative")
        return float(self._chunk(i // _CHUNK)[i % _CHUNK])

    def uniform_many(self, indices) -> np.ndarray:
        """float64 array of uniform(i) for every i in indices, any order."""
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size and idx.min() < 0:
            raise ValueError("index must be non-negative")
        chunk, offset = np.divmod(idx, _CHUNK)
        out = np.empty(idx.size)
        for c in np.unique(chunk):
            at = chunk == c
            out[at] = self._chunk(int(c))[offset[at]]
        return out


def spawn_seed(*key: int) -> int:
    """Derive a child seed from a tuple of integers, stable across runs."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])
