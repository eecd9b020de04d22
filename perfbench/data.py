"""Seeded inputs and ground-truth oracles for the benchmark workloads.

Every workload builds its dataset here from ``--seed`` alone, so the same
seed gives the same epochs, the same probe keys and the same oracles.
The program under test only ever sees the generated batches and keys.
"""

from __future__ import annotations

import numpy as np

from repro.core.kv import KVBatch

NRANKS = 16
VALUE_BYTES = 56
REWRITE = 0.3  # share of each epoch's keys that rewrite a key from an earlier epoch
KEY_HIGH = 1 << 62  # keys fit int64 too, as the serving tier's KeySampler wants


class Dataset:
    """A multi-epoch dump history and its oracles.

    ``epochs[e]`` holds the per-rank `KVBatch` list for epoch ``e``;
    ``per_epoch[e]`` maps key -> value for the keys epoch ``e`` wrote;
    ``newest`` maps every key ever written to its newest value (what
    `lookup_many`, ``ANY_EPOCH`` gets and a full compaction must return).
    ``absent`` holds keys that were never written.
    """

    def __init__(self, seed: int, nepochs: int, records_per_epoch: int, absent: int):
        rng = np.random.default_rng(seed)
        self.epochs: list[list[KVBatch]] = []
        self.per_epoch: list[dict[int, bytes]] = []
        self.newest: dict[int, bytes] = {}
        history = np.zeros(0, dtype=np.uint64)
        for _ in range(nepochs):
            keys = np.unique(rng.integers(1, KEY_HIGH, size=records_per_epoch, dtype=np.uint64))
            if history.size:
                k = min(int(keys.size * REWRITE), history.size)
                keys[:k] = rng.choice(history, size=k, replace=False)
                keys = np.unique(keys)
            rng.shuffle(keys)
            values = rng.integers(0, 256, size=(keys.size, VALUE_BYTES), dtype=np.uint8)
            splits = np.array_split(np.arange(keys.size), NRANKS)
            self.epochs.append([KVBatch(keys[s], values[s]) for s in splits])
            truth = dict(zip(keys.tolist(), (v.tobytes() for v in values)))
            self.per_epoch.append(truth)
            self.newest.update(truth)
            history = np.union1d(history, keys)
        self.keys = history  # every key ever written, sorted
        self.records = sum(len(t) for t in self.per_epoch)
        candidates = rng.integers(1, KEY_HIGH, size=absent * 2 + 16, dtype=np.uint64)
        candidates = np.setdiff1d(candidates, history)
        self.absent = rng.permutation(candidates)[:absent]

    @property
    def nepochs(self) -> int:
        return len(self.epochs)


def count_wrong(values, keys, truth: dict[int, bytes]) -> int:
    """Answers that differ from ``truth`` (a miss for a present key, a hit
    for an absent one, or the wrong bytes)."""
    return sum(1 for k, v in zip(keys.tolist(), values) if truth.get(k) != v)

