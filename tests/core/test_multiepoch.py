"""Tests for the multi-epoch store (cross-timestep queries)."""

import numpy as np
import pytest

from repro.apps.vpic import VPICSimulation
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch, random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.storage.manifest import Manifest


def _batches(nranks, n, seed):
    return [random_kv_batch(n, 56, np.random.default_rng(seed * 100 + r)) for r in range(nranks)]


def test_write_and_query_single_epoch():
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV)
    batches = _batches(4, 500, seed=1)
    stats = store.write_epoch(batches)
    assert stats.records == 2000
    value, qs = store.get(int(batches[2].keys[7]), epoch=0)
    assert qs.found and value == batches[2].value_of(7)


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name)
def test_trajectory_across_epochs(fmt):
    sim = VPICSimulation(nranks=4, particles_per_rank=400, drift=0.25, seed=2)
    store = MultiEpochStore(nranks=4, fmt=fmt)
    for _ in range(3):
        sim.step(2)
        store.write_epoch(sim.dump())
    target = int(sim.ids[11])
    traj = store.trajectory(target)
    assert [e for e, _, _ in traj] == [0, 1, 2]
    assert all(qs.found for _, _, qs in traj)
    assert len({v for _, v, _ in traj}) == 3  # the particle moved


def test_manifest_tracks_epochs():
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV)
    store.write_epoch(_batches(4, 200, seed=3))
    store.write_epoch(_batches(4, 300, seed=4))
    assert store.epochs == [0, 1]
    assert store.manifest.total_records == 2000
    # Reload from the device: same content.
    m = Manifest.load(store.device)
    assert m.epoch_ids == [0, 1]
    assert m.epochs[0].records == 800
    assert all(f.startswith(("part.000.", "aux.000.")) for f in m.epochs[0].files)


def test_epoch_files_are_disjoint_namespaces():
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV)
    b = _batches(4, 200, seed=5)
    store.write_epoch(b)
    store.write_epoch(b)
    # Same key queried in both epochs resolves independently.
    key = int(b[0].keys[0])
    v0, _ = store.get(key, 0)
    v1, _ = store.get(key, 1)
    assert v0 == v1 == b[0].value_of(0)


def test_wrong_batch_count_rejected():
    store = MultiEpochStore(nranks=4)
    with pytest.raises(ValueError):
        store.write_epoch(_batches(3, 10, seed=6))


def test_unknown_epoch_rejected():
    store = MultiEpochStore(nranks=4)
    with pytest.raises(KeyError):
        store.get(1, epoch=0)


def test_describe_mentions_epochs():
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV)
    store.write_epoch(_batches(4, 100, seed=7))
    out = store.describe()
    assert "epoch 0" in out and "filterkv" in out


def test_dataptr_value_logs_shared_across_epochs():
    """Value-log offsets stay valid when epochs append to the same logs."""
    store = MultiEpochStore(nranks=4, fmt=FMT_DATAPTR)
    b0 = _batches(4, 300, seed=8)
    b1 = _batches(4, 300, seed=9)
    store.write_epoch(b0)
    store.write_epoch(b1)
    v0, qs0 = store.get(int(b0[1].keys[5]), 0)
    v1, qs1 = store.get(int(b1[1].keys[5]), 1)
    assert v0 == b0[1].value_of(5)
    assert v1 == b1[1].value_of(5)
    assert qs0.breakdown_reads.get("vlog") == 1


def _overwriting_store(fmt, epochs=5, nranks=4, per_rank=120, seed=21):
    """Uncompacted store whose later epochs rewrite a slice of earlier
    keys with fresh values, plus every key ever written."""
    rng = np.random.default_rng(seed)
    store = MultiEpochStore(nranks=nranks, fmt=fmt, value_bytes=24, seed=seed)
    written = np.zeros(0, dtype=np.uint64)
    for _ in range(epochs):
        batches = [random_kv_batch(per_rank, 24, rng) for _ in range(nranks)]
        if written.size:
            rewrites = rng.choice(written, size=nranks * (per_rank // 4), replace=False)
            batches = [
                KVBatch(np.concatenate([old, b.keys[old.size :]]), b.values)
                for b, old in zip(batches, np.split(rewrites, nranks))
            ]
        store.write_epoch(batches)
        written = np.unique(np.concatenate([written, *(b.keys for b in batches)]))
    return store, written


def _scalar_newest_first(store, key):
    """Per-record oracle: scalar `QueryEngine.get` per epoch, newest first."""
    searched = 0
    for epoch in reversed(store.epochs):
        value, stats = store.engine(epoch).get(key)
        searched += stats.partitions_searched
        if value is not None:
            return value, epoch, True, searched
    return None, None, False, searched


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name)
def test_lookup_and_lookup_many_match_scalar_newest_first_oracle(fmt):
    store, written = _overwriting_store(fmt)
    assert len(store.epochs) == 5 and not store.manifest.compacted
    rng = np.random.default_rng(4)
    absent = rng.integers(1 << 40, 1 << 41, size=20, dtype=np.uint64)
    keys = np.concatenate([rng.choice(written, size=200, replace=False), absent])
    rng.shuffle(keys)
    want = [_scalar_newest_first(store, int(k)) for k in keys]
    # Overwrites make newest-wins observable: answers come from every epoch.
    assert {w[1] for w in want} == {None, *store.epochs}

    values, found_in, stats = store.lookup_many(keys)
    got = [(v, e, st.found, st.partitions_searched) for v, e, st in zip(values, found_in, stats)]
    assert got == want
    for k, w in zip(keys[:60], want):
        value, epoch, st = store.lookup(int(k), cached=False)
        assert (value, epoch, st.found, st.partitions_searched) == w
    store.close()
