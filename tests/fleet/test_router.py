"""Router correctness: sharding must be invisible.

The core contract under test: a fleet answers every query byte-identically
to one unsharded store holding the same dumps — for every registered aux
backend, for epochs that mix backends, for absent keys, and regardless of
whether the router's aux views are fresh or stale (staleness may cost
ordering quality, never answers).
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.core.auxtable import AUX_BACKENDS, AuxBackendPolicy
from repro.core.kv import random_kv_batch
from repro.fleet import CircuitBreaker
from repro.serve import ANY_EPOCH, NOT_FOUND, OK

from .conftest import VB, absent_keys, build_fleet, make_dumps, merged_store, run

BACKENDS = sorted(AUX_BACKENDS)


async def _assert_matches_oracle(fleet, oracle, truth, keys):
    async with fleet:
        for k in keys:
            r = await fleet.router.get(k, epoch=ANY_EPOCH)
            want = oracle.lookup(int(k))[0]
            if want is None:
                assert k not in truth
                assert r.status == NOT_FOUND, (k, r)
            else:
                assert r.status == OK, (k, r)
                assert r.value == want == truth[k], f"key {k} diverged"
        return fleet.router.stats()


@pytest.mark.parametrize("backend", BACKENDS)
def test_fleet_matches_merged_store(backend):
    policy = AuxBackendPolicy(candidates=(backend,))
    fleet, dumps, truth = build_fleet(seed=11, aux_policy=policy)
    oracle = merged_store(dumps, seed=11, aux_policy=policy)
    keys = sorted(truth)[::7] + absent_keys(truth)
    stats = run(_assert_matches_oracle(fleet, oracle, truth, keys))
    # FilterKV persists aux tables, so every plan was aux-shaped.
    assert stats["aux_routed"] == len(keys)
    assert stats["scatter"] == 0
    oracle.close()


def test_mixed_backend_epochs_match_merged_store():
    """One epoch per backend family (dynamic / static-filter /
    static-function): the router rebuilds each epoch's tables from its
    blob header alone, so a mixed-backend fleet routes like any other."""
    per_epoch = ["cuckoo", "xor", "csf"]
    fleet, dumps, truth = build_fleet(seed=31, epochs=len(per_epoch), ingest=False)
    oracle = merged_store(dumps[:0], seed=31)
    for backend, dump in zip(per_epoch, dumps):
        for node in fleet.shards.values():
            node.store.fmt = dataclasses.replace(
                node.store.fmt, aux_backend=backend
            )
        oracle.fmt = dataclasses.replace(oracle.fmt, aux_backend=backend)
        fleet.ingest(dump)
        writer = np.arange(len(dump)) % 2
        oracle.write_epoch([dump.select(writer == r) for r in range(2)])
    keys = sorted(truth)[::9] + absent_keys(truth, n=8)
    run(_assert_matches_oracle(fleet, oracle, truth, keys))
    oracle.close()


def test_stale_view_detected_refreshed_and_still_correct():
    fleet, dumps, truth = build_fleet(seed=13, epochs=1)

    async def go():
        async with fleet:
            router = fleet.router
            assert all(not v.stale for v in router.views.values())
            # Commit a new epoch behind the router's back.
            extra = random_kv_batch(120, VB, np.random.default_rng(77))
            fleet.ingest(extra)
            new_truth = {
                int(k): extra.value_of(i) for i, k in enumerate(extra.keys)
            }
            refreshes_before = router.stats()["aux_refreshes"]
            for k in sorted(new_truth)[:20]:
                r = await router.get(k, epoch=ANY_EPOCH)
                # Correctness never depends on view freshness: the ring
                # owners hold the new epoch whether or not the router has
                # heard of it.
                assert r.status == OK and r.value == new_truth[k]
            st = router.stats()
            assert st["stale_detected"] >= 1
            # The piggybacked token drift scheduled background re-pulls;
            # let them run, then the views must claim the new epoch.
            await asyncio.sleep(0.05)
            assert all(not v.stale for v in router.views.values())
            assert router.stats()["aux_refreshes"] > refreshes_before
            newest = max(max(v.epochs) for v in router.views.values())
            assert newest == 1

    run(go())


class _AuxExportDown:
    """Shard client whose `aux_state` raises while ``down`` is set; every
    other verb passes through to the real client."""

    def __init__(self, inner):
        self.inner = inner
        self.down = True

    def __getattr__(self, name):
        return getattr(self.inner, name)

    async def aux_state(self):
        if self.down:
            raise ConnectionError("aux export unavailable")
        return await self.inner.aux_state()


def test_aux_refresh_failures_are_counted_and_answers_stay_correct():
    fleet, dumps, truth = build_fleet(seed=19, epochs=1)

    async def go():
        async with fleet:
            router = fleet.router
            sid = min(router.clients)
            flaky = _AuxExportDown(router.clients[sid])
            router.clients[sid] = flaky

            def failures():
                return router.metrics.total(
                    "fleet.router.aux_refresh_failures", shard=str(sid)
                )

            # Start-up pull: the shard falls back to ring-order planning.
            router.views.clear()
            await router.start()
            assert sid not in router.views and failures() == 1
            flaky.down = False
            await router.refresh(sid)

            # Background re-pull after a commit behind the router's back.
            flaky.down = True
            extra = random_kv_batch(120, VB, np.random.default_rng(78))
            fleet.ingest(extra)
            for i, k in enumerate(extra.keys):
                r = await router.get(int(k), epoch=ANY_EPOCH)
                assert r.status == OK and r.value == extra.value_of(i)
            await asyncio.sleep(0.05)  # let the scheduled refreshes run
            assert failures() == 2
            assert router.views[sid].stale  # the stale mark stands
            assert router.stats()["aux_refresh_failures"] == 2
            others = [v for s, v in router.views.items() if s != sid]
            assert others and not any(v.stale for v in others)

    run(go())


def test_plan_prefers_claimants_and_never_leaves_the_owner_set():
    fleet, dumps, truth = build_fleet(seed=29, epochs=1)

    async def go():
        async with fleet:
            router = fleet.router
            for k in sorted(truth)[::17]:
                owners = fleet.ring.owners(int(k), fleet.rf)
                order, used_aux = router.plan(int(k))
                assert used_aux
                assert sorted(order) == sorted(owners)
                # Replication: every owner holds the key, aux tables have
                # no false negatives, so the front of the plan claims it.
                assert router.views[order[0]].claim(int(k)) >= 0
            # Mark every view stale: planning degrades to pure ring order.
            for v in router.views.values():
                v.stale = True
            k = next(iter(truth))
            order, used_aux = router.plan(k)
            assert not used_aux
            assert order == fleet.ring.owners(k, fleet.rf)
            scatter_before = router.stats()["scatter"]
            r = await router.get(k, epoch=ANY_EPOCH)
            assert r.status == OK and r.value == truth[k]
            assert router.stats()["scatter"] == scatter_before + 1

    run(go())


def test_router_memory_is_aux_sized():
    """The router's data-plane memory is the rebuilt aux tables — the
    same order as the sealed blobs it pulled, nowhere near the data."""
    fleet, dumps, truth = build_fleet(seed=41)

    async def go():
        async with fleet:
            router = fleet.router
            blob = router.aux_blob_bytes
            resident = router.aux_resident_bytes
            assert blob > 0 and resident > 0
            assert resident <= 2 * blob
            data_bytes = sum(len(d) for d in dumps) * (8 + VB) * fleet.rf
            assert resident < data_bytes / 4

    run(go())


def test_circuit_breaker_lifecycle():
    t = [0.0]
    br = CircuitBreaker(threshold=2, cooldown_s=1.0, clock=lambda: t[0])
    assert br.state == "closed" and br.allow()
    br.record(False)
    assert br.state == "closed"
    br.record(False)
    assert br.state == "open" and not br.allow() and br.trips == 1
    t[0] = 1.0
    assert br.state == "half_open" and br.allow()
    br.record(False)  # the half-open trial failed: re-open immediately
    assert br.state == "open" and br.trips == 2
    t[0] = 2.5
    assert br.allow()
    br.record(True)
    assert br.state == "closed"
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=0)
