"""`QueryService` behavior: correctness, batching, caching, admission."""

import asyncio

import numpy as np
import pytest

from repro.core.formats import FMT_FILTERKV
from repro.core.kv import KVBatch, random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.serve import (
    ANY_EPOCH,
    DEADLINE_EXCEEDED,
    ERROR,
    NOT_FOUND,
    OK,
    OVERLOADED,
    QueryService,
)

from .conftest import build_store, run, shared_store


def test_serves_every_key_byte_correct(fmt):
    store, truth = shared_store(fmt)
    expected = truth[0]

    async def main():
        # Limits sized above the key count: this test is about correctness,
        # not admission control (which has its own tests below).
        svc = QueryService(store, max_inflight=4096, queue_high_watermark=4096)
        async with svc:
            keys = list(expected)
            responses = await asyncio.gather(*(svc.get(k) for k in keys))
            for key, r in zip(keys, responses):
                assert r.status == OK
                assert r.value == expected[key]
                assert r.epoch == 0
            miss = await svc.get(1)  # random 63-bit keys: 1 is absent
            assert miss.status == NOT_FOUND and miss.value is None

    run(main())


def test_result_cache_serves_repeats(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store) as svc:
            first = await svc.get(key)
            second = await svc.get(key)
            assert not first.cached and second.cached
            assert first.value == second.value == truth[0][key]
            # The repeat never reached the engine.
            assert svc.metrics.total("reader.queries") == 1
            assert svc.metrics.total("serve.result_cache.hits") == 1
            # Negative outcomes are cached too.
            await svc.get(1)
            miss = await svc.get(1)
            assert miss.status == NOT_FOUND and miss.cached

    run(main())


def test_concurrent_same_key_lookups_coalesce(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store) as svc:
            responses = await asyncio.gather(*(svc.get(key) for _ in range(10)))
            assert all(r.status == OK and r.value == truth[0][key] for r in responses)
            # Ten waiters, one probe.
            assert svc.metrics.total("serve.coalesced") == 9
            assert svc.metrics.total("reader.queries") == 1

    run(main())


def test_concurrent_distinct_keys_share_one_batch(fmt):
    store, truth = shared_store(fmt)
    keys = list(truth[0])[:32]

    async def main():
        async with QueryService(store, max_batch=64) as svc:
            responses = await asyncio.gather(*(svc.get(k) for k in keys))
            assert all(r.status == OK for r in responses)
            assert svc.metrics.total("serve.batches") == 1
            assert svc.metrics.histogram("serve.batch_occupancy").mean == len(keys)

    run(main())


def test_queue_watermark_sheds_with_explicit_status():
    store, truth = shared_store(FMT_FILTERKV)
    expected = truth[0]
    keys = list(expected)[:100]

    async def main():
        svc = QueryService(store, queue_high_watermark=8, queue_low_watermark=2)
        async with svc:
            responses = await asyncio.gather(*(svc.get(k) for k in keys))
            statuses = {r.status for r in responses}
            shed = [r for r in responses if r.status == OVERLOADED]
            answered = [r for r in responses if r.status == OK]
            assert shed, "watermark at 8 must shed some of 100 concurrent arrivals"
            assert statuses <= {OK, OVERLOADED}
            # Every non-shed answer is byte-correct: overload never corrupts.
            for r in answered:
                assert r.value == expected[r.key]
            assert len(shed) + len(answered) == len(keys)
            assert svc.metrics.total("serve.sheds") == len(shed)
            # Hysteresis: once drained, service admits again.
            again = await svc.get(keys[0])
            assert again.status == OK

    run(main())


def test_inflight_budget_sheds():
    store, truth = shared_store(FMT_FILTERKV)
    keys = list(truth[0])[:20]

    async def main():
        async with QueryService(store, max_inflight=5, queue_high_watermark=512) as svc:
            responses = await asyncio.gather(*(svc.get(k) for k in keys))
            shed = sum(r.status == OVERLOADED for r in responses)
            assert shed == len(keys) - 5

    run(main())


def test_deadline_expires_waiter_and_drops_dead_probe(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        # A batch window holds dispatch open long enough for the zero
        # deadline to expire first — the straggler-drop path, made
        # deterministic.
        async with QueryService(store, batch_window_s=0.02) as svc:
            r = await svc.get(key, deadline_s=0)
            assert r.status == DEADLINE_EXCEEDED
            # Sole waiter expired before dispatch: the probe never ran.
            await asyncio.sleep(0.1)
            assert svc.metrics.total("serve.deadline_dropped") == 1
            assert svc.metrics.total("reader.queries") == 0

    run(main())


def test_deadline_on_one_waiter_leaves_coalesced_peer_live(fmt):
    store, truth = shared_store(fmt)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store) as svc:
            impatient, patient = await asyncio.gather(
                svc.get(key, deadline_s=0), svc.get(key)
            )
            assert impatient.status == DEADLINE_EXCEEDED
            assert patient.status == OK and patient.value == truth[0][key]

    run(main())


def test_default_deadline_applies():
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store, default_deadline_s=0) as svc:
            r = await svc.get(key)
            assert r.status == DEADLINE_EXCEEDED

    run(main())


def test_unknown_epoch_and_empty_store():
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        async with QueryService(store) as svc:
            r = await svc.get(key, epoch=99)
            assert r.status == ERROR and "99" in r.detail
        from repro.core.multiepoch import MultiEpochStore

        empty = MultiEpochStore(nranks=2, fmt=FMT_FILTERKV, value_bytes=8)
        async with QueryService(empty) as svc:
            r = await svc.get(123)
            assert r.status == NOT_FOUND

    run(main())


def test_closed_service_refuses():
    store, truth = shared_store(FMT_FILTERKV)
    key = next(iter(truth[0]))

    async def main():
        svc = QueryService(store)
        await svc.start()
        ok = await svc.get(key)
        assert ok.status == OK
        await svc.close()
        r = await svc.get(key)
        assert r.status == ERROR and "closed" in r.detail

    run(main())


def test_negative_cache_cuts_false_candidate_probes():
    """The acceptance criterion: repeat FilterKV queries skip the aux
    table's false candidates, visible in the obs counters."""
    store, truth = build_store(FMT_FILTERKV, nranks=32, records=150, seed=3)
    rng = np.random.default_rng(0)
    sample = [int(k) for k in rng.choice(list(truth[0]), 200, replace=False)]

    async def main():
        # result_cache_entries=1 forces the second round back to the probe
        # path; only the negative cache can make it cheaper.
        async with QueryService(store, result_cache_entries=1) as svc:
            m = svc.metrics
            for k in sample:
                assert (await svc.get(k)).status == OK
            probed_round1 = m.total("reader.partitions_probed", format="filterkv")
            inserts = m.total("serve.negative_cache.inserts")
            assert probed_round1 > len(sample), "expected false-candidate probes"
            assert inserts == probed_round1 - len(sample)  # every refutation recorded

            for k in sample:
                assert (await svc.get(k)).status == OK
            probed_round2 = (
                m.total("reader.partitions_probed", format="filterkv") - probed_round1
            )
            skipped = m.total("serve.negative_cache.skipped_probes")
            assert probed_round2 == len(sample), "round 2 must probe only true ranks"
            assert skipped == probed_round1 - len(sample)
            assert probed_round2 < probed_round1

    run(main())


def test_any_epoch_window_matches_store_lookup_many():
    """A served ANY_EPOCH window and `MultiEpochStore.lookup_many` are one
    newest-first walk: same values, same found epochs, and — with a cold
    negative cache — the same partition probes."""
    rng = np.random.default_rng(12)
    store = MultiEpochStore(nranks=16, fmt=FMT_FILTERKV, value_bytes=24, seed=12)
    written = np.zeros(0, dtype=np.uint64)
    for _ in range(4):
        batches = [random_kv_batch(40, 24, rng) for _ in range(16)]
        if written.size:  # later epochs rewrite some earlier keys
            old = rng.choice(written, size=16 * 8, replace=False)
            batches = [
                KVBatch(np.concatenate([o, b.keys[o.size :]]), b.values)
                for b, o in zip(batches, np.split(old, 16))
            ]
        store.write_epoch(batches)
        written = np.unique(np.concatenate([written, *(b.keys for b in batches)]))
    keys = [int(k) for k in rng.choice(written, size=56, replace=False)]
    keys += [int(k) for k in rng.integers(1 << 40, 1 << 41, size=8, dtype=np.uint64)]
    values, found_in, stats = store.lookup_many(keys)

    async def main():
        async with QueryService(store, result_cache_entries=1) as svc:
            m = svc.metrics
            responses = await asyncio.gather(*(svc.get(k, epoch=ANY_EPOCH) for k in keys))
            assert m.total("serve.batches") == 1  # one concurrent window
            return responses, m.total("reader.partitions_probed")

    responses, probed = run(main())
    assert [r.value for r in responses] == values
    assert [r.epoch for r in responses if r.status == OK] == [
        e for e in found_in if e is not None
    ]
    assert [r.status == OK for r in responses] == [e is not None for e in found_in]
    assert len(set(found_in)) > 2  # answers come from several epochs
    assert probed == sum(st.partitions_searched for st in stats)
    store.close()


def test_stats_snapshot_is_consistent(fmt):
    store, truth = shared_store(fmt)
    keys = list(truth[0])[:40]

    async def main():
        async with QueryService(store) as svc:
            await asyncio.gather(*(svc.get(k) for k in keys))
            await svc.get(keys[0])  # one cache hit
            s = svc.stats()
            assert s["format"] == fmt.name
            assert s["requests"][OK] == len(keys) + 1
            assert s["result_cache"]["hits"] == 1
            assert s["result_cache"]["misses"] == len(keys)
            assert s["latency_ms"]["count"] == len(keys) + 1
            assert s["latency_ms"]["p99"] >= s["latency_ms"]["p50"] >= 0
            assert sum(s["requests"].values()) == len(keys) + 1

    run(main())


def test_constructor_validation():
    store, _ = shared_store(FMT_FILTERKV)
    with pytest.raises(ValueError):
        QueryService(store, max_batch=0)
    with pytest.raises(ValueError):
        QueryService(store, max_inflight=0)
    with pytest.raises(ValueError):
        QueryService(store, queue_high_watermark=4, queue_low_watermark=4)
