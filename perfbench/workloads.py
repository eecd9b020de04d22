"""The benchmark workloads.  Each returns a `Result`.

All three run the library in its default configuration: `FMT_FILTERKV`,
no aux policy (the paper's cuckoo aux table) and ``parallel="off"``.

Every timed operation runs just after one `reference_loop`, and the
gated times are taken at reference speed (see `pace`), so that the drift
of a shared machine cancels.  The wall-clock figures are printed beside
them, under the workload's own names.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import layers
from data import NRANKS, VALUE_BYTES, Dataset, count_wrong
from pace import at_reference, reference_loop
from repro.core.multiepoch import MultiEpochStore
from tracer import Tracer

SETUP_REPEATS = 3  # store builds timed per run; the median is reported


@dataclass
class Result:
    """What one run measured.

    ``e2e`` holds the end-to-end metrics; ``named`` the workload's own
    metrics under the names the workload defines them by; ``layers`` the
    per-layer metrics of a traced run.  ``wrong`` counts answers that
    differ from the oracle, ``errors`` operations that raised.
    """

    e2e: dict[str, float] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    tracer: Tracer | None = None  # a traced in-process run's spans, written out at the end
    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    sheds: int = 0


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def inputs_built() -> float:
    """Mark the end of input building; returns the process's peak RSS so far.

    Everything alive now (the inputs and oracles) is exempted from the
    cyclic collector, so its size never lengthens a collection inside a
    timed region; it is still freed by reference counting.  Program state
    built later is collected as usual.  ``peak_rss_mb`` is the peak
    reached after this point minus the figure returned here, so it tracks
    the program, not the benchmark's own data.
    """
    gc.collect()
    gc.freeze()
    return maxrss_mb()


def timed_store_builds(ds: Dataset):
    """Build an uncompacted store from ``ds`` SETUP_REPEATS times: the
    constructor, then one `write_epoch` per epoch, each after its own
    reference loop.

    Returns the last store, the median build time at reference speed,
    every build's wall seconds, and the last build's wire meter.
    """
    store = None
    costs, walls = [], []
    for _ in range(SETUP_REPEATS):
        store = None  # let the previous build go before the next one
        gc.collect()
        meter = Tracer(layers.WIRE)
        cost = wall = 0.0
        with meter:
            for e, batches in enumerate(ds.epochs):
                ref = reference_loop()
                t0 = time.perf_counter()
                if e == 0:
                    store = MultiEpochStore(nranks=NRANKS, value_bytes=VALUE_BYTES)
                store.write_epoch(batches)
                dt = time.perf_counter() - t0
                wall += dt
                cost += at_reference(dt, ref)
        walls.append(wall)
        costs.append(cost)
    return store, statistics.median(costs), walls, meter


def wire_per_record(meter: Tracer) -> float:
    return meter.counts["wire.bytes"] / meter.counts["wire.records"]


def check_wire(meter: Tracer, records: int) -> int:
    """Wrong answers of the 8 B/record shuffle invariant (0 or 1)."""
    c = meter.counts
    return int(c.get("wire.records", 0) != records or c.get("wire.bytes", 0) != 8 * records)


def put_shares(per_layer: dict[str, float], total: float, out: dict[str, float]) -> None:
    """Every layer's self seconds as a share of ``total``, plus the residual
    that no traced call covers."""
    for layer in ALL_LAYERS:
        out[f"share.{layer}"] = per_layer.get(layer, 0.0) / total
    out["share.unattributed"] = (total - sum(per_layer.values())) / total


ALL_LAYERS = (
    "multiepoch",
    "cluster",
    "pipeline",
    "auxtable",
    "filters",
    "storage.sstable",
    "storage.manifest",
    "storage.blockio",
    "compact",
    "reader",
    "serve.proto",
    "serve.service",
    "serve.cache",
)


# -- ingest_compact ---------------------------------------------------------

INGEST_EPOCHS = 8
INGEST_RECORDS_PER_EPOCH = 10_000
READBACK_KEYS = 2048
ATTACH_REPEATS = 3  # reopenings of the written store timed per untraced round


def ingest_compact(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Result:
    res = Result()
    per_epoch = max(256, int(INGEST_RECORDS_PER_EPOCH * scale))
    ds = Dataset(seed, INGEST_EPOCHS, per_epoch, absent=READBACK_KEYS // 8)
    base_mb = inputs_built()
    rng = np.random.default_rng(seed + 1)
    # traced? -> [(ingest wall s, compact wall s, round at reference speed s)]
    rounds = {False: [], True: []}
    commits: list[float] = []  # untraced commits at reference speed
    commit_walls: list[float] = []
    attach: list[float] = []  # at reference speed
    attach_walls: list[float] = []
    stored: list[int] = []
    wire: list[float] = []
    tracer = Tracer(layers.INGEST_TARGETS) if trace else None
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        traced = trace and i % 2 == 1
        meter = tracer if traced else Tracer(layers.WIRE)
        store = MultiEpochStore(nranks=NRANKS, value_bytes=VALUE_BYTES)
        costs, walls = [], []
        with meter:
            for batches in ds.epochs:
                ref = reference_loop()
                t0 = time.perf_counter()
                store.write_epoch(batches)
                walls.append(time.perf_counter() - t0)
                costs.append(at_reference(walls[-1], ref))
            stored.append(store.device.total_bytes_stored())
            writes = store.device.counters.snapshot()
            if not traced:
                res.attempted += ATTACH_REPEATS
                for _ in range(ATTACH_REPEATS):
                    wall, cost, same = time_attach(store)
                    attach_walls.append(wall)
                    attach.append(cost)
                    res.wrong += int(not same)
            ref = reference_loop()
            t0 = time.perf_counter()
            report = store.compact()
            compact_wall = time.perf_counter() - t0
        rounds[traced].append((sum(walls), compact_wall,
                               sum(costs) + at_reference(compact_wall, ref)))
        if not traced:
            commits.extend(costs)
            commit_walls.extend(walls)
            # The shuffle invariant: FilterKV ships each record's 8 B key only.
            res.attempted += 1
            res.wrong += check_wire(meter, ds.records)
            wire.append(wire_per_record(meter))
            res.info["device_writes_per_round"] = writes.writes
            res.info["device_bytes_written_per_record"] = writes.bytes_written / ds.records
        res.attempted += 1
        res.wrong += int(
            report is None
            or report.records_in != ds.records
            or report.records_out != len(ds.newest)
        )
        checked, wrong = readback(store, ds, rng)
        res.attempted += checked
        res.wrong += wrong
        store.close()
        # Start every round from the same heap: last round's store is garbage.
        del store, report
        gc.collect()
        i += 1
    plain = rounds[False]
    ingest_s = statistics.median(a for a, _, _ in plain)
    compact_s = statistics.median(b for _, b, _ in plain)
    round_cost = statistics.median(c for _, _, c in plain)
    res.e2e["ops_per_s"] = ds.records / round_cost
    res.e2e["op_tail_ms"] = quantile(commits, 0.9) * 1e3
    res.e2e["peak_rss_mb"] = maxrss_mb() - base_mb
    res.e2e["stored_bytes_per_record"] = statistics.median(stored) / ds.records
    res.e2e["wire_bytes_per_record"] = statistics.median(wire)
    res.e2e["setup_s"] = statistics.median(attach)
    res.named = {
        "ingest_records_per_s": (ds.records / ingest_s, "1/s"),
        "compact_records_per_s": (ds.records / compact_s, "1/s"),
        "commit_p50_ms": (quantile(commit_walls, 0.5) * 1e3, "ms"),
        "commit_p90_ms": (quantile(commit_walls, 0.9) * 1e3, "ms"),
        "attach_s": (statistics.median(attach_walls), "s"),
        "wire_bytes_per_record": (res.e2e["wire_bytes_per_record"], "B"),
        "stored_bytes_per_record": (res.e2e["stored_bytes_per_record"], "B"),
    }
    res.info.update(rounds=len(plain), records=ds.records, epochs=ds.nepochs,
                    epoch_commits_timed=len(commits), attaches_timed=len(attach),
                    op="one write_epoch commit", tail="p90",
                    setup="MultiEpochStore.attach of the 8-epoch store")
    if trace:
        traced_rounds = rounds[True]
        n = len(traced_rounds)
        ingest_layers(tracer, res.layers, n)
        res.layers["device.writes"] = res.info["device_writes_per_round"]
        res.layers["device.bytes_written_per_record"] = res.info["device_bytes_written_per_record"]
        put_shares(tracer.layer_self(), sum(a + b for a, b, _ in traced_rounds), res.layers)
        res.layers["trace.overhead_frac"] = (
            statistics.median(c for _, _, c in traced_rounds) / round_cost - 1.0
        )
        res.tracer = tracer
    return res


def time_attach(store) -> tuple[float, float, bool]:
    """Reopen ``store`` from its device alone, the program's set-up step.

    Returns the wall seconds, the same at reference speed, and whether
    the reopened store lists the same epochs.
    """
    ref = reference_loop()
    t0 = time.perf_counter()
    reopened = MultiEpochStore.attach(store.device)
    wall = time.perf_counter() - t0
    same = reopened.manifest.epoch_ids == store.manifest.epoch_ids
    reopened.close()
    return wall, at_reference(wall, ref), same


def readback(store, ds: Dataset, rng) -> tuple[int, int]:
    """Check a sample of keys after compaction through both read calls;
    returns (answers checked, answers wrong)."""
    keys = np.concatenate([rng.choice(ds.keys, READBACK_KEYS - ds.absent.size), ds.absent])
    values, _, _ = store.lookup_many(keys)
    wrong = count_wrong(values, keys, ds.newest)
    values, _ = store.get_many(keys, 0)  # a retired epoch id resolves to the merged one
    wrong += count_wrong(values, keys, ds.newest)
    return 2 * keys.size, wrong


def ingest_layers(tracer: Tracer, out: dict, rounds: int) -> None:
    own = tracer.self_times()
    inc = tracer.inclusive_times()

    def per_round(times, *names):
        return sum(times[n] for n in names) / rounds

    # The writer calls the receiver (through the router) inside put_batch,
    # so the two pipeline halves are self times; the rest are whole calls.
    out["pipeline.writer_s"] = per_round(own, "pipeline.writer.put_batch", "pipeline.writer.finish")
    out["pipeline.receiver_s"] = per_round(
        own, "pipeline.receiver.deliver", "pipeline.receiver.finish")
    out["aux.insert_s"] = per_round(inc, "aux.insert")
    out["aux.seal_s"] = per_round(inc, "aux.seal")
    out["sstable.build_s"] = per_round(inc, "sstable.add_many", "sstable.finish")
    out["manifest.save_s"] = per_round(inc, "manifest.commit")
    for phase in ("validate", "prepare", "produce", "publish"):
        out[f"compact.{phase}_s"] = per_round(inc, f"compact.{phase}")


# -- bulk_lookup ------------------------------------------------------------

BULK_EPOCHS = 8
BULK_RECORDS_PER_EPOCH = 12_000
BATCH_KEYS = 512
BULK_ABSENT_SHARE = 0.10
BULK_ABSENT_KEYS = 4096  # distinct never-written keys the absent share draws from
WARMUP_STEPS = 2
BULK_TAIL = 0.90


def bulk_lookup(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Result:
    res = Result()
    per_epoch = max(256, int(BULK_RECORDS_PER_EPOCH * scale))
    ds = Dataset(seed, BULK_EPOCHS, per_epoch, BULK_ABSENT_KEYS)
    base_mb = inputs_built()
    store, res.e2e["setup_s"], setup_walls, meter = timed_store_builds(ds)
    res.attempted += 1
    res.wrong += check_wire(meter, ds.records)
    rng = np.random.default_rng(seed + 1)
    nabsent = int(BATCH_KEYS * BULK_ABSENT_SHARE)

    def sample() -> np.ndarray:
        keys = np.concatenate([rng.choice(ds.keys, BATCH_KEYS - nabsent),
                               rng.choice(ds.absent, nabsent)])
        return rng.permutation(keys)

    tracer = Tracer(layers.BULK_TARGETS) if trace else None
    # traced? -> [(wall s, at reference speed s)] per step: one lookup_many
    # batch then one get_many batch
    steps = {False: [], True: []}
    searched = found = 0
    reads_before = None
    deadline = None
    i = 0
    while deadline is None or i < WARMUP_STEPS + 4 or time.perf_counter() < deadline:
        if i == WARMUP_STEPS:  # caches warm: start the clock
            deadline = time.perf_counter() + seconds
            reads_before = store.device.counters.reads
            searched = found = 0
        traced = trace and i >= WARMUP_STEPS and i % 2 == 1
        keys1, keys2 = sample(), sample()
        epoch = int(rng.integers(ds.nepochs))
        ref = reference_loop()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        vals1, _, stats1 = store.lookup_many(keys1)
        vals2, stats2 = store.get_many(keys2, epoch)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        res.wrong += count_wrong(vals1, keys1, ds.newest)
        res.wrong += count_wrong(vals2, keys2, ds.per_epoch[epoch])
        res.attempted += keys1.size + keys2.size
        for st in (*stats1, *stats2):
            searched += st.partitions_searched
            found += st.found
        if i >= WARMUP_STEPS:
            steps[traced].append((wall, at_reference(wall, ref)))
        i += 1
    walls = [w for w, _ in steps[False]]
    costs = [c for _, c in steps[False]]
    res.e2e["ops_per_s"] = 2 * BATCH_KEYS / statistics.median(costs)
    res.e2e["op_tail_ms"] = quantile(costs, BULK_TAIL) * 1e3
    res.e2e["peak_rss_mb"] = maxrss_mb() - base_mb
    res.e2e["stored_bytes_per_record"] = store.device.total_bytes_stored() / ds.records
    res.e2e["wire_bytes_per_record"] = wire_per_record(meter)
    measured = len(steps[False]) + len(steps[True])
    keys = 2 * BATCH_KEYS * measured
    res.named = {
        "bulk_keys_per_s": (2 * BATCH_KEYS * len(walls) / sum(walls), "1/s"),
        "bulk_step_p50_ms": (quantile(walls, 0.5) * 1e3, "ms"),
        "bulk_step_p90_ms": (quantile(walls, BULK_TAIL) * 1e3, "ms"),
        "store_build_s": (statistics.median(setup_walls), "s"),
    }
    res.info.update(records=ds.records, epochs=ds.nepochs, keys=len(ds.keys),
                    batch_keys=BATCH_KEYS, absent_share=BULK_ABSENT_SHARE,
                    steps_timed=len(walls),
                    op="one lookup_many batch then one get_many batch", tail="p90",
                    setup="MultiEpochStore() and 8 write_epoch calls")
    if trace:
        batches = 2 * len(steps[True])
        inc = tracer.inclusive_times()
        own = tracer.self_times()
        c = tracer.counts
        out = res.layers
        out["multiepoch.self_s"] = (own["multiepoch.lookup_many"] + own["multiepoch.get_many"]) / batches
        out["reader.self_s"] = own["reader.get_many"] / batches
        out["aux.candidates_s"] = inc["aux.candidates"] / batches
        out["aux.candidates_per_key"] = c["aux.candidates"] / c["aux.keys"]
        out["filters.tables_per_aux_call"] = c["filters.lookup.calls"] / c["aux.candidates.calls"]
        out["sstable.open_s"] = inc["sstable.open"] / batches
        out["sstable.opens_per_batch"] = c.get("sstable.open.calls", 0) / batches
        out["sstable.get_many_s"] = inc["sstable.get_many"] / batches
        out["device.reads_per_key"] = (store.device.counters.reads - reads_before) / keys
        out["reader.partitions_per_key"] = searched / keys
        out["reader.false_candidate_ratio"] = (searched - found) / searched
        put_shares(tracer.layer_self(), sum(w for w, _ in steps[True]), out)
        out["trace.overhead_frac"] = (
            statistics.median(c for _, c in steps[True]) / statistics.median(costs) - 1.0
        )
        res.tracer = tracer
    store.close()
    return res


# -- serve_tcp_zipf -----------------------------------------------------------

SERVE_EPOCHS = 8
SERVE_RECORDS_PER_EPOCH = 12_000
SERVE_ABSENT = 4096
ZIPF_THETA = 0.99
SERVE_ABSENT_SHARE = 0.05
CONNECTIONS = 2
FANOUT = 16  # closed loop: requests sent at once, over all connections
OPEN_RATE_QPS = 200.0  # open loop: about half the closed loop's rate on a 2-core machine
CLOSED_SHARE = 0.6  # of --seconds; the open loop gets the rest
WARMUP_REQUESTS = 2000  # mounts every epoch's engine and starts filling the result cache
WINDOW_S = 0.5  # the closed loop runs in windows, with one reference loop between each two
SERVE_TAIL = 0.90
# Keys drawn for a closed-loop phase, sent over and over.  Far more than
# the result cache holds, so a repeat is never a hit the first pass missed.
CLOSED_KEYS = 60_000


def serve_tcp_zipf(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Result:
    return asyncio.run(_serve(seed, seconds, trace, scale))


def snapshot(service) -> dict:
    """The service's request and cache counters."""
    st = service.stats()
    return {
        "requests": sum(st["requests"].values()),
        "result_hits": st["result_cache"]["hits"],
        "result_misses": st["result_cache"]["misses"],
        "negative_skips": st["negative_cache"]["skipped_probes"],
    }


@dataclass
class Window:
    """One closed-loop window and the reference loops on either side of it."""

    tally: object  # drive.Tally
    ref_s: float  # the mean of the two loops
    cpu_s: float  # process CPU time inside the window

    @property
    def qps(self) -> float:
        """Requests per second at reference speed."""
        return self.tally.sent / at_reference(self.tally.elapsed, self.ref_s)

    @property
    def tail_s(self) -> float:
        return at_reference(quantile(self.tally.latencies, SERVE_TAIL), self.ref_s)


async def _serve(seed: int, seconds: float, trace: bool, scale: float) -> Result:
    """Server and load generator share this process and its event loop and
    talk over loopback TCP.  A server in a second process measured up to
    1.7x apart between runs minutes apart, as the host moved the two busy
    cores; one process keeps the run on one core."""
    from drive import closed_loop, open_loop
    from repro.serve import QueryService, ServeServer, TCPClient
    from repro.serve.loadgen import KeySampler

    res = Result()
    per_epoch = max(256, int(SERVE_RECORDS_PER_EPOCH * scale))
    ds = Dataset(seed, SERVE_EPOCHS, per_epoch, SERVE_ABSENT)
    sampler = KeySampler(ds.keys, "zipfian", ZIPF_THETA, seed + 1)
    rng = np.random.default_rng(seed + 2)
    absent = ds.absent.astype(np.int64)

    def draw(n: int) -> np.ndarray:
        keys = sampler.sample(n)
        miss = rng.random(n) < SERVE_ABSENT_SHARE
        keys[miss] = rng.choice(absent, size=int(miss.sum()))
        return keys

    # Every key the client sends is drawn before the program starts.
    closed_s = seconds * (0.5 if trace else CLOSED_SHARE)
    warmup = draw(WARMUP_REQUESTS).tolist()
    phase_keys = [draw(CLOSED_KEYS).tolist() for _ in range(2 if trace else 1)]
    nopen = int(OPEN_RATE_QPS * (seconds - closed_s))
    open_keys = draw(nopen)
    gaps = sampler.interarrival_s(nopen, OPEN_RATE_QPS)
    base_mb = inputs_built()

    store, res.e2e["setup_s"], setup_walls, meter = timed_store_builds(ds)
    res.e2e["stored_bytes_per_record"] = store.device.total_bytes_stored() / ds.records
    res.e2e["wire_bytes_per_record"] = wire_per_record(meter)
    res.attempted += 1
    res.wrong += check_wire(meter, ds.records)
    service = QueryService(store)
    server = await ServeServer(service).start()
    clients = []
    try:
        for _ in range(CONNECTIONS):
            clients.append(await TCPClient("127.0.0.1", server.port).connect())

        async def closed(keys: list[int]) -> list[Window]:
            stream = itertools.cycle(keys)
            windows = []
            end = time.perf_counter() + closed_s
            before = reference_loop()
            while time.perf_counter() < end:
                c0 = time.process_time()
                tally = await closed_loop(clients, stream, ds.newest, FANOUT, WINDOW_S)
                cpu = time.process_time() - c0
                after = reference_loop()
                windows.append(Window(tally, (before + after) / 2, cpu))
                before = after
            return windows

        tallies = [await closed_loop(clients, iter(warmup), ds.newest, FANOUT)]
        # After a fixed amount of work: a timed phase serves more requests
        # when the program is faster, and fills the negative cache further.
        res.e2e["peak_rss_mb"] = maxrss_mb() - base_mb
        m0 = snapshot(service)
        phase1 = await closed(phase_keys[0])
        m1 = snapshot(service)
        tallies += [w.tally for w in phase1]
        res.e2e["ops_per_s"] = statistics.median(w.qps for w in phase1)
        res.e2e["op_tail_ms"] = statistics.median(w.tail_s for w in phase1) * 1e3
        sent = sum(w.tally.sent for w in phase1)
        latencies = [x for w in phase1 for x in w.tally.latencies]
        cpu_ms = sum(w.cpu_s for w in phase1) / (m1["requests"] - m0["requests"]) * 1e3
        if trace:
            tracer = Tracer(layers.SERVE_TARGETS, wall_of=("service.get",))
            with tracer:
                m2 = snapshot(service)
                traced = await closed(phase_keys[1])
                m3 = snapshot(service)
            tallies += [w.tally for w in traced]
            serve_layers(tracer, m2, m3, sum(w.cpu_s for w in traced), res.layers)
            res.layers["process.cpu_ms_per_req"] = cpu_ms
            res.layers["trace.overhead_frac"] = (
                res.e2e["ops_per_s"] / statistics.median(w.qps for w in traced) - 1.0
            )
            res.tracer = tracer
        else:
            phase2 = await open_loop(clients, open_keys, ds.newest, gaps, drain_s=10.0)
            tallies.append(phase2)
            res.named.update({
                "serve_p50_ms": (quantile(phase2.latencies, 0.5) * 1e3, "ms"),
                "serve_p99_ms": (quantile(phase2.latencies, 0.99) * 1e3, "ms"),
                "gen_late_p99_ms": (quantile(phase2.late, 0.99) * 1e3, "ms"),
            })
            res.info.update(open_requests=phase2.sent, open_rate_qps=OPEN_RATE_QPS,
                            open_answered=len(phase2.latencies))
        res.named.update({
            "serve_qps": (sent / sum(w.tally.elapsed for w in phase1), "1/s"),
            "closed_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
            "closed_p90_ms": (quantile(latencies, SERVE_TAIL) * 1e3, "ms"),
            "cpu_ms_per_req": (cpu_ms, "ms"),
            "store_build_s": (statistics.median(setup_walls), "s"),
        })
        for t in tallies:
            res.attempted += t.sent
            res.wrong += t.wrong
            res.errors += t.errors
            res.sheds += t.sheds
    finally:
        for client in clients:
            await client.close()
        await server.close()
        store.close()
    res.named["peak_rss_all_mb"] = (maxrss_mb() - base_mb, "MB")
    res.info.update(records=ds.records, keys=len(ds.keys), epochs=ds.nepochs,
                    zipf_theta=ZIPF_THETA, absent_share=SERVE_ABSENT_SHARE,
                    connections=CONNECTIONS, fanout=FANOUT,
                    closed_requests=sent, closed_windows=len(phase1),
                    op=f"one ANY_EPOCH get over TCP, closed loop of {FANOUT}-request fan-outs",
                    tail=f"median of per-{WINDOW_S:g}s-window p90s",
                    setup="MultiEpochStore() and 8 write_epoch calls")
    return res


def serve_layers(tracer: Tracer, m0: dict, m1: dict, cpu_s: float, out: dict) -> None:
    """Per-request layer numbers over one traced phase of ``cpu_s`` process
    CPU seconds.  Client and server share the process, so proto times
    cover both ends of each request."""
    reqs = m1["requests"] - m0["requests"]
    inc, counts = tracer.inclusive_times(), tracer.counts
    per_layer = tracer.layer_self()
    walls = tracer.walls["service.get"]
    out["proto.encode_s"] = inc["proto.encode"] / reqs
    out["proto.decode_s"] = inc["proto.decode"] / reqs
    out["service.get_p50_ms"] = quantile(walls, 0.5) * 1e3
    out["service.get_p99_ms"] = quantile(walls, 0.99) * 1e3
    out["service.self_ms"] = per_layer.get("serve.service", 0.0) / reqs * 1e3
    walks = counts.get("reader.service_walk.calls", 0)
    out["service.window_keys"] = counts.get("service.window_keys", 0) / walks if walks else 0.0
    hits = m1["result_hits"] - m0["result_hits"]
    misses = m1["result_misses"] - m0["result_misses"]
    out["cache.result_hit_ratio"] = hits / (hits + misses)
    out["cache.negative_skips_per_req"] = (m1["negative_skips"] - m0["negative_skips"]) / reqs
    out["reader.get_many_s"] = inc["reader.service_walk"] / reqs
    put_shares(per_layer, cpu_s, out)
