"""`QueryService`: the concurrent online query-serving front end.

One asyncio service mounts a recovered/attached `MultiEpochStore` and
turns the synchronous, single-caller read path into something that can
absorb skewed traffic from many concurrent clients:

* **Batching & coalescing** — concurrent lookups for the same
  ``(epoch, key)`` share one store probe; each dispatch window drains up
  to ``max_batch`` admitted requests and answers them with the store's
  own bulk read walk (`QueryEngine.get_many`, epochs newest-first through
  `newest_first` for ``ANY_EPOCH``), so a partition's table is touched
  once per window rather than once per request.
* **Two-level read cache** — a bounded LRU of finished responses keyed by
  ``(epoch, key)`` plus a negative cache of refuted ``(epoch, key, rank)``
  candidates — the walk's refute hook — so repeat FilterKV queries skip
  the aux table's false candidates entirely (`repro.serve.cache`).
* **Admission control** — a bounded in-flight request budget and
  queue-depth watermarks with hysteresis: past the high watermark the
  service sheds new arrivals with an explicit ``overloaded`` response
  until the queue drains below the low watermark, instead of letting
  latency collapse.  Per-request deadlines cancel stragglers: an expired
  waiter gets ``deadline_exceeded``, and a queued request all of whose
  waiters expired is dropped without touching the store.

Epochs are immutable once committed, so both caches key by *resolved*
epoch: committing a new epoch shifts what an unqualified query resolves
to (newest wins) rather than mutating cached state — the stale entry can
only ever be served for an explicit historical epoch, where it is the
correct answer.  `invalidate` exists for belt-and-braces cache drops.

Everything is single-event-loop: the batch executor runs synchronously
inside the dispatcher task, so no locks guard the caches or engines.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..core.reader import QueryStats, newest_first
from ..obs import (
    ActiveSpan,
    MetricsRegistry,
    TimeseriesHub,
    TraceCollector,
    TraceContext,
    counter_key,
    span_to_dict,
)
from .cache import LRUCache, NegativeCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.multiepoch import MultiEpochStore
    from ..core.reader import CachedQueryEngine

__all__ = [
    "QueryService",
    "ServeResponse",
    "ANY_EPOCH",
    "OK",
    "NOT_FOUND",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "ERROR",
]

# Sentinel epoch for "the newest value anywhere": the request walks live
# epochs newest-first and stops at the first hit — the cross-epoch view
# compaction preserves.  Cache entries for it are versioned by the newest
# epoch id, so both new commits and compactions shift the cache key.
ANY_EPOCH = -1

OK = "ok"
NOT_FOUND = "not_found"
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR = "error"

STATUSES = (OK, NOT_FOUND, OVERLOADED, DEADLINE_EXCEEDED, ERROR)

# Counter families a traced request attributes to its spans.  Everything
# the serve stack can touch: its own counters, the engines' reader.*,
# aux-table fetches, and the storage layer underneath.
_TRACE_PREFIXES = ("serve.", "reader.", "aux.", "sstable.", "vlog.")


@dataclass(frozen=True)
class ServeResponse:
    """One request's outcome.  ``status`` is always meaningful: a request
    is either answered (``ok`` / ``not_found``), explicitly refused
    (``overloaded``), timed out (``deadline_exceeded``), or failed
    (``error`` + ``detail``) — never silently dropped.

    ``code`` is the machine-readable error class (protocol v2): routers
    branch on it (``unknown_epoch`` means *my view is stale*, ``closed``
    and transport faults mean *retry elsewhere*) where ``detail`` is for
    humans.  ``shard_state`` is the answering service's piggybacked
    ``(compaction generation, newest epoch)`` token — how a router
    notices that a shard moved underneath its sealed-aux view without a
    dedicated poll.
    """

    status: str
    key: int
    epoch: int | None
    value: bytes | None = None
    cached: bool = False
    detail: str = ""
    trace: list | None = None  # span dicts, only on sampled requests
    code: str = ""
    shard_state: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK


class _Pending:
    """One admitted, not-yet-executed probe shared by its waiters.

    ``epoch`` is the resolved cache token: a live epoch id, or the
    ``("any", newest)`` tuple for cross-epoch requests.
    """

    __slots__ = ("key", "epoch", "future", "live_waiters", "traced")

    def __init__(self, key: int, epoch, future: asyncio.Future):
        self.key = key
        self.epoch = epoch
        self.future = future
        self.live_waiters = 1
        # (root span, enqueue time) per *traced* waiter — empty on the
        # fast path, so untraced requests never touch it.
        self.traced: list[tuple[ActiveSpan, float]] = []


@dataclass
class _Shedder:
    """Queue-depth watermarks with hysteresis.

    Above ``high`` the service sheds every new arrival; shedding stays on
    until the queue drains to ``low``, so a saturating client sees a
    clean ``overloaded`` band instead of flapping at the boundary.
    """

    high: int
    low: int
    shedding: bool = field(default=False, init=False)

    def __post_init__(self):
        if self.low < 0 or self.high < 1 or self.low >= self.high:
            raise ValueError(f"need 0 <= low < high, got low={self.low} high={self.high}")

    def should_shed(self, depth: int) -> bool:
        if self.shedding:
            if depth <= self.low:
                self.shedding = False
        elif depth >= self.high:
            self.shedding = True
        return self.shedding


class QueryService:
    """Serve point queries over a `MultiEpochStore` to many asyncio tasks.

    Parameters
    ----------
    store:
        The mounted dataset.  New epochs committed while serving are
        picked up on the next request (newest-epoch resolution).
    max_batch:
        Most requests one dispatch window executes together.
    batch_window_s:
        How long the dispatcher waits to fill a window after the first
        request arrives.  0 (default) means "drain whatever is queued":
        coalescing still happens under concurrency without adding idle
        latency.
    result_cache_entries / negative_cache_entries:
        Bounds for the two read caches.
    max_inflight:
        Budget of admitted-but-unanswered requests (coalesced waiters
        each count); beyond it new arrivals are shed.
    queue_high_watermark / queue_low_watermark:
        Shedding hysteresis on the dispatch queue depth.
    default_deadline_s:
        Applied to requests that do not carry their own deadline.
    table_cache_entries:
        Per-epoch engine reader-cache bound (see `CachedQueryEngine`).
    metrics:
        Registry for the ``serve.*`` (and the engines' ``reader.*``)
        series; a private real registry is created when omitted, because
        a serving tier's hit rates and shed counts are part of its
        behavior, not optional debug output.
    tracer:
        Span collector for sampled requests.  Defaults to a collector
        with ``sample_rate=0`` — the service originates no traces of its
        own but still records requests whose clients sampled them (the
        `TraceContext` arrives in the frame header).  Pass a collector
        with a positive rate to sample server-side.
    stats_window_s:
        Trailing window for `live_stats` (the ``STATS`` verb / ``repro
        top`` view).
    """

    def __init__(
        self,
        store: "MultiEpochStore",
        *,
        max_batch: int = 64,
        batch_window_s: float = 0.0,
        result_cache_entries: int = 4096,
        negative_cache_entries: int = 65536,
        max_inflight: int = 1024,
        queue_high_watermark: int = 512,
        queue_low_watermark: int | None = None,
        default_deadline_s: float | None = None,
        table_cache_entries: int = 64,
        pool=None,
        pool_min_keys: int = 64,
        metrics: MetricsRegistry | None = None,
        tracer: TraceCollector | None = None,
        stats_window_s: float = 10.0,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.store = store
        self.max_batch = max_batch
        self.batch_window_s = batch_window_s
        self.max_inflight = max_inflight
        self.default_deadline_s = default_deadline_s
        self.table_cache_entries = table_cache_entries
        # Optional WorkerPool: dispatch windows big enough to beat the
        # shipping cost probe across processes instead of on this thread.
        self._pool = pool
        self.pool_min_keys = pool_min_keys
        self._pooled = None  # lazy PooledReads over (store, pool)
        self._pool_tasks: set[asyncio.Task] = set()
        self.metrics = metrics if metrics is not None else MetricsRegistry("serve")
        # A real collector even when tracing "off": sample_rate 0 means
        # the service originates no traces, but a request that arrives
        # with a sampled TraceContext (the client decided) still records.
        self.tracer = tracer if tracer is not None else TraceCollector()
        self._tracer_may_sample = self.tracer.sample_rate > 0.0
        self.timeseries = TimeseriesHub(
            STATUSES,
            answered=(OK, NOT_FOUND),
            shed=(OVERLOADED, DEADLINE_EXCEEDED),
            window_s=stats_window_s,
        )
        low = (
            queue_low_watermark
            if queue_low_watermark is not None
            else max(0, queue_high_watermark // 2)
        )
        self._shedder = _Shedder(high=queue_high_watermark, low=low)
        self._rcache = LRUCache(result_cache_entries, self.metrics, name="serve.result_cache")
        self._negcache = NegativeCache(negative_cache_entries, self.metrics)
        self._engines: dict[int, "CachedQueryEngine"] = {}
        # Compaction generation last observed on the store.  When it moves,
        # mounted engines hold handles on extents the sweep deleted and
        # epoch-keyed cache entries may describe retired epochs — both are
        # dropped before the next probe runs.
        self._store_gen = getattr(store, "compactions", 0)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._index: dict[tuple, _Pending] = {}
        self._inflight = 0
        self._dispatcher: asyncio.Task | None = None
        self._closed = False
        m = self.metrics
        self._m_requests = {s: m.counter("serve.requests", status=s) for s in STATUSES}
        self._m_latency = {s: m.histogram("serve.latency_seconds", status=s) for s in STATUSES}
        self._m_sheds = m.counter("serve.sheds")
        self._m_coalesced = m.counter("serve.coalesced")
        self._m_batches = m.counter("serve.batches")
        self._m_occupancy = m.histogram("serve.batch_occupancy")
        self._m_deadline_dropped = m.counter("serve.deadline_dropped")
        self._m_inflight_gauge = m.gauge("serve.inflight")
        self._m_pooled_windows = m.counter("serve.pooled_windows")

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "QueryService":
        self._ensure_dispatcher()
        return self

    async def close(self) -> None:
        """Drain already-admitted requests, then stop the dispatcher."""
        if self._closed:
            return
        self._closed = True
        if self._dispatcher is not None:
            self._queue.put_nowait(None)  # sentinel: FIFO, so admitted work drains first
            await self._dispatcher
            self._dispatcher = None
        if self._pool_tasks:  # pooled windows still out on the workers
            await asyncio.gather(*list(self._pool_tasks), return_exceptions=True)
        if self._pooled is not None:
            self._pooled.release()
            self._pooled = None
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop().create_task(self._dispatch_loop())

    # -- cache/version management -----------------------------------------

    def invalidate(self) -> None:
        """Drop both read caches and mounted engines.

        Not needed for correctness on epoch commits (resolution is
        versioned by epoch — see the module docstring); exists for
        defense in depth and for tests.
        """
        self._rcache.clear()
        self._negcache.clear()
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()

    def _engine(self, epoch: int) -> "CachedQueryEngine":
        engine = self._engines.get(epoch)
        if engine is None:
            engine = self.store.cached_engine(
                epoch,
                metrics=self.metrics,
                table_cache_entries=self.table_cache_entries,
            )
            self._engines[epoch] = engine
        return engine

    def _check_generation(self) -> None:
        """Pick up a compaction swap: drop engines and epoch-keyed caches."""
        gen = getattr(self.store, "compactions", 0)
        if gen != self._store_gen:
            self.invalidate()
            self._store_gen = gen

    def _resolve_epoch(self, epoch: int | None):
        """Which committed epoch a request addresses (newest when
        unqualified).  ``None`` means the store has no epochs yet.

        `ANY_EPOCH` resolves to the ``("any", newest)`` token: hashable
        (it versions the result cache — a new commit or a compaction
        moves the newest id, shifting the key) and recognized by the
        dispatcher as "walk all live epochs".  Epoch ids retired by
        compaction resolve to the merged epoch that absorbed them.
        """
        epochs = self.store.epochs
        if not epochs:
            return None
        if epoch is None:
            return epochs[-1]
        epoch = int(epoch)
        if epoch == ANY_EPOCH:
            return ("any", epochs[-1])
        if epoch in epochs:
            return epoch
        resolve = getattr(self.store, "resolve_epoch", None)
        if resolve is not None:
            try:
                return resolve(epoch)
            except KeyError:
                pass
        raise LookupError(f"no such epoch {epoch} (have {epochs})")

    # -- the request path --------------------------------------------------

    async def get(
        self,
        key: int,
        epoch: int | None = None,
        deadline_s: float | None = None,
        trace: "TraceContext | dict | None" = None,
    ) -> ServeResponse:
        """Point lookup.  Always returns a `ServeResponse`; never raises
        for data-plane conditions (bad epoch, overload, deadline).

        ``trace`` is an optional propagated `TraceContext` (or its wire
        dict); a sampled context — or a hit on the local tracer's sample
        rate — makes the response carry its full span tree.
        """
        t0 = time.perf_counter()
        key = int(key)
        # Fast path: no propagated context and a tracer that never samples
        # means no request here can be traced — skip the helper entirely
        # (it costs a wire-context parse per call, which is pure waste at
        # the default sample rate of 0).
        if trace is None and not self._tracer_may_sample:
            root = None
        else:
            root = self._trace_begin(key, epoch, trace)
        if self._closed:
            return self._done(
                t0,
                ServeResponse(ERROR, key, epoch, detail="service closed", code="closed"),
                root,
            )
        self._check_generation()
        try:
            resolved = self._resolve_epoch(epoch)
        except LookupError as e:
            return self._done(
                t0,
                ServeResponse(ERROR, key, epoch, detail=str(e), code="unknown_epoch"),
                root,
            )
        if resolved is None:
            return self._done(t0, ServeResponse(NOT_FOUND, key, epoch), root)

        hit, entry = self._rcache.lookup((resolved, key))
        if root is not None:
            root.charge("serve.result_cache.hits" if hit else "serve.result_cache.misses")
        if hit:
            status, value, found_epoch = entry
            return self._done(
                t0, ServeResponse(status, key, found_epoch, value=value, cached=True), root
            )

        # Tuple tokens are cache/dispatch internals; responses that carry
        # no answer report the requested sentinel instead.
        public = resolved if isinstance(resolved, int) else ANY_EPOCH

        # Admission control: explicit refusal beats queueing collapse.
        if self._inflight >= self.max_inflight or self._shedder.should_shed(
            self._queue.qsize()
        ):
            self._m_sheds.inc()
            if root is not None:
                root.charge("serve.sheds")
            self._trace_shed(root, "overloaded")
            return self._done(t0, ServeResponse(OVERLOADED, key, public), root)

        self._ensure_dispatcher()
        ck = (resolved, key)
        pending = self._index.get(ck)
        if pending is not None:
            pending.live_waiters += 1
            self._m_coalesced.inc()
            if root is not None:
                root.annotate(coalesced=True)
                root.charge("serve.coalesced")
        else:
            pending = _Pending(key, resolved, asyncio.get_running_loop().create_future())
            self._index[ck] = pending
            self._queue.put_nowait(pending)
        if root is not None:
            pending.traced.append((root, time.perf_counter()))
        self._inflight += 1
        self._m_inflight_gauge.inc()
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        try:
            if deadline_s is None:
                response = await asyncio.shield(pending.future)
            else:
                response = await asyncio.wait_for(
                    asyncio.shield(pending.future), timeout=deadline_s
                )
        except asyncio.TimeoutError:
            pending.live_waiters -= 1
            self._trace_shed(root, "deadline")
            return self._done(t0, ServeResponse(DEADLINE_EXCEEDED, key, public), root)
        finally:
            self._inflight -= 1
            self._m_inflight_gauge.dec()
        pending.live_waiters -= 1
        return self._done(t0, response, root)

    def _done(
        self, t0: float, response: ServeResponse, root: ActiveSpan | None = None
    ) -> ServeResponse:
        dt = time.perf_counter() - t0
        self._m_requests[response.status].inc()
        self._m_latency[response.status].observe(dt)
        self.timeseries.record(response.status, dt)
        if root is not None:
            root.annotate(status=response.status)
            if response.cached:
                root.annotate(cached=True)
            root.charge(counter_key("serve.requests", (("status", response.status),)))
            root.finish(
                status="ok" if response.status in (OK, NOT_FOUND) else response.status
            )
            tree = self.tracer.trace(root.trace_id)
            response = replace(response, trace=[span_to_dict(s) for s in tree])
        return response

    # -- tracing helpers ---------------------------------------------------

    def _trace_begin(
        self, key: int, epoch: int | None, trace: "TraceContext | dict | None"
    ) -> ActiveSpan | None:
        """Open the request's root span when this request is sampled —
        either upstream (propagated context) or by the local tracer.

        The root takes no registry snapshot: it stays open across the
        await on the dispatcher, where concurrent requests interleave,
        so a snapshot delta would claim sibling requests' work.  Its own
        enumerable increments are attributed with `ActiveSpan.charge`;
        the shared probe work is attributed by the synchronous
        ``serve.batch`` span (charged to the window's lead traced
        request, like bulk-read I/O is charged to a group's first key).
        """
        ctx = trace if isinstance(trace, TraceContext) else TraceContext.from_wire(trace)
        if ctx is not None and not ctx.sampled:
            ctx = None
        if ctx is None and not self.tracer.should_sample():
            return None
        return self.tracer.start("serve.get", parent=ctx, key=key, epoch=epoch)

    def _trace_shed(self, root: ActiveSpan | None, reason: str) -> None:
        """Terminal zero-width span marking where a request was refused."""
        if root is None:
            return
        now = time.perf_counter()
        self.tracer.record(
            "serve.shed",
            now,
            now,
            trace_id=root.trace_id,
            parent_id=root.span_id,
            status="shed",
            attrs={"reason": reason},
        )

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is None:
                break
            batch = [first]
            stop = False
            if self.batch_window_s > 0:
                window_end = loop.time() + self.batch_window_s
                while len(batch) < self.max_batch:
                    timeout = window_end - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(self._queue.get(), timeout)
                    except asyncio.TimeoutError:
                        break
                    if nxt is None:
                        stop = True
                        break
                    batch.append(nxt)
            else:
                while len(batch) < self.max_batch:
                    try:
                        nxt = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt is None:
                        stop = True
                        break
                    batch.append(nxt)
            self._run_batch(batch)
            if stop:
                break
            # One cooperative yield per window: waiters see their results
            # (and their deadline timers fire) before the next window.
            await asyncio.sleep(0)
        # Anything still queued after the sentinel was admitted while
        # closing; fail it explicitly rather than hanging its waiters.
        while not self._queue.empty():
            pending = self._queue.get_nowait()
            if pending is not None:
                self._finish(
                    pending,
                    ServeResponse(
                        ERROR,
                        pending.key,
                        self._public_epoch(pending.epoch),
                        detail="service closed",
                    ),
                )

    @staticmethod
    def _public_epoch(token) -> int | None:
        """The epoch a response may carry: internal tuple tokens map back
        to the `ANY_EPOCH` sentinel the client sent."""
        return token if (token is None or isinstance(token, int)) else ANY_EPOCH

    def _run_batch(self, batch: list[_Pending]) -> None:
        """Execute one dispatch window against the store (synchronous)."""
        self._m_batches.inc()
        self._m_occupancy.observe(len(batch))
        # A compaction that landed since these requests were admitted
        # deleted the extents the mounted engines hold handles on.
        self._check_generation()
        live: list[_Pending] = []
        for pending in batch:
            self._index.pop((pending.epoch, pending.key), None)
            if pending.live_waiters <= 0:
                # Every waiter gave up already: drop the probe entirely.
                self._m_deadline_dropped.inc()
                pending.future.set_result(
                    ServeResponse(
                        DEADLINE_EXCEEDED, pending.key, self._public_epoch(pending.epoch)
                    )
                )
            else:
                live.append(pending)
        now = time.perf_counter()
        for pending in live:
            for root, enqueued_at in pending.traced:
                self.tracer.record(
                    "serve.queue",
                    enqueued_at,
                    now,
                    trace_id=root.trace_id,
                    parent_id=root.span_id,
                )
        by_epoch: dict = {}
        for pending in live:
            by_epoch.setdefault(pending.epoch, []).append(pending)
        for token, items in by_epoch.items():
            if (
                self._pool is not None
                and isinstance(token, int)
                and len(items) >= self.pool_min_keys
                and not any(p.traced for p in items)
            ):
                # Big untraced single-epoch window: probe it on the worker
                # pool without blocking this dispatch loop.  Answers are
                # identical to the in-process path (the workers run the
                # same engine over a snapshot); the negative cache is
                # bypassed — it only ever removes probes known to miss —
                # and traced windows stay in-process so span attribution
                # keeps its lead-member convention.
                self._m_pooled_windows.inc()
                task = asyncio.get_running_loop().create_task(
                    self._run_group_pooled(token, items)
                )
                self._pool_tasks.add(task)
                task.add_done_callback(self._pool_tasks.discard)
                continue
            try:
                # ANY_EPOCH walks every live epoch; a single-epoch window
                # is the same walk over one epoch.
                epochs = list(self.store.epochs) if isinstance(token, tuple) else [token]
                runner = lambda e=epochs, i=items: self._probe(e, i)  # noqa: E731
                roots = [root for p in items for root, _ in p.traced]
                if roots:
                    epoch_attr = "any" if isinstance(token, tuple) else token
                    self._probe_traced(runner, items, roots, epoch_attr)
                else:
                    runner()
            except Exception as e:  # fail this group loudly, keep serving
                for pending in items:
                    if not pending.future.done():
                        self._finish(
                            pending,
                            ServeResponse(
                                ERROR,
                                pending.key,
                                self._public_epoch(token),
                                detail=repr(e),
                            ),
                        )

    def _pooled_reads(self):
        if self._pooled is None:
            from ..parallel.reads import PooledReads  # local: avoid cycle

            self._pooled = PooledReads(
                self.store,
                self._pool,
                min_keys=self.pool_min_keys,
                metrics=self.metrics,
            )
        return self._pooled

    async def _run_group_pooled(self, epoch: int, items: list[_Pending]) -> None:
        """One dispatch window probed across the worker pool."""
        try:
            keys = np.fromiter((p.key for p in items), dtype=np.uint64, count=len(items))
            values, _ = await self._pooled_reads().get_many_async(keys, epoch)
            for pending, value in zip(items, values):
                status = OK if value is not None else NOT_FOUND
                self._finish(
                    pending, ServeResponse(status, pending.key, epoch, value=value)
                )
        except Exception as e:  # fail this window loudly, keep serving
            for pending in items:
                if not pending.future.done():
                    self._finish(
                        pending,
                        ServeResponse(ERROR, pending.key, epoch, detail=repr(e)),
                    )

    def _probe(self, epochs: list[int], items: list[_Pending]) -> None:
        """Answer a window over ``epochs`` (newest wins) and finish every
        pending — `newest_first`, the loop `MultiEpochStore.lookup_many`
        runs, with each epoch probed by `_bulk_values`."""
        keys = np.fromiter((p.key for p in items), dtype=np.uint64, count=len(items))
        values, where, _ = newest_first(
            epochs, lambda e, ks: self._bulk_values(self._engine(e), e, ks), keys
        )
        for pending, value, epoch in zip(items, values, where):
            if value is not None:
                response = ServeResponse(OK, pending.key, epoch, value=value)
            else:
                response = ServeResponse(NOT_FOUND, pending.key, epochs[-1])
            self._finish(pending, response)

    def _probe_traced(
        self, runner, items: list[_Pending], roots: list[ActiveSpan], epoch_attr
    ) -> None:
        """Probe with the window's shared work attributed to spans.

        The *lead* traced member owns the real ``serve.batch`` subtree —
        its counter deltas are the window's shared cost, charged once
        (the same convention the bulk read path uses for physical I/O).
        Every other traced member gets a structural mirror of that
        subtree (fresh span ids, no counters, ``shared=True``) so its
        tree still shows *where* time went without double-counting.
        """
        lead = roots[0]
        with self.tracer.span(
            "serve.batch",
            parent=lead,
            counters=self.metrics,
            prefixes=_TRACE_PREFIXES,
            batch=len(items),
            epoch=epoch_attr,
            traced=len(roots),
        ) as bspan:
            runner()
        if len(roots) > 1:
            subtree = self.tracer.subtree(bspan.span_id)
            for other in roots[1:]:
                self._mirror_subtree(subtree, other)

    def _mirror_subtree(self, spans, member_root: ActiveSpan) -> None:
        """Copy a finished span subtree under another trace's root."""
        copy_of: dict[str, str] = {}
        for s in sorted(spans, key=lambda s: (s.start, s.end)):
            parent = copy_of.get(s.parent_id or "", member_root.span_id)
            rec = self.tracer.record(
                s.name,
                s.start,
                s.end,
                trace_id=member_root.trace_id,
                parent_id=parent,
                status=s.status,
                attrs={**s.attrs, "shared": True},
            )
            copy_of[s.span_id] = rec.span_id

    def _finish(self, pending: _Pending, response: ServeResponse) -> None:
        if response.status in (OK, NOT_FOUND):
            # The entry keeps the epoch the answer came from, so an
            # ANY_EPOCH cache hit still reports where the key was found.
            self._rcache.insert(
                (pending.epoch, pending.key),
                (response.status, response.value, response.epoch),
            )
        if not pending.future.done():
            pending.future.set_result(response)

    # -- the probe -------------------------------------------------------

    def _bulk_values(
        self, engine: "CachedQueryEngine", epoch: int, keys: np.ndarray
    ) -> tuple[list[bytes | None], list[QueryStats]]:
        """One epoch's bulk probe for a window's keys: the engine's
        block-coalesced `QueryEngine.get_many`, with the negative cache as
        its FilterKV refute hook.  Values align with ``keys`` (None = not
        in this epoch).  ``epoch`` is the engine's own; it stays in the
        signature because `perfbench/layers.py` wraps this method and
        reads its arguments."""
        return engine.get_many(keys, negative_cache=self._negcache)

    # -- introspection -----------------------------------------------------

    def state_token(self) -> list:
        """``[compaction generation, newest epoch id]`` — the version of
        this service's epoch set.  A router caches it next to the aux
        view it built from `aux_state` and treats any response carrying a
        different token as proof the view is stale (epoch committed or
        compaction swapped since the last refresh)."""
        epochs = self.store.epochs
        return [getattr(self.store, "compactions", 0), epochs[-1] if epochs else -1]

    def aux_state(self) -> dict:
        """The sealed aux blobs a router needs to hold this shard's
        routing state: per live epoch, the per-rank blobs exactly as they
        sit in storage (hex — the wire is JSON).  Formats without aux
        tables export ``None`` rows; a router then has nothing to prune
        with and scatters by ring.  ``state`` is the matching
        `state_token`, so the caller can detect a commit racing the
        export."""
        blobs = {}
        export = getattr(self.store, "aux_blobs", None)
        for epoch in self.store.epochs:
            per_rank = export(epoch) if export is not None else None
            blobs[str(epoch)] = (
                None if per_rank is None else [b.hex() for b in per_rank]
            )
        return {
            "format": self.store.fmt.name,
            "nranks": self.store.nranks,
            "state": self.state_token(),
            "epochs": blobs,
        }

    def stats(self) -> dict:
        """Point-in-time snapshot of the serving counters (JSON-safe)."""
        m = self.metrics
        ok_lat = m.histogram("serve.latency_seconds", status=OK)
        return {
            "epochs": list(self.store.epochs),
            "format": self.store.fmt.name,
            "requests": {s: int(m.total("serve.requests", status=s)) for s in STATUSES},
            "latency_ms": {
                "p50": round(ok_lat.quantile(0.5) * 1e3, 3),
                "p95": round(ok_lat.quantile(0.95) * 1e3, 3),
                "p99": round(ok_lat.quantile(0.99) * 1e3, 3),
                "count": ok_lat.count,
            },
            "result_cache": {
                "hits": int(m.total("serve.result_cache.hits")),
                "misses": int(m.total("serve.result_cache.misses")),
                "entries": len(self._rcache),
            },
            "negative_cache": {
                "skipped_probes": int(m.total("serve.negative_cache.skipped_probes")),
                "inserts": int(m.total("serve.negative_cache.inserts")),
                "entries": len(self._negcache),
            },
            "compactions": getattr(self.store, "compactions", 0),
            "sheds": int(m.total("serve.sheds")),
            "coalesced": int(m.total("serve.coalesced")),
            "batches": int(m.total("serve.batches")),
            "mean_batch_occupancy": round(m.histogram("serve.batch_occupancy").mean, 3),
            "inflight": self._inflight,
        }

    def live_stats(self, window_s: float | None = None) -> dict:
        """Trailing-window view (QPS, shed rate, latency quantiles) —
        the payload behind the ``stats_live`` verb and ``repro top``."""
        out = self.timeseries.snapshot(window_s=window_s)
        out["format"] = self.store.fmt.name
        out["epochs"] = list(self.store.epochs)
        out["inflight"] = self._inflight
        out["queue_depth"] = self._queue.qsize()
        out["shedding"] = self._shedder.shedding
        out["traces_retained"] = len(self.tracer)
        if self._pool is not None:
            out["workers"] = self._pool.stats()
        return out

    def recent_traces(self, n: int = 8) -> list[list[dict]]:
        """The last ``n`` retained traces as span-dict lists (JSON-safe)."""
        return [
            [span_to_dict(s) for s in spans] for spans in self.tracer.recent_traces(n)
        ]
