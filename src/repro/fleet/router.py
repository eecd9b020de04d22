"""The fleet router: aux-table routing over shard clients, with failover.

The router is FilterKV's thesis applied one tier up.  Just as a reader
holds a compact aux table instead of the data it indexes, the router
holds — per shard, per epoch — only the shard's *sealed aux blobs*
(rebuilt into probing tables via `aux_from_blob`), never values, never
SSTables.  That bounds router memory at a few bytes per key while still
letting it send each query to the shard most likely to answer it:

* **Planning** — a key's ring owners (`HashRing.owners`, primary first)
  are reordered by what each owner's aux view *claims*: owners whose
  tables claim the key (newest claiming epoch first) are tried before
  owners whose tables deny it.  Aux tables have false positives but no
  false negatives, so a fresh claim is a strong hint and a fresh denial
  means "only ask me as a last resort".
* **Correctness invariant** — the router never answers a data query from
  its aux state alone.  Every ``get`` reaches at least one shard, an
  ``ok`` is terminal from anyone, and a ``not_found`` is terminal *only
  from a ring owner* (owners hold the key's full replica, so their
  answer is authoritative; an aux false positive on a non-owner is not).
  Aux staleness therefore costs ordering quality, never answers.
* **Staleness** — every shard answer piggybacks its `state_token`
  (compaction generation, newest epoch).  A token that differs from the
  one the view was built at marks the view stale: planning falls back to
  ring-hash order (the *scatter* path) for that shard and a background
  refresh re-pulls `aux_state`.  Commit and compaction generation bumps
  are both visible in the token, so either triggers the refresh.
* **Failover** — per-shard circuit breaker (consecutive typed failures
  open it; a cooldown half-opens it), bounded retry-with-backoff on
  retryable errors and transport faults, and a hedged second probe when
  a deadline-carrying request's first shard sits on the deadline.  A
  crashed shard's errors open its breaker within a few requests, after
  which its replicas serve every key it owned — replica promotion is
  emergent from breaker + candidate ordering, no leader election needed.

The router exposes the same surface as `QueryService` (``get`` /
``stats`` / ``live_stats`` / ``recent_traces`` / ``state_token`` /
``aux_state`` / ``start`` / ``close``), so `ServeServer` can mount it
unchanged: clients speak one protocol whether they face a shard or the
fleet.
"""

from __future__ import annotations

import asyncio
import time

from ..core.auxtable import aux_from_blob
from ..core.partitioning import HashPartitioner
from ..obs import MetricsRegistry, TimeseriesHub
from ..serve import ERROR, NOT_FOUND, OK, ServeResponse
from ..serve.proto import ERR_CLOSED, ERR_INTERNAL, ERR_UNKNOWN_EPOCH, ProtocolError
from ..serve.service import DEADLINE_EXCEEDED, OVERLOADED, STATUSES
from ..storage.envelope import unseal
from .ring import HashRing

__all__ = ["FleetRouter", "ShardAuxView", "CircuitBreaker"]

# Error codes that say "this shard, right now" — they feed the breaker
# and justify trying a replica.  Anything else says "this request".
# "" is the pre-v2 untyped error (and the in-proc probe-failure path).
_SHARD_FAULT_CODES = {"", ERR_INTERNAL, ERR_CLOSED}

# Transport-level failures a retry may heal (the TCP pump surfaces broken
# framing as ProtocolError).
_TRANSPORT_ERRORS = (ConnectionError, OSError, ProtocolError)


class ShardAuxView:
    """One shard's routing state: rebuilt aux tables per live epoch.

    Built from the ``aux_state`` verb's export.  ``blob_bytes`` is the
    sealed wire size (the honest floor: what the shard shipped);
    ``resident_bytes`` is what the rebuilt tables claim via
    ``size_bytes`` — the fleet bench gates their ratio.  Formats that
    persist no aux tables export ``None`` rows; the view is then
    *blind*: fresh, but claiming nothing, so planning degrades to ring
    order exactly as `MultiEpochStore.aux_blobs` promises.
    """

    def __init__(self, shard_id: int, state: dict):
        self.shard_id = shard_id
        self.format = state.get("format", "")
        self.nranks = int(state.get("nranks", 1))
        self.state = tuple(state.get("state", (0, -1)))
        self.stale = False
        self.blob_bytes = 0
        self._partitioner = HashPartitioner(self.nranks)
        self.epochs: dict[int, list | None] = {}
        for epoch_str, rows in (state.get("epochs") or {}).items():
            if rows is None:
                self.epochs[int(epoch_str)] = None
                continue
            tables = []
            for hexblob in rows:
                raw = bytes.fromhex(hexblob)
                self.blob_bytes += len(raw)
                # unseal() is the integrity check: the same envelope that
                # guards the extent at rest guards it on the wire.
                tables.append(aux_from_blob(unseal(raw)))
            self.epochs[int(epoch_str)] = tables

    @property
    def blind(self) -> bool:
        return all(rows is None for rows in self.epochs.values())

    @property
    def resident_bytes(self) -> int:
        return sum(
            aux.size_bytes
            for rows in self.epochs.values()
            if rows is not None
            for aux in rows
        )

    def claim(self, key: int, epoch: int | None = None) -> int:
        """Newest epoch whose aux tables claim ``key`` (-1: no claim).

        With ``epoch`` given, only that epoch is consulted.  A claim is
        the key's owner partition answering a non-empty candidate set —
        no false negatives, so -1 from a *fresh, non-blind* view means
        the shard genuinely lacks the key in the consulted epochs.
        """
        epochs = (
            [epoch] if epoch is not None and epoch in self.epochs
            else sorted(self.epochs, reverse=True)
        )
        for e in epochs:
            rows = self.epochs.get(e)
            if rows is None:
                continue
            owner = self._partitioner.partition_of_one(int(key))
            if owner < len(rows) and len(rows[owner].candidate_ranks(int(key))):
                return e
        return -1


class CircuitBreaker:
    """Per-shard failure gate: closed → open → half-open → closed.

    ``threshold`` consecutive shard faults open it for ``cooldown_s``;
    after the cooldown one probe is let through (half-open) and its
    outcome decides — success closes, failure re-opens immediately.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 0.25, clock=time.monotonic):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.failures = 0
        self.open_until: float | None = None
        self._half_open = False
        self.trips = 0

    @property
    def state(self) -> str:
        if self.open_until is None:
            return "closed"
        if self.clock() >= self.open_until:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        if self.open_until is None:
            return True
        if self.clock() >= self.open_until:
            self._half_open = True
            return True
        return False

    def record(self, ok: bool) -> None:
        if ok:
            self.failures = 0
            self.open_until = None
            self._half_open = False
            return
        self.failures += 1
        if self._half_open or self.failures >= self.threshold:
            self.open_until = self.clock() + self.cooldown_s
            self._half_open = False
            self.failures = 0
            self.trips += 1


class FleetRouter:
    """Route point queries across shard clients by aux-table candidacy.

    Parameters
    ----------
    clients:
        ``shard id → client`` (TCP or in-proc — anything with the
        `TCPClient` surface).  The mapping is read live on every call, so
        a `Fleet` swapping a recovered shard's client in place just works.
    ring / rf:
        Placement: a key may live only on its ``rf`` ring owners.
    retries / backoff_s:
        Per-shard attempts on transport faults and retryable errors, with
        exponential backoff between attempts.
    hedge_fraction:
        With a request deadline, if the first shard hasn't answered after
        this fraction of it, a hedge fires to the next candidate and the
        first terminal answer wins.  0 disables hedging.
    breaker_threshold / breaker_cooldown_s:
        Per-shard `CircuitBreaker` tuning.
    """

    def __init__(
        self,
        clients: dict[int, object],
        ring: HashRing,
        rf: int = 2,
        retries: int = 1,
        backoff_s: float = 0.005,
        hedge_fraction: float = 0.5,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 0.25,
        metrics: MetricsRegistry | None = None,
        stats_window_s: float = 10.0,
    ):
        self.clients = clients
        self.ring = ring
        self.rf = max(1, int(rf))
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.hedge_fraction = hedge_fraction
        self.views: dict[int, ShardAuxView] = {}
        self.breakers = {
            sid: CircuitBreaker(breaker_threshold, breaker_cooldown_s)
            for sid in clients
        }
        self.metrics = metrics if metrics is not None else MetricsRegistry("fleet")
        self.timeseries = TimeseriesHub(
            STATUSES,
            answered=(OK, NOT_FOUND),
            shed=(OVERLOADED, DEADLINE_EXCEEDED),
            window_s=stats_window_s,
        )
        self._refreshing: set[int] = set()
        self._closed = False
        m = self.metrics
        self._m_requests = {s: m.counter("fleet.router.requests", status=s) for s in STATUSES}
        self._m_latency = m.histogram("fleet.router.latency_seconds")
        self._m_forwards = m.counter("fleet.router.forwards")
        self._m_aux_routed = m.counter("fleet.router.aux_routed")
        self._m_scatter = m.counter("fleet.router.scatter")
        self._m_failovers = m.counter("fleet.router.failovers")
        self._m_retries = m.counter("fleet.router.retries")
        self._m_hedges = m.counter("fleet.router.hedges")
        self._m_stale = m.counter("fleet.router.stale_detected")
        self._m_refreshes = m.counter("fleet.router.aux_refreshes")
        self._m_breaker_skips = m.counter("fleet.router.breaker_skips")

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "FleetRouter":
        """Pull every shard's aux state (best-effort: a down shard just
        starts with no view, i.e. ring-order planning, and is counted in
        ``fleet.router.aux_refresh_failures``)."""
        for sid in list(self.clients):
            try:
                await self.refresh(sid)
            except Exception:
                self.views.pop(sid, None)
                self._m_refresh_failures(sid).inc()
        return self

    async def close(self) -> None:
        self._closed = True

    async def refresh(self, shard_id: int) -> ShardAuxView:
        """Re-pull one shard's `aux_state` and rebuild its view."""
        state = await self.clients[shard_id].aux_state()
        view = ShardAuxView(shard_id, state)
        self.views[shard_id] = view
        self._m_refreshes.inc()
        self._observe_memory()
        return view

    def _schedule_refresh(self, shard_id: int) -> None:
        if shard_id in self._refreshing:
            return
        self._refreshing.add(shard_id)

        async def _go():
            try:
                await self.refresh(shard_id)
            except Exception:  # shard down: the stale mark stands, planning scatters
                self._m_refresh_failures(shard_id).inc()
            finally:
                self._refreshing.discard(shard_id)

        asyncio.get_running_loop().create_task(_go())

    def _m_refresh_failures(self, shard_id: int):
        return self.metrics.counter("fleet.router.aux_refresh_failures", shard=str(shard_id))

    def _observe_memory(self) -> None:
        self.metrics.gauge("fleet.router.aux_blob_bytes").set(self.aux_blob_bytes)
        self.metrics.gauge("fleet.router.aux_resident_bytes").set(self.aux_resident_bytes)

    @property
    def aux_blob_bytes(self) -> int:
        """Summed sealed-blob bytes across every shard view (wire size)."""
        return sum(v.blob_bytes for v in self.views.values())

    @property
    def aux_resident_bytes(self) -> int:
        """What the rebuilt tables hold resident — the router's data-plane
        memory, gated against ``aux_blob_bytes`` by the fleet bench."""
        return sum(v.resident_bytes for v in self.views.values())

    # -- planning ----------------------------------------------------------

    def plan(self, key: int, epoch: int | None = None) -> tuple[list[int], bool]:
        """Candidate shards for ``key``, best-first, and whether aux state
        shaped the order.

        Only ring owners are candidates (non-owners never hold the key).
        Owners with a fresh claim sort first, newest claiming epoch first;
        stale or blind views contribute nothing, and when *no* owner has a
        fresh view the plan is pure ring order — the scatter fallback.
        """
        owners = self.ring.owners(int(key), self.rf)
        scored = []
        used_aux = False
        for pos, sid in enumerate(owners):
            view = self.views.get(sid)
            if view is None or view.stale or view.blind:
                scored.append((1, 0, pos, sid))
                continue
            used_aux = True
            claimed = view.claim(int(key), epoch)
            if claimed >= 0:
                scored.append((0, -claimed, pos, sid))
            else:
                # Fresh denial: no false negatives, so ask this owner last.
                scored.append((2, 0, pos, sid))
        scored.sort()
        return [sid for *_, sid in scored], used_aux

    # -- the request path --------------------------------------------------

    async def get(
        self,
        key: int,
        epoch: int | None = None,
        deadline_s: float | None = None,
        trace=None,
    ) -> ServeResponse:
        """Point lookup across the fleet.  Same contract as
        `QueryService.get`: always a `ServeResponse`, never an exception
        for data-plane conditions."""
        t0 = time.perf_counter()
        key = int(key)
        if self._closed:
            return self._done(
                t0, ServeResponse(ERROR, key, epoch, detail="router closed", code="closed")
            )
        order, used_aux = self.plan(key, epoch)
        (self._m_aux_routed if used_aux else self._m_scatter).inc()
        response = await self._walk(order, key, epoch, deadline_s, trace)
        return self._done(t0, response)

    def _done(self, t0: float, response: ServeResponse) -> ServeResponse:
        dt = time.perf_counter() - t0
        self._m_requests[response.status].inc()
        self._m_latency.observe(dt)
        self.timeseries.record(response.status, dt)
        return response

    async def _walk(
        self, order: list[int], key: int, epoch, deadline_s, trace
    ) -> ServeResponse:
        """Try candidates in order; hedge the first hop under deadline
        pressure.  Returns the first terminal answer, or the best
        non-terminal one when every candidate fails."""
        fallback: ServeResponse | None = None
        start = 0
        if (
            deadline_s is not None
            and self.hedge_fraction > 0
            and len(order) > 1
            and self.breakers[order[0]].allow()
        ):
            hedged = await self._hedged_first_hop(order, key, epoch, deadline_s, trace)
            final, response = hedged
            if final:
                return response
            if response is not None:
                fallback = response
            start = 2  # both hedge legs are spent
        for i, sid in enumerate(order[start:], start=start):
            if i > 0:
                self._m_failovers.inc()
            final, response = await self._try_shard(sid, key, epoch, deadline_s, trace)
            if final:
                return response
            if response is not None and fallback is None:
                fallback = response
        if fallback is not None:
            return fallback
        return ServeResponse(
            ERROR,
            key,
            epoch,
            detail=f"no shard available (tried {order})",
            code=ERR_INTERNAL,
        )

    async def _hedged_first_hop(
        self, order: list[int], key: int, epoch, deadline_s, trace
    ) -> tuple[bool, ServeResponse | None]:
        """Primary attempt with a hedge to the next candidate if the
        primary sits on ``hedge_fraction`` of the deadline.  First
        terminal answer wins; the loser is cancelled."""
        loop = asyncio.get_running_loop()
        first = loop.create_task(
            self._try_shard(order[0], key, epoch, deadline_s, trace)
        )
        done, _ = await asyncio.wait(
            {first}, timeout=max(0.0, deadline_s * self.hedge_fraction)
        )
        if done:
            final, response = first.result()
            if final:
                return True, response
            # Primary definitively failed/deferred: the caller continues
            # down the order, starting past the would-be hedge target —
            # try it now, synchronously, as the second leg.
            final, response2 = await self._try_shard(
                order[1], key, epoch, deadline_s, trace
            )
            return (True, response2) if final else (False, response or response2)
        self._m_hedges.inc()
        second = loop.create_task(
            self._try_shard(order[1], key, epoch, deadline_s, trace)
        )
        pending = {first, second}
        fallback: ServeResponse | None = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                final, response = task.result()
                if final:
                    for p in pending:
                        p.cancel()
                    if pending:
                        await asyncio.gather(*pending, return_exceptions=True)
                    return True, response
                if response is not None and fallback is None:
                    fallback = response
        return False, fallback

    async def _try_shard(
        self, sid: int, key: int, epoch, deadline_s, trace
    ) -> tuple[bool, ServeResponse | None]:
        """One shard's full attempt: breaker gate, bounded retries.

        Returns ``(final, response)``; ``final`` means the walk stops
        here.  ``(False, resp)`` keeps ``resp`` as a fallback answer if
        every other candidate also fails; ``(False, None)`` means the
        shard was skipped or unreachable.
        """
        breaker = self.breakers.get(sid)
        if breaker is not None and not breaker.allow():
            self._m_breaker_skips.inc()
            return False, None
        client = self.clients.get(sid)
        if client is None:
            return False, None
        last: ServeResponse | None = None
        for attempt in range(self.retries + 1):
            if attempt > 0:
                self._m_retries.inc()
                await asyncio.sleep(self.backoff_s * (2 ** (attempt - 1)))
            try:
                response = await client.get(
                    key, epoch=epoch, deadline_s=deadline_s, trace=trace
                )
            except _TRANSPORT_ERRORS:
                if breaker is not None:
                    breaker.record(False)
                last = None
                continue
            self._note_state(sid, response)
            if response.status in (OK, NOT_FOUND):
                if breaker is not None:
                    breaker.record(True)
                # ok from anyone; not_found only from an authoritative
                # replica holder — which every planned candidate is.
                return True, response
            if response.status == DEADLINE_EXCEEDED:
                if breaker is not None:
                    breaker.record(True)  # alive, just slow
                return True, response
            if response.status == OVERLOADED:
                # An explicit refusal: the shard is alive.  Fail over to
                # a replica but keep this as the answer of last resort.
                if breaker is not None:
                    breaker.record(True)
                return False, response
            # status == ERROR
            if response.code == ERR_UNKNOWN_EPOCH:
                # Our view of this shard is behind its compactions; its
                # replicas may already resolve the epoch.
                self._mark_stale(sid)
                if breaker is not None:
                    breaker.record(True)
                return False, response
            if response.code in _SHARD_FAULT_CODES:
                if breaker is not None:
                    breaker.record(False)
                last = response
                continue  # retryable shard fault
            # Typed non-retryable error (bad_request, unsupported_version…)
            if breaker is not None:
                breaker.record(True)
            return True, response
        return False, last

    def _note_state(self, sid: int, response: ServeResponse) -> None:
        """Compare the piggybacked state token against the view it was
        planned with; any drift (commit or compaction) marks the view
        stale and schedules a refresh."""
        if response.shard_state is None:
            return
        view = self.views.get(sid)
        if view is not None and not view.stale and tuple(response.shard_state) != view.state:
            self._mark_stale(sid)

    def _mark_stale(self, sid: int) -> None:
        view = self.views.get(sid)
        if view is not None and not view.stale:
            view.stale = True
            self._m_stale.inc()
        self._schedule_refresh(sid)

    # -- QueryService-compatible introspection ------------------------------

    def state_token(self) -> list:
        """Fleet-level epoch-set version: the per-shard tokens folded so
        any shard's commit or compaction moves it."""
        gens = sum(v.state[0] for v in self.views.values())
        newest = max((v.state[1] for v in self.views.values()), default=-1)
        return [gens, newest]

    def aux_state(self) -> dict:
        """The router holds no blobs of its own to export — it is the
        consumer of `aux_state`, not a producer — but the verb stays
        mountable so a fleet front end answers instead of erroring."""
        return {
            "format": "fleet",
            "nranks": 0,
            "state": self.state_token(),
            "epochs": {},
        }

    def stats(self) -> dict:
        """Cumulative fleet counters (JSON-safe), shaped like
        `QueryService.stats` where the concepts line up."""
        m = self.metrics
        lat = self._m_latency
        return {
            "shards": sorted(self.clients),
            "rf": self.rf,
            "requests": {
                s: int(m.total("fleet.router.requests", status=s)) for s in STATUSES
            },
            "latency_ms": {
                "p50": round(lat.quantile(0.5) * 1e3, 3),
                "p95": round(lat.quantile(0.95) * 1e3, 3),
                "p99": round(lat.quantile(0.99) * 1e3, 3),
                "count": lat.count,
            },
            "aux_routed": int(m.total("fleet.router.aux_routed")),
            "scatter": int(m.total("fleet.router.scatter")),
            "failovers": int(m.total("fleet.router.failovers")),
            "retries": int(m.total("fleet.router.retries")),
            "hedges": int(m.total("fleet.router.hedges")),
            "stale_detected": int(m.total("fleet.router.stale_detected")),
            "aux_refreshes": int(m.total("fleet.router.aux_refreshes")),
            "aux_refresh_failures": int(m.total("fleet.router.aux_refresh_failures")),
            "breaker_skips": int(m.total("fleet.router.breaker_skips")),
            "breakers": {
                str(sid): b.state for sid, b in sorted(self.breakers.items())
            },
            "aux_blob_bytes": self.aux_blob_bytes,
            "aux_resident_bytes": self.aux_resident_bytes,
        }

    def live_stats(self, window_s: float | None = None) -> dict:
        """Trailing-window fleet view: the router's own request stream
        plus each shard's breaker/view state — the ``repro top --fleet``
        payload."""
        out = self.timeseries.snapshot(window_s=window_s)
        out["format"] = "fleet"
        out["shards"] = {
            str(sid): {
                "breaker": self.breakers[sid].state,
                "stale": bool(self.views[sid].stale) if sid in self.views else None,
                "epochs": sorted(self.views[sid].epochs) if sid in self.views else [],
            }
            for sid in sorted(self.clients)
        }
        out["aux_blob_bytes"] = self.aux_blob_bytes
        out["aux_resident_bytes"] = self.aux_resident_bytes
        return out

    def recent_traces(self, n: int = 8) -> list[list[dict]]:
        return []  # request tracing lives on the shards; see their verbs
