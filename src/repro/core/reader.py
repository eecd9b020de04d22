"""The read path: point queries over a persisted, partitioned dataset.

Implements the three query flows whose costs Fig. 11 compares:

* **base** — hash the key to its partition, open that partition's table
  (footer + index + filter reads), read the candidate data block(s).
* **dataptr** — same, but the stored value is a 12-byte pointer, so one
  extra read recovers the value from the writer's log (the paper's
  "one extra read operation per query").
* **filterkv** — read the partition's *auxiliary table* first, then probe
  the candidate source partitions' main tables until the key is found;
  false positives cost extra partition probes (1.88 partitions/query in
  the paper's runs).

Every read is charged to the `StorageDevice`, and `QueryStats` breaks the
cost down by the same categories as Fig. 11b/c: footer, index, aux table,
data blocks, and value log.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..obs import MetricsRegistry, active, child_span, current_span
from ..storage.blockio import StorageDevice
from ..storage.log import DataPointer, ValueLog
from ..storage.sstable import FOOTER_BYTES, SSTableReader
from .auxtable import AuxTable
from .formats import FormatSpec
from .partitioning import HashPartitioner
from .pipeline import aux_table_name, main_table_name

__all__ = ["QueryEngine", "CachedQueryEngine", "QueryStats", "newest_first"]


@dataclass
class QueryStats:
    """Cost accounting for one point query (Fig. 11's three panels)."""

    found: bool = False
    latency: float = 0.0
    reads: int = 0
    bytes_read: int = 0
    partitions_searched: int = 0
    breakdown_reads: dict = field(default_factory=dict)
    breakdown_bytes: dict = field(default_factory=dict)

    def _charge(self, category: str, reads: int, nbytes: int) -> None:
        self.reads += reads
        self.bytes_read += nbytes
        self.breakdown_reads[category] = self.breakdown_reads.get(category, 0) + reads
        self.breakdown_bytes[category] = self.breakdown_bytes.get(category, 0) + nbytes

    def merge(self, other: "QueryStats") -> None:
        """Fold another probe's costs into this aggregate (cross-epoch walks)."""
        self.found = self.found or other.found
        self.latency += other.latency
        self.reads += other.reads
        self.bytes_read += other.bytes_read
        self.partitions_searched += other.partitions_searched
        for k, v in other.breakdown_reads.items():
            self.breakdown_reads[k] = self.breakdown_reads.get(k, 0) + v
        for k, v in other.breakdown_bytes.items():
            self.breakdown_bytes[k] = self.breakdown_bytes.get(k, 0) + v


class QueryEngine:
    """Point-query executor over one epoch's persisted output."""

    def __init__(
        self,
        device: StorageDevice,
        fmt: FormatSpec,
        nranks: int,
        partitioner: HashPartitioner,
        aux_tables: list[AuxTable | None] | None = None,
        epoch: int = 0,
        parallel_probe: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        self.device = device
        self.fmt = fmt
        self.nranks = nranks
        self.partitioner = partitioner
        self.aux_tables = aux_tables or [None] * nranks
        self.epoch = epoch
        self.parallel_probe = parallel_probe
        self.metrics = active(metrics)
        fmtl = {"format": fmt.name}
        self._m_queries = self.metrics.counter("reader.queries", **fmtl)
        self._m_hits = self.metrics.counter("reader.hits", **fmtl)
        self._m_partitions = self.metrics.counter("reader.partitions_probed", **fmtl)
        self._m_candidates = self.metrics.counter("reader.candidates", **fmtl)
        self._m_amp = self.metrics.histogram("reader.read_amplification", **fmtl)
        self._m_batch_keys = self.metrics.counter("reader.batch_keys", **fmtl)
        self._m_batch_blocks = self.metrics.histogram("reader.batch_blocks_decoded", **fmtl)
        self._m_batch_coalesce = self.metrics.histogram(
            "reader.batch_coalescing_ratio", **fmtl
        )

    # -- helpers -----------------------------------------------------------

    def _charged(self, stats: QueryStats, category: str):
        """Context manager charging device I/O deltas to one category."""

        class _Span:
            def __enter__(inner):
                inner.before = self.device.counters.snapshot()
                return inner

            def __exit__(inner, *exc):
                d = self.device.counters.delta(inner.before)
                stats._charge(category, d.reads, d.bytes_read)
                stats.latency += d.read_time

        return _Span()

    def _open_table(self, rank: int, stats: QueryStats) -> SSTableReader:
        """Open a partition table, splitting footer vs index charges."""
        name = main_table_name(self.epoch, rank)
        before = self.device.counters.snapshot()
        reader = SSTableReader(self.device, name)
        d = self.device.counters.delta(before)
        stats._charge("footer", 1, FOOTER_BYTES)
        stats._charge("index", d.reads - 1, d.bytes_read - FOOTER_BYTES)
        stats.latency += d.read_time
        return reader

    def _release_table(self, reader: SSTableReader) -> None:
        """Give back a reader obtained from `_open_table`.

        The uncached engine opens per query, so it must close per query —
        otherwise every lookup leaks an extent handle (audited through
        `StorageDevice.open_handles`).  The cached engine overrides this
        to a no-op because its cache owns the handle.
        """
        reader.close()

    def _open_vlog(self, rank: int) -> ValueLog:
        return ValueLog.open(self.device, rank)

    def _release_vlog(self, log: ValueLog) -> None:
        log.close()

    def _charge_aux(self, owner: int, stats: QueryStats) -> None:
        """Fetch the owner partition's auxiliary table bytes.

        The reader fetches the partition's entire aux table (the paper
        reads ~18 MB per query), then resolves candidates in memory.
        """
        if current_span() is None:  # untraced: skip span-argument setup
            self._fetch_aux(stats, owner)
            return
        with child_span("aux.fetch", partition=owner):
            self._fetch_aux(stats, owner)

    def _fetch_aux(self, stats: QueryStats, owner: int) -> None:
        aux_file = self.device.open(aux_table_name(self.epoch, owner))
        try:
            with self._charged(stats, "aux"):
                aux_file.read(0, aux_file.size)
        finally:
            aux_file.close()

    def close(self) -> None:
        """Release held handles (no-op here: this engine holds none
        between queries).  The cached subclass closes its caches."""

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- query flows ---------------------------------------------------------

    def get(self, key: int) -> tuple[bytes | None, QueryStats]:
        """Point lookup; returns (value-or-None, cost accounting)."""
        if current_span() is None:  # untraced: skip span-argument setup
            value, stats = self._get_dispatch(key)
            self._observe(stats)
            return value, stats
        with child_span(
            "engine.get",
            counters=self.metrics,
            prefixes=("reader.",),
            format=self.fmt.name,
        ) as span:
            value, stats = self._get_dispatch(key)
            self._observe(stats)
            if span is not None:
                span.annotate(found=stats.found, partitions=stats.partitions_searched)
        return value, stats

    def _get_dispatch(self, key: int) -> tuple[bytes | None, QueryStats]:
        if self.fmt.name == "base":
            return self._get_base(key)
        if self.fmt.name == "dataptr":
            return self._get_dataptr(key)
        return self._get_filterkv(key)

    def _observe(self, stats: QueryStats) -> None:
        """Mirror one query's cost accounting into the registry."""
        self._m_queries.inc()
        if stats.found:
            self._m_hits.inc()
        self._m_partitions.inc(stats.partitions_searched)
        self._m_amp.observe(stats.partitions_searched)
        for cat, n in stats.breakdown_reads.items():
            self.metrics.counter(
                "reader.storage_reads", format=self.fmt.name, category=cat
            ).inc(n)
        for cat, nbytes in stats.breakdown_bytes.items():
            self.metrics.counter(
                "reader.bytes_read", format=self.fmt.name, category=cat
            ).inc(nbytes)

    def _get_base(self, key: int) -> tuple[bytes | None, QueryStats]:
        stats = QueryStats()
        owner = self.partitioner.partition_of_one(key)
        reader = self._open_table(owner, stats)
        try:
            with self._charged(stats, "data"):
                value = reader.get(key)
        finally:
            self._release_table(reader)
        stats.partitions_searched = 1
        stats.found = value is not None
        return value, stats

    def _get_dataptr(self, key: int) -> tuple[bytes | None, QueryStats]:
        stats = QueryStats()
        owner = self.partitioner.partition_of_one(key)
        reader = self._open_table(owner, stats)
        try:
            with self._charged(stats, "data"):
                ptr_blob = reader.get(key)
        finally:
            self._release_table(reader)
        stats.partitions_searched = 1
        if ptr_blob is None:
            return None, stats
        ptr = DataPointer.unpack(ptr_blob)
        log = self._open_vlog(ptr.rank)
        try:
            with self._charged(stats, "vlog"):
                value = log.read(ptr)
        finally:
            self._release_vlog(log)
        stats.found = True
        return value, stats

    def _get_filterkv(self, key: int) -> tuple[bytes | None, QueryStats]:
        stats = QueryStats()
        owner = self.partitioner.partition_of_one(key)
        aux = self.aux_tables[owner]
        if aux is None:
            raise ValueError(f"no auxiliary table for partition {owner}")
        self._charge_aux(owner, stats)
        candidates = aux.candidate_ranks(key)
        self._m_candidates.inc(len(candidates))
        if self.parallel_probe:
            return self._probe_parallel(key, candidates, stats)
        value = None
        for rank in candidates:
            stats.partitions_searched += 1
            reader = self._open_table(int(rank), stats)
            try:
                with self._charged(stats, "data"):
                    value = reader.get(key)
            finally:
                self._release_table(reader)
            if value is not None:
                break
        stats.found = value is not None
        return value, stats

    def _probe_parallel(
        self, key: int, candidates, stats: QueryStats
    ) -> tuple[bytes | None, QueryStats]:
        """Probe every candidate partition concurrently (paper §III-C:
        readers search candidate locations "potentially concurrently").

        All probes issue: reads and bytes accumulate for each, but latency
        is the *maximum* single-probe latency rather than the sum — the
        overlap a parallel reader buys.
        """
        probe_latencies = []
        value = None
        for rank in candidates:
            before = stats.latency
            stats.partitions_searched += 1
            reader = self._open_table(int(rank), stats)
            try:
                with self._charged(stats, "data"):
                    hit = reader.get(key)
            finally:
                self._release_table(reader)
            probe_latencies.append(stats.latency - before)
            if hit is not None and value is None:
                value = hit
        if probe_latencies:
            stats.latency -= sum(probe_latencies) - max(probe_latencies)
        stats.found = value is not None
        return value, stats

    # -- bulk query flow -----------------------------------------------------

    @staticmethod
    def _groups(sortkeys: np.ndarray):
        """Yield ``(value, positions)`` groups of equal sort keys, ascending.

        ``positions`` preserves the original relative order within each
        group (stable sort), so "first key of a group" is deterministic.
        """
        if sortkeys.size == 0:
            return
        order = np.argsort(sortkeys, kind="stable")
        sk = sortkeys[order]
        starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
        ends = np.r_[starts[1:], sk.size]
        for s, e in zip(starts, ends):
            yield int(sk[s]), order[s:e]

    def get_many(
        self, keys, negative_cache=None
    ) -> tuple[list[bytes | None], list[QueryStats]]:
        """Bulk point lookups: value-equivalent to ``[self.get(k) for k in keys]``.

        One walk serves every format (the paper's §III-C reader in bulk):
        candidates (the owner partition; for filterkv, the owner's aux
        table), then ranks ascending with one block-coalesced
        ``SSTableReader.get_many`` per rank, each key stopping at its first
        hit, then (dataptr) one offset-ordered sweep per value log.  So
        ``found``, per-key ``partitions_searched``, and the aux-table
        probe/candidate counters all match the scalar walk exactly; only
        the physical plan changes.  Shared I/O is charged to the *first*
        key of the group that needed it, so per-key breakdowns are an
        attribution (aggregate reads/bytes remain exact, and are <= the
        scalar loop's — that reduction is the point).  Under
        ``parallel_probe`` every candidate is probed (no early stop) and
        the lowest-rank hit wins, matching the scalar parallel walk's
        value and probe counts; the scalar max-latency overlap adjustment
        is not replicated.

        ``negative_cache`` (a `repro.serve.cache.NegativeCache`) is the
        filterkv refute hook: candidate ranks it refuted for ``(epoch,
        key)`` are skipped and every candidate probe that misses is added
        to it, so it only ever removes probes known to miss.
        """
        arr = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64).ravel())
        n = int(arr.size)
        values: list[bytes | None] = [None] * n
        stats = [QueryStats() for _ in range(n)]
        if n == 0:
            return values, stats
        if current_span() is None:  # untraced: skip span-argument setup
            self._get_many_dispatch(arr, values, stats, negative_cache)
            return values, stats
        with child_span(
            "engine.get_many",
            counters=self.metrics,
            prefixes=("reader.",),
            format=self.fmt.name,
            keys=n,
        ) as span:
            blocks, probes = self._get_many_dispatch(arr, values, stats, negative_cache)
            if span is not None:
                span.annotate(blocks=blocks, probes=probes)
        return values, stats

    def _get_many_dispatch(
        self, arr: np.ndarray, values: list, stats: list[QueryStats], negative_cache
    ) -> tuple[int, int]:
        if self.fmt.name == "filterkv":
            pos, ranks = self._candidates(arr, stats, negative_cache)
        else:  # the owner is the only candidate: nothing to refute
            pos, ranks = np.arange(arr.size), self.partitioner.partition_of(arr)
            negative_cache = None
        blocks, probes = self._probe_ranks(arr, pos, ranks, values, stats, negative_cache)
        if self.fmt.name == "dataptr":
            self._deref(values, stats)
        for v, s in zip(values, stats):
            s.found = v is not None
            self._observe(s)
        self._m_batch_keys.inc(arr.size)
        self._m_batch_blocks.observe(blocks)
        if blocks:
            self._m_batch_coalesce.observe(probes / blocks)
        return blocks, probes

    def _candidates(
        self, keys: np.ndarray, stats: list[QueryStats], refute
    ) -> tuple[np.ndarray, np.ndarray]:
        """FilterKV candidates as flat ``(key position, rank)`` pairs: the
        aux fetch once per owner group (charged to its first key), minus
        the ranks ``refute`` has refuted."""
        cand_pos = [np.zeros(0, dtype=np.int64)]
        cand_rank = [np.zeros(0, dtype=np.int64)]
        for owner, pos in self._groups(self.partitioner.partition_of(keys)):
            aux = self.aux_tables[owner]
            if aux is None:
                raise ValueError(f"no auxiliary table for partition {owner}")
            self._charge_aux(owner, stats[int(pos[0])])
            counts, flat = aux.candidates_many(keys[pos])
            self._m_candidates.inc(int(counts.sum()))
            cand_pos.append(np.repeat(pos, counts))
            cand_rank.append(flat)
        pos, ranks = np.concatenate(cand_pos), np.concatenate(cand_rank)
        if refute is not None and pos.size:
            klist = keys.tolist()
            keep = [
                not refute.refuted(self.epoch, klist[p], r)
                for p, r in zip(pos.tolist(), ranks.tolist())
            ]
            pos, ranks = pos[keep], ranks[keep]
        return pos, ranks

    def _probe_ranks(
        self, keys: np.ndarray, pos, ranks, values: list, stats: list[QueryStats], learn
    ) -> tuple[int, int]:
        """Probe candidates rank by rank, ascending; returns (blocks, probes).

        Each rank's still-unanswered keys share one table open and one
        block-coalesced ``get_many``, which with the per-key "found" mask
        is probe-equivalent to each key walking its own ascending
        candidate list to the first hit.  Misses are added to ``learn``.
        """
        found = np.zeros(len(values), dtype=bool)
        blocks_touched = 0
        probes = 0
        for rank, gi in self._groups(ranks):
            group = pos[gi]
            if not self.parallel_probe:
                group = group[~found[group]]
            if group.size == 0:
                continue
            lead = stats[int(group[0])]
            reader = self._open_table(rank, lead)
            try:
                with self._charged(lead, "data"):
                    vals, nblocks = reader.get_many(keys[group])
            finally:
                self._release_table(reader)
            blocks_touched += nblocks
            probes += group.size
            for p, v in zip(group.tolist(), vals):
                stats[p].partitions_searched += 1
                if v is None:
                    if learn is not None:
                        learn.add(self.epoch, int(keys[p]), rank)
                elif values[p] is None:
                    values[p] = v
                    found[p] = True
        return blocks_touched, probes

    def _deref(self, values: list, stats: list[QueryStats]) -> None:
        """dataptr: swap each hit's pointer for its value, one
        offset-ordered ``read_many`` per value log."""
        ptrs = [(p, DataPointer.unpack(v)) for p, v in enumerate(values) if v is not None]
        vranks = np.asarray([pt.rank for _, pt in ptrs], dtype=np.int64)
        for rank, gi in self._groups(vranks):
            group = [ptrs[int(i)] for i in gi]
            log = self._open_vlog(rank)
            try:
                with self._charged(stats[group[0][0]], "vlog"):
                    vals = log.read_many([pt for _, pt in group])
            finally:
                self._release_vlog(log)
            for (p, _), v in zip(group, vals):
                values[p] = v


def newest_first(epochs, probe, keys):
    """Newest value of each key across ``epochs`` (listed oldest first).

    ``probe(epoch, keys)`` answers one epoch in bulk as ``(values, stats)``
    — normally an engine's `QueryEngine.get_many`.  Epochs are walked
    newest first, each probed once with only the still-unanswered keys,
    so a key stops at the newest epoch holding it: the view compaction
    preserves.  Returns ``(values, epoch_found, aggregate_stats)`` aligned
    with ``keys``; a key's stats sum its probes over every epoch walked.
    """
    arr = np.asarray(keys, dtype=np.uint64).ravel()
    values: list[bytes | None] = [None] * arr.size
    where: list[int | None] = [None] * arr.size
    agg = [QueryStats() for _ in range(arr.size)]
    remaining = list(range(arr.size))
    for epoch in reversed(epochs):
        if not remaining:
            break
        vals, stats = probe(epoch, arr[remaining])
        still: list[int] = []
        for i, value, st in zip(remaining, vals, stats):
            agg[i].merge(st)
            if value is not None:
                values[i] = value
                where[i] = epoch
            else:
                still.append(i)
        remaining = still
    return values, where, agg


class CachedQueryEngine(QueryEngine):
    """Query engine with a warm, bounded reader cache.

    The paper's readers open each partition per query (footer + index
    loads every time); a long-running analysis session would keep tables
    open and aux tables resident instead.  This engine caches table
    readers (bounded LRU — a multi-epoch session can't end up holding
    every rank of every epoch open), value-log attachments, and the
    once-per-partition aux fetch, so only the *first* query against a
    partition pays the open cost — the reader-caching ablation quantifies
    the difference.  Hits and misses per cache are reported as
    ``reader.cache.hits`` / ``reader.cache.misses`` with a ``cache``
    label (``table`` | ``aux`` | ``vlog``).
    """

    def __init__(self, *args, table_cache_entries: int = 64, **kwargs):
        super().__init__(*args, **kwargs)
        if table_cache_entries < 1:
            raise ValueError(f"table_cache_entries must be >= 1, got {table_cache_entries}")
        self.table_cache_entries = table_cache_entries
        self._table_cache: OrderedDict[int, SSTableReader] = OrderedDict()
        self._vlog_cache: dict[int, ValueLog] = {}
        self._aux_read: set[int] = set()
        fmtl = {"format": self.fmt.name}
        self._m_cache_hits = {
            c: self.metrics.counter("reader.cache.hits", cache=c, **fmtl)
            for c in ("table", "aux", "vlog")
        }
        self._m_cache_misses = {
            c: self.metrics.counter("reader.cache.misses", cache=c, **fmtl)
            for c in ("table", "aux", "vlog")
        }
        self._m_cache_evictions = self.metrics.counter(
            "reader.cache.evictions", cache="table", **fmtl
        )

    def _open_table(self, rank: int, stats: QueryStats) -> SSTableReader:
        reader = self._table_cache.get(rank)
        if reader is not None:
            self._table_cache.move_to_end(rank)
            self._m_cache_hits["table"].inc()
            return reader
        self._m_cache_misses["table"].inc()
        reader = super()._open_table(rank, stats)
        self._table_cache[rank] = reader
        if len(self._table_cache) > self.table_cache_entries:
            _, evicted = self._table_cache.popitem(last=False)
            evicted.close()
            self._m_cache_evictions.inc()
        return reader

    def _release_table(self, reader: SSTableReader) -> None:
        pass  # the cache owns the handle; eviction or close() releases it

    def _open_vlog(self, rank: int) -> ValueLog:
        log = self._vlog_cache.get(rank)
        if log is not None:
            self._m_cache_hits["vlog"].inc()
            return log
        self._m_cache_misses["vlog"].inc()
        log = super()._open_vlog(rank)
        self._vlog_cache[rank] = log
        return log

    def _release_vlog(self, log: ValueLog) -> None:
        pass  # cached per rank for the engine's lifetime

    def _charge_aux(self, owner: int, stats: QueryStats) -> None:
        if owner in self._aux_read:  # one aux fetch per partition
            self._m_cache_hits["aux"].inc()
            return
        self._m_cache_misses["aux"].inc()
        super()._charge_aux(owner, stats)
        self._aux_read.add(owner)

    def close(self) -> None:
        """Close every cached reader/log and forget the warm state."""
        for reader in self._table_cache.values():
            reader.close()
        for log in self._vlog_cache.values():
            log.close()
        self._table_cache.clear()
        self._vlog_cache.clear()
        self._aux_read.clear()
