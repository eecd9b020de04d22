"""The library entry points the traced run wraps, grouped by layer.

A layer is the module a function lives in.  Every target is a public
function or method, except two that have no public equivalent:
`QueryService._run_batch` (one dispatch window, where the service's own
per-window work happens) and `QueryService._bulk_values` (the serving
tier's copy of the FilterKV candidate walk, charged to ``reader``).
"""

from __future__ import annotations

from repro.cluster import simcluster
from repro.core import auxtable, compact, multiepoch, pipeline, reader
from repro.filters import cuckoo
from repro.serve import cache, proto, service
from repro.storage import blockio, manifest, sstable

from tracer import Target


def _keys_in(tracer, args, kwargs, result):
    tracer.count("aux.keys", len(args[1]))
    tracer.count("aux.candidates", int(result[0].sum()))


def _wire(tracer, args, kwargs, result):
    env = args[1]
    tracer.count("wire.bytes", len(env.payload))
    tracer.count("wire.records", env.nrecords)


def _window(tracer, args, kwargs, result):
    tracer.count("service.window_keys", len(args[3]))


WIRE = [Target(pipeline.ReceiverState, "deliver", "pipeline.receiver.deliver", "pipeline",
               observe=_wire)]

WRITE = [
    Target(simcluster.SimCluster, "__init__", "cluster.setup", "cluster"),
    Target(simcluster.SimCluster, "put", "cluster.put", "cluster"),
    Target(simcluster.SimCluster, "finish_epoch", "cluster.finish", "cluster"),
    Target(pipeline.WriterState, "put_batch", "pipeline.writer.put_batch", "pipeline"),
    Target(pipeline.WriterState, "finish", "pipeline.writer.finish", "pipeline"),
    *WIRE,
    Target(pipeline.ReceiverState, "finish", "pipeline.receiver.finish", "pipeline"),
    Target(auxtable.CuckooAuxTable, "insert_many", "aux.insert", "auxtable"),
    Target(pipeline, "aux_to_blob", "aux.seal", "auxtable"),
    Target(compact, "aux_to_blob", "aux.seal", "auxtable"),
    Target(compact, "build_sealed_aux", "aux.build", "auxtable"),
    Target(cuckoo.ChainedCuckooTable, "insert_many", "filters.chain_insert", "filters"),
    Target(cuckoo.PartialKeyCuckooTable, "insert_many", "filters.insert", "filters"),
    Target(sstable.SSTableWriter, "add_many", "sstable.add_many", "storage.sstable"),
    Target(sstable.SSTableWriter, "finish", "sstable.finish", "storage.sstable"),
    Target(sstable.SSTableReader, "scan_arrays", "sstable.scan", "storage.sstable"),
    Target(manifest.Manifest, "commit", "manifest.commit", "storage.manifest"),
    Target(compact.Compactor, "validate", "compact.validate", "compact"),
    Target(compact.Compactor, "prepare", "compact.prepare", "compact"),
    Target(compact, "produce_merged_epoch", "compact.produce", "compact"),
    Target(compact.Compactor, "publish", "compact.publish", "compact"),
    Target(multiepoch.MultiEpochStore, "write_epoch", "multiepoch.write_epoch", "multiepoch"),
    Target(multiepoch.MultiEpochStore, "compact", "multiepoch.compact", "multiepoch"),
]

READ = [
    Target(multiepoch.MultiEpochStore, "lookup_many", "multiepoch.lookup_many", "multiepoch"),
    Target(multiepoch.MultiEpochStore, "get_many", "multiepoch.get_many", "multiepoch"),
    Target(multiepoch, "aux_from_blob", "aux.load", "auxtable"),
    Target(reader.QueryEngine, "get_many", "reader.get_many", "reader"),
    Target(auxtable.AuxTable, "candidates_many", "aux.candidates", "auxtable", observe=_keys_in),
    Target(cuckoo.ChainedCuckooTable, "candidates_many", "filters.candidates", "filters"),
    Target(cuckoo.PartialKeyCuckooTable, "lookup_many", "filters.lookup", "filters"),
    Target(sstable.SSTableReader, "__init__", "sstable.open", "storage.sstable"),
    Target(sstable.SSTableReader, "get_many", "sstable.get_many", "storage.sstable"),
]

DEVICE = [
    Target(blockio.StorageFile, "read", "device.read", "storage.blockio"),
    Target(blockio.StorageFile, "append", "device.append", "storage.blockio"),
]

SERVE = [
    Target(proto, "read_frame", "proto.decode", "serve.proto", is_async=True),
    Target(proto, "encode_frame", "proto.encode", "serve.proto"),
    Target(service.QueryService, "get", "service.get", "serve.service", is_async=True),
    Target(service.QueryService, "_run_batch", "service.run_batch", "serve.service"),
    Target(service.QueryService, "_bulk_values", "reader.service_walk", "reader",
           observe=_window),
    Target(cache.LRUCache, "lookup", "cache.result.lookup", "serve.cache"),
    Target(cache.LRUCache, "insert", "cache.result.insert", "serve.cache"),
    Target(cache.NegativeCache, "refuted", "cache.negative.refuted", "serve.cache"),
    Target(cache.NegativeCache, "add", "cache.negative.add", "serve.cache"),
]

INGEST_TARGETS = WRITE + READ + DEVICE
BULK_TARGETS = READ + DEVICE
SERVE_TARGETS = SERVE + READ + DEVICE
