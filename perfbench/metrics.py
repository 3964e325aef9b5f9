"""Which end-to-end metric, on which workload, each per-layer metric
should move.

``BENCHMARK.json`` holds every metric's name and unit (``run.py`` reads
them from there); this map lives here because that file's schema has no
field for it.
"""

MOVES = {
    # service.aserve, from the untraced HTTP window's wire
    "aserve.server_elapsed_ms": "latency_p50_ms on bulk_sharded",
    "aserve.pre_admit_ms": "throughput_rps on small_unique",
    "aserve.header_ms": "latency_p50_ms on bulk_sharded",
    # service.api
    "api.json_decode_ms": "latency_p50_ms, first_facts_p50_ms on bulk_sharded",
    "api.from_dict_ms": "latency_p50_ms, first_facts_p50_ms on bulk_sharded",
    # service.tenancy
    "tenancy.admit_release_us": "throughput_rps on small_unique (negligible)",
    # service.streaming
    "streaming.plan_ms": "latency_p50_ms on bulk_sharded",
    "streaming.payload_ms": "latency_p50_ms on bulk_sharded and deps_hotset",
    "streaming.payload_max_ms": "latency_p50_ms on bulk_sharded",
    "streaming.chunks_ms": "latency_p50_ms on bulk_sharded",
    "streaming.encode_ms": "latency_p50_ms on bulk_sharded",
    "streaming.payloads_per_req": "first_facts_p50_ms on bulk_sharded",
    "streaming.dispatch_gap_ms": "throughput_rps on small_unique",
    # relational.columnar / relational.instance
    "columnar.build_ms": "latency_p50_ms on bulk_sharded",
    "columnar.packed_bytes": "latency_p50_ms on bulk_sharded",
    "instance.fingerprint_ms": "throughput_rps on deps_hotset once the cache is on the HTTP path",
    # exec.partition
    "partition.partition_ms": "first_facts_p50_ms on bulk_sharded",
    "partition.shards": "first_facts_p50_ms on bulk_sharded",
    "partition.skew": "first_facts_p50_ms on bulk_sharded",
    # exec.cache
    "cache.hit_ms": "throughput_rps on deps_hotset; no worse on the other two",
    "cache.repeat_share": "throughput_rps on deps_hotset",
    # mapping.chase
    "chase.st_tgds_ms": "latency_p50_ms on bulk_sharded",
    "chase.target_deps_ms": "throughput_rps, latency_p50_ms on deps_hotset",
    "chase.tgd_steps": "throughput_rps, latency_p50_ms on deps_hotset",
    "chase.egd_steps": "throughput_rps, latency_p50_ms on deps_hotset",
    "chase.target_tgd_steps": "throughput_rps, latency_p50_ms on deps_hotset",
    "chase.nulls": "throughput_rps, latency_p50_ms on deps_hotset",
    # backends: none until HTTP honours `backend`; the reference for
    # "the interpreter within 2x of sqlite"
    "backends.sqlite_exchange_ms": "none yet (reference for chase.st_tgds_ms)",
    # setup (compiler, exec.parallel)
    "setup.import_s": "setup_s on all workloads",
    "setup.service_init_ms": "setup_s on all workloads",
    "setup.pool_warm_ms": "setup_s on all workloads",
    # wire / memory
    "wire.bytes_in_per_req": "latency_p50_ms on bulk_sharded",
    "wire.bytes_out_per_req": "latency_p50_ms on bulk_sharded",
    "wire.facts_out_per_req": "latency_p50_ms on bulk_sharded",
    "rss.loop_mb": "server_peak_rss_mb on bulk_sharded",
    "rss.workers_mb": "server_peak_rss_mb on bulk_sharded",
}
