"""The traced replay: per-layer numbers for one workload.

Replays a workload's seeded requests in-process, in the order the HTTP
path runs them (``json.loads`` → ``ExchangeRequest.from_dict`` →
``FairShareGate.admit`` → ``StreamSession`` → ``exchange_payload`` per
payload → ``session.chunks`` → encode → ``release``), with one span per
call.  For attribution only it then calls the layers the payload hides
(``ColumnStore.build``, ``Instance.fingerprint``, ``partition_source``,
``ExchangeCache.lookup``, ``chase``, ``chase_target_dependencies``, the
sqlite backend) separately, each on a fresh decode of the same source.

Spans are recorded by this file around calls into the program (the
program's own ``repro.obs`` spans mis-nest under asyncio), kept in
memory and written out at the end with their self times.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from concurrent.futures import wait
from contextlib import contextmanager
from typing import Iterator

from repro.backends import plan_backend
from repro.exec.cache import ExchangeCache, mapping_fingerprint
from repro.exec.partition import partition_source
from repro.mapping.chase import chase, chase_target_dependencies
from repro.mapping.sttgd import SchemaMapping
from repro.options import ExchangeOptions
from repro.relational.columnar import ColumnStore
from repro.service import ExchangeService
from repro.service.api import ExchangeRequest
from repro.service.streaming import DEFAULT_CHUNK_FACTS, StreamSession, exchange_payload
from repro.service.tenancy import FairShareGate


class Tracer:
    """In-memory spans: name, start, end, parent span and request id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
            "start": time.perf_counter(),
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def totals(self, name: str) -> dict[int | None, float]:
        """Milliseconds spent in *name* spans, summed per request."""
        out: dict[int | None, float] = {}
        for span in self.spans:
            if span["name"] == name:
                ms = (span["end"] - span["start"]) * 1000.0
                out[span["request"]] = out.get(span["request"], 0.0) + ms
        return out

    def median_ms(self, name: str) -> float:
        return statistics.median(self.totals(name).values())

    def write(self, path: str) -> None:
        """One JSON line per span, with its duration and self time."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as handle:
            for span, inner in zip(self.spans, covered):
                duration = span["end"] - span["start"]
                handle.write(json.dumps({
                    "id": span["id"],
                    "name": span["name"],
                    "parent": span["parent"],
                    "request": span["request"],
                    "start_ms": round((span["start"] - origin) * 1000.0, 4),
                    "duration_ms": round(duration * 1000.0, 4),
                    "self_ms": round((duration - inner) * 1000.0, 4),
                }) + "\n")


def _replay_request(tracer: Tracer, index: int, body: bytes, mapping: SchemaMapping,
                    options: ExchangeOptions, mapping_key: str,
                    gate: FairShareGate) -> int:
    """One request down the HTTP path's calls; returns its payload count."""
    with tracer.span("request", index):
        with tracer.span("api.json_decode", index):
            data = json.loads(body.decode("utf-8"))
        with tracer.span("api.from_dict", index):
            request = ExchangeRequest.from_dict(data)
        stream = bool(data.get("stream", True))
        with tracer.span("tenancy.admit_release", index):
            gate.admit(request.tenant, 1)
        try:
            with tracer.span("streaming.plan", index):
                session = StreamSession(
                    mapping, request, options, mapping_fingerprint=mapping_key,
                    chunk_facts=DEFAULT_CHUNK_FACTS,
                )
            for i, payload in enumerate(session.payloads):
                # The pool pickles every payload; a round-trip keeps the
                # in-process chase from reusing state a worker never sees.
                with tracer.span("streaming.pickle", index):
                    payload = pickle.loads(pickle.dumps(payload))
                with tracer.span("streaming.payload", index):
                    outcome = exchange_payload(payload)
                with tracer.span("streaming.pickle", index):
                    outcome = pickle.loads(pickle.dumps(outcome))
                with tracer.span("streaming.chunks", index):
                    chunks = list(session.chunks(i, outcome))
                if stream:
                    with tracer.span("streaming.encode", index):
                        for chunk in chunks:
                            json.dumps(chunk.as_dict(), separators=(",", ":"))
            with tracer.span("streaming.encode", index):
                if stream:
                    json.dumps(session.summary_dict(), separators=(",", ":"))
                else:
                    json.dumps(session.response().as_dict())
        finally:
            with tracer.span("tenancy.admit_release", index):
                gate.release(request.tenant, 1)
    return len(session.payloads)


def _fresh_source(body: bytes):
    return ExchangeRequest.from_dict(json.loads(body.decode("utf-8"))).source


def _attribute(tracer: Tracer, index: int, body: bytes, mapping: SchemaMapping,
               st_mapping: SchemaMapping, mapping_key: str,
               sqlite_backend) -> dict:
    """The layers hidden inside the payload, each timed on its own."""
    source = _fresh_source(body)
    with tracer.span("columnar.build", index):
        store = ColumnStore.build(source)
    packed = len(store.pack())
    source = _fresh_source(body)
    with tracer.span("instance.fingerprint", index):
        fingerprint = source.fingerprint()
    fresh = _fresh_source(body)
    with tracer.span("partition.partition", index):
        shards = partition_source(mapping, fresh, 2).shard_sizes
    # chase() on the fingerprinted source: like a worker's unpacked
    # payload, it has its column store attached.
    with tracer.span("chase.st_tgds", index):
        st_result = chase(st_mapping, source)
    # Without target dependencies (the HR workloads) this times the
    # phase's fixed cost on the solution, which chase() itself skips.
    with tracer.span("chase.target_deps", index):
        chase_target_dependencies(st_result.solution, mapping.target_dependencies)
    full = chase(mapping, source) if mapping.target_dependencies else st_result
    with tracer.span("backends.sqlite_exchange", index):
        sqlite_backend.exchange(source)
    cache = ExchangeCache(capacity=4)
    cache.store(mapping_key, fingerprint, full.solution)
    fresh = _fresh_source(body)
    with tracer.span("cache.hit", index):
        hit = cache.lookup(mapping_key, fresh.fingerprint())
    if hit is None:
        raise RuntimeError("cache missed a source it was primed with")
    return {
        "packed_bytes": packed,
        "shards": len(shards),
        "skew": max(shards) / (sum(shards) / len(shards)),
        "stats": full.statistics,
    }


def _setup_layers(root: str, mapping: SchemaMapping, options: ExchangeOptions,
                  repeats: int = 3) -> dict[str, float]:
    """Import time in a fresh interpreter, service construction, pool warm-up."""
    probe = (
        "import time; t = time.perf_counter(); "
        "import repro.service.aserve, repro.service, repro.options; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    imports = [
        float(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(repeats)
    ]
    inits, warms = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        service = ExchangeService(mapping, options)
        inits.append(time.perf_counter() - started)
        try:
            started = time.perf_counter()
            pool = service.engine.executor.ensure_pool()
            wait([pool.submit(int) for _ in range(options.workers)])
            warms.append(time.perf_counter() - started)
        finally:
            service.close()  # joins the pool's workers
    return {
        "setup.import_s": statistics.median(imports),
        "setup.service_init_ms": statistics.median(inits) * 1000.0,
        "setup.pool_warm_ms": statistics.median(warms) * 1000.0,
    }


def replay(root: str, mapping: SchemaMapping, options: ExchangeOptions,
           bodies: list[tuple[int, bytes]], spans_path: str) -> tuple[dict, dict]:
    """Replay *bodies* (index, body); return per-layer metrics and the
    per-request ``streaming.*`` totals that the dispatch gap needs."""
    tracer = Tracer()
    mapping_key = mapping_fingerprint(mapping)
    st_mapping = SchemaMapping(mapping.source, mapping.target, mapping.tgds)
    backend = plan_backend(st_mapping, ExchangeOptions(backend="sqlite")).backend
    if backend is None:
        raise RuntimeError("the sqlite backend cannot run this mapping's st-tgds")
    gate = FairShareGate(64)
    payloads, attributions = [], []
    for index, body in bodies:
        payloads.append(_replay_request(
            tracer, index, body, mapping, options, mapping_key, gate))
    for index, body in bodies:
        attributions.append(_attribute(
            tracer, index, body, mapping, st_mapping, mapping_key, backend))
    tracer.write(spans_path)

    def median_of(key):
        return statistics.median(a[key] for a in attributions)

    def count(field):
        return statistics.median(getattr(a["stats"], field) for a in attributions)

    payload_max = {}
    for span in tracer.spans:
        if span["name"] == "streaming.payload":
            ms = (span["end"] - span["start"]) * 1000.0
            payload_max[span["request"]] = max(payload_max.get(span["request"], 0.0), ms)
    admit = tracer.totals("tenancy.admit_release")
    metrics = {
        "api.json_decode_ms": tracer.median_ms("api.json_decode"),
        "api.from_dict_ms": tracer.median_ms("api.from_dict"),
        "tenancy.admit_release_us": statistics.median(admit.values()) * 1000.0,
        "streaming.plan_ms": tracer.median_ms("streaming.plan"),
        "streaming.payload_ms": tracer.median_ms("streaming.payload"),
        "streaming.payload_max_ms": statistics.median(payload_max.values()),
        "streaming.chunks_ms": tracer.median_ms("streaming.chunks"),
        "streaming.encode_ms": tracer.median_ms("streaming.encode"),
        "streaming.payloads_per_req": statistics.median(payloads),
        "columnar.build_ms": tracer.median_ms("columnar.build"),
        "columnar.packed_bytes": median_of("packed_bytes"),
        "instance.fingerprint_ms": tracer.median_ms("instance.fingerprint"),
        "partition.partition_ms": tracer.median_ms("partition.partition"),
        "partition.shards": median_of("shards"),
        "partition.skew": median_of("skew"),
        "cache.hit_ms": tracer.median_ms("cache.hit"),
        "chase.st_tgds_ms": tracer.median_ms("chase.st_tgds"),
        "chase.target_deps_ms": tracer.median_ms("chase.target_deps"),
        "chase.tgd_steps": count("tgd_firings"),
        "chase.egd_steps": count("egd_firings"),
        "chase.target_tgd_steps": count("target_tgd_firings"),
        "chase.nulls": count("nulls_created"),
        "backends.sqlite_exchange_ms": tracer.median_ms("backends.sqlite_exchange"),
    }
    metrics.update(_setup_layers(root, mapping, options))
    in_window = {
        name: tracer.totals(name)
        for name in ("streaming.plan", "streaming.chunks", "streaming.encode")
    }
    in_window["streaming.payload_max"] = payload_max
    return metrics, in_window
