"""End-to-end exchange benchmark: one HTTP server, one closed-loop client.

    python3 perfbench/run.py --workload small_unique --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  For the chosen workload (see
``workloads.py``) it

1. generates and encodes every request body from ``--seed`` and computes
   ``chase()``'s solution for the sampled requests;
2. cold-starts the server subprocess (``server.py``: ``ExchangeService``
   + ``ExchangeServer``, 2 pool workers) several times, timing spawn →
   first healthy ``GET /v1/health``, and checks after each stop that no
   server or pool process is left;
3. sends the warm-up requests, then a fixed number of timed requests
   from one connection at a time (a closed loop with one client),
   keeping every reply as raw bytes;
4. stops the server, then checks every reply (status and fact count)
   and compares the sampled ones with ``chase()`` (canonical equality).

``--trace 1`` adds the traced in-process replay (``replay.py``) and
prints the per-layer metrics instead of the end-to-end ones.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name → value and unit).  A fixed pure-Python
loop's rate is printed beside every run as a host-speed diagnostic; it
never rescales or discards a run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_STARTS = 5
"""Cold starts per run; ``setup_s`` is their median.  One of them
stays up and serves the run."""

PROBE_ITERATIONS = 1_500_000


def host_probe() -> float:
    """Iterations per microsecond of a fixed pure-Python loop (~0.15 s)."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return PROBE_ITERATIONS / ((time.perf_counter() - started) * 1e6)


def percentile(values: list[float], share: float) -> float:
    """Linearly interpolated between the closest ranks, so that with few
    values a high percentile is not simply the maximum."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def metric_units(kind: str) -> dict[str, str]:
    """Name → unit of BENCHMARK.json's *kind* metrics, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sets the fixed number of timed requests")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the smoke test)")
    parser.add_argument("--corrupt", type=int, action="append", default=[],
                        metavar="N", help="corrupt timed reply N before checking "
                        "(the smoke test's check of the checker)")
    parser.add_argument("--drop", type=int, action="append", default=[],
                        metavar="N", help="drop a facts line from streamed timed "
                        "reply N before checking (the smoke test's check of the "
                        "checker on replies it does not sample)")
    return parser.parse_args(argv)


def drop_facts_line(raw: bytes) -> bytes:
    """Drop a streamed reply's first facts line; the summary still counts it."""
    from client import parse_response

    status, _, body = parse_response(raw)
    lines = body.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if b'"kind":"facts"' in line)
    body = b"".join(lines[:first] + lines[first + 1:])
    return b"HTTP/1.1 %d OK\r\nContent-Length: %d\r\n\r\n%s" % (status, len(body), body)


def corrupt(raw: bytes) -> bytes:
    """Alter one fact value, keeping the framing and the fact count."""
    at = raw.find(b'{"const":')
    at = raw.index(b'"', at + len(b'{"const":'))
    return raw[:at + 1] + b"#" + raw[at + 2:]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.mapping.chase import chase
        from repro.service.api import ExchangeRequest
        from workloads import build_mapping, generate, shape_for, timed_requests

        self.args = args
        self.workload = args.workload
        self.shape = shape_for(args.workload, args.tiny)
        self.mapping = build_mapping(args.workload)
        timed = timed_requests(self.shape, args.seconds)
        self.requests = generate(args.workload, args.seed, self.shape, timed)
        self.warmup = self.requests[: self.shape.warmup]
        self.timed = self.requests[self.shape.warmup:]
        step = max(1, len(self.timed) // self.shape.sampled)
        self.sampled = set(range(0, len(self.timed), step)) | set(args.corrupt)
        # Reference solutions, outside any timed window.
        self.references = {}
        for position in sorted(self.sampled):
            request = self.timed[position]
            if request.source_key not in self.references:
                source = ExchangeRequest.from_dict(json.loads(request.body)).source
                self.references[request.source_key] = chase(
                    self.mapping, source).solution

    # -- the HTTP run ------------------------------------------------------

    def serve(self) -> dict:
        from client import post_exchange
        from procs import ServerProcess, cpu_seconds, peak_rss_mb

        def cold_start() -> float:
            server = ServerProcess(self.workload, root=ROOT)
            seconds = server.start()
            server.stop()
            return seconds

        # Cold starts before and after the window, so their median
        # samples the host at more than one moment.
        setups = [cold_start() for _ in range(SETUP_STARTS // 2)]
        server = ServerProcess(self.workload, root=ROOT)
        setups.append(server.start())
        try:
            warm = [post_exchange(server.port, r.body) for r in self.warmup]
            pids = server.pids()
            cpu_before = cpu_seconds(pids)
            started = time.perf_counter()
            replies = [post_exchange(server.port, r.body) for r in self.timed]
            window = time.perf_counter() - started
            cpu = cpu_seconds(pids) - cpu_before
            workers = server.worker_pids()
            rss_loop = peak_rss_mb(pids[0])
            rss_workers = sum(peak_rss_mb(pid) for pid in workers)
        finally:
            server.stop()
        setups += [cold_start() for _ in range(SETUP_STARTS - len(setups))]
        return {
            "setups": setups,
            "warm": warm,
            "replies": replies,
            "window": window,
            "cpu": cpu,
            "rss_loop": rss_loop,
            "rss_workers": rss_workers,
            "workers": len(workers),
        }

    def check(self, served: dict) -> tuple[list, list[str]]:
        """Check every reply; the timed ones' results and all errors."""
        from check import check_reply

        errors = [
            f"warm-up request {request.index}: {result.error}"
            for request, reply in zip(self.warmup, served["warm"])
            for result in [check_reply(reply.raw, request.stream,
                                       request.expected_facts)]
            if result.error is not None
        ]
        checked = []
        pairs = zip(self.timed, served["replies"])
        for position, (request, reply) in enumerate(pairs):
            raw = reply.raw
            if position in self.args.corrupt:
                raw = corrupt(raw)
            if position in self.args.drop:
                raw = drop_facts_line(raw)
            reference = (self.references[request.source_key]
                         if position in self.sampled else None)
            result = check_reply(raw, request.stream, request.expected_facts,
                                 reference)
            if result.error is not None:
                errors.append(f"request {position}: {result.error}")
            checked.append(result)
        return checked, errors

    def end_to_end(self, served: dict) -> dict[str, float]:
        replies = served["replies"]
        latencies = [r.latency * 1000.0 for r in replies]
        firsts = [(r.first_facts - r.sent) * 1000.0 for r in replies
                  if r.first_facts is not None]
        return {
            "setup_s": statistics.median(served["setups"]),
            "throughput_rps": len(replies) / served["window"],
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": percentile(latencies, 0.90),
            "first_facts_p50_ms": statistics.median(firsts),
            "server_peak_rss_mb": served["rss_loop"] + served["rss_workers"],
            "server_cpu_ms_per_req": served["cpu"] * 1000.0 / len(replies),
        }

    def per_layer(self, served: dict, checked: list) -> dict[str, float]:
        from replay import replay
        from workloads import options_for

        replies = served["replies"]
        timed = self.timed
        # The server's own elapsed_ms, from every reply that passed.
        elapsed = {i: c.elapsed_ms for i, c in enumerate(checked) if c.error is None}
        streamed = [i for i in elapsed if timed[i].stream]
        replayed = list(range(min(self.shape.replayed, len(timed))))
        bodies = [(i, timed[i].body) for i in replayed]
        spans_path = os.path.join(
            HERE, "out", f"spans-{self.workload}-seed{self.args.seed}.jsonl")
        metrics, in_window = replay(ROOT, self.mapping, options_for(self.workload),
                                    bodies, spans_path)
        # What the server spent beyond the replayed stages (streamed
        # replies: their elapsed_ms covers plan → summary).
        gaps = [
            elapsed[i] - in_window["streaming.plan"][i]
            - in_window["streaming.payload_max"][i]
            - in_window["streaming.chunks"][i] - in_window["streaming.encode"][i]
            for i in replayed if i in streamed
        ]
        seen, repeats = set(r.source_key for r in self.warmup), 0
        for request in timed:
            repeats += request.source_key in seen
            seen.add(request.source_key)
        metrics.update({
            "aserve.server_elapsed_ms": statistics.median(elapsed.values()),
            "aserve.pre_admit_ms": statistics.median(
                replies[i].latency * 1000.0 - ms for i, ms in elapsed.items()),
            "aserve.header_ms": statistics.median(
                (replies[i].first_byte - replies[i].sent) * 1000.0
                for i in streamed),
            "streaming.dispatch_gap_ms": statistics.median(gaps),
            "cache.repeat_share": repeats / len(timed),
            "wire.bytes_in_per_req": statistics.mean(len(r.body) for r in timed),
            "wire.bytes_out_per_req": statistics.mean(len(r.raw) for r in replies),
            "wire.facts_out_per_req": statistics.mean(
                r.expected_facts for r in timed),
            "rss.loop_mb": served["rss_loop"],
            "rss.workers_mb": served["rss_workers"],
        })
        return metrics


def main(argv: list[str] | None = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from metrics import MOVES

    args = parse_args(argv)
    run = Run(args)
    probe_before = host_probe()
    served = run.serve()
    probe_after = host_probe()
    checked, errors = run.check(served)
    failed = len(errors)
    attempted = len(run.warmup) + len(run.timed)
    replies = served["replies"]
    latencies = [r.latency * 1000.0 for r in replies]

    print(f"workload {args.workload} seed {args.seed}: {len(run.timed)} timed requests "
          f"in {served['window']:.2f} s, {len(run.warmup)} warm-up, "
          f"{served['workers']} pool workers, {len(run.sampled)} checked "
          "against chase()")
    print(f"  host probe {probe_before:.3f} / {probe_after:.3f} iterations/us "
          "(before / after the window; diagnostic only)")
    print(f"  failed_share {failed / attempted:.4f} share ({failed} of {attempted})")
    if len(latencies) >= 2:
        print(f"  latency_p99_ms {percentile(latencies, 0.99):.3f} ms "
              f"(n={len(latencies)}; not gated)")
    for error in errors[:10]:
        print(f"  FAILED {error}")
    if args.trace:
        metrics = run.per_layer(served, checked)
        print(f"  (cache.repeat_share base: {len(run.timed)} timed requests)")
    else:
        metrics = run.end_to_end(served)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    for name, value in metrics.items():
        moves = f"  (should move {MOVES[name]})" if args.trace else ""
        print(f"  {name} {value:.6g} {units[name]}{moves}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
