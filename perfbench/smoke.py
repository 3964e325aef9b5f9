"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/smoke.py

Checks, for every workload, that an untraced run prints every
end-to-end metric of ``BENCHMARK.json`` with its unit and a traced run
every per-layer metric (each with the metric it should move); that a
corrupted reply, and a streamed reply missing a facts line, count as
failed; that no server or pool process outlives a run; and that the
benchmark fails without a result where the sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from metrics import MOVES  # noqa: E402
from run import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_TIMEOUT = 180


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=_TIMEOUT,
    )


def result_of(done: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1
    return result, lines[:-1]


def check_metrics(result: dict, report: list[str], expected: dict[str, str]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == set(expected), set(metrics) ^ set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(metrics[name]["value"], (int, float)), name
        printed = [line.split() for line in report if line.split()[:1] == [name]]
        assert printed and printed[0][2] == unit, (name, printed)


def leftover_servers() -> list[str]:
    """Command lines of live server processes (pool workers share them)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if os.path.join("perfbench", "server.py") in cmdline:
            found.append(f"{entry}: {cmdline}")
    return found


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(MOVES) == {m["name"] for m in spec["per_layer"]}
    tiny = ("--seconds", "1", "--tiny")
    for workload in WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            expected = metric_units(kind)
            result, report = result_of(bench(
                "--workload", workload, "--seed", "3", "--trace", trace, *tiny))
            assert result["correct"] and result["failed"] == 0, report
            check_metrics(result, report, expected)
            assert not leftover_servers(), leftover_servers()
        print(f"ok   {workload}: every metric printed with its unit")

    result, report = result_of(bench(
        "--workload", "small_unique", "--seed", "4", "--corrupt", "1", *tiny))
    assert not result["correct"] and result["failed"] == 1, report
    assert any("FAILED request 1" in line for line in report), report
    print("ok   a corrupted reply counts as failed")
    # Reply 1 is streamed and not sampled: only the fact count can catch it.
    result, report = result_of(bench(
        "--workload", "deps_hotset", "--seed", "4", "--drop", "1", *tiny))
    assert not result["correct"] and result["failed"] == 1, report
    assert any("FAILED request 1" in line and "facts delivered" in line
               for line in report), report
    print("ok   a reply missing a facts line counts as failed")
    assert not leftover_servers(), leftover_servers()
    print("ok   no server or pool process left behind")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = bench("--workload", "small_unique", "--seed", "1", "--seconds", "1",
                 cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok   without sources it exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
