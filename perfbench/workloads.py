"""The benchmark's workloads: one mapping each plus seeded request inputs.

Every workload is a mapping (built here, served by ``server.py``) and a
list of request bodies generated from ``--seed`` before the server
starts.  The generators also return, per request, the exact number of
target facts the canonical universal solution has; the client checks
every response's count against it and ``check.py`` compares sampled
responses with ``chase()`` in full.

* ``small_unique`` - the HR join mapping, a unique ~200-employee source
  per request, alternating streamed and buffered responses: fixed
  per-request costs dominate.
* ``bulk_sharded`` - the same mapping on unique sources just above the
  50k-fact auto-dispatch threshold, so every request splits into two
  shards: decode, plan, chase and encode of large inputs dominate.
* ``deps_hotset`` - a keyed mapping with a target tgd and two egds; half
  the timed requests repeat one of 8 hot sources, each sent once among
  the warm-ups: the target-dependency chase dominates and the hot half
  is where a solution cache would show.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

from repro.logic.parser import parse_rule
from repro.mapping.dependencies import target_dependency_from_rule
from repro.mapping.sttgd import SchemaMapping
from repro.options import ExchangeOptions
from repro.relational.schema import relation, schema
from repro.relational.serialization import schema_to_json
from repro.workloads.scenarios import hr_scenario

WORKLOADS = ("small_unique", "bulk_sharded", "deps_hotset")

AUTO_DISPATCH_FACTS = 50_000
"""``repro.exec.parallel``'s auto-serial threshold at the time the
benchmark was written: sources at or above it are split into shards when
the server has more than one worker.  Copied, not imported, so a program
change to the threshold cannot change the benchmark's inputs."""


@dataclass(frozen=True)
class Shape:
    """The sizes of one workload; ``tiny`` shrinks all of them."""

    rate: float  # timed requests per second of --seconds
    warmup: int  # untimed requests before the window (deps_hotset: = hot)
    employees: int
    departments: int
    sampled: int  # responses compared with chase() after the window
    replayed: int  # requests the traced replay pushes through in-process
    hot: int = 0  # distinct hot sources (deps_hotset)
    warmup_employees: int = 0  # smaller warm-up sources, when set


SHAPES = {
    "small_unique": Shape(rate=60.0, warmup=20, employees=200,
                          departments=10, sampled=24, replayed=60),
    # A request takes ~5 s, so the window is ~3.5x --seconds: with
    # fewer than 10 requests the median and p90 rest on a handful of
    # values.  A full-size warm-up request would cost as much as a timed
    # one; two small ones warm the same code on the loop and in the
    # workers.
    "bulk_sharded": Shape(rate=2 / 3, warmup=2,
                          employees=AUTO_DISPATCH_FACTS, departments=16,
                          sampled=1, replayed=1, warmup_employees=2_000),
    "deps_hotset": Shape(rate=1.5, warmup=8, employees=300,
                         departments=30, sampled=6, replayed=6, hot=8),
}

TINY = {
    "small_unique": Shape(rate=8.0, warmup=2, employees=12, departments=3,
                          sampled=4, replayed=4),
    "bulk_sharded": Shape(rate=2.0, warmup=1, employees=1_200,
                          departments=4, sampled=1, replayed=1),
    "deps_hotset": Shape(rate=8.0, warmup=2, employees=16, departments=4,
                         sampled=4, replayed=4, hot=2),
}


def shape_for(workload: str, tiny: bool) -> Shape:
    return (TINY if tiny else SHAPES)[workload]


def timed_requests(shape: Shape, seconds: int) -> int:
    """A fixed count per ``--seconds``, so every run does identical work;
    except on ``bulk_sharded`` the rates are set so the window lasts
    about that long on a 2-core x86 host."""
    return max(1, round(shape.rate * seconds))


# -- mappings ---------------------------------------------------------------

DEPS_SOURCE = schema(
    relation("Emp", "name", "dept"),
    relation("Assign", "name", "dept", "mgr"),
    relation("Dept", "dept", "head"),
)
DEPS_TARGET = schema(
    relation("Works", "name", "dept", "mgr"),
    relation("Head", "dept", "head"),
)
DEPS_ST_TGDS = """
Emp(n, d) -> exists m . Works(n, d, m)
Assign(n, d, m) -> Works(n, d, m)
Dept(d, h) -> Head(d, h)
"""
DEPS_TARGET_RULES = (
    "Works(n, d, m) -> exists h . Head(d, h)",
    "Works(n, d, m), Works(n, d, m2) -> m = m2",
    "Head(d, h), Head(d, h2) -> h = h2",
)


def options_for(workload: str) -> ExchangeOptions:
    """The options *workload* is served with: 2 pool workers (one per
    core of the 2-core reference host); only ``deps_hotset`` has a
    solution cache."""
    return ExchangeOptions(workers=2,
                           cache=64 if workload == "deps_hotset" else None)


def build_mapping(workload: str) -> SchemaMapping:
    """The mapping *workload* serves (no inputs involved)."""
    if workload in ("small_unique", "bulk_sharded"):
        return hr_scenario().mapping
    if workload == "deps_hotset":
        dependencies = [
            target_dependency_from_rule(parse_rule(rule))
            for rule in DEPS_TARGET_RULES
        ]
        return SchemaMapping.parse(
            DEPS_SOURCE, DEPS_TARGET, DEPS_ST_TGDS, dependencies
        )
    raise ValueError(f"unknown workload {workload!r}")


# -- inputs -----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One request, encoded before the server starts."""

    index: int
    body: bytes  # the exact POST /v1/exchange body
    source_key: int  # requests with equal keys carry equal sources
    stream: bool
    expected_facts: int  # target facts in the canonical universal solution


def _const(value) -> str:
    return ('{"const":%d}' if type(value) is int else '{"const":"%s"}') % value


def _source_json(source_schema, rows_by_relation) -> str:
    """A source instance's JSON text, written directly: a dict per value
    for ``json.dumps`` took most of bulk_sharded's input generation.
    Every value is an int or a string made up in this module from
    letters, digits and dashes, so none needs escaping."""
    facts = ",".join(
        '{"relation":"%s","row":[%s]}' % (name, ",".join(map(_const, row)))
        for name, rows in rows_by_relation.items()
        for row in rows
    )
    schema_text = json.dumps(schema_to_json(source_schema), separators=(",", ":"))
    return '{"schema":%s,"facts":[%s]}' % (schema_text, facts)


def _body(source: str, request_id: str, stream: bool) -> bytes:
    return ('{"source":%s,"request_id":"%s","stream":%s}'
            % (source, request_id, "true" if stream else "false")).encode("utf-8")


def _hr_source(rng: random.Random, tag: str, shape: Shape) -> tuple[str, int]:
    """A unique HR source; every employee joins exactly one department,
    so the solution has one Directory and one OrgChart fact each."""
    source_schema = hr_scenario().source
    depts = [f"{tag}-d{j}" for j in range(shape.departments)]
    sites = rng.choices(range(40), k=shape.departments)
    # choices() draws a column at a time, several times faster than
    # randrange() per value on bulk_sharded's 50k employees.
    columns = zip(rng.choices(range(10_000), k=shape.employees),
                  rng.choices(depts, k=shape.employees),
                  rng.choices(range(40, 200), k=shape.employees))
    rows = {
        "Department": [
            [d, f"{tag}-h{j}", f"site{site}"]
            for j, (d, site) in enumerate(zip(depts, sites))
        ],
        "Employee": [
            [f"{tag}-e{i}", f"name{name}", dept, salary]
            for i, (name, dept, salary) in enumerate(columns)
        ],
    }
    return _source_json(source_schema, rows), 2 * shape.employees


def _deps_source(rng: random.Random, tag: str, shape: Shape) -> tuple[str, int]:
    """A source for the keyed mapping that the egds never reject.

    Every (name, dept) pair is unique and has at most one ``Assign``
    manager; every department has at most one ``Dept`` head.  So the
    solution holds one ``Works`` fact per employee and one ``Head`` fact
    per department (a null head where ``Dept`` gives none).
    """
    depts = [f"{tag}-d{j}" for j in range(shape.departments)]
    emps = [
        (f"{tag}-e{i}", depts[rng.randrange(len(depts))])
        for i in range(shape.employees)
    ]
    assigned = rng.sample(emps, len(emps) // 2)
    headed = rng.sample(depts, (2 * len(depts)) // 3)
    rows = {
        "Emp": [list(e) for e in emps],
        "Assign": [[n, d, f"{tag}-m{rng.randrange(50)}"] for n, d in assigned],
        "Dept": [[d, f"{tag}-h{j}"] for j, d in enumerate(headed)],
    }
    heads = {d for _, d in emps} | set(headed)
    return _source_json(DEPS_SOURCE, rows), len(emps) + len(heads)


def generate(workload: str, seed: int, shape: Shape, timed: int) -> list[Request]:
    """*shape.warmup* warm-up requests, then *timed* ones, from *seed* alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deps_hotset":
        return _hotset_requests(rng, seed, shape, timed)
    out = []
    warm = replace(shape, employees=shape.warmup_employees or shape.employees)
    for index in range(shape.warmup + timed):
        tag = f"s{seed}r{index}"
        source, expected = _hr_source(rng, tag, warm if index < shape.warmup else shape)
        # small_unique alternates the two response modes; bulk streams.
        stream = workload == "bulk_sharded" or index % 2 == 0
        out.append(Request(index, _body(source, tag, stream), index, stream,
                           expected))
    return out


def _hotset_requests(
    rng: random.Random, seed: int, shape: Shape, timed: int
) -> list[Request]:
    hot = [_deps_source(rng, f"s{seed}hot{k}", shape) for k in range(shape.hot)]
    # The warm-ups send every hot source once, so each hot request in
    # the window repeats one the server has seen: exactly half of the
    # timed requests, the other half unique.
    assert shape.warmup == shape.hot, "deps_hotset warms up on its hot sources"
    timed_hot = [True] * (timed // 2)
    timed_hot += [False] * (timed - len(timed_hot))
    rng.shuffle(timed_hot)
    keys = list(range(shape.hot))
    keys += [rng.randrange(shape.hot) if is_hot else None for is_hot in timed_hot]
    out = []
    for index, key in enumerate(keys):
        tag = f"s{seed}r{index}"
        if key is None:
            source, expected = _deps_source(rng, tag, shape)
            source_key = index
        else:
            source, expected = hot[key]
            source_key = -1 - key
        out.append(Request(index, _body(source, tag, True), source_key, True,
                           expected))
    return out
