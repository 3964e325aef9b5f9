"""The output checker.

Every reply gets the cheap check: HTTP 200, a complete body, status
``complete``, and exactly the expected number of facts, both in the
summary's ``fact_count`` and counted over the facts that arrived.
Sampled replies also get the full one: their facts must be canonically
equal to ``chase()``'s solution, computed before the server started.
Any failure counts against the run.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from client import MalformedReply, events, parse_response
from repro.relational.canonical import canonically_equal
from repro.relational.instance import Instance
from repro.relational.values import Constant, LabeledNull
from repro.service.streaming import FactChunk


@dataclass
class Checked:
    """What one reply said, once decoded."""

    error: str | None  # None when every check passed
    elapsed_ms: float = 0.0  # the server's own elapsed_ms


def check_reply(raw: bytes, stream: bool, expected_facts: int,
                reference: Instance | None = None) -> Checked:
    """The cheap check; with *reference*, chase()'s solution, the full
    check as well."""
    try:
        status, _, body = parse_response(raw)
    except MalformedReply as exc:
        return Checked(f"malformed reply: {exc}")
    if status != 200:
        return Checked(f"HTTP {status}: {body[:200]!r}")
    try:
        if stream:
            decoded = events(body)
            summary = decoded[-1] if decoded else {}
            if summary.get("kind") != "summary":
                return Checked("stream ended without a summary line")
            delivered = sum(len(event["facts"]) for event in decoded
                            if event.get("kind") == "facts")
        else:
            decoded = summary = json.loads(body)
            delivered = len(summary["facts"]["facts"])
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        return Checked(f"undecodable body: {exc}")
    if summary.get("status") != "complete":
        return Checked(f"status {summary.get('status')!r}")
    if summary.get("fact_count") != expected_facts:
        return Checked(
            f"summary says {summary.get('fact_count')} facts, "
            f"expected {expected_facts}"
        )
    if delivered != expected_facts:
        return Checked(f"{delivered} facts delivered, expected {expected_facts}")
    error = full_check(decoded, stream, reference) if reference is not None else None
    return Checked(error, float(summary["elapsed_ms"]))


def delivered_facts(decoded, stream: bool) -> list[tuple[str, tuple]]:
    """The (relation, row) facts of a decoded reply: its events when
    streamed, its JSON object when buffered."""
    if stream:
        chunks = [FactChunk.from_dict(event) for event in decoded
                  if event["kind"] == "facts"]
    else:
        # A buffered body's instance has the same "facts" list as a chunk.
        chunks = [FactChunk.from_dict(decoded["facts"])]
    return [fact for chunk in chunks for fact in chunk.facts]


def full_check(decoded, stream: bool, reference: Instance) -> str | None:
    """Canonical equality with the reference solution; an error or None."""
    try:
        facts = delivered_facts(decoded, stream)
    except (ValueError, KeyError, TypeError) as exc:
        return f"undecodable facts: {exc}"
    if not equivalent(facts, reference):
        return "facts differ from chase()'s solution"
    return None


_NULL = object()


def _masked(facts) -> dict | None:
    """Facts with every null replaced by one marker, with their counts;
    None unless each null occurs exactly once.  Constants become their
    raw values, which hash in C, unlike the value dataclasses."""
    masked: dict = {}
    nulls: Counter = Counter()
    for name, row in facts:
        key = [name]
        for value in row:
            if isinstance(value, Constant):
                key.append(value.value)
            elif isinstance(value, LabeledNull):
                nulls[value] += 1
                key.append(_NULL)
            else:
                key.append(value)
        key = tuple(key)
        masked[key] = masked.get(key, 0) + 1
    if any(count > 1 for count in nulls.values()):
        return None
    return masked


def equivalent(facts: list[tuple[str, tuple]], reference: Instance) -> bool:
    """*facts* equal *reference* up to renaming nulls, which implies
    canonical equality.

    When every null occurs once on both sides, they are isomorphic
    exactly when their null-masked fact multisets agree: a linear-time
    test, where ``canonically_equal``'s tie enumeration grows steeply
    with the number of nulls (seconds at 40 nulls).  Other instances go
    to ``canonically_equal``.
    """
    expected = [(name, row) for name in reference.relation_names()
                for row in reference.rows(name)]
    masked_facts, masked_expected = _masked(facts), _masked(expected)
    if masked_facts is None or masked_expected is None:
        rows: dict[str, set] = {name: set() for name in reference.schema.relation_names}
        for name, row in facts:
            if name not in rows:
                return False
            rows[name].add(row)
        return canonically_equal(Instance(reference.schema, rows), reference)
    return masked_facts == masked_expected
