"""A raw-socket HTTP/1.1 client for the closed loop.

Bodies go out pre-encoded and replies come back as raw bytes: nothing is
decoded while the window runs, so the client's own CPU stays small and
constant (``repro.service.aserve.ExchangeClient`` parses every NDJSON
line as it reads).  ``parse_response`` undoes the framing after the
window.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass

_TIMEOUT = 120.0
_FACTS_MARK = b'"kind":"facts"'


@dataclass
class Reply:
    """One exchange as the client saw it (times from ``time.perf_counter``)."""

    sent: float
    first_byte: float  # status line received (streamed: with the header line)
    first_facts: float | None  # first ``facts`` line received (streamed only)
    done: float  # the server closed the connection
    raw: bytes

    @property
    def latency(self) -> float:
        return self.done - self.sent


def post_exchange(port: int, body: bytes) -> Reply:
    """POST *body* to ``/v1/exchange`` and read the reply to EOF."""
    head = (
        "POST /v1/exchange HTTP/1.1\r\n"
        f"Host: 127.0.0.1:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii")
    sent = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=_TIMEOUT) as sock:
        sock.sendall(head + body)
        parts: list[bytes] = []
        first_byte = 0.0
        first_facts = None
        tail = b""
        while True:
            data = sock.recv(1 << 20)
            if not data:
                break
            now = time.perf_counter()
            if not parts:
                first_byte = now
            if first_facts is None:
                if _FACTS_MARK in tail + data:
                    first_facts = now
                tail = data[-len(_FACTS_MARK):]
            parts.append(data)
    return Reply(sent, first_byte, first_facts, time.perf_counter(), b"".join(parts))


def get_health(port: int) -> bool:
    """True once ``GET /v1/health`` answers 200."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            sock.sendall(
                b"GET /v1/health HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Length: 0\r\nConnection: close\r\n\r\n"
            )
            status = sock.recv(64)
    except OSError:
        return False
    return status.startswith(b"HTTP/1.1 200")


class MalformedReply(ValueError):
    """Broken framing: the reply is incomplete or not HTTP."""


def parse_response(raw: bytes) -> tuple[int, dict[str, str], bytes]:
    """Split a raw reply into status, headers and the de-chunked body."""
    head, sep, rest = raw.partition(b"\r\n\r\n")
    if not sep:
        raise MalformedReply("no end of headers")
    lines = head.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise MalformedReply(f"bad status line {lines[0]!r}") from None
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", ""):
        return status, headers, _dechunk(rest)
    length = int(headers.get("content-length", len(rest)))
    if len(rest) != length:
        raise MalformedReply(f"body has {len(rest)} of {length} bytes")
    return status, headers, rest


def _dechunk(data: bytes) -> bytes:
    out = bytearray()
    offset = 0
    while True:
        end = data.find(b"\r\n", offset)
        if end < 0:
            raise MalformedReply("truncated chunk size")
        try:
            size = int(data[offset:end], 16)
        except ValueError:
            raise MalformedReply("bad chunk size") from None
        start = end + 2
        if size == 0:
            if data[start:] != b"\r\n":
                raise MalformedReply("bad last chunk")
            return bytes(out)
        if data[start + size:start + size + 2] != b"\r\n":
            raise MalformedReply("truncated chunk")
        out += data[start:start + size]
        offset = start + size + 2


def events(body: bytes) -> list[dict]:
    """The NDJSON events of a streamed body."""
    return [json.loads(line) for line in body.splitlines() if line]
