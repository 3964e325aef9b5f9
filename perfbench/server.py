"""Serve one benchmark workload's mapping over HTTP.

    python3 perfbench/server.py --workload deps_hotset

Built from the public API only (``ExchangeService`` + ``ExchangeServer``)
with the workload's options (``workloads.options_for``);
``repro serve`` cannot load target dependencies, which ``deps_hotset``
needs.  The SIGTERM handler is installed before the ready line is
printed, so a SIGTERM sent on seeing ``READY <port>`` always takes the
clean path: close the listener, then shut the worker pool down and join
its processes before exiting.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

from repro.service import ExchangeService  # noqa: E402
from repro.service.aserve import ExchangeServer  # noqa: E402
from workloads import WORKLOADS, build_mapping, options_for  # noqa: E402


async def serve(server: ExchangeServer) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await server.start()
    print(f"READY {server.port}", flush=True)
    serving = asyncio.ensure_future(server.serve_forever())
    stopping = asyncio.ensure_future(stop.wait())
    try:
        await asyncio.wait({serving, stopping}, return_when=asyncio.FIRST_COMPLETED)
    finally:
        for task in (serving, stopping):
            task.cancel()
        await asyncio.gather(serving, stopping, return_exceptions=True)
        await server.aclose()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    args = parser.parse_args()
    service = ExchangeService(build_mapping(args.workload),
                              options_for(args.workload))
    try:
        asyncio.run(serve(ExchangeServer(service, host="127.0.0.1", port=0)))
    finally:
        service.close()  # joins the pool's worker processes
    return 0


if __name__ == "__main__":
    sys.exit(main())
