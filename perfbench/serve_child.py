"""The server process of the ``serve_fir`` workload.

Binds a :class:`repro.serve.StreamServer` to the unix socket named on
the command line, prints ``ready``, and serves until SIGTERM — or until
its stdin closes, which is how it notices that the worker that started
it died — then drains and shuts down.
"""

from __future__ import annotations

import asyncio
import signal
import sys

import workloads as W

W.add_src_to_path()

from repro.serve import StreamServer  # noqa: E402


async def serve(path: str) -> None:
    server = StreamServer()
    await server.start(path=path)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def parent_gone():
        if not sys.stdin.buffer.read1(1024):
            loop.remove_reader(sys.stdin.fileno())
            stop.set()

    loop.add_reader(sys.stdin.fileno(), parent_gone)
    print("ready", flush=True)
    await stop.wait()
    await server.shutdown()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
