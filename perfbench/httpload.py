"""The service phase's server process and closed-loop client.

The server is the real ``python -m repro serve`` (or, in the traced run,
``perfbench/serve_traced.py``, which wraps the layer boundaries and then
calls the same CLI) on port 0, started fresh for every round so that
each round's peak RSS is the same measurement.  The client holds a fixed
number of keep-alive connections; each connection takes the next user,
replays that user's pre-encoded event batches, then ``finish``,
``decisions`` and ``savings``.  Each request is timed from the first
byte written to the last byte read.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

READY_PREFIX = "repro-service listening on "


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    startup_s: float
    peak_rss_mib: float = 0.0

    def stop(self) -> None:
        """Read the server's peak RSS, SIGTERM it, wait for it to exit.

        The peak is ``VmHWM`` of the server process itself, read from
        outside.  ``RUSAGE_CHILDREN`` would not do: a child's
        ``ru_maxrss`` also counts the parent's pages it held between
        ``fork`` and ``exec``.
        """
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    self.peak_rss_mib = int(line.split()[1]) / 1024
        except OSError:
            pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def start_server(root: Path, serve_args: list[str], traced_out: Path | None) -> Server:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    if traced_out is None:
        argv = [sys.executable, "-m", "repro", "serve"]
    else:
        argv = [sys.executable, str(root / "perfbench" / "serve_traced.py"), str(traced_out)]
    argv += ["--host", "127.0.0.1", "--port", "0", "--log-level", "warning", *serve_args]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if not line.startswith(READY_PREFIX):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server did not come up (first line {line!r})")
    host, _, port = line[len(READY_PREFIX):].strip().rpartition(":")
    return Server(proc=proc, host=host, port=int(port),
                  startup_s=time.perf_counter() - start)


@dataclass
class LoadResult:
    elapsed_s: float = 0.0
    #: perf_counter() at the start and end of the timed replay.
    window: tuple[float, float] = (0.0, 0.0)
    requests: int = 0
    failed: int = 0
    events: int = 0
    #: (user_id, request index) -> seconds.
    latencies_s: dict = field(default_factory=dict)
    #: user_id -> raw body of the final ``savings`` response.
    savings: dict[str, bytes] = field(default_factory=dict)


async def _request(reader, writer, head: bytes, body: bytes) -> tuple[int, bytes]:
    writer.write(head + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length) if length else b""
    return status, payload


def _head(method: str, path: str, body: bytes) -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")


async def _connection(server: Server, queue: list, cohort, result: LoadResult) -> None:
    reader, writer = await asyncio.open_connection(server.host, server.port)
    clock = time.perf_counter
    try:
        while queue:
            user_id = queue.pop(0)
            base = f"/v1/users/{user_id}"
            plan = [("POST", f"{base}/events", body) for body in cohort.bodies[user_id]]
            plan.append(("POST", f"{base}/finish", cohort.finish_bodies[user_id]))
            plan.append(("GET", f"{base}/decisions", b""))
            plan.append(("GET", f"{base}/savings", b""))
            for i, (method, path, body) in enumerate(plan):
                start = clock()
                status, payload = await _request(reader, writer, _head(method, path, body), body)
                result.latencies_s[(user_id, i)] = clock() - start
                result.requests += 1
                if status != 200:
                    result.failed += 1
            result.savings[user_id] = payload
            result.events += cohort.records[user_id]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


def replay(server: Server, cohort, users: list[str], connections: int) -> LoadResult:
    """One closed-loop pass of ``users`` against ``server``."""
    result = LoadResult()
    queue = list(users)

    async def main() -> None:
        start = time.perf_counter()
        await asyncio.gather(
            *(_connection(server, queue, cohort, result) for _ in range(connections))
        )
        end = time.perf_counter()
        result.elapsed_s = end - start
        result.window = (start, end)

    asyncio.run(main())
    return result
