"""The HTTP load generator: an open-loop phase and a closed-loop phase.

The server closes every connection (``connection: close``), so each
request opens its own TCP connection; connect time counts toward its
latency.  At most ``slots`` requests are in flight at once.

* Open loop: a dispatcher thread releases request ``i`` at
  ``start + i / rate`` into a queue that ``slots`` sender threads drain.
  Latency is timed from the scheduled release, so a stall delays every
  request due during it.  ``lag`` is how late the dispatcher itself
  released a request — the generator's own backlog, not the server's.
* Closed loop: ``slots`` threads each send their next request as soon as
  the previous one returns; throughput is completions per second.

Response bodies are kept raw and parsed after the phase, off the
timed path.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Sample:
    key: tuple
    scheduled: float
    released: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def ok(self) -> bool:
        return self.status == 200


def http_request(
    port: int, method: str, path: str, body: bytes = b"", timeout: float = 30.0
) -> tuple[int, bytes]:
    """One request on a fresh connection; ``(status, body)`` or
    ``(0, b"")`` when the connection fails."""
    head = (
        f"{method} {path} HTTP/1.1\r\nhost: 127.0.0.1\r\n"
        f"content-type: application/json\r\ncontent-length: {len(body)}\r\n"
        "connection: close\r\n\r\n"
    ).encode("latin-1")
    chunks = []
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
            sock.sendall(head + body)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return 0, b""
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    try:
        status = int(header.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, b""
    return status, payload


def get_json(port: int, path: str) -> dict:
    status, payload = http_request(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


def search_body(view: str, keywords) -> bytes:
    return json.dumps({"view": view, "keywords": list(keywords)}).encode()


class LoadGenerator:
    """Requests ``request(i)`` (a ``(view, keywords)`` pair) in order,
    continuing the sequence across phases."""

    def __init__(self, port: int, request: Callable[[int], tuple], slots: int = 2):
        self.port = port
        self.request = request
        self.slots = slots
        self._next = 0
        self._lock = threading.Lock()

    def _take(self) -> tuple:
        with self._lock:
            index = self._next
            self._next += 1
        return self.request(index)

    def _send(self, key, scheduled: float, released: float) -> Sample:
        body = search_body(*key)
        sent = time.perf_counter()
        status, payload = http_request(self.port, "POST", "/search", body)
        done = time.perf_counter()
        return Sample(key, scheduled, released, sent, done, status, payload)

    def open_loop(self, rate: float, duration: float) -> list[Sample]:
        count = int(rate * duration)
        pending: "queue.Queue[Optional[tuple]]" = queue.Queue()
        samples: list[Sample] = []
        start = time.perf_counter() + 0.01

        def dispatch() -> None:
            for index in range(count):
                scheduled = start + index / rate
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                pending.put((self._take(), scheduled, time.perf_counter()))
            for _ in range(self.slots):
                pending.put(None)

        def sender() -> None:
            while True:
                item = pending.get()
                if item is None:
                    return
                samples.append(self._send(*item))

        threads = [threading.Thread(target=dispatch)] + [
            threading.Thread(target=sender) for _ in range(self.slots)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples

    def replay(self, keys) -> list[Sample]:
        """Send each key once, ``slots`` at a time (untimed priming)."""
        pending = list(reversed(keys))
        samples: list[Sample] = []

        def client() -> None:
            while True:
                with self._lock:
                    if not pending:
                        return
                    key = pending.pop()
                now = time.perf_counter()
                samples.append(self._send(key, now, now))

        threads = [threading.Thread(target=client) for _ in range(self.slots)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples

    def closed_loop(self, duration: float) -> tuple[list[Sample], float]:
        """Samples and the phase's wall-clock seconds (first send to
        last completion)."""
        samples: list[Sample] = []
        start = time.perf_counter()
        stop = start + duration

        def client() -> None:
            while time.perf_counter() < stop:
                now = time.perf_counter()
                samples.append(self._send(self._take(), now, now))

        threads = [threading.Thread(target=client) for _ in range(self.slots)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = max((s.done for s in samples), default=stop) - start
        return samples, elapsed
