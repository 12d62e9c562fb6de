"""How fast the host runs Python, moment by moment, and times scaled by it.

The 2-vCPU KVM host this benchmark was built on runs a fixed
pure-Python job at two speeds about 2x apart.  Each vCPU switches
between them on its own, every second or so, and the share of time
spent slow drifts over minutes (runs ten minutes apart read 1.6x apart).
A raw time therefore measures the host as much as the program: ten
runs of the same code spread over a third of their median.

:class:`Sampler` runs this file as a child process pinned to one CPU.
Every ``INTERVAL_S`` it times a small fixed job (:func:`probe_job`) by
its own CPU time, so time spent waiting while the program runs on that
CPU does not count, and reports the reading.  A timed interval of the
program is then scaled to the reference speed by the readings taken on
its CPU around it (:meth:`Sampler.scale`).  The job runs none of the
program's code: a change to the program moves the scaled time as it
moves the raw one.

Run as a script it is the sampler child: it reads CPU numbers on stdin
(move there) and writes ``time cpu probe_ms`` lines on stdout until
stdin closes.
"""

from __future__ import annotations

import bisect
import os
import select
import subprocess
import sys
import threading
import time
from collections import defaultdict

#: Seconds between two readings.
INTERVAL_S = 0.04
#: The reading scaled times are given at: about :func:`probe_job`'s CPU
#: time in ms on the build host (Xeon, Python 3.11) in its faster state,
#: estimated from ~0.85 ms in the slower one.  Any fixed value would do;
#: changing it rescales every gated time, so it must stay fixed.
REFERENCE_MS = 0.45


class _Point:
    __slots__ = ("number", "label")

    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label


def probe_job(size: float = 1.0) -> int:
    """A fixed pure-Python job: the dict, string and attribute work the
    program's hot paths are made of, with none of its code.  Its cost is
    linear in ``size``: about ``size * REFERENCE_MS`` at the reference
    speed."""
    counts: dict[str, int] = {}
    total = 0
    for number in range(int(1_000 * size)):
        key = "k%d" % (number % 50)
        counts[key] = counts.get(key, 0) + number
        total += len(key) * (number & 7)
    points = [_Point(number, str(number)) for number in range(int(250 * size))]
    total += sum(point.number for point in points if point.label.endswith("7"))
    return total + len(counts)


def probe_ms() -> float:
    """CPU time of one :func:`probe_job`, in ms."""
    started = time.thread_time()
    probe_job()
    return (time.thread_time() - started) * 1e3


class Sampler:
    """The sampler child and the readings it has sent, per CPU."""

    def __init__(self, cpu: int):
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._times: dict[int, list[float]] = defaultdict(list)
        self._readings: dict[int, list[float]] = defaultdict(list)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            stamp, cpu, reading = line.split()
            self._times[int(cpu)].append(float(stamp))
            self._readings[int(cpu)].append(float(reading))

    def move(self, cpu: int) -> None:
        """Sample on ``cpu`` from now on."""
        self.process.stdin.write(f"{cpu}\n".encode())
        self.process.stdin.flush()

    def wait_for(self, cpu: int) -> None:
        """Block until a reading taken on ``cpu`` after this call arrives."""
        since = time.perf_counter()
        deadline = since + 10.0
        while time.perf_counter() < deadline:
            times = self._times[cpu]
            if times and times[-1] > since:
                return
            time.sleep(INTERVAL_S / 4)
        raise RuntimeError(f"host-speed sampler sent nothing for CPU {cpu}")

    def probe_ms(self, cpu: int, start: float, end: float) -> float:
        """Mean reading on ``cpu`` from one interval before ``start`` to
        one after ``end`` (``time.perf_counter`` seconds), or the
        nearest reading when none fell in that window."""
        times = self._times[cpu]
        readings = self._readings[cpu]
        if not times:
            raise RuntimeError(f"host-speed sampler sent nothing for CPU {cpu}")
        low = bisect.bisect_left(times, start - INTERVAL_S)
        high = bisect.bisect_right(times, end + INTERVAL_S)
        if high > low:
            return sum(readings[low:high]) / (high - low)
        nearest = min(
            (index for index in (low - 1, low) if 0 <= index < len(times)),
            key=lambda index: abs(times[index] - start),
        )
        return readings[nearest]

    def scale(self, seconds: float, cpu: int, start: float, end: float) -> float:
        """``seconds`` timed on ``cpu`` over ``[start, end]``, at the
        reference speed."""
        return seconds * REFERENCE_MS / self.probe_ms(cpu, start, end)

    def median_ms(self) -> float:
        """The median reading so far, over every CPU."""
        every = sorted(value for values in self._readings.values() for value in values)
        return every[len(every) // 2] if every else 0.0

    def close(self) -> None:
        try:
            self.process.stdin.close()
            self.process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _sample(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready:
            lines = os.read(sys.stdin.fileno(), 4096).split()
            if not lines:
                return
            cpu = int(lines[-1])
            os.sched_setaffinity(0, {cpu})
            continue
        reading = probe_ms()
        sys.stdout.write(f"{time.perf_counter()!r} {cpu} {reading!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
