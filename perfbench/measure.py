"""Small measurement helpers: percentiles and /proc readers."""

from __future__ import annotations

import os
import platform
import statistics
import time


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1]); 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14, stime 15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS, so a later
    :func:`peak_rss_mib` covers only what ran since."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def host_probe_ms() -> float:
    """Best of three timings of a fixed pure-Python loop: how fast the
    host runs this interpreter right now (its speed drifts with load
    from other tenants; see ``hostspeed.py``)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for number in range(100_000):
            total += number * number
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def steal_share(since: tuple[int, int], until: tuple[int, int]) -> float:
    """Share of the host's CPU time stolen between two :func:`cpu_ticks`
    readings."""
    return ratio(until[0] - since[0], until[1] - since[1])


#: The CPUs this process may run on.  Measured rounds take turns on
#: them (:func:`pin`): on the 2-vCPU host this was built on, one vCPU
#: ran a single-threaded loop up to 37% slower than the other for whole
#: runs (two identical edit-mix runs side by side read 0.37 and 0.50 ms;
#: taking turns, the same pair read within 8% of each other), so a run
#: that stayed on one vCPU measured that vCPU.
CPUS = sorted(os.sched_getaffinity(0))


def pin(turn: int | None, pid: int | None = None) -> int | None:
    """Confine every thread of process ``pid`` (this thread and the
    threads it starts later when ``None``) to CPU ``turn`` of
    :data:`CPUS`, cyclically, and return that CPU; ``turn=None`` frees
    them again."""
    cpu = None if turn is None else CPUS[turn % len(CPUS)]
    cpus = set(CPUS) if cpu is None else {cpu}
    if pid is None:
        os.sched_setaffinity(0, cpus)
        return cpu
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except ProcessLookupError:
            pass  # the thread ended
    return cpu


def cpu_ticks(cpu: int | None = None) -> tuple[int, int]:
    """``(steal, total)`` jiffies since boot of the whole host, or of CPU
    ``cpu``, from ``/proc/stat`` (steal: time a hypervisor ran other
    guests on this machine's vCPUs)."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            name, *values = line.split()
            if name == label:
                fields = [int(value) for value in values]
                return fields[7], sum(fields[:8])
    raise RuntimeError(f"no {label} line in /proc/stat")


#: A round whose CPU lost more than this share of its time to the
#: hypervisor is left out of the gated figures (:func:`calm_rounds`).
STEAL_LIMIT = 0.02


def calm_rounds(steals) -> list[int]:
    """Indices of the rounds whose CPU lost at most :data:`STEAL_LIMIT`
    of its time to steal or, when that leaves fewer than half, of the
    half that lost least.

    Host-speed scaling does not cover steal: the sampler times its job
    by CPU time, which stolen time is not, and a reading that did take
    in a burst of steal would scale every request near it many times
    over.  A run with 12% of its time stolen read view-churn's
    ``search_p50_ms`` 28% high after scaling."""
    calm = [index for index, steal in enumerate(steals) if steal <= STEAL_LIMIT]
    if 2 * len(calm) >= len(steals):
        return calm
    calmest = sorted(range(len(steals)), key=lambda index: steals[index])
    return sorted(calmest[: (len(steals) + 1) // 2])


def environment(since: tuple[int, int] | None = None) -> str:
    """The conditions a run was measured under, as one line; with
    ``since`` (a :func:`cpu_ticks` reading) also the share of CPU time
    stolen by the hypervisor since then."""
    load = ",".join(f"{value:.2f}" for value in os.getloadavg())
    line = (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"loadavg={load} host_probe_ms={host_probe_ms():.2f}"
    )
    if since is not None:
        line += f" steal_share={steal_share(since, cpu_ticks()):.3f}"
    return line
