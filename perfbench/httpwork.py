"""The HTTP read workloads: view-churn and sharded-corpus.

The client (this process) launches ``serve.py`` as a separate server
process, drives an open-loop phase and then a closed-loop phase over
HTTP, and reads the server from outside: each page's ``serving``
section, ``/stats``, ``/proc/<pid>`` and the server script's probe
commands.  Set-up is the median over ``SETUP_LAUNCHES`` launches; the
last serves the run.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from layers import cache_metrics, phase_metrics, span_metrics, storage_metrics
from loadgen import LoadGenerator, get_json
from hostspeed import Sampler
from measure import (
    CPUS, calm_rounds, cpu_seconds, cpu_ticks, peak_rss_mib, percentile, pin,
    ratio, steal_share,
)
from program import build_program, client_vocabulary
from reference import check_samples
from tracing import load_spans

SERVE = Path(__file__).resolve().parent / "serve.py"
SETUP_LAUNCHES = 5
READY_TIMEOUT_S = 120.0
#: Share of the measured seconds given to the open-loop phases; the
#: closed-loop phases get the rest.  At 0.8, view-churn's throughput
#: rested on ~200 completions and ten runs spread 0.09 of their median
#: (its views cost 2-24 ms each); its latency median had room to spare.
OPEN_SHARE = 0.6
#: Open/closed rounds per measured window (see :class:`Measured`).
ROUNDS = 16
#: The run is invalid when the open-loop generator's release lag p90
#: exceeds this: it no longer offered the fixed rate.
LAG_LIMIT_MS = 20.0


class InvalidRun(RuntimeError):
    """The run's measurements cannot be trusted (and are not reported)."""


class ServerProcess:
    """One ``serve.py`` process; ``ready_s`` is launch-to-bound time."""

    def __init__(self, workload: str, workdir: Path, delay_us: float):
        self.log_path = workdir / "server.log"
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, str(SERVE), "--workload", workload,
                    "--workdir", str(workdir),
                    "--scoring-delay-us", str(delay_us),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        try:
            self.port = self._read(READY_TIMEOUT_S)["port"]
        except BaseException:
            self.kill()
            raise
        self.started = started
        self.ready_at = time.perf_counter()
        self.ready_s = self.ready_at - started
        self.pid = self.process.pid

    def _read(self, timeout: float) -> dict:
        readable, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if readable else b""
        if not line:
            raise RuntimeError(
                f"server process gave no reply; see {self.log_path}:\n"
                + self.log_path.read_text(errors="replace")[-2000:]
            )
        return json.loads(line)

    def command(self, text: str, timeout: float = 60.0) -> dict:
        self.process.stdin.write(text.encode() + b"\n")
        self.process.stdin.flush()
        reply = self._read(timeout)
        if "error" in reply:
            raise RuntimeError(f"server command {text!r} failed: {reply['error']}")
        return reply

    def stop(self) -> None:
        try:
            self.process.stdin.write(b"quit\n")
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.process.stdout.close()

    def kill(self) -> None:
        self.process.kill()
        self.process.wait()


def _pages(samples):
    """Parsed bodies of the answered samples (after the timed phases)."""
    return [(sample, json.loads(sample.body)) for sample in samples if sample.ok]


def _latency_ms(samples, phase_seconds: float) -> list[float]:
    """Latency from the scheduled send of every sample; a failed request
    counts as missing every limit (the whole phase)."""
    return [
        (s.done - s.scheduled) * 1e3 if s.ok else phase_seconds * 1e3
        for s in samples
    ]


class Measured:
    """One measured window of ``ROUNDS`` rounds, each an open-loop phase
    then a closed-loop phase.

    Interleaving spreads both phases over the whole window.  The server's
    threads and the client take turns on the CPUs, one CPU each per round
    (:func:`measure.pin`), so every run sees each vCPU serve, and the
    host-speed sampler follows the server.  Each open-loop latency is
    scaled to the reference host speed by the readings on the server's
    CPU around it, and each closed-loop phase's seconds by the readings
    over the phase (:meth:`hostspeed.Sampler.scale`).  ``p50`` and
    ``p90`` pool the scaled latencies of the rounds in which the
    hypervisor stole little of the server's CPU
    (:func:`measure.calm_rounds`); ``throughput`` is those rounds'
    closed-loop completions over their scaled seconds.  ``raw_p50`` and
    ``raw_throughput`` are the same figures unscaled.
    """

    def __init__(self, generator: LoadGenerator, rate: float, seconds: float,
                 server_pid: int, sampler: Sampler):
        open_seconds = seconds * OPEN_SHARE / ROUNDS
        closed_seconds = seconds * (1 - OPEN_SHARE) / ROUNDS
        self.open, self.closed = [], []
        rounds, steals = [], []
        for turn in range(ROUNDS):
            cpu = pin(turn, server_pid)
            pin(turn + 1)
            sampler.move(cpu)
            sampler.wait_for(cpu)
            ticks = cpu_ticks(cpu)
            opened = generator.open_loop(rate, open_seconds)
            started = time.perf_counter()
            closed, elapsed = generator.closed_loop(closed_seconds)
            steals.append(steal_share(ticks, cpu_ticks(cpu)))
            rounds.append((cpu, opened, closed, started, elapsed))
            self.open += opened
            self.closed += closed
        sampler.wait_for(cpu)
        pin(None, server_pid)
        pin(None)
        latencies, raw, completed, scaled, unscaled = [], [], 0, 0.0, 0.0
        for index in calm_rounds(steals):
            cpu, opened, closed, started, elapsed = rounds[index]
            for sample, ms in zip(opened, _latency_ms(opened, open_seconds)):
                raw.append(ms)
                latencies.append(
                    sampler.scale(ms, cpu, sample.scheduled, sample.done)
                )
            completed += sum(1 for s in closed if s.ok)
            scaled += sampler.scale(elapsed, cpu, started, started + elapsed)
            unscaled += elapsed
        self.p50 = percentile(latencies, 0.5)
        self.p90 = percentile(latencies, 0.9)
        self.throughput = ratio(completed, scaled)
        self.raw_p50 = percentile(raw, 0.5)
        self.raw_throughput = ratio(completed, unscaled)
        lags = [(s.released - s.scheduled) * 1e3 for s in self.open]
        self.lag_p50 = percentile(lags, 0.5)
        self.lag_p90 = percentile(lags, 0.9)
        if self.lag_p90 > LAG_LIMIT_MS:
            raise InvalidRun(
                f"open-loop generator fell behind: lag p90 {self.lag_p90:.1f} ms "
                f"> {LAG_LIMIT_MS} ms"
            )

    @property
    def samples(self):
        return self.open + self.closed


def run_http(workload: str, seed: int, seconds: float, trace: bool,
             workdir: Path, delay_us: float = 0.0) -> dict:
    reference = build_program(workload, cached=False)
    vocabulary, head = client_vocabulary(workload, reference)
    plan = inputs.read_plan(workload, seed, vocabulary, head)
    with Sampler(CPUS[0]) as sampler:
        return _run_http(
            workload, seconds, trace, workdir, delay_us, reference, plan, sampler
        )


def _run_http(workload, seconds, trace, workdir, delay_us, reference, plan,
              sampler) -> dict:
    rate = inputs.OPEN_LOOP_RPS[workload]
    launches = 1 if trace else SETUP_LAUNCHES
    setup, raw_setup = [], []
    for launch in range(launches):
        launch_dir = workdir / f"launch{launch}"
        launch_dir.mkdir(parents=True)
        # The server inherits this thread's CPU; the sampler runs there.
        cpu = pin(launch)
        sampler.move(cpu)
        sampler.wait_for(cpu)
        server = ServerProcess(workload, launch_dir, delay_us)
        pin(None)
        pin(None, server.pid)
        raw_setup.append(server.ready_s)
        setup.append(
            sampler.scale(server.ready_s, cpu, server.started, server.ready_at)
        )
        if launch < launches - 1:
            server.stop()
    try:
        generator = LoadGenerator(server.port, plan.request)
        # view-churn starts with nothing warm: one untimed pass over its
        # views fills the snapshot store, so the measured phases see the
        # steady churn of restores and evictions, not first builds.
        primed = generator.replay(plan.pairs) if workload == "view-churn" else []
        window = seconds / 2 if trace else seconds
        before = get_json(server.port, "/stats")
        probe_before = server.command("stats")
        server.command("reset")
        cpu_before = cpu_seconds(server.pid)
        untraced = Measured(generator, rate, window, server.pid, sampler)
        cpu = cpu_seconds(server.pid) - cpu_before
        probe_after = server.command("stats")
        after = get_json(server.port, "/stats")
        rss = peak_rss_mib(server.pid)
        traced = spans = None
        if trace:
            server.command("trace")
            server.command("reset")
            traced = Measured(generator, rate, window, server.pid, sampler)
            span_file = workdir / "spans.jsonl"
            server.command(f"dump {span_file}")
            spans = load_spans(span_file)
    finally:
        server.stop()

    samples = primed + untraced.samples + (traced.samples if traced else [])
    failed, wrong = check_samples(reference, samples)
    result = {
        "correct": wrong == 0,
        "attempted": len(samples),
        "failed": failed + wrong,
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "search_p50_ms": untraced.p50,
            "throughput_rps": untraced.throughput,
            "server_rss_mb": rss,
        },
        "raw": {
            "setup_s": statistics.median(raw_setup),
            "search_p50_ms": untraced.raw_p50,
            "throughput_rps": untraced.raw_throughput,
            "host_probe_ms": sampler.median_ms(),
        },
    }
    if trace:
        result["per_layer"] = _http_layers(
            workload, untraced, traced, before, after, probe_before, probe_after,
            spans, cpu, failed + wrong, len(samples),
        )
    return result


def _shard_failures(samples) -> int:
    """Failed shards over the answered pages (``degraded``) and the
    requests refused with 503 ``shards_unavailable`` (one shard at
    least each; the fail-closed coordinator's only visible case)."""
    count = 0
    for sample in samples:
        try:
            page = json.loads(sample.body)
        except ValueError:
            continue
        if sample.ok:
            count += len(page.get("degraded", {}).get("failures", {}))
        elif page.get("error", {}).get("code") == "shards_unavailable":
            count += 1
    return count


def _http_layers(workload, untraced, traced, before, after, probe_before,
                 probe_after, spans, cpu, failures, attempted) -> dict:
    pages = _pages(untraced.samples)
    serving = [page["serving"] for _, page in pages]
    metrics = {
        "search_p90_ms": untraced.p90,
        "http.bridge_p50_ms": percentile(
            [(s.done - s.sent - page["serving"]["latency"]) * 1e3 for s, page in pages],
            0.5,
        ),
        "server.queue_wait_p90_ms": percentile(
            [entry["queue_wait"] * 1e3 for entry in serving], 0.9
        ),
        "server.service_p50_ms": percentile(
            [entry["service_time"] * 1e3 for entry in serving], 0.5
        ),
        "admission.rejected": float(
            after["requests"]["rejected_total"] - before["requests"]["rejected_total"]
        ),
        "server.cpu_s": cpu,
        "sharding.failures": float(_shard_failures(untraced.samples)),
        "failed_share": ratio(failures, attempted),
        "loadgen.lag_p50_ms": untraced.lag_p50,
        "loadgen.lag_p90_ms": untraced.lag_p90,
        "trace.overhead_ratio": ratio(traced.p50, untraced.p50),
    }
    old_store = before.get("snapshot_store") or {}
    new_store = after.get("snapshot_store") or {}
    for field in ("hits", "misses"):
        metrics[f"snapshot.{field}"] = float(
            new_store.get(field, 0) - old_store.get(field, 0)
        )
    metrics.update(cache_metrics(probe_before["cache"], probe_after["cache"]))
    metrics.update(phase_metrics(probe_after))
    metrics.update(storage_metrics(probe_after, len(pages)))
    metrics.update(span_metrics(workload, spans))
    return metrics
