"""The edit-mix workload: reads and subtree edits, in process.

There is no HTTP write route, so one closed-loop client calls
``KeywordSearchEngine.search_detailed`` and ``XMLDatabase.insert_subtree``
/ ``delete_subtree`` directly on INEX ``articles.xml``.  Every tenth
operation is an edit; edits alternate between an aside no view
reads (a byte-length patch is enough) and an ``article`` both views
select (the skeleton is rebuilt).  Each read is checked, outside its
timed span, against a cache-free engine on the same database
generation: the reads since the last edit are checked together just
before the next edit, so timed reads follow one another as in a serving
loop rather than each following a cold reference evaluation.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from contextlib import nullcontext

import inputs
from layers import cache_metrics, phase_metrics, span_metrics, storage_metrics
from hostspeed import Sampler
from measure import (
    CPUS, calm_rounds, cpu_ticks, peak_rss_mib, percentile, pin, ratio,
    reset_peak_rss, steal_share,
)
from probe import Probe
from program import build_program, inject_scoring_delay
from reference import outcome_digest
from repro.core.engine import KeywordSearchEngine
from tracing import Tracer

SETUP_REPEATS = 7
DOC = "articles.xml"
TOP_K = 10
#: Live inserted subtrees per edit kind before edits start deleting them.
MAX_LIVE = 3
#: Time slices per measured window.  The client thread moves to the
#: next CPU every slice and the host-speed sampler follows it; the
#: gated figures leave out slices that lost much time to steal
#: (:func:`measure.calm_rounds`).
ROUNDS = 30


class EditMix:
    def __init__(self, seed: int, sampler: Sampler):
        self.sampler = sampler
        setup, raw = [], []
        for repeat in range(SETUP_REPEATS):
            self.program = None  # the previous repeat's garbage goes first
            gc.collect()
            cpu = pin(repeat)
            sampler.move(cpu)
            sampler.wait_for(cpu)
            started = time.perf_counter()
            self.program = build_program("edit-mix")
            for view in self.program.warm_views:
                self.program.engine.warm_view(view)
            ended = time.perf_counter()
            raw.append(ended - started)
            setup.append(sampler.scale(raw[-1], cpu, started, ended))
        pin(None)
        self.setup_s = statistics.median(setup)
        self.raw_setup_s = statistics.median(raw)
        self.engine = self.program.engine
        self.database = self.program.databases[0]
        self.reference = KeywordSearchEngine(self.database, enable_cache=False)
        for name, text in self.program.views.items():
            self.reference.define_view(name, text)
        self.vocabulary = inputs.tree_vocabulary([self.database.get(DOC).root])
        self.authors = inputs.author_names(self.database)
        self.journals = [
            node.dewey for node in self.database.get(DOC).root.children_by_tag("journal")
        ]
        self.plan = inputs.read_plan("edit-mix", seed, self.vocabulary)
        self.rng = random.Random(f"{seed}:edits")
        self.live = {"patch": [], "rebuild": []}
        self.edits_done = 0
        self.reads_done = 0
        self.probe = Probe(self.program)
        # server_rss_mb covers the measured operations, not the set-up
        # repeats before them.
        reset_peak_rss()

    def _edit(self) -> tuple[float, float]:
        """Apply the next edit; returns its start and its seconds."""
        kind = ("patch", "rebuild")[self.edits_done % 2]
        self.edits_done += 1
        live = self.live[kind]
        if live and (len(live) >= MAX_LIVE or self.rng.random() < 0.5):
            target = live.pop(self.rng.randrange(len(live)))
            started = time.perf_counter()
            self.database.delete_subtree(DOC, target)
            return started, time.perf_counter() - started
        if kind == "patch":
            payload = inputs.aside_payload(self.rng, self.vocabulary)
        else:
            payload = inputs.article_payload(
                self.rng, self.vocabulary, self.authors, self.edits_done
            )
        parent = self.rng.choice(self.journals)
        started = time.perf_counter()
        delta = self.database.insert_subtree(DOC, parent, payload)
        elapsed = time.perf_counter() - started
        live.append(delta.edit_id)
        return started, elapsed

    def _check(self, served: list, tracer) -> int:
        """Empty ``served`` (``(view, keywords, digest)`` of reads on the
        current database generation) and return how many of them the
        cache-free engine answers differently."""
        expected = {}
        with _suppressed(tracer):
            for view, keywords, _ in served:
                if (view, keywords) not in expected:
                    expected[view, keywords] = outcome_digest(
                        self.reference.search_detailed(view, keywords, top_k=TOP_K)
                    )
        wrong = sum(
            1 for view, keywords, digest in served if digest != expected[view, keywords]
        )
        served.clear()
        return wrong

    def run(self, seconds: float, tracer=None) -> dict:
        """Operate for ``seconds`` of wall clock; timings and checks."""
        rounds = [{"reads": [], "edits": []} for _ in range(ROUNDS)]
        storage = {"path_probes": 0, "inv_probes": 0, "store_reads": 0}
        wrong = patched = checked_after_edit = 0
        after_edit = False
        served: list[tuple] = []
        self.probe.reset()
        cache_before = self.probe.cache()
        index = 0
        cpu = rounds[index]["cpu"] = pin(index)
        self.sampler.move(cpu)
        self.sampler.wait_for(cpu)
        ticks = cpu_ticks(cpu)
        start = time.perf_counter()
        while (now := time.perf_counter()) < start + seconds:
            sliced = min(int((now - start) / seconds * ROUNDS), ROUNDS - 1)
            if sliced != index:
                rounds[index]["steal"] = steal_share(ticks, cpu_ticks(cpu))
                index = sliced
                cpu = rounds[index]["cpu"] = pin(index)
                self.sampler.move(cpu)
                ticks = cpu_ticks(cpu)
            current = rounds[index]
            operations = self.reads_done + self.edits_done
            if operations % inputs.EDIT_EVERY == inputs.EDIT_EVERY - 1:
                wrong += self._check(served, tracer)
                with _span(tracer, "bench.edit"):
                    current["edits"].append(self._edit())
                after_edit = True
                continue
            view, keywords = self.plan.request(self.reads_done)
            self.reads_done += 1
            # Edits touch the counters too: count the reads' share only.
            counted = self.probe.storage()
            with _span(tracer, "bench.read"):
                started = time.perf_counter()
                outcome = self.engine.search_detailed(view, keywords, top_k=TOP_K)
                current["reads"].append((started, time.perf_counter() - started))
            for counter, value in self.probe.storage().items():
                storage[counter] += value - counted[counter]
            if after_edit:
                after_edit = False
                checked_after_edit += 1
                if outcome.cache_hits.get(DOC) in ("skeleton", "pdt"):
                    patched += 1
            served.append((view, keywords, outcome_digest(outcome)))
        rounds[index]["steal"] = steal_share(ticks, cpu_ticks(cpu))
        self.sampler.wait_for(cpu)
        pin(None)
        wrong += self._check(served, tracer)
        probe = {**self.probe.stats(), "storage": storage}
        # Slices a long reference check skipped over hold nothing.
        visited = [r for r in rounds if "steal" in r]
        calm = [visited[i] for i in calm_rounds([r["steal"] for r in visited])]
        return {
            "operations": sum(len(r["reads"]) + len(r["edits"]) for r in rounds),
            "read_count": sum(len(r["reads"]) for r in rounds),
            "reads": [seconds for r in calm for _, seconds in r["reads"]],
            "edits": [seconds for r in calm for _, seconds in r["edits"]],
            "scaled_reads": self._scaled(calm, "reads"),
            "scaled_edits": self._scaled(calm, "edits"),
            "wrong": wrong, "probe": probe,
            "cache": cache_metrics(cache_before, probe["cache"]),
            "patched_share": ratio(patched, checked_after_edit),
        }

    def _scaled(self, rounds: list, kind: str) -> list[float]:
        """The seconds of every ``kind`` operation in ``rounds``, each
        scaled to the reference host speed by the sampler's readings on
        its slice's CPU around it (:meth:`hostspeed.Sampler.scale`)."""
        return [
            self.sampler.scale(seconds, r["cpu"], started, started + seconds)
            for r in rounds for started, seconds in r[kind]
        ]


def _ms(seconds: list[float], fraction: float) -> float:
    return percentile(seconds, fraction) * 1e3


def _ops_per_second(run: dict, scaled: bool = True) -> float:
    """Reads plus edits per second of operation time."""
    prefix = "scaled_" if scaled else ""
    return ratio(
        len(run["reads"]) + len(run["edits"]),
        sum(run[prefix + "reads"]) + sum(run[prefix + "edits"]),
    )


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _suppressed(tracer):
    return tracer.suppressed() if tracer is not None else nullcontext()


def run_edit_mix(seed: int, seconds: float, trace: bool, delay_us: float = 0.0) -> dict:
    if delay_us:
        inject_scoring_delay(delay_us)
    with Sampler(CPUS[0]) as sampler:
        return _run_edit_mix(EditMix(seed, sampler), seconds, trace)


def _run_edit_mix(mix: EditMix, seconds: float, trace: bool) -> dict:
    window = seconds / 2 if trace else seconds
    untraced = mix.run(window)
    traced = tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = mix.run(window, tracer)
        finally:
            tracer.uninstall()
    attempted = sum(run["operations"] for run in (untraced, traced) if run)
    wrong = untraced["wrong"] + (traced["wrong"] if traced else 0)
    read_p50 = _ms(untraced["scaled_reads"], 0.5)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "end_to_end": {
            "setup_s": mix.setup_s,
            "search_p50_ms": read_p50,
            "throughput_rps": _ops_per_second(untraced),
            "server_rss_mb": peak_rss_mib(os.getpid()),
        },
        "raw": {
            "setup_s": mix.raw_setup_s,
            "search_p50_ms": _ms(untraced["reads"], 0.5),
            "throughput_rps": _ops_per_second(untraced, scaled=False),
            "host_probe_ms": mix.sampler.median_ms(),
        },
    }
    if trace:
        metrics = {
            "search_p90_ms": _ms(untraced["scaled_reads"], 0.9),
            "edit_p50_ms": _ms(untraced["scaled_edits"], 0.5),
            "edit_p90_ms": _ms(untraced["scaled_edits"], 0.9),
            "update.patched_share": untraced["patched_share"],
            "failed_share": ratio(wrong, attempted),
            "trace.overhead_ratio": ratio(_ms(traced["scaled_reads"], 0.5), read_p50),
        }
        metrics.update(untraced["cache"])
        metrics.update(phase_metrics(untraced["probe"]))
        metrics.update(storage_metrics(untraced["probe"], untraced["read_count"]))
        metrics.update(span_metrics("edit-mix", list(tracer.spans)))
        result["per_layer"] = metrics
    return result
