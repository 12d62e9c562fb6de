"""What the benchmark reads inside the process that runs the engine.

All of it comes through public surfaces: the engine's timing hook
(``PhaseTimings`` per search), the databases' probe and access
counters, and each engine's ``cache.stats()``.  The coordinator has no
timing hook: under sharded-corpus the probe reads the outcome that
``CorpusCoordinator.search_detailed`` returns (its ``timings`` merge the
shards' phase ledgers) through a pass-through on the coordinator
instance.
"""

from __future__ import annotations

import threading

from layers import PHASES


class Probe:
    def __init__(self, program):
        self.program = program
        self._lock = threading.Lock()
        self.reset()
        engine = program.engine
        add_hook = getattr(engine, "add_timing_hook", None)
        if add_hook is not None:
            add_hook(lambda _view, outcome: self.observe(outcome))
        else:
            engine.search_detailed = self._observing(engine)

    def _observing(self, coordinator):
        """``coordinator.search_detailed``, observed.  The class method
        is looked up per call, so the tracer's wrapper still applies."""

        def search_detailed(*args, **kwargs):
            outcome = type(coordinator).search_detailed(coordinator, *args, **kwargs)
            self.observe(outcome)
            return outcome

        return search_detailed

    def reset(self) -> None:
        """Zero the phase sums and every storage counter."""
        with self._lock:
            self.phases = dict.fromkeys(PHASES, 0.0)
            self.outcomes = 0
            self.merge = {"candidates": 0, "consumed": 0}
        for database in self.program.databases:
            database.reset_access_counters()

    def observe(self, outcome) -> None:
        timings = outcome.timings.as_dict()
        merge = getattr(outcome, "merge_stats", None)
        with self._lock:
            self.outcomes += 1
            for phase in PHASES:
                self.phases[phase] += timings.get(phase, 0.0)
            if merge is not None:
                self.merge["candidates"] += merge.candidates
                self.merge["consumed"] += merge.consumed

    def storage(self) -> dict:
        """Path-index probes, inverted-index probes and document-store
        reads since the last reset, summed over every document."""
        storage = {"path_probes": 0, "inv_probes": 0, "store_reads": 0}
        for database in self.program.databases:
            for name in database.document_names():
                indexed = database.get(name)
                storage["path_probes"] += indexed.path_index.probe_count
                storage["inv_probes"] += indexed.inverted_index.probe_count
                storage["store_reads"] += indexed.store.access_count
        return storage

    def cache(self) -> dict:
        """Hits, misses, evictions and bytes per tier, summed over engines."""
        cache: dict = {}
        for engine in self.program.engines:
            if engine.cache is None:
                continue
            for tier, numbers in engine.cache.stats().items():
                summed = cache.setdefault(tier, {})
                for field in ("hits", "misses", "evictions", "memory_bytes"):
                    summed[field] = summed.get(field, 0) + numbers.get(field, 0)
        return cache

    def stats(self) -> dict:
        with self._lock:
            phases = {
                "phases": dict(self.phases),
                "outcomes": self.outcomes,
                "merge": dict(self.merge),
            }
        return {**phases, "storage": self.storage(), "cache": self.cache()}
