"""The per-layer metrics: each one's layer, and which end-to-end metric
it should move on which workload.

This table is the vocabulary later changes cite.  ``BENCHMARK.json``
carries each metric's name, unit and direction; the layer and the
end-to-end link live here, and :func:`check_table` keeps the two lists
of names equal.  Every traced run reports every metric.  A metric a
workload never computes is listed in :data:`NOT_APPLICABLE` and reads 0
there; any other missing metric fails the run.
"""

from __future__ import annotations

from collections import defaultdict

from measure import mean, percentile, ratio
from tracing import self_times

#: ``PhaseTimings`` fields summed per query (Figure 14's modules; the
#: PDT phase split into its skeleton and postings parts).
PHASES = ("qpt", "pdt_skeleton", "pdt_postings", "evaluator", "post_processing")

# (name, layer, moves: "e2e metric on workload(s)")
PER_LAYER = (
    ("http.bridge_p50_ms", "serving.http",
     "search_p50_ms on sharded-corpus, view-churn (~2 ms of each request)"),
    ("server.queue_wait_p90_ms", "serving.server",
     "search_p90_ms, throughput_rps on sharded-corpus"),
    ("server.service_p50_ms", "serving.server",
     "search_p90_ms, throughput_rps on sharded-corpus"),
    ("admission.rejected", "serving.admission",
     "failed_share on every HTTP workload"),
    ("server.cpu_s", "serving.server",
     "throughput_rps on every HTTP workload"),
    ("engine.qpt_ms", "core.engine",
     "search_p50_ms on every workload"),
    ("engine.pdt_skeleton_ms", "core.engine",
     "search_p50_ms, search_p90_ms on view-churn"),
    ("engine.pdt_postings_ms", "core.engine",
     "search_p50_ms on edit-mix"),
    ("engine.evaluator_ms", "core.engine",
     "search_p50_ms, search_p90_ms on view-churn"),
    ("engine.post_processing_ms", "core.engine",
     "search_p50_ms on edit-mix"),
    ("cache.prepared.hit_rate", "core.cache",
     "search_p90_ms, server_rss_mb on view-churn"),
    ("cache.skeleton.hit_rate", "core.cache",
     "search_p90_ms, server_rss_mb on view-churn"),
    ("cache.pdt.hit_rate", "core.cache",
     "search_p90_ms, server_rss_mb on view-churn"),
    ("cache.evaluated.hit_rate", "core.cache",
     "search_p90_ms, server_rss_mb on view-churn"),
    ("cache.evictions", "core.cache",
     "search_p90_ms on view-churn"),
    ("cache.memory_bytes", "core.cache",
     "server_rss_mb on view-churn"),
    ("snapshot.hits", "core.snapshot",
     "search_p50_ms on view-churn"),
    ("snapshot.misses", "core.snapshot",
     "search_p50_ms on view-churn"),
    ("snapshot.load_ms", "core.snapshot",
     "search_p50_ms on view-churn"),
    ("pdt.build_skeleton_calls", "core.pdt",
     "search_p90_ms on view-churn; edit_p90_ms on edit-mix"),
    ("pdt.build_skeleton_ms", "core.pdt",
     "search_p90_ms on view-churn; edit_p90_ms on edit-mix"),
    ("sharding.collect_ms", "core.sharding",
     "search_p50_ms, search_p90_ms on sharded-corpus"),
    ("sharding.rank_ms", "core.sharding",
     "search_p50_ms, search_p90_ms on sharded-corpus"),
    ("sharding.slowest_over_median", "core.sharding",
     "search_p90_ms on sharded-corpus"),
    ("sharding.merge_consumed_share", "core.topk",
     "search_p50_ms on sharded-corpus"),
    # The coordinator is fail-closed (no partial results): a shard that
    # fails a query fails the request with 503 shards_unavailable, and
    # this counts those requests' failed shards.
    ("sharding.failures", "core.sharding",
     "failed_share on sharded-corpus"),
    ("storage.path_probes_per_query", "storage",
     "search_p90_ms on view-churn"),
    ("storage.inv_probes_per_query", "storage",
     "search_p50_ms on every workload"),
    ("storage.store_reads_per_query", "storage",
     "search_p50_ms on every workload"),
    ("update.apply_ms", "storage.update",
     "edit_p50_ms, edit_p90_ms, throughput_rps on edit-mix"),
    ("engine.rewarm_ms", "core.engine",
     "edit_p50_ms, edit_p90_ms, throughput_rps on edit-mix"),
    ("update.patched_share", "storage.update",
     "edit_p50_ms, edit_p90_ms on edit-mix"),
    ("search_p90_ms", "search path (end to end)",
     "the latency tail on every workload; too steal-sensitive to gate"),
    ("edit_p50_ms", "edit path (end to end)",
     "throughput_rps on edit-mix"),
    ("edit_p90_ms", "edit path (end to end)",
     "throughput_rps on edit-mix"),
    ("failed_share", "all (end to end)",
     "the correct/failed fields of every run"),
    ("loadgen.lag_p50_ms", "benchmark client",
     "run validity (a late generator invalidates the run)"),
    ("loadgen.lag_p90_ms", "benchmark client",
     "run validity (a late generator invalidates the run)"),
    ("trace.overhead_ratio", "benchmark tracer",
     "traced over untraced search_p50_ms, same workload"),
    ("trace.spans_per_request", "benchmark tracer",
     "trace.overhead_ratio"),
)

#: Span names whose mean self time per call is reported as
#: ``self.<name>_ms`` (time in that layer, not in the layers it calls).
SELF_TIME_SPANS = (
    "bench.read", "bench.edit", "http.api", "server.search",
    "coordinator.search", "shard.collect", "shard.rank", "engine.search",
    "engine.collect", "engine.warm_view", "snapshot.load", "db.insert_subtree",
    "db.delete_subtree", "xquery.evaluate", "pdt.prepare_path_lists",
    "pdt.prepare_inv_lists", "pdt.build_skeleton", "pdt.compress_skeleton",
    "pdt.annotate_skeleton", "pdt.patch_byte_lengths",
    "scoring.collect_statistics", "scoring.containing_counts",
    "scoring.apply_scores", "scoring.filter_matching",
)

#: Per-layer metrics a workload does not compute: they read 0 there.
_EDIT_ONLY = ("edit_p50_ms", "edit_p90_ms", "update.patched_share")
NOT_APPLICABLE = {
    "view-churn": _EDIT_ONLY,
    "sharded-corpus": _EDIT_ONLY,
    "edit-mix": (
        "http.bridge_p50_ms", "server.queue_wait_p90_ms", "server.service_p50_ms",
        "admission.rejected", "server.cpu_s", "sharding.failures",
        "loadgen.lag_p50_ms", "loadgen.lag_p90_ms", "snapshot.hits",
        "snapshot.misses",
    ),
}

#: Spans a workload's traced half must record at least one of each; a
#: layer that records none (a renamed entry point, a bypassed path)
#: fails the run instead of reading 0.
REQUIRED_SPANS = {
    "view-churn": (
        "http.api", "server.search", "engine.search", "engine.collect",
        "snapshot.load", "xquery.evaluate", "pdt.prepare_inv_lists",
        "pdt.compress_skeleton", "pdt.annotate_skeleton",
        "scoring.collect_statistics", "scoring.containing_counts",
        "scoring.apply_scores", "scoring.filter_matching",
    ),
    "sharded-corpus": (
        "http.api", "server.search", "coordinator.search", "shard.collect",
        "shard.rank", "engine.collect", "pdt.prepare_inv_lists",
        "pdt.annotate_skeleton", "scoring.collect_statistics",
        "scoring.containing_counts", "scoring.apply_scores",
        "scoring.filter_matching",
    ),
    "edit-mix": (
        "bench.read", "bench.edit", "engine.search", "engine.collect",
        "engine.warm_view", "db.insert_subtree", "db.delete_subtree",
        "xquery.evaluate", "pdt.prepare_path_lists", "pdt.prepare_inv_lists",
        "pdt.build_skeleton", "pdt.compress_skeleton", "pdt.patch_byte_lengths",
        "scoring.collect_statistics", "scoring.containing_counts",
        "scoring.apply_scores", "scoring.filter_matching",
    ),
}


class MissingSpans(RuntimeError):
    """A traced run recorded no span for a layer its workload reaches."""


def metric_names() -> list[str]:
    """Every per-layer metric name, in order."""
    rows = [name for name, _, _ in PER_LAYER]
    return rows + [f"self.{span}_ms" for span in SELF_TIME_SPANS]


def check_table(declared) -> None:
    """Fail unless ``declared`` (the per-layer names ``BENCHMARK.json``
    lists) are exactly the names this table describes."""
    described = metric_names()
    if sorted(declared) != sorted(described):
        raise ValueError(
            "BENCHMARK.json per_layer and layers.py disagree: "
            f"only in BENCHMARK.json {sorted(set(declared) - set(described))}, "
            f"only in layers.py {sorted(set(described) - set(declared))}"
        )


def not_applicable(workload: str) -> dict[str, float]:
    return dict.fromkeys(NOT_APPLICABLE[workload], 0.0)


def check_spans(workload: str, spans) -> None:
    recorded = {span[3] for span in spans}
    missing = [name for name in REQUIRED_SPANS[workload] if name not in recorded]
    if missing:
        raise MissingSpans(f"{workload}: the traced run recorded no {missing} spans")


def span_metrics(workload: str, spans) -> dict[str, float]:
    """Per-layer metrics the traced phase's spans give; fails the run
    (:class:`MissingSpans`) when a layer ``workload`` reaches recorded
    none."""
    check_spans(workload, spans)
    own = self_times(spans)
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)
    metrics = {
        f"self.{name}_ms": mean(own[s[0]] for s in by_name.get(name, ())) * 1e3
        for name in SELF_TIME_SPANS
    }

    def mean_ms(name: str) -> float:
        return mean(s[5] - s[4] for s in by_name.get(name, ())) * 1e3

    builds = by_name.get("pdt.build_skeleton", ())
    metrics["pdt.build_skeleton_calls"] = float(len(builds))
    metrics["pdt.build_skeleton_ms"] = mean_ms("pdt.build_skeleton")
    metrics["snapshot.load_ms"] = mean_ms("snapshot.load")
    metrics["sharding.collect_ms"] = mean_ms("shard.collect")
    metrics["sharding.rank_ms"] = mean_ms("shard.rank")
    per_request: dict[int, list[float]] = defaultdict(list)
    for span in by_name.get("shard.collect", ()):
        per_request[span[2]].append(span[5] - span[4])
    spreads = [
        max(times) / percentile(times, 0.5)
        for times in per_request.values()
        if len(times) > 1 and percentile(times, 0.5) > 0
    ]
    metrics["sharding.slowest_over_median"] = mean(spreads)

    # Edits (edit-mix): the edit span's own time, and the view re-warm
    # the engine's update hook runs inside it.
    edits = by_name.get("db.insert_subtree", []) + by_name.get("db.delete_subtree", [])
    metrics["update.apply_ms"] = mean(own[s[0]] for s in edits) * 1e3
    edit_ids = {s[0] for s in edits}
    rewarm = 0.0
    for span in by_name.get("engine.warm_view", ()):
        if span[1] in edit_ids:
            rewarm += span[5] - span[4]
    metrics["engine.rewarm_ms"] = ratio(rewarm, len(edits)) * 1e3
    roots = sum(1 for span in spans if span[1] == 0)
    metrics["trace.spans_per_request"] = ratio(len(spans), roots)
    return metrics


def cache_metrics(before: dict, after: dict) -> dict[str, float]:
    """Tier hit rates, evictions and resident bytes between two summed
    cache-tier snapshots (``serve.py``'s ``stats``)."""
    metrics = {}
    evictions = memory = 0
    for tier in ("prepared", "skeleton", "pdt", "evaluated"):
        old = before.get(tier, {})
        new = after.get(tier, {})
        hits = new.get("hits", 0) - old.get("hits", 0)
        misses = new.get("misses", 0) - old.get("misses", 0)
        metrics[f"cache.{tier}.hit_rate"] = ratio(hits, hits + misses)
        evictions += new.get("evictions", 0) - old.get("evictions", 0)
        memory += new.get("memory_bytes", 0)
    metrics["cache.evictions"] = float(evictions)
    metrics["cache.memory_bytes"] = float(memory)
    return metrics


def phase_metrics(stats: dict) -> dict[str, float]:
    """Engine phase means per query and the merge's consumed share from
    a probe snapshot (``serve.py``'s ``stats``, or edit-mix's own)."""
    outcomes = stats["outcomes"]
    metrics = {
        f"engine.{phase}_ms": ratio(stats["phases"][phase], outcomes) * 1e3
        for phase in PHASES
    }
    merge = stats["merge"]
    metrics["sharding.merge_consumed_share"] = ratio(
        merge["consumed"], merge["candidates"]
    )
    return metrics


def storage_metrics(stats: dict, queries: int) -> dict[str, float]:
    """Storage probe and access counters per query since the last reset."""
    storage = stats["storage"]
    return {
        "storage.path_probes_per_query": ratio(storage["path_probes"], queries),
        "storage.inv_probes_per_query": ratio(storage["inv_probes"], queries),
        "storage.store_reads_per_query": ratio(storage["store_reads"], queries),
    }
