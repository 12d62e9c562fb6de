"""Build the program under test from a workload's inputs.

The server process builds the cached deployment a workload serves; the
client builds the same corpus behind a cache-free engine as the
correctness reference.  Only public library entry points are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.engine import KeywordSearchEngine
from repro.core.ingest import ingest_corpus
from repro.core.snapshot import SkeletonStore
from repro.storage.database import XMLDatabase

import inputs


@dataclass
class Program:
    #: A ``KeywordSearchEngine`` or, for sharded-corpus with the cache
    #: on, a ``CorpusCoordinator``.
    engine: object
    #: Every database the engine reads (one per shard executor).
    databases: list
    views: dict
    #: Views the server pre-warms at startup.
    warm_views: tuple

    @property
    def engines(self) -> list:
        """The single engines doing the work (the shard executors' under
        a coordinator)."""
        executors = getattr(self.engine, "executors", None)
        if executors is None:
            return [self.engine]
        return [executor.engine for executor in executors]

    def close(self) -> None:
        self.engine.close()


def build_program(
    workload: str,
    cached: bool = True,
    snapshot_dir: Optional[Path] = None,
) -> Program:
    """The deployment ``workload`` runs (``cached=False``: the reference)."""
    if workload == "sharded-corpus":
        documents, _, _ = inputs.sharded_documents()
        views = inputs.views_for(workload, documents)
        if cached:
            coordinator, _ = ingest_corpus(
                documents, views, shard_count=inputs.SHARD_COUNT
            )
            databases = [executor.database for executor in coordinator.executors]
            return Program(coordinator, databases, views, ())
        database = XMLDatabase()
        for name in sorted(documents):
            database.load_document(name, documents[name])
        engine = KeywordSearchEngine(database, enable_cache=False)
    else:
        database = inputs.inex_database()
        views = inputs.views_for(workload)
        store = None
        if cached and workload == "view-churn":
            store = SkeletonStore(snapshot_dir, mmap_mode=True)
        engine = KeywordSearchEngine(
            database, enable_cache=cached, snapshot_store=store
        )
    for name, text in views.items():
        engine.define_view(name, text)
    # view-churn's views outnumber the cache tiers; the client primes
    # them over HTTP instead (see httpwork.py).
    warm = tuple(views) if cached and workload != "view-churn" else ()
    return Program(engine, [database], views, warm)


def client_vocabulary(workload: str, reference: Program):
    """``(vocabulary, head)`` the keyword pool is drawn from."""
    if workload == "sharded-corpus":
        _, topics, vocabulary = inputs.sharded_documents()
        return vocabulary, tuple(topics)
    articles = reference.databases[0].get("articles.xml").root
    return inputs.tree_vocabulary([articles]), ()


def inject_scoring_delay(microseconds: float) -> None:
    """Slow ``apply_scores`` by work that takes ``microseconds`` at the
    reference host speed (``hostspeed.probe_job``), under the names the
    engine and the coordinator's executors look it up by (sensitivity
    self-test only; ``selftest.py`` passes it through
    ``--inject-scoring-delay-us``).  Work, not a wall-clock wait: the
    benchmark scales times by the host's speed, and a fixed wait would
    shrink with it."""
    from hostspeed import REFERENCE_MS, probe_job
    from repro.core import engine as engine_module
    from repro.core import sharding as sharding_module

    size = microseconds / (REFERENCE_MS * 1e3)
    for module in (engine_module, sharding_module):
        original = module.apply_scores

        def delayed(*args, _original=original, **kwargs):
            probe_job(size)
            return _original(*args, **kwargs)

        module.apply_scores = delayed
