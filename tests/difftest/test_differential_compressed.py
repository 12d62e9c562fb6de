"""Differential DAG-compression configuration (the ``compressed`` config).

Every skeleton an engine serves is DAG-compressed against its shape
table, and compression is a pure representation change, so the checks
here demand **bit identity**, not mere equivalence: for every generated
scenario the caching engine must produce ranked outcomes exactly equal
(``==`` on floats, ranks, document-order indexes and serialized XML) to
a cache-free engine, with both also matching the naive
materialize-then-search baseline, and the skeleton-tier state is
compared by the sha256 of its wire bytes (the wire digest).  The matrix
covers:

* plain engines (caching vs cache-free vs baseline), with the warm
  skeleton tier digesting like a fresh structural pass;
* snapshot restores through the store's read and ``mmap_mode`` loads,
  both serving first contact at ``snapshot`` depth with identical
  results and identical restored skeleton digests;
* sharded scatter-gather at shard counts 1 and 2 with executors sharing
  one shape table;
* ``mutations``-style subtree edit streams, checking outcome identity
  after every edit, and that the (patched or rebuilt) skeleton tier
  digests like the snapshots the edit forwarded, restored through both
  load modes.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.baselines.naive import BaselineEngine
from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import build_skeleton
from repro.core.sharding import (
    CorpusCoordinator,
    ShardExecutor,
    ShardPlan,
    view_fragments,
)
from repro.core.shapes import ShapeTable
from repro.core.snapshot import SkeletonStore
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query

from difftest.generators import (
    apply_mutation,
    generate_case,
    generate_mutation_stream,
)
from difftest.harness import assert_outcomes_equivalent

DEFAULT_SEEDS = (101, 404, 606)
TOP_K = 10
STREAM_LENGTH = 6


def _seed_matrix() -> tuple[int, ...]:
    raw = os.environ.get("DIFFTEST_SEEDS", "")
    if not raw.strip():
        return DEFAULT_SEEDS
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _assert_bit_identical(out, ref, context: str) -> None:
    """Exact equality — floats compared with ``==``, not ``isclose``."""
    assert out.view_size == ref.view_size, context
    assert out.matching_count == ref.matching_count, context
    assert out.idf == ref.idf, context
    assert [
        (r.rank, r.score, r.scored.index) for r in out.results
    ] == [(r.rank, r.score, r.scored.index) for r in ref.results], context
    assert [r.to_xml() for r in out.results] == [
        r.to_xml() for r in ref.results
    ], context


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _skeleton_digests(engine) -> dict[str, str]:
    """Per-document sha256 of every skeleton-tier entry's wire bytes."""
    tier = engine.cache.skeletons
    digests: dict[str, str] = {}
    with tier._hold_all_locks():
        for shard in tier._shards:
            for key, skeleton in shard._data.items():
                digests[key[1]] = _digest(skeleton.to_bytes())
    return digests


def _fresh_digests(engine, view) -> dict[str, str]:
    """The wire digests a fresh structural pass gives for ``view`` over
    the engine's current documents — what its skeleton tier must hold."""
    return {
        doc_name: _digest(
            build_skeleton(
                qpt, engine.database.get(doc_name).path_index
            ).to_bytes()
        )
        for doc_name, qpt in view.qpts.items()
    }


# -- plain engines ---------------------------------------------------------------


@pytest.mark.parametrize("seed", _seed_matrix())
def test_compressed_engine_is_bit_identical(seed):
    baseline_case = generate_case(seed)
    baseline = BaselineEngine(baseline_case.database)
    bview = baseline.define_view("truth", baseline_case.view_text)

    case = generate_case(seed)
    engine = KeywordSearchEngine(case.database)
    view = engine.define_view("v", case.view_text)
    engine.warm_view(view)
    free_case = generate_case(seed)
    free = KeywordSearchEngine(free_case.database, enable_cache=False)
    free_view = free.define_view("v", free_case.view_text)

    context = f"seed={seed} [warm-state]"
    assert _skeleton_digests(engine) == _fresh_digests(engine, view), (
        f"{context}: skeleton tier diverged from a fresh build"
    )

    for keywords in baseline_case.keyword_sets:
        for conjunctive in (True, False):
            context = f"seed={seed} kw={keywords} conj={conjunctive}"
            compressed = engine.search_detailed(
                view, keywords, TOP_K, conjunctive
            )
            uncached = free.search_detailed(
                free_view, keywords, TOP_K, conjunctive
            )
            _assert_bit_identical(
                compressed, uncached, f"{context} [cached-vs-cache-free]"
            )
            bout = baseline.search_detailed(
                bview, keywords, TOP_K, conjunctive
            )
            assert_outcomes_equivalent(
                compressed, bout, keywords, f"{context} [vs-baseline]"
            )


# -- snapshot restores -----------------------------------------------------------


@pytest.mark.parametrize("seed", _seed_matrix())
def test_restore_matrix_is_bit_identical(seed):
    """Read and mmap-mode restores: one answer, one skeleton state."""
    store_dir_name = "snapshots"

    def run(tmp_root, mmap_mode: bool):
        case = generate_case(seed)
        engine = KeywordSearchEngine(
            case.database,
            snapshot_store=SkeletonStore(
                tmp_root / store_dir_name, mmap_mode=mmap_mode
            ),
        )
        view = engine.define_view("v", case.view_text)
        return engine, view, case

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as raw:
        tmp_root = Path(raw)
        builder, builder_view, case = run(tmp_root, False)
        builder.warm_view(builder_view)
        built = _skeleton_digests(builder)

        baseline = BaselineEngine(generate_case(seed).database)
        bview = baseline.define_view("truth", case.view_text)

        outcomes = {}
        for mmap_mode in (False, True):
            engine, view, _ = run(tmp_root, mmap_mode)
            keywords = case.keyword_sets[0]
            context = f"seed={seed} mmap={mmap_mode} kw={keywords}"
            out = engine.search_detailed(view, keywords, TOP_K, True)
            assert set(out.cache_hits.values()) == {"snapshot"}, (
                f"{context}: expected snapshot restores, got "
                f"{out.cache_hits}"
            )
            assert_outcomes_equivalent(
                out,
                baseline.search_detailed(bview, keywords, TOP_K, True),
                keywords,
                f"{context} [vs-baseline]",
            )
            assert _skeleton_digests(engine) == built, (
                f"{context}: restored skeleton state diverged"
            )
            outcomes[mmap_mode] = out
        _assert_bit_identical(
            outcomes[True], outcomes[False], f"seed={seed} mmap-vs-read"
        )


# -- sharded ---------------------------------------------------------------------


@pytest.mark.parametrize("shard_count", (1, 2))
@pytest.mark.parametrize("seed", _seed_matrix())
def test_sharded_shared_shape_table_is_bit_identical(seed, shard_count):
    case = generate_case(seed)
    doc_names = sorted(case.database.document_names())
    # Documents a view fragment joins must share a shard.
    fragments = view_fragments(inline_functions(parse_query(case.view_text)))
    plan = ShardPlan.build(
        doc_names,
        shard_count,
        colocate=[f.documents for f in fragments if len(f.documents) > 1],
    )
    source = generate_case(seed).database
    table = ShapeTable()
    executors = [
        ShardExecutor(i, shape_table=table) for i in range(shard_count)
    ]
    for name in doc_names:
        executors[plan.shard_of(name)].load_document(
            name, source.get(name).document
        )
    free_case = generate_case(seed)
    free = KeywordSearchEngine(free_case.database, enable_cache=False)
    free_view = free.define_view("v", free_case.view_text)

    baseline = BaselineEngine(case.database)
    bview = baseline.define_view("truth", case.view_text)

    with CorpusCoordinator(executors, plan, parallel=False) as sharded:
        sharded.define_view("v", case.view_text)
        for keywords in case.keyword_sets:
            for conjunctive in (True, False):
                context = (
                    f"seed={seed} shards={shard_count} kw={keywords} "
                    f"conj={conjunctive}"
                )
                sout = sharded.search_detailed(
                    "v", keywords, TOP_K, conjunctive
                )
                fout = free.search_detailed(
                    free_view, keywords, TOP_K, conjunctive
                )
                _assert_bit_identical(
                    sout, fout, f"{context} [sharded-vs-cache-free]"
                )
                assert_outcomes_equivalent(
                    sout,
                    baseline.search_detailed(
                        bview, keywords, TOP_K, conjunctive
                    ),
                    keywords,
                    f"{context} [vs-baseline]",
                )
    assert table.stats()["shapes"] > 0


# -- mutation streams ------------------------------------------------------------


@pytest.mark.parametrize("seed", _seed_matrix())
def test_mutations_preserve_bit_identity_under_compression(seed, tmp_path):
    case = generate_case(seed)
    store_root = tmp_path / "snapshots"
    engine = KeywordSearchEngine(
        case.database, snapshot_store=SkeletonStore(store_root)
    )
    view = engine.define_view("v", case.view_text)
    free_case = generate_case(seed)
    free = KeywordSearchEngine(free_case.database, enable_cache=False)
    free_view = free.define_view("v", free_case.view_text)
    baseline_db = generate_case(seed).database
    baseline = BaselineEngine(baseline_db)
    bview = baseline.define_view("truth", case.view_text)
    loaders = {
        mode: SkeletonStore(store_root, mmap_mode=mode)
        for mode in (False, True)
    }

    ops = generate_mutation_stream(
        seed, generate_case(seed).database, count=STREAM_LENGTH
    )
    engine.search(view, case.priming_keywords, top_k=TOP_K)

    for step, op in enumerate(ops):
        for database in (engine.database, free.database, baseline_db):
            apply_mutation(database, op)
        keywords = case.keyword_sets[step % len(case.keyword_sets)]
        context = f"seed={seed} step={step} op={op.describe()}"
        for conjunctive in (True, False):
            cout = engine.search_detailed(view, keywords, TOP_K, conjunctive)
            fout = free.search_detailed(
                free_view, keywords, TOP_K, conjunctive
            )
            _assert_bit_identical(
                cout,
                fout,
                f"{context} conj={conjunctive} [cached-vs-cache-free]",
            )
            assert_outcomes_equivalent(
                cout,
                baseline.search_detailed(bview, keywords, TOP_K, conjunctive),
                keywords,
                f"{context} conj={conjunctive} [vs-baseline]",
            )
        # The wire digest: the live (patched or rebuilt) skeleton tier
        # equals the snapshot the edit forwarded to the document's new
        # fingerprint, restored through either load mode.
        live = _skeleton_digests(engine)
        assert set(live) == set(view.qpts), context
        for mmap_mode, loader in loaders.items():
            restored = {
                doc_name: _digest(
                    loader.load(
                        engine.database.get(doc_name).fingerprint,
                        qpt.content_hash,
                    ).to_bytes()
                )
                for doc_name, qpt in view.qpts.items()
            }
            assert restored == live, (
                f"{context} mmap={mmap_mode}: persisted skeleton state "
                "diverged from the live tier after the edit"
            )
