"""DAG-compressed skeleton tests.

Three property families lock down the one skeleton representation:

* **equivalence** — for random record sets, ``compress_skeleton``
  preserves every record (its columns round-trip, and it serializes
  byte-identically to them), derives the bounds the annotation sweep
  consumes, and its shared tree plus tf arrays match the eager
  per-query assembly (:func:`~repro.core.pdt.assemble_pdt`) with
  brute-force subtree tfs; byte-length patches match re-compressing
  the patched records;
* **sharing** — isomorphic structures are interned once per shape
  table, within and across skeletons (and across engines handed the
  same table), so a repetitive corpus adds no structure per copy;
* **wiring** — the engine's skeleton tier holds compressed entries,
  search results equal a cache-free engine's, and
  ``close``/``prune_snapshots`` reclaim hooks and stale snapshot files.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import (
    PDTRecord,
    PDTSkeleton,
    SkeletonColumns,
    annotate_skeleton,
    assemble_pdt,
    compress_skeleton,
    patch_skeleton_byte_lengths,
)
from repro.core.shapes import ShapeTable, forest_columns
from repro.core.snapshot import SkeletonStore
from repro.dewey import pack, packed_child_bound
from repro.storage.database import XMLDatabase
from repro.storage.inverted_index import Posting, PostingList
from repro.xmlmodel.serializer import serialize
from tests.conftest import BOOKS_XML, BOOKREV_VIEW, REVIEWS_XML

_TAGS = ["a", "b", "item", "Ünïcode-tag"]
_VALUES = [None, "", "x", "multi word value", "0"]


def _random_records(
    rng: random.Random, count_hint: int = 25
) -> dict[bytes, PDTRecord]:
    records: dict[bytes, PDTRecord] = {}
    seen: set[tuple[int, ...]] = set()
    for _ in range(rng.randint(0, count_hint)):
        dewey = tuple(
            rng.randint(1, 300) for _ in range(rng.randint(1, 5))
        )
        if dewey in seen:
            continue
        seen.add(dewey)
        key = pack(dewey)
        wants_value = rng.random() < 0.5
        records[key] = PDTRecord(
            key=key,
            tag=rng.choice(_TAGS),
            value=rng.choice(_VALUES) if wants_value else None,
            byte_length=rng.randint(0, 1 << 40),
            wants_value=wants_value,
            wants_content=rng.random() < 0.5,
        )
    return records


def _compress(doc_name, records, entry_count, table=None) -> PDTSkeleton:
    return compress_skeleton(
        SkeletonColumns.from_records(doc_name, records, entry_count),
        table if table is not None else ShapeTable(),
    )


def _posting_list(rng: random.Random, keyword: str) -> PostingList:
    deweys = sorted(
        {
            tuple(rng.randint(1, 300) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 20))
        }
    )
    return PostingList(
        keyword,
        [Posting(dewey=dewey, tf=rng.randint(1, 9)) for dewey in deweys],
    )


# ---------------------------------------------------------------------------
# Equivalence with the eager assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_compressed_matches_eager(seed):
    rng = random.Random(seed)
    records = _random_records(rng)
    columns = SkeletonColumns.from_records("doc-ü.xml", records, 37)
    comp = compress_skeleton(columns, ShapeTable())

    assert comp.doc_name == "doc-ü.xml"
    assert comp.entry_count == 37
    assert comp.node_count == len(records)
    assert comp.content_count == sum(
        1 for record in records.values() if record.wants_content
    )
    assert comp.keys == tuple(sorted(records))
    assert comp.columns() == columns
    assert comp.to_bytes() == columns.to_bytes()

    # Bounds, straight from Definition 3's subtree ranges.
    content = [key for key in comp.keys if records[key].wants_content]
    ranges = [(key, packed_child_bound(key)) for key in content]
    assert comp.bounds == tuple(sorted({b for pair in ranges for b in pair}))
    assert [
        (comp.bounds[low], comp.bounds[high]) for low, high in comp.slot_bounds
    ] == ranges

    # The shared tree + tf arrays vs the eager per-query assembly with
    # brute-force subtree tfs.
    keywords = ("alpha", "beta", "nowhere")
    inv_lists = {
        "alpha": _posting_list(rng, "alpha"),
        "beta": _posting_list(rng, "beta"),
        "nowhere": PostingList("nowhere", []),
    }

    def subtree_tfs(dewey) -> dict[str, int]:
        return {
            keyword: inv_lists[keyword].subtree_tf(dewey)
            for keyword in keywords
        }

    eager = assemble_pdt("doc-ü.xml", records, keywords, subtree_tfs, 37)
    result = annotate_skeleton(comp, inv_lists, keywords)
    assert result.node_count == eager.node_count
    assert serialize(result.root) == serialize(eager.root)
    served = list(result.root.iter())
    expected = list(eager.root.iter())
    assert len(served) == len(expected)
    for node, other in zip(served, expected):
        if node.anno is None:
            assert other.anno is None
            continue
        assert node.anno.dewey == other.anno.dewey
        assert node.anno.byte_length == other.anno.byte_length
        assert node.anno.pruned == other.anno.pruned
        assert result.tf_map(node) == eager.tf_map(other)


@pytest.mark.parametrize("seed", range(10))
def test_compressed_patch_matches_eager(seed):
    rng = random.Random(seed)
    records = _random_records(rng, count_hint=20)
    if not records:
        pytest.skip("empty record set has nothing to patch")
    comp = _compress("d.xml", records, 5)
    tree = comp.tree  # held: the live shared tree is patched too

    # Patch along the ancestor chain of a random present key.
    target = rng.choice(sorted(records))
    chain = [key for key in sorted(records) if target.startswith(key)]
    delta = rng.randint(-100, 100)
    assert patch_skeleton_byte_lengths(comp, chain, delta) == len(chain)
    for key in chain:
        records[key].byte_length += delta
    assert comp.to_bytes() == _compress("d.xml", records, 5).to_bytes()
    assert {
        node.anno.dewey.packed: node.anno.byte_length
        for node in tree.iter()
        if node.anno is not None
    } == {key: record.byte_length for key, record in records.items()}


def test_compressed_tree_is_weakly_memoized():
    rng = random.Random(3)
    records = _random_records(rng, count_hint=20)
    comp = _compress("d.xml", records, 5)
    first = comp.tree
    assert comp.tree is first  # memoized while referenced
    tags = [n.tag for n in first.iter()]
    del first
    gc.collect()
    # The weak reference died with the last holder; a fresh access
    # rebuilds an equivalent tree.
    rebuilt = comp.tree
    assert rebuilt is comp.tree  # memoized again while referenced
    assert [n.tag for n in rebuilt.iter()] == tags


# ---------------------------------------------------------------------------
# Structure sharing
# ---------------------------------------------------------------------------


def _shifted(records: dict[bytes, PDTRecord], offset: int):
    """The same forest structure under different Dewey keys/values."""
    shifted: dict[bytes, PDTRecord] = {}
    for key, record in records.items():
        dewey = record.dewey
        new_key = pack((dewey[0] + offset,) + dewey[1:])
        shifted[new_key] = PDTRecord(
            key=new_key,
            tag=record.tag,
            value=f"other-{offset}" if record.wants_value else None,
            byte_length=record.byte_length + offset,
            wants_value=record.wants_value,
            wants_content=record.wants_content,
        )
    return shifted


def test_isomorphic_skeletons_share_shapes():
    rng = random.Random(11)
    records = _random_records(rng, count_hint=25)
    table = ShapeTable()
    first = _compress("a.xml", records, 5, table)
    shapes_after_first = table.stats()["shapes"]
    second = _compress("b.xml", _shifted(records, 1000), 5, table)
    # The second skeleton introduced zero new shapes — every subtree
    # structure was already interned — yet keeps its own keys/values.
    assert table.stats()["shapes"] == shapes_after_first
    assert second.roots == first.roots
    assert second.keys != first.keys
    assert second.columns().tags == first.columns().tags
    assert forest_columns(first.roots)[0] == first.columns().tags


def test_repetitive_corpus_compresses():
    rng = random.Random(13)
    base = _random_records(rng, count_hint=40)
    if len(base) < 10:  # pragma: no cover - seed guard
        pytest.skip("degenerate base structure")
    table = ShapeTable()
    first = _compress("doc-0.xml", base, 5, table)
    structure_bytes = table.memory_bytes()
    shapes = table.stats()["shapes"]
    for i in range(1, 12):
        copy = _compress(f"doc-{i}.xml", _shifted(base, i * 1000), 5, table)
        assert copy.roots == first.roots
    # Copies add instance columns only, never structure.
    assert table.stats()["shapes"] == shapes
    assert table.memory_bytes() == structure_bytes


def test_shape_digests_stable_across_hash_seeds():
    script = (
        "from repro.core.shapes import ShapeTable\n"
        "table = ShapeTable()\n"
        "roots = table.intern_forest(\n"
        "    ['r', 'a', 'b', 'a'], [2, 1, 2, 1], [-1, 0, 0, 2])\n"
        "print(' '.join(s.digest.hex() for s in roots))\n"
    )
    outputs = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1 and outputs != {""}


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------


def _bookrev_db() -> XMLDatabase:
    db = XMLDatabase()
    db.load_document("books.xml", BOOKS_XML)
    db.load_document("reviews.xml", REVIEWS_XML)
    return db


def _ranked(results):
    return [(r.rank, round(r.score, 12), r.to_xml()) for r in results]


def test_engine_results_identical_to_cache_free_engine():
    keywords = ["xml", "search"]
    engine = KeywordSearchEngine(_bookrev_db())
    view = engine.define_view("bookrevs", BOOKREV_VIEW)
    first = _ranked(engine.search(view, keywords, top_k=10))
    warm = _ranked(engine.search(view, keywords, top_k=10))
    assert first == warm
    free = KeywordSearchEngine(_bookrev_db(), enable_cache=False)
    free_view = free.define_view("bookrevs", BOOKREV_VIEW)
    assert _ranked(free.search(free_view, keywords, top_k=10)) == first


def _skeleton_tier_entries(engine):
    tier = engine.cache.skeletons
    entries = []
    with tier._hold_all_locks():  # test-only peek
        for shard in tier._shards:
            entries.extend(shard._data.values())
    return entries


def test_engine_skeleton_tier_holds_compressed_entries():
    engine = KeywordSearchEngine(_bookrev_db())
    view = engine.define_view("bookrevs", BOOKREV_VIEW)
    engine.warm_view(view)
    entries = _skeleton_tier_entries(engine)
    assert entries
    assert all(isinstance(s, PDTSkeleton) for s in entries)
    assert engine.shape_table.stats()["shapes"] > 0


def test_engines_can_share_a_shape_table():
    table = ShapeTable()
    for _ in range(2):
        engine = KeywordSearchEngine(_bookrev_db(), shape_table=table)
        engine.warm_view(engine.define_view("bookrevs", BOOKREV_VIEW))
    # The second engine's skeletons re-used the first engine's shapes.
    assert table.stats()["hits"] > 0


def test_updates_preserve_results_under_compression():
    db = _bookrev_db()
    engine = KeywordSearchEngine(db)
    view = engine.define_view("bookrevs", BOOKREV_VIEW)
    engine.warm_view(view)
    db.insert_subtree(
        "reviews.xml",
        "1",
        "<review><isbn>222-22-2222</isbn><content>new xml search "
        "notes</content></review>",
    )
    fresh = KeywordSearchEngine(_bookrev_db(), enable_cache=False)
    fresh.database.insert_subtree(
        "reviews.xml",
        "1",
        "<review><isbn>222-22-2222</isbn><content>new xml search "
        "notes</content></review>",
    )
    fresh_view = fresh.define_view("bookrevs", BOOKREV_VIEW)
    assert _ranked(engine.search(view, ["xml", "search"], top_k=10)) == (
        _ranked(fresh.search(fresh_view, ["xml", "search"], top_k=10))
    )


# ---------------------------------------------------------------------------
# Lifecycle: prune + close
# ---------------------------------------------------------------------------


def test_engine_prunes_stale_snapshots(tmp_path):
    store = SkeletonStore(tmp_path / "snap")
    engine = KeywordSearchEngine(_bookrev_db(), snapshot_store=store)
    view = engine.define_view("bookrevs", BOOKREV_VIEW)
    engine.warm_view(view)
    live = len(store)
    assert live > 0
    # A snapshot under a fingerprint no live document carries is
    # unaddressable — prune reclaims exactly it.
    stale = SkeletonColumns.from_records("books.xml", {}, 0)
    store.save("0" * 64, "1" * 64, stale)
    assert engine.prune_snapshots() == 1
    assert len(store) == live
    assert store.stats()["pruned"] == 1
    # Live snapshots survived: a fresh engine still restores them.
    other = KeywordSearchEngine(
        _bookrev_db(),
        snapshot_store=SkeletonStore(tmp_path / "snap"),
    )
    hits = other.warm_view(other.define_view("bookrevs", BOOKREV_VIEW))
    assert set(hits.values()) == {"snapshot"}


def test_engine_close_is_idempotent_and_prunes(tmp_path):
    store = SkeletonStore(tmp_path / "snap")
    db = _bookrev_db()
    engine = KeywordSearchEngine(db, snapshot_store=store)
    engine.warm_view(engine.define_view("bookrevs", BOOKREV_VIEW))
    store.save("0" * 64, "1" * 64, SkeletonColumns.from_records("x", {}, 0))
    before = len(store)
    engine.close()
    assert len(store) == before - 1
    engine.close()  # second close is a no-op
    # The database no longer resolves the closed engine's hooks.
    alive = [
        resolver()
        for resolver in db._invalidation_hooks
        if resolver() is not None
    ]
    assert engine._on_document_change not in alive


def test_engine_context_manager_closes(tmp_path):
    with KeywordSearchEngine(
        _bookrev_db(),
        snapshot_store=SkeletonStore(tmp_path / "snap"),
    ) as engine:
        engine.warm_view(engine.define_view("bookrevs", BOOKREV_VIEW))
    assert engine._closed
