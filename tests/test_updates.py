"""Unit tests for sub-document updates (the write path's delta machinery).

The ``mutations`` difftest configuration checks the end-to-end
delta-vs-rebuild equivalence on randomized streams; these tests pin the
individual contracts — Dewey stability rules, payload guards, parent
serialization overhead, index splice parity, hook channels, cache
migration, and skeleton byte-length patching.
"""

from __future__ import annotations

import pytest

from repro.core.cache import LRUCache, QueryCache
from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import patch_skeleton_byte_lengths
from repro.dewey import DeweyID
from repro.errors import StorageError
from repro.storage.btree import BPlusTree
from repro.storage.database import XMLDatabase
from repro.storage.update import UPDATE_KINDS
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize, serialized_length

DOC = """<items>
  <item><id>id-1</id><name>alpha widget</name>
    <body><para>widget text here</para></body></item>
  <item><id>id-2</id><name>beta gadget</name>
    <body><para>gadget text there</para></body></item>
  <empty></empty>
</items>"""

VIEW = """
for $item in fn:doc(items.xml)/items//item
return $item
"""


def _database() -> XMLDatabase:
    db = XMLDatabase()
    db.load_document("items.xml", DOC)
    return db


def _rebuild(db: XMLDatabase) -> XMLDatabase:
    fresh = XMLDatabase(
        index_tag_names=db.index_tag_names,
        store_positions=db.store_positions,
    )
    for name in db.document_names():
        fresh.load_document(name, db.get(name).document)
    return fresh


def _store_rows(indexed):
    return [
        (r.dewey, r.tag, r.value, r.byte_length)
        for r in indexed.store.iter_records()
    ]


def _assert_parity(db: XMLDatabase) -> None:
    """Every derived structure matches a rebuild from the mutated tree."""
    rebuilt = _rebuild(db)
    for name in db.document_names():
        live, fresh = db.get(name), rebuilt.get(name)
        assert _store_rows(live) == _store_rows(fresh)
        live_postings = {
            kw: [(p.dewey, p.tf, p.positions) for p in pl.postings]
            for kw, pl in live.inverted_index._lists.items()
            if len(pl)
        }
        fresh_postings = {
            kw: [(p.dewey, p.tf, p.positions) for p in pl.postings]
            for kw, pl in fresh.inverted_index._lists.items()
            if len(pl)
        }
        assert live_postings == fresh_postings
        # Root record's byte length must equal the true serialization.
        root = live.document.root
        assert live.store.record(root.dewey).byte_length == serialized_length(root)


class TestBPlusTreeUpdate:
    def test_update_transforms_value_in_place(self):
        tree = BPlusTree(order=4)
        for n in range(20):
            tree.insert(n, [n])
        result = tree.update(7, lambda row: row + [99])
        assert result == [7, 99]
        assert tree.get(7) == [7, 99]

    def test_update_missing_key_raises(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        with pytest.raises(KeyError):
            tree.update(2, lambda v: v)


class TestUpdateAPI:
    def test_update_kinds_constant(self):
        assert UPDATE_KINDS == ("insert", "delete", "replace")

    def test_insert_appends_as_last_child(self):
        db = _database()
        root = db.get("items.xml").document.root
        last_before = root.children[-1]
        delta = db.insert_subtree("items.xml", "1", "<zaux>hello</zaux>")
        root = db.get("items.xml").document.root
        assert root.children[-1].tag == "zaux"
        assert (
            root.children[-1].dewey.components
            == last_before.dewey.components[:-1]
            + (last_before.dewey.components[-1] + 1,)
        )
        assert delta.kind == "insert"
        assert delta.added_paths == (("items", "zaux"),)
        assert delta.removed_paths == ()
        _assert_parity(db)

    def test_insert_into_childless_element_starts_at_one(self):
        db = _database()
        empty = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "empty"
        )
        delta = db.insert_subtree(
            "items.xml", empty.dewey, "<note>first</note>"
        )
        assert delta.edit_id.components == empty.dewey.components + (1,)
        # <empty/> gained its first child: overhead is len("empty") + 2.
        assert delta.length_delta == serialized_length(
            parse_xml("<note>first</note>")
        ) + len("empty") + 2
        _assert_parity(db)

    def test_delete_leaves_ordinal_hole(self):
        db = _database()
        first_item = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "item"
        )
        hole = first_item.dewey.components
        db.delete_subtree("items.xml", first_item.dewey)
        root = db.get("items.xml").document.root
        assert all(c.dewey.components != hole for c in root.children)
        # Remaining siblings kept their ordinals.
        assert root.children[0].dewey.components[-1] != 1
        _assert_parity(db)

    def test_delete_last_child_shrinks_parent_by_tag_overhead(self):
        db = _database()
        empty = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "empty"
        )
        db.insert_subtree("items.xml", empty.dewey, "<note>gone soon</note>")
        note = empty.children[-1]
        payload_len = serialized_length(note)
        delta = db.delete_subtree("items.xml", note.dewey)
        assert delta.length_delta == -(payload_len + len("empty") + 2)
        _assert_parity(db)

    def test_replace_inherits_the_old_dewey_id(self):
        db = _database()
        first_item = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "item"
        )
        old_id = first_item.dewey.components
        delta = db.replace_subtree(
            "items.xml", first_item.dewey, "<item><name>gamma</name></item>"
        )
        root = db.get("items.xml").document.root
        replaced = next(n for n in root.children if n.dewey.components == old_id)
        assert replaced.tag == "item"
        assert serialize(replaced) == "<item><name>gamma</name></item>"
        assert delta.edit_id.components == old_id
        _assert_parity(db)

    def test_root_delete_and_replace_are_rejected(self):
        db = _database()
        with pytest.raises(StorageError):
            db.delete_subtree("items.xml", "1")
        with pytest.raises(StorageError):
            db.replace_subtree("items.xml", "1", "<items/>")

    def test_attached_payload_is_rejected(self):
        db = _database()
        attached = db.get("items.xml").document.root.children[0]
        with pytest.raises(StorageError):
            db.insert_subtree("items.xml", "1", attached)

    def test_missing_target_is_rejected(self):
        db = _database()
        with pytest.raises(StorageError):
            db.delete_subtree("items.xml", "1.999")

    def test_update_bumps_generation_and_fingerprint(self):
        db = _database()
        indexed = db.get("items.xml")
        old_generation = indexed.generation
        old_fingerprint = indexed.fingerprint  # force the digest
        delta = db.insert_subtree("items.xml", "1", "<zaux>bump</zaux>")
        assert delta.old_generation == old_generation
        assert delta.new_generation == indexed.generation > old_generation
        assert delta.old_fingerprint == old_fingerprint
        assert indexed.fingerprint != old_fingerprint

    def test_old_fingerprint_is_cached_only(self):
        # An edit must not force serialization of the pre-edit content.
        db = _database()
        delta = db.insert_subtree("items.xml", "1", "<zaux>lazy</zaux>")
        assert delta.old_fingerprint is None

    def test_positions_and_tag_names_config_survives_edits(self):
        db = XMLDatabase(index_tag_names=True, store_positions=True)
        db.load_document("items.xml", DOC)
        db.insert_subtree("items.xml", "1", "<zaux>widget zaux widget</zaux>")
        first_item = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "item"
        )
        db.delete_subtree("items.xml", first_item.dewey)
        _assert_parity(db)


class TestHookChannels:
    def test_update_hooks_fire_on_updates_only(self):
        db = _database()
        deltas, invalidations = [], []
        db.add_update_hook(deltas.append)
        db.add_invalidation_hook(invalidations.append)
        db.insert_subtree("items.xml", "1", "<zaux>x</zaux>")
        assert [d.kind for d in deltas] == ["insert"]
        assert invalidations == []
        db.drop_document("items.xml")
        db.load_document("items.xml", DOC)
        assert len(deltas) == 1
        assert invalidations == ["items.xml", "items.xml"]

    def test_remove_update_hook(self):
        db = _database()
        deltas = []
        db.add_update_hook(deltas.append)
        db.remove_update_hook(deltas.append)
        db.insert_subtree("items.xml", "1", "<zaux>x</zaux>")
        assert deltas == []


class TestPatchability:
    def _engine(self):
        db = _database()
        engine = KeywordSearchEngine(db)
        view = engine.define_view("v", VIEW)
        return db, engine, view

    def test_foreign_tag_insert_is_patchable(self):
        db, engine, view = self._engine()
        delta = db.insert_subtree("items.xml", "1", "<zaux>free</zaux>")
        qpt = view.qpts["items.xml"]
        assert engine._delta_patchable(qpt, delta)

    def test_matched_tag_edit_is_structural(self):
        db, engine, view = self._engine()
        first_item = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "item"
        )
        delta = db.delete_subtree("items.xml", first_item.dewey)
        qpt = view.qpts["items.xml"]
        assert not engine._delta_patchable(qpt, delta)


class TestCacheMigration:
    def test_rekey_where_moves_matching_entries(self):
        cache = LRUCache(capacity=8)
        cache.put(("v", "d", 1), "keep-moving")
        cache.put(("v", "e", 1), "stay")
        moved = cache.rekey_where(
            lambda k: k[1] == "d",
            lambda k: (k[0], k[1], 2),
        )
        assert moved == [(("v", "d", 2), "keep-moving")]
        assert cache.get(("v", "d", 2)) == "keep-moving"
        assert ("v", "d", 1) not in cache
        assert cache.get(("v", "e", 1)) == "stay"

    def test_apply_document_delta_migrates_patchable_skeletons(self):
        cache = QueryCache()
        skeleton_key = cache.skeleton_key("v", "d.xml", 1, "qh")
        other_key = cache.skeleton_key("w", "d.xml", 1, "qh")
        cache.skeletons.put(skeleton_key, "patchable-skel")
        cache.skeletons.put(other_key, "structural-skel")
        cache.pdts.put(cache.pdt_key("v", "d.xml", 1, "qh", ("kw",)), "pdt")
        cache.prepared.put(cache.prepared_key("d.xml", 1, "qh", ("kw",)), "pl")
        moved, dropped = cache.apply_document_delta("d.xml", 1, 2, {"v"})
        assert [key for key, _ in moved] == [
            cache.skeleton_key("v", "d.xml", 2, "qh")
        ]
        assert cache.skeletons.get(cache.skeleton_key("v", "d.xml", 2, "qh"))
        assert other_key not in cache.skeletons
        assert dropped >= 3

    def test_apply_document_delta_leaves_other_documents_alone(self):
        cache = QueryCache()
        foreign = cache.skeleton_key("v", "other.xml", 1, "qh")
        cache.skeletons.put(foreign, "untouched")
        moved, dropped = cache.apply_document_delta("d.xml", 1, 2, {"v"})
        assert moved == [] and dropped == 0
        assert cache.skeletons.get(foreign) == "untouched"


class TestSkeletonPatch:
    def test_patch_shifts_only_listed_ancestors(self):
        from repro.core.pdt import build_skeleton, compress_skeleton
        from repro.core.qpt import generate_qpts
        from repro.core.shapes import ShapeTable
        from repro.xquery.parser import parse_query

        db = _database()
        program = parse_query(VIEW)
        qpt = generate_qpts(program.body)["items.xml"]
        skeleton = compress_skeleton(
            build_skeleton(qpt, db.get("items.xml").path_index), ShapeTable()
        )
        tree = skeleton.tree  # held: a live shared tree is patched too
        first_item = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "item"
        )
        # Ancestors of an edit under the first item: root, then the item.
        ancestor_keys = (DeweyID((1,)).packed, first_item.dewey.packed)
        present = [key for key in ancestor_keys if key in skeleton.keys]
        assert present, "expected at least one ancestor in the skeleton"
        before = dict(zip(skeleton.keys, skeleton.byte_lengths))
        patched = patch_skeleton_byte_lengths(skeleton, ancestor_keys, 30)
        assert patched == len(present)
        expected = {
            key: length + (30 if key in present else 0)
            for key, length in before.items()
        }
        assert dict(zip(skeleton.keys, skeleton.byte_lengths)) == expected
        assert {
            node.anno.dewey.packed: node.anno.byte_length
            for node in tree.iter()
            if node.anno is not None
        } == expected

    def test_zero_delta_is_a_noop(self):
        assert patch_skeleton_byte_lengths(None, (), 0) == 0
