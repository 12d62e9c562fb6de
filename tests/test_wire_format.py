"""Skeleton wire-format (v2) + snapshot store load tests.

The v2 layout is an offset-table header plus packed column arrays, so
a reader can validate the header and address any column in O(1).
These tests pin down:

* **round trips** — columns encode to v2 bytes and decode back to
  equal columns, through the store in both load modes (read and
  ``mmap_mode``), and every compressed form re-serializes
  byte-identically;
* **rejection** — truncation, trailing bytes, bad magic, bad version
  and corrupt columns all raise, never mis-parse;
* **the store** — a corrupt payload, a corrupt column or a payload of
  another wire version (v1) is a counted miss in both modes and its
  file is reclaimed; an engine over such a store rebuilds instead of
  raising.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import (
    PDTRecord,
    SkeletonColumns,
    SkeletonLayout,
    annotate_skeleton,
    compress_skeleton,
    deserialize_skeleton,
    patch_skeleton_byte_lengths,
    serialize_skeleton,
)
from repro.core.shapes import ShapeTable
from repro.core.snapshot import SkeletonStore
from repro.dewey import pack
from repro.storage.inverted_index import Posting, PostingList

_TAGS = ["a", "b", "item", "Ünïcode-tag"]
_VALUES = [None, "", "x", "multi word value", "ناص", "v" * 300]


def _random_records(rng: random.Random) -> dict[bytes, PDTRecord]:
    records: dict[bytes, PDTRecord] = {}
    seen: set[tuple[int, ...]] = set()
    for _ in range(rng.randint(0, 25)):
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


def _columns(seed: int = 11) -> SkeletonColumns:
    rng = random.Random(seed)
    return SkeletonColumns.from_records(
        "doc-ü.xml", _random_records(rng), 37
    )


def _store_with(tmp_path, mmap_mode: bool, payload: bytes):
    store = SkeletonStore(tmp_path / "snap", mmap_mode=mmap_mode)
    path = store.path_for("f" * 64, "a" * 64)
    path.write_bytes(payload)
    return store, path


# ---------------------------------------------------------------------------
# Layout + round trips
# ---------------------------------------------------------------------------


def test_v2_payload_version_and_layout():
    columns = _columns()
    payload = columns.to_bytes()
    assert payload[:4] == b"PDTS"
    assert int.from_bytes(payload[4:6], "big") == 2
    layout = SkeletonLayout(payload)
    assert layout.doc_name == columns.doc_name
    assert layout.entry_count == columns.entry_count
    assert layout.record_count == len(columns.keys)


@pytest.mark.parametrize("seed", range(15))
def test_mapped_skeleton_matches_eager(seed, tmp_path):
    # The mmap-mode load and the default read load decode the same
    # payload to the same columns — the ones that were saved.
    columns = _columns(seed)
    payload = columns.to_bytes()
    store, _ = _store_with(tmp_path, False, payload)
    eager = store.load("f" * 64, "a" * 64)
    mapped = SkeletonStore(tmp_path / "snap", mmap_mode=True).load(
        "f" * 64, "a" * 64
    )
    assert eager == columns
    assert mapped == columns
    assert deserialize_skeleton(payload) == columns

    table = ShapeTable()
    from_mapped = compress_skeleton(mapped, table)
    from_eager = compress_skeleton(eager, table)
    assert from_mapped.columns() == columns
    assert from_mapped.to_bytes() == payload
    assert from_mapped.content_count == sum(
        1 for flag in columns.flags if flag & 2
    )
    assert from_mapped.bounds == from_eager.bounds
    assert from_mapped.slot_bounds == from_eager.slot_bounds

    rng = random.Random(seed + 1)
    deweys = sorted(
        {
            tuple(rng.randint(1, 300) for _ in range(rng.randint(1, 5)))
            for _ in range(20)
        }
    )
    inv_lists = {
        "kw": PostingList(
            "kw", [Posting(dewey=d, tf=rng.randint(1, 9)) for d in deweys]
        )
    }
    assert (
        annotate_skeleton(from_mapped, inv_lists, ("kw",)).tf_arrays
        == annotate_skeleton(from_eager, inv_lists, ("kw",)).tf_arrays
    )


def test_mapped_patch_flips_to_reencode(tmp_path):
    # A skeleton restored through an mmap-mode load and then patched
    # re-encodes its patched lengths, not the stored payload.
    columns = _columns(5)
    if not columns.keys:
        pytest.skip("degenerate seed")
    payload = columns.to_bytes()
    store, _ = _store_with(tmp_path, True, payload)
    skeleton = compress_skeleton(store.load("f" * 64, "a" * 64), ShapeTable())
    chain = [columns.keys[0]]
    assert patch_skeleton_byte_lengths(skeleton, chain, 7) == 1
    patched = columns._replace(
        byte_lengths=(columns.byte_lengths[0] + 7,) + columns.byte_lengths[1:]
    )
    assert skeleton.to_bytes() != payload
    assert skeleton.to_bytes() == patched.to_bytes()


# ---------------------------------------------------------------------------
# Rejection
# ---------------------------------------------------------------------------


def test_header_corruption_rejected():
    payload = _columns().to_bytes()
    with pytest.raises(ValueError):
        SkeletonLayout(payload[:-1])  # truncated
    with pytest.raises(ValueError):
        SkeletonLayout(payload + b"\x00")  # trailing bytes
    with pytest.raises(ValueError):
        SkeletonLayout(b"XXXX" + payload[4:])  # bad magic
    with pytest.raises(ValueError):
        SkeletonLayout(payload[:10])  # shorter than the header
    mutated = bytearray(payload)
    mutated[5] ^= 0xFF  # version low byte
    with pytest.raises(ValueError):
        SkeletonLayout(bytes(mutated))
    with pytest.raises(ValueError):
        SkeletonLayout(b"PD")  # too short to carry a version


def test_column_corruption_rejected():
    columns = _columns(7)
    if len(columns.keys) < 2:
        pytest.skip("degenerate seed")
    payload = bytearray(columns.to_bytes())
    # Scribble over the key-offsets table (it starts right after the
    # header + doc name): monotonicity breaks and decoding must raise.
    doc_len = len(columns.doc_name.encode("utf-8"))
    offset = 46 + doc_len
    payload[offset : offset + 8] = b"\xff" * 8
    with pytest.raises(ValueError):
        deserialize_skeleton(bytes(payload))


def test_serialize_matches_across_entry_points():
    columns = _columns(3)
    skeleton = compress_skeleton(columns, ShapeTable())
    assert serialize_skeleton(columns) == columns.to_bytes()
    assert skeleton.to_bytes() == columns.to_bytes()


# ---------------------------------------------------------------------------
# The store's load path, in both modes
# ---------------------------------------------------------------------------


def test_store_mmap_mode_returns_decoded_columns(tmp_path):
    store = SkeletonStore(tmp_path / "snap", mmap_mode=True)
    columns = _columns()
    store.save("f" * 64, "a" * 64, columns)
    restored = store.load("f" * 64, "a" * 64)
    assert isinstance(restored, SkeletonColumns)
    assert restored == columns
    assert store.stats()["hits"] == 1


def _truncate_mid_header(payload: bytes) -> bytes:
    return payload[:20]


def _flip_tag_table_byte(payload: bytes) -> bytes:
    # The header stays valid (the O(1) layout check passes); the tag
    # table's first length prefix no longer fits its section.
    layout = SkeletonLayout(payload)
    mutated = bytearray(payload)
    mutated[layout.tag_table_offset] ^= 0xFF
    SkeletonLayout(bytes(mutated))
    return bytes(mutated)


@pytest.mark.parametrize("mmap_mode", [False, True], ids=["read", "mmap"])
@pytest.mark.parametrize(
    "corrupt",
    [_truncate_mid_header, _flip_tag_table_byte],
    ids=["header", "column"],
)
def test_store_mmap_mode_corrupt_payload_is_a_miss(
    tmp_path, mmap_mode, corrupt
):
    payload = corrupt(_columns().to_bytes())
    store, path = _store_with(tmp_path, mmap_mode, payload)
    assert store.load("f" * 64, "a" * 64) is None
    assert store.stats()["misses"] == 1
    assert not path.exists()  # corrupt snapshot reclaimed


@pytest.mark.parametrize("mmap_mode", [False, True], ids=["read", "mmap"])
def test_engine_rebuilds_past_a_corrupt_column(
    tmp_path, mmap_mode, bookrev_db, bookrev_view_text
):
    # A snapshot whose header is valid but whose tag table is not: the
    # query counts a miss and rebuilds (re-snapshotting a valid file)
    # in either store mode, never raising.
    builder = KeywordSearchEngine(
        bookrev_db, snapshot_store=SkeletonStore(tmp_path / "snap")
    )
    view = builder.define_view("v", bookrev_view_text)
    builder.warm_view("v")
    expected = builder.search_detailed(view, ["xml"], top_k=10)
    fingerprint = bookrev_db.get("books.xml").fingerprint
    qpt_hash = view.qpts["books.xml"].content_hash
    path = SkeletonStore(tmp_path / "snap").path_for(fingerprint, qpt_hash)
    path.write_bytes(_flip_tag_table_byte(path.read_bytes()))

    store = SkeletonStore(tmp_path / "snap", mmap_mode=mmap_mode)
    engine = KeywordSearchEngine(bookrev_db, snapshot_store=store)
    served_view = engine.define_view("v", bookrev_view_text)
    served = engine.search_detailed(served_view, ["xml"], top_k=10)
    assert served.cache_hits == {"books.xml": "miss", "reviews.xml": "snapshot"}
    assert store.stats()["misses"] == 1
    assert [(r.rank, r.score) for r in served.results] == [
        (r.rank, r.score) for r in expected.results
    ]
    assert deserialize_skeleton(path.read_bytes()).doc_name == "books.xml"


@pytest.mark.parametrize("mmap_mode", [False, True], ids=["read", "mmap"])
def test_v1_payload_is_a_counted_miss(tmp_path, mmap_mode):
    # A payload from the retired v1 wire: a well-formed magic, version 1.
    payload = b"PDTS" + (1).to_bytes(2, "big") + _columns().to_bytes()[6:]
    store, path = _store_with(tmp_path, mmap_mode, payload)
    assert store.load("f" * 64, "a" * 64) is None
    assert store.stats()["misses"] == 1
    assert not path.exists()


def test_store_prune_counter(tmp_path):
    store = SkeletonStore(tmp_path / "snap")
    store.save("f" * 64, "a" * 64, _columns())
    store.save("e" * 64, "b" * 64, _columns())
    keep = {SkeletonStore.entry_name("f" * 64, "a" * 64)}
    assert store.prune(keep=keep) == 1
    assert store.prune(keep=keep) == 0
    assert store.stats()["pruned"] == 1
    assert len(store) == 1
