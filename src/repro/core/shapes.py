"""Hash-consed skeleton shapes: the DAG-compression vocabulary.

A PDT skeleton has one record per surviving element — but across an
INEX-style repetitive corpus the *structure* of those records (tags,
nesting, which nodes want values or content) is overwhelmingly shared:
every ``article`` record subtree looks like every other ``article``
record subtree, differing only in its Dewey keys and leaf values.  Following the DAG-compression line of work (Böttcher et
al., "Efficient XML Keyword Search based on DAG-Compression"), this
module hash-conses those isomorphic subtrees:

* a :class:`Shape` is one distinct subtree structure — ``(tag,
  flags, child shapes)`` — interned so each distinct structure exists
  **once per process**, within and across skeletons;
* a :class:`ShapeTable` is the interning authority an engine (or a
  whole sharded corpus) shares between all its skeletons;
* each shape lazily caches the *preorder columns* of its subtree (tags,
  annotation flags, content-slot positions), so the per-shape
  computation the annotation sweep and the serializer need is performed
  once per distinct structure and reused by every instance.

Digests are :func:`hashlib.blake2b` over a canonical encoding — never
Python ``hash()`` — so shape identity is stable across processes and
``PYTHONHASHSEED`` values, matching the content-digest discipline of
``QPT.content_hash`` and the snapshot store keys.
"""

from __future__ import annotations

import sys
import threading
from hashlib import blake2b
from typing import Iterable, Optional, Sequence

_DIGEST_SIZE = 16


def _shape_digest(tag: str, flags: int, children: Sequence["Shape"]) -> bytes:
    """Canonical 128-bit structure digest (``PYTHONHASHSEED``-free)."""
    hasher = blake2b(digest_size=_DIGEST_SIZE)
    raw = tag.encode("utf-8")
    hasher.update(len(raw).to_bytes(4, "big"))
    hasher.update(raw)
    hasher.update(bytes((flags,)))
    hasher.update(len(children).to_bytes(4, "big"))
    for child in children:
        hasher.update(child.digest)
    return hasher.digest()


class Shape:
    """One distinct subtree structure, interned once per shape table.

    ``flags`` is the record flag byte of the subtree root (bit0
    wants_value, bit1 wants_content — the skeleton wire encoding).
    Immutable after construction (the lazily-built preorder column
    cache is write-once and idempotent, so a benign compute race between
    threads settles on identical tuples).  ``size`` counts the subtree's
    nodes and ``content_count`` its ``wants_content`` nodes; both are
    O(1) reads precomputed at intern time.
    """

    __slots__ = (
        "digest",
        "tag",
        "flags",
        "children",
        "size",
        "content_count",
        "_columns",
    )

    def __init__(
        self,
        digest: bytes,
        tag: str,
        flags: int,
        children: tuple["Shape", ...],
    ):
        self.digest = digest
        self.tag = tag
        self.flags = flags
        self.children = children
        self.size = 1 + sum(child.size for child in children)
        self.content_count = (1 if flags & 2 else 0) + sum(
            child.content_count for child in children
        )
        self._columns: Optional[tuple] = None

    def columns(self) -> tuple[tuple[str, ...], bytes, tuple[int, ...]]:
        """Preorder columns of this subtree, computed once per shape.

        Returns ``(tags, flags, content_positions)`` where
        ``content_positions`` lists the preorder indices of the
        ``wants_content`` nodes.  This is the "per-shape computation
        reused across instances": a skeleton's full columns are pure
        concatenations of its top-level shapes' cached columns, so a
        corpus of a million identically-shaped records derives them from
        one cached copy.
        """
        cached = self._columns
        if cached is not None:
            return cached
        tags: list[str] = []
        flags = bytearray()
        content_positions: list[int] = []
        stack: list[Shape] = [self]
        while stack:
            shape = stack.pop()
            if shape.flags & 2:
                content_positions.append(len(tags))
            tags.append(shape.tag)
            flags.append(shape.flags)
            stack.extend(reversed(shape.children))
        cached = (tuple(tags), bytes(flags), tuple(content_positions))
        self._columns = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"<Shape {self.tag!r} size={self.size} "
            f"digest={self.digest.hex()[:12]}>"
        )


class ShapeTable:
    """Thread-safe interning table: one :class:`Shape` per structure.

    Shareable across every skeleton of an engine — and, via the sharding
    layer, across all shard executors of a corpus — so repetitive
    structure is stored once per *process*, not once per ``(view, doc)``
    pair.  Interning is keyed by structure — tag, flags and the
    (already interned, hence identity-comparable) children — so a hit
    costs one dict probe; each new shape also gets its canonical
    blake2b digest, stable across processes and hash seeds.
    """

    def __init__(self) -> None:
        self._shapes: dict[tuple, Shape] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.interned = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._shapes)

    def intern_forest(
        self,
        tags: Sequence[str],
        flags: Sequence[int],
        parents: Sequence[int],
    ) -> tuple[Shape, ...]:
        """Intern a whole skeleton's records bottom-up.

        The inputs are preorder columns (flag bits above bit1 are
        ignored) plus the parent-position array (``-1`` for top-level
        records, parents before children — the order
        :func:`repro.core.pdt.compress_skeleton` derives from the sorted
        keys).  Returns the top-level shapes, in document order.
        """
        count = len(tags)
        child_lists: list[list[int]] = [[] for _ in range(count)]
        roots: list[int] = []
        for position, parent in enumerate(parents):
            if parent >= 0:
                child_lists[parent].append(position)
            else:
                roots.append(position)
        shapes: list[Optional[Shape]] = [None] * count
        shape_at = shapes.__getitem__
        interned = self._shapes
        # Preorder guarantees children sit after their parent, so a
        # reverse sweep interns every child before its parent.
        with self._lock:
            for position in range(count - 1, -1, -1):
                tag = tags[position]
                flag = flags[position] & 3
                children = tuple(map(shape_at, child_lists[position]))
                structure = (tag, flag, children)
                shape = interned.get(structure)
                if shape is None:
                    digest = _shape_digest(tag, flag, children)
                    shape = Shape(digest, tag, flag, children)
                    interned[structure] = shape
                    self.interned += 1
                else:
                    self.hits += 1
                shapes[position] = shape
        return tuple(map(shape_at, roots))

    # -- diagnostics ---------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident footprint of the interned shapes.

        Counts each shape object, its children tuple and its memoized
        preorder columns; tag strings are shared with the skeletons and
        counted once.  This is the *amortized* cost the whole corpus
        pays for its structure vocabulary.
        """
        getsizeof = sys.getsizeof
        total = 0
        seen: set[int] = set()
        with self._lock:
            entries = list(self._shapes.items())
            total += getsizeof(self._shapes)
        for structure, shape in entries:
            total += getsizeof(structure)
            total += 64  # object header + slot storage (no __dict__)
            total += getsizeof(shape.digest)
            total += getsizeof(shape.children)
            if id(shape.tag) not in seen:
                seen.add(id(shape.tag))
                total += getsizeof(shape.tag)
            columns = shape._columns
            if columns is not None:
                for column in columns:
                    total += getsizeof(column)
        return total

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "shapes": len(self._shapes),
                "interned": self.interned,
                "hits": self.hits,
            }


def forest_columns(roots: Iterable[Shape]) -> tuple[tuple[str, ...], bytes]:
    """Concatenated preorder ``(tags, flags)`` of a top-level shape sequence."""
    tags: list[str] = []
    flags = bytearray()
    for root in roots:
        shape_tags, shape_flags, _ = root.columns()
        tags.extend(shape_tags)
        flags += shape_flags
    return tuple(tags), bytes(flags)
