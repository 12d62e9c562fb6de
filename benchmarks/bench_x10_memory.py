"""X10 (extension): memory at scale — the DAG-compressed skeleton tier.

Not a paper figure — this locks down the memory claim the way bench_x9
locks down the write path.  One repetitive corpus (structurally
identical feed documents, the shape hash-consing exists for — see
``repro.bench.experiments.measure_memory``): the skeleton tier of a
warm engine, its shared :class:`~repro.core.shapes.ShapeTable`
included, must hold the corpus in a bounded number of bytes.

``test_memory_ceiling_holds`` is the self-enforcing acceptance
criterion: skeleton tier plus shape table **≤ 267.48 KiB**.  That is a
third of the 802.441 KiB the same tier took when it held uncompressed
skeletons, so it is exactly as strict as the earlier "≥ 3x smaller than
the uncompressed tier" floor (the compressed tier measured 177.297 KiB
then).  Byte accounting is deterministic — one measurement suffices.

The correctness evidence is asserted alongside: ranked outcomes equal a
cache-free engine's, every snapshot loads to the same columns in both
store modes and re-encodes to its file's bytes, and the shape table
actually shared (hits, few distinct shapes).  Bit identity across the
whole seed matrix is the ``compressed`` difftest configuration's job;
this file owns the resource claim.
"""

from __future__ import annotations

from repro.bench.experiments import measure_memory

MEMORY_CEILING_KIB = 267.48


# -- pytest-benchmark variant (the usual statistics table) --------------------


def test_skeleton_warm_sweep(benchmark):
    from repro.bench.experiments import _feed_view, _repetitive_corpus
    from repro.core.engine import KeywordSearchEngine
    from repro.storage.database import XMLDatabase

    pool = [f"mem{i:02d}" for i in range(8)]
    docs = _repetitive_corpus(12, 48, pool)
    database = XMLDatabase()
    for name in sorted(docs):
        database.load_document(name, docs[name])
    engine = KeywordSearchEngine(database)
    views = [
        engine.define_view(f"v{i}", _feed_view(name))
        for i, name in enumerate(sorted(docs))
    ]
    for view in views:
        engine.warm_view(view)
    state = {"round": 0}

    def sweep():
        # A fresh keyword every round, so the PDT tier never serves and
        # the annotation merge-join really runs over each skeleton.
        keywords = [pool[state["round"] % len(pool)]]
        state["round"] += 1
        for view in views:
            engine.search(view, keywords, top_k=5)

    sweep()
    benchmark(sweep)


# -- self-enforcing acceptance criteria ---------------------------------------


def test_memory_ceiling_holds():
    """Acceptance: skeleton tier + shape table ≤ 267.48 KiB on the
    repetitive corpus, with the evidence that the compressed tier
    serves the right answers and restores bit-identically."""
    numbers = measure_memory()
    assert numbers["identical_results"] == 1.0, (
        "the warm engine ranked the corpus differently from a cache-free "
        "engine"
    )
    assert numbers["snapshot_bit_identical"] == 1.0, (
        "read and mmap-mode restores disagree, or do not re-encode to the "
        "stored bytes"
    )
    assert numbers["shape_hits"] > 0, (
        "the shape table never shared a subtree — interning is off"
    )
    assert numbers["shapes"] < numbers["skeletons"] * 4, (
        f"{numbers['shapes']:.0f} distinct shapes for "
        f"{numbers['skeletons']:.0f} isomorphic skeletons — the corpus did "
        "not actually share structure"
    )
    assert numbers["skeleton_kib"] <= MEMORY_CEILING_KIB, (
        f"skeleton tier + shape table take {numbers['skeleton_kib']:.3f} KiB "
        f"— the ceiling is {MEMORY_CEILING_KIB} KiB and byte accounting is "
        "deterministic"
    )
