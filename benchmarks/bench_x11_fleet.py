"""X11 (extension): fleet serving — peer-warmed first contact over HTTP.

Not a paper figure — this locks down the fleet PR the way bench_x7
locks down the local cold path.  A warm peer process serves its stored
v2 snapshot bytes over ``GET /snapshots/<key>``; a cold fleet member
with an *empty* local snapshot directory acquires the corpus skeleton
set through a :class:`~repro.core.snapshot_net.NetworkedSkeletonStore`
(fetch, O(1) header check, write-through, mmap restore with every
column decoded and checked) instead of rebuilding it from path probes
(see ``repro.bench.experiments.measure_fleet`` for the protocol).  Both
sides are timed to a servable skeleton: compressed, tree built.

``test_fleet_floors_hold`` is the self-enforcing acceptance criterion:
cold build time over peer-warmed first-contact time stays **≥ 0.67**.
Measured that way, fetching from a peer is *slower* than building
locally on this corpus: the fixed HTTP cost and the column decode
outweigh the path probes and the structural pass they replace.  The
floor therefore guards the fetch-and-decode path against regressions
relative to the build; it sits 4.7% below the median (0.703) of twelve
runs of the same protocol on the commit before it was introduced (runs
0.665–0.963).  The earlier "≥ 3x faster" floor timed only an O(1)
header check on the fleet side, against a build that also assembled
the tree: every caller decoded the result right after the load, so
that ratio measured no work a query was spared.

The correctness evidence is deterministic and asserted on every
attempt — the clock being kind is not enough:

* the fetch counters prove the bytes crossed the wire: ``fetched``
  equals targets x sweeps with zero ``fetch_failed`` / ``fell_back``;
* an engine warmed *through* the networked store restores every
  target (``"snapshot"``) with **zero** path-index probes;
* the peer-warmed engine's ranked outcomes exactly equal the peer's.

Byte identity of served pages across the seed matrix — and the
dead-peer fallback — is the fleet difftest's job
(``tests/difftest/test_differential_fleet.py``); this file owns the
first-contact latency claim.
"""

from __future__ import annotations

from repro.bench.experiments import measure_fleet

FLEET_FLOOR = 0.67


# -- pytest-benchmark variants (the usual statistics tables) ------------------


def _fleet_fixture():
    import tempfile
    from pathlib import Path

    from repro.bench.experiments import _feed_view, _repetitive_corpus
    from repro.core.engine import KeywordSearchEngine
    from repro.core.snapshot import SkeletonStore
    from repro.serving import BackgroundHTTPServing, ServerConfig
    from repro.storage.database import XMLDatabase

    pool = [f"fleet{i:02d}" for i in range(8)]
    docs = _repetitive_corpus(6, 768, pool)
    names = sorted(docs)

    def fresh_database():
        database = XMLDatabase()
        for name in names:
            database.load_document(name, docs[name])
        return database

    tmp = Path(tempfile.mkdtemp(prefix="bench-x11-"))
    peer_engine = KeywordSearchEngine(
        fresh_database(), snapshot_store=SkeletonStore(tmp / "peer")
    )
    views = [
        peer_engine.define_view(f"v{i}", _feed_view(name))
        for i, name in enumerate(names)
    ]
    for view in views:
        peer_engine.warm_view(view)
    serving = BackgroundHTTPServing(peer_engine, ServerConfig(workers=2))
    serving.start()
    member_db = fresh_database()
    member = KeywordSearchEngine(member_db)
    member_views = [
        member.define_view(f"v{i}", _feed_view(name))
        for i, name in enumerate(names)
    ]
    keys = [
        (
            member_db.get(name).fingerprint,
            member_views[i].qpts[name].content_hash,
        )
        for i, name in enumerate(names)
    ]
    return tmp, serving, member_db, member_views, keys, names


def test_cold_build_sweep(benchmark):
    from repro.core.pdt import build_skeleton, compress_skeleton
    from repro.core.shapes import ShapeTable

    _, serving, database, views, _, names = _fleet_fixture()
    table = ShapeTable()
    try:

        def sweep():
            for i, name in enumerate(names):
                columns = build_skeleton(
                    views[i].qpts[name], database.get(name).path_index
                )
                compress_skeleton(columns, table).tree

        sweep()
        benchmark(sweep)
    finally:
        serving.stop()


def test_peer_fetch_sweep(benchmark):
    from repro.core.pdt import compress_skeleton
    from repro.core.shapes import ShapeTable
    from repro.core.snapshot import SkeletonStore
    from repro.core.snapshot_net import (
        HTTPSnapshotPeer,
        NetworkedSkeletonStore,
    )

    tmp, serving, _, _, keys, _ = _fleet_fixture()
    table = ShapeTable()
    try:
        state = {"round": 0}

        def sweep():
            # A fresh empty local directory each round: every load
            # must miss locally and cross the wire.
            state["round"] += 1
            store = NetworkedSkeletonStore(
                SkeletonStore(tmp / f"member{state['round']}", mmap_mode=True),
                HTTPSnapshotPeer(serving.url, timeout=30.0),
            )
            for fingerprint, qpt_hash in keys:
                columns = store.load(fingerprint, qpt_hash)
                assert columns is not None
                compress_skeleton(columns, table).tree

        sweep()
        benchmark(sweep)
    finally:
        serving.stop()


# -- self-enforcing acceptance criteria ---------------------------------------


def test_fleet_floors_hold():
    """Acceptance: cold build / peer-warmed first contact ≥ 0.67 — with
    the evidence that the measured path really was the network path
    asserted on every attempt.

    Up to three measurement attempts: scheduler noise can only *hurt*
    the measured ratio, so the timing floor passes if any attempt
    clears it.  The counters, the zero-probe warm-up and the ranked
    equality are deterministic — they hold on every attempt, or the
    networked tier is broken, not noisy.
    """
    attempts = []
    for _ in range(3):
        numbers = measure_fleet()
        assert numbers["fetched"] == numbers["expected_fetches"] > 0, (
            f"every measured load must have crossed the wire: {numbers}"
        )
        assert numbers["fetch_failed"] == 0 and numbers["fell_back"] == 0, (
            f"the measured sweeps must not have fallen back: {numbers}"
        )
        assert numbers["snapshot_restored"] == 1.0, (
            "warm-up through the networked store did not restore every "
            f"target from the peer: {numbers}"
        )
        assert numbers["path_probes"] == 0.0, (
            "a peer-warmed member performed path-index probes: "
            f"{numbers}"
        )
        assert numbers["identical_results"] == 1.0, (
            "the peer-warmed engine ranked the corpus differently from "
            "the peer itself"
        )
        attempts.append(numbers)
        if numbers["speedup"] >= FLEET_FLOOR:
            return
    summary = ", ".join(
        f"{n['speedup']:.2f}x (cold {n['cold_build_ms']:.1f}ms / fleet "
        f"{n['fleet_fetch_ms']:.1f}ms)"
        for n in attempts
    )
    raise AssertionError(
        f"fleet floor ({FLEET_FLOOR}x) missed in every attempt: {summary}"
    )
