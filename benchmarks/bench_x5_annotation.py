"""X5 (extension): merge-join annotation vs per-node binary searches.

Not a paper figure — this isolates the per-query half of PDT generation
(the skeleton-warm hot path) and compares the two ways of computing each
content node's subtree tf from a posting list:

* **per-node bisect** (the pre-packed-key implementation): for every
  content node and keyword, ``PostingList.subtree_tf`` runs two binary
  searches over the list — O(skeleton · keywords · log postings);
* **merge-join sweep** (current): one ``cumulative_below`` pass per
  keyword over the skeleton's precomputed, sorted subtree bounds —
  O(skeleton + postings) per keyword, all flat-array reads.

``test_merge_join_beats_per_node_bisect`` is the self-enforcing
acceptance check: it times both with ``time.perf_counter`` medians and
asserts the sweep wins at scale 1.  The pytest-benchmark variants give
the usual statistics table.
"""

from __future__ import annotations

import time

from conftest import make_engine_and_view
from repro.core.pdt import annotate_skeleton, build_skeleton, compress_skeleton
from repro.core.prepare import prepare_inv_lists
from repro.core.shapes import ShapeTable
from repro.workloads.params import ExperimentParams

PARAMS = ExperimentParams(data_scale=1)
KEYWORDS = ("thomas", "control", "search")


def _skeletons_and_lists():
    """Skeletons, inverted lists and, per document, the content nodes'
    Dewey ids in slot order (the per-node bisect's input)."""
    engine, view = make_engine_and_view(PARAMS)
    table = ShapeTable()
    skeletons = {}
    inv_lists = {}
    content_ids = {}
    for doc_name, qpt in view.qpts.items():
        indexed = engine.database.get(doc_name)
        skeleton = compress_skeleton(
            build_skeleton(qpt, indexed.path_index), table
        )
        skeletons[doc_name] = skeleton
        inv_lists[doc_name] = prepare_inv_lists(
            indexed.inverted_index, KEYWORDS
        )
        content = [
            node.anno
            for node in skeleton.tree.iter()
            if node.anno is not None and node.anno.slot is not None
        ]
        content_ids[doc_name] = [
            anno.dewey for anno in sorted(content, key=lambda a: a.slot)
        ]
    return skeletons, inv_lists, content_ids


def _per_node_bisect(content_ids, lists):
    """The PR 2 annotation inner loop: subtree_tf per (node, keyword)."""
    arrays = {}
    for keyword in KEYWORDS:
        posting_list = lists[keyword]
        arrays[keyword] = [
            posting_list.subtree_tf(dewey) for dewey in content_ids
        ]
    return arrays


def _merge_join(skeleton, lists):
    """The current annotation inner loop: one sweep per keyword."""
    arrays = {}
    for keyword in KEYWORDS:
        counts = lists[keyword].cumulative_below(skeleton.bounds)
        arrays[keyword] = [
            counts[high] - counts[low] for low, high in skeleton.slot_bounds
        ]
    return arrays


def test_annotation_per_node_bisect(benchmark):
    _, inv_lists, content_ids = _skeletons_and_lists()
    benchmark(
        lambda: {
            doc: _per_node_bisect(ids, inv_lists[doc])
            for doc, ids in content_ids.items()
        }
    )


def test_annotation_merge_join(benchmark):
    skeletons, inv_lists, _ = _skeletons_and_lists()
    benchmark(
        lambda: {
            doc: _merge_join(skeleton, inv_lists[doc])
            for doc, skeleton in skeletons.items()
        }
    )


def test_annotate_skeleton_end_to_end(benchmark):
    # The full per-query half as the engine runs it (sweep + result
    # assembly over the shared tree).  The trees are held, as the
    # engine's cached results hold them, so no round rebuilds one.
    skeletons, inv_lists, _ = _skeletons_and_lists()
    trees = [skeleton.tree for skeleton in skeletons.values()]
    assert trees
    benchmark(
        lambda: {
            doc: annotate_skeleton(skeleton, inv_lists[doc], KEYWORDS)
            for doc, skeleton in skeletons.items()
        }
    )


def _median_seconds(fn, rounds=30):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def test_merge_join_beats_per_node_bisect():
    """Acceptance: the sweep outruns the bisect baseline at scale 1 —
    and computes identical tfs."""
    skeletons, inv_lists, content_ids = _skeletons_and_lists()
    for doc, skeleton in skeletons.items():
        assert _merge_join(skeleton, inv_lists[doc]) == _per_node_bisect(
            content_ids[doc], inv_lists[doc]
        )

    def bisect_pass():
        for doc, ids in content_ids.items():
            _per_node_bisect(ids, inv_lists[doc])

    def sweep_pass():
        for doc, skeleton in skeletons.items():
            _merge_join(skeleton, inv_lists[doc])

    bisect_pass(), sweep_pass()  # warm up
    bisect_median = _median_seconds(bisect_pass)
    sweep_median = _median_seconds(sweep_pass)
    assert sweep_median < bisect_median, (
        f"merge-join ({sweep_median * 1e6:.1f}us) did not beat per-node "
        f"bisect ({bisect_median * 1e6:.1f}us)"
    )
