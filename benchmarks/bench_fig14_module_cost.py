"""F14 (Figure 14): per-module cost of the Efficient pipeline.

Benchmarks each phase in isolation: PDT generation alone (plus its
skeleton/annotation halves, so the figure stays attributable now that
the skeleton is cached across queries), evaluation over pre-built PDTs,
and post-processing (scoring + top-k materialization).
"""

from repro.core.pdt import (
    annotate_skeleton,
    build_skeleton,
    compress_skeleton,
    generate_pdt,
)
from repro.core.prepare import prepare_inv_lists, prepare_lists
from repro.core.rewrite import make_pdt_resolver
from repro.core.scoring import score_results, select_top_k
from repro.xmlmodel.node import XMLNode
from repro.xquery.evaluator import EvalContext, Evaluator

KEYWORDS = ("thomas", "control")


def _build_pdts(efficient):
    view = efficient.get_view("bench")
    pdts = {}
    for doc_name, qpt in view.qpts.items():
        indexed = efficient.database.get(doc_name)
        lists = prepare_lists(
            qpt, indexed.path_index, indexed.inverted_index, KEYWORDS
        )
        pdts[doc_name] = generate_pdt(
            qpt, indexed.path_index, indexed.inverted_index, KEYWORDS, lists=lists
        )
    return pdts


def test_pdt_generation(benchmark, efficient):
    benchmark(_build_pdts, efficient)


def test_pdt_skeleton_pass(benchmark, efficient):
    # The keyword-independent half: path probes + the structural merge,
    # compressed into a skeleton.  This is the work the skeleton cache
    # tier amortizes across queries.
    view = efficient.get_view("bench")

    def build_all():
        return {
            doc_name: compress_skeleton(
                build_skeleton(
                    qpt, efficient.database.get(doc_name).path_index
                ),
                efficient.shape_table,
            )
            for doc_name, qpt in view.qpts.items()
        }

    benchmark(build_all)


def test_pdt_annotation_pass(benchmark, efficient):
    # The per-query half: inverted-list probes + tf annotation over a
    # pre-built skeleton — all that remains on a skeleton-tier hit.
    view = efficient.get_view("bench")
    skeletons = {
        doc_name: compress_skeleton(
            build_skeleton(qpt, efficient.database.get(doc_name).path_index),
            efficient.shape_table,
        )
        for doc_name, qpt in view.qpts.items()
    }
    # Held, as the engine's cached results hold them, so no round
    # rebuilds a shared tree.
    trees = [skeleton.tree for skeleton in skeletons.values()]
    assert trees

    def annotate_all():
        return {
            doc_name: annotate_skeleton(
                skeleton,
                prepare_inv_lists(
                    efficient.database.get(doc_name).inverted_index, KEYWORDS
                ),
                KEYWORDS,
            )
            for doc_name, skeleton in skeletons.items()
        }

    benchmark(annotate_all)


def test_evaluator_over_pdts(benchmark, efficient):
    view = efficient.get_view("bench")
    pdts = _build_pdts(efficient)
    evaluator = Evaluator(EvalContext(resolver=make_pdt_resolver(pdts)))
    benchmark(lambda: evaluator.evaluate(view.expr))


def test_post_processing(benchmark, efficient):
    view = efficient.get_view("bench")
    pdts = _build_pdts(efficient)
    evaluator = Evaluator(EvalContext(resolver=make_pdt_resolver(pdts)))
    results = [
        item
        for item in evaluator.evaluate(view.expr)
        if isinstance(item, XMLNode)
    ]

    def post():
        # tf_source resolves the shared skeleton trees' content slots.
        outcome = score_results(results, KEYWORDS, tf_source=pdts)
        return select_top_k(outcome, 10)

    benchmark(post)
