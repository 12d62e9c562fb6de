"""perfbench: the repository's outside-in serving benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload view-churn --seed 1 --seconds 25 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``view-churn``     HTTP, 198 views over an mmap snapshot store (> cache)
* ``sharded-corpus`` HTTP, a 4-shard ``CorpusCoordinator`` over 96 documents
* ``edit-mix``       in process, reads plus ~10% subtree edits

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` a traced run (half untraced, half traced) carries the
per-layer metrics.  Every answer is checked against a cache-free
reference engine; a wrong answer makes ``correct`` false.  Gated times
are scaled to a reference host speed (``hostspeed.py``); the line
before the result gives them unscaled, and the one before that records
``nproc``, the Python version, the load average and the share of CPU
time stolen by the hypervisor.  Exit
status 3 (no result) marks an invalid run: the open-loop generator fell
behind its schedule.  A run also fails, with no result, when its metrics
are not exactly those ``BENCHMARK.json`` declares, when a tracer target
no longer resolves, or when the traced half recorded no span for a layer
the workload must reach (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


class MetricMismatch(RuntimeError):
    """A workload computed other metrics than ``BENCHMARK.json`` names."""


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a run
    (``per_layer`` when traced, ``end_to_end`` otherwise)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if trace else "end_to_end"]
    }


def reported(values: dict, declared: dict) -> dict:
    """The result's ``metrics`` object: exactly the declared names."""
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise MetricMismatch(f"missing {missing}, not declared {extra}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in declared.items()
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="perfbench serving benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-scoring-delay-us", type=float, default=0.0,
        help="busy-wait this long in every apply_scores call (selftest.py)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    from httpwork import InvalidRun, run_http
    from editmix import run_edit_mix
    from layers import check_table, not_applicable
    from measure import cpu_ticks, environment

    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    if args.trace:
        check_table(declared)
    workdir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    print(f"perfbench env: {environment()}", flush=True)
    ticks = cpu_ticks()
    try:
        if args.workload == "edit-mix":
            result = run_edit_mix(
                args.seed, args.seconds, bool(args.trace), args.inject_scoring_delay_us
            )
        else:
            result = run_http(
                args.workload, args.seed, args.seconds, bool(args.trace),
                workdir, args.inject_scoring_delay_us,
            )
    except InvalidRun as invalid:
        print(f"perfbench: invalid run: {invalid}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"perfbench env: {environment(ticks)}", flush=True)
    raw = " ".join(f"{name}={value:.4f}" for name, value in result["raw"].items())
    print(f"perfbench unscaled: {raw}", flush=True)
    if args.trace:
        values = {**not_applicable(args.workload), **result["per_layer"]}
    else:
        values = result["end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported(values, declared),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
