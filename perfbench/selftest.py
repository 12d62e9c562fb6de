"""Sensitivity self-test: an injected scoring slowdown must be flagged
where scoring matters and nowhere else.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seeds 10] [--seconds N]

For each seed it runs edit-mix untraced, then again with every
``apply_scores`` call (as ``repro.core.engine`` looks it up) slowed by a
busy wait of 15% of edit-mix's measured ``search_p50_ms``.  It then does
the same on view-churn, whose latency is evaluator- and restore-bound.
Plain and injected runs alternate, and so does which of a pair runs
first, so drift in the host's speed hits both sides alike.  Runs last
``run_seconds`` from ``BENCHMARK.json`` unless ``--seconds`` says
otherwise.  ``search_p50_ms`` is flagged as worse when the
injected run is slower in at least nine pairs in ten and the medians
differ by more than the plain runs' own spread (the distance between
their quartiles) — the rule the benchmark's users apply to a claimed
change.  The test passes when edit-mix is flagged and view-churn is
not; exit status 0 on pass, 1 on fail.
Nothing under ``src/`` is edited: the delay is installed at run time
through ``run.py --inject-scoring-delay-us``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRIC = "search_p50_ms"
INJECTED_SHARE = 0.15


def run(workload: str, seed: int, seconds: float, delay_us: float = 0.0) -> float:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        "--inject-scoring-delay-us", str(delay_us),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong or failed answers")
    return result["metrics"][METRIC]["value"]


def compare(workload: str, seeds, seconds: float, delay_us: float):
    """``(plain median, injected median, share of pairs injected lost,
    plain quartile spread, flagged)`` over interleaved pairs."""
    plain, injected = [], []
    for number, seed in enumerate(seeds):
        if number % 2:
            injected.append(run(workload, seed, seconds, delay_us))
            plain.append(run(workload, seed, seconds))
        else:
            plain.append(run(workload, seed, seconds))
            injected.append(run(workload, seed, seconds, delay_us))
    base, slow = statistics.median(plain), statistics.median(injected)
    lower, _, upper = statistics.quantiles(plain, n=4)
    worse = sum(1 for a, b in zip(plain, injected) if b > a) / len(seeds)
    flagged = worse >= 0.9 and slow - base > upper - lower
    return base, slow, worse, upper - lower, flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    args = parser.parse_args(argv)
    seeds = list(range(101, 101 + args.seeds))

    calibration = statistics.median(
        run("edit-mix", seed, args.seconds) for seed in seeds[:3]
    )
    delay_us = INJECTED_SHARE * calibration * 1e3
    print(
        f"edit-mix {METRIC} {calibration:.4f} ms; injecting {delay_us:.1f} us "
        "per apply_scores call"
    )
    verdicts = {}
    for workload in ("edit-mix", "view-churn"):
        base, slow, worse, spread, flagged = compare(
            workload, seeds, args.seconds, delay_us
        )
        verdicts[workload] = flagged
        print(
            f"{workload:10s} {METRIC} plain {base:.4f} ms, injected {slow:.4f} ms "
            f"({slow / base - 1:+.1%}); injected slower in {worse:.0%} of pairs; "
            f"plain spread {spread:.4f} ms: {'FLAGGED' if flagged else 'not flagged'}"
        )
    passed = verdicts["edit-mix"] and not verdicts["view-churn"]
    print("selftest", "passed" if passed else "FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
