"""The perfbench server process: one workload's deployment over HTTP.

Run by ``run.py``, never by hand::

    python3 perfbench/serve.py --workload view-churn --workdir DIR

Builds the workload's program (corpus, ingest, views),
starts ``BackgroundHTTPServing`` with ``workers=2`` (the startup
warm-up runs inside ``start()``), and prints one JSON line with the
bound port.  It then answers line commands on stdin, one JSON line each
on stdout:

``reset``  zero the storage probe counters and the phase sums
``stats``  phase sums, storage counters, cache tiers, merge counters
``trace``  install the span tracer (for the rest of the process);
           replies ``{"error": ...}`` when a layer target does not resolve
``dump P`` write the spans to file ``P``
``quit``   stop serving and exit (so does end of input)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.serving import BackgroundHTTPServing, ServerConfig  # noqa: E402

from probe import Probe  # noqa: E402
from program import build_program, inject_scoring_delay  # noqa: E402
from tracing import Tracer, UnresolvedTarget  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--scoring-delay-us", type=float, default=0.0)
    args = parser.parse_args(argv)

    if args.scoring_delay_us:
        inject_scoring_delay(args.scoring_delay_us)
    program = build_program(args.workload, snapshot_dir=args.workdir / "snapshots")
    probe = Probe(program)
    tracer = None
    serving = BackgroundHTTPServing(
        program.engine, ServerConfig(workers=2, warm_views=program.warm_views)
    )
    serving.start()
    try:
        _reply({"port": serving.port})
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "reset":
                probe.reset()
                _reply({"ok": True})
            elif command == "stats":
                _reply(probe.stats())
            elif command == "trace":
                tracer = Tracer()
                try:
                    tracer.install()
                except UnresolvedTarget as error:
                    _reply({"error": str(error)})
                else:
                    _reply({"ok": True})
            elif command == "dump":
                _reply({"spans": tracer.dump(argument)})
            elif command == "quit":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        serving.stop()
        program.close()
    return 0


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
