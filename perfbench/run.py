"""One command for the solve path's benchmark.

    python3 perfbench/run.py --workload burst-hot --seed 1 --seconds 30 --trace 0

runs one workload against the code in ``src/`` and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``: every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  A wrong answer, or a run that
cannot be measured honestly, exits non-zero without a result.

Comparison mode (see ``perfbench/README.md``):

    python3 perfbench/run.py --collect DIR [--workload W ...] [--checkout PATH ...]
    python3 perfbench/run.py --compare BASE_DIR CHANGE_DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import ROOT, BenchError, emit, require_program

WORKLOADS = ("burst-hot", "sweep-grid")


def _definitions() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    require_program()
    import layers

    if trace:
        result = layers.traced(workload, seed, seconds)
    else:
        result = layers.untraced(workload, seed, seconds)
    failed, notes = result["gate"].run()
    for note in notes:
        print(f"gate: {note}", file=sys.stderr)
    failed += result["failed"]
    if failed:
        print(f"{workload}: {failed} of {result['attempted']} answers failed", file=sys.stderr)
        return 1
    want = [m["name"] for m in _definitions()["per_layer" if trace else "end_to_end"]]
    missing = [name for name in want if name not in result["metrics"]]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    emit(True, result["attempted"], failed, {name: result["metrics"][name] for name in want})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--collect", type=Path, metavar="DIR")
    parser.add_argument("--checkout", type=Path, action="append")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            import compare

            return compare.compare(args.compare[0], args.compare[1], _definitions())
        if args.collect:
            import compare

            return compare.collect(
                args.collect, args.workload or list(WORKLOADS), args.checkout or [ROOT],
                _definitions(),
            )
        if not args.workload or len(args.workload) != 1:
            parser.error("give exactly one --workload")
        seconds = args.seconds if args.seconds is not None else _definitions()["run_seconds"]
        return _measure(args.workload[0], args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
