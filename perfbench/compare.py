"""Collect sets of runs, and compare two sets.

``collect`` runs the benchmark command once per seed of ``SEEDS`` and
workload (in one checkout, or alternating between two) and appends each
result line to ``DIR/<label>/<workload>.jsonl``; it then prints each
end-to-end metric's median and spread against its bound.

``compare`` reads two such directories and prints, per workload and
end-to-end metric, both medians and quartiles, the share of pairs each
side wins and a verdict (``analysis.verdict``), with each side's
``failed_frac`` beside them.  It exits 1 when any verdict is ``worse``
or any run failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import analysis

#: The seeds of one set of runs: ten per workload.
SEEDS = range(1000, 1010)


def _run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"seed": seed, "returncode": 0, "result": json.loads(lines[-1])}


def collect(out: Path, workloads: List[str], checkouts: List[Path], definitions: Dict) -> int:
    labels = ["base", "change"] if len(checkouts) == 2 else ["runs"]
    if len(checkouts) > 2:
        raise SystemExit("--collect takes one checkout, or two to alternate")
    seconds = definitions["run_seconds"]
    for workload in workloads:
        for i, seed in enumerate(SEEDS):
            # Alternate which side runs first, pair by pair.
            order = list(zip(labels, checkouts))
            if i % 2:
                order.reverse()
            for label, checkout in order:
                record = _run_once(checkout.resolve(), workload, seed, seconds)
                (out / label).mkdir(parents=True, exist_ok=True)
                with open(out / label / f"{workload}.jsonl", "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                status = "ok" if record["returncode"] == 0 else f"exit {record['returncode']}"
                print(f"{label} {workload} seed {seed}: {status}", flush=True)
    for label in labels:
        print(f"\n[{label}]")
        report_spread(out / label, definitions)
    return 0


def _load(directory: Path) -> Dict[str, List[Dict]]:
    runs = {}
    for path in sorted(directory.glob("*.jsonl")):
        with open(path) as fh:
            runs[path.stem] = [json.loads(line) for line in fh if line.strip()]
    return runs


def _values(records: List[Dict], name: str) -> List[float]:
    return [r["result"]["metrics"][name]["value"] for r in records if r["returncode"] == 0]


def _failed_frac(records: List[Dict]) -> float:
    attempted = sum(r["result"]["attempted"] for r in records if r["returncode"] == 0)
    failed = sum(r["result"]["failed"] for r in records if r["returncode"] == 0)
    broken = sum(1 for r in records if r["returncode"] != 0)
    return (failed / attempted if attempted else 1.0) if not broken else 1.0


def report_spread(directory: Path, definitions: Dict) -> None:
    """Median, quartile spread and the spread's share of the bound."""
    for workload, records in _load(directory).items():
        bad = [r["seed"] for r in records if r["returncode"] != 0]
        print(f"{workload}: {len(records)} runs, failed_frac {_failed_frac(records):g}"
              + (f", failing seeds {bad}" if bad else ""))
        for metric in definitions["end_to_end"]:
            values = _values(records, metric["name"])
            if len(values) < 2:
                continue
            s = analysis.spread(values)
            print(f"  {metric['name']:<16} median {statistics.median(values):12.4f} {metric['unit']}"
                  f"  spread {s:6.3f}  bound {metric['bound']:.2f}  ({s / metric['bound']:.2f} of bound)")


def compare(base_dir: Path, change_dir: Path, definitions: Dict) -> int:
    base, change = _load(base_dir), _load(change_dir)
    status = 0
    for workload in sorted(set(base) & set(change)):
        bf, cf = _failed_frac(base[workload]), _failed_frac(change[workload])
        print(f"{workload}: failed_frac base {bf:g}, change {cf:g}")
        if cf > 0:
            status = 1
        for metric in definitions["end_to_end"]:
            b, c = _values(base[workload], metric["name"]), _values(change[workload], metric["name"])
            if len(b) < 2 or len(c) < 2:
                print(f"  {metric['name']:<16} too few runs")
                status = 1
                continue
            v = analysis.verdict(b, c, metric["better"], metric["bound"])
            print(
                f"  {metric['name']:<16} base {v['base_median']:.4g} "
                f"[{v['base_quartiles'][0]:.4g}, {v['base_quartiles'][1]:.4g}]  "
                f"change {v['change_median']:.4g} "
                f"[{v['change_quartiles'][0]:.4g}, {v['change_quartiles'][1]:.4g}] {metric['unit']}  "
                f"wins {v['change_wins']:.0%}/{v['base_wins']:.0%}  "
                f"bound {metric['bound']:.0%}  -> {v['verdict']}"
            )
            if v["verdict"] == "worse":
                status = 1
    return status
