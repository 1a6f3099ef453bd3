"""Paths, process helpers and the result line shared by every workload."""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List

import analysis

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
#: Scratch space for traces and server logs, inside the checkout.
WORK = ROOT / ".perfbench"


class BenchError(Exception):
    """The run cannot produce a valid measurement (exit non-zero)."""


def require_program() -> None:
    """Make ``src/`` importable, or stop: without the program there is
    nothing to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set (``VmHWM``) of live processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (the server's forked workers)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


def closed_loop_metrics(setups: List[float], throughput: float,
                        burst_ms: List[List[float]], rss_mb: float) -> Dict[str, tuple]:
    """End-to-end metrics of a closed loop, from the burst (or sweep call)
    round trips of each launch.

    Each percentile is the lowest over launches (p99, or the highest
    percentile with ten samples beyond it): interference from other
    tenants only adds latency.
    """
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (throughput, "req/s"),
        "burst_p50_ms": (min(analysis.percentile(ms, 50.0) for ms in burst_ms), "ms"),
        "burst_p99_ms": (min(analysis.tail(ms)[1] for ms in burst_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    """Print the result line: ``metrics`` maps name to (value, unit)."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
