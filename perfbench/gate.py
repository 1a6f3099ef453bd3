"""The correctness gate, run after each timed window.

* Every cold answer (cache ``miss``) and every sweep point must equal,
  bit for bit, ``solve(..., engine="reference")`` on the same inputs.
* Every ``hit`` must equal the answer first served cold for that
  request.  A hit can only come from an entry stored by a cold solve of
  the very same request, so the reference solve of that request stands
  for the first cold answer (and is computed once per distinct request).
* Every ``warm`` answer must be a feasible allocation whose cost lies
  within the request's epsilon above ``repro.core.kkt.optimal_cost``: the
  iteration stops once marginal costs spread by less than epsilon, and by
  convexity such a point costs at most epsilon more than the optimum.

Distinct checks run in two child processes (this file run as a script,
jobs pickled in on stdin, results out on stdout); each returns the number
of answers that failed and a few messages.  The gate starts and waits for
those processes itself: a ``multiprocessing`` pool under the ``spawn``
start method also starts a resource-tracker process that is still running
when the benchmark exits.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from typing import Dict, List, Tuple

import numpy as np

from common import PERF, BenchError, program_env

#: Cost rounding allowed below the optimum (the optimum itself comes
#: from a bisection with tolerance 1e-12).
BELOW_OPTIMUM = 1e-9


def _reference(spec: Dict):
    from repro.core.algorithm import solve

    return solve(
        spec["problem"],
        alpha=spec["alpha"],
        epsilon=spec["epsilon"],
        max_iterations=spec["max_iterations"],
        initial_allocation=spec["x0"],
        engine="reference",
        keep_allocations="last",
    )


def spec_from_payload(payload: Dict) -> Dict:
    """The solver inputs a worker derives from a wire payload."""
    from repro.service.codec import parse_request

    request = parse_request(payload)
    return {
        "problem": request.problem,
        "alpha": request.alpha,
        "epsilon": request.epsilon,
        "max_iterations": request.max_iterations,
        "x0": request.initial_allocation,
    }


def _check_exact(job: Tuple[str, Dict, List[Tuple]]) -> Tuple[int, List[str]]:
    key, spec, answers = job
    if isinstance(spec["problem"], dict):  # a wire payload
        spec = spec_from_payload(spec)
    ref = _reference(spec)
    failed, notes = 0, []
    for allocation, cost, iterations, converged in answers:
        same = (
            np.array_equal(np.asarray(allocation, dtype=float), ref.allocation)
            and float(cost) == float(ref.cost)
            and (iterations is None or int(iterations) == int(ref.iterations))
            and bool(converged) == bool(ref.converged)
        )
        if not same:
            failed += 1
            notes.append(f"{key}: answer differs from the reference solve")
    return failed, notes


def _check_warm(job: Tuple[str, object, List[Tuple]]) -> Tuple[int, List[str]]:
    from repro.core.kkt import optimal_cost

    key, problem, answers = job
    best = optimal_cost(problem)
    failed, notes = 0, []
    for allocation, cost, epsilon in answers:
        x = np.asarray(allocation, dtype=float)
        gap = float(cost) - best
        ok = (
            x.shape == (problem.n,)
            and bool(np.all(x >= 0.0))
            and abs(float(x.sum()) - 1.0) <= 1e-9
            and abs(problem.cost(x) - float(cost)) <= 1e-9 * max(1.0, abs(float(cost)))
            and -BELOW_OPTIMUM * max(1.0, abs(best)) <= gap <= epsilon
        )
        if not ok:
            failed += 1
            notes.append(f"{key}: warm answer {cost!r} vs optimum {best!r} (epsilon {epsilon})")
    return failed, notes


class Gate:
    """Collects answers during a run; :meth:`run` checks them all."""

    def __init__(self) -> None:
        self._exact: Dict[str, Tuple[Dict, List[Tuple]]] = {}
        self._warm: Dict[str, Tuple[object, List[Tuple]]] = {}
        self.checked = 0

    def exact(self, key: str, spec: Dict, allocation, cost, iterations, converged) -> None:
        """``spec``'s reference solve must reproduce this answer
        (``iterations=None`` for a cache hit, which reports none).
        ``spec`` is solver inputs or the wire payload they come from."""
        entry = self._exact.setdefault(key, (spec, []))
        entry[1].append((np.asarray(allocation, dtype=float), cost, iterations, converged))

    def warm(self, key: str, problem, allocation, cost, epsilon) -> None:
        """This answer must be within ``epsilon`` of ``problem``'s optimum."""
        entry = self._warm.setdefault(key, (problem, []))
        entry[1].append((np.asarray(allocation, dtype=float), cost, epsilon))

    def run(self, processes: int = 2) -> Tuple[int, List[str]]:
        jobs = [("exact", (key, spec, answers)) for key, (spec, answers) in self._exact.items()]
        jobs += [("warm", (key, problem, answers)) for key, (problem, answers) in self._warm.items()]
        self.checked = sum(len(job[2]) for _, job in jobs)
        shares = [jobs[i::processes] for i in range(processes)]
        children: List[subprocess.Popen] = []
        try:
            for _ in shares:
                children.append(subprocess.Popen(
                    [sys.executable, str(PERF / "gate.py")],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=program_env(),
                ))
            for child, share in zip(children, shares):
                child.stdin.write(pickle.dumps(share))
                child.stdin.close()
            results = []
            for child in children:
                out = child.stdout.read()
                if child.wait() != 0 or not out:
                    raise BenchError(f"gate process exited with {child.returncode}")
                results.extend(pickle.loads(out))
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                child.wait()
                child.stdin.close()
                child.stdout.close()
        failed = sum(r[0] for r in results)
        notes = [note for r in results for note in r[1]]
        return failed, notes[:20]


if __name__ == "__main__":
    from common import require_program

    require_program()
    check = {"exact": _check_exact, "warm": _check_warm}
    share = pickle.load(sys.stdin.buffer)
    pickle.dump([check[kind](job) for kind, job in share], sys.stdout.buffer)
