"""The line-delimited JSON wire format of ``repro-fap serve``.

One request per line, one response per line.  A request names either a
standard topology::

    {"id": "r1",
     "problem": {"topology": "ring", "nodes": 4, "mu": 1.5, "rate": 1.0, "k": 1.0},
     "alpha": 0.3, "epsilon": 1e-3, "max_iterations": 10000,
     "start": "uniform", "timeout_s": 5.0, "priority": 0}

or carries the raw matrices::

    {"problem": {"cost_matrix": [[0, 1], [1, 0]],
                 "access_rates": [0.5, 0.5], "mu": 1.5, "k": 1.0}}

``start`` is a named initial allocation (``uniform`` / ``skewed`` /
``single``) or an explicit vector.  A named topology may have no more
``nodes`` than an explicit request can carry in one wire frame (1446).
Responses are :meth:`~repro.service.types.SolveResponse.as_dict`
objects.  Malformed payloads raise
:class:`~repro.exceptions.ConfigurationError` with a message naming the
offending field — the CLI turns those into ``{"status": "error"}``
lines instead of dying mid-stream.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterator

import numpy as np

from repro.core.initials import (
    paper_skewed_allocation,
    single_node_allocation,
    uniform_allocation,
)
from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError, ReproError
from repro.network import builders
from repro.service.types import SolveRequest, SolveResponse

__all__ = [
    "parse_request",
    "request_to_payload",
    "response_from_dict",
    "iter_request_payloads",
    "safe_parse",
]

_TOPOLOGIES = {
    "ring": builders.ring_graph,
    "line": builders.line_graph,
    "star": builders.star_graph,
    "complete": builders.complete_graph,
}

_NAMED_STARTS = {
    "uniform": uniform_allocation,
    "skewed": paper_skewed_allocation,
    "single": single_node_allocation,
}


def _parse_problem(spec) -> FileAllocationProblem:
    if not isinstance(spec, dict):
        raise ConfigurationError("request field 'problem' must be an object")
    if "cost_matrix" in spec or "access_rates" in spec:
        try:
            return FileAllocationProblem(
                spec["cost_matrix"],
                spec["access_rates"],
                k=float(spec.get("k", 1.0)),
                mu=spec.get("mu"),
                name=str(spec.get("name", "")),
            )
        except KeyError as missing:
            raise ConfigurationError(
                f"raw problem spec is missing field {missing}"
            ) from None
    family = spec.get("topology", "ring")
    if family not in _TOPOLOGIES:
        raise ConfigurationError(
            f"unknown topology {family!r} (expected one of {sorted(_TOPOLOGIES)})"
        )
    nodes = int(spec.get("nodes", 4))
    from repro.net.binary import MAX_PACKED_NODES  # repro.net imports this module

    if nodes > MAX_PACKED_NODES:
        raise ConfigurationError(
            f"topology nodes={nodes} exceeds {MAX_PACKED_NODES}, the largest network one "
            "request frame can carry"
        )
    rate = float(spec.get("rate", 1.0))
    return FileAllocationProblem.from_topology(
        _TOPOLOGIES[family](nodes),
        np.full(nodes, rate / nodes),
        k=float(spec.get("k", 1.0)),
        mu=float(spec.get("mu", 1.5)),
    )


def parse_request(payload: Dict) -> SolveRequest:
    """One wire-format dict into a validated :class:`SolveRequest`."""
    if not isinstance(payload, dict):
        raise ConfigurationError("each request must be a JSON object")
    if "problem" not in payload:
        raise ConfigurationError("request is missing the 'problem' field")
    problem = _parse_problem(payload["problem"])
    start = payload.get("start", "uniform")
    if isinstance(start, str):
        if start not in _NAMED_STARTS:
            raise ConfigurationError(
                f"unknown start {start!r} (expected one of "
                f"{sorted(_NAMED_STARTS)} or an explicit vector)"
            )
        initial = _NAMED_STARTS[start](problem.n)
    else:
        initial = np.asarray(start, dtype=float)
    timeout_s = payload.get("timeout_s")
    return SolveRequest(
        problem=problem,
        alpha=float(payload.get("alpha", 0.3)),
        epsilon=float(payload.get("epsilon", 1e-3)),
        max_iterations=int(payload.get("max_iterations", 10_000)),
        initial_allocation=initial,
        request_id=str(payload.get("id", "")),
        timeout_s=None if timeout_s is None else float(timeout_s),
        priority=int(payload.get("priority", 0)),
    )


def request_to_payload(request: SolveRequest) -> Dict:
    """The inverse of :func:`parse_request`: a wire-format dict whose
    re-parse reproduces ``request`` field-for-field.

    Uses the raw-matrix problem spec (floats survive JSON bit-for-bit:
    ``repr`` round-trips every float64), so a request solved remotely is
    the identical solve it would have been locally — the parity contract
    of :class:`repro.net.NetClient`.  Only pure M/M/1 problems can cross
    the wire (exotic delay models have no dict form); anything else
    raises :class:`~repro.exceptions.ConfigurationError`.
    """
    problem = request.problem
    if not problem.has_vectorized_evaluate:
        raise ConfigurationError(
            f"problem {problem.name!r} uses non-M/M/1 delay models; "
            "it has no wire representation"
        )
    payload: Dict = {
        "id": request.request_id,
        "problem": {
            "cost_matrix": [[float(v) for v in row] for row in problem.cost_matrix],
            "access_rates": [float(v) for v in problem.access_rates],
            "mu": [float(v) for v in problem.mm1_service_rates()],
            "k": float(problem.k),
            "name": problem.name,
        },
        "alpha": float(request.alpha),
        "epsilon": float(request.epsilon),
        "max_iterations": int(request.max_iterations),
        "start": [float(v) for v in request.initial_allocation],
    }
    if request.timeout_s is not None:
        payload["timeout_s"] = float(request.timeout_s)
    if request.priority != 0:
        payload["priority"] = int(request.priority)
    return payload


def response_from_dict(payload: Dict) -> SolveResponse:
    """One wire-format response dict back into a :class:`SolveResponse`.

    Accepts the ``"ok"`` and ``"rejected"`` shapes ``as_dict`` emits
    (JSON round-trips floats exactly, so the rebuilt allocation is the
    served allocation).  In-band ``"error"`` markers have no typed form
    and raise.
    """
    status = payload.get("status")
    if status == "ok":
        return SolveResponse(
            request_id=str(payload.get("id", "")),
            status="ok",
            allocation=np.asarray(payload["allocation"], dtype=float),
            cost=float(payload["cost"]),
            iterations=int(payload["iterations"]),
            converged=bool(payload["converged"]),
            cache=str(payload.get("cache", "miss")),
            batch_size=int(payload.get("batch_size", 0)),
            latency_s=float(payload.get("latency_s", 0.0)),
        )
    if status == "rejected":
        return SolveResponse(
            request_id=str(payload.get("id", "")),
            status="rejected",
            reason=payload.get("reason"),
            detail=str(payload.get("detail", "")),
        )
    raise ConfigurationError(
        f"response status {status!r} has no typed form "
        "(expected 'ok' or 'rejected')"
    )


def iter_request_payloads(stream: IO[str]) -> Iterator[Dict]:
    """Yield one payload dict per non-blank line of ``stream``.

    A line that is not valid JSON yields an ``{"status": "error"}``
    marker dict (with the parse failure in ``detail``) instead of
    raising, so one bad line cannot kill a long-running serve loop.
    """
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            yield {"status": "error", "detail": f"line {lineno}: invalid JSON ({exc})"}
            continue
        yield payload


def safe_parse(payload: Dict):
    """``parse_request`` that returns ``(request, None)`` or ``(None, error_dict)``
    for any JSON value; one that is not an object gets ``id`` ``""``."""
    is_object = isinstance(payload, dict)
    if is_object and payload.get("status") == "error":  # pre-marked by iter_request_payloads
        return None, payload
    try:
        return parse_request(payload), None
    except (ReproError, TypeError, ValueError, OverflowError) as exc:
        return None, {
            "id": str(payload.get("id", "")) if is_object else "",
            "status": "error",
            "detail": f"{type(exc).__name__}: {exc}",
        }
