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

A field left out takes its :data:`WIRE_DEFAULTS` value.  Two readers
apply them: :func:`parse_request` builds and validates the request, and
:func:`payload_key` computes the cache key the built request would have
straight from the payload's arrays (:func:`read_problem`), so a cache
can recognise a repeat before anything is built.  A named topology's
least-cost matrix can be kept between requests in a
:class:`LeastCostMatrices`, so neither reader runs the all-pairs search
twice for one ``(topology, nodes)``.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import IO, Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.initials import (
    paper_skewed_allocation,
    single_node_allocation,
    uniform_allocation,
)
from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError, ReproError
from repro.network import builders
from repro.network.shortest_paths import all_pairs_shortest_paths
from repro.service.fingerprint import RequestKey, key_of_arrays
from repro.service.types import SolveRequest, SolveResponse, _next_request_id
from repro.utils.validation import check_positive

__all__ = [
    "LeastCostMatrices",
    "ProblemArrays",
    "WIRE_DEFAULTS",
    "parse_request",
    "payload_key",
    "read_problem",
    "request_to_payload",
    "response_from_dict",
    "iter_request_payloads",
    "safe_parse",
    "unkeyed_fields",
]

#: The value a request field takes when the payload leaves it out — one
#: table for every reader of a payload.  ``topology``, ``nodes``, ``rate``
#: and ``mu`` apply to a named topology; a raw-matrix spec must carry its
#: own ``mu``.
WIRE_DEFAULTS = {
    "alpha": 0.3,
    "epsilon": 1e-3,
    "max_iterations": 10_000,
    "start": "uniform",
    "priority": 0,
    "k": 1.0,
    "topology": "ring",
    "nodes": 4,
    "rate": 1.0,
    "mu": 1.5,
}

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


def _field(mapping: Dict, name: str):
    """``mapping[name]``, or its :data:`WIRE_DEFAULTS` value."""
    return mapping.get(name, WIRE_DEFAULTS[name])


def _is_named(spec: Dict) -> bool:
    return "cost_matrix" not in spec and "access_rates" not in spec


#: Bytes of least-cost matrices one :class:`LeastCostMatrices` keeps.
_LEAST_COST_BYTES = 32 * 1024 * 1024


class LeastCostMatrices:
    """Least-cost matrices of named topologies, kept per ``(topology,
    nodes)`` so a repeat runs no all-pairs search.

    Least recently used matrices go first once the kept bytes pass
    32 MiB (the most recent one always stays: a 1446-node ``complete``
    matrix alone is 16.7 MB).  The matrices are read-only; every problem
    built on one shares it.
    """

    def __init__(self):
        self._kept: "OrderedDict[Tuple[str, int], Tuple[np.ndarray, str]]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._kept)

    def get(self, family: str, nodes: int) -> Optional[Tuple[np.ndarray, str]]:
        """``(matrix, topology name)`` if kept, else ``None`` (never builds)."""
        kept = self._kept.get((family, nodes))
        if kept is not None:
            self._kept.move_to_end((family, nodes))
        return kept

    def build(self, family: str, nodes: int) -> Tuple[np.ndarray, str]:
        """``(matrix, topology name)``, built and kept on first use."""
        kept = self.get(family, nodes)
        if kept is None:
            topology = _TOPOLOGIES[family](nodes)
            matrix = all_pairs_shortest_paths(topology)
            matrix.setflags(write=False)
            kept = self._kept[(family, nodes)] = (matrix, topology.name)
            self._bytes += matrix.nbytes
            while self._bytes > _LEAST_COST_BYTES and len(self._kept) > 1:
                _, (old, _name) = self._kept.popitem(last=False)
                self._bytes -= old.nbytes
        return kept


def _parse_problem(spec, least_costs: LeastCostMatrices) -> FileAllocationProblem:
    if not isinstance(spec, dict):
        raise ConfigurationError("request field 'problem' must be an object")
    if not _is_named(spec):
        try:
            return FileAllocationProblem(
                spec["cost_matrix"],
                spec["access_rates"],
                k=float(_field(spec, "k")),
                mu=spec.get("mu"),
                name=str(spec.get("name", "")),
            )
        except KeyError as missing:
            raise ConfigurationError(
                f"raw problem spec is missing field {missing}"
            ) from None
    family = _field(spec, "topology")
    if family not in _TOPOLOGIES:
        raise ConfigurationError(
            f"unknown topology {family!r} (expected one of {sorted(_TOPOLOGIES)})"
        )
    nodes = int(_field(spec, "nodes"))
    from repro.net.binary import MAX_PACKED_NODES  # repro.net imports this module

    if nodes > MAX_PACKED_NODES:
        raise ConfigurationError(
            f"topology nodes={nodes} exceeds {MAX_PACKED_NODES}, the largest network one "
            "request frame can carry"
        )
    rate = float(_field(spec, "rate"))
    matrix, name = least_costs.build(family, nodes)
    return FileAllocationProblem(
        matrix,
        np.full(nodes, rate / nodes),
        k=float(_field(spec, "k")),
        mu=float(_field(spec, "mu")),
        name=name,
    )


def parse_request(
    payload: Dict, least_costs: Optional[LeastCostMatrices] = None
) -> SolveRequest:
    """One wire-format dict into a validated :class:`SolveRequest`.

    A named topology's least-cost matrix comes from ``least_costs`` (and
    is kept there); without one it is searched for this request alone."""
    if not isinstance(payload, dict):
        raise ConfigurationError("each request must be a JSON object")
    if "problem" not in payload:
        raise ConfigurationError("request is missing the 'problem' field")
    problem = _parse_problem(
        payload["problem"], least_costs if least_costs is not None else LeastCostMatrices()
    )
    start = _field(payload, "start")
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
        alpha=float(_field(payload, "alpha")),
        epsilon=float(_field(payload, "epsilon")),
        max_iterations=int(_field(payload, "max_iterations")),
        initial_allocation=initial,
        request_id=str(payload.get("id", "")),
        timeout_s=None if timeout_s is None else float(timeout_s),
        priority=int(_field(payload, "priority")),
    )


def unkeyed_fields(payload: Dict) -> Tuple[str, Optional[float], int]:
    """``(id, timeout_s, priority)`` — the request fields
    :func:`payload_key` does not cover — as the parsed request would
    hold them: converted and checked as :func:`parse_request` and
    :class:`SolveRequest` check them, raising where they would, and an
    empty id replaced by the next automatic one (only once both checks
    pass)."""
    timeout_s = payload.get("timeout_s")
    if timeout_s is not None:
        timeout_s = check_positive(float(timeout_s), "timeout_s")
    priority = int(_field(payload, "priority"))
    return str(payload.get("id", "")) or _next_request_id(), timeout_s, priority


class ProblemArrays(NamedTuple):
    """A problem spec's float64 arrays as the built problem holds them."""

    cost: np.ndarray
    rates: np.ndarray
    mu: np.ndarray  #: broadcast to one rate per node
    k: float


def read_problem(
    spec, least_costs: Optional[LeastCostMatrices] = None
) -> Optional[ProblemArrays]:
    """The arrays :func:`parse_request` would build ``spec`` from, read
    without building the problem, or ``None`` when a field cannot be
    read or has the wrong shape.

    Values are not validated (that is the parse's job).  A named topology
    reads only when ``least_costs`` keeps its matrix."""
    if not isinstance(spec, dict):
        return None
    try:
        if not _is_named(spec):
            cost = np.asarray(spec["cost_matrix"], dtype=float)
            rates = np.asarray(spec["access_rates"], dtype=float)
            k = float(_field(spec, "k"))
            mu = spec.get("mu")
        else:
            kept = None if least_costs is None else least_costs.get(
                _field(spec, "topology"), int(_field(spec, "nodes"))
            )
            if kept is None:
                return None
            cost = kept[0]
            nodes = cost.shape[0]
            rates = np.full(nodes, float(_field(spec, "rate")) / nodes)
            k = float(_field(spec, "k"))
            mu = float(_field(spec, "mu"))
        if mu is None or rates.ndim != 1 or rates.shape[0] < 2:
            return None
        n = rates.shape[0]
        mu = np.asarray(mu, dtype=float)
        if mu.ndim > 1 or mu.size not in (1, n):
            return None
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if mu.size == 1:
        mu = np.full(n, mu.reshape(-1)[0])
    return ProblemArrays(cost, rates, mu, k)


def payload_key(
    payload, least_costs: Optional[LeastCostMatrices] = None
) -> Optional[RequestKey]:
    """The :class:`~repro.service.fingerprint.RequestKey` that
    :func:`~repro.service.fingerprint.request_key` gives
    ``parse_request(payload)``, computed from the payload's own arrays
    (the codec's defaults applied, a named start expanded from ``n``), or
    ``None`` when it cannot be read.

    It does not validate: a key equal to a cached request's means the
    payload describes that request's bytes, and those parsed before."""
    if not isinstance(payload, dict) or "problem" not in payload:
        return None
    arrays = read_problem(payload["problem"], least_costs)
    if arrays is None:
        return None
    try:
        start = _field(payload, "start")
        if isinstance(start, str):
            make = _NAMED_STARTS.get(start)
            if make is None:
                return None
            start = make(arrays.rates.shape[0])
        return key_of_arrays(
            *arrays,
            float(_field(payload, "alpha")),
            float(_field(payload, "epsilon")),
            int(_field(payload, "max_iterations")),
            np.asarray(start, dtype=float),
        )
    except (ReproError, TypeError, ValueError, OverflowError):
        return None


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


def safe_parse(payload: Dict, least_costs: Optional[LeastCostMatrices] = None):
    """``parse_request`` that returns ``(request, None)`` or ``(None, error_dict)``
    for any JSON value; one that is not an object gets ``id`` ``""``."""
    is_object = isinstance(payload, dict)
    if is_object and payload.get("status") == "error":  # pre-marked by iter_request_payloads
        return None, payload
    try:
        return parse_request(payload, least_costs), None
    except (ReproError, TypeError, ValueError, OverflowError) as exc:
        return None, {
            "id": str(payload.get("id", "")) if is_object else "",
            "status": "error",
            "detail": f"{type(exc).__name__}: {exc}",
        }
