"""Content-addressed identity for problems and requests.

The solution cache needs two notions of "the same problem":

* **exact** — every byte that can influence the solver's answer.
  :func:`request_fingerprint` hashes the problem (cost matrix, access
  rates, per-node M/M/1 service rates, ``k``) *and* the solver options
  (alpha, epsilon, iteration budget, starting allocation) into one stable
  SHA-256 digest.  Two requests with equal fingerprints are guaranteed
  the bit-for-bit identical :class:`~repro.core.algorithm.AllocationResult`,
  which is what lets the cache answer an exact hit without running the
  solver at all.
* **near** — same *structure* (node count and cost matrix), different
  *parameters* (rates, service rates, ``k``).  :func:`structural_key`
  buckets cache entries by structure and :func:`parameter_distance`
  ranks candidates within a bucket so a near-miss can be warm-started
  from the closest converged allocation (PR 3's continuation machinery,
  now fed by the cache instead of a sweep's neighbor).

:func:`request_key` bundles the three identities a cache probe needs
(fingerprint, structural key, parameter vector) as a :class:`RequestKey`.
:func:`key_of_arrays` computes it from the float64 arrays alone, which is
what lets :func:`~repro.service.codec.payload_key` key a wire payload
without building its problem: both go through the same hashing code.

Hashes cover raw float64 bytes, not reprs — ``0.1 + 0.2`` and ``0.3``
fingerprint differently, exactly as they would solve differently.  Only
pure analytic M/M/1 problems are fingerprintable (the same restriction as
the batched kernel); anything else returns ``None`` and simply bypasses
the cache.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.core.model import FileAllocationProblem

__all__ = [
    "RequestKey",
    "key_of_arrays",
    "request_key",
    "problem_fingerprint",
    "request_fingerprint",
    "structural_key",
    "structural_key_from_matrix",
    "parameter_distance",
    "parameter_vector",
    "relative_distance",
    "relative_distances",
]


def _update(h, *arrays) -> None:
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a)  # the C-order bytes, as ``a.tobytes()`` without the copy


def _problem_digest(cost, rates, mu, k) -> str:
    h = hashlib.sha256(b"repro.fap.v1:")
    _update(h, cost, rates, mu, [k])
    return h.hexdigest()


def _request_digest(base: str, alpha, epsilon, max_iterations, start) -> str:
    h = hashlib.sha256(base.encode())
    _update(h, [alpha, epsilon, float(max_iterations)], start)
    return h.hexdigest()


class RequestKey:
    """What a cache probe needs of one request: its
    :func:`request_fingerprint` (the exact index), its
    :func:`structural_key` (the donor bucket and the drift estimate) and
    its :func:`parameter_vector` (donor distance and drift).  The last
    two are computed on first use: an exact hit without a drift tracker
    needs neither."""

    __slots__ = ("fingerprint", "_cost", "_parts", "_structure", "_params")

    def __init__(self, fingerprint: str, cost, rates, mu, k):
        self.fingerprint = fingerprint
        self._cost = cost
        self._parts = (rates, mu, [k])
        self._structure: Optional[str] = None
        self._params: Optional[np.ndarray] = None

    @property
    def structure(self) -> str:
        if self._structure is None:
            self._structure = structural_key_from_matrix(self._cost)
        return self._structure

    @property
    def params(self) -> np.ndarray:
        if self._params is None:
            self._params = np.concatenate(self._parts).astype(float, copy=False)
        return self._params


def key_of_arrays(
    cost, rates, mu, k, alpha, epsilon, max_iterations, start
) -> RequestKey:
    """The :class:`RequestKey` of the request these values describe: the
    cost matrix, the access rates, the service rates broadcast to ``n``,
    ``k``, the solver options and the starting allocation, as float64
    arrays the way the built request holds them.  :func:`request_key` of
    that request is this, byte for byte."""
    base = _problem_digest(cost, rates, mu, k)
    return RequestKey(
        _request_digest(base, alpha, epsilon, max_iterations, start), cost, rates, mu, k
    )


def problem_fingerprint(problem: FileAllocationProblem) -> Optional[str]:
    """Stable content hash of everything that defines the *problem*.

    ``None`` for problems the service cannot canonicalize (non-M/M/1 or
    subclassed delay models, whose behavior is not captured by the
    ``mu`` vector) — those requests bypass the cache.
    """
    if not problem.has_vectorized_evaluate:
        return None
    return _problem_digest(
        problem.cost_matrix, problem.access_rates, problem.mm1_service_rates(), problem.k
    )


def request_fingerprint(request) -> Optional[str]:
    """Content hash of problem **plus** solver options — the cache key.

    Extends :func:`problem_fingerprint` with alpha, epsilon, the
    iteration budget, and the starting allocation: everything that can
    change the iterate sequence.
    """
    base = problem_fingerprint(request.problem)
    if base is None:
        return None
    return _request_digest(
        base, request.alpha, request.epsilon, request.max_iterations,
        request.initial_allocation,
    )


def request_key(request) -> Optional[RequestKey]:
    """:class:`RequestKey` of a built request (``None`` when the problem
    is not pure M/M/1, so uncacheable)."""
    problem = request.problem
    if not problem.has_vectorized_evaluate:
        return None
    return key_of_arrays(
        problem.cost_matrix, problem.access_rates, problem.mm1_service_rates(), problem.k,
        request.alpha, request.epsilon, request.max_iterations, request.initial_allocation,
    )


def structural_key(problem: FileAllocationProblem) -> str:
    """Hash of the problem's *shape*: node count and cost matrix.

    Two problems share a structural key when they describe the same
    network with different traffic/service parameters — the candidates
    worth warm-starting from each other.
    """
    return structural_key_from_matrix(problem.cost_matrix)


def structural_key_from_matrix(cost_matrix) -> str:
    """:func:`structural_key` computed from a raw cost matrix.

    Byte-identical to hashing the built problem — the model stores the
    validated matrix as the float64 array it was given — which is what
    lets the binary wire path route a request by structure *without*
    constructing a :class:`FileAllocationProblem` first (the worker it
    lands on does the real parse and validation).
    """
    cost = np.ascontiguousarray(np.asarray(cost_matrix, dtype=float))
    h = hashlib.sha256(b"repro.fap.structure.v1:")
    h.update(str(len(cost)).encode())
    h.update(str(cost.shape).encode())
    h.update(cost.tobytes())
    return h.hexdigest()


def parameter_vector(problem: FileAllocationProblem) -> Optional[np.ndarray]:
    """The problem's parameters as one flat float64 vector.

    Concatenates the access-rate vector, the M/M/1 service-rate vector,
    and ``k`` — the exact components :func:`parameter_distance` compares.
    Precomputing this at cache-store time is what lets the donor search
    rank a whole structural bucket in one vectorized pass instead of
    rebuilding per-entry arrays per probe.  ``None`` for non-M/M/1
    problems (which are uncacheable anyway).
    """
    if not problem.has_vectorized_evaluate:
        return None
    return np.concatenate(
        [problem.access_rates, problem.mm1_service_rates(), [problem.k]]
    ).astype(float, copy=False)


def relative_distances(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Relative L2 distance of each row of ``rows`` from ``query``, each
    component scaled by ``max(|row|, |query|)`` ("fractions of the
    operating point"); a row's distance is its 1-D answer, bit for bit."""
    scale = np.maximum(np.maximum(np.abs(rows), np.abs(query)), 1e-300)
    rel = (rows - query) / scale
    return np.sqrt(np.sum(rel * rel, axis=-1))


def relative_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2 distance between two flat parameter vectors
    (:func:`relative_distances` of one row); ``inf`` on shape mismatch."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    return float(relative_distances(a, b))


def parameter_distance(
    a: FileAllocationProblem, b: FileAllocationProblem
) -> float:
    """Relative distance between two same-structure problems' parameters.

    The L2 norm of elementwise relative differences over the access-rate
    vector, the M/M/1 service-rate vector, and ``k`` — 0 for identical
    parameters, roughly "fractions of the operating point" otherwise.
    ``inf`` when the problems differ in size (no warm start possible) or
    either is not pure M/M/1.
    """
    if a.n != b.n:
        return float("inf")
    va, vb = parameter_vector(a), parameter_vector(b)
    if va is None or vb is None:
        return float("inf")
    return relative_distance(va, vb)
