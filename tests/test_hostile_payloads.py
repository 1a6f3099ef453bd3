"""Hostile requests after decoding: each gets exactly one answer of its own.

A request that parses can still be poisonous to the solver: a cost matrix
near the float maximum makes the first step overflow.  Such a request
must fail alone, as a ``solver_error``, wherever it is dispatched — a
lone solve, a row of a group, the threaded service, ``repro-fap serve``
— and every request beside it keeps its normal answer, bit for bit.
The Hypothesis suite below sends request-shaped payloads with hostile
field values through the codec and the worker's dispatch, and checks
that property on every example.
"""

from __future__ import annotations

import copy
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError
from repro.net.worker import solve_payloads
from repro.service import REJECT_SOLVER_ERROR, AllocationService, ServiceConfig
from repro.service.codec import parse_request, safe_parse

BIG = 1e308

#: Parses, then its first step overflows (the mean of its marginal
#: utilities exceeds the float range).
OVERFLOW = {
    "problem": {
        "cost_matrix": [[0, BIG, BIG], [BIG, 0, BIG], [BIG, BIG, 0]],
        "access_rates": [0.3, 0.3, 0.4],
        "mu": 2.0,
        "k": 1.0,
    },
    "start": "single",
}


def healthy(rid, n, k=1.0):
    """A request that takes real iterations (skewed start)."""
    return {
        "id": rid,
        "problem": {"topology": "complete", "nodes": n, "k": k},
        "alpha": 0.3,
        "epsilon": 1e-5,
        "start": "skewed",
    }


def bad(rid="bad"):
    return dict(OVERFLOW, id=rid)


SOLVED_FIELDS = ("allocation", "cost", "iterations", "converged")


def assert_same_solve(got, want):
    assert got["status"] == want["status"] == "ok"
    for field in SOLVED_FIELDS:
        assert got[field] == want[field], field


def assert_solver_error(answer, rid="bad"):
    assert answer["id"] == rid
    assert answer["status"] == "rejected"
    assert answer["reason"] == REJECT_SOLVER_ERROR


def alone(payloads):
    """Each payload's answer from a fresh worker service, on its own."""
    return [solve_payloads(ServiceConfig().build(), [p])[0] for p in payloads]


class TestOverflowingRequest:
    @pytest.mark.parametrize(
        "group",
        [
            # a lone n = 3 dispatch beside a group of two n = 4 requests
            [healthy("a", 4), bad(), healthy("b", 4, k=2.0)],
            # row 0 of a group with two n = 3 requests
            [bad(), healthy("a", 3), healthy("b", 3, k=2.0)],
        ],
        ids=["singleton", "group-row-0"],
    )
    def test_solve_payloads_fails_only_the_bad_request(self, group):
        service = ServiceConfig().build()
        with np.errstate(over="ignore", invalid="ignore"):
            answers = solve_payloads(service, group)
        assert len(answers) == 3
        others = [p for p in group if p["id"] != "bad"]
        for payload, answer in zip(group, answers):
            if payload["id"] == "bad":
                assert_solver_error(answer)
        want = alone(others)
        got = [a for a in answers if a["id"] != "bad"]
        for g, w in zip(got, want):
            assert_same_solve(g, w)

    def test_threaded_service_keeps_serving(self):
        requests = [parse_request(healthy(rid, 4, k)) for rid, k in (("a", 1.0), ("b", 2.0))]
        with ServiceConfig(cache_size=0).build().start() as service:
            with np.errstate(over="ignore", invalid="ignore"):
                poisoned = service.submit(parse_request(bad()))
                assert poisoned.wait(10.0).reason == REJECT_SOLVER_ERROR
            answers = [service.submit(r).wait(10.0) for r in requests]
        for request, answer in zip(requests, answers):
            want = ServiceConfig(cache_size=0).build().solve(request)
            assert answer.ok
            assert np.array_equal(answer.allocation, want.allocation)
            assert answer.cost == want.cost

    def test_serve_answers_every_line(self, capsys, tmp_path):
        from repro.cli import main

        def serve(payloads):
            path = tmp_path / "requests.jsonl"
            path.write_text("".join(json.dumps(p) + "\n" for p in payloads))
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(["serve", "--input", str(path), "--max-batch", "2"]) == 0
            out = capsys.readouterr().out
            return [json.loads(line) for line in out.splitlines() if line.strip()]

        mixed = serve([healthy("a", 3), bad(), healthy("b", 4)])
        assert [a["id"] for a in mixed] == ["a", "bad", "b"]
        assert_solver_error(mixed[1])
        clean = serve([healthy("a", 3), healthy("b", 4)])
        assert_same_solve(mixed[0], clean[0])
        assert_same_solve(mixed[2], clean[1])


class _FailsOnBoom(AllocationService):
    """A service whose dispatch of the request ``boom`` raises — a stand-in
    for any defect that escapes a pump after other requests resolved."""

    def _dispatch(self, batch):
        if any(item.request.request_id == "boom" for item in batch.items):
            raise RuntimeError("boom")
        return super()._dispatch(batch)


def test_solve_payloads_keeps_answers_resolved_before_a_failure():
    # Groups dispatch in first-arrival order: the n = 4 pair, then "boom".
    payloads = [healthy("a", 4), healthy("b", 4, k=2.0), healthy("boom", 3)]
    answers = solve_payloads(_FailsOnBoom(), payloads)
    assert answers[2] == {
        "id": "boom", "status": "error", "detail": "dispatch failed: RuntimeError: boom",
    }
    for got, want in zip(answers[:2], alone(payloads[:2])):
        assert_same_solve(got, want)


class _FailsAfterClaim(AllocationService):
    """A service whose dispatch raises right after it claimed a queued
    request mid-flight.  Its first claim sets ``in_flight`` and waits for
    ``gate``, so a test can queue that request while a group solves."""

    def __init__(self):
        super().__init__()
        self.in_flight = threading.Event()
        self.gate = threading.Event()

    def _claim_compatible(self, key, limit):
        self.in_flight.set()
        self.gate.wait(10.0)
        claimed, resolved = super()._claim_compatible(key, limit)
        if claimed:
            raise RuntimeError("claimed, then failed")
        return claimed, resolved


class TestThreadedDispatchFailure:
    """Under ``start()``, a dispatch that raises answers every request its
    pump held with a ``solver_error``, and the dispatcher keeps serving."""

    def test_failed_request_is_answered_and_the_next_is_served(self):
        with _FailsOnBoom().start() as service:
            boom = service.submit(parse_request(healthy("boom", 3))).wait(10.0)
            after = service.submit(parse_request(healthy("a", 4))).wait(10.0)
        assert boom.reason == REJECT_SOLVER_ERROR
        assert boom.detail == "dispatch failed: RuntimeError: boom"
        assert_same_solve(after.as_dict(), alone([healthy("a", 4)])[0])

    def test_requests_claimed_mid_flight_are_answered(self):
        service = _FailsAfterClaim()
        group = [service.submit(parse_request(healthy(rid, 4, k)))
                 for rid, k in (("a", 1.0), ("b", 2.0))]
        with service.start():
            # The group is solving; queue "late" for its first free slot.
            assert service.in_flight.wait(10.0)
            late = service.submit(parse_request(healthy("late", 4, k=3.0)))
            service.gate.set()
            answers = [ticket.wait(10.0) for ticket in group + [late]]
            after = service.submit(parse_request(healthy("c", 3))).wait(10.0)
        assert not answers[-1].ok
        for answer in answers:
            if not answer.ok:
                assert answer.reason == REJECT_SOLVER_ERROR
                assert answer.detail == "dispatch failed: RuntimeError: claimed, then failed"
        assert_same_solve(after.as_dict(), alone([healthy("c", 3)])[0])


class TestNonObjectPayload:
    """A JSON value that is not an object is answered in-band with id
    ``""``; the requests around it are answered as if it were not there."""

    NON_OBJECTS = [[1, 2], "text", 3, None]
    ANSWER = {
        "id": "",
        "status": "error",
        "detail": "ConfigurationError: each request must be a JSON object",
    }

    def test_through_the_payload_function(self):
        group = [healthy("a", 3)] + self.NON_OBJECTS + [healthy("b", 3, k=2.0)]
        answers = ServiceConfig().build().solve_payloads(group)
        assert answers[1:-1] == [self.ANSWER] * len(self.NON_OBJECTS)
        want = alone([healthy("a", 3), healthy("b", 3, k=2.0)])
        for got, w in zip((answers[0], answers[-1]), want):
            assert_same_solve(got, w)

    def test_through_serve(self, capsys, tmp_path):
        from repro.cli import main

        lines = [healthy("a", 3)] + self.NON_OBJECTS + [healthy("b", 4)]
        path = tmp_path / "requests.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert main(["serve", "--input", str(path), "--max-batch", "2"]) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert out[1:-1] == [self.ANSWER] * len(self.NON_OBJECTS)
        for got, want in zip((out[0], out[-1]), alone([healthy("a", 3), healthy("b", 4)])):
            assert_same_solve(got, want)


class TestServiceRateLength:
    """A ``mu`` of the wrong length names ``mu`` and n, not numpy's
    broadcasting internals."""

    def test_in_process(self):
        with pytest.raises(ConfigurationError, match=r"mu must be one number or 3 per-node"):
            FileAllocationProblem(1.0 - np.eye(3), [0.3, 0.3, 0.4], mu=[2.0, 2.0])

    def test_through_safe_parse(self):
        payload = {
            "id": "short-mu",
            "problem": {
                "cost_matrix": (1.0 - np.eye(3)).tolist(),
                "access_rates": [0.3, 0.3, 0.4],
                "mu": [2.0, 2.0],
            },
        }
        request, error = safe_parse(payload)
        assert request is None
        assert error["id"] == "short-mu" and error["status"] == "error"
        assert error["detail"] == (
            "ConfigurationError: mu must be one number or 3 per-node rates, got shape (2,)"
        )


# -- fuzzing after decoding -----------------------------------------------------

#: The benign base every hostile payload perturbs: 3 nodes, a small
#: budget, and a start that takes real iterations.
BASE = {
    "problem": {
        "cost_matrix": (1.0 - np.eye(3)).tolist(),
        "access_rates": [0.3, 0.3, 0.4],
        "mu": 2.0,
        "k": 1.0,
    },
    "alpha": 0.3,
    "epsilon": 1e-3,
    "max_iterations": 200,
    "start": "skewed",
}

_HOSTILE = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0, 0.0, -1.0, BIG, -BIG, 2**64, 1.5]
)


@st.composite
def _vectors(draw):
    """A hostile 3-node vector: a wrong length, or one hostile entry."""
    if draw(st.booleans()):
        return [0.5] * draw(st.sampled_from([0, 1, 2, 4]))
    out = [0.3, 0.3, 0.4]
    out[draw(st.integers(0, 2))] = draw(_HOSTILE)
    return out


@st.composite
def _cost_matrices(draw):
    kind = draw(st.sampled_from(["entry", "diagonal", "shape", "all"]))
    matrix = (1.0 - np.eye(3)).tolist()
    if kind == "entry":
        i, j = draw(st.sampled_from([(0, 1), (1, 2), (2, 0)]))
        matrix[i][j] = draw(_HOSTILE)
    elif kind == "diagonal":
        matrix[1][1] = draw(_HOSTILE)
    elif kind == "shape":
        matrix = draw(st.sampled_from([[[0, 1], [1, 0]], [[0, 1, 1], [1, 0, 1]], [], [[]]]))
    else:
        value = draw(_HOSTILE)
        matrix = [[0 if i == j else value for j in range(3)] for i in range(3)]
    return matrix


_FIELDS = {
    "mu": st.one_of(_HOSTILE, _vectors()),
    "k": _HOSTILE,
    "access_rates": _vectors(),
    "cost_matrix": _cost_matrices(),
    "alpha": _HOSTILE,
    "epsilon": _HOSTILE,
    "start": st.one_of(st.sampled_from(["single", "uniform", "nope"]), _vectors()),
    "max_iterations": _HOSTILE,
}
_PROBLEM_FIELDS = ("mu", "k", "access_rates", "cost_matrix")


@st.composite
def hostile_payloads(draw):
    """:data:`BASE` with one to three fields replaced by hostile values.

    A huge budget comes only with a start at the optimum of a symmetric
    network, which converges at iteration 0, so every example is short."""
    fields = draw(st.sets(st.sampled_from(sorted(_FIELDS)), min_size=1, max_size=3))
    values = {name: draw(_FIELDS[name]) for name in sorted(fields)}
    budget = values.get("max_iterations", 0)
    payload = copy.deepcopy(BASE)
    if budget == budget and budget > 1000:  # NaN is no budget at all
        payload["problem"]["access_rates"] = [0.3, 0.3, 0.3]
        payload["start"] = "uniform"
        values = {"max_iterations": budget}
    for name, value in values.items():
        target = payload["problem"] if name in _PROBLEM_FIELDS else payload
        target[name] = value
    payload["id"] = "hostile"
    return payload


def _check_answer(answer, rid):
    assert isinstance(answer, dict)
    assert answer["id"] == rid
    assert answer["status"] in ("ok", "rejected", "error")
    assert not str(answer.get("detail", "")).startswith("dispatch failed"), answer
    if answer["status"] == "ok":
        allocation = np.asarray(answer["allocation"], dtype=float)
        assert np.isfinite(allocation).all() and (allocation >= 0).all()
        assert abs(allocation.sum() - 1.0) <= 1e-9
        assert math.isfinite(answer["cost"])


class TestPostDecodeFuzz:
    """Every hostile payload gets exactly one in-band answer of its own,
    and nothing raises; every ``ok`` answer is a feasible allocation with
    a finite cost.  A healthy request of the same size rides along, so a
    parseable hostile payload is solved as a group row as well as alone."""

    service = ServiceConfig().build()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(payload=hostile_payloads(), k=st.floats(1.0, 2.0), pair=st.booleans())
    @example(payload=dict(OVERFLOW, id="hostile"), k=1.0, pair=True)
    @example(payload=dict(OVERFLOW, id="hostile"), k=1.0, pair=False)
    def test_every_payload_gets_one_answer(self, payload, k, pair):
        payloads = [payload] + ([healthy("companion", 3, k)] if pair else [])
        with np.errstate(all="ignore"):
            answers = solve_payloads(self.service, payloads)
        assert len(answers) == len(payloads)
        _check_answer(answers[0], "hostile")
        if pair:
            _check_answer(answers[1], "companion")
            assert answers[1]["status"] == "ok"
