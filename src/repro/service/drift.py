"""Drift-adaptive estimate epochs for the solution cache.

The service's cache answers exact repeats verbatim forever, which is
only sound while the traffic estimate the entry was solved under is
still current.  §8 of the paper ("the possibility also exists of using
the algorithm to adaptively change the file allocation as the nodal
file access characteristics change dynamically") and the
dynamic-reallocation model of *Distributed Server Allocation for
Content Delivery Networks* (PAPERS.md) both frame the fix the same way:
keep a running estimate of the workload, and re-optimize only when the
estimate has moved far enough that re-solving beats the switching cost
of thrashing on every small update.

:class:`DriftTracker` is that estimator, adapted from the
:class:`~repro.estimation.adaptive.AdaptiveAllocationLoop` windowed
rate estimate to the serving stack: every request *is* an observation
of its structure's operating point, so the tracker folds each request's
parameter vector (:func:`~repro.service.fingerprint.parameter_vector`)
into a per-structure exponential moving average.  Each structure
carries an **estimate epoch**; when the moving estimate drifts more
than ``threshold`` (relative L2, the cache's own distance metric) from
the reference point captured at the last epoch advance, the epoch
increments and the reference re-anchors.

The cache stamps every entry with the epoch it was solved under.  An
exact hit from a *stale* epoch is demoted to a warm-start donor — the
answer is recomputed from the cached allocation (stale-but-close)
instead of served verbatim — while small drift below ``threshold``
keeps serving hits untouched.  ``threshold`` is therefore exactly the
migration/switching-cost term of the CDN model: the drift a cached
optimum is allowed to accumulate before re-solving is worth paying for.

Metrics (all on the shared registry): ``service.drift.observed``
counts folded observations, ``service.drift.epoch_advance`` counts
epoch bumps, and the ``service.drift.level`` gauge tracks the last
observed drift magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.service.fingerprint import relative_distance
from repro.utils.validation import check_positive

__all__ = ["DriftState", "DriftTracker"]


@dataclass
class DriftState:
    """Per-structure estimator state: the moving estimate, the epoch's
    reference point, and the epoch counter."""

    estimate: np.ndarray
    reference: np.ndarray
    epoch: int = 0
    observations: int = 1
    #: Drift of the estimate vs the reference at the last observation.
    level: float = field(default=0.0)


class DriftTracker:
    """Per-structure traffic-estimate epochs with a switching-cost bar.

    Parameters
    ----------
    threshold:
        Relative drift (same scale as
        :func:`~repro.service.fingerprint.parameter_distance`) the
        moving estimate must accumulate before the structure's epoch
        advances.  Small values re-solve eagerly; large values tolerate
        more staleness — the knob is the switching-cost term that keeps
        allocations from thrashing on every estimate update.
    window:
        Observation window of the exponential moving average: each
        request moves the estimate ``1/window`` of the way to its own
        parameters.  Longer windows mean calmer estimates (the
        ``estimation_window`` of the §8 loop, request-driven instead of
        clock-driven).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` for the
        ``service.drift.*`` family.
    """

    def __init__(
        self,
        *,
        threshold: float = 0.25,
        window: int = 16,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.threshold = check_positive(float(threshold), "threshold")
        if int(window) < 1:
            raise ConfigurationError("window must be >= 1")
        self.window = int(window)
        self.registry = registry
        self._states: Dict[str, DriftState] = {}

    def __len__(self) -> int:
        return len(self._states)

    def observe(self, key: str, params: np.ndarray) -> int:
        """Fold one request's parameter vector ``params`` into the
        estimate of its structure ``key``
        (:func:`~repro.service.fingerprint.parameter_vector` and
        :func:`~repro.service.fingerprint.structural_key` of its problem;
        the cache probe passes both from the request's
        :class:`~repro.service.fingerprint.RequestKey`).

        Returns the structure's (possibly just-advanced) epoch.
        """
        state = self._states.get(key)
        if state is None or state.estimate.shape != params.shape:
            state = DriftState(estimate=params.copy(), reference=params.copy())
            self._states[key] = state
            self._count(state, 0.0)
            return state.epoch
        state.observations += 1
        state.estimate += (params - state.estimate) / self.window
        drift = relative_distance(state.estimate, state.reference)
        state.level = drift
        if drift > self.threshold:
            state.epoch += 1
            state.reference = state.estimate.copy()
            state.level = 0.0
            if self.registry is not None:
                self.registry.counter_inc("service.drift.epoch_advance")
        self._count(state, drift)
        return state.epoch

    def _count(self, state: DriftState, drift: float) -> None:
        if self.registry is not None:
            self.registry.counter_inc("service.drift.observed")
            self.registry.gauge_set("service.drift.level", float(drift))

    def epoch_of(self, structure: str) -> int:
        """The current estimate epoch for one structural key (read-only —
        the cache stamps entries with this at store time)."""
        state = self._states.get(structure)
        return state.epoch if state is not None else 0

    def drift_of(self, structure: str) -> float:
        """Last observed drift of ``structure``'s estimate vs its epoch
        reference (0.0 for unseen structures)."""
        state = self._states.get(structure)
        return state.level if state is not None else 0.0

    def __repr__(self) -> str:
        return (
            f"DriftTracker(threshold={self.threshold:g}, window={self.window}, "
            f"structures={len(self._states)})"
        )
