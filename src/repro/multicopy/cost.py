"""The §7.2 multi-copy ring cost model.

With access matrix ``a[j, i]`` from the clockwise-assembly protocol
(:func:`~repro.multicopy.layout.access_fractions`):

* node ``i`` receives access traffic ``Lambda_i = sum_j lambda_j a[j, i]``
  (the paper's worked example: 0.1 + 0.3 + 0.7 + 0.8 + 0.8 = 2.7);
* the communication cost charged to node ``i`` is
  ``sum_j lambda_j a[j, i] d(j, i)`` with ``d`` the clockwise ring distance
  (the worked example: 11*0.1 + 7*0.3 + 5*0.7 + 2*0.8 + 0*0.8 = 8.3);
* the delay cost is ``k * Lambda_i * T_i(Lambda_i)`` — the "same M/M/1
  formulation described earlier" applied to the aggregated traffic.

The total ``C(x) = sum_i [comm_i + k Lambda_i T_i(Lambda_i)]`` is
*piecewise* smooth: as the allocation shifts, readers' walks gain or lose
whole ring links and the partial derivatives jump — the discontinuities
§7.2 identifies as "the crux of the difficulty".  Gradients are therefore
computed by feasible finite differences.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleAllocationError
from repro.multicopy.layout import access_fractions
from repro.network.virtual_ring import VirtualRing
from repro.queueing.mm1 import MM1Delay
from repro.utils.validation import check_positive


class MultiCopyRingProblem:
    """``m`` copies of one file on a unidirectional virtual ring.

    Parameters
    ----------
    ring:
        The :class:`~repro.network.virtual_ring.VirtualRing`.
    access_rates:
        Per-node access generation rates ``lambda_j``.
    copies:
        Number of copies ``m >= 1``; the feasible set is
        ``sum x = m, x >= 0`` (a node *may* exceed one whole copy during
        optimization — §7.2 explains why that is deliberate; cap it
        afterwards with :func:`~repro.multicopy.rounding.cap_at_whole_copy`).
    k, mu, delay_models:
        As in the single-copy model.  Note a node can attract up to the
        *total* network rate here, so stability needs
        ``mu > sum_j lambda_j`` (or an overload-capable delay model).
    """

    def __init__(
        self,
        ring: VirtualRing,
        access_rates: Sequence[float],
        *,
        copies: int = 2,
        k: float = 1.0,
        mu: Union[float, Sequence[float], None] = None,
        delay_models: Optional[Sequence[object]] = None,
        name: str = "",
    ):
        self.ring = ring
        n = ring.n
        rates = np.asarray(access_rates, dtype=float)
        if rates.shape != (n,):
            raise ConfigurationError(f"need {n} access rates, got shape {rates.shape}")
        if not (np.isfinite(rates).all() and rates.min() >= 0 and rates.sum() > 0):
            raise ConfigurationError(
                "access rates must be finite and non-negative, with a positive total"
            )
        if int(copies) != copies or copies < 1:
            raise ConfigurationError(f"copies must be a positive integer, got {copies!r}")
        self.n = n
        self.access_rates = rates
        self.total_rate = float(rates.sum())
        self.copies = int(copies)
        self.k = check_positive(k, "k")
        self.name = name or f"multicopy-ring-{n}-m{copies}"
        self.distance = ring.distance_matrix()

        if delay_models is not None:
            models = list(delay_models)
            if len(models) != n:
                raise ConfigurationError(f"need {n} delay models, got {len(models)}")
        else:
            if mu is None:
                raise ConfigurationError("provide either mu or delay_models")
            mus = np.broadcast_to(np.asarray(mu, dtype=float), (n,)).copy()
            for i, m_i in enumerate(mus):
                check_positive(float(m_i), f"mu[{i}]")
            models = [MM1Delay(float(m_i)) for m_i in mus]
        self.delay_models: List[object] = models

    # -- feasibility --------------------------------------------------------

    def check_feasible(self, x, *, atol: float = 1e-8) -> np.ndarray:
        """Finite ``x >= 0`` and ``sum x == m``."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n,):
            raise InfeasibleAllocationError(
                f"allocation shape {arr.shape}, expected ({self.n},)"
            )
        low, total = arr.min(), arr.sum()
        # Stated as what must hold, so a NaN (which fails every
        # comparison) is refused rather than let through.
        if low >= -atol and abs(total - self.copies) <= atol:
            return arr
        if not np.isfinite(arr).all():
            raise InfeasibleAllocationError(f"non-finite fractions: {arr}")
        if low < -atol:
            raise InfeasibleAllocationError(f"negative fractions: min={low}")
        raise InfeasibleAllocationError(
            f"allocation sums to {total!r}, expected m={self.copies}"
        )

    # -- evaluation -------------------------------------------------------------

    def access_matrix(self, x) -> np.ndarray:
        """``a[j, i]`` under the clockwise-assembly protocol."""
        return access_fractions(self.ring, np.asarray(x, dtype=float))

    def node_arrivals(self, x) -> np.ndarray:
        """``Lambda_i = sum_j lambda_j a[j, i]``."""
        return self.access_rates @ self.access_matrix(x)

    def communication_cost_per_node(self, x) -> np.ndarray:
        """``comm_i = sum_j lambda_j a[j, i] d(j, i)`` (the 8.3 of §7.2)."""
        a = self.access_matrix(x)
        return np.einsum("j,ji,ji->i", self.access_rates, a, self.distance)

    def cost(self, x) -> float:
        """Total system cost: communication plus queueing delay."""
        a = self.access_matrix(x)
        arrivals = self.access_rates @ a
        comm = float(np.einsum("j,ji,ji->", self.access_rates, a, self.distance))
        delay = 0.0
        for model, lam_i in zip(self.delay_models, arrivals):
            if lam_i > 0:
                delay += lam_i * model.sojourn_time(float(lam_i))
        return comm + self.k * delay

    def utility(self, x) -> float:
        return -self.cost(x)

    def cost_gradient(self, x, *, h: float = 1e-6) -> np.ndarray:
        """Finite-difference partials ``dC/dx_i``.

        Central differences where both perturbations stay non-negative,
        one-sided at the ``x_i = 0`` boundary.  Near a layout discontinuity
        the value reflects the local piece's slope (or the jump, when the
        stencil straddles it) — the behaviour driving §7.3's oscillations.
        """
        base = np.asarray(x, dtype=float)
        grad = np.empty(self.n)
        for i in range(self.n):
            hi = base.copy()
            hi[i] += h
            if base[i] >= h:
                lo = base.copy()
                lo[i] -= h
                grad[i] = (self.cost(hi) - self.cost(lo)) / (2.0 * h)
            else:
                grad[i] = (self.cost(hi) - self.cost(base)) / h
        return grad

    def utility_gradient(self, x, *, h: float = 1e-6) -> np.ndarray:
        return -self.cost_gradient(x, h=h)

    def __repr__(self) -> str:
        return (
            f"MultiCopyRingProblem(name={self.name!r}, n={self.n}, "
            f"m={self.copies}, k={self.k:g})"
        )
