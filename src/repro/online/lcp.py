"""Lazy Capacity Provisioning for the discrete setting (Section 3).

At every time ``tau`` the algorithm computes the bounds ``x^L_tau`` (the
smallest last state of an optimizer of ``C^L_tau``, eq. (11)) and
``x^U_tau`` (the largest last state of an optimizer of ``C^U_tau``,
eq. (12))) and lazily projects its previous state into ``[x^L, x^U]``:

``x^LCP_tau = [x^LCP_{tau-1}]^{x^U_tau}_{x^L_tau}``            (eq. (13))

Theorem 2 shows this is 3-competitive, and Theorem 4 that no deterministic
online algorithm does better — LCP is *optimal* in the discrete setting.

With a prediction window ``w`` (Section 5.4, following Lin et al.), the
bounds at time ``tau`` become the ``tau``-th component of the optimizer
over the extended horizon ``tau + w``:
``x^{L,w}_tau = argmin_j ( hat-C^L_tau(j) + Q^L_tau(j) )`` where
``Q^L_tau(j)`` is the optimal cost of serving the ``w`` known future
functions starting from state ``j`` (and symmetrically for ``U``).
"""

from __future__ import annotations

import numpy as np

from .._util import argmin_first, argmin_last, prefix_min, suffix_min
from .base import OnlineAlgorithm
from .workfunction import WorkFunctions

__all__ = ["LCP", "EagerLCP", "lookahead_bounds"]


def _future_value_L(future: np.ndarray, beta: float,
                    states: np.ndarray) -> np.ndarray:
    """``Q^L(j)``: optimal cost of the future rows from state ``j`` with
    power-up charging and free end (backward DP, ``O(w m)``)."""
    Q = np.zeros_like(states)
    for i in range(future.shape[0] - 1, -1, -1):
        V = future[i] + Q
        # from j to j'': pay beta (j'' - j)^+ + V(j'')
        up = -beta * states + suffix_min(V + beta * states)
        stay = prefix_min(V)
        Q = np.minimum(stay, up)
    return Q


def _future_value_U(future: np.ndarray, beta: float,
                    states: np.ndarray) -> np.ndarray:
    """``Q^U(j)``: same with power-down charging ``beta (j - j'')^+``."""
    Q = np.zeros_like(states)
    for i in range(future.shape[0] - 1, -1, -1):
        V = future[i] + Q
        down = beta * states + prefix_min(V - beta * states)
        stay = suffix_min(V)
        Q = np.minimum(stay, down)
    return Q


def lookahead_bounds(wf: WorkFunctions,
                     future: np.ndarray) -> tuple[int, int]:
    """Window-extended LCP bounds ``(x^{L,w}_tau, x^{U,w}_tau)``.

    ``wf`` holds the work functions through ``f_tau``; ``future`` holds
    the known rows ``f_{tau+1} .. f_{tau+w}``.
    """
    states = np.arange(wf.m + 1, dtype=np.float64)
    QL = _future_value_L(future, wf.beta, states)
    QU = _future_value_U(future, wf.beta, states)
    lo = argmin_first(wf.CL + QL)
    hi = argmin_last(wf.CU + QU)
    if lo > hi:  # pragma: no cover - analogue of Lemma 6 for windows
        raise AssertionError(
            f"lookahead bounds crossed: x^L={lo} > x^U={hi}")
    return lo, hi


class LCP(OnlineAlgorithm):
    """Discrete Lazy Capacity Provisioning (eq. (13)); 3-competitive.

    Parameters
    ----------
    lookahead:
        Prediction-window length ``w >= 0``.  With ``w = 0`` this is the
        algorithm of Theorem 2.
    record_bounds:
        Keep the per-step ``(x^L, x^U)`` trajectory in :attr:`bounds_log`
        (used by tests of Lemmas 6 and 11 and by the examples).
    """

    fractional = False
    #: the step decision factors through ``(x^L, x^U)``, so a grid can
    #: replay many LCP-family jobs from one shared work-function sweep
    consumes_bounds = True

    def __init__(self, lookahead: int = 0, *, record_bounds: bool = False):
        if lookahead < 0:
            raise ValueError("lookahead must be non-negative")
        self.lookahead = lookahead
        self.name = "lcp" if lookahead == 0 else f"lcp(w={lookahead})"
        self._record = record_bounds
        self.bounds_log: list[tuple[int, int]] = []

    def reset(self, m: int, beta: float) -> None:
        self._wf = WorkFunctions(m, beta)
        self._set_state(0)
        self.bounds_log = []

    def step(self, f_row: np.ndarray, future: np.ndarray | None = None) -> int:
        self._wf.update(f_row)
        if self.lookahead > 0 and future is not None and future.shape[0] > 0:
            lo, hi = lookahead_bounds(self._wf, future)
        else:
            lo, hi = self._wf.bounds()
        return self.step_bounds(lo, hi)

    def step_bounds(self, lo: int, hi: int) -> int:
        """Eq. (13) from precomputed bounds (the bounds-replay entry)."""
        if self._record:
            self.bounds_log.append((lo, hi))
        x = max(lo, min(hi, self.state))
        self._set_state(x)
        return x

    def run_bounds(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whole-trajectory eq. (13) projection from a kernel sweep.

        A tight scalar scan over the precomputed bound trajectories —
        trivially the same integers :meth:`step_bounds` commits one at
        a time (including the :attr:`bounds_log` entries when
        ``record_bounds`` is set).
        """
        out = np.empty(len(lo), dtype=np.int64)
        x = self.state
        log = self.bounds_log if self._record else None
        for t, (b_lo, b_hi) in enumerate(zip(np.asarray(lo).tolist(),
                                             np.asarray(hi).tolist())):
            if log is not None:
                log.append((b_lo, b_hi))
            if x < b_lo:
                x = b_lo
            elif x > b_hi:
                x = b_hi
            out[t] = x
        self._set_state(x)
        return out


class EagerLCP(OnlineAlgorithm):
    """Anti-laziness ablation of LCP: always jump to the nearer bound.

    Where LCP projects its previous state into ``[x^L, x^U]`` (and so
    moves only when forced), this variant moves to the closest bound on
    every step.  It exists for the E12 ablation — laziness is the load-
    bearing idea of LCP, and this strawman loses to it on oscillating
    traces.
    """

    fractional = False
    name = "eager-lcp"
    consumes_bounds = True

    def reset(self, m: int, beta: float) -> None:
        self._wf = WorkFunctions(m, beta)
        self._set_state(0)

    def step(self, f_row: np.ndarray, future: np.ndarray | None = None) -> int:
        self._wf.update(f_row)
        return self.step_bounds(*self._wf.bounds())

    def step_bounds(self, lo: int, hi: int) -> int:
        """Jump to the bound nearer the previous state (ties go low)."""
        x = lo if abs(lo - self.state) <= abs(hi - self.state) else hi
        self._set_state(x)
        return x

    def run_bounds(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whole-trajectory nearest-bound scan from a kernel sweep."""
        out = np.empty(len(lo), dtype=np.int64)
        x = self.state
        for t, (b_lo, b_hi) in enumerate(zip(np.asarray(lo).tolist(),
                                             np.asarray(hi).tolist())):
            x = b_lo if abs(b_lo - x) <= abs(b_hi - x) else b_hi
            out[t] = x
        self._set_state(x)
        return out
