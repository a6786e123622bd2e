"""The paper's polynomial-time offline algorithm (Section 2.2).

The algorithm refines a coarse schedule through ``log2(m) - 1`` iterations.
Iteration ``k`` (counted ``K = log2(m) - 2`` down to ``0``) only considers
states that are multiples of ``2^k``, and only a *window* of five such
states per column:

* iteration ``K`` uses the rows ``{0, m/4, m/2, 3m/4, m}``;
* given the optimal windowed schedule ``x-hat^k`` of iteration ``k``,
  iteration ``k-1`` uses ``V^{k-1}_t = {x-hat^k_t + xi * 2^{k-1} :
  xi in {-2,-1,0,1,2}} inter [m]_0``.

Lemma 5 guarantees an optimal schedule of ``P_{k-1}`` inside that window,
so by induction (Theorem 1) the final iteration returns an optimum of the
original instance.  Each iteration is a DP over at most five states per
column, i.e. ``O(T)`` work, for ``O(T log m)`` total.  The DP is a
sequential recurrence over ``t``: it runs as one compiled loop
(:mod:`repro.kernels.native`) and falls back to a NumPy loop with the
same float operations when no compiler is available.

``m`` is padded to a power of two with the adverse convex extension
``f'_t(x) = x (f_t(m) + eps)`` for ``x > m`` (Section 2.2); the padded
costs are evaluated lazily so the memory footprint stays ``O(T + m)``.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import Instance
from ..core.transforms import next_power_of_two
from ..kernels import native
from .dp import solve_dp
from .result import OfflineResult

__all__ = ["solve_binary_search", "windowed_dp", "window_states"]


def _padded_cost_matrix(F: np.ndarray, S: np.ndarray,
                        eps: float) -> np.ndarray:
    """Operating costs of the padded instance on per-column states ``S``.

    ``S`` has shape ``(T, width)`` of int64 states (possibly ``> m``).
    Returns the matching ``(T, width)`` float64 cost matrix using the
    convex Section 2.2 extension for states above ``m`` (see
    :func:`repro.core.transforms.padded_cost` for the formula and the
    note on the paper's displayed variant).
    """
    T, m_plus = F.shape
    m = m_plus - 1
    rows = np.arange(T)[:, None]
    inside = np.minimum(S, m)
    vals = F[rows, inside].astype(np.float64, copy=True)
    over = S > m
    if np.any(over):
        top = np.broadcast_to(F[:, m][:, None], S.shape)
        vals[over] = top[over] + (S[over] - m) * (top[over] + eps)
    return vals


def windowed_dp(instance: Instance, S: np.ndarray,
                eps: float = 1.0) -> tuple[np.ndarray, float]:
    """Optimal schedule restricted to per-column state windows.

    ``S`` is an integer matrix of shape ``(T, width)``; column ``t`` may
    only use the states ``S[t]`` (non-negative; rows must be sorted;
    duplicate entries are allowed and act as padding).  States above
    ``instance.m`` are priced by the Section 2.2 padding with slope offset
    ``eps``.

    Returns ``(schedule, cost)`` where the cost is with respect to the
    padded instance (equal to the original cost whenever the schedule stays
    within ``0..m``).  Runs the ``O(T * width^2)`` window DP — ``O(T)`` for
    the constant window width of the paper's algorithm — as one compiled
    loop that prices each switch inline; the NumPy fallback (scalar
    kernel, or no compiler) hoists the switching costs into a
    ``(T-1, width, width)`` tensor instead.  Both take the first index
    among tied predecessors and return the same bits.
    """
    T = instance.T
    S = np.ascontiguousarray(S, dtype=np.int64)
    if S.ndim != 2 or S.shape[0] != T:
        raise ValueError(f"state windows must be a 2-D array with {T} rows")
    width = S.shape[1]
    if width == 0:
        raise ValueError("state windows must not be empty")
    if np.any(S < 0):
        raise ValueError("window states must be non-negative")
    if T == 0:
        return np.zeros(0, dtype=np.int64), 0.0
    beta = float(instance.beta)
    op = _padded_cost_matrix(instance.F, S, eps)
    lib = native.loops()
    if lib is not None:
        parents = np.empty((T, width), dtype=np.int64)
        rows = np.empty(2 * width)
        schedule = np.empty(T, dtype=np.int64)
        cost = lib.window_dp(T, width, S, op, beta, parents, rows, schedule)
        return schedule, float(cost)
    Sf = S.astype(np.float64)
    # Hoist the per-step (width x width) switching kernels out of the
    # sequential loop: switch[t-1, i, j] = beta (S[t, j] - S[t-1, i])^+.
    # The DP loop then only does small adds and argmins (profiling shows
    # the loop is dispatch-bound, so direct ndarray methods are used).
    if T > 1:
        switch = beta * np.maximum(
            Sf[1:, None, :] - Sf[:-1, :, None], 0.0)
    D = op[0] + beta * Sf[0]
    parents = np.zeros((T, width), dtype=np.int64)
    cols = np.arange(width)
    for t in range(1, T):
        trans = D[:, None] + switch[t - 1]
        par = trans.argmin(axis=0)
        parents[t] = par
        D = op[t] + trans[par, cols]
    idx = np.empty(T, dtype=np.int64)
    idx[T - 1] = int(D.argmin())
    cost = float(D[idx[T - 1]])
    for t in range(T - 1, 0, -1):
        idx[t - 1] = parents[t, idx[t]]
    schedule = S[np.arange(T), idx]
    return schedule, cost


def window_states(center: np.ndarray, half_step: int, m_padded: int,
                  span: int = 2) -> np.ndarray:
    """Refinement windows ``{center_t + xi * half_step : |xi| <= span}``.

    Intersected with ``[0, m_padded]`` as in the paper (out-of-range states
    are clamped, which duplicates boundary states — harmless padding for
    the window DP).  Returns a sorted ``(T, 2*span+1)`` int64 matrix.
    """
    offsets = np.arange(-span, span + 1, dtype=np.int64) * half_step
    S = center[:, None] + offsets[None, :]
    np.clip(S, 0, m_padded, out=S)
    S.sort(axis=1)
    return S


def solve_binary_search(instance: Instance, eps: float = 1.0,
                        validate: bool = False) -> OfflineResult:
    """Optimal offline schedule via the paper's ``O(T log m)`` algorithm.

    Parameters
    ----------
    eps:
        Slope offset of the power-of-two padding (any positive value gives
        the same optimum; exposed for the robustness tests).
    validate:
        Assert after every iteration that the refined windows contain the
        states required by Lemma 5 (debugging aid used in tests).
    """
    T, m = instance.T, instance.m
    if T == 0:
        return OfflineResult(schedule=np.zeros(0, dtype=np.int64), cost=0.0,
                             method="binary_search")
    if m <= 3:
        # The construction needs m >= 4 (K = log2(m) - 2 >= 0); tiny state
        # spaces are solved directly, matching the paper's assumption that
        # m is a (reasonably large) power of two.
        res = solve_dp(instance)
        return OfflineResult(schedule=res.schedule, cost=res.cost,
                             method="binary_search", iterations=1)
    m_padded = next_power_of_two(m)
    K = int(np.log2(m_padded)) - 2
    # Iteration K: rows {0, m/4, m/2, 3m/4, m} for every column.
    quarter = m_padded // 4
    first = np.arange(5, dtype=np.int64) * quarter
    S = np.broadcast_to(first, (T, 5)).copy()
    schedule, cost = windowed_dp(instance, S, eps)
    iterations = 1
    for k in range(K, 0, -1):
        half = 1 << (k - 1)
        S = window_states(schedule, half, m_padded)
        if validate:
            assert np.all(S % half == 0), "window left the 2^(k-1) grid"
        schedule, cost = windowed_dp(instance, S, eps)
        iterations += 1
    if np.any(schedule > m):  # pragma: no cover - padding is adverse
        raise AssertionError("optimal schedule used a padded state")
    return OfflineResult(schedule=schedule, cost=cost,
                         method="binary_search", iterations=iterations)
