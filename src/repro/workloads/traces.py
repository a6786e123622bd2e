"""Turn load traces into problem instances.

Two encodings:

* :func:`instance_from_loads` — the **general model**: per-step convex
  cost built from an energy term (linear in active servers) plus an
  M/M/1-style latency penalty that explodes as capacity approaches the
  load, optionally an SLA hinge.  This is the cost structure Lin et al.
  motivate (energy + delay).
* :func:`restricted_from_loads` — the **restricted model** (eq. (2)):
  a single per-server utilization cost ``f`` shared by all steps.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.costs import AffineEnergyCost, _queueing_delay, _sla_hinge
from ..core.instance import Instance, RestrictedInstance

__all__ = [
    "instance_from_loads",
    "restricted_from_loads",
    "default_server_cost",
    "capacity_for",
]


def capacity_for(loads: np.ndarray, slack: float = 1.25) -> int:
    """A data-center size comfortably above the trace's peak."""
    peak = float(np.max(np.asarray(loads, dtype=np.float64)))
    return max(int(math.ceil(peak * slack)), 1)


def instance_from_loads(loads, m: int, beta: float, *,
                        energy: float = 1.0, delay_weight: float = 2.0,
                        sla_penalty: float = 0.0) -> Instance:
    """General-model instance from a load trace.

    ``f_t(x) = energy * x + delay_weight * QueueingDelay(load_t)(x)
    [+ sla_penalty * (load_t - x)^+]`` — convex in ``x`` (sum of convex
    parts), non-negative, and exhibiting the tension the paper studies:
    few servers are cheap on energy but expensive on latency.

    The ``(T, m+1)`` table is built in one broadcast pass of the shared
    cost formulas over a ``(T, 1)`` loads column and the ``(m+1,)``
    state row; every cell is bit-identical to tabulating the per-step
    ``SumCost(AffineEnergyCost, QueueingDelayCost[, SLAHingeCost])``.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 1:
        raise ValueError(f"loads must be 1-D, got shape {loads.shape}")
    if not np.all(loads >= 0):
        raise ValueError("loads must be non-negative numbers")
    if np.any(loads > m):
        raise ValueError("m must be at least the peak load")
    if not delay_weight >= 0:
        raise ValueError("delay_weight must be non-negative")
    states = np.arange(m + 1, dtype=np.float64)
    energy_row = AffineEnergyCost(energy)(states)
    F = _queueing_delay(states, loads[:, None], delay_weight, 1.0)
    # SumCost order: energy, then delay (IEEE addition commutes), then SLA
    F += energy_row
    if sla_penalty > 0:
        F += _sla_hinge(states, loads[:, None], sla_penalty)
    return Instance(beta=beta, F=F)


def default_server_cost(e0: float = 1.0, e1: float = 1.0):
    """Per-server utilization cost ``f(z) = e0 + e1 * z^2`` (convex,
    increasing on [0, 1]) for the restricted model."""

    def f(z: float) -> float:
        return e0 + e1 * z * z

    return f


def restricted_from_loads(loads, m: int, beta: float,
                          f=None) -> RestrictedInstance:
    """Restricted-model instance (eq. (2)) from a load trace."""
    if f is None:
        f = default_server_cost()
    return RestrictedInstance(beta=beta, m=m, f=f,
                              loads=np.asarray(loads, dtype=np.float64))
