"""Convex operating-cost functions for the data-center optimization problem.

The paper models the operating cost of a data center at time ``t`` by a
non-negative convex function ``f_t`` evaluated on the number of active
servers.  This module provides a toolkit of such functions:

* elementary shapes used by the theory (absolute-value "hinge" functions
  ``phi_0(x) = eps*|x|`` and ``phi_1(x) = eps*|1-x|`` from Section 5),
* realistic data-center cost models (energy + latency penalty, SLA hinge)
  in the spirit of Lin et al.'s evaluation,
* the restricted model's perspective cost ``x * f(lambda/x)`` (eq. (2)),
* generic wrappers (tabulated values, sums, scaling, shifting).

Every cost function is a callable ``f(j) -> float`` on integer states and
additionally supports vectorized evaluation on NumPy arrays.  Solvers never
call these objects in their inner loops; instead they *tabulate* the values
into a dense ``(T, m+1)`` float64 matrix once (see :func:`tabulate`) and run
vectorized kernels on it, following the repository's HPC conventions.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CostFunction",
    "AbsCost",
    "phi0",
    "phi1",
    "PiecewiseLinearCost",
    "QuadraticCost",
    "AffineEnergyCost",
    "QueueingDelayCost",
    "SLAHingeCost",
    "TabulatedCost",
    "PerspectiveCost",
    "ScaledCost",
    "SumCost",
    "ConstantCost",
    "tabulate",
    "tabulate_many",
    "is_convex_table",
    "assert_convex_table",
    "check_cost_matrix",
]


class CostFunction:
    """Base class for operating-cost functions ``f : {0..m} -> R>=0``.

    Subclasses implement :meth:`_evaluate` on a float/array argument.
    Instances are immutable and hashable so they can be shared freely
    between problem instances.
    """

    def _evaluate(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x):
        """Evaluate the cost at ``x`` (scalar or ndarray)."""
        return self._evaluate(np.asarray(x, dtype=np.float64))

    def table(self, m: int) -> np.ndarray:
        """Tabulate values on the integer states ``0..m`` (inclusive)."""
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        return np.asarray(self._evaluate(np.arange(m + 1, dtype=np.float64)),
                          dtype=np.float64)


@dataclasses.dataclass(frozen=True)
class AbsCost(CostFunction):
    """``f(x) = slope * |x - center|`` — the adversarial hinge of Section 5.

    ``AbsCost(0.0, eps)`` is the paper's ``phi_0`` and ``AbsCost(1.0, eps)``
    is ``phi_1``.  Convex for any ``center`` and ``slope >= 0``.
    """

    center: float
    slope: float

    def __post_init__(self):
        if self.slope < 0:
            raise ValueError("slope must be non-negative")

    def _evaluate(self, x):
        return self.slope * np.abs(x - self.center)


def phi0(eps: float) -> AbsCost:
    """The adversary function ``phi_0(x) = eps * |x|`` (Section 5)."""
    return AbsCost(0.0, eps)


def phi1(eps: float) -> AbsCost:
    """The adversary function ``phi_1(x) = eps * |1 - x|`` (Section 5)."""
    return AbsCost(1.0, eps)


@dataclasses.dataclass(frozen=True)
class PiecewiseLinearCost(CostFunction):
    """Convex piecewise-linear cost from breakpoints.

    Defined by value ``value0`` at ``x = 0`` and a nondecreasing sequence of
    ``slopes``; the slope on ``[i, i+1]`` is ``slopes[min(i, len-1)]`` (the
    last slope extends to infinity).  Convexity is validated on creation.
    """

    value0: float
    slopes: tuple

    def __init__(self, value0: float, slopes: Sequence[float]):
        slopes = tuple(float(s) for s in slopes)
        if not slopes:
            raise ValueError("need at least one slope")
        if any(b < a - 1e-12 for a, b in zip(slopes, slopes[1:])):
            raise ValueError("slopes must be nondecreasing for convexity")
        object.__setattr__(self, "value0", float(value0))
        object.__setattr__(self, "slopes", slopes)

    def _evaluate(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        slopes = np.asarray(self.slopes)
        # Cumulative values at integer breakpoints 0..k.
        knots = np.concatenate([[0.0], np.cumsum(slopes)]) + self.value0
        idx = np.clip(np.floor(x).astype(np.int64), 0, len(slopes) - 1)
        frac = x - idx
        out = knots[idx] + frac * slopes[idx]
        return out if out.size > 1 else float(out[0])


# ---------------------------------------------------------------------------
# Shared formulas.  The cost classes evaluate one row through these; the
# trace builders (repro.workloads.instance_from_loads, the hetero-mix
# scenario) call them once on a (T, 1) parameter column against a
# (1, m+1) state row.  One code path means one IEEE op sequence per cell,
# so the whole-table result is bit-identical to the per-row tables.
# ---------------------------------------------------------------------------

def _quadratic(x, a, x0, b):
    """``a * (x - x0)^2 + b`` (the :class:`QuadraticCost` formula)."""
    return a * (x - x0) ** 2 + b


def _sla_hinge(x, required, penalty):
    """``penalty * (required - x)^+`` (the :class:`SLAHingeCost` formula)."""
    return penalty * np.maximum(required - x, 0.0)


def _queueing_delay(x, load, weight, headroom):
    """The :class:`QueueingDelayCost` formula, broadcast over the states
    ``x`` and a scalar or array ``load`` (``weight`` and ``headroom`` are
    scalars).

    The square is ``np.float_power(d, 2.0)``, i.e. libm ``pow`` — what a
    Python-float ``d ** 2`` computes.  NumPy's array ``** 2`` is an exact
    square instead and differs by one ulp on some loads
    (``load = 7.144274390888516``), so it must not be used here.
    At most two result-sized float buffers are live at once.
    """
    x = np.asarray(x, dtype=np.float64)
    lo = np.ceil(load)
    d = lo - load + headroom
    wl = weight * load
    # Linear extension below ceil(load): continue with the (negative)
    # slope of the hyperbola at lo so second differences stay >= 0.
    slope_at_lo = -wl / np.float_power(d, 2.0)
    value_at_lo = wl / d
    out = np.empty(np.broadcast_shapes(x.shape, np.shape(lo)))
    np.maximum(x, lo, out=out)
    out -= load
    out += headroom
    np.divide(wl, out, out=out)
    below = x < lo
    ext = np.subtract(x, lo)
    ext *= slope_at_lo
    ext += value_at_lo
    np.copyto(out, ext, where=below)
    return out


@dataclasses.dataclass(frozen=True)
class QuadraticCost(CostFunction):
    """``f(x) = a*(x - x0)^2 + b`` with ``a >= 0`` — strongly convex bowl."""

    a: float
    x0: float
    b: float = 0.0

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("quadratic coefficient must be non-negative")

    def _evaluate(self, x):
        return _quadratic(x, self.a, self.x0, self.b)


@dataclasses.dataclass(frozen=True)
class AffineEnergyCost(CostFunction):
    """``f(x) = idle_power * x + base`` — energy cost of ``x`` active servers.

    Models the observation that an idle active server burns roughly half of
    its peak power; convex (linear).  Typically combined with a latency
    penalty via :class:`SumCost`.
    """

    idle_power: float
    base: float = 0.0

    def __post_init__(self):
        if self.idle_power < 0 or self.base < 0:
            raise ValueError("power coefficients must be non-negative")

    def _evaluate(self, x):
        return self.idle_power * x + self.base


@dataclasses.dataclass(frozen=True)
class QueueingDelayCost(CostFunction):
    """Latency penalty ``f(x) = weight * load / (x - load + headroom)``.

    A smoothed M/M/1-style mean-delay penalty for serving ``load`` units of
    work with ``x`` servers; ``headroom > 0`` keeps the function finite at
    ``x = ceil(load)``.  For ``x < load`` the function is extended linearly
    with the steepest finite slope so that it remains convex and finite on
    all of ``{0..m}`` (an overloaded configuration is very expensive but the
    optimization stays well posed).
    """

    load: float
    weight: float = 1.0
    headroom: float = 1.0

    def __post_init__(self):
        if not 0 <= self.load < math.inf:
            raise ValueError("load must be non-negative and finite")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if self.headroom <= 0:
            raise ValueError("headroom must be positive")

    def _evaluate(self, x):
        return _queueing_delay(x, self.load, self.weight, self.headroom)


@dataclasses.dataclass(frozen=True)
class SLAHingeCost(CostFunction):
    """``f(x) = penalty * (required - x)^+`` — SLA violation hinge.

    Charges a linear penalty for every server short of ``required``.
    Convex; zero once capacity meets the requirement.
    """

    required: float
    penalty: float

    def __post_init__(self):
        if self.penalty < 0:
            raise ValueError("penalty must be non-negative")

    def _evaluate(self, x):
        return _sla_hinge(x, self.required, self.penalty)


@dataclasses.dataclass(frozen=True)
class ConstantCost(CostFunction):
    """``f(x) = c`` — constant operating cost (state-independent)."""

    c: float = 0.0

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("constant cost must be non-negative")

    def _evaluate(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.full_like(x, self.c)


class TabulatedCost(CostFunction):
    """Cost given by explicit values on states ``0..m``.

    Evaluation between integers linearly interpolates (this is exactly the
    continuous extension ``f-bar`` of eq. (3)); beyond ``m`` the last slope
    is extended.  ``validate=True`` checks convexity of the table.
    """

    def __init__(self, values: Sequence[float], validate: bool = True):
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a non-empty 1-D sequence")
        if np.any(vals < -1e-12):
            raise ValueError("operating costs must be non-negative")
        if validate:
            assert_convex_table(vals)
        self._values = vals
        self._values.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def _evaluate(self, x):
        v = self._values
        if v.size == 1:
            return np.full_like(np.asarray(x, dtype=np.float64), v[0])
        x = np.asarray(x, dtype=np.float64)
        return np.interp(x, np.arange(v.size, dtype=np.float64), v,
                         left=None, right=None) + self._extrapolate(x)

    def _extrapolate(self, x):
        # np.interp clamps outside the range; add the linear continuation.
        v = self._values
        n = v.size - 1
        lo_slope = v[1] - v[0]
        hi_slope = v[n] - v[n - 1]
        out = np.zeros_like(x)
        out = np.where(x < 0, lo_slope * x, out)
        out = np.where(x > n, hi_slope * (x - n), out)
        return out

    def __repr__(self):
        return f"TabulatedCost(<{self._values.size} values>)"


@dataclasses.dataclass(frozen=True)
class PerspectiveCost(CostFunction):
    """Restricted-model operating cost ``F(x) = x * f(load / x)`` (eq. (2)).

    ``f`` is the convex per-server cost of running at utilization
    ``z = load/x in [0, 1]``.  The perspective of a convex function is
    convex, so ``F`` is convex on ``x >= load``.  States ``x < load`` are
    infeasible in the restricted model; they are extended with a steep
    convex linear penalty (slope ``-penalty_slope``) so the function stays
    finite, convex and strongly discourages infeasible states.  ``F(0)`` is
    defined as the extension value (the state 0 with positive load is
    infeasible).
    """

    f: Callable[[float], float]
    load: float
    penalty_slope: float = 1e9

    def __post_init__(self):
        if self.load < 0:
            raise ValueError("load must be non-negative")
        if self.penalty_slope <= 0:
            raise ValueError("penalty_slope must be positive")

    def _feasible_value(self, x: float) -> float:
        if x == 0:
            return 0.0 if self.load == 0 else math.inf
        return x * float(self.f(self.load / x))

    def _evaluate(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        # Smallest feasible integer state (>= 1 whenever the load is
        # positive, since state 0 cannot serve any load).
        lo = max(int(math.ceil(self.load - 1e-12)), 1 if self.load > 0 else 0)
        anchor = self._feasible_value(float(lo))
        out = np.empty_like(x)
        for i, xi in enumerate(x):
            if xi >= lo:
                out[i] = self._feasible_value(float(xi))
            else:
                out[i] = anchor + self.penalty_slope * (lo - xi)
        return out if out.size > 1 else float(out[0])


@dataclasses.dataclass(frozen=True)
class ScaledCost(CostFunction):
    """``g(x) = scale * f(x)`` — weight an existing cost function."""

    inner: CostFunction
    scale: float

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be non-negative")

    def _evaluate(self, x):
        return self.scale * np.asarray(self.inner(x), dtype=np.float64)


class SumCost(CostFunction):
    """``g(x) = sum_i f_i(x)`` — combine cost components (energy + delay)."""

    def __init__(self, *parts: CostFunction):
        if not parts:
            raise ValueError("need at least one component")
        self._parts = tuple(parts)

    @property
    def parts(self) -> tuple:
        return self._parts

    def _evaluate(self, x):
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros_like(x)
        for p in self._parts:
            total = total + np.asarray(p(x), dtype=np.float64)
        return total

    def __repr__(self):
        return f"SumCost({', '.join(map(repr, self._parts))})"


# ---------------------------------------------------------------------------
# Tabulation and validation helpers
# ---------------------------------------------------------------------------

def tabulate(f, m: int) -> np.ndarray:
    """Tabulate a cost function (or plain callable) on states ``0..m``."""
    if isinstance(f, CostFunction):
        return f.table(m)
    xs = np.arange(m + 1, dtype=np.float64)
    try:
        vals = np.asarray(f(xs), dtype=np.float64)
        if vals.shape == xs.shape:
            return vals
    except Exception:
        pass
    return np.array([float(f(int(x))) for x in xs], dtype=np.float64)


def tabulate_many(fs: Sequence, m: int) -> np.ndarray:
    """Tabulate ``T`` cost functions into a C-contiguous ``(T, m+1)`` matrix."""
    if len(fs) == 0:
        return np.zeros((0, m + 1), dtype=np.float64)
    return np.ascontiguousarray(np.stack([tabulate(f, m) for f in fs]))


def is_convex_table(values: np.ndarray, tol: float = 1e-9) -> bool:
    """Check discrete convexity: second differences ``>= -tol``.

    A table ``v`` on ``0..m`` is convex iff
    ``v[j+1] - v[j] >= v[j] - v[j-1]`` for all interior ``j``.  Tolerance is
    relative to the magnitude of the values involved.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size <= 2:
        return True
    d2 = np.diff(v, n=2)
    scale = np.maximum(1.0, np.max(np.abs(v)))
    return bool(np.all(d2 >= -tol * scale))


def assert_convex_table(values: np.ndarray, tol: float = 1e-9) -> None:
    """Raise ``ValueError`` if the tabulated function is not convex."""
    if not is_convex_table(values, tol):
        v = np.asarray(values, dtype=np.float64)
        d2 = np.diff(v, n=2)
        j = int(np.argmin(d2))
        raise ValueError(
            f"cost table is not convex: second difference {d2[j]:.3g} < 0 "
            f"at state {j + 1}")


def check_cost_matrix(F: np.ndarray, *, require_convex: bool = True,
                      tol: float = 1e-9) -> np.ndarray:
    """Validate a ``(T, m+1)`` operating-cost matrix.

    Checks dtype/shape, non-negativity and (optionally) row-wise convexity.
    Returns the matrix as a C-contiguous float64 array.
    """
    F = np.ascontiguousarray(np.asarray(F, dtype=np.float64))
    if F.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D (T, m+1), got shape {F.shape}")
    if F.shape[1] < 1:
        raise ValueError("cost matrix needs at least the state-0 column")
    if F.shape[0] == 0:
        return F
    finite = np.isfinite(F)
    if not finite.all():
        t, j = np.unravel_index(int(np.argmin(finite)), F.shape)
        raise ValueError(f"cost matrix contains non-finite values: "
                         f"F[{t}, {j}] = {float(F[t, j])}")
    if np.any(F < -tol):
        raise ValueError("operating costs must be non-negative")
    if require_convex and F.shape[1] > 2:
        d2 = np.diff(F, n=2, axis=1)
        scale = np.maximum(1.0, np.max(np.abs(F)))
        if not np.all(d2 >= -tol * scale):
            t, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
            raise ValueError(
                f"row {t} of the cost matrix is not convex at state {j + 1}")
    return F
