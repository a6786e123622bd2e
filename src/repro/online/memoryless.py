"""Memoryless move-toward-minimizer baseline.

Bansal et al. [7] give a 3-competitive *memoryless* algorithm for the
continuous setting and show no deterministic memoryless algorithm does
better.  The classic shape of that algorithm — the comparison baseline
used here — moves from the previous point toward the arriving function's
minimizer and stops where the incurred movement cost balances the hitting
cost at the stopping point:

``(beta/2) * |x_t - x_{t-1}| = f-bar_t(x_t)``   (or at the minimizer,
whichever is reached first),

with the symmetric Section 5 movement convention (``beta/2`` per unit in
each direction).  The balance point is computed exactly: ``f-bar_t`` is
piecewise linear, so the crossing cell is located by scanning integer
breakpoints and solved in closed form.

This is a *baseline* (its constant is not re-derived here); the
benchmarks use it to show LCP's laziness beating eager balancing on
natural traces, and the lower-bound games drive its ratio toward the
memoryless barrier.
"""

from __future__ import annotations

import math

import numpy as np

from .._util import argmin_first, argmin_last
from ..kernels import native
from .base import OnlineAlgorithm

__all__ = ["MemorylessBalance"]


class MemorylessBalance(OnlineAlgorithm):
    """Fractional memoryless balance algorithm (baseline)."""

    fractional = True
    name = "memoryless"

    def reset(self, m: int, beta: float) -> None:
        """Prepare for a fresh instance with states ``0..m``."""
        self.m = m
        self.beta = beta
        self._set_state(0.0)

    def _fbar(self, f_row: np.ndarray, x: float) -> float:
        """Piecewise-linear extension ``f-bar_t(x)`` on the integer grid.

        A scalar two-point interpolation.  The compiled walk behind
        :meth:`run_table` repeats these operations in the same order
        (``fbar`` in ``kernels/_seqloops.c``), which keeps the two paths
        bit-identical.
        """
        i = int(x)
        if i >= self.m:
            return float(f_row[self.m])
        y0 = float(f_row[i])
        return y0 + (x - i) * (float(f_row[i + 1]) - y0)

    def step(self, f_row: np.ndarray, future: np.ndarray | None = None) -> float:
        f_row = np.asarray(f_row, dtype=np.float64)
        return self._step_core(f_row, argmin_first(f_row),
                               argmin_last(f_row))

    def run_table(self, F: np.ndarray):
        """Whole-trajectory balance walk, or ``None``.

        Hoists the per-row minimizer-plateau ends (two table-wide
        ``argmin`` passes) out of the loop; the walk itself runs as one
        compiled loop (:mod:`repro.kernels.native`) that transcribes
        :meth:`_step_core` operation for operation.  Declines (the
        harness then steps :meth:`step`) without the compiled loops.
        """
        lib = native.loops()
        if lib is None:
            return None
        F = np.ascontiguousarray(F, dtype=np.float64)
        T, last = F.shape[0], F.shape[1] - 1
        lo = F.argmin(axis=1).astype(np.int64)
        hi = last - F[:, ::-1].argmin(axis=1).astype(np.int64)
        out = np.empty(T, dtype=np.float64)
        lib.memoryless_walk(T, last, F, lo, hi, float(self.beta),
                            float(self.state), out)
        if T:
            self._set_state(float(out[-1]))
        return out

    def _step_core(self, f_row: np.ndarray, lo_min: int,
                   hi_min: int) -> float:
        """One balance step given the row's minimizer-plateau ends."""
        x = float(self.state)
        if lo_min <= x <= hi_min:
            # Already on the minimizer plateau: both movement and excess
            # hitting cost are zero-slope; stay.
            self._set_state(x)
            return x
        # Move toward the nearest end of the minimizer plateau.
        target = float(lo_min) if x < lo_min else float(hi_min)
        unit = 0.5 * self.beta
        direction = 1.0 if target > x else -1.0
        # Balance h(y) = unit * |y - x| - fbar(y); h is increasing along
        # the segment toward the minimizer (movement grows, hitting
        # shrinks), so the first sign change pins the balance point.
        cells = [x]
        step_int = math.floor(x) + 1 if direction > 0 else math.ceil(x) - 1
        y = float(step_int)
        while (direction > 0 and y < target) or (direction < 0 and y > target):
            cells.append(y)
            y += direction
        cells.append(target)
        h_prev = unit * 0.0 - self._fbar(f_row, x)
        y_prev = x
        chosen = target
        if h_prev >= 0.0:
            chosen = x
        else:
            for y in cells[1:]:
                h = unit * abs(y - x) - self._fbar(f_row, y)
                if h >= 0.0:
                    # Linear interpolation of the root inside the cell.
                    frac = -h_prev / (h - h_prev)
                    chosen = y_prev + frac * (y - y_prev)
                    break
                h_prev, y_prev = h, y
            else:
                chosen = target
        chosen = min(max(chosen, 0.0), float(self.m))
        self._set_state(chosen)
        return chosen
