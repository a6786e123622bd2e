"""Vectorized work-function kernel: one pass over the cost table.

With the compiled loops available (:func:`repro.kernels.native.loops`),
the whole sweep is one C pass (``workfunction_sweep``) that keeps three
``(m+1)`` rows of the ``hat-C^L`` recurrence live and reads each row's
bounds as it is written, so neither the ``(T, m+1)`` work-function
table nor its Lemma 7 shift is ever materialized.

Without a compiler the NumPy loop below runs instead: it writes the
full ``(T, m+1)`` table ``D`` with six in-place ufunc calls per step and
then extracts *every* per-step bound pair with two table-wide
``argmin`` passes:

* ``lo[t] = argmin_first(D[t])`` is ``D.argmin(axis=1)`` (NumPy's
  ``argmin`` returns the first minimizer);
* ``hi[t] = argmin_last(D[t] - beta x)`` is read off a reversed view of
  the Lemma 7 table ``D - beta x``.

The NumPy loop is also the byte reference of the compiled pass.  Every
floating-point operation of both is the *same operation in the same
order* as the scalar reference (commutative reorderings of
``+``/``min`` operands excepted, which are bit-exact for IEEE doubles),
so the results are bit-identical — the contract ``docs/KERNELS.md``
spells out and ``tests/test_kernels.py`` enforces.
"""

from __future__ import annotations

import numpy as np

from . import native

__all__ = ["sweep_workfunction"]


def sweep_workfunction(costs: np.ndarray, beta: float):
    """Whole-table ``O(T m)`` sweep over a ``(T, m+1)`` cost table."""
    from . import SweepResult
    F = np.asarray(costs, dtype=np.float64)
    T, m = F.shape[0], F.shape[1] - 1
    if T == 0:
        empty = np.empty(0, dtype=np.int64)
        return SweepResult(lo=empty, hi=empty, opt=0.0)
    states = np.arange(m + 1, dtype=np.float64)
    bstates = beta * states
    lib = native.loops()
    if lib is not None:
        if F.ndim != 2 or m < 0:
            raise ValueError("cost table must be (T, m+1) with m >= 0")
        # no copy for the store's C-contiguous float64 mmap
        F = np.ascontiguousarray(F)
        rows = np.empty(3 * (m + 1), dtype=np.float64)
        lo = np.empty(T, dtype=np.int64)
        hi = np.empty(T, dtype=np.int64)
        lib.workfunction_sweep(T, m, F, bstates, rows, lo, hi)
        return SweepResult(lo=lo, hi=hi, opt=float(rows[:m + 1].min()))
    D = np.empty((T, m + 1), dtype=np.float64)
    # tau = 1: hat-C^L_1(x) = f_1(x) + beta x  (x_0 = 0)
    np.add(F[0], bstates, out=D[0])
    buf = np.empty(m + 1, dtype=np.float64)
    acc = np.minimum.accumulate
    sub, add, mini = np.subtract, np.add, np.minimum
    # Hoist all row views out of the hot loop: ufunc dispatch is the
    # only remaining per-step Python cost.
    rows, rows_r, frows = list(D), list(D[:, ::-1]), list(F)
    prev, prev_r = rows[0], rows_r[0]
    for t in range(1, T):
        cur, cur_r = rows[t], rows_r[t]
        # up = beta x + prefix_min(prev - beta x)
        sub(prev, bstates, out=buf)
        acc(buf, out=buf)
        add(buf, bstates, out=buf)
        # down = suffix_min(prev), written via reversed views
        acc(prev_r, out=cur_r)
        # D[t] = f_t + min(up, down)
        mini(buf, cur, out=cur)
        add(cur, frows[t], out=cur)
        prev, prev_r = cur, cur_r
    # Bounds, whole-table: x^L = first minimizer of hat-C^L, x^U = last
    # minimizer of hat-C^U = hat-C^L - beta x (Lemma 7).
    lo = D.argmin(axis=1)
    CU = D - bstates
    hi = m - CU[:, ::-1].argmin(axis=1)
    opt = float(D[-1].min())
    return SweepResult(lo=lo.astype(np.int64, copy=False),
                       hi=hi.astype(np.int64, copy=False), opt=opt)
