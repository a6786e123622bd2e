"""Parameter-sweep harness used by the benchmarks.

A sweep is the cartesian product of parameter axes; each grid point is
evaluated in-process by a user function returning a dict of
measurements, and the results are collected as a list of flat row dicts
ready for :mod:`repro.analysis.tables`.  Points are never cached or
farmed out, so wall-clock timings measured inside ``fn`` are always
fresh.  For named (scenario x algorithm) grids with a pool, a job cache
or a result sink, use :func:`repro.runner.run_grid`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

__all__ = ["sweep"]


def sweep(fn: Callable[..., Mapping],
          grid: Mapping[str, Sequence]) -> list[dict]:
    """Evaluate ``fn(**point)`` on every point of the parameter grid.

    ``grid`` maps parameter names to value lists; each returned row
    merges the grid point with ``fn``'s measurement dict, in
    grid-product order.  A measurement key that collides with a grid
    key raises :class:`ValueError`; an empty axis gives ``[]``.
    """
    names = list(grid)
    rows = []
    for values in itertools.product(*(grid[n] for n in names)):
        point = dict(zip(names, values))
        result = dict(fn(**point))
        clash = set(point) & set(result)
        if clash:
            raise ValueError(f"measurement keys collide with grid: {clash}")
        rows.append({**point, **result})
    return rows
