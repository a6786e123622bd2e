"""Whole-table tabulation of the trace scenarios is bit-identical to the
per-row cost objects.

``instance_from_loads`` and the hetero-mix scenario build their
``(T, m+1)`` tables in one broadcast pass of the shared cost formulas;
the reference here tabulates one ``SumCost`` per time step exactly as
the builders did before.  Tables are compared bitwise (``uint64``
views), never with a tolerance: an ulp of drift changes result rows.

The horizons include T=1000 and T=10000 because a short trace may not
contain a load on which libm ``pow(d, 2)`` and the exact square ``d*d``
differ, so only long traces guard the ``np.float_power`` choice.
"""

import math

import numpy as np
import pytest

import repro.workloads as workloads
from repro.core.costs import (AffineEnergyCost, QuadraticCost,
                              QueueingDelayCost, SLAHingeCost, SumCost,
                              check_cost_matrix)
from repro.core.instance import Instance
from repro.runner.scenarios import build_instance
from repro.workloads import instance_from_loads

#: every scenario whose general-model builder goes through
#: ``instance_from_loads``
LOADS_SCENARIOS = ("diurnal", "msr-like", "hotmail-like", "bursty",
                   "onoff", "sawtooth", "regime-switching", "case-msr",
                   "case-hotmail")


def per_row_table(loads, m, beta, *, energy=1.0, delay_weight=2.0,
                  sla_penalty=0.0):
    """The per-step ``SumCost`` reference of ``instance_from_loads``."""
    fs = []
    for lam in loads:
        parts = [AffineEnergyCost(energy),
                 QueueingDelayCost(float(lam), weight=delay_weight)]
        if sla_penalty > 0:
            parts.append(SLAHingeCost(float(lam), sla_penalty))
        fs.append(SumCost(*parts))
    return Instance.from_functions(fs, m, beta).F


def per_row_hetero_mix(loads, m, beta):
    """The per-step reference of the hetero-mix scenario (``t % 3``)."""
    fs = []
    for t, lam in enumerate(loads):
        lam = float(lam)
        body = (QueueingDelayCost(lam, weight=10.0), QuadraticCost(0.5, lam),
                SLAHingeCost(lam, 8.0))[t % 3]
        fs.append(SumCost(AffineEnergyCost(1.0), body))
    return Instance.from_functions(fs, m, beta).F


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    diff = a.view(np.uint64) != b.view(np.uint64)
    if diff.any():
        t, j = np.argwhere(diff)[0]
        pytest.fail(f"{int(diff.sum())} cells differ; first F[{t}, {j}]: "
                    f"{a[t, j]!r} != {b[t, j]!r}")


@pytest.fixture
def spy(monkeypatch):
    """Record the arguments scenario builders pass to the workloads
    module (the builders import it at call time)."""
    calls = {}

    def record(name):
        real = getattr(workloads, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            calls[name] = (args, kwargs, out)
            return out

        monkeypatch.setattr(workloads, name, wrapper)

    record("instance_from_loads")
    record("diurnal_loads")
    return calls


class TestScenarioTables:
    @pytest.mark.parametrize("T", [1, 1000, 10_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", LOADS_SCENARIOS)
    def test_loads_scenarios_match_per_row(self, spy, name, seed, T):
        inst = build_instance(name, T, seed)
        (loads,), kwargs, _ = spy["instance_from_loads"]
        assert inst.T == T
        assert_bitwise_equal(inst.F, per_row_table(loads, **kwargs))

    @pytest.mark.parametrize("T", [1, 2, 3, 1000, 10_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hetero_mix_matches_per_row(self, spy, seed, T):
        inst = build_instance("hetero-mix", T, seed)
        loads = spy["diurnal_loads"][2]
        assert_bitwise_equal(inst.F,
                             per_row_hetero_mix(loads, inst.m, inst.beta))


class TestInstanceFromLoads:
    def test_sla_penalty(self):
        loads = np.random.default_rng(5).uniform(0.0, 20.0, 2000)
        inst = instance_from_loads(loads, m=24, beta=3.0, energy=0.7,
                                   delay_weight=6.0, sla_penalty=2.5)
        assert_bitwise_equal(inst.F, per_row_table(
            loads, 24, 3.0, energy=0.7, delay_weight=6.0, sla_penalty=2.5))

    def test_integer_and_zero_loads(self):
        loads = np.array([0.0, 1.0, 3.0, 0.0, 8.0, 5.0, 2.5])
        inst = instance_from_loads(loads, m=8, beta=1.0, sla_penalty=1.0)
        assert_bitwise_equal(inst.F, per_row_table(loads, 8, 1.0,
                                                   sla_penalty=1.0))
        assert inst.F[0].tolist() == [float(j) for j in range(9)]

    def test_pow_not_square(self):
        """Pinned against a pure-Python-float evaluation: on this load
        libm ``d ** 2`` and the exact square ``d * d`` differ by an ulp,
        so building the extension slope with NumPy's ``** 2`` fails."""
        load, w, h, m = 7.144274390888516, 2.0, 1.0, 12
        lo = math.ceil(load)
        d = lo - load + h
        slope, value = -w * load / d ** 2, w * load / d
        expected = []
        for j in range(m + 1):
            delay = (value + (j - lo) * slope if j < lo
                     else w * load / (max(j, lo) - load + h))
            expected.append(0.0 + (1.0 * j + 0.0) + delay)
        for loads in (np.array([load]), np.full(1000, load)):
            F = instance_from_loads(loads, m=m, beta=1.0).F
            assert_bitwise_equal(F, np.tile(expected, (loads.size, 1)))


class TestValidationParity:
    """Invalid inputs raise ``ValueError`` from the whole-table builder,
    as they did from the per-row cost objects."""

    @pytest.mark.parametrize("kwargs", [
        {"loads": [1.0, -0.5, 2.0]},
        {"loads": [1.0, float("nan"), 2.0]},
        {"loads": [1.0, 9.0]},
        {"energy": -1.0},
        {"delay_weight": -2.0},
    ])
    def test_rejected(self, kwargs):
        args = {"loads": [1.0, 2.0, 3.0], "m": 8, "beta": 1.0, **kwargs}
        loads = np.asarray(args.pop("loads"))
        with pytest.raises(ValueError):
            instance_from_loads(loads, **args)

    def test_cost_objects_reject_nan_load(self):
        with pytest.raises(ValueError):
            QueueingDelayCost(float("nan")).table(4)


class TestNonFiniteCell:
    def test_error_names_first_cell(self):
        F = np.ones((4, 5))
        F[2, 3] = np.inf
        F[3, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite.*F\[2, 3\] = inf"):
            check_cost_matrix(F)

    def test_instance_rejects_nan_cell(self):
        F = np.zeros((2, 3))
        F[1, 1] = np.nan
        with pytest.raises(ValueError, match=r"F\[1, 1\] = nan"):
            Instance(beta=1.0, F=F)
