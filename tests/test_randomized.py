"""Tests for the Section 4 randomized rounding (Lemmas 18–20, Theorem 3)."""

import numpy as np
import pytest

from repro import kernels
from repro.analysis import optimal_cost
from repro.core.schedule import interp_operating
from repro.online import (RandomizedRounding, ThresholdFractional, ceil_star,
                          exact_rounding_distribution, expected_cost_exact,
                          run_online, sample_rounding, transition_prob_up)
from tests.conftest import random_convex_instance


def random_fractional_schedule(rng, T, m):
    """A generic fractional schedule (bounded random walk in [0, m])."""
    x = np.empty(T)
    cur = 0.0
    for t in range(T):
        cur = float(np.clip(cur + rng.uniform(-1.5, 1.5), 0.0, m))
        # Occasionally land exactly on integers to hit the edge cases.
        if rng.random() < 0.25:
            cur = float(np.round(cur))
        x[t] = cur
    return x


def frac(x):
    return x - np.floor(x)


class TestCeilStar:
    def test_fractional_argument(self):
        assert ceil_star(2.3) == 3

    def test_integral_argument_shifts_up(self):
        """ceil*(n) = n + 1 on integers (Section 4.1)."""
        assert ceil_star(2.0) == 3
        assert ceil_star(0.0) == 1

    def test_identity_floor_plus_one(self):
        for x in (0.0, 0.4, 1.0, 1.999, 5.5):
            assert ceil_star(x) == int(np.floor(x)) + 1


class TestLemma18:
    def test_upper_probability_equals_frac(self):
        """P[x_t = ceil*(x-bar_t)] = frac(x-bar_t) — exact propagation."""
        rng = np.random.default_rng(110)
        for _ in range(30):
            T, m = int(rng.integers(1, 40)), int(rng.integers(1, 8))
            xbars = random_fractional_schedule(rng, T, m)
            dist = exact_rounding_distribution(xbars)
            np.testing.assert_allclose(dist.p_upper, frac(xbars), atol=1e-9)

    def test_support_brackets_fractional_state(self):
        rng = np.random.default_rng(111)
        xbars = random_fractional_schedule(rng, 25, 5)
        dist = exact_rounding_distribution(xbars)
        assert np.all(dist.lowers <= xbars + 1e-9)
        assert np.all(dist.uppers >= xbars - 1e-9)
        np.testing.assert_array_equal(dist.uppers, dist.lowers + 1)


class TestLemma19:
    def test_expected_operating_equals_fractional(self):
        rng = np.random.default_rng(112)
        for _ in range(20):
            T, m = int(rng.integers(1, 25)), int(rng.integers(1, 7))
            inst = random_convex_instance(rng, T, m, 1.0)
            xbars = random_fractional_schedule(rng, T, m)
            res = expected_cost_exact(inst, xbars)
            assert res["operating"] == pytest.approx(
                res["fractional_operating"], abs=1e-9)

    def test_operating_matches_interp_row_by_row(self):
        rng = np.random.default_rng(113)
        inst = random_convex_instance(rng, 10, 4, 1.0)
        xbars = random_fractional_schedule(rng, 10, 4)
        dist = exact_rounding_distribution(xbars)
        per_step = interp_operating(inst.F, xbars)
        for t in range(10):
            lo, up, p = dist.lowers[t], dist.uppers[t], dist.p_upper[t]
            f_up = inst.F[t, up] if up <= inst.m else 0.0
            got = (1 - p) * inst.F[t, lo] + p * f_up
            assert got == pytest.approx(per_step[t], abs=1e-9)


class TestLemma20:
    def test_expected_switching_equals_fractional_per_step(self):
        """E[(x_t - x_{t-1})^+] = (x-bar_t - x-bar_{t-1})^+ exactly."""
        rng = np.random.default_rng(114)
        for _ in range(30):
            T, m = int(rng.integers(1, 40)), int(rng.integers(1, 8))
            xbars = random_fractional_schedule(rng, T, m)
            dist = exact_rounding_distribution(xbars)
            d = np.diff(np.concatenate([[0.0], xbars]))
            np.testing.assert_allclose(dist.expected_up,
                                       np.maximum(d, 0.0), atol=1e-9)

    def test_total_expected_cost_equals_fractional(self):
        rng = np.random.default_rng(115)
        for _ in range(20):
            T, m = int(rng.integers(1, 25)), int(rng.integers(1, 7))
            inst = random_convex_instance(rng, T, m,
                                          float(rng.uniform(0.3, 4)))
            xbars = random_fractional_schedule(rng, T, m)
            res = expected_cost_exact(inst, xbars)
            assert res["total"] == pytest.approx(res["fractional_total"],
                                                 abs=1e-8)


class TestTheorem3:
    def test_rounded_threshold_is_two_competitive_in_expectation(self):
        rng = np.random.default_rng(116)
        for _ in range(25):
            inst = random_convex_instance(rng, int(rng.integers(1, 20)),
                                          int(rng.integers(1, 10)),
                                          float(rng.uniform(0.3, 4)))
            fr = run_online(inst, ThresholdFractional())
            res = expected_cost_exact(inst, fr.schedule)
            assert res["total"] <= 2 * optimal_cost(inst) + 1e-7


class TestKernel:
    def test_increasing_from_below(self):
        # x-bar: 0 -> 0.6; from state 0 the up-probability is frac = 0.6.
        assert transition_prob_up(0.0, 0.6, 0) == pytest.approx(0.6)

    def test_increasing_keep_upper(self):
        # Same cell, already up: keep.
        assert transition_prob_up(0.4, 0.6, 1) == pytest.approx(1.0)

    def test_increasing_from_lower_same_cell(self):
        # p-up = (0.6 - 0.4) / (1 - 0.4) = 1/3.
        assert transition_prob_up(0.4, 0.6, 0) == pytest.approx(1 / 3)

    def test_decreasing_keep_lower(self):
        assert transition_prob_up(0.8, 0.3, 0) == pytest.approx(0.0)

    def test_decreasing_from_upper_same_cell(self):
        # p-down = (0.8 - 0.3)/0.8; P(up) = 1 - p-down = 0.375.
        assert transition_prob_up(0.8, 0.3, 1) == pytest.approx(0.375)

    def test_decreasing_across_cells(self):
        # x-bar: 2.5 -> 0.4; projection clamps to ceil* = 1, in-cell pos 1;
        # p-down = (1 - 0.4)/1, so P(up) = 0.4 = frac — Lemma 18 shape.
        assert transition_prob_up(2.5, 0.4, 2) == pytest.approx(0.4)
        assert transition_prob_up(2.5, 0.4, 3) == pytest.approx(0.4)

    def test_increasing_across_cells(self):
        # x-bar: 0.2 -> 2.7; projection clamps to floor = 2;
        # p-up = (2.7 - 2)/(1 - 0) = 0.7 = frac.
        assert transition_prob_up(0.2, 2.7, 0) == pytest.approx(0.7)
        assert transition_prob_up(0.2, 2.7, 1) == pytest.approx(0.7)

    def test_integral_target_decreasing(self):
        # x-bar: 2.5 -> 2.0: always land on 2.
        assert transition_prob_up(2.5, 2.0, 2) == pytest.approx(0.0)
        assert transition_prob_up(2.5, 2.0, 3) == pytest.approx(0.0)

    def test_snap_tolerance(self):
        # A value within 1e-9 of an integer is treated as that integer.
        p = transition_prob_up(0.0, 1.0 - 1e-12, 0)
        assert p == pytest.approx(0.0)


class TestSampling:
    def test_samples_stay_in_support(self):
        rng = np.random.default_rng(117)
        xbars = random_fractional_schedule(rng, 60, 6)
        for seed in range(5):
            x = sample_rounding(xbars, np.random.default_rng(seed), m=7)
            assert np.all(x >= np.floor(xbars) - 1e-9)
            assert np.all(x <= np.floor(xbars) + 1)

    def test_marginals_match_lemma18(self):
        """Monte Carlo marginals converge to frac(x-bar)."""
        rng = np.random.default_rng(118)
        xbars = random_fractional_schedule(rng, 15, 4)
        n = 4000
        ups = np.zeros(15)
        for seed in range(n):
            x = sample_rounding(xbars, np.random.default_rng(1000 + seed))
            ups += (x == np.floor(xbars) + 1)
        np.testing.assert_allclose(ups / n, frac(xbars), atol=0.05)

    def test_online_wrapper_reproducible(self):
        rng = np.random.default_rng(119)
        inst = random_convex_instance(rng, 20, 6, 1.0)
        a = run_online(inst, RandomizedRounding(ThresholdFractional(), rng=7))
        b = run_online(inst, RandomizedRounding(ThresholdFractional(), rng=7))
        np.testing.assert_array_equal(a.schedule, b.schedule)

    def test_online_wrapper_expected_cost(self):
        """Mean sampled cost converges to the exact expectation."""
        rng = np.random.default_rng(120)
        inst = random_convex_instance(rng, 15, 5, 1.5)
        fr = run_online(inst, ThresholdFractional())
        exact = expected_cost_exact(inst, fr.schedule)["total"]
        from repro.core.schedule import cost
        total = 0.0
        n = 600
        for seed in range(n):
            res = run_online(inst,
                             RandomizedRounding(ThresholdFractional(),
                                                rng=seed))
            total += res.cost
        assert total / n == pytest.approx(exact, rel=0.05)

    def test_wrapper_requires_fractional_inner(self):
        from repro.online import LCP
        with pytest.raises(ValueError):
            RandomizedRounding(LCP())

    def test_wrapper_fractional_log(self):
        rng = np.random.default_rng(121)
        inst = random_convex_instance(rng, 10, 4, 1.0)
        for kernel in kernels.KERNELS:
            algo = RandomizedRounding(ThresholdFractional(), rng=3)
            with kernels.use(kernel):
                run_online(inst, algo)
                fr = run_online(inst, ThresholdFractional())
            np.testing.assert_allclose(algo.fractional_log, fr.schedule,
                                       err_msg=kernel)


def _stepped_rounding(xbars, seed):
    """The per-step reference chain: one :func:`transition_prob_up` and
    one scalar draw per step, as :meth:`RandomizedRounding.step` does."""
    rng = np.random.default_rng(seed)
    out, x_prev, xbar_prev = [], 0, 0.0
    for xbar in np.asarray(xbars, dtype=np.float64).tolist():
        p = transition_prob_up(xbar_prev, xbar, x_prev)
        lower = ceil_star(xbar) - 1
        x_prev = lower + 1 if rng.random() < p else lower
        out.append(x_prev)
        xbar_prev = xbar
    return np.array(out, dtype=np.int64)


class TestTableWideRounding:
    """:func:`sample_rounding` evaluates the kernel table-wide; it must
    draw the same states as the per-step chain for the same seed."""

    CRAFTED = {
        "integral": [0.0, 1.0, 3.0, 3.0, 2.0, 0.0, 5.0],
        "snap-slack": [1e-10, -1e-10, 1.0 - 1e-10, 1.0 + 1e-10, 2.5,
                       3.0 - 1e-10, 3.0 + 1e-10, -1e-10, 0.0],
        "decreasing-across-cells": [4.7, 2.3, 0.6, 3.9, 1.2, 1.1, 0.0],
        "xbar-equals-m": [5.0, 4.5, 5.0, 5.0, 2.0, 5.0],
        "empty": [],
    }

    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_crafted_schedules_match_stepped_chain(self, name):
        xbars = np.array(self.CRAFTED[name], dtype=np.float64)
        for seed in range(40):
            table = sample_rounding(xbars, np.random.default_rng(seed))
            assert table.dtype == np.int64
            np.testing.assert_array_equal(
                table, _stepped_rounding(xbars, seed))

    def test_random_schedules_match_stepped_chain(self):
        rng = np.random.default_rng(122)
        for trial in range(30):
            T, m = int(rng.integers(1, 60)), int(rng.integers(1, 9))
            xbars = random_fractional_schedule(rng, T, m)
            np.testing.assert_array_equal(
                sample_rounding(xbars, np.random.default_rng(trial), m=m),
                _stepped_rounding(xbars, trial))

    def test_snap_table_equals_scalar_snap(self):
        from repro.online.randomized import _snap, _snap_table
        xbars = np.array([0.0, -0.0, 1e-10, -1e-10, 2.0 - 1e-10, 2.5,
                          3.0 + 2e-9, 7.0 + 1e-12, 4.4999999999])
        assert _snap_table(xbars).tobytes() == np.array(
            [_snap(float(x)) for x in xbars]).tobytes()

    def test_state_space_check(self):
        with pytest.raises(AssertionError):
            sample_rounding(np.array([3.0]), np.random.default_rng(0), m=2)
