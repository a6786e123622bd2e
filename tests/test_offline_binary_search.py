"""Tests for the paper's O(T log m) binary-search algorithm (Theorem 1)."""

import numpy as np
import pytest

from repro import kernels
from repro.core.instance import Instance
from repro.kernels import native
from repro.core.schedule import cost
from repro.offline import (solve_binary_search, solve_dp, window_states,
                           windowed_dp)
from tests.conftest import (bowl_instance, hinge_instance,
                            random_convex_instance, trace_instance)


class TestOptimality:
    def test_matches_dp_random(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            T = int(rng.integers(1, 15))
            m = int(rng.integers(1, 35))
            inst = random_convex_instance(rng, T, m,
                                          float(rng.uniform(0.2, 5.0)))
            bs = solve_binary_search(inst, validate=True)
            dp = solve_dp(inst)
            assert bs.cost == pytest.approx(dp.cost), (T, m)
            assert cost(inst, bs.schedule) == pytest.approx(bs.cost)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31,
                                   32, 33, 63, 64, 100, 128])
    def test_all_m_shapes(self, m):
        """Power-of-two boundaries and the m <= 3 special case."""
        rng = np.random.default_rng(51 + m)
        inst = random_convex_instance(rng, 8, m, 1.7)
        assert solve_binary_search(inst).cost == pytest.approx(
            solve_dp(inst).cost)

    def test_hinge_and_bowl_families(self):
        for inst in (hinge_instance([0, 9, 3, 9, 0], m=12, beta=2.0),
                     bowl_instance([2, 10, 5, 11], m=12, beta=0.5)):
            assert solve_binary_search(inst).cost == pytest.approx(
                solve_dp(inst).cost)

    def test_trace_instance(self):
        inst = trace_instance(seed=3, T=72, peak=20.0, beta=5.0)
        assert solve_binary_search(inst).cost == pytest.approx(
            solve_dp(inst).cost)

    def test_eps_insensitivity(self):
        """Any positive padding eps yields the optimum (Section 2.2)."""
        rng = np.random.default_rng(52)
        inst = random_convex_instance(rng, 10, 21, 1.0)
        baseline = solve_dp(inst).cost
        for eps in (1e-6, 1e-3, 1.0, 1e3):
            assert solve_binary_search(inst, eps=eps).cost == pytest.approx(
                baseline), eps

    def test_large_m_spot_check(self):
        rng = np.random.default_rng(53)
        inst = random_convex_instance(rng, 12, 500, 3.0)
        assert solve_binary_search(inst).cost == pytest.approx(
            solve_dp(inst).cost)

    def test_empty_horizon(self):
        inst = Instance(beta=1.0, F=np.zeros((0, 9)))
        res = solve_binary_search(inst)
        assert res.cost == 0.0


class TestIterationStructure:
    def test_iteration_count_formula(self):
        """log2(m') - 1 iterations for padded m' >= 4 (Section 2.2)."""
        rng = np.random.default_rng(54)
        for m, expected in [(4, 1), (5, 2), (8, 2), (16, 3), (64, 5),
                            (100, 6), (128, 6)]:
            inst = random_convex_instance(rng, 3, m, 1.0)
            res = solve_binary_search(inst)
            assert res.iterations == expected, m

    def test_small_m_single_iteration(self):
        rng = np.random.default_rng(55)
        for m in (1, 2, 3):
            inst = random_convex_instance(rng, 3, m, 1.0)
            assert solve_binary_search(inst).iterations == 1


class TestWindowedDP:
    def test_full_window_equals_dp(self):
        rng = np.random.default_rng(56)
        inst = random_convex_instance(rng, 6, 4, 1.1)
        S = np.broadcast_to(np.arange(5, dtype=np.int64), (6, 5)).copy()
        schedule, c = windowed_dp(inst, S)
        assert c == pytest.approx(solve_dp(inst).cost)

    def test_restricted_window_is_restricted_optimum(self):
        """The window DP must match brute force over the window states."""
        import itertools
        rng = np.random.default_rng(57)
        inst = random_convex_instance(rng, 4, 6, 1.4)
        S = np.array([[0, 2, 4, 6, 6]] * 4, dtype=np.int64)
        schedule, c = windowed_dp(inst, S)
        best = min(cost(inst, np.array(Z))
                   for Z in itertools.product([0, 2, 4, 6], repeat=4))
        assert c == pytest.approx(best)

    def test_duplicate_states_harmless(self):
        rng = np.random.default_rng(58)
        inst = random_convex_instance(rng, 3, 4, 1.0)
        S1 = np.array([[0, 1, 2, 3, 4]] * 3, dtype=np.int64)
        S2 = np.array([[0, 0, 1, 2, 2, 3, 4, 4]] * 3, dtype=np.int64)
        assert windowed_dp(inst, S1)[1] == pytest.approx(
            windowed_dp(inst, S2)[1])

    def test_row_count_checked(self):
        rng = np.random.default_rng(59)
        inst = random_convex_instance(rng, 3, 4, 1.0)
        with pytest.raises(ValueError):
            windowed_dp(inst, np.zeros((2, 5), dtype=np.int64))

    @pytest.mark.parametrize("kernel", kernels.KERNELS)
    def test_negative_states_rejected(self, kernel):
        """A state of -1 must not wrap to the last cost column."""
        inst = Instance.from_matrix([[8, 4, 1, 0, 0]] * 3, beta=1.0)
        with kernels.use(kernel), pytest.raises(ValueError):
            windowed_dp(inst, np.array([[-1, 0, 2]] * 3, dtype=np.int64))

    @pytest.mark.parametrize("S", [np.zeros(3, dtype=np.int64),
                                   np.zeros((3, 0), dtype=np.int64),
                                   np.zeros((3, 2, 2), dtype=np.int64)],
                             ids=["1-D", "empty-width", "3-D"])
    def test_window_shape_checked(self, S):
        inst = Instance.from_matrix([[8, 4, 1, 0, 0]] * 3, beta=1.0)
        with pytest.raises(ValueError):
            windowed_dp(inst, S)

    def test_states_above_m_stay_legal_padding(self):
        inst = Instance.from_matrix([[8, 4, 1, 0, 0]] * 3, beta=1.0)
        schedule, c = windowed_dp(inst, np.array([[0, 2, 6]] * 3))
        assert schedule.tolist() == [2, 2, 2]
        assert c == 5.0


def _byte_identical_solves(inst, **kwargs):
    """Solve under the compiled loop and the NumPy loop (the scalar
    kernel) and assert the same bytes."""
    with kernels.use("vector"):
        fast = solve_binary_search(inst, **kwargs)
    with kernels.use("scalar"):
        ref = solve_binary_search(inst, **kwargs)
    assert fast.schedule.tobytes() == ref.schedule.tobytes()
    assert np.float64(fast.cost).tobytes() == np.float64(ref.cost).tobytes()
    assert fast.iterations == ref.iterations


def _byte_identical_windows(inst, S):
    with kernels.use("vector"):
        fast = windowed_dp(inst, S)
    with kernels.use("scalar"):
        ref = windowed_dp(inst, S)
    assert fast[0].tobytes() == ref[0].tobytes()
    assert np.float64(fast[1]).tobytes() == np.float64(ref[1]).tobytes()


class TestCompiledWindowDP:
    """The compiled window DP returns the NumPy loop's bytes on every
    instance family of this module."""

    @pytest.fixture(autouse=True)
    def _compiled(self):
        if native.loops() is None:
            pytest.skip("compiled loops unavailable (no cc)")

    def test_random_families(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            T = int(rng.integers(1, 15))
            m = int(rng.integers(1, 35))
            _byte_identical_solves(random_convex_instance(
                rng, T, m, float(rng.uniform(0.2, 5.0))), validate=True)

    @pytest.mark.parametrize("m", [4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33,
                                   63, 64, 65, 100, 127, 128, 129, 500])
    def test_m_at_and_beside_powers_of_two(self, m):
        rng = np.random.default_rng(51 + m)
        _byte_identical_solves(random_convex_instance(rng, 12, m, 1.7))

    def test_named_families(self):
        for inst in (hinge_instance([0, 9, 3, 9, 0], m=12, beta=2.0),
                     bowl_instance([2, 10, 5, 11], m=12, beta=0.5),
                     trace_instance(seed=3, T=72, peak=20.0, beta=5.0)):
            _byte_identical_solves(inst)
        rng = np.random.default_rng(52)
        inst = random_convex_instance(rng, 10, 21, 1.0)
        for eps in (1e-6, 1e-3, 1.0, 1e3):
            _byte_identical_solves(inst, eps=eps)

    def test_single_step(self):
        rng = np.random.default_rng(56)
        for m in (4, 9, 33):
            inst = random_convex_instance(rng, 1, m, 1.3)
            _byte_identical_solves(inst)
            _byte_identical_windows(inst, window_states(
                np.array([m // 2]), 2, m))

    def test_duplicate_padding_and_flat_ties(self):
        """Clamped windows repeat boundary states and flat rows tie every
        predecessor: both loops must pick the first minimum."""
        rng = np.random.default_rng(58)
        inst = random_convex_instance(rng, 9, 4, 1.0)
        S = np.array([[0, 0, 1, 2, 2, 3, 4, 4]] * 9, dtype=np.int64)
        _byte_identical_windows(inst, S)
        flat = Instance.from_matrix(np.zeros((7, 9)), beta=1.0)
        _byte_identical_windows(flat, window_states(
            np.zeros(7, dtype=np.int64), 2, 8))
        _byte_identical_windows(flat, np.tile([3, 3, 3, 8, 8], (7, 1)))
        _byte_identical_solves(flat)
        # flat rows, then a ramp down to state 8: every predecessor of the
        # last column ties, each at a different state
        ramp = Instance.from_matrix(
            np.vstack([np.zeros((6, 9)), np.arange(16.0, -1.0, -2.0)]),
            beta=1.0)
        _byte_identical_windows(ramp, np.tile(np.arange(0, 9, 2), (7, 1)))
        _byte_identical_solves(ramp)

    def test_greedy_centered_windows(self):
        from repro._util import argmin_first
        rng = np.random.default_rng(62)
        for _ in range(20):
            T = int(rng.integers(2, 8))
            m = int(rng.integers(8, 33))
            inst = random_convex_instance(rng, T, m,
                                          float(rng.uniform(0.2, 3.0)))
            greedy = np.array([argmin_first(inst.F[t]) for t in range(T)],
                              dtype=np.int64)
            for span in (1, 2, 3):
                _byte_identical_windows(inst, window_states(
                    greedy, 1, inst.m, span=span))


class TestWindowStates:
    def test_refinement_shape_and_grid(self):
        centers = np.array([0, 4, 8], dtype=np.int64)
        S = window_states(centers, half_step=2, m_padded=8)
        assert S.shape == (3, 5)
        assert np.all(S % 2 == 0)
        assert S.min() >= 0 and S.max() <= 8

    def test_clamping_at_boundaries(self):
        S = window_states(np.array([0], dtype=np.int64), 2, 8)
        assert S.min() == 0
        S = window_states(np.array([8], dtype=np.int64), 2, 8)
        assert S.max() == 8

    def test_contains_xi_range(self):
        S = window_states(np.array([4], dtype=np.int64), 1, 8)
        np.testing.assert_array_equal(S[0], [2, 3, 4, 5, 6])


class TestAblation:
    def test_coarse_grid_alone_is_suboptimal(self):
        """Without the refinement iterations (only the iteration-K grid
        {0, m/4, m/2, 3m/4, m}) the result must be suboptimal on some
        instances — the refinement loop does real work."""
        rng = np.random.default_rng(60)
        failures = 0
        for _ in range(60):
            T = int(rng.integers(2, 8))
            m = int(rng.integers(8, 33))
            inst = random_convex_instance(rng, T, m,
                                          float(rng.uniform(0.2, 3.0)))
            opt = solve_dp(inst, return_schedule=False).cost
            coarse = _binary_search_truncated(inst, keep_iterations=1)
            if coarse > opt + 1e-9:
                failures += 1
        assert failures > 20

    def test_every_refinement_level_contributes(self):
        """Stopping the refinement one level early (skipping k = 0) also
        loses optimality on some instances."""
        rng = np.random.default_rng(61)
        failures = 0
        for _ in range(60):
            T = int(rng.integers(2, 8))
            m = int(rng.integers(8, 33))
            inst = random_convex_instance(rng, T, m,
                                          float(rng.uniform(0.2, 3.0)))
            opt = solve_dp(inst, return_schedule=False).cost
            if _binary_search_truncated(inst, skip_last=True) > opt + 1e-9:
                failures += 1
        assert failures > 10

    def test_refining_around_greedy_schedule_fails(self):
        """The windows must be centered on the *optimal* coarse schedule
        (Lemma 5); refining around a greedy per-step schedule loses
        optimality."""
        from repro._util import argmin_first
        rng = np.random.default_rng(62)
        failures = 0
        for _ in range(60):
            T = int(rng.integers(2, 8))
            m = int(rng.integers(8, 33))
            inst = random_convex_instance(rng, T, m,
                                          float(rng.uniform(0.2, 3.0)))
            opt = solve_dp(inst, return_schedule=False).cost
            greedy = np.array([argmin_first(inst.F[t]) for t in range(T)],
                              dtype=np.int64)
            S = window_states(greedy, 1, inst.m)
            _, c = windowed_dp(inst, S)
            if c > opt + 1e-9:
                failures += 1
        assert failures > 10

    def test_span1_matches_on_random_families(self):
        """Empirical note recorded as a test: with our smallest-tie window
        DP, the half-window (xi in {-1,0,1}) also recovered the optimum on
        every generated instance.  The guarantee proven in the paper
        (Lemma 5) only covers xi in {-2..2}, which is what
        solve_binary_search uses; this test documents — not relies on —
        the empirical slack."""
        rng = np.random.default_rng(63)
        for _ in range(40):
            T = int(rng.integers(2, 8))
            m = int(rng.integers(5, 33))
            inst = random_convex_instance(rng, T, m,
                                          float(rng.uniform(0.2, 3.0)))
            opt = solve_dp(inst, return_schedule=False).cost
            assert _binary_search_span1(inst) <= opt + 1e-9


def _binary_search_span1(inst) -> float:
    """Binary search variant with xi in {-1, 0, 1} (for the ablation)."""
    from repro.core.transforms import next_power_of_two

    T, m = inst.T, inst.m
    if m <= 3:
        return solve_dp(inst, return_schedule=False).cost
    m_padded = next_power_of_two(m)
    K = int(np.log2(m_padded)) - 2
    quarter = m_padded // 4
    S = np.broadcast_to(np.arange(5, dtype=np.int64) * quarter, (T, 5)).copy()
    schedule, c = windowed_dp(inst, S)
    for k in range(K, 0, -1):
        S = window_states(schedule, 1 << (k - 1), m_padded, span=1)
        schedule, c = windowed_dp(inst, S)
    return c


def _binary_search_truncated(inst, keep_iterations: int | None = None,
                             skip_last: bool = False) -> float:
    """Binary search stopped early (for the ablations)."""
    from repro.core.transforms import next_power_of_two

    T, m = inst.T, inst.m
    if m <= 3:
        return solve_dp(inst, return_schedule=False).cost
    m_padded = next_power_of_two(m)
    K = int(np.log2(m_padded)) - 2
    quarter = m_padded // 4
    S = np.broadcast_to(np.arange(5, dtype=np.int64) * quarter, (T, 5)).copy()
    schedule, c = windowed_dp(inst, S)
    done = 1
    # The loop iteration with index k produces the grid-2^(k-1) schedule;
    # skipping the k = 1 iteration leaves the result on the even grid.
    last_k = 2 if skip_last else 1
    for k in range(K, last_k - 1, -1):
        if keep_iterations is not None and done >= keep_iterations:
            break
        S = window_states(schedule, 1 << (k - 1), m_padded)
        schedule, c = windowed_dp(inst, S)
        done += 1
    return c
