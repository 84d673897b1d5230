import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from saddlesim import simulate
from saddlesim.cli import _init_offset
from saddlesim.problems import cubic_test, phase_retrieval, quadratic_saddle
from saddlesim.simulate import (
    NoExit,
    RadialTrajectory,
    RecordTooLarge,
    default_k_max,
    exit_time,
    gd_run,
    monotonicity_profile,
)

EPS = 0.1
ALPHA = 0.1


def reference_run():
    # diag(1, -1): each step multiplies the stable amplitude by 1 - alpha
    # and the unstable amplitude by 1 + alpha, so every norm has a closed form
    prob = quadratic_saddle([1.0, -1.0])
    u0 = EPS * np.array([0.995, 0.0999])
    return gd_run(prob, u0, ALPHA, EPS)


class TestGradientDescent:
    def test_norms_match_closed_form(self):
        traj = reference_run()
        ks = np.arange(traj.norms.size)
        closed = EPS * np.hypot(0.995 * 0.9**ks, 0.0999 * 1.1**ks)
        assert_allclose(traj.norms, closed, rtol=1e-10)

    def test_exit_at_step_25(self):
        traj = reference_run()
        assert traj.exit_index == 25
        assert traj.norms[25] == pytest.approx(0.10847415599798507, rel=1e-12)
        assert traj.norms[24] == pytest.approx(0.09871839651246501, rel=1e-12)
        assert np.all(traj.norms[1:25] <= EPS)

    def test_trajectory_stops_at_exit(self):
        traj = reference_run()
        assert traj.norms.size == 26
        assert traj.radials.shape == (26, 2)

    def test_default_budget(self):
        assert default_k_max(0.1, 0.1, 1.0) == 250
        assert reference_run().budget == 250

    def test_k_max_truncates(self):
        prob = quadratic_saddle([1.0, -1.0])
        u0 = EPS * np.array([0.995, 0.0999])
        traj = gd_run(prob, u0, ALPHA, EPS, k_max=5)
        assert traj.exit_index is None
        assert traj.norms.size == 6
        assert traj.budget == 5

    def test_pure_stable_never_exits(self):
        prob = quadratic_saddle([1.0, -1.0])
        traj = gd_run(prob, np.array([EPS, 0.0]), ALPHA, EPS, k_max=100)
        assert traj.exit_index is None
        assert np.all(np.diff(traj.norms) < 0)
        with pytest.raises(NoExit):
            exit_time(traj)

    def test_alpha_validation(self):
        prob = quadratic_saddle([2.0, -1.0])
        u0 = np.array([EPS, 0.0])
        with pytest.raises(ValueError):
            gd_run(prob, u0, 0.6, EPS)  # above 1/L = 0.5
        with pytest.raises(ValueError):
            gd_run(prob, u0, 0.0, EPS)
        gd_run(prob, u0, 0.5, EPS, k_max=3)  # the boundary step is legal

    def test_cubic_run_exits(self):
        prob = cubic_test()
        traj = gd_run(prob, EPS * np.array([0.0999, 0.995]), ALPHA, EPS)
        assert traj.exit_index is not None
        assert traj.norms[traj.exit_index] > EPS


def test_record_stops_at_its_exit_step():
    prob = quadratic_saddle([1.0, -1.0])
    traj = gd_run(prob, EPS * np.array([0.995, 0.0999]), ALPHA, EPS, k_max=100)
    assert traj.exit_index is not None
    assert traj.exit_index == exit_time(traj)
    assert traj.radials.shape == (traj.exit_index + 1, 2)
    assert traj.norms.shape == (traj.exit_index + 1,)
    assert traj.budget == 100


def oracle_gd_run(problem, u0, alpha, eps, k_max):
    """gd_run's former loop: a list of radial arrays and np.linalg.norm."""
    u0 = np.asarray(u0, dtype=float)
    x = problem.saddle + u0
    radials = [u0.copy()]
    norms = [float(np.linalg.norm(u0))]
    exit_index = None
    for k in range(1, k_max + 1):
        x = x - alpha * problem.gradient(x)
        u = x - problem.saddle
        radials.append(u)
        norms.append(float(np.linalg.norm(u)))
        if norms[-1] > eps:
            exit_index = k
            break
    return np.array(radials), np.array(norms), exit_index


def sphere_start(problem, eps, theta_us_sq):
    """The start the CLI makes for an init with this theta_us_sq."""
    return _init_offset({"label": "start", "theta_us_sq": theta_us_sq}, problem.spectrum, eps)


ORACLE_PROBLEMS = {
    "quadratic": lambda: quadratic_saddle([1.0, 0.5, -0.3]),
    "cubic_test": cubic_test,
    "phase_retrieval": lambda: phase_retrieval(20, 0),
}

# (eps, alpha_mode, theta_us_sq, k_max, exits): a k_max of None is the default
# budget; the slow start takes 420-1,540 steps, past three or more doublings of
# the 64-row block, and k_max 63 and 64 end on either side of its first doubling
ORACLE_CASES = {
    "exit": (0.1, 0.5, 0.5, None, True),
    "slow-exit": (1e-3, 0.02, 1e-8, None, True),
    "no-exit": (1e-3, 0.02, 1e-8, 100, False),
    "k_max-1": (1e-3, 0.5, 0.5, 1, None),
    "k_max-63": (1e-3, 0.02, 1e-8, 63, False),
    "k_max-64": (1e-3, 0.02, 1e-8, 64, False),
}


def assert_matches_oracle(problem, u0, alpha, eps, k_max):
    traj = gd_run(problem, u0, alpha, eps, k_max=k_max)
    radials, norms, exit_index = oracle_gd_run(problem, u0, alpha, eps, traj.budget)
    assert np.array_equal(traj.radials, radials, equal_nan=True)
    assert np.array_equal(traj.norms, norms, equal_nan=True)
    assert traj.exit_index == exit_index
    assert traj.budget == (k_max or default_k_max(eps, alpha, problem.spectrum.beta))
    return traj


class TestRecordAgainstOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("kind", ORACLE_PROBLEMS)
    def test_bit_equal_to_the_list_loop(self, kind, case):
        eps, alpha_mode, theta_us_sq, k_max, exits = ORACLE_CASES[case]
        problem = ORACLE_PROBLEMS[kind]()
        u0 = sphere_start(problem, eps, theta_us_sq)
        traj = assert_matches_oracle(problem, u0, alpha_mode / problem.spectrum.big_l, eps, k_max)
        if exits is not None:
            assert (traj.exit_index is not None) == exits
        if case == "slow-exit":
            # the block doubles from 64 rows, so it holds at most twice the record
            rows = traj.radials.base.shape[0]
            assert traj.norms.size > 128
            assert rows in [64 << i for i in range(10)] and rows < 2 * traj.norms.size

    def test_landing_on_the_saddle(self):
        # alpha = 1/L along the eigenvalue L sends the start to the saddle in
        # one step; every later radius is zero, across a doubling
        problem = ORACLE_PROBLEMS["quadratic"]()
        traj = assert_matches_oracle(problem, np.array([EPS, 0.0, 0.0]), 1.0, EPS, 100)
        assert traj.exit_index is None
        assert not traj.radials[1:].any()

    def test_early_exit_keeps_one_small_block(self):
        prob = quadratic_saddle([1.0, -1.0])
        u0 = EPS * np.array([math.sqrt(0.5), math.sqrt(0.5)])
        traj = gd_run(prob, u0, 1.0, EPS, k_max=300_000)
        assert traj.exit_index == 1
        assert traj.radials.base.shape[0] <= 64


class TestRecordCap:
    # 100 rows of two floats
    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(simulate, "_RECORD_BYTES", 100 * 2 * 8)

    def test_a_budget_past_the_cap_raises(self):
        prob = quadratic_saddle([1.0, -1.0])
        with pytest.raises(RecordTooLarge, match="k_max to at most 99"):
            gd_run(prob, np.array([EPS, 0.0]), ALPHA, EPS, k_max=100)

    def test_a_record_that_fits_the_cap_runs(self):
        prob = quadratic_saddle([1.0, -1.0])
        traj = gd_run(prob, np.array([EPS, 0.0]), ALPHA, EPS, k_max=99)
        assert traj.norms.size == 100
        assert traj.radials.base.shape[0] == 100

    def test_an_exit_inside_the_cap_runs_with_any_budget(self):
        traj = gd_run(
            quadratic_saddle([1.0, -1.0]), EPS * np.array([0.995, 0.0999]), ALPHA, EPS, k_max=10**9
        )
        assert traj.exit_index == 25


class TestTrajectoryHelpers:
    def make_traj(self, norms):
        norms = np.asarray(norms, dtype=float)
        radials = np.column_stack([norms, np.zeros_like(norms)])
        return RadialTrajectory(
            eps=0.1,
            alpha=0.1,
            radials=radials,
            exit_index=None,
            norms=norms,
            budget=norms.size - 1,
        )

    def test_exit_time_first_crossing(self):
        assert exit_time(self.make_traj([0.1, 0.09, 0.11])) == 2

    def test_exit_time_requires_crossing(self):
        with pytest.raises(NoExit):
            exit_time(self.make_traj([0.1, 0.09, 0.08]))

    def test_initial_radius_checked(self):
        with pytest.raises(ValueError):
            self.make_traj([0.2, 0.09])

    def test_monotonicity_along_unstable_direction(self):
        traj = reference_run()
        seq, increasing = monotonicity_profile(traj, np.array([0.0, 1.0]))
        assert seq.size == 26
        assert increasing
        assert seq[0] == pytest.approx(EPS * 0.0999)

    def test_monotonicity_fails_along_stable_direction(self):
        traj = reference_run()
        seq, increasing = monotonicity_profile(traj, np.array([1.0, 0.0]))
        assert not increasing
