import numpy as np
import pytest
from numpy.testing import assert_allclose

from saddlesim.problems import cubic_test, quadratic_saddle
from saddlesim.simulate import (
    NoExit,
    RadialTrajectory,
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
