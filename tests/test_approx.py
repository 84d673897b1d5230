import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from saddlesim import approx
from saddlesim.approx import (
    CoefficientSet,
    NoExitInFamily,
    ZeroGap,
    _step_rng,
    coefficient_intervals,
    coefficients_at,
    eps_trajectory,
    reference_coefficients,
    sample_family,
)
from saddlesim.perturb import directional_hessian_derivative, fd_step
from saddlesim.problems import (
    NotStrictSaddleAtZero,
    cubic_test,
    estimate_constants,
    phase_retrieval,
    quadratic_saddle,
)
from saddlesim.simulate import gd_run
from saddlesim.spectral import Spectrum, decompose, project, theta_full


def plain_spectrum():
    return decompose(np.diag([1.0, -1.0]))


def sphere_point(spectrum, eps, theta_us_sq):
    n_s = spectrum.stable_idx.size
    n_us = spectrum.unstable_idx.size
    theta = np.empty(spectrum.dim)
    theta[spectrum.stable_idx] = np.sqrt((1.0 - theta_us_sq) / n_s)
    theta[spectrum.unstable_idx] = np.sqrt(theta_us_sq / n_us)
    return eps * (spectrum.eigenvectors @ theta)


class TestCoefficientsAt:
    def test_point_values(self):
        # alpha = 0.1, radius 0.1, H with 2 on the off-diagonal: the diagonal
        # of H in the eigenbasis is zero, so c_i = 1 - alpha lam_i, and the
        # transfer picks up 2 * lam_i * alpha * r / (2 * gap)
        spec = plain_spectrum()
        h = np.array([[0.0, 2.0], [2.0, 0.0]])
        coeffs = coefficients_at(spec, h, u_norm=0.1, alpha=0.1)
        assert_allclose(coeffs.c_s, [0.9], atol=1e-14)
        assert_allclose(coeffs.c_us, [1.1], atol=1e-14)
        assert coeffs.d[1, 0] == pytest.approx(-0.005)
        assert coeffs.d[0, 1] == pytest.approx(-0.005)
        assert coeffs.d[0, 0] == 0.0 and coeffs.d[1, 1] == 0.0

    def test_zero_radius_is_the_linear_map(self):
        spec = plain_spectrum()
        h = np.array([[3.0, 1.0], [1.0, -2.0]])
        coeffs = coefficients_at(spec, h, u_norm=0.0, alpha=0.2)
        assert_allclose(coeffs.c_s, [0.8], atol=1e-14)
        assert_allclose(coeffs.c_us, [1.2], atol=1e-14)
        assert_allclose(coeffs.d, np.zeros((2, 2)), atol=1e-14)

    def test_within_group_transfer_is_dropped(self):
        spec = decompose(np.diag([1.0 + 1e-9, 1.0, -1.0]))
        assert spec.groups == ((0, 1), (2,))
        h = np.full((3, 3), 0.7)
        coeffs = coefficients_at(spec, h, u_norm=0.05, alpha=0.1)
        assert coeffs.d[0, 1] == 0.0 and coeffs.d[1, 0] == 0.0
        assert coeffs.d[2, 0] != 0.0

    def test_vanishing_cross_gap_raises(self):
        lam = np.array([1.0, 1.0 - 1e-13, -1.0])
        spec = Spectrum(
            eigenvalues=lam,
            eigenvectors=np.eye(3),
            stable_idx=np.array([0, 1]),
            unstable_idx=np.array([2]),
            big_l=1.0,
            beta=1.0,
            delta=2.0,
            groups=((0,), (1,), (2,)),
        )
        with pytest.raises(ZeroGap):
            coefficients_at(spec, np.full((3, 3), 0.5), u_norm=0.1, alpha=0.1)
        # reference_coefficients raises on the call, before any set is drawn
        problem = quadratic_saddle(lam)
        traj = gd_run(problem, np.array([0.0, 0.06, 0.08]), 0.1, 0.1, k_max=3)
        with pytest.raises(ZeroGap):
            reference_coefficients(problem, spec, traj)

    def test_step_recorded(self):
        coeffs = coefficients_at(plain_spectrum(), np.zeros((2, 2)), 0.1, 0.1, step=7)
        assert coeffs.step == 7


class TestCoefficientIntervals:
    def test_point_values(self):
        iv = coefficient_intervals(
            big_l=1.0, beta=0.5, big_m=1.0, delta=0.5, alpha=1.0, eps=0.01
        )
        assert iv.c_s_range == pytest.approx((-0.005, 0.505))
        assert iv.c_us_range == pytest.approx((1.495, 2.005))
        assert iv.d_range == pytest.approx((-0.01, 0.01))

    def test_quadratic_intervals_collapse(self):
        iv = coefficient_intervals(1.0, 1.0, 0.0, 2.0, alpha=0.1, eps=0.1)
        assert iv.c_s_range[0] == iv.c_s_range[1] == pytest.approx(0.9)
        assert iv.c_us_range[0] == iv.c_us_range[1] == pytest.approx(1.1)
        assert iv.d_range == (0.0, 0.0)

    def test_realized_coefficients_stay_inside(self):
        # along an exact trajectory of the cubic every reference coefficient
        # must land in the interval built from the true Lipschitz constant
        prob = cubic_test()
        spec = decompose(prob.hessian(prob.saddle))
        eps, alpha = 0.01, 0.1
        u0 = sphere_point(spec, eps, theta_us_sq=0.01)
        traj = gd_run(prob, u0, alpha, eps)
        coeffs = list(reference_coefficients(prob, spec, traj))
        iv = coefficient_intervals(
            spec.big_l, spec.beta, 2.0 * np.sqrt(2.0), spec.delta, alpha, eps
        )
        pad = 1e-9
        for c in coeffs[: traj.exit_index]:  # interior steps only
            assert iv.c_s_range[0] - pad <= c.c_s[0] <= iv.c_s_range[1] + pad
            assert iv.c_us_range[0] - pad <= c.c_us[0] <= iv.c_us_range[1] + pad
            assert np.all(np.abs(c.d) <= iv.d_range[1] + pad)


class TestEpsTrajectory:
    def test_step_zero_is_the_start_point(self):
        spec = plain_spectrum()
        eps = 0.1
        u0 = eps * np.array([-0.6, 0.8])
        proj = project(u0, spec, eps)
        coeffs = [coefficients_at(spec, np.zeros((2, 2)), eps, 0.1, step=0)]
        path = eps_trajectory(proj, spec, coeffs, big_k=0)
        assert path.shape == (1, 2)
        assert_allclose(path[0], u0, atol=1e-15)

    def test_exact_on_quadratics(self):
        # constant Hessian makes the model an identity, not an approximation
        prob = quadratic_saddle([1.0, -1.0])
        spec = decompose(prob.hessian(prob.saddle))
        eps, alpha = 0.1, 0.1
        u0 = eps * np.array([0.995, 0.0999])
        traj = gd_run(prob, u0, alpha, eps)
        proj = project(u0, spec, eps)
        coeffs = reference_coefficients(prob, spec, traj)
        path = eps_trajectory(proj, spec, coeffs, traj.norms.size - 1)
        assert_allclose(path, traj.radials, atol=1e-12)

    def test_tracks_the_cubic_through_exit(self):
        prob = cubic_test()
        spec = decompose(prob.hessian(prob.saddle))
        eps, alpha = 0.01, 0.1
        u0 = sphere_point(spec, eps, theta_us_sq=0.01)
        traj = gd_run(prob, u0, alpha, eps)
        assert traj.exit_index is not None
        coeffs = reference_coefficients(prob, spec, traj)
        path = eps_trajectory(project(u0, spec, eps), spec, coeffs, traj.norms.size - 1)
        rel = np.linalg.norm(path - traj.radials, axis=1) / traj.norms
        assert np.max(rel) <= 5.0 * eps

    def test_error_scales_at_least_linearly_in_eps(self):
        prob = cubic_test()
        spec = decompose(prob.hessian(prob.saddle))
        alpha, big_k = 0.1, 10
        errs = []
        eps_grid = [1e-1, 1e-2, 1e-3]
        for eps in eps_grid:
            u0 = sphere_point(spec, eps, theta_us_sq=0.01)
            traj = gd_run(prob, u0, alpha, eps, k_max=big_k)
            coeffs = reference_coefficients(prob, spec, traj)
            path = eps_trajectory(project(u0, spec, eps), spec, coeffs, big_k)
            errs.append(
                np.linalg.norm(path[big_k] - traj.radials[big_k]) / traj.norms[big_k]
            )
        slopes = np.diff(np.log(errs)) / np.diff(np.log(eps_grid))
        assert np.all(slopes >= 0.9)

    def test_mirrored_start_reconstructs(self):
        # amplitudes carry signs through the parity of the projection basis
        spec = plain_spectrum()
        eps = 0.1
        u0 = eps * np.array([0.6, -0.8])
        proj = project(u0, spec, eps)
        coeffs = [coefficients_at(spec, np.zeros((2, 2)), eps, 0.1)]
        path = eps_trajectory(proj, spec, coeffs, 1)
        assert_allclose(path[0], u0, atol=1e-15)
        assert_allclose(path[1], [0.9 * 0.06, -1.1 * 0.08], atol=1e-14)


def per_step_coefficients(problem, spectrum, traj):
    """The per-step reference: a central-difference H' at fd_step(eps) and one
    coefficients_at call per recorded point."""
    h = fd_step(traj.eps)
    out = []
    for k in range(traj.radials.shape[0]):
        nrm = float(traj.norms[k])
        hk = directional_hessian_derivative(problem, traj.radials[k] / nrm, h=h)
        out.append(coefficients_at(spectrum, hk, nrm, traj.alpha, step=k))
    return out


def reference_run(problem, eps, alpha_mode, theta_us_sq, k_max):
    spec = problem.spectrum
    u0 = sphere_point(spec, eps, theta_us_sq)
    return spec, gd_run(problem, u0, alpha_mode / spec.big_l, eps, k_max=k_max)


@st.composite
def flat_problems(draw):
    """Problems whose H' vanishes at the saddle: quadratics and phase retrieval."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["quadratic", "seeded", "injected"]))
    if kind == "quadratic":
        mags = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
        n_us = draw(st.integers(1, n - 1))
        return quadratic_saddle([m if i >= n_us else -m for i, m in enumerate(mags)])
    seed = draw(st.integers(0, 2**16))
    a = None
    if kind == "injected":
        a = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, n))
    try:
        return phase_retrieval(n, seed=seed, a_matrix=a)
    except NotStrictSaddleAtZero:
        assume(False)


run_params = st.tuples(
    st.sampled_from([1e-2, 1e-4, 1e-6]),  # eps
    st.floats(0.01, 1.0),  # alpha_mode
    st.floats(1e-6, 0.99),  # theta_us_sq
)


class TestStreamedCoefficients:
    @given(flat_problems(), run_params)
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_the_per_step_loop_where_h_prime_vanishes(self, problem, run):
        eps, alpha_mode, theta_us_sq = run
        spec, traj = reference_run(problem, eps, alpha_mode, theta_us_sq, k_max=200)
        streamed = list(reference_coefficients(problem, spec, traj))
        expected = per_step_coefficients(problem, spec, traj)
        assert len(streamed) == len(expected) == traj.norms.size
        for got, want in zip(streamed, expected):
            assert got.step == want.step
            assert np.array_equal(got.c_s, want.c_s)
            assert np.array_equal(got.c_us, want.c_us)
            assert np.array_equal(got.d, want.d)

    @given(run_params)
    @settings(max_examples=40, deadline=None)
    def test_close_to_the_per_step_loop_on_the_cubic(self, run):
        # differences along the eigenvectors and along each step's direction
        # agree to O(h^2): the cubic's Hessian is linear, so to rounding
        eps, alpha_mode, theta_us_sq = run
        problem = cubic_test()
        spec, traj = reference_run(problem, eps, alpha_mode, theta_us_sq, k_max=300)
        streamed = list(reference_coefficients(problem, spec, traj))
        expected = per_step_coefficients(problem, spec, traj)
        assert len(streamed) == len(expected)
        for got, want in zip(streamed, expected):
            assert got.step == want.step
            assert_allclose(got.c_s, want.c_s, rtol=0, atol=1e-9)
            assert_allclose(got.c_us, want.c_us, rtol=0, atol=1e-9)
            assert_allclose(got.d, want.d, rtol=0, atol=1e-9)

    @given(
        st.integers(2, 6),
        st.floats(0.01, 10.0),
        st.floats(1e-3, 1.0),
        st.lists(st.floats(-1.0, 1.0), min_size=36, max_size=36),
    )
    @settings(max_examples=100, deadline=None)
    def test_coefficients_at_keeps_its_formula(self, n, alpha, u_norm, entries):
        # the shared block helper reproduces the per-step formula bit for bit
        lam = np.linspace(2.0, -1.5, n)
        spec = decompose(np.diag(lam))
        h = np.reshape(entries[: n * n], (n, n))
        h = h + h.T
        got = coefficients_at(spec, h, u_norm, alpha, step=3)
        v = spec.eigenvectors
        hv = v.T @ h @ v
        lam = spec.eigenvalues
        c = 1.0 - alpha * lam - alpha * (u_norm / 2.0) * np.diag(hv)
        cross = spec.cross_group
        gaps = lam[None, :] - lam[:, None]
        d = np.where(
            cross, hv.T * lam[:, None] * (alpha * u_norm / 2.0) / np.where(cross, gaps, 1.0), 0.0
        )
        assert np.array_equal(got.c_s, c[spec.stable_idx])
        assert np.array_equal(got.c_us, c[spec.unstable_idx])
        assert np.array_equal(got.d, d)
        assert got.step == 3

    @given(flat_problems(), st.sampled_from([1e-2, 1e-4, 1e-6]))
    @settings(max_examples=40, deadline=None)
    def test_h_prime_is_exactly_zero_where_it_vanishes(self, problem, eps):
        # the premise of the frozen-map blocks: no transfer, no (n, n) block
        spec = problem.spectrum
        assert not approx._derivative_in_eigenbasis(problem, spec, eps).any()

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_h_prime_is_nonzero_on_the_cubic(self, eps):
        problem = cubic_test()
        assert approx._derivative_in_eigenbasis(problem, problem.spectrum, eps).any()

    def test_differences_once_per_eigenvector(self):
        calls = []
        cubic = cubic_test()

        def hessian(x):
            calls.append(1)
            return cubic.hessian(x)

        counted = dataclasses.replace(cubic, hessian=hessian)
        spec, traj = reference_run(cubic, 0.01, 0.1, 0.01, k_max=None)
        assert traj.norms.size > 20
        streamed = reference_coefficients(counted, spec, traj)
        assert len(calls) == 2 * spec.dim  # not two per step
        assert len(list(streamed)) == traj.norms.size
        assert len(calls) == 2 * spec.dim

    def test_streams_in_bounded_memory(self):
        # n = 60, eps 1e-6: 4,240 steps whose (60, 60) transfer matrices
        # would take 122 MB if all were held at once
        problem = phase_retrieval(60, seed=0)
        spec, traj = reference_run(problem, 1e-6, 0.002, 1e-6, k_max=None)
        assert traj.norms.size > 4000
        proj = project(traj.radials[0], spec, 1e-6)
        tracemalloc.start()
        try:
            coeffs = reference_coefficients(problem, spec, traj)
            path = eps_trajectory(proj, spec, coeffs, traj.norms.size - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.shape == traj.radials.shape
        assert peak < 20 << 20, f"peak {peak / 2**20:.1f} MiB"

    def test_a_short_iterator_names_the_shortfall(self):
        problem = cubic_test()
        spec, traj = reference_run(problem, 0.01, 0.1, 0.01, k_max=10)
        proj = project(traj.radials[0], spec, 0.01)
        sets = list(reference_coefficients(problem, spec, traj))
        with pytest.raises(ValueError, match="need 5 coefficient sets, got 3"):
            eps_trajectory(proj, spec, iter(sets[:3]), 5)
        with pytest.raises(ValueError, match=f"need 20 coefficient sets, got {len(sets)}"):
            eps_trajectory(proj, spec, reference_coefficients(problem, spec, traj), 20)


def step_by_step_trajectory(projections, spectrum, coeffs, big_k):
    """The per-step reference: the (n, n) recurrence at every step, one set at a time."""
    n = spectrum.dim
    a0 = projections.signs * theta_full(projections, spectrum)
    v = spectrum.eigenvectors
    path = np.empty((big_k + 1, n))
    path[0] = projections.eps * (v @ a0)
    p = np.ones(n)
    b = np.zeros((n, n))
    sets = iter(coeffs)
    for k in range(big_k):
        step = next(sets)
        c = np.empty(n)
        c[spectrum.stable_idx] = step.c_s
        c[spectrum.unstable_idx] = step.c_us
        b = b * c[None, :] + p[:, None] * step.d
        p = p * c
        path[k + 1] = projections.eps * (v @ (p * a0 + b @ a0))
    return path


def assert_same_path(proj, spec, sets, big_k):
    with np.errstate(over="ignore", invalid="ignore"):
        got = eps_trajectory(proj, spec, sets, big_k)
        want = step_by_step_trajectory(proj, spec, list(sets), big_k)
    assert np.array_equal(got, want, equal_nan=True)
    return got


def constant_sets(spec, h, u_norm, alpha, count):
    return [coefficients_at(spec, h, u_norm, alpha, step=k) for k in range(count)]


class TestBlockCore:
    """eps_trajectory's block core against the step-by-step recurrence, bit for bit."""

    @given(flat_problems(), run_params)
    @settings(max_examples=40, deadline=None)
    def test_where_h_prime_vanishes(self, problem, run):
        eps, alpha_mode, theta_us_sq = run
        spec, traj = reference_run(problem, eps, alpha_mode, theta_us_sq, k_max=300)
        proj = project(traj.radials[0], spec, eps)
        big_k = traj.norms.size - 1
        got = eps_trajectory(proj, spec, reference_coefficients(problem, spec, traj), big_k)
        # the per-step loop on the per-step coefficients is the whole former pipeline
        want = step_by_step_trajectory(proj, spec, per_step_coefficients(problem, spec, traj), big_k)
        assert np.array_equal(got, want, equal_nan=True)

    @given(run_params)
    @settings(max_examples=30, deadline=None)
    def test_on_the_cubic(self, run):
        eps, alpha_mode, theta_us_sq = run
        problem = cubic_test()
        spec, traj = reference_run(problem, eps, alpha_mode, theta_us_sq, k_max=300)
        proj = project(traj.radials[0], spec, eps)
        assert_same_path(proj, spec, reference_coefficients(problem, spec, traj), traj.norms.size - 1)

    def test_big_k_zero(self):
        problem = cubic_test()
        spec, traj = reference_run(problem, 0.01, 0.1, 0.01, k_max=10)
        proj = project(traj.radials[0], spec, 0.01)
        for sets in (reference_coefficients(problem, spec, traj), [], iter([])):
            path = assert_same_path(proj, spec, sets, 0)
            assert path.shape == (1, 2)

    @given(
        st.integers(2, 6),
        st.integers(0, 200),
        st.integers(0, 200),
        st.floats(1e-3, 0.5),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_plain_list_of_sets(self, n, zero_steps, live_steps, alpha, seed):
        # zero transfers first, then nonzero ones: the recurrence starts
        # mid-stream, at a block boundary or inside a block
        rng = np.random.default_rng(seed)
        spec = decompose(np.diag(np.linspace(2.0, -1.5, n)))
        h = rng.uniform(-1.0, 1.0, (n, n))
        sets = constant_sets(spec, np.zeros((n, n)), 0.1, alpha, zero_steps) + [
            coefficients_at(spec, h + h.T, 0.1, alpha, step=zero_steps + k) for k in range(live_steps)
        ]
        proj = project(sphere_point(spec, 0.1, 0.3), spec, 0.1)
        assert_same_path(proj, spec, sets, len(sets))

    @pytest.mark.parametrize("live", [False, True], ids=["zero-d", "nonzero-d"])
    @pytest.mark.parametrize("lead", [0, 63, 100])
    def test_overflow_turns_to_inf_then_nan(self, live, lead):
        # c_us = 1e200: P overflows on the second such step, and the next
        # step's P * d is inf * 0, NaN, from where every row stays NaN.  The
        # eigenvectors are rotated, so an inf amplitude reaches every coordinate.
        r = np.array([[0.8, -0.6], [0.6, 0.8]])
        spec = decompose(r @ np.diag([1.0, -1.0]) @ r.T)
        proj = project(sphere_point(spec, 0.1, 0.5), spec, 0.1)
        t = 1e-3 if live else 0.0

        def hand_set(c_s, c_us, step):
            d = np.array([[0.0, t], [t, 0.0]])
            return CoefficientSet(c_s=np.array([c_s]), c_us=np.array([c_us]), d=d, step=step)

        sets = [hand_set(0.9, 1.1, k) for k in range(lead)]
        sets += [hand_set(0.5, 1e200, lead + k) for k in range(6)]
        path = assert_same_path(proj, spec, sets, len(sets))
        assert np.all(np.isfinite(path[: lead + 2]))
        assert not np.any(np.isfinite(path[lead + 2]))
        if not live:
            assert np.all(np.isinf(path[lead + 2]))
        assert np.all(np.isnan(path[lead + 3 :]))

    def test_a_nan_factor_turns_every_later_row_nan(self):
        # what a step on the saddle gives: 0 / 0 directions, so NaN coefficients
        spec = plain_spectrum()
        proj = project(sphere_point(spec, 0.1, 0.5), spec, 0.1)
        sets = constant_sets(spec, np.zeros((2, 2)), 0.1, 0.1, 70)
        sets[66] = dataclasses.replace(sets[66], c_s=np.array([np.nan]))
        path = assert_same_path(proj, spec, sets, len(sets))
        assert np.all(np.isfinite(path[:67])) and np.all(np.isnan(path[67:]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_start_amplitude(self, bad):
        # B @ a(0) is 0 * inf or 0 * NaN even while B is zero
        spec = plain_spectrum()
        proj = project(sphere_point(spec, 0.1, 0.5), spec, 0.1)
        proj = dataclasses.replace(proj, theta_us=np.array([bad]))
        path = assert_same_path(proj, spec, constant_sets(spec, np.zeros((2, 2)), 0.1, 0.1, 3), 3)
        assert np.all(np.isnan(path[1:]))

    def test_a_run_that_lands_on_the_saddle(self):
        problem = quadratic_saddle([1.0, -1.0])
        spec, traj = reference_run(problem, 0.1, 1.0, 0.0, k_max=5)
        assert np.all(traj.norms[1:] == 0.0)
        proj = project(traj.radials[0], spec, 0.1)
        path = assert_same_path(proj, spec, reference_coefficients(problem, spec, traj), 5)
        assert np.all(np.isnan(path[2:]))


class TestSampleFamily:
    def test_degenerate_family_reproduces_the_single_run(self):
        # M = 0 collapses every interval to a point, so all samples coincide
        # with the exact run and exit together at step 25
        spec = plain_spectrum()
        eps = 0.1
        u0 = sphere_point(spec, eps, theta_us_sq=0.00998)
        proj = project(u0, spec, eps)
        iv = coefficient_intervals(1.0, 1.0, 0.0, 2.0, alpha=0.1, eps=eps)
        fam = sample_family(iv, proj, spec, k_max=60, eps=eps, n_samples=50, seed=4)
        assert np.all(fam.sampled_exit_times == 25.0)
        assert fam.k_iota == 25
        assert fam.sup_exit == 25.0
        assert fam.min_ratio_curve.size == fam.k_iota + 1
        assert fam.min_ratio_curve[0] == pytest.approx(1.0)

    def test_contracting_family_never_exits(self):
        spec = plain_spectrum()
        eps = 0.1
        u0 = sphere_point(spec, eps, theta_us_sq=0.0)
        proj = project(u0, spec, eps)
        iv = coefficient_intervals(1.0, 1.0, 0.0, 2.0, alpha=0.1, eps=eps)
        with pytest.raises(NoExitInFamily):
            sample_family(iv, proj, spec, k_max=50, eps=eps, n_samples=20, seed=0)

    def test_same_seed_same_samples(self):
        spec = plain_spectrum()
        eps = 0.01
        u0 = sphere_point(spec, eps, theta_us_sq=0.1)
        proj = project(u0, spec, eps)
        iv = coefficient_intervals(1.0, 1.0, 0.8, 2.0, alpha=0.5, eps=eps)
        a = sample_family(iv, proj, spec, k_max=80, eps=eps, n_samples=64, seed=9)
        b = sample_family(iv, proj, spec, k_max=80, eps=eps, n_samples=64, seed=9)
        assert np.array_equal(a.sampled_exit_times, b.sampled_exit_times)
        assert np.array_equal(a.min_ratio_curve, b.min_ratio_curve)
        c = sample_family(iv, proj, spec, k_max=80, eps=eps, n_samples=64, seed=10)
        assert not np.array_equal(a.min_ratio_curve, c.min_ratio_curve)

    def test_every_exit_precedes_the_family_floor_crossing(self):
        # the sampled minimum crosses one only after every individual sample
        # has crossed, so sup_exit <= k_iota whenever k_iota is finite
        spec = decompose(np.diag([1.0, 0.6, -0.8, -1.0]))
        eps = 0.005
        u0 = sphere_point(spec, eps, theta_us_sq=0.2)
        proj = project(u0, spec, eps)
        iv = coefficient_intervals(1.0, 0.6, 1.0, spec.delta, alpha=0.8, eps=eps)
        fam = sample_family(iv, proj, spec, k_max=200, eps=eps, n_samples=100, seed=1)
        assert fam.k_iota is not None
        assert fam.sup_exit <= fam.k_iota
        exited = np.isfinite(fam.sampled_exit_times)
        assert np.all(fam.sampled_exit_times[exited] >= 1)

    def test_stop_at_the_floor_crossing_changes_no_result(self):
        # at k_iota every sample has exited, so a larger budget only adds
        # steps that the stop skips: each budget from k_iota up gives one result
        spec = decompose(np.diag([1.0, 0.6, -0.8, -1.0]))
        eps = 0.005
        proj = project(sphere_point(spec, eps, theta_us_sq=0.2), spec, eps)
        iv = coefficient_intervals(1.0, 0.6, 1.0, spec.delta, alpha=0.8, eps=eps)
        base = sample_family(iv, proj, spec, k_max=200, eps=eps, n_samples=100, seed=1)
        for k_max in (base.k_iota, 200, 2000):
            fam = sample_family(iv, proj, spec, k_max=k_max, eps=eps, n_samples=100, seed=1)
            assert np.array_equal(fam.sampled_exit_times, base.sampled_exit_times)
            assert fam.k_iota == base.k_iota
            assert fam.sup_exit == base.sup_exit
            assert np.array_equal(fam.min_ratio_curve, base.min_ratio_curve)
            assert fam.min_ratio_curve.size == base.k_iota + 1
            assert fam.k_max == k_max

    @staticmethod
    def _count_steps(monkeypatch):
        calls = []

        def counting(seed, k):
            calls.append(k)
            return _step_rng(seed, k)

        monkeypatch.setattr(approx, "_step_rng", counting)
        return calls

    def test_sampling_stops_at_k_iota(self, monkeypatch):
        spec = plain_spectrum()
        eps = 0.1
        proj = project(sphere_point(spec, eps, theta_us_sq=0.00998), spec, eps)
        iv = coefficient_intervals(1.0, 1.0, 0.0, 2.0, alpha=0.1, eps=eps)
        calls = self._count_steps(monkeypatch)
        fam = sample_family(iv, proj, spec, k_max=500, eps=eps, n_samples=10, seed=4)
        assert fam.k_iota == 25
        assert calls == list(range(1, 26))

    def test_censored_family_runs_the_whole_budget(self, monkeypatch):
        # one sample still inside at k_max keeps the floor below one
        spec = plain_spectrum()
        eps = 0.1
        proj = project(sphere_point(spec, eps, theta_us_sq=0.003), spec, eps)
        iv = coefficient_intervals(1.0, 1.0, 10.0, 2.0, alpha=0.05, eps=eps)
        calls = self._count_steps(monkeypatch)
        fam = sample_family(iv, proj, spec, k_max=60, eps=eps, n_samples=50, seed=3)
        assert np.any(np.isinf(fam.sampled_exit_times))
        assert fam.k_iota is None
        assert len(calls) == 60
        assert fam.min_ratio_curve.size == 61
        assert fam.k_max == 60

    def test_phase_retrieval_n60_draws_one_step(self, monkeypatch):
        # every sample exits at step 1, so a 4,000-step budget costs one draw
        prob = phase_retrieval(60, seed=0)
        spec = prob.spectrum
        eps = 1e-6
        const = estimate_constants(prob, eps)
        alpha = 1.0 / spec.big_l
        proj = project(sphere_point(spec, eps, theta_us_sq=0.5), spec, eps)
        iv = coefficient_intervals(
            const.big_l, const.beta, const.big_m, const.delta, alpha=alpha, eps=eps
        )
        calls = self._count_steps(monkeypatch)
        fam = sample_family(iv, proj, spec, k_max=4000, eps=eps, n_samples=100, seed=0)
        assert fam.k_iota == 1
        assert np.all(fam.sampled_exit_times == 1.0)
        assert fam.min_ratio_curve.size == 2
        assert len(calls) == 1
        assert fam.k_max == 4000

    def test_eps_mismatch_rejected(self):
        spec = plain_spectrum()
        u0 = sphere_point(spec, 0.1, theta_us_sq=0.1)
        proj = project(u0, spec, 0.1)
        iv = coefficient_intervals(1.0, 1.0, 0.0, 2.0, alpha=0.1, eps=0.1)
        with pytest.raises(ValueError):
            sample_family(iv, proj, spec, k_max=10, eps=0.2, n_samples=5, seed=0)

    def test_argument_validation(self):
        spec = plain_spectrum()
        u0 = sphere_point(spec, 0.1, theta_us_sq=0.1)
        proj = project(u0, spec, 0.1)
        iv = coefficient_intervals(1.0, 1.0, 0.0, 2.0, alpha=0.1, eps=0.1)
        with pytest.raises(ValueError):
            sample_family(iv, proj, spec, k_max=0, eps=0.1, n_samples=5, seed=0)
        with pytest.raises(ValueError):
            sample_family(iv, proj, spec, k_max=10, eps=0.1, n_samples=0, seed=0)

    def test_draws_do_not_depend_on_the_run_shape(self):
        # a sample's step-k draws are keyed by (seed, t, k) alone, so adding
        # samples or steps leaves the existing samples' exits alone
        spec = plain_spectrum()
        eps = 0.1
        proj = project(sphere_point(spec, eps, theta_us_sq=0.003), spec, eps)
        iv = coefficient_intervals(1.0, 1.0, 10.0, 2.0, alpha=0.05, eps=eps)
        few = sample_family(iv, proj, spec, k_max=80, eps=eps, n_samples=20, seed=3)
        many = sample_family(iv, proj, spec, k_max=80, eps=eps, n_samples=50, seed=3)
        assert np.array_equal(few.sampled_exit_times, many.sampled_exit_times[:20])
        short = sample_family(iv, proj, spec, k_max=60, eps=eps, n_samples=50, seed=3)
        long_exits = many.sampled_exit_times
        assert np.any(long_exits > 60) and np.any(long_exits <= 60)
        expected = np.where(long_exits <= 60, long_exits, np.inf)
        assert np.array_equal(short.sampled_exit_times, expected)
        assert np.array_equal(short.min_ratio_curve, many.min_ratio_curve[:61])

    def test_memory_is_flat_in_k_max(self):
        # steps are drawn one at a time: no array has both a sample and a
        # step axis, so 4x the steps must not cost 4x the memory
        lam = np.concatenate([np.linspace(2.0, 0.5, 40), np.linspace(-0.5, -1.0, 20)])
        spec = quadratic_saddle(lam).spectrum
        eps = 0.01
        proj = project(sphere_point(spec, eps, theta_us_sq=0.5), spec, eps)
        iv = coefficient_intervals(spec.big_l, spec.beta, 1.0, spec.delta, alpha=0.25, eps=eps)
        for k_max in (100, 400):
            tracemalloc.start()
            try:
                sample_family(iv, proj, spec, k_max=k_max, eps=eps, n_samples=2, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, f"k_max {k_max}: peak {peak / 2**20:.1f} MiB"

    def test_step_streams_are_not_plain_keys(self):
        def state(rng):
            s = rng.bit_generator.state["state"]
            return s["state"], s["inc"]

        family = {state(_step_rng(seed, k)) for seed in range(4) for k in range(64)}
        plain = {
            state(np.random.default_rng(key))
            for seed in range(4)
            for i in range(64)
            for key in ((seed, i), (seed, 0, i), (seed, 1, i))
        }
        assert len(family) == 4 * 64
        assert family.isdisjoint(plain)
        # plain keys are zero-padded, so these consumers do share streams
        assert state(np.random.default_rng((5, 0, 0))) == state(np.random.default_rng((5, 0)))


def test_reference_coefficients_defaults_track_the_run():
    prob = cubic_test()
    spec = decompose(prob.hessian(prob.saddle))
    eps = 0.01
    u0 = sphere_point(spec, eps, theta_us_sq=0.05)
    traj = gd_run(prob, u0, 0.1, eps, k_max=10)
    coeffs = list(reference_coefficients(prob, spec, traj))
    assert len(coeffs) == traj.norms.size  # one per recorded point
    for k, c in enumerate(coeffs):
        assert c.step == k
