import numpy as np
import pytest
from numpy.testing import assert_allclose

from saddlesim.perturb import (
    DegeneracyUnhandled,
    InvalidAlpha,
    directional_hessian_derivative,
    eps_validity_bounds,
    fd_step,
    hessian_first_order,
    rs_corrections,
)
from saddlesim.problems import cubic_test, quadratic_saddle
from saddlesim.spectral import decompose


class TestDirectionalDerivative:
    def test_known_rates_of_the_cubic(self):
        # H(x) = [[1 + 2 x2, 2 x1], [2 x1, -1]] so dH/dx2 = diag(2, 0) and
        # dH/dx1 has 2 on the off-diagonal
        prob = cubic_test()
        assert_allclose(
            directional_hessian_derivative(prob, np.array([0.0, 1.0])),
            [[2.0, 0.0], [0.0, 0.0]],
            atol=1e-9,
        )
        assert_allclose(
            directional_hessian_derivative(prob, np.array([1.0, 0.0])),
            [[0.0, 2.0], [2.0, 0.0]],
            atol=1e-9,
        )

    def test_direction_is_normalized(self):
        prob = cubic_test()
        d1 = directional_hessian_derivative(prob, np.array([0.0, 2.5]))
        d2 = directional_hessian_derivative(prob, np.array([0.0, 1.0]))
        assert_allclose(d1, d2, atol=1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            directional_hessian_derivative(cubic_test(), np.zeros(2))

    def test_output_symmetric(self):
        prob = cubic_test()
        d = directional_hessian_derivative(prob, np.array([0.3, -0.7]))
        assert np.array_equal(d, d.T)

    def test_vanishes_on_quadratics(self):
        prob = quadratic_saddle([1.0, -2.0])
        d = directional_hessian_derivative(prob, np.array([1.0, 1.0]))
        assert_allclose(d, np.zeros((2, 2)), atol=1e-12)

    def test_step_quadratic_convergence(self):
        # halving h shrinks the truncation error 4x on a quartic Hessian field
        def value(x):
            return 0.5 * x[0] ** 2 - 0.5 * x[1] ** 2 + x[0] ** 4 * x[1]

        from saddlesim.problems import SaddleProblem

        prob = SaddleProblem(
            dim=2,
            value=value,
            gradient=lambda x: np.array(
                [x[0] + 4.0 * x[0] ** 3 * x[1], -x[1] + x[0] ** 4]
            ),
            hessian=lambda x: np.array(
                [
                    [1.0 + 12.0 * x[0] ** 2 * x[1], 4.0 * x[0] ** 3],
                    [4.0 * x[0] ** 3, -1.0],
                ]
            ),
            saddle=np.zeros(2),
            label="quartic",
            # the Hessian's entries have gradients of norm at most 24 eps^2,
            # 12 eps^2 and 12 eps^2 on the eps-ball: sqrt(864) eps^2 < 30 eps^2
            big_m=lambda eps: (30.0 * eps**2, "certified"),
        )
        d = np.array([1.0, 1.0]) / np.sqrt(2.0)
        # H deviates from H(0) only at second order in the offset, so the true
        # rate is zero and the central difference converges to it like h^2
        exact = np.zeros((2, 2))
        err1 = np.max(np.abs(directional_hessian_derivative(prob, d, h=1e-2) - exact))
        err2 = np.max(np.abs(directional_hessian_derivative(prob, d, h=5e-3) - exact))
        assert err2 <= err1 / 3.5


class TestFdStep:
    def test_scales_with_radius(self):
        assert fd_step(0.1) == pytest.approx(1e-4)
        assert fd_step(1.0) == pytest.approx(1e-3)

    def test_floor(self):
        assert fd_step(1e-5) == pytest.approx(1e-6)
        assert fd_step(0.0) == pytest.approx(1e-6)


class TestRsCorrections:
    def test_off_diagonal_perturbation_rotates(self):
        spec = decompose(np.diag([1.0, -1.0]))
        h = np.array([[0.0, 2.0], [2.0, 0.0]])
        data = rs_corrections(spec, h)
        assert_allclose(data.eigenvalue_rates, [0.0, 0.0], atol=1e-14)
        # dv_1 = <v2, H v1>/(lam1 - lam2) v2 = (2/2) v2
        assert_allclose(data.eigenvector_rates[:, 0], [0.0, 1.0], atol=1e-14)
        assert_allclose(data.eigenvector_rates[:, 1], [-1.0, 0.0], atol=1e-14)

    def test_diagonal_perturbation_shifts(self):
        spec = decompose(np.diag([1.0, -1.0]))
        data = rs_corrections(spec, np.diag([2.0, 0.0]))
        assert_allclose(data.eigenvalue_rates, [2.0, 0.0], atol=1e-14)
        assert_allclose(data.eigenvector_rates, np.zeros((2, 2)), atol=1e-14)

    def test_rates_orthogonal_to_own_vector(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        spec = decompose((a + a.T) / 2 + np.diag([4.0] * 3 + [-4.0] * 3))
        h = rng.standard_normal((6, 6))
        h = (h + h.T) / 2
        data = rs_corrections(spec, h)
        for i in range(6):
            dot = spec.eigenvectors[:, i] @ data.eigenvector_rates[:, i]
            assert abs(dot) < 1e-12

    def test_first_order_eigenpair_residual(self):
        # (lam_i + t dlam_i, v_i + t dv_i) must satisfy the eigen equation of
        # A + t H up to O(t^2)
        rng = np.random.default_rng(3)
        for trial in range(5):
            a = rng.standard_normal((5, 5))
            a = (a + a.T) / 2 + np.diag([3.0, 2.0, 1.0, -1.5, -3.0])
            spec = decompose(a)
            h = rng.standard_normal((5, 5))
            h = (h + h.T) / 2
            data = rs_corrections(spec, h)
            t = 1e-4
            at = a + t * h
            for i in range(5):
                vi = spec.eigenvectors[:, i] + t * data.eigenvector_rates[:, i]
                li = spec.eigenvalues[i] + t * data.eigenvalue_rates[i]
                res = np.linalg.norm(at @ vi - li * vi)
                assert res < 1e-6

    def test_degenerate_pair_needs_grouped_mode(self):
        spec = decompose(np.diag([1.0 + 1e-9, 1.0, -1.0]))
        h = np.full((3, 3), 0.5)
        with pytest.raises(DegeneracyUnhandled):
            rs_corrections(spec, h)
        data = rs_corrections(spec, h, degenerate=True)
        # the grouped formula drops the within-group term entirely
        for i, l in ((0, 1), (1, 0)):
            assert abs(spec.eigenvectors[:, l] @ data.eigenvector_rates[:, i]) < 1e-12

    def test_grouped_mode_matches_plain_on_separated_spectra(self):
        spec = decompose(np.diag([2.0, -1.0, -3.0]))
        rng = np.random.default_rng(4)
        h = rng.standard_normal((3, 3))
        h = (h + h.T) / 2
        plain = rs_corrections(spec, h)
        grouped = rs_corrections(spec, h, degenerate=True)
        assert_allclose(grouped.eigenvector_rates, plain.eigenvector_rates, atol=1e-14)
        assert_allclose(grouped.eigenvalue_rates, plain.eigenvalue_rates, atol=1e-14)

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_matches_the_pairwise_sum(self, degenerate):
        # Reference: the defining sum over eigen-index pairs, one pair at a time.
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        spec = decompose(q @ np.diag([3.0, 2.0, 1.0, -1.0, -1.0 - 1e-3, -2.0]) @ q.T)
        assert spec.groups == ((0,), (1,), (2,), (3, 4), (5,))
        h = rng.standard_normal((6, 6))
        h = (h + h.T) / 2
        owner = {i: g for g, members in enumerate(spec.groups) for i in members}
        lam, v = spec.eigenvalues, spec.eigenvectors
        hv = v.T @ h @ v
        expected = np.zeros((6, 6))
        for i in range(6):
            for l in range(6):
                if l != i and not (degenerate and owner[l] == owner[i]):
                    expected[:, i] += hv[l, i] / (lam[i] - lam[l]) * v[:, l]
        data = rs_corrections(spec, h, degenerate=degenerate)
        assert_allclose(data.eigenvector_rates, expected, rtol=1e-12, atol=1e-12)


class TestHessianFirstOrder:
    def test_zero_offset_returns_base(self):
        prob = cubic_test()
        assert_allclose(hessian_first_order(prob, np.zeros(2)), np.diag([1.0, -1.0]))

    def test_exact_on_linear_hessian_fields(self):
        # the cubic's Hessian is linear in x, so the first-order model is exact
        prob = cubic_test()
        u = np.array([0.1, -0.05])
        assert_allclose(hessian_first_order(prob, u), prob.hessian(u), atol=1e-9)

    def test_p_scales_the_correction(self):
        prob = cubic_test()
        u = np.array([0.1, 0.0])
        base = prob.hessian(prob.saddle)
        half = hessian_first_order(prob, u, p=0.5)
        full = hessian_first_order(prob, u, p=1.0)
        assert_allclose(half - base, 0.5 * (full - base), atol=1e-12)


class TestValidityRadius:
    def test_near_top_step_formula(self):
        # alpha = 1/L selects 2 L delta / (M (2 L n^2 - delta))
        got = eps_validity_bounds(1.0, 1.0, 2, 0.5, alpha=1.0)
        assert got == pytest.approx(0.13333333333333333, rel=1e-12)

    def test_interior_step_formula(self):
        # alpha < 1/L selects 2 delta (1 - alpha L) / (alpha M (2 L n^2 + delta))
        got = eps_validity_bounds(1.0, 1.0, 2, 0.5, alpha=0.5)
        assert got == pytest.approx(0.11764705882352941, rel=1e-12)

    def test_quadratics_are_always_valid(self):
        assert eps_validity_bounds(1.0, 0.0, 5, 2.0, alpha=0.3) == np.inf

    def test_alpha_domain(self):
        with pytest.raises(InvalidAlpha):
            eps_validity_bounds(1.0, 1.0, 2, 0.5, alpha=0.0)
        with pytest.raises(InvalidAlpha):
            eps_validity_bounds(2.0, 1.0, 2, 0.5, alpha=0.75)
