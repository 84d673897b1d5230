import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from saddlesim import spectral
from saddlesim.perturb import directional_hessian_derivative
from saddlesim.problems import (
    NotStrictSaddle,
    NotStrictSaddleAtZero,
    ProblemConstants,
    SaddleProblem,
    cubic_test,
    estimate_constants,
    phase_retrieval,
    quadratic_saddle,
    validate_assumptions,
)
from saddlesim.spectral import decompose


# seeds of one, two and three 32-bit words; a config may carry any nonnegative seed
WORD_SEEDS = [0, 2**32, 2**64 + 5]


def central_diff_gradient(problem, x, h):
    g = np.empty(problem.dim)
    for i in range(problem.dim):
        e = np.zeros(problem.dim)
        e[i] = h
        g[i] = (problem.value(x + e) - problem.value(x - e)) / (2.0 * h)
    return g


class TestQuadratic:
    def test_fields(self):
        prob = quadratic_saddle([1.0, -1.0])
        assert prob.dim == 2
        assert_allclose(prob.saddle, [0.0, 0.0])
        x = np.array([0.2, 0.1])
        assert prob.value(x) == pytest.approx(0.5 * (0.04 - 0.01))
        assert_allclose(prob.gradient(x), [0.2, -0.1])
        assert_allclose(prob.hessian(x), np.diag([1.0, -1.0]))
        assert "quadratic" in prob.label

    def test_rejects_definite_spectra(self):
        with pytest.raises(NotStrictSaddle):
            quadratic_saddle([1.0, 2.0])
        with pytest.raises(NotStrictSaddle):
            quadratic_saddle([-1.0, -2.0])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            quadratic_saddle([1.0])

    def test_constants_have_no_curvature_drift(self):
        prob = quadratic_saddle([1.0, -1.0])
        constants = estimate_constants(prob, 0.1)
        assert constants.big_l == pytest.approx(1.0)
        assert constants.beta == pytest.approx(1.0)
        assert constants.delta == pytest.approx(2.0)
        assert constants.big_m == 0.0
        assert constants.eps_max == np.inf


class TestCubic:
    def test_saddle_is_critical(self):
        prob = cubic_test()
        assert_allclose(prob.gradient(prob.saddle), [0.0, 0.0])
        assert_allclose(prob.hessian(prob.saddle), np.diag([1.0, -1.0]))

    def test_hessian_bends_with_position(self):
        prob = cubic_test()
        assert_allclose(prob.hessian([0.0, 0.1]), [[1.2, 0.0], [0.0, -1.0]])
        x = np.array([0.3, -0.2])
        assert_allclose(prob.gradient(x), [0.3 - 0.12, 0.2 + 0.09])
        assert_allclose(prob.hessian(x), [[0.6, 0.6], [0.6, -1.0]])

    def test_lipschitz_estimate_brackets_true_constant(self):
        # the Hessian is linear in x, so the Frobenius-norm Lipschitz constant
        # is exactly sup_d ||H'(d)||_F = 2 sqrt(2)
        prob = cubic_test()
        sampled = reference_big_m(prob, 0.1, samples=2000)
        assert 2.6 <= sampled <= 2.0 * np.sqrt(2.0)
        assert reference_big_m(prob, 0.1, samples=2000) == sampled

    def test_eps_max_positive_and_finite(self):
        constants = estimate_constants(cubic_test(), 0.1)
        assert 0.0 < constants.eps_max < np.inf


class TestPhaseRetrieval:
    def test_injected_rows_give_known_hessian(self):
        prob = phase_retrieval(2, a_matrix=np.eye(2))
        assert_allclose(prob.hessian(np.zeros(2)), np.diag([-0.5, 0.5]))
        assert_allclose(prob.gradient(np.zeros(2)), [0.0, 0.0])

    def test_seeded_instances_are_identical(self):
        p1 = phase_retrieval(6, seed=3)
        p2 = phase_retrieval(6, seed=3)
        x = np.random.default_rng(0).standard_normal(6) * 0.01
        assert np.array_equal(p1.hessian(x), p2.hessian(x))
        assert np.array_equal(p1.gradient(x), p2.gradient(x))
        p3 = phase_retrieval(6, seed=4)
        assert not np.array_equal(p1.hessian(x), p3.hessian(x))

    @pytest.mark.parametrize("seed", WORD_SEEDS)
    def test_sensing_rows_are_default_rng_rows(self, seed):
        rows = np.stack([np.random.default_rng((seed, j)).standard_normal(8) for j in range(8)])
        seeded, injected = phase_retrieval(8, seed=seed), phase_retrieval(8, a_matrix=rows)
        x = np.random.default_rng(0).standard_normal(8) * 0.01
        assert np.array_equal(seeded.hessian(x), injected.hessian(x))
        assert np.array_equal(seeded.gradient(x), injected.gradient(x))

    def test_zero_is_strict_saddle(self):
        prob = phase_retrieval(10, seed=0)
        h0 = prob.hessian(prob.saddle)
        lam = np.linalg.eigvalsh(h0)
        assert lam.min() < 0 < lam.max()

    def test_degenerate_measurements_rejected(self):
        # both rows equal, so the positive and negative halves cancel at zero
        a = np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotStrictSaddleAtZero):
            phase_retrieval(2, a_matrix=a)


class TestConstantsValidation:
    def test_beta_cannot_exceed_big_l(self):
        with pytest.raises(ValueError):
            ProblemConstants(
                big_l=1.0, beta=2.0, delta=1.0, big_m=0.0, big_m_source="exact", eps_max=1.0
            )

    def test_negative_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            ProblemConstants(
                big_l=1.0, beta=1.0, delta=1.0, big_m=-0.5, big_m_source="exact", eps_max=1.0
            )

    def test_eps_max_must_be_positive(self):
        with pytest.raises(ValueError):
            ProblemConstants(
                big_l=1.0, beta=1.0, delta=1.0, big_m=0.0, big_m_source="exact", eps_max=0.0
            )

    @pytest.mark.parametrize("source", ["estimated", "sampled", "", "sampled:10"])
    def test_big_m_source_must_be_named(self, source):
        with pytest.raises(ValueError, match="big_m_source"):
            ProblemConstants(
                big_l=1.0, beta=1.0, delta=1.0, big_m=0.0, big_m_source=source, eps_max=1.0
            )


class TestDerivativeConsistency:
    @pytest.mark.parametrize("factory", [cubic_test, lambda: quadratic_saddle([1.5, -0.7])])
    def test_gradient_matches_value(self, factory):
        prob = factory()
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = 0.2 * rng.standard_normal(prob.dim)
            coarse = np.max(np.abs(central_diff_gradient(prob, x, 1e-3) - prob.gradient(x)))
            fine = np.max(np.abs(central_diff_gradient(prob, x, 5e-4) - prob.gradient(x)))
            # second-order stencil: quartering the step shrinks the error 4x,
            # unless both errors already sit at the rounding floor
            assert fine <= max(coarse / 3.5, 1e-10)

    def test_hessian_matches_gradient(self):
        prob = cubic_test()
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = 0.2 * rng.standard_normal(2)
            h = 1e-5
            cols = []
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                cols.append((prob.gradient(x + e) - prob.gradient(x - e)) / (2.0 * h))
            assert_allclose(np.column_stack(cols), prob.hessian(x), atol=1e-8)

    def test_phase_retrieval_hessian_is_flat_at_the_origin(self):
        # H(x) - H(0) = (3/m) A^T diag((Ax)^2) A is even in x, so the
        # central difference of the Hessian at the saddle is exactly zero
        prob = phase_retrieval(20, seed=0)
        u = np.random.default_rng(4).standard_normal(20)
        assert not np.any(directional_hessian_derivative(prob, u, h=1e-6))


def test_spectrum_is_decomposed_once(monkeypatch):
    calls = []

    def counted(hessian):
        calls.append(hessian)
        return decompose(hessian)

    monkeypatch.setattr(spectral, "decompose", counted)
    prob = cubic_test()
    spec = prob.spectrum
    assert prob.spectrum is spec
    estimate_constants(prob, 0.05)
    validate_assumptions(prob, 0.05, samples=10)
    assert len(calls) == 1
    assert_allclose(calls[0], prob.hessian(prob.saddle))
    assert_allclose(spec.eigenvalues, [1.0, -1.0])


class TestValidateAssumptions:
    def test_cubic_passes_everything(self):
        report = validate_assumptions(cubic_test(), 0.05, samples=200)
        assert report["is_morse"] and report["is_strict_saddle"]
        assert report["is_critical_point"]
        assert report["hessian_symmetric"] and report["hessian_symmetric_at_samples"]
        assert report["beta_ge_half_delta"]
        assert report["gradient_growth_ok"]
        assert report["constants"]["big_l"] == pytest.approx(1.0)

    def test_quadratic_growth_bound_is_tight(self):
        report = validate_assumptions(quadratic_saddle([1.0, -1.0]), 0.1, samples=200)
        assert report["gradient_growth_ok"]
        assert report["max_gradient_growth"] == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("seed", WORD_SEEDS)
    def test_growth_points_are_default_rng_points(self, seed):
        problem, eps = phase_retrieval(8, seed=1), 0.05
        report = validate_assumptions(problem, eps, samples=50, seed=seed)
        big_l = report["constants"]["big_l"]
        worst = 0.0
        for i in range(50):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, i)))
            d = rng.standard_normal(8)
            d /= np.linalg.norm(d)
            r = eps * rng.uniform(1e-6, 1.0)
            worst = max(worst, float(np.linalg.norm(problem.gradient(r * d)) / (big_l * r)))
        assert report["max_gradient_growth"] == worst

    @pytest.mark.parametrize("seed", WORD_SEEDS)
    def test_growth_points_share_no_sensing_row_stream(self, monkeypatch, seed):
        def state(rng):
            pcg = rng.bit_generator.state["state"]
            return pcg["state"], pcg["inc"]

        problem = phase_retrieval(8, seed=seed)
        rows = {state(np.random.default_rng((seed, j))) for j in range(8)}
        drawn = []
        default_rng = np.random.default_rng

        def recording(*args, **kwargs):
            rng = default_rng(*args, **kwargs)
            drawn.append(state(rng))
            return rng

        monkeypatch.setattr(np.random, "default_rng", recording)
        validate_assumptions(problem, 0.05, samples=50, seed=seed)
        assert not rows & set(drawn)
        assert len(set(drawn)) == 50

    def test_degenerate_problem_reported_not_raised(self):
        h = np.diag([1.0, 0.0, -1.0])
        prob = SaddleProblem(
            dim=3,
            value=lambda x: 0.5 * float(x @ (h @ x)),
            gradient=lambda x: h @ np.asarray(x, dtype=float),
            hessian=lambda x: h.copy(),
            saddle=np.zeros(3),
            label="degenerate",
            big_m=lambda eps: (0.0, "exact"),
        )
        report = validate_assumptions(prob, 0.1, samples=10)
        assert report["is_morse"] is False
        assert report["constants"] is None
        assert report["gradient_growth_ok"] is None

    @pytest.mark.parametrize(
        "h",
        [
            np.diag([1.0, 0.0, -1.0]),  # not Morse
            np.diag([1.0, 2.0]),  # not a strict saddle
            np.array([[1.0, 1e-6], [0.0, -1.0]]),  # asymmetric
        ],
        ids=["non-morse", "non-strict", "asymmetric"],
    )
    def test_every_report_has_the_same_keys(self, h):
        prob = SaddleProblem(
            dim=h.shape[0],
            value=lambda x: 0.5 * float(x @ (h @ x)),
            gradient=lambda x: h @ np.asarray(x, dtype=float),
            hessian=lambda x: h.copy(),
            saddle=np.zeros(h.shape[0]),
            label="flawed",
            big_m=lambda eps: (0.0, "exact"),
        )
        report = validate_assumptions(prob, 0.1, samples=10)
        full = validate_assumptions(cubic_test(), 0.05, samples=10)
        assert set(report) == set(full)
        assert report["gradient_growth_ok"] is None

    def test_a_problem_needs_its_big_m(self):
        with pytest.raises(TypeError, match="big_m"):
            SaddleProblem(dim=2, value=float, gradient=np.asarray, hessian=np.diag,
                          saddle=np.zeros(2), label="no M")

    def test_asymmetric_hessian_reported_not_raised(self):
        h = np.array([[1.0, 1e-6], [0.0, -1.0]])
        prob = SaddleProblem(
            dim=2,
            value=lambda x: 0.5 * float(x @ (h @ x)),
            gradient=lambda x: h @ np.asarray(x, dtype=float),
            hessian=lambda x: h.copy(),
            saddle=np.zeros(2),
            label="asymmetric",
            big_m=lambda eps: (0.0, "exact"),
        )
        report = validate_assumptions(prob, 0.1, samples=10)
        assert report["hessian_symmetric"] is False
        assert report["is_morse"] is None
        assert report["is_strict_saddle"] is None
        assert report["constants"] is None
        assert report["beta_ge_half_delta"] is None
        assert report["gradient_growth_ok"] is None


def ball_point(rng, dim, eps):
    """A uniform point of the eps-ball around the origin."""
    d = rng.standard_normal(dim)
    d /= np.linalg.norm(d)
    return eps * rng.uniform() ** (1.0 / dim) * d


def reference_big_m(problem, eps, samples, seed=0):
    """The largest Hessian ratio over `samples` random point pairs of the
    eps-ball: an estimate that can only fall below the supremum M."""
    big_m = 0.0
    for i in range(samples):
        rng = np.random.default_rng((seed, 0, i))
        x = problem.saddle + ball_point(rng, problem.dim, eps)
        y = problem.saddle + ball_point(rng, problem.dim, eps)
        gap = np.linalg.norm(x - y)
        if gap < 1e-12 * eps:
            continue
        ratio = np.linalg.norm(problem.hessian(x) - problem.hessian(y)) / gap
        if ratio > big_m:
            big_m = float(ratio)
    return big_m


def counting_hessian(problem):
    """problem with a hessian that counts its calls, spectrum already decomposed."""
    calls = []
    hessian = problem.hessian

    def counted(x):
        calls.append(1)
        return hessian(x)

    counted_problem = dataclasses.replace(problem, hessian=counted)
    counted_problem.spectrum
    calls.clear()
    return counted_problem, calls


@st.composite
def factory_problems(draw):
    kind = draw(st.sampled_from(["quadratic", "cubic", "phase_retrieval", "injected"]))
    if kind == "cubic":
        return cubic_test()
    n = draw(st.integers(2, 12))
    if kind == "quadratic":
        # a small value set repeats eigenvalues
        lam = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0]),
                            min_size=n, max_size=n))
        assume(min(lam) < 0 < max(lam))
        return quadratic_saddle(lam)
    try:
        if kind == "phase_retrieval":
            return phase_retrieval(n, seed=draw(st.integers(0, 20)))
        # one decimal per entry, so rows and products repeat
        rows = np.random.default_rng(draw(st.integers(0, 1000))).standard_normal((n, n))
        return phase_retrieval(n, a_matrix=np.round(rows, 1))
    except NotStrictSaddleAtZero:
        assume(False)


class TestClosedFormBigM:
    @pytest.mark.parametrize("eps", [1e-6, 0.1])
    def test_quadratic_and_cubic_are_exact(self, eps):
        quadratic = estimate_constants(quadratic_saddle([2.0, -1.0, 0.5]), eps)
        assert (quadratic.big_m, quadratic.big_m_source) == (0.0, "exact")
        cubic = estimate_constants(cubic_test(), eps)
        assert (cubic.big_m, cubic.big_m_source) == (2 * np.sqrt(2), "exact")

    def test_phase_retrieval_is_certified_and_linear_in_eps(self):
        problem = phase_retrieval(20, seed=0)
        constants = estimate_constants(problem, 0.05)
        assert constants.big_m_source == "certified"
        assert problem.big_m(0.1)[0] == pytest.approx(2 * problem.big_m(0.05)[0], rel=1e-15)
        # the sensing rows, from their (seed, j) streams
        a = np.stack([np.random.default_rng((0, j)).standard_normal(20) for j in range(20)])
        top = np.linalg.eigvalsh((a @ a.T) ** 2)[-1]
        assert constants.big_m == pytest.approx(6 * 0.05 / 20 * top, rel=1e-9)
        assert constants.big_m >= 6 * 0.05 / 20 * top

    def test_phase_retrieval_falls_back_to_row_sums_without_a_certificate(self, monkeypatch):
        def no_factor(c):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        big_m, source = phase_retrieval(20, seed=0).big_m(0.05)
        a = np.stack([np.random.default_rng((0, j)).standard_normal(20) for j in range(20)])
        gram_sq = (a @ a.T) ** 2
        assert source == "certified"
        assert big_m == pytest.approx(6 * 0.05 / 20 * gram_sq.sum(axis=1).max(), rel=1e-9)
        assert big_m > 6 * 0.05 / 20 * np.linalg.eigvalsh(gram_sq)[-1]

    def test_estimate_constants_evaluates_no_hessian_off_the_saddle(self):
        for problem in (cubic_test(), phase_retrieval(12, seed=1)):
            counted, calls = counting_hessian(problem)
            estimate_constants(counted, 1e-3)
            assert calls == []

    @given(problem=factory_problems(), log_eps=st.floats(-6.0, np.log10(0.2)),
           seed=st.integers(0, 50))
    @settings(max_examples=150, deadline=None)
    def test_never_below_a_sampled_ratio(self, problem, log_eps, seed):
        eps = 10.0**log_eps
        sampled = reference_big_m(problem, eps, samples=200, seed=seed)
        assert sampled <= estimate_constants(problem, eps).big_m
