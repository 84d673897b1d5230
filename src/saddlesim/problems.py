"""Strict-saddle test problems and constant estimation.

A problem bundles callables (value, gradient, hessian) with its saddle point.
Three families are provided: pure quadratics, a two-dimensional quadratic with
the minimal cubic coupling, and the symmetrized phase retrieval objective whose
origin is a strict saddle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import spectral
from .perturb import eps_validity_bounds
from .spectral import NoNegativeEigenvalue, NotMorse, NotSymmetric, SingleGroup


class NotStrictSaddle(ValueError):
    """Requested quadratic has no sign change in its eigenvalues."""


class NotStrictSaddleAtZero(ValueError):
    """Sampled phase retrieval instance fails to have a strict saddle at the origin."""


@dataclass(frozen=True)
class SaddleProblem:
    """An objective with a known strict saddle.

    value/gradient/hessian take a point of shape (dim,); hessian returns a
    symmetric (dim, dim) array.  saddle is the critical point every radial
    quantity is measured from.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    saddle: np.ndarray
    label: str

    @cached_property
    def spectrum(self) -> spectral.Spectrum:
        """Decomposition of the saddle Hessian, computed on first access.

        A decomposition error (NotMorse, NoNegativeEigenvalue, ...) is raised
        on every access and nothing is cached.
        """
        return spectral.decompose(self.hessian(self.saddle))


@dataclass(frozen=True)
class ProblemConstants:
    """Scalar constants controlling escape behaviour near the saddle.

    big_l: largest |eigenvalue| of the saddle Hessian.
    beta: smallest |eigenvalue|.
    delta: smallest inter-group eigenvalue gap.
    big_m: Hessian Lipschitz constant (estimated or exact).
    eps_max: largest radius at which the first-order eigenvalue model is valid.
    """

    big_l: float
    beta: float
    delta: float
    big_m: float
    eps_max: float

    def __post_init__(self):
        if not (0 < self.beta <= self.big_l * (1 + 1e-12)):
            raise ValueError(f"need 0 < beta <= big_l, got beta={self.beta}, big_l={self.big_l}")
        if self.big_m < 0:
            raise ValueError("big_m must be nonnegative")
        if not self.eps_max > 0:
            raise ValueError("eps_max must be positive")


def quadratic_saddle(lambdas) -> SaddleProblem:
    """f(x) = (1/2) sum_i lambda_i x_i^2 with saddle at the origin.

    Raises NotStrictSaddle unless the eigenvalues change sign.
    """
    problem = _quadratic(lambdas)
    lam = np.asarray(lambdas, dtype=float)
    if lam.min() >= 0 or lam.max() <= 0:
        raise NotStrictSaddle("eigenvalues must include a positive and a negative entry")
    return problem


def _quadratic(lambdas) -> SaddleProblem:
    """quadratic_saddle without the sign check, so a report can describe any critical point."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("need at least two eigenvalues")
    h = np.diag(lam)

    return SaddleProblem(
        dim=lam.size,
        value=lambda x: 0.5 * float(lam @ (np.asarray(x, dtype=float) ** 2)),
        gradient=lambda x: lam * np.asarray(x, dtype=float),
        hessian=lambda x: h.copy(),
        saddle=np.zeros(lam.size),
        label=f"quadratic_saddle({lam.tolist()})",
    )


def cubic_test() -> SaddleProblem:
    """Two-dimensional saddle with the smallest nonlinearity that bends the spectrum.

    f(x) = x1^2/2 - x2^2/2 + x1^2 x2.  The Hessian is linear in x, so the
    Hessian Lipschitz constant is exact: 2*sqrt(2) in the Frobenius norm.
    """

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x[0] ** 2 - 0.5 * x[1] ** 2 + x[0] ** 2 * x[1]

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return np.array([x[0] + 2.0 * x[0] * x[1], -x[1] + x[0] ** 2])

    def hessian(x):
        x = np.asarray(x, dtype=float)
        return np.array([[1.0 + 2.0 * x[1], 2.0 * x[0]], [2.0 * x[0], -1.0]])

    return SaddleProblem(
        dim=2,
        value=value,
        gradient=gradient,
        hessian=hessian,
        saddle=np.zeros(2),
        label="cubic_test",
    )


def phase_retrieval(
    m: int, n: int, seed: int = 0, a_matrix: np.ndarray | None = None
) -> SaddleProblem:
    """Phase retrieval objective f(x) = (1/4m) sum_j (<a_j,x>^2 - y_j)^2.

    Half the targets are +1 and half are -1, which makes the origin a critical
    point whose Hessian -(1/m) sum_j y_j a_j a_j^T generically has both signs.
    Sensing vectors a_j are i.i.d. standard normal rows drawn from a
    per-row generator seeded with (seed, j), so the instance is bit-identical
    for a given (m, n, seed).  Pass a_matrix to inject deterministic rows.

    Raises NotStrictSaddleAtZero when the sampled instance has a degenerate or
    sign-definite Hessian at the origin; callers should pick another seed
    rather than silently resampling.
    """
    if m != n:
        raise ValueError(f"m and n must match, got m={m}, n={n}")
    if a_matrix is not None:
        a = np.array(a_matrix, dtype=float)
        if a.shape != (m, n):
            raise ValueError(f"a_matrix must have shape ({m}, {n})")
        label = f"phase_retrieval(m={m}, n={n}, injected)"
    else:
        a = np.empty((m, n))
        for j in range(m):
            a[j] = np.random.default_rng((seed, j)).standard_normal(n)
        label = f"phase_retrieval(m={m}, n={n}, seed={seed})"
    y = np.where(np.arange(m) < m // 2, 1.0, -1.0)

    def value(x):
        s = a @ np.asarray(x, dtype=float)
        return float(np.sum((s**2 - y) ** 2)) / (4.0 * m)

    def gradient(x):
        s = a @ np.asarray(x, dtype=float)
        return a.T @ ((s**2 - y) * s) / m

    def hessian(x):
        s = a @ np.asarray(x, dtype=float)
        return (a.T * (3.0 * s**2 - y)) @ a / m

    h0 = hessian(np.zeros(n))
    lam0 = np.linalg.eigvalsh(h0)
    scale = np.max(np.abs(lam0))
    if lam0.min() >= 0 or lam0.max() <= 0 or np.min(np.abs(lam0)) <= 1e-8 * scale:
        raise NotStrictSaddleAtZero(
            f"origin Hessian of {label} is not a nondegenerate strict saddle"
        )

    return SaddleProblem(
        dim=n, value=value, gradient=gradient, hessian=hessian,
        saddle=np.zeros(n), label=label,
    )


def _ball_point(rng: np.random.Generator, dim: int, eps: float) -> np.ndarray:
    d = rng.standard_normal(dim)
    d /= np.linalg.norm(d)
    r = eps * rng.uniform() ** (1.0 / dim)
    return r * d


def estimate_constants(
    problem: SaddleProblem, eps: float, samples: int = 10_000, seed: int = 0
) -> ProblemConstants:
    """Estimate the escape constants of a problem inside the eps-ball.

    big_l, beta and delta come from the exact Hessian at the saddle.  The
    Hessian Lipschitz constant is the max of ||H(x) - H(y)||_F / ||x - y||
    over `samples` random point pairs in the ball.  The Frobenius norm bounds
    the operator norm from above, but a sampled maximum can fall below the
    supremum over the ball, so big_m is an estimate, not a bound.
    eps_max is the validity radius of the first-order eigenvalue model at the
    step size 1/big_l, the most restrictive admissible choice.

    Each pair i is drawn from an independent generator keyed by
    (seed, 0, i), so the estimate does not depend on evaluation order.
    """
    spectrum = problem.spectrum
    big_m = 0.0
    for i in range(samples):
        rng = np.random.default_rng((seed, 0, i))
        x = problem.saddle + _ball_point(rng, problem.dim, eps)
        y = problem.saddle + _ball_point(rng, problem.dim, eps)
        gap = np.linalg.norm(x - y)
        if gap < 1e-12 * eps:
            continue
        ratio = np.linalg.norm(problem.hessian(x) - problem.hessian(y)) / gap
        if ratio > big_m:
            big_m = float(ratio)
    eps_max = eps_validity_bounds(
        spectrum.big_l, big_m, problem.dim, spectrum.delta, alpha=1.0 / spectrum.big_l
    )
    return ProblemConstants(
        big_l=spectrum.big_l,
        beta=spectrum.beta,
        delta=spectrum.delta,
        big_m=big_m,
        eps_max=eps_max,
    )


def validate_assumptions(
    problem: SaddleProblem,
    eps: float,
    samples: int = 1000,
    seed: int = 0,
    estimate_samples: int = 10_000,
) -> dict:
    """Check the standing assumptions on a problem and report, never raise.

    The report covers: critical point quality, Hessian symmetry at sampled
    points, Morse/strict-saddle structure, the balanced-spectrum condition
    beta >= delta/2, and the gradient growth bound
    ||grad f(x)|| <= big_l * ||x - x*|| * (1 + 10 * M * eps / big_l)
    over `samples` points of the eps-ball (each from generator (seed, 1, i)).
    The constants come from estimate_constants with `estimate_samples` pairs.
    A saddle that is not a symmetric strict Morse saddle (one whose Hessian
    has no positive or no negative eigenvalue is not strict) gets a report
    with the same keys: the constants and every check built on them are null, and
    so are is_morse and is_strict_saddle when the saddle Hessian is asymmetric.
    """
    report: dict = {"label": problem.label, "eps": float(eps), "samples": int(samples)}
    h0 = problem.hessian(problem.saddle)
    report["hessian_symmetric"] = bool(np.max(np.abs(h0 - h0.T)) <= 1e-8)

    try:
        spectrum = problem.spectrum
        report["is_morse"] = True
        # decompose accepts a negative-definite Hessian: a maximum, not a saddle
        report["is_strict_saddle"] = bool(spectrum.stable_idx.size)
    except NotMorse:
        report["is_morse"] = False
        report["is_strict_saddle"] = False
    except (NoNegativeEigenvalue, SingleGroup):
        # one gap group means every eigenvalue has the same sign
        report["is_morse"] = True
        report["is_strict_saddle"] = False
    except NotSymmetric:  # hessian_symmetric above is already false
        report["is_morse"] = None
        report["is_strict_saddle"] = None

    grad_at_saddle = float(np.linalg.norm(problem.gradient(problem.saddle)))
    lam = np.linalg.eigvalsh(0.5 * (h0 + h0.T))
    big_l = float(np.max(np.abs(lam)))
    report["saddle_gradient_norm"] = grad_at_saddle
    report["is_critical_point"] = grad_at_saddle <= 1e-8 * (1.0 + big_l)

    if not report["is_strict_saddle"]:
        for key in (
            "constants",
            "beta_ge_half_delta",
            "hessian_symmetric_at_samples",
            "max_gradient_growth",
            "allowed_gradient_growth",
            "gradient_growth_ok",
        ):
            report[key] = None
        return report

    constants = estimate_constants(problem, eps, samples=estimate_samples, seed=seed)
    report["constants"] = asdict(constants)
    report["beta_ge_half_delta"] = bool(constants.beta >= constants.delta / 2.0)

    allowed = 1.0 + 10.0 * constants.big_m * eps / constants.big_l
    worst = 0.0
    sym_ok = True
    for i in range(samples):
        rng = np.random.default_rng((seed, 1, i))
        d = rng.standard_normal(problem.dim)
        d /= np.linalg.norm(d)
        r = eps * rng.uniform(1e-6, 1.0)
        x = problem.saddle + r * d
        ratio = np.linalg.norm(problem.gradient(x)) / (constants.big_l * r)
        if ratio > worst:
            worst = float(ratio)
        if i < 20:
            hx = problem.hessian(x)
            sym_ok = sym_ok and np.max(np.abs(hx - hx.T)) <= 1e-8
    report["hessian_symmetric_at_samples"] = bool(sym_ok)
    report["max_gradient_growth"] = worst
    report["allowed_gradient_growth"] = float(allowed)
    # The bound is exactly tight on quadratics, so give rounding one ulp of room.
    report["gradient_growth_ok"] = bool(worst <= allowed * (1.0 + 1e-12))
    return report
