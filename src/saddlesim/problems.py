"""Strict-saddle test problems and constant estimation.

A problem bundles callables (value, gradient, hessian) with its saddle point
and its Hessian Lipschitz constant M, exact or certified, in closed form.
Three families are provided: pure quadratics, a two-dimensional quadratic with
the minimal cubic coupling, and the symmetrized phase retrieval objective whose
origin is a strict saddle.  KINDS maps each config problem kind to its factory.
Sensing row j of phase retrieval is drawn from np.random.default_rng((seed, j))
and validate's growth point i from SeedSequence(seed, spawn_key=(1, i)).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

from . import spectral
from .perturb import eps_validity_bounds
from .spectral import NoNegativeEigenvalue, NotMorse, NotSymmetric, SingleGroup


class NotStrictSaddle(ValueError):
    """Requested quadratic has no sign change in its eigenvalues."""


class NotStrictSaddleAtZero(ValueError):
    """Sampled phase retrieval instance fails to have a strict saddle at the origin."""


# unit roundoff of float64: one rounding moves a value by at most this share
_U = np.finfo(float).eps / 2
# A problem's build and its saddle decomposition hold about eight (n, n)
# float64 arrays (8.3 to 9.3 by peak RSS at n = 2,048, under bounds and
# validate).  A config may ask for 1 GiB of them: n <= 4,096.
_DIM_ARRAYS = 8
MAX_DIM = math.isqrt((1 << 30) // (8 * _DIM_ARRAYS))


@dataclass(frozen=True)
class SaddleProblem:
    """An objective with a known strict saddle.

    value/gradient/hessian take a point of shape (dim,); hessian returns a
    symmetric (dim, dim) array.  saddle is the critical point every radial
    quantity is measured from.  big_m maps eps to a pair (M, source): a
    Hessian Lipschitz constant M on the eps-ball around saddle, in the
    Frobenius norm, and how it was obtained, "exact" (the supremum itself)
    or "certified" (an upper bound, rounding included).
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    saddle: np.ndarray
    label: str
    big_m: Callable[[float], tuple[float, str]]

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
    big_m: Hessian Lipschitz constant on the eps-ball, in the Frobenius norm.
    big_m_source: how big_m was obtained: "exact" or "certified" (an upper
        bound).
    eps_max: largest radius at which the first-order eigenvalue model is valid.
    """

    big_l: float
    beta: float
    delta: float
    big_m: float
    big_m_source: str
    eps_max: float

    def __post_init__(self):
        if not (0 < self.beta <= self.big_l * (1 + 1e-12)):
            raise ValueError(f"need 0 < beta <= big_l, got beta={self.beta}, big_l={self.big_l}")
        if self.big_m < 0:
            raise ValueError("big_m must be nonnegative")
        if self.big_m_source not in ("exact", "certified"):
            raise ValueError(f"big_m_source must be exact or certified, got {self.big_m_source!r}")
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
        big_m=lambda eps: (0.0, "exact"),
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
        # H(x) - H(y) = [[2 d1, 2 d0], [2 d0, 0]] with d = x - y, whose norm
        # is at most 2 sqrt(2) ||d||, with equality along d1 = 0
        big_m=lambda eps: (2.0 * math.sqrt(2.0), "exact"),
    )


def phase_retrieval(n: int, seed: int = 0, a_matrix: np.ndarray | None = None) -> SaddleProblem:
    """Phase retrieval objective f(x) = (1/4m) sum_j (<a_j,x>^2 - y_j)^2, with m = n.

    Half the targets are +1 and half are -1, which makes the origin a critical
    point whose Hessian -(1/m) sum_j y_j a_j a_j^T generically has both signs.
    Sensing vectors a_j are i.i.d. standard normal rows drawn from the
    default_rng((seed, j)) stream of each row, so the instance is
    bit-identical for a given (n, seed).  Pass a_matrix to inject
    deterministic rows.

    Its big_m is certified: (6 eps / m) lam_max(G o G) with G = A A^T,
    where an upper bound on lam_max, rounding included, is proved by a
    Cholesky factorization.

    Raises NotStrictSaddleAtZero when the sampled instance has a degenerate or
    sign-definite Hessian at the origin; callers should pick another seed
    rather than silently resampling.
    """
    m = n  # one measurement per dimension
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

    gram = a @ a.T
    gram_sq = gram * gram
    row_sq = np.einsum("ij,ij->i", a, a)  # ||a_j||^2
    sum_r2 = float(row_sq @ row_sq)

    # H(x) - H(z) = (3/m) sum_j (a_j . d)(a_j . s) a_j a_j^T with d = x - z and
    # s = x + z.  The rows a_j (x) a_j have Gram matrix G o G, so
    # ||H(x) - H(z)||_F^2 <= (9/m^2) lam_max(G o G) sum_j (a_j . d)^2 (a_j . s)^2
    # <= (9/m^2) lam_max(G o G)^2 ||d||^2 ||s||^2, and ||s|| <= 2 eps on the ball.
    @cache
    def gram_sq_top():
        # An upper bound on lam_max(G o G), computed once per problem on the
        # first call: approx never needs it.  eigvalsh only proposes t, just
        # above its top eigenvalue; the bound is proved by a Cholesky
        # factorization of C = fl(t I - gram_sq).  If it runs to completion,
        # its factor R has R^T R = C + dC with |dC| <= g |R^T| |R| and
        # g = (m + 1) u / (1 - (m + 1) u), for any symmetric C and any order
        # of the sums (Higham, Accuracy and Stability of Numerical Algorithms,
        # 2nd ed., Thm 10.3; Rump, BIT 46 (2006) 433-452).  So
        # ||dC||_2 <= g ||R||_F^2 <= g tr(C) / (1 - g), and as t - gram_sq_jj
        # rounds by at most u C_jj / (1 - u), t I - gram_sq is at least
        # -(g tr(C) / (1 - g) + u max C_jj / (1 - u)) I.  Should the
        # factorization fail, the largest row sum of the nonnegative gram_sq
        # bounds lam_max instead.
        top = float(np.linalg.eigvalsh(gram_sq)[-1])
        t = top * (1.0 + 2 * (m + 2) ** 2 * _U)
        c = -gram_sq
        c[np.diag_indices(m)] += t
        try:
            np.linalg.cholesky(c)
        except np.linalg.LinAlgError:
            bound = float(gram_sq.sum(axis=1).max()) * (1.0 + 2 * m * _U)
        else:
            g = (m + 1) * _U / (1.0 - (m + 1) * _U)
            diag = np.diagonal(c)
            bound = t + (g * float(diag.sum()) * (1.0 + 2 * m * _U) / (1.0 - g)
                         + 2 * _U * float(diag.max()))
        # gram_sq is off from G o G entrywise by at most (2n + 4) u r_j r_k
        # (r_j = ||a_j||^2): a matrix of Frobenius norm (2n + 4) u sum_r2
        return (bound + (2 * n + 4) * _U * sum_r2) * (1.0 + 4.0 * _U)

    def big_m(eps):
        return float(6.0 * eps / m * gram_sq_top() * (1.0 + 4.0 * _U)), "certified"

    h0 = hessian(np.zeros(n))
    lam0 = np.linalg.eigvalsh(h0)
    scale = np.max(np.abs(lam0))
    if lam0.min() >= 0 or lam0.max() <= 0 or np.min(np.abs(lam0)) <= spectral.ZERO_RESOLUTION * scale:
        raise NotStrictSaddleAtZero(
            f"origin Hessian of {label} is not a nondegenerate strict saddle"
        )

    return SaddleProblem(
        dim=n, value=value, gradient=gradient, hessian=hessian,
        saddle=np.zeros(n), label=label, big_m=big_m,
    )


@dataclass(frozen=True)
class ProblemKind:
    """A config problem kind.  dim_field is its entry's one other field, which
    sets dim (None: no field); build makes the problem from the parsed entry and
    a seed, and report, if set, makes the one validate describes instead."""

    dim_field: str | None
    dim: Callable[[dict], int]
    build: Callable[[dict, int], SaddleProblem]
    report: Callable[[dict, int], SaddleProblem] | None = None


# The builders look their factory up when called, so a rebound one (a tracer's) is used.
KINDS = {
    "quadratic": ProblemKind(
        "lambdas", lambda p: len(p["lambdas"]), lambda p, seed: quadratic_saddle(p["lambdas"]),
        # unchecked, so a quadratic without a sign change is reported, not refused
        lambda p, seed: _quadratic(p["lambdas"]),
    ),
    "cubic": ProblemKind(None, lambda p: 2, lambda p, seed: cubic_test()),
    "phase_retrieval": ProblemKind(
        "n", lambda p: p["n"], lambda p, seed: phase_retrieval(p["n"], seed=seed)
    ),
}


def estimate_constants(problem: SaddleProblem, eps: float) -> ProblemConstants:
    """The escape constants of a problem inside the eps-ball.

    big_l, beta and delta come from the exact Hessian at the saddle.  The
    Hessian Lipschitz constant is the problem's closed-form big_m(eps),
    exact or certified.  eps_max is the validity radius of the first-order
    eigenvalue model at the step size 1/big_l, the most restrictive
    admissible choice.
    """
    spectrum = problem.spectrum
    big_m, source = problem.big_m(eps)
    eps_max = eps_validity_bounds(
        spectrum.big_l, big_m, problem.dim, spectrum.delta, alpha=1.0 / spectrum.big_l
    )
    return ProblemConstants(
        big_l=spectrum.big_l,
        beta=spectrum.beta,
        delta=spectrum.delta,
        big_m=big_m,
        big_m_source=source,
        eps_max=eps_max,
    )


def validate_assumptions(
    problem: SaddleProblem, eps: float, samples: int = 1000, seed: int = 0
) -> dict:
    """Check the standing assumptions on a problem and report, never raise.

    The report covers: critical point quality, Hessian symmetry at sampled
    points, Morse/strict-saddle structure, the balanced-spectrum condition
    beta >= delta/2, and the gradient growth bound
    ||grad f(x)|| <= big_l * ||x - x*|| * (1 + 10 * M * eps / big_l)
    over `samples` points of the eps-ball, point i drawn from
    SeedSequence(seed, spawn_key=(1, i)).  The constants come from
    estimate_constants.
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

    constants = estimate_constants(problem, eps)
    report["constants"] = asdict(constants)
    report["beta_ge_half_delta"] = bool(constants.beta >= constants.delta / 2.0)

    allowed = 1.0 + 10.0 * constants.big_m * eps / constants.big_l
    worst = 0.0
    sym_ok = True
    for i in range(samples):
        # a spawn key is mixed in after SeedSequence pads a plain key, so
        # these streams differ from every sensing row's (seed, j)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, i)))
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
