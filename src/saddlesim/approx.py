"""First-order spectral trajectory model and its interval family.

The gradient step near the saddle acts on eigenbasis amplitudes through
per-step coefficients: a diagonal factor c_i(k) for each direction and a
cross-direction transfer d_{i,l}(k) induced by the moving eigenvectors.  The
model trajectory is linear in the initial amplitudes once the coefficient
sequence is fixed, which is what makes interval sampling over whole families
of trajectories cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .perturb import directional_hessian_derivative, fd_step
from .spectral import Projections, Spectrum, theta_full

if TYPE_CHECKING:
    from .problems import SaddleProblem
    from .simulate import RadialTrajectory


class ZeroGap(ValueError):
    """Transfer coefficient requested across a vanishing cross-group gap."""


class NoExitInFamily(ValueError):
    """No sampled coefficient trajectory left the ball within the step budget."""


@dataclass(frozen=True)
class CoefficientSet:
    """Per-step model coefficients in spectrum order.

    c_s aligns with spectrum.stable_idx, c_us with spectrum.unstable_idx.
    d is the full (n, n) transfer matrix: d[i, l] feeds direction l into
    direction i, with zero diagonal and zero within-group entries.
    """

    c_s: np.ndarray
    c_us: np.ndarray
    d: np.ndarray
    step: int


@dataclass(frozen=True)
class CoefficientIntervals:
    """Closed ranges the per-step coefficients live in for radius <= eps."""

    c_s_range: tuple[float, float]
    c_us_range: tuple[float, float]
    d_range: tuple[float, float]


@dataclass(frozen=True)
class FamilyResult:
    """Outcome of sampling an interval family of coefficient trajectories.

    sampled_exit_times[t] is the first step with squared radius above eps^2
    for sample t (inf when censored at k_max).  min_ratio_curve[k] is the
    sample minimum of ||u~_k||^2 / eps^2.  k_iota is the first step where that
    minimum exceeds one, or None if it never does within the budget.
    """

    sampled_exit_times: np.ndarray
    k_iota: int | None
    sup_exit: float
    min_ratio_curve: np.ndarray
    n_samples: int
    seed: int
    k_max: int


def coefficients_at(
    spectrum: Spectrum,
    h_matrix: np.ndarray,
    u_norm: float,
    alpha: float,
    step: int = 0,
) -> CoefficientSet:
    """Model coefficients at one step, given the directional Hessian derivative.

    With hv = V^T H V:
        c_i      = 1 - alpha * lam_i - alpha * (u_norm / 2) * hv[i, i]
        d[i, l]  = hv[l, i] * lam_i * alpha * u_norm / (2 * (lam_l - lam_i))
    for (i, l) in distinct groups; diagonal and within-group entries are zero.
    u_norm = 0 reduces to the frozen-Hessian map c_i = 1 - alpha * lam_i, d = 0.

    Raises ZeroGap when a cross-group pair has a numerically vanishing gap.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if u_norm < 0:
        raise ValueError("u_norm must be nonnegative")
    lam = spectrum.eigenvalues
    v = spectrum.eigenvectors
    hv = v.T @ np.asarray(h_matrix, dtype=float) @ v

    c = 1.0 - alpha * lam - alpha * (u_norm / 2.0) * np.diag(hv)

    cross = spectrum.cross_group
    gaps = lam[None, :] - lam[:, None]
    tiny = 1e-12 * max(1.0, spectrum.big_l)
    if np.any(cross & (np.abs(gaps) < tiny)):
        raise ZeroGap("cross-group eigenvalue gap below resolution")
    d = np.where(
        cross, hv.T * lam[:, None] * (alpha * u_norm / 2.0) / np.where(cross, gaps, 1.0), 0.0
    )

    return CoefficientSet(
        c_s=c[spectrum.stable_idx],
        c_us=c[spectrum.unstable_idx],
        d=d,
        step=int(step),
    )


def coefficient_intervals(
    big_l: float,
    beta: float,
    big_m: float,
    delta: float,
    alpha: float,
    eps: float,
) -> CoefficientIntervals:
    """Ranges the coefficients can take anywhere in the eps-ball.

    Stable:   [1 - alpha L - alpha eps M / 2, 1 - alpha beta + alpha eps M / 2]
    Unstable: [1 + alpha beta - alpha eps M / 2, 1 + alpha L + alpha eps M / 2]
    Transfer: symmetric, |d| <= alpha eps M L / (2 delta).
    """
    if min(big_l, beta, delta, alpha, eps) <= 0 or big_m < 0:
        raise ValueError("constants must be positive (big_m may be zero)")
    half = alpha * eps * big_m / 2.0
    d_hi = alpha * eps * big_m * big_l / (2.0 * delta)
    return CoefficientIntervals(
        c_s_range=(1.0 - alpha * big_l - half, 1.0 - alpha * beta + half),
        c_us_range=(1.0 + alpha * beta - half, 1.0 + alpha * big_l + half),
        d_range=(-d_hi, d_hi),
    )


def _full_c(spectrum: Spectrum, coeffs: CoefficientSet) -> np.ndarray:
    c = np.empty(spectrum.dim)
    c[spectrum.stable_idx] = coeffs.c_s
    c[spectrum.unstable_idx] = coeffs.c_us
    return c


def _basis_parity(projections: Projections, spectrum: Spectrum) -> np.ndarray:
    # signed_basis columns are +-1 times the spectrum columns; recover the signs.
    dots = np.einsum("ji,ji->i", projections.signed_basis, spectrum.eigenvectors)
    return np.where(dots < 0, -1.0, 1.0)


def eps_trajectory(
    projections: Projections,
    spectrum: Spectrum,
    coeffs: Sequence[CoefficientSet],
    big_k: int,
) -> np.ndarray:
    """Model radial path u~_0 .. u~_K under a fixed coefficient sequence.

    Amplitudes evolve by
        P_i(k+1)    = P_i(k) * c_i(k)
        B_{i,l}(k+1) = B_{i,l}(k) * c_l(k) + P_i(k) * d_{i,l}(k)
        a_i(k)      = P_i(k) * a_i(0) + sum_l B_{i,l}(k) * a_l(0)
    which unrolls to the direct first-order sum: the pure-mode product plus
    one transfer insertion at every intermediate step, early factors carried
    by the receiving direction and late factors by the source.

    Returns an array of shape (big_k + 1, n) of radial vectors; row 0
    reconstructs u_0 exactly.  Requires len(coeffs) >= big_k.
    """
    if big_k < 0:
        raise ValueError("big_k must be nonnegative")
    if len(coeffs) < big_k:
        raise ValueError(f"need {big_k} coefficient sets, got {len(coeffs)}")
    n = spectrum.dim
    a0 = _basis_parity(projections, spectrum) * theta_full(projections, spectrum)
    v = spectrum.eigenvectors
    eps = projections.eps

    path = np.empty((big_k + 1, n))
    path[0] = eps * (v @ a0)
    p = np.ones(n)
    b = np.zeros((n, n))
    for k in range(big_k):
        c = _full_c(spectrum, coeffs[k])
        b = b * c[None, :] + p[:, None] * coeffs[k].d
        p = p * c
        path[k + 1] = eps * (v @ (p * a0 + b @ a0))
    return path


def reference_coefficients(
    problem: "SaddleProblem",
    spectrum: Spectrum,
    traj: "RadialTrajectory",
) -> list[CoefficientSet]:
    """Coefficient sequence evaluated along a recorded reference trajectory.

    Step k uses the run's alpha, the recorded radius ||u_k|| and direction
    u_k / ||u_k||; the directional Hessian derivative is differenced with step
    fd_step(eps).
    """
    h = fd_step(traj.eps)
    out = []
    for k in range(traj.radials.shape[0]):
        nrm = float(traj.norms[k])
        hk = directional_hessian_derivative(problem, traj.radials[k] / nrm, h=h)
        out.append(coefficients_at(spectrum, hk, nrm, traj.alpha, step=k))
    return out


def sample_family(
    intervals: CoefficientIntervals,
    projections: Projections,
    spectrum: Spectrum,
    k_max: int,
    eps: float,
    n_samples: int,
    seed: int,
) -> FamilyResult:
    """Sample coefficient trajectories i.i.d. from their intervals and scan exits.

    Every c_i(k), c_j(k) and admissible d_{i,l}(k) is drawn independently and
    uniformly from its interval.  Sample t draws from a dedicated generator
    keyed by (seed, t) in a fixed order (stable block, unstable block,
    transfer block), so results are independent of scheduling.

    The squared-radius ratio ||u~_k||^2 / eps^2 equals the squared amplitude
    norm, so exits are detected directly on amplitudes.  Raises
    NoExitInFamily when no sample leaves the ball within k_max steps;
    k_iota is None when samples leave but the pointwise minimum curve never
    does.
    """
    if abs(eps - projections.eps) > 1e-12 * eps:
        raise ValueError(
            f"eps = {eps:g} disagrees with projections.eps = {projections.eps:g}"
        )
    if k_max < 1 or n_samples < 1:
        raise ValueError("k_max and n_samples must be at least 1")
    n = spectrum.dim
    n_s = spectrum.stable_idx.size
    n_us = spectrum.unstable_idx.size
    theta = theta_full(projections, spectrum)
    t_total = int(n_samples)

    # Bound the pre-drawn transfer tensor to ~64MB by chunking over samples.
    per_sample = k_max * (n * n + n) * 8
    chunk = max(1, min(t_total, (64 << 20) // max(per_sample, 1)))

    ratio = np.empty((t_total, k_max + 1))
    ratio[:, 0] = float(theta @ theta)
    for lo in range(0, t_total, chunk):
        hi = min(lo + chunk, t_total)
        t_n = hi - lo
        c_all = np.empty((t_n, k_max, n))
        d_all = np.empty((t_n, k_max, n, n))
        for t in range(lo, hi):
            rng = np.random.default_rng((seed, t))
            c_all[t - lo][:, spectrum.stable_idx] = rng.uniform(
                *intervals.c_s_range, size=(k_max, n_s)
            )
            c_all[t - lo][:, spectrum.unstable_idx] = rng.uniform(
                *intervals.c_us_range, size=(k_max, n_us)
            )
            draws = rng.uniform(*intervals.d_range, size=(k_max, n, n))
            d_all[t - lo] = np.where(spectrum.cross_group, draws, 0.0)

        p = np.ones((t_n, n))
        b = np.zeros((t_n, n, n))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(k_max):
                c = c_all[:, k, :]
                b = b * c[:, None, :] + p[:, :, None] * d_all[:, k]
                p = p * c
                a = p * theta + b @ theta
                r = np.einsum("ti,ti->t", a, a)
                ratio[lo:hi, k + 1] = np.where(np.isnan(r), np.inf, r)

    crossed = ratio[:, 1:] > 1.0
    first = np.argmax(crossed, axis=1)
    exited = crossed[np.arange(t_total), first]
    exit_steps = np.where(exited, first + 1.0, np.inf)
    if not np.any(exited):
        raise NoExitInFamily(
            f"no sample exited within k_max = {k_max} steps (n_samples = {t_total})"
        )
    min_curve = ratio.min(axis=0)
    iota_hits = np.flatnonzero(min_curve[1:] > 1.0)
    k_iota = int(iota_hits[0]) + 1 if iota_hits.size else None
    return FamilyResult(
        sampled_exit_times=exit_steps,
        k_iota=k_iota,
        sup_exit=float(np.max(exit_steps)),
        min_ratio_curve=min_curve,
        n_samples=t_total,
        seed=int(seed),
        k_max=int(k_max),
    )
