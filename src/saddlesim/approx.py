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
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .perturb import directional_hessian_derivative, fd_step
from .spectral import Projections, Spectrum, ZeroGap, theta_full

if TYPE_CHECKING:
    from .problems import SaddleProblem
    from .simulate import RadialTrajectory


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
class CoefficientBlock:
    """Steps start .. start + B - 1 of a coefficient sequence, held together.

    c is (B, n), every direction's diagonal factor in spectrum order.  d is
    the (B, n, n) stack of transfer matrices, or None when every transfer
    of the block is exactly zero.
    """

    start: int
    c: np.ndarray
    d: np.ndarray | None


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
    Sampling stops at k_iota, so min_ratio_curve holds steps 0..k_iota when
    k_iota is found and 0..k_max otherwise; k_max is always the budget given.
    """

    sampled_exit_times: np.ndarray
    k_iota: int | None
    sup_exit: float
    min_ratio_curve: np.ndarray
    n_samples: int
    seed: int
    k_max: int


def _coefficients(
    spectrum: Spectrum, hv: np.ndarray, u_norm: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """c (B, n) and d (B, n, n) of B steps from stacked hv (B, n, n) and radii (B,).

    Every operation is elementwise, so a step's coefficients do not depend on
    the other steps stacked with it.
    """
    lam = spectrum.eigenvalues
    c = _diagonal_factors(lam, np.diagonal(hv, axis1=1, axis2=2), u_norm, alpha)
    d = np.where(
        spectrum.cross_group,
        np.swapaxes(hv, 1, 2)
        * lam[:, None]
        * (alpha * u_norm / 2.0)[:, None, None]
        / spectrum.cross_gaps,
        0.0,
    )
    return c, d


def _diagonal_factors(
    lam: np.ndarray, hv_diag: np.ndarray, u_norm: np.ndarray, alpha: float
) -> np.ndarray:
    """c (B, n) from the diagonal of hv, (B, n) or one (n,) row for every step."""
    return 1.0 - alpha * lam - alpha * (u_norm / 2.0)[:, None] * hv_diag


def _coefficient_set(spectrum: Spectrum, c: np.ndarray, d: np.ndarray, step: int) -> CoefficientSet:
    return CoefficientSet(
        c_s=c[spectrum.stable_idx], c_us=c[spectrum.unstable_idx], d=d, step=int(step)
    )


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

    Raises ZeroGap when a cross-group pair has a numerically vanishing gap
    (spectrum.cross_gaps).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if u_norm < 0:
        raise ValueError("u_norm must be nonnegative")
    v = spectrum.eigenvectors
    hv = v.T @ np.asarray(h_matrix, dtype=float) @ v
    c, d = _coefficients(spectrum, hv[None], np.array([u_norm], dtype=float), alpha)
    return _coefficient_set(spectrum, c[0], d[0], step)


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


# Steps whose coefficients are computed and consumed together: larger blocks
# are no faster and hold more (n, n) transfer matrices at once.
_BLOCK = 64


def _set_blocks(spectrum: Spectrum, sets: Iterable[CoefficientSet]) -> Iterator[CoefficientBlock]:
    """Any iterable of sets as blocks of _BLOCK steps, drawn as they are needed."""
    sets = iter(sets)
    start = 0
    while chunk := list(islice(sets, _BLOCK)):
        c = np.empty((len(chunk), spectrum.dim))
        c[:, spectrum.stable_idx] = [s.c_s for s in chunk]
        c[:, spectrum.unstable_idx] = [s.c_us for s in chunk]
        d = np.stack([s.d for s in chunk])
        yield CoefficientBlock(start, c, d if d.any() else None)
        start += len(chunk)


def eps_trajectory(
    projections: Projections,
    spectrum: Spectrum,
    coeffs: Iterable[CoefficientSet],
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

    coeffs may be any iterable of sets; no more than big_k of them are
    drawn, _BLOCK at a time.  reference_coefficients hands over its blocks
    directly.  Each block takes P from one running product.  B is zero, and
    is not formed, until a step has a nonzero transfer or a non-finite P or
    c (inf * 0 is NaN); from there the (n, n) recurrence runs step by step,
    so every row, NaN and inf included, is the one the step-by-step
    recurrence gives.  Where H' vanishes that never happens on a finite run:
    the path is the frozen-Hessian map at O(n^2) per step.

    Returns an array of shape (big_k + 1, n) of radial vectors; row 0
    reconstructs u_0 exactly.  Raises ValueError when coeffs holds fewer
    than big_k sets.
    """
    if big_k < 0:
        raise ValueError("big_k must be nonnegative")
    n = spectrum.dim
    a0 = projections.signs * theta_full(projections, spectrum)
    v = spectrum.eigenvectors
    eps = projections.eps
    if isinstance(coeffs, ReferenceCoefficients):
        blocks = coeffs.blocks()
    else:
        blocks = _set_blocks(spectrum, islice(coeffs, big_k))

    path = np.empty((big_k + 1, n))
    path[0] = eps * (v @ a0)
    p = np.ones(n)
    # None while B is exactly zero; B @ a(0) is then zero unless a(0) is not finite
    b = None if np.all(np.isfinite(a0)) else np.zeros((n, n))
    k = 0
    for block in blocks:
        if k == big_k:
            break
        c = block.c[: big_k - k]
        m = c.shape[0]
        ps = np.multiply.accumulate(np.concatenate([p[None], c]), axis=0)  # ps[j] = P(k + j)
        pa = ps[1:] * a0
        zero_b = 0  # steps of the block after which B is still zero
        if b is None and block.d is None:
            # B(k + j + 1) = B(k + j) * c + P(k + j) * 0 stays zero while P and c are finite
            finite = np.isfinite(ps[:-1]).all(axis=1) & np.isfinite(c).all(axis=1)
            zero_b = m if finite.all() else int(np.argmin(finite))
        for j in range(zero_b):
            path[k + j + 1] = eps * (v @ pa[j])
        if zero_b < m and b is None:
            b = np.zeros((n, n))
        for j in range(zero_b, m):
            d = 0.0 if block.d is None else block.d[j]
            b = b * c[j] + ps[j][:, None] * d
            path[k + j + 1] = eps * (v @ (pa[j] + b @ a0))
        p = ps[-1]
        k += m
    if k < big_k:
        raise ValueError(f"need {big_k} coefficient sets, got {k}")
    return path


def _derivative_in_eigenbasis(problem: "SaddleProblem", spectrum: Spectrum, eps: float) -> np.ndarray:
    """W with W[i * n + l, j] = (V^T H'(v_j) V)[i, l], for the saddle eigenvectors v_j.

    H' is linear in its direction, so V^T H'(u) V = (W @ (V^T u)).reshape(n, n).
    H'(v_j) is a central difference with step fd_step(eps) along v_j.
    """
    h = fd_step(eps)
    v = spectrum.eigenvectors
    n = spectrum.dim
    w = np.empty((n * n, n))
    for j in range(n):
        w[:, j] = (v.T @ directional_hessian_derivative(problem, v[:, j], h=h) @ v).ravel()
    return w


# The approx command refuses a problem whose (n^2, n) float64 table W of
# _derivative_in_eigenbasis would pass 1 GiB, the budget of the other caps:
# n at most 512.
MAX_DERIVATIVE_BYTES = 1 << 30


class ReferenceCoefficients:
    """The coefficient sequence of a recorded trajectory, computed lazily.

    Iterating gives one CoefficientSet per recorded point; blocks() gives
    the same steps as CoefficientBlocks, which is how eps_trajectory reads
    them.  Either way the steps are computed _BLOCK at a time as they are
    drawn, and every pass computes them afresh.
    """

    def __init__(self, spectrum: Spectrum, w: np.ndarray, traj: "RadialTrajectory"):
        self._spectrum = spectrum
        self._w = w
        self._flat = not w.any()  # H' vanishes along every eigenvector
        self._traj = traj

    def blocks(self) -> Iterator[CoefficientBlock]:
        spectrum, traj = self._spectrum, self._traj
        n = spectrum.dim
        steps = traj.norms.size
        for start in range(0, steps, _BLOCK):
            stop = min(start + _BLOCK, steps)
            norms = traj.norms[start:stop]
            # a run that lands on the saddle has no direction there (0 / 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                directions = traj.radials[start:stop] / norms[:, None]
            if self._flat and np.all(np.isfinite(directions)) and np.all(np.isfinite(norms)):
                # hv = z @ W^T would be exactly zero: no transfer, c as at radius zero
                c = _diagonal_factors(spectrum.eigenvalues, np.zeros(n), norms, traj.alpha)
                yield CoefficientBlock(start, c, None)
                continue
            z = directions @ spectrum.eigenvectors
            hv = (z @ self._w.T).reshape(stop - start, n, n)
            c, d = _coefficients(spectrum, hv, norms, traj.alpha)
            yield CoefficientBlock(start, c, d)

    def __iter__(self) -> Iterator[CoefficientSet]:
        n = self._spectrum.dim
        for block in self.blocks():
            for j, c in enumerate(block.c):
                d = np.zeros((n, n)) if block.d is None else block.d[j]
                yield _coefficient_set(self._spectrum, c, d, block.start + j)


def reference_coefficients(
    problem: "SaddleProblem",
    spectrum: Spectrum,
    traj: "RadialTrajectory",
) -> ReferenceCoefficients:
    """Coefficient sequence evaluated along a recorded reference trajectory.

    Step k uses the run's alpha, the recorded radius ||u_k|| and direction
    u_k / ||u_k||, with the formulas of coefficients_at.  The Hessian
    derivative along each saddle eigenvector is taken once per call, by a
    central difference with step fd_step(eps); H' is linear in its
    direction, so every step's H' is a combination of those n matrices.
    Where all n vanish (quadratics, phase retrieval at the origin), every
    transfer is zero and c_i = 1 - alpha * lam_i: each block is computed in
    one pass and no (n, n) transfer is formed.

    Returns a lazy iterable of one CoefficientSet per recorded point, steps
    0 .. K, computed _BLOCK steps at a time as they are drawn; wrap the
    call in list(...) to index the sets.  eps_trajectory reads its blocks
    instead (ReferenceCoefficients.blocks).  Raises ZeroGap here, before
    any set is drawn, when a cross-group gap vanishes.
    """
    _ = spectrum.cross_gaps  # raises ZeroGap before any set is drawn
    w = _derivative_in_eigenbasis(problem, spectrum, traj.eps)
    return ReferenceCoefficients(spectrum, w, traj)


# sample_family holds about four float64 copies of its (n_samples, n + n*n)
# step block (32-34 bytes per element, measured); a config may ask for at
# most 1 GiB of them.  MAX_FAMILY_SAMPLES is that cap at n = 2, the smallest
# problem.
MAX_FAMILY_BLOCK = (1 << 30) // 40
MAX_FAMILY_SAMPLES = MAX_FAMILY_BLOCK // 6

# Spawn-key tag of the family's step streams.  A spawn key is mixed in after
# the seed is zero-padded to four words, so no plain key such as (seed, j) or
# (seed, 0, i) names one of these streams.
_FAMILY_TAG = 2


def _step_rng(seed: int, k: int) -> np.random.Generator:
    """Generator of step k's draws for every sample of a family."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_FAMILY_TAG, k)))


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
    uniformly from its interval.  Step k draws one (n_samples, n + n*n) block
    from its own generator, keyed by seed with spawn key (2, k); row t is
    sample t's n diagonal coefficients in spectrum order followed by its n*n
    transfers in row-major order, within-group transfers mapped to zero.
    Sample t's step-k draws thus depend only on (seed, t, k), not on
    n_samples or k_max.  The steps run one at a time, so memory is
    O(n_samples * n^2 + k_max).

    The squared-radius ratio ||u~_k||^2 / eps^2 equals the squared amplitude
    norm, so exits are detected directly on amplitudes.  The loop stops at
    the first step whose sample minimum exceeds one (k_iota): there every
    sample has already exited, so the exit times, sup_exit and k_iota are
    final and only the curve's tail would remain; min_ratio_curve therefore
    ends at step k_iota, or at k_max when the minimum never crosses.  Raises
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
    theta = theta_full(projections, spectrum)
    t_total = int(n_samples)

    # Each drawn column x in [0, 1) becomes lo + width * x.
    stable = np.isin(np.arange(n), spectrum.stable_idx)
    (s_lo, s_hi), (u_lo, u_hi) = intervals.c_s_range, intervals.c_us_range
    d_lo, d_hi = intervals.d_range
    cross = spectrum.cross_group.ravel()
    lo = np.concatenate([np.where(stable, s_lo, u_lo), np.where(cross, d_lo, 0.0)])
    width = np.concatenate(
        [np.where(stable, s_hi - s_lo, u_hi - u_lo), np.where(cross, d_hi - d_lo, 0.0)]
    )

    exit_steps = np.full(t_total, np.inf)
    min_curve = [float(theta @ theta)]
    k_iota = None
    p = np.ones((t_total, n))
    b = np.zeros((t_total, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, k_max + 1):
            block = _step_rng(seed, k).random((t_total, n + n * n))
            block *= width
            block += lo
            c = block[:, :n]
            b = b * c[:, None, :] + p[:, :, None] * block[:, n:].reshape(t_total, n, n)
            p = p * c
            a = p * theta + b @ theta
            r = np.einsum("ti,ti->t", a, a)
            r = np.where(np.isnan(r), np.inf, r)
            exit_steps[np.isinf(exit_steps) & (r > 1.0)] = k
            min_curve.append(r.min())
            if min_curve[k] > 1.0:
                # NaN counts as inf, so every sample's ratio exceeds one here:
                # every sample has exited and no later step changes a result.
                k_iota = k
                break

    if not np.any(np.isfinite(exit_steps)):
        raise NoExitInFamily(
            f"no sample exited within k_max = {k_max} steps (n_samples = {t_total})"
        )
    return FamilyResult(
        sampled_exit_times=exit_steps,
        k_iota=k_iota,
        sup_exit=float(np.max(exit_steps)),
        min_ratio_curve=np.array(min_curve),
        n_samples=t_total,
        seed=int(seed),
        k_max=int(k_max),
    )
