"""Eigenstructure of saddle Hessians: signed decomposition, gap grouping, projections.

Everything downstream (trajectory models, exit-time bounds) consumes the
:class:`Spectrum` produced here, so the conventions are fixed once and for all:
eigenvalues sorted descending, eigenvectors as orthonormal columns in the same
order, stable = positive eigenvalues, unstable = negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# An offset lies on the eps-sphere when | ||u0|| - eps | <= RADIUS_RTOL * eps.
RADIUS_RTOL = 1e-5
# An eigenvalue with |lambda| <= ZERO_RESOLUTION * max|lambda| counts as zero.
ZERO_RESOLUTION = 1e-8


class NotSymmetric(ValueError):
    """Input matrix is not symmetric within tolerance."""


class NotMorse(ValueError):
    """An eigenvalue sits at (or numerically at) zero, so the saddle is degenerate."""


class NoNegativeEigenvalue(ValueError):
    """All eigenvalues are nonnegative: the point is not a strict saddle."""


class SingleGroup(ValueError):
    """Gap grouping merged every eigenvalue, leaving no inter-group gap to report."""


class WrongRadius(ValueError):
    """Initial offset does not lie on the sphere of the requested radius."""


class ZeroGap(ValueError):
    """Transfer coefficient requested across a vanishing cross-group gap."""


@dataclass(frozen=True)
class Spectrum:
    """Eigen-decomposition of a Hessian at a strict saddle.

    Attributes
    ----------
    eigenvalues : (n,) array, sorted descending.
    eigenvectors : (n, n) array, orthonormal columns, eigenvectors[:, i]
        paired with eigenvalues[i].
    stable_idx : indices with eigenvalues > 0.
    unstable_idx : indices with eigenvalues < 0.
    big_l : max |eigenvalue| (gradient Lipschitz constant of the quadratic part).
    beta : min |eigenvalue|.
    delta : smallest gap between eigenvalues in distinct groups.
    groups : partition of indices into near-degenerate clusters, each a tuple
        of positions into the descending order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    stable_idx: np.ndarray
    unstable_idx: np.ndarray
    big_l: float
    beta: float
    delta: float
    groups: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def cross_group(self) -> np.ndarray:
        """Read-only (n, n) mask, True where i and l lie in distinct groups."""
        owner = np.empty(self.dim, dtype=int)
        for g, members in enumerate(self.groups):
            owner[list(members)] = g
        mask = owner[:, None] != owner[None, :]
        mask.flags.writeable = False
        return mask

    @cached_property
    def cross_gaps(self) -> np.ndarray:
        """Read-only (n, n) gaps lam_l - lam_i where cross_group is True, 1 elsewhere.

        Raises ZeroGap when a cross-group gap is below 1e-12 * max(1, big_l);
        the check then runs again on the next access, and nothing is cached.
        """
        lam = self.eigenvalues
        cross = self.cross_group
        gaps = lam[None, :] - lam[:, None]
        if np.any(cross & (np.abs(gaps) < 1e-12 * max(1.0, self.big_l))):
            raise ZeroGap("cross-group eigenvalue gap below resolution")
        out = np.where(cross, gaps, 1.0)
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class Projections:
    """Nonnegative initial amplitudes of an offset on the eigenbasis.

    theta_s and theta_us hold |<u0, v_i>| / eps for stable and unstable
    directions respectively, in spectrum order.  signs is the (n,) vector of
    +-1 with signs[i] * |<u0, v_i>| = <u0, v_i>, also in spectrum order, so
    u0 = eps * eigenvectors @ (signs * theta_full) with every theta
    nonnegative.
    """

    theta_s: np.ndarray
    theta_us: np.ndarray
    eps: float
    signs: np.ndarray


def _consecutive_groups(eigenvalues: np.ndarray, group_gap: float) -> list[list[int]]:
    groups = [[0]]
    for i in range(1, eigenvalues.size):
        if eigenvalues[i - 1] - eigenvalues[i] < group_gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _default_group_gap(eigenvalues: np.ndarray) -> float:
    gaps = eigenvalues[:-1] - eigenvalues[1:]
    # Floored at decompose's zero resolution: when at least half the gaps are
    # zero the median is zero, and repeats must still merge rather than give delta = 0.
    floor = ZERO_RESOLUTION * float(np.max(np.abs(eigenvalues)))
    return max(float(np.median(gaps)) / 10.0, floor)


def group_eigenvalues(spectrum: Spectrum, group_gap: float | None = None) -> Spectrum:
    """Re-cluster a spectrum by single linkage on consecutive gaps.

    Adjacent eigenvalues whose gap is strictly below ``group_gap`` land in the
    same group.  The reported delta is the smallest gap between eigenvalues of
    distinct groups.  Default ``group_gap`` is a tenth of the median
    consecutive gap, but at least ZERO_RESOLUTION * max|lambda|, so
    numerically equal eigenvalues always share a group.

    Raises SingleGroup when everything merges into one cluster.
    """
    lam = spectrum.eigenvalues
    if group_gap is None:
        group_gap = _default_group_gap(lam)
    raw = _consecutive_groups(lam, group_gap)
    if len(raw) == 1:
        raise SingleGroup(
            f"group gap {group_gap:g} merges all {lam.size} eigenvalues into one group"
        )
    groups = tuple(tuple(g) for g in raw)
    boundary_gaps = [
        lam[groups[g][-1]] - lam[groups[g + 1][0]] for g in range(len(groups) - 1)
    ]
    delta = float(min(boundary_gaps))
    return Spectrum(
        eigenvalues=lam,
        eigenvectors=spectrum.eigenvectors,
        stable_idx=spectrum.stable_idx,
        unstable_idx=spectrum.unstable_idx,
        big_l=spectrum.big_l,
        beta=spectrum.beta,
        delta=delta,
        groups=groups,
    )


def decompose(hessian: np.ndarray) -> Spectrum:
    """Decompose a saddle Hessian into a :class:`Spectrum`.

    Parameters
    ----------
    hessian : (n, n) symmetric array, n >= 2.  An eigenvalue with
        |lambda| <= ZERO_RESOLUTION * max|lambda| counts as zero and is
        rejected.

    Raises
    ------
    NotSymmetric, NotMorse, NoNegativeEigenvalue
    """
    a = np.asarray(hessian, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"hessian must be square, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("need dimension >= 2")
    asym = np.max(np.abs(a - a.T))
    if asym > 1e-8:
        raise NotSymmetric(f"max asymmetry {asym:.3e} exceeds 1e-8")
    a = 0.5 * (a + a.T)

    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    lam = w[order]
    vec = v[:, order]
    # Deterministic sign convention: largest-magnitude component positive.
    for i in range(vec.shape[1]):
        j = int(np.argmax(np.abs(vec[:, i])))
        if vec[j, i] < 0:
            vec[:, i] = -vec[:, i]

    big_l = float(np.max(np.abs(lam)))
    zero = ZERO_RESOLUTION * big_l
    if np.any(np.abs(lam) <= zero):
        raise NotMorse(
            f"eigenvalue with |lambda| <= {zero:.3e}; saddle is not Morse"
        )
    if not np.any(lam < 0):
        raise NoNegativeEigenvalue("no negative eigenvalue; not a strict saddle")

    stable_idx = np.flatnonzero(lam > 0)
    unstable_idx = np.flatnonzero(lam < 0)
    beta = float(np.min(np.abs(lam)))

    base = Spectrum(
        eigenvalues=lam,
        eigenvectors=vec,
        stable_idx=stable_idx,
        unstable_idx=unstable_idx,
        big_l=big_l,
        beta=beta,
        delta=np.nan,
        groups=(),
    )
    return group_eigenvalues(base)


def check_radius(u0: np.ndarray, eps: float) -> None:
    """Raise WrongRadius unless | ||u0|| - eps | <= RADIUS_RTOL * eps.

    The comparison is written so that a non-finite u0 fails it.
    """
    radius = float(np.linalg.norm(u0))
    if not abs(radius - eps) <= RADIUS_RTOL * eps:
        raise WrongRadius(
            f"||u0|| = {radius:.12g} but eps = {eps:.12g} (relative rtol {RADIUS_RTOL:g})"
        )


def project(u0: np.ndarray, spectrum: Spectrum, eps: float) -> Projections:
    """Split an initial offset on the eps-sphere into nonnegative amplitudes.

    theta_i = |<u0, v_i>| / eps, and signs[i] is -1 where that inner product
    is negative and +1 elsewhere, so u0 = eps * V @ (signs * theta) with
    nonnegative amplitudes.

    Raises WrongRadius unless | ||u0|| - eps | <= RADIUS_RTOL * eps, so a
    non-finite u0 is rejected too.
    """
    u0 = np.asarray(u0, dtype=float)
    if eps <= 0:
        raise ValueError("eps must be positive")
    check_radius(u0, eps)
    raw = spectrum.eigenvectors.T @ u0 / eps
    theta = np.abs(raw)
    return Projections(
        theta_s=theta[spectrum.stable_idx],
        theta_us=theta[spectrum.unstable_idx],
        eps=float(eps),
        signs=np.where(raw < 0, -1.0, 1.0),
    )


def theta_full(projections: Projections, spectrum: Spectrum) -> np.ndarray:
    """Assemble the full amplitude vector in spectrum order."""
    out = np.empty(spectrum.dim)
    out[spectrum.stable_idx] = projections.theta_s
    out[spectrum.unstable_idx] = projections.theta_us
    return out
