"""First-order response of the saddle eigenstructure to radial movement.

When the iterate sits at x* + u, the Hessian is modelled as
H(x*) + p * ||u|| * H'(u/||u||) with H' the directional derivative of the
Hessian field at the saddle.  The classical first-order formulas then give
eigenvalue rates <v_i, H' v_i> and eigenvector rates mixing v_i with the other
eigenvectors through the spectral gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .spectral import ZERO_RESOLUTION, Spectrum

if TYPE_CHECKING:
    from .problems import SaddleProblem


class DegeneracyUnhandled(ValueError):
    """Eigenvector rates requested on a (near-)degenerate spectrum without grouping."""


class InvalidAlpha(ValueError):
    """Step size outside (0, 1/L]."""


@dataclass(frozen=True)
class PerturbationData:
    """Directional Hessian derivative with its spectral response.

    h_matrix is symmetric; eigenvalue_rates[i] = <v_i, H v_i>;
    eigenvector_rates[:, i] is the rate of v_i and is orthogonal to v_i.
    """

    h_matrix: np.ndarray
    eigenvalue_rates: np.ndarray
    eigenvector_rates: np.ndarray


def fd_step(eps: float) -> float:
    """Central-difference step for Hessian differentiation at radius scale eps."""
    return max(1e-3 * eps, 1e-6)


def directional_hessian_derivative(
    problem: "SaddleProblem", u_hat: np.ndarray, h: float = 1e-4
) -> np.ndarray:
    """Directional derivative of the Hessian field at the saddle along u_hat.

    Central difference (H(x* + h u_hat) - H(x* - h u_hat)) / (2h), symmetrized.
    The default step 1e-4 balances truncation against cancellation for Hessian
    entries of order one.
    """
    u_hat = np.asarray(u_hat, dtype=float)
    nrm = np.linalg.norm(u_hat)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    u_hat = u_hat / nrm
    hp = problem.hessian(problem.saddle + h * u_hat)
    hm = problem.hessian(problem.saddle - h * u_hat)
    d = (hp - hm) / (2.0 * h)
    return 0.5 * (d + d.T)


def rs_corrections(
    spectrum: Spectrum,
    h_matrix: np.ndarray,
    degenerate: bool = False,
) -> PerturbationData:
    """First-order eigenvalue and eigenvector rates under the perturbation h_matrix.

    Rates follow the standard non-degenerate formulas
        dlam_i = <v_i, H v_i>,
        dv_i   = sum_{l != i} <v_l, H v_i> / (lam_i - lam_l) * v_l.
    With degenerate=True the sum skips every l in the same near-degenerate
    group as i, which is the grouped variant that stays finite when
    within-group gaps vanish.  With degenerate=False a within-group gap below
    ZERO_RESOLUTION * big_l raises DegeneracyUnhandled instead of dividing by it.
    """
    h = np.asarray(h_matrix, dtype=float)
    lam = spectrum.eigenvalues
    v = spectrum.eigenvectors
    n = lam.size
    hv = v.T @ h @ v
    rates = np.diag(hv).copy()

    cross = spectrum.cross_group
    if not degenerate:
        near = ~cross & (np.abs(lam[:, None] - lam[None, :]) < ZERO_RESOLUTION * spectrum.big_l)
        pairs = np.argwhere(np.triu(near, k=1))
        if pairs.size:
            i, l = pairs[0]
            raise DegeneracyUnhandled(
                f"eigenvalues {i} and {l} are degenerate; "
                "pass degenerate=True to use the grouped formula"
            )

    # coeffs[l, i] = <v_l, H v_i> / (lam_i - lam_l) over the pairs the sum keeps.
    keep = cross if degenerate else ~np.eye(n, dtype=bool)
    gaps = lam[None, :] - lam[:, None]
    coeffs = np.where(keep, hv / np.where(keep, gaps, 1.0), 0.0)
    dv = v @ coeffs

    return PerturbationData(h_matrix=h, eigenvalue_rates=rates, eigenvector_rates=dv)


def hessian_first_order(
    problem: "SaddleProblem", u: np.ndarray, p: float = 1.0
) -> np.ndarray:
    """First-order Hessian model H(x*) + p * ||u|| * H'(u/||u||) at offset u."""
    u = np.asarray(u, dtype=float)
    base = problem.hessian(problem.saddle)
    nrm = float(np.linalg.norm(u))
    if nrm == 0:
        return base
    return base + p * nrm * directional_hessian_derivative(problem, u / nrm)


def eps_validity_bounds(
    big_l: float,
    big_m: float,
    n: int,
    delta: float,
    alpha: float,
) -> float:
    """Largest radius at which the first-order spectral trajectory model is valid.

    Two regimes, split at the top step: alpha >= 1/big_l selects the near-top
    formula, and every smaller alpha the other.  Returns +inf for big_m = 0
    (the model is exact on quadratics).

    Raises InvalidAlpha outside (0, 1/big_l].
    """
    if not (0 < alpha <= 1.0 / big_l * (1 + 1e-12)):
        raise InvalidAlpha(f"alpha must lie in (0, 1/L], got {alpha} with L={big_l}")
    if big_m == 0:
        return float("inf")
    if alpha >= 1.0 / big_l:
        return 2.0 * big_l * delta / (big_m * (2.0 * big_l * n**2 - delta))
    return 2.0 * delta * (1.0 - alpha * big_l) / (alpha * big_m * (2.0 * big_l * n**2 + delta))
