"""Exact radial trajectories under gradient descent.

A run starts on the eps-sphere around the saddle and records the radial
vector u_k = x_k - x* at every step until the radius first leaves the ball
(strictly exceeds eps) or the step budget runs out.  These trajectories are
the ground truth the spectral approximations are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .spectral import RADIUS_RTOL

if TYPE_CHECKING:
    from .problems import SaddleProblem


class NoExit(ValueError):
    """Trajectory never left the eps-ball within its budget."""


class RecordTooLarge(ValueError):
    """A run's record would outgrow _RECORD_BYTES before it exits or its budget ends."""


# gd_run's record of radials may hold at most this many bytes, the same 1 GiB
# budget as problems.MAX_DIM; its block starts at _FIRST_ROWS rows and doubles
_RECORD_BYTES = 1 << 30
_FIRST_ROWS = 64


@dataclass(frozen=True)
class RadialTrajectory:
    """Recorded radial history of one run.

    radials has shape (K+1, n) with radials[k] = x_k - x*; norms are the
    corresponding radii.  exit_index is the first k >= 1 with norms[k] > eps,
    or None if the run exhausted its budget inside the ball.  The start row
    lies on the eps-sphere only up to rounding, so norms[0] can read one ulp
    above eps.  alpha is the step size and budget the step limit the run
    was given.
    """

    eps: float
    alpha: float
    radials: np.ndarray
    exit_index: int | None
    norms: np.ndarray
    budget: int

    def __post_init__(self):
        r0 = float(self.norms[0])
        if abs(r0 - self.eps) > RADIUS_RTOL * self.eps:
            raise ValueError(
                f"trajectory must start on the eps-sphere: ||u_0|| = {r0:.12g}, eps = {self.eps:.12g}"
            )


def default_k_max(eps: float, alpha: float, beta: float) -> int:
    """Step budget generous enough for the slowest admissible escape rate."""
    return 10 * math.ceil(math.log(1.0 / eps) / math.log1p(alpha * beta))


def _record_block(needed: int, wanted: int, n: int) -> np.ndarray:
    """An empty (rows, n) block: wanted rows, fewer if _RECORD_BYTES binds.

    Raises RecordTooLarge, before allocating, when even the needed rows
    would exceed _RECORD_BYTES.
    """
    max_rows = _RECORD_BYTES // (8 * n)
    if needed > max_rows:
        raise RecordTooLarge(
            f"a run at n = {n} would record more than {_RECORD_BYTES} bytes of radials; "
            f"set k_max to at most {max_rows - 1}"
        )
    return np.empty((min(wanted, max_rows), n))


def gd_run(
    problem: "SaddleProblem",
    u0: np.ndarray,
    alpha: float,
    eps: float,
    k_max: int | None = None,
) -> RadialTrajectory:
    """Run gradient descent x_{k+1} = x_k - alpha * grad f(x_k) from x* + u0.

    Requires 0 < alpha <= 1/L where L is the largest |eigenvalue| of the
    saddle Hessian.  Stops at the first radius strictly above eps (that point
    is recorded and becomes exit_index) or after k_max steps.  The default
    budget is 10 * ceil(log(1/eps) / log(1 + alpha * beta)).

    The radials fill a block that starts at 64 rows (or k_max + 1) and
    doubles, so past 64 rows it holds at most twice the recorded rows.  A
    record that would need more than _RECORD_BYTES raises RecordTooLarge
    before the block grows past it.
    """
    spectrum = problem.spectrum
    if not (0 < alpha <= (1.0 + 1e-12) / spectrum.big_l):
        raise ValueError(
            f"alpha must lie in (0, 1/L] with L = {spectrum.big_l:g}, got {alpha}"
        )
    if k_max is None:
        k_max = default_k_max(eps, alpha, spectrum.beta)
    u0 = np.asarray(u0, dtype=float)
    radials = _record_block(1, min(_FIRST_ROWS, k_max + 1), u0.size)
    radials[0] = u0
    # the norm of a contiguous 1-d row, as np.linalg.norm computes it
    norms = [math.sqrt(radials[0].dot(radials[0]))]
    x = problem.saddle + u0
    exit_index = None
    for k in range(1, k_max + 1):
        if k == radials.shape[0]:
            grown = _record_block(k + 1, min(2 * k, k_max + 1), u0.size)
            grown[:k] = radials
            radials = grown
        x = x - alpha * problem.gradient(x)
        u = radials[k]
        np.subtract(x, problem.saddle, out=u)
        norms.append(math.sqrt(u.dot(u)))
        if norms[-1] > eps:
            exit_index = k
            break
    return RadialTrajectory(
        eps=float(eps),
        alpha=float(alpha),
        radials=radials[: len(norms)],
        exit_index=exit_index,
        norms=np.array(norms),
        budget=k_max,
    )


def exit_time(traj: RadialTrajectory) -> int:
    """First index K >= 1 with ||u_K|| > eps.  Raises NoExit if none recorded."""
    above = np.flatnonzero(traj.norms[1:] > traj.eps)
    if above.size == 0:
        raise NoExit(
            f"no radius above eps = {traj.eps:g} within {traj.norms.size - 1} recorded steps"
        )
    return int(above[0]) + 1


def monotonicity_profile(
    traj: RadialTrajectory, v: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Alignment sequence <v, u_k> up to (and including) the exit step.

    Returns the sequence and whether it is strictly increasing.  Strict
    increase is the behaviour the crude escape bound assumes; on nonconvex
    problems it can fail even though the run still exits, so callers treat
    the flag as a diagnostic rather than an error condition.
    """
    v = np.asarray(v, dtype=float)
    stop = traj.norms.size if traj.exit_index is None else traj.exit_index + 1
    seq = traj.radials[:stop] @ v
    increasing = bool(np.all(np.diff(seq) > 0)) if seq.size > 1 else True
    return seq, increasing
