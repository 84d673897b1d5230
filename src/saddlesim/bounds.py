"""Exit-time bounds: the interval-family lower envelope and closed-form estimates.

psi(K) is a computable lower bound on the squared-radius ratio of every
trajectory in the coefficient family; its first crossing of one predicts the
family exit step without sampling.  exit_time_bound gives the closed-form
growth estimate at the top step size, and crude_bound the elementary
alignment-based estimate.  Both come with the explicit conditions under which
they are asserted, reported rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .problems import ProblemConstants
from .spectral import Projections


class NoLinearExit(ValueError):
    """psi stays at or below one through the scan budget, or provably at every step."""


class VacuousBound(ValueError):
    """Crude bound's logarithm argument is at most one, so it asserts nothing."""


class OutOfDomain(ValueError):
    """Lambert W requested left of the branch point -1/e."""


@dataclass(frozen=True)
class PsiConstants:
    """Inputs of the family lower bound.

    c1 <= c2 bracket the stable coefficients, c4 <= c3 the unstable ones,
    b1 and b2 collect the transfer-coupling magnitudes, and theta_s_sq /
    theta_us_sq split the unit initial mass.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    b1: float
    b2: float
    theta_s_sq: float
    theta_us_sq: float

    def __post_init__(self):
        if abs(self.theta_s_sq + self.theta_us_sq - 1.0) > 1e-10:
            raise ValueError("theta_s_sq + theta_us_sq must equal 1")
        if min(self.theta_s_sq, self.theta_us_sq) < 0:
            raise ValueError("projection masses must be nonnegative")
        if not (self.c1 <= self.c2 < self.c3 and self.c4 <= self.c3):
            raise ValueError("need c1 <= c2 < c3 and c4 <= c3")
        if self.b1 < 0 or self.b2 < 0:
            raise ValueError("b1 and b2 must be nonnegative")

    @cached_property
    def _psi_inputs(self) -> tuple:
        """psi's bases c1, c2, c3, c4 and c3 c2, each with ln|base|, then b1,
        b2 and the two masses, all as Python floats."""
        c1, c2, c3, c4 = (float(c) for c in (self.c1, self.c2, self.c3, self.c4))
        bases = tuple(
            (c, math.log(abs(c)) if c else -math.inf) for c in (c1, c2, c3, c4, c3 * c2)
        )
        masses = float(self.theta_s_sq), float(self.theta_us_sq)
        return bases, float(self.b1), float(self.b2), *masses


def psi_constants(
    big_l: float,
    beta: float,
    big_m: float,
    delta: float,
    n: int,
    alpha: float,
    eps: float,
    theta_s_sq: float,
    theta_us_sq: float,
) -> PsiConstants:
    """Assemble PsiConstants from problem constants and the initial split.

    c1 = 1 - alpha L - alpha eps M / 2    c2 = 1 - alpha beta + alpha eps M / 2
    c3 = 1 + alpha L + alpha eps M / 2    c4 = 1 + alpha beta - alpha eps M / 2
    b1 = alpha eps M L n / (2 delta)      b2 = b1 / (alpha L + alpha beta)
    """
    half = alpha * eps * big_m / 2.0
    b1 = alpha * eps * big_m * big_l * n / (2.0 * delta)
    return PsiConstants(
        c1=1.0 - alpha * big_l - half,
        c2=1.0 - alpha * beta + half,
        c3=1.0 + alpha * big_l + half,
        c4=1.0 + alpha * beta - half,
        b1=b1,
        b2=b1 / (alpha * big_l + alpha * beta),
        theta_s_sq=theta_s_sq,
        theta_us_sq=theta_us_sq,
    )


def psi(big_k: int, p: PsiConstants) -> float:
    """Lower bound on min over the family of ||u~_K||^2 / eps^2.

    psi(K) = (c1^2K - 2K c2^(2K-1) b1 - b2 (c3 c2)^K - b2 c3^2K) theta_s_sq
           + (c4^2K - 2K c3^(2K-1) b1 - b2 (c3 c2)^K - b2 c3^2K) theta_us_sq
    and psi(0) = 1 - 2 b2.  Values can be negative or huge; callers only care
    about the first crossing of one.
    """
    k = int(big_k)
    if k < 0:
        raise ValueError("big_k must be nonnegative")
    if k == 0:
        return (1.0 - 2.0 * p.b2) * (p.theta_s_sq + p.theta_us_sq)
    (c1, c2, c3, c4, c32), b1, b2, theta_s_sq, theta_us_sq = p._psi_inputs
    stable = _power(c1, 2 * k)
    unstable = _power(c4, 2 * k)
    if b1 > 0:
        stable -= 2.0 * k * _power(c2, 2 * k - 1) * b1
        unstable -= 2.0 * k * _power(c3, 2 * k - 1) * b1
    if b2 > 0:
        shared = b2 * _power(c32, k) + b2 * _power(c3, 2 * k)
        stable -= shared
        unstable -= shared
    out = stable * theta_s_sq + unstable * theta_us_sq
    if math.isnan(out):
        # inf - inf: the subtracted terms carry the larger base (c3 >= c4,
        # c2 >= c1) plus a factor of K, so the true limit is -inf
        return float("-inf")
    return out


def _power(base: tuple[float, float], e: int) -> float:
    """c ** e for base = (c, ln|c|) as a float64 power gives it: +-inf past DBL_MAX.

    A Python float power raises OverflowError there instead.  Past
    e ln|c| = 710 the power surely overflows (ln DBL_MAX = 709.78, and the
    rounding of e ln|c| is far below the difference), so the common
    overflowing case raises nothing.
    """
    c, log_abs = base
    if e * log_abs < 710.0:
        try:
            return c ** e
        except OverflowError:
            with np.errstate(over="ignore"):
                return float(np.float64(c) ** e)
    return -math.inf if c < 0 and e % 2 else math.inf


def _certified_stop(p: PsiConstants) -> int | None:
    """A step K_stop with psi(K) <= 0 for every K >= max(K_stop, 1), or None.

    With c2 >= 0 every b1 and b2 term of psi is subtracted, so
        psi(K) <= c3^2K (theta_s_sq rho1^2K + theta_us_sq rho4^2K - b2 mass),
        rho1 = |c1| / c3,  rho4 = |c4| / c3,  mass = theta_s_sq + theta_us_sq.
    When every rate that carries mass is below one the bracket falls with K,
    and K_stop is the first K >= 0 where it is negative (found by doubling,
    then bisection).  The scan evaluates K_stop itself, so every step it
    skips lies a full step past that crossing.  That step's decay must beat
    the rounding of the rates and of psi, else None.  None also when c2 < 0,
    b2 == 0 (a constant Hessian) or a rate with mass is >= 1.
    """
    floor = p.b2 * (p.theta_s_sq + p.theta_us_sq)
    if p.c2 < 0 or not 0 < floor < math.inf:
        return None
    terms = [
        (theta, abs(c) / p.c3)
        for theta, c in ((p.theta_s_sq, p.c1), (p.theta_us_sq, p.c4))
        if theta > 0
    ]
    if not all(rho < 1 for _, rho in terms):
        return None

    def head(k: int) -> float:
        return sum(theta * rho ** (2 * k) for theta, rho in terms)

    lo, hi = -1, 0  # head(lo) >= floor (lo = -1 stands before K = 0)
    while not head(hi) < floor:
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if head(mid) < floor:
            hi = mid
        else:
            lo = mid
    stop = hi
    # rho^2K carries a relative rounding of about 2K u and psi a few u; allow twice that
    rounding = (2 * stop + 32) * np.finfo(float).eps
    if not head(stop + 1) * (1.0 + rounding) < floor * (1.0 - rounding):
        return None
    return stop


def k_iota_from_psi(p: PsiConstants, k_max: int) -> int:
    """First K >= 1 with psi(K) > 1, i.e. the predicted family exit step.

    Evaluates psi at K = 1..min(k_max, K_stop) and returns what the scan of
    every K = 1..k_max would.  K_stop is certified: when c2 >= 0, b2 > 0 and
    the rates rho1 = |c1| / c3 and rho4 = |c4| / c3 of the parts with mass
    are below one, psi(K) <= c3^2K (theta_s_sq rho1^2K + theta_us_sq rho4^2K
    - b2) <= 0 from the first K >= 0 where the bracket is negative; that K is
    K_stop (see _certified_stop), so b2 > 1 evaluates nothing.  The CLI
    always has c2 >= 0, since alpha beta <= 1.  When c2 < 0, b2 == 0 (a
    constant Hessian) or a rate with mass is >= 1 it scans all of k_max.

    Raises NoLinearExit when the bound never certifies an exit within k_max;
    the message says whether the certificate rules out every later step or
    the budget ran out first.
    """
    k_max = int(k_max)
    stop = _certified_stop(p)
    last = k_max if stop is None else min(k_max, stop)
    for k in range(1, last + 1):
        if psi(k, p) > 1.0:
            return k
    if stop is not None and stop <= k_max:
        raise NoLinearExit(f"psi(K) <= 0 for every K >= {max(stop, 1)}: no crossing at any k_max")
    raise NoLinearExit(f"psi stayed <= 1 through k_max = {k_max}")


@dataclass(frozen=True)
class ExitBound:
    """Closed-form exit-step estimate at step size 1/L.

    k_bound is +inf when the Hessian is constant (big_m = 0, nothing limits
    validity but nothing forces the estimate to be finite either) and is only
    asserted against measured exits when well_conditioned is True and the
    initial unstable mass clears delta_threshold.
    """

    k_bound: float
    delta_threshold: float
    well_conditioned: bool


def exit_time_bound(
    big_l: float, beta: float, big_m: float, delta: float, n: int, eps: float
) -> ExitBound:
    """Growth-rate exit estimate at alpha = 1/L.

    With x = eps M / (2 L) and ratio = (2 + x) / (1 + beta/L - x):
        k_bound = log((2 + x) log(ratio) 2 delta / (eps M n)) / (2 log(ratio))
        delta_threshold = eps M L n / (delta (L + beta))
        well_conditioned = beta / L > x
    """
    if min(big_l, beta, delta, eps) <= 0 or big_m < 0 or n < 2:
        raise ValueError("invalid constants")
    if big_m == 0:
        return ExitBound(k_bound=float("inf"), delta_threshold=0.0, well_conditioned=True)
    x = eps * big_m / (2.0 * big_l)
    well = beta / big_l > x
    delta_threshold = eps * big_m * big_l * n / (delta * (big_l + beta))
    denom = 1.0 + beta / big_l - x
    if denom <= 0 or (2.0 + x) / denom <= 1.0:
        return ExitBound(
            k_bound=float("inf"), delta_threshold=delta_threshold, well_conditioned=well
        )
    ratio = (2.0 + x) / denom
    inner = (2.0 + x) * math.log(ratio) * 2.0 * delta / (eps * big_m * n)
    k_bound = math.log(inner) / (2.0 * math.log(ratio))
    return ExitBound(k_bound=k_bound, delta_threshold=delta_threshold, well_conditioned=well)


@dataclass(frozen=True)
class CrudeBoundParams:
    """Inputs of the alignment-based crude bound.

    rho in (0, 1) is the fraction of the unstable eigenvalue kept as the
    guaranteed growth rate; gamma in (0, 1] is the alignment of the exit point
    with the most unstable direction.
    """

    rho: float
    gamma: float
    beta: float
    big_m: float
    alpha: float
    eps: float

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if self.beta <= 0 or self.alpha <= 0 or self.eps <= 0 or self.big_m < 0:
            raise ValueError("beta, alpha, eps must be positive and big_m nonnegative")


def crude_bound(params: CrudeBoundParams) -> tuple[float, float]:
    """Elementary exit bound from guaranteed unstable-coordinate growth.

    Returns (k_bound, sufficient_threshold):
        k_bound = log(2 gamma beta (1 - rho) / (M eps)) / log(1 + rho alpha beta)
        sufficient_threshold = M eps^2 / (2 beta (1 - rho))
    the latter being the initial alignment <v_n, u_0> that guarantees the
    growth regime.  big_m = 0 gives (+inf, 0): the growth never stalls and the
    condition is free.  Raises VacuousBound when the log argument is <= 1.
    """
    p = params
    if p.big_m == 0:
        return float("inf"), 0.0
    arg = 2.0 * p.gamma * p.beta * (1.0 - p.rho) / (p.big_m * p.eps)
    if arg <= 1.0:
        raise VacuousBound(
            f"log argument {arg:g} <= 1: eps too large for the crude growth regime"
        )
    k_bound = math.log(arg) / math.log1p(p.rho * p.alpha * p.beta)
    sufficient = p.big_m * p.eps**2 / (2.0 * p.beta * (1.0 - p.rho))
    return k_bound, sufficient


def lambert_w(x: float) -> float:
    """Principal branch of w e^w = x for x >= -1/e, by Halley iteration.

    Initial guess: branch-point series for x near -1/e, log(x) - log(log(x))
    for x > e, and x / (1 + x) in between.  The returned w satisfies
    |w e^w - x| <= 1e-12 * (1 + |x|).
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must be a number")
    em1 = math.exp(-1.0)
    if x < -em1:
        raise OutOfDomain(f"x = {x!r} is below the branch point -1/e")
    if x == 0.0:
        return 0.0
    if x == -em1:
        return -1.0

    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
        if p < 1e-4:
            return w
    elif x < math.e:
        w = x / (1.0 + x) if x > -0.5 else x
    else:
        l1 = math.log(x)
        w = l1 - math.log(l1)

    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-13 * (1.0 + abs(x)):
            break
        wn = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        if wn == w:
            break
        w = wn
    residual = abs(w * math.exp(w) - x)
    if residual > 1e-12 * (1.0 + abs(x)):
        raise ArithmeticError(f"lambert_w failed to converge at x = {x!r}")
    return w


def boundary_condition_check(
    projections: Projections, constants: ProblemConstants, rho: float = 0.5
) -> dict:
    """Report whether an initial point qualifies for the closed-form bounds.

    Checks the unstable-mass condition theta_us_sq > delta_threshold together
    with well-conditioning (for exit_time_bound) and the crude sufficient
    condition eps * theta_us[-1] >= M eps^2 / (2 beta (1 - rho)), where the
    last unstable amplitude is the one along the most negative eigenvalue.
    """
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    n = projections.theta_s.size + projections.theta_us.size
    eps = projections.eps
    bound = exit_time_bound(
        constants.big_l, constants.beta, constants.big_m, constants.delta, n, eps
    )
    theta_us_sq = float(projections.theta_us @ projections.theta_us)
    tail = float(projections.theta_us[-1]) if projections.theta_us.size else 0.0
    sufficient = constants.big_m * eps**2 / (2.0 * constants.beta * (1.0 - rho))
    return {
        "eps": eps,
        "rho": rho,
        "theta_us_sq": theta_us_sq,
        "delta_threshold": bound.delta_threshold,
        "passes_delta": bool(theta_us_sq > bound.delta_threshold),
        "well_conditioned": bound.well_conditioned,
        "exit_k_bound": bound.k_bound,
        "unstable_tail": tail,
        "crude_threshold": sufficient,
        "crude_ok": bool(eps * tail >= sufficient),
    }
