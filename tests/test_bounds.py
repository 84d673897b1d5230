import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlesim import bounds, cli
from saddlesim.bounds import (
    CrudeBoundParams,
    NoLinearExit,
    OutOfDomain,
    PsiConstants,
    VacuousBound,
    boundary_condition_check,
    crude_bound,
    exit_time_bound,
    k_iota_from_psi,
    lambert_w,
    psi,
    psi_constants,
)
from saddlesim.problems import ProblemConstants
from saddlesim.spectral import decompose, project

# unit total mass split as 0.99 : 0.00998 (the usual mostly-stable start)
MASS = 0.99 + 0.00998
THETA_S_SQ = 0.99 / MASS
THETA_US_SQ = 0.00998 / MASS


def reference_psi():
    # alpha = 0.1 on the unit two-by-two saddle: c1 = c2 = 0.9,
    # c3 = c4 = 1.1, and big_m = 0 kills both b terms
    return psi_constants(
        big_l=1.0,
        beta=1.0,
        big_m=0.0,
        delta=2.0,
        n=2,
        alpha=0.1,
        eps=0.1,
        theta_s_sq=THETA_S_SQ,
        theta_us_sq=THETA_US_SQ,
    )


class TestPsi:
    def test_constant_factory(self):
        p = reference_psi()
        assert p.c1 == pytest.approx(0.9)
        assert p.c2 == pytest.approx(0.9)
        assert p.c3 == pytest.approx(1.1)
        assert p.c4 == pytest.approx(1.1)
        assert p.b1 == 0.0 and p.b2 == 0.0

    def test_step_zero(self):
        assert psi(0, reference_psi()) == pytest.approx(1.0)

    def test_crossing_values(self):
        p = reference_psi()
        # 0.81^K theta_s_sq + 1.21^K theta_us_sq, frozen at the crossing
        assert psi(24, p) == pytest.approx(0.9745505427706079, rel=1e-12)
        assert psi(25, p) == pytest.approx(1.1766864829242691, rel=1e-12)

    def test_first_crossing_index(self):
        p = reference_psi()
        assert k_iota_from_psi(p, 250) == 25
        with pytest.raises(NoLinearExit):
            k_iota_from_psi(p, 10)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            psi(-1, reference_psi())

    def test_curvature_terms_enter_with_signs(self):
        p = psi_constants(
            big_l=1.0,
            beta=0.5,
            big_m=1.0,
            delta=2.0,
            n=2,
            alpha=0.5,
            eps=0.1,
            theta_s_sq=0.6,
            theta_us_sq=0.4,
        )
        assert p.c1 == pytest.approx(0.475)
        assert p.c2 == pytest.approx(0.775)
        assert p.c3 == pytest.approx(1.525)
        assert p.c4 == pytest.approx(1.225)
        assert p.b1 == pytest.approx(0.025)
        assert p.b2 == pytest.approx(0.025 / 0.75)
        assert psi(0, p) == pytest.approx(1.0 - 2.0 * p.b2)
        shared = p.b2 * (p.c3 * p.c2) + p.b2 * p.c3**2
        expected = (p.c1**2 - 2 * p.c2 * p.b1 - shared) * 0.6 + (
            p.c4**2 - 2 * p.c3 * p.b1 - shared
        ) * 0.4
        assert psi(1, p) == pytest.approx(expected, rel=1e-14)

    def test_pure_unstable_top_step_exits_immediately(self):
        p = psi_constants(1.0, 1.0, 0.0, 2.0, 2, alpha=1.0, eps=0.01,
                          theta_s_sq=0.0, theta_us_sq=1.0)
        assert psi(1, p) == pytest.approx(4.0)
        assert k_iota_from_psi(p, 10) == 1

    def test_large_steps_overflow_to_infinity_not_nan(self):
        p = reference_psi()
        val = psi(100_000, p)
        assert math.isinf(val) and val > 0

    def test_mass_must_be_normalized(self):
        with pytest.raises(ValueError):
            psi_constants(1.0, 1.0, 0.0, 2.0, 2, alpha=0.1, eps=0.1,
                          theta_s_sq=0.99, theta_us_sq=0.00998)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            PsiConstants(c1=1.0, c2=0.5, c3=1.5, c4=1.2, b1=0.0, b2=0.0,
                         theta_s_sq=0.5, theta_us_sq=0.5)


def float64_psi(big_k, p):
    """psi as a float64 computation: every power saturates at +-inf."""
    k = int(big_k)
    if k == 0:
        return (1.0 - 2.0 * p.b2) * (p.theta_s_sq + p.theta_us_sq)
    c1, c2, c3, c4 = (np.float64(c) for c in (p.c1, p.c2, p.c3, p.c4))
    with np.errstate(over="ignore", invalid="ignore"):
        stable = c1 ** (2 * k)
        unstable = c4 ** (2 * k)
        if p.b1 > 0:
            stable -= 2.0 * k * c2 ** (2 * k - 1) * p.b1
            unstable -= 2.0 * k * c3 ** (2 * k - 1) * p.b1
        if p.b2 > 0:
            shared = p.b2 * (c3 * c2) ** k + p.b2 * c3 ** (2 * k)
            stable -= shared
            unstable -= shared
        out = float(stable * p.theta_s_sq + unstable * p.theta_us_sq)
    return float("-inf") if math.isnan(out) else out


def bits(value):
    return np.float64(value).tobytes()


@st.composite
def psi_inputs(draw):
    """Constants with rates below, near and far above one, and a step K.

    Half the draws aim K at the float64 overflow edge of the largest base:
    2 K ln(top) near ln(DBL_MAX) = 709.78.
    """
    unit = st.floats(0.0, 1.0)
    c3 = draw(st.floats(1e-3, 50.0))
    c2 = c3 * draw(st.floats(-1.0, 0.999))
    c1 = c2 - draw(st.floats(0.0, 2.0)) * c3
    c4 = c3 * draw(st.floats(-1.0, 1.0))
    b1 = draw(st.sampled_from([0.0, draw(st.floats(0.0, 1e3))]))
    b2 = draw(st.sampled_from([0.0, draw(st.floats(0.0, 1e3))]))
    theta_us_sq = draw(st.sampled_from([0.0, 1.0, draw(unit)]))
    p = PsiConstants(c1, c2, c3, c4, b1, b2, 1.0 - theta_us_sq, theta_us_sq)
    top = max(abs(c1), abs(c2), c3, abs(c4))
    if top > 1.0 and draw(st.booleans()):
        edge = draw(st.floats(700.0, 720.0)) / (2.0 * math.log(top))
        return p, max(1, int(edge))
    return p, draw(st.integers(0, 10**6))


class TestPsiArithmetic:
    @given(psi_inputs())
    @settings(max_examples=600, deadline=None)
    def test_matches_float64_bit_for_bit(self, case):
        p, k = case
        assert bits(psi(k, p)) == bits(float64_psi(k, p))

    @pytest.mark.parametrize(
        "c, e",
        [(1.1, 7447), (1.1, 7448), (-1.1, 7449), (-1.1, 7451), (1.1, 14_000), (2.0, 1023),
         (2.0, 1024), (-2.0, 1025), (0.5, 1074), (0.5, 1080), (-0.0, 3), (1.0, 10**9),
         (math.inf, 3), (-math.inf, 3)],
    )
    def test_power_saturates_like_float64(self, c, e):
        # 1.1^7447 is finite; 1.1^7448 and 1.1^7449 overflow with e ln(1.1)
        # = 709.9 < 710, through the branch where the Python power raises
        log_abs = math.log(abs(c)) if c else -math.inf
        with np.errstate(over="ignore"):
            assert bits(bounds._power((c, log_abs), e)) == bits(np.float64(c) ** e)

    def test_inf_minus_inf_is_minus_inf(self):
        p = PsiConstants(c1=0.5, c2=0.9, c3=3.0, c4=2.0, b1=1.0, b2=1.0,
                         theta_s_sq=0.5, theta_us_sq=0.5)
        # c4^2000 and 2000 c3^1999 b1 are both inf
        assert psi(1000, p) == float64_psi(1000, p) == -math.inf


def linear_k_iota(p, k_max):
    """Reference: the scan of every K = 1..k_max, None when nothing crosses."""
    for k in range(1, k_max + 1):
        if psi(k, p) > 1.0:
            return k
    return None


def scanned_k_iota(p, k_max):
    try:
        return k_iota_from_psi(p, k_max)
    except NoLinearExit:
        return None


def counting_psi(calls):
    """bounds.psi that appends each step it is asked for to calls."""
    original = bounds.psi

    def counting(big_k, p):
        calls.append(big_k)
        return original(big_k, p)

    return counting


@pytest.fixture
def psi_calls(monkeypatch):
    """The steps at which k_iota_from_psi evaluates psi, in order."""
    calls = []
    monkeypatch.setattr(bounds, "psi", counting_psi(calls))
    return calls


@pytest.fixture(scope="module")
def shortcut_scans(tmp_path_factory):
    """(PsiConstants, k_max) of every scan the default phase-retrieval command
    makes (seeds 0-9 at their default budgets), and its psi call count."""
    scans, calls = [], []
    scan = bounds.k_iota_from_psi

    def recording(p, k_max):
        scans.append((p, k_max))
        return scan(p, k_max)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "k_iota_from_psi", recording)
        mp.setattr(bounds, "psi", counting_psi(calls))
        out = tmp_path_factory.mktemp("shortcut")
        assert cli.main(["phase-retrieval", "--out", str(out)]) == 0
    return scans, len(calls)


@pytest.fixture(scope="module")
def cubic_csv_scans(tmp_path_factory):
    """(PsiConstants, k_max) of every scan the benchmark's cubic-csv command
    makes (cubic, eps 1e-4, alpha_mode 0.005, seeds 0-3, four inits each),
    and its psi call count."""
    out = tmp_path_factory.mktemp("cubic")
    config = out / "cubic.json"
    config.write_text(json.dumps({
        "problem": {"kind": "cubic"},
        "eps": 1e-4,
        "alpha_mode": 0.005,
        "inits": [{"label": f"us{t:g}", "theta_us_sq": t} for t in (1e-8, 1e-4, 1e-2, 0.5)],
        "seeds": [0, 1, 2, 3],
        "out_prefix": "cubic",
    }))
    scans, calls = [], []
    scan = bounds.k_iota_from_psi

    def recording(p, k_max):
        scans.append((p, k_max))
        return scan(p, k_max)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "k_iota_from_psi", recording)
        mp.setattr(bounds, "psi", counting_psi(calls))
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert len(scans) == 16
    return scans, len(calls)


class TestCertifiedScan:
    @given(
        big_l=st.floats(0.1, 10.0),
        beta_frac=st.floats(1e-4, 1.0),
        big_m=st.one_of(st.just(0.0), st.floats(1e-3, 100.0)),
        delta_frac=st.floats(1e-3, 1.0),
        n=st.integers(2, 60),
        alpha_mode=st.floats(1e-6, 1.0),
        eps=st.floats(1e-6, 0.5),
        theta_us_sq=st.floats(0.0, 1.0),
        k_max=st.integers(1, 400),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_linear_scan(
        self, big_l, beta_frac, big_m, delta_frac, n, alpha_mode, eps, theta_us_sq, k_max
    ):
        p = psi_constants(
            big_l, beta_frac * big_l, big_m, delta_frac * big_l, n,
            alpha_mode / big_l, eps, 1.0 - theta_us_sq, theta_us_sq,
        )
        assert scanned_k_iota(p, k_max) == linear_k_iota(p, k_max)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_linear_scan_on_the_shortcut(self, shortcut_scans, seed):
        # the benchmark's shortcut workload pins k_max at 300,000
        scans, _ = shortcut_scans
        p, _ = scans[seed]
        assert linear_k_iota(p, 300_000) is None
        assert scanned_k_iota(p, 300_000) is None

    def test_shortcut_default_budgets_evaluate_no_psi(self, shortcut_scans):
        scans, psi_evals = shortcut_scans
        assert len(scans) == 10
        assert max(k_max for _, k_max in scans) == 8_275_050
        assert psi_evals == 0

    def test_shortcut_needs_no_psi_at_any_budget(self, shortcut_scans, psi_calls):
        scans, _ = shortcut_scans
        for p, _ in scans:
            with pytest.raises(NoLinearExit, match=r"psi\(K\) <= 0 for every K >= 1"):
                k_iota_from_psi(p, 10**12)
        assert psi_calls == []

    def test_cutoff_stops_a_crossing_free_scan_early(self, psi_calls):
        # rates 0.4 and 0.8 with half the mass each, b2 = 0.01: the bracket
        # 0.5 (0.16^K + 0.64^K) - 0.01 is first negative at K = 9 (0.0090
        # against 0.0140 at K = 8), so the scan evaluates K = 1..9 and
        # certifies the rest
        p = PsiConstants(c1=0.4, c2=0.5, c3=1.0, c4=0.8, b1=0.01, b2=0.01,
                         theta_s_sq=0.5, theta_us_sq=0.5)
        with pytest.raises(NoLinearExit, match=r"psi\(K\) <= 0 for every K >= 9"):
            k_iota_from_psi(p, 1000)
        assert psi_calls == list(range(1, 10))
        assert all(psi(k, p) <= 0.0 for k in range(9, 1000))
        assert linear_k_iota(p, 1000) is None

    @pytest.mark.parametrize(
        "p",
        [
            reference_psi(),  # b2 == 0
            # c2 < 0
            PsiConstants(c1=-0.5, c2=-0.1, c3=1.05, c4=0.5, b1=0.01, b2=0.1,
                         theta_s_sq=0.5, theta_us_sq=0.5),
            # r = |c4| / c3 = 1
            PsiConstants(c1=0.5, c2=0.9, c3=1.0, c4=1.0, b1=0.01, b2=0.5,
                         theta_s_sq=0.5, theta_us_sq=0.5),
            # r = |c1| / c3 > 1
            PsiConstants(c1=-1.01, c2=0.5, c3=1.0, c4=0.5, b1=0.0, b2=1.0,
                         theta_s_sq=0.5, theta_us_sq=0.5),
            # the bracket 0.5 (1 - 2^-50)^2K - 0.5 is first negative at K = 1,
            # but one step decays it by 2^-49 of b2, within rounding
            PsiConstants(c1=0.0, c2=0.5, c3=1.0, c4=1.0 - 2.0**-50, b1=0.01, b2=0.5,
                         theta_s_sq=0.5, theta_us_sq=0.5),
        ],
        ids=["b2-zero", "c2-negative", "r-one", "r-above-one", "decay-within-rounding"],
    )
    def test_fallback_scans_the_whole_budget(self, p, psi_calls):
        with pytest.raises(NoLinearExit, match="psi stayed <= 1 through k_max = 20"):
            k_iota_from_psi(p, 20)
        assert psi_calls == list(range(1, 21))

    def test_a_rate_without_mass_does_not_block_the_certificate(self, psi_calls):
        # |c4| = c3, but no mass sits on the unstable part
        p = PsiConstants(c1=0.5, c2=0.9, c3=1.0, c4=1.0, b1=0.01, b2=0.5,
                         theta_s_sq=1.0, theta_us_sq=0.0)
        with pytest.raises(NoLinearExit, match=r"psi\(K\) <= 0 for every K >= 1"):
            k_iota_from_psi(p, 100_000)
        assert psi_calls == [1]
        assert linear_k_iota(p, 1000) is None

    @pytest.mark.parametrize("index", range(16))
    def test_matches_the_linear_scan_on_cubic_csv(self, cubic_csv_scans, index):
        scans, _ = cubic_csv_scans
        p, k_max = scans[index]
        assert scanned_k_iota(p, k_max) == linear_k_iota(p, k_max)

    def test_cubic_csv_crossing_free_runs_stop_at_the_certificate(
        self, cubic_csv_scans, psi_calls
    ):
        # theta_us_sq 1e-8 (the first init of each seed) never crosses; the
        # stable part decays like (|c1|/c3)^2K = 0.980^K and falls below b2
        # = 7.1e-5 at K = 478, while |c4|/c3 = 0.9999986 alone would not
        # certify before K = 3,395,774, far past the 18,470-step budget
        scans, psi_evals = cubic_csv_scans
        for p, k_max in scans[::4]:
            assert p.theta_us_sq == 1e-8 and k_max == 18_470
            with pytest.raises(NoLinearExit, match=r"psi\(K\) <= 0 for every K >= 478"):
                k_iota_from_psi(p, k_max)
        assert psi_calls == list(range(1, 479)) * 4
        # the whole command (4 seeds x 4 inits) evaluates 7,960 psi values
        assert psi_evals == 7_960

    def test_budget_message_when_the_certificate_lies_beyond_k_max(self):
        p = PsiConstants(c1=0.4, c2=0.5, c3=1.0, c4=0.8, b1=0.01, b2=0.01,
                         theta_s_sq=0.5, theta_us_sq=0.5)
        with pytest.raises(NoLinearExit, match="psi stayed <= 1 through k_max = 5"):
            k_iota_from_psi(p, 5)


class TestExitTimeBound:
    def test_reference_values(self):
        bound = exit_time_bound(
            big_l=1.0, beta=0.5, big_m=1.0, delta=0.5, n=2, eps=0.01
        )
        assert bound.k_bound == pytest.approx(5.760893605897934, rel=1e-12)
        assert bound.delta_threshold == pytest.approx(0.02666666666666667, rel=1e-12)
        assert bound.well_conditioned

    def test_quadratic_limit(self):
        bound = exit_time_bound(1.0, 1.0, 0.0, 2.0, 2, eps=0.1)
        assert bound.k_bound == math.inf
        assert bound.delta_threshold == 0.0
        assert bound.well_conditioned

    def test_ill_conditioned_flagged_not_raised(self):
        # beta/L below eps M / (2 L) breaks the conditioning assumption
        bound = exit_time_bound(1.0, 0.001, 1.0, 0.5, 2, eps=0.01)
        assert not bound.well_conditioned
        assert math.isfinite(bound.k_bound)

    def test_stiffens_as_beta_approaches_big_l(self):
        # the guaranteed growth ratio (2 + x) / (1 + beta/L - x) tends to one
        # as beta -> L, so the step bound inflates and finally goes vacuous
        ks = [
            exit_time_bound(1.0, beta, 1.0, 0.5, 2, eps=0.01).k_bound
            for beta in (0.2, 0.4, 0.6, 0.8, 0.9)
        ]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        vacuous = exit_time_bound(1.0, 1.0, 1.0, 0.5, 2, eps=0.01)
        assert vacuous.k_bound <= 0  # raw value; callers must filter

    def test_grows_as_the_ball_shrinks(self):
        ks = [
            exit_time_bound(1.0, 0.5, 1.0, 0.5, 2, eps=e).k_bound
            for e in (0.02, 0.01, 0.005, 0.0025)
        ]
        assert all(a <= b for a, b in zip(ks, ks[1:]))


class TestCrudeBound:
    def params(self, **over):
        base = dict(rho=0.5, gamma=1.0, beta=1.0, big_m=1.0, alpha=1.0, eps=0.01)
        base.update(over)
        return CrudeBoundParams(**base)

    def test_reference_values(self):
        k, sufficient = crude_bound(self.params())
        assert k == pytest.approx(11.357747174535147, rel=1e-12)
        assert sufficient == pytest.approx(1e-4, rel=1e-12)

    def test_quadratic_limit(self):
        k, sufficient = crude_bound(self.params(big_m=0.0))
        assert k == math.inf and sufficient == 0.0

    def test_vacuous_when_the_ball_is_too_large(self):
        with pytest.raises(VacuousBound):
            crude_bound(self.params(eps=2.0))

    def test_diverges_as_rho_vanishes(self):
        ks = [crude_bound(self.params(rho=r))[0] for r in (1e-2, 1e-4, 1e-6)]
        assert ks[0] < ks[1] < ks[2]
        assert ks[2] > 1e4

    def test_parameter_domains(self):
        for bad in (dict(rho=0.0), dict(rho=1.0), dict(gamma=0.0), dict(gamma=1.5),
                    dict(alpha=0.0), dict(eps=0.0), dict(beta=0.0), dict(big_m=-1.0)):
            with pytest.raises(ValueError):
                self.params(**bad)


class TestLambertW:
    def test_special_points(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(-1.0 / math.e) == -1.0
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_reference_values(self):
        refs = {
            1.0: 0.56714329040978384,
            0.5: 0.35173371124919584,
            -0.25: -0.3574029561813889,
            10.0: 1.7455280027406994,
            1e6: 11.383358086140053,
        }
        for x, w in refs.items():
            assert lambert_w(x) == pytest.approx(w, rel=1e-13)

    def test_near_branch_point(self):
        # dW/dx blows up like 1/(1 + W) at the branch point, so a residual
        # stop of 1e-12 only pins W itself to ~1e-9 here
        w = lambert_w(-1.0 / math.e + 1e-6)
        assert w == pytest.approx(-0.99767016627205352, abs=1e-8)

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            lambert_w(-0.4)
        with pytest.raises(OutOfDomain):
            lambert_w(-10.0)

    @given(st.floats(min_value=-1.0 / math.e + 1e-9, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_defining_equation(self, x):
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * (1.0 + abs(x))


class TestBoundaryConditionCheck:
    def setup_method(self):
        spec = decompose(np.diag([1.0, -1.0]))
        eps = 0.01
        u0 = eps * np.array([np.sqrt(0.5), np.sqrt(0.5)])
        self.proj = project(u0, spec, eps)
        self.constants = ProblemConstants(
            big_l=1.0, beta=1.0, delta=2.0, big_m=0.5, big_m_source="exact", eps_max=1.0
        )

    def test_report_fields(self):
        report = boundary_condition_check(self.proj, self.constants)
        assert report["theta_us_sq"] == pytest.approx(0.5)
        # eps M L n / (delta (L + beta)) with the numbers above
        assert report["delta_threshold"] == pytest.approx(0.01 * 0.5 * 2 / (2 * 2))
        assert report["passes_delta"]
        assert report["well_conditioned"]
        assert math.isfinite(report["exit_k_bound"])
        # crude sufficient condition: eps * tail >= M eps^2 / (2 beta (1 - rho))
        assert report["crude_threshold"] == pytest.approx(0.5 * 1e-4 / 1.0)
        assert report["unstable_tail"] == pytest.approx(np.sqrt(0.5))
        assert report["crude_ok"]

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            boundary_condition_check(self.proj, self.constants, rho=1.0)

    def test_starved_unstable_mass_fails_the_threshold(self):
        spec = decompose(np.diag([1.0, -1.0]))
        eps = 0.01
        u0 = eps * np.array([1.0, 0.0])
        proj = project(u0, spec, eps)
        report = boundary_condition_check(proj, self.constants)
        assert not report["passes_delta"]
        assert not report["crude_ok"]
