import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkowski3.core import (
    AmbiguousCaseError,
    CausalClass,
    CausalTypeError,
    GeometryError,
    E1,
    E2,
    E3,
    causal_class,
    cross,
    lorentz_dot,
    lorentz_norm,
)
from minkowski3 import curves, isometry
from minkowski3.curves import (
    BertrandFit,
    CurveJet,
    FrenetCase,
    PlaneCase,
    bertrand_fit,
    classify_curve,
    curvature_torsion_general,
    export_curve_csv,
    frenet,
    frenet_matrix,
    generate_constant_curvature,
    is_helix,
    reparam_arclength,
    reparam_pseudo_arclength,
    theorem_angle_check,
)

from conftest import (
    euclidean_helix_jet,
    lightlike_helix_jet,
    random_pp_motion,
    random_timelike_jet,
    scaled_null_helix_jet,
    timelike_hyperbola_jet,
)


def mixed_type_jet():
    """(cosh t, t^2, sinh t): spacelike for |t|>1/2, timelike inside."""
    return CurveJet(
        lambda t: np.array([np.cosh(t), t * t, np.sinh(t)]),
        lambda t: np.array([np.sinh(t), 2 * t, np.cosh(t)]),
        lambda t: np.array([np.cosh(t), 2.0, np.sinh(t)]),
        lambda t: np.array([np.sinh(t), 0.0, np.cosh(t)]),
        domain=(-2.0, 2.0),
    )


def spacelike_helix_jet(rho: float, a: float) -> CurveJet:
    """(rho cos(s/c), rho sin(s/c), a s/c), c^2 = rho^2 - a^2: unit-speed
    spacelike with spacelike normal, torsion -a/c^2."""
    c = np.sqrt(rho * rho - a * a)
    return CurveJet(
        lambda s: np.array([rho * np.cos(s / c), rho * np.sin(s / c), a * s / c]),
        lambda s: np.array([-rho * np.sin(s / c) / c, rho * np.cos(s / c) / c, a / c]),
        lambda s: np.array([-rho * np.cos(s / c), -rho * np.sin(s / c), 0.0]) / c ** 2,
        lambda s: np.array([rho * np.sin(s / c), -rho * np.cos(s / c), 0.0]) / c ** 3,
        domain=(-1.0, 1.0),
    )


def timelike_normal_helix_jet(b: float, r: float) -> CurveJet:
    """(b s/c, r sinh(s/c), r cosh(s/c)), c^2 = b^2 + r^2: unit-speed
    spacelike with timelike normal, torsion -b/c^2."""
    c = np.sqrt(b * b + r * r)
    return CurveJet(
        lambda s: np.array([b * s / c, r * np.sinh(s / c), r * np.cosh(s / c)]),
        lambda s: np.array([b / c, r * np.cosh(s / c) / c, r * np.sinh(s / c) / c]),
        lambda s: np.array([0.0, r * np.sinh(s / c), r * np.cosh(s / c)]) / c ** 2,
        lambda s: np.array([0.0, r * np.cosh(s / c), r * np.sinh(s / c)]) / c ** 3,
        domain=(-1.0, 1.0),
    )


def null_normal_exp_jet(k: float) -> CurveJet:
    """(s, e^(ks)/k, e^(ks)/k): unit-speed spacelike with null normal,
    torsion k."""
    return CurveJet(
        lambda s: np.array([s, np.exp(k * s) / k, np.exp(k * s) / k]),
        lambda s: np.array([1.0, np.exp(k * s), np.exp(k * s)]),
        lambda s: np.array([0.0, k * np.exp(k * s), k * np.exp(k * s)]),
        lambda s: np.array([0.0, k * k * np.exp(k * s), k * k * np.exp(k * s)]),
        domain=(-1.0, 1.0),
    )


def parabola_jet(c: float) -> CurveJet:
    """(t, c t^2, 0): spacelike, speed sqrt(1 + (2ct)^2)."""
    return CurveJet(
        lambda t: np.array([t, c * t * t, 0.0]),
        lambda t: np.array([1.0, 2 * c * t, 0.0]),
        lambda t: np.array([0.0, 2 * c, 0.0]),
        lambda t: np.zeros(3),
        domain=(-1.0, 1.0),
    )


def double_null_helix_jet() -> CurveJet:
    """(cos 2t, sin 2t, 2t): lightlike with |alpha''| = 4, pseudo-arc length 2t."""
    return CurveJet(
        lambda t: np.array([np.cos(2 * t), np.sin(2 * t), 2 * t]),
        lambda t: np.array([-2 * np.sin(2 * t), 2 * np.cos(2 * t), 2.0]),
        lambda t: np.array([-4 * np.cos(2 * t), -4 * np.sin(2 * t), 0.0]),
        lambda t: np.array([8 * np.sin(2 * t), -8 * np.cos(2 * t), 0.0]),
        domain=(-2.0, 2.0),
    )


def wide_hyperbola_jet(a: float, k: float) -> CurveJet:
    """(0, a cosh kt, a sinh kt): timelike of constant speed a k."""
    return CurveJet(
        lambda t: np.array([0.0, a * np.cosh(k * t), a * np.sinh(k * t)]),
        lambda t: np.array([0.0, a * k * np.sinh(k * t), a * k * np.cosh(k * t)]),
        lambda t: np.array([0.0, a * k * k * np.cosh(k * t), a * k * k * np.sinh(k * t)]),
        lambda t: np.array([0.0, a * k ** 3 * np.sinh(k * t), a * k ** 3 * np.cosh(k * t)]),
        domain=(-1.0, 1.2),
    )


class TestClassification:
    def test_piecewise_causal_type(self):
        jet = mixed_type_jet()
        assert classify_curve(jet, 1.0) is CausalClass.SPACELIKE
        assert classify_curve(jet, 0.0) is CausalClass.TIMELIKE
        assert classify_curve(jet, 0.5) is CausalClass.LIGHTLIKE

    def test_timelike_lightlike_regularity(self):
        # wherever classification is timelike/lightlike, alpha' != 0
        jet = mixed_type_jet()
        for t in np.linspace(-1.9, 1.9, 41):
            if classify_curve(jet, t) is not CausalClass.SPACELIKE:
                assert np.linalg.norm(jet.velocity(t)) > 1e-9


class TestArcLength:
    def test_constant_speed_line(self):
        p, v = np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 2.0])
        jet = CurveJet(lambda t: p + t * v, lambda t: v,
                       lambda t: np.zeros(3), lambda t: np.zeros(3), domain=(-1, 1))
        beta = reparam_arclength(jet, 0.0)
        npt.assert_allclose(beta.position(1.0), p + 0.5 * v, rtol=1e-12)
        npt.assert_allclose(abs(lorentz_dot(beta.velocity(0.3), beta.velocity(0.3))), 1.0,
                            rtol=1e-12)

    def test_circle_period(self):
        r = 2.0
        jet = CurveJet(
            lambda t: np.array([r * np.cos(t), r * np.sin(t), 0.0]),
            lambda t: np.array([-r * np.sin(t), r * np.cos(t), 0.0]),
            lambda t: np.array([-r * np.cos(t), -r * np.sin(t), 0.0]),
            lambda t: np.array([r * np.sin(t), -r * np.cos(t), 0.0]),
            domain=(0.0, 2 * np.pi),
        )
        beta = reparam_arclength(jet, 0.0)
        npt.assert_allclose(beta.domain[1], 2 * np.pi * r, rtol=1e-10)

    def test_identity_on_unit_speed_input(self):
        jet = timelike_hyperbola_jet(1.5)
        beta = reparam_arclength(jet, 0.2)
        for s in (-0.3, 0.0, 0.4):
            npt.assert_allclose(beta.position(s), jet.position(0.2 + s), atol=1e-9)

    def test_unit_speed_everywhere(self):
        jet = mixed_type_jet()
        jet_small = CurveJet(jet.position, jet.velocity, jet.acceleration, jet.jerk,
                             domain=(-0.3, 0.3))
        beta = reparam_arclength(jet_small, 0.0)
        for s in np.linspace(beta.domain[0] + 1e-6, beta.domain[1] - 1e-6, 11):
            npt.assert_allclose(
                abs(lorentz_dot(beta.velocity(s), beta.velocity(s))), 1.0, atol=1e-8
            )

    def test_rejects_mixed_span(self):
        with pytest.raises(GeometryError):
            reparam_arclength(mixed_type_jet(), 0.0)

    def test_rejects_lightlike(self):
        with pytest.raises(CausalTypeError):
            reparam_arclength(lightlike_helix_jet(), 0.0)


class TestPseudoArcLength:
    def test_already_normalized(self):
        jet = lightlike_helix_jet()
        beta = reparam_pseudo_arclength(jet, 0.5)
        npt.assert_allclose(beta.position(0.0), jet.position(0.5), atol=1e-12)
        for s in (-0.5, 0.2, 1.0):
            npt.assert_allclose(
                abs(lorentz_dot(beta.acceleration(s), beta.acceleration(s))),
                1.0, atol=1e-6,
            )

    def test_speed_half(self):
        # |alpha''| = 4, so phi' = 1/2
        jet = double_null_helix_jet()
        beta = reparam_pseudo_arclength(jet, 0.0)
        npt.assert_allclose(
            abs(lorentz_dot(beta.acceleration(1.0), beta.acceleration(1.0))),
            1.0, atol=1e-6,
        )
        # phi(s) = s/2: the point at s = 2 is the original point at t = 1
        npt.assert_allclose(beta.position(2.0), jet.position(1.0), atol=1e-9)

    def test_idempotent(self):
        jet = double_null_helix_jet()
        once = reparam_pseudo_arclength(jet, 0.0)
        twice = reparam_pseudo_arclength(once, 0.0)
        for s in (-0.4, 0.0, 0.8):
            npt.assert_allclose(twice.position(s), once.position(s), atol=1e-8)

    def test_rejects_spacelike(self):
        with pytest.raises(CausalTypeError):
            reparam_pseudo_arclength(timelike_hyperbola_jet(1.0), 0.0)

    @pytest.mark.parametrize("derivatives", [True, False], ids=["jet", "position-only"])
    def test_long_domain_does_not_widen_the_lightlike_band(self, derivatives):
        # h_fd = 2 on (-1e4, 1e4): a band in t units would be 400, which the
        # timelike helix's |<a',a'>| / |a'|^2 = 0.6 passes
        x = lambda t: np.array([np.cos(t), np.sin(t), 2 * t])
        dx = (lambda t: np.array([-np.sin(t), np.cos(t), 2.0])) if derivatives else None
        with pytest.raises(CausalTypeError, match="not lightlike"):
            reparam_pseudo_arclength(CurveJet(x, dx, domain=(-1e4, 1e4)), 0.0)


class TestClosedFormLengths:
    """s(t(s)) = s against closed-form lengths, at 201 points and both ends."""

    @staticmethod
    def check(beta, jet, t0, length, t_of):
        """`length(t)` is the closed-form length from t = 0, and `t_of(p)`
        the parameter of the point p of the curve."""
        t_lo, t_hi = jet.domain
        assert abs(beta.domain[0] - (length(t_lo) - length(t0))) <= 1e-13
        assert abs(beta.domain[1] - (length(t_hi) - length(t0))) <= 1e-13
        ss = np.linspace(beta.domain[0], beta.domain[1], 201)
        err = max(abs(length(t_of(beta.position(s))) - length(t0) - s) for s in ss)
        assert err <= 1e-13

    # at c = 50 the speed's branch points are 0.01 from t = 0, and the panels
    # next to the vertex are halved until the interpolant resolves them
    @pytest.mark.parametrize("c", [0.5, 2.0, 50.0])
    def test_parabola(self, c):
        def length(t):
            u = 2 * c * t
            return (u * np.sqrt(1 + u * u) + np.arcsinh(u)) / (4 * c)

        jet = parabola_jet(c)
        self.check(reparam_arclength(jet, 0.0), jet, 0.0, length, lambda p: p[0])

    def test_timelike_hyperbola(self):
        a, k, t0 = 1.5, 0.7, 0.3
        jet = wide_hyperbola_jet(a, k)
        self.check(reparam_arclength(jet, t0), jet, t0, lambda t: a * k * t,
                   lambda p: np.arcsinh(p[2] / a) / k)

    def test_pseudo_arclength(self):
        jet = double_null_helix_jet()
        self.check(reparam_pseudo_arclength(jet, 0.25), jet, 0.25, lambda t: 2 * t,
                   lambda p: p[2] / 2)


def test_noisy_rate_stops_at_the_panel_cap():
    # a position-only jet: alpha'' is a second difference whose rounding
    # noise no halving removes, so refinement ends at the panel cap
    calls = [0]

    def x(t):
        calls[0] += 1
        return 100.0 * np.array([np.cos(t / 100), np.sin(t / 100), t / 100])

    beta = reparam_pseudo_arclength(CurveJet(x, domain=(-1.0, 1.0)), 0.3)
    # |alpha''| = 1/100, so s = (t - t0) / 10
    npt.assert_allclose(beta.domain, (-0.13, 0.07), rtol=0, atol=1e-6)
    assert calls[0] < 20_000


class TestBaseParameter:
    @pytest.mark.parametrize("t0", [5.0, -1.0 - 1e-12, float("nan")])
    def test_rejects_t0_outside_domain(self, t0):
        with pytest.raises(GeometryError, match="outside the domain"):
            reparam_arclength(euclidean_helix_jet(2.0, span=(-1.0, 1.0)), t0)
        with pytest.raises(GeometryError, match="outside the domain"):
            reparam_pseudo_arclength(lightlike_helix_jet(span=(-1.0, 1.0)), t0)

    @pytest.mark.parametrize("t0", [-1.0, 1.0])
    def test_endpoints_allowed(self, t0):
        jet = euclidean_helix_jet(2.0, span=(-1.0, 1.0))
        beta = reparam_arclength(jet, t0)
        # speed sqrt(3): the whole span lies on one side of t0
        npt.assert_allclose(beta.domain, sorted([0.0, -2 * np.sqrt(3) * t0]), rtol=0, atol=1e-13)
        assert beta.position(0.0).tobytes() == jet.position(t0).tobytes()
        null = reparam_pseudo_arclength(lightlike_helix_jet(span=(-1.0, 1.0)), t0)
        npt.assert_allclose(null.domain, sorted([0.0, -2 * t0]), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("t0", [np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)])
    def test_t0_an_ulp_inside_an_end(self, t0):
        # the short side's panels have zero length: a query there, or the
        # Richardson stencil of the pseudo jet's beta''', divided by it
        for beta in (reparam_arclength(euclidean_helix_jet(2.0, span=(-1.0, 1.0)), t0),
                     reparam_pseudo_arclength(lightlike_helix_jet(span=(-1.0, 1.0)), t0)):
            for s in (*beta.domain, 0.0):
                assert np.isfinite(beta.position(s)).all()
                assert frenet(beta, s).case in (FrenetCase.TIMELIKE, FrenetCase.LIGHTLIKE)


class TestReparamMemo:
    """The one-entry (s, t) memo changes no bits, whatever the order of s."""

    EVALUATORS = ("position", "velocity", "acceleration", "jerk")

    @staticmethod
    def jet():
        return reparam_arclength(euclidean_helix_jet(2.0, span=(-1.0, 1.0)), 0.1)

    def test_position_fresh_after_other_s_and_negative_zero(self):
        fresh = self.jet().position(0.0).tobytes()
        beta = self.jet()
        beta.position(0.37)
        assert beta.position(0.0).tobytes() == fresh
        beta.position(-0.0)
        assert beta.position(0.0).tobytes() == fresh
        other = self.jet().position(0.37).tobytes()
        beta.position(0.0)
        assert beta.position(0.37).tobytes() == other

    def test_any_evaluation_order_gives_fresh_bytes(self, rng):
        ss = [0.0, -0.0, 0.37, 0.37 + 1e-9, -0.5, 1e-3, 1.7, -1.8, 0.37]
        fresh = [{name: getattr(self.jet(), name)(s).tobytes() for name in self.EVALUATORS}
                 for s in ss]
        n = len(ss)
        for order in (range(n), range(n - 1, -1, -1), rng.permutation(n)):
            beta = self.jet()
            for i in order:
                for name in self.EVALUATORS:
                    assert getattr(beta, name)(ss[i]).tobytes() == fresh[i][name], (name, ss[i])


def _counted(jet: CurveJet, counts: dict) -> CurveJet:
    """`jet` with each derivative call tallied in counts[name]."""
    def wrap(name):
        f = getattr(jet, name)

        def g(t):
            counts[name] += 1
            return f(t)
        return g
    return CurveJet(jet.position, wrap("velocity"), wrap("acceleration"), wrap("jerk"),
                    domain=jet.domain, h_fd=jet.h_fd)


def _arclength_oracle(jet: CurveJet, t0: float) -> CurveJet:
    """reparam_arclength's chain rule as first written: every factor calls
    the base jet again.  Same map t(s), same formulas."""
    eps = 1.0 if classify_curve(jet, t0) is CausalClass.SPACELIKE else -1.0

    def speed(t):
        return float(lorentz_norm(jet.velocity(t)))

    s_lo, s_hi, t_of_s = curves._monotone_map(speed, t0, jet.domain)

    def dv_dt(t):
        return eps * float(lorentz_dot(jet.acceleration(t), jet.velocity(t))) / speed(t)

    def dbeta(s):
        t = t_of_s(s)
        return jet.velocity(t) / speed(t)

    def ddbeta(s):
        t = t_of_s(s)
        v = speed(t)
        tp = 1.0 / v
        tpp = -dv_dt(t) / v ** 3
        return jet.acceleration(t) * tp * tp + jet.velocity(t) * tpp

    def dddbeta(s):
        t = t_of_s(s)
        v = speed(t)
        vd = dv_dt(t)
        vdd = (
            eps * (float(lorentz_dot(jet.jerk(t), jet.velocity(t)))
                   + float(lorentz_dot(jet.acceleration(t), jet.acceleration(t)))) / v
            - vd * vd / v
        )
        tp = 1.0 / v
        tpp = -vd / v ** 3
        tppp = -vdd / v ** 4 + 3.0 * vd * vd / v ** 5
        return jet.jerk(t) * tp ** 3 + 3.0 * jet.acceleration(t) * tp * tpp + jet.velocity(t) * tppp

    return CurveJet(lambda s: jet.position(t_of_s(s)), dbeta, ddbeta, dddbeta,
                    domain=(s_lo, s_hi), h_fd=jet.h_fd)


def _pseudo_oracle(jet: CurveJet, t0: float) -> CurveJet:
    """reparam_pseudo_arclength's chain rule as first written."""
    def w(t):
        return float(lorentz_norm(jet.acceleration(t)))

    s_lo, s_hi, t_of_s = curves._monotone_map(lambda t: np.sqrt(w(t)), t0, jet.domain)

    def wdot(t):
        return float(lorentz_dot(jet.jerk(t), jet.acceleration(t))) / w(t)

    def dbeta(s):
        t = t_of_s(s)
        return jet.velocity(t) / np.sqrt(w(t))

    def ddbeta(s):
        t = t_of_s(s)
        wt = w(t)
        pp = 1.0 / np.sqrt(wt)
        ppp = -0.5 * wdot(t) / (wt * wt)
        return jet.acceleration(t) * pp * pp + jet.velocity(t) * ppp

    # the stencil of beta''' steps in s units: CurveJet's default, 1e-4 of the s-domain
    return CurveJet(lambda s: jet.position(t_of_s(s)), dbeta, ddbeta, None, domain=(s_lo, s_hi))


def _frame_bytes(fr) -> tuple:
    return fr.T.tobytes(), fr.N.tobytes(), fr.B.tobytes(), fr.case, fr.kappa, fr.tau


class TestChainRuleEvaluations:
    """The reparametrized jets evaluate each base derivative once per call,
    and give the bits of the chain rule that evaluated it once per factor."""

    SS = (0.0, -0.0, 0.3, -0.71, 1e-3, 1.5)

    def test_arclength_frenet_makes_one_call_per_derivative_and_evaluator(self):
        counts = dict.fromkeys(("velocity", "acceleration", "jerk"), 0)
        beta = reparam_arclength(_counted(euclidean_helix_jet(2.0, span=(-1.0, 1.0)), counts), 0.0)
        counts.update(dict.fromkeys(counts, 0))
        frenet(beta, 0.3)
        # T needs alpha', N alpha' and alpha'', tau all three
        assert counts == {"velocity": 3, "acceleration": 2, "jerk": 1}

    def test_pseudo_arclength_acceleration_calls_each_derivative_once(self):
        counts = dict.fromkeys(("velocity", "acceleration", "jerk"), 0)
        beta = reparam_pseudo_arclength(_counted(double_null_helix_jet(), counts), 0.25)
        counts.update(dict.fromkeys(counts, 0))
        beta.acceleration(0.4)
        assert counts == {"velocity": 1, "acceleration": 1, "jerk": 1}

    @pytest.mark.parametrize("a", [2.0, 0.5], ids=["timelike", "spacelike"])
    def test_arclength_bits_match_the_per_factor_chain_rule(self, a):
        base = euclidean_helix_jet(a, span=(-1.0, 1.0))
        beta, oracle = reparam_arclength(base, 0.1), _arclength_oracle(base, 0.1)
        assert beta.domain == oracle.domain
        for s in self.SS:
            for name in ("position", "velocity", "acceleration", "jerk"):
                assert getattr(beta, name)(s).tobytes() == getattr(oracle, name)(s).tobytes(), (name, s)
            assert _frame_bytes(frenet(beta, s)) == _frame_bytes(frenet(oracle, s))

    @pytest.mark.parametrize("make", [double_null_helix_jet, lambda: scaled_null_helix_jet(1.3)],
                             ids=["double", "scaled"])
    def test_pseudo_arclength_bits_match_the_per_factor_chain_rule(self, make):
        base = make()
        beta, oracle = reparam_pseudo_arclength(base, 0.25), _pseudo_oracle(base, 0.25)
        assert beta.domain == oracle.domain
        for s in self.SS:
            for name in ("position", "velocity", "acceleration", "jerk"):
                assert getattr(beta, name)(s).tobytes() == getattr(oracle, name)(s).tobytes(), (name, s)
            assert _frame_bytes(frenet(beta, s)) == _frame_bytes(frenet(oracle, s))


class TestFrenetFrames:
    def test_timelike_planar_hyperbola(self):
        for a in (1.0, 2.0):
            fr = frenet(timelike_hyperbola_jet(a), 0.3)
            assert fr.case is FrenetCase.TIMELIKE
            npt.assert_allclose(fr.kappa, a, rtol=1e-10)
            npt.assert_allclose(fr.tau, 0.0, atol=1e-8)
            npt.assert_allclose(lorentz_dot(fr.T, fr.T), -1.0, atol=1e-12)
            npt.assert_allclose(lorentz_dot(fr.N, fr.N), 1.0, atol=1e-12)
            npt.assert_allclose(lorentz_dot(fr.B, fr.B), 1.0, atol=1e-12)
            for x, y in ((fr.T, fr.N), (fr.T, fr.B), (fr.N, fr.B)):
                npt.assert_allclose(lorentz_dot(x, y), 0.0, atol=1e-12)

    def test_spacelike_circle(self):
        r = 2.0
        jet = CurveJet(
            lambda s: np.array([r * np.cos(s / r), r * np.sin(s / r), 0.0]),
            lambda s: np.array([-np.sin(s / r), np.cos(s / r), 0.0]),
            lambda s: np.array([-np.cos(s / r) / r, -np.sin(s / r) / r, 0.0]),
            lambda s: np.array([np.sin(s / r) / r ** 2, -np.cos(s / r) / r ** 2, 0.0]),
            domain=(0, 12.0),
        )
        fr = frenet(jet, 1.0)
        assert fr.case is FrenetCase.SPACELIKE_SP_N
        npt.assert_allclose(fr.kappa, 1 / r, rtol=1e-10)
        npt.assert_allclose(fr.tau, 0.0, atol=1e-8)

    def test_spacelike_timelike_normal(self):
        jet = generate_constant_curvature(PlaneCase.TIMELIKE_PLANE_SPACELIKE_CURVE, 3.0)
        fr = frenet(jet, 0.1)
        assert fr.case is FrenetCase.SPACELIKE_TL_N
        npt.assert_allclose(fr.kappa, 3.0, rtol=1e-10)
        npt.assert_allclose(lorentz_dot(fr.N, fr.N), -1.0, atol=1e-12)

    def test_spacelike_lightlike_normal(self):
        jet = generate_constant_curvature(PlaneCase.LIGHTLIKE_PLANE, 0.5)
        fr = frenet(jet, 0.2)
        assert fr.case is FrenetCase.SPACELIKE_LL_N
        assert fr.kappa is None
        npt.assert_allclose(lorentz_dot(fr.N, fr.B), 1.0, atol=1e-12)
        npt.assert_allclose(lorentz_dot(fr.T, fr.B), 0.0, atol=1e-12)
        npt.assert_allclose(lorentz_dot(fr.B, fr.B), 0.0, atol=1e-12)
        npt.assert_allclose(fr.tau, 0.0, atol=1e-7)

    def test_lightlike_helix(self):
        fr = frenet(lightlike_helix_jet(), 0.5)
        assert fr.case is FrenetCase.LIGHTLIKE
        assert fr.kappa is None
        npt.assert_allclose(lorentz_dot(fr.N, fr.N), 1.0, atol=1e-12)
        npt.assert_allclose(lorentz_dot(fr.T, fr.B), 1.0, atol=1e-12)
        npt.assert_allclose(lorentz_dot(fr.N, fr.B), 0.0, atol=1e-12)
        npt.assert_allclose(fr.tau, -0.5, atol=1e-9)

    def test_straight_line_rejected(self):
        v = np.array([0.0, 0.0, 1.0])
        jet = CurveJet(lambda t: t * v, lambda t: v,
                       lambda t: np.zeros(3), lambda t: np.zeros(3), domain=(-1, 1))
        with pytest.raises(GeometryError):
            frenet(jet, 0.0)

    def test_requires_unit_speed(self):
        jet = CurveJet(
            lambda t: np.array([0.0, np.cosh(2 * t), np.sinh(2 * t)]),
            lambda t: np.array([0.0, 2 * np.sinh(2 * t), 2 * np.cosh(2 * t)]),
            lambda t: np.array([0.0, 4 * np.cosh(2 * t), 4 * np.sinh(2 * t)]),
            lambda t: np.array([0.0, 8 * np.sinh(2 * t), 8 * np.cosh(2 * t)]),
            domain=(-1, 1),
        )
        with pytest.raises(GeometryError):
            frenet(jet, 0.0)

    @pytest.mark.parametrize(
        "builder,s",
        [
            # each builder returns (jet, closed-form torsion)
            (lambda: (timelike_hyperbola_jet(1.3), 0.0), 0.2),
            (lambda: (generate_constant_curvature(PlaneCase.SPACELIKE_PLANE, 0.8), 0.0), 0.4),
            (lambda: (generate_constant_curvature(PlaneCase.TIMELIKE_PLANE_SPACELIKE_CURVE, 1.1),
                      0.0), 0.1),
            (lambda: (generate_constant_curvature(PlaneCase.LIGHTLIKE_PLANE, 0.3), 0.0), 0.2),
            (lambda: (lightlike_helix_jet(), -0.5), 0.7),
            (lambda: (spacelike_helix_jet(1.3, 0.5), -0.5 / 1.44), 0.3),
            (lambda: (timelike_normal_helix_jet(0.6, 0.8), -0.6), 0.5),
            (lambda: (null_normal_exp_jet(0.7), 0.7), 0.6),
        ],
    )
    def test_frenet_system_residual(self, builder, s):
        # d(frame)/ds matches the case's derivative matrix times the frame
        jet, tau = builder()
        h = jet.h_fd
        fr = frenet(jet, s)
        # tau comes from the closed-form jerk in the one frame: rounding only
        npt.assert_allclose(fr.tau, tau, rtol=0, atol=1e-13)
        mat = frenet_matrix(fr.case, fr.kappa, fr.tau)
        frame = np.stack([fr.T, fr.N, fr.B])
        for i in range(3):
            num = np.stack([
                np.stack([frenet(jet, s + k * h).T,
                          frenet(jet, s + k * h).N,
                          frenet(jet, s + k * h).B])
                for k in (-1, 1)
            ])
            deriv = (num[1] - num[0]) / (2 * h)
            npt.assert_allclose(deriv[i], mat[i] @ frame, atol=5e-6)


class TestGeneralFormulas:
    def test_straight_line_zero(self):
        v = np.array([0.1, 0.0, 2.0])
        jet = CurveJet(lambda t: t * v, lambda t: v,
                       lambda t: np.zeros(3), lambda t: np.zeros(3), domain=(-1, 1))
        assert curvature_torsion_general(jet, 0.0) == (0.0, 0.0)

    def test_parametrization_invariance(self):
        # double-speed hyperbola still has curvature a
        a = 1.5
        jet = CurveJet(
            lambda t: np.array([0.0, np.cosh(2 * a * t) / a, np.sinh(2 * a * t) / a]),
            lambda t: np.array([0.0, 2 * np.sinh(2 * a * t), 2 * np.cosh(2 * a * t)]),
            lambda t: np.array([0.0, 4 * a * np.cosh(2 * a * t), 4 * a * np.sinh(2 * a * t)]),
            lambda t: np.array([0.0, 8 * a * a * np.sinh(2 * a * t), 8 * a * a * np.cosh(2 * a * t)]),
            domain=(-1, 1),
        )
        k, tau = curvature_torsion_general(jet, 0.2)
        npt.assert_allclose(k, a, rtol=1e-10)
        npt.assert_allclose(tau, 0.0, atol=1e-12)

    def test_cross_validates_frenet_route(self):
        a = 0.5
        jet = CurveJet(
            lambda t: np.array([a * t, np.cosh(t), np.sinh(t)]),
            lambda t: np.array([a, np.sinh(t), np.cosh(t)]),
            lambda t: np.array([0.0, np.cosh(t), np.sinh(t)]),
            lambda t: np.array([0.0, np.sinh(t), np.cosh(t)]),
            domain=(-1, 1),
        )
        k1, t1 = curvature_torsion_general(jet, 0.2)
        beta = reparam_arclength(jet, 0.2)
        fr = frenet(beta, 0.0)
        npt.assert_allclose(k1, fr.kappa, atol=1e-6)
        npt.assert_allclose(t1, fr.tau, atol=1e-6)

    @pytest.mark.parametrize("rho, a", [(0.8, 1.5), (1.2, -2.0), (1e-6, 1.0)])
    def test_agrees_with_frenet_on_a_unit_speed_helix(self, rho, a):
        # (rho cos(t/w), rho sin(t/w), a t/w), w^2 = a^2 - rho^2: unit-speed
        # timelike, so frenet needs no reparametrization and both routes read
        # the same closed-form jet; at rho = 1e-6, |a' x a''|^2 = 1e-12 is
        # small, but it is no straight piece
        w = np.sqrt(a * a - rho * rho)
        jet = CurveJet(
            lambda t: np.array([rho * np.cos(t / w), rho * np.sin(t / w), a * t / w]),
            lambda t: np.array([-rho * np.sin(t / w) / w, rho * np.cos(t / w) / w, a / w]),
            lambda t: np.array([-rho * np.cos(t / w), -rho * np.sin(t / w), 0.0]) / w ** 2,
            lambda t: np.array([rho * np.sin(t / w), -rho * np.cos(t / w), 0.0]) / w ** 3,
            domain=(-1.0, 1.0),
        )
        for t in (-0.7, 0.0, 0.4):
            fr = frenet(jet, t)
            assert fr.case is FrenetCase.TIMELIKE
            k, tau = curvature_torsion_general(jet, t)
            npt.assert_allclose([fr.kappa, fr.tau], [k, tau], rtol=0, atol=1e-12)
            npt.assert_allclose([k, tau], [rho / w ** 2, a / w ** 2], rtol=0, atol=1e-12)

    def test_rejects_spacelike(self):
        with pytest.raises(CausalTypeError):
            curvature_torsion_general(
                generate_constant_curvature(PlaneCase.SPACELIKE_PLANE, 1.0), 0.0
            )

    @staticmethod
    def jet_at_zero(v, a):
        """A jet whose alpha', alpha'' and alpha''' are v, a and E3 (the
        formulas read no position)."""
        v, a = np.array(v), np.array(a)
        return CurveJet(lambda t: t * v, lambda t: v, lambda t: a,
                        lambda t: np.array([0.0, 0.0, 1.0]), domain=(-1, 1))

    @pytest.mark.parametrize("v, a, kappa", [
        # (-<a',a'>)^(3/2) = (3e300)^1.5 overflows; kappa = 3.3e-451 is below the floats
        ((0.0, 1e150, 2e150), (1e-150, 0.0, 0.0), 0.0),
        # the same overflow with kappa = sqrt(3e306) / (3e206)^1.5 = 3.3e-157 a normal float
        ((0.0, 1e103, 2e103), (1e50, 0.0, 0.0), 1 / 3 * 1e-156),
    ])
    def test_kappa_finite_where_the_speed_cubed_overflows(self, v, a, kappa):
        k, tau = curvature_torsion_general(self.jet_at_zero(v, a), 0.0)
        assert math.isclose(k, kappa, rel_tol=1e-14) and math.isfinite(tau)

    @pytest.mark.parametrize("v, a", [
        # kappa = sqrt(3e100) / (3e-200)^1.5 = 3.3e349
        ((0.0, 1e-100, 2e-100), (1e150, 0.0, 0.0)),
        # -<a',a'> = 9.5e-316 is subnormal, (9.5e-316)^1.5 underflows to zero,
        # and kappa = 1e100 / 9.5e-316 is above the floats
        ((0.0, 1.2e-154, 1.2e-154 * (1 + 3.3e-8)), (1e100, 0.0, 0.0)),
    ])
    def test_kappa_above_the_floats_is_an_error(self, v, a):
        with pytest.raises(GeometryError, match="kappa overflows"):
            curvature_torsion_general(self.jet_at_zero(v, a), 0.0)


class TestConstantCurvatureGenerators:
    @pytest.mark.parametrize(
        "case,a",
        [
            (PlaneCase.SPACELIKE_PLANE, 0.5),
            (PlaneCase.SPACELIKE_PLANE, 2.0),
            (PlaneCase.TIMELIKE_PLANE_SPACELIKE_CURVE, 1.3),
            (PlaneCase.TIMELIKE_PLANE_TIMELIKE_CURVE, 2.0),
            (PlaneCase.TIMELIKE_PLANE_TIMELIKE_CURVE, -0.7),
        ],
    )
    def test_measured_curvature(self, case, a):
        jet = generate_constant_curvature(case, a, b=0.1)
        for s in np.linspace(-0.4, 0.4, 7):
            fr = frenet(jet, s)
            npt.assert_allclose(fr.kappa, abs(a), rtol=1e-9)
            npt.assert_allclose(
                abs(lorentz_dot(jet.velocity(s), jet.velocity(s))), 1.0, rtol=1e-12
            )

    def test_spacelike_plane_matches_euclidean_circle(self):
        # in a spacelike plane, the curvature agrees with the Euclidean one
        r = 2.0
        jet = generate_constant_curvature(PlaneCase.SPACELIKE_PLANE, 1 / r)
        p = jet.position(0.3)
        npt.assert_allclose(np.hypot(p[0], p[1]), r, rtol=1e-12)
        assert p[2] == 0.0

    def test_parabola_constant_null_normal(self):
        jet = generate_constant_curvature(PlaneCase.LIGHTLIKE_PLANE, 0.0)
        for s in (-0.5, 0.0, 0.7):
            npt.assert_allclose(jet.acceleration(s), E2 + E3, atol=1e-15)

    def test_zero_curvature_rejected(self):
        with pytest.raises(GeometryError):
            generate_constant_curvature(PlaneCase.SPACELIKE_PLANE, 0.0)

    @pytest.mark.parametrize("a, b", [(1.3, 0.0), (-0.7, 0.1), (2.0, -0.4)])
    def test_hyperbolas_are_the_closed_forms(self, a, b):
        r = 1.0 / a
        sh = lambda s: np.sinh(a * s + b)
        ch = lambda s: np.cosh(a * s + b)
        expected = {
            PlaneCase.TIMELIKE_PLANE_SPACELIKE_CURVE: (
                lambda s: [0.0, r * sh(s), r * ch(s)],
                lambda s: [0.0, ch(s), sh(s)],
                lambda s: [0.0, a * sh(s), a * ch(s)],
                lambda s: [0.0, a * a * ch(s), a * a * sh(s)],
            ),
            PlaneCase.TIMELIKE_PLANE_TIMELIKE_CURVE: (
                lambda s: [0.0, r * ch(s), r * sh(s)],
                lambda s: [0.0, sh(s), ch(s)],
                lambda s: [0.0, a * ch(s), a * sh(s)],
                lambda s: [0.0, a * a * sh(s), a * a * ch(s)],
            ),
        }
        for case, forms in expected.items():
            jet = generate_constant_curvature(case, a, b)
            for s in (-1.0, -0.3, 0.0, 0.25, 1.0):
                got = (jet.position(s), jet.velocity(s), jet.acceleration(s), jet.jerk(s))
                for g, form in zip(got, forms):
                    assert g.tobytes() == np.array(form(s)).tobytes(), (case, s)


class TestAngleTheorem:
    @pytest.mark.parametrize("a", [1.0, 3.0])
    def test_hyperbola_turning_rate(self, a):
        jet = timelike_hyperbola_jet(a)
        kappa, dphi = theorem_angle_check(jet, E3, 0.1)
        npt.assert_allclose(kappa, a, rtol=1e-10)
        npt.assert_allclose(dphi, a, atol=1e-5)

    def test_straight_line(self):
        v = np.array([0.0, np.sinh(0.3), np.cosh(0.3)])
        jet = CurveJet(lambda t: t * v, lambda t: v,
                       lambda t: np.zeros(3), lambda t: np.zeros(3), domain=(-1, 1))
        kappa, dphi = theorem_angle_check(jet, E3, 0.0)
        assert kappa == 0.0
        npt.assert_allclose(dphi, 0.0, atol=1e-10)


class TestHelixAndBertrand:
    def test_helix_from_samples(self):
        jet = euclidean_helix_jet(2.0)
        samples = [curvature_torsion_general(jet, t) for t in np.linspace(-1, 1, 15)]
        assert is_helix(samples)

    def test_planar_counts_as_helix(self):
        assert is_helix([(2.0, 0.0)] * 8)

    def test_noise_rejected(self, rng):
        jet = euclidean_helix_jet(2.0)
        samples = np.array(
            [curvature_torsion_general(jet, t) for t in np.linspace(-1, 1, 15)]
        )
        samples[:, 1] *= 1.0 + 0.01 * rng.standard_normal(len(samples))
        assert not is_helix(samples)

    def test_bertrand_constant_samples(self):
        fit = bertrand_fit([(1.0, 0.5)] * 6)
        assert fit is not None and fit.helix_degenerate
        npt.assert_allclose(fit.A * 1.0 + fit.B * 0.5, 1.0, atol=1e-12)
        # minimum-norm representative of the solution line
        npt.assert_allclose((fit.A, fit.B), (0.8, 0.4), rtol=1e-10)

    def test_bertrand_planar(self):
        fit = bertrand_fit([(2.0, 0.0)] * 5)
        npt.assert_allclose((fit.A, fit.B), (0.5, 0.0), atol=1e-12)

    def test_bertrand_rejects_unrelated(self):
        samples = [(1 + s * s, s) for s in np.linspace(0, 1, 9)]
        assert bertrand_fit(samples) is None

    @pytest.mark.parametrize("fit, samples, message", [
        (is_helix, [(1.0, 0.5)], "need at least two (kappa, tau) samples"),
        (is_helix, [(1.0, 0.5), (0.0, 0.5)], "helix test requires kappa > 0 on all samples"),
        (is_helix, [(1.0, 0.5), (-1.0, 0.5)], "helix test requires kappa > 0 on all samples"),
        (bertrand_fit, [(1.0, 0.5)] * 2, "need at least three (kappa, tau) samples"),
    ], ids=["helix-one-sample", "helix-zero-kappa", "helix-negative-kappa", "bertrand-two-samples"])
    def test_refusal_names_the_samples_fault(self, fit, samples, message):
        with pytest.raises(GeometryError) as info:
            fit(samples)
        assert str(info.value) == message


class TestIsometryInvariance:
    def test_kappa_tau_under_pp_motions(self, rng):
        for _ in range(10):
            jet = random_timelike_jet(rng, check_ts=(-0.3, 0.0, 0.3))
            motion = random_pp_motion(rng)
            moved = jet.transformed(motion)
            for t in (-0.3, 0.0, 0.3):
                k1, t1 = curvature_torsion_general(jet, t)
                k2, t2 = curvature_torsion_general(moved, t)
                npt.assert_allclose(k1, k2, rtol=1e-9, atol=1e-12)
                npt.assert_allclose(abs(t1), abs(t2), rtol=1e-9, atol=1e-12)


class TestPlanarityTorsion:
    def test_planar_families_have_zero_tau(self):
        for case, a in (
            (PlaneCase.SPACELIKE_PLANE, 1.2),
            (PlaneCase.TIMELIKE_PLANE_SPACELIKE_CURVE, 0.9),
            (PlaneCase.TIMELIKE_PLANE_TIMELIKE_CURVE, 1.7),
        ):
            jet = generate_constant_curvature(case, a)
            for s in (-0.3, 0.1, 0.45):
                npt.assert_allclose(frenet(jet, s).tau, 0.0, atol=1e-7)

    def test_nonplanar_has_nonzero_tau(self):
        jet = euclidean_helix_jet(2.0)
        _, tau = curvature_torsion_general(jet, 0.0)
        assert abs(tau) > 0.1
        # and the curve genuinely leaves every plane: four sample points span 3-space
        pts = np.stack([jet.position(t) for t in (-1.0, -0.3, 0.4, 1.0)])
        diffs = pts[1:] - pts[0]
        assert abs(np.linalg.det(diffs)) > 1e-3

    def test_scaled_null_helix_torsion(self):
        # |T|^2 = 2 c^2: at c = 1e-7 within 1e-12 of 0, yet a null tangent
        for c in (1.0, 1.5, 1e-7):
            fr = frenet(scaled_null_helix_jet(c), 0.3)
            assert fr.case is FrenetCase.LIGHTLIKE
            npt.assert_allclose(fr.tau, -1.0 / (2 * c * c), atol=1e-9)


def test_csv_export_text(tmp_path):
    jet = CurveJet(lambda t: np.array([t, t * t, -0.0]), domain=(-1.0, 1.0))
    path = tmp_path / "curve.csv"
    export_curve_csv(jet, [0.1, -0.5], path)
    assert path.read_text() == "t,x,y,z\n0.10000000000000001,0.10000000000000001,0.010000000000000002,-0\n-0.5,-0.5,0.25,-0\n"
    # a null-normal row has no curvature and prints nan
    export_curve_csv(jet, [0.1, -0.5], path, kappa_tau=[(None, 1 / 3), (2.0, -1e-300)])
    assert path.read_text() == (
        "t,x,y,z,kappa,tau\n"
        "0.10000000000000001,0.10000000000000001,0.010000000000000002,-0,nan,0.33333333333333331\n"
        "-0.5,-0.5,0.25,-0,2,-1e-300\n"
    )


@pytest.mark.parametrize("kappa_tau, header", [(None, "t,x,y,z\n"), ([], "t,x,y,z,kappa,tau\n")],
                         ids=["positions", "with-kappa-tau"])
def test_csv_export_of_no_samples_is_the_header(tmp_path, kappa_tau, header):
    path = tmp_path / "curve.csv"
    export_curve_csv(timelike_hyperbola_jet(1.0), [], path, kappa_tau=kappa_tau)
    assert path.read_text() == header


def test_csv_export(tmp_path):
    jet = timelike_hyperbola_jet(1.0)
    ts = np.linspace(-0.5, 0.5, 5)
    kts = [(frenet(jet, t).kappa, frenet(jet, t).tau) for t in ts]
    path = tmp_path / "curve.csv"
    export_curve_csv(jet, ts, path, kappa_tau=kts)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,z,kappa,tau"
    assert len(lines) == 6
    row = [float(x) for x in lines[1].split(",")]
    npt.assert_allclose(row[1:4], jet.position(ts[0]), rtol=1e-15)


# -- frames on Python floats ------------------------------------------------
#
# `curves._frame_at` and the torsion step of `frenet` run on Python floats.
# The numpy code they replaced is kept here as an oracle: on every jet below
# the float path gives the same T, N, B, kappa and tau, bit for bit, and the
# same exceptions.


def numpy_classify_normal(tp):
    q = float(lorentz_dot(tp, tp))
    scale = 1.0 + float((tp * tp).sum())
    if abs(q) <= curves.REL_TOL * scale:
        return CausalClass.LIGHTLIKE
    if abs(q) <= curves.CASE_TOL * scale:
        raise AmbiguousCaseError(
            "T' sits within tolerance of the light cone; causal case is ambiguous"
        )
    return CausalClass.SPACELIKE if q > 0 else CausalClass.TIMELIKE


def numpy_null_partner(unit, null, pair_with_null):
    w = np.array([0.0, 0.0, 1.0])
    d = float(lorentz_dot(w, null))
    if abs(d) < 1e-14:
        raise GeometryError("degenerate null direction")
    c = 1.0 / d
    if pair_with_null:
        t, n = unit, null
        a = -c * float(lorentz_dot(w, t))
        b = -0.5 * (a * a + c * c * float(lorentz_dot(w, w)) + 2 * a * c * float(lorentz_dot(t, w)))
        return a * t + b * n + c * w
    t, n = null, unit
    b = -c * float(lorentz_dot(w, n))
    a = -0.5 * (b * b + c * c * float(lorentz_dot(w, w)) + 2 * b * c * float(lorentz_dot(n, w)))
    return a * t + b * n + c * w


def numpy_frenet(jet, s):
    """(T, N, B, case, kappa, tau) as the numpy frame code computed them."""
    t_vec = jet.velocity(s)
    cc = causal_class(t_vec)
    q = float(lorentz_dot(t_vec, t_vec))
    if cc is CausalClass.LIGHTLIKE:
        n_vec = jet.acceleration(s)
        if abs(float(lorentz_dot(n_vec, n_vec)) - 1.0) > 1e-6:
            raise GeometryError("lightlike curve must be pseudo-arc-length parametrized")
        b_vec = numpy_null_partner(n_vec, t_vec, pair_with_null=False)
        case, kappa = FrenetCase.LIGHTLIKE, None
    else:
        if abs(abs(q) - 1.0) > 1e-6:
            raise GeometryError("curve must be arc-length parametrized (|<T,T>| = 1)")
        tp = jet.acceleration(s)
        if float(np.linalg.norm(tp)) <= 1e-12:
            raise GeometryError("T' vanishes: straight line, no Frenet frame")
        if cc is CausalClass.TIMELIKE:
            case = FrenetCase.TIMELIKE
        else:
            case = curves._SPACELIKE_CASE[numpy_classify_normal(tp)]
        if case is FrenetCase.SPACELIKE_LL_N:
            n_vec, b_vec, kappa = tp, numpy_null_partner(t_vec, tp, pair_with_null=True), None
        else:
            kappa = float(lorentz_norm(tp))
            n_vec = tp / kappa
            b_vec = cross(t_vec, n_vec)
    tau = float(lorentz_dot(jet.jerk(s), b_vec))
    if kappa is not None:
        tau /= kappa
    if case is FrenetCase.SPACELIKE_SP_N:
        tau = -tau
    return t_vec, n_vec, b_vec, case, kappa, tau


def frame_bytes(t_vec, n_vec, b_vec, case, kappa, tau):
    """The frame as bytes, so -0.0 and 0.0 differ."""
    as_bytes = [np.asarray(x, dtype=float).tobytes() for x in (t_vec, n_vec, b_vec, tau)]
    return as_bytes, case, None if kappa is None else np.float64(kappa).tobytes()


def timelike_helix_jet(rho: float, a: float) -> CurveJet:
    """(rho cos(s/c), rho sin(s/c), a s/c), c^2 = a^2 - rho^2: unit-speed
    timelike helix."""
    c = np.sqrt(a * a - rho * rho)
    return CurveJet(
        lambda s: np.array([rho * np.cos(s / c), rho * np.sin(s / c), a * s / c]),
        lambda s: np.array([-rho * np.sin(s / c) / c, rho * np.cos(s / c) / c, a / c]),
        lambda s: np.array([-rho * np.cos(s / c), -rho * np.sin(s / c), 0.0]) / c ** 2,
        lambda s: np.array([rho * np.sin(s / c), -rho * np.cos(s / c), 0.0]) / c ** 3,
        domain=(-1.0, 1.0),
    )


def random_frame_jet(rng, kind):
    """A jet of one of the five Frenet cases, with random parameters, moved
    by a random future-preserving rigid motion seven times in ten."""
    a = float(rng.uniform(0.3, 3.0)) * float(rng.choice([-1.0, 1.0]))
    b = float(rng.uniform(-0.5, 0.5))
    if kind == "circle":
        jet = generate_constant_curvature(PlaneCase.SPACELIKE_PLANE, a, b)
    elif kind == "hyperbola-spacelike":
        jet = generate_constant_curvature(PlaneCase.TIMELIKE_PLANE_SPACELIKE_CURVE, a, b)
    elif kind == "hyperbola-timelike":
        jet = generate_constant_curvature(PlaneCase.TIMELIKE_PLANE_TIMELIKE_CURVE, a, b)
    elif kind == "parabola":
        jet = generate_constant_curvature(PlaneCase.LIGHTLIKE_PLANE, a, b)
    elif kind == "null-helix":
        jet = scaled_null_helix_jet(abs(a))
    elif kind == "timelike-helix":
        jet = timelike_helix_jet(abs(a), abs(a) * float(rng.uniform(1.2, 3.0)))
    else:
        jet = reparam_arclength(euclidean_helix_jet(float(rng.uniform(1.5, 2.5))), 0.0)
    return jet.transformed(random_pp_motion(rng)) if rng.random() < 0.7 else jet


FRAME_CASES = {
    "circle": FrenetCase.SPACELIKE_SP_N,
    "hyperbola-spacelike": FrenetCase.SPACELIKE_TL_N,
    "hyperbola-timelike": FrenetCase.TIMELIKE,
    "parabola": FrenetCase.SPACELIKE_LL_N,
    "null-helix": FrenetCase.LIGHTLIKE,
    "timelike-helix": FrenetCase.TIMELIKE,
    "reparam-helix": FrenetCase.TIMELIKE,
}
FRAME_KINDS = list(FRAME_CASES)


class TestFloatFrames:
    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_bits_match_the_numpy_frame(self, kind):
        rng = np.random.default_rng(FRAME_KINDS.index(kind))
        for _ in range(40):
            jet = random_frame_jet(rng, kind)
            lo, hi = jet.domain
            for s in rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5).tolist():
                fr = frenet(jet, s)
                assert fr.case is FRAME_CASES[kind]
                got = frame_bytes(fr.T, fr.N, fr.B, fr.case, fr.kappa, fr.tau)
                assert got == frame_bytes(*numpy_frenet(jet, s))
                assert type(fr.tau) is float
                assert fr.kappa is None or type(fr.kappa) is float

    def test_frame_at_returns_the_jets_tangent(self):
        vel = np.array([0.0, 0.0, 1.0])
        jet = CurveJet(lambda t: t * vel, lambda t: vel, lambda t: np.array([1.0, 0.0, 0.0]),
                       lambda t: np.zeros(3), domain=(-1, 1))
        t_vec, n_vec, b_vec, case, kappa = curves._frame_at(jet, 0.0)
        assert t_vec is vel and case is FrenetCase.TIMELIKE and kappa == 1.0
        assert type(n_vec) is np.ndarray and type(b_vec) is np.ndarray

    @pytest.mark.parametrize("make, expected", [
        (lambda: CurveJet(lambda t: np.array([0.0, np.cosh(2 * t), np.sinh(2 * t)]),
                          lambda t: np.array([0.0, 2 * np.sinh(2 * t), 2 * np.cosh(2 * t)]),
                          lambda t: np.array([0.0, 4 * np.cosh(2 * t), 4 * np.sinh(2 * t)]),
                          domain=(-1, 1)),
         "curve must be arc-length parametrized (|<T,T>| = 1)"),
        (lambda: CurveJet(lambda t: np.array([t, 0.0, 0.0]), lambda t: np.array([1.0, 0.0, 0.0]),
                          lambda t: np.array([1e-13, 0.0, 0.0]), lambda t: np.zeros(3),
                          domain=(-1, 1)),
         "T' vanishes: straight line, no Frenet frame"),
        (double_null_helix_jet, "lightlike curve must be pseudo-arc-length parametrized"),
    ])
    def test_same_errors_as_the_numpy_frame(self, make, expected):
        jet = make()
        with pytest.raises(GeometryError) as want:
            numpy_frenet(jet, 0.3)
        with pytest.raises(GeometryError) as got:
            frenet(jet, 0.3)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        assert str(got.value) == expected

    def test_short_spacelike_tangent_is_not_lightlike(self):
        # |<T,T>| = |T|^2 is within 1e-12 of 0, the band the numpy frame used,
        # but not within 1e-12 |T|^2; nor can such a T reach the null
        # partner, whose third-coordinate test is relative too
        jet = CurveJet(lambda t: np.zeros(3), lambda t: np.array([1.00000000000025e-6, 0.0, 0.0]),
                       lambda t: np.array([0.0, 1.0, 0.0]), lambda t: np.zeros(3), domain=(-1, 1))
        with pytest.raises(GeometryError, match=r"^curve must be arc-length parametrized \(\|<T,T>\| = 1\)$"):
            frenet(jet, 0.3)
        with pytest.raises(GeometryError, match="^degenerate null direction$"):
            curves._null_partner([0.0, 1.0, 0.0], [1e-6, 0.0, 1e-21], 1e-12, False)
        null = [1e-15, 0.0, 1e-15]
        assert lorentz_dot(curves._null_partner([0.0, 1.0, 0.0], null, 2e-30, False), null) == 1.0

    @pytest.mark.parametrize("pair_with_null", [True, False])
    def test_null_partner_keeps_signed_zeros(self, pair_with_null):
        # a t + b n sums to -0.0 in one coordinate, and the c * 0.0 term (c > 0)
        # turns it into 0.0: dropping that term would flip the sign bit
        for unit, null in (([1.0, 0.0, 0.0], [-0.0, 1.0, -1.0]), ([-0.0, 1.0, 0.0], [1.0, -0.0, -1.0])):
            got = np.array(curves._null_partner(unit, null, 2.0, pair_with_null))
            want = numpy_null_partner(np.array(unit), np.array(null), pair_with_null)
            assert got.tobytes() == want.tobytes()


def tilted_circle_jet(k: float) -> CurveJet:
    """Unit-speed circle of curvature k in the spacelike plane spanned by
    e1 = (1, 0, 0) and e2 = (0, cosh 1e-3, sinh 1e-3)."""
    e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, np.cosh(1e-3), np.sinh(1e-3)])
    return CurveJet(
        lambda s: (np.cos(k * s) * e1 + np.sin(k * s) * e2) / k,
        lambda s: -np.sin(k * s) * e1 + np.cos(k * s) * e2,
        lambda s: -k * (np.cos(k * s) * e1 + np.sin(k * s) * e2),
        lambda s: k * (k * (np.sin(k * s) * e1 - np.cos(k * s) * e2)),
        domain=(-1.0 / k, 1.0 / k),
    )


class TestFrameOverflow:
    def test_curvature_1e155_is_an_error_not_a_null_normal(self):
        # |T'|^2 overflows: the numpy frame called T' lightlike and returned
        # SPACELIKE_LL_N with kappa None, with only RuntimeWarnings
        assert frenet(tilted_circle_jet(1.0), 0.5).case is FrenetCase.SPACELIKE_SP_N
        jet = tilted_circle_jet(1e155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="T' too large: its squared length overflows"):
                curves._frame_at(jet, 0.5 / 1e155)
            with pytest.raises(GeometryError, match="T' too large"):
                frenet(jet, 0.5 / 1e155)

    def test_tangent_overflow_keeps_its_message(self):
        jet = generate_constant_curvature(PlaneCase.LIGHTLIKE_PLANE, 1e160)
        with pytest.raises(GeometryError, match="^vector too large: its squared length overflows$"):
            frenet(jet, 0.1)

    def test_torsion_overflow_is_named(self):
        # T, N and B are unit, B = (0, -sinh 1, -cosh 1), and <alpha''', B> overflows
        jet = CurveJet(lambda s: np.zeros(3), lambda s: np.array([1.0, 0.0, 0.0]),
                       lambda s: np.array([0.0, np.cosh(1.0), np.sinh(1.0)]),
                       lambda s: np.array([0.0, 1e308, -1e308]), domain=(-1, 1))
        with pytest.raises(GeometryError, match="^torsion overflows"):
            frenet(jet, 0.0)

    @pytest.mark.parametrize("a", [1e6, 1e8, 1e100])
    def test_unresolved_tangent_is_named(self, a):
        # the parabola's T = (1, a + s, a + s) has <T,T> = 1, inside the null
        # band REL_TOL*|T|^2 >= 1, and its N = T' = (0, 1, 1) is not unit
        jet = generate_constant_curvature(PlaneCase.LIGHTLIKE_PLANE, a)
        with pytest.raises(GeometryError, match=r"^causal type of T not resolved: the null band "
                                                r"REL_TOL\*\|T\|\^2 = .* holds <T,T> = \+-1$"):
            frenet(jet, 0.1)
        assert frenet(generate_constant_curvature(PlaneCase.LIGHTLIKE_PLANE, 1e5), 0.1).case \
            is FrenetCase.SPACELIKE_LL_N
        # a null tangent with REL_TOL*|T|^2 < 1 keeps the parametrization message
        twice = CurveJet(lambda s: np.zeros(3), lambda s: np.array([0.0, 2.0, 2.0]),
                         lambda s: np.array([2.0, 0.0, 0.0]), lambda s: np.zeros(3), domain=(-1, 1))
        with pytest.raises(GeometryError, match="^lightlike curve must be pseudo-arc-length parametrized$"):
            frenet(twice, 0.0)

    def test_null_timelike_normal_is_an_error(self):
        # <T,T> = -1 and T' = (1, 0, 1) is lightlike: kappa = 0, no unit normal
        jet = CurveJet(lambda s: np.zeros(3), lambda s: np.array([0.0, 0.0, 1.0]),
                       lambda s: np.array([1.0, 0.0, 1.0]), lambda s: np.zeros(3), domain=(-1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="no unit normal"):
                frenet(jet, 0.0)


#: unit-curvature curves as (alpha', alpha'', alpha''') at parameter u, with
#: their Frenet case; the null helix is in pseudo-arc length
UNIT_CURVES = {
    "circle": (FrenetCase.SPACELIKE_SP_N,
               lambda u: [[-np.sin(u), np.cos(u), 0.0], [-np.cos(u), -np.sin(u), 0.0],
                          [np.sin(u), -np.cos(u), 0.0]]),
    "hyperbola-spacelike": (FrenetCase.SPACELIKE_TL_N,
                            lambda u: [[0.0, np.cosh(u), np.sinh(u)], [0.0, np.sinh(u), np.cosh(u)],
                                       [0.0, np.cosh(u), np.sinh(u)]]),
    "hyperbola-timelike": (FrenetCase.TIMELIKE,
                           lambda u: [[0.0, np.sinh(u), np.cosh(u)], [0.0, np.cosh(u), np.sinh(u)],
                                      [0.0, np.sinh(u), np.cosh(u)]]),
    "null-helix": (FrenetCase.LIGHTLIKE,
                   lambda u: [[-np.sin(u), np.cos(u), 1.0], [-np.cos(u), -np.sin(u), 0.0],
                              [np.sin(u), -np.cos(u), 0.0]]),
}


def scaled_moved_jet(kind: str, lam: float, motion: np.ndarray) -> CurveJet:
    """UNIT_CURVES[kind] scaled by lam and moved by the Lorentz matrix
    `motion`: s -> lam alpha(s/lam), or lam^2 alpha(s/lam) for the null helix,
    so that the parameter stays arc length (pseudo-arc length)."""
    derivs = UNIT_CURVES[kind][1]
    f1, f2, f3 = (lam, 1.0, 1.0 / lam) if kind == "null-helix" else (1.0, 1.0 / lam, 1.0 / lam / lam)

    def nth(i, f):
        def value(s):
            with np.errstate(all="ignore"):  # the jet's own overflow is its business
                return motion @ (np.array(derivs(s / lam)[i]) * f)
        return value

    return CurveJet(lambda s: np.zeros(3), nth(0, f1), nth(1, f2), nth(2, f3), domain=(-lam, lam))


@settings(max_examples=400, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(UNIT_CURVES)), k=st.floats(-300, 300), u=st.floats(-1, 1),
       theta=st.floats(0, 2 * np.pi), phi=st.floats(-3, 3), psi=st.floats(0, 2 * np.pi))
def test_scaled_and_boosted_frames_keep_their_case_or_raise(kind, k, u, theta, phi, psi):
    # boosts of rapidity up to 3 keep |<T',T'>| above 1e-3 |T'|^2, far from
    # the null band; the scale 10^k runs from underflow to overflow
    lam = 10.0 ** k
    motion = isometry.boost_timelike(theta) @ isometry.boost_spacelike(phi) @ isometry.boost_timelike(psi)
    jet = scaled_moved_jet(kind, lam, motion)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fr = frenet(jet, lam * u)
        except GeometryError as exc:
            assert str(exc)
            return
    assert fr.case is UNIT_CURVES[kind][0]
    assert math.isfinite(fr.tau)
    assert (fr.kappa is None) == (kind == "null-helix")
    assert fr.kappa is None or math.isfinite(fr.kappa)


#: helix lam (cos t, sin t, a t) by kind: its a, the Frenet case of its
#: (pseudo-)arc-length reparametrization, and lam kappa and lam tau there:
#: 1/(a^2 - 1) and a/(a^2 - 1) when timelike, 1/(1 - a^2) and -a/(1 - a^2)
#: when spacelike, and tau = -1/2 (no kappa) for the null helix
HELICES = {"timelike": (2.0, FrenetCase.TIMELIKE, 1 / 3, 2 / 3),
           "spacelike": (0.5, FrenetCase.SPACELIKE_SP_N, 4 / 3, -2 / 3),
           "null": (1.0, FrenetCase.LIGHTLIKE, None, -0.5)}


def scaled_helix_jet(kind: str, lam: float, motion: np.ndarray) -> CurveJet:
    """HELICES[kind] scaled by lam and moved by the Lorentz matrix `motion`,
    in its own parameter t on (-1, 1)."""
    a = HELICES[kind][0]
    derivs = (lambda t: [-np.sin(t), np.cos(t), a], lambda t: [-np.cos(t), -np.sin(t), 0.0],
              lambda t: [np.sin(t), -np.cos(t), 0.0])
    return CurveJet(lambda t: lam * (motion @ np.array([np.cos(t), np.sin(t), a * t])),
                    *(lambda t, d=d: lam * (motion @ np.array(d(t))) for d in derivs),
                    domain=(-1.0, 1.0))


def _finite_or_geometry_error(f):
    """f(), whose numbers must all be finite, or None after a GeometryError
    with a message; any other exception fails."""
    try:
        out = f()
    except GeometryError as exc:
        assert str(exc)
        return None
    numbers = out if isinstance(out, (tuple, np.ndarray)) else [out.kappa or 0.0, out.tau, out.T, out.N, out.B]
    assert all(np.isfinite(x).all() for x in numbers), out
    return out


@settings(max_examples=400, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(HELICES)), k=st.floats(-300, 300), t0=st.floats(-1, 1),
       frac=st.floats(0, 1), theta=st.floats(0, 2 * np.pi), phi=st.floats(-3, 3))
def test_scaled_helices_reparametrize_finitely_or_raise(kind, k, t0, frac, theta, phi):
    # the scale 10^k runs from underflow to overflow of |alpha'|^2; the boost
    # of rapidity up to 3 mixes the coordinates
    lam = 10.0 ** k
    a, _, lam_kappa, lam_tau = HELICES[kind]
    # inside the chain rule's range of |alpha'| = lam sqrt|1 - a^2| there is a frame
    framed = kind != "null" and 1e-60 <= lam * math.sqrt(abs(1 - a * a)) <= 1e60
    jet = scaled_helix_jet(kind, lam, isometry.boost_timelike(theta) @ isometry.boost_spacelike(phi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "timelike":
            # never taken for a straight piece: its own kappa and tau, or an error
            general = _finite_or_geometry_error(lambda: curvature_torsion_general(jet, t0))
            assert general is None or (math.isclose(lam * general[0], lam_kappa, rel_tol=1e-6)
                                       and math.isclose(lam * general[1], lam_tau, rel_tol=1e-6))
        try:
            beta = (reparam_pseudo_arclength if kind == "null" else reparam_arclength)(jet, t0)
        except GeometryError as exc:
            assert str(exc) and not framed, exc
            return
        s = beta.domain[0] + frac * (beta.domain[1] - beta.domain[0])
        for name in ("position", "velocity", "acceleration", "jerk"):
            _finite_or_geometry_error(lambda: getattr(beta, name)(s))
        fr = _finite_or_geometry_error(lambda: frenet(beta, s))
    assert fr is not None or not framed
    if fr is not None:
        assert fr.case is HELICES[kind][1]
        assert (fr.kappa is None) if lam_kappa is None else math.isclose(fr.kappa, lam_kappa / lam, rel_tol=1e-6)
        assert math.isclose(fr.tau, lam_tau / lam, rel_tol=1e-6), (fr.tau, lam_tau / lam)


@pytest.mark.parametrize("k", range(-59, 60))
def test_arc_length_helix_frame_at_every_scale(k):
    # the straight-line test has no length scale: kappa = 1/(3 lam) is no line
    lam = 10.0 ** k
    fr = frenet(reparam_arclength(scaled_helix_jet("timelike", lam, np.eye(3)), 0.0), 0.0)
    assert fr.case is FrenetCase.TIMELIKE
    assert math.isclose(lam * fr.kappa, 1 / 3, rel_tol=1e-12)


@pytest.mark.parametrize("lam", [1e-150, 1e-10, 1.0, 1e30, 1e150])
def test_null_helix_torsion_in_s_units_up_to_the_domain_ends(lam):
    # beta''' is a Richardson stencil of beta'' with a step in s units, and
    # one-sided within two steps of an end, where t(s) clamps s
    beta = reparam_pseudo_arclength(scaled_helix_jet("null", lam, np.eye(3)), 0.2)
    lo, hi = beta.domain
    for s in (lo, lo + 1e-5 * (hi - lo), 0.3 * hi, hi):
        assert math.isclose(frenet(beta, s).tau, -0.5 / lam, rel_tol=1e-10), s


def test_subnormal_null_acceleration_is_refused():
    # |alpha''|^2 of the null helix scaled by 1e-160 is subnormal
    with pytest.raises(GeometryError, match=r"\|alpha''\|\^2 a normal float"):
        reparam_pseudo_arclength(scaled_helix_jet("null", 1e-160, np.eye(3)), 0.2)


def constant_jet(t, tp):
    """A jet whose T and T' are the constant triples t and tp."""
    t, tp = np.array(t, dtype=float), np.array(tp, dtype=float)
    return CurveJet(lambda s: s * t, lambda s: t, lambda s: tp, lambda s: np.zeros(3),
                    domain=(-1.0, 1.0))


#: a unit spacelike T, y^2 - z^2 = 1 exactly, with |T_z| about 2048
_WIDE_T = [0.0, (2 ** 24 + 1) / 2 ** 13, (2 ** 24 - 1) / 2 ** 13]


@pytest.mark.parametrize("call, error, message", [
    # a lightlike T' whose square is just a normal float: the null partner's
    # coefficient 1/<e3, T'> is near 6e153, and its square times T_z overflows
    (lambda: frenet(constant_jet(_WIDE_T, [1.6e-154, 0.0, 1.6e-154]), 0.0),
     GeometryError, "B overflows: the Frenet frame is not finite"),
    # a timelike T with a lightlike T' (the jet is not arc-length consistent)
    (lambda: frenet(constant_jet([0.0, 0.0, 1.0], [1.0, 0.0, 1.0]), 0.0),
     GeometryError, "T' is lightlike: no unit normal N = T'/kappa"),
    # a spacelike T whose T' has <T', T'> / |T'|^2 near -1e-10: outside the
    # null band (REL_TOL) but inside the case band (CASE_TOL)
    (lambda: frenet(constant_jet([1.0, 0.0, 0.0], [0.0, 1.0, 1.0 + 1e-10]), 0.0),
     AmbiguousCaseError, "T' sits within tolerance of the light cone; causal case is ambiguous"),
    (lambda: theorem_angle_check(generate_constant_curvature(PlaneCase.SPACELIKE_PLANE, 1.0),
                                 [0.0, 0.0, 1.0], 0.0),
     CausalTypeError, "angle/curvature comparison is for timelike curves"),
], ids=["null-partner-overflow", "timelike-T-null-T'", "ambiguous-T'", "angle-check-spacelike"])
def test_frame_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
