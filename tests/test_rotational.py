import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline

from minkowski3 import rotational
from minkowski3.core import GeometryError, lorentz_dot
from minkowski3.isometry import boost_timelike
from minkowski3.meshing import triangulate_chart
from minkowski3.rotational import (
    MAX_RK4_STEPS,
    HyperbolicCap,
    ProfileODEParams,
    catenoid_chart,
    catenoid_profile,
    chart_spacelike,
    hyperbolic_cap_chart,
    integrate_riemann,
    integrate_rotational,
    profile_chart,
)
from minkowski3.surfaces import SurfaceChart, shape_and_curvatures


def catenoid_params(h=1e-3, span=(0.5, 3.0)):
    return ProfileODEParams(
        H=0.0, r0=float(np.sinh(span[0])), rp0=float(np.cosh(span[0])),
        s0=span[0], s1=span[1], h=h,
    )


class TestCatenoidProfile:
    def test_closed_form(self):
        r, resid = catenoid_profile(1.0)
        npt.assert_allclose(r, np.sinh(1.0), rtol=1e-15)
        assert resid == 0.0

    def test_spacelike_slope(self):
        for s in (0.2, 1.0, 2.5):
            assert np.cosh(s) > 1.0

    def test_needs_positive_s(self):
        with pytest.raises(GeometryError):
            catenoid_profile(-1.0)

    def test_chart_is_minimal(self):
        chart = catenoid_chart()
        for u in (0.7, 1.5, 2.8):
            for v in (0.0, 2.0):
                assert abs(shape_and_curvatures(chart, u, v).H) <= 1e-8

    def test_evaluators_are_the_closed_forms(self):
        chart = catenoid_chart()
        assert chart.domain == ((0.5, 3.0), (0.0, 2 * np.pi))
        sh, ch = np.sinh, np.cosh
        for u in (0.5, 0.7, 1.5, 3.0):
            for v in (0.0, -0.0, 0.3, np.pi / 2, np.pi, 4.4, 2 * np.pi):
                expected = {
                    "position": [sh(u) * np.cos(v), sh(u) * np.sin(v), u],
                    "du": [ch(u) * np.cos(v), ch(u) * np.sin(v), 1.0],
                    "dv": [-sh(u) * np.sin(v), sh(u) * np.cos(v), 0.0],
                    "duu": [sh(u) * np.cos(v), sh(u) * np.sin(v), 0.0],
                    "duv": [-ch(u) * np.sin(v), ch(u) * np.cos(v), 0.0],
                    "dvv": [-sh(u) * np.cos(v), -sh(u) * np.sin(v), 0.0],
                }
                for name, value in expected.items():
                    # bit for bit, signed zeros included
                    got = getattr(chart, name)(u, v)
                    assert got.tobytes() == np.array(value).tobytes(), (name, u, v)


class TestRotationalIntegration:
    def test_matches_sinh(self):
        sol = integrate_rotational(catenoid_params())
        assert np.max(np.abs(sol.r - np.sinh(sol.s))) <= 1e-6
        assert sol.residual_max <= 1e-8
        assert not sol.truncated

    def test_fourth_order_convergence(self):
        e1 = np.max(np.abs(
            integrate_rotational(catenoid_params(h=1e-3)).r
            - np.sinh(integrate_rotational(catenoid_params(h=1e-3)).s)
        ))
        e2 = np.max(np.abs(
            integrate_rotational(catenoid_params(h=5e-4)).r
            - np.sinh(integrate_rotational(catenoid_params(h=5e-4)).s)
        ))
        assert 8.0 <= e1 / e2 <= 32.0

    def test_nonzero_h_measured_curvature(self):
        params = ProfileODEParams(H=1.0, r0=1.0, rp0=1.5, s0=0.0, s1=0.5, h=1e-3)
        sol = integrate_rotational(params)
        chart = profile_chart(sol)
        for u in np.linspace(0.05, 0.45, 7):
            for v in (0.3, 2.0, 4.4):
                npt.assert_allclose(shape_and_curvatures(chart, u, v).H, 1.0, atol=1e-4)

    def test_guard_flags_instead_of_nan(self):
        # decreasing minimal branch r = sinh(c - s) collapses to r -> 0:
        # the run must truncate with a flag, never emit non-finite values
        c = float(np.arcsinh(0.5))
        params = ProfileODEParams(H=0.0, r0=0.5, rp0=-float(np.cosh(c)),
                                  s0=0.0, s1=2.0, h=1e-3)
        sol = integrate_rotational(params)
        assert sol.truncated
        assert np.all(np.isfinite(sol.r))
        assert np.all(sol.r > 0)

    @pytest.mark.parametrize("kwargs", [{"s1": 1e308}, {"h": 1e-300},
                                        {"s0": -1e308, "s1": 1e308},
                                        {"s1": (MAX_RK4_STEPS + 1) * 1e-3}])
    def test_step_count_bounded(self, kwargs):
        # (s1 - s0) / h is the RK4 step count: above MAX_RK4_STEPS, or
        # infinite, it fails where the parameters are built, before any array
        # exists
        with pytest.raises(GeometryError, match=f"MAX_RK4_STEPS = {MAX_RK4_STEPS}"):
            ProfileODEParams(**kwargs)
        ProfileODEParams(s1=MAX_RK4_STEPS * 1e-3)  # exactly at the bound is allowed

    @pytest.mark.parametrize("s0, s1, h", [(1e15, 1e15 + 0.5, 0.1), (1e8, 1e8 + 1e-4, 1e-8)])
    def test_step_below_float_spacing_rejected(self, s0, s1, h):
        # s0 + h k rounds to repeated values when h is below the float
        # spacing near s0: refused where the parameters are built
        with pytest.raises(GeometryError, match="does not separate the samples"):
            ProfileODEParams(s0=s0, s1=s1, h=h)
        # ten times the step separates them
        params = ProfileODEParams(s0=s0, s1=s1, h=10 * h)
        assert np.all(np.diff(integrate_rotational(params).s) > 0)

    def test_step_that_cannot_move_r_rejected(self):
        # at r0 = 1e20, r0 + h rp0 rounds to r0: r would move only by
        # rounding, and an H = 0 profile measured |H| near 3e4
        with pytest.raises(GeometryError, match="does not move r"):
            ProfileODEParams(r0=1e20, rp0=1.5, s1=1.0)
        sol = integrate_rotational(ProfileODEParams(r0=1e5, rp0=1.5, s1=1.0))
        assert not sol.truncated and len(sol.s) == 1001

    def test_rotational_profile_scaled_past_r4_overflow_runs(self):
        # c = d = 0 forms no (c^2 + d^2) r^4, whose r^4 overflows at r0 = 1e80:
        # the unit profile scaled by 1e80 runs and is the unit one scaled
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = integrate_rotational(ProfileODEParams(H=1e-80, r0=1e80, rp0=1.5, s1=1e80,
                                                        h=1e77))
        unit = integrate_rotational(ProfileODEParams(H=1.0, r0=1.0, rp0=1.5, s1=1.0))
        assert not sol.truncated and len(sol.s) == len(unit.s) == 1001
        npt.assert_allclose(sol.r / 1e80, unit.r, rtol=1e-13)
        assert sol.residual_max <= 1e-13

    def test_interpolant_overflow_is_refused(self):
        # scaled by 1e-160, the cubic coefficients (about r''' ~ 1e320) overflow
        lam = 1e-160
        sol = integrate_rotational(ProfileODEParams(H=1 / lam, r0=lam, rp0=1.5, s1=0.2 * lam,
                                                    h=1e-3 * lam))
        assert np.isfinite(sol.r).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="interpolant overflows"):
                profile_chart(sol)

    def test_interpolant_step_overflow_is_refused(self, monkeypatch):
        # the power sum forms (u - s_k)^3, which overflows for a sample spacing
        # above about 5.6e102: refused, naming the step, before any interpolant
        # or chart value is formed
        sol = integrate_rotational(ProfileODEParams(r0=1e104, rp0=-2.0, s1=1e104, h=2.5e103))
        assert np.isfinite(sol.r).all()

        def no_interpolant(*args):
            raise AssertionError("interpolant formed before the step check")

        with monkeypatch.context() as m:
            m.setattr(rotational, "_hermite", no_interpolant)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(GeometryError, match=r"step h = 2\.5e\+103 too large"):
                    profile_chart(sol)
        # at a step of 1e102 the cube is finite, and so are the chart's values
        chart = profile_chart(integrate_rotational(
            ProfileODEParams(r0=1e104, rp0=-2.0, s1=1e104, h=1e102)))
        with np.errstate(over="raise", invalid="raise"):
            assert np.isfinite(chart.position(2.55e103, 0.3)).all()
            assert np.isfinite(chart.duu(2.55e103, 0.3)).all()

    @pytest.mark.parametrize("kwargs", [
        # r rises to 2.7e76 and r' to 2.7e79
        {"r0": 1e76, "rp0": 1e79, "s1": 1e-3, "h": 1e-5},
        # three steps of 3.3e7 blow r up to 2.7e85
        {"r0": 1.0, "rp0": -1.5, "s1": 1e8, "h": 1e8 / 3},
    ])
    def test_chart_beyond_the_floats_is_refused(self, kwargs):
        # each profile integrates, but its chart's |X_u|^2 |X_v|^2 overflows,
        # and its curvature would warn: refused where the chart is built
        sol = integrate_rotational(ProfileODEParams(**kwargs))
        assert np.isfinite(sol.r).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="first form overflows"):
                profile_chart(sol)

    def test_inadmissible_initial_slope(self):
        with pytest.raises(GeometryError):
            ProfileODEParams(H=0.0, r0=1.0, rp0=0.5, s0=0.0, s1=1.0, h=1e-3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["H", "c", "d", "r0", "rp0", "s0", "s1", "h"])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(GeometryError):
            ProfileODEParams(**{name: value})

    @pytest.mark.parametrize("kwargs", [
        {"r0": 1e80, "c": 1e-3},       # c^2 r0^4 overflows
        {"rp0": 1e200},                # rp0^2 is inf, and H = 0 times it is nan
        {"H": 0.5, "rp0": 1e103},      # (rp0^2 - 1)^1.5 overflows
        {"c": 1e160},                  # (c^2 + d^2) r0^4 overflows
        {"c": 1e60, "d": 1e60, "r0": 1e60},  # each factor finite, their product not
    ])
    def test_initial_slope_overflow_rejected(self, kwargs):
        # the first RK4 slope must be finite: refused where the parameters
        # are built, with a domain message instead of a numeric overflow later
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(GeometryError, match="initial data too large"):
                ProfileODEParams(**kwargs)

    def test_rejects_center_drift(self):
        with pytest.raises(GeometryError):
            integrate_rotational(
                ProfileODEParams(H=1.0, c=0.1, r0=1.0, rp0=1.5, s0=0, s1=1, h=1e-3)
            )


class TestRiemannFamily:
    def test_blow_up_is_truncated_when_overflow_raises(self):
        # with c = 1 the radius blows up within s < 1 and an RK4 stage overflows;
        # the CLI's numeric policy raises on overflow, yet the profile must
        # still stop at its last finite step, as without that policy
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = integrate_riemann(ProfileODEParams(c=1.0))
        assert sol.truncated and len(sol.s) == 905
        assert np.all(np.isfinite(sol.r)) and sol.r[-1] > 1e30

    def test_blow_up_is_truncated_where_the_slope_overflows(self):
        # with c = 10 a step can land finite where r^4 in r'' overflows: that
        # step is rejected, so the identity residual of every kept sample is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = integrate_riemann(ProfileODEParams(c=10.0))
        assert sol.truncated and len(sol.s) == 146
        assert np.isfinite(sol.residual_max)

    def test_degenerates_to_catenoid(self):
        sol = integrate_riemann(catenoid_params())
        assert np.max(np.abs(sol.r - np.sinh(sol.s))) <= 1e-6

    def test_center_drift_is_minimal(self):
        params = ProfileODEParams(H=0.0, c=0.3, d=0.0, r0=1.0, rp0=1.5,
                                  s0=0.0, s1=1.0, h=1e-3)
        sol = integrate_riemann(params)
        assert not sol.truncated and chart_spacelike(sol)
        assert sol.residual_max <= 1e-8
        chart = profile_chart(sol)
        for u in np.linspace(0.05, 0.95, 7):
            for v in (0.0, 1.3, 3.9):
                assert abs(shape_and_curvatures(chart, u, v).H) <= 1e-4

    def test_drift_relation(self):
        params = ProfileODEParams(H=0.0, c=0.3, d=0.2, r0=1.0, rp0=1.5,
                                  s0=0.0, s1=1.0, h=1e-3)
        sol = integrate_riemann(params)
        h = params.h
        da = (-sol.a[4:] + 8 * sol.a[3:-1] - 8 * sol.a[1:-3] + sol.a[:-4]) / (12 * h)
        db = (-sol.b[4:] + 8 * sol.b[3:-1] - 8 * sol.b[1:-3] + sol.b[:-4]) / (12 * h)
        npt.assert_allclose(da, params.c * sol.r[2:-2] ** 2, atol=1e-8)
        npt.assert_allclose(db, params.d * sol.r[2:-2] ** 2, atol=1e-8)

    @pytest.mark.parametrize("c, violated", [(1.0, True), (0.3, False)])
    def test_chart_spacelike_check(self, c, violated):
        # with r'^2 > 1 all along (no truncation), fast center drift alone
        # makes EG - F^2 <= 0 somewhere on the chart
        sol = integrate_riemann(ProfileODEParams(c=c, r0=1.0, rp0=1.5, s0=0.0, s1=0.1))
        assert not sol.truncated
        assert chart_spacelike(sol) is not violated

    def test_rejects_nonzero_h(self):
        with pytest.raises(GeometryError):
            integrate_riemann(
                ProfileODEParams(H=0.5, c=0.3, r0=1.0, rp0=1.5, s0=0, s1=1, h=1e-3)
            )


#: the guard-band fall H = 1, rp0 = -1.2 on [0, 3], scaled by 1e-7
TINY_FALL = ProfileODEParams(H=1e7, r0=1e-7, rp0=-1.2, s1=3e-7, h=1e-10)


def numpy_integrate(params: ProfileODEParams):
    """The RK4 loop on numpy arrays that `rotational._integrate` replaced: its
    float loop must reproduce this one bit for bit."""
    from minkowski3.rotational import (GUARD, ProfileSolution, _abscissae,
                                       _identity_residual, _rpp)

    H, c, d = params.H, params.c, params.d
    s = _abscissae(params.s0, params.s1, params.h)
    n = len(s) - 1
    h = params.h

    def rhs(y):
        r, rp, _a, _b = y
        return np.array([rp, _rpp(r, rp, H, c, d), c * r * r, d * r * r])

    ys = np.empty((n + 1, 4))
    ys[0] = (params.r0, params.rp0, 0.0, 0.0)
    truncated = blew_up = False
    last = n

    def at_guard(y):
        return y[0] <= GUARD * params.r0 or y[1] * y[1] - 1.0 <= GUARD

    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(ys[0])
        for k in range(n):
            y = ys[k]
            if at_guard(y):
                truncated = True
                last = k
                break
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y_next = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(y_next)) or at_guard(y_next):
                truncated = True
                blew_up = not np.all(np.isfinite(y_next))
                last = k
                break
            ys[k + 1] = y_next
            k1 = rhs(y_next)
    if last > 0 and not np.all(np.isfinite(k1)):
        truncated = blew_up = True
        last -= 1
    ys = ys[: last + 1]
    s = s[: last + 1]
    r, rp, a, b = ys.T
    rpp = np.array([_rpp(ri, rpi, H, c, d) for ri, rpi in zip(r, rp)])
    resid = np.abs(_identity_residual(r, rp, rpp, H, c, d))
    return ProfileSolution(
        s=s, r=r, rp=rp, a=a, b=b, params=params,
        residual_max=float(resid.max()) if len(resid) else 0.0,
        truncated=truncated,
        blew_up=blew_up,
        diagnostics={"steps": int(last)},
    )


class TestFloatLoopOracle:
    @pytest.mark.parametrize("integrate, params, truncated", [
        (integrate_rotational, catenoid_params(h=5e-4), False),  # 5,000 steps
        (integrate_rotational, ProfileODEParams(H=0.1, s1=5.0), False),
        (integrate_rotational, ProfileODEParams(H=0.7), False),
        (integrate_rotational, ProfileODEParams(H=3.0, s1=3.0), False),
        # r' blows up (H = -2); r falls to the guard band (H = 1, r' < -1)
        (integrate_rotational, ProfileODEParams(H=-2.0), True),
        (integrate_rotational, ProfileODEParams(H=1.0, rp0=-1.2, s1=3.0), True),
        # the same fall, scaled by 1e-7: the band is relative to r0
        (integrate_rotational, TINY_FALL, True),
        (integrate_riemann, ProfileODEParams(c=0.3, d=0.1), False),
        # blow-ups: a stage overflows (c = 1), an end slope overflows (c = 10)
        (integrate_riemann, ProfileODEParams(c=1.0), True),
        (integrate_riemann, ProfileODEParams(c=10.0), True),
        # c^2 underflows to 0, yet the centers drift: the loop's gate is c or d
        (integrate_riemann, ProfileODEParams(c=1e-200), False),
        # -0.0 is no drift: a and b are not stepped and stay 0.0
        (integrate_riemann, ProfileODEParams(c=-0.0), False),
    ])
    def test_bit_identical_to_the_numpy_loop(self, integrate, params, truncated):
        expected = numpy_integrate(params)
        assert expected.truncated is truncated
        # the float loop never leaves an overflow to numpy, so the numeric
        # policy of the CLI cannot turn a clean truncation into an error
        with np.errstate(over="raise", invalid="raise"):
            got = integrate(params)
        for name in ("s", "r", "rp", "a", "b"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
        assert got.residual_max == expected.residual_max
        assert got.truncated is expected.truncated
        assert got.blew_up is expected.blew_up
        assert got.diagnostics == expected.diagnostics

    def test_rpp_clamp_is_the_max_form(self):
        # the numpy loop calls `_rpp` itself, so it cannot see a change inside
        # it: the comparison clamp must give what `max` gave, for every input
        from minkowski3.rotational import _rpp

        def rpp_with_max(r, rp, H, c, d):
            q = max(rp * rp - 1.0, 0.0)
            drift = (c * c + d * d) * r ** 4 if c or d else 0.0
            return (-1.0 + drift + rp * rp - 2.0 * H * r * q ** 1.5) / r

        def value(f, *args):
            try:
                return f(*args)
            except ArithmeticError as exc:
                return type(exc)

        rps = (0.0, -0.0, 0.5, 1.0, -1.0, 1.0 + 2.0 ** -52, 1.5, 1e154, math.inf, -math.inf,
               math.nan)
        seen = set()
        for r, rp, H, (c, d) in itertools.product((1e-300, 1.0, 1e77, 1e80), rps, (0.0, 0.7),
                                                  ((0.0, 0.0), (0.3, -0.1), (1e-200, 0.0))):
            args = r, rp, H, c, d
            want, got = value(rpp_with_max, *args), value(_rpp, *args)
            if isinstance(want, type):
                assert got is want, args
                seen.add(want)
            elif math.isnan(want):
                assert math.isnan(got), args
                seen.add("nan")
            else:
                assert got.hex() == want.hex(), args  # -0.0 told from 0.0
                seen.add("number")
        assert seen == {OverflowError, "nan", "number"}

    @pytest.mark.parametrize("integrate, params, blew_up", [
        (integrate_rotational, ProfileODEParams(H=-2.0), True),
        (integrate_rotational, ProfileODEParams(H=1.0, rp0=-1.2, s1=3.0), False),
        (integrate_rotational, TINY_FALL, False),
        (integrate_riemann, ProfileODEParams(c=1.0), True),
        (integrate_riemann, ProfileODEParams(c=10.0), True),
    ])
    def test_blow_up_is_told_from_the_guard_band(self, integrate, params, blew_up):
        for sol in (numpy_integrate(params), integrate(params)):
            assert sol.truncated is True
            assert sol.blew_up is blew_up


class TestProfileChart:
    @pytest.mark.parametrize("c, d", [(0.0, 0.0), (0.3, 0.2)])
    def test_evaluators_are_the_spline_formulas(self, c, d):
        sol = integrate_riemann(ProfileODEParams(c=c, d=d, r0=1.0, rp0=1.5, s0=0.0, s1=0.5,
                                                 h=1e-2))
        chart = profile_chart(sol)
        # the reference: one Hermite spline per function and its derivatives
        r_sp = CubicHermiteSpline(sol.s, sol.r, sol.rp)
        a_sp = CubicHermiteSpline(sol.s, sol.a, c * sol.r ** 2)
        b_sp = CubicHermiteSpline(sol.s, sol.b, d * sol.r ** 2)
        r1, a1, b1 = r_sp.derivative(), a_sp.derivative(), b_sp.derivative()
        r2, a2, b2 = r1.derivative(), a1.derivative(), b1.derivative()
        points = [(u, v) for u in (-0.0, 0.0, 0.123, 0.25, 0.5) for v in (0.0, -0.0, 1.3, np.pi, 5.0)]
        expected = [{
            "position": [a_sp(u) + r_sp(u) * np.cos(v), b_sp(u) + r_sp(u) * np.sin(v), u],
            "du": [a1(u) + r1(u) * np.cos(v), b1(u) + r1(u) * np.sin(v), 1.0],
            "dv": [-r_sp(u) * np.sin(v), r_sp(u) * np.cos(v), 0.0],
            "duu": [a2(u) + r2(u) * np.cos(v), b2(u) + r2(u) * np.sin(v), 0.0],
            "duv": [-r1(u) * np.sin(v), r1(u) * np.cos(v), 0.0],
            "dvv": [-r_sp(u) * np.cos(v), -r_sp(u) * np.sin(v), 0.0],
        } for u, v in points]
        # the splines are memoized per chart: every point is asked three times, in
        # orders that put 0.0 after -0.0 and the other way round
        n = len(points)
        order = [*range(n), *np.random.default_rng(5).permutation(n), *range(n - 1, -1, -1)]
        for i in order:
            u, v = points[i]
            for name, value in expected[i].items():
                got = getattr(chart, name)(u, v)
                assert got.tobytes() == np.array(value, dtype=float).tobytes(), (name, u, v)
        # the memo keys on bits, so a 0-d array is a valid u
        assert chart.du(np.array(0.3), 1.3).tobytes() == profile_chart(sol).du(0.3, 1.3).tobytes()

    def test_mesh_evaluates_each_spline_once_per_u(self, monkeypatch):
        calls = []
        hermite = rotational._hermite

        def counting_hermite(x, y, dydx):
            def counted(f):
                def g(u):
                    calls.append((id(f), np.float64(u).tobytes()))
                    return f(u)
                return g
            return tuple(map(counted, hermite(x, y, dydx)))

        monkeypatch.setattr(rotational, "_hermite", counting_hermite)
        chart = profile_chart(integrate_rotational(catenoid_params(h=1e-2)))
        mesh = triangulate_chart(chart, 40, 64, wrap_v=True)
        assert len(mesh.vertices) == 40 * 63
        us = {np.float64(u).tobytes() for u in chart.grid(40, 64)[0]}
        assert len({f for f, _ in calls}) == 9
        assert len(calls) == len(set(calls))
        assert {u for _, u in calls} <= us


def _hermite_samples(profile):
    """(x, y, dydx) triples of one profile: r, a and b as `profile_chart` takes them."""
    if profile == "signed-zero":
        # y = -0.0 at the knot 1.0, where every term of the power sum is -0.0:
        # only a sum that starts at +0.0 gives scipy's +0.0 there
        return [(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, -0.0, -3.0, -7.0]),
                 np.array([-1.0, -2.0, -4.5, -4.0]))]
    sol = {
        "catenoid": lambda: integrate_rotational(catenoid_params(h=1e-2)),
        "riemann": lambda: integrate_riemann(ProfileODEParams(c=0.3, d=0.2, r0=1.0, rp0=1.5,
                                                              s0=0.0, s1=0.5, h=1e-2)),
        "truncated": lambda: integrate_rotational(ProfileODEParams(
            H=0.0, r0=0.5, rp0=-float(np.cosh(np.arcsinh(0.5))), s0=0.0, s1=2.0, h=1e-2)),
    }[profile]()
    assert sol.truncated == (profile == "truncated")
    c, d = sol.params.c, sol.params.d
    return [(sol.s, sol.r, sol.rp), (sol.s, sol.a, c * sol.r ** 2), (sol.s, sol.b, d * sol.r ** 2)]


class TestHermite:
    @pytest.mark.parametrize("profile", ["catenoid", "riemann", "truncated", "signed-zero"])
    def test_bit_identical_to_scipy(self, profile):
        for x, y, dydx in _hermite_samples(profile):
            span = x[-1] - x[0]
            us = np.concatenate([
                x, 0.5 * (x[:-1] + x[1:]), [x[0], x[-1], x[0] - 0.3 * span, x[-1] + 0.3 * span, -0.0],
                np.random.default_rng(17).uniform(x[0] - 0.1 * span, x[-1] + 0.1 * span, 2000),
            ])
            spline = CubicHermiteSpline(x, y, dydx)
            references = (spline, spline.derivative(), spline.derivative().derivative())
            for f, reference in zip(rotational._hermite(x, y, dydx), references):
                got = np.array([f(u) for u in us])
                assert got.tobytes() == reference(us).tobytes()


class TestBoostInvariance:
    def test_mesh_reproduced_up_to_reindexing(self):
        sol = integrate_rotational(catenoid_params(span=(0.5, 1.5)))
        chart = profile_chart(sol)
        n_theta = 16
        mesh = triangulate_chart(chart, 9, n_theta + 1, wrap_v=True)
        rot = boost_timelike(2 * np.pi / n_theta)
        rotated = mesh.vertices @ rot.T
        # rotating by one angular step shifts the vertex columns cyclically
        reindexed = mesh.vertices.reshape(9, n_theta, 3)
        reindexed = np.roll(reindexed, -1, axis=1).reshape(-1, 3)
        npt.assert_allclose(rotated, reindexed, atol=1e-10)


class TestHyperbolicCaps:
    def test_rim_height(self):
        _, cap = hyperbolic_cap_chart(1.0, 1.0)
        npt.assert_allclose(cap.rim_height, np.sqrt(2.0), rtol=1e-15)
        npt.assert_allclose(cap.height, np.sqrt(2.0) - 1.0, rtol=1e-15)

    def test_measured_mean_curvature(self):
        chart, _ = hyperbolic_cap_chart(2.0, 3.0)
        for (x, y) in ((0.0, 0.0), (1.0, -2.0), (2.5, 0.5)):
            npt.assert_allclose(shape_and_curvatures(chart, x, y).H, 0.5, atol=1e-8)

    def test_points_on_hyperboloid(self):
        chart, cap = hyperbolic_cap_chart(1.5, 2.0)
        for (x, y) in ((0.0, 0.0), (1.0, 1.0)):
            p = chart.position(x, y)
            npt.assert_allclose(lorentz_dot(p, p), -1.5 ** 2, rtol=1e-12)
            assert p[2] > 0
        assert chart.position(2.0, 0.0)[2] <= cap.rim_height + 1e-12

    def test_translated_rim_at_zero(self):
        chart, cap = hyperbolic_cap_chart(1.0, 1.0, rim_at_zero=True)
        npt.assert_allclose(chart.position(1.0, 0.0)[2], 0.0, atol=1e-14)
        npt.assert_allclose(chart.position(0.0, 0.0)[2], -cap.height, rtol=1e-12)

    @pytest.mark.parametrize("rim_at_zero", [False, True])
    def test_evaluators_are_the_closed_forms(self, rim_at_zero):
        r, R = 1.3, 0.9
        chart, cap = hyperbolic_cap_chart(r, R, rim_at_zero=rim_at_zero)
        shift = cap.rim_height if rim_at_zero else 0.0
        for x, y in ((0.0, 0.0), (0.4, -0.7), (-0.9, 0.9), (1 / 3, 0.1)):
            w = np.sqrt(r * r + x * x + y * y)
            expected = {
                "position": [x, y, w - shift],
                "du": [1.0, 0.0, x / w],
                "dv": [0.0, 1.0, y / w],
                "duu": [0.0, 0.0, (y * y + r * r) / w ** 3],
                "duv": [0.0, 0.0, -x * y / w ** 3],
                "dvv": [0.0, 0.0, (x * x + r * r) / w ** 3],
            }
            for name, value in expected.items():
                assert np.array_equal(getattr(chart, name)(x, y), value), name

    def test_unbounded_heights(self):
        # fixed H = 1/r: heights grow strictly and without bound in R
        heights = [HyperbolicCap(1.0, R).height for R in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(heights, heights[1:]))
        assert heights[-1] > 7.0

    def test_invalid_parameters(self):
        with pytest.raises(GeometryError):
            HyperbolicCap(-1.0, 1.0)

    @pytest.mark.parametrize("r, R", [(np.nan, 1.0), (1.0, np.inf), (1e308, 1.0)])
    def test_non_finite_parameters_rejected(self, r, R):
        # r^2 + R^2 must be finite too, or the rim height overflows
        with pytest.raises(GeometryError):
            HyperbolicCap(r, R)


class TestFoliatedHyperbolicPlaneReconstruction:
    def test_circle_foliation_with_drifting_centers_is_hyperbolic_plane(self):
        # X(u,v) = c0 + sqrt(4+r^2) T(u) + r (cos v N(u) + sin v B(u)) with
        # T = (0, sinh u, cosh u), N = (0, cosh u, sinh u), B = E1 satisfies
        # <X - c0, X - c0> = -4 and has constant mean curvature 1/2
        c0 = np.array([0.3, -0.2, 0.1])

        def r(u):
            return 1.0 + 0.25 * u * u

        def x(u, v):
            t_vec = np.array([0.0, np.sinh(u), np.cosh(u)])
            n_vec = np.array([0.0, np.cosh(u), np.sinh(u)])
            b_vec = np.array([1.0, 0.0, 0.0])
            return (c0 + np.sqrt(4.0 + r(u) ** 2) * t_vec
                    + r(u) * (np.cos(v) * n_vec + np.sin(v) * b_vec))

        chart = SurfaceChart(x, domain=((-0.6, 0.6), (0.0, 2 * np.pi)), h_fd=1e-4)
        for u in np.linspace(-0.5, 0.5, 5):
            for v in np.linspace(0.3, 5.9, 5):
                p = chart.position(u, v)
                npt.assert_allclose(lorentz_dot(p - c0, p - c0), -4.0, atol=1e-12)
                npt.assert_allclose(
                    shape_and_curvatures(chart, u, v).H, 0.5, atol=1e-4
                )



def _magnitude(lo: float = -300.0, hi: float = 300.0):
    return st.floats(lo, hi).map(lambda k: 10.0 ** k)


def _signed(values):
    return st.builds(lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]), values)


@st.composite
def _extreme_params(draw, riemann: bool):
    """ProfileODEParams keywords: each value drawn alone on [1e-300, 1e300],
    or unit-scale data scaled by lam = 10^k, k in [-300, 300] (r, s, h -> lam
    (r, s, h), H -> H / lam, c, d -> (c, d) / lam^2), which keeps the profile
    and runs it at every scale."""
    steps = draw(st.integers(1, 400))
    if draw(st.booleans()):
        any_value = st.just(0.0) | _signed(_magnitude())
        span = draw(_magnitude())
        kw = {"H": draw(any_value), "c": draw(any_value), "d": draw(any_value),
              "r0": draw(_magnitude()), "s0": draw(any_value),
              "rp0": draw(_signed(st.just(1.5) | st.builds(lambda x: 1.0 + x, _magnitude())))}
    else:
        lam = draw(_magnitude())
        span = draw(st.floats(0.01, 3.0)) * lam
        kw = {"H": draw(st.floats(-2.0, 2.0)) / lam, "c": draw(st.floats(-1.0, 1.0)) / lam / lam,
              "d": draw(st.floats(-1.0, 1.0)) / lam / lam, "r0": draw(st.floats(0.2, 5.0)) * lam,
              "s0": draw(st.floats(-1.0, 1.0)) * lam, "rp0": draw(_signed(st.floats(1.05, 3.0)))}
    if riemann:
        kw["H"] = 0.0
    else:
        kw["c"] = kw["d"] = 0.0
    return dict(kw, s1=kw["s0"] + span, h=span / steps)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data(), riemann=st.booleans(), frac=st.floats(0.0, 1.0),
       v=st.floats(0.0, 2 * np.pi))
def test_extreme_profiles_end_finite_flagged_or_refused(data, riemann, frac, v):
    # r0, spans and H up to 1e300, steps down to 1e-300: each profile, its
    # chart and the curvature at one chart point is finite, flagged
    # (truncated, blew_up) or a GeometryError, and warns nothing
    kw = data.draw(_extreme_params(riemann))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = (integrate_riemann if riemann else integrate_rotational)(ProfileODEParams(**kw))
        except GeometryError:
            return
        fields = (sol.s, sol.r, sol.rp, sol.a, sol.b, sol.residual_max)
        assert all(np.isfinite(x).all() for x in fields), sol
        assert sol.truncated or not sol.blew_up
        try:
            chart = profile_chart(sol)
        except GeometryError:
            return
        (u0, u1), _ = chart.domain
        try:
            point = shape_and_curvatures(chart, u0 + frac * (u1 - u0), v)
        except GeometryError:
            return
    assert math.isfinite(point.H) and math.isfinite(point.K), point
