"""Rotational and circle-foliated spacelike CMC surfaces by profile ODEs.

A surface foliated by horizontal Euclidean circles of radius r(u) centered
at (a(u), b(u), u) has constant mean curvature H exactly when

    -1 + (c^2 + d^2) r^4 + r'^2 - r r'' - 2 H r (r'^2 - 1)^(3/2) = 0,
    a' = c r^2,   b' = d r^2,

where the center drift constants (c, d) must vanish unless H = 0 (the
minimal "shifted-center" family).  The rotational H = 0 solution is the
Lorentzian catenoid r = sinh(s); spacelike charts require r'^2 > 1 along
the profile and the full chart condition EG - F^2 > 0 when centers drift.

Integration is a classical fixed-step 4-stage Runge-Kutta scheme with an
event guard stopping at r'^2 - 1 <= guard or r <= guard r0, or before a
step that overflows (a blow-up); fixed stepping keeps runs bit-reproducible.
The equations are invariant under r, s, a, b -> lam (r, s, a, b) with
H -> H / lam and c, d -> (c, d) / lam^2, and so is the guard.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import inf, isfinite

import numpy as np

from .core import GeometryError
from .surfaces import SurfaceChart, _memo_exact, hyperbolic_plane_chart

__all__ = [
    "ProfileODEParams",
    "ProfileSolution",
    "HyperbolicCap",
    "catenoid_profile",
    "integrate_rotational",
    "integrate_riemann",
    "chart_spacelike",
    "profile_chart",
    "hyperbolic_cap_chart",
]

#: guard band for the spacelike condition r'^2 > 1, and relative to r0 for r > 0
GUARD = 1e-6

#: most RK4 steps one integration takes: the loop runs on Python floats at a
#: few microseconds a step, so this bounds a run to about two seconds
MAX_RK4_STEPS = 250_000


def _abscissae(s0: float, s1: float, h: float) -> np.ndarray:
    """The RK4 sample points s0 + h k for k = 0 .. round((s1 - s0) / h)."""
    return s0 + h * np.arange(round((s1 - s0) / h) + 1)


@dataclass(frozen=True)
class ProfileODEParams:
    """Initial data and stepping for a profile integration.

    `H` is the target mean curvature (rotational family, requires c = d = 0);
    `c`, `d` drift the circle centers (minimal family, requires H = 0).
    Spacelike admissibility at the start demands |rp0| > 1, and the step
    must move both s and r: s0 + h k must not repeat, nor r0 + h rp0 round
    to r0.
    """

    H: float = 0.0
    c: float = 0.0
    d: float = 0.0
    r0: float = 1.0
    rp0: float = 1.5
    s0: float = 0.0
    s1: float = 1.0
    h: float = 1e-3

    def __post_init__(self):
        values = (self.H, self.c, self.d, self.r0, self.rp0, self.s0, self.s1, self.h)
        if not np.all(np.isfinite(values)):
            raise GeometryError("profile parameters must be finite")
        if self.h <= 0:
            raise GeometryError("step h must be positive")
        if self.s1 <= self.s0:
            raise GeometryError("span must be increasing")
        if not (self.s1 - self.s0) / self.h <= MAX_RK4_STEPS:
            raise GeometryError(f"(s1 - s0) / h exceeds MAX_RK4_STEPS = {MAX_RK4_STEPS} steps")
        # below the float spacing near the span, s0 + h k rounds to repeated values
        if not np.all(np.diff(_abscissae(self.s0, self.s1, self.h)) > 0):
            raise GeometryError("step h does not separate the samples s0 + h k: "
                                "it is below the float spacing of the span")
        if self.r0 <= 0:
            raise GeometryError("initial radius must be positive")
        if self.rp0 * self.rp0 <= 1.0 + GUARD:
            raise GeometryError("spacelike admissibility requires |rp0| > 1")
        # r0^4, rp0^2 and (c^2 + d^2) r0^4 all enter the first slope r''(s0)
        try:
            rpp0 = _rpp(float(self.r0), float(self.rp0), self.H, self.c, self.d)
        except OverflowError:
            rpp0 = inf
        if not isfinite(rpp0):
            raise GeometryError("initial data too large: r''(s0) overflows for "
                                "these r0, rp0, c, d")
        # as for s: below the float spacing of r0, r0 + h rp0 rounds to r0, so
        # r only moves by rounding and its measured curvature is rounding noise
        if self.r0 + self.h * self.rp0 == self.r0:
            raise GeometryError("step h does not move r: r0 + h rp0 rounds to r0, "
                                "h |rp0| is below the float spacing of r0")


@dataclass
class ProfileSolution:
    s: np.ndarray
    r: np.ndarray
    rp: np.ndarray
    a: np.ndarray
    b: np.ndarray
    params: ProfileODEParams
    #: max absolute residual of the printed ODE identity over interior samples
    residual_max: float = 0.0
    #: True when the integration stopped early: at the guard band, or where
    #: the profile blows up
    truncated: bool = False
    #: True when that stop was a blow-up: the next step overflows or is not finite
    blew_up: bool = False
    diagnostics: dict = field(default_factory=dict)


def _rpp(r: float, rp: float, H: float, c: float, d: float) -> float:
    """r'' solved once, analytically, from the curvature identity.

    The spacelike branch needs rp^2 > 1; inner integrator stages may dip
    below transiently near the guard band, where the clamped power keeps the
    step finite (the guard then stops the run cleanly).  The drift term
    (c^2 + d^2) r^4 is formed only for drifting centers: for a rotational
    profile (c = d = 0) r^4 would overflow above r of about 1.2e77, though the
    scaled problem is well posed there, and -1.0 + 0.0 is -1.0, so where r^4
    is finite the bits are those of the full term.  The term is written out
    here and in `_identity_residual`, not shared, since a call per slope
    would slow the RK4 loop.
    """
    q = max(rp * rp - 1.0, 0.0)
    drift = (c * c + d * d) * r ** 4 if c or d else 0.0
    return (-1.0 + drift + rp * rp - 2.0 * H * r * q ** 1.5) / r


def _identity_residual(r, rp, rpp, H, c, d):
    """The identity as printed (not rearranged), evaluated termwise, with the
    drift term of `_rpp`: an r^4 that overflows at c = d = 0 would make it
    0 * inf, NaN."""
    drift = (c * c + d * d) * r ** 4 if c or d else 0.0
    return (-1.0 + drift + rp * rp - r * rpp
            - 2.0 * H * r * (rp * rp - 1.0) ** 1.5)


def _integrate(params: ProfileODEParams) -> ProfileSolution:
    H, c, d = params.H, params.c, params.d
    s = _abscissae(params.s0, params.s1, params.h)
    n = len(s) - 1
    h = params.h
    h2, h6 = 0.5 * h, h / 6.0
    # The state (r, r', a, b) and the slope (r', r'', c r^2, d r^2) are Python
    # floats: the same IEEE operations, in the same order, as the array form
    # y + (h/2) k and y + (h/6)(((k1 + 2 k2) + 2 k3) + k4) applied per
    # component, at a fraction of the cost per step.  The stage values of a
    # and b feed no slope, so they are not formed.  Columns: r, r', a, b, r''.
    ys = np.empty((n + 1, 5))
    r, rp, a, b = float(params.r0), float(params.rp0), 0.0, 0.0
    rpp = _rpp(r, rp, H, c, d)  # finite: ProfileODEParams checks the first slope
    ys[0] = r, rp, a, b, rpp
    # the start lies outside the guard band: ProfileODEParams checks rp0^2 > 1 + GUARD
    r_guard = GUARD * r
    truncated = blew_up = False
    last = n
    for k in range(n):
        # A step that blows up overflows: `**` raises where an array would
        # hold inf, and a stage radius of exactly 0 divides by zero.  Such a
        # step is rejected, as is one that is not finite, leaves the
        # admissible set, or ends where the slope (the next step's k1, whose
        # r'' also enters the identity residual) is not finite.
        try:
            r2, rp2 = r + h2 * rp, rp + h2 * rpp
            rpp2 = _rpp(r2, rp2, H, c, d)
            r3, rp3 = r + h2 * rp2, rp + h2 * rpp2
            rpp3 = _rpp(r3, rp3, H, c, d)
            r4, rp4 = r + h * rp3, rp + h * rpp3
            rpp4 = _rpp(r4, rp4, H, c, d)
            r_n = r + h6 * (((rp + 2 * rp2) + 2 * rp3) + rp4)
            rp_n = rp + h6 * (((rpp + 2 * rpp2) + 2 * rpp3) + rpp4)
            rpp_n = _rpp(r_n, rp_n, H, c, d)
        except (OverflowError, ZeroDivisionError):
            truncated, blew_up, last = True, True, k
            break
        a_n = a + h6 * (((c * r * r + 2 * (c * r2 * r2)) + 2 * (c * r3 * r3)) + c * r4 * r4)
        b_n = b + h6 * (((d * r * r + 2 * (d * r2 * r2)) + 2 * (d * r3 * r3)) + d * r4 * r4)
        if not (isfinite(r_n) and isfinite(rp_n) and isfinite(a_n) and isfinite(b_n)
                and isfinite(rpp_n) and isfinite(c * r_n * r_n) and isfinite(d * r_n * r_n)):
            truncated, blew_up, last = True, True, k
            break
        if r_n <= r_guard or rp_n * rp_n - 1.0 <= GUARD:
            truncated, last = True, k
            break
        r, rp, a, b, rpp = r_n, rp_n, a_n, b_n, rpp_n
        ys[k + 1] = r, rp, a, b, rpp
    ys = ys[: last + 1]
    r, rp, a, b, rpp = ys.T
    # plugging the rearranged r'' back into the printed identity catches
    # any algebra slip in the rearrangement itself
    resid = np.abs(_identity_residual(r, rp, rpp, H, c, d))
    return ProfileSolution(
        s=s[: last + 1], r=r, rp=rp, a=a, b=b, params=params,
        residual_max=float(resid.max()),
        truncated=truncated,
        blew_up=blew_up,
        diagnostics={"steps": int(last)},
    )


def integrate_rotational(params: ProfileODEParams) -> ProfileSolution:
    """Rotational profile with target mean curvature H (c = d = 0)."""
    if params.c != 0.0 or params.d != 0.0:
        raise GeometryError("rotational profiles require c = d = 0")
    return _integrate(params)


def integrate_riemann(params: ProfileODEParams) -> ProfileSolution:
    """Minimal circle-foliated profile with drifting centers (H = 0).

    c = d = 0 degenerates to the rotational minimal profile and is allowed.
    """
    if params.H != 0.0:
        raise GeometryError("center drift is only minimal: set H = 0")
    return _integrate(params)


def chart_spacelike(sol: ProfileSolution) -> bool:
    """Check W = EG - F^2 > 0 of the induced chart, sampled at 64 angles."""
    c, d = sol.params.c, sol.params.d
    vs = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    r, rp = sol.r[:, None], sol.rp[:, None]  # samples x angles
    xu0 = c * r * r + rp * np.cos(vs)
    xu1 = d * r * r + rp * np.sin(vs)
    e_val = xu0 ** 2 + xu1 ** 2 - 1.0
    f_val = -xu0 * r * np.sin(vs) + xu1 * r * np.cos(vs)
    w = e_val * r * r - f_val ** 2
    # NaN compares False, so a NaN sample does not fail the check
    return not np.any(w <= 0)


def _circle_chart(r, a, b, domain) -> SurfaceChart:
    """Chart X(u, v) = (a + r cos v, b + r sin v, u) and its partials, with
    each of r(u), a(u), b(u) given as (f, f', f'')."""
    (r0, r1, r2), (a0, a1, a2), (b0, b1, b2) = r, a, b

    def x(u, v):
        ru = r0(u)
        return np.array([a0(u) + ru * np.cos(v), b0(u) + ru * np.sin(v), u])

    def xu(u, v):
        ru = r1(u)
        return np.array([a1(u) + ru * np.cos(v), b1(u) + ru * np.sin(v), 1.0])

    def xv(u, v):
        ru = r0(u)
        return np.array([-ru * np.sin(v), ru * np.cos(v), 0.0])

    def xuu(u, v):
        ru = r2(u)
        return np.array([a2(u) + ru * np.cos(v), b2(u) + ru * np.sin(v), 0.0])

    def xuv(u, v):
        ru = r1(u)
        return np.array([-ru * np.sin(v), ru * np.cos(v), 0.0])

    def xvv(u, v):
        ru = r0(u)
        return np.array([-ru * np.cos(v), -ru * np.sin(v), 0.0])

    return SurfaceChart(x, xu, xv, xuu, xuv, xvv, domain=domain)


def _hermite(x, y, dydx):
    """Value, first and second derivative of the cubic Hermite interpolant of
    the samples (x, y, dydx), as three functions of one float.

    Each piece is a cubic in powers of u - x_i (de Boor's ppform) with the
    coefficients of scipy's `CubicHermiteSpline` and the derivative
    coefficients of `PPoly.derivative`, evaluated as `PPoly` does: intervals
    are half-open but the last is closed, the end pieces extrapolate, and the
    power sum starts at 0.0 and adds terms from the constant up (not Horner),
    so every result is scipy's bit for bit.  The sum runs on Python floats,
    which, like scipy's compiled loop, overflow to inf without raising.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c = np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))
    c1 = c[:-1] * np.array([3, 2, 1])[:, None]
    c2 = c1[:-1] * np.array([2, 1])[:, None]
    # c1 = (3 c_0, 2 c_1, c_2) is finite where c2 = (6 c_0, 2 c_1) and c are
    if not (np.isfinite(c).all() and np.isfinite(c2).all()):
        raise GeometryError("profile interpolant overflows: a cubic coefficient "
                            "is above the float range")
    knots = x.tolist()
    last = len(knots) - 2

    def ppform(coeffs):
        rows = coeffs[::-1].T  # per interval, constant term first

        def f(u):
            u = float(u)
            # searchsorted(x, u, side="right") - 1, clipped to the end pieces
            i = min(max(bisect_right(knots, u) - 1, 0), last)
            s = u - knots[i]
            res, z = 0.0, 1.0
            for ck in rows[i].tolist():
                res = res + ck * z
                z = z * s
            return res

        return f

    return ppform(c), ppform(c1), ppform(c2)


def profile_chart(sol: ProfileSolution) -> SurfaceChart:
    """Chart X(u, v) = (a + r cos v, b + r sin v, u) from an integrated profile.

    r, a, b are cubic Hermite interpolants of the integrated samples,
    evaluated by the ppform evaluator `_hermite`, so the measured curvature
    of the chart reflects the numerical solution (second derivatives come
    from the interpolant, not from the governing identity).  Each of the nine
    evaluators is memoized on u: a mesh evaluates it at every vertex and
    partial, but only once per distinct u.
    """
    if len(sol.s) < 4:
        raise GeometryError("profile too short to interpolate")
    c, d = sol.params.c, sol.params.d
    dom = ((float(sol.s[0]), float(sol.s[-1])), (0.0, 2 * np.pi))
    # a coefficient that overflows is refused by `_hermite`, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        r = _hermite(sol.s, sol.r, sol.rp)
        a = _hermite(sol.s, sol.a, c * sol.r ** 2)
        b = _hermite(sol.s, sol.b, d * sol.r ** 2)
        # |X_u|^2 |X_v|^2 at the samples, bounded over v, is the largest product
        # of the chart's first form: where it overflows no curvature is measured
        drift = (abs(c) + abs(d)) * sol.r ** 2
        first_form = (1.0 + 2.0 * (np.abs(sol.rp) + drift) ** 2) * sol.r ** 2
    if not np.isfinite(first_form).all():
        raise GeometryError("profile too large: its chart's first form overflows")
    r, a, b = (tuple(map(_memo_exact, fs)) for fs in (r, a, b))
    return _circle_chart(r, a, b, dom)


def catenoid_profile(s: float) -> tuple[float, float]:
    """Closed-form minimal rotational profile r = sinh(s) for s > 0.

    The governing identity -1 + r'^2 - r r'' vanishes identically for it
    (cosh^2 - sinh^2 = 1), so the returned residual is exactly zero.
    """
    if s <= 0:
        raise GeometryError("the catenoid profile needs s > 0")
    return float(np.sinh(s)), 0.0


def catenoid_chart() -> SurfaceChart:
    """Analytic chart X(u, v) = (sinh u cos v, sinh u sin v, u), 0.5 <= u <= 3:
    the circle chart with r = sinh u and centers on the axis."""
    # -0.0 + x == x for every x, -0.0 included, so a + r cos v is r cos v bit for bit
    axis = (lambda u: -0.0,) * 3
    return _circle_chart((np.sinh, np.cosh, np.sinh), axis, axis, ((0.5, 3.0), (0.0, 2 * np.pi)))


@dataclass(frozen=True)
class HyperbolicCap:
    """The compact piece of the hyperboloid x^2+y^2-z^2 = -r^2, z > 0 with
    z <= sqrt(r^2 + R^2); its boundary is the circle of radius R at that
    height and its mean curvature is 1/r with the future orientation."""

    r: float
    R: float

    def __post_init__(self):
        if not np.isfinite(self.r * self.r + self.R * self.R):
            raise GeometryError("cap parameters r, R must be finite, with r^2 + R^2 finite")
        if self.r <= 0 or self.R <= 0:
            raise GeometryError("cap parameters r, R must be positive")

    @property
    def rim_height(self) -> float:
        return float(np.sqrt(self.r ** 2 + self.R ** 2))

    @property
    def height(self) -> float:
        """Vertex-to-boundary height sqrt(r^2 + R^2) - r."""
        return self.rim_height - self.r


def hyperbolic_cap_chart(r: float, R: float, rim_at_zero: bool = False):
    """Graph chart u(x, y) = sqrt(r^2 + x^2 + y^2) over the disk of radius R.

    With rim_at_zero the graph is translated down by sqrt(r^2 + R^2) so the
    boundary circle lies in {z = 0}.  Returns (chart, cap descriptor).
    """
    cap = HyperbolicCap(r, R)
    shift = cap.rim_height if rim_at_zero else 0.0
    return hyperbolic_plane_chart(r, (0.0, 0.0, -shift), domain=((-R, R), (-R, R))), cap
