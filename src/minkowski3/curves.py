"""Curves in Minkowski 3-space: causal type, reparametrization, Frenet frames.

A curve is carried around as a `CurveJet`: the map alpha together with
evaluators for its first three derivatives (closed-form callbacks, or
central finite differences built from a position-only callback).

Frenet data splits into five cases: timelike curves, spacelike curves with
spacelike / timelike / lightlike normal, and lightlike curves.  Curvature
exists except in the two null-normal cases.  Frame conventions:

  timelike            <T,T>=-1, N=T'/k spacelike, B=TxN spacelike
  spacelike, N space  <T,T>=1,  N=T'/k spacelike, B=TxN timelike
  spacelike, N time   <T,T>=1,  N=T'/k timelike,  B=TxN spacelike
  spacelike, N null   N=T' lightlike, B lightlike, <N,B>=1, <T,B>=0
  lightlike           T lightlike, N=alpha'' unit spacelike, B lightlike,
                      <N,B>=0, <T,B>=1

The pairing for the last case is the unique one consistent with the
derivative system T'=N, N'=tau T - B, B'=-tau N.

Torsion needs no derivative of the frame: since <N,B> = 0 in every case,
tau = <alpha''', B> / kappa (sign flipped for spacelike normal, and no
division by kappa when N = alpha'' is not normalized), so `frenet` evaluates
one frame per point and is as accurate as the jet's third derivative.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    REL_TOL,
    AmbiguousCaseError,
    CausalClass,
    CausalTypeError,
    GeometryError,
    as_vec3,
    causal_class,
    hyperbolic_angle,
    write_csv,
)
from .core import _causal3, _cross3, _dot3, _edot3, _null3, _parallel3, _squares3

__all__ = [
    "CurveJet",
    "FrenetCase",
    "FrenetFrame",
    "PlaneCase",
    "BertrandFit",
    "classify_curve",
    "reparam_arclength",
    "reparam_pseudo_arclength",
    "frenet",
    "curvature_torsion_general",
    "generate_constant_curvature",
    "theorem_angle_check",
    "is_helix",
    "bertrand_fit",
    "export_curve_csv",
]

#: relative tolerance for deciding the causal case of T' in `frenet`
CASE_TOL = 1e-9


class CurveJet:
    """A curve with evaluators for alpha, alpha', alpha'', alpha'''.

    Missing derivative callbacks are replaced by central finite differences
    of step `h_fd` (default 1e-4 times the domain length); the third
    derivative uses a Richardson-extrapolated stencil, one-sided within
    2 h_fd of a domain end.  Evaluators must be
    re-entrant; everything here is a pure closure over them.
    """

    def __init__(self, x, dx=None, ddx=None, dddx=None,
                 domain=(0.0, 1.0), h_fd: float | None = None):
        t0, t1 = float(domain[0]), float(domain[1])
        if not t1 > t0:
            raise GeometryError("domain must be a nondegenerate interval")
        self.domain = (t0, t1)
        self.h_fd = float(h_fd) if h_fd is not None else 1e-4 * (t1 - t0)
        self._x = x
        h = self.h_fd
        if dx is None:
            dx = lambda t: (self.position(t + h) - self.position(t - h)) / (2 * h)
        if ddx is None:
            ddx = lambda t: (
                self.position(t + h) - 2 * self.position(t) + self.position(t - h)
            ) / (h * h)
        if dddx is None:
            def dddx(t, _d2=ddx):
                # Richardson extrapolation of the central difference of alpha'';
                # within 2h of a domain end the fourth-order one-sided
                # difference, so a reparametrized jet, whose map clamps s to
                # the domain, is not sampled past its end
                if t0 + 2 * h <= t <= t1 - 2 * h:
                    d_h = (_d2(t + h) - _d2(t - h)) / (2 * h)
                    d_2h = (_d2(t + 2 * h) - _d2(t - 2 * h)) / (4 * h)
                    return (4.0 * d_h - d_2h) / 3.0
                k = -h if t + 2 * h > t1 else h
                f = [_d2(t + i * k) for i in range(5)]
                return (48 * f[1] - 25 * f[0] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * k)
        self._dx, self._ddx, self._dddx = dx, ddx, dddx

    def position(self, t: float) -> np.ndarray:
        return as_vec3(self._x(t))

    def velocity(self, t: float) -> np.ndarray:
        return as_vec3(self._dx(t))

    def acceleration(self, t: float) -> np.ndarray:
        return as_vec3(self._ddx(t))

    def jerk(self, t: float) -> np.ndarray:
        return as_vec3(self._dddx(t))

    def transformed(self, motion) -> "CurveJet":
        """Image of the curve under a rigid motion (linear part + translation)."""
        a, b = motion.linear, motion.translation
        return CurveJet(
            lambda t: a @ self.position(t) + b,
            lambda t: a @ self.velocity(t),
            lambda t: a @ self.acceleration(t),
            lambda t: a @ self.jerk(t),
            domain=self.domain,
            h_fd=self.h_fd,
        )


class FrenetCase(Enum):
    TIMELIKE = "timelike"
    SPACELIKE_SP_N = "spacelike, spacelike normal"
    SPACELIKE_TL_N = "spacelike, timelike normal"
    SPACELIKE_LL_N = "spacelike, lightlike normal"
    LIGHTLIKE = "lightlike"


@dataclass(frozen=True)
class FrenetFrame:
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    case: FrenetCase
    kappa: Optional[float]  # None in the two null-normal cases
    tau: float


def classify_curve(jet: CurveJet, t: float) -> CausalClass:
    """Causal character of the curve at t = causal character of alpha'(t)."""
    return causal_class(jet.velocity(t))


def _check_constant_class(jet: CurveJet, expected) -> None:
    ts = np.linspace(jet.domain[0], jet.domain[1], 129)
    for t in ts:
        c = causal_class(jet.velocity(t))
        if c not in expected:
            raise CausalTypeError(
                f"causal type changes within the requested span: {c} at t={t:g}"
            )


def _check_t0(jet: CurveJet, t0: float) -> None:
    t_lo, t_hi = jet.domain
    if not t_lo <= t0 <= t_hi:
        raise GeometryError(f"t0 = {t0:g} lies outside the domain [{t_lo:g}, {t_hi:g}]")


#: panels on each side of t0, and first-kind Chebyshev points per panel
_PANELS, _NODES = 8, 16
#: a panel is halved while the last two coefficients of s exceed this
#: fraction of its length, up to _MAX_PANELS panels (at most 3840 rate calls)
_TAIL_TOL, _MAX_PANELS = 1e-12, 128
#: cap on the safeguarded Newton steps of one inversion
_NEWTON_MAX = 60
_THETA = np.pi * (np.arange(_NODES) + 0.5) / _NODES
#: samples at cos(_THETA) -> Chebyshev coefficients of their interpolant (DCT-II)
_TO_COEF = (2.0 / _NODES) * np.cos(np.outer(np.arange(_NODES), _THETA))
_TO_COEF[0] /= 2.0
#: coefficients -> those of the integral from -1, one degree higher:
#: int T_0 = T_1, int T_k = T_(k+1) / 2(k+1) - T_(k-1) / 2(k-1) (the second
#: term absent for k = 1), then the constant that makes it vanish at x = -1
_INTEGRATE = np.zeros((_NODES + 1, _NODES))
_K = np.arange(_NODES)
_INTEGRATE[_K + 1, _K] = np.where(_K == 0, 1.0, 0.5 / (_K + 1))
_INTEGRATE[_K[1:-1], _K[2:]] = -0.5 / _K[1:-1]
_INTEGRATE[0] = -((-1.0) ** (_K + 1)) @ _INTEGRATE[1:]


def _clenshaw(c: list, x: float) -> float:
    """sum_k c[k] T_k(x) on Python floats."""
    b1 = b2 = 0.0
    x2 = x + x
    for ck in c[:0:-1]:
        b1, b2 = ck + x2 * b1 - b2, b1
    return c[0] + x * b1 - b2


def _chebyshev_panels(rate: Callable[[float], float], edges) -> list:
    """(t_a, half-width, ds/dx coefficients, s coefficients) per panel, sorted.

    Each panel [t_a, t_b] between `edges` samples rate at the `_NODES`
    first-kind Chebyshev points and integrates the interpolant from t_a, in
    x = (t - t_a) / half - 1.  A panel whose last two coefficients of s are
    not negligible against its length is halved and sampled again, until
    there are `_MAX_PANELS` panels in all.
    """
    panels = []
    todo = list(zip(edges[:-1], edges[1:]))
    while todo:
        ends = np.array(todo)
        half = 0.5 * (ends[:, 1] - ends[:, 0])
        nodes = ends[:, :1] + half[:, None] * (np.cos(_THETA) + 1.0)
        coef = half[:, None] * (np.array([[rate(t) for t in row] for row in nodes.tolist()]) @ _TO_COEF.T)
        icoef = coef @ _INTEGRATE.T
        split = np.abs(icoef[:, -2:]).sum(axis=1) > _TAIL_TOL * np.abs(icoef.sum(axis=1))
        if len(panels) + len(todo) + split.sum() > _MAX_PANELS:
            split[:] = False
        rows = zip(todo, half.tolist(), coef.tolist(), icoef.tolist(), split.tolist())
        todo = []
        for (t_a, t_b), h, c, ic, halve in rows:
            if halve:
                todo += [(t_a, t_a + h), (t_a + h, t_b)]
            else:
                panels.append((t_a, h, c, ic))
    return sorted(panels)


def _monotone_map(rate: Callable[[float], float], t0: float, domain):
    """s(t) = int_t0^t rate with rate > 0, and its inverse; return (s_lo, s_hi, t_of_s).

    Each side of t0 is split into `_PANELS` equal panels, and s(t) is the
    integral of the rate's interpolant at 16 first-kind Chebyshev points of
    each panel (Trefethen, ATAP, ch. 2-3 and 19): a polynomial of degree 16
    per panel, from 256 rate calls on a smooth rate.  `_chebyshev_panels`
    halves a panel where that is not enough.  `t_of_s` clamps s to
    [s_lo, s_hi], finds the panel by bisection on the table of panel-end
    lengths, and runs Newton on the panel variable from the linear guess,
    with s and ds/dx from Clenshaw sums on Python floats and a bisection
    bracket as safeguard: a query calls no rate.  The last (s, t) pair is
    kept, since `frenet` asks for three derivatives at one s; 0.0 and -0.0
    may share it, as both give t0 itself.

    On an analytic rate the error is that of the interpolant.  For the
    parabola (t, ct^2, 0) on (-1, 1), whose speed has branch points 1/(2c)
    from the real axis, |s(t(s)) - s| is below 5e-16 at c = 0.5 and 2 against
    the closed form, where an RK45 solve at rtol 1e-12 was off by 1.9e-11 and
    8.4e-11.  Halving keeps it at 1.7e-16 of the length up to c = 500.
    """
    t_lo, t_hi = domain
    edges = np.concatenate([np.linspace(t_lo, t0, _PANELS + 1)[:-1] if t_lo < t0 else [],
                            np.linspace(t0, t_hi, _PANELS + 1) if t_hi > t0 else [t0]])
    panels = _chebyshev_panels(rate, edges.tolist())
    # s at the panel ends, accumulated outward from s(t0) = 0 on each side
    lengths = np.array([p[3] for p in panels]).sum(axis=1)
    n_lo = sum(p[0] < t0 for p in panels)
    s_edges = np.concatenate([-np.cumsum(lengths[:n_lo][::-1])[::-1], [0.0], np.cumsum(lengths[n_lo:])])
    s_lo, s_hi = float(s_edges[0]), float(s_edges[-1])
    s_ends = s_edges.tolist()
    table = [(s_a, width, *p) for s_a, width, p in zip(s_ends, np.diff(s_edges).tolist(), panels)]

    def invert(s: float) -> float:
        if s == 0.0:
            return t0
        s_a, width, t_a, t_half, dcoef, scoef = table[min(bisect_right(s_ends, s), len(table)) - 1]
        if not width:  # a panel of zero length: t0 within rounding of a domain end
            return t_a
        target = s - s_a
        x, lo, hi = min(max(2.0 * target / width - 1.0, -1.0), 1.0), -1.0, 1.0
        for _ in range(_NEWTON_MAX):
            f = _clenshaw(scoef, x) - target
            if f > 0:
                hi = x
            else:
                lo = x
            d = _clenshaw(dcoef, x)
            # a step that leaves the bracket [lo, hi] becomes bisection
            x_new = x - f / d if d > 0 else hi + 1.0
            if not lo <= x_new <= hi:
                x_new = 0.5 * (lo + hi)
            x, dx = x_new, x_new - x
            if abs(dx) <= 1e-15:
                break
        return t_a + t_half * (x + 1.0)

    last = [None, t0]

    def t_of_s(s: float) -> float:
        s = float(s)
        if s != last[0]:
            last[:] = s, invert(min(max(s, s_lo), s_hi))
        return last[1]

    return s_lo, s_hi, t_of_s


def _norm(x: list) -> float:
    """sqrt(|<x,x>|) of three Python floats; GeometryError when |x|^2 overflows."""
    return math.sqrt(abs(_squares3(x)[0]))


#: speeds |alpha'| at which the arc-length chain rule, with powers up to
#: |alpha'|^5 and |alpha'|^-3, stays in the normal float range
_SPEED_MIN, _SPEED_MAX = 1e-60, 1e60


def reparam_arclength(jet: CurveJet, t0: float) -> CurveJet:
    """Arc-length reparametrization of a (strictly) spacelike or timelike curve.

    The returned jet beta satisfies |<beta', beta'>| = 1, with beta(0) the
    original point alpha(t0).  The unit-speed identity holds to rounding:
    the chain-rule factors are evaluated analytically at the inverted
    parameter, so errors in the inversion only slide along the curve.
    t0 must lie in the closed domain.  The derivatives of beta raise
    GeometryError where |alpha'| leaves [1e-60, 1e60].
    """
    _check_t0(jet, t0)
    c0 = classify_curve(jet, t0)
    if c0 is CausalClass.LIGHTLIKE:
        raise CausalTypeError("arc length needs a spacelike or timelike curve")
    _check_constant_class(jet, {c0})
    eps = 1.0 if c0 is CausalClass.SPACELIKE else -1.0

    def speed(t: float) -> float:
        return _norm(jet.velocity(t).tolist())

    s_lo, s_hi, t_of_s = _monotone_map(speed, t0, jet.domain)

    def chain_speed(vel: list) -> float:
        v = _norm(vel)
        if not _SPEED_MIN <= v <= _SPEED_MAX:
            raise GeometryError(f"|alpha'| = {v:.3g} lies outside [{_SPEED_MIN:g}, {_SPEED_MAX:g}], "
                                "where the arc-length chain rule stays in the float range")
        return v

    def speed_rates(t: float):
        """alpha' and alpha'' as lists, |alpha'| and d|alpha'|/dt at t, each
        derivative evaluated once."""
        vel, acc = jet.velocity(t).tolist(), jet.acceleration(t).tolist()
        v = chain_speed(vel)
        # d|alpha'|/dt = eps <alpha'', alpha'> / |alpha'|
        return vel, acc, v, eps * _dot3(acc, vel) / v

    def beta(s):
        return jet.position(t_of_s(s))

    def dbeta(s):
        vel = jet.velocity(t_of_s(s)).tolist()
        v = chain_speed(vel)
        return [x / v for x in vel]

    def ddbeta(s):
        vel, acc, v, vd = speed_rates(t_of_s(s))
        # alpha'' along alpha' puts beta'' along beta', Lorentz-orthogonal to it: zero
        if _parallel3(_edot3(vel, acc), _edot3(vel, vel), _edot3(acc, acc)):
            return [0.0, 0.0, 0.0]
        tp = 1.0 / v
        tpp = -vd / v ** 3
        return [a * tp * tp + x * tpp for a, x in zip(acc, vel)]

    def dddbeta(s):
        t = t_of_s(s)
        vel, acc, v, vd = speed_rates(t)
        jerk = jet.jerk(t).tolist()
        vdd = eps * (_dot3(jerk, vel) + _dot3(acc, acc)) / v - vd * vd / v
        tp = 1.0 / v
        tpp = -vd / v ** 3
        tppp = -vdd / v ** 4 + 3.0 * vd * vd / v ** 5
        tp3 = tp ** 3
        return [j * tp3 + 3.0 * a * tp * tpp + x * tppp for j, a, x in zip(jerk, acc, vel)]

    return CurveJet(beta, dbeta, ddbeta, dddbeta, domain=(s_lo, s_hi), h_fd=jet.h_fd)


def reparam_pseudo_arclength(jet: CurveJet, t0: float) -> CurveJet:
    """Pseudo-arc-length reparametrization of a lightlike curve.

    Normalizes |beta''| = 1 by solving phi'(s) = |alpha''(phi)|^(-1/2).
    Requires alpha'' spacelike and nonzero along the span.  The lightlike
    acceptance tolerance widens with (h_fd / domain length)^2 so that
    position-only jets, whose derivative products carry stencil noise, are
    still accepted; it has no units, so a long domain does not widen it.
    t0 must lie in the closed domain.  beta''' is a Richardson stencil with
    a step in s units, CurveJet's default.
    """
    _check_t0(jet, t0)
    t_lo, t_hi = jet.domain
    light_tol = 1e-9 + 100.0 * (jet.h_fd / (t_hi - t_lo)) ** 2
    ts = np.linspace(jet.domain[0], jet.domain[1], 65)
    for t in ts:
        q, e = _squares3(jet.velocity(t).tolist())
        if abs(q) > light_tol * e:
            raise CausalTypeError(
                f"curve is not lightlike at t={t:g} (<a',a'> = {q:.3e})"
            )
        q, e = _squares3(jet.acceleration(t).tolist())
        # a subnormal |alpha''|^2 has lost the digits the chain rule needs
        if e < sys.float_info.min or _causal3(q, e) is not CausalClass.SPACELIKE:
            raise GeometryError("alpha'' must be spacelike, with |alpha''|^2 a normal float, "
                                "for pseudo-arc length")

    def w(t: float) -> float:
        return _norm(jet.acceleration(t).tolist())

    s_lo, s_hi, t_of_s = _monotone_map(lambda t: math.sqrt(w(t)), t0, jet.domain)

    def beta(s):
        return jet.position(t_of_s(s))

    def dbeta(s):
        t = t_of_s(s)
        r = math.sqrt(w(t))
        return [x / r for x in jet.velocity(t).tolist()]

    def ddbeta(s):
        t = t_of_s(s)
        acc = jet.acceleration(t).tolist()
        wt = _norm(acc)
        pp = 1.0 / math.sqrt(wt)
        # dw/dt = <alpha''', alpha''> / w, with alpha'' evaluated once
        ppp = -0.5 * (_dot3(jet.jerk(t).tolist(), acc) / wt) / (wt * wt)
        # an array: the Richardson stencil for beta''' takes differences of it
        return np.array([a * pp * pp + x * ppp for a, x in zip(acc, jet.velocity(t).tolist())])

    return CurveJet(beta, dbeta, ddbeta, None, domain=(s_lo, s_hi))


def _null_partner(unit: list, null: list, null_sq: float, pair_with_null: bool) -> list:
    """The unique lightlike B with <B,null> = 1 that completes the frame;
    null_sq is |null|_euclid^2.

    pair_with_null=True : unit=T spacelike, null=N;   <B,B>=0, <B,T>=0, <B,N>=1
    pair_with_null=False: null=T lightlike, unit=N;   <B,B>=0, <B,N>=0, <B,T>=1

    On lists of Python floats; B keeps the c * 0.0 terms, which sign its zeros.
    """
    w = [0.0, 0.0, 1.0]  # <w, null> = -null_z, nonzero for null vectors
    d = _dot3(w, null)
    if abs(d) < 1e-14 * math.sqrt(null_sq):
        raise GeometryError("degenerate null direction")
    c = 1.0 / d
    if pair_with_null:
        t, n = unit, null
        a = -c * _dot3(w, t)
        b = -0.5 * (a * a + c * c * _dot3(w, w) + 2 * a * c * _dot3(t, w))
    else:
        t, n = null, unit
        b = -c * _dot3(w, n)
        a = -0.5 * (b * b + c * c * _dot3(w, w) + 2 * b * c * _dot3(n, w))
    return [a * ti + b * ni + c * wi for ti, ni, wi in zip(t, n, w)]


def _finite_array(v: list, name: str) -> np.ndarray:
    """A fresh array of three Python floats, or GeometryError when one is not finite."""
    if not all(map(math.isfinite, v)):
        raise GeometryError(f"{name} overflows: the Frenet frame is not finite")
    return np.array(v)


#: Frenet case of a spacelike curve, by the causal class of T'
_SPACELIKE_CASE = {
    CausalClass.SPACELIKE: FrenetCase.SPACELIKE_SP_N,
    CausalClass.TIMELIKE: FrenetCase.SPACELIKE_TL_N,
    CausalClass.LIGHTLIKE: FrenetCase.SPACELIKE_LL_N,
}


def _frame_at(jet: CurveJet, s: float):
    """Frame (T, N, B) and case at s, without torsion, on Python floats: one
    `tolist()` per jet value, then the formulas of `core` on those triples.
    T, and N in the null-normal cases, are the jet's arrays."""
    t_vec = jet.velocity(s)
    t = t_vec.tolist()
    q, e = _squares3(t)
    if _null3(q, e):
        n_vec = jet.acceleration(s)
        n = n_vec.tolist()
        if abs(_squares3(n, "N")[0] - 1.0) > 1e-6:
            if REL_TOL * e >= 1.0:
                # the band holds <T,T> = +-1 too: T may be unit, not lightlike
                raise GeometryError(f"causal type of T not resolved: the null band "
                                    f"REL_TOL*|T|^2 = {REL_TOL * e:.3g} holds <T,T> = +-1")
            raise GeometryError("lightlike curve must be pseudo-arc-length parametrized")
        return t_vec, n_vec, _finite_array(_null_partner(n, t, e, False), "B"), FrenetCase.LIGHTLIKE, None
    if abs(abs(q) - 1.0) > 1e-6:
        raise GeometryError("curve must be arc-length parametrized (|<T,T>| = 1)")
    tp_vec = jet.acceleration(s)
    tp = tp_vec.tolist()
    qp, ep = _squares3(tp, "T'")
    if _parallel3(_edot3(t, tp), e, ep):
        raise GeometryError("T' vanishes: straight line, no Frenet frame")
    # T is timelike iff q < 0 here, and T' of a timelike curve is always spacelike
    case = FrenetCase.TIMELIKE if q < 0 else _SPACELIKE_CASE[_causal3(qp, ep)]
    # outside the null band, T' within CASE_TOL |T'|^2 of the cone is ambiguous
    if q > 0 and case is not FrenetCase.SPACELIKE_LL_N and abs(qp) <= CASE_TOL * ep:
        raise AmbiguousCaseError("T' sits within tolerance of the light cone; causal case is ambiguous")
    if case is FrenetCase.SPACELIKE_LL_N:
        return t_vec, tp_vec, _finite_array(_null_partner(t, tp, ep, True), "B"), case, None
    kappa = math.sqrt(abs(qp))
    if not kappa:
        raise GeometryError("T' is lightlike: no unit normal N = T'/kappa")
    n = [x / kappa for x in tp]
    b = _cross3(t, n)
    return t_vec, np.array(n), _finite_array(b, "B"), case, kappa  # B is finite only if N is


def frenet(jet: CurveJet, s: float) -> FrenetFrame:
    """Frenet frame, causal case, curvature and torsion at s.

    The jet must be arc-length parametrized (pseudo-arc-length for lightlike
    curves).  Torsion is read off the jet's third derivative in the one frame,
    tau = <alpha''', B> / kappa (no division in the null-normal cases), so
    its accuracy is that of the jet's `jerk` evaluator alone.  A frame or
    torsion that overflows raises GeometryError.
    """
    t_vec, n_vec, b_vec, case, kappa = _frame_at(jet, s)
    # <N',B> = tau in every case (see frenet_matrix) but the spacelike-normal
    # one, where B is timelike and N' = -kappa T + tau B gives <N',B> = -tau.
    # N is alpha''/kappa, or alpha'' itself in the null-normal cases, and
    # <N,B> = 0, so the kappa' part of N' drops out: <N',B> = <alpha''',B>/kappa
    tau = _dot3(jet.jerk(s).tolist(), b_vec.tolist())
    if kappa is not None:
        tau /= kappa
    if not math.isfinite(tau):
        raise GeometryError("torsion overflows: <alpha''', B> / kappa is not finite")
    if case is FrenetCase.SPACELIKE_SP_N:
        tau = -tau
    return FrenetFrame(t_vec, n_vec, b_vec, case, kappa, tau)


#: derivative system matrix per case, rows (T', N', B') in the frame basis
def frenet_matrix(case: FrenetCase, kappa: Optional[float], tau: float) -> np.ndarray:
    k = 0.0 if kappa is None else kappa
    if case is FrenetCase.TIMELIKE:
        return np.array([[0, k, 0], [k, 0, tau], [0, -tau, 0.0]])
    if case is FrenetCase.SPACELIKE_SP_N:
        return np.array([[0, k, 0], [-k, 0, tau], [0, tau, 0.0]])
    if case is FrenetCase.SPACELIKE_TL_N:
        return np.array([[0, k, 0], [k, 0, tau], [0, tau, 0.0]])
    if case is FrenetCase.SPACELIKE_LL_N:
        return np.array([[0, 1, 0], [0, tau, 0], [-1, 0, -tau]])
    return np.array([[0, 1, 0], [tau, 0, -1], [0, -tau, 0.0]])


def curvature_torsion_general(jet: CurveJet, t: float) -> tuple[float, float]:
    """Curvature and torsion of a timelike curve without reparametrizing:

        kappa = |a' x a''| / (-<a',a'>)^(3/2)
        tau   = det(a', a'', a''') / |a' x a''|^2 = <a' x a'', a'''> / |a' x a''|^2

    Straight pieces (a'' along a') return (0, 0); an underflowing <a' x a'',
    a' x a''> and a kappa above the float range raise GeometryError.  The
    torsion sign matches tau = <N', B>.
    """
    v, a = jet.velocity(t).tolist(), jet.acceleration(t).tolist()
    q, e = _squares3(v)
    if _causal3(q, e) is not CausalClass.TIMELIKE:
        raise CausalTypeError("the closed-form kappa/tau formulas assume a timelike curve")
    if _parallel3(_edot3(v, a), e, _squares3(a, "alpha''")[1]):
        return 0.0, 0.0
    cva = _cross3(v, a)
    cva_sq = _squares3(cva, "alpha' x alpha''")[0]
    if abs(cva_sq) < sys.float_info.min:
        raise GeometryError("alpha' x alpha'' underflows: its square is not a normal float")
    # not over (-q)^(3/2): alone, it overflows where kappa is finite, or underflows to 0
    kappa = math.sqrt(abs(cva_sq)) / -q / math.sqrt(-q)
    if kappa == math.inf:
        raise GeometryError("kappa overflows: |alpha' x alpha''| / (-<alpha',alpha'>)^(3/2) "
                            "is above the float range")
    tau = _dot3(cva, jet.jerk(t).tolist()) / abs(cva_sq)
    return kappa, tau


class PlaneCase(Enum):
    """Vector plane + causal type of the constant-curvature curve it carries."""

    SPACELIKE_PLANE = "spacelike plane"
    TIMELIKE_PLANE_SPACELIKE_CURVE = "timelike plane, spacelike curve"
    TIMELIKE_PLANE_TIMELIKE_CURVE = "timelike plane, timelike curve"
    LIGHTLIKE_PLANE = "lightlike plane"


def generate_constant_curvature(plane_case: PlaneCase, a: float, b: float = 0.0,
                                span: tuple[float, float] = (-1.0, 1.0)) -> CurveJet:
    """Unit-speed planar curve of constant curvature |a|.

    Circles in spacelike planes, hyperbola branches in timelike planes
    (one spacelike, one timelike curve), and the parabola in a lightlike
    plane, where `a` is the slope coefficient c of the spacelike ruling and
    no curvature is defined (null normal).
    """
    a = float(a)
    b = float(b)
    if plane_case is not PlaneCase.LIGHTLIKE_PLANE and a == 0.0:
        raise GeometryError("constant curvature a must be nonzero")
    if plane_case is PlaneCase.SPACELIKE_PLANE:
        r = 1.0 / a
        x = lambda s: np.array([r * np.cos(a * s + b), r * np.sin(a * s + b), 0.0])
        dx = lambda s: np.array([-np.sin(a * s + b), np.cos(a * s + b), 0.0])
        ddx = lambda s: np.array([-a * np.cos(a * s + b), -a * np.sin(a * s + b), 0.0])
        dddx = lambda s: np.array([a * a * np.sin(a * s + b), -a * a * np.cos(a * s + b), 0.0])
    elif plane_case is not PlaneCase.LIGHTLIKE_PLANE:
        # the two hyperbolas are one curve with y and z swapped
        spacelike = plane_case is PlaneCase.TIMELIKE_PLANE_SPACELIKE_CURVE
        f, g = (np.sinh, np.cosh) if spacelike else (np.cosh, np.sinh)
        r = 1.0 / a
        x = lambda s: np.array([0.0, r * f(a * s + b), r * g(a * s + b)])
        dx = lambda s: np.array([0.0, g(a * s + b), f(a * s + b)])
        ddx = lambda s: np.array([0.0, a * f(a * s + b), a * g(a * s + b)])
        dddx = lambda s: np.array([0.0, a * a * g(a * s + b), a * a * f(a * s + b)])
    else:
        c = a
        x = lambda s: np.array([s, c * s + 0.5 * s * s, c * s + 0.5 * s * s])
        dx = lambda s: np.array([1.0, c + s, c + s])
        ddx = lambda s: np.array([0.0, 1.0, 1.0])
        dddx = lambda s: np.zeros(3)
    return CurveJet(x, dx, ddx, dddx, domain=span)


def theorem_angle_check(jet: CurveJet, v, s: float) -> tuple[float, float]:
    """For a unit-speed timelike planar curve: curvature vs. turning rate.

    Returns (kappa(s), |phi'(s)|) where phi is the hyperbolic angle between
    T(s) and the fixed unit future timelike vector v of the same plane; the
    two agree for planar timelike curves.
    """
    v = as_vec3(v)
    vel, a = jet.velocity(s).tolist(), jet.acceleration(s).tolist()
    q, e = _squares3(vel)
    if _causal3(q, e) is not CausalClass.TIMELIKE:
        raise CausalTypeError("angle/curvature comparison is for timelike curves")
    if _parallel3(_edot3(vel, a), e, _edot3(a, a)):
        kappa = 0.0  # straight line: zero curvature, constant angle
    else:
        # T is timelike here, and frenet reads the same T: its case is TIMELIKE
        kappa = frenet(jet, s).kappa
    h = jet.h_fd

    def phi(u: float) -> float:
        return hyperbolic_angle(jet.velocity(u), v)

    dphi = (phi(s + h) - phi(s - h)) / (2 * h)
    return kappa, abs(float(dphi))


def is_helix(kappa_tau_samples) -> bool:
    """True iff tau/kappa is constant across the samples.

    Constancy means stdev(tau/kappa) / (1 + |mean|) <= 1e-6; curvature must
    be positive on every sample.
    """
    arr = np.asarray(kappa_tau_samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 2:
        raise GeometryError("need at least two (kappa, tau) samples")
    kappa, tau = arr[:, 0], arr[:, 1]
    if np.any(kappa <= 0):
        raise GeometryError("helix test requires kappa > 0 on all samples")
    ratio = tau / kappa
    return bool(np.std(ratio) / (1.0 + abs(float(np.mean(ratio)))) <= 1e-6)


class BertrandFit(NamedTuple):
    A: float
    B: float
    #: True when some nontrivial (A,B) also fits A*kappa + B*tau = 0,
    #: i.e. the samples lie on a line through the origin (a helix).
    helix_degenerate: bool


def bertrand_fit(kappa_tau_samples) -> Optional[BertrandFit]:
    """Least-squares constants with A*kappa_i + B*tau_i = 1, or None.

    Returns the minimum-norm solution when the fit is underdetermined
    (e.g. constant kappa, tau).  The fit is accepted only if the maximum
    residual |A*kappa_i + B*tau_i - 1| is at most 1e-6.
    """
    arr = np.asarray(kappa_tau_samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 3:
        raise GeometryError("need at least three (kappa, tau) samples")
    rhs = np.ones(len(arr))
    sol, _res, _rank, sv = np.linalg.lstsq(arr, rhs, rcond=None)
    resid = arr @ sol - rhs
    if float(np.max(np.abs(resid))) > 1e-6:
        return None
    helix = bool(sv[-1] <= 1e-9 * max(sv[0], 1e-300))
    return BertrandFit(float(sol[0]), float(sol[1]), helix)


def export_curve_csv(jet: CurveJet, ts, path, kappa_tau=None) -> None:
    """Write a polyline CSV with columns t,x,y,z[,kappa,tau]; a missing kappa is nan."""
    ts = np.asarray(ts, dtype=float)
    pos = np.empty((len(ts), 3))
    for i, t in enumerate(ts):
        pos[i] = jet.position(t)
    cols, header = [ts, pos], "t,x,y,z"
    if kappa_tau is not None:
        cols.append(np.reshape([(np.nan if k is None else k, tau) for k, tau in kappa_tau],
                               (len(ts), 2)))
        header += ",kappa,tau"
    write_csv(path, header, np.column_stack(cols))
