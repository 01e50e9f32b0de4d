"""Parametrized surface patches: fundamental forms, curvature, umbilics.

A `SurfaceChart` packages evaluators X, X_u, X_v, X_uu, X_uv, X_vv over a
parameter rectangle (closed form, or finite differences of X).  Points are
non-degenerate when EG - F^2 != 0; the sign decides spacelike (> 0) versus
timelike (< 0).

Orientation conventions, pinned by the catalog surfaces:

* spacelike charts: the unit normal is re-signed to be future-directed, so
  the hyperbolic plane of radius r measures H = +1/r, K = -1/r^2;
* timelike charts: the normal is X_u x X_v / |X_u x X_v| as computed (no
  global choice exists); the catalog de Sitter chart is parametrized so it
  measures H = +1/r, K = +1/r^2, and the null-scroll chart so H equals the
  base curve's torsion.

Shape operator A = I^(-1) II.  For spacelike points H = -trace(A)/2 and
K = -det(A); for timelike points the determinant formula flips sign and the
trace formula follows the normal convention above (H = +trace(A)/2).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    REL_TOL,
    CausalClass,
    CausalTypeError,
    GeometryError,
    _causal3,
    _cross3,
    _dot3,
    _edot3,
    _null3,
    _squares3,
    as_vec3,
    lorentz_dot,
)
from .curves import CurveJet, FrenetCase, _frame_at, frenet

__all__ = [
    "SurfaceChart",
    "CurvatureData",
    "CurvatureBatch",
    "SurfaceKind",
    "SurfaceKindTag",
    "first_form",
    "gauss_map",
    "second_form",
    "shape_and_curvatures",
    "classify_totally_umbilical",
    "mean_curvature_foliated",
    "laplace_beltrami",
    "laplace_beltrami_grid",
    "plane_chart",
    "hyperbolic_plane_chart",
    "de_sitter_chart",
    "light_cone_chart",
    "graph_chart",
    "null_scroll_chart",
]

#: umbilicity tolerance: H^2 + K <= UMBILIC_TOL * (1 + H^2) on spacelike points
UMBILIC_TOL = 1e-8

#: tolerance on the fitted data of `classify_totally_umbilical`
UMBILIC_FIT_TOL = 1e-6

_EYE2 = np.eye(2)


def _memo_exact(fn):
    """`fn` of one float, memoized on the float's bits.

    A cache keyed by value would let 0.0 and -0.0, which compare equal but
    can give different results, share one entry, so the answer at either
    would depend on which was asked first.  The key is the bits alone, so x
    need not be hashable (a 0-d array will do), and `fn` gets the caller's
    own x.  Every caller gets the same result object and must not mutate it.
    """
    cache = {}

    def memo(x):
        key = struct.pack("d", x)
        try:
            return cache[key]
        except KeyError:
            pass
        if len(cache) >= 4096:
            cache.clear()
        value = cache[key] = fn(x)
        return value

    return memo


def _difference_partials(f, h: float):
    """Central differences (f_u, f_v, f_uu, f_uv, f_vv) of f(u, v) with step h."""
    return (
        lambda u, v: (f(u + h, v) - f(u - h, v)) / (2 * h),
        lambda u, v: (f(u, v + h) - f(u, v - h)) / (2 * h),
        lambda u, v: (f(u + h, v) - 2 * f(u, v) + f(u - h, v)) / (h * h),
        lambda u, v: (
            f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h) + f(u - h, v - h)
        ) / (4 * h * h),
        lambda u, v: (f(u, v + h) - 2 * f(u, v) + f(u, v - h)) / (h * h),
    )


class SurfaceChart:
    """A surface patch (u, v) -> X(u, v) with first and second partials.

    Partials not supplied in closed form fall back to central finite
    differences of step `h_fd` (default 1e-4 of the larger rectangle side).
    Evaluators must be re-entrant.
    """

    def __init__(self, x, xu=None, xv=None, xuu=None, xuv=None, xvv=None,
                 domain=((0.0, 1.0), (0.0, 1.0)), h_fd: float | None = None):
        (u0, u1), (v0, v1) = domain
        if not (u1 > u0 and v1 > v0):
            raise GeometryError("parameter rectangle must be nondegenerate")
        self.domain = ((float(u0), float(u1)), (float(v0), float(v1)))
        self.h_fd = float(h_fd) if h_fd is not None else 1e-4 * max(u1 - u0, v1 - v0)
        self._x = x
        # `position` is looked up at each call, so a method replaced on the class is differenced
        diffs = _difference_partials(lambda u, v: self.position(u, v), self.h_fd)
        self._xu, self._xv, self._xuu, self._xuv, self._xvv = (
            d if p is None else p for p, d in zip((xu, xv, xuu, xuv, xvv), diffs))

    def position(self, u, v):
        return as_vec3(self._x(u, v))

    def du(self, u, v):
        return as_vec3(self._xu(u, v))

    def dv(self, u, v):
        return as_vec3(self._xv(u, v))

    def duu(self, u, v):
        return as_vec3(self._xuu(u, v))

    def duv(self, u, v):
        return as_vec3(self._xuv(u, v))

    def dvv(self, u, v):
        return as_vec3(self._xvv(u, v))

    def grid(self, nu: int, nv: int):
        (u0, u1), (v0, v1) = self.domain
        return np.linspace(u0, u1, nu), np.linspace(v0, v1, nv)

    def transformed(self, motion) -> "SurfaceChart":
        """Image chart under a rigid motion; partials transform linearly."""
        a, b = motion.linear, motion.translation
        return SurfaceChart(
            lambda u, v: a @ self.position(u, v) + b,
            lambda u, v: a @ self.du(u, v),
            lambda u, v: a @ self.dv(u, v),
            lambda u, v: a @ self.duu(u, v),
            lambda u, v: a @ self.duv(u, v),
            lambda u, v: a @ self.dvv(u, v),
            domain=self.domain,
            h_fd=self.h_fd,
        )


@dataclass(frozen=True)
class CurvatureData:
    H: float
    K: float
    shape_matrix: np.ndarray
    principal: Optional[tuple[float, float]]
    diagonalizable: bool
    umbilic: bool
    causal: CausalClass


@dataclass(frozen=True)
class CurvatureBatch:
    """Curvature data of n chart points, each field stacked along axis 0.

    `principal` is (n, 2) and NaN where the shape operator does not
    diagonalize; `spacelike` is False at timelike points.  `point(k)` is
    the `CurvatureData` of point k.
    """

    H: np.ndarray
    K: np.ndarray
    shape_matrix: np.ndarray
    principal: np.ndarray
    diagonalizable: np.ndarray
    umbilic: np.ndarray
    spacelike: np.ndarray

    def point(self, k: int) -> CurvatureData:
        principal = None
        if self.diagonalizable[k]:
            principal = (float(self.principal[k, 0]), float(self.principal[k, 1]))
        causal = CausalClass.SPACELIKE if self.spacelike[k] else CausalClass.TIMELIKE
        return CurvatureData(float(self.H[k]), float(self.K[k]), self.shape_matrix[k], principal,
                             bool(self.diagonalizable[k]), bool(self.umbilic[k]), causal)


# ---------------------------------------------------------------------------
# The curvature kernel.  Every function below takes 1-D arrays (us, vs) of
# parameter points, calls the scalar evaluators once per point and partial,
# and does the algebra on the stacked (n, 3) values.  The public functions
# take a point as a batch of one, or 1-D arrays broadcast together, save one
# float path: `shape_and_curvatures` at a point runs `_point_curvatures` on
# Python floats, as the profile checks call it point by point (33-65 us a
# point there, 260-460 us as a batch of one, on a Xeon core).  It makes five
# evaluator calls; the batch makes seven, reading X_u and X_v again for its
# normal only for perfbench's ten calls per mesh vertex.  Each metric formula
# is written once, in `core`, on coordinate triples, and the first form once,
# in `_first_terms`; both paths call them and one 2x2 `np.linalg.solve`, and
# the batch keeps no step that Python floats round differently (`np.vecdot`,
# `np.linalg.det`, `np.linalg.eigvals`), so they give the same bits.  At its
# first value that is not finite or not one 3-vector, a point goes to the
# batch of one, whose numpy arithmetic warns or raises as np.errstate says.


def _batch(u, v):
    """(us, vs, scalar): the parameters as 1-D float arrays of equal length."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim == 0 and v.ndim == 0:
        return u.reshape(1), v.reshape(1), True
    us, vs = np.broadcast_arrays(np.atleast_1d(u), np.atleast_1d(v))
    if us.ndim != 1:
        raise GeometryError("chart parameters must be scalars or 1-D arrays")
    return us, vs, False


def _values(evaluate, us, vs) -> np.ndarray:
    """One scalar evaluator call per point, stacked to shape (n, 3)."""
    return np.array([evaluate(u, v) for u, v in zip(us, vs)], dtype=float).reshape(len(us), 3)


def _not_immersed(u, v) -> GeometryError:
    return GeometryError(f"chart is not an immersion at (u,v)=({u:g},{v:g})")


def _first_terms(xu, xv):
    """(Euclidean Gram determinant, E, F, G, W = EG - F^2, immersion
    tolerance) of the coordinate triples X_u and X_v.  A point is classified
    as its tangent plane: the normal n = X_u x X_v has <n,n> = -W and
    |n|^2 = gram, so the point is lightlike where `_null3(W, gram)`."""
    uu, uv, vv = _edot3(xu, xu), _edot3(xu, xv), _edot3(xv, xv)
    gram = uu * vv - uv * uv
    E, F, G = _dot3(xu, xu), _dot3(xu, xv), _dot3(xv, xv)
    return gram, E, F, G, E * G - F * F, REL_TOL * (uu * vv)


def _first_coeffs(chart: SurfaceChart, us, vs, lightlike: Optional[str] = None):
    """X_u, X_v, E, F, G, W = EG - F^2 and the Euclidean Gram determinant at
    every point.

    Raises at the first point, in input order, that is not an immersion
    (GeometryError) or, when a `lightlike` message is given, that is
    lightlike (CausalTypeError).
    """
    xu = _values(chart.du, us, vs)
    xv = _values(chart.dv, us, vs)
    # immersion check with the Euclidean Gram determinant
    gram, E, F, G, w, flat_tol = _first_terms(xu.T, xv.T)
    flat = gram <= flat_tol
    bad = flat | _null3(w, gram) if lightlike else flat
    if bad.any():
        k = int(np.argmax(bad))
        if flat[k]:
            raise _not_immersed(us[k], vs[k])
        raise CausalTypeError(lightlike)
    return xu, xv, E, F, G, w, gram


def _point_value(evaluate, u, v):
    """One evaluator call as a list of three Python floats, or None when the
    value is not one 3-vector."""
    x = np.asarray(evaluate(u, v), dtype=float)
    return x.tolist() if x.shape == (3,) else None


def _unit_normals(chart: SurfaceChart, us, vs, lightlike: str) -> np.ndarray:
    xu, xv, _, _, _, w, _ = _first_coeffs(chart, us, vs, lightlike)
    n = _cross3(xu.T, xv.T)
    n = np.stack(n, axis=-1) / np.sqrt(np.abs(_dot3(n, n)))[:, None]  # lorentz_norm
    # future-directed on spacelike points
    return n * np.where((w > 0) & (n[:, 2] < 0), -1.0, 1.0)[:, None]


def _second_coeffs(chart: SurfaceChart, us, vs):
    n = _unit_normals(chart, us, vs, "no unit normal at a lightlike point")
    e, f, g = (_dot3(n.T, _values(d, us, vs).T) for d in (chart.duu, chart.duv, chart.dvv))
    return e, f, g


def _half_gap_sq(a: np.ndarray) -> np.ndarray:
    """d^2 + a12 a21 with d = (a11 - a22)/2, for a stack of 2x2 matrices:
    the square of half the gap between their eigenvalues."""
    d = (a[:, 0, 0] - a[:, 1, 1]) / 2
    return d * d + a[:, 0, 1] * a[:, 1, 0]


def _curvatures(chart: SurfaceChart, us, vs) -> CurvatureBatch:
    _, _, E, F, G, w, _ = _first_coeffs(
        chart, us, vs, "curvature data undefined at a lightlike point")
    # the normal reads X_u and X_v again, as second_form does on its own, only
    # because perfbench asserts ten evaluator calls per mesh vertex
    e, f, g = _second_coeffs(chart, us, vs)
    imat = np.array([E, F, F, G]).T.reshape(-1, 2, 2)
    iimat = np.array([e, f, f, g]).T.reshape(-1, 2, 2)
    a = np.linalg.solve(imat, iimat)
    tr = (e * G - 2 * f * F + g * E) / w
    det = (e * g - f * f) / w
    space = w > 0
    sign = np.where(space, -1.0, 1.0)
    half = 0.5 * tr
    # where the trace overflows but A is finite, half of A's trace with
    # each term halved before the sum
    finite = np.isfinite(a).all(axis=(1, 2))
    tr_over = finite & ~np.isfinite(tr)
    half[tr_over] = 0.5 * a[tr_over, 0, 0] + 0.5 * a[tr_over, 1, 1]
    H = sign * half
    K = sign * det
    gap = H * H + K
    umbilic = np.isfinite(gap) & (gap <= UMBILIC_TOL * (1.0 + H * H))
    # H^2 + K is the squared half-gap of A's eigenvalues; where it overflows
    # but A is finite, the test is taken of A scaled by its largest entry m
    over = space & finite & ~np.isfinite(gap)
    m = np.abs(a[over]).reshape(-1, 4).max(axis=1)
    umbilic[over] = (_half_gap_sq(a[over] / m[:, None, None])
                     <= UMBILIC_TOL * ((1.0 / m) ** 2 + (half[over] / m) ** 2))
    # A is self-adjoint for a definite first form, so spacelike spectra are
    # real; an A that is not finite has no spectrum and is not diagonalizable
    real = space & finite
    scalar = np.zeros_like(space)
    principal = np.full((len(us), 2), np.nan)
    timelike = ~space
    if timelike.any():
        at, ht = a[timelike], half[timelike]
        quarter = 0.25 * tr[timelike] * tr[timelike]
        over = tr_over[timelike]
        quarter[over] = ht[over] * ht[over]
        disc = quarter - det[timelike]  # discriminant of A's characteristic polynomial
        hscale = 1.0 + quarter
        ascale = 1.0 + np.abs(at).reshape(-1, 4).max(axis=1)
        umbilic[timelike] = (np.abs(at - ht[:, None, None] * _EYE2).reshape(-1, 4).max(axis=1)
                         <= UMBILIC_TOL * ascale)
        real[timelike] = (disc > UMBILIC_TOL * hscale) & finite[timelike]
        # a repeated eigenvalue is diagonalizable only when A is scalar
        repeated = ~real[timelike] & ~(disc < -UMBILIC_TOL * hscale)
        offdiag = np.maximum(np.abs(at[:, 0, 1]), np.abs(at[:, 1, 0]))
        scalar[timelike] = repeated & (offdiag <= UMBILIC_TOL * ascale) & finite[timelike]
        principal[scalar] = half[scalar, None]
    if real.any():
        # eigenvalues half -+ sqrt(d^2 + a12 a21) of the 2x2 shape matrix;
        # where that sum overflows, the root is taken of the entries scaled
        # by their largest magnitude
        ar, hr = a[real], half[real]
        rad = _half_gap_sq(ar)
        big = ~np.isfinite(rad)
        m = np.abs(ar[big]).reshape(-1, 4).max(axis=1)
        rad[big] = _half_gap_sq(ar[big] / m[:, None, None])
        root = np.sqrt(np.maximum(rad, 0.0))
        root[big] *= m
        principal[real, 0] = hr - root
        principal[real, 1] = hr + root
        # an eigenvalue that is not finite leaves the point not diagonalizable
        lost = real & ~np.isfinite(principal).all(axis=1)
        principal[lost] = np.nan
        real &= ~lost
    return CurvatureBatch(H, K, a, principal, real | scalar, umbilic, space)


def _point_curvatures(chart: SurfaceChart, u, v) -> Optional[CurvatureData]:
    """`_curvatures` at one point on Python floats, with the batch's errors
    and bits, or None at a value that is not finite or not one 3-vector: five
    evaluator calls, the normal crossing the first form's X_u and X_v."""
    xu, xv = _point_value(chart.du, u, v), _point_value(chart.dv, u, v)
    if xu is None or xv is None:
        return None
    gram, E, F, G, w, flat_tol = _first_terms(xu, xv)
    # every value the batch computes is a term, or inside one: an inf or NaN
    # anywhere makes the sum non-finite
    if not math.isfinite(gram + flat_tol + E + F + G + w):
        return None
    if gram <= flat_tol:
        raise _not_immersed(u, v)
    if _null3(w, gram):
        raise CausalTypeError("curvature data undefined at a lightlike point")
    n = _cross3(xu, xv)
    norm = math.sqrt(abs(_dot3(n, n)))
    if not 0.0 < norm < math.inf:
        return None
    n0, n1, n2 = n[0] / norm, n[1] / norm, n[2] / norm
    flip = -1.0 if w > 0 and n2 < 0 else 1.0
    n = n0 * flip, n1 * flip, n2 * flip
    xuu, xuv = _point_value(chart.duu, u, v), _point_value(chart.duv, u, v)
    xvv = _point_value(chart.dvv, u, v)
    if xuu is None or xuv is None or xvv is None:
        return None
    e, f, g = _dot3(n, xuu), _dot3(n, xuv), _dot3(n, xvv)
    if not math.isfinite(n[0] + n[1] + n[2] + e + f + g):
        return None
    a = np.linalg.solve(np.array([[E, F], [F, G]]), np.array([[e, f], [f, g]]))
    (p, q), (r, t) = a.tolist()
    tr = (e * G - 2 * f * F + g * E) / w
    det = (e * g - f * f) / w
    space = w > 0
    sign = -1.0 if space else 1.0
    half = 0.5 * tr
    H = sign * half
    K = sign * det
    hh = H * H
    gap = hh + K
    umbilic = gap <= UMBILIC_TOL * (1.0 + hh)
    checked = p + q + r + t + tr + det + gap
    real, scalar, principal = space, False, None
    if not space:
        quarter = 0.25 * tr * tr
        disc = quarter - det
        hscale = 1.0 + quarter
        ascale = 1.0 + max(abs(p), abs(q), abs(r), abs(t))
        dp, dt = p - half, t - half
        checked += disc + dp + dt
        umbilic = max(abs(dp), abs(q), abs(r), abs(dt)) <= UMBILIC_TOL * ascale
        real = disc > UMBILIC_TOL * hscale
        repeated = not real and not disc < -UMBILIC_TOL * hscale
        scalar = repeated and max(abs(q), abs(r)) <= UMBILIC_TOL * ascale
        if scalar:
            principal = (half, half)
    if real:
        d = (p - t) / 2
        root = math.sqrt(max(d * d + q * r, 0.0))
        principal = (half - root, half + root)
        checked += principal[0] + principal[1]
    if not math.isfinite(checked):
        return None
    causal = CausalClass.SPACELIKE if space else CausalClass.TIMELIKE
    return CurvatureData(H, K, a, principal, real or scalar, umbilic, causal)


def first_form(chart: SurfaceChart, u, v):
    """First-form coefficients and causal type: ((E, F, G), CausalClass).

    For arrays of points, E, F, G are arrays and the classes an object array.
    """
    us, vs, scalar = _batch(u, v)
    _, _, E, F, G, w, gram = _first_coeffs(chart, us, vs)
    classes = [_causal3(*p) for p in zip(w.tolist(), gram.tolist())]
    if scalar:
        return (float(E[0]), float(F[0]), float(G[0])), classes[0]
    return (E, F, G), np.array(classes, dtype=object)


def gauss_map(chart: SurfaceChart, u, v) -> np.ndarray:
    """Unit normal X_u x X_v / |X_u x X_v|; future-directed on spacelike points.

    Shape (3,) for a point, (n, 3) for arrays of points.  Raises
    CausalTypeError at lightlike points, where the normal direction
    degenerates into the tangent plane.
    """
    us, vs, scalar = _batch(u, v)
    n = _unit_normals(chart, us, vs, "no unit normal at a lightlike point")
    return n[0] if scalar else n


def second_form(chart: SurfaceChart, u, v):
    """Second-form coefficients (e, f, g) = <N, X_uu>, <N, X_uv>, <N, X_vv>."""
    us, vs, scalar = _batch(u, v)
    e, f, g = _second_coeffs(chart, us, vs)
    if scalar:
        return float(e[0]), float(f[0]), float(g[0])
    return e, f, g


def shape_and_curvatures(chart: SurfaceChart, u, v):
    """Shape operator I^(-1) II with H, K, principal data and umbilicity.

    Spacelike points always diagonalize (A is self-adjoint for a definite
    metric); timelike points may not, in which case `principal` is None.
    A point gives a `CurvatureData`, arrays of points a `CurvatureBatch`.
    A point takes five evaluator calls on Python floats, for speed, with the
    batch of one's bits; arrays take seven calls per point.
    """
    us, vs, scalar = _batch(u, v)
    if scalar:
        # a value that is not finite sends the point to the batch of one
        return _point_curvatures(chart, us[0], vs[0]) or _curvatures(chart, us, vs).point(0)
    return _curvatures(chart, us, vs)


class SurfaceKindTag(Enum):
    PLANE = "plane"
    HYPERBOLIC_PLANE = "hyperbolic plane"
    DE_SITTER = "de Sitter"
    OTHER = "other"


@dataclass(frozen=True)
class SurfaceKind:
    tag: SurfaceKindTag
    #: unit Euclidean normal for planes, else None
    normal: Optional[np.ndarray] = None
    offset: Optional[float] = None
    radius: Optional[float] = None
    center: Optional[np.ndarray] = None
    residual: float = 0.0


def classify_totally_umbilical(chart: SurfaceChart, samples) -> SurfaceKind:
    """Recognize a totally umbilical chart as a plane, hyperbolic plane or
    de Sitter surface, fitting (radius, center) from the samples.

    Uses the umbilic relation N_u = f X_u: f = 0 gives a plane (constant N);
    otherwise X - N/f is a constant center p0 and the sign of
    <X - p0, X - p0> separates the hyperbolic plane (-r^2) from de Sitter
    (+r^2).  Raises GeometryError when some sample is not umbilic or the
    fitted data are inconsistent beyond `UMBILIC_FIT_TOL`.
    """
    us, vs = np.asarray(list(samples), dtype=float).reshape(-1, 2).T
    if not len(us):
        raise GeometryError("umbilic classification needs at least one sample")
    data = shape_and_curvatures(chart, us, vs)
    if not data.umbilic.all():
        k = int(np.argmin(data.umbilic))
        raise GeometryError(f"non-umbilic sample at (u,v)=({us[k]:g},{vs[k]:g})")
    normals = gauss_map(chart, us, vs)
    pts = _values(chart.position, us, vs)
    # A = -f * Id at umbilic points, so f = -trace(A)/2
    fvals = -0.5 * np.trace(data.shape_matrix, axis1=1, axis2=2)
    f_mean = float(np.mean(fvals))
    pscale = 1.0 + float(np.max(np.abs(pts)))
    if abs(f_mean) <= UMBILIC_FIT_TOL:
        n_mean = normals.mean(axis=0)
        n_mean = n_mean / np.linalg.norm(n_mean)
        spread = float(np.max(np.linalg.norm(normals - normals[0], axis=1)))
        offsets = pts @ n_mean
        resid = max(spread, float(np.ptp(offsets)) / pscale)
        if resid > UMBILIC_FIT_TOL:
            raise GeometryError("umbilic factor is zero but the normal is not constant")
        return SurfaceKind(
            SurfaceKindTag.PLANE,
            normal=n_mean,
            offset=float(np.mean(offsets)),
            residual=resid,
        )
    centers = pts - normals / fvals[:, None]
    center = centers.mean(axis=0)
    resid = float(np.max(np.linalg.norm(centers - center, axis=1))) / pscale
    if resid > UMBILIC_FIT_TOL:
        raise GeometryError("umbilic samples do not share a center point")
    rel = pts - center
    q = lorentz_dot(rel, rel)
    q_mean = float(np.mean(q))
    resid = max(resid, float(np.ptp(q)) / (1.0 + abs(q_mean)))
    if resid > UMBILIC_FIT_TOL:
        raise GeometryError("inconsistent Lorentzian distance to the fitted center")
    radius = float(np.sqrt(abs(q_mean)))
    tag = SurfaceKindTag.HYPERBOLIC_PLANE if q_mean < 0 else SurfaceKindTag.DE_SITTER
    return SurfaceKind(tag, radius=radius, center=center, residual=resid)


def mean_curvature_foliated(chart: SurfaceChart, u: float, v: float) -> float:
    """Mean curvature from the determinant identity

        2 H W^(3/2) = E det(Xu, Xv, Xvv) - 2F det(Xu, Xv, Xuv) + G det(Xu, Xv, Xuu)

    valid at spacelike points (W = EG - F^2 > 0).  The sign corresponds to
    the future-directed normal; |H| always agrees with the shape-operator
    route, and the two are reconciled in tests.  A batch of one.
    """
    if np.ndim(u) or np.ndim(v):
        raise GeometryError("the foliated identity takes one point (u, v)")
    us, vs, _ = _batch(u, v)
    xu, xv, E, F, G, w = (x[0] for x in _first_coeffs(chart, us, vs)[:6])
    E, F, G, w = float(E), float(F), float(G), float(w)
    if w <= 0:
        raise CausalTypeError("the foliated identity requires a spacelike point")

    def det3(a, b, c):
        return float(np.linalg.det(np.column_stack([a, b, c])))

    p = (
        E * det3(xu, xv, chart.dvv(u, v))
        - 2 * F * det3(xu, xv, chart.duv(u, v))
        + G * det3(xu, xv, chart.duu(u, v))
    )
    return 0.5 * p / w ** 1.5


# ---------------------------------------------------------------------------
# Laplace-Beltrami on a parameter grid

def _metric_inverse_weights(chart: SurfaceChart, us, vs):
    """sqrt|g| g^11, sqrt|g| g^12, sqrt|g| g^22 and sqrt|g| at every point."""
    _, _, E, F, G, det, gram = _first_coeffs(chart, us, vs)
    if _null3(det, gram).any():
        raise GeometryError("degenerate metric in Laplace-Beltrami stencil")
    s = np.sqrt(np.abs(det))
    return s * G / det, -s * F / det, s * E / det, s


def _laplace_interior(chart: SurfaceChart, f, us, vs, hu: float, hv: float) -> np.ndarray:
    """Laplace-Beltrami of f at the interior nodes of the grid us x vs.

    The metric is evaluated once per u half node (between (i, j) and
    (i+1, j)), v half node and interior node, in one kernel call; the flux
    stencil is then array slicing.  Returns shape (len(us) - 2, len(vs) - 2).
    """
    nu, nv = f.shape
    mu, mv = nu - 2, nv - 2
    uh = 0.5 * (us[:-1] + us[1:])
    vh = 0.5 * (vs[:-1] + vs[1:])
    pu = np.concatenate([np.repeat(uh, mv), np.repeat(us[1:-1], nv - 1), np.repeat(us[1:-1], mv)])
    pv = np.concatenate([np.tile(vs[1:-1], nu - 1), np.tile(vh, mu), np.tile(vs[1:-1], mu)])
    g11, g12, g22, s = _metric_inverse_weights(chart, pu, pv)
    ku = (nu - 1) * mv
    kv = ku + mu * (nv - 1)
    # fluxes through the u half nodes, shape (nu - 1, mv)
    fu = (f[1:, 1:-1] - f[:-1, 1:-1]) / hu
    fv = (f[:-1, 2:] + f[1:, 2:] - f[:-1, :-2] - f[1:, :-2]) / (4 * hv)
    flux_u = g11[:ku].reshape(nu - 1, mv) * fu + g12[:ku].reshape(nu - 1, mv) * fv
    # fluxes through the v half nodes, shape (mu, nv - 1)
    fv = (f[1:-1, 1:] - f[1:-1, :-1]) / hv
    fu = (f[2:, :-1] + f[2:, 1:] - f[:-2, :-1] - f[:-2, 1:]) / (4 * hu)
    flux_v = g12[ku:kv].reshape(mu, nv - 1) * fu + g22[ku:kv].reshape(mu, nv - 1) * fv
    div = (flux_u[1:] - flux_u[:-1]) / hu + (flux_v[:, 1:] - flux_v[:, :-1]) / hv
    return div / s[kv:].reshape(mu, mv)


def laplace_beltrami(chart: SurfaceChart, f_grid, us, vs, i: int, j: int) -> float:
    """Laplace-Beltrami of grid samples f at the interior node (i, j).

    Conservative flux discretization of (1/sqrt|g|) d_i(sqrt|g| g^ij d_j f)
    with metric factors evaluated analytically at half nodes; second order.
    The node must have a full ring of neighbors (boundary ring excluded).
    """
    f = np.asarray(f_grid, dtype=float)
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if not (1 <= i < len(us) - 1 and 1 <= j < len(vs) - 1):
        raise GeometryError("Laplace-Beltrami stencil needs an interior node")
    block = f[i - 1:i + 2, j - 1:j + 2]
    lap = _laplace_interior(chart, block, us[i - 1:i + 2], vs[j - 1:j + 2],
                            us[1] - us[0], vs[1] - vs[0])
    return float(lap[0, 0])


def laplace_beltrami_grid(chart: SurfaceChart, f_grid, us, vs) -> np.ndarray:
    """Laplace-Beltrami at every interior node; boundary ring entries are NaN."""
    f = np.asarray(f_grid, dtype=float)
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    out = np.full_like(f, np.nan)
    if min(f.shape) > 2:
        out[1:-1, 1:-1] = _laplace_interior(chart, f, us, vs, us[1] - us[0], vs[1] - vs[0])
    return out


# ---------------------------------------------------------------------------
# Catalog charts

def _center(p0) -> np.ndarray:
    """A catalog chart's base point; GeometryError when |p0|^2 overflows,
    since sample fits then sum and square coordinates near the float limit."""
    p0 = as_vec3(p0)
    _squares3(p0.tolist(), "center")
    return p0


def plane_chart(p0, e1, e2, domain=((-1.0, 1.0), (-1.0, 1.0))) -> SurfaceChart:
    p0, e1, e2 = _center(p0), as_vec3(e1), as_vec3(e2)
    z = np.zeros(3)
    return SurfaceChart(
        lambda u, v: p0 + u * e1 + v * e2,
        lambda u, v: e1,
        lambda u, v: e2,
        lambda u, v: z,
        lambda u, v: z,
        lambda u, v: z,
        domain=domain,
    )


def hyperbolic_plane_chart(r: float, p0=(0.0, 0.0, 0.0),
                           domain=((-1.0, 1.0), (-1.0, 1.0))) -> SurfaceChart:
    """Graph chart of the upper hyperboloid <p - p0, p - p0> = -r^2, z > z0.

    Spacelike, H = 1/r, K = -1/r^2 with the future normal (p - p0)/r.
    """
    r = float(r)
    if r <= 0:
        raise GeometryError("radius must be positive")
    x0, y0, z0 = p0 = _center(p0)
    rr = r * r

    def w(u, v):
        return np.sqrt(rr + u * u + v * v)

    return SurfaceChart(
        lambda u, v: np.array([x0 + u, y0 + v, z0 + w(u, v)]),
        lambda u, v: np.array([1.0, 0.0, u / w(u, v)]),
        lambda u, v: np.array([0.0, 1.0, v / w(u, v)]),
        lambda u, v: np.array([0.0, 0.0, (v * v + rr) / w(u, v) ** 3]),
        lambda u, v: np.array([0.0, 0.0, -u * v / w(u, v) ** 3]),
        lambda u, v: np.array([0.0, 0.0, (u * u + rr) / w(u, v) ** 3]),
        domain=domain,
    )


def de_sitter_chart(r: float, p0=(0.0, 0.0, 0.0),
                    domain=((-1.0, 1.0), (0.0, 2 * np.pi))) -> SurfaceChart:
    """Chart of the de Sitter surface <p - p0, p - p0> = +r^2 (timelike).

    X(u, v) = p0 + r (cosh u cos v, cosh u sin v, sinh u); the parameter
    order pins the computed normal so the measured H is +1/r, K = +1/r^2.
    """
    r = float(r)
    if r <= 0:
        raise GeometryError("radius must be positive")
    p0 = _center(p0)

    def xuu(u, v):  # X - p0
        ch = np.cosh(u)
        return r * np.array([ch * np.cos(v), ch * np.sin(v), np.sinh(u)])

    def xu(u, v):
        sh = np.sinh(u)
        return r * np.array([sh * np.cos(v), sh * np.sin(v), np.cosh(u)])

    def xv(u, v):
        ch = np.cosh(u)
        return r * np.array([-ch * np.sin(v), ch * np.cos(v), 0.0])

    def xuv(u, v):
        sh = np.sinh(u)
        return r * np.array([-sh * np.sin(v), sh * np.cos(v), 0.0])

    def xvv(u, v):
        ch = np.cosh(u)
        return r * np.array([-ch * np.cos(v), -ch * np.sin(v), 0.0])

    return SurfaceChart(lambda u, v: p0 + xuu(u, v), xu, xv, xuu, xuv, xvv, domain=domain)


def light_cone_chart(domain=((0.5, 2.0), (0.0, 2 * np.pi))) -> SurfaceChart:
    """Upper light cone X = (u cos v, u sin v, u), u > 0: lightlike everywhere."""
    return SurfaceChart(
        lambda u, v: np.array([u * np.cos(v), u * np.sin(v), u]),
        lambda u, v: np.array([np.cos(v), np.sin(v), 1.0]),
        lambda u, v: np.array([-u * np.sin(v), u * np.cos(v), 0.0]),
        lambda u, v: np.zeros(3),
        lambda u, v: np.array([-np.sin(v), np.cos(v), 0.0]),
        lambda u, v: np.array([-u * np.cos(v), -u * np.sin(v), 0.0]),
        domain=domain,
    )


def graph_chart(f, fx=None, fy=None, fxx=None, fxy=None, fyy=None,
                domain=((-1.0, 1.0), (-1.0, 1.0))) -> SurfaceChart:
    """Graph z = f(x, y); spacelike where |Df| < 1, timelike where |Df| > 1.
    Partials not given are central differences of step 1e-5 of the larger side."""
    h = 1e-5 * max(domain[0][1] - domain[0][0], domain[1][1] - domain[1][0])
    fx, fy, fxx, fxy, fyy = (d if p is None else p for p, d in zip(
        (fx, fy, fxx, fxy, fyy), _difference_partials(f, h)))
    return SurfaceChart(
        lambda u, v: np.array([u, v, f(u, v)]),
        lambda u, v: np.array([1.0, 0.0, fx(u, v)]),
        lambda u, v: np.array([0.0, 1.0, fy(u, v)]),
        lambda u, v: np.array([0.0, 0.0, fxx(u, v)]),
        lambda u, v: np.array([0.0, 0.0, fxy(u, v)]),
        lambda u, v: np.array([0.0, 0.0, fyy(u, v)]),
        domain=domain,
    )


def null_scroll_chart(jet: CurveJet, u_range=(-0.5, 0.5),
                      v_range=None) -> SurfaceChart:
    """Ruled timelike chart X(u, v) = alpha(v) + u B(v) over a lightlike curve.

    `jet` must be pseudo-arc-length parametrized; B is the null binormal of
    its Frenet frame.  The ruling coordinate comes first, which orients the
    computed normal so that the measured mean curvature equals the torsion
    of the base curve (and K = tau^2), with a non-diagonalizable shape
    operator off the umbilic locus.
    """
    if v_range is None:
        v_range = jet.domain

    # each partial needs the frame at v, and X_vv the torsion at v and v +- h:
    # both are computed once per v and the frame vectors handed out read-only
    @_memo_exact
    def frame(v: float):
        t_vec, n_vec, b_vec, case, _ = _frame_at(jet, v)
        if case is not FrenetCase.LIGHTLIKE:
            raise CausalTypeError("null scroll needs a lightlike base curve")
        frozen = tuple(np.array(x) for x in (t_vec, n_vec, b_vec))
        for x in frozen:
            x.setflags(write=False)
        return frozen

    @_memo_exact
    def tau_at(v: float) -> float:
        return frenet(jet, v).tau

    def x(u, v):
        _, _, b_vec = frame(v)
        return jet.position(v) + u * b_vec

    def xu(u, v):
        return frame(v)[2]

    def xv(u, v):
        t_vec, n_vec, _ = frame(v)
        return t_vec - u * tau_at(v) * n_vec

    def xuu(u, v):
        return np.zeros(3)

    def xuv(u, v):
        return -tau_at(v) * frame(v)[1]

    def xvv(u, v):
        t_vec, n_vec, b_vec = frame(v)
        tau = tau_at(v)
        h = jet.h_fd
        taup = (tau_at(v + h) - tau_at(v - h)) / (2 * h)
        return -u * tau * tau * t_vec + (1.0 - u * taup) * n_vec + u * tau * b_vec

    return SurfaceChart(x, xu, xv, xuu, xuv, xvv, domain=(u_range, v_range))
