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

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    REL_TOL,
    CausalClass,
    CausalTypeError,
    GeometryError,
    as_vec3,
    cross,
    lorentz_dot,
    lorentz_norm,
)
from .curves import CurveJet, FrenetCase, _frame_at, _frame_derivative

__all__ = [
    "SurfaceChart",
    "CurvatureData",
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

#: tolerance on EG - F^2 (relative) below which a point counts as lightlike
_DEGENERATE_TOL = 1e-12


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
        h = self.h_fd
        self._x = x
        if xu is None:
            xu = lambda u, v: (self.position(u + h, v) - self.position(u - h, v)) / (2 * h)
        if xv is None:
            xv = lambda u, v: (self.position(u, v + h) - self.position(u, v - h)) / (2 * h)
        if xuu is None:
            xuu = lambda u, v: (
                self.position(u + h, v) - 2 * self.position(u, v) + self.position(u - h, v)
            ) / (h * h)
        if xvv is None:
            xvv = lambda u, v: (
                self.position(u, v + h) - 2 * self.position(u, v) + self.position(u, v - h)
            ) / (h * h)
        if xuv is None:
            xuv = lambda u, v: (
                self.position(u + h, v + h)
                - self.position(u + h, v - h)
                - self.position(u - h, v + h)
                + self.position(u - h, v - h)
            ) / (4 * h * h)
        self._xu, self._xv = xu, xv
        self._xuu, self._xuv, self._xvv = xuu, xuv, xvv

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


def _first_coeffs(chart: SurfaceChart, u: float, v: float):
    xu = chart.du(u, v)
    xv = chart.dv(u, v)
    # immersion check with the Euclidean Gram determinant
    ge = np.array([[xu @ xu, xu @ xv], [xu @ xv, xv @ xv]])
    if np.linalg.det(ge) <= REL_TOL * (1.0 + ge[0, 0]) * (1.0 + ge[1, 1]):
        raise GeometryError(f"chart is not an immersion at (u,v)=({u:g},{v:g})")
    E = float(lorentz_dot(xu, xu))
    F = float(lorentz_dot(xu, xv))
    G = float(lorentz_dot(xv, xv))
    return xu, xv, E, F, G


def _point_class(E: float, F: float, G: float, xu, xv) -> CausalClass:
    w = E * G - F * F
    scale = (1.0 + float(xu @ xu)) * (1.0 + float(xv @ xv))
    if abs(w) <= _DEGENERATE_TOL * scale:
        return CausalClass.LIGHTLIKE
    return CausalClass.SPACELIKE if w > 0 else CausalClass.TIMELIKE


def first_form(chart: SurfaceChart, u: float, v: float):
    """First-form coefficients and causal type: ((E, F, G), CausalClass)."""
    xu, xv, E, F, G = _first_coeffs(chart, u, v)
    return (E, F, G), _point_class(E, F, G, xu, xv)


def gauss_map(chart: SurfaceChart, u: float, v: float) -> np.ndarray:
    """Unit normal X_u x X_v / |X_u x X_v|; future-directed on spacelike points.

    Raises CausalTypeError at lightlike points, where the normal direction
    degenerates into the tangent plane.
    """
    xu, xv, E, F, G = _first_coeffs(chart, u, v)
    cls = _point_class(E, F, G, xu, xv)
    if cls is CausalClass.LIGHTLIKE:
        raise CausalTypeError("no unit normal at a lightlike point")
    n = cross(xu, xv)
    n = n / lorentz_norm(n)
    if cls is CausalClass.SPACELIKE and n[2] < 0:
        n = -n
    return n


def second_form(chart: SurfaceChart, u: float, v: float) -> tuple[float, float, float]:
    """Second-form coefficients (e, f, g) = <N, X_uu>, <N, X_uv>, <N, X_vv>."""
    n = gauss_map(chart, u, v)
    e = float(lorentz_dot(n, chart.duu(u, v)))
    f = float(lorentz_dot(n, chart.duv(u, v)))
    g = float(lorentz_dot(n, chart.dvv(u, v)))
    return e, f, g


def shape_and_curvatures(chart: SurfaceChart, u: float, v: float) -> CurvatureData:
    """Shape operator I^(-1) II with H, K, principal data and umbilicity.

    Spacelike points always diagonalize (A is self-adjoint for a definite
    metric); timelike points may not, in which case `principal` is None.
    """
    xu, xv, E, F, G = _first_coeffs(chart, u, v)
    cls = _point_class(E, F, G, xu, xv)
    if cls is CausalClass.LIGHTLIKE:
        raise CausalTypeError("curvature data undefined at a lightlike point")
    e, f, g = second_form(chart, u, v)
    w = E * G - F * F
    imat = np.array([[E, F], [F, G]])
    iimat = np.array([[e, f], [f, g]])
    a = np.linalg.solve(imat, iimat)
    tr = (e * G - 2 * f * F + g * E) / w
    det = (e * g - f * f) / w
    if cls is CausalClass.SPACELIKE:
        H = -0.5 * tr
        K = -det
    else:
        H = 0.5 * tr
        K = det
    disc = 0.25 * tr * tr - det  # discriminant of A's characteristic polynomial
    hscale = 1.0 + 0.25 * tr * tr
    offdiag = max(abs(a[0, 1]), abs(a[1, 0]))
    ascale = 1.0 + float(np.max(np.abs(a)))
    if cls is CausalClass.SPACELIKE:
        umbilic = H * H + K <= UMBILIC_TOL * (1.0 + H * H)
        # A is self-adjoint for the definite first form, so its spectrum is real
        lam = sorted(np.linalg.eigvals(a).real)
        principal = (float(lam[0]), float(lam[1]))
        diagonalizable = True
    else:
        umbilic = bool(
            np.max(np.abs(a - 0.5 * tr * np.eye(2))) <= UMBILIC_TOL * ascale
        )
        if disc > UMBILIC_TOL * hscale:
            ev = sorted(np.linalg.eigvals(a).real)
            principal = (float(ev[0]), float(ev[1]))
            diagonalizable = True
        elif disc < -UMBILIC_TOL * hscale:
            principal = None  # complex eigenvalues
            diagonalizable = False
        else:
            # repeated eigenvalue: diagonalizable only when A is scalar
            diagonalizable = offdiag <= UMBILIC_TOL * ascale
            principal = (0.5 * tr, 0.5 * tr) if diagonalizable else None
    return CurvatureData(float(H), float(K), a, principal, diagonalizable, bool(umbilic), cls)


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


def classify_totally_umbilical(chart: SurfaceChart, samples,
                               tol: float = 1e-6) -> SurfaceKind:
    """Recognize a totally umbilical chart as a plane, hyperbolic plane or
    de Sitter surface, fitting (radius, center) from the samples.

    Uses the umbilic relation N_u = f X_u: f = 0 gives a plane (constant N);
    otherwise X - N/f is a constant center p0 and the sign of
    <X - p0, X - p0> separates the hyperbolic plane (-r^2) from de Sitter
    (+r^2).  Raises GeometryError when some sample is not umbilic or the
    fitted data are inconsistent beyond `tol`.
    """
    pts = []
    normals = []
    fvals = []
    for (u, v) in samples:
        data = shape_and_curvatures(chart, u, v)
        if not data.umbilic:
            raise GeometryError(f"non-umbilic sample at (u,v)=({u:g},{v:g})")
        n = gauss_map(chart, u, v)
        pts.append(chart.position(u, v))
        normals.append(n)
        # A = -f * Id at umbilic points, so f = -trace(A)/2
        fvals.append(-0.5 * float(np.trace(data.shape_matrix)))
    pts = np.stack(pts)
    normals = np.stack(normals)
    fvals = np.asarray(fvals)
    f_mean = float(np.mean(fvals))
    pscale = 1.0 + float(np.max(np.abs(pts)))
    if abs(f_mean) <= tol:
        n_mean = normals.mean(axis=0)
        n_mean = n_mean / np.linalg.norm(n_mean)
        spread = float(np.max(np.linalg.norm(normals - normals[0], axis=1)))
        offsets = pts @ n_mean
        resid = max(spread, float(np.ptp(offsets)) / pscale)
        if resid > tol:
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
    if resid > tol:
        raise GeometryError("umbilic samples do not share a center point")
    rel = pts - center
    q = np.array([lorentz_dot(p, p) for p in rel])
    q_mean = float(np.mean(q))
    resid = max(resid, float(np.ptp(q)) / (1.0 + abs(q_mean)))
    if resid > tol:
        raise GeometryError("inconsistent Lorentzian distance to the fitted center")
    radius = float(np.sqrt(abs(q_mean)))
    tag = SurfaceKindTag.HYPERBOLIC_PLANE if q_mean < 0 else SurfaceKindTag.DE_SITTER
    return SurfaceKind(tag, radius=radius, center=center, residual=resid)


def mean_curvature_foliated(chart: SurfaceChart, u: float, v: float) -> float:
    """Mean curvature from the determinant identity

        2 H W^(3/2) = E det(Xu, Xv, Xvv) - 2F det(Xu, Xv, Xuv) + G det(Xu, Xv, Xuu)

    valid at spacelike points (W = EG - F^2 > 0).  The sign corresponds to
    the future-directed normal; |H| always agrees with the shape-operator
    route, and the two are reconciled in tests.
    """
    xu, xv, E, F, G = _first_coeffs(chart, u, v)
    w = E * G - F * F
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

def _metric_inverse_weights(chart: SurfaceChart, u: float, v: float):
    _, _, E, F, G = _first_coeffs(chart, u, v)
    det = E * G - F * F
    if abs(det) <= _DEGENERATE_TOL:
        raise GeometryError("degenerate metric in Laplace-Beltrami stencil")
    s = np.sqrt(abs(det))
    return s * G / det, -s * F / det, s * E / det, s  # sqrt|g| g^11, g^12, g^22, sqrt|g|


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
    hu = us[1] - us[0]
    hv = vs[1] - vs[0]

    def flux_u(ih: int, jj: int) -> float:
        # half node between (ih, jj) and (ih+1, jj)
        g11, g12, _, _ = _metric_inverse_weights(chart, 0.5 * (us[ih] + us[ih + 1]), vs[jj])
        fu = (f[ih + 1, jj] - f[ih, jj]) / hu
        fv = (f[ih, jj + 1] + f[ih + 1, jj + 1] - f[ih, jj - 1] - f[ih + 1, jj - 1]) / (4 * hv)
        return g11 * fu + g12 * fv

    def flux_v(ii: int, jh: int) -> float:
        _, g12, g22, _ = _metric_inverse_weights(chart, us[ii], 0.5 * (vs[jh] + vs[jh + 1]))
        fv = (f[ii, jh + 1] - f[ii, jh]) / hv
        fu = (f[ii + 1, jh] + f[ii + 1, jh + 1] - f[ii - 1, jh] - f[ii - 1, jh + 1]) / (4 * hu)
        return g12 * fu + g22 * fv

    _, _, _, s0 = _metric_inverse_weights(chart, us[i], vs[j])
    div = (flux_u(i, j) - flux_u(i - 1, j)) / hu + (flux_v(i, j) - flux_v(i, j - 1)) / hv
    return float(div / s0)


def laplace_beltrami_grid(chart: SurfaceChart, f_grid, us, vs) -> np.ndarray:
    """Laplace-Beltrami at every interior node; boundary ring entries are NaN."""
    f = np.asarray(f_grid, dtype=float)
    out = np.full_like(f, np.nan)
    for i in range(1, f.shape[0] - 1):
        for j in range(1, f.shape[1] - 1):
            out[i, j] = laplace_beltrami(chart, f, us, vs, i, j)
    return out


# ---------------------------------------------------------------------------
# Catalog charts

def plane_chart(p0, e1, e2, domain=((-1.0, 1.0), (-1.0, 1.0))) -> SurfaceChart:
    p0, e1, e2 = as_vec3(p0), as_vec3(e1), as_vec3(e2)
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
    p0 = as_vec3(p0)

    def w(u, v):
        return np.sqrt(r * r + u * u + v * v)

    return SurfaceChart(
        lambda u, v: p0 + np.array([u, v, w(u, v)]),
        lambda u, v: np.array([1.0, 0.0, u / w(u, v)]),
        lambda u, v: np.array([0.0, 1.0, v / w(u, v)]),
        lambda u, v: np.array([0.0, 0.0, (v * v + r * r) / w(u, v) ** 3]),
        lambda u, v: np.array([0.0, 0.0, -u * v / w(u, v) ** 3]),
        lambda u, v: np.array([0.0, 0.0, (u * u + r * r) / w(u, v) ** 3]),
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
    p0 = as_vec3(p0)
    return SurfaceChart(
        lambda u, v: p0 + r * np.array([np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), np.sinh(u)]),
        lambda u, v: r * np.array([np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v), np.cosh(u)]),
        lambda u, v: r * np.array([-np.cosh(u) * np.sin(v), np.cosh(u) * np.cos(v), 0.0]),
        lambda u, v: r * np.array([np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), np.sinh(u)]),
        lambda u, v: r * np.array([-np.sinh(u) * np.sin(v), np.sinh(u) * np.cos(v), 0.0]),
        lambda u, v: r * np.array([-np.cosh(u) * np.cos(v), -np.cosh(u) * np.sin(v), 0.0]),
        domain=domain,
    )


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
                domain=((-1.0, 1.0), (-1.0, 1.0)), h_fd=None) -> SurfaceChart:
    """Graph z = f(x, y); spacelike where |Df| < 1, timelike where |Df| > 1."""
    hx = h_fd if h_fd is not None else 1e-5 * max(
        domain[0][1] - domain[0][0], domain[1][1] - domain[1][0]
    )
    if fx is None:
        fx = lambda u, v: (f(u + hx, v) - f(u - hx, v)) / (2 * hx)
    if fy is None:
        fy = lambda u, v: (f(u, v + hx) - f(u, v - hx)) / (2 * hx)
    if fxx is None:
        fxx = lambda u, v: (f(u + hx, v) - 2 * f(u, v) + f(u - hx, v)) / (hx * hx)
    if fyy is None:
        fyy = lambda u, v: (f(u, v + hx) - 2 * f(u, v) + f(u, v - hx)) / (hx * hx)
    if fxy is None:
        fxy = lambda u, v: (
            f(u + hx, v + hx) - f(u + hx, v - hx) - f(u - hx, v + hx) + f(u - hx, v - hx)
        ) / (4 * hx * hx)
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

    def frame(v: float):
        t_vec, n_vec, b_vec, case, _ = _frame_at(jet, v)
        if case is not FrenetCase.LIGHTLIKE:
            raise CausalTypeError("null scroll needs a lightlike base curve")
        return t_vec, n_vec, b_vec

    def tau_at(v: float) -> float:
        _, _, b_vec = frame(v)
        np_vec = _frame_derivative(jet, v, 1)
        return float(lorentz_dot(np_vec, b_vec))

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
