"""The Lorentz group O_1(3): membership, components, boosts and their orbits.

Membership is the relation A^t G A = G with G = diag(1,1,-1).  The group has
four connected components, classified by (sign det A, sign a33); the
identity component (det = +1, a33 > 0) is the special ortocrone group, the
only one preserving both orientation and the future cone.

Boosts are the one-parameter subgroups fixing a line pointwise; the shape
of their orbits depends on the causal character of the axis:

    timelike axis  <E3>      -> Euclidean circles in horizontal planes
    spacelike axis <E1>      -> hyperbola branches in planes {x = const}
    lightlike axis <E2+E3>   -> parabolas in planes parallel to <E1, E2+E3>
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    METRIC,
    CausalClass,
    GeometryError,
    as_vec3,
)
from .core import _edot3, _parallel3, _squares3

__all__ = [
    "IsometryComponent",
    "RigidMotion",
    "is_lorentz",
    "component",
    "boost_timelike",
    "boost_spacelike",
    "boost_lightlike",
    "orbit",
    "conic_residual",
]

_COMPONENT_TOL = 1e-9


class IsometryComponent(Enum):
    """(sign of det, sign of a33).  PP is the special ortocrone component."""

    PP = "++"
    PM = "+-"
    MP = "-+"
    MM = "--"


def _as_mat3(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.shape != (3, 3):
        raise GeometryError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise GeometryError("matrix entries must be finite")
    return m


def is_lorentz(a, tol: float = 1e-9) -> bool:
    """True iff max-entry deviation of A^t G A from G is at most tol."""
    m = _as_mat3(a)
    return bool(np.max(np.abs(m.T @ METRIC @ m - METRIC)) <= tol)


def component(a) -> IsometryComponent:
    """Connected component of an isometry, by (sign det, sign a33).

    Raises GeometryError for non-members and for inputs whose det or a33 is
    too close to the decision boundary to classify.
    """
    m = _as_mat3(a)
    if not is_lorentz(m, _COMPONENT_TOL):
        raise GeometryError("matrix is not a Lorentz isometry within tolerance")
    det = float(np.linalg.det(m))
    if abs(abs(det) - 1.0) > _COMPONENT_TOL:
        raise GeometryError(f"determinant {det} is not within tolerance of +-1")
    a33 = float(m[2, 2])
    if abs(a33) <= _COMPONENT_TOL:
        raise GeometryError("a33 is too close to zero to classify the component")
    if det > 0:
        return IsometryComponent.PP if a33 > 0 else IsometryComponent.PM
    return IsometryComponent.MP if a33 > 0 else IsometryComponent.MM


@dataclass(frozen=True)
class RigidMotion:
    """Affine isometry x -> A x + b with A in O_1(3)."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        m = _as_mat3(self.linear)
        t = as_vec3(self.translation)
        if not is_lorentz(m, _COMPONENT_TOL):
            raise GeometryError("linear part is not a Lorentz isometry")
        object.__setattr__(self, "linear", m)
        object.__setattr__(self, "translation", t)

    def apply(self, points) -> np.ndarray:
        p = as_vec3(points)
        return p @ self.linear.T + self.translation

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """self after other: x -> self(other(x))."""
        return RigidMotion(
            self.linear @ other.linear,
            self.linear @ other.translation + self.translation,
        )


def boost_timelike(theta: float) -> np.ndarray:
    """Rotation about the timelike axis <E3>; lies in the PP component."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def boost_spacelike(phi: float) -> np.ndarray:
    """Hyperbolic rotation fixing the spacelike axis <E1>; PP component."""
    ch, sh = np.cosh(phi), np.sinh(phi)
    return np.array([[1.0, 0.0, 0.0], [0.0, ch, sh], [0.0, sh, ch]])


def boost_lightlike(theta: float) -> np.ndarray:
    """Parabolic isometry fixing the lightlike axis <E2+E3> pointwise; PP."""
    t = float(theta)
    q = 0.5 * t * t
    return np.array(
        [
            [1.0, t, -t],
            [-t, 1.0 - q, q],
            [-t, -q, 1.0 + q],
        ]
    )


#: the boost family of each axis type: (axis vector, boost, name of the axis)
_AXES = {
    CausalClass.TIMELIKE: ([0.0, 0.0, 1.0], boost_timelike, "timelike axis <E3>"),
    CausalClass.SPACELIKE: ([1.0, 0.0, 0.0], boost_spacelike, "spacelike axis <E1>"),
    CausalClass.LIGHTLIKE: ([0.0, 1.0, 1.0], boost_lightlike, "lightlike axis <E2+E3>"),
}


def orbit(axis: CausalClass, p0, params) -> np.ndarray:
    """Sampled orbit of p0 under the boost family with the given axis type.

    Returns the polyline T_theta(p0) for theta in `params`, shape (n, 3).
    No adaptive sampling is done; orbits feed plotting and CSV output.
    Raises GeometryError if p0 lies on the axis (by `_parallel3`), or if a
    parameter or a sampled point is not finite.
    """
    p0 = as_vec3(p0)
    params = np.asarray(params, dtype=float)
    if not np.all(np.isfinite(params)):
        raise GeometryError("orbit parameters must be finite")
    w, boost, name = _AXES[axis]
    p = p0.tolist()
    if _parallel3(_edot3(w, p), _edot3(w, w), _squares3(p, "p0")[1]):
        raise GeometryError(f"p0 lies on the {name}")
    # large parameters overflow (cosh, t^2); the check below reports them
    with np.errstate(over="ignore", invalid="ignore"):
        pts = np.stack([boost(t) @ p0 for t in params])
    if not np.all(np.isfinite(pts)):
        raise GeometryError("orbit overflows: a sampled point is not finite")
    return pts


def conic_residual(axis: CausalClass, p0, pts) -> tuple[str, float]:
    """The conic an orbit of p0 lies on, and the largest deviation of `pts`
    from it: (description, residual).

    Raises GeometryError when the residual overflows, as it does for points
    far out on a hyperbola or parabola.
    """
    x0, y0, z0 = as_vec3(p0)
    pts = as_vec3(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        if axis is CausalClass.TIMELIKE:
            resid = np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - (x0 ** 2 + y0 ** 2))
            resid = np.maximum(resid, np.abs(pts[:, 2] - z0))
            conic = "circle x^2+y^2=x0^2+y0^2 in {z=z0}"
        elif axis is CausalClass.SPACELIKE:
            resid = np.abs(pts[:, 1] ** 2 - pts[:, 2] ** 2 - (y0 ** 2 - z0 ** 2))
            resid = np.maximum(resid, np.abs(pts[:, 0] - x0))
            conic = "hyperbola y^2-z^2=y0^2-z0^2 in {x=x0}"
        else:
            # X = x0 + t c, Y = y0 - t x0 - c t^2 / 2 and Y - Z = c = y0 - z0
            c = y0 - z0
            if abs(c) <= 1e-12 * (abs(x0) + abs(y0) + abs(z0)):
                resid = np.maximum(np.abs(pts[:, 0] - x0), np.abs(pts[:, 1] - pts[:, 2] - c))
                conic = "line x=x0 in {y-z=y0-z0}"
            elif abs(z0 + y0) <= 1e-12 * (abs(y0) + abs(z0)):
                resid = np.abs(pts[:, 1] - (y0 + x0 ** 2 / (4 * y0) - pts[:, 0] ** 2 / (4 * y0)))
                conic = "parabola Y=y+x^2/(4y)-X^2/(4y) in <E1,E2-E3>"
            else:
                resid = np.abs(pts[:, 1] - (y0 + (x0 ** 2 - pts[:, 0] ** 2) / (2 * c)))
                resid = np.maximum(resid, np.abs(pts[:, 1] - pts[:, 2] - c))
                conic = "parabola Y=y0+(x0^2-X^2)/(2(y0-z0)) in {y-z=y0-z0}"
        worst = float(resid.max())
    if not np.isfinite(worst):
        raise GeometryError("orbit conic residual overflows")
    return conic, worst
