"""Every parallel-or-zero decision has no length scale: at 10^k times the
input, each site of `core._parallel3` (and the guards beside it) gives the
verdict it gives at unit scale."""

import math

import numpy as np
import pytest

from minkowski3.core import (
    E1,
    E2,
    E3,
    CausalClass,
    GeometryError,
    Subspace,
    causal_class_subspace,
)
from minkowski3.curves import CurveJet, curvature_torsion_general, frenet, reparam_arclength
from minkowski3.dirichlet import ConvexPolygon
from minkowski3.isometry import orbit
from minkowski3.rotational import ProfileODEParams, integrate_rotational

#: a plane of each class, by the paper's normal proposition
PLANES = [((E1, E2), CausalClass.SPACELIKE), ((E1, E3), CausalClass.TIMELIKE),
          ((E1, E2 + E3), CausalClass.LIGHTLIKE)]
#: per axis type, a point 45 degrees off the axis and one within 1e-7 of it
ORBIT_POINTS = {CausalClass.TIMELIKE: ([1.0, 0.0, 1.0], [1e-7, 0.0, 1.0]),
                CausalClass.SPACELIKE: ([1.0, 1.0, 0.0], [1.0, 0.0, 1e-7]),
                CausalClass.LIGHTLIKE: ([1.0, 1.0, 1.0], [1e-7, 1.0, 1.0])}
#: the a x b rectangle, whose rolling-disc radius is (a^2 + b^2) / (2b)
RECTANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.7], [0.0, 0.7]])


def fall(lam: float):
    """The profile H = 1, r0 = 1, rp0 = -1.2 on [0, 3], which falls into the
    guard band, scaled by lam: r, s -> lam r, lam s and H -> H / lam."""
    return integrate_rotational(ProfileODEParams(H=1.0 / lam, r0=lam, rp0=-1.2, s1=3.0 * lam,
                                                 h=1e-3 * lam))


def line_and_helix(lam: float):
    """The timelike line lam (0.1, 0, 2) t and helix lam (cos t, sin t, 2t),
    kappa = 1/(3 lam) and tau = 2/(3 lam), as jets."""
    line = CurveJet(lambda t: lam * t * np.array([0.1, 0.0, 2.0]),
                    lambda t: lam * np.array([0.1, 0.0, 2.0]),
                    lambda t: np.zeros(3), lambda t: np.zeros(3), domain=(-1, 1))
    helix = CurveJet(lambda t: lam * np.array([np.cos(t), np.sin(t), 2 * t]),
                     lambda t: lam * np.array([-np.sin(t), np.cos(t), 2.0]),
                     lambda t: lam * np.array([-np.cos(t), -np.sin(t), 0.0]),
                     lambda t: lam * np.array([np.sin(t), -np.cos(t), 0.0]), domain=(-1, 1))
    return line, helix


@pytest.mark.parametrize("k", range(-150, 151, 15))
def test_dependence_sites_read_the_same_at_every_scale(k):
    lam = 10.0 ** k
    # Subspace: a plane's class while its normal's squares are normal floats,
    # else an error; and its generators' dependence
    for (u, v), cls in PLANES:
        if abs(k) <= 75:
            assert causal_class_subspace(Subspace((lam * u, lam * v))) is cls
        else:
            with pytest.raises(GeometryError, match="normal too"):
                Subspace((lam * u, lam * v))
        with pytest.raises(GeometryError, match="dependent"):
            Subspace((lam * u, lam * (u + 1e-7 * v)))
    # orbit: on the axis or off it
    for axis, (off, near) in ORBIT_POINTS.items():
        assert np.isfinite(orbit(axis, lam * np.array(off), [0.5])).all()
        with pytest.raises(GeometryError, match="lies on the"):
            orbit(axis, lam * np.array(near), [0.5])
    # rolling_radius scales with the polygon
    assert math.isclose(ConvexPolygon(lam * RECTANGLE).rolling_radius(), lam * 1.49 / 1.4,
                        rel_tol=1e-12)
    # the scaled profile stops at the guard band at the step it does at unit
    # scale, unless r0^4 in the first slope overflows
    if k <= 75:
        sol, unit = fall(lam), fall(1.0)
        assert (sol.truncated, sol.blew_up, len(sol.s)) == (True, False, len(unit.s))
    else:
        with pytest.raises(GeometryError, match="overflows"):
            fall(lam)
    # curvature_torsion_general: the line is straight; the helix never is,
    # and has its curvature and torsion unless |a' x a''|^2 leaves the normal floats
    line, helix = line_and_helix(lam)
    assert curvature_torsion_general(line, 0.3) == (0.0, 0.0)
    try:
        kappa, tau = curvature_torsion_general(helix, 0.3)
    except GeometryError as exc:
        assert abs(k) > 75, exc
    else:
        assert math.isclose(lam * kappa, 1 / 3, rel_tol=1e-12)
        assert math.isclose(lam * tau, 2 / 3, rel_tol=1e-12)


@pytest.mark.parametrize("k", range(-30, 31, 10))
def test_arc_length_line_is_straight_at_every_scale(k):
    # beta'' of the line lam t^2 (0.1, 0, 2) is alpha'' t'^2 + alpha' t'', whose terms
    # cancel only to rounding; alpha'' along alpha' makes it exactly zero
    w = 10.0 ** k * np.array([0.1, 0.0, 2.0])
    jet = CurveJet(lambda t: t * t * w, lambda t: 2 * t * w, lambda t: 2 * w,
                   lambda t: np.zeros(3), domain=(0.5, 2.0))
    beta = reparam_arclength(jet, 0.5)
    for s in np.linspace(0.0, beta.domain[1], 5):
        with pytest.raises(GeometryError, match="T' vanishes"):
            frenet(beta, s)


def test_subnormal_squares_are_an_error_not_a_verdict():
    # squares below the normal floats have lost their digits: the frame of
    # |alpha'|^2 = 5e-320 divided by zero, and the point 45 degrees off the
    # timelike axis was called on it
    v, a = np.array([0.0, 1e-160, 2e-160]), np.array([1e150, 0.0, 0.0])
    jet = CurveJet(lambda t: t * v, lambda t: v, lambda t: a, lambda t: np.zeros(3), domain=(-1, 1))
    with pytest.raises(GeometryError, match="underflows"):
        curvature_torsion_general(jet, 0.0)
    with pytest.raises(GeometryError, match="underflows"):
        orbit(CausalClass.TIMELIKE, [1e-160, 0.0, 1e-160], [0.5])
