import warnings

import numpy as np
import numpy.testing as npt
import pytest

from minkowski3 import core
from minkowski3.core import CausalClass, GeometryError, E1, E2, E3
from minkowski3.isometry import (
    IsometryComponent,
    RigidMotion,
    boost_lightlike,
    boost_spacelike,
    boost_timelike,
    component,
    conic_residual,
    is_lorentz,
    orbit,
)

from conftest import random_pp_motion

T1 = np.diag([1.0, 1.0, -1.0])
T2 = np.diag([1.0, -1.0, 1.0])


class TestMembership:
    def test_identity(self):
        assert is_lorentz(np.eye(3), 1e-12)

    def test_boost(self):
        assert is_lorentz(boost_spacelike(1.0), 1e-12)
        assert is_lorentz(boost_spacelike(2.0), 1e-12)

    def test_non_member(self):
        assert not is_lorentz(np.diag([2.0, 1.0, 1.0]))

    def test_determinant_is_unimodular(self, rng):
        for _ in range(50):
            m = random_pp_motion(rng).linear
            for extra in (np.eye(3), T1, T2, T1 @ T2):
                a = extra @ m
                assert is_lorentz(a, 1e-9)
                npt.assert_allclose(abs(np.linalg.det(a)), 1.0, rtol=1e-10)


class TestComponents:
    def test_identity_is_pp(self):
        assert component(np.eye(3)) is IsometryComponent.PP

    def test_reflections(self):
        assert component(T1) is IsometryComponent.MM
        assert component(T2) is IsometryComponent.MP
        assert component(T1 @ T2) is IsometryComponent.PM

    def test_boosts_are_pp(self):
        assert component(boost_timelike(0.7)) is IsometryComponent.PP
        assert component(boost_spacelike(-1.2)) is IsometryComponent.PP
        assert component(boost_lightlike(2.2)) is IsometryComponent.PP

    def test_cosets(self, rng):
        for _ in range(25):
            a = random_pp_motion(rng).linear
            assert component(a) is IsometryComponent.PP
            assert component(T1 @ T2 @ a) is IsometryComponent.PM
            assert component(T2 @ a) is IsometryComponent.MP
            assert component(T1 @ a) is IsometryComponent.MM

    def test_rejects_non_isometry(self):
        with pytest.raises(GeometryError):
            component(np.diag([2.0, 1.0, 1.0]))

    # s I with s^2 = 1 + 0.9e-9 passes the membership test, whose entries
    # deviate by 0.9e-9, but its det s^3 is 1 + 1.35e-9
    _NEAR = np.sqrt(1.0 + 0.9e-9) * np.eye(3)

    @pytest.mark.parametrize("call, message", [
        (lambda: is_lorentz(np.eye(2)), "expected a 3x3 matrix, got shape (2, 2)"),
        (lambda: is_lorentz(np.full((3, 3), np.nan)), "matrix entries must be finite"),
        (lambda: component(TestComponents._NEAR),
         "determinant 1.0000000013500001 is not within tolerance of +-1"),
    ], ids=["shape", "non-finite", "det"])
    def test_refusal_names_its_cause(self, call, message):
        with pytest.raises(GeometryError) as info:
            call()
        assert str(info.value) == message


class TestBoostFamilies:
    def test_zero_parameter_is_identity(self):
        for fam in (boost_timelike, boost_spacelike, boost_lightlike):
            npt.assert_allclose(fam(0.0), np.eye(3), atol=1e-15)

    def test_timelike_rotates_basis(self):
        npt.assert_allclose(boost_timelike(np.pi / 2) @ E1, E2, atol=1e-15)

    def test_lightlike_fixes_axis(self):
        npt.assert_allclose(boost_lightlike(1.3) @ (E2 + E3), E2 + E3, atol=1e-14)

    def test_spacelike_fixes_axis(self):
        npt.assert_allclose(boost_spacelike(2.0) @ E1, E1, atol=1e-15)

    @pytest.mark.parametrize("fam", [boost_timelike, boost_spacelike, boost_lightlike])
    def test_one_parameter_group(self, fam, rng):
        for _ in range(30):
            a, b = rng.uniform(-2, 2, size=2)
            npt.assert_allclose(fam(a) @ fam(b), fam(a + b), atol=1e-12)


class TestCrossEquivariance:
    def test_pushforward_identity(self, rng):
        # A(u x v) = det(A) (Au) x (Av) for every isometry
        for _ in range(40):
            a = random_pp_motion(rng).linear
            for extra in (np.eye(3), T1, T2):
                m = extra @ a
                u, v = rng.normal(size=(2, 3))
                lhs = m @ core.cross(u, v)
                rhs = np.linalg.det(m) * core.cross(m @ u, m @ v)
                npt.assert_allclose(lhs, rhs, atol=1e-10)


class TestCausalPreservation:
    def test_pp_preserves_class(self, rng):
        for _ in range(60):
            a = random_pp_motion(rng).linear
            v = rng.normal(size=3)
            cls = core.causal_class(v)
            if cls is CausalClass.LIGHTLIKE:
                continue
            assert core.causal_class(a @ v) is cls

    def test_pp_preserves_subspace_class(self, rng):
        for _ in range(40):
            a = random_pp_motion(rng).linear
            u, v = rng.normal(size=(2, 3))
            s = core.Subspace((u, v))
            cls = core.causal_class_subspace(s)
            if cls is CausalClass.LIGHTLIKE:
                continue
            assert core.causal_class_subspace(core.Subspace((a @ u, a @ v))) is cls


class TestRigidMotion:
    def test_apply_and_compose(self, rng):
        m1 = random_pp_motion(rng)
        m2 = random_pp_motion(rng)
        p = rng.normal(size=3)
        npt.assert_allclose(
            m1.apply(m2.apply(p)), m1.compose(m2).apply(p), rtol=1e-12, atol=1e-12
        )

    def test_rejects_bad_linear_part(self):
        with pytest.raises(GeometryError):
            RigidMotion(np.diag([2.0, 1.0, 1.0]), np.zeros(3))


class TestOrbits:
    def test_timelike_circle(self):
        ts = np.linspace(0, 2 * np.pi, 64)
        pts = orbit(CausalClass.TIMELIKE, [1.0, 0.0, 5.0], ts)
        npt.assert_allclose(pts[:, 0] ** 2 + pts[:, 1] ** 2, 1.0, atol=1e-12)
        npt.assert_allclose(pts[:, 2], 5.0, atol=1e-15)

    def test_spacelike_hyperbola(self):
        ts = np.linspace(-2, 2, 41)
        pts = orbit(CausalClass.SPACELIKE, [0.0, 0.0, 1.0], ts)
        npt.assert_allclose(pts[:, 1] ** 2 - pts[:, 2] ** 2, -1.0, atol=1e-12)
        npt.assert_allclose(pts[:, 0], 0.0, atol=1e-15)

    def test_lightlike_parabola(self):
        # p0 = (x, y, -y) in the plane <E1, E2 - E3>; the orbit is the
        # parabola p0 + t (2y, -x, -x) + t^2 (0, -y, -y)
        x0, y0 = 1.0, 1.0
        ts = np.linspace(-2, 2, 41)
        pts = orbit(CausalClass.LIGHTLIKE, [x0, y0, -y0], ts)
        X, Y = pts[:, 0], pts[:, 1]
        npt.assert_allclose(
            Y, y0 + x0 ** 2 / (4 * y0) - X ** 2 / (4 * y0), atol=1e-12
        )
        expected = (
            np.array([x0, y0, -y0])
            + ts[:, None] * np.array([2 * y0, -x0, -x0])
            + ts[:, None] ** 2 * np.array([0.0, -y0, -y0])
        )
        npt.assert_allclose(pts, expected, atol=1e-12)

    def test_on_axis_rejected(self):
        with pytest.raises(GeometryError):
            orbit(CausalClass.TIMELIKE, [0.0, 0.0, 5.0], [0.1])
        with pytest.raises(GeometryError):
            orbit(CausalClass.SPACELIKE, [3.0, 0.0, 0.0], [0.1])
        with pytest.raises(GeometryError):
            orbit(CausalClass.LIGHTLIKE, [0.0, 2.0, 2.0], [0.1])


class TestConicResidual:
    @pytest.mark.parametrize("axis,p0,conic", [
        (CausalClass.TIMELIKE, [1.0, 0.5, 2.0], "circle"),
        (CausalClass.SPACELIKE, [0.3, 0.0, 1.0], "hyperbola"),
        (CausalClass.LIGHTLIKE, [1.0, 1.0, -1.0], "parabola"),
        (CausalClass.LIGHTLIKE, [1.0, 2.0, 0.5], "parabola Y=y0+(x0^2-X^2)/(2(y0-z0))"),
        (CausalClass.LIGHTLIKE, [1.0, 1.0, 1.0], "line x=x0"),
    ])
    def test_orbits_lie_on_their_conic(self, axis, p0, conic):
        pts = orbit(axis, p0, np.linspace(-2, 2, 41))
        name, resid = conic_residual(axis, p0, pts)
        assert conic in name
        assert 0.0 <= resid <= 1e-12

    def test_off_conic_points_measured(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert conic_residual(CausalClass.TIMELIKE, [1.0, 0.0, 0.0], pts)[1] == 3.0
        # every lightlike orbit has a relation that is checked, off y = -z too
        for p0 in ([1.0, 2.0, 0.5], [1.0, 1.0, 1.0]):
            pts = orbit(CausalClass.LIGHTLIKE, p0, [0.0, 0.5]) + [[0.0, 0.0, 0.0], [0.25, 0.0, 0.0]]
            assert conic_residual(CausalClass.LIGHTLIKE, p0, pts)[1] >= 0.25

    def test_overflow_rejected_without_warnings(self):
        pts = orbit(CausalClass.SPACELIKE, [0.0, 1.0, 0.0], np.linspace(0, 700, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="overflows"):
                conic_residual(CausalClass.SPACELIKE, [0.0, 1.0, 0.0], pts)
