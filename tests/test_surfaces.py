import warnings

import numpy as np
import numpy.testing as npt
import pytest

from minkowski3.core import (
    CausalClass,
    CausalTypeError,
    GeometryError,
    E1,
    E2,
    E3,
    lorentz_dot,
)
from minkowski3.surfaces import (
    SurfaceChart,
    SurfaceKindTag,
    classify_totally_umbilical,
    de_sitter_chart,
    first_form,
    gauss_map,
    graph_chart,
    hyperbolic_plane_chart,
    laplace_beltrami,
    laplace_beltrami_grid,
    light_cone_chart,
    mean_curvature_foliated,
    null_scroll_chart,
    plane_chart,
    second_form,
    shape_and_curvatures,
)
from minkowski3.curves import PlaneCase, frenet, generate_constant_curvature
from minkowski3 import rotational, surfaces
from minkowski3.meshing import triangulate_chart
from minkowski3.rotational import (
    ProfileODEParams,
    _hermite,
    catenoid_chart,
    hyperbolic_cap_chart,
    integrate_riemann,
)

from conftest import lightlike_helix_jet, random_pp_motion, scaled_null_helix_jet


SAMPLES = [(u, v) for u in np.linspace(-0.5, 0.5, 4) for v in np.linspace(-0.5, 0.5, 4)]


class TestFirstForm:
    def test_graph_matrix(self):
        # graph of f: I = [[1-fx^2, -fx fy], [-fx fy, 1-fy^2]]
        f = lambda x, y: 0.3 * x * x - 0.2 * x * y
        chart = graph_chart(
            f,
            fx=lambda x, y: 0.6 * x - 0.2 * y,
            fy=lambda x, y: -0.2 * x,
            fxx=lambda x, y: 0.6,
            fxy=lambda x, y: -0.2,
            fyy=lambda x, y: 0.0,
        )
        u, v = 0.4, -0.3
        fx, fy = 0.6 * u - 0.2 * v, -0.2 * u
        (E, F, G), cls = first_form(chart, u, v)
        npt.assert_allclose((E, F, G), (1 - fx * fx, -fx * fy, 1 - fy * fy), rtol=1e-12)
        assert cls is CausalClass.SPACELIKE

    def test_flat_plane(self):
        chart = plane_chart([0, 0, 0], E1, E2)
        (E, F, G), cls = first_form(chart, 0.2, 0.7)
        assert (E, F, G) == (1.0, 0.0, 1.0)
        assert cls is CausalClass.SPACELIKE

    def test_steep_graph_is_timelike(self):
        chart = graph_chart(lambda x, y: 2 * x, fx=lambda x, y: 2.0,
                            fy=lambda x, y: 0.0, fxx=lambda x, y: 0.0,
                            fxy=lambda x, y: 0.0, fyy=lambda x, y: 0.0)
        (E, F, G), cls = first_form(chart, 0.1, 0.1)
        assert E * G - F * F == -3.0
        assert cls is CausalClass.TIMELIKE


class TestGaussMap:
    def test_horizontal_plane(self):
        chart = plane_chart([0, 0, 0], E1, E2)
        npt.assert_allclose(gauss_map(chart, 0.1, 0.2), E3, atol=1e-15)

    def test_future_even_when_orientation_flips(self):
        chart = plane_chart([0, 0, 0], E2, E1)  # reversed order
        npt.assert_allclose(gauss_map(chart, 0.1, 0.2), E3, atol=1e-15)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_hyperbolic_plane_normal_is_position(self, r):
        chart = hyperbolic_plane_chart(r)
        p = chart.position(0.3, -0.4)
        npt.assert_allclose(gauss_map(chart, 0.3, -0.4), p / r, atol=1e-13)

    def test_de_sitter_normal_is_radial_spacelike(self):
        chart = de_sitter_chart(1.0)
        n = gauss_map(chart, 0.2, 0.9)
        p = chart.position(0.2, 0.9)
        npt.assert_allclose(np.abs(n), np.abs(p), atol=1e-13)
        npt.assert_allclose(lorentz_dot(n, n), 1.0, atol=1e-13)

    def test_lands_on_hyperbolic_plane(self):
        # spacelike Gauss map: <N,N> = -1, future-directed
        for chart in (hyperbolic_plane_chart(1.5), catenoid_chart()):
            (u0, u1), (v0, v1) = chart.domain
            for u in np.linspace(u0 + 0.1, u1 - 0.1, 4):
                for v in np.linspace(v0 + 0.1, v1 - 0.1, 4):
                    n = gauss_map(chart, u, v)
                    npt.assert_allclose(lorentz_dot(n, n), -1.0, atol=1e-10)
                    assert n[2] > 0

    def test_spacelike_normal_e3_component(self):
        # |<N, E3>| >= 1 on spacelike surfaces
        for chart in (hyperbolic_plane_chart(1.0), catenoid_chart()):
            (u0, u1), (v0, v1) = chart.domain
            for u in np.linspace(u0 + 0.1, u1 - 0.1, 5):
                for v in np.linspace(v0 + 0.1, v1 - 0.1, 5):
                    n = gauss_map(chart, u, v)
                    assert abs(lorentz_dot(n, E3)) >= 1.0 - 1e-12

    def test_light_cone_rejected(self):
        with pytest.raises(CausalTypeError):
            gauss_map(light_cone_chart(), 1.0, 0.5)


def old_difference_partials(f, h):
    """The central differences that graph_chart and SurfaceChart each wrote out."""
    return {
        "du": lambda u, v: (f(u + h, v) - f(u - h, v)) / (2 * h),
        "dv": lambda u, v: (f(u, v + h) - f(u, v - h)) / (2 * h),
        "duu": lambda u, v: (f(u + h, v) - 2 * f(u, v) + f(u - h, v)) / (h * h),
        "dvv": lambda u, v: (f(u, v + h) - 2 * f(u, v) + f(u, v - h)) / (h * h),
        "duv": lambda u, v: (
            f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h) + f(u - h, v - h)
        ) / (4 * h * h),
    }


class TestDifferencePartials:
    POINTS = [(0.0, 0.0), (0.3, -0.7), (-0.45, 0.2), (1 / 3, 0.9)]

    def test_graph_chart(self):
        f = lambda x, y: np.sqrt(1.5 + x * x + y * y) + 0.1 * x * y * y
        domain = ((-1.0, 1.0), (-2.0, 1.5))
        chart = graph_chart(f, domain=domain)
        ref = old_difference_partials(f, 1e-5 * 3.5)
        for u, v in self.POINTS:
            for name, slot in (("du", 0), ("dv", 1)):
                assert getattr(chart, name)(u, v)[slot] == 1.0
                assert getattr(chart, name)(u, v)[2] == ref[name](u, v), name
            for name in ("duu", "duv", "dvv"):
                assert getattr(chart, name)(u, v)[2] == ref[name](u, v), name

    @pytest.mark.parametrize("h_fd", [None, 1e-3])
    def test_surface_chart(self, h_fd):
        x = lambda u, v: np.array([np.sin(u) * v, u * u - v, np.exp(0.3 * u * v)])
        chart = SurfaceChart(x, domain=((-1.0, 1.0), (-0.5, 1.5)), h_fd=h_fd)
        ref = old_difference_partials(chart.position, 2e-4 if h_fd is None else h_fd)
        for u, v in self.POINTS:
            for name, partial in ref.items():
                assert np.array_equal(getattr(chart, name)(u, v), partial(u, v)), name


class TestSecondForm:
    def test_plane_vanishes(self):
        chart = plane_chart([1, 2, 3], E1, E2 + 0.3 * E1)
        npt.assert_allclose(second_form(chart, 0.5, 0.5), (0.0, 0.0, 0.0), atol=1e-15)

    def test_arrays_give_each_points_coefficients(self):
        chart = hyperbolic_plane_chart(1.5, (0.1, 0.2, 0.3))
        us, vs = np.array([0.0, 0.3, -0.7]), np.array([0.2, -0.4, 0.6])
        e, f, g = second_form(chart, us, vs)
        assert e.shape == f.shape == g.shape == (3,)
        assert list(zip(e, f, g)) == [second_form(chart, u, v) for u, v in zip(us, vs)]

    def test_hyperbolic_graph_symmetry_at_apex(self):
        e, f, g = second_form(hyperbolic_plane_chart(1.0), 0.0, 0.0)
        npt.assert_allclose(e, g, rtol=1e-12)
        npt.assert_allclose(f, 0.0, atol=1e-13)

    def test_null_scroll_closed_form(self):
        # X(s, t) = alpha(s) + t B(s) over a null helix with tau' = 0:
        # in the frame normal N_frame + t tau B the second form is
        # (1 - t tau' - t^2 tau^3, -tau, 0)
        jet = lightlike_helix_jet()
        tau = -0.5
        t = 0.25

        def frame(s):
            from minkowski3.curves import _frame_at
            T, N, B, _, _ = _frame_at(jet, s)
            return T, N, B

        def x(s, tt):
            return jet.position(s) + tt * frame(s)[2]

        chart = SurfaceChart(x, domain=((-1, 1), (-0.4, 0.4)), h_fd=1e-5)
        e, f, g = second_form(chart, 0.3, t)
        npt.assert_allclose(e, 1 - t * t * tau ** 3, atol=1e-5)
        npt.assert_allclose(f, -tau, atol=1e-6)
        npt.assert_allclose(g, 0.0, atol=1e-6)


class TestShapeAndCurvatures:
    @pytest.mark.parametrize("r", [1.0, 2.5])
    def test_hyperbolic_plane(self, r):
        data = shape_and_curvatures(hyperbolic_plane_chart(r), 0.3, -0.2)
        npt.assert_allclose(data.H, 1 / r, rtol=1e-10)
        npt.assert_allclose(data.K, -1 / r ** 2, rtol=1e-10)
        assert data.umbilic and data.diagonalizable
        npt.assert_allclose(data.principal, (-1 / r, -1 / r), rtol=1e-9)

    @pytest.mark.parametrize("r", [1.0, 3.0])
    def test_de_sitter(self, r):
        data = shape_and_curvatures(de_sitter_chart(r), 0.2, 0.7)
        npt.assert_allclose(data.H, 1 / r, rtol=1e-10)
        npt.assert_allclose(data.K, 1 / r ** 2, rtol=1e-10)
        assert data.umbilic

    def test_null_scroll(self):
        chart = null_scroll_chart(lightlike_helix_jet(), u_range=(-0.4, 0.4),
                                  v_range=(-1, 1))
        tau = -0.5
        data = shape_and_curvatures(chart, 0.25, 0.3)
        npt.assert_allclose(data.H, tau, atol=1e-9)
        npt.assert_allclose(data.K, tau * tau, atol=1e-9)
        assert not data.diagonalizable
        assert not data.umbilic
        npt.assert_allclose(data.H ** 2, data.K, atol=1e-9)
        assert data.causal is CausalClass.TIMELIKE

    @pytest.mark.parametrize("jet", [lightlike_helix_jet(), scaled_null_helix_jet(1.5)])
    def test_null_scroll_xuv_is_torsion_times_normal(self, jet):
        chart = null_scroll_chart(jet, u_range=(-0.4, 0.4), v_range=(-1, 1))
        for u, v in ((0.25, 0.3), (-0.1, -0.8), (0.0, 0.0)):
            fr = frenet(jet, v)
            assert np.array_equal(chart.duv(u, v), -fr.tau * fr.N)

    def test_null_scroll_needs_a_lightlike_base_curve(self):
        # the frame is taken at the first evaluation: a unit-speed circle is refused there
        chart = null_scroll_chart(generate_constant_curvature(PlaneCase.SPACELIKE_PLANE, 1.0),
                                  u_range=(-0.4, 0.4), v_range=(-0.5, 0.5))
        for evaluate in (chart.position, chart.du, lambda u, v: shape_and_curvatures(chart, u, v)):
            with pytest.raises(CausalTypeError, match="lightlike base curve"):
                evaluate(0.1, 0.3)

    def test_null_scroll_varying_pitch(self):
        c = 1.5
        chart = null_scroll_chart(scaled_null_helix_jet(c), u_range=(-0.4, 0.4),
                                  v_range=(-1, 1))
        tau = -1.0 / (2 * c * c)
        data = shape_and_curvatures(chart, 0.1, 0.4)
        npt.assert_allclose(data.H, tau, atol=1e-8)
        npt.assert_allclose(data.K, tau * tau, atol=1e-8)

    def test_spacelike_invariants(self, rng):
        # I A symmetric; lambda_i = -H +- sqrt(H^2+K); H^2 + K >= 0
        for chart in (hyperbolic_plane_chart(1.3), catenoid_chart(),
                      hyperbolic_cap_chart(2.0, 3.0)[0]):
            (u0, u1), (v0, v1) = chart.domain
            for _ in range(10):
                u = rng.uniform(u0 + 0.1, u1 - 0.1)
                v = rng.uniform(v0 + 0.1, v1 - 0.1)
                data = shape_and_curvatures(chart, u, v)
                (E, F, G), _ = first_form(chart, u, v)
                imat = np.array([[E, F], [F, G]])
                ia = imat @ data.shape_matrix
                npt.assert_allclose(ia, ia.T, atol=1e-10 * (1 + np.abs(ia).max()))
                assert data.H ** 2 + data.K >= -1e-12
                disc = np.sqrt(max(data.H ** 2 + data.K, 0.0))
                lam = sorted((-data.H - disc, -data.H + disc))
                npt.assert_allclose(sorted(data.principal), lam, rtol=1e-6, atol=1e-7)

    def test_rigid_motion_invariance(self, rng):
        chart = hyperbolic_cap_chart(1.5, 1.0)[0]
        for _ in range(5):
            motion = random_pp_motion(rng)
            moved = chart.transformed(motion)
            for (u, v) in ((0.2, -0.3), (0.0, 0.5)):
                d0 = shape_and_curvatures(chart, u, v)
                d1 = shape_and_curvatures(moved, u, v)
                npt.assert_allclose(d0.H, d1.H, rtol=1e-8, atol=1e-10)
                npt.assert_allclose(d0.K, d1.K, rtol=1e-8, atol=1e-10)

    def test_gauss_from_shape_trace_identity(self):
        # K = -2H^2 + trace(A^2)/2 on spacelike charts
        chart = catenoid_chart()
        data = shape_and_curvatures(chart, 1.2, 0.7)
        npt.assert_allclose(
            data.K,
            -2 * data.H ** 2 + np.trace(data.shape_matrix @ data.shape_matrix) / 2,
            atol=1e-12,
        )

    def test_comparison_at_tangency(self):
        # plane below a cap, tangent at the apex: H_plane <= H_cap
        cap_chart, _ = hyperbolic_cap_chart(2.0, 1.0)
        plane = plane_chart(cap_chart.position(0.0, 0.0), E1, E2)
        h_plane = shape_and_curvatures(plane, 0.0, 0.0).H
        h_cap = shape_and_curvatures(cap_chart, 0.0, 0.0).H
        assert h_plane <= h_cap
        npt.assert_allclose(h_cap, 0.5, rtol=1e-12)

    def test_lightlike_point_rejected(self):
        with pytest.raises(CausalTypeError):
            shape_and_curvatures(light_cone_chart(), 1.0, 0.3)


def test_memo_exact_starts_over_after_4096_keys():
    calls = []

    def sinh(x):
        calls.append(x)
        return np.sinh(x)

    memo = surfaces._memo_exact(sinh)
    keys = np.linspace(-1.0, 1.0, 4096)
    before = [memo(x) for x in keys]
    assert [memo(x) for x in keys] == before and len(calls) == 4096  # all held
    memo(2.0)  # the 4097th key empties the cache first
    assert len(calls) == 4097
    after = [memo(x) for x in keys]
    assert len(calls) == 4097 + 4096 and after == before


class TestUmbilicalClassification:
    def test_plane(self):
        kind = classify_totally_umbilical(plane_chart([0, 0, 1], E1, E2), SAMPLES)
        assert kind.tag is SurfaceKindTag.PLANE
        npt.assert_allclose(np.abs(kind.normal), E3, atol=1e-12)

    def test_hyperbolic_plane_with_center(self):
        chart = hyperbolic_plane_chart(2.0, p0=(1.0, 1.0, 0.0))
        kind = classify_totally_umbilical(chart, SAMPLES)
        assert kind.tag is SurfaceKindTag.HYPERBOLIC_PLANE
        npt.assert_allclose(kind.radius, 2.0, rtol=1e-8)
        npt.assert_allclose(kind.center, [1.0, 1.0, 0.0], atol=1e-8)
        assert kind.residual < 1e-8

    def test_de_sitter(self):
        kind = classify_totally_umbilical(
            de_sitter_chart(3.0),
            [(u, v) for u in np.linspace(-0.5, 0.5, 4) for v in np.linspace(0.2, 1.0, 4)],
        )
        assert kind.tag is SurfaceKindTag.DE_SITTER
        npt.assert_allclose(kind.radius, 3.0, rtol=1e-8)
        npt.assert_allclose(kind.center, np.zeros(3), atol=1e-8)

    def test_non_umbilic_rejected(self):
        with pytest.raises(GeometryError):
            classify_totally_umbilical(catenoid_chart(), [(1.0, 0.5), (1.5, 1.0)])

    def test_no_samples_rejected(self):
        with pytest.raises(GeometryError, match="needs at least one sample"):
            classify_totally_umbilical(plane_chart([0, 0, 1], E1, E2), [])


class TestFoliatedMeanCurvature:
    def test_plane(self):
        assert mean_curvature_foliated(plane_chart([0, 0, 0], E1, E2), 0.1, 0.1) == 0.0

    def test_hyperbolic_plane(self):
        h = mean_curvature_foliated(hyperbolic_plane_chart(1.0), 0.3, 0.2)
        npt.assert_allclose(abs(h), 1.0, rtol=1e-10)

    def test_catenoid_minimal(self):
        assert abs(mean_curvature_foliated(catenoid_chart(), 1.2, 0.7)) <= 1e-8

    def test_agrees_with_shape_route(self, rng):
        for chart in (hyperbolic_cap_chart(1.0, 1.0)[0], catenoid_chart()):
            (u0, u1), (v0, v1) = chart.domain
            for _ in range(8):
                u = rng.uniform(u0 + 0.1, u1 - 0.1)
                v = rng.uniform(v0 + 0.1, v1 - 0.1)
                hf = mean_curvature_foliated(chart, u, v)
                hs = shape_and_curvatures(chart, u, v).H
                npt.assert_allclose(abs(hf), abs(hs), atol=1e-8)

    def test_timelike_rejected(self):
        with pytest.raises(CausalTypeError):
            mean_curvature_foliated(de_sitter_chart(1.0), 0.1, 0.1)

    @pytest.mark.parametrize("u,v", [([0.3, 0.4], 0.2), (0.3, np.array([0.2])), (np.array([0.3]), 0.2)])
    def test_arrays_refused(self, u, v):
        with pytest.raises(GeometryError, match="one point"):
            mean_curvature_foliated(hyperbolic_plane_chart(1.0), u, v)

    def test_equals_the_identity_on_batch_coefficients(self, rng):
        def by_batch(chart, u, v):
            (E, F, G), _ = first_form(chart, np.array([u]), np.array([v]))
            E, F, G = float(E[0]), float(F[0]), float(G[0])
            w = E * G - F * F
            xu, xv = chart.du(np.float64(u), np.float64(v)), chart.dv(np.float64(u), np.float64(v))

            def det3(c):
                return float(np.linalg.det(np.column_stack([xu, xv, c])))

            p = E * det3(chart.dvv(u, v)) - 2 * F * det3(chart.duv(u, v)) + G * det3(chart.duu(u, v))
            return 0.5 * p / w ** 1.5

        for chart in (hyperbolic_cap_chart(1.0, 1.0)[0], catenoid_chart(), hyperbolic_plane_chart(0.7)):
            (u0, u1), (v0, v1) = chart.domain
            for u, v in zip(rng.uniform(u0, u1, 12), rng.uniform(v0, v1, 12)):
                h = mean_curvature_foliated(chart, u, v)
                assert np.float64(h).view(np.int64) == np.float64(by_batch(chart, u, v)).view(np.int64)


class TestLaplaceBeltrami:
    def test_constant_field(self):
        chart = hyperbolic_plane_chart(1.0)
        us = np.linspace(-0.5, 0.5, 9)
        vs = np.linspace(-0.5, 0.5, 9)
        f = np.ones((9, 9))
        out = laplace_beltrami_grid(chart, f, us, vs)
        npt.assert_allclose(out[1:-1, 1:-1], 0.0, atol=1e-12)

    def test_position_identity_on_hyperbolic_plane(self):
        # laplacian of <x, a> equals 2H <N, a>
        chart = hyperbolic_plane_chart(1.0)
        a = E3
        us = np.linspace(-0.6, 0.6, 33)
        vs = np.linspace(-0.6, 0.6, 33)
        f = np.array([[lorentz_dot(chart.position(u, v), a) for v in vs] for u in us])
        for i in (5, 16, 27):
            for j in (5, 16, 27):
                lap = laplace_beltrami(chart, f, us, vs, i, j)
                data = shape_and_curvatures(chart, us[i], vs[j])
                nval = lorentz_dot(gauss_map(chart, us[i], vs[j]), a)
                npt.assert_allclose(lap, 2 * data.H * nval, atol=5e-3)

    def test_normal_identity_second_order(self):
        # residual of laplacian<N,a> - (4H^2+2K)<N,a> shrinks at order ~2
        chart = hyperbolic_plane_chart(1.0)
        a = E3

        def worst(n):
            us = np.linspace(-0.6, 0.6, n)
            vs = np.linspace(-0.6, 0.6, n)
            f = np.array(
                [[lorentz_dot(gauss_map(chart, u, v), a) for v in vs] for u in us]
            )
            w = 0.0
            step = max(1, (n - 2) // 6)
            for i in range(1, n - 1, step):
                for j in range(1, n - 1, step):
                    lap = laplace_beltrami(chart, f, us, vs, i, j)
                    data = shape_and_curvatures(chart, us[i], vs[j])
                    nval = lorentz_dot(gauss_map(chart, us[i], vs[j]), a)
                    w = max(w, abs(lap - (4 * data.H ** 2 + 2 * data.K) * nval))
            return w

        r1, r2 = worst(17), worst(33)
        assert 1.5 <= np.log2(r1 / r2) <= 2.5

    def test_boundary_node_rejected(self):
        chart = hyperbolic_plane_chart(1.0)
        us = vs = np.linspace(-0.5, 0.5, 5)
        with pytest.raises(GeometryError):
            laplace_beltrami(chart, np.ones((5, 5)), us, vs, 0, 2)


class TestImmersionValidation:
    def test_degenerate_chart_rejected(self):
        chart = SurfaceChart(
            lambda u, v: np.array([u, u, 0.0]),
            lambda u, v: E1 + E2,
            lambda u, v: E1 + E2,
            lambda u, v: np.zeros(3),
            lambda u, v: np.zeros(3),
            lambda u, v: np.zeros(3),
        )
        with pytest.raises(GeometryError):
            first_form(chart, 0.1, 0.1)


class TestCatalogCenters:
    @pytest.mark.parametrize("make", [
        lambda c: plane_chart(c, E1, E2),
        lambda c: hyperbolic_plane_chart(1.0, c),
        lambda c: de_sitter_chart(1.0, c),
    ], ids=["plane", "hyperbolic", "de-sitter"])
    def test_center_with_overflowing_square_rejected(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="center too large"):
                make([1.0, 0.0, 1e308])
        make([1.0, 0.0, 1e100])  # large but squarable


EVALUATORS = ("position", "du", "dv", "duu", "duv", "dvv")


def _first_hyperbolic(r, p0):
    """hyperbolic_plane_chart's evaluators as first written: the bit reference."""
    def w(u, v):
        return np.sqrt(r * r + u * u + v * v)

    return (
        lambda u, v: p0 + np.array([u, v, w(u, v)]),
        lambda u, v: np.array([1.0, 0.0, u / w(u, v)]),
        lambda u, v: np.array([0.0, 1.0, v / w(u, v)]),
        lambda u, v: np.array([0.0, 0.0, (v * v + r * r) / w(u, v) ** 3]),
        lambda u, v: np.array([0.0, 0.0, -u * v / w(u, v) ** 3]),
        lambda u, v: np.array([0.0, 0.0, (u * u + r * r) / w(u, v) ** 3]),
    )


def _first_de_sitter(r, p0):
    """de_sitter_chart's evaluators as first written: the bit reference."""
    return (
        lambda u, v: p0 + r * np.array([np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), np.sinh(u)]),
        lambda u, v: r * np.array([np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v), np.cosh(u)]),
        lambda u, v: r * np.array([-np.cosh(u) * np.sin(v), np.cosh(u) * np.cos(v), 0.0]),
        lambda u, v: r * np.array([np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), np.sinh(u)]),
        lambda u, v: r * np.array([-np.sinh(u) * np.sin(v), np.sinh(u) * np.cos(v), 0.0]),
        lambda u, v: r * np.array([-np.cosh(u) * np.cos(v), -np.cosh(u) * np.sin(v), 0.0]),
    )


def _first_circle(r, a, b):
    """rotational._circle_chart's evaluators as first written: the bit reference."""
    (r0, r1, r2), (a0, a1, a2), (b0, b1, b2) = r, a, b
    return (
        lambda u, v: np.array([a0(u) + r0(u) * np.cos(v), b0(u) + r0(u) * np.sin(v), u]),
        lambda u, v: np.array([a1(u) + r1(u) * np.cos(v), b1(u) + r1(u) * np.sin(v), 1.0]),
        lambda u, v: np.array([-r0(u) * np.sin(v), r0(u) * np.cos(v), 0.0]),
        lambda u, v: np.array([a2(u) + r2(u) * np.cos(v), b2(u) + r2(u) * np.sin(v), 0.0]),
        lambda u, v: np.array([-r1(u) * np.sin(v), r1(u) * np.cos(v), 0.0]),
        lambda u, v: np.array([-r0(u) * np.cos(v), -r0(u) * np.sin(v), 0.0]),
    )


def _catalog_pairs():
    """(chart, reference evaluators) for each rewritten catalog chart."""
    p0 = np.array([0.3, -0.1, 0.2])
    pairs = [(hyperbolic_plane_chart(1.3, p0), _first_hyperbolic(1.3, p0)),
             (de_sitter_chart(1.7, p0), _first_de_sitter(1.7, p0))]
    axis = (lambda u: -0.0,) * 3
    pairs.append((catenoid_chart(), _first_circle((np.sinh, np.cosh, np.sinh), axis, axis)))
    # a profile whose centers drift, so a and b are not zero
    sol = integrate_riemann(ProfileODEParams(c=0.3, d=-0.2, r0=1.0, rp0=1.5, s1=0.5, h=1e-2))
    fits = [_hermite(sol.s, y, dy) for y, dy in
            ((sol.r, sol.rp), (sol.a, 0.3 * sol.r ** 2), (sol.b, -0.2 * sol.r ** 2))]
    pairs.append((rotational._circle_chart(*fits, ((0.0, 0.5), (0.0, 2 * np.pi))),
                  _first_circle(*fits)))
    return pairs


@pytest.mark.parametrize("pair", _catalog_pairs(), ids=["hyperbolic", "de-sitter", "catenoid",
                                                        "profile"])
def test_catalog_evaluators_keep_their_first_bits(pair):
    # each sub-expression is now formed once per call: the bits must be those
    # of the expressions as first written, at random points, signed zeros and
    # the domain ends
    chart, reference = pair
    (u0, u1), (v0, v1) = chart.domain
    rng = np.random.default_rng(29)
    ends = (u0, u1, v0, v1, 0.0, -0.0)
    points = [(u, v) for u in ends for v in ends]
    points += list(zip(rng.uniform(u0, u1, 200), rng.uniform(v0, v1, 200)))
    for u, v in points:
        u, v = np.float64(u), np.float64(v)
        for name, ref in zip(EVALUATORS, reference):
            assert getattr(chart, name)(u, v).tobytes() == np.asarray(ref(u, v)).tobytes(), (name, u, v)


@pytest.mark.parametrize("make, message", [
    (de_sitter_chart, "overflow encountered in multiply"),
    (hyperbolic_plane_chart, "invalid value encountered in scalar divide"),
])
def test_huge_radius_raises_as_numpy_says(make, message):
    # at r = 1e200 the first form of de Sitter overflows, and the hyperboloid's
    # second partials divide inf by inf; the CLI's numeric policy raises both
    chart = make(1e200)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError, match=f"^{message}$"):
            triangulate_chart(chart, 5, 5)
    with np.errstate(over="raise"):
        if make is de_sitter_chart:
            with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
                shape_and_curvatures(chart, 0.3, 0.2)
        else:
            with pytest.raises(GeometryError, match="coordinates must be finite"):
                chart.position(np.float64(0.3), np.float64(0.2))


class TestNullScrollMemo:
    def test_zero_after_negative_zero_is_fresh(self):
        jet = scaled_null_helix_jet(1.2)
        fresh = null_scroll_chart(jet).duv(0.1, 0.0)
        chart = null_scroll_chart(jet)
        negative = chart.duv(0.1, -0.0)
        assert chart.duv(0.1, 0.0).tobytes() == fresh.tobytes()
        # the sign of zero reaches the output, so 0.0 and -0.0 are different inputs
        assert negative.tobytes() != fresh.tobytes()

    def test_any_evaluation_order_gives_fresh_bytes(self, rng):
        jet = scaled_null_helix_jet(1.2)
        points = [(u, v) for u in (0.1, -0.0, 0.25) for v in (0.0, -0.0, 0.3, -0.7)]
        fresh = [{name: getattr(null_scroll_chart(jet), name)(u, v).tobytes() for name in EVALUATORS}
                 for u, v in points]
        n = len(points)
        for order in (range(n), range(n - 1, -1, -1), rng.permutation(n)):
            chart = null_scroll_chart(jet)
            for i in order:
                for name in EVALUATORS:
                    assert getattr(chart, name)(*points[i]).tobytes() == fresh[i][name], (name, points[i])
