"""The batched curvature kernel against the pointwise API, bit for bit.

Meshes, Laplace-Beltrami grids and batched `shape_and_curvatures` calls
evaluate many points at once; each of their numbers must equal what the
scalar calls give at the same point, and their errors must be the ones the
scalar call raises at the first bad point.
"""

import re
import warnings

import numpy as np
import pytest

from minkowski3 import rotational
from minkowski3.core import E1, E2, E3, CausalClass, CausalTypeError, GeometryError
from minkowski3.curves import CurveJet
from minkowski3.meshing import disk_graph_mesh, triangulate_chart
from minkowski3.surfaces import (
    CurvatureBatch,
    SurfaceChart,
    de_sitter_chart,
    first_form,
    gauss_map,
    graph_chart,
    hyperbolic_plane_chart,
    laplace_beltrami,
    laplace_beltrami_grid,
    light_cone_chart,
    null_scroll_chart,
    plane_chart,
    shape_and_curvatures,
)

from conftest import random_pp_motion, scaled_null_helix_jet


def profile():
    params = rotational.ProfileODEParams(H=0.5, r0=1.0, rp0=1.5, s0=0.0, s1=0.5, h=1e-3)
    return rotational.profile_chart(rotational.integrate_rotational(params))


def cap_mesh():
    chart, _ = rotational.hyperbolic_cap_chart(1.2, 0.9)
    return chart, disk_graph_mesh(chart, 0.9, 5, 12)


MESHES = {
    "hyperbolic": lambda: (c := hyperbolic_plane_chart(1.3, (0.2, -0.1, 0.4)),
                           triangulate_chart(c, 9, 8)),
    "de-sitter": lambda: (c := de_sitter_chart(0.8, (0.1, 0.3, -0.2)),
                          triangulate_chart(c, 7, 9, wrap_v=True)),
    "catenoid": lambda: (c := rotational.catenoid_chart(), triangulate_chart(c, 6, 9, wrap_v=True)),
    "cap": cap_mesh,
    "fd-graph": lambda: (c := graph_chart(lambda x, y: np.sqrt(1.5 + x * x + y * y)),
                         triangulate_chart(c, 7, 7)),
    "null-scroll": lambda: (c := null_scroll_chart(scaled_null_helix_jet(1.2), u_range=(-0.4, 0.4),
                                                   v_range=(-1.0, 1.0)),
                            triangulate_chart(c, 6, 7)),
    "profile": lambda: (c := profile(), triangulate_chart(c, 6, 8, wrap_v=True)),
    "transformed": lambda: (
        c := hyperbolic_plane_chart(0.9).transformed(random_pp_motion(np.random.default_rng(5))),
        triangulate_chart(c, 7, 6)),
}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_mesh_equals_pointwise(name):
    chart, mesh = MESHES[name]()
    pointwise = [shape_and_curvatures(chart, u, v) for u, v in mesh.uv]
    assert np.array_equal(mesh.vertices, np.array([chart.position(u, v) for u, v in mesh.uv]))
    assert np.array_equal(mesh.normals, np.array([gauss_map(chart, u, v) for u, v in mesh.uv]))
    assert np.array_equal(mesh.mean_curvature, [d.H for d in pointwise])
    assert np.array_equal(mesh.gauss_curvature, [d.K for d in pointwise])
    assert np.array_equal(mesh.umbilic, [d.umbilic for d in pointwise])

    batch = shape_and_curvatures(chart, mesh.uv[:, 0], mesh.uv[:, 1])
    assert isinstance(batch, CurvatureBatch) and batch.H.shape == (len(mesh.uv),)
    assert np.array_equal(batch.shape_matrix, [d.shape_matrix for d in pointwise])
    assert np.array_equal(batch.diagonalizable, [d.diagonalizable for d in pointwise])
    assert np.array_equal(batch.spacelike, [d.causal.value == "spacelike" for d in pointwise])
    principal = [d.principal if d.principal is not None else (np.nan, np.nan) for d in pointwise]
    assert np.array_equal(batch.principal, principal, equal_nan=True)
    for k, d in enumerate(pointwise):
        p = batch.point(k)
        assert (p.H, p.K, p.principal, p.diagonalizable, p.umbilic, p.causal) == \
            (d.H, d.K, d.principal, d.diagonalizable, d.umbilic, d.causal)


def test_null_scroll_batch_is_not_diagonalizable():
    chart, mesh = MESHES["null-scroll"]()
    batch = shape_and_curvatures(chart, mesh.uv[:, 0], mesh.uv[:, 1])
    off_locus = np.abs(mesh.uv[:, 0]) > 1e-9
    assert not batch.diagonalizable[off_locus].any()
    assert np.isnan(batch.principal[off_locus]).all()


def loop_faces(nu, nv, wrap_v):
    """The structured triangulation written as explicit loops."""
    idx = lambda i, j: i * nv + (j % nv if wrap_v else j)
    faces = []
    for i in range(nu - 1):
        for j in range(nv if wrap_v else nv - 1):
            a, b, c, d = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
            faces += [(a, b, c), (a, c, d)]
    boundary = [i in (0, nu - 1) or (not wrap_v and j in (0, nv - 1))
                for i in range(nu) for j in range(nv)]
    return np.array(faces), np.array(boundary)


@pytest.mark.parametrize("wrap_v", [False, True])
def test_indexed_faces_equal_loops(wrap_v):
    mesh = triangulate_chart(hyperbolic_plane_chart(1.0), 5, 7, wrap_v=wrap_v)
    faces, boundary = loop_faces(5, 6 if wrap_v else 7, wrap_v)
    assert mesh.faces.dtype == faces.dtype and np.array_equal(mesh.faces, faces)
    assert np.array_equal(mesh.boundary, boundary)


def test_disk_faces_equal_loops():
    n_r, n_t = 4, 7
    mesh = disk_graph_mesh(rotational.hyperbolic_cap_chart(1.0, 1.0)[0], 1.0, n_r, n_t)
    rings = [list(range(1 + i * n_t, 1 + (i + 1) * n_t)) for i in range(n_r)]
    faces = [(0, rings[0][j], rings[0][(j + 1) % n_t]) for j in range(n_t)]
    for inner, outer in zip(rings, rings[1:]):
        for j in range(n_t):
            a, b, c, d = inner[j], outer[j], outer[(j + 1) % n_t], inner[(j + 1) % n_t]
            faces += [(a, b, c), (a, c, d)]
    assert np.array_equal(mesh.faces, faces)
    assert np.array_equal(np.flatnonzero(mesh.boundary), rings[-1])


def loop_laplace(chart, f, us, vs, i, j):
    """The flux stencil at one node, written out point by point."""
    hu, hv = us[1] - us[0], vs[1] - vs[0]

    def weights(u, v):
        (E, F, G), _ = first_form(chart, u, v)
        det = E * G - F * F
        s = np.sqrt(abs(det))
        return s * G / det, -s * F / det, s * E / det, s

    def flux_u(ih, jj):
        g11, g12, _, _ = weights(0.5 * (us[ih] + us[ih + 1]), vs[jj])
        fu = (f[ih + 1, jj] - f[ih, jj]) / hu
        fv = (f[ih, jj + 1] + f[ih + 1, jj + 1] - f[ih, jj - 1] - f[ih + 1, jj - 1]) / (4 * hv)
        return g11 * fu + g12 * fv

    def flux_v(ii, jh):
        _, g12, g22, _ = weights(us[ii], 0.5 * (vs[jh] + vs[jh + 1]))
        fv = (f[ii, jh + 1] - f[ii, jh]) / hv
        fu = (f[ii + 1, jh] + f[ii + 1, jh + 1] - f[ii - 1, jh] - f[ii - 1, jh + 1]) / (4 * hu)
        return g12 * fu + g22 * fv

    div = (flux_u(i, j) - flux_u(i - 1, j)) / hu + (flux_v(i, j) - flux_v(i, j - 1)) / hv
    return float(div / weights(us[i], vs[j])[3])


@pytest.mark.parametrize("chart", [
    hyperbolic_plane_chart(1.1, (0.1, 0.2, 0.3), domain=((-0.8, 0.8), (-0.8, 0.8))),
    de_sitter_chart(1.3, domain=((-0.9, 0.9), (0.0, 3.0))),
], ids=["hyperbolic", "de-sitter"])
def test_laplace_grid_equals_every_node(chart):
    us, vs = chart.grid(9, 11)  # unequal steps hu != hv
    f = np.random.default_rng(3).standard_normal((9, 11))
    grid = laplace_beltrami_grid(chart, f, us, vs)
    inner = [(i, j) for i in range(1, 8) for j in range(1, 10)]
    nodes = [laplace_beltrami(chart, f, us, vs, i, j) for i, j in inner]
    assert np.array_equal(grid[1:-1, 1:-1].ravel(), nodes)
    assert nodes == [loop_laplace(chart, f, us, vs, i, j) for i, j in inner]
    assert np.isnan(grid[[0, -1], :]).all() and np.isnan(grid[:, [0, -1]]).all()


def test_first_form_classifies_lightlike_points():
    (E, F, G), classes = first_form(light_cone_chart(), [0.5, 1.0], [0.0, 1.0])
    assert [c.value for c in classes] == ["lightlike", "lightlike"]
    (E, F, G), classes = first_form(mixed_chart(), [0.5, 0.5, 0.5], [0.0, 1.0, 2.0])
    assert [c.value for c in classes] == ["spacelike", "lightlike", "timelike"]
    assert np.array_equal(E, [1.0, 0.0, -3.0]) and np.array_equal(G, [0.25] * 3)


def raised(fn, *args):
    with pytest.raises(GeometryError) as info:
        fn(*args)
    return info.value


@pytest.mark.parametrize("chart,error", [
    (light_cone_chart(), CausalTypeError),
    (SurfaceChart(lambda u, v: np.array([u, u, 0.0])), GeometryError),
], ids=["light-cone", "not-immersed"])
def test_mesh_raises_the_scalar_error(chart, error):
    # the mesh's first vertex is the corner of the parameter rectangle
    (u0, _), (v0, _) = chart.domain
    mesh_err = raised(triangulate_chart, chart, 4, 4)
    point_err = raised(gauss_map, chart, u0, v0)
    assert type(mesh_err) is type(point_err) is error
    assert str(mesh_err) == str(point_err)


def mixed_chart():
    """Not an immersion where u = 0; lightlike where v = +-1 (u != 0)."""
    return SurfaceChart(
        lambda u, v: np.array([u, u * v, 0.0]),
        lambda u, v: np.array([1.0, 0.0, v]),
        lambda u, v: np.array([0.0, u, 0.0]),
        lambda u, v: np.zeros(3),
        lambda u, v: np.zeros(3),
        lambda u, v: np.zeros(3),
        domain=((-1.0, 1.0), (-2.0, 2.0)),
    )


@pytest.mark.parametrize("fn", [gauss_map, shape_and_curvatures])
@pytest.mark.parametrize("points", [
    [(0.5, 0.0), (0.5, 1.0), (0.0, 0.2)],  # lightlike point first
    [(0.5, 0.0), (0.0, 0.2), (0.5, 1.0)],  # non-immersed point first
])
def test_batch_raises_for_the_first_bad_point(fn, points):
    chart = mixed_chart()
    us, vs = np.array(points).T
    scalar_errs = []
    for u, v in points:
        try:
            fn(chart, u, v)
        except GeometryError as exc:
            scalar_errs.append(exc)
    first = scalar_errs[0]
    with pytest.raises(type(first), match=re.escape(str(first))) as info:
        fn(chart, us, vs)
    assert type(info.value) is type(first)


def test_null_scroll_memo_hands_out_read_only_frames():
    chart = null_scroll_chart(scaled_null_helix_jet(1.1))
    b = chart.du(0.1, 0.3)
    with pytest.raises(ValueError):
        b[0] = 5.0
    assert np.array_equal(chart.du(0.2, 0.3), b)


def test_null_scroll_memo_leaves_the_jet_arrays_alone():
    # a jet that hands out the same array objects on every call
    base = scaled_null_helix_jet(1.1)
    seen = {}

    def shared(fn):
        return lambda s: seen.setdefault((fn, float(s)), fn(s))

    jet = CurveJet(shared(base.position), shared(base.velocity), shared(base.acceleration),
                   shared(base.jerk), domain=base.domain)
    mesh = triangulate_chart(null_scroll_chart(jet, u_range=(-0.4, 0.4), v_range=(-1.0, 1.0)), 4, 4)
    assert seen and all(a.flags.writeable for a in seen.values())
    ref = triangulate_chart(null_scroll_chart(base, u_range=(-0.4, 0.4), v_range=(-1.0, 1.0)), 4, 4)
    assert np.array_equal(mesh.mean_curvature, ref.mean_curvature)


def _census():
    rng = np.random.default_rng(11)
    charts = {}
    for k in range(3):
        r, center = float(rng.uniform(0.2, 5.0)), rng.uniform(-3.0, 3.0, size=3)
        charts[f"hyperbolic-{k}"] = hyperbolic_plane_chart(r, center)
        charts[f"de-sitter-{k}"] = de_sitter_chart(r, center)
    riemann = rotational.ProfileODEParams(c=0.3, d=0.1, r0=1.0, rp0=1.5, s0=0.0, s1=0.5, h=1e-3)
    charts.update({
        "catenoid": rotational.catenoid_chart(),
        "profile": profile(),
        "riemann-profile": rotational.profile_chart(rotational.integrate_riemann(riemann)),
        "fd-graph": graph_chart(lambda x, y: np.sqrt(1.5 + x * x + y * y)),
        "transformed": hyperbolic_plane_chart(0.9).transformed(
            random_pp_motion(np.random.default_rng(5))),
        "null-scroll": null_scroll_chart(scaled_null_helix_jet(1.2), u_range=(-0.4, 0.4),
                                         v_range=(-1.0, 1.0)),
        # |grad f| > 1: timelike, with real distinct and complex principal curvatures
        "timelike-graph": graph_chart(
            lambda x, y: 1.5 * x + 0.3 * x * x - 0.2 * y * y + 0.1 * x * y,
            lambda x, y: 1.5 + 0.6 * x + 0.1 * y, lambda x, y: 0.1 * x - 0.4 * y,
            lambda x, y: 0.6, lambda x, y: 0.1, lambda x, y: -0.4),
    })
    return charts


CENSUS = _census()


def census_points(chart):
    (u0, u1), (v0, v1) = chart.domain
    us, vs = np.meshgrid(np.linspace(u0, u1, 9)[1:-1], np.linspace(v0, v1, 9)[1:-1])
    return us.ravel(), vs.ravel()


def same_bits(a, b):
    """Equal float arrays, bit for bit (0.0 and -0.0 differ), NaN equal to NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_point_path_equals_the_batch_bit_for_bit(name):
    chart = CENSUS[name]
    us, vs = census_points(chart)
    batch = shape_and_curvatures(chart, us, vs)
    points = [shape_and_curvatures(chart, u, v) for u, v in zip(us, vs)]
    assert same_bits(batch.H, [d.H for d in points])
    assert same_bits(batch.K, [d.K for d in points])
    assert same_bits(batch.shape_matrix, [d.shape_matrix for d in points])
    nan2 = (np.nan, np.nan)
    assert same_bits(batch.principal, [nan2 if d.principal is None else d.principal for d in points])
    for k, d in enumerate(points):
        b = batch.point(k)
        assert (d.diagonalizable, d.umbilic, d.causal) == (b.diagonalizable, b.umbilic, b.causal)
        assert type(d.H) is type(d.K) is float
        assert type(d.diagonalizable) is type(d.umbilic) is bool


def test_census_reaches_every_branch():
    kinds = set()
    for chart in CENSUS.values():
        for u, v in zip(*census_points(chart)):
            d = shape_and_curvatures(chart, u, v)
            if d.causal.value == "spacelike":
                kinds.add("spacelike")
            elif d.principal is None:
                kinds.add("not diagonalizable")
            else:
                kinds.add("scalar" if d.principal[0] == d.principal[1] else "real distinct")
    assert kinds == {"spacelike", "scalar", "real distinct", "not diagonalizable"}


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_closed_form_principal_curvatures_match_eigvals(name):
    chart = CENSUS[name]
    batch = shape_and_curvatures(chart, *census_points(chart))
    for a, p in zip(batch.shape_matrix[batch.diagonalizable], batch.principal[batch.diagonalizable]):
        eig = np.sort(np.linalg.eigvals(a).real)
        assert np.abs(p - eig).max() <= 1e-14 * max(1.0, np.abs(a).max())


@pytest.mark.parametrize("chart,u,v", [
    (mixed_chart(), 0.0, 0.2),   # not an immersion
    (mixed_chart(), 0.5, 1.0),   # lightlike
    (light_cone_chart(), 1.0, 1.0),
], ids=["not-immersed", "lightlike", "light-cone"])
def test_point_path_raises_the_batch_error(chart, u, v):
    point_err = raised(shape_and_curvatures, chart, u, v)
    batch_err = raised(shape_and_curvatures, chart, [u], [v])
    assert type(point_err) is type(batch_err)
    assert str(point_err) == str(batch_err)


def outcome(fn, *args):
    """(warning messages, exception type and message or the result's fields)."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            d = fn(*args)
        except GeometryError as exc:
            result = (type(exc), str(exc))
        else:
            if isinstance(d, CurvatureBatch):
                d = d.point(0)
            result = (np.array([d.H, d.K]).tobytes(), d.shape_matrix.tobytes(), d.principal,
                      d.diagonalizable, d.umbilic, d.causal)
    return [str(w.message) for w in seen], result


@pytest.mark.parametrize("chart,u,v", [
    (de_sitter_chart(1e200), 0.2, 0.7),
    # |X_u|^2 overflows while the Gram determinant test alone would call it flat
    (plane_chart((0.0, 0.0, 0.0), (1e200, 0.0, 0.0), (0.0, 1.0, 0.0)), 0.1, 0.1),
], ids=["de-sitter", "plane"])
def test_point_path_overflow_is_the_batch_overflow(chart, u, v):
    for args in ((u, v), ([u], [v])):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            shape_and_curvatures(chart, *args)
    with np.errstate(all="warn"):
        point = outcome(shape_and_curvatures, chart, u, v)
        batch = outcome(shape_and_curvatures, chart, [u], [v])
    assert point[0] and point == batch


def test_point_path_makes_the_batch_evaluator_calls():
    base = hyperbolic_plane_chart(1.2, (0.1, 0.2, 0.3))
    calls = []

    def counted(name):
        evaluate = getattr(base, name)

        def call(u, v):
            calls.append((name, type(u), type(v)))
            return evaluate(u, v)

        return call

    chart = SurfaceChart(*(counted(n) for n in ("position", "du", "dv", "duu", "duv", "dvv")),
                         domain=base.domain)
    shape_and_curvatures(chart, 0.3, -0.4)
    point_calls, calls[:] = list(calls), []
    shape_and_curvatures(chart, [0.3], [-0.4])
    assert point_calls == calls
    assert [c[0] for c in calls] == ["du", "dv", "du", "dv", "duu", "duv", "dvv"]
    assert all(c[1] is c[2] is np.float64 for c in calls)


@pytest.mark.parametrize("xu", [(1.0, 0.0, 0.5), (1.0, 0.0, 1.2)])
def test_shape_matrix_not_finite_is_not_diagonalizable(xu):
    # a spacelike and a timelike plane whose second partials overflow the
    # shape matrix: no spectrum, on the point path and in the batch
    xu, big = np.array(xu), np.array([0.0, 0.0, 1.5e308])
    chart = SurfaceChart(lambda u, v: u * xu + v * np.array([0.0, 1.0, 0.0]),
                         lambda u, v: xu, lambda u, v: np.array([0.0, 1.0, 0.0]),
                         lambda u, v: big, lambda u, v: big, lambda u, v: np.zeros(3))
    with np.errstate(all="ignore"):
        point = shape_and_curvatures(chart, 0.1, 0.2)
        batch = shape_and_curvatures(chart, np.array([0.1, 0.3]), np.array([0.2, 0.4]))
    assert not np.isfinite(point.shape_matrix).all()
    assert point.principal is None and point.diagonalizable is False
    assert not batch.diagonalizable.any() and np.isnan(batch.principal).all()


@pytest.mark.parametrize("xuu, xvv, principal", [
    # A = [[1.15e308, 0], [0, 0]]: d^2 in sqrt(d^2 + a12 a21) overflows
    (1.5e308, 0.0, (0.0, 1.1547005383792517e+308)),
    # A = diag(a, -a), a = 9.2e307: a11 - a22 itself overflows
    (1.2e308, -1.6e308, (-9.237604307034012e+307, 9.237604307034012e+307)),
    # A = diag(1.15e308, 8.7e307): (eG - 2fF + gE)/w overflows, so H is half
    # of A's trace, halved term by term, within an ulp of each eigenvalue
    (1.5e308, 1.5e308, (8.660254037844389e+307, 1.1547005383792519e+308)),
])
def test_large_finite_shape_matrix(xuu, xvv, principal):
    xu, xv = np.array([1.0, 0.0, 0.5]), np.array([0.0, 1.0, 0.0])
    chart = SurfaceChart(lambda u, v: u * xu + v * xv, lambda u, v: xu, lambda u, v: xv,
                         lambda u, v: np.array([xuu, 0.0, 0.0]), lambda u, v: np.zeros(3),
                         lambda u, v: np.array([xvv, 0.0, 0.0]))
    with np.errstate(all="ignore"):
        point = shape_and_curvatures(chart, 0.1, 0.2)
        batch = shape_and_curvatures(chart, np.array([0.1, 0.3]), np.array([0.2, 0.4]))
    # A is diagonal: its eigenvalues are its diagonal entries, H minus their mean
    a = np.diag(point.shape_matrix)
    assert np.isfinite(a).all()
    assert np.allclose(principal, sorted(a), rtol=3e-16, atol=0.0)
    assert point.H == batch.H[0] and np.isclose(point.H, -(0.5 * a[0] + 0.5 * a[1]), rtol=3e-16)
    assert point.diagonalizable and point.principal == principal
    assert batch.diagonalizable.all() and (batch.principal == principal).all()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        shape_and_curvatures(chart, 0.1, 0.2)


@pytest.mark.parametrize("c, causal", [(0.5, CausalClass.SPACELIKE), (2.0, CausalClass.TIMELIKE)])
def test_plane_chart_scaled_to_1e_minus_7_keeps_its_classes(c, causal):
    # the immersion and lightlike tests are relative to |X_u|^2 |X_v|^2, so
    # partials of length 1e-7 classify as at length 1
    us = np.linspace(-0.5, 0.5, 5)
    uu, vv = (x.ravel() for x in np.meshgrid(us, us, indexing="ij"))
    f = np.add.outer(us ** 2, us ** 3)
    laps = []
    for scale in (1.0, 1e-7):
        chart = plane_chart(np.zeros(3), scale * E1, scale * (E2 + c * E3))
        assert first_form(chart, 0.1, 0.2)[1] is causal
        assert list(first_form(chart, uu, vv)[1]) == [causal] * len(uu)
        point, batch = shape_and_curvatures(chart, 0.1, 0.2), shape_and_curvatures(chart, uu, vv)
        assert point.causal is causal and point.H == 0.0 and point.K == 0.0
        assert (batch.spacelike == (causal is CausalClass.SPACELIKE)).all() and (batch.H == 0.0).all()
        laps.append(laplace_beltrami_grid(chart, f, us, us)[1:-1, 1:-1])
    # the metric scales by 1e-14, its Laplace-Beltrami operator by 1e14
    assert np.allclose(laps[1] * 1e-14, laps[0], rtol=1e-9, atol=1e-12 * np.abs(laps[0]).max())


@pytest.mark.parametrize("xuu, xvv, umbilic", [
    # A = diag(1.15e308, -8.66e307): H*H + K = inf + inf, eigenvalues apart
    (1.5e308, -1.5e308, False),
    # A = [[1.15e308, 0], [0, 0]]: K = -0.0, H*H overflows
    (1.5e308, 0.0, False),
    # A = 9.24e307 I: H*H + K = inf - inf, one repeated eigenvalue
    (1.2e308, 1.6e308, True),
])
def test_umbilic_where_h_squared_overflows(xuu, xvv, umbilic):
    # H^2 + K is not finite, so the point path hands the point to the batch,
    # which takes the squared half-gap of A scaled by its largest entry
    xu, xv = np.array([1.0, 0.0, 0.5]), np.array([0.0, 1.0, 0.0])
    chart = SurfaceChart(lambda u, v: u * xu + v * xv, lambda u, v: xu, lambda u, v: xv,
                         lambda u, v: np.array([xuu, 0.0, 0.0]), lambda u, v: np.zeros(3),
                         lambda u, v: np.array([xvv, 0.0, 0.0]))
    with np.errstate(all="ignore"):
        point = shape_and_curvatures(chart, 0.1, 0.2)
        batch = shape_and_curvatures(chart, np.array([0.1, 0.3]), np.array([0.2, 0.4]))
        assert not np.isfinite(point.H * point.H + point.K)
    assert point.umbilic == umbilic
    assert (batch.umbilic == umbilic).all()
