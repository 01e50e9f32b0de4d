import warnings

import numpy as np
import numpy.testing as npt
import pytest

from minkowski3 import dirichlet
from minkowski3.core import GeometryError
from minkowski3.dirichlet import (
    ConvergenceError,
    ConvexPolygon,
    MAX_GRID_POINTS,
    MAX_NEWTON_ITERS,
    Disk,
    GridDomain,
    SolvabilityError,
    SolverConfig,
    SpacelikeViolationError,
    _THETA_MIN,
    _jacobian,
    _OPP,
    cmc_operator_residual,
    exact_cap_values,
    gradient_boundary_check,
    height_bound_report,
    solve_dirichlet,
)


def record_passes(monkeypatch):
    """The 1-D stencil passes of the solves to come, as (u, residual): the
    start, then one list of line-search trials per Newton iteration."""
    passes = [[]]
    stencil, jacobian = dirichlet._stencil, dirichlet._jacobian

    def recording_stencil(dom, u, *args):
        out = stencil(dom, u, *args)
        if u.ndim == 1:  # not the Jacobian's stack of perturbed vectors
            passes[-1].append((u.copy(), out[0]))
        return out

    def recording_jacobian(*args):
        passes.append([])
        return jacobian(*args)

    monkeypatch.setattr(dirichlet, "_stencil", recording_stencil)
    monkeypatch.setattr(dirichlet, "_jacobian", recording_jacobian)
    return passes


def square(half=0.9):
    return ConvexPolygon(np.array([[half, 0.0], [0.0, half], [-half, 0.0], [0.0, -half]]))


def pentagon():
    return ConvexPolygon(np.array([[0.8, -0.2], [0.5, 0.7], [-0.6, 0.5],
                                   [-0.7, -0.4], [0.1, -0.8]]))


class TestDomains:
    def test_disk_nodes_inside(self):
        dom = GridDomain(Disk(1.0), 0.1)
        assert np.all((dom.xy ** 2).sum(axis=1) < 1.0)
        assert dom.ring.any() and (~dom.ring).any()

    def test_polygon_orientation_normalized(self):
        p1 = ConvexPolygon(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]))
        p2 = ConvexPolygon(np.array([[0, -1], [-1, 0], [0, 1], [1, 0]]))
        assert p1.inside(0.2, 0.2) and p2.inside(0.2, 0.2)

    def test_nonconvex_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygon(np.array([[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]]))

    @pytest.mark.parametrize("make", [
        lambda: Disk(np.nan),
        lambda: Disk(np.inf),
        lambda: ConvexPolygon(np.array([[1.0, 0.0], [0.0, 1.0], [np.nan, 0.0]])),
    ], ids=["disk-nan", "disk-inf", "polygon-nan"])
    def test_non_finite_shape_rejected(self, make):
        with pytest.raises(GeometryError):
            make()

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0])
    def test_grid_spacing_must_be_finite_and_positive(self, h):
        with pytest.raises(GeometryError):
            GridDomain(Disk(1.0), h)

    @pytest.mark.parametrize("shape,h", [
        (Disk(1e200), 0.05),
        (Disk(1e308), 0.05),
        (Disk(1.0), 1e-300),
        (Disk(1.0), 2.0 / np.sqrt(MAX_GRID_POINTS)),  # just past the bound
    ], ids=["disk-1e200", "disk-1e308", "h-1e-300", "just-over"])
    def test_grid_size_bounded(self, shape, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="MAX_GRID_POINTS"):
                GridDomain(shape, h)

    def test_exit_fractions_bounded(self):
        dom = GridDomain(Disk(1.0), 0.07)
        assert np.all(dom.theta > 0) and np.all(dom.theta <= 1.0)
        # short arms exist exactly on the ring
        assert np.all((dom.theta < 1).any(axis=1) == dom.ring)

    def test_disk_rolling_radius(self):
        assert Disk(2.5).rolling_radius() == 2.5

    def test_square_rolling_radius(self):
        # a disc rolling along an edge of the rotated square with vertices at
        # distance a must, in the corner limit, still contain the opposite
        # corner: |q-p|^2 / (2 <q-p, n>) there equals a*sqrt(2)
        poly = square(0.9)
        npt.assert_allclose(poly.rolling_radius(), 0.9 * np.sqrt(2), rtol=1e-6)


class TestGridInvariants:
    SHAPES = [Disk(1.0), pentagon()]

    @pytest.mark.parametrize("shape", SHAPES, ids=["disk", "pentagon"])
    def test_nodes_are_the_selected_grid_points(self, shape):
        # every point of the padded bounding-box grid that is inside and more
        # than _THETA_MIN * h from the boundary, in i-major order
        h = 0.07
        x0, x1, y0, y1 = shape.bbox()
        xs = x0 - h + h * np.arange(int(np.floor((x1 - x0) / h)) + 3)
        ys = y0 - h + h * np.arange(int(np.floor((y1 - y0) / h)) + 3)
        expected = [(x, y) for x in xs for y in ys
                    if shape.inside(x, y) and shape.boundary_distance(x, y) > _THETA_MIN * h]
        npt.assert_array_equal(GridDomain(shape, h).xy, np.asarray(expected))

    @pytest.mark.parametrize("shape", SHAPES, ids=["disk", "pentagon"])
    def test_neighbours_symmetric_and_full_arms_unit(self, shape):
        dom = GridDomain(shape, 0.07)
        k = np.arange(dom.n)
        for d in range(4):
            has = dom.nbr[:, d] >= 0
            npt.assert_array_equal(dom.nbr[dom.nbr[has, d], _OPP[d]], k[has])
        assert np.all(dom.theta[dom.nbr >= 0] == 1.0)


def loop_values_with_boundary(dom, u):
    """Neighbor value per arm, 0 where the arm leaves the domain, by masks."""
    vals = np.zeros((dom.n, 4))
    mask = dom.nbr >= 0
    vals[mask] = u[dom.nbr[mask]]
    return vals


def loop_node_gradient(dom, u):
    """Unequal-arm gradient with every theta factor formed per call."""
    vals = loop_values_with_boundary(dom, u)
    h = dom.h
    tE, tW, tN, tS = (dom.theta[:, d] for d in range(4))
    uE, uW, uN, uS = (vals[:, d] for d in range(4))
    ux = (tW ** 2 * uE - tE ** 2 * uW + (tE ** 2 - tW ** 2) * u) / (tE * tW * (tE + tW) * h)
    uy = (tS ** 2 * uN - tN ** 2 * uS + (tN ** 2 - tS ** 2) * u) / (tN * tS * (tN + tS) * h)
    return ux, uy


def loop_half_data(dom, u):
    """Half-point derivatives arm by arm, with the neighbor masks made per call."""
    vals = loop_values_with_boundary(dom, u)
    h = dom.h
    ux, uy = loop_node_gradient(dom, u)
    sgn = np.array([1.0, -1.0, 1.0, -1.0])
    prim = np.empty((dom.n, 4))
    trans = np.empty((dom.n, 4))
    for d in range(4):
        prim[:, d] = sgn[d] * (vals[:, d] - u) / (dom.theta[:, d] * h)
        own = uy if d < 2 else ux
        nb = dom.nbr[:, d]
        avg = 0.5 * (own + np.where(nb >= 0, own[nb], own))
        opp = dom.nbr[:, _OPP[d]]
        slope = np.where(opp >= 0, (own - own[opp]) / (dom.theta[:, _OPP[d]] * h), 0.0)
        extrap = own + 0.5 * dom.theta[:, d] * h * slope
        trans[:, d] = np.where(nb >= 0, avg, extrap)
    return prim, trans


def loop_residual(dom, u, H, eps):
    """The operator residual from the per-arm loop, each factor formed per call."""
    prim, trans = loop_half_data(dom, u)
    if eps == -1:
        m = np.minimum(prim * prim + trans * trans, 1.0 - 1e-12)
        flux = prim / np.sqrt(1.0 - m)
    else:
        flux = prim / np.sqrt(1.0 + prim * prim + trans * trans)
    h = dom.h
    div_x = (flux[:, 0] - flux[:, 1]) / (0.5 * (dom.theta[:, 0] + dom.theta[:, 1]) * h)
    div_y = (flux[:, 2] - flux[:, 3]) / (0.5 * (dom.theta[:, 2] + dom.theta[:, 3]) * h)
    return div_x + div_y - 2.0 * H


class TestArmStencil:
    @pytest.mark.parametrize("h", [0.1, 0.05])
    @pytest.mark.parametrize("shape", [Disk(1.0), pentagon()], ids=["disk", "pentagon"])
    def test_equals_the_per_arm_loop(self, shape, h, monkeypatch):
        dom = GridDomain(shape, h)
        rng = np.random.default_rng(7)
        tent = -0.4 * np.array([shape.boundary_distance(x, y) for x, y in dom.xy])
        for u in (tent, tent + rng.uniform(-0.01, 0.01, dom.n), rng.uniform(-1.0, 1.0, dom.n)):
            for new, old in zip(dom.node_gradient(u), loop_node_gradient(dom, u)):
                assert np.array_equal(new, old)
            for new, old in zip(dirichlet._half_data(dom, u), loop_half_data(dom, u)):
                assert np.array_equal(new, old)
            residuals = [cmc_operator_residual(dom, u, 1.0, eps, check_spacelike=False) for eps in (-1, 1)]
            for eps, r in zip((-1, 1), residuals):
                assert np.array_equal(r, loop_residual(dom, u, 1.0, eps))
            with monkeypatch.context() as m:
                m.setattr(dirichlet, "_half_data", loop_half_data)
                for eps, r in zip((-1, 1), residuals):
                    assert np.array_equal(r, cmc_operator_residual(dom, u, 1.0, eps, check_spacelike=False))


def loop_polygon(vertices):
    """(vertices, normals, offsets) built vertex by vertex, or None if not strictly convex."""
    v = np.asarray(vertices, dtype=float)
    area2 = 0.0
    for i in range(len(v)):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % len(v)]
        area2 += x0 * y1 - x1 * y0
    if area2 < 0:
        v = v[::-1].copy()
    crosses = []
    for i in range(len(v)):
        a = v[(i + 1) % len(v)] - v[i]
        b = v[(i + 2) % len(v)] - v[(i + 1) % len(v)]
        crosses.append(a[0] * b[1] - a[1] * b[0])
    if min(crosses) <= 0:
        return None
    n, b = [], []
    for i in range(len(v)):
        d = v[(i + 1) % len(v)] - v[i]
        nn = np.array([d[1], -d[0]])
        nn = nn / np.linalg.norm(nn)
        n.append(nn)
        b.append(float(nn @ v[i]))
    return v, np.asarray(n), np.asarray(b)


class TestPolygonConstruction:
    def test_equals_the_vertex_loops(self):
        rng = np.random.default_rng(11)
        built = rejected = 0
        for trial in range(300):
            k = int(rng.integers(3, 10))
            if trial % 3 == 2:  # arbitrary points: mostly not convex
                verts = rng.normal(size=(k, 2))
            else:
                ang = np.sort(rng.uniform(0.0, 2 * np.pi, k))
                verts = rng.uniform(0.5, 2.0) * np.c_[np.cos(ang), rng.uniform(0.3, 1.0) * np.sin(ang)]
                verts = verts + rng.normal(size=2)
            for vs in (verts, verts[::-1]):
                expected = loop_polygon(vs)
                if expected is None:
                    rejected += 1
                    with pytest.raises(GeometryError, match="strictly convex"):
                        ConvexPolygon(vs)
                    continue
                built += 1
                poly = ConvexPolygon(vs)
                for got, want in zip((poly.vertices, poly._normals, poly._offsets), expected):
                    assert np.array_equal(got, want)
        assert built > 300 and rejected > 100


def loop_rolling_radius(poly):
    """The rolling-disc radius point by point: 64 points per edge, one vertex at a time."""
    v = poly.vertices
    worst = 0.0
    for i in range(len(v)):
        p0, p1 = v[i], v[(i + 1) % len(v)]
        nn = -poly._normals[i]
        for t in np.linspace(0.0, 1.0, 64):
            p = p0 + t * (p1 - p0)
            for q in v:
                d = q - p
                denom, dd = 2.0 * float(d @ nn), float(d @ d)
                if denom > 1e-12 * np.sqrt(dd):
                    worst = max(worst, dd / denom)
    return worst


def loop_exit_fraction(shape, x, y, dx, dy, h):
    """One arm's exit fraction on Python scalars, edge by edge for a polygon."""
    if isinstance(shape, Disk):
        a = h * h * (dx * dx + dy * dy)
        b = 2 * h * (x * dx + y * dy)
        c = x * x + y * y - shape.R * shape.R
        disc = b * b - 4 * a * c
        t = (-b + np.sqrt(max(disc, 0.0))) / (2 * a)
        return min(max(t, 0.0), 1.0)
    p = np.array([x, y])
    d = h * np.array([dx, dy])
    best = 1.0
    for nn, bb in zip(shape._normals, shape._offsets):
        nd = float(nn @ d)
        if nd > 0:
            t = (bb - float(nn @ p)) / nd
            if 0.0 <= t < best:
                best = t
    return best


def loop_theta(dom):
    """Arm fractions of a built grid, one boundary arm at a time."""
    dirs = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    theta = np.ones((dom.n, 4))
    for k, d in np.argwhere(dom.boundary_arm):
        x, y = dom.xy[k]
        theta[k, d] = max(loop_exit_fraction(dom.shape, x, y, *dirs[d], dom.h), _THETA_MIN)
    return theta


def rectangle(a, b, x0=0.0, y0=0.0):
    return ConvexPolygon(np.array([[x0, y0], [x0 + a, y0], [x0 + a, y0 + b], [x0, y0 + b]]))


def census_shapes():
    """220 random convex polygons, 9 axis-aligned rectangles (arms parallel to
    edges, nd == 0), 12 rotated squares and 80 disks, each with a grid
    spacing from 0.004 to 0.3 of its width (the shorter bounding-box side)."""
    rng = np.random.default_rng(19)
    shapes = []
    while len(shapes) < 220:
        k = int(rng.integers(3, 9))
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, k))
        if np.max(np.diff(ang, append=ang[0] + 2 * np.pi)) > 0.75 * np.pi:
            continue  # a sliver: at h = 0.3 width some hold no node, at 0.004 up to 1e6 points
        verts = rng.uniform(0.3, 2.0) * np.c_[np.cos(ang), rng.uniform(0.3, 1.0) * np.sin(ang)]
        try:
            shapes.append(ConvexPolygon(verts + rng.normal(size=2)))
        except GeometryError:  # nearly collinear vertices
            continue
    shapes += [rectangle(a, b, *xy) for a, b, xy in
               zip([1.0, 0.5, 1.3] * 3, [0.7] * 3 + [0.3] * 3 + [1.0] * 3,
                   [(0.0, 0.0), (-0.5, -0.35), (0.1, 0.2)] * 3)]
    for angle in np.linspace(0.0, np.pi / 2, 12):
        c, s = 0.8 * np.cos(angle), 0.8 * np.sin(angle)
        shapes.append(ConvexPolygon(np.array([[c, s], [-s, c], [-c, -s], [s, -c]])))
    shapes += [Disk(float(R)) for R in np.exp(rng.uniform(-1.5, 1.5, 80))]
    widths = [min(x1 - x0, y1 - y0) for x0, x1, y0, y1 in (s.bbox() for s in shapes)]
    hs = np.exp(rng.uniform(np.log(0.004), np.log(0.3), len(shapes))) * widths
    return list(zip(shapes, hs))


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def census():
    """(shape, h, rolling radius, theta) of every census shape, each from the
    loops; the rolling radius is None for a disk."""
    out = []
    for shape, h in census_shapes():
        roll = loop_rolling_radius(shape) if isinstance(shape, ConvexPolygon) else None
        out.append((shape, h, roll, loop_theta(GridDomain(shape, h))))
    return out


def geometry_mismatches(census):
    """(rolling radii, grids) of the census whose bits differ from the loops'."""
    radii = grids = 0
    for shape, h, roll, theta in census:
        if roll is not None:
            radii += bits(shape.rolling_radius()) != bits(roll)
        grids += not np.array_equal(bits(GridDomain(shape, h).theta), bits(theta))
    return radii, grids


def elementwise_dots(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


class TestDomainGeometryLoops:
    def test_equals_the_loops_bit_for_bit(self, census):
        assert len(census) >= 300
        assert geometry_mismatches(census) == (0, 0)

    def test_elementwise_dot_fails_the_oracle(self, census, monkeypatch):
        # the same sum as two products and an add rounds differently from the
        # BLAS dot that `a @ b` calls, which is why _dots is a matmul stack
        monkeypatch.setattr(dirichlet, "_dots", elementwise_dots)
        radii, grids = geometry_mismatches(census[:40])
        assert radii > 0 and grids > 0

    def test_rectangle_quiet_under_raising_floating_point(self):
        # arms parallel to an edge have nd == 0, which no division may reach
        rect = rectangle(1.0, 0.7)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            dom = GridDomain(rect, 0.05)
            radius = rect.rolling_radius()
        assert np.all((dom.theta > 0) & (dom.theta <= 1)) and dom.boundary_arm.any()
        # the disc tangent to a long edge of the a x b rectangle at one corner
        # and through the opposite corner: radius (a^2 + b^2) / (2b), the
        # bound 1 / radius = 0.939597 that `mink3 dirichlet` prints
        npt.assert_allclose(radius, 1.49 / 1.4, rtol=1e-15)

    def test_exit_fraction_broadcasts_like_one_arm(self):
        # each element of a broadcast call, inside the shape or not, is one
        # arm of the scalar loop
        x, y = np.meshgrid(np.linspace(-0.6, 0.6, 7), np.linspace(-0.5, 0.5, 5))
        dx, dy = np.array([1.0, -1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, -1.0])
        for shape in (Disk(1.0), pentagon(), rectangle(1.4, 1.2, -0.7, -0.6)):
            t = shape.exit_fraction(x[..., None], y[..., None], dx, dy, 0.3)
            assert t.shape == x.shape + (4,)
            for idx in np.ndindex(t.shape):
                one = loop_exit_fraction(shape, x[idx[:2]], y[idx[:2]], dx[idx[2]], dy[idx[2]], 0.3)
                assert bits(t[idx]) == bits(one)


def loop_jacobian(dom, u, H, eps, base):
    """The colored Jacobian one color at a time: nine residual calls, CSR, then CSC."""
    import scipy.sparse as sp

    delta = 1e-7 * (1.0 + float(np.max(np.abs(u))))
    rows_all, cols_all, data_all = [], [], []
    for c in range(dom.n_colors):
        up = u.copy()
        mask = dom.color == c
        up[mask] += delta
        rp = cmc_operator_residual(dom, up, H, eps, check_spacelike=False)
        cols = dom.color_nbr[:, c]
        valid = (cols >= 0) & (rp != base)
        rows_all.append(np.nonzero(valid)[0])
        cols_all.append(cols[valid])
        data_all.append((rp[valid] - base[valid]) / delta)
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    data = np.concatenate(data_all)
    return sp.csr_matrix((data, (rows, cols)), shape=(dom.n, dom.n)).tocsc()


def tent_and_random(shape, dom):
    rng = np.random.default_rng(5)
    tent = -0.4 * np.array([shape.boundary_distance(x, y) for x, y in dom.xy])
    return {"tent": tent, "random": rng.uniform(-1.0, 1.0, dom.n)}


class TestStackedResidual:
    @pytest.mark.parametrize("eps", [-1, 1])
    @pytest.mark.parametrize("shape", [Disk(1.0), pentagon()], ids=["disk", "pentagon"])
    def test_rows_equal_single_calls(self, shape, eps):
        dom = GridDomain(shape, 0.05)
        us = np.stack(list(tent_and_random(shape, dom).values()) + [np.zeros(dom.n)])
        stacked = cmc_operator_residual(dom, us, 0.7, eps, check_spacelike=False)
        assert stacked.shape == us.shape
        for u, r in zip(us, stacked):
            assert np.array_equal(r, cmc_operator_residual(dom, u, 0.7, eps, check_spacelike=False))

    def test_spacelike_check_covers_every_row(self):
        dom = GridDomain(Disk(1.0), 0.1)
        us = np.stack([np.zeros(dom.n), 2.0 * dom.xy[:, 0]])
        with pytest.raises(SpacelikeViolationError):
            cmc_operator_residual(dom, us, 0.0, -1)

    @pytest.mark.parametrize("shape_of", [lambda n: (n + 1,), lambda n: (2, 3, n), lambda n: (2, n - 1),
                                          lambda n: ()], ids=["n+1", "2x3xn", "2x(n-1)", "scalar"])
    def test_other_shapes_raise(self, shape_of):
        dom = GridDomain(Disk(1.0), 0.1)
        with pytest.raises(GeometryError, match=f"expected {dom.n} interior node values"):
            cmc_operator_residual(dom, np.zeros(shape_of(dom.n)), 0.0, -1)


class TestJacobian:
    @pytest.mark.parametrize("which", ["tent", "random"])
    @pytest.mark.parametrize("eps", [-1, 1])
    @pytest.mark.parametrize("shape", [Disk(1.0), pentagon()], ids=["disk", "pentagon"])
    def test_equals_the_per_color_loop(self, shape, eps, which):
        dom = GridDomain(shape, 0.05)
        u = tent_and_random(shape, dom)[which]
        base = cmc_operator_residual(dom, u, 1.0, eps, check_spacelike=False)
        new = _jacobian(dom, u, 1.0, eps, base)
        old = loop_jacobian(dom, u, 1.0, eps, base)
        assert new.shape == (dom.n, dom.n) and new.nnz == old.nnz
        assert new.toarray().tobytes() == old.toarray().tobytes()

    @pytest.mark.parametrize("eps", [-1, 1])
    @pytest.mark.parametrize("shape", [Disk(1.0), pentagon()], ids=["disk", "pentagon"])
    def test_colored_equals_column_by_column(self, shape, eps):
        # the colored Jacobian must match single-column perturbation entry for
        # entry; a color shared by two nodes within one residual's reach breaks it
        dom = GridDomain(shape, 0.15)
        # a tent of slope 0.4 vanishing on the boundary keeps every stencil spacelike
        u = -0.4 * np.array([shape.boundary_distance(x, y) for x, y in dom.xy])
        base = cmc_operator_residual(dom, u, 1.0, eps)
        delta = 1e-7 * (1.0 + float(np.max(np.abs(u))))
        dense = np.empty((dom.n, dom.n))
        for q in range(dom.n):
            up = u.copy()
            up[q] += delta
            dense[:, q] = (cmc_operator_residual(dom, up, 1.0, eps, check_spacelike=False) - base) / delta
        npt.assert_array_equal(_jacobian(dom, u, 1.0, eps, base).toarray(), dense)


def record_factors(monkeypatch):
    """The factor of every `dirichlet.splu` call of the solves to come."""
    factor, factors = dirichlet.splu, []

    def recording_splu(a):
        factors.append(factor(a))
        return factors[-1]

    monkeypatch.setattr(dirichlet, "splu", recording_splu)
    return factors


def sliver():
    """A thin convex quadrilateral: at h = 0.02 its 45 grid columns hold 1 to 8 nodes."""
    return ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.031], [1.0, 0.19], [0.45, 0.1]]))


class TestBlockFactor:
    @pytest.mark.parametrize("split", [dirichlet._INV_SPLIT, 3], ids=["whole", "halved"])
    @pytest.mark.parametrize("shape,h", [(Disk(1.0), 0.05), (pentagon(), 0.05), (sliver(), 0.02),
                                         (rectangle(0.07, 2.0, -0.03, -1.0), 0.05)],
                             ids=["disk", "pentagon", "sliver", "one-column"])
    def test_solve_matches_a_dense_solve(self, monkeypatch, shape, h, split):
        # "halved" inverts every block of more than 3 rows by its halves
        monkeypatch.setattr(dirichlet, "_INV_SPLIT", split)
        dom = GridDomain(shape, h)
        u = tent_and_random(shape, dom)["tent"]
        jac = _jacobian(dom, u, 1.0, -1, cmc_operator_residual(dom, u, 1.0, -1))
        b = np.random.default_rng(3).uniform(-1.0, 1.0, dom.n)
        x = dirichlet.splu(jac).solve(b)
        ref = np.linalg.solve(jac.toarray(), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_columns_are_runs_of_nodes(self):
        # each block is one grid column, down to a single node on the sliver
        dom = GridDomain(sliver(), 0.02)
        sizes = [e - s for s, e, *_ in dom._blocks]
        assert len(sizes) == 45 and min(sizes) == 1 and sum(sizes) == dom.n
        for s, e, *_ in dom._blocks:
            assert np.unique(dom.xy[s:e, 0]).size == 1

    @pytest.mark.parametrize("shape,H,eps", [
        (Disk(0.8), 0.9, -1), (pentagon(), 0.8, -1), (pentagon(), 0.5, 1), (Disk(1.0), 1e-5, -1),
    ], ids=["disk", "pentagon", "euclid", "one-step"])
    def test_one_factor_per_newton_iteration(self, monkeypatch, shape, H, eps):
        factors = record_factors(monkeypatch)
        passes = record_passes(monkeypatch)
        sol = solve_dirichlet(GridDomain(shape, 0.1), SolverConfig(eps=eps, H=H))
        assert len(factors) == len(passes) - 1 == sol.newton_iters > 0

    @pytest.mark.parametrize("shape,h,cfg", [
        (Disk(1.0), 0.1, SolverConfig(eps=-1, H=7.05)),
        (Disk(1.0), 0.04, SolverConfig(eps=-1, H=5.0, delta_guard=1e-13)),
        (square(0.9), 0.05, SolverConfig(eps=-1, H=2.0)),
        (Disk(2.0), 0.1, SolverConfig(eps=-1, H=3.5)),
    ], ids=["H-7.05", "delta-1e-13", "square", "R-2"])
    @pytest.mark.parametrize("split", [dirichlet._INV_SPLIT, 3], ids=["whole", "halved"])
    def test_guard_edge_factors_solve_with_small_backward_error(self, monkeypatch, shape, h, cfg, split):
        # the block LU pivots only inside the blocks that np.linalg.inv
        # inverts; near the guard limit, where a pivot is likeliest to be
        # small, every Newton step still solves J du = -r to a backward error
        # of 1e-12
        monkeypatch.setattr(dirichlet, "_INV_SPLIT", split)
        factor, solves = dirichlet.splu, []

        def recording_splu(jac):
            lu = factor(jac)
            solve = lu.solve

            def recording_solve(b):
                du = solve(b)
                solves.append((jac.toarray(), b, du))
                return du

            lu.solve = recording_solve
            return lu

        monkeypatch.setattr(dirichlet, "splu", recording_splu)
        sol = solve_dirichlet(GridDomain(shape, h), cfg)
        assert sol.residual_max <= cfg.newton_tol and sol.Du_max < 1.0 - cfg.delta_guard
        assert len(solves) == sol.newton_iters > 0
        for J, b, du in solves:
            # b = -r: |J du + r| <= 1e-12 |J| |du|, infinity norms
            bound = 1e-12 * np.max(np.sum(np.abs(J), axis=1)) * np.max(np.abs(du))
            assert np.max(np.abs(J @ du - b)) <= bound

    def test_no_state_outlives_a_solve(self, monkeypatch):
        factors = record_factors(monkeypatch)

        def solve(shape):
            factors.clear()
            sol = solve_dirichlet(GridDomain(shape, 0.1), SolverConfig(eps=-1, H=0.9))
            return sol, [lu.L.nnz + lu.U.nnz for lu in factors]

        first, first_fill = solve(Disk(0.8))
        solve(pentagon())
        again, again_fill = solve(Disk(0.8))
        assert again.u.tobytes() == first.u.tobytes()
        assert again.newton_iters == first.newton_iters
        assert repr(again.residual_max) == repr(first.residual_max)
        assert repr(again.Du_max) == repr(first.Du_max)
        assert again_fill == first_fill


class TestOperatorResidual:
    def test_zero_function_zero_curvature(self):
        dom = GridDomain(Disk(1.0), 0.05)
        r = cmc_operator_residual(dom, np.zeros(dom.n), 0.0, -1)
        npt.assert_array_equal(r, np.zeros(dom.n))

    def test_exact_cap_second_order_interior(self):
        # away from the boundary ring the scheme is second order
        worst = {}
        for h in (0.04, 0.02, 0.01):
            dom = GridDomain(Disk(1.0), h)
            u = exact_cap_values(dom, 1.0)
            r = cmc_operator_residual(dom, u, 1.0, -1)
            rho = np.hypot(dom.xy[:, 0], dom.xy[:, 1])
            worst[h] = float(np.max(np.abs(r[rho < 0.8])))
        assert 1.7 <= np.log2(worst[0.04] / worst[0.02]) <= 2.6
        assert 1.7 <= np.log2(worst[0.02] / worst[0.01]) <= 2.6

    def test_exact_cap_ring_consistent(self):
        # the boundary ring is first-order consistent (residual -> 0)
        vals = []
        for h in (0.04, 0.02, 0.01):
            dom = GridDomain(Disk(1.0), h)
            u = exact_cap_values(dom, 1.0)
            r = cmc_operator_residual(dom, u, 1.0, -1)
            vals.append(float(np.max(np.abs(r))))
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] < 0.5 * vals[0]

    def test_euclidean_sphere_oracle_second_order(self):
        # lower hemisphere piece of the unit sphere: classical identity,
        # second order on a fixed interior region
        worst = {}
        for h in (0.04, 0.02, 0.01):
            dom = GridDomain(Disk(0.8), h)
            rho2 = (dom.xy ** 2).sum(axis=1)
            u = -np.sqrt(1.0 - rho2) + np.sqrt(1.0 - 0.64)
            r = cmc_operator_residual(dom, u, 1.0, 1)
            worst[h] = float(np.max(np.abs(r[np.sqrt(rho2) < 0.6])))
        assert 1.7 <= np.log2(worst[0.04] / worst[0.02]) <= 2.3
        assert 1.7 <= np.log2(worst[0.02] / worst[0.01]) <= 2.3

    def test_spacelike_violation_detected(self):
        dom = GridDomain(Disk(1.0), 0.1)
        u = 2.0 * dom.xy[:, 0]  # |Du| = 2 > 1
        with pytest.raises(SpacelikeViolationError):
            cmc_operator_residual(dom, u, 0.0, -1)


class TestSolveDirichlet:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["H", "newton_tol"])
    def test_config_rejects_non_finite(self, name, value):
        with pytest.raises(GeometryError):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_config_rejects_non_positive_tolerance(self, value):
        with pytest.raises(GeometryError, match="newton_tol must be positive"):
            SolverConfig(newton_tol=value)

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_config_rejects_overflowing_2H(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="H too large: 2H overflows"):
                SolverConfig(H=np.float64(value))

    @pytest.mark.parametrize("kwargs, message", [
        ({"eps": 0}, "eps must be +1 (Euclidean) or -1 (Lorentzian)"),
        ({"delta_guard": 0.0}, "delta_guard must lie in (0, 0.5)"),
    ])
    def test_config_refusal_names_the_field(self, kwargs, message):
        with pytest.raises(GeometryError) as info:
            SolverConfig(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("shape, H, message", [
        (square(0.8), 1.0, "the exact cap solution lives on a disk domain"),
        (Disk(1.0), 0.0, "cap comparison requires H > 0"),
    ])
    def test_exact_cap_values_refusal(self, shape, H, message):
        with pytest.raises(GeometryError) as info:
            exact_cap_values(GridDomain(shape, 0.1), H)
        assert str(info.value) == message

    def test_config_accepts_H_whose_2H_is_finite(self):
        assert SolverConfig(H=8.9e307).H == 8.9e307

    @pytest.mark.parametrize("h", [0.04, 0.02])
    def test_cap_solves_in_one_step(self, h):
        sol = solve_dirichlet(GridDomain(Disk(1.0), h), SolverConfig(eps=-1, H=1.0))
        assert sol.continuation_steps == 1
        assert sol.residual_max <= 1e-10

    def test_newton_tail_rate(self, monkeypatch):
        # the forward-difference Jacobian makes the tail superlinear, not
        # cleanly quadratic: each of the last two iterations still cuts
        # max|r| by more than 1000x (measured 2.9e-4 and 7.3e-4)
        passes = record_passes(monkeypatch)
        sol = solve_dirichlet(GridDomain(Disk(1.0), 0.02), SolverConfig(eps=-1, H=1.0))
        # each iteration accepts its last trial (the first full step leaves
        # the guard band and is halved); the report is Newton's last
        # residual, with no further pass
        norms = [float(np.max(np.abs(p[-1][1]))) for p in passes]
        assert len(norms) == sol.newton_iters + 1
        assert norms[-1] == sol.residual_max
        assert norms[-1] <= 1e-3 * norms[-2] and norms[-2] <= 1e-3 * norms[-3]

    def test_zero_target_returns_zero(self):
        dom = GridDomain(Disk(1.0), 0.05)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=0.0))
        assert sol.newton_iters == 0 and sol.continuation_steps == 0
        npt.assert_array_equal(sol.u, np.zeros(dom.n))

    def test_cap_convergence(self):
        errs = []
        for h in (0.04, 0.02):
            dom = GridDomain(Disk(1.0), h)
            sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=1.0))
            errs.append(float(np.max(np.abs(sol.u - exact_cap_values(dom, 1.0)))))
            assert sol.residual_max <= 1e-10
            assert sol.Du_max < 1.0 - sol.delta_guard
        assert 1.7 <= np.log2(errs[0] / errs[1]) <= 2.3

    def test_large_h_solvable_lorentzian(self):
        dom = GridDomain(Disk(1.0), 0.04)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=5.0))
        assert sol.Du_max < 1.0 - sol.delta_guard
        err = np.max(np.abs(sol.u - exact_cap_values(dom, 5.0)))
        assert err < 5e-3

    def test_negative_target_flips_sign(self):
        dom = GridDomain(Disk(1.0), 0.05)
        plus = solve_dirichlet(dom, SolverConfig(eps=-1, H=0.8))
        minus = solve_dirichlet(dom, SolverConfig(eps=-1, H=-0.8))
        npt.assert_allclose(minus.u, -plus.u, atol=1e-12)

    def test_comparison_in_h(self):
        # bigger curvature hangs lower: H1 > H2 >= 0 gives u1 <= u2 + O(h)
        dom = GridDomain(Disk(1.0), 0.04)
        u1 = solve_dirichlet(dom, SolverConfig(eps=-1, H=1.0)).u
        u2 = solve_dirichlet(dom, SolverConfig(eps=-1, H=0.5)).u
        assert np.max(u1 - u2) <= 1e-6

    def test_euclidean_matches_sphere_cap(self):
        dom = GridDomain(Disk(1.0), 0.02)
        sol = solve_dirichlet(dom, SolverConfig(eps=1, H=0.5))
        rho2 = (dom.xy ** 2).sum(axis=1)
        exact = -np.sqrt(4.0 - rho2) + np.sqrt(3.0)
        assert np.max(np.abs(sol.u - exact)) < 1e-4

    def test_euclidean_refuses_supercritical(self):
        dom = GridDomain(Disk(1.0), 0.05)
        with pytest.raises(SolvabilityError):
            solve_dirichlet(dom, SolverConfig(eps=1, H=1.5))

    def test_polygon_refusal_message(self):
        dom = GridDomain(square(0.9), 0.05)
        with pytest.raises(SolvabilityError):
            solve_dirichlet(dom, SolverConfig(eps=1, H=1.0))

    def test_polygon_lorentzian_any_h(self):
        dom = GridDomain(square(0.9), 0.05)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=2.0))
        assert sol.residual_max <= 1e-10
        assert sol.Du_max < 1.0 - sol.delta_guard

    def test_guard_soundness(self):
        dom = GridDomain(Disk(1.0), 0.04)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=5.0))
        _, m_max = dirichlet._stencil(dom, sol.u, sol.H, sol.eps)
        assert np.sqrt(m_max) < 1.0 - 0.5 * sol.delta_guard

    @pytest.mark.parametrize("cfg", [
        SolverConfig(eps=-1, H=5.0),
        SolverConfig(eps=1, H=0.5),
        SolverConfig(eps=-1, H=5.0, delta_guard=1e-13),
    ], ids=["lorentz", "euclid", "delta-1e-13"])
    def test_one_pass_trials_match_the_two_pass_guard(self, monkeypatch, cfg):
        # oracle: the guard as a second pass before the residual, with the
        # residual's light-cone error refusing the trial behind it
        guard_half = 1.0 - 0.5 * cfg.delta_guard

        def half_gradient_max(dom, u):
            prim, trans = dirichlet._half_data(dom, u)
            return float(np.sqrt(np.max(prim * prim + trans * trans)))

        def admissible(dom, v):
            if cfg.eps != -1:
                return True
            if half_gradient_max(dom, v) >= guard_half:
                return False
            ux, uy = dom.node_gradient(v)
            return bool(np.max(np.hypot(ux, uy)) <= 1.0 - cfg.delta_guard)

        dom = GridDomain(Disk(1.0), 0.04)
        passes = record_passes(monkeypatch)
        sol = solve_dirichlet(dom, cfg)
        monkeypatch.undo()

        (start,), iterations = passes[0], passes[1:]
        rnorm = float(np.max(np.abs(start[1])))
        half_point_rejects = 0
        for trials in iterations:
            for k, (v, rt) in enumerate(trials):
                ok = admissible(dom, v)
                half_point_rejects += cfg.eps == -1 and half_gradient_max(dom, v) >= guard_half
                if ok:
                    try:
                        r = cmc_operator_residual(dom, v, cfg.H, cfg.eps)
                    except SpacelikeViolationError:
                        ok = False
                if ok:
                    tnorm = float(np.max(np.abs(r)))
                    ok = tnorm < rnorm or tnorm <= cfg.newton_tol
                # the solve accepted the last trial of each iteration, and only it
                assert ok == (k == len(trials) - 1)
                if ok:
                    assert r.tobytes() == rt.tobytes()
                    rnorm = tnorm
        assert len(iterations) == sol.newton_iters > 0
        assert rnorm == sol.residual_max <= cfg.newton_tol
        if cfg.delta_guard == 0.01 and cfg.eps == -1:
            assert half_point_rejects > 0

    def test_spent_iteration_budget_is_convergence_error(self, monkeypatch):
        monkeypatch.setattr(dirichlet, "MAX_NEWTON_ITERS", 0)
        dom = GridDomain(Disk(1.0), 0.1)
        with pytest.raises(ConvergenceError, match=r"at H=1 after 0 iterations .*: the iteration budget"):
            solve_dirichlet(dom, SolverConfig(eps=-1, H=1.0))

    def test_failure_past_the_guard_limit_is_one_bounded_run(self, monkeypatch):
        # the discrete cap's slope reaches 1 - delta near R H = 7.02: below
        # that one Newton run solves, beyond it no path in H can, and the
        # solve fails within one iteration budget
        dom = GridDomain(Disk(1.0), 0.1)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=7.05))
        assert sol.residual_max <= 1e-10 and sol.Du_max < 1.0 - sol.delta_guard
        factors = record_factors(monkeypatch)
        with pytest.raises(ConvergenceError, match=r"at H=7\.1 after \d+ iterations \(max\|r\| = "):
            solve_dirichlet(dom, SolverConfig(eps=-1, H=7.1))
        assert 0 < len(factors) <= MAX_NEWTON_ITERS

    @pytest.mark.parametrize("H", [1e12, 8.9e307])
    def test_jacobian_lost_in_rounding_is_named(self, monkeypatch, H):
        # at u = 0 the residual is -2H, and the perturbation's change of about
        # 1e-7 / h^2 rounds away against it at most nodes (at H = 1e12, 12
        # diagonal entries of 305 survive): the stop names that cause before
        # any factorization
        dom = GridDomain(Disk(1.0), 0.1)
        jac = _jacobian(dom, np.zeros(dom.n), H, -1, np.full(dom.n, -2.0 * H))
        assert jac.nnz == np.count_nonzero(jac.diagonal()) < dom.n
        factors = record_factors(monkeypatch)
        with pytest.raises(ConvergenceError, match="after 0 iterations .*: a diagonal entry of the "
                                                   "finite-difference Jacobian was lost in rounding"):
            solve_dirichlet(dom, SolverConfig(eps=-1, H=H))
        assert factors == []
        # at H = 1e11 every diagonal entry survives, and the line search stops it
        with pytest.raises(ConvergenceError, match="the line search found no admissible trial"):
            solve_dirichlet(dom, SolverConfig(eps=-1, H=1e11))


class TestReports:
    def test_height_bound_lorentzian_cap(self):
        dom = GridDomain(Disk(1.0), 0.04)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=1.0))
        rep = height_bound_report(sol)
        assert rep["applicable"] and rep["satisfied"]
        npt.assert_allclose(rep["max_abs_u"], np.sqrt(2) - 1, atol=5e-3)
        npt.assert_allclose(rep["bound"], np.sqrt(5) - 1, rtol=1e-12)
        assert "sqrt(R^2-1/H^2)" in rep["note"]

    def test_height_bound_euclidean(self):
        dom = GridDomain(Disk(1.0), 0.04)
        sol = solve_dirichlet(dom, SolverConfig(eps=1, H=0.5))
        rep = height_bound_report(sol)
        assert rep["satisfied"]
        assert rep["bound"] == 2.0

    def test_height_bound_not_applicable_for_minimal(self):
        dom = GridDomain(Disk(1.0), 0.05)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=0.0))
        rep = height_bound_report(sol)
        assert not rep["applicable"]

    def test_gradient_interior_vs_ring(self):
        dom = GridDomain(Disk(1.0), 0.04)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=1.0))
        rep = gradient_boundary_check(sol)
        assert rep["interior_le_boundary"]
        # cap slope at the rim is 1/sqrt(2), increasing in the radius
        npt.assert_allclose(rep["boundary_ring_max"], 1 / np.sqrt(2), atol=0.02)
        assert rep["convex_slope_ok"]

    def test_gradient_zero_solution(self):
        dom = GridDomain(Disk(1.0), 0.05)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=0.0))
        rep = gradient_boundary_check(sol)
        assert rep["interior_max"] == 0.0 and rep["boundary_ring_max"] == 0.0

    def test_asymmetric_polygon_gradient_check(self):
        dom = GridDomain(pentagon(), 0.04)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=0.5))
        rep = gradient_boundary_check(sol)
        assert rep["interior_le_boundary"]
