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
            assert np.array_equal(dom.values_with_boundary(u), loop_values_with_boundary(dom, u))
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
        assert new.format == "csc" and new.shape == (dom.n, dom.n)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(new, attr), getattr(old, attr)), attr

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


class TestOrderingReuse:
    def test_newton_sequence_equals_fresh_factorizations(self, monkeypatch):
        from scipy.sparse.linalg import splu as scipy_splu

        factored = []

        def recording_splu(a, permc_spec="COLAMD"):
            lu = scipy_splu(a, permc_spec=permc_spec)
            factored.append((permc_spec, lu))
            return lu

        monkeypatch.setattr(dirichlet, "splu", recording_splu)
        dom = GridDomain(pentagon(), 0.1)
        ordering = {}
        u = np.zeros(dom.n)  # the Newton start: a sparser Jacobian pattern
        patterns = []
        for _ in range(5):
            r = cmc_operator_residual(dom, u, 0.8, -1)
            jac = _jacobian(dom, u, 0.8, -1, r)
            patterns.append((jac.indptr.tobytes(), jac.indices.tobytes()))
            du = dirichlet._lu_solve(jac, -r, ordering)
            fresh = scipy_splu(jac)
            assert du.tobytes() == fresh.solve(-r).tobytes()
            spec, lu = factored[-1]
            assert lu.L.nnz + lu.U.nnz == fresh.L.nnz + fresh.U.nnz
            if spec == "NATURAL":
                assert np.array_equal(lu.perm_c, np.arange(dom.n))
                assert np.array_equal(lu.perm_r, fresh.perm_r)
            u = u + du
        specs = [spec for spec, _ in factored]
        # a new pattern is ordered by COLAMD, a repeated one reuses the ordering
        assert specs == ["COLAMD" if k == 0 or patterns[k] != patterns[k - 1] else "NATURAL"
                         for k in range(len(patterns))]
        assert specs[:2] == ["COLAMD", "COLAMD"] and "NATURAL" in specs

    def test_no_ordering_outlives_a_solve(self, monkeypatch):
        factor = dirichlet.splu
        specs = []

        def recording_splu(a, permc_spec="COLAMD"):
            specs.append(permc_spec)
            return factor(a, permc_spec=permc_spec)

        monkeypatch.setattr(dirichlet, "splu", recording_splu)

        def solve(shape, H=0.9):
            specs.clear()
            sol = solve_dirichlet(GridDomain(shape, 0.1), SolverConfig(eps=-1, H=H))
            return sol, list(specs)

        first, first_specs = solve(Disk(0.8))
        solve(pentagon())
        again, again_specs = solve(Disk(0.8))
        assert again.u.tobytes() == first.u.tobytes()
        assert again.newton_iters == first.newton_iters
        assert repr(again.residual_max) == repr(first.residual_max)
        assert repr(again.Du_max) == repr(first.Du_max)
        assert again_specs == first_specs
        # one Newton step: the only pattern ordered is that of u = 0, which is
        # where the next solve starts; it must order it afresh
        for _ in range(2):
            sol, one_step = solve(Disk(0.8), 1e-5)
            assert sol.newton_iters == 1 and one_step == ["COLAMD"]


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

    @pytest.mark.parametrize("h", [0.04, 0.02])
    def test_cap_solves_in_one_step(self, h):
        sol = solve_dirichlet(GridDomain(Disk(1.0), h), SolverConfig(eps=-1, H=1.0))
        assert sol.continuation_steps == 1
        assert sol.residual_max <= 1e-10

    def test_newton_tail_rate(self, monkeypatch):
        # the forward-difference Jacobian makes the tail superlinear, not
        # cleanly quadratic: each of the last two iterations still cuts
        # max|r| by more than 1000x (measured 2.9e-4 and 7.3e-4)
        norms = []
        residual = dirichlet.cmc_operator_residual

        def recording(dom, u, *args, **kwargs):
            r = residual(dom, u, *args, **kwargs)
            if u.ndim == 1:  # not the Jacobian's stack of perturbed vectors
                norms.append(float(np.max(np.abs(r))))
            return r

        monkeypatch.setattr(dirichlet, "cmc_operator_residual", recording)
        sol = solve_dirichlet(GridDomain(Disk(1.0), 0.02), SolverConfig(eps=-1, H=1.0))
        # the start, one full-step trial per iteration, and the final report
        assert len(norms) == sol.newton_iters + 2
        assert norms[-1] == norms[-2] == sol.residual_max
        history = norms[:-1]
        assert history[-1] <= 1e-3 * history[-2] and history[-2] <= 1e-3 * history[-3]

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
        from minkowski3.dirichlet import _half_gradient_max

        dom = GridDomain(Disk(1.0), 0.04)
        sol = solve_dirichlet(dom, SolverConfig(eps=-1, H=5.0))
        assert _half_gradient_max(dom, sol.u) < 1.0 - 0.5 * sol.delta_guard

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
        factor = dirichlet.splu
        calls = []

        def counting_splu(a, permc_spec="COLAMD"):
            calls.append(permc_spec)
            return factor(a, permc_spec=permc_spec)

        monkeypatch.setattr(dirichlet, "splu", counting_splu)
        with pytest.raises(ConvergenceError, match=r"at H=7\.1 after \d+ iterations \(max\|r\| = "):
            solve_dirichlet(dom, SolverConfig(eps=-1, H=7.1))
        assert 0 < len(calls) <= MAX_NEWTON_ITERS


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
