"""Seeded workloads for the minkowski3 benchmark.

Each in-process workload turns a seed into a fixed list of jobs.  A job is a
closure that calls the package's public functions through their module
attribute (``dirichlet.solve_dirichlet(...)``, never a name imported into
this file), so the tracer's patches see every call.  The `check_*` functions
compare each job's output with a closed-form reference, using the tolerances of
``tests/test_acceptance.py`` (or of the unit test that pins the quantity
when the acceptance suite has none).

Work per job must not depend much on the seed, because run-to-run spread
is measured across seeds.  Seeded parameters that change the amount of
work therefore come in antithetic pairs solved by one job (H and 2 - H for
the continuation length), and mesh sizes are fixed per chart.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from minkowski3 import (  # noqa: E402
    core,
    curves,
    dirichlet,
    meshing,
    rotational,
    surfaces,
)

WORKLOADS = ("dirichlet-solve", "surface-mesh", "curve-ode", "cli-cold")


@dataclass
class Job:
    kind: str
    params: dict
    run: Callable[[], dict]


@dataclass
class Check:
    """One comparison: passes when value <= tol.

    Reference checks compare against a closed form and feed `ref_err`
    (value / tol); the others are guards that only decide pass or fail.
    """

    name: str
    value: float
    tol: float
    reference: bool = True

    @property
    def ok(self) -> bool:
        return bool(math.isfinite(self.value) and self.value <= self.tol)


def flag(name: str, ok: bool) -> Check:
    return Check(name, 0.0 if ok else 1.0, 0.0, reference=False)


def rng_for(seed: int, workload: str) -> np.random.Generator:
    salt = WORKLOADS.index(workload)
    return np.random.default_rng(np.random.SeedSequence([int(seed), salt]))


def fingerprint(out: dict) -> str:
    """Digest of every array and number in a job output (objects skipped)."""
    h = hashlib.sha256()
    for key in sorted(out):
        val = out[key]
        if isinstance(val, np.ndarray):
            h.update(key.encode())
            h.update(np.ascontiguousarray(val).tobytes())
        elif isinstance(val, (bool, int, float, str, np.floating, np.integer)):
            h.update(f"{key}={val!r}".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# dirichlet-solve

#: h ladder for the Lorentzian caps; the fine grid dominates wall time and
#: the coarse one sits near the median job
LADDER = (0.04, 0.02)
COARSE_H = 0.04
#: polygon area, that of a disk of radius 0.35 like the caps
AREA = np.pi * 0.125


def random_convex_polygon(rng: np.random.Generator, area: float) -> np.ndarray:
    """5 to 9 vertices on a random ellipse (strictly convex), scaled to `area`."""
    k = int(rng.integers(5, 10))
    while True:
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, k))
        gaps = np.diff(np.r_[ang, ang[0] + 2 * np.pi])
        if gaps.min() > 0.35 and gaps.max() < 0.8 * np.pi:
            break
    aspect = rng.uniform(0.75, 1.0)
    rot = rng.uniform(0.0, np.pi)
    c, s = np.cos(rot), np.sin(rot)
    pts = np.c_[np.cos(ang), aspect * np.sin(ang)] @ np.array([[c, s], [-s, c]])
    x, y = pts[:, 0], pts[:, 1]
    a0 = 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
    return pts * math.sqrt(area / a0)


def _solve(spec: dict):
    shape = (dirichlet.Disk(spec["R"]) if "R" in spec
             else dirichlet.ConvexPolygon(np.asarray(spec["vertices"])))
    dom = dirichlet.GridDomain(shape, spec["h"])
    return dirichlet.solve_dirichlet(dom, dirichlet.SolverConfig(eps=spec["eps"], H=spec["H"]))


def _pair_job(kind: str, specs: list) -> Job:
    """One job solves an antithetic pair, so its cost hardly depends on the seed."""

    def run():
        sols = [_solve(spec) for spec in specs]
        out = {f"u{i}": sol.u for i, sol in enumerate(sols)}
        out["sols"] = sols
        return out

    return Job(kind, {"solves": specs}, run)


def dirichlet_jobs(rng: np.random.Generator) -> list[Job]:
    # two Lorentzian caps with antithetic H and R^2, each on the h ladder
    H0 = float(rng.uniform(0.5, 1.5))
    r2 = float(rng.uniform(0.115, 0.135))
    caps = [(H0, math.sqrt(r2)), (2.0 - H0, math.sqrt(0.25 - r2))]
    jobs = [_pair_job(f"caps-h{h}", [{"R": R, "H": H, "h": h, "eps": -1} for H, R in caps])
            for h in LADDER]
    # two Lorentzian polygons, antithetic H, area of a disk of radius 0.35
    Hp = float(rng.uniform(0.5, 1.5))
    jobs.append(_pair_job("lorentz-polygons", [
        {"vertices": random_convex_polygon(rng, AREA).tolist(), "H": H, "h": COARSE_H, "eps": -1}
        for H in (Hp, 2.0 - Hp)]))
    # Euclidean disk and polygon at antithetic fractions of their solvability bounds
    frac = float(rng.uniform(0.6, 0.75))
    R = float(rng.uniform(0.33, 0.38))
    verts = random_convex_polygon(rng, AREA)
    roll = dirichlet.ConvexPolygon(verts).rolling_radius()
    jobs.append(_pair_job("euclid", [
        {"R": R, "H": frac / R, "h": COARSE_H, "eps": 1},
        {"vertices": verts.tolist(), "H": (1.35 - frac) / roll, "h": COARSE_H, "eps": 1}]))
    return jobs


def _solver_guards(sol) -> list[Check]:
    grad = dirichlet.gradient_boundary_check(sol)
    out = [
        # test_cap_convergence / test_polygon_lorentzian_any_h
        Check("residual_max", sol.residual_max, 1e-10, reference=False),
        flag("interior_le_boundary", grad["interior_le_boundary"]),
    ]
    if sol.eps == -1:
        out.append(flag("spacelike_guard", sol.Du_max < 1.0 - sol.delta_guard))
    return out


def check_dirichlet(jobs: list[Job], outs: list) -> list[list[Check]]:
    res = []
    cap_err = {}
    for job, out in zip(jobs, outs):
        if out is None:
            res.append([])
            continue
        checks = []
        for spec, sol in zip(job.params["solves"], out["sols"]):
            checks += _solver_guards(sol)
            if "R" in spec and spec["eps"] == -1:
                exact = dirichlet.exact_cap_values(sol.domain, spec["H"])
                err = float(np.max(np.abs(sol.u - exact)))
                checks.append(Check("cap_err_h2", err, spec["h"] ** 2))
                cap_err[(spec["R"], spec["H"], spec["h"])] = err
                coarse = cap_err.get((spec["R"], spec["H"], LADDER[0]))
                if spec["h"] == LADDER[-1] and coarse is not None:
                    # criterion 09: orders in [1.7, 2.3]
                    checks.append(Check("ladder_order", abs(math.log2(coarse / err) - 2.0), 0.3))
                continue
            rep = dirichlet.height_bound_report(sol)
            checks.append(flag("height_bound_satisfied", rep["satisfied"]))
            if spec["eps"] == 1:
                # criterion 10: max|u| <= 1/H + 5h
                bound = 1.0 / abs(spec["H"]) + 5 * spec["h"]
                checks.append(Check("euclid_height", rep["max_abs_u"] / bound, 1.0))
        res.append(checks)
    return res


def warm_dirichlet() -> None:
    for shape, eps in ((dirichlet.Disk(0.5), -1), (dirichlet.Disk(0.5), 1)):
        dom = dirichlet.GridDomain(shape, 0.125)
        dirichlet.solve_dirichlet(dom, dirichlet.SolverConfig(eps=eps, H=0.3))


# ---------------------------------------------------------------------------
# surface-mesh

#: nodes per side of each chart; fixed, so a job's cost does not follow the seed
MESH_SIZES = {"hyperbolic": 65, "desitter": 33, "catenoid": 33, "cap": 33, "fd-graph": 33}
LAPLACE_GRIDS = (17, 33)
SCROLL_SIZE = 9
#: criterion 05 curvature oracle tolerance
CURV_TOL = 1e-8
#: finite-difference partials: test_surfaces pins FD second-form entries
#: to 1e-5, and H, K are built from them
FD_CURV_TOL = 1e-5


def null_helix_jet(c: float) -> curves.CurveJet:
    """Pseudo-arc-length null helix (c^2 cos(s/c), c^2 sin(s/c), c s);
    torsion -1/(2 c^2)."""
    c2 = c * c
    return curves.CurveJet(
        lambda s: np.array([c2 * np.cos(s / c), c2 * np.sin(s / c), c * s]),
        lambda s: np.array([-c * np.sin(s / c), c * np.cos(s / c), c]),
        lambda s: np.array([-np.cos(s / c), -np.sin(s / c), 0.0]),
        lambda s: np.array([np.sin(s / c) / c, -np.cos(s / c) / c, 0.0]),
        domain=(-3.0, 3.0),
    )


def _mesh_out(mesh, paths) -> dict:
    return {
        "mesh": mesh,
        "vertices": mesh.vertices,
        "H": mesh.mean_curvature,
        "K": mesh.gauss_curvature,
        "umbilic": mesh.umbilic,
        "export_bytes": sum(os.path.getsize(p) for p in paths),
    }


def _export(mesh, stem: Path) -> list:
    obj = str(stem) + ".obj"
    csv = obj + ".csv"
    meshing.export_obj(mesh, obj)
    meshing.export_mesh_csv(mesh, csv)
    return [obj, csv]


def _chart_job(make_chart, n: int, wrap: bool, stem: Path):
    def run():
        chart = make_chart()
        mesh = meshing.triangulate_chart(chart, n, n, wrap_v=wrap)
        return _mesh_out(mesh, _export(mesh, stem))

    return run


def _cap_job(r: float, R: float, n_r: int, n_theta: int, stem: Path):
    def run():
        chart, _cap = rotational.hyperbolic_cap_chart(r, R)
        mesh = meshing.disk_graph_mesh(chart, R, n_r, n_theta)
        rho = np.linalg.norm(mesh.uv, axis=1) / R
        f = np.where(rho < 1.0, np.exp(-1.0 / np.maximum(1e-12, 1.0 - rho ** 2)), 0.0)
        f[mesh.boundary] = 0.0
        var = meshing.first_variation_check(mesh, f, 1e-4)
        out = _mesh_out(mesh, _export(mesh, stem))
        out["variation"] = np.asarray(var)
        return out

    return run


def _laplace_job(r: float, p0: np.ndarray):
    a = core.E3

    def run():
        chart = surfaces.hyperbolic_plane_chart(r, p0, domain=((-0.8, 0.8), (-0.8, 0.8)))
        errs = []
        for n in LAPLACE_GRIDS:
            us, vs = chart.grid(n, n)
            pts = np.array([[chart.position(u, v) for v in vs] for u in us])
            f = core.lorentz_dot(pts, a)
            lap = surfaces.laplace_beltrami_grid(chart, f, us, vs)
            # Delta <X, a> = 2 H <N, a> with N = (X - p0)/r and H = 1/r
            target = 2.0 / r * core.lorentz_dot((pts - p0) / r, a)
            errs.append(float(np.nanmax(np.abs(lap - target)[1:-1, 1:-1])))
        return {"lap_err": np.asarray(errs)}

    return run


def _umbilic_job(r_h: float, c_h: np.ndarray, r_d: float, c_d: np.ndarray):
    grid = np.linspace(-0.5, 0.5, 4)
    hyp_samples = [(u, v) for u in grid for v in grid]
    ds_samples = [(u, v) for u in grid for v in np.linspace(0.2, 1.0, 4)]

    def run():
        k_h = surfaces.classify_totally_umbilical(
            surfaces.hyperbolic_plane_chart(r_h, c_h), hyp_samples)
        k_d = surfaces.classify_totally_umbilical(
            surfaces.de_sitter_chart(r_d, c_d), ds_samples)
        return {
            "tags": f"{k_h.tag.name},{k_d.tag.name}",
            "fit": np.r_[k_h.radius, k_h.center, k_d.radius, k_d.center],
        }

    return run


def surface_jobs(rng: np.random.Generator, workdir: Path) -> list[Job]:
    n = MESH_SIZES
    jobs = []
    r = float(rng.uniform(0.8, 2.5))
    p0 = rng.uniform(-1.0, 1.0, 3)
    jobs.append(Job("hyperbolic", {"r": r, "p0": p0.tolist(), "n": n["hyperbolic"]},
                    _chart_job(lambda r=r, p0=p0: surfaces.hyperbolic_plane_chart(r, p0),
                               n["hyperbolic"], False, workdir / "hyperbolic")))
    r = float(rng.uniform(0.8, 3.0))
    p0 = rng.uniform(-1.0, 1.0, 3)
    jobs.append(Job("desitter", {"r": r, "p0": p0.tolist(), "n": n["desitter"]},
                    _chart_job(lambda r=r, p0=p0: surfaces.de_sitter_chart(r, p0),
                               n["desitter"], True, workdir / "desitter")))
    jobs.append(Job("catenoid", {"n": n["catenoid"]},
                    _chart_job(rotational.catenoid_chart, n["catenoid"], True, workdir / "catenoid")))
    r = float(rng.uniform(0.8, 1.5))
    R = float(rng.uniform(0.8, 1.2))
    # about n^2 vertices, like an n x n chart
    n_r, n_theta = (n["cap"] + 1) // 2, 2 * n["cap"] - 2
    jobs.append(Job("cap", {"r": r, "R": R, "n_r": n_r, "n_theta": n_theta},
                    _cap_job(r, R, n_r, n_theta, workdir / "cap")))
    r = float(rng.uniform(1.0, 2.0))

    def fd_graph(r=r):
        return surfaces.graph_chart(lambda x, y: np.sqrt(r * r + x * x + y * y))

    jobs.append(Job("fd-graph", {"r": r, "n": n["fd-graph"]},
                    _chart_job(fd_graph, n["fd-graph"], False, workdir / "graph")))
    c = float(rng.uniform(0.8, 1.5))

    def scroll(c=c):
        return surfaces.null_scroll_chart(null_helix_jet(c), u_range=(-0.4, 0.4), v_range=(-1.0, 1.0))

    jobs.append(Job("null-scroll", {"c": c, "n": SCROLL_SIZE},
                    _chart_job(scroll, SCROLL_SIZE, False, workdir / "scroll")))
    r = float(rng.uniform(0.8, 2.0))
    p0 = rng.uniform(-1.0, 1.0, 3)
    jobs.append(Job("laplace", {"r": r, "p0": p0.tolist(), "grids": list(LAPLACE_GRIDS)},
                    _laplace_job(r, p0)))
    r_h, c_h = float(rng.uniform(0.8, 3.0)), rng.uniform(-1.0, 1.0, 3)
    r_d, c_d = float(rng.uniform(0.8, 3.0)), rng.uniform(-1.0, 1.0, 3)
    jobs.append(Job("umbilic", {"r_h": r_h, "c_h": c_h.tolist(), "r_d": r_d, "c_d": c_d.tolist()},
                    _umbilic_job(r_h, c_h, r_d, c_d)))
    return jobs


def _curv_check(name, H, K, H_ref, K_ref, tol) -> Check:
    dev = max(float(np.max(np.abs(H - H_ref))), float(np.max(np.abs(K - K_ref))))
    return Check(name, dev, tol)


def check_surfaces(jobs: list[Job], outs: list) -> list[list[Check]]:
    res = []
    for job, out in zip(jobs, outs):
        if out is None:
            res.append([])
            continue
        p = job.params
        k = job.kind
        if k == "hyperbolic":
            r = p["r"]
            checks = [_curv_check("H_K_vs_1/r", out["H"], out["K"], 1 / r, -1 / r ** 2, CURV_TOL),
                      flag("all_umbilic", bool(out["umbilic"].all()))]
        elif k == "desitter":
            r = p["r"]
            checks = [_curv_check("H_K_vs_1/r", out["H"], out["K"], 1 / r, 1 / r ** 2, CURV_TOL)]
        elif k == "catenoid":
            checks = [Check("H_zero", float(np.max(np.abs(out["H"]))), CURV_TOL)]
        elif k == "cap":
            r = p["r"]
            da_n, da_f, dv_n, dv_f, _ = out["variation"]
            checks = [Check("H_vs_1/r", float(np.max(np.abs(out["H"] - 1 / r))), CURV_TOL),
                      # criterion 07: 2% agreement of both first variations
                      Check("area_variation", abs(da_n - da_f) / abs(da_f), 0.02),
                      Check("volume_variation", abs(dv_n - dv_f) / abs(dv_f), 0.02)]
        elif k == "fd-graph":
            r = p["r"]
            checks = [_curv_check("H_K_vs_1/r", out["H"], out["K"], 1 / r, -1 / r ** 2, FD_CURV_TOL)]
        elif k == "null-scroll":
            tau = -1.0 / (2 * p["c"] ** 2)
            checks = [_curv_check("H_K_vs_tau", out["H"], out["K"], tau, tau * tau, CURV_TOL)]
        elif k == "laplace":
            coarse, fine = out["lap_err"]
            order = math.log2(coarse / fine)
            # criterion 06: orders in [1.7, 2.3]
            checks = [Check("laplace_order", abs(order - 2.0), 0.3)]
        else:  # umbilic
            fit = out["fit"]
            dev = max(abs(fit[0] - p["r_h"]), float(np.max(np.abs(fit[1:4] - p["c_h"]))),
                      abs(fit[4] - p["r_d"]), float(np.max(np.abs(fit[5:8] - p["c_d"]))))
            # criterion 05: umbilic fit to 1e-6
            checks = [Check("umbilic_fit", dev, 1e-6),
                      flag("tags", out["tags"] == "HYPERBOLIC_PLANE,DE_SITTER")]
        res.append(checks)
    return res


def warm_surfaces(workdir: Path) -> None:
    chart = surfaces.hyperbolic_plane_chart(1.0)
    mesh = meshing.triangulate_chart(chart, 5, 5)
    _export(mesh, workdir / "warm")
    cap_chart, _ = rotational.hyperbolic_cap_chart(1.0, 1.0)
    mesh = meshing.disk_graph_mesh(cap_chart, 1.0, 3, 8)
    meshing.first_variation_check(mesh, np.zeros(len(mesh.vertices)), 1e-4)
    us, vs = chart.grid(5, 5)
    surfaces.laplace_beltrami_grid(chart, np.zeros((5, 5)), us, vs)
    scroll = surfaces.null_scroll_chart(null_helix_jet(1.0), u_range=(-0.4, 0.4), v_range=(-1.0, 1.0))
    surfaces.shape_and_curvatures(scroll, 0.1, 0.1)


# ---------------------------------------------------------------------------
# curve-ode

FRENET_POINTS = 100
#: criterion 04: generator curvature to 1e-8; invariance (and the
#: reparametrized helices, test_curves) to 1e-6
GEN_TOL = 1e-8
HELIX_TOL = 1e-6
#: test_curves planarity: tau = 0 to 1e-7
PLANAR_TAU_TOL = 1e-7
#: criterion 08
SINH_TOL = 1e-6
MEASURED_H_TOL = 1e-4


def helix_jet(rho: float, a: float) -> curves.CurveJet:
    """(rho cos t, rho sin t, a t): timelike for |a| > rho, with
    kappa = rho / (a^2 - rho^2) and tau = a / (a^2 - rho^2)."""
    return curves.CurveJet(
        lambda t: np.array([rho * np.cos(t), rho * np.sin(t), a * t]),
        lambda t: np.array([-rho * np.sin(t), rho * np.cos(t), a]),
        lambda t: np.array([-rho * np.cos(t), -rho * np.sin(t), 0.0]),
        lambda t: np.array([rho * np.sin(t), -rho * np.cos(t), 0.0]),
        domain=(-1.0, 1.0),
    )


def _kappa_tau(frames) -> tuple[np.ndarray, np.ndarray]:
    """Curvatures (absent in the null-normal cases) and torsions."""
    kappa = np.array([f.kappa for f in frames if f.kappa is not None])
    return kappa, np.array([f.tau for f in frames])


def _plane_job(case, a: float, b: float):
    def run():
        jet = curves.generate_constant_curvature(case, a, b)
        frames = [curves.frenet(jet, s) for s in np.linspace(-0.4, 0.4, FRENET_POINTS)]
        kappa, tau = _kappa_tau(frames)
        out = {"kappa": kappa, "tau": tau, "cases": ",".join(sorted({f.case.name for f in frames}))}
        if case is not curves.PlaneCase.LIGHTLIKE_PLANE:
            fit = curves.bertrand_fit(np.c_[kappa, tau])
            out["bertrand"] = np.array([np.nan, np.nan] if fit is None else [fit.A, fit.B])
        return out

    return run


def _null_helix_job(c: float):
    def run():
        jet = null_helix_jet(c)
        frames = [curves.frenet(jet, s) for s in np.linspace(-1.0, 1.0, FRENET_POINTS)]
        _, tau = _kappa_tau(frames)
        return {"tau": tau, "cases": ",".join(sorted({f.case.name for f in frames}))}

    return run


def _helix_job(rho: float, a: float):
    def run():
        jet = helix_jet(rho, a)
        general = np.array([curves.curvature_torsion_general(jet, t)
                            for t in np.linspace(-0.5, 0.5, FRENET_POINTS)])
        beta = curves.reparam_arclength(jet, 0.0)
        frames = [curves.frenet(beta, s) for s in np.linspace(-0.4, 0.4, FRENET_POINTS)]
        kappa, tau = _kappa_tau(frames)
        samples = np.c_[kappa, tau]
        fit = curves.bertrand_fit(samples)
        return {
            "general": general,
            "kappa": kappa,
            "tau": tau,
            "cases": ",".join(sorted({f.case.name for f in frames})),
            "is_helix": curves.is_helix(samples),
            "helix_degenerate": bool(fit is not None and fit.helix_degenerate),
        }

    return run


def _measured_h(chart, us, vs) -> np.ndarray:
    return np.array([surfaces.shape_and_curvatures(chart, u, v).H for u in us for v in vs])


def _catenoid_job(s0: float):
    def run():
        params = rotational.ProfileODEParams(
            H=0.0, r0=float(np.sinh(s0)), rp0=float(np.cosh(s0)), s0=s0, s1=s0 + 2.5, h=1e-3)
        sol = rotational.integrate_rotational(params)
        chart = rotational.profile_chart(sol)
        hs = _measured_h(chart, np.linspace(s0 + 0.1, s0 + 2.4, 10), np.linspace(0.0, 6.0, 7))
        return {"s": sol.s, "r": sol.r, "H": hs, "truncated": sol.truncated}

    return run


def _rotational_job(H: float, r0: float, rp0: float):
    def run():
        params = rotational.ProfileODEParams(H=H, r0=r0, rp0=rp0, s0=0.0, s1=0.5, h=1e-3)
        sol = rotational.integrate_rotational(params)
        chart = rotational.profile_chart(sol)
        hs = _measured_h(chart, np.linspace(0.05, 0.45, 10), np.linspace(0.0, 6.0, 7))
        return {"r": sol.r, "H": hs, "truncated": sol.truncated}

    return run


def _riemann_job(c: float, d: float):
    def run():
        params = rotational.ProfileODEParams(H=0.0, c=c, d=d, r0=1.0, rp0=1.5, s0=0.0, s1=1.0, h=1e-3)
        sol = rotational.integrate_riemann(params)
        chart = rotational.profile_chart(sol)
        hs = _measured_h(chart, np.linspace(0.05, 0.95, 10), np.linspace(0.0, 6.0, 7))
        return {"r": sol.r, "a": sol.a, "b": sol.b, "H": hs, "truncated": sol.truncated}

    return run


def curve_jobs(rng: np.random.Generator) -> list[Job]:
    jobs = []
    pc = curves.PlaneCase
    for case in (pc.SPACELIKE_PLANE, pc.TIMELIKE_PLANE_SPACELIKE_CURVE,
                 pc.TIMELIKE_PLANE_TIMELIKE_CURVE, pc.LIGHTLIKE_PLANE):
        a = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-0.3, 0.3))
        jobs.append(Job("plane", {"case": case.name, "a": a, "b": b}, _plane_job(case, a, b)))
    for _ in range(2):
        c = float(rng.uniform(0.8, 1.5))
        jobs.append(Job("null-helix", {"c": c}, _null_helix_job(c)))
    for _ in range(2):
        rho = float(rng.uniform(0.5, 1.5))
        a = rho * float(rng.uniform(1.5, 2.5))
        jobs.append(Job("timelike-helix", {"rho": rho, "a": a}, _helix_job(rho, a)))
    s0 = float(rng.uniform(0.4, 0.6))
    jobs.append(Job("catenoid-rk4", {"s0": s0}, _catenoid_job(s0)))
    H, r0, rp0 = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.8, 1.2)), float(rng.uniform(1.3, 1.8))
    jobs.append(Job("rotational-rk4", {"H": H, "r0": r0, "rp0": rp0}, _rotational_job(H, r0, rp0)))
    c, d = float(rng.uniform(0.2, 0.4)), float(rng.uniform(-0.1, 0.1))
    jobs.append(Job("riemann-rk4", {"c": c, "d": d}, _riemann_job(c, d)))
    return jobs


def check_curves(jobs: list[Job], outs: list) -> list[list[Check]]:
    res = []
    for job, out in zip(jobs, outs):
        if out is None:
            res.append([])
            continue
        p = job.params
        k = job.kind
        if k == "plane":
            if p["case"] == "LIGHTLIKE_PLANE":
                checks = [flag("case", out["cases"] == "SPACELIKE_LL_N")]
            else:
                checks = [Check("kappa_vs_a", float(np.max(np.abs(out["kappa"] - abs(p["a"])))), GEN_TOL),
                          flag("bertrand_fit", bool(np.all(np.isfinite(out["bertrand"]))))]
            checks.append(Check("tau_planar", float(np.max(np.abs(out["tau"]))), PLANAR_TAU_TOL))
        elif k == "null-helix":
            tau = -1.0 / (2 * p["c"] ** 2)
            checks = [Check("tau_vs_helix", float(np.max(np.abs(out["tau"] - tau))), GEN_TOL),
                      flag("case", out["cases"] == "LIGHTLIKE")]
        elif k == "timelike-helix":
            rho, a = p["rho"], p["a"]
            kap, tau = rho / (a * a - rho * rho), a / (a * a - rho * rho)
            gen = out["general"]
            checks = [
                Check("general_vs_helix", float(np.max(np.abs(gen - [kap, tau]))), HELIX_TOL),
                Check("frenet_vs_helix", max(float(np.max(np.abs(out["kappa"] - kap))),
                                             float(np.max(np.abs(out["tau"] - tau)))), HELIX_TOL),
                flag("case", out["cases"] == "TIMELIKE"),
                flag("is_helix", out["is_helix"]),
                flag("bertrand_helix", out["helix_degenerate"]),
            ]
        elif k == "catenoid-rk4":
            checks = [Check("rk4_vs_sinh", float(np.max(np.abs(out["r"] - np.sinh(out["s"])))), SINH_TOL),
                      Check("measured_H", float(np.max(np.abs(out["H"]))), MEASURED_H_TOL),
                      flag("not_truncated", not out["truncated"])]
        elif k == "rotational-rk4":
            checks = [Check("measured_H", float(np.max(np.abs(out["H"] - p["H"]))), MEASURED_H_TOL),
                      flag("not_truncated", not out["truncated"])]
        else:  # riemann
            checks = [Check("measured_H", float(np.max(np.abs(out["H"]))), MEASURED_H_TOL),
                      flag("not_truncated", not out["truncated"])]
        res.append(checks)
    return res


def warm_curves() -> None:
    jet = helix_jet(1.0, 2.0)
    curves.frenet(curves.reparam_arclength(jet, 0.0), 0.1)
    curves.curvature_torsion_general(jet, 0.0)
    curves.frenet(null_helix_jet(1.0), 0.0)
    sol = rotational.integrate_rotational(rotational.ProfileODEParams(
        H=0.0, r0=float(np.sinh(0.5)), rp0=float(np.cosh(0.5)), s0=0.5, s1=0.51, h=1e-3))
    surfaces.shape_and_curvatures(rotational.profile_chart(sol), 0.505, 0.0)


# ---------------------------------------------------------------------------
# cli-cold: one `mink3` invocation per subcommand except `verify`

CLI_DIRICHLET_H = 0.05


@dataclass
class Invocation:
    name: str
    argv: list
    expect: dict = field(default_factory=dict)


def _vec(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def cli_invocations(rng: np.random.Generator) -> tuple[list[Invocation], dict]:
    """Argument lists plus the input files they read (name -> text)."""
    inv = []
    cls = str(rng.choice(["spacelike", "timelike", "lightlike"]))
    theta, scale = rng.uniform(0.0, 2 * np.pi), rng.uniform(0.5, 2.0)
    z = {"spacelike": 0.5, "timelike": 2.0, "lightlike": 1.0}[cls]
    vec = scale * np.array([np.cos(theta), np.sin(theta), z])
    inv.append(Invocation("classify", ["classify", f"--vec={_vec(vec)}"],
                          {"causal_class": cls}))
    axis = str(rng.choice(["timelike", "spacelike", "lightlike"]))
    p0 = {"timelike": (1.0, 0.5, 2.0), "spacelike": (0.3, 0.0, 1.0),
          "lightlike": (1.0, 1.0, -1.0)}[axis]
    p0 = np.asarray(p0) * float(rng.uniform(0.5, 2.0))
    inv.append(Invocation("orbit", ["orbit", "--axis", axis, f"--p0={_vec(p0)}",
                                    "--params=-2:2:100", "--out", "orbit.csv"]))
    kind = str(rng.choice(["circle", "hyperbola-spacelike", "hyperbola-timelike"]))
    a = float(rng.uniform(0.5, 2.0))
    inv.append(Invocation("curve", ["curve", "--kind", kind, "--a", repr(a), "--span=-1:1",
                                    "--out", "curve.csv"], {"kappa": a}))
    kind = str(rng.choice(["hyperbolic", "desitter", "catenoid"]))
    r = float(rng.uniform(0.8, 2.5))
    c = rng.uniform(-1.0, 1.0, 3)
    inv.append(Invocation("surface", ["surface", "--kind", kind, "--r", repr(r),
                                      f"--center={_vec(c)}", "--mesh", "surface.obj"],
                          {"kind": kind, "r": r}))
    kind = str(rng.choice(["hyperbolic", "desitter"]))
    r = float(rng.uniform(0.8, 2.5))
    c = rng.uniform(-1.0, 1.0, 3)
    inv.append(Invocation("umbilic", ["umbilic", "--kind", kind, "--r", repr(r),
                                      f"--center={_vec(c)}"], {"r": r, "center": c.tolist()}))
    s0 = float(rng.uniform(0.4, 0.6))
    inv.append(Invocation("rotational", ["rotational", "--catenoid", f"--span={s0!r}:{s0 + 2.5!r}",
                                         "--csv", "profile.csv", "--mesh", "rotational.obj"]))
    cc, d = float(rng.uniform(0.2, 0.4)), float(rng.uniform(-0.1, 0.1))
    inv.append(Invocation("riemann", ["riemann", "--c", repr(cc), f"--d={d!r}", "--csv", "riemann.csv"]))
    r, R = float(rng.uniform(0.8, 1.5)), float(rng.uniform(0.8, 1.2))
    inv.append(Invocation("cap", ["cap", "--r", repr(r), "--R", repr(R), "--mesh", "cap.obj",
                                  "--csv", "cap.csv"], {"r": r}))
    H = float(rng.uniform(0.5, 1.5))
    R = float(rng.uniform(0.7, 0.8))
    inv.append(Invocation("dirichlet-disk", ["dirichlet", "--disk", repr(R), "--H", repr(H),
                                             "--h", repr(CLI_DIRICHLET_H), "--out", "disk.csv"],
                          {"h": CLI_DIRICHLET_H}))
    verts = random_convex_polygon(rng, np.pi * 0.75 ** 2)
    polygon = "".join(f"{float(vx)!r},{float(vy)!r}\n" for vx, vy in verts)
    inv.append(Invocation("dirichlet-polygon", ["dirichlet", "--polygon", "polygon.txt",
                                                "--H", repr(2.0 - H), "--h", repr(CLI_DIRICHLET_H),
                                                "--out", "polygon.csv"]))
    return inv, {"polygon.txt": polygon}


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def check_cli(inv: Invocation, code: int, stdout: str) -> list[Check]:
    """Exit 0, strict JSON with finite numbers, and the closed forms."""
    checks = [flag("exit_0", code == 0)]
    try:
        rep = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError:
        return checks + [flag("json", False)]
    checks.append(flag("finite", all(math.isfinite(x) for x in _numbers(rep))))
    out = rep.get("outputs", {})
    e = inv.expect
    try:
        if inv.name == "classify":
            checks.append(flag("causal_class", out["causal_class"] == e["causal_class"]))
        elif inv.name == "orbit":
            # criterion 03: orbit conics to 1e-10
            checks.append(Check("conic", out["conic_residual_max"], 1e-10))
        elif inv.name == "curve":
            dev = max(abs(out["kappa_min"] - e["kappa"]), abs(out["kappa_max"] - e["kappa"]))
            checks.append(Check("kappa_vs_a", dev, GEN_TOL))
            checks.append(Check("tau_planar", out["tau_abs_max"], PLANAR_TAU_TOL))
        elif inv.name == "surface":
            r = e["r"]
            if e["kind"] == "catenoid":
                dev = max(abs(out["H_min"]), abs(out["H_max"]))
            else:
                k_ref = -1 / r ** 2 if e["kind"] == "hyperbolic" else 1 / r ** 2
                dev = max(abs(out["H_min"] - 1 / r), abs(out["H_max"] - 1 / r),
                          abs(out["K_min"] - k_ref), abs(out["K_max"] - k_ref))
            checks.append(Check("curvature", dev, CURV_TOL))
        elif inv.name == "umbilic":
            dev = max([abs(out["radius"] - e["r"])]
                      + [abs(a - b) for a, b in zip(out["center"], e["center"])])
            checks.append(Check("umbilic_fit", dev, 1e-6))
        elif inv.name == "rotational":
            checks.append(Check("rk4_vs_sinh", out["max_error_vs_sinh"], SINH_TOL))
            checks.append(Check("measured_H", out["measured_H_abs_dev"], MEASURED_H_TOL))
        elif inv.name == "riemann":
            checks.append(Check("measured_H", out["measured_H_abs_max"], MEASURED_H_TOL))
        elif inv.name == "cap":
            dev = max(abs(out["measured_H_min"] - 1 / e["r"]), abs(out["measured_H_max"] - 1 / e["r"]))
            checks.append(Check("H_vs_1/r", dev, CURV_TOL))
        elif inv.name.startswith("dirichlet"):
            checks.append(Check("residual_max", out["residual_max"], 1e-10, reference=False))
            checks.append(flag("interior_le_boundary", out["gradient_check"]["interior_le_boundary"]))
            checks.append(flag("height_bound", out["bounds"]["satisfied"]))
            if inv.name == "dirichlet-disk":
                checks.append(Check("cap_err_h2", out["error_vs_cap_max"], e["h"] ** 2))
    except (KeyError, TypeError):
        checks.append(flag("report_fields", False))
    return checks
