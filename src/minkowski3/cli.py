"""Command-line front end: `mink3 <subcommand>`.

Every subcommand prints a JSON run report to stdout (and optionally writes
CSV / Wavefront mesh files).  All numeric output is printed with 17
significant digits so regression diffs are exact; identical invocations
produce byte-identical output.

Exit status: 0 on success, 1 on domain errors (bad causal type, Newton
non-convergence, unsatisfiable preconditions) and on a stdout closed before
the report is written, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

import numpy as np

from . import core, curves, dirichlet, isometry, meshing, rotational, surfaces

# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats


def dump_json(obj, indent: int = 0) -> str:
    """`obj` as JSON text: keys sorted, two-space indents, floats with 17
    significant digits.  JSON has no NaN or infinity: a report that holds
    one raises GeometryError where the number is formatted, so every text
    it returns is finite."""
    pad = "  " * indent
    pad1 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad1}"{k}": {dump_json(obj[k], indent + 1)}' for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj.tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        return "[" + ", ".join(dump_json(v, indent) for v in seq) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise core.GeometryError("the report holds a non-finite number")
        return format(float(obj), ".17g")
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _digest(args: argparse.Namespace) -> str:
    payload = repr(sorted(
        (k, v) for k, v in vars(args).items() if k != "func"
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _report(args, command: str, outputs: dict, warnings=None) -> dict:
    return {
        "command": command,
        "input_digest": _digest(args),
        "outputs": outputs,
        "warnings": list(warnings or []),
    }


# ---------------------------------------------------------------------------
# small parsers


def _vec(text: str) -> np.ndarray:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise core.GeometryError(f"expected 3 comma-separated numbers, got {text!r}")
    return np.asarray(parts)


def _span(text: str) -> tuple[float, float]:
    a, b = (float(p) for p in text.split(":"))
    return a, b


def _params(text: str) -> tuple[float, float, int]:
    start, stop, count = text.split(":")
    n = int(count)
    if not 1 <= n <= core.MAX_POINTS:
        raise ValueError("count must be at least 1 and at most core.MAX_POINTS")
    return float(start), float(stop), n


def _polygon(path: str) -> np.ndarray:
    """Vertices from a file of 'x,y' lines; blank and '#' lines are skipped."""
    verts = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            x, y = (float(p) for p in line.split(","))
            verts.append((x, y))
    return np.asarray(verts)


def _readable(parse, expected: str):
    """argparse type that checks `parse` can read the text and keeps the text
    itself, so the namespace, and with it the report's input_digest, is unchanged."""
    def check(text: str) -> str:
        try:
            parse(text)
        except (ValueError, OSError) as exc:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from exc
        return text
    return check


_VEC = _readable(_vec, "three comma-separated numbers x,y,z")
_PLANE = _readable(lambda text: [_vec(p) for p in text.split(";")], "'x,y,z;x,y,z'")
_SPAN = _readable(_span, "a span a:b")
_PARAMS = _readable(_params, f"start:stop:count with an integer count in 1..{core.MAX_POINTS}")
_POLYGON = _readable(_polygon, "a readable file of 'x,y' lines")


def _count(text: str) -> int:
    """argparse type for sample and mesh counts: an integer from 2 to core.MAX_POINTS."""
    n = int(text)
    if not 2 <= n <= core.MAX_POINTS:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 2 and <= {core.MAX_POINTS}, got {text!r}")
    return n


def _export_mesh(mesh, path: str, out: dict) -> str:
    """Write `mesh` as OBJ to `path` with a `path.csv` sidecar; return the sidecar."""
    meshing.export_obj(mesh, path)
    sidecar = path + ".csv"
    meshing.export_mesh_csv(mesh, sidecar)
    out["mesh"] = path
    return sidecar


def _export_profile(args, sol, chart, out: dict) -> None:
    """The --csv profile table and --mesh surface of a rotational or riemann run."""
    if args.csv:
        table = np.column_stack([sol.s, sol.r, sol.rp, sol.a, sol.b])
        core.write_csv(args.csv, "s,r,rp,a,b", table)
        out["csv"] = args.csv
    if args.mesh:
        _export_mesh(meshing.triangulate_chart(chart, args.nu, args.nv, wrap_v=True), args.mesh, out)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_classify(args) -> dict:
    out = {}
    if args.vec is not None:
        v = _vec(args.vec)
        cc = core.causal_class(v)
        out["vector"] = list(v)
        out["causal_class"] = str(cc)
        out["lorentz_norm"] = core.lorentz_norm(v)
        if cc is not core.CausalClass.SPACELIKE:
            out["future_directed"] = core.future_directed(v)
    else:
        gens = [_vec(p) for p in args.plane.split(";")]
        sub = core.Subspace(tuple(gens))
        out["generators"] = [list(g) for g in gens]
        out["causal_class"] = str(core.causal_class_subspace(sub))
    return _report(args, "classify", out)


def cmd_orbit(args) -> dict:
    axis = core.CausalClass(args.axis)
    p0 = _vec(args.p0)
    ts = np.linspace(*_params(args.params))
    pts = isometry.orbit(axis, p0, ts)
    conic, resid = isometry.conic_residual(axis, p0, pts)
    out = {"n_samples": len(pts), "conic": conic, "conic_residual_max": resid}
    if args.out:
        core.write_csv(args.out, "t,x,y,z", np.column_stack([ts, pts]))
        out["csv"] = args.out
    return _report(args, "orbit", out)


_CURVE_KINDS = {
    "circle": curves.PlaneCase.SPACELIKE_PLANE,
    "hyperbola-spacelike": curves.PlaneCase.TIMELIKE_PLANE_SPACELIKE_CURVE,
    "hyperbola-timelike": curves.PlaneCase.TIMELIKE_PLANE_TIMELIKE_CURVE,
    "parabola": curves.PlaneCase.LIGHTLIKE_PLANE,
}


def cmd_curve(args) -> dict:
    kind = _CURVE_KINDS[args.kind]
    s0, s1 = _span(args.span)
    jet = curves.generate_constant_curvature(kind, args.a, args.b, span=(s0 - 0.1, s1 + 0.1))
    ts = np.linspace(s0, s1, args.n)
    kts = []
    cases = set()
    for t in ts:
        fr = curves.frenet(jet, t)
        kts.append((fr.kappa, fr.tau))
        cases.add(fr.case.name)
    kappas = [k for k, _ in kts if k is not None]
    out = {
        "case": sorted(cases),
        "kappa_min": min(kappas) if kappas else None,
        "kappa_max": max(kappas) if kappas else None,
        "tau_abs_max": max(abs(t) for _, t in kts),
    }
    if args.out:
        curves.export_curve_csv(jet, ts, args.out, kappa_tau=kts)
        out["csv"] = args.out
    return _report(args, "curve", out)


def _surface_chart(args):
    center = _vec(args.center) if args.center else np.zeros(3)
    if args.kind == "plane":
        return surfaces.plane_chart(center, core.E1, core.E2)
    if args.kind == "hyperbolic":
        return surfaces.hyperbolic_plane_chart(args.r, center)
    if args.kind == "desitter":
        return surfaces.de_sitter_chart(args.r, center)
    return rotational.catenoid_chart()


def cmd_surface(args) -> dict:
    chart = _surface_chart(args)
    wrap = args.kind in ("desitter", "catenoid")
    mesh = meshing.triangulate_chart(chart, args.nu, args.nv, wrap_v=wrap)
    out = {
        "vertices": len(mesh.vertices),
        "faces": len(mesh.faces),
        "H_min": float(mesh.mean_curvature.min()),
        "H_max": float(mesh.mean_curvature.max()),
        "K_min": float(mesh.gauss_curvature.min()),
        "K_max": float(mesh.gauss_curvature.max()),
        "umbilic_fraction": float(mesh.umbilic.mean()),
    }
    if args.mesh:
        out["sidecar"] = _export_mesh(mesh, args.mesh, out)
    return _report(args, "surface", out)


def cmd_umbilic(args) -> dict:
    chart = _surface_chart(args)
    if args.nu * args.nv > core.MAX_POINTS:
        raise core.GeometryError(f"--nu x --nv samples exceed MAX_POINTS = {core.MAX_POINTS}")
    (u0, u1), (v0, v1) = chart.domain
    us = np.linspace(u0 + 0.1 * (u1 - u0), u1 - 0.1 * (u1 - u0), args.nu)
    vs = np.linspace(v0 + 0.1 * (v1 - v0), v1 - 0.1 * (v1 - v0), args.nv)
    samples = [(u, v) for u in us for v in vs]
    kind = surfaces.classify_totally_umbilical(chart, samples)
    out = {"kind": kind.tag.value, "residual": kind.residual}
    if kind.radius is not None:
        out["radius"] = kind.radius
        out["center"] = list(kind.center)
    if kind.normal is not None:
        out["normal"] = list(kind.normal)
        out["offset"] = kind.offset
    return _report(args, "umbilic", out)


def _measured_h_stats(chart):
    """Least and greatest H over 24 x 24 samples inset by 2% of each side."""
    (u0, u1), (v0, v1) = chart.domain
    du = 0.02 * (u1 - u0)
    dv = 0.02 * (v1 - v0)
    us = np.linspace(u0 + du, u1 - du, 24)
    vs = np.linspace(v0 + dv, v1 - dv, 24)
    hs = surfaces.shape_and_curvatures(chart, np.repeat(us, 24), np.tile(vs, 24)).H
    return float(np.min(hs)), float(np.max(hs))


_BLOW_UP = "integration stopped where the profile blows up: the next step overflows"


def _rounding_floor(sol) -> list:
    """A warning where a profile chart's measured H is interpolant rounding.

    The Hermite r'' of samples h apart rounds by about eps r / h^2, and by
    the profile identity an error e in r'' moves H by e / (2 (r'^2 - 1)^1.5);
    against the curvature scale 1 / r that is eps (r / h)^2 / (2 (r'^2 - 1)^1.5),
    and where it exceeds 1e-3 at some sample the measured H tells little of
    the profile's own.  The slope factor keeps steep profiles, whose measured
    H is truncation error that shrinks with h, from warning.
    """
    r, rp = sol.r, sol.rp
    with np.errstate(over="ignore"):  # an overflow is an inf floor: it warns
        floor = float(np.max(sys.float_info.epsilon * (r / sol.params.h) ** 2
                             / (2.0 * (rp * rp - 1.0) ** 1.5)))
    if floor > 1e-3:
        return [f"measured H is at its rounding floor: eps (r / h)^2 / (2 (r'^2 - 1)^1.5) "
                f"= {floor:.2g} of the curvature scale 1 / r, above 1e-3"]
    return []


def cmd_rotational(args) -> dict:
    s0, s1 = _span(args.span)
    warnings = []
    if args.catenoid:
        params = rotational.ProfileODEParams(
            H=0.0, r0=float(np.sinh(s0)), rp0=float(np.cosh(s0)),
            s0=s0, s1=s1, h=args.step,
        )
        sol = rotational.integrate_rotational(params)
        err = float(np.max(np.abs(sol.r - np.sinh(sol.s))))
        out = {"max_error_vs_sinh": err}
    else:
        if args.r0 is None or args.rp0 is None:
            raise core.GeometryError("non-catenoid runs need --r0 and --rp0")
        params = rotational.ProfileODEParams(
            H=args.H, r0=args.r0, rp0=args.rp0, s0=s0, s1=s1, h=args.step,
        )
        sol = rotational.integrate_rotational(params)
        out = {}
    out.update(
        {
            "samples": len(sol.s),
            "residual_max": sol.residual_max,
            "truncated": sol.truncated,
        }
    )
    if sol.blew_up:
        warnings.append(_BLOW_UP)
    elif sol.truncated:
        warnings.append("integration stopped at the guard band")
    chart = rotational.profile_chart(sol)
    hmin, hmax = _measured_h_stats(chart)
    out["measured_H_min"] = hmin
    out["measured_H_max"] = hmax
    out["measured_H_abs_dev"] = max(abs(hmin - params.H), abs(hmax - params.H))
    warnings += _rounding_floor(sol)
    _export_profile(args, sol, chart, out)
    return _report(args, "rotational", out, warnings)


def cmd_riemann(args) -> dict:
    s0, s1 = _span(args.span)
    params = rotational.ProfileODEParams(
        H=0.0, c=args.c, d=args.d, r0=args.r0, rp0=args.rp0,
        s0=s0, s1=s1, h=args.step,
    )
    sol = rotational.integrate_riemann(params)
    warnings = [_BLOW_UP] if sol.blew_up else []
    if sol.truncated or not rotational.chart_spacelike(sol):
        warnings.append("chart fails the spacelike condition somewhere")
    # drift relation a' = c r^2, b' = d r^2 checked by a five-point stencil
    def deriv(arr):
        return (-arr[4:] + 8 * arr[3:-1] - 8 * arr[1:-3] + arr[:-4]) / (12 * params.h)

    drift_resid = 0.0
    if len(sol.s) >= 5:
        drift_resid = float(
            max(
                np.max(np.abs(deriv(sol.a) - params.c * sol.r[2:-2] ** 2)),
                np.max(np.abs(deriv(sol.b) - params.d * sol.r[2:-2] ** 2)),
            )
        )
    chart = rotational.profile_chart(sol)
    hmin, hmax = _measured_h_stats(chart)
    warnings += _rounding_floor(sol)
    out = {
        "samples": len(sol.s),
        "residual_max": sol.residual_max,
        "center_drift_residual": drift_resid,
        "measured_H_abs_max": max(abs(hmin), abs(hmax)),
        "truncated": sol.truncated,
    }
    _export_profile(args, sol, chart, out)
    return _report(args, "riemann", out, warnings)


def cmd_cap(args) -> dict:
    chart, cap = rotational.hyperbolic_cap_chart(args.r, args.R, rim_at_zero=args.rim_at_zero)
    rs = np.linspace(0, args.R * 0.95, 12)
    hs = surfaces.shape_and_curvatures(chart, rs, 0.0).H
    out = {
        "rim_height": cap.rim_height,
        "cap_height": cap.height,
        "measured_H_min": float(np.min(hs)),
        "measured_H_max": float(np.max(hs)),
        "expected_H": 1.0 / args.r,
    }
    if args.mesh:
        _export_mesh(meshing.disk_graph_mesh(chart, args.R, args.nu, args.nv), args.mesh, out)
    if args.csv:
        side = np.linspace(-args.R, args.R, 41)
        xs, ys = np.repeat(side, 41), np.tile(side, 41)
        inside = xs * xs + ys * ys <= args.R ** 2
        xs, ys = xs[inside], ys[inside]
        zs = [chart.position(x, y)[2] for x, y in zip(xs, ys)]
        core.write_csv(args.csv, "x,y,z", np.column_stack([xs, ys, zs]))
        out["csv"] = args.csv
    return _report(args, "cap", out)


def cmd_dirichlet(args) -> dict:
    if args.disk is not None:
        shape = dirichlet.Disk(args.disk)
    else:
        shape = dirichlet.ConvexPolygon(_polygon(args.polygon))
    eps = -1 if args.ambient == "lorentz" else 1
    dom = dirichlet.GridDomain(shape, args.h)
    cfg = dirichlet.SolverConfig(
        eps=eps, H=args.H, newton_tol=args.newton_tol, delta_guard=args.delta_guard,
    )
    sol = dirichlet.solve_dirichlet(dom, cfg)
    bounds = dirichlet.height_bound_report(sol)
    grad = dirichlet.gradient_boundary_check(sol)
    out = {
        "nodes": dom.n,
        "residual_max": sol.residual_max,
        "Du_max": sol.Du_max,
        "newton_iters": sol.newton_iters,
        "max_abs_u": float(np.max(np.abs(sol.u))),
        "bounds": bounds,
        "gradient_check": grad,
    }
    cap_err = None
    if isinstance(shape, dirichlet.Disk) and eps == -1 and args.H > 0:
        u_exact = dirichlet.exact_cap_values(dom, args.H)
        cap_err = np.abs(sol.u - u_exact)
        out["error_vs_cap_max"] = float(cap_err.max())
    if args.out:
        cols = {"x": dom.xy[:, 0], "y": dom.xy[:, 1], "u": sol.u, "|Du|": sol.gradient_magnitude()}
        if cap_err is not None:
            cols["err_cap"] = cap_err
        core.write_csv(args.out, ",".join(cols), np.column_stack(list(cols.values())))
        out["csv"] = args.out
    return _report(args, "dirichlet", out)


def _verify_checks():
    """Cross-module identity suite; yields (name, passed, detail)."""
    a = core.E3
    chart = surfaces.hyperbolic_plane_chart(1.0, domain=((-0.8, 0.8), (-0.8, 0.8)))

    def lap_resid(n, which):
        us = np.linspace(-0.8, 0.8, n)
        vs = np.linspace(-0.8, 0.8, n)
        pu, pv = np.repeat(us, n), np.tile(vs, n)
        if which == "x":
            field = np.array([chart.position(u, v) for u, v in zip(pu, pv)])
        else:
            field = surfaces.gauss_map(chart, pu, pv)
        fgrid = core.lorentz_dot(field, a).reshape(n, n)
        nodes = range(1, n - 1, max(1, (n - 2) // 8))
        ii, jj = np.repeat(nodes, len(nodes)), np.tile(nodes, len(nodes))
        data = surfaces.shape_and_curvatures(chart, us[ii], vs[jj])
        nvals = core.lorentz_dot(surfaces.gauss_map(chart, us[ii], vs[jj]), a)
        worst = 0.0
        for k, (i, j) in enumerate(zip(ii, jj)):
            lap = surfaces.laplace_beltrami(chart, fgrid, us, vs, i, j)
            H, K, nval = float(data.H[k]), float(data.K[k]), float(nvals[k])
            if which == "x":
                target = 2 * H * nval
            else:
                target = (4 * H ** 2 + 2 * K) * nval
            worst = max(worst, abs(lap - target))
        return worst

    for which, label in (("x", "laplacian of <x,a>"), ("n", "laplacian of <N,a>")):
        r1 = lap_resid(33, which)
        r2 = lap_resid(65, which)
        order = float(np.log2(r1 / r2)) if r2 > 0 else np.inf
        yield (
            f"{label}: order {order:.2f}",
            bool(1.7 <= order <= 2.3) or r2 < 1e-12,
            {"coarse": r1, "fine": r2, "order": order},
        )

    cap_chart, cap = rotational.hyperbolic_cap_chart(1.0, 1.0)
    mesh = meshing.disk_graph_mesh(cap_chart, 1.0, 40, 80)
    rho = np.linalg.norm(mesh.uv, axis=1)
    f = np.where(rho < 1.0, np.exp(-1.0 / np.maximum(1e-12, 1.0 - rho ** 2)), 0.0)
    f[mesh.boundary] = 0.0
    da_n, da_f, dv_n, dv_f, _ = meshing.first_variation_check(mesh, f, 1e-4)
    ok_a = abs(da_n - da_f) <= 0.02 * abs(da_f)
    ok_v = abs(dv_n - dv_f) <= 0.02 * abs(dv_f)
    yield ("area first variation", bool(ok_a), {"numeric": da_n, "formula": da_f})
    yield ("volume first variation", bool(ok_v), {"numeric": dv_n, "formula": dv_f})

    worst = 0.0
    for c, name in ((cap_chart, "cap"), (rotational.catenoid_chart(), "catenoid")):
        (u0, u1), (v0, v1) = c.domain
        us = np.repeat(np.linspace(u0 + 0.1, u1 - 0.1, 5), 5)
        vs = np.tile(np.linspace(v0 + 0.1, v1 - 0.1, 5), 5)
        hs = surfaces.shape_and_curvatures(c, us, vs).H
        for u, v, h in zip(us, vs, hs):
            hf = surfaces.mean_curvature_foliated(c, u, v)
            worst = max(worst, abs(abs(hf) - abs(float(h))))
    yield ("foliated |H| identity", bool(worst <= 1e-8), {"max_dev": worst})


def cmd_verify(args) -> dict:
    results = []
    ok_all = True
    for name, ok, detail in _verify_checks():
        results.append({"check": name, "passed": ok, "detail": detail})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        ok_all = ok_all and ok
    rep = _report(args, "verify", {"passed": ok_all, "checks": results})
    if not ok_all:
        raise core.GeometryError("verification suite failed")
    return rep


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mink3", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("classify", help="causal class of a vector or plane")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--vec", type=_VEC, help="x,y,z")
    g.add_argument("--plane", type=_PLANE, help="two generators 'x,y,z;x,y,z'")
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("orbit", help="boost orbit of a point")
    c.add_argument("--axis", choices=["timelike", "spacelike", "lightlike"], required=True)
    c.add_argument("--p0", type=_VEC, required=True, help="x,y,z")
    c.add_argument("--params", type=_PARAMS, default="0:6.283185307179586:100",
                   help="start:stop:count")
    c.add_argument("--out", help="CSV output path")
    c.set_defaults(func=cmd_orbit)

    c = sub.add_parser("curve", help="constant-curvature planar curve sampling")
    c.add_argument("--kind", choices=sorted(_CURVE_KINDS), required=True)
    c.add_argument("--a", type=float, default=1.0, help="curvature (or parabola coefficient)")
    c.add_argument("--b", type=float, default=0.0, help="phase")
    c.add_argument("--span", type=_SPAN, default="-1:1")
    c.add_argument("--n", type=_count, default=50)
    c.add_argument("--out", help="CSV output path")
    c.set_defaults(func=cmd_curve)

    for name, handler in (("surface", cmd_surface), ("umbilic", cmd_umbilic)):
        c = sub.add_parser(name)
        c.add_argument("--kind", choices=["plane", "hyperbolic", "desitter", "catenoid"],
                       required=True)
        c.add_argument("--r", type=float, default=1.0)
        c.add_argument("--center", type=_VEC, help="x,y,z")
        c.add_argument("--nu", type=_count, default=12 if name == "umbilic" else 33)
        c.add_argument("--nv", type=_count, default=12 if name == "umbilic" else 33)
        if name == "surface":
            c.add_argument("--mesh", help="Wavefront mesh output path")
        c.set_defaults(func=handler)

    c = sub.add_parser("rotational", help="rotational CMC profile by RK4")
    c.add_argument("--catenoid", action="store_true")
    c.add_argument("--H", type=float, default=0.0)
    c.add_argument("--r0", type=float)
    c.add_argument("--rp0", type=float)
    c.add_argument("--span", type=_SPAN, default="0.5:3")
    c.add_argument("--step", type=float, default=1e-3)
    c.add_argument("--csv", help="profile CSV path")
    c.add_argument("--mesh", help="Wavefront mesh output path")
    c.add_argument("--nu", type=_count, default=40)
    c.add_argument("--nv", type=_count, default=64)
    c.set_defaults(func=cmd_rotational)

    c = sub.add_parser("riemann", help="minimal circle-foliated profile with center drift")
    c.add_argument("--c", type=float, default=0.3)
    c.add_argument("--d", type=float, default=0.0)
    c.add_argument("--r0", type=float, default=1.0)
    c.add_argument("--rp0", type=float, default=1.5)
    c.add_argument("--span", type=_SPAN, default="0:1")
    c.add_argument("--step", type=float, default=1e-3)
    c.add_argument("--csv")
    c.add_argument("--mesh")
    c.add_argument("--nu", type=_count, default=40)
    c.add_argument("--nv", type=_count, default=64)
    c.set_defaults(func=cmd_riemann)

    c = sub.add_parser("cap", help="hyperbolic cap chart and mesh")
    c.add_argument("--r", type=float, default=1.0)
    c.add_argument("--R", type=float, default=1.0)
    c.add_argument("--rim-at-zero", action="store_true")
    c.add_argument("--mesh")
    c.add_argument("--csv")
    c.add_argument("--nu", type=_count, default=30)
    c.add_argument("--nv", type=_count, default=60)
    c.set_defaults(func=cmd_cap)

    c = sub.add_parser("dirichlet", help="CMC graph Dirichlet solve")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--disk", type=float, help="disk radius")
    g.add_argument("--polygon", type=_POLYGON, help="vertex file, one 'x,y' per line")
    c.add_argument("--H", type=float, required=True)
    c.add_argument("--ambient", choices=["lorentz", "euclid"], default="lorentz")
    c.add_argument("--h", type=float, default=0.05)
    c.add_argument("--newton-tol", type=float, default=1e-10)
    c.add_argument("--delta-guard", type=float, default=0.01)
    c.add_argument("--out", help="CSV output path")
    c.set_defaults(func=cmd_dirichlet)

    c = sub.add_parser("verify", help="cross-module identity suite")
    c.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # one numeric policy for every subcommand: an overflow, invalid or
        # divide-by-zero operation is a domain error; underflow is harmless
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report = args.func(args)
        text = dump_json(report)
    except core.GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: numeric overflow in {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit finds nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
