"""Spans around calls into minkowski3, recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded ``minkowski3`` namespace that binds it (``meshing.gauss_map`` is the
same function as ``surfaces.gauss_map``; ``surfaces._frame_at`` is
``curves._frame_at``) and the chart and jet evaluator methods on their
classes.  `uninstall()` puts the originals back.

A span is (name, start, end, parent, job), kept in flat arrays in memory
and written out once with `save`.  Times are integer nanoseconds, so a
span's self time (its duration minus its children's) is exact and never
negative.  The core scalar helpers (`lorentz_dot`, `cross`,
`causal_class`) stay unwrapped: a wrapper would cost more than their work.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

from minkowski3 import cli, curves, dirichlet, isometry, meshing, rotational, surfaces

MODULES = ("core", "isometry", "curves", "surfaces", "meshing", "rotational", "dirichlet", "cli")

#: span name -> (owner, attribute); the owner is a module or a class
FUNCTIONS = {
    "dirichlet.GridDomain": (dirichlet.GridDomain, "__init__"),
    "dirichlet.solve_dirichlet": (dirichlet, "solve_dirichlet"),
    "dirichlet.cmc_operator_residual": (dirichlet, "cmc_operator_residual"),
    "dirichlet.splu": (dirichlet, "splu"),
    "dirichlet.height_bound_report": (dirichlet, "height_bound_report"),
    "dirichlet.gradient_boundary_check": (dirichlet, "gradient_boundary_check"),
    "surfaces.shape_and_curvatures": (surfaces, "shape_and_curvatures"),
    "surfaces.gauss_map": (surfaces, "gauss_map"),
    "surfaces.laplace_beltrami_grid": (surfaces, "laplace_beltrami_grid"),
    "surfaces.laplace_beltrami": (surfaces, "laplace_beltrami"),
    "surfaces.classify_totally_umbilical": (surfaces, "classify_totally_umbilical"),
    "meshing.triangulate_chart": (meshing, "triangulate_chart"),
    "meshing.disk_graph_mesh": (meshing, "disk_graph_mesh"),
    "meshing.first_variation_check": (meshing, "first_variation_check"),
    "meshing.export_obj": (meshing, "export_obj"),
    "meshing.export_mesh_csv": (meshing, "export_mesh_csv"),
    "curves.frenet": (curves, "frenet"),
    "curves._frame_at": (curves, "_frame_at"),
    "curves.reparam_arclength": (curves, "reparam_arclength"),
    "curves.reparam_pseudo_arclength": (curves, "reparam_pseudo_arclength"),
    "curves.curvature_torsion_general": (curves, "curvature_torsion_general"),
    "curves.is_helix": (curves, "is_helix"),
    "curves.bertrand_fit": (curves, "bertrand_fit"),
    "curves.export_curve_csv": (curves, "export_curve_csv"),
    "rotational.integrate_rotational": (rotational, "integrate_rotational"),
    "rotational.integrate_riemann": (rotational, "integrate_riemann"),
    "rotational.profile_chart": (rotational, "profile_chart"),
    "rotational.catenoid_chart": (rotational, "catenoid_chart"),
    "rotational.hyperbolic_cap_chart": (rotational, "hyperbolic_cap_chart"),
    "isometry.orbit": (isometry, "orbit"),
    "cli.main": (cli, "main"),
}

#: evaluator methods, all recorded under one span name per class
EVALUATORS = {
    "surfaces.chart_eval": (surfaces.SurfaceChart, ("position", "du", "dv", "duu", "duv", "dvv")),
    "curves.jet_eval": (curves.CurveJet, ("position", "velocity", "acceleration", "jerk")),
}

JOB = "bench.job"
COUNT = "bench.count"
LU_SOLVE = "dirichlet.lu_solve"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.job_id = -1
        self.counts: Counter = Counter()
        self._saved: list = []

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self.nid(name)
        count_id = self.nid(COUNT)
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.close(i)
                tracer.counts[f"{name}:raised"] += 1
                raise
            tracer.close(i)
            if after is not None:
                # bookkeeping is timed as the benchmark's own work
                j = tracer.open(count_id)
                try:
                    out = after(tracer, args, out)
                finally:
                    tracer.close(j)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg = [m for n, m in sys.modules.items() if n == "minkowski3" or n.startswith("minkowski3.")]
        for name, (owner, attr) in FUNCTIONS.items():
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn, _AFTER.get(name))
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [(m, a) for m in pkg for a, v in list(vars(m).items()) if v is fn]
            for o, a in bindings:
                self._saved.append((o, a, fn))
                setattr(o, a, wrapped)
        for name, (cls, methods) in EVALUATORS.items():
            for meth in methods:
                fn = vars(cls)[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        hi = len(self.start) if hi is None else hi
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[lo:hi].astype(np.int64),
            "parent": np.where(parent >= lo, parent - lo, -1),
            "job": np.frombuffer(self.job, dtype=np.int32)[lo:hi].astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=np.int64)[lo:hi].copy(),
        }

    def save(self, path, passes) -> None:
        """Write every span once: arrays plus the name table and pass bounds."""
        data = self.arrays()
        tmp = f"{path}.tmp.npz"
        np.savez_compressed(tmp, names=np.asarray(json.dumps(self.names)),
                            passes=np.asarray(passes, dtype=np.int64), **data)
        os.replace(tmp, path)


class _TimedLU:
    """splu result whose `solve` is recorded as its own span."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer
        self._nid = tracer.nid(LU_SOLVE)

    def solve(self, *args, **kwargs):
        i = self._tracer.open(self._nid)
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(i)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# Hooks run after a traced call returns: (tracer, positional args, result)
# -> the result handed back to the caller.


def _after_splu(tracer, args, lu):
    tracer.counts["dirichlet.lu_nnz"] += int(lu.L.nnz + lu.U.nnz)
    return _TimedLU(lu, tracer)


def _after_solve(tracer, args, sol):
    tracer.counts["dirichlet.newton_iters"] += sol.newton_iters
    tracer.counts["dirichlet.continuation_steps"] += sol.continuation_steps
    return sol


def _points(key):
    def after(tracer, args, out):
        tracer.counts[key] += int(np.size(args[1]))
        return out

    return after


def _after_laplace(tracer, args, out):
    f = np.asarray(args[1])
    tracer.counts["surfaces.laplace_nodes"] += (f.shape[0] - 2) * (f.shape[1] - 2)
    return out


def _after_mesh(tracer, args, mesh):
    tracer.counts["meshing.vertices"] += len(mesh.vertices)
    tracer.counts["meshing.faces"] += len(mesh.faces)
    return mesh


def _after_export(tracer, args, out):
    tracer.counts["meshing.export_bytes"] += os.path.getsize(args[1])
    return out


def _after_integrate(tracer, args, sol):
    tracer.counts["rotational.rk4_steps"] += int(sol.diagnostics["steps"])
    tracer.counts["rotational.truncated"] += int(sol.truncated)
    return sol


def _after_orbit(tracer, args, pts):
    tracer.counts["isometry.orbit_points"] += len(pts)
    return pts


_AFTER = {
    "dirichlet.splu": _after_splu,
    "dirichlet.solve_dirichlet": _after_solve,
    "surfaces.shape_and_curvatures": _points("surfaces.curvature_points"),
    "surfaces.gauss_map": _points("surfaces.gauss_map_points"),
    "surfaces.laplace_beltrami_grid": _after_laplace,
    "meshing.triangulate_chart": _after_mesh,
    "meshing.disk_graph_mesh": _after_mesh,
    "meshing.export_obj": _after_export,
    "meshing.export_mesh_csv": _after_export,
    "rotational.integrate_rotational": _after_integrate,
    "rotational.integrate_riemann": _after_integrate,
    "isometry.orbit": _after_orbit,
}


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _descendant_of(mask: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """True where some proper ancestor is in `mask` (parents precede children)."""
    under = mask.copy()
    has_parent = parent >= 0
    while True:
        nxt = mask | (has_parent & under[np.maximum(parent, 0)])
        if np.array_equal(nxt, under):
            break
        under = nxt
    return has_parent & under[np.maximum(parent, 0)]


def self_times(arr: dict) -> np.ndarray:
    """Span duration minus the durations of its direct children, in ns."""
    dur = arr["end"] - arr["start"]
    child = np.zeros_like(dur)
    has_parent = arr["parent"] >= 0
    np.add.at(child, arr["parent"][has_parent], dur[has_parent])
    return dur - child


def layer_metrics(tracer: Tracer, lo: int, hi: int, counts: Counter) -> dict:
    """Per-layer counts and busy times (s) of the spans in [lo, hi)."""
    arr = tracer.arrays(lo, hi)
    span_names = np.array(tracer.names, dtype=object)[arr["name"]]
    dur = (arr["end"] - arr["start"]) / 1e9
    selfs = self_times(arr) / 1e9
    parent = arr["parent"]

    def is_(*wanted):
        return np.isin(span_names, wanted)

    def busy(*wanted):
        m = is_(*wanted)
        return float(dur[m & ~_descendant_of(m, parent)].sum())

    def n(*wanted):
        return int(is_(*wanted).sum())

    def ratio(a, b):
        return a / b if b else 0.0

    modules = np.array([s.split(".")[0] for s in span_names], dtype=object)
    m = {}
    for mod in MODULES[1:] + ("bench",):
        m[f"{mod}.self_s"] = float(selfs[modules == mod].sum())

    newton = counts["dirichlet.newton_iters"]
    steps = counts["dirichlet.continuation_steps"]
    m.update({
        "dirichlet.grid_s": busy("dirichlet.GridDomain"),
        "dirichlet.solve_s": busy("dirichlet.solve_dirichlet"),
        "dirichlet.residual_calls": n("dirichlet.cmc_operator_residual"),
        "dirichlet.residual_s": busy("dirichlet.cmc_operator_residual"),
        "dirichlet.residuals_per_newton": ratio(n("dirichlet.cmc_operator_residual"), newton),
        "dirichlet.lu_factor_calls": n("dirichlet.splu"),
        "dirichlet.lu_factor_s": busy("dirichlet.splu"),
        "dirichlet.lu_solve_s": busy(LU_SOLVE),
        "dirichlet.lu_nnz": counts["dirichlet.lu_nnz"],
        "dirichlet.newton_iters": newton,
        "dirichlet.continuation_steps": steps,
        "dirichlet.newton_per_step": ratio(newton, steps),
        "dirichlet.failed": counts["dirichlet.solve_dirichlet:raised"],
    })
    mesh_spans = is_("meshing.triangulate_chart", "meshing.disk_graph_mesh")
    evals_in_mesh = int((is_("surfaces.chart_eval") & _descendant_of(mesh_spans, parent)).sum())
    m.update({
        "surfaces.curvature_points": counts["surfaces.curvature_points"],
        "surfaces.curvature_s": busy("surfaces.shape_and_curvatures"),
        "surfaces.gauss_map_points": counts["surfaces.gauss_map_points"],
        "surfaces.chart_evals": n("surfaces.chart_eval"),
        "surfaces.chart_evals_per_point": ratio(evals_in_mesh, counts["meshing.vertices"]),
        "surfaces.laplace_nodes": counts["surfaces.laplace_nodes"],
        "surfaces.laplace_s": busy("surfaces.laplace_beltrami_grid", "surfaces.laplace_beltrami"),
        "surfaces.umbilic_s": busy("surfaces.classify_totally_umbilical"),
        "meshing.vertices": counts["meshing.vertices"],
        "meshing.faces": counts["meshing.faces"],
        "meshing.triangulate_s": busy("meshing.triangulate_chart", "meshing.disk_graph_mesh"),
        "meshing.variation_s": busy("meshing.first_variation_check"),
        "meshing.export_s": busy("meshing.export_obj", "meshing.export_mesh_csv"),
        "meshing.export_bytes": counts["meshing.export_bytes"],
    })
    frames = is_("curves._frame_at")
    evals_in_frames = int((is_("curves.jet_eval") & _descendant_of(frames, parent)).sum())
    m.update({
        "curves.frenet_calls": n("curves.frenet"),
        "curves.frenet_s": busy("curves.frenet"),
        "curves.jet_evals": n("curves.jet_eval"),
        "curves.jet_evals_per_frame": ratio(evals_in_frames, int(frames.sum())),
        "curves.reparam_s": busy("curves.reparam_arclength", "curves.reparam_pseudo_arclength"),
        "curves.general_s": busy("curves.curvature_torsion_general"),
        "rotational.rk4_steps": counts["rotational.rk4_steps"],
        "rotational.integrate_s": busy("rotational.integrate_rotational", "rotational.integrate_riemann"),
        "rotational.chart_s": busy("rotational.profile_chart", "rotational.catenoid_chart",
                                   "rotational.hyperbolic_cap_chart"),
        "rotational.truncated": counts["rotational.truncated"],
        "isometry.orbit_points": counts["isometry.orbit_points"],
        "isometry.orbit_s": busy("isometry.orbit"),
        "cli.main_s": busy("cli.main"),
        "bench.spans": len(span_names),
    })
    return m
