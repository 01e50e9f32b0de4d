"""Tests of the benchmark itself: its counts, its spans and its checks.

Each test runs a few of the cheaper jobs of a workload, so the file takes
seconds, not the length of a benchmark run.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (puts the checkout's src/ on the path)
import run  # noqa: E402
import spans  # noqa: E402
from minkowski3 import curves, dirichlet, meshing, surfaces  # noqa: E402


def pick(jobs, *kinds):
    return [j for j in jobs if j.kind in kinds]


def traced(jobs):
    """Run jobs under a fresh tracer; returns (tracer, outputs, layer metrics)."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        outs = []
        for k, job in enumerate(jobs):
            tracer.job_id = k
            span = tracer.open(tracer.nid(spans.JOB))
            outs.append(job.run())
            tracer.close(span)
    finally:
        tracer.uninstall()
    return tracer, outs, spans.layer_metrics(tracer, 0, len(tracer.start), tracer.counts)


def test_lu_factor_calls_equal_newton_iterations():
    jobs = pick(wl.dirichlet_jobs(wl.rng_for(7, "dirichlet-solve")), "caps-h0.04", "euclid")
    _, outs, m = traced(jobs)
    newton = sum(sol.newton_iters for out in outs for sol in out["sols"])
    assert newton > 0
    assert m["dirichlet.lu_factor_calls"] == newton
    assert m["dirichlet.newton_iters"] == newton
    assert m["dirichlet.residuals_per_newton"] > 1


def test_curvature_points_equal_triangulated_vertices(tmp_path):
    jobs = pick(wl.surface_jobs(wl.rng_for(7, "surface-mesh"), tmp_path), "desitter", "null-scroll")
    _, outs, m = traced(jobs)
    vertices = sum(len(out["vertices"]) for out in outs)
    assert m["meshing.vertices"] == vertices
    assert m["surfaces.curvature_points"] == vertices
    assert m["surfaces.chart_evals_per_point"] >= 10
    assert m["meshing.export_bytes"] == sum(out["export_bytes"] for out in outs)


def _cheap_jobs(seed, workdir):
    return (pick(wl.dirichlet_jobs(wl.rng_for(seed, "dirichlet-solve")), "euclid")
            + pick(wl.surface_jobs(wl.rng_for(seed, "surface-mesh"), workdir), "null-scroll", "umbilic")
            + wl.curve_jobs(wl.rng_for(seed, "curve-ode"))[3:9])


def test_traced_and_untraced_outputs_identical(tmp_path):
    jobs = _cheap_jobs(3, tmp_path)
    plain = [wl.fingerprint(job.run()) for job in jobs]
    _, outs, _ = traced(jobs)
    assert [wl.fingerprint(out) for out in outs] == plain


def test_self_times_never_negative(tmp_path):
    tracer, _, m = traced(_cheap_jobs(4, tmp_path))
    arr = tracer.arrays()
    assert len(arr["start"]) > 1000
    assert np.all(spans.self_times(arr) >= 0)
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))
    # spans nest: each child lies inside its parent
    child = arr["parent"] >= 0
    par = arr["parent"][child]
    assert np.all(arr["start"][child] >= arr["start"][par])
    assert np.all(arr["end"][child] <= arr["end"][par])


def test_counts_repeat_exactly_for_one_seed(tmp_path):
    def counts():
        jobs = (pick(wl.dirichlet_jobs(wl.rng_for(11, "dirichlet-solve")), "euclid")
                + wl.curve_jobs(wl.rng_for(11, "curve-ode"))[5:]
                + pick(wl.surface_jobs(wl.rng_for(11, "surface-mesh"), tmp_path), "null-scroll"))
        _, _, m = traced(jobs)
        return {k: v for k, v in m.items() if not k.endswith("_s")}

    first, second = counts(), counts()
    assert first == second
    for key in ("dirichlet.residuals_per_newton", "dirichlet.lu_factor_calls",
                "surfaces.chart_evals_per_point", "curves.jet_evals_per_frame",
                "rotational.rk4_steps"):
        assert first[key] > 0, key


def test_uninstall_restores_every_binding():
    before = (meshing.gauss_map, surfaces.gauss_map, surfaces._frame_at, curves._frame_at,
              dirichlet.splu, vars(surfaces.SurfaceChart)["du"], vars(dirichlet.GridDomain)["__init__"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert meshing.gauss_map is surfaces.gauss_map is not before[0]
        assert surfaces._frame_at is curves._frame_at is not before[2]
    finally:
        tracer.uninstall()
    after = (meshing.gauss_map, surfaces.gauss_map, surfaces._frame_at, curves._frame_at,
             dirichlet.splu, vars(surfaces.SurfaceChart)["du"], vars(dirichlet.GridDomain)["__init__"])
    assert all(a is b for a, b in zip(before, after))


def test_inputs_follow_the_seed():
    def params(seed):
        return ([j.params for j in wl.dirichlet_jobs(wl.rng_for(seed, "dirichlet-solve"))],
                [i.argv for i in wl.cli_invocations(wl.rng_for(seed, "cli-cold"))[0]])

    assert params(5) == params(5)
    assert params(5) != params(6)


def test_checks_catch_a_wrong_answer():
    job = pick(wl.dirichlet_jobs(wl.rng_for(2, "dirichlet-solve")), "caps-h0.04")[0]
    out = job.run()
    assert all(c.ok for cl in wl.check_dirichlet([job], [out]) for c in cl)
    # an offset of 2 h^2 exceeds the cap tolerance of h^2
    out["sols"][0].u = out["sols"][0].u + 2 * wl.COARSE_H ** 2
    assert not all(c.ok for cl in wl.check_dirichlet([job], [out]) for c in cl)


def test_cli_in_process_matches_cold_process(tmp_path):
    w = run.Workload("cli-cold", 0, tmp_path)
    for inv in w.jobs[:2]:
        code, stdout, _ = run.run_in_process(w, inv.argv)
        assert code == 0 and all(c.ok for c in wl.check_cli(inv, code, stdout))
        _, cold_code, cold_out, _, rss = run.run_child(
            [sys.executable, "-m", "minkowski3.cli", *inv.argv], tmp_path)
        assert cold_code == 0 and rss > 0
        assert hashlib.sha256(cold_out.encode()).digest() == hashlib.sha256(stdout.encode()).digest()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "curve-ode",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
