#!/usr/bin/env python3
"""The minkowski3 benchmark: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload dirichlet-solve --seed 3 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One client runs the workload's job list as a closed loop: one pass after
another, each job after the previous one returns, until the next pass
would end past ``--seconds``.  ``cli-cold`` runs each job as a fresh
``python -m minkowski3.cli`` process, one at a time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  Every job's output is checked
against a closed-form reference; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "cli_reference.json"

WORKLOADS = ("dirichlet-solve", "surface-mesh", "curve-ode", "cli-cold")
#: set to 1 here and in every child, before numpy is first imported
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh processes timed for setup_s; the median is reported
SETUP_SAMPLES = 3
#: The host's speed drifts by up to 1.6x over tens of seconds (a fixed job,
#: timed back to back for minutes), far more than the spread the bounds
#: allow.  End-to-end times are therefore scaled by a speed probe sampled
#: through the run: reported = measured * PROBE_REF_S / median probe time.
#: PROBE_REF_S is the probe's typical time on the machine that recorded the
#: baseline, so reported seconds stay close to wall seconds there.
PROBE_REF_S = 0.009
PROBE_EVERY_S = 0.5
CHILD_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s.p50": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED_THREADS})
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv, cwd, timeout=CHILD_TIMEOUT):
    """Run one child to completion and reap it with wait4, for its own peak RSS.

    Returns (seconds, exit code, stdout, stderr, peak RSS in KiB).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    streams = {}

    def drain(name, pipe):
        with pipe:
            streams[name] = pipe.read()

    readers = [threading.Thread(target=drain, args=(n, p))
               for n, p in (("out", proc.stdout), ("err", proc.stderr))]
    for t in readers:
        t.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        for t in readers:
            t.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    dt = time.perf_counter() - t0
    if dt >= timeout:
        raise RuntimeError(f"child timed out after {timeout} s: {argv}")
    return (dt, proc.returncode, streams["out"].decode(), streams["err"].decode(),
            usage.ru_maxrss)


# ---------------------------------------------------------------------------
# workload set-up (imports, inputs, warm-up)


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path):
        import workloads as wl

        self.wl = wl
        self.name = name
        self.workdir = workdir
        rng = wl.rng_for(seed, name)
        if name == "cli-cold":
            self.jobs, files = wl.cli_invocations(rng)
            for fname, text in files.items():
                (workdir / fname).write_text(text)
        else:
            self.jobs = {
                "dirichlet-solve": lambda: wl.dirichlet_jobs(rng),
                "surface-mesh": lambda: wl.surface_jobs(rng, workdir),
                "curve-ode": lambda: wl.curve_jobs(rng),
            }[name]()
            self.checker = {
                "dirichlet-solve": wl.check_dirichlet,
                "surface-mesh": wl.check_surfaces,
                "curve-ode": wl.check_curves,
            }[name]

    def warm_up(self) -> None:
        wl = self.wl
        if self.name == "dirichlet-solve":
            wl.warm_dirichlet()
        elif self.name == "surface-mesh":
            wl.warm_surfaces(self.workdir)
        elif self.name == "curve-ode":
            wl.warm_curves()
        else:
            # one untimed cold invocation fills the file cache
            run_child([sys.executable, "-m", "minkowski3.cli", "classify", "--vec", "0,1,1"],
                      self.workdir)


def setup_probe(args) -> int:
    workdir = make_workdir(args, "setup")
    try:
        Workload(args.workload, args.seed, workdir).warm_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_sample(args) -> float:
    """Wall time of one fresh process that sets the workload up and exits."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    dt, code, _out, err, _rss = run_child(argv, ROOT)
    if code != 0:
        raise RuntimeError(f"setup probe failed with exit {code}:\n{err}")
    return dt


def import_probes() -> dict:
    """Import time of each package module in a fresh interpreter (s)."""
    out = {}
    for mod in ("core", "isometry", "curves", "surfaces", "meshing", "rotational", "dirichlet", "cli"):
        code = ("import time; t = time.perf_counter(); "
                f"import minkowski3.{mod}; print(repr(time.perf_counter() - t))")
        _dt, rc, stdout, err, _rss = run_child([sys.executable, "-c", code], ROOT)
        if rc != 0:
            raise RuntimeError(f"import probe for {mod} failed:\n{err}")
        out[f"{mod}.import_s"] = float(stdout.strip())
    return out


# ---------------------------------------------------------------------------
# passes


def speed_probe() -> float:
    """Time a fixed mix of interpreter work and small numpy operations (s)."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 2048)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(1000):
        v = np.array([a[i], a[i + 1], 1.0])
        acc += float(v @ v) + float(np.sqrt(1.0 + a * a * (i + 1))[i])
    return time.perf_counter() - t0


def finite_output(out: dict) -> bool:
    import numpy as np

    for val in out.values():
        if isinstance(val, np.ndarray) and val.dtype.kind == "f" and not np.all(np.isfinite(val)):
            return False
        if isinstance(val, float) and not math.isfinite(val):
            return False
    return True


def run_pass(w: Workload, tracer=None, in_process=False) -> dict:
    """One pass over the job list: wall time, per-job times, checks, digests.

    `in_process` runs the cli-cold invocations through `cli.main` in this
    process instead of a fresh interpreter each.
    """
    wl = w.wl
    times, outs, digests, errors, probes = [], [], [], [], []
    report_bytes = 0
    child_rss = 0
    last_probe = -math.inf
    if tracer is not None:
        import spans

        job_nid = tracer.nid(spans.JOB)
    t_pass = 0.0
    for k, job in enumerate(w.jobs):
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last_probe = time.perf_counter()
        span = None
        if tracer is not None:
            tracer.job_id = k
            span = tracer.open(job_nid)
        t0 = time.perf_counter()
        try:
            if w.name != "cli-cold":
                out = job.run()
            elif in_process:
                out = run_in_process(w, job.argv)
            else:
                argv = [sys.executable, "-m", "minkowski3.cli", *job.argv]
                _dt, code, stdout, err, rss = run_child(argv, w.workdir)
                child_rss = max(child_rss, rss)
                out = (code, stdout, err)
            error = None
        except Exception as exc:  # a job that raises counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        t_pass += times[-1]
        if span is not None:
            tracer.close(span)
        outs.append(out)
        errors.append(error)
    wall = t_pass  # the probes between jobs are not part of the pass
    # checks run outside the timed region
    if w.name == "cli-cold":
        checks = []
        for inv, out in zip(w.jobs, outs):
            if out is None:
                checks.append([])
                digests.append(None)
                continue
            code, stdout, _err = out
            checks.append(wl.check_cli(inv, code, stdout))
            digests.append(hashlib.sha256(stdout.encode()).hexdigest()[:16])
            report_bytes += len(stdout.encode())
    else:
        checks = w.checker(w.jobs, outs)
        for out, cl in zip(outs, checks):
            if out is not None:
                cl.append(wl.flag("finite_output", finite_output(out)))
                digests.append(wl.fingerprint(out)[:16])
            else:
                digests.append(None)
    failed = []
    ref = 0.0
    for k, (job, cl, error) in enumerate(zip(w.jobs, checks, errors)):
        bad = [c.name for c in cl if not c.ok]
        if error is not None:
            bad.append(error)
        if bad:
            failed.append({"job": k, "kind": getattr(job, "kind", getattr(job, "name", "")),
                           "failed": bad})
        for c in cl:
            if c.reference and c.tol > 0:
                ref = max(ref, c.value / c.tol if math.isfinite(c.value) else math.inf)
    return {"wall": wall, "times": times, "failed": failed, "ref_err": ref,
            "digests": digests, "report_bytes": report_bytes, "child_rss": child_rss,
            "probes": probes}


def run_in_process(w: Workload, argv) -> tuple:
    import minkowski3.cli as cli

    buf, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(w.workdir)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, buf.getvalue(), err.getvalue()


def keep_going(t_start: float, seconds: float, walls: list) -> bool:
    """Start another pass only if the slowest pass so far would still end in time."""
    elapsed = time.perf_counter() - t_start
    return elapsed + max(walls) <= seconds


# ---------------------------------------------------------------------------
# environment and reporting


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for path in sorted((SRC / "minkowski3").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def make_workdir(args, tag: str) -> Path:
    path = WORK / f"{args.workload}-{args.seed}-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def stored_digests(args, names) -> dict:
    try:
        table = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return {}
    entry = table.get("seeds", {}).get(str(args.seed), {})
    return {n: entry[n] for n in names if n in entry}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    os.environ.update({var: "1" for var in PINNED_THREADS})
    if not (SRC / "minkowski3" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'minkowski3'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return setup_probe(args)

    import_times = import_probes() if args.trace else {}
    workdir = make_workdir(args, "run")
    try:
        w = Workload(args.workload, args.seed, workdir)
        w.warm_up()
        result = measure(args, w, import_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args)
    record = {"env": env, "detail": result.pop("detail")}
    print(json.dumps(record, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def measure(args, w: Workload, import_times: dict) -> dict:
    # set-up samples are taken before, halfway through and after the passes,
    # so that slow spells of a shared machine do not hit all of them
    setup_samples = [setup_sample(args)]
    t_start = time.perf_counter()
    seconds = args.seconds

    def between_passes():
        nonlocal t_start
        if len(setup_samples) == 1 and time.perf_counter() - t_start >= seconds / 2:
            t0 = time.perf_counter()
            setup_samples.append(setup_sample(args))
            t_start += time.perf_counter() - t0  # not part of the measured time

    passes, traced = [], []
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        bounds = []
        while True:
            # untraced and traced passes alternate; cli-cold runs in-process here
            passes.append(run_pass(w, in_process=True))
            lo = len(tracer.start)
            tracer.counts.clear()
            tracer.install()
            try:
                res = run_pass(w, tracer, in_process=True)
            finally:
                tracer.uninstall()
            hi = len(tracer.start)
            bounds.append((lo, hi))
            res["layers"] = spans.layer_metrics(tracer, lo, hi, tracer.counts)
            traced.append(res)
            between_passes()
            walls = [a["wall"] + b["wall"] for a, b in zip(passes, traced)]
            if not keep_going(t_start, seconds, walls):
                break
        tracer.save(WORK / f"trace-{args.workload}-{args.seed}.npz", bounds)
    else:
        while True:
            passes.append(run_pass(w))
            between_passes()
            if not keep_going(t_start, seconds, [q["wall"] for q in passes]):
                break
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample(args))
    everything = passes + traced
    attempted = sum(len(q["times"]) for q in everything)
    failed = sum(len(q["failed"]) for q in everything)
    ref_err = max(q["ref_err"] for q in everything)
    identical = all(q["digests"] == everything[0]["digests"] for q in everything)
    detail = {
        "passes": len(passes),
        "pass_walls_s": [q["wall"] for q in passes],
        "job_times_s": [q["times"] for q in passes],
        "traced_passes": len(traced),
        "jobs_per_pass": len(w.jobs),
        "ref_err": ref_err,
        "outputs_identical": identical,
        "failures": [f for q in everything for f in q["failed"]][:20],
        "setup_samples_s": setup_samples,
        "digests": everything[0]["digests"],
    }
    if not args.trace:
        probe = statistics.median(p for q in passes for p in q["probes"])
        scale = PROBE_REF_S / probe
        # each job's median over passes, then the median over the job list:
        # a slow spell then moves a job's figure only if it spans most passes
        per_job = [statistics.median(ts) for ts in zip(*(q["times"] for q in passes))]
        if w.name == "cli-cold":
            rss = max(q["child_rss"] for q in passes)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        measured = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(q["wall"] for q in passes),
            "job_s.p50": statistics.median(per_job),
        }
        detail.update({"measured_s": measured, "probe_s": probe, "probe_scale": scale})
        metrics = {k: v * scale for k, v in measured.items()}
        metrics.update({
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": rss / 1024.0,
        })
        metrics = {k: metric(v, END_TO_END[k]) for k, v in metrics.items()}
    else:
        metrics = layer_report(w, args, passes, traced, import_times, ref_err)
    return {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def layer_report(w, args, passes, traced, import_times, ref_err) -> dict:
    per = [t["layers"] for t in traced]
    # counts repeat exactly across traced passes and stay whole numbers
    layers = {k: per[0][k] if all(p[k] == per[0][k] for p in per) else statistics.median(p[k] for p in per)
              for k in per[0]}
    layers.update(import_times)
    layers["bench.trace_overhead_s"] = (statistics.median(t["wall"] for t in traced)
                                        - statistics.median(q["wall"] for q in passes))
    layers["bench.ref_err"] = ref_err
    layers["cli.report_bytes"] = traced[0]["report_bytes"]
    changed = checked = 0
    if w.name == "cli-cold":
        ref = stored_digests(args, [inv.name for inv in w.jobs])
        for inv, dig in zip(w.jobs, traced[0]["digests"]):
            if inv.name in ref:
                checked += 1
                changed += int(ref[inv.name] != dig)
    layers["cli.json_changed"] = changed
    layers["cli.json_checked"] = checked
    return {k: metric(v, layer_unit(k)) for k, v in sorted(layers.items())}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_per_newton", "_per_step", "_per_point", "_per_frame", "ref_err")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
