import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minkowski3
from minkowski3 import dirichlet
from minkowski3.cli import dump_json, main
from minkowski3.core import MAX_POINTS
from minkowski3.rotational import MAX_RK4_STEPS


BLOW_UP = "integration stopped where the profile blows up: the next step overflows"
FLOOR = ("measured H is at its rounding floor: eps (r / h)^2 / (2 (r'^2 - 1)^1.5) = {} "
         "of the curvature scale 1 / r, above 1e-3")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestJsonDump:
    def test_seventeen_digits_and_sorted_keys(self):
        s = dump_json({"b": 1 / 3, "a": True, "c": [1, 2.5], "d": None})
        assert '"a": true' in s
        assert '"b": 0.33333333333333331' in s
        assert s.index('"a"') < s.index('"b"') < s.index('"c"')

    def test_round_trips_through_json(self):
        obj = {"x": 0.1 + 0.2, "y": [1e-300, 12345.6789], "z": "text"}
        parsed = json.loads(dump_json(obj))
        assert parsed["x"] == 0.1 + 0.2
        assert parsed["y"][0] == 1e-300

    def test_empty_containers(self):
        assert dump_json({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'


class TestClassify:
    def test_lightlike_vector(self, capsys):
        code, out, _ = run(capsys, "classify", "--vec", "0,1,1")
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["causal_class"] == "lightlike"
        assert rep["outputs"]["future_directed"] is True

    def test_plane(self, capsys):
        code, out, _ = run(capsys, "classify", "--plane", "1,0,0;0,1,1")
        assert code == 0
        assert json.loads(out)["outputs"]["causal_class"] == "lightlike"

    def test_domain_error_exit_one(self, capsys):
        code, _, err = run(capsys, "classify", "--plane", "1,0,0;2,0,0")
        assert code == 1
        assert "error" in err

    def test_usage_error_exit_two(self, capsys):
        assert run(capsys, "classify", "--bogus", "1")[0] == 2
        assert run(capsys, "nonsense")[0] == 2


class TestOrbitCommand:
    def test_circle_csv(self, capsys, tmp_path):
        out_path = tmp_path / "orbit.csv"
        code, out, _ = run(
            capsys, "orbit", "--axis", "timelike", "--p0", "1,0,5",
            "--params", "0:6.28:50", "--out", str(out_path),
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["conic_residual_max"] < 1e-10
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 51

    def test_on_axis_is_domain_error(self, capsys):
        code, _, err = run(capsys, "orbit", "--axis", "timelike", "--p0", "0,0,1")
        assert code == 1


class TestCurveCommand:
    def test_kappa_tau_csv(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        code, out, _ = run(
            capsys, "curve", "--kind", "hyperbola-timelike", "--a", "2",
            "--span=-0.5:0.5", "--n", "9", "--out", str(path),
        )
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["outputs"]["kappa_max"] - 2.0) < 1e-9
        assert path.read_text().startswith("t,x,y,z,kappa,tau")


class TestSurfaceCommands:
    def test_surface_mesh_and_sidecar(self, capsys, tmp_path):
        mesh = tmp_path / "s.obj"
        code, out, _ = run(
            capsys, "surface", "--kind", "hyperbolic", "--r", "2",
            "--nu", "7", "--nv", "7", "--mesh", str(mesh),
        )
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["outputs"]["H_max"] - 0.5) < 1e-10
        assert mesh.exists() and (tmp_path / "s.obj.csv").exists()

    def test_umbilic_recovery(self, capsys):
        code, out, _ = run(
            capsys, "umbilic", "--kind", "desitter", "--r", "3",
            "--nu", "4", "--nv", "4",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["kind"] == "de Sitter"
        assert abs(rep["outputs"]["radius"] - 3.0) < 1e-6


class TestRotationalCommands:
    def test_catenoid_run(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "rotational", "--catenoid", "--span", "0.5:3",
            "--step", "1e-3", "--csv", str(tmp_path / "p.csv"),
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["max_error_vs_sinh"] <= 1e-6
        assert rep["outputs"]["measured_H_abs_dev"] <= 1e-4
        assert (tmp_path / "p.csv").read_text().startswith("s,r,rp,a,b")

    def test_riemann_run(self, capsys):
        code, out, _ = run(capsys, "riemann", "--c", "0.3", "--d", "0",
                           "--span", "0:1", "--step", "1e-3")
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["measured_H_abs_max"] <= 1e-4
        assert rep["outputs"]["center_drift_residual"] <= 1e-8

    @pytest.mark.parametrize("c, warned", [(1.0, True), (0.3, False)])
    def test_riemann_warns_where_chart_is_not_spacelike(self, capsys, c, warned):
        # the profile does not truncate; fast center drift alone breaks EG - F^2 > 0
        code, out, _ = run(capsys, "riemann", "--c", str(c), "--span", "0:0.1")
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["truncated"] is False
        assert (rep["warnings"] == ["chart fails the spacelike condition somewhere"]) is warned

    def test_riemann_blow_up_truncates_cleanly(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "riemann", "--c", "10")
        assert code == 0 and err == ""
        rep = json.loads(out)
        assert rep["outputs"]["truncated"] is True
        assert rep["warnings"] == [BLOW_UP, "chart fails the spacelike condition somewhere"]

    @pytest.mark.parametrize("argv, samples, warning", [
        # r' reaches 3.9e9 and the next step overflows
        (["--H=-2", "--r0", "1", "--rp0", "1.5", "--span", "0:1"], 77, BLOW_UP),
        # r' reaches -1.1e6 as r falls, and the next step overflows
        (["--H", "1", "--r0", "1", "--rp0=-1.5", "--span", "0:3"], 280, BLOW_UP),
        # r falls into the band r <= GUARD r0 with r' near -1
        (["--H", "1", "--r0", "1", "--rp0=-1.2", "--span", "0:3"], 872,
         "integration stopped at the guard band"),
    ], ids=["blow-up", "falling-blow-up", "guard-band"])
    def test_rotational_warning_names_the_stop(self, capsys, argv, samples, warning):
        code, out, _ = run(capsys, "rotational", *argv)
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["truncated"] is True
        assert rep["outputs"]["samples"] == samples
        assert rep["warnings"] == [warning]

    @pytest.mark.parametrize("argv, floor", [
        # H = 0 profiles at r0 = 1e5 and 1e13 measure |H| of 1.2e-5 and 973,
        # and one that starts near lightlike (r'^2 - 1 = 1.2e-6) 0.16: each
        # grows about 4x as h halves, so it is rounding
        (["rotational", "--r0", "1e5", "--rp0", "1.5", "--span", "0:1"], "0.79"),
        (["rotational", "--r0", "1e13", "--rp0", "1.5", "--span", "0:1"], "7.9e+15"),
        (["rotational", "--r0", "1", "--rp0", "1.0000006", "--span", "0:1"], "0.084"),
        # the default catenoid, profiles scaled by 1e-7 (whose steep slope, r'
        # up to 9e4, damps the rounding; its measured |H| of 27 is truncation
        # error, 4x less as h halves) and by 1e80, a blown-up drift profile,
        # and the benchmark's cold profiles at their largest r
        (["rotational", "--catenoid"], None),
        (["rotational", "--r0", "1e-7", "--rp0", "1.5", "--span", "0:1e-6", "--step", "1e-9"], None),
        (["rotational", "--r0", "1e80", "--rp0", "1.5", "--span", "0:1e80", "--step", "1e77"], None),
        (["rotational", "--catenoid", "--span", "0.6:3.1"], None),
        (["riemann", "--c", "10"], None),
        (["riemann", "--c", "0.4", "--d", "0.1"], None),
    ])
    def test_measured_h_warns_at_its_rounding_floor(self, capsys, argv, floor):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        warned = [w for w in json.loads(out)["warnings"] if "rounding floor" in w]
        assert warned == ([FLOOR.format(floor)] if floor else [])

    def test_cap_run(self, capsys):
        code, out, _ = run(capsys, "cap", "--r", "2", "--R", "3")
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["outputs"]["measured_H_max"] - 0.5) < 1e-8
        assert abs(rep["outputs"]["rim_height"] - np.sqrt(13)) < 1e-12

    def test_cap_csv_holds_the_disk_samples(self, capsys, tmp_path):
        path = tmp_path / "cap.csv"
        code, out, _ = run(capsys, "cap", "--r", "2", "--R", "3", "--csv", str(path))
        assert code == 0
        assert json.loads(out)["outputs"]["csv"] == str(path)
        header, *lines = path.read_text().splitlines()
        rows = np.array([[float(x) for x in line.split(",")] for line in lines])
        assert header == "x,y,z"
        # the 41 x 41 grid points of [-3, 3]^2 inside the disk, on z = sqrt(r^2 + x^2 + y^2)
        assert len(rows) == 1257 and (np.hypot(rows[:, 0], rows[:, 1]) <= 3.0).all()
        np.testing.assert_allclose(rows[:, 2], np.sqrt(4.0 + rows[:, 0] ** 2 + rows[:, 1] ** 2),
                                   rtol=1e-15)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed", range(4))
def test_profile_reports_keep_their_recorded_bytes(capsys, monkeypatch, tmp_path, seed):
    # the benchmark's cold rotational and riemann invocations print the reports
    # whose digests perfbench/cli_reference.json records
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    digests = json.loads((PERFBENCH / "cli_reference.json").read_text())["seeds"][str(seed)]
    monkeypatch.chdir(tmp_path)
    invocations, _ = workloads.cli_invocations(workloads.rng_for(seed, "cli-cold"))
    profiles = [inv for inv in invocations if inv.name in ("rotational", "riemann")]
    assert len(profiles) == 2
    for inv in profiles:
        code, out, _ = run(capsys, *inv.argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digests[inv.name]


class TestDirichletCommand:
    def test_lorentz_cap_with_error_column(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        code, out, _ = run(
            capsys, "dirichlet", "--disk", "1", "--H", "1", "--ambient",
            "lorentz", "--h", "0.05", "--out", str(path),
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["error_vs_cap_max"] < 1e-3
        assert rep["outputs"]["bounds"]["satisfied"]
        assert rep["outputs"]["gradient_check"]["interior_le_boundary"]
        assert path.read_text().startswith("x,y,u,|Du|,err_cap")

    def test_polygon_file(self, capsys, tmp_path):
        poly = tmp_path / "poly.txt"
        poly.write_text("# square\n0.8,0\n0,0.8\n-0.8,0\n0,-0.8\n")
        code, out, _ = run(
            capsys, "dirichlet", "--polygon", str(poly), "--H", "0.5",
            "--ambient", "lorentz", "--h", "0.05",
        )
        assert code == 0
        assert json.loads(out)["outputs"]["residual_max"] < 1e-10

    def test_continuation_step_option_is_gone(self, capsys):
        code, out, err = run(capsys, "dirichlet", "--disk", "1", "--H", "1", "--h", "0.1",
                             "--dH", "0.1")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --dH" in err

    @pytest.mark.parametrize("H", ["1", "0"])
    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_non_positive_newton_tol_is_domain_error(self, capsys, H, tol):
        code, out, err = run(capsys, "dirichlet", "--disk", "1", "--H", H, "--h", "0.1",
                             f"--newton-tol={tol}")
        assert code == 1 and out == ""
        assert err == "error: newton_tol must be positive\n"

    def test_non_convergence_is_one_error_line(self, capsys):
        # past the guard limit near R H = 7 one Newton run fails, with no
        # continuation in H before the exit
        code, out, err = run(capsys, "dirichlet", "--disk", "1", "--H", "8", "--h", "0.1")
        assert code == 1 and out == ""
        assert err.startswith("error: Newton did not converge at H=8 after ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("H", ["1e308", "-1e308"])
    def test_overflowing_2H_is_refused_before_any_factorization(self, capsys, monkeypatch, H):
        calls = []
        monkeypatch.setattr(dirichlet, "splu", lambda a: calls.append(a))
        code, out, err = run(capsys, "dirichlet", "--disk", "1", f"--H={H}", "--h", "0.1")
        assert code == 1 and out == ""
        assert err == "error: H too large: 2H overflows\n"
        assert calls == []

    def test_euclid_refusal_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "dirichlet", "--disk", "1", "--H", "2", "--ambient",
            "euclid", "--h", "0.1",
        )
        assert code == 1
        assert "error" in err


POLYGONS = Path(__file__).resolve().parent / "polygons"
RECTANGLE = str(POLYGONS / "rectangle.txt")


@pytest.mark.parametrize("argv, outputs", [
    # the null band is relative to |v|^2, so a small vector keeps its class
    (["classify", "--vec", "0,0,1e-6"], {"causal_class": "timelike"}),
    # an orthonormal pair scaled by 1e-3 spans the plane z = 0
    (["classify", "--plane", "1e-3,0,0;0,1e-3,0"], {"causal_class": "spacelike"}),
    # the on-axis test has no length scale: a point 45 degrees off the axis at 1e-7
    (["orbit", "--axis", "timelike", "--p0", "1e-7,0,1e-7"],
     {"conic": "circle x^2+y^2=x0^2+y0^2 in {z=z0}"}),
    # one constant-curvature curve of each kind, with its Frenet case
    (["curve", "--kind", "circle"], {"case": ["SPACELIKE_SP_N"]}),
    (["curve", "--kind", "hyperbola-spacelike"], {"case": ["SPACELIKE_TL_N"]}),
    (["curve", "--kind", "parabola"], {"case": ["SPACELIKE_LL_N"]}),
    (["curve", "--kind", "hyperbola-timelike"], {"case": ["TIMELIKE"]}),
    # de Sitter charts run the timelike branch of the batched curvature kernel
    (["umbilic", "--kind", "desitter", "--r", "1.5", "--center=0.1,0.2,0.3"], {"kind": "de Sitter"}),
    (["surface", "--kind", "desitter", "--r", "1.5"], {"umbilic_fraction": 1}),
    # the solves nearest the guard limit, where the block LU (pivoting only
    # inside each grid column's block) is likeliest to meet a tiny pivot
    (["dirichlet", "--disk", "1", "--H", "7.05", "--h", "0.1"], {"nodes": 305}),
    (["dirichlet", "--disk", "1", "--H", "5", "--h", "0.04", "--delta-guard", "1e-13"],
     {"nodes": 1941}),
    # an axis-aligned rectangle, whose arms parallel to an edge must not divide
    # by zero, below its rolling-disc bound
    (["dirichlet", "--polygon", RECTANGLE, "--ambient", "euclid", "--H", "0.9", "--h", "0.05"],
     {"nodes": 247}),
    # H = 0 needs no solvability check, and u = 0 solves it before any Newton step
    (["dirichlet", "--disk", "1", "--H", "0", "--ambient", "euclid", "--h", "0.25"],
     {"newton_iters": 0, "max_abs_u": 0}),
])
def test_report_outputs(capsys, argv, outputs):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    got = json.loads(out)["outputs"]
    assert {key: got[key] for key in outputs} == outputs


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["dirichlet", "--disk", "1", "--H", "nan"],
        ["dirichlet", "--disk", "1", "--H", "inf"],
        ["dirichlet", "--disk", "1", "--H", "1", "--h", "nan"],
        ["rotational", "--catenoid", "--step", "nan"],
        ["orbit", "--axis", "timelike", "--p0", "1,0,0", "--params", "nan:1:5", "--out", "o.csv"],
        # cosh overflows to inf in the orbit itself
        ["orbit", "--axis", "spacelike", "--p0", "0,1,0", "--params", "0:1000:5", "--out", "o.csv"],
        # the orbit is finite but its conic residual overflows in the report
        ["orbit", "--axis", "spacelike", "--p0", "0,1,0", "--params", "0:700:5"],
        ["dirichlet", "--disk", "nan", "--H", "1"],
    ])
    def test_non_finite_parameter_is_domain_error(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # huge but finite: each fails where the value is built, before any
        # numpy overflow warning
        ["classify", "--vec", "0,0,1e308"],
        ["classify", "--vec", "1e308,1e308,0"],  # finite coordinates, overflowing square
        ["umbilic", "--kind", "plane", "--center", "1,0,1e308"],
        ["orbit", "--axis", "spacelike", "--p0", "0,1,0", "--params", "0:700:5"],
        ["dirichlet", "--disk", "1e200", "--H", "1"],
        ["dirichlet", "--disk", "1", "--H", "1e308", "--out", "d.csv"],
        # squares overflow inside the computation: the numeric policy of main
        ["surface", "--kind", "desitter", "--r", "1e300", "--nu", "3", "--nv", "3"],
        ["surface", "--kind", "desitter", "--r", "1e200"],
        ["cap", "--r", "1e150", "--R", "1e150"],
        ["classify", "--plane", "1e308,0,0;0,1,0"],
        # the first RK4 slope overflows: refused by ProfileODEParams
        ["riemann", "--r0", "1e80", "--csv", "p.csv", "--mesh", "p.obj"],
        ["riemann", "--rp0", "1e200", "--csv", "p.csv"],
        # |T'|^2 of the circle and |T|^2 of the parabola overflow in the frame
        ["curve", "--kind", "circle", "--a", "1e155"],
        ["curve", "--kind", "parabola", "--a", "1e160"],
        # and tiny: the rolling-disc test is relative to the polygon's size, but
        # the solve stops after one iteration with "no admissible trial", since
        # the Jacobian's perturbation is absolute (an open FOUND line in
        # CHANGES.md).  Only the exit contract is pinned: the exact Jacobian of
        # ROADMAP.md is expected to make this solve exit 0, on purpose.
        ["dirichlet", "--polygon", str(POLYGONS / "tiny_rectangle.txt"), "--ambient", "euclid",
         "--H", "1", "--h", "1e-14"],
    ])
    def test_huge_input_is_one_error_line(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "non-finite" not in err and "Traceback" not in err
        assert [str(w.message) for w in caught] == []
        assert not list(tmp_path.iterdir())

    def test_non_finite_report_is_one_error_line(self, capsys, monkeypatch):
        # dump_json refuses it as it formats the report: no handler reaches it
        # today, so one is made to
        monkeypatch.setattr(minkowski3.cli, "cmd_classify", lambda args: {"x": [1.0, float("nan")]})
        code, out, err = run(capsys, "classify", "--vec", "0,1,1")
        assert (code, out, err) == (1, "", "error: the report holds a non-finite number\n")

    @pytest.mark.parametrize("argv, cause", [
        # r0 + h rp0 rounds to r0: r could move only by rounding
        (["rotational", "--r0", "1e20", "--rp0", "1.5", "--span", "0:1"], "does not move r"),
        # a sample spacing whose cube, in the profile's interpolant, overflows
        (["rotational", "--r0", "1e104", "--rp0=-2", "--span", "0:1e104", "--step", "2.5e103"],
         "step h = 2.5e+103 too large for the profile chart"),
        # <T,T> = 1 of the parabola's tangent sits inside the null band REL_TOL*|T|^2
        (["curve", "--kind", "parabola", "--a", "1e8"], "causal type of T not resolved"),
        # the Jacobian's perturbation rounds away against the residual -2H
        (["dirichlet", "--disk", "1", "--H", "1e12", "--h", "0.1"],
         "a diagonal entry of the finite-difference Jacobian was lost in rounding"),
        # the rectangle's rolling-disc bound refuses H = 0.95 before any solve
        (["dirichlet", "--polygon", RECTANGLE, "--ambient", "euclid", "--H", "0.95", "--h", "0.05"],
         "rolling-disc curvature bound 0.939597"),
        # as at 1e20: no r^4 is formed, so at 1e80 too the step is what is refused
        (["rotational", "--r0", "1e80", "--rp0", "1.5", "--span", "0:1", "--csv", "p.csv"],
         "step h does not move r"),
        (["rotational", "--catenoid", "--step", "0", "--csv", "p.csv"], "step h must be positive"),
        (["dirichlet", "--disk", "1", "--H", "1", "--delta-guard", "0.5", "--out", "d.csv"],
         "delta_guard must lie in (0, 0.5)"),
        # no grid node lies inside the disk
        (["dirichlet", "--disk", "1", "--H", "1", "--h", "5", "--out", "d.csv"],
         "grid spacing too coarse for the domain"),
    ])
    def test_stop_names_its_cause(self, capsys, monkeypatch, tmp_path, argv, cause):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and cause in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, code", [
        # sizes above their bound: RK4 steps (rotational.MAX_RK4_STEPS) and
        # samples (core.MAX_POINTS) are domain errors, counts that argparse
        # reads are usage errors
        (["rotational", "--catenoid", "--span", "0.5:1e308"], 1),
        (["riemann", "--span", "0:1e308", "--step", "1"], 1),
        (["umbilic", "--kind", "plane", "--nu", "4000000", "--nv", "4000000"], 1),
        (["surface", "--kind", "hyperbolic", "--nu", "3000", "--nv", "3000"], 1),
        (["cap", "--nu", "3000", "--nv", "3000", "--mesh", "c.obj"], 1),
        (["orbit", "--axis", "timelike", "--p0", "1,0,0", "--params", "0:1:100000000000000"], 2),
        (["curve", "--kind", "circle", "--n", "100000000000000"], 2),
        (["surface", "--kind", "hyperbolic", "--nu", "10000000", "--nv", "10000000"], 2),
    ])
    def test_size_above_bound_is_one_error_line(self, capsys, monkeypatch, tmp_path, argv, code):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out, err = run(capsys, *argv)
        assert got == code
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
        bound = MAX_RK4_STEPS if argv[0] in ("rotational", "riemann") else MAX_POINTS
        assert "Traceback" not in err and str(bound) in err
        assert [str(w.message) for w in caught] == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # 4,000,000 RK4 steps: minutes of loop at the parent's bound
        ["rotational", "--H", "0.1", "--r0", "1", "--rp0", "1.5", "--span", "0:4000"],
        ["rotational", "--H", "0.1", "--r0", "1", "--rp0", "1.5", "--span", "0:4000",
         "--csv", "p.csv", "--mesh", "p.obj"],
        ["riemann", "--span", "0:250.001", "--csv", "p.csv"],  # one step past the bound
    ])
    def test_rk4_steps_above_bound_is_one_error_line(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"MAX_RK4_STEPS = {MAX_RK4_STEPS}" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # the step is below the float spacing of the span, so the samples
        # s0 + h k repeat
        [*cmd, "--r0", "1", "--rp0", "1.5", "--span", span, "--step", step, *files]
        for cmd in (["rotational", "--H", "0"], ["riemann"])
        for span, step in (("1e15:1000000000000000.5", "0.1"), ("1e8:100000000.0001", "1e-8"))
        for files in ([], ["--csv", "p.csv", "--mesh", "p.obj"])
    ])
    def test_step_below_float_spacing_is_one_error_line(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "does not separate the samples" in err
        assert [str(w.message) for w in caught] == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["classify", "--vec", "a,b,c"],
        ["classify", "--plane", "1,0,0;0,1"],
        ["curve", "--kind", "circle", "--span", "1", "--out", "c.csv"],
        ["orbit", "--axis", "timelike", "--p0", "1,0,0", "--params", "0:1:abc", "--out", "o.csv"],
        ["orbit", "--axis", "timelike", "--p0", "1,0,0", "--params", "0:1:0", "--out", "o.csv"],
        ["surface", "--kind", "plane", "--center", "1,2", "--mesh", "s.obj"],
        ["dirichlet", "--polygon", "missing.txt", "--H", "1", "--out", "d.csv"],
    ])
    def test_malformed_value_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: argument" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["classify"], "one of the arguments --vec --plane is required"),
        (["classify", "--vec", "0,1,1", "--plane", "1,0,0;0,1,1"],
         "argument --plane: not allowed with argument --vec"),
        (["dirichlet", "--H", "1", "--out", "d.csv"],
         "one of the arguments --disk --polygon is required"),
        (["dirichlet", "--disk", "1", "--polygon", RECTANGLE, "--H", "1", "--out", "d.csv"],
         "argument --polygon: not allowed with argument --disk"),
    ], ids=["classify-neither", "classify-both", "dirichlet-neither", "dirichlet-both"])
    def test_input_choice_is_usage_error(self, capsys, monkeypatch, tmp_path, argv, message):
        # exactly one of --vec/--plane and of --disk/--polygon: argparse refuses
        # neither and both alike, before any handler runs
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: mink3 ") and err.endswith(f"error: {message}\n")
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["curve", "--kind", "circle", "--n", "0"],
        ["surface", "--kind", "hyperbolic", "--nu", "0"],
        ["cap", "--nu", "0", "--mesh", "x.obj"],
        ["cap", "--nv", "1"],
    ])
    def test_count_below_two_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "expected an integer >= 2" in err
        assert not list(tmp_path.iterdir())


TOKENS = ["1", "-0.5", "0", "nan", "inf", "1e308", "abc", "1:2", ",", ""]
TOKEN = st.sampled_from(TOKENS)


def _joined(part, n: int, sep: str):
    return st.lists(part, min_size=n, max_size=n).map(sep.join)


def _arg(opt: str, values, required: bool = False):
    """`--opt=value` (the `=` keeps values such as '-0.5' or '' attached)."""
    arg = values.map(lambda v: [f"--{opt}={v}"])
    return arg if required else st.just([]) | arg


def _command(name: str, *args):
    return st.tuples(*args).map(lambda parts: [name] + [a for part in parts for a in part])


# each value is one token or tokens joined in the shape the option expects
VEC = TOKEN | _joined(TOKEN, 3, ",")
COUNT = TOKEN | st.sampled_from(["2", "3", "5"])
SPAN = st.sampled_from(["0.5:0.7", "0:0.2", "0.1:0.3", "0.2:0", "0:nan", "inf:1", "abc"])
STEP = st.sampled_from(["0.01", "0.02", "0.05", "0", "nan", "1e308", "abc"])
ARGV = st.one_of(
    _command("classify", _arg("vec", VEC), _arg("plane", TOKEN | _joined(VEC, 2, ";"))),
    _command("orbit", _arg("axis", st.sampled_from(["timelike", "spacelike", "lightlike"]), True),
             _arg("p0", VEC, True), _arg("params", TOKEN | _joined(TOKEN, 3, ":"))),
    _command("curve", _arg("kind", st.sampled_from(["circle", "hyperbola-spacelike",
                                                      "hyperbola-timelike", "parabola"]), True),
             _arg("a", TOKEN), _arg("b", TOKEN), _arg("span", TOKEN | _joined(TOKEN, 2, ":")),
             _arg("n", TOKEN)),
    _command("umbilic", _arg("kind", st.sampled_from(["plane", "hyperbolic", "desitter", "catenoid"]), True),
             _arg("r", TOKEN), _arg("center", VEC), _arg("nu", TOKEN), _arg("nv", TOKEN)),
    _command("cap", _arg("r", TOKEN), _arg("R", TOKEN), st.sampled_from([[], ["--rim-at-zero"]])),
    # the solvers get small sizes and short spans
    _command("surface", _arg("kind", st.sampled_from(["plane", "hyperbolic", "desitter", "catenoid"]), True),
             _arg("r", TOKEN), _arg("center", VEC), _arg("nu", COUNT), _arg("nv", COUNT)),
    _command("rotational", st.sampled_from([[], ["--catenoid"]]), _arg("H", TOKEN), _arg("r0", TOKEN),
             _arg("rp0", TOKEN | st.just("1.5")), _arg("span", SPAN, True), _arg("step", STEP, True),
             _arg("nu", COUNT), _arg("nv", COUNT)),
    _command("riemann", _arg("c", TOKEN), _arg("d", TOKEN), _arg("r0", TOKEN), _arg("rp0", TOKEN),
             _arg("span", SPAN, True), _arg("step", STEP, True), _arg("nu", COUNT), _arg("nv", COUNT)),
    _command("dirichlet", _arg("disk", TOKEN, True), _arg("H", TOKEN, True),
             _arg("ambient", st.sampled_from(["lorentz", "euclid"])),
             _arg("h", st.sampled_from(["0.25", "0.5", "1", "0", "-0.5", "nan", "1e308", "abc"]), True)),
)


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text} in the report")
    return x


def _reject_constant(name: str):
    raise ValueError(f"{name} in the report")


class TestArgvProperty:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(ARGV)
    def test_every_argv_ends_in_a_documented_exit(self, argv):
        # pure readers only: no output paths are ever generated
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2)
        assert [str(w.message) for w in caught] == [] and "Warning" not in err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_float=_finite, parse_constant=_reject_constant)
        if code == 1:
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize("argv, files", [
        (["verify"], set()),
        (["surface", "--kind", "desitter", "--r", "1.5"], set()),
        (["curve", "--kind", "parabola"], set()),
        # 4,900 vertex and 9,522 face rows: the OBJ and CSV writers' 1024-row
        # chunks end inside the mesh
        (["surface", "--kind", "hyperbolic", "--nu", "70", "--nv", "70", "--mesh", "h.obj"],
         {"h.obj", "h.obj.csv"}),
        (["surface", "--kind", "catenoid", "--nu", "6", "--nv", "6", "--mesh", "m.obj"],
         {"m.obj", "m.obj.csv"}),
        # the RK4 loop's output bytes: each profile's report and table
        (["rotational", "--catenoid", "--csv", "p.csv"], {"p.csv"}),
        (["riemann", "--c", "0.3", "--d", "-0.05", "--csv", "p.csv"], {"p.csv"}),
        (["dirichlet", "--disk", "1", "--H", "1", "--h", "0.05", "--out", "d.csv"], {"d.csv"}),
    ])
    def test_identical_bytes_across_interpreters(self, capsys, monkeypatch, tmp_path, argv, files):
        # a fresh interpreter has its own hash seed: an order taken from a set shows
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        code, out, _ = run(capsys, *argv)
        proc = _fresh(["-m", "minkowski3.cli", *argv], fresh)
        assert code == proc.returncode == 0
        assert proc.stdout == out.encode()
        written = {p.name: p.read_bytes() for p in here.iterdir()}
        assert set(written) == files
        assert {p.name: p.read_bytes() for p in fresh.iterdir()} == written


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["surface", "--kind", "hyperbolic"],
    ["--help"],
    ["surface", "--help"],
], ids=["report", "help", "subcommand-help"])
def test_closed_stdout_is_one_error_line(tmp_path, argv, unbuffered):
    # stdout is a pipe whose read end is closed before the report (or the
    # help) is written; unbuffered, the first write fails, buffered, the flush
    read, write = os.pipe()
    os.close(read)
    env = dict(_fresh_env(), PYTHONUNBUFFERED=unbuffered)
    with os.fdopen(write, "wb") as closed:
        proc = subprocess.run([sys.executable, "-m", "minkowski3.cli", *argv],
                              cwd=tmp_path, env=env, stdout=closed, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == b"error: stdout was closed before the report was written\n"


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_failed_verify_check_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(minkowski3.cli, "_verify_checks", lambda: iter([("a check", False, {})]))
    assert run(capsys, "verify") == (1, "[FAIL] a check\n", "error: verification suite failed\n")


@pytest.mark.parametrize("argv", [["--help"], ["dirichlet", "--help"], ["surface", "-h"]])
def test_help_is_the_parsers_text(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if argv == ["--help"]:
        assert out == minkowski3.cli.build_parser().format_help()
    else:
        assert out.startswith(f"usage: mink3 {argv[0]} [-h]")


def _fresh(args: list, cwd) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports this checkout's package."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_fresh_env(), capture_output=True,
                          timeout=120)


def _fresh_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(minkowski3.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _fresh_interpreter(script: str, cwd) -> list:
    """JSON of the last line `script` prints in a fresh interpreter: this
    process has loaded every scipy module the tests use."""
    proc = _fresh(["-c", script], cwd)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.splitlines()[-1])


_SCIPY_MODULES = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def test_cli_loads_no_scipy(tmp_path):
    argvs = [
        ["classify", "--vec", "0,1,1"],
        ["orbit", "--axis", "timelike", "--p0", "1,0.5,2", "--params=-1:1:5", "--out", "orbit.csv"],
        ["curve", "--kind", "hyperbola-timelike", "--a", "2", "--n", "8", "--out", "curve.csv"],
        ["surface", "--kind", "catenoid", "--nu", "4", "--nv", "4", "--mesh", "surface.obj"],
        ["umbilic", "--kind", "desitter", "--r", "2", "--nu", "4", "--nv", "4"],
        ["cap", "--nu", "4", "--nv", "6", "--mesh", "cap.obj", "--csv", "cap.csv"],
        ["riemann", "--csv", "riemann.csv"],
        ["dirichlet", "--disk", "0.5", "--H", "1", "--h", "0.1"],
        ["rotational", "--catenoid", "--span", "0.5:0.6", "--step", "1e-2", "--nu", "4", "--nv", "4",
         "--mesh", "rot.obj"],
    ]
    codes, modules = _fresh_interpreter(
        "import json, sys\n"
        "from minkowski3.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        f"print(json.dumps([codes, {_SCIPY_MODULES}]))\n",
        tmp_path,
    )
    assert codes == [0] * len(argvs)
    assert modules == []


def test_reparametrizations_load_no_scipy(tmp_path):
    polynomial, modules = _fresh_interpreter(
        "import json, sys\n"
        "import minkowski3.cli\n"
        "polynomial = 'numpy.polynomial' in sys.modules\n"
        "import numpy as np\n"
        "from minkowski3.curves import CurveJet, frenet, reparam_arclength, reparam_pseudo_arclength\n"
        "helix = CurveJet(lambda t: np.array([np.cos(t), np.sin(t), 2 * t]),\n"
        "                 lambda t: np.array([-np.sin(t), np.cos(t), 2.0]),\n"
        "                 lambda t: np.array([-np.cos(t), -np.sin(t), 0.0]),\n"
        "                 lambda t: np.array([np.sin(t), -np.cos(t), 0.0]), domain=(-1, 1))\n"
        "frenet(reparam_arclength(helix, 0.0), 0.1)\n"
        "null = CurveJet(lambda t: np.array([np.cos(t), np.sin(t), t]),\n"
        "                lambda t: np.array([-np.sin(t), np.cos(t), 1.0]),\n"
        "                lambda t: np.array([-np.cos(t), -np.sin(t), 0.0]),\n"
        "                lambda t: np.array([np.sin(t), -np.cos(t), 0.0]), domain=(-1, 1))\n"
        "reparam_pseudo_arclength(null, 0.0)\n"
        f"print(json.dumps([polynomial, {_SCIPY_MODULES}]))\n",
        tmp_path,
    )
    assert polynomial is False
    assert modules == []
