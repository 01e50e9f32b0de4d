import numpy as np
import numpy.testing as npt
import pytest

from minkowski3.core import ROW_CHUNK, GeometryError, E1, E2
from minkowski3.meshing import (
    SurfaceMesh,
    cone_volume,
    disk_graph_mesh,
    export_mesh_csv,
    export_obj,
    first_variation_check,
    lorentz_area,
    triangulate_chart,
)
from minkowski3.rotational import catenoid_chart, hyperbolic_cap_chart
from minkowski3.surfaces import SurfaceChart, hyperbolic_plane_chart, plane_chart


def bump(mesh, radius):
    rho = np.linalg.norm(mesh.uv, axis=1)
    f = np.where(
        rho < radius,
        np.exp(-1.0 / np.maximum(1e-12, 1.0 - (rho / radius) ** 2)),
        0.0,
    )
    f[mesh.boundary] = 0.0
    return f


class TestMeshGeometry:
    def test_flat_disk_area(self):
        chart = plane_chart([0, 0, 0], E1, E2)
        mesh = disk_graph_mesh(chart, 1.0, 40, 80)
        npt.assert_allclose(lorentz_area(mesh), np.pi, rtol=2e-3)

    def test_cap_area_against_closed_form(self):
        # cap piece of the unit hyperboloid over rho <= R: the graph area
        # element is sqrt(1 - |Du|^2) dx dy = dx dy / sqrt(1 + rho^2), so
        # A = int_0^R 2 pi rho / sqrt(1 + rho^2) drho = 2 pi (sqrt(1+R^2) - 1)
        chart, _ = hyperbolic_cap_chart(1.0, 1.0)
        mesh = disk_graph_mesh(chart, 1.0, 60, 120)
        exact = 2 * np.pi * (np.sqrt(2.0) - 1.0)
        npt.assert_allclose(lorentz_area(mesh), exact, rtol=2e-3)

    def test_flat_disk_cone_volume(self):
        # V = (1/3) <x, N> dA for the unit disk at height c: N = E3,
        # <x, E3> = -c, so V = -c * area / 3
        c = 0.7
        chart = plane_chart([0, 0, c], E1, E2)
        mesh = disk_graph_mesh(chart, 1.0, 40, 80)
        npt.assert_allclose(cone_volume(mesh), -c * np.pi / 3.0, rtol=2e-3)

    def test_wrapped_triangulation_closes(self):
        # wrap_v identifies the duplicate last column: 24 columns -> 23 kept
        mesh = triangulate_chart(catenoid_chart(), 12, 24, wrap_v=True)
        assert len(mesh.vertices) == 12 * 23
        assert len(mesh.faces) == 2 * 11 * 23
        assert mesh.boundary.sum() == 2 * 23


class TestMeshSize:
    def test_too_many_points_raise_before_any_evaluation(self):
        def unreachable(u, v):
            raise AssertionError("evaluator called")

        chart = SurfaceChart(*[unreachable] * 6)
        with pytest.raises(GeometryError, match="MAX_POINTS"):
            triangulate_chart(chart, 3000, 3000)
        with pytest.raises(GeometryError, match="MAX_POINTS"):
            disk_graph_mesh(chart, 1.0, 3000, 3000)


class TestFirstVariation:
    def test_zero_field(self):
        chart, _ = hyperbolic_cap_chart(1.0, 1.0)
        mesh = disk_graph_mesh(chart, 1.0, 20, 40)
        out = first_variation_check(mesh, np.zeros(len(mesh.vertices)), 1e-4)
        assert out == (0.0, 0.0, -0.0, -0.0, 0.0) or all(abs(x) < 1e-15 for x in out)

    def test_cap_bump_matches_formulas(self):
        chart, _ = hyperbolic_cap_chart(1.0, 1.0)
        mesh = disk_graph_mesh(chart, 1.0, 50, 100)
        f = bump(mesh, 1.0)
        da_n, da_f, dv_n, dv_f, _ = first_variation_check(mesh, f, 1e-4)
        assert abs(da_n - da_f) <= 0.02 * abs(da_f)
        assert abs(dv_n - dv_f) <= 0.02 * abs(dv_f)

    def test_zero_mean_field_is_critical(self):
        # constant-H mesh with integral(f) = 0: area derivative ~ 0
        chart, _ = hyperbolic_cap_chart(1.0, 1.0)
        mesh = disk_graph_mesh(chart, 1.0, 50, 100)
        f = bump(mesh, 1.0) * mesh.uv[:, 0]  # odd in x, zero integral
        da_n, da_f, _, dv_f = first_variation_check(mesh, f, 1e-4)[:4]
        scale = float(np.abs(f).max())
        assert abs(da_f) < 1e-12 * max(1, scale)
        assert abs(da_n) < 2e-4 * max(1, scale)

    def test_boundary_field_rejected(self):
        chart, _ = hyperbolic_cap_chart(1.0, 1.0)
        mesh = disk_graph_mesh(chart, 1.0, 10, 20)
        with pytest.raises(GeometryError):
            first_variation_check(mesh, np.ones(len(mesh.vertices)), 1e-4)

    def test_field_of_the_wrong_shape_rejected(self):
        chart, _ = hyperbolic_cap_chart(1.0, 1.0)
        mesh = disk_graph_mesh(chart, 1.0, 4, 8)
        with pytest.raises(GeometryError, match="^f must be a per-vertex scalar$"):
            first_variation_check(mesh, np.zeros(len(mesh.vertices) - 1), 1e-4)

    def test_timelike_triangle_rejected(self):
        # the edge from vertex 0 to vertex 2 is timelike
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]), np.zeros((3, 2)), np.zeros((3, 3)),
                           np.zeros(3), np.zeros(3), np.zeros(3, dtype=bool), np.zeros(3, dtype=bool))
        with pytest.raises(GeometryError, match="^mesh contains non-spacelike triangles$"):
            lorentz_area(mesh)


class TestExport:
    def test_sidecar_text(self, tmp_path):
        mesh = SurfaceMesh(
            vertices=np.array([[1 / 3, 0.0, -0.0], [2.0, -1e-300, 1e20]]),
            faces=np.zeros((0, 3), dtype=int),
            uv=np.array([[0.1, -0.5], [0.0, 1.0]]),
            normals=np.zeros((2, 3)),
            mean_curvature=np.array([0.5, -2.0]),
            gauss_curvature=np.array([-0.25, 1e-17]),
            umbilic=np.array([True, False]),
            boundary=np.array([False, True]),
        )
        export_mesh_csv(mesh, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text() == (
            "u,v,x,y,z,H,K,umbilic\n"
            "0.10000000000000001,-0.5,0.33333333333333331,0,-0,0.5,-0.25,1\n"
            "0,1,2,-1e-300,1e+20,-2,1.0000000000000001e-17,0\n"
        )

    @staticmethod
    def _obj_loop(mesh, path):
        """export_obj as it was written, formatting numpy scalars."""
        with open(path, "w") as fh:
            for p in mesh.vertices:
                fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
            for a, b, c in mesh.faces:
                fh.write(f"f {a + 1} {b + 1} {c + 1}\n")

    @pytest.mark.parametrize("vertices", [
        np.array([[-0.0, np.nan, 5e-324], [1e308, -2.5e-310, 1 / 3], [0.1, -1e-300, 7.0]]),
        np.array([[0, -3, 2 ** 53 + 1], [1, 2, 3], [4, 5, 6]]),
        np.array([[True, False, True], [False, False, True], [True, True, True]]),
    ], ids=["float", "int", "bool"])
    def test_obj_matches_the_scalar_loop(self, tmp_path, vertices):
        mesh = SurfaceMesh(vertices, np.array([[0, 1, 2], [2, 1, 0]]), np.zeros((3, 2)),
                           np.zeros((3, 3)), np.zeros(3), np.zeros(3),
                           np.zeros(3, dtype=bool), np.zeros(3, dtype=bool))
        export_obj(mesh, tmp_path / "new.obj")
        self._obj_loop(mesh, tmp_path / "old.obj")
        new = (tmp_path / "new.obj").read_bytes()
        assert new == (tmp_path / "old.obj").read_bytes() and new.count(b"\n") == 5

    def test_exports_past_a_chunk_match_the_scalar_loops(self, tmp_path):
        # 4900 vertices and 9522 faces: several chunks each, the last a short one
        mesh = triangulate_chart(hyperbolic_plane_chart(1.2, (0.1, 0.2, 0.3)), 70, 70)
        assert ROW_CHUNK < len(mesh.vertices) < len(mesh.faces)
        assert len(mesh.vertices) % ROW_CHUNK and len(mesh.faces) % ROW_CHUNK
        export_obj(mesh, tmp_path / "new.obj")
        self._obj_loop(mesh, tmp_path / "old.obj")
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "old.obj").read_bytes()
        export_mesh_csv(mesh, tmp_path / "new.csv")
        with open(tmp_path / "old.csv", "w") as fh:
            fh.write("u,v,x,y,z,H,K,umbilic\n")
            for (u, v), p, H, K, umb in zip(mesh.uv, mesh.vertices, mesh.mean_curvature,
                                            mesh.gauss_curvature, mesh.umbilic):
                fh.write(",".join(format(float(x), ".17g") for x in (u, v, *p, H, K, umb)) + "\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_obj_and_sidecar(self, tmp_path):
        mesh = triangulate_chart(hyperbolic_cap_chart(1.0, 1.0)[0], 5, 5)
        obj = tmp_path / "m.obj"
        csv = tmp_path / "m.csv"
        export_obj(mesh, obj)
        export_mesh_csv(mesh, csv)
        lines = obj.read_text().strip().split("\n")
        vlines = [l for l in lines if l.startswith("v ")]
        flines = [l for l in lines if l.startswith("f ")]
        assert len(vlines) == len(mesh.vertices)
        assert len(flines) == len(mesh.faces)
        # 1-based indexing, within range
        idx = np.array([[int(t) for t in l.split()[1:]] for l in flines])
        assert idx.min() >= 1 and idx.max() <= len(mesh.vertices)
        first = np.array([float(t) for t in vlines[0].split()[1:]])
        npt.assert_allclose(first, mesh.vertices[0], rtol=1e-15)
        head = csv.read_text().split("\n")[0]
        assert head == "u,v,x,y,z,H,K,umbilic"
