"""Triangulated spacelike surface meshes: areas, volumes, variation checks.

Areas are Lorentzian: a spacelike triangle with edge vectors d1, d2 has
area 0.5 * sqrt(<d1,d1><d2,d2> - <d1,d2>^2) (the Gram determinant of the
induced metric, positive for spacelike triangles).  The enclosed "cone
volume" functional is (1/3) * sum <centroid, N> dA with N the future unit
normal of each face.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import MAX_POINTS, GeometryError, cross, lorentz_dot, write_csv
from .surfaces import SurfaceChart, _values, gauss_map, shape_and_curvatures

__all__ = [
    "SurfaceMesh",
    "triangulate_chart",
    "disk_graph_mesh",
    "lorentz_area",
    "cone_volume",
    "first_variation_check",
    "export_obj",
    "export_mesh_csv",
]


@dataclass
class SurfaceMesh:
    """Vertices (n,3), triangles (m,3) int, per-vertex normals / H / boundary flag.

    `uv` keeps the parameter coordinates each vertex came from (n,2); it is
    carried through to CSV sidecars.
    """

    vertices: np.ndarray
    faces: np.ndarray
    uv: np.ndarray
    normals: np.ndarray
    mean_curvature: np.ndarray
    gauss_curvature: np.ndarray
    umbilic: np.ndarray
    boundary: np.ndarray

    def displaced(self, t: float, f: np.ndarray) -> "SurfaceMesh":
        """Normal variation X + t * f * N with the variation field frozen at t=0."""
        return replace(self, vertices=self.vertices + t * f[:, None] * self.normals)


def _chart_mesh(chart: SurfaceChart, uv: np.ndarray, faces, boundary) -> SurfaceMesh:
    """Mesh whose vertex k is the chart point at uv[k], with its normal and curvatures."""
    us, vs = uv[:, 0], uv[:, 1]
    normals = gauss_map(chart, us, vs)
    data = shape_and_curvatures(chart, us, vs)
    verts = _values(chart.position, us, vs)
    return SurfaceMesh(verts, faces, uv, normals, data.H, data.K, data.umbilic, boundary)


def _quads(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Triangles (a, b, c), (a, c, d) of the quads a = inner[j], b = outer[j],
    c = outer[j + 1], d = inner[j + 1] over the columns j of two index rows."""
    a, b = inner[..., :-1], outer[..., :-1]
    c, d = outer[..., 1:], inner[..., 1:]
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def triangulate_chart(chart: SurfaceChart, nu: int, nv: int,
                      wrap_v: bool = False) -> SurfaceMesh:
    """Structured triangulation of the parameter rectangle.

    With wrap_v the last v-row is identified with the first (periodic
    charts such as surfaces of revolution); boundary vertices are then the
    two u-extremes only.
    """
    if nu * nv > MAX_POINTS:
        raise GeometryError(f"mesh of {nu} x {nv} points exceeds MAX_POINTS = {MAX_POINTS}")
    us, vs = chart.grid(nu, nv)
    if wrap_v:
        vs = vs[:-1]
        nv = nv - 1
    uv = np.column_stack([np.repeat(us, nv), np.tile(vs, nu)])
    idx = np.arange(nu * nv).reshape(nu, nv)
    if wrap_v:
        idx = np.concatenate([idx, idx[:, :1]], axis=1)
    faces = _quads(idx[:-1], idx[1:])
    boundary = np.zeros((nu, nv), dtype=bool)
    boundary[[0, -1], :] = True
    if not wrap_v:
        boundary[:, [0, -1]] = True
    return _chart_mesh(chart, uv, faces, boundary.ravel())


def disk_graph_mesh(chart: SurfaceChart, radius: float, n_r: int,
                    n_theta: int) -> SurfaceMesh:
    """Polar triangulation of a graph chart over the disk of given radius.

    The chart is evaluated at (x, y) = (rho cos th, rho sin th); the center
    gets a single vertex with a triangle fan, the rim is flagged boundary.
    """
    if n_r * n_theta > MAX_POINTS:
        raise GeometryError(f"mesh of {n_r} x {n_theta} points exceeds MAX_POINTS = {MAX_POINTS}")
    uv = [(0.0, 0.0)]  # vertex 0 is the center
    for i in range(1, n_r + 1):
        rho = radius * i / n_r
        for j in range(n_theta):
            th = 2 * np.pi * j / n_theta
            uv.append((rho * np.cos(th), rho * np.sin(th)))
    # ring i holds vertices 1 + i * n_theta + j; column n_theta closes it
    rings = 1 + np.arange(n_r * n_theta).reshape(n_r, n_theta)
    rings = np.concatenate([rings, rings[:, :1]], axis=1)
    fan = np.column_stack([np.zeros(n_theta, dtype=int), rings[0, :-1], rings[0, 1:]])
    faces = np.concatenate([fan, _quads(rings[:-1], rings[1:])])
    boundary = np.zeros(len(uv), dtype=bool)
    boundary[rings[-1]] = True
    return _chart_mesh(chart, np.asarray(uv), faces, boundary)


def _face_geometry(mesh: SurfaceMesh):
    v = mesh.vertices
    f = mesh.faces
    d1 = v[f[:, 1]] - v[f[:, 0]]
    d2 = v[f[:, 2]] - v[f[:, 0]]
    g11 = lorentz_dot(d1, d1)
    g22 = lorentz_dot(d2, d2)
    g12 = lorentz_dot(d1, d2)
    gram = g11 * g22 - g12 * g12
    if np.any(gram <= 0):
        raise GeometryError("mesh contains non-spacelike triangles")
    areas = 0.5 * np.sqrt(gram)
    nrm = cross(d1, d2)
    nn = lorentz_dot(nrm, nrm)  # = -gram < 0 for spacelike faces
    nrm = nrm / np.sqrt(np.abs(nn))[:, None]
    flip = nrm[:, 2] < 0
    nrm[flip] = -nrm[flip]
    centroids = (v[f[:, 0]] + v[f[:, 1]] + v[f[:, 2]]) / 3.0
    return areas, nrm, centroids


def lorentz_area(mesh: SurfaceMesh) -> float:
    areas, _, _ = _face_geometry(mesh)
    return float(areas.sum())


def cone_volume(mesh: SurfaceMesh) -> float:
    """(1/3) * sum over faces of <centroid, N_future> * area."""
    areas, nrm, centroids = _face_geometry(mesh)
    return float((lorentz_dot(centroids, nrm) * areas).sum() / 3.0)


def _integral_over_mesh(mesh: SurfaceMesh, vertex_values: np.ndarray) -> float:
    areas, _, _ = _face_geometry(mesh)
    per_face = vertex_values[mesh.faces].mean(axis=1)
    return float((per_face * areas).sum())


def first_variation_check(mesh: SurfaceMesh, f: np.ndarray, dt: float):
    """Central-difference area/volume derivatives vs. the first-variation formulas.

    Displaces the mesh by +-dt f N and returns
        (dA_numeric, dA_formula, dV_numeric, dV_formula, dJc_numeric)
    with dA_formula = 2 * integral(H f) dA, dV_formula = -integral(f) dA and
    dJc the derivative of A + 2 c V at c = mean mesh H (zero for a
    constant-mean-curvature mesh up to discretization error).
    `f` must vanish on boundary vertices.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (len(mesh.vertices),):
        raise GeometryError("f must be a per-vertex scalar")
    if np.any(np.abs(f[mesh.boundary]) > 0):
        raise GeometryError("the variation field must vanish on the boundary")
    plus = mesh.displaced(dt, f)
    minus = mesh.displaced(-dt, f)
    da_num = (lorentz_area(plus) - lorentz_area(minus)) / (2 * dt)
    dv_num = (cone_volume(plus) - cone_volume(minus)) / (2 * dt)
    da_formula = 2.0 * _integral_over_mesh(mesh, mesh.mean_curvature * f)
    dv_formula = -_integral_over_mesh(mesh, f)
    c = float(mesh.mean_curvature.mean())
    djc_num = da_num + 2.0 * c * dv_num
    return da_num, da_formula, dv_num, dv_formula, djc_num


def export_obj(mesh: SurfaceMesh, path) -> None:
    """Wavefront-style text mesh: "v x y z" lines then 1-based "f i j k".

    Each row is converted with its own `tolist()`: Python numbers format
    faster than numpy scalars, and converting whole arrays would hold a
    list of every vertex in memory.
    """
    with open(path, "w") as fh:
        for p in mesh.vertices:
            x, y, z = p.tolist()
            fh.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for f in mesh.faces:
            a, b, c = f.tolist()
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def export_mesh_csv(mesh: SurfaceMesh, path) -> None:
    """Sidecar CSV with per-vertex u,v,x,y,z,H,K,umbilic."""
    write_csv(path, "u,v,x,y,z,H,K,umbilic", np.column_stack([
        mesh.uv, mesh.vertices, mesh.mean_curvature, mesh.gauss_curvature, mesh.umbilic,
    ]))
