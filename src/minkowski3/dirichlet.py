"""Finite-difference Dirichlet solver for the constant-mean-curvature graph equation.

The graph z = u(x, y) over a plane domain Omega has mean curvature H (with
the upwards orientation) exactly when

    div( Du / sqrt(1 + eps |Du|^2) ) = 2 H,      u = 0 on the boundary,

with eps = +1 for the Euclidean ambient and eps = -1 for the Lorentzian
one, where the solution must in addition be spacelike: |Du| < 1.

Discretization: conservative half-node flux differencing on a uniform grid
(second order), with Shortley-Weller-style unequal arms where a grid arm
crosses the curved or polygonal boundary, so u = 0 holds exactly on the
boundary trace.  The nonlinear system is solved by damped Newton steps with
a finite-difference Jacobian (9-point stencil coloring, from one residual
call on the stack of the nine perturbed vectors), run once from u = 0 at
the target H, with no continuation in H.  Each trial step is one stencil
pass, whose half-point slopes the spacelike guard reads before the light
cone and the node slopes.  In every failure measured the discrete solution
had reached the guard band (the Lorentzian cap's slope meets 1 - delta near
R H = 7), which no path in H gets past.  Nodes are numbered column by
column, so the Jacobian is block tridiagonal over the grid columns, and
each step is solved by one block LU of that iteration's Jacobian (Golub &
Van Loan, Matrix Computations, 4.5), in dense numpy per column; no factor
is kept from one iteration to the next.  Its work grows as the sum of the
cubed column lengths, about (2R/h)^4, where a sparse minimum-degree
ordering grows as n^1.5: at R = 1, h = 0.01 it is the larger cost.

Solvability differs sharply by ambient: the Lorentzian problem is solvable
for any H on bounded convex domains, while the Euclidean one requires the
boundary curvature to dominate H; disks accept H <= 1/R (the hemisphere is
the borderline case) and convex polygons are screened with a rolling-disc
surrogate, refusing targets it cannot certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import MAX_POINTS, GeometryError

__all__ = [
    "Disk",
    "ConvexPolygon",
    "GridDomain",
    "SolverConfig",
    "GraphSolution",
    "ConvergenceError",
    "SolvabilityError",
    "SpacelikeViolationError",
    "cmc_operator_residual",
    "solve_dirichlet",
    "height_bound_report",
    "gradient_boundary_check",
    "exact_cap_values",
    "MAX_GRID_POINTS",
    "MAX_NEWTON_ITERS",
]

_THETA_MIN = 1e-3

#: largest grid, in points of the bounding box, that GridDomain builds
MAX_GRID_POINTS = MAX_POINTS

#: Newton iterations of one solve before it fails; successful solves were
#: measured to take at most 11
MAX_NEWTON_ITERS = 40

#: rows of the largest block that _inv hands to np.linalg.inv whole
_INV_SPLIT = 48

_SLOPE2_MAX = 1.0 - 1e-12  # squared half-point slope of the light cone: the flux clamps there

_OPP = (1, 0, 3, 2)  # opposite arm index: W of E, E of W, S of N, N of S
_ARM_SIGN = np.array([[1.0], [-1.0], [1.0], [-1.0]])  # outward direction of E, W, N, S


def _dots(a, b):
    """a . b over the last axis of 2-vectors, broadcast, each bit as `a @ b`
    on one pair: a stack of (1, 2) @ (2, 1) matmuls calls the same BLAS dot,
    where a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] rounds differently."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _arms(a):
    """Swap the last two axes: (..., 4, n) arm-major data as (..., n, 4), or back."""
    return np.swapaxes(a, -1, -2)


class ConvergenceError(GeometryError):
    """Damped Newton did not reach newton_tol at the target H."""


class SolvabilityError(GeometryError):
    """The Euclidean curvature condition cannot be certified for this input."""


class SpacelikeViolationError(GeometryError):
    """A Lorentzian-mode stencil gradient reached the light cone."""


@dataclass(frozen=True)
class Disk:
    R: float

    def __post_init__(self):
        if not (self.R > 0 and np.isfinite(self.R)):
            raise GeometryError("disk radius must be finite and positive")

    def bbox(self):
        return (-self.R, self.R, -self.R, self.R)

    def inside(self, x, y):
        return x * x + y * y < self.R * self.R

    def boundary_distance(self, x, y):
        return self.R - np.hypot(x, y)

    def exit_fraction(self, x, y, dx, dy, h):
        """Fraction t in [0,1] where (x,y) + t*h*(dx,dy) crosses the boundary,
        broadcast over arrays of x, y, dx and dy."""
        a = h * h * (dx * dx + dy * dy)
        b = 2 * h * (x * dx + y * dy)
        c = x * x + y * y - self.R * self.R
        disc = b * b - 4 * a * c
        t = (-b + np.sqrt(np.maximum(disc, 0.0))) / (2 * a)
        return np.minimum(np.maximum(t, 0.0), 1.0)

    def max_boundary_radius(self):
        return self.R

    def rolling_radius(self):
        return self.R


@dataclass(frozen=True)
class ConvexPolygon:
    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3 or not np.all(np.isfinite(v)):
            raise GeometryError("polygon needs at least three finite 2D vertices")
        # normalize to counterclockwise order by the shoelace sum, accumulated
        # in vertex order (cumsum adds in sequence, so the sign is that of a loop)
        nxt = np.roll(v, -1, axis=0)
        if np.cumsum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1])[-1] < 0:
            v = v[::-1].copy()
        d = np.roll(v, -1, axis=0) - v  # edge k runs from vertex k to vertex k + 1
        crosses = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
        if not np.all(crosses > 0):
            raise GeometryError("polygon must be strictly convex")
        object.__setattr__(self, "vertices", v)
        # outward edge normals and offsets: n . x <= b inside; the norm is
        # sqrt(n . n), as np.linalg.norm forms it on one vector
        n = np.column_stack([d[:, 1], -d[:, 0]])
        n = n / np.sqrt(_dots(n, n))[:, None]
        object.__setattr__(self, "_normals", n)
        object.__setattr__(self, "_offsets", _dots(n, v))

    def bbox(self):
        v = self.vertices
        return (v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())

    def _edge_dots(self, x, y):
        """n . (x, y) for every edge normal n, along a new last axis."""
        x = np.asarray(x, dtype=float)[..., None]
        y = np.asarray(y, dtype=float)[..., None]
        return self._normals[:, 0] * x + self._normals[:, 1] * y

    def inside(self, x, y):
        return np.all(self._edge_dots(x, y) < self._offsets, axis=-1)

    def boundary_distance(self, x, y):
        return np.min(self._offsets - self._edge_dots(x, y), axis=-1)

    def exit_fraction(self, x, y, dx, dy, h):
        """Fraction t in [0,1] where (x,y) + t*h*(dx,dy) first crosses an edge
        line, broadcast over arrays of x, y, dx and dy: one pass per edge."""
        x, y, dx, dy = np.broadcast_arrays(x, y, dx, dy)
        p = np.stack([x, y], axis=-1)
        d = h * np.stack([dx, dy], axis=-1)
        best = np.ones(x.shape)
        t = np.ones(x.shape)  # finite where no edge is ahead, so the tests below stay quiet
        for nn, bb in zip(self._normals, self._offsets):
            nd = _dots(d, nn)
            ahead = nd > 0
            np.divide(bb - _dots(p, nn), nd, out=t, where=ahead)
            np.copyto(best, t, where=ahead & (0.0 <= t) & (t < best))
        return best

    def max_boundary_radius(self):
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def rolling_radius(self):
        """Smallest radius of a disc that can touch every boundary point (64
        per edge) while containing the polygon; 1/rolling_radius plays the
        role of the boundary curvature in the Euclidean solvability screen.

        One pass per edge over its 64 points x every vertex, so memory stays
        O(64 V) for V vertices."""
        v = self.vertices
        ts = np.linspace(0.0, 1.0, 64)[:, None]
        worst = 0.0
        for i in range(len(v)):
            p0, p1 = v[i], v[(i + 1) % len(v)]
            nn = -self._normals[i]  # inward
            d = v - (p0 + ts * (p1 - p0))[:, None, :]  # (64, V, 2)
            denom, dd = 2.0 * _dots(d, nn), _dots(d, d)
            # vertices on the edge line bound no disc; the test is relative to
            # |d|, so the radius of a scaled polygon scales with it
            ok = denom > 1e-12 * np.sqrt(dd)
            if ok.any():
                worst = max(worst, float(np.max(dd[ok] / denom[ok])))
        return worst


class GridDomain:
    """Uniform grid over a disk or convex polygon with boundary arm data.

    Interior nodes are the grid points strictly inside the domain; each of
    their four axis arms either reaches another interior node (length h) or
    crosses the boundary at length theta*h, where the value u = 0 is imposed
    exactly.  Nodes with at least one shortened arm form the boundary ring.
    """

    def __init__(self, shape, h: float):
        if not (np.isfinite(h) and h > 0):
            raise GeometryError("grid spacing must be finite and positive")
        self.shape = shape
        self.h = float(h)
        x0, x1, y0, y1 = (float(c) for c in shape.bbox())
        fx = float(np.floor((x1 - x0) / h)) + 3
        fy = float(np.floor((y1 - y0) / h)) + 3
        if fx * fy > MAX_GRID_POINTS:
            raise GeometryError(
                f"grid of {fx:.4g} x {fy:.4g} points exceeds MAX_GRID_POINTS = "
                f"{MAX_GRID_POINTS}: use a larger h or a smaller domain"
            )
        nx, ny = int(fx), int(fy)
        xs = x0 - h + h * np.arange(nx)
        ys = y0 - h + h * np.arange(ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        # nodes closer to the boundary than _THETA_MIN * h are snapped out of
        # the unknown set; arms from their neighbors then cross the true
        # boundary at well-conditioned fractions
        keep = shape.inside(X, Y) & (shape.boundary_distance(X, Y) > _THETA_MIN * h)
        ij = np.argwhere(keep)  # i-major node order
        if not len(ij):
            raise GeometryError("grid spacing too coarse for the domain")
        self.n = len(ij)
        self.xy = np.column_stack([xs[ij[:, 0]], ys[ij[:, 1]]])
        # node index per grid point, padded by one point of -1 on every side
        index = np.full((nx + 2, ny + 2), -1)
        index[1:-1, 1:-1][keep] = np.arange(self.n)
        pi, pj = ij[:, 0] + 1, ij[:, 1] + 1
        dirs = [(1, 0), (-1, 0), (0, 1), (0, -1)]  # E, W, N, S
        self.nbr = np.column_stack([index[pi + di, pj + dj] for di, dj in dirs])
        self.boundary_arm = self.nbr < 0
        self.theta = np.ones((self.n, 4))
        k, d = np.nonzero(self.boundary_arm)
        dx, dy = np.array(dirs, dtype=float)[d].T
        x, y = self.xy[k].T
        self.theta[k, d] = np.maximum(shape.exit_fraction(x, y, dx, dy, h), _THETA_MIN)
        self.ring = np.any(self.boundary_arm, axis=1)
        # per arm: the node across it and the neighbor behind it (across the
        # opposite arm), each the node itself where the arm leaves the domain
        self.across = np.where(self.boundary_arm, np.arange(self.n)[:, None], self.nbr)
        self.behind = self.across[:, _OPP]
        # finite-difference Jacobian coloring: each residual reads only its
        # node's 3x3 neighborhood, which holds one node of each of 9 colors;
        # color_nbr[k, c] is that node (or -1), at offset (di, dj) in {-1,0,1}^2
        self.n_colors = 9
        self.color = ij[:, 0] % 3 + 3 * (ij[:, 1] % 3)
        c = np.arange(self.n_colors)
        di = (c % 3 - ij[:, :1] + 1) % 3 - 1
        dj = (c // 3 - ij[:, 1:] + 1) % 3 - 1
        self.color_nbr = index[pi[:, None] + di, pj[:, None] + dj]
        # the Jacobian is block tridiagonal over grid columns: nodes are
        # numbered i-major, so each column is a run of nodes, and the 3x3
        # stencil couples it only to itself and the columns on either side.
        # The rows of column k are stored, in one flat buffer, as
        # [L_k | D_k | U_k]: the node range from the previous column's first
        # node to the next column's last, one tuple (start, stop, lo, hi,
        # offset) of Python ints per column
        start = np.r_[np.flatnonzero(np.r_[True, np.diff(ij[:, 0]) != 0]), self.n]
        col = np.repeat(np.arange(len(start) - 1), np.diff(start))
        lo = start[np.maximum(col - 1, 0)]
        width = start[np.minimum(col + 2, len(start) - 1)] - lo
        row_at = np.r_[0, np.cumsum(width)]
        self._jac_size = int(row_at[-1])
        self._blocks = [(int(s), int(e), int(lo[s]), int(lo[s] + width[s]), int(row_at[s]))
                        for s, e in zip(start[:-1], start[1:])]
        # where the colored forward difference's entries go: entry (row k,
        # column color_nbr[k, c]) of color c, color-major
        nbr = self.color_nbr.T
        valid = nbr >= 0
        rows = np.broadcast_to(np.arange(self.n), nbr.shape)[valid]
        self._jac_from = np.flatnonzero(valid)
        self._jac_at = row_at[rows] + nbr[valid] - lo[rows]
        self._jac_diag = row_at[:-1] + np.arange(self.n) - lo
        # the stencil works on arm-major (..., 4, n) arrays, so that each
        # pass over a (k, n) stack of node values runs along whole arms; its
        # theta-only factors are formed once, each exactly as the stencil
        # formed it per call, so no residual bit moves
        tE, tW, tN, tS = self.theta.T
        self._x_coef = (tW ** 2, tE ** 2, tE ** 2 - tW ** 2, tE * tW * (tE + tW) * h)
        self._y_coef = (tS ** 2, tN ** 2, tN ** 2 - tS ** 2, tN * tS * (tN + tS) * h)
        self._theta_h = np.ascontiguousarray(_arms(self.theta * h))
        self._theta_opp_h = np.ascontiguousarray(_arms(self.theta[:, _OPP] * h))
        self._half_theta_h = np.ascontiguousarray(_arms(0.5 * self.theta * h))
        self._div_den = (0.5 * (tE + tW) * h, 0.5 * (tN + tS) * h)
        self._boundary_arm = np.ascontiguousarray(_arms(self.boundary_arm))
        # gathers: the node across each arm, and each arm's transverse
        # derivative at the node, across the arm and behind it, read from
        # [uy, ux] (uy for the E and W arms, ux for N and S)
        self._nbr_arms = np.ascontiguousarray(_arms(self.nbr))
        off = self.n * np.array([[0], [0], [1], [1]])
        self._transverse_idx = (np.arange(self.n) + off, _arms(self.across) + off,
                                _arms(self.behind) + off)

    def _arm_values(self, u: np.ndarray):
        """Neighbor value across each arm (0 on boundary crossings), arm-major."""
        padded = np.zeros(u.shape[:-1] + (self.n + 1,))
        padded[..., :-1] = u
        return np.take(padded, self._nbr_arms, axis=-1)  # index -1 picks the padding 0

    def node_gradient(self, u: np.ndarray):
        """Unequal-arm O(h^2) central derivatives (ux, uy) at every node."""
        u = np.asarray(u, dtype=float)
        uE, uW, uN, uS = np.moveaxis(self._arm_values(u), -2, 0)
        wx, ex, cx, dx = self._x_coef
        wy, ey, cy, dy = self._y_coef
        ux = wx * uE  # (wx uE - ex uW + cx u) / dx, in place
        ux -= ex * uW
        ux += cx * u
        ux /= dx
        uy = wy * uN
        uy -= ey * uS
        uy += cy * u
        uy /= dy
        return ux, uy


@dataclass(frozen=True)
class SolverConfig:
    """eps = +1 for the Euclidean ambient, -1 for the Lorentzian one."""

    eps: int = -1
    H: float = 1.0
    newton_tol: float = 1e-10
    delta_guard: float = 0.01

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise GeometryError("eps must be +1 (Euclidean) or -1 (Lorentzian)")
        if not np.all(np.isfinite([self.H, self.newton_tol])):
            raise GeometryError("H and newton_tol must be finite")
        if abs(self.H) > np.finfo(float).max / 2:
            raise GeometryError("H too large: 2H overflows")
        if self.newton_tol <= 0:
            raise GeometryError("newton_tol must be positive")
        if not 0 < self.delta_guard < 0.5:
            raise GeometryError("delta_guard must lie in (0, 0.5)")


@dataclass
class GraphSolution:
    domain: GridDomain
    u: np.ndarray
    H: float
    eps: int
    Du_max: float
    residual_max: float
    newton_iters: int
    #: 0 for H = 0, else 1: one Newton run, with no continuation in H; kept
    #: because perfbench's solver trace (spans.py) still sums it
    continuation_steps: int
    delta_guard: float

    def gradient_magnitude(self) -> np.ndarray:
        ux, uy = self.domain.node_gradient(self.u)
        return np.hypot(ux, uy)


def _half_data(dom: GridDomain, u: np.ndarray):
    """Primary and transverse derivative per arm half-point, shape u.shape + (4,).

    On full arms the transverse derivative is the average of the two node
    gradients.  On boundary-terminated arms it is extrapolated linearly to
    the half point from the node and its opposite neighbor, which keeps the
    half-point value second-order accurate at the boundary ring.
    """
    vals = dom._arm_values(u)
    ux, uy = dom.node_gradient(u)
    # the passes run in place: each fresh stack-sized array costs page
    # faults on every call, more than the arithmetic on it
    # prim = sign * (vals - u) / (theta h)
    prim = np.subtract(vals, u[..., None, :], out=vals)
    prim *= _ARM_SIGN
    prim /= dom._theta_h
    trans = np.concatenate([uy, ux], axis=-1)
    own, across, behind = (np.take(trans, idx, axis=-1) for idx in dom._transverse_idx)
    # avg = 0.5 * (own + across); extrap = own + 0.5 theta h * (own - behind) / (theta_opp h)
    avg = across
    avg += own
    avg *= 0.5
    extrap = np.subtract(own, behind, out=behind)
    extrap /= dom._theta_opp_h
    extrap *= dom._half_theta_h
    extrap += own
    np.copyto(avg, extrap, where=dom._boundary_arm)
    return _arms(prim), _arms(avg)


def _stencil(dom: GridDomain, u: np.ndarray, H: float, eps: int):
    """Residual at u and, for eps = -1, its largest squared half-point slope (else None)."""
    prim, trans = (_arms(a) for a in _half_data(dom, u))
    # flux = prim / sqrt(1 - min(m, _SLOPE2_MAX)) for eps = -1, where
    # m = prim^2 + trans^2, and prim / sqrt(1 + prim^2 + trans^2) for eps = +1
    m = prim * prim
    trans *= trans
    m_max = None
    if eps == -1:
        m += trans
        m_max = float(np.max(m))
        np.minimum(m, _SLOPE2_MAX, out=m)
        np.subtract(1.0, m, out=m)
    else:
        m += 1.0
        m += trans
    np.sqrt(m, out=m)
    flux = np.divide(prim, m, out=m)
    den_x, den_y = dom._div_den
    div_x = (flux[..., 0, :] - flux[..., 1, :]) / den_x
    div_y = (flux[..., 2, :] - flux[..., 3, :]) / den_y
    return div_x + div_y - 2.0 * H, m_max


def cmc_operator_residual(dom: GridDomain, u: np.ndarray, H: float, eps: int,
                          check_spacelike: bool = True):
    """Per-node residual of div(Du / sqrt(1 + eps|Du|^2)) - 2H.

    `u` holds the node values, shape (n,), or a stack of k of them, shape
    (k, n); the residual has the same shape, each row computed exactly as a
    single call would.  In Lorentzian mode (eps = -1) the stencil gradients
    must stay strictly below the light-cone slope; a violation raises
    SpacelikeViolationError rather than letting NaNs propagate.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1] != dom.n:
        raise GeometryError(f"expected {dom.n} interior node values, or a stack of them")
    r, m_max = _stencil(dom, u, H, eps)
    if check_spacelike and eps == -1 and m_max >= _SLOPE2_MAX:
        raise SpacelikeViolationError("stencil gradient reached the light cone")
    return r


class _BlockTridiagonal:
    """An n x n matrix over a GridDomain's columns: row r of column k holds
    its entries [L_k | D_k | U_k] in the columns lo:hi of its band, in the
    flat buffer `data` (see GridDomain._blocks)."""

    def __init__(self, dom: GridDomain, data: np.ndarray):
        self.dom = dom
        self.data = data
        self.shape = (dom.n, dom.n)

    def bands(self):
        """(start, stop, lo, hi, [L_k | D_k | U_k]) per column, the band a view."""
        for s, e, lo, hi, off in self.dom._blocks:
            yield s, e, lo, hi, self.data[off:off + (e - s) * (hi - lo)].reshape(e - s, hi - lo)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    def diagonal(self) -> np.ndarray:
        return self.data[self.dom._jac_diag]

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for s, e, lo, hi, band in self.bands():
            out[s:e, lo:hi] = band
        return out


def _inv(a: np.ndarray) -> np.ndarray:
    """Inverse of a square block.  Past _INV_SPLIT rows it is formed from the
    inverses of the leading half and of that half's Schur complement, so
    most of the O(m^3) work runs in matmuls: 0.5-0.7x the time of one
    np.linalg.inv at m = 64 to 200 (one BLAS thread, 2 vCPU Xeon).  Like the
    block LU, it pivots only inside the blocks that np.linalg.inv inverts."""
    if len(a) <= _INV_SPLIT:
        return np.linalg.inv(a)
    h = len(a) // 2
    a11i = _inv(a[:h, :h])
    c = a11i @ a[:h, h:]
    d = a[h:, :h] @ a11i
    si = _inv(a[h:, h:] - a[h:, :h] @ c)
    cs = c @ si
    return np.block([[a11i + cs @ d, -cs], [-(si @ d), si]])


class _BlockLU:
    """Block LU of a _BlockTridiagonal matrix, column by column (Golub & Van
    Loan, Matrix Computations, 4.5): Dp_k = D_k - L_k X_{k-1}, with
    X_k = Dp_k^-1 U_k.  Each column stores Dp_k^-1 and X_k; `L.nnz` counts
    the stored entries of the L_k and Dp_k^-1 blocks, `U.nnz` those of the
    X_k (the unit diagonal is implied)."""

    def __init__(self, jac: _BlockTridiagonal):
        self._cols = []
        x = np.zeros((0, jac.dom._blocks[0][1]))  # X_{-1}: no column before the first
        for s, e, lo, hi, band in jac.bands():
            low = band[:, :s - lo]
            inv = _inv(band[:, s - lo:e - lo] - low @ x)
            x = inv @ band[:, e - lo:]
            self._cols.append((s, e, lo, hi, low, inv, x))
        self.L = SimpleNamespace(nnz=sum(low.size + inv.size for *_, low, inv, _ in self._cols))
        self.U = SimpleNamespace(nnz=sum(x.size for *_, x in self._cols))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with J x = b: the forward sweep y_k = Dp_k^-1 (b_k - L_k y_{k-1}),
        then the back sweep x_k = y_k - X_k x_{k+1}."""
        y = np.empty(len(b))
        for s, e, lo, _, low, inv, _ in self._cols:
            y[s:e] = inv @ (b[s:e] - low @ y[lo:s])
        for s, e, _, hi, _, _, x in reversed(self._cols):
            y[s:e] -= x @ y[e:hi]
        return y


def splu(jac: _BlockTridiagonal) -> _BlockLU:
    """The block LU of the Jacobian `jac`: the solver's one factorization,
    called once per Newton iteration.  A singular diagonal block raises
    numpy.linalg.LinAlgError."""
    return _BlockLU(jac)


def _jacobian(dom: GridDomain, u: np.ndarray, H: float, eps: int, base: np.ndarray):
    """Finite-difference Jacobian of the residual at u, block tridiagonal over
    the grid columns.

    Node k's residual reads only its 3x3 neighborhood, which holds one node
    of each color, so perturbing every node of one color at once gives one
    column entry per row.  The nine perturbed vectors go to the residual as
    one (9, n) stack, and each entry (rp - base) / delta is scattered to its
    place in the column blocks; an entry whose residual did not move is 0.
    """
    delta = 1e-7 * (1.0 + float(np.max(np.abs(u))))
    up = np.tile(u, (dom.n_colors, 1))
    up[dom.color, np.arange(dom.n)] += delta
    rp = cmc_operator_residual(dom, up, H, eps, check_spacelike=False)
    rp -= base
    rp /= delta
    data = np.zeros(dom._jac_size)
    data[dom._jac_at] = rp.ravel()[dom._jac_from]
    return _BlockTridiagonal(dom, data)


def _newton(dom: GridDomain, cfg: SolverConfig):
    """Damped Newton from u = 0 at curvature |cfg.H|; (u, iterations, max|r|).

    Each iteration factors a fresh Jacobian and halves the step length lam
    (at most 12 times) until the trial is admissible and lowers max|r|.
    Each trial is one stencil pass.  A Lorentzian trial must pass, in this
    order, the half-point guard sqrt(max m) < 1 - delta/2 (m the squared
    half-point slopes), the light cone max m < _SLOPE2_MAX (which only a
    delta below ~2e-12 leaves to it) and the node guard max|Du| <= 1 - delta.
    A Jacobian whose diagonal lost an entry in rounding (at a large |H| the
    perturbation does not move the residual), a singular diagonal block of
    its block LU, a line search that finds no such trial, or
    MAX_NEWTON_ITERS iterations without max|r| <= newton_tol raise
    ConvergenceError.  At H = 0 the
    first residual is exactly 0, so u = 0 returns after no iteration.

    Rate: the Jacobian is a forward difference with delta = 1e-7 (1 + max|u|),
    so it is exact only to O(delta), and the tail is superlinear rather
    than cleanly quadratic.  Full steps are taken there; on the R = 1,
    H = 1 cap at h = 0.02, max|r| goes 5.6e-3, 5.6e-5, 1.6e-8, 1.2e-11,
    each of the last two iterations cutting it by more than 1000x.
    """
    H = abs(cfg.H)
    u = np.zeros(dom.n)
    guard_half = 1.0 - 0.5 * cfg.delta_guard
    guard_node = 1.0 - cfg.delta_guard

    def fail(stop):
        return ConvergenceError(
            f"Newton did not converge at H={cfg.H:g} after {iters} iterations "
            f"(max|r| = {rnorm:.3g}): {stop}"
        )

    r = cmc_operator_residual(dom, u, H, cfg.eps)
    rnorm = float(np.max(np.abs(r)))
    iters = 0
    while rnorm > cfg.newton_tol:
        if iters >= MAX_NEWTON_ITERS:
            raise fail(f"the iteration budget MAX_NEWTON_ITERS = {MAX_NEWTON_ITERS} is spent")
        jac = _jacobian(dom, u, H, cfg.eps, r)
        # an entry is 0 when the perturbed residual rounds to the base
        # one; the operator's own node always moves it otherwise
        if not jac.diagonal().all():
            raise fail("a diagonal entry of the finite-difference Jacobian was lost "
                       "in rounding against the residual")
        try:
            du = splu(jac).solve(-r)
        except np.linalg.LinAlgError:
            raise fail("the Jacobian's LU factorization is singular") from None
        del jac  # its dense blocks are not kept alive while the next one is built
        lam = 1.0
        for _ in range(12):
            trial = u + lam * du
            rt, m_max = _stencil(dom, trial, H, cfg.eps)
            if cfg.eps == 1 or (np.sqrt(m_max) < guard_half and m_max < _SLOPE2_MAX and
                                np.max(np.hypot(*dom.node_gradient(trial))) <= guard_node):
                tnorm = float(np.max(np.abs(rt)))
                if tnorm < rnorm or tnorm <= cfg.newton_tol:
                    break
            lam *= 0.5
        else:
            iters += 1
            raise fail("the line search found no admissible trial that lowers max|r|")
        u, r, rnorm = trial, rt, tnorm
        iters += 1
    return u, iters, rnorm


def _check_euclid_solvable(dom: GridDomain, H: float) -> None:
    if H == 0:
        return
    shape = dom.shape
    if isinstance(shape, Disk):
        kappa = 1.0 / shape.R
        if abs(H) > kappa * (1.0 + 1e-12):
            raise SolvabilityError(
                f"Euclidean target |H|={abs(H):g} exceeds the boundary curvature "
                f"{kappa:g} of the disk; no graph exists"
            )
        return
    roll = shape.rolling_radius()
    if abs(H) >= 1.0 / roll:
        raise SolvabilityError(
            f"Euclidean target |H|={abs(H):g} is not below the rolling-disc "
            f"curvature bound {1.0 / roll:g} for this polygon; refusing "
            "(smooth-boundary existence theory does not cover it)"
        )


def solve_dirichlet(dom: GridDomain, cfg: SolverConfig) -> GraphSolution:
    """Damped-Newton solve with zero boundary data, in one run from u = 0.

    The equation is odd in (u, H), so the solve runs at |H| and negates u
    for H < 0.  Non-convergence raises ConvergenceError.
    """
    if cfg.eps == 1:
        _check_euclid_solvable(dom, cfg.H)
    u, iters, rnorm = _newton(dom, cfg)
    if cfg.H < 0:
        u = -u
    ux, uy = dom.node_gradient(u)
    return GraphSolution(
        domain=dom, u=u, H=cfg.H, eps=cfg.eps,
        Du_max=float(np.max(np.hypot(ux, uy))), residual_max=rnorm,
        newton_iters=iters, continuation_steps=0 if cfg.H == 0 else 1,
        delta_guard=cfg.delta_guard,
    )


def exact_cap_values(dom: GridDomain, H: float) -> np.ndarray:
    """Translated hyperboloid-cap solution on a disk domain of radius R:
    u = sqrt(1/H^2 + rho^2) - sqrt(1/H^2 + R^2) (zero on the rim)."""
    if not isinstance(dom.shape, Disk):
        raise GeometryError("the exact cap solution lives on a disk domain")
    if H <= 0:
        raise GeometryError("cap comparison requires H > 0")
    r = 1.0 / H
    rho2 = (dom.xy ** 2).sum(axis=1)
    return np.sqrt(r * r + rho2) - np.sqrt(r * r + dom.shape.R ** 2)


def height_bound_report(sol: GraphSolution) -> dict:
    """Height of the solution against the ambient-specific a-priori bound.

    Euclidean: max|u| <= 1/|H|.  Lorentzian: max|u| is bounded by the height
    sqrt(1/H^2 + R^2) - 1/|H| of an enclosing cap with rim radius
    R = 1 + r0, r0 the largest boundary radius.  (The alternative form
    sqrt(R^2 - 1/H^2) - 1/H is not real for R < 1/|H| and is not used.)
    """
    H = sol.H
    max_u = float(np.max(np.abs(sol.u)))
    report = {
        "H": H,
        "max_abs_u": max_u,
        "applicable": H != 0,
    }
    if H == 0:
        report["note"] = "height bounds assume H != 0"
        return report
    slack = 5.0 * sol.domain.h
    if sol.eps == 1:
        bound = 1.0 / abs(H)
        report["bound"] = bound
        report["kind"] = "euclidean 1/|H|"
    else:
        r0 = sol.domain.shape.max_boundary_radius()
        renc = 1.0 + r0
        hh = 1.0 / abs(H)
        bound = float(np.sqrt(hh * hh + renc * renc) - hh)
        report["bound"] = bound
        report["enclosing_rim_radius"] = renc
        report["kind"] = "lorentzian enclosing-cap height sqrt(1/H^2+R^2)-1/|H|"
        report["note"] = (
            "bound uses sqrt(1/H^2+R^2)-1/H; the variant sqrt(R^2-1/H^2)-1/H "
            "is not real for R<1/|H| and is not the enclosing-cap height"
        )
    report["margin"] = bound + slack - max_u
    report["satisfied"] = bool(max_u <= bound + slack)
    return report


def gradient_boundary_check(sol: GraphSolution) -> dict:
    """Interior gradients against the boundary ring, plus the convex slope note.

    For converged Lorentzian solutions the maximum of |Du| is attained on
    the boundary ring up to O(h); on convex domains the report also states
    whether the maximum slope stays below sqrt(2)/2 (up to O(h) slack).
    """
    g = sol.gradient_magnitude()
    ring = sol.domain.ring
    ring_max = float(g[ring].max())
    inner = ~ring
    inner_max = float(g[inner].max()) if inner.any() else 0.0
    h = sol.domain.h
    slack = 2.0 * h
    out = {
        "interior_max": inner_max,
        "boundary_ring_max": ring_max,
        "slack": slack,
        "interior_le_boundary": bool(inner_max <= ring_max + slack),
        "Du_max": sol.Du_max,
    }
    if sol.eps == -1:
        thresh = np.sqrt(2.0) / 2.0
        out["convex_slope_threshold"] = thresh
        out["convex_slope_ok"] = bool(sol.Du_max < thresh + slack)
    return out
