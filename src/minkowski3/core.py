"""Lorentzian linear algebra in Minkowski 3-space.

The ambient space is R^3 equipped with the index-1 metric

    <u, v> = u1*v1 + u2*v2 - u3*v3

in the standard basis E1=(1,0,0), E2=(0,1,0), E3=(0,0,1).  E3 spans the
timelike direction and the future is the timelike cone of E3 (third
coordinate positive).

All vector arguments accept anything convertible to a float array whose
last axis has length 3; `lorentz_dot`, `lorentz_norm` and `cross`
broadcast over leading axes.  Classification helpers operate on single
vectors and return enums.

A vector v is spacelike when <v,v> > 0 *or* v = 0, timelike when
<v,v> < 0, lightlike when <v,v> = 0 and v != 0.  Every causal decision asks
one rule, `_causal3`: v is lightlike when |<v,v>| <= REL_TOL |v|_euclid^2
and v != 0, so 10^k v has the class of v while |v|^2 is a normal float
(|v| from about 1e-150 to 1e150).  Every dependence decision asks one rule,
`_parallel3`: u, v are dependent when |u x v|^2 <= REL_TOL |u|^2 |v|^2
(Euclidean).  By the paper's proposition a plane is spacelike, timelike or
lightlike as its normal is timelike, spacelike or lightlike.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "REL_TOL",
    "MAX_POINTS",
    "ROW_CHUNK",
    "GeometryError",
    "CausalTypeError",
    "AmbiguousCaseError",
    "CausalClass",
    "Subspace",
    "as_vec3",
    "lorentz_dot",
    "lorentz_norm",
    "cross",
    "causal_class",
    "causal_class_subspace",
    "same_timelike_cone",
    "hyperbolic_angle",
    "future_directed",
    "E1",
    "E2",
    "E3",
    "METRIC",
    "write_csv",
]

#: relative tolerance of the one causal rule `_causal3` and dependence rule `_parallel3`
REL_TOL = 1e-12

#: most points an array sized from input may hold (profile steps, mesh vertices,
#: CLI counts, Dirichlet grids); a larger request is an error, not an allocation
MAX_POINTS = 4_000_000

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

#: matrix of the metric in the standard basis, G = diag(1, 1, -1)
METRIC = np.diag([1.0, 1.0, -1.0])

#: the dtype `as_vec3` returns without conversion
_FLOAT64 = np.dtype(np.float64)


class GeometryError(ValueError):
    """Domain-level failure: a precondition on causal type or geometry."""


class CausalTypeError(GeometryError):
    """An argument has the wrong causal character for the operation."""


class AmbiguousCaseError(GeometryError):
    """Input sits on a causal-case boundary within tolerance; refusing to guess."""


class CausalClass(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def as_vec3(v) -> np.ndarray:
    """Validate and convert to a float array with trailing axis of length 3.

    A single vector is checked on Python floats: an inf or NaN coordinate
    carries through to the sum, so a finite sum means finite coordinates.
    A sum that is not finite (finite coordinates can overflow it) and an
    N-D array get the elementwise check.  A float64 array, what the catalog
    evaluators return, skips `np.asarray`, which would return it itself.
    """
    a = v if type(v) is np.ndarray and v.dtype is _FLOAT64 else np.asarray(v, dtype=float)
    if a.shape == (3,):
        x, y, z = a.tolist()
        if math.isfinite(x + y + z):
            return a
    elif a.shape[-1:] != (3,):
        raise GeometryError(f"expected 3 coordinates, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise GeometryError("coordinates must be finite")
    return a


def lorentz_dot(u, v) -> np.ndarray | float:
    """<u,v> = u1 v1 + u2 v2 - u3 v3.  Broadcasts over leading axes; two
    single vectors give a Python float.  Overflow warns or raises as
    np.errstate says.
    """
    r = _dot3(_coords(as_vec3(u)), _coords(as_vec3(v)))
    return r if r.ndim else float(r)


# Each formula of the metric is written out once, below, on coordinate
# triples: three Python floats, or the three coordinate arrays of an (..., 3)
# array (`_coords(a)`, or `a.T` for shape (n, 3)), which get the same bits.


def _coords(a: np.ndarray) -> tuple:
    """The coordinate triple of an (..., 3) array.  A single vector gives
    0-d arrays, so overflow signals as numpy's array arithmetic does."""
    return a[..., 0], a[..., 1], a[..., 2]


def _dot3(u, v):
    """Lorentz product of two coordinate triples."""
    (u1, u2, u3), (v1, v2, v3) = u, v
    return u1 * v1 + u2 * v2 - u3 * v3


def _edot3(u, v):
    """Euclidean product of two coordinate triples."""
    (u1, u2, u3), (v1, v2, v3) = u, v
    return u1 * v1 + u2 * v2 + u3 * v3


def _cross3(u, v) -> list:
    """Lorentzian cross product of two coordinate triples, as a list of the
    three coordinates: np.cross's products with the third one negated."""
    (u1, u2, u3), (v1, v2, v3) = u, v
    return [u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, -(u1 * v2 - u2 * v1)]


def _squares3(v: list, name: str = "vector") -> tuple[float, float]:
    """(<v,v>, |v|_euclid^2) of a vector given as three Python floats, the
    sums of `_dot3` and `_edot3` fused for speed.  Raises GeometryError
    naming `name` when the second (so possibly the first, which is no
    larger) overflows."""
    x, y, z = v
    xy = x * x + y * y
    q, e = xy - z * z, xy + z * z
    if not math.isfinite(e):
        raise GeometryError(f"{name} too large: its squared length overflows")
    return q, e


def lorentz_norm(v) -> np.ndarray | float:
    """Modulus sqrt(|<v,v>|); zero exactly for lightlike or zero vectors.

    Raises GeometryError when <v,v> overflows.
    """
    x = _coords(as_vec3(v))
    with np.errstate(over="ignore", invalid="ignore"):
        q = _dot3(x, x)
    if not np.all(np.isfinite(q)):
        raise GeometryError("vector too large: its Lorentz square overflows")
    return np.sqrt(np.abs(q))


def cross(u, v) -> np.ndarray:
    """Lorentzian vector product, defined by <u x v, w> = det(u, v, w).

    Equals the Euclidean cross product reflected through the plane {z=0};
    the result is Lorentz-orthogonal to both factors.  Broadcasts over
    leading axes; overflow warns or raises as np.errstate says.
    """
    return np.stack(_cross3(_coords(as_vec3(u)), _coords(as_vec3(v))), axis=-1)


def _null3(q, e):
    """The lightlike test of `_causal3`, on floats or arrays alike."""
    return (e > 0) & (abs(q) <= REL_TOL * e)


def _causal3(q, e) -> CausalClass:
    """Causal class from q = <v,v> and e = |v|_euclid^2: lightlike by
    `_null3`, otherwise the sign of q, so the zero vector (e = 0) is
    spacelike.  Every causal decision in the package asks this rule, or
    `_null3` alone where only lightlike or not is needed."""
    if _null3(q, e):
        return CausalClass.LIGHTLIKE
    return CausalClass.SPACELIKE if q >= 0 else CausalClass.TIMELIKE


def _parallel3(d, eu, ev) -> bool:
    """u, v are dependent (parallel, or eu = 0) when d^2 >= (1 - REL_TOL) eu ev,
    with d = <u,v>_euclid, eu = |u|^2, ev = |v|^2: |u x v|^2 <= REL_TOL eu ev.
    A nonzero square below the normal floats raises GeometryError; on normal
    ones (d / eu) d cannot overflow."""
    if 0.0 < eu < sys.float_info.min or 0.0 < ev < sys.float_info.min:
        raise GeometryError("a squared length underflows: it is not a normal float")
    return not eu or (d / eu) * d >= (1.0 - REL_TOL) * ev


def causal_class(v) -> CausalClass:
    """Causal character of a single vector (zero vector counts as spacelike).

    Raises GeometryError when <v,v> or |v|^2 overflows.
    """
    v = as_vec3(v)
    if v.ndim != 1:
        raise GeometryError("causal_class expects a single vector")
    return _causal3(*_squares3(v.tolist()))


@dataclass(frozen=True)
class Subspace:
    """A line or a plane through the origin, spanned by one nonzero vector
    or two independent ones (by `_parallel3`)."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(as_vec3(g) for g in self.generators)
        if len(gens) not in (1, 2) or any(g.ndim != 1 for g in gens):
            raise GeometryError("a Subspace needs 1 or 2 generators, each one vector")
        object.__setattr__(self, "generators", gens)
        self._squares()

    def _squares(self) -> tuple[float, float]:
        """(q, e) whose `_causal3` class is the subspace's: a line's generator's
        squares, or -<n,n> and |n|^2 of a plane's normal n."""
        u, *v = (g.tolist() for g in self.generators)
        qu, eu = _squares3(u, "generator")
        if not v:
            if not eu:
                raise GeometryError("a single generator must be nonzero")
            return qu, eu
        if _parallel3(_edot3(u, v[0]), eu, _squares3(v[0], "generator")[1]):
            raise GeometryError("generators are linearly dependent")
        q, e = _squares3(_cross3(u, v[0]), "normal")
        if e < sys.float_info.min:
            raise GeometryError("normal too small: its squared length underflows")
        return -q, e


def causal_class_subspace(s: Subspace) -> CausalClass:
    """A line has its generator's class.  A plane is spacelike, timelike or
    lightlike as its normal u x v is timelike, spacelike or lightlike."""
    return _causal3(*s._squares())


def _require_timelike(v: np.ndarray, name: str) -> None:
    if causal_class(v) is not CausalClass.TIMELIKE:
        raise CausalTypeError(f"{name} must be timelike, got {causal_class(v)}")


def same_timelike_cone(u, v) -> bool:
    """True iff the timelike vectors u, v lie in the same timelike cone,
    i.e. <u,v> < 0."""
    u = as_vec3(u)
    v = as_vec3(v)
    _require_timelike(u, "u")
    _require_timelike(v, "v")
    return bool(lorentz_dot(u, v) < 0)


def hyperbolic_angle(u, v) -> float:
    """Hyperbolic angle phi >= 0 between same-cone timelike vectors:
    cosh(phi) = -<u,v> / (|u| |v|).

    Raises CausalTypeError for non-timelike input and GeometryError when the
    vectors lie in opposite cones.
    """
    u = as_vec3(u)
    v = as_vec3(v)
    _require_timelike(u, "u")
    _require_timelike(v, "v")
    d = lorentz_dot(u, v)
    if d >= 0:
        raise GeometryError("vectors lie in opposite timelike cones")
    c = -d / (lorentz_norm(u) * lorentz_norm(v))
    # reversed Cauchy-Schwarz guarantees c >= 1; clip rounding noise
    return float(np.arccosh(max(c, 1.0)))


def future_directed(v) -> bool:
    """True iff the timelike or lightlike vector v points to the future
    (third coordinate positive, equivalently <v,E3> < 0 for timelike v)."""
    v = as_vec3(v)
    cc = causal_class(v)
    if cc is CausalClass.SPACELIKE:
        raise CausalTypeError("future/past makes sense only for timelike or lightlike vectors")
    return bool(v[2] > 0)


#: rows that `_write_rows` converts and formats at once: a table of up to
#: MAX_POINTS rows is never held whole as Python numbers or as text.  Larger
#: chunks format no faster, and 4096 rows raised a mesh pass's peak RSS by
#: 1.6 MB where 1024 rows raise it by 0.2 MB.
ROW_CHUNK = 1024


def _write_rows(fh, row_format: str, table: np.ndarray, shift: int = 0) -> None:
    """Write `row_format % row` for each row of the 2-D array `table`, with
    `shift` added to each entry first (1 for an OBJ's 1-based indices).

    Each chunk of ROW_CHUNK rows is shifted, converted by one `tolist()` and
    formatted by one `%` of `row_format` repeated, so memory holds one chunk's
    copy, Python numbers and text (0.5 MB for 8 columns) whatever the
    table's length."""
    for start in range(0, len(table), ROW_CHUNK):
        chunk = table[start:start + ROW_CHUNK]
        if shift:
            chunk = chunk + shift
        fh.write(row_format * len(chunk) % tuple(chunk.ravel().tolist()))


def write_csv(path, header: str, table: np.ndarray) -> None:
    """CSV file of `header` and one line per row of the 2-D array `table`,
    each entry printed with 17 significant digits (`'%.17g' % x`, which is
    `format(float(x), '.17g')`; NaN as `nan`), so identical runs write
    identical bytes.  A table of no rows writes the header alone.

    Rows go through `_write_rows`: ROW_CHUNK = 1024 rows per `tolist()` and
    `%`, so a table of MAX_POINTS rows is never held whole as Python numbers
    or as text."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        _write_rows(fh, ",".join(["%.17g"] * table.shape[1]) + "\n", table)
