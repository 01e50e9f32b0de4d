import importlib
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minkowski3 import core
from minkowski3.core import (
    CausalClass,
    CausalTypeError,
    GeometryError,
    E1,
    E2,
    E3,
    Subspace,
    causal_class,
    causal_class_subspace,
    cross,
    future_directed,
    hyperbolic_angle,
    lorentz_dot,
    lorentz_norm,
    same_timelike_cone,
)

from conftest import random_pp_motion

TIMELIKE_COMPONENTS = st.tuples(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(0.01, 3), st.booleans()
)


def _timelike(xyzu):
    x, y, gap, future = xyzu
    z = np.hypot(x, y) + gap
    return np.array([x, y, z if future else -z])


class TestLorentzDot:
    def test_defining_diagonal(self):
        assert lorentz_dot(E3, E3) == -1.0

    def test_lightlike_basis_combination(self):
        assert lorentz_dot(E2 + E3, E2 + E3) == 0.0

    def test_ones(self):
        assert lorentz_dot([1, 1, 1], [1, 1, 1]) == 1.0

    def test_symmetric_bilinear(self, rng):
        u, v, w = rng.normal(size=(3, 3))
        npt.assert_allclose(lorentz_dot(u, v), lorentz_dot(v, u))
        npt.assert_allclose(
            lorentz_dot(u, 2.5 * v + w),
            2.5 * lorentz_dot(u, v) + lorentz_dot(u, w),
            rtol=1e-14,
        )

    def test_broadcasts(self, rng):
        u = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 3))
        out = lorentz_dot(u, v)
        assert out.shape == (5,)
        npt.assert_allclose(out[2], lorentz_dot(u[2], v[2]))

    def test_rejects_nonfinite(self):
        with pytest.raises(GeometryError):
            lorentz_dot([np.nan, 0, 0], E1)


class TestCausalClass:
    @pytest.mark.parametrize(
        "v,expected",
        [
            (E1, CausalClass.SPACELIKE),
            (E2, CausalClass.SPACELIKE),
            (E3, CausalClass.TIMELIKE),
            (E2 + E3, CausalClass.LIGHTLIKE),
            (E1 + E2 + E3, CausalClass.SPACELIKE),
        ],
    )
    def test_catalog(self, v, expected):
        assert causal_class(v) is expected

    def test_zero_vector_is_spacelike(self):
        assert causal_class([0.0, 0.0, 0.0]) is CausalClass.SPACELIKE

    def test_tolerance_is_scale_invariant(self):
        v = 1e8 * (E2 + E3)
        assert causal_class(v) is CausalClass.LIGHTLIKE

    @pytest.mark.parametrize("v", [[0.0, 0.0, 1e308], [1e200, 0.0, 1e200], [1.3e154, 0.0, 1.3e154]])
    def test_overflowing_square_rejected(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="overflows"):
                causal_class(v)


class TestSubspaces:
    @pytest.mark.parametrize(
        "gens,expected",
        [
            ((E1, E2), CausalClass.SPACELIKE),
            ((E1, E3), CausalClass.TIMELIKE),
            ((E2, E3), CausalClass.TIMELIKE),
            ((E1, E2 + E3), CausalClass.LIGHTLIKE),
            ((E1, E1 + E2 + E3), CausalClass.LIGHTLIKE),
            ((E2 + E3, E3), CausalClass.TIMELIKE),
        ],
    )
    def test_catalog(self, gens, expected):
        assert causal_class_subspace(Subspace(gens)) is expected

    def test_line_inherits_vector_class(self):
        assert causal_class_subspace(Subspace((E2 + E3,))) is CausalClass.LIGHTLIKE
        assert causal_class_subspace(Subspace((E3,))) is CausalClass.TIMELIKE
        # |v|^2 underflows to 0: refused as the zero vector is, not classified
        with pytest.raises(GeometryError, match="nonzero"):
            Subspace((1e-200 * E3,))

    def test_dependent_generators_rejected(self):
        with pytest.raises(GeometryError):
            Subspace((E1, 2 * E1))

    def test_plane_class_matches_euclidean_normal(self, rng):
        # a plane is spacelike/timelike/lightlike iff its Euclidean normal
        # is timelike/spacelike/lightlike
        pairing = {
            CausalClass.SPACELIKE: CausalClass.TIMELIKE,
            CausalClass.TIMELIKE: CausalClass.SPACELIKE,
            CausalClass.LIGHTLIKE: CausalClass.LIGHTLIKE,
        }
        for _ in range(200):
            u, v = rng.normal(size=(2, 3))
            n = np.cross(u, v)
            if np.linalg.norm(n) < 1e-3:
                continue
            plane = causal_class_subspace(Subspace((u, v)))
            if plane is CausalClass.LIGHTLIKE or causal_class(n) is CausalClass.LIGHTLIKE:
                continue  # borderline cases depend on tolerance, skip
            assert pairing[plane] is causal_class(n)

    def test_unit_timelike_normal_stretching(self, rng):
        # spacelike plane with Lorentz-unit normal v: euclidean |v| >= 1
        for _ in range(100):
            u, w = rng.normal(size=(2, 3))
            s = Subspace((u, w)) if np.linalg.norm(np.cross(u, w)) > 1e-3 else None
            if s is None or causal_class_subspace(s) is not CausalClass.SPACELIKE:
                continue
            v = cross(u, w)
            v = v / lorentz_norm(v)
            assert np.linalg.norm(v) >= 1.0 - 1e-12


#: the proposition: a plane is spacelike, timelike or lightlike as its
#: normal is timelike, spacelike or lightlike
PLANE_OF_NORMAL = {
    CausalClass.SPACELIKE: CausalClass.TIMELIKE,
    CausalClass.TIMELIKE: CausalClass.SPACELIKE,
    CausalClass.LIGHTLIKE: CausalClass.LIGHTLIKE,
}

CLASSES = st.sampled_from(list(CausalClass))


def _motion(seed: int) -> np.ndarray:
    return random_pp_motion(np.random.default_rng(seed)).linear


@settings(max_examples=300, deadline=None, database=None)
@given(cls=CLASSES, rho=st.floats(0, 0.7), a=st.floats(0, 2 * np.pi), size=st.floats(0.5, 2),
       future=st.booleans(), seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-150, 150))
def test_vector_class_is_scale_and_motion_invariant(cls, rho, a, size, future, seed, k):
    # |<v,v>| >= 0.34 |v|^2 off the cone, so a PP motion (entries up to
    # about 12) keeps v far from the null band; 10^k runs over the range
    # where |v|^2 is a normal float
    c, s, z = np.cos(a), np.sin(a), 1.0 if future else -1.0
    v = size * {CausalClass.SPACELIKE: np.array([c, s, rho * z]),
                CausalClass.TIMELIKE: np.array([rho * c, rho * s, z]),
                CausalClass.LIGHTLIKE: np.array([c, s, z])}[cls]
    w = _motion(seed) @ v
    assert causal_class(w) is cls
    assert causal_class(10.0 ** k * w) is cls


@settings(max_examples=300, deadline=None, database=None)
@given(cls=CLASSES, mix=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-75, 75))
def test_plane_class_is_scale_and_motion_invariant(cls, mix, seed, k):
    # two independent combinations of a catalog pair, moved by a PP motion;
    # |u x v|^2 stays within about [1e-3, 1e5], so 10^k runs over the range
    # where the normal's squares are normal floats
    p, q = {CausalClass.SPACELIKE: (E1, E2), CausalClass.TIMELIKE: (E1, E3),
            CausalClass.LIGHTLIKE: (E1, E2 + E3)}[cls]
    al, be, ga, de = mix
    assume(abs(al * de - be * ga) >= 0.5)
    m = _motion(seed)
    u, v = m @ (al * p + be * q), m @ (ga * p + de * q)
    assert causal_class_subspace(Subspace((u, v))) is cls
    assert PLANE_OF_NORMAL[causal_class(np.cross(u, v))] is cls
    assert causal_class_subspace(Subspace((10.0 ** k * u, 10.0 ** k * v))) is cls


class TestNorm:
    def test_unit_timelike(self):
        assert lorentz_norm(E3) == 1.0

    def test_mixed(self):
        # |<v,v>| = |9 - 25| = 16
        assert lorentz_norm([0.0, 3.0, 5.0]) == 4.0

    def test_lightlike_is_zero(self):
        assert lorentz_norm(E2 + E3) == 0.0

    def test_overflowing_square_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="overflows"):
                lorentz_norm([[1.0, 0.0, 0.0], [0.0, 0.0, 1e308]])
            # <v,v> = 0 is finite even where |v|^2 is not
            assert lorentz_norm([1.3e154, 0.0, 1.3e154]) == 0.0


def _spread_vectors(rng, n: int) -> np.ndarray:
    """n random vectors with magnitudes from 1e-160 to 1e150, both signs,
    and about one coordinate in twenty a signed zero or a subnormal."""
    v = rng.choice([-1.0, 1.0], size=(n, 3)) * 10.0 ** rng.uniform(-160, 150, size=(n, 3))
    pick = rng.uniform(size=(n, 3))
    v[pick < 0.025] = 0.0
    v[pick < 0.0125] = -0.0
    tiny = (pick > 0.975) & (pick < 0.9875)
    v[tiny] = rng.choice([-1.0, 1.0], size=tiny.sum()) * 5e-324 * rng.integers(1, 2 ** 52, size=tiny.sum())
    return v


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


class TestSingleVectorFloatPath:
    """Single vectors are checked and multiplied on Python floats; the
    results must be the bits of the numpy expressions they replace."""

    def test_as_vec3_edges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the coordinate sum overflows, the coordinates are finite
            assert np.array_equal(core.as_vec3([1e308, 1e308, 0]), [1e308, 1e308, 0.0])
            for bad in ([np.inf, -np.inf, 0.0], [np.nan, 0.0, 0.0], [[1.0, 2.0, 3.0], [0.0, np.nan, 0.0]]):
                with pytest.raises(GeometryError, match="finite"):
                    core.as_vec3(bad)

    def test_as_vec3_returns_a_float64_vector_itself(self):
        # a float64 (3,) array is returned as it is, as np.asarray would return
        # it; anything else is converted, and the same inputs are refused
        for v in (np.array([1.0, -0.0, 2.5]), np.array([1e308, 1e308, 0.0])):
            assert core.as_vec3(v) is v
        for given in (np.array([1, 2, 3], dtype=np.float32), np.array([1, 2, 3]), [1, 2, 3],
                      (1.0, 2, 3.0), np.array([1.0, 2.0, 3.0], dtype=">f8")):
            got = core.as_vec3(given)
            assert got is not given and got.dtype == np.float64 and got.tolist() == [1.0, 2.0, 3.0]
        assert core.as_vec3(np.float32([0.1, 0, 0]))[0] == float(np.float32(0.1))
        for bad in (np.array([np.nan, 0.0, 0.0]), np.array([0.0, -np.inf, 0.0]), [np.inf, 0, 0]):
            with pytest.raises(GeometryError, match="coordinates must be finite"):
                core.as_vec3(bad)
        for shape in ((2,), (3, 1), ()):
            with pytest.raises(GeometryError, match=re.escape(f"got shape {shape}")):
                core.as_vec3(np.zeros(shape))

    def test_bit_equal_to_numpy_expressions(self):
        rng = np.random.default_rng(18)
        u, v = _spread_vectors(rng, 100_000), _spread_vectors(rng, 100_000)
        dot_ref = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] - u[:, 2] * v[:, 2]
        sq_ref = u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1] - u[:, 2] * u[:, 2]
        norm_ref = np.sqrt(np.abs(sq_ref))
        euclid_ref = (u * u).sum(axis=-1)
        assert np.isfinite(euclid_ref).all() and (np.abs(dot_ref) < 1e-300).any()
        dots = [lorentz_dot(a, b) for a, b in zip(u, v)]
        norms = [lorentz_norm(a) for a in u]
        squares = [core._squares3(a) for a in u.tolist()]
        assert {type(x) for x in dots} == {float}
        assert {type(x) for x in norms} == {np.float64}
        assert {type(x) for pair in squares for x in pair} == {float}
        assert np.array_equal(_bits(dots), _bits(dot_ref))
        assert np.array_equal(_bits(norms), _bits(norm_ref))
        assert np.array_equal(_bits([q for q, _ in squares]), _bits(sq_ref))
        assert np.array_equal(_bits([e for _, e in squares]), _bits(euclid_ref))
        ref = np.cross(u[:2000], v[:2000])
        ref[:, 2] = -ref[:, 2]
        assert np.array_equal(_bits([cross(a, b) for a, b in zip(u[:2000], v[:2000])]), _bits(ref))

    def test_triples_of_floats_and_of_arrays_give_the_same_bits(self):
        rng = np.random.default_rng(22)
        u, v = _spread_vectors(rng, 20_000), _spread_vectors(rng, 20_000)
        # finite coordinates whose products overflow to inf, and sums of those that are NaN
        big = rng.choice([-1.0, 1.0], size=(2, 200, 3)) * 10.0 ** rng.uniform(155, 300, size=(2, 200, 3))
        u[:200], v[:200] = big
        with np.errstate(over="ignore", invalid="ignore"):
            refs = {core._dot3: u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] - u[:, 2] * v[:, 2],
                    core._edot3: (u * v).sum(axis=-1),
                    core._cross3: np.cross(u, v) * [1.0, 1.0, -1.0]}
            for helper, ref in refs.items():
                arrays = np.array(helper(u.T, v.T)).T
                floats = np.array([helper(a, b) for a, b in zip(u.tolist(), v.tolist())])
                assert np.array_equal(_bits(floats), _bits(arrays))
                assert np.array_equal(floats, ref, equal_nan=True)
                assert np.isinf(floats).any() and np.isnan(floats).any()

    def test_overflow_still_signals_through_numpy(self):
        big = [1e200, 0.0, 0.0]
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                lorentz_dot(big, big)
        with pytest.warns(RuntimeWarning, match="overflow"):
            r = lorentz_dot(big, big)
        assert type(r) is float and r == np.inf
        with pytest.warns(RuntimeWarning, match="overflow"):
            e = cross(big, [0.0, 1e200, 0.0])
        assert e.tolist() == [0.0, 0.0, -np.inf]


class TestCrossMatchesNumpy:
    def test_bit_identical_to_reflected_np_cross(self, rng):
        u = rng.normal(size=(500, 3)) * rng.uniform(1e-3, 1e3, size=(500, 1))
        v = rng.normal(size=(500, 3))
        ref = np.cross(u, v)
        ref[:, 2] = -ref[:, 2]
        assert np.array_equal(cross(u, v), ref)
        assert np.array_equal(cross(u[3], v[3]), ref[3])
        # broadcasting a single vector against a stack
        ref = np.cross(u[0], v)
        ref[:, 2] = -ref[:, 2]
        assert np.array_equal(cross(u[0], v), ref)


class TestCross:
    def test_antisymmetry_zero(self, rng):
        u = rng.normal(size=3)
        npt.assert_array_equal(cross(u, u), np.zeros(3))
        npt.assert_allclose(cross(u, 2 * u), np.zeros(3), atol=1e-15)

    def test_basis_value(self):
        npt.assert_array_equal(cross(E1, E2), np.array([0.0, 0.0, -1.0]))

    def test_defining_determinant_identity(self, rng):
        # <u x v, w> = det(u, v, w), both sides computed independently
        for w in (E1, E2, E3, np.array([1.0, 2.0, 3.0])):
            for _ in range(20):
                u, v = rng.normal(size=(2, 3))
                lhs = lorentz_dot(cross(u, v), w)
                rhs = np.linalg.det(np.column_stack([u, v, w]))
                npt.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_orthogonality(self, rng):
        for _ in range(50):
            u, v = rng.normal(size=(2, 3))
            c = cross(u, v)
            assert abs(lorentz_dot(c, u)) < 1e-12
            assert abs(lorentz_dot(c, v)) < 1e-12

    def test_cross_norm_sinh_identity(self, rng):
        # same-cone timelike u, v: |u x v|^2 = |u|^2 |v|^2 sinh(phi)^2
        for _ in range(100):
            u = _timelike((rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 2), True))
            v = _timelike((rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 2), True))
            phi = hyperbolic_angle(u, v)
            lhs = lorentz_norm(cross(u, v)) ** 2
            rhs = lorentz_norm(u) ** 2 * lorentz_norm(v) ** 2 * np.sinh(phi) ** 2
            npt.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)


class TestTimelikeCones:
    def test_same_cone_positive_multiple(self):
        assert same_timelike_cone(E3, 2 * E3)

    def test_opposite(self):
        assert not same_timelike_cone(E3, -E3)

    def test_boosted(self):
        assert same_timelike_cone(E3, [0.0, np.sinh(1.0), np.cosh(1.0)])

    def test_requires_timelike(self):
        with pytest.raises(CausalTypeError):
            same_timelike_cone(E1, E3)


class TestHyperbolicAngle:
    def test_self_angle_zero(self):
        assert hyperbolic_angle(E3, E3) == 0.0

    def test_boost_parameter(self):
        for t in (0.25, 1.0, 2.5):
            npt.assert_allclose(
                hyperbolic_angle([0.0, np.sinh(t), np.cosh(t)], E3), t, rtol=1e-12
            )

    def test_proportional(self):
        assert hyperbolic_angle(2 * E3, 5 * E3) == 0.0

    def test_opposite_cone_rejected(self):
        with pytest.raises(GeometryError):
            hyperbolic_angle(E3, -E3)


class TestFutureDirected:
    def test_examples(self):
        assert future_directed(E3)
        assert not future_directed(-E3)
        assert future_directed(E2 + E3)

    def test_spacelike_rejected(self):
        with pytest.raises(CausalTypeError):
            future_directed(E1)


@given(TIMELIKE_COMPONENTS, TIMELIKE_COMPONENTS)
@settings(max_examples=300, deadline=None)
def test_reversed_cauchy_schwarz(a, b):
    u, v = _timelike(a), _timelike(b)
    lhs = abs(lorentz_dot(u, v))
    rhs = lorentz_norm(u) * lorentz_norm(v)
    assert lhs >= rhs - 1e-9 * (1 + lhs)


@given(TIMELIKE_COMPONENTS, TIMELIKE_COMPONENTS)
@settings(max_examples=300, deadline=None)
def test_reversed_triangle_inequality(a, b):
    u, v = _timelike(a), _timelike(b)
    if lorentz_dot(u, v) > 0:
        v = -v
    lhs = lorentz_norm(u + v)
    rhs = lorentz_norm(u) + lorentz_norm(v)
    assert lhs >= rhs - 1e-9 * (1 + rhs)


@given(
    st.floats(0.1, 3), st.floats(0, 2 * np.pi), st.floats(0.1, 3),
    st.floats(0, 2 * np.pi), st.booleans(), st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_lightlike_dependence_iff_orthogonal(r1, th1, r2, th2, s1, s2):
    u = r1 * np.array([np.cos(th1), np.sin(th1), 1.0 if s1 else -1.0])
    v = r2 * np.array([np.cos(th2), np.sin(th2), 1.0 if s2 else -1.0])
    sep = abs((th1 - th2 + np.pi) % (2 * np.pi) - np.pi)
    if s1 == s2 and sep == 0.0:
        # exactly proportional null vectors are orthogonal
        assert abs(lorentz_dot(u, v)) <= 1e-12 * r1 * r2
    elif s1 != s2 or sep > 1e-3:
        # well-separated null directions are never orthogonal
        assert abs(lorentz_dot(u, v)) > 1e-9 * r1 * r2


def _write_csv_loop(path, header, rows):
    """write_csv as it was written with a format call per numpy scalar."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


class TestWriteCsvBytes:
    FLOATS = np.array([[-0.0, np.nan, 5e-324], [1.7976931348623157e308, -2.5e-310, 1 / 3],
                       [0.1, -np.inf, np.inf]])
    INTS = np.array([0, -3, 2 ** 53 + 1])
    BOOLS = np.array([True, False, True])
    KINDS = ["float ndarray", "float32 ndarray", "int ndarray", "bool ndarray", "empty ndarray",
             "zip", "generator", "lists", "tuples", "no rows"]

    def rows(self, kind):
        f, i, b = self.FLOATS, self.INTS, self.BOOLS
        if kind == "float ndarray":
            return f
        if kind == "float32 ndarray":
            return np.array([[0.1, -0.0, np.nan], [1e-45, 3.4e38, -np.inf], [1 / 3, 2.5, 7.0]],
                            dtype=np.float32)
        if kind == "int ndarray":
            return np.column_stack([i, i])
        if kind == "bool ndarray":
            return np.column_stack([b, b])
        if kind == "empty ndarray":
            return np.zeros((0, 3))
        if kind == "zip":
            return zip(f[:, 0], i, b, i.tolist(), b.tolist())
        if kind == "lists":  # Python floats, ints past 2^53 and 2^64, bools
            return [[*row.tolist(), 2 ** 53 + 1, 2 ** 64 + 3, bool(k)] for row, k in zip(f, b)]
        if kind == "tuples":  # numpy scalars
            return [(x, np.float32(y), np.int64(k), np.bool_(t))
                    for x, y, k, t in zip(f[:, 1], [0.1, -0.0, 1e-45], i, b)]
        if kind == "no rows":
            return []
        return ((x, *row, int(k), bool(k)) for x, row, k in zip(f[:, 1], f, i))

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_the_scalar_loop(self, tmp_path, kind):
        core.write_csv(tmp_path / "new.csv", "a,b", self.rows(kind))
        _write_csv_loop(tmp_path / "old.csv", "a,b", self.rows(kind))
        new, old = (tmp_path / "new.csv").read_bytes(), (tmp_path / "old.csv").read_bytes()
        assert new == old and new.count(b"\n") == (1 if kind in ("empty ndarray", "no rows") else 4)

    def test_chunks_of_a_long_table_match_the_scalar_loop(self, tmp_path):
        # rows on both sides of a ROW_CHUNK boundary, and a short last chunk
        table = np.random.default_rng(3).standard_normal((2 * core.ROW_CHUNK + 5, 3))
        core.write_csv(tmp_path / "new.csv", "x,y,z", table)
        _write_csv_loop(tmp_path / "old.csv", "x,y,z", table)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize(
    "module", ["core", "isometry", "curves", "surfaces", "meshing", "rotational", "dirichlet"]
)
def test_public_names_resolve(module):
    mod = importlib.import_module(f"minkowski3.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
