"""Primitive data model and covariance algebra."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussocc.core import (
    _UNIT_TOL,
    MIN_SCALE,
    GaussianPrimitive,
    GaussianSet,
    build_covariance,
    mahalanobis_sq,
    _unit_quaternions,
    quat_to_rotation,
)

from conftest import random_gaussian_set


def axis_angle_rotation(axis, angle):
    """Independent Rodrigues-formula oracle."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def prim(mean=(0, 0, 0), scale=(1, 1, 1), rotation=(1, 0, 0, 0), opacity=1.0, semantics=(0.0, 0.0)):
    return GaussianPrimitive(mean=mean, scale=scale, rotation=rotation, opacity=opacity, semantics=semantics)


quat_strategy = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4
).filter(lambda q: np.linalg.norm(q) > 1e-3)


class TestQuatToRotation:
    def test_identity_quaternion(self):
        np.testing.assert_array_equal(quat_to_rotation([1, 0, 0, 0]), np.eye(3))

    def test_half_turn_about_z(self):
        np.testing.assert_allclose(quat_to_rotation([0, 0, 0, 1]), np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_quarter_turn_about_z_against_axis_angle_oracle(self):
        s = np.sqrt(0.5)
        rot = quat_to_rotation([s, 0, 0, s])
        np.testing.assert_allclose(rot, axis_angle_rotation([0, 0, 1], np.pi / 2), atol=1e-12)
        np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-6)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            quat_to_rotation([0, 0, 0, 0])

    @given(quat_strategy)
    @settings(max_examples=60, deadline=None)
    def test_orthonormal_and_proper(self, q):
        rot = quat_to_rotation(q)
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-10)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-10)

    @given(quat_strategy)
    @settings(max_examples=60, deadline=None)
    def test_double_cover(self, q):
        q = np.asarray(q)
        np.testing.assert_allclose(quat_to_rotation(q), quat_to_rotation(-q), atol=1e-10)


class TestBuildCovariance:
    def test_unit_isotropic(self):
        cd = build_covariance(prim())
        np.testing.assert_array_equal(cd.covariance, np.eye(3))
        assert cd.det == 1.0

    def test_diagonal_case(self):
        cd = build_covariance(prim(scale=(2, 1, 1)))
        np.testing.assert_allclose(cd.covariance, np.diag([4.0, 1.0, 1.0]), atol=1e-14)
        assert cd.det == pytest.approx(4.0, rel=1e-12)

    def test_rotated_against_matrix_product_oracle(self):
        s = np.sqrt(0.5)
        g = prim(scale=(2, 1, 1), rotation=(s, 0, 0, s))
        cd = build_covariance(g)
        rot = quat_to_rotation(g.rotation)
        smat = np.diag(g.scale)
        expected = rot @ smat @ smat.T @ rot.T
        np.testing.assert_allclose(cd.covariance, expected, atol=1e-12)
        np.testing.assert_allclose(cd.covariance, np.diag([1.0, 4.0, 1.0]), atol=1e-12)

    def test_axis_permutation_with_matching_rotation(self):
        # Swapping two axes while rotating 90 degrees about the third leaves
        # the covariance unchanged.
        s = np.sqrt(0.5)
        direct = build_covariance(prim(scale=(1.5, 0.7, 1.0))).covariance
        permuted = build_covariance(prim(scale=(0.7, 1.5, 1.0), rotation=(s, 0, 0, s))).covariance
        np.testing.assert_allclose(direct, permuted, atol=1e-12)

    def test_scale_floor_clamps(self):
        g = prim(scale=(1e-9, -1.0, 1.0))
        assert g.scale[0] == MIN_SCALE
        assert g.scale[1] == MIN_SCALE
        cd = build_covariance(g)
        assert cd.det > 0

    def test_overflowing_determinant_is_inf(self):
        # prod(scale) = 1e300 is finite; its square is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cd = build_covariance(prim(scale=(1e100, 1e100, 1e100)))
        assert cd.det == np.inf
        assert np.all(np.isfinite(cd.covariance))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_primitive_invariants(self, seed):
        rng = np.random.default_rng(seed)
        g = GaussianPrimitive(
            mean=rng.uniform(-3, 3, 3),
            scale=rng.uniform(0.05, 3.0, 3),
            rotation=rng.normal(0, 1, 4),
            opacity=float(rng.uniform(0, 2)),
            semantics=rng.normal(0, 1, 5),
        )
        cd = build_covariance(g)
        np.testing.assert_allclose(cd.covariance, cd.covariance.T, atol=1e-12)
        rot, smat = cd.rotation_matrix, cd.scale_matrix
        np.testing.assert_allclose(cd.covariance, rot @ smat @ smat.T @ rot.T, atol=1e-10)
        assert cd.det == pytest.approx(float(np.prod(g.scale)) ** 2, rel=1e-8)
        np.testing.assert_allclose(cd.inverse @ cd.covariance, np.eye(3), atol=1e-8)
        assert np.all(np.linalg.eigvalsh(cd.covariance) > 0)


class TestMahalanobis:
    def test_zero_at_mean(self):
        assert mahalanobis_sq([0, 0, 0], prim()) == 0.0

    def test_euclidean_case(self):
        assert mahalanobis_sq([1, 2, 2], prim()) == pytest.approx(9.0, rel=1e-12)

    def test_anisotropic_against_linear_solve_oracle(self):
        g = prim(scale=(2, 1, 1))
        cd = build_covariance(g)
        x = np.array([2.0, 0.0, 0.0])
        expected = float(x @ np.linalg.solve(cd.covariance, x))
        assert mahalanobis_sq(x, g) == pytest.approx(expected, rel=1e-12)
        assert mahalanobis_sq(x, g) == pytest.approx(1.0, rel=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_with_equality_only_at_mean(self, seed):
        rng = np.random.default_rng(seed)
        g = GaussianPrimitive(
            mean=rng.uniform(-2, 2, 3),
            scale=rng.uniform(0.1, 2.0, 3),
            rotation=rng.normal(0, 1, 4),
            opacity=1.0,
            semantics=np.zeros(3),
        )
        x = rng.uniform(-3, 3, 3)
        d2 = mahalanobis_sq(x, g)
        assert d2 >= 0.0
        if not np.array_equal(x, g.mean):
            assert d2 > 0.0
        assert mahalanobis_sq(g.mean, g) == 0.0


class TestDataModel:
    def test_quaternion_normalized_on_construction(self):
        g = prim(rotation=(2.0, 0.0, 0.0, 0.0))
        assert np.linalg.norm(g.rotation) == pytest.approx(1.0, abs=1e-6)

    def test_negative_opacity_rejected(self):
        with pytest.raises(ValueError, match="opacity"):
            prim(opacity=-0.5)

    def test_set_requires_shared_class_count(self):
        with pytest.raises(ValueError, match="class count"):
            GaussianSet.from_primitives([prim(semantics=(0.0, 0.0)), prim(semantics=(0.0, 0.0, 0.0))])

    def test_set_roundtrip_through_primitives(self):
        rng = np.random.default_rng(3)
        gs = random_gaussian_set(rng, 4, 3)
        again = GaussianSet.from_primitives([gs.primitive(i) for i in range(len(gs))])
        np.testing.assert_array_equal(gs.means, again.means)
        np.testing.assert_array_equal(gs.logits, again.logits)

    def test_rows_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(5)
        gs = random_gaussian_set(rng, 7, 3)
        rows = gs.rows()
        assert rows.shape == (7, 14)
        back = GaussianSet.from_rows(rows)
        for name in ("means", "scales", "rotations", "opacities", "logits"):
            assert getattr(back, name).tobytes() == getattr(gs, name).tobytes(), name

    def test_set_is_a_fixed_point_of_its_constructor(self):
        # Dividing every quaternion by its norm again moved about a third of
        # these rows by an ulp.
        gs = random_gaussian_set(np.random.default_rng(1), 1000, 4)
        for back in (
            GaussianSet.from_rows(gs.rows()),
            GaussianSet.from_primitives(gs.primitive(i) for i in range(len(gs))),
            GaussianSet(gs.means, gs.scales, gs.rotations, gs.opacities, gs.logits),
        ):
            assert back.rows().tobytes() == gs.rows().tobytes()

    def test_set_is_immutable(self):
        rng = np.random.default_rng(4)
        gs = random_gaussian_set(rng, 2, 2)
        with pytest.raises(ValueError):
            gs.means[0, 0] = 99.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            GaussianSet.from_primitives([])


finite = st.floats(-1e3, 1e3, allow_nan=False)
# A row's fields: scales reach below MIN_SCALE, and half the quaternions are
# made unit before construction.
row_strategy = st.tuples(
    st.lists(finite, min_size=3, max_size=3),
    st.lists(st.floats(0.0, 5.0) | st.floats(0.0, 2 * MIN_SCALE), min_size=3, max_size=3),
    quat_strategy,
    st.booleans(),
    st.floats(0.0, 10.0),
)


class TestPrimitiveIsASetRow:
    @given(st.lists(row_strategy, min_size=1, max_size=5), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_fields_are_the_one_row_sets_bit_for_bit(self, rows, c, data):
        prims, sets = [], []
        for mean, scale, rotation, unit, opacity in rows:
            rotation = np.array(rotation)
            if unit:
                rotation = rotation / np.linalg.norm(rotation)
            semantics = data.draw(st.lists(finite, min_size=c, max_size=c))
            prims.append(GaussianPrimitive(mean, scale, rotation, opacity, semantics))
            sets.append(GaussianSet([mean], [scale], rotation[None], [opacity], [semantics]))
        for g, row in zip(prims, sets):
            for got, want in ((g.mean, row.means[0]), (g.scale, row.scales[0]), (g.rotation, row.rotations[0]),
                              (np.float64(g.opacity), row.opacities[0]), (g.semantics, row.logits[0])):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert not g.mean.flags.writeable
        gs = GaussianSet.from_primitives(prims)
        back = GaussianSet.from_primitives(gs.primitive(i) for i in range(len(gs)))
        assert back.rows().tobytes() == gs.rows().tobytes()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean", (0.0, 0.0)),
            ("mean", (0.0, np.nan, 0.0)),
            ("scale", (1.0, np.inf, 1.0)),
            ("scale", np.ones((1, 3))),
            ("rotation", (0.0, 0.0, 0.0, 0.0)),
            ("rotation", (1.0, 0.0, 0.0)),
            ("opacity", -0.5),
            ("opacity", np.nan),
            ("opacity", np.array([1.0])),
            ("semantics", ()),
            ("semantics", np.zeros((1, 2))),
            ("semantics", (0.0, np.inf)),
        ],
    )
    def test_invalid_field_raises_value_error(self, field, value):
        with pytest.raises(ValueError):
            prim(**{field: value})


class TestUnitQuaternions:
    @given(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4).filter(
            lambda q: np.linalg.norm(q) >= 0.5
        ),
        st.floats(-150.0, 150.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_idempotent_and_unit_at_any_magnitude(self, direction, exponent):
        direction = np.array(direction)
        q = direction * 10.0**exponent
        unit = _unit_quaternions(q)
        assert abs(np.linalg.norm(unit) - 1.0) <= _UNIT_TOL
        assert _unit_quaternions(unit).tobytes() == unit.tobytes()
        # Rows are independent: a stacked batch gives the same bits.
        stacked = _unit_quaternions(np.stack([q, unit, q]))
        assert stacked.tobytes() == np.stack([unit, unit, unit]).tobytes()
        with pytest.raises(ValueError, match="zero-norm quaternion has no orientation"):
            _unit_quaternions(np.stack([q, 0.0 * q]))
        with pytest.raises(ValueError, match="quaternion norm overflows"):
            _unit_quaternions(np.stack([q, direction * 1e300]))

    def test_unit_row_is_kept_and_others_divided(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [0.5, 0.5, -0.5, 0.5]])
        np.testing.assert_array_equal(_unit_quaternions(q), [[1, 0, 0, 0], [1, 0, 0, 0], [0.5, 0.5, -0.5, 0.5]])

    @pytest.mark.parametrize(
        "q, message",
        [
            ([0.0, 0.0, 0.0, 0.0], "zero-norm quaternion has no orientation"),
            ([1e-170, 0.0, 0.0, 0.0], "zero-norm quaternion has no orientation"),
            ([1e200, 0.0, 0.0, 0.0], "quaternion norm overflows the float range"),
            ([[1.0, 0.0, 0.0, 0.0], [0.0, 1e160, 1e160, 0.0]], "quaternion norm overflows the float range"),
        ],
    )
    def test_zero_and_overflowing_norms_are_named(self, q, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                _unit_quaternions(np.array(q))
