"""Probabilistic superposition field and the additive baseline."""

import numpy as np
import pytest
from scipy.special import softmax

from gaussocc.core import GaussianPrimitive, GaussianSet
from gaussocc.field import (
    EvalOptions,
    FieldEvaluator,
    aggregate_geometry,
    compose_occupancy,
    gmm_semantics,
    legacy_additive,
    sample_field,
    single_occupancy_prob,
)

from conftest import random_gaussian_set

NO_CUTOFF = EvalOptions(cutoff_mahalanobis_sq=None)


def isotropic(mean, scale=1.0, opacity=1.0, logits=(0.0, 0.0, 0.0)):
    return GaussianPrimitive(
        mean=mean, scale=(scale, scale, scale), rotation=(1, 0, 0, 0), opacity=opacity, semantics=logits
    )


def brute_force_alpha(x, gs):
    """Direct product form, no cutoff, no log space."""
    from gaussocc.core import mahalanobis_sq

    prod = 1.0
    for i in range(len(gs)):
        prod *= 1.0 - np.exp(-0.5 * mahalanobis_sq(x, gs.primitive(i)))
    return 1.0 - prod


class TestSingleOccupancy:
    def test_unity_at_center(self):
        assert single_occupancy_prob([1, 2, 3], isotropic([1, 2, 3])) == 1.0

    def test_unit_distance_closed_form(self):
        assert single_occupancy_prob([1, 0, 0], isotropic([0, 0, 0])) == pytest.approx(
            np.exp(-0.5), rel=1e-12
        )

    def test_anisotropic_through_mahalanobis_oracle(self):
        from gaussocc.core import mahalanobis_sq

        g = GaussianPrimitive(
            mean=(0, 0, 0), scale=(2, 1, 1), rotation=(1, 0, 0, 0), opacity=1.0, semantics=(0.0,)
        )
        x = [2.0, 0.0, 0.0]
        assert single_occupancy_prob(x, g) == pytest.approx(np.exp(-0.5 * mahalanobis_sq(x, g)), rel=1e-14)
        assert single_occupancy_prob(x, g) == pytest.approx(np.exp(-0.5), rel=1e-12)


class TestAggregateGeometry:
    def test_unity_at_center(self):
        gs = GaussianSet.from_primitives([isotropic([0, 0, 0])])
        assert aggregate_geometry([0, 0, 0], gs) == 1.0

    def test_two_half_probabilities(self):
        # Place the point so each Gaussian contributes exactly exp(-0.5 d2) = 0.5.
        r = np.sqrt(2.0 * np.log(2.0))
        gs = GaussianSet.from_primitives([isotropic([r, 0, 0]), isotropic([-r, 0, 0])])
        assert aggregate_geometry([0, 0, 0], gs, NO_CUTOFF) == pytest.approx(0.75, rel=1e-12)

    def test_matches_brute_force_product(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            gs = random_gaussian_set(rng, 10, 3)
            x = rng.uniform(-5, 5, 3)
            assert aggregate_geometry(x, gs, NO_CUTOFF) == pytest.approx(
                brute_force_alpha(x, gs), abs=1e-12
            )

    def test_bounds_and_dominance(self):
        from gaussocc.core import mahalanobis_sq

        rng = np.random.default_rng(12)
        cutoff = EvalOptions().cutoff
        for _ in range(20):
            gs = random_gaussian_set(rng, 8, 2)
            x = rng.uniform(-6, 6, 3)
            alpha = aggregate_geometry(x, gs)
            d2 = np.array([mahalanobis_sq(x, gs.primitive(i)) for i in range(len(gs))])
            best = float(np.max(np.where(d2 <= cutoff, np.exp(-0.5 * d2), 0.0)))
            assert 0.0 <= alpha <= 1.0
            assert alpha >= best

    def test_monotone_under_added_gaussian(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            gs = random_gaussian_set(rng, 5, 2)
            extra = random_gaussian_set(rng, 1, 2)
            bigger = GaussianSet.from_primitives(
                [gs.primitive(i) for i in range(len(gs))] + [extra.primitive(0)]
            )
            x = rng.uniform(-5, 5, 3)
            assert aggregate_geometry(x, bigger) >= aggregate_geometry(x, gs) - 1e-15

    def test_cutoff_tolerance_bound(self):
        rng = np.random.default_rng(14)
        opts = EvalOptions()
        for _ in range(10):
            gs = random_gaussian_set(rng, 12, 2, spread=8.0)
            x = rng.uniform(-9, 9, 3)
            gap = abs(aggregate_geometry(x, gs, NO_CUTOFF) - aggregate_geometry(x, gs, opts))
            assert gap <= 2.0 * np.exp(-opts.cutoff / 2.0) * len(gs)

    def test_order_invariance(self):
        rng = np.random.default_rng(15)
        gs = random_gaussian_set(rng, 16, 3)
        perm = rng.permutation(len(gs))
        shuffled = GaussianSet.from_primitives([gs.primitive(int(i)) for i in perm])
        for _ in range(10):
            x = rng.uniform(-5, 5, 3)
            assert aggregate_geometry(x, gs) == pytest.approx(
                aggregate_geometry(x, shuffled), abs=1e-12
            )


class TestGmmSemantics:
    def test_zero_logits_give_uniform(self):
        gs = GaussianSet.from_primitives([isotropic([0, 0, 0], logits=(0.0, 0.0, 0.0, 0.0))])
        np.testing.assert_array_equal(gmm_semantics([0.4, 0.1, -0.2], gs), np.full(4, 0.25))

    def test_single_gaussian_returns_exact_softmax(self):
        logits = np.array([0.3, -1.2, 2.0])
        gs = GaussianSet.from_primitives([isotropic([1, 1, 1], logits=tuple(logits))])
        rng = np.random.default_rng(16)
        for _ in range(10):
            x = gs.means[0] + rng.uniform(-3, 3, 3)
            np.testing.assert_array_equal(gmm_semantics(x, gs), softmax(logits))

    def test_well_separated_posterior_bound(self):
        # Separation 6 with unit scales: the far Gaussian's posterior weight
        # is exp(-18) relative, so the mixture matches softmax(c1) to ~1e-8.
        c1, c2 = (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)
        gs = GaussianSet.from_primitives(
            [isotropic([0, 0, 0], logits=c1), isotropic([6, 0, 0], logits=c2)]
        )
        result = gmm_semantics([0, 0, 0], gs, NO_CUTOFF)
        ratio = np.exp(-0.5 * 36.0)  # analytic posterior ratio at the first mean
        assert np.max(np.abs(result - softmax(np.array(c1)))) <= 5 * ratio + 1e-9
        np.testing.assert_allclose(result, softmax(np.array(c1)), atol=1e-6)

    def test_opacity_rescale_invariance(self):
        rng = np.random.default_rng(17)
        gs = random_gaussian_set(rng, 6, 3)
        for lam in (1e-4, 0.5, 3.0, 1e5):
            scaled = GaussianSet(
                means=gs.means,
                scales=gs.scales,
                rotations=gs.rotations,
                opacities=gs.opacities * lam,
                logits=gs.logits,
            )
            x = rng.uniform(-4, 4, 3)
            np.testing.assert_allclose(
                gmm_semantics(x, gs), gmm_semantics(x, scaled), atol=1e-12
            )

    def test_all_zero_opacity_rejected(self):
        gs = GaussianSet.from_primitives([isotropic([0, 0, 0], opacity=0.0)])
        with pytest.raises(ValueError, match="invalid set"):
            gmm_semantics([0, 0, 0], gs)

    def test_far_field_fallback_is_uniform(self):
        gs = GaussianSet.from_primitives([isotropic([0, 0, 0], logits=(3.0, -1.0, 0.5))])
        np.testing.assert_array_equal(gmm_semantics([500, 0, 0], gs), np.full(3, 1.0 / 3.0))


class TestComposeOccupancy:
    def test_far_region_is_pure_empty(self):
        gs = GaussianSet.from_primitives([isotropic([0, 0, 0], logits=(1.0, 2.0))])
        np.testing.assert_array_equal(compose_occupancy([50, 50, 50], gs), [1.0, 0.0, 0.0])

    def test_at_mean_empty_probability_vanishes(self):
        logits = (0.7, -0.3, 1.1)
        gs = GaussianSet.from_primitives([isotropic([2, 2, 2], logits=logits)])
        out = compose_occupancy([2, 2, 2], gs)
        assert out[0] == 0.0
        np.testing.assert_array_equal(out[1:], softmax(np.array(logits)))

    def test_normalization_and_range(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            gs = random_gaussian_set(rng, rng.integers(1, 9), 4)
            x = rng.uniform(-6, 6, 3)
            out = compose_occupancy(x, gs)
            assert out.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_sample_field_bundles_consistently(self):
        rng = np.random.default_rng(19)
        gs = random_gaussian_set(rng, 5, 3)
        x = rng.uniform(-4, 4, 3)
        fs = sample_field(x, gs)
        assert fs.geometry_prob == pytest.approx(aggregate_geometry(x, gs), abs=1e-15)
        np.testing.assert_allclose(fs.full_prediction, compose_occupancy(x, gs), atol=1e-15)
        assert fs.semantics_expectation.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("opts", [EvalOptions(), NO_CUTOFF])
    def test_sample_field_equals_the_batch_methods_bitwise(self, opts):
        rng = np.random.default_rng(20)
        gs = random_gaussian_set(rng, 12, 3)
        ev = FieldEvaluator(gs, opts)
        for x in rng.uniform(-6, 6, size=(20, 3)):
            fs = sample_field(x, gs, opts)
            assert fs.geometry_prob == ev.alpha(x)[0]
            np.testing.assert_array_equal(fs.semantics_expectation, ev.semantics(x)[0])
            np.testing.assert_array_equal(fs.full_prediction, ev.compose(x)[0])


class TestLegacyAdditive:
    def test_single_onehot_at_center(self):
        logits = (0.0, 1.0, 0.0, 0.0)
        gs = GaussianSet.from_primitives([isotropic([0, 0, 0], logits=logits)])
        np.testing.assert_array_equal(legacy_additive([0, 0, 0], gs), logits)

    def test_coincident_pair_doubles(self):
        g = isotropic([1, 0, 0], logits=(0.2, 0.5, -0.1))
        one = GaussianSet.from_primitives([g])
        two = GaussianSet.from_primitives([g, g])
        x = [1.4, 0.2, -0.3]
        np.testing.assert_allclose(
            legacy_additive(x, two), 2.0 * legacy_additive(x, one), atol=1e-15
        )

    def test_matches_termwise_summation_oracle(self):
        from gaussocc.core import mahalanobis_sq

        rng = np.random.default_rng(20)
        gs = random_gaussian_set(rng, 7, 4)
        x = rng.uniform(-4, 4, 3)
        expected = np.zeros(4)
        for i in range(len(gs)):
            g = gs.primitive(i)
            d2 = mahalanobis_sq(x, g)
            expected += g.opacity * np.exp(-0.5 * d2) * g.semantics
        np.testing.assert_allclose(legacy_additive(x, gs, NO_CUTOFF), expected, atol=1e-12)


class TestNeighborIndex:
    def test_indexed_evaluation_matches_dense(self):
        rng = np.random.default_rng(21)
        gs = random_gaussian_set(rng, 24, 3, spread=10.0)
        dense = FieldEvaluator(gs, EvalOptions())
        indexed = FieldEvaluator(gs, EvalOptions(neighbor_index=True))
        points = rng.uniform(-12, 12, size=(400, 3))
        np.testing.assert_allclose(indexed.alpha(points), dense.alpha(points), rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            indexed.compose(points), dense.compose(points), rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(
            indexed.semantics(points), dense.semantics(points), rtol=0, atol=1e-14
        )


class TestQueryPoints:
    METHODS = ("alpha", "semantics", "compose", "legacy", "compose_labels", "legacy_labels")

    @pytest.mark.parametrize("opts", [EvalOptions(), NO_CUTOFF], ids=["cutoff", "no-cutoff"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_names_its_row(self, opts, bad):
        ev = FieldEvaluator(random_gaussian_set(np.random.default_rng(3), 4, 3), opts)
        points = np.zeros((5, 3))
        points[2, 1] = bad
        points[4, 0] = bad
        for method in self.METHODS:
            with pytest.raises(ValueError, match=r"query point 2 is not finite"):
                getattr(ev, method)(points)

    @pytest.mark.parametrize("opts", [EvalOptions(), NO_CUTOFF], ids=["cutoff", "no-cutoff"])
    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (2, 4, 3), (0,)])
    def test_points_must_be_n_by_3(self, opts, shape):
        ev = FieldEvaluator(random_gaussian_set(np.random.default_rng(3), 4, 3), opts)
        for method in self.METHODS:
            with pytest.raises(ValueError, match=r"query points must be an \(N, 3\) array"):
                getattr(ev, method)(np.zeros(shape))

    def test_one_point_and_no_points_are_accepted(self):
        ev = FieldEvaluator(random_gaussian_set(np.random.default_rng(3), 4, 3))
        assert ev.alpha(np.zeros(3)).shape == (1,)
        assert ev.compose(np.zeros((0, 3))).shape == (0, 4)

    def test_single_point_helpers_reject_a_bad_point(self):
        gs = random_gaussian_set(np.random.default_rng(3), 4, 3)
        with pytest.raises(ValueError, match="query point 0 is not finite"):
            aggregate_geometry([0.0, np.nan, 0.0], gs)
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            compose_occupancy([0.0, 0.0], gs)


class TestEvalOptions:
    def test_cutoff_must_be_positive(self):
        with pytest.raises(ValueError):
            EvalOptions(cutoff_mahalanobis_sq=0.0)

    def test_unknown_fallback_rejected(self):
        # The uniform fallback is the only one, so no fallback is settable.
        for policy in ("zeros", "uniform"):
            with pytest.raises(TypeError):
                EvalOptions(gmm_fallback=policy)
