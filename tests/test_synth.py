import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bayes_error_estimate
from treeuq import synth
from treeuq.synth import GaussianMixtureSpec, MixtureComponent


@pytest.fixture(scope="module")
def spec():
    return synth.benchmark_mixture()


class TestMixtureSpec:
    def test_five_components_and_class_weights(self, spec):
        assert len(spec.components) == 5
        class0 = sum(c.weight for c in spec.components if c.label == 0)
        class1 = sum(c.weight for c in spec.components if c.label == 1)
        assert class0 == pytest.approx(0.50)
        assert class1 == pytest.approx(0.50)

    def test_first_kernel_center(self, spec):
        assert spec.components[0].center == (1.0, 1.0)

    def test_isotropic_scale(self, spec):
        assert all(c.scale == 0.03 for c in spec.components)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixtureSpec(
                components=(
                    MixtureComponent(0, 0.6, (0.0, 0.0), 0.03),
                    MixtureComponent(1, 0.6, (1.0, 1.0), 0.03),
                )
            )


class TestSampling:
    def test_deterministic(self, spec):
        a = synth.sample(spec, 250, seed=42)
        b = synth.sample(spec, 250, seed=42)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_class_fraction(self, spec):
        batch = synth.sample(spec, 100_000, seed=1)
        assert np.mean(batch.labels == 0) == pytest.approx(0.5, abs=0.01)

    def test_class_zero_moment(self, spec):
        batch = synth.sample(spec, 100_000, seed=2)
        mean = batch.points[batch.labels == 0].mean(axis=0)
        expected = (
            0.16 * np.array([1.0, 1.0])
            + 0.17 * np.array([-0.7, 0.3])
            + 0.17 * np.array([0.3, 0.3])
        ) / 0.5
        assert np.all(np.abs(mean - expected) < 0.02)

    def test_source_component_matches_label(self, spec):
        batch = synth.sample(spec, 5000, seed=3)
        comp_labels = np.array([c.label for c in spec.components])
        assert np.array_equal(comp_labels[batch.source_components], batch.labels)

    def test_density_integral(self, spec):
        # Monte-Carlo integral over a box spanning +-6 sigma of every center
        rng = np.random.default_rng(0)
        sigma6 = 6 * np.sqrt(0.03)
        lo = np.array([-0.7, 0.3]) - sigma6
        hi = np.array([1.0, 1.0]) + sigma6
        pts = rng.random((400_000, 2)) * (hi - lo) + lo
        integral = synth._class_densities(spec, pts).sum(axis=1).mean() * np.prod(hi - lo)
        assert integral == pytest.approx(1.0, abs=0.01)


def bayes_label(spec, point) -> int:
    """The optimal label: the argmax of the class posteriors, ties to the lowest class."""
    return int(np.argmax(synth.class_posteriors(spec, point)[0]))


class TestBayesClassifier:
    def test_labels_at_kernel_centers(self, spec):
        assert bayes_label(spec, (1.0, 1.0)) == 0
        assert bayes_label(spec, (-0.3, 0.7)) == 1

    def test_matches_direct_density_argmax(self, spec):
        # independent oracle: summed kernel densities evaluated longhand
        rng = np.random.default_rng(7)
        pts = rng.normal(0.2, 0.6, size=(200, 2))
        for p in pts:
            dens = np.zeros(2)
            for c in spec.components:
                d = np.array(p) - np.array(c.center)
                dens[c.label] += (
                    c.weight * np.exp(-0.5 * d @ d / c.scale) / (2 * np.pi * c.scale)
                )
            post = synth.class_posteriors(spec, p)[0]
            assert bayes_label(spec, p) == int(np.argmax(dens))
            assert post[0] == pytest.approx(dens[0] / dens.sum(), abs=1e-12)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_posterior_normalized(self, x, y):
        post = synth.class_posteriors(synth.benchmark_mixture(), (x, y))[0]
        assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_argmax_invariant_to_common_weight_scale(self, spec):
        rng = np.random.default_rng(11)
        pts = rng.normal(0.2, 0.7, size=(100, 2))
        for p in pts:
            scaled = np.zeros(2)
            for c in spec.components:
                d = np.array(p) - np.array(c.center)
                scaled[c.label] += (
                    7.3 * c.weight * np.exp(-0.5 * d @ d / c.scale) / (2 * np.pi * c.scale)
                )
            assert bayes_label(spec, p) == int(np.argmax(scaled))


class TestBayesError:
    def test_estimate_consistent_with_canonical_test_set(self, spec, canonical_data):
        _, test = canonical_data
        est = bayes_error_estimate(spec, 100_000, seed=0)
        pred = np.argmax(synth.class_posteriors(spec, test.features), axis=1)
        test_rate = float(np.mean(pred != test.labels))
        sigma_1000 = np.sqrt(est.rate * (1 - est.rate) / 1000)
        assert abs(test_rate - est.rate) <= 2 * sigma_1000

    def test_degenerate_identical_classes(self):
        twin = GaussianMixtureSpec(
            components=(
                MixtureComponent(0, 0.5, (0.0, 0.0), 0.03),
                MixtureComponent(1, 0.5, (0.0, 0.0), 0.03),
            )
        )
        est = bayes_error_estimate(twin, 100_000, seed=1)
        assert est.rate == pytest.approx(0.5, abs=0.01)

    def test_sample_count_floor(self, spec):
        with pytest.raises(ValueError):
            bayes_error_estimate(spec, 5000, seed=0)

    def test_stderr_is_binomial(self, spec):
        est = bayes_error_estimate(spec, 10_000, seed=2)
        assert est.stderr == pytest.approx(np.sqrt(est.rate * (1 - est.rate) / 10_000))


class TestCanonicalDatasets:
    def test_sizes_and_determinism(self, canonical_data):
        train, test = canonical_data
        assert (train.row_count, test.row_count) == (250, 1000)
        train2, test2 = synth.canonical_datasets()
        assert np.array_equal(train.features, train2.features)
        assert np.array_equal(test.labels, test2.labels)

    def test_every_class_present(self, canonical_data):
        train, test = canonical_data
        assert (train.class_histogram() > 0).all()
        assert (test.class_histogram() > 0).all()
