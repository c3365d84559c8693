import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeuq import forest
from treeuq.data import Dataset
from treeuq.forest import (
    ForestConfig,
    Forest,
    build_forest,
    candidate_splits,
    forest_predictive,
    forest_votes,
    grow_randomized_tree,
)
from treeuq.tree import single_leaf_tree, tree_predictive


def dataset_from(values, labels, second_feature=None):
    values = np.asarray(values, dtype=float)
    if second_feature is None:
        X = values[:, None]
        names = ("x",)
    else:
        X = np.stack([values, np.asarray(second_feature, float)], axis=1)
        names = ("x", "y")
    return Dataset(X, np.asarray(labels), 2, names)


class TestCandidateSplits:
    def test_pure_split_gain_is_one_bit(self):
        ds = dataset_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [0] * 5 + [1] * 5)
        cands = candidate_splits(ds.features, ds.labels, 2, np.arange(10), 5)
        assert cands[0].gain == pytest.approx(1.0)
        assert cands[0].threshold == pytest.approx(5.5)

    def test_mixed_split_hand_entropy(self):
        # (5,5) -> (3,2)/(2,3): gain = 1 - H(0.6) = 0.02905 bits
        labels = [0, 0, 0, 1, 1, 1, 1, 0, 0, 1]
        ds = dataset_from(np.arange(10), labels)
        cands = candidate_splits(ds.features, ds.labels, 2, np.arange(10), 5)
        only = [c for c in cands if c.threshold == pytest.approx(4.5)]
        want = 1.0 + 0.6 * math.log2(0.6) + 0.4 * math.log2(0.4)
        assert only[0].gain == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.02905, abs=1e-4)

    def test_pure_node_has_no_candidates(self):
        ds = dataset_from([1, 2, 3, 4], [0, 0, 0, 0])
        assert candidate_splits(ds.features, np.zeros(4, int), 2, np.arange(4), 1) == []

    def test_min_leaf_exclusion(self):
        ds = dataset_from([1, 2, 3, 4, 5, 6], [0, 1, 0, 1, 0, 1])
        cands = candidate_splits(ds.features, ds.labels, 2, np.arange(6), 3)
        assert all(c.threshold == pytest.approx(3.5) for c in cands)

    def test_thresholds_are_midpoints(self):
        ds = dataset_from([1.0, 2.0, 4.0, 8.0], [0, 1, 0, 1])
        cands = candidate_splits(ds.features, ds.labels, 2, np.arange(4), 1)
        assert sorted(c.threshold for c in cands) == [1.5, 3.0, 6.0]

    def test_sorted_non_increasing_with_deterministic_ties(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        cands = candidate_splits(X, y, 2, np.arange(40), 2)
        gains = [c.gain for c in cands]
        assert gains == sorted(gains, reverse=True)
        keys = [(-c.gain, c.feature, c.threshold) for c in cands]
        assert keys == sorted(keys)

    @given(seed=st.integers(0, 10_000), n=st.integers(4, 40))
    @settings(max_examples=40, deadline=None)
    def test_gains_never_negative(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, size=n)
        for c in candidate_splits(X, y, 2, np.arange(n), 1):
            assert c.gain >= -1e-12


class TestGrowRandomizedTree:
    def test_single_candidate_is_forced(self):
        ds = dataset_from([1, 2, 3, 4, 5, 6], [0, 0, 0, 1, 1, 1])
        cfg = ForestConfig(tree_count=1, top_k=20, min_leaf_rows=3, seed=0)
        tree = grow_randomized_tree(ds.features, ds.labels, 2, np.arange(6), cfg, np.random.default_rng(0))
        assert tree.split_count == 1
        assert tree.nodes[0].threshold == pytest.approx(3.5)

    def test_pure_training_set_single_leaf(self):
        ds = dataset_from([1, 2, 3, 4], [0, 0, 0, 0])
        cfg = ForestConfig(tree_count=1, min_leaf_rows=1, seed=0)
        tree = grow_randomized_tree(ds.features, np.zeros(4, int), 2, np.arange(4), cfg, np.random.default_rng(0))
        assert tree.split_count == 0

    def test_uniform_choice_over_three_candidates(self):
        # x values 1..4, alternating labels: exactly 3 candidate thresholds
        ds = dataset_from([1, 2, 3, 4], [0, 1, 0, 1])
        cfg = ForestConfig(tree_count=1, top_k=20, min_leaf_rows=1, seed=0)
        rng = np.random.default_rng(123)
        counts = {1.5: 0, 2.5: 0, 3.5: 0}
        trials = 10_000
        for _ in range(trials):
            tree = grow_randomized_tree(ds.features, ds.labels, 2, np.arange(4), cfg, rng)
            counts[round(tree.nodes[0].threshold, 1)] += 1
        for c in counts.values():
            assert c / trials == pytest.approx(1 / 3, abs=0.02)

    @given(seed=st.integers(0, 5000), p_min=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_every_leaf_respects_pruning_factor(self, seed, p_min):
        rng = np.random.default_rng(seed)
        n = 60
        X = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, size=n)
        cfg = ForestConfig(tree_count=1, min_leaf_rows=p_min, seed=0)
        tree = grow_randomized_tree(X, y, 2, np.arange(n), cfg, rng)
        assert min(tree.nodes[i].n for i in tree.leaf_ids) >= p_min

    def test_top_k_one_is_greedy_and_seed_free(self, canonical_data):
        train, _ = canonical_data
        cfg = ForestConfig(tree_count=1, top_k=1, min_leaf_rows=5, seed=0)
        rows = np.arange(100)
        a = grow_randomized_tree(train.features, train.labels, 2, rows, cfg, np.random.default_rng(1))
        b = grow_randomized_tree(train.features, train.labels, 2, rows, cfg, np.random.default_rng(999))
        assert a == b

    def test_deterministic_in_rng(self, canonical_data):
        train, _ = canonical_data
        cfg = ForestConfig(tree_count=1, min_leaf_rows=5, seed=0)
        rows = np.arange(120)
        a = grow_randomized_tree(train.features, train.labels, 2, rows, cfg, np.random.default_rng(5))
        b = grow_randomized_tree(train.features, train.labels, 2, rows, cfg, np.random.default_rng(5))
        assert a == b


class TestBuildForest:
    def test_single_tree_trace(self, canonical_data):
        train, test = canonical_data
        cfg = ForestConfig(tree_count=1, min_leaf_rows=5, seed=2)
        built, trace = build_forest(train, np.arange(120), test.features, test.labels, cfg)
        assert len(built.trees) == 1
        assert trace.ensemble_acc[0] == trace.single_acc[0]
        assert trace.best_validation_acc == trace.single_acc[0]

    def test_averaged_probabilities_match_loop_oracle(self, canonical_data):
        train, test = canonical_data
        cfg = ForestConfig(tree_count=8, min_leaf_rows=5, seed=3)
        built, _ = build_forest(train, np.arange(150), test.features[:50], test.labels[:50], cfg)
        got = forest_predictive(built, test.features[:50], 1.0)
        alpha = np.ones(2)
        want = np.zeros_like(got)
        for t in built.trees:
            want += tree_predictive(t, test.features[:50], alpha)
        want /= len(built.trees)
        assert np.allclose(got, want, atol=1e-12)

    def test_forest_determinism_bytes(self, canonical_data):
        from treeuq.tree import serialize

        train, test = canonical_data
        cfg = ForestConfig(tree_count=6, min_leaf_rows=5, seed=9)
        a, _ = build_forest(train, np.arange(100), test.features[:20], test.labels[:20], cfg)
        b, _ = build_forest(train, np.arange(100), test.features[:20], test.labels[:20], cfg)
        assert [serialize(t) for t in a.trees] == [serialize(t) for t in b.trees]
        assert a.validation_acc == b.validation_acc

    def test_parallel_equals_serial(self, canonical_data):
        from treeuq.tree import serialize

        train, test = canonical_data
        cfg = ForestConfig(tree_count=6, min_leaf_rows=5, seed=4)
        a, _ = build_forest(train, np.arange(100), test.features[:20], test.labels[:20], cfg)
        b, _ = build_forest(train, np.arange(100), test.features[:20], test.labels[:20], cfg, workers=2)
        assert [serialize(t) for t in a.trees] == [serialize(t) for t in b.trees]


class TestForestVotes:
    def _forest_of_leaves(self, leaves):
        trees = tuple(single_leaf_tree(counts=c) for c in leaves)
        return Forest(trees=trees, validation_acc=tuple(0.0 for _ in trees))

    def test_unanimous(self):
        built = self._forest_of_leaves([(0, 5)] * 7)
        votes = forest_votes(built, np.zeros((3, 1)), 1.0)
        assert np.array_equal(votes, np.tile([0, 7], (3, 1)))

    def test_198_to_2_share(self):
        built = self._forest_of_leaves([(0, 5)] * 198 + [(5, 0)] * 2)
        votes = forest_votes(built, np.zeros((1, 1)), 1.0)
        assert votes[0].tolist() == [2, 198]
        assert votes[0].max() / votes[0].sum() == pytest.approx(0.99)

    def test_empty_forest_rejected(self):
        empty = Forest(trees=(), validation_acc=())
        for predict in (forest_predictive, forest_votes):
            with pytest.raises(ValueError):
                predict(empty, np.zeros((1, 1)), 1.0)

    @pytest.mark.parametrize("predict", [forest_predictive, forest_votes])
    @pytest.mark.parametrize("alpha", [(1.0, 1.0, 1.0), (1.0, 0.0), -1.0])
    def test_bad_alpha_names_class_count(self, predict, alpha):
        built = self._forest_of_leaves([(0, 5), (5, 0)])
        with pytest.raises(ValueError, match=r"\b2 (entries|classes)"):
            predict(built, np.zeros((1, 1)), alpha)

    def test_votes_sum_to_tree_count(self, canonical_data):
        train, test = canonical_data
        cfg = ForestConfig(tree_count=11, min_leaf_rows=5, seed=6)
        built, _ = build_forest(train, np.arange(100), test.features[:30], test.labels[:30], cfg)
        votes = forest_votes(built, test.features[:30], 1.0)
        assert (votes.sum(axis=1) == 11).all()
        assert (votes.max(axis=1) / 11 >= 1 / 2).all()


# SHA-256 of every forest output on a 70-tree forest (more than one routing
# block) with a vector prior, recorded from the predictor that routed one
# tree at a time.
GOLDEN_FOREST = {
    "forest_predictive": "2b53c77e2f80fd54699872503c78efb7a48955c381ba621e9bcfe63694d142a2",
    "forest_votes": "c6e4322408dbf06d25b724752605985a8170ff7fa5fd7c3ea5cfdb57ad4c771d",
    "ensemble_acc": "0469111eb17957d82586e2bb31f4dbd9f986e9758c159c6982551027aafa2a3e",
    "single_acc": "fb5043abcad528ac21870568604333d549dd5f30920dc436d319b7aa679bc9f6",
    "validation_acc": "0edcd6a22dd9d89fc54eae13905b9ccb4fa5bf2ed64ff9711d5b373cf0b800f6",
}


def test_golden_forest_outputs(canonical_data):
    train, test = canonical_data
    alpha = (0.7, 1.3)
    X, y = test.features[:200], test.labels[:200]
    cfg = ForestConfig(tree_count=70, min_leaf_rows=5, seed=8)
    built, trace = build_forest(train, np.arange(120), X, y, cfg, alpha=alpha)
    outputs = {
        "forest_predictive": forest_predictive(built, X, alpha),
        "forest_votes": forest_votes(built, X, alpha),
        "ensemble_acc": trace.ensemble_acc,
        "single_acc": trace.single_acc,
        "validation_acc": np.array(built.validation_acc + (trace.best_validation_acc,)),
    }
    digests = {name: hashlib.sha256(value.tobytes()).hexdigest() for name, value in outputs.items()}
    assert digests == GOLDEN_FOREST
