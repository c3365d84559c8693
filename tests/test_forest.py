import contextlib
import hashlib
import math
import signal
from types import SimpleNamespace

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
    forest_predictive,
    forest_votes,
    grow_randomized_tree,
    grow_trees,
)
from oracles import ArenaTree, Leaf, Split, columns, single_leaf_tree
from treeuq.tree import serialize, tree_predictive


# The recursive per-tree grower that lockstep growth replaced, kept unchanged
# but for its names as the reference `grow_trees` must reproduce tree for tree.


def _oracle_entropy(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) of count rows; zero counts contribute zero."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, counts / np.where(total > 0, total, 1.0), 0.0)
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=-1)


def _oracle_candidate_arrays(
    X: np.ndarray,
    y: np.ndarray,
    class_count: int,
    rows: np.ndarray,
    min_leaf_rows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unsorted (features, thresholds, gains) arrays of valid candidates."""
    rows = np.asarray(rows, dtype=np.int64)
    n = len(rows)
    empty = (np.empty(0, np.int64), np.empty(0), np.empty(0))
    if n < 2:
        return empty
    sub_y = y[rows]
    parent_counts = np.bincount(sub_y, minlength=class_count)
    if np.count_nonzero(parent_counts) < 2:
        return empty
    parent_entropy = float(_oracle_entropy(parent_counts))

    feature_chunks, threshold_chunks, gain_chunks = [], [], []
    onehot = np.zeros((n, class_count))
    for f in range(X.shape[1]):
        vals = X[rows, f]
        order = np.argsort(vals, kind="stable")
        sorted_vals = vals[order]
        onehot[:] = 0.0
        onehot[np.arange(n), sub_y[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        boundaries = np.nonzero(sorted_vals[:-1] < sorted_vals[1:])[0]
        if boundaries.size == 0:
            continue
        left_n = boundaries + 1
        right_n = n - left_n
        valid = (left_n >= min_leaf_rows) & (right_n >= min_leaf_rows)
        if not valid.any():
            continue
        boundaries = boundaries[valid]
        left_n, right_n = left_n[valid], right_n[valid]
        left_counts = cum[boundaries]
        right_counts = parent_counts - left_counts
        child = (left_n * _oracle_entropy(left_counts) + right_n * _oracle_entropy(right_counts)) / n
        feature_chunks.append(np.full(len(boundaries), f, dtype=np.int64))
        threshold_chunks.append((sorted_vals[boundaries] + sorted_vals[boundaries + 1]) / 2.0)
        gain_chunks.append(parent_entropy - child)
    if not feature_chunks:
        return empty
    return (
        np.concatenate(feature_chunks),
        np.concatenate(threshold_chunks),
        np.concatenate(gain_chunks),
    )


def oracle_grow_randomized_tree(
    X: np.ndarray,
    y: np.ndarray,
    class_count: int,
    rows: np.ndarray,
    cfg: ForestConfig,
    rng: np.random.Generator,
) -> ArenaTree:
    """Recursive induction choosing uniformly among the top-k gain splits.

    Growth stops at pure nodes, nodes below 2 * min_leaf_rows rows (no valid
    child split can exist), or nodes without candidates.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot grow a tree from zero rows")
    nodes: list = []

    def build(node_rows: np.ndarray) -> int:
        my_id = len(nodes)
        nodes.append(None)
        counts = np.bincount(y[node_rows], minlength=class_count)
        if len(node_rows) < 2 * cfg.min_leaf_rows or np.count_nonzero(counts) < 2:
            nodes[my_id] = Leaf(counts=tuple(int(c) for c in counts))
            return my_id
        features, thresholds, gains = _oracle_candidate_arrays(X, y, class_count, node_rows, cfg.min_leaf_rows)
        if features.size == 0:
            nodes[my_id] = Leaf(counts=tuple(int(c) for c in counts))
            return my_id
        order = np.lexsort((thresholds, features, -gains))[: min(cfg.top_k, features.size)]
        pick = order[int(rng.integers(len(order)))]
        feature, threshold = int(features[pick]), float(thresholds[pick])
        mask = X[node_rows, feature] <= threshold
        left_id = build(node_rows[mask])
        right_id = build(node_rows[~mask])
        nodes[my_id] = Split(feature=feature, threshold=threshold, left=left_id, right=right_id)
        return my_id

    build(rows)
    return ArenaTree(nodes=tuple(nodes))


def seeded_generators(seed, count):
    return [np.random.default_rng(np.random.SeedSequence((seed, t))) for t in range(count)]


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, not hang: a grower that splits on another node's candidate can
    send all of a node's rows to one child, and then it never finishes."""

    def fail(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def dataset_from(values, labels, second_feature=None):
    values = np.asarray(values, dtype=float)
    if second_feature is None:
        X = values[:, None]
        names = ("x",)
    else:
        X = np.stack([values, np.asarray(second_feature, float)], axis=1)
        names = ("x", "y")
    return Dataset(X, np.asarray(labels), 2, names)


def value_ranks(X):
    """Each row's place in each column of X sorted stably, as `grow_trees` ranks them."""
    return np.argsort(np.argsort(X, axis=0, kind="stable"), axis=0, kind="stable")


def candidate_splits(X, y, class_count, rows, min_leaf_rows) -> list:
    """`_candidate_arrays` on one row set, as (feature, threshold, gain) records, best gain first."""
    features, thresholds, gains, _ = forest._candidate_arrays(
        X, y, class_count, [np.asarray(rows)], min_leaf_rows, value_ranks(X)
    )
    return [SimpleNamespace(feature=f, threshold=t, gain=g) for f, t, g in zip(features, thresholds, gains)]


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
        assert tree.threshold[0] == pytest.approx(3.5)

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
            counts[round(tree.threshold[0], 1)] += 1
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
        assert min(sum(counts) for counts in tree.leaf_counts) >= p_min

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


@st.composite
def growth_problems(draw):
    """Data on a coarse value grid (dense ties) and a forest config.

    The root holds 2 * min_leaf_rows - 1 rows (a leaf at once),
    2 * min_leaf_rows rows (at most one valid threshold per feature) or more,
    sorted or in a random order.  Some draws turn about half the zeros of X
    into -0.0, which ties with 0.0.
    """
    class_count = draw(st.sampled_from([2, 3, 7]))
    min_leaf_rows = draw(st.sampled_from([1, 1, 2, 3, 5]))
    root_rows = draw(
        st.sampled_from([2 * min_leaf_rows - 1, 2 * min_leaf_rows]) | st.integers(2 * min_leaf_rows, 70)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = root_rows + int(rng.integers(0, 10))
    X = rng.integers(0, draw(st.integers(1, 5)) + 1, size=(total, draw(st.integers(1, 3)))) * 0.5
    if draw(st.booleans()):
        X[(X == 0.0) & (rng.random(X.shape) < 0.5)] = -0.0
    y = rng.integers(0, class_count, size=total)
    rows = rng.choice(total, size=root_rows, replace=False)
    if draw(st.booleans()):
        rows = np.sort(rows)
    cfg = ForestConfig(
        tree_count=draw(st.sampled_from([1, 2, 6])),
        top_k=draw(st.sampled_from([1, 2, 3, 1000])),  # 1000: more than any node's candidates
        min_leaf_rows=min_leaf_rows,
        seed=draw(st.integers(0, 1000)),
    )
    return X, y, class_count, rows, cfg


class TestLockstepGrowth:
    @given(problem=growth_problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_recursive_oracle_tree_for_tree(self, problem):
        X, y, class_count, rows, cfg = problem
        rngs = seeded_generators(cfg.seed, cfg.tree_count)
        oracle_rngs = seeded_generators(cfg.seed, cfg.tree_count)
        with time_limit(10):
            got = grow_trees(X, y, class_count, rows, cfg, rngs)
        want = [oracle_grow_randomized_tree(X, y, class_count, rows, cfg, r) for r in oracle_rngs]
        assert got == [columns(t) for t in want]
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in oracle_rngs]

    def test_trees_sharing_row_sets_still_draw_their_own_splits(self, canonical_data):
        # top_k 1: every tree holds the same rows at every node; top_k 3: roots and
        # some deeper nodes are shared, with distinct row sets of equal size alongside
        train, _ = canonical_data
        rows = np.arange(150)
        for top_k in (1, 3):
            cfg = ForestConfig(tree_count=12, top_k=top_k, min_leaf_rows=2, seed=4)
            with time_limit(10):
                got = grow_trees(train.features, train.labels, 2, rows, cfg, seeded_generators(4, 12))
            want = [
                oracle_grow_randomized_tree(train.features, train.labels, 2, rows, cfg, r)
                for r in seeded_generators(4, 12)
            ]
            assert got == [columns(t) for t in want]
        assert len({serialize(t) for t in got}) > 1  # at top_k 3 the trees do differ

    @given(
        seed=st.integers(0, 2**32 - 1),
        class_count=st.sampled_from([2, 3, 7]),
        min_leaf_rows=st.integers(1, 4),
        top_k=st.sampled_from([None, 1, 3]),
        twin_columns=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_segmented_candidates_are_bitwise_the_per_node_ones(
        self, seed, class_count, min_leaf_rows, top_k, twin_columns
    ):
        """Row sets in any row order; with twin columns every candidate of
        feature 0 has one of equal gain and threshold in feature 1, so the
        merge must order ties across features as one sort of everything by
        (segment, -gain, feature, threshold) does."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 6, size=(40, 3)) * 0.25
        if twin_columns:
            X[:, 1] = X[:, 0]
        y = rng.integers(0, class_count, size=40)
        row_sets = [rng.choice(40, size=int(rng.integers(0, 41)), replace=False) for _ in range(5)]
        row_sets.append(row_sets[0])
        features, thresholds, gains, bounds = forest._candidate_arrays(
            X, y, class_count, row_sets, min_leaf_rows, value_ranks(X), top_k
        )
        for s, rows in enumerate(row_sets):
            f, t, g = _oracle_candidate_arrays(X, y, class_count, rows, min_leaf_rows)
            if twin_columns:
                assert np.array_equal(np.sort(g[f == 0]), np.sort(g[f == 1]))
            order = np.lexsort((t, f, -g))[:top_k]
            part = slice(bounds[s], bounds[s + 1])
            assert features[part].tobytes() == f[order].tobytes()
            assert thresholds[part].tobytes() == t[order].tobytes()
            assert gains[part].tobytes() == g[order].tobytes()


def test_tree_count_bound():
    """More than 2**31 trees is refused at construction, as is none."""
    ForestConfig(tree_count=2**31)
    for count in (0, 2**31 + 1, 10**25):
        with pytest.raises(ValueError, match=f"tree_count must lie in 1..2\\*\\*31, got {count}"):
            ForestConfig(tree_count=count)


class TestBuildForest:
    def test_single_tree_trace(self, canonical_data):
        train, test = canonical_data
        cfg = ForestConfig(tree_count=1, min_leaf_rows=5, seed=2)
        built = build_forest(train.subset(np.arange(120)), test.features, test.labels, cfg)
        assert len(built.trees) == 1
        assert built.ensemble_acc[0] == built.single_acc[0]
        assert built.best_validation_acc == built.single_acc[0]

    def test_averaged_probabilities_match_loop_oracle(self, canonical_data):
        train, test = canonical_data
        cfg = ForestConfig(tree_count=8, min_leaf_rows=5, seed=3)
        built = build_forest(train.subset(np.arange(150)), test.features[:50], test.labels[:50], cfg)
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
        a = build_forest(train.subset(np.arange(100)), test.features[:20], test.labels[:20], cfg)
        b = build_forest(train.subset(np.arange(100)), test.features[:20], test.labels[:20], cfg)
        assert [serialize(t) for t in a.trees] == [serialize(t) for t in b.trees]
        assert a.validation_acc == b.validation_acc

    def test_parallel_equals_serial(self, canonical_data):
        # 7 trees give uneven chunks at 2 and 3 workers; 3 trees at 4 workers leave one empty
        train, test = canonical_data
        for tree_count, worker_counts in ((6, (2,)), (7, (2, 3)), (3, (4,))):
            cfg = ForestConfig(tree_count=tree_count, min_leaf_rows=5, seed=4)
            args = (train.subset(np.arange(100)), test.features[:20], test.labels[:20], cfg)
            serial = build_forest(*args)
            for workers in worker_counts:
                pooled = build_forest(*args, workers=workers)
                assert [serialize(t) for t in pooled.trees] == [serialize(t) for t in serial.trees]
                assert pooled.validation_acc == serial.validation_acc
                for name in ("ensemble_acc", "single_acc", "best_validation_acc", "votes", "probabilities"):
                    assert np.array_equal(getattr(pooled, name), getattr(serial, name))

    def test_trace_holds_the_forest_predictions(self, canonical_data):
        train, test = canonical_data
        alpha = (0.7, 1.3)
        X, y = test.features[:60], test.labels[:60]
        cfg = ForestConfig(tree_count=20, min_leaf_rows=3, seed=5)  # more trees than one routing block
        built = build_forest(train.subset(np.arange(120)), X, y, cfg, alpha=alpha)
        assert np.array_equal(built.votes, forest_votes(built, X, alpha))
        assert np.array_equal(built.probabilities, forest_predictive(built, X, alpha))


class TestForestVotes:
    def _forest_of_leaves(self, leaves):
        trees = tuple(columns(single_leaf_tree(counts=c)) for c in leaves)
        nothing = np.empty(0)  # no evaluation points
        return Forest(trees, tuple(0.0 for _ in trees), nothing, nothing, 0.0, nothing, nothing)

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
        empty = self._forest_of_leaves([])
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
        built = build_forest(train.subset(np.arange(100)), test.features[:30], test.labels[:30], cfg)
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
    built = build_forest(train.subset(np.arange(120)), X, y, cfg, alpha=alpha)
    outputs = {
        "forest_predictive": forest_predictive(built, X, alpha),
        "forest_votes": forest_votes(built, X, alpha),
        "ensemble_acc": built.ensemble_acc,
        "single_acc": built.single_acc,
        "validation_acc": np.array(built.validation_acc + (built.best_validation_acc,)),
    }
    digests = {name: hashlib.sha256(value.tobytes()).hexdigest() for name, value in outputs.items()}
    assert digests == GOLDEN_FOREST
