import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ArenaTree,
    Leaf,
    Split,
    _flatten,
    arena,
    collapse_split,
    columns,
    deserialize,
    leaf_predictive,
    prunable_splits,
    read_tree_file,
    replace_leaf,
    route,
    serialize_arena,
    single_leaf_tree,
    summarize,
    with_split_params,
)
from treeuq import tree as tree_module
from treeuq.tree import (
    PREDICT_BLOCK,
    DecisionTree,
    fit_partition,
    format_feature_path,
    layout,
    predict_trees,
    resolve_alpha,
    serialize,
    tree_predictive,
    write_tree_file,
)

ALPHA = np.ones(2)


def two_level_tree():
    """Root splits feature 0 at 0.5; left child splits feature 1 at 0.0."""
    return ArenaTree(
        nodes=(
            Split(feature=0, threshold=0.5, left=1, right=4),
            Split(feature=1, threshold=0.0, left=2, right=3),
            Leaf(counts=(1, 0)),
            Leaf(counts=(0, 1)),
            Leaf(counts=(2, 0)),
        )
    )


class TestRouting:
    def test_single_leaf(self):
        tree = single_leaf_tree(counts=(3, 4))
        assert route(tree, (0.0, 0.0)) == 0

    def test_boundary_goes_left(self):
        tree = ArenaTree(
            nodes=(Split(0, 0.5, 1, 2), Leaf(counts=(1, 0)), Leaf(counts=(0, 1)))
        )
        assert route(tree, (0.5, 9.9)) == 1
        assert route(tree, (0.5000001, 0.0)) == 2

    def test_depth_two_brute_force(self):
        tree = two_level_tree()
        points = np.array([[0.2, -1.0], [0.2, 1.0], [0.9, 0.0], [0.5, 0.0]])
        expected = [2, 3, 4, 2]
        for p, want in zip(points, expected):
            assert route(tree, p) == want
        want_rows = [leaf_predictive(tree.nodes[i].counts, ALPHA) for i in expected]
        assert np.array_equal(tree_predictive(columns(tree), points, ALPHA), want_rows)

    def test_every_point_reaches_exactly_one_leaf(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 2))
        tree = two_level_tree()
        probs = tree_predictive(columns(tree), X, ALPHA)
        for i in range(len(X)):
            leaf = route(tree, X[i])
            assert leaf in tree.leaf_ids
            assert np.array_equal(probs[i], leaf_predictive(tree.nodes[leaf].counts, ALPHA))


class TestRefitCounts:
    def test_counts_sum_to_n(self, canonical_data):
        train, _ = canonical_data
        tree, _ = fit_partition(columns(two_level_tree()), train.features, train.labels, 2)
        total = sum(sum(counts) for counts in tree.leaf_counts)
        assert total == train.row_count

    def test_single_leaf_matches_histogram(self, canonical_data):
        train, _ = canonical_data
        tree, _ = fit_partition(columns(single_leaf_tree()), train.features, train.labels, 2)
        assert tree.leaf_counts == (tuple(train.class_histogram()),)

    def test_empty_leaf_reported(self):
        X = np.array([[0.0], [0.1], [0.2]])
        y = np.array([0, 1, 0])
        tree = ArenaTree(nodes=(Split(0, 99.0, 1, 2), Leaf(), Leaf()))
        fitted, _ = fit_partition(columns(tree), X, y, 2)
        assert fitted.leaf_counts == ((2, 1), (0, 0))
        assert arena(fitted) == ArenaTree(nodes=(Split(0, 99.0, 1, 2), Leaf((2, 1)), Leaf((0, 0))))

    def test_partition_covers_every_node(self):
        X = np.random.default_rng(1).normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(int)
        fitted, parts = fit_partition(columns(two_level_tree()), X, y, 2)
        assert set(parts) == set(range(len(fitted.feature)))
        assert len(parts[0]) == 50


class TestLeafPredictive:
    def test_posterior_mean(self):
        assert leaf_predictive((3, 1), ALPHA) == pytest.approx([4 / 6, 2 / 6])

    def test_empty_leaf_prior_mean(self):
        assert leaf_predictive((0, 0), ALPHA) == pytest.approx([0.5, 0.5])

    def test_symmetric(self):
        assert leaf_predictive((5, 5), ALPHA) == pytest.approx([0.5, 0.5])

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            leaf_predictive((1, 2), np.array([1.0, 0.0]))

    @given(
        counts=st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)),
        alpha=st.floats(0.1, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_positive_and_normalized(self, counts, alpha):
        probs = leaf_predictive(counts, np.full(3, alpha))
        assert (probs > 0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestHardLabel:
    def test_majority(self):
        tree = columns(single_leaf_tree(counts=(3, 1)))
        assert next(predict_trees((tree,), [(0.0,)], ALPHA))[1].tolist() == [0]

    def test_tie_breaks_low(self):
        tree = columns(single_leaf_tree(counts=(2, 2)))
        assert next(predict_trees((tree,), [(0.0,)], ALPHA))[1].tolist() == [0]

    def test_agrees_with_predictive_argmax(self, canonical_data, random_tree_factory):
        train, test = canonical_data
        rng = np.random.default_rng(5)
        tree = columns(random_tree_factory(train.features, train.labels, 2, 8, rng, min_leaf_rows=5))
        probs = tree_predictive(tree, test.features, ALPHA)
        _, labels = next(predict_trees((tree,), test.features, ALPHA))
        assert np.array_equal(labels, np.argmax(probs, axis=1))


class TestPredictTrees:
    @given(
        seed=st.integers(0, 2**16),
        tree_count=st.sampled_from([1, PREDICT_BLOCK, PREDICT_BLOCK + 1]),
        class_count=st.integers(2, 3),
        vector_alpha=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_route_oracle(self, random_tree_factory, seed, tree_count, class_count, vector_alpha):
        """Each tree's rows equal leaf_predictive at the routed leaf, bit for bit."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, size=(40, 3)).astype(np.float64)
        y = rng.integers(0, class_count, size=40)
        budgets = rng.integers(0, 8, size=tree_count)  # mixed depths within one block
        if tree_count > 1:
            budgets[0] = 0  # a root-only leaf among deeper trees
        trees = [random_tree_factory(X, y, class_count, int(b), rng) for b in budgets]
        alpha = tuple(rng.uniform(0.1, 3.0, class_count)) if vector_alpha else 1.0
        # Thresholds are observed values of X, so its rows sit exactly on
        # every split's threshold; the extra rows fall outside the grid.
        points = np.vstack([X, rng.integers(-1, 6, size=(20, 3))])
        alpha_vec = resolve_alpha(alpha, class_count)
        got = list(predict_trees([columns(tree) for tree in trees], points, alpha))
        assert len(got) == len(trees)
        for tree, (probs, labels) in zip(trees, got):
            want = np.array([leaf_predictive(tree.nodes[route(tree, x)].counts, alpha_vec) for x in points])
            assert probs.tobytes() == want.tobytes()
            assert np.array_equal(labels, np.argmax(want, axis=1))

    @given(seed=st.integers(0, 2**16), row_chunk=st.sampled_from([tree_module.ROW_CHUNK, 7]))
    @settings(max_examples=40, deadline=None)
    def test_tree_sequences_match_route_oracle(self, seed, row_chunk):
        """Trees that follow one another as a chain's samples or a forest's
        trees do -- threshold walks at a fixed leaf count, births, deaths,
        unrelated trees with as many leaves, and the root-only tree -- give
        every row the probabilities of the leaf `route` reaches, bit for
        bit, whether the leaf array is rewritten where rows moved or
        rebuilt, and however the rows are chunked.  Chunks of 7 rows are
        always rewritten at a fixed leaf count (fewer rows than a rebuild's
        cost); a change of leaf count always rebuilds.  Rows sit on the
        thresholds and off the grid, and zeros of both signs meet
        thresholds of both signs."""
        rng = np.random.default_rng(seed)
        class_count = 2 + seed % 2
        grid = [-1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0]
        X = rng.choice(grid, size=(30, 2))
        y = rng.integers(0, class_count, size=30)
        points = np.vstack([X, rng.choice(grid + [-9.0, 0.25, 0.75, 3.0], size=(25, 2))])
        thresholds = grid + [0.25, -9.0]  # on the grid, between its values, below all of them

        def birth(tree):
            leaf = int(rng.choice(tree.leaf_ids))
            return replace_leaf(tree, leaf, int(rng.integers(2)), float(rng.choice(thresholds)))

        tree = single_leaf_tree()
        trees, kinds = [], set()
        for _ in range(30):
            prunable = [i for i in tree.split_ids
                        if all(isinstance(tree.nodes[c], Leaf) for c in (tree.nodes[i].left, tree.nodes[i].right))]
            kind = ["walk", "birth", "death", "unrelated", "root"][int(rng.integers(5))]
            if kind == "walk" and tree.split_ids:
                node = int(rng.choice(tree.split_ids))
                tree = with_split_params(tree, node, tree.nodes[node].feature, float(rng.choice(thresholds)))
            elif kind == "death" and prunable:
                tree = collapse_split(tree, int(rng.choice(prunable)))
            elif kind == "unrelated" and tree.split_ids:
                other = single_leaf_tree()
                while other.leaf_count < tree.leaf_count:
                    other = birth(other)
                tree = other
            elif kind == "root":
                tree = single_leaf_tree()
            else:
                kind, tree = "birth", birth(tree)
            kinds.add(kind)
            tree = arena(fit_partition(columns(tree), X, y, class_count)[0])
            trees.append(tree)
        alpha = resolve_alpha(1.0, class_count)
        with mock.patch.object(tree_module, "ROW_CHUNK", row_chunk):
            got = list(predict_trees([columns(tree) for tree in trees], points, alpha))
        assert len(got) == len(trees) and "birth" in kinds
        for tree, (probs, labels) in zip(trees, got):
            want = np.array([leaf_predictive(tree.nodes[route(tree, x)].counts, alpha) for x in points])
            assert probs.tobytes() == want.tobytes()
            assert np.array_equal(labels, np.argmax(want, axis=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_refused(self, bad):
        """A non-finite value has no place among sorted rows: refused, named,
        where `x <= t` would send a NaN right at every split."""
        X = np.zeros((3, 2))
        X[1, 1] = bad
        with pytest.raises(ValueError, match=re.escape(f"got {bad} at row 1, column 1")):
            list(predict_trees((columns(two_level_tree()),), X, ALPHA))

    def test_leaf_counts_of_another_shape_refused(self):
        """A tree must carry one count row per leaf: a row short (or one
        over) would shift every later tree's leaf table."""
        for leaf_counts in [((1, 0),), ((1, 0), (0, 1), (2, 2))]:
            tree = DecisionTree((0, -1, -1), (0.5, 0.0, 0.0), leaf_counts)
            with pytest.raises(ValueError, match=f"2 leaves but {len(leaf_counts)} leaf count rows"):
                list(predict_trees((tree, tree), np.zeros((3, 1)), ALPHA))

    def test_feature_beyond_columns_refused(self):
        with pytest.raises(ValueError, match="split on feature 1"):
            tree_predictive(columns(two_level_tree()), np.zeros((3, 1)), ALPHA)


class TestSummarize:
    def test_single_leaf(self):
        s = summarize(single_leaf_tree(counts=(1, 1)))
        assert (s.split_count, s.leaf_count, s.depth) == (0, 1, 0)
        assert s.feature_path == ()

    def test_nine_split_preorder_path(self):
        # pre-order features (0-based): 1,0,0,0,1,1,0,0,0 -> displayed 211122111
        def chain(features):
            if len(features) == 1:
                return (features[0], 0.0, Leaf(counts=(1, 0)), Leaf(counts=(0, 1)))
            return (features[0], 0.0, chain(features[1:]), Leaf(counts=(0, 1)))

        tree = _flatten(chain([1, 0, 0, 0, 1, 1, 0, 0, 0]))
        s = summarize(tree)
        assert s.split_count == 9
        assert format_feature_path(s.feature_path, 2) == "211122111"

    def test_split_leaf_identity_random_trees(self, random_tree_factory):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        for _ in range(200):
            tree = random_tree_factory(X, y, 2, int(rng.integers(0, 10)), rng)
            s = summarize(tree)
            assert s.leaf_count == s.split_count + 1
            assert len(s.feature_path) == s.split_count

    def test_counts_read_off_a_slotted_arena(self, random_tree_factory):
        """Neither tree form holds an instance dict, and the split counts of
        the columns and of the arena, each read off its own lengths, equal
        the Split nodes of random trees; the leaf counts the Leaf nodes."""
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        for _ in range(100):
            tree = random_tree_factory(X, y, 2, int(rng.integers(0, 12)), rng)
            flat = columns(tree)
            assert not hasattr(tree, "__dict__") and not hasattr(flat, "__dict__")
            assert flat.split_count == tree.split_count == sum(isinstance(nd, Split) for nd in tree.nodes)
            assert len(flat.leaf_counts) == tree.leaf_count == sum(isinstance(nd, Leaf) for nd in tree.nodes)

    def test_many_features_dash_path(self):
        assert format_feature_path((0, 11, 3), 12) == "1-12-4"


class TestPrunableSplits:
    def test_single_leaf(self):
        assert prunable_splits(single_leaf_tree(counts=(1, 1))) == 0

    def test_one_split(self):
        tree = ArenaTree(nodes=(Split(0, 0.0, 1, 2), Leaf(counts=(1, 0)), Leaf(counts=(0, 1))))
        assert prunable_splits(tree) == 1

    def test_balanced_four_leaves(self):
        tree = ArenaTree(
            nodes=(
                Split(0, 0.0, 1, 4),
                Split(1, 0.0, 2, 3),
                Leaf(counts=(1, 0)),
                Leaf(counts=(0, 1)),
                Split(1, 1.0, 5, 6),
                Leaf(counts=(1, 0)),
                Leaf(counts=(0, 1)),
            )
        )
        assert prunable_splits(tree) == 2

    def test_bounds_on_random_trees(self, random_tree_factory):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 2))
        y = rng.integers(0, 2, size=80)
        for _ in range(100):
            tree = random_tree_factory(X, y, 2, int(rng.integers(1, 12)), rng)
            if tree.split_count >= 1:
                assert 1 <= prunable_splits(tree) <= tree.split_count


class TestEdits:
    def test_replace_leaf_then_collapse_roundtrip(self):
        base = single_leaf_tree(counts=(2, 3))
        grown = replace_leaf(base, 0, feature=1, threshold=0.25)
        assert grown.split_count == 1
        back = collapse_split(grown, 0)
        assert back.split_count == 0
        assert back.nodes[0].counts is None  # children were unfitted

    def test_collapse_merges_counts(self):
        tree = ArenaTree(nodes=(Split(0, 0.0, 1, 2), Leaf(counts=(1, 2)), Leaf(counts=(3, 0))))
        merged = collapse_split(tree, 0)
        assert merged.nodes[0].counts == (4, 2)

    def test_with_split_params_preserves_structure(self):
        tree = two_level_tree()
        changed = with_split_params(tree, 1, feature=0, threshold=9.0)
        assert changed.split_count == tree.split_count
        assert changed.nodes[1].feature == 0
        assert changed.nodes[1].threshold == 9.0
        assert summarize(changed).feature_path == (0, 0)

    def test_edit_rejects_wrong_node_kind(self):
        tree = two_level_tree()
        with pytest.raises(ValueError):
            replace_leaf(tree, 0, 0, 0.0)
        with pytest.raises(ValueError):
            collapse_split(tree, 2)
        with pytest.raises(ValueError):
            collapse_split(tree, 0)  # children are not both leaves


class TestSerialization:
    def test_round_trip(self):
        tree = two_level_tree()
        again = deserialize(serialize(columns(tree)))
        assert again == tree
        assert summarize(again).feature_path == summarize(tree).feature_path

    def test_stable_feature_path(self, random_tree_factory):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        y = rng.integers(0, 2, size=40)
        tree = random_tree_factory(X, y, 2, 6, rng)
        assert summarize(deserialize(serialize(columns(tree)))).feature_path == summarize(tree).feature_path

    def test_columns_text_equals_arena_walk(self, random_tree_factory):
        """`serialize`'s one loop over the columns writes, byte for byte,
        the text of the recursive walk over the arena."""
        rng = np.random.default_rng(21)
        for _ in range(150):
            class_count = int(rng.integers(2, 4))
            X = rng.normal(size=(50, 3))
            y = rng.integers(0, class_count, size=50)
            tree = random_tree_factory(X, y, class_count, int(rng.integers(0, 14)), rng)
            assert serialize(columns(tree)) == serialize_arena(tree)

    def test_unfitted_leaf_rejected(self):
        with pytest.raises(ValueError):
            serialize(columns(single_leaf_tree()))

    def test_tree_file_round_trip(self, tmp_path):
        trees = [two_level_tree(), single_leaf_tree(counts=(4, 4))]
        metas = [{"run": 1, "iteration": 10}, {"run": 2, "iteration": 20}]
        path = tmp_path / "trees.txt"
        write_tree_file(path, [columns(t) for t in trees], metas)
        loaded = read_tree_file(path)
        assert [t for t, _ in loaded] == trees
        assert loaded[0][1] == {"run": "1", "iteration": "10"}

    def test_deserialize_rejects_garbage(self):
        with pytest.raises(ValueError):
            deserialize("S 0 0.5\nL 1 2")  # truncated: missing right child


class TestLayout:
    def test_matches_the_arena_oracle(self, random_tree_factory):
        """`layout` gives every node the right child (a leaf its own
        position) and the depth that the arena form's links give."""
        rng = np.random.default_rng(23)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        for _ in range(100):
            tree = random_tree_factory(X, y, 2, int(rng.integers(0, 15)), rng)
            want_right, want_depth = list(range(len(tree.nodes))), [0] * len(tree.nodes)
            for i, node in enumerate(tree.nodes):  # pre-order: a parent's depth is set before its children's
                if isinstance(node, Split):
                    want_right[i] = node.right
                    want_depth[node.left] = want_depth[node.right] = want_depth[i] + 1
            assert layout(columns(tree).feature) == (want_right, want_depth)


class TestColumns:
    def test_converters_are_inverse(self, random_tree_factory):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(50, 2))
        y = rng.integers(0, 2, size=50)
        for _ in range(100):
            tree = random_tree_factory(X, y, 2, int(rng.integers(0, 12)), rng)
            assert arena(columns(tree)) == tree
            assert columns(arena(columns(tree))) == columns(tree)

    def test_an_immutable_value(self):
        """Equal columns built apart are equal and hash alike, so a set of
        sampled trees counts distinct trees; no field can be reassigned."""
        a, b = columns(two_level_tree()), columns(two_level_tree())
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, columns(single_leaf_tree(counts=(3, 0)))}) == 2
        assert [field.name for field in dataclasses.fields(a)] == ["feature", "threshold", "leaf_counts"]
        assert all(isinstance(getattr(a, name), tuple) for name in ("feature", "threshold", "leaf_counts"))
        assert a == DecisionTree((0, 1, -1, -1, -1), (0.5, 0.0, 0.0, 0.0, 0.0), ((1, 0), (0, 1), (2, 0)))
        with pytest.raises(AttributeError):
            a.feature = (-1,)
