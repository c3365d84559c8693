import numpy as np
import pytest

from treeuq import synth
from oracles import arena, columns, replace_leaf, single_leaf_tree
from treeuq.tree import fit_partition


@pytest.fixture(scope="session")
def canonical_data():
    """The pinned 250-train / 1000-test synthetic draw."""
    return synth.canonical_datasets()


@pytest.fixture(scope="session")
def random_tree_factory():
    """Build random fitted arena trees by repeated random valid births."""

    def build(X, y, class_count, split_budget, rng, min_leaf_rows=1):
        fitted, parts = fit_partition(columns(single_leaf_tree()), X, y, class_count)
        tree = arena(fitted)
        for _ in range(split_budget):
            leaves = tree.leaf_ids
            leaf = leaves[int(rng.integers(len(leaves)))]
            rows = parts[leaf]
            if len(rows) < 2 * min_leaf_rows:
                continue
            feature = int(rng.integers(X.shape[1]))
            values = np.unique(X[rows, feature])
            threshold = float(values[int(rng.integers(len(values)))])
            candidate = replace_leaf(tree, leaf, feature, threshold)
            fitted, new_parts = fit_partition(columns(candidate), X, y, class_count)
            if min(sum(counts) for counts in fitted.leaf_counts) >= min_leaf_rows:
                tree, parts = arena(fitted), new_parts
        return tree

    return build
