"""Binary axis-parallel decision trees: one record, pre-order columns.

A tree is a `DecisionTree`: per node, root first and every left subtree
before its right one, the split feature (-1 at a leaf) and the threshold
(0.0 at a leaf); then the class counts of the leaves, in pre-order (None
for a leaf not yet fitted).  Its fields are tuples, so a tree is an
immutable value, hashable and equal by value.  Nothing edits one: the
forest grows its trees straight into these columns, and the sampler edits
its own `mcmc.ChainState` and takes a `DecisionTree` snapshot of it.
Serialization writes the columns in their order, so it and the feature
paths are canonical.  The feature column fixes the shape: a split's left
child is the next position, and `layout` reads each node's right child and
depth off the column.

Routing convention: a point goes left iff ``x[feature] <= threshold``.

Prediction has one path, `predict_trees`, shared by the posterior average
and the forest.  It stacks PREDICT_BLOCK trees into one flat node table
(feature, threshold, child pair from `layout`, leaf posterior-mean row)
and routes every (tree, row) pair of the block at once, one level per
step, for as many levels as the block's deepest tree.  A block is thrown
away before the next is built, so memory stays O(PREDICT_BLOCK x rows)
however many trees are predicted.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

PREDICT_BLOCK = 16  # trees routed together; memory is O(PREDICT_BLOCK x rows)


@dataclass(frozen=True, slots=True)
class DecisionTree:
    """A tree as pre-order columns (see the module docstring)."""

    feature: tuple
    threshold: tuple
    leaf_counts: tuple

    @property
    def split_count(self) -> int:
        return len(self.leaf_counts) - 1  # a full binary tree has one leaf more than splits


def layout(feature) -> tuple[list, list]:
    """Each node's right child (a leaf's own position) and depth, read off a
    pre-order feature column in one pass; a split's left child is the next
    position.  Raises ValueError unless the column is one full binary tree."""
    right, depth = list(range(len(feature))), [0] * len(feature)
    open_splits, d = [], 0  # splits whose right child is still ahead; the depth at p
    for p, f in enumerate(feature):
        depth[p] = d
        if f >= 0:
            open_splits.append(p)
            d += 1
        elif open_splits:  # the leaf ends a left subtree: the right child comes next
            split = open_splits.pop()
            right[split], d = p + 1, depth[split] + 1
        elif p == len(feature) - 1:
            return right, depth
        else:
            break  # the tree ended before the column did
    raise ValueError(f"feature column {tuple(feature)} is not one full binary tree in pre-order")


# ---------------------------------------------------------------------------
# Routing and leaf statistics
# ---------------------------------------------------------------------------


def fit_partition(
    tree: DecisionTree, X: np.ndarray, y: np.ndarray, class_count: int
) -> tuple[DecisionTree, dict[int, np.ndarray]]:
    """The tree with every leaf's class counts recomputed by routing all
    rows, and the row indices reaching every node (splits included), by
    position.

    Empty leaves are reported with zero counts; validity is the caller's
    concern.
    """
    right, _ = layout(tree.feature)
    parts = {0: np.arange(X.shape[0])}
    for i, feature in enumerate(tree.feature):  # pre-order: a node's rows are routed before its children's
        if feature >= 0:
            idx = parts[i]
            mask = X[idx, feature] <= tree.threshold[i]
            parts[i + 1], parts[right[i]] = idx[mask], idx[~mask]
    counts = tuple(
        tuple(int(c) for c in np.bincount(y[parts[i]], minlength=class_count))
        for i, feature in enumerate(tree.feature)
        if feature < 0
    )
    return dataclasses.replace(tree, leaf_counts=counts), parts


def resolve_alpha(alpha, class_count: int) -> np.ndarray:
    """The Dirichlet prior as a vector of class_count positive pseudo-counts
    with a finite sum."""
    if isinstance(alpha, (int, float)):
        out = np.full(class_count, float(alpha))
    else:
        out = np.asarray(alpha, dtype=np.float64)
        if out.shape != (class_count,):
            raise ValueError(f"alpha must have {class_count} entries, one per class, got shape {out.shape}")
    if not (np.all(out > 0) and math.isfinite(sum(out.tolist()))):
        raise ValueError(
            f"alpha entries must be positive with a finite sum, got {out.tolist()} for {class_count} classes"
        )
    return out


def _node_table(trees: list, alpha: np.ndarray):
    """Stack trees into flat arrays (node i of tree k sits at its tree's
    offset + i): feature, threshold, a child pair per node taken as
    pair[x <= threshold] (a leaf points to itself), the Dirichlet posterior-mean
    row of every node, each tree's root and the deepest node's depth."""
    layouts = [layout(tree.feature) for tree in trees]
    sizes = [len(tree.feature) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature = np.array(list(chain.from_iterable(tree.feature for tree in trees)))
    threshold = np.array(list(chain.from_iterable(tree.threshold for tree in trees)), dtype=np.float64)
    left = np.arange(len(feature)) + (feature >= 0)  # a split's left child is the next node
    right = np.repeat(roots, sizes) + np.array(list(chain.from_iterable(r for r, _ in layouts)))
    pairs = np.stack((right, left), axis=1).ravel()
    is_leaf = feature < 0
    feature[is_leaf] = 0
    counts = np.zeros((len(feature), len(alpha)))
    counts[is_leaf] = list(chain.from_iterable(tree.leaf_counts for tree in trees))
    table = (counts + alpha) / (counts.sum(axis=1, keepdims=True) + alpha.sum())
    return feature, threshold, pairs, table, roots, max(max(depth) for _, depth in layouts)


def predict_trees(trees, X: np.ndarray, alpha):
    """Yield (class probabilities (n, C), hard labels (n,)) for each tree, in order.

    Rows are the Dirichlet posterior mean of the routed leaf, (counts +
    alpha) / (n + sum alpha); labels are their argmax, ties to the lowest
    class index.  Trees are routed PREDICT_BLOCK at a time over one flat
    node table, one level per step.
    """
    if not trees:
        raise ValueError("no trees to predict with")
    alpha = resolve_alpha(alpha, len(trees[0].leaf_counts[0]))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    flat = X.ravel()
    row_starts = np.arange(X.shape[0]) * X.shape[1]
    for start in range(0, len(trees), PREDICT_BLOCK):
        feature, threshold, pairs, table, roots, levels = _node_table(trees[start : start + PREDICT_BLOCK], alpha)
        if feature.max() >= X.shape[1]:  # the flat gather below would read a neighbouring row
            raise ValueError(f"X has too few columns ({X.shape[1]}) for a split on feature {feature.max()}")
        labels = np.argmax(table, axis=1)
        at = np.repeat(roots[:, None], X.shape[0], axis=1)  # (block, n) node per tree and row
        for _ in range(levels):
            goes_left = flat[row_starts + feature[at]] <= threshold[at]
            at = pairs[2 * at + goes_left]
        for leaves in at:
            yield table.take(leaves, axis=0), labels.take(leaves)


def ensemble_average(trees, repeats, X: np.ndarray, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Mean class probabilities (n, C) and hard-vote histogram (n, C) over
    trees, tree t counted repeats[t] times."""
    probs = votes = None
    for (p, labels), count in zip(predict_trees(trees, X, alpha), repeats):
        if probs is None:
            probs, votes = np.zeros_like(p), np.zeros(p.size, dtype=np.int64)
            row_starts = np.arange(0, p.size, p.shape[1])  # each row's first cell in the flat histogram
        for _ in range(count):
            probs += p  # once per count, in order: p * count would change the bits
        votes[row_starts + labels] += count
    return probs / sum(repeats), votes.reshape(probs.shape)


def tree_predictive(tree: DecisionTree, X: np.ndarray, alpha) -> np.ndarray:
    """Per-row class probabilities from the routed leaf of each row."""
    return next(predict_trees((tree,), X, alpha))[0]


def format_feature_path(path, feature_count: int) -> str:
    """1-based display form; digits concatenate when all features fit one digit."""
    shown = [str(f + 1) for f in path]
    return "".join(shown) if feature_count <= 9 else "-".join(shown)


# ---------------------------------------------------------------------------
# Serialization: one node per line, pre-order
#   S <feature> <threshold>
#   L <count_0> <count_1> ...
# ---------------------------------------------------------------------------


def serialize(tree: DecisionTree) -> str:
    lines = []
    leaf_counts = iter(tree.leaf_counts)
    for feature, threshold in zip(tree.feature, tree.threshold):
        if feature >= 0:
            lines.append(f"S {feature} {threshold!r}")
            continue
        counts = next(leaf_counts)
        if counts is None:
            raise ValueError("cannot serialize a tree with unfitted leaves")
        lines.append("L " + " ".join(str(c) for c in counts))
    return "\n".join(lines)


def write_tree_file(path, trees, metas=None) -> None:
    """Dump trees to a text file: `tree nodes=<k> [key=value ...]` headers."""
    metas = metas if metas is not None else [{} for _ in trees]
    chunks = []
    for tree, meta in zip(trees, metas):
        extra = "".join(f" {k}={v}" for k, v in meta.items())
        chunks.append(f"tree nodes={len(tree.feature)}{extra}\n{serialize(tree)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(chunks) + "\n")
