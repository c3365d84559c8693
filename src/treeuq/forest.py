"""Randomized decision-tree ensembles.

Trees are grown greedily, but at every node one of the best `top_k`
candidate splits (ranked by information gain) is chosen uniformly at
random, which supplies the classifier diversity the ensemble needs.
Candidate thresholds are midpoints of consecutive distinct feature values;
candidates leaving a child below the pruning factor are dropped.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, split_validation
from .tree import DecisionTree, Leaf, Split, ensemble_average, predict_trees


@dataclass(frozen=True)
class ForestConfig:
    tree_count: int = 200
    top_k: int = 20
    min_leaf_rows: int = 5
    validation_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.tree_count < 1:
            raise ValueError("tree_count must be at least 1")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.min_leaf_rows < 1:
            raise ValueError("min_leaf_rows must be at least 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class Forest:
    trees: tuple[DecisionTree, ...]
    validation_acc: tuple[float, ...]  # per-tree accuracy on the held-out part


@dataclass(frozen=True)
class ConvergenceTrace:
    """Evaluation-set accuracy while the ensemble grows.

    ensemble_acc[t] averages trees 0..t; single_acc[t] is tree t alone;
    best_validation_acc is the evaluation accuracy of the tree that scored
    highest on the validation subset.
    """

    ensemble_acc: np.ndarray
    single_acc: np.ndarray
    best_validation_acc: float


class SplitCandidate(NamedTuple):
    feature: int
    threshold: float
    gain: float


def _entropy(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) of count rows; zero counts contribute zero."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, counts / np.where(total > 0, total, 1.0), 0.0)
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=-1)


def _candidate_arrays(
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
    parent_entropy = float(_entropy(parent_counts))

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
        child = (left_n * _entropy(left_counts) + right_n * _entropy(right_counts)) / n
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


def candidate_splits(
    X: np.ndarray,
    y: np.ndarray,
    class_count: int,
    rows: np.ndarray,
    min_leaf_rows: int,
) -> list[SplitCandidate]:
    """All valid (feature, threshold) pairs at a node, best gain first.

    Empty when the node is pure, has fewer than two rows, or no threshold
    leaves both children with at least min_leaf_rows rows.  Ties in gain
    break by (feature, threshold) ascending.
    """
    features, thresholds, gains = _candidate_arrays(X, y, class_count, rows, min_leaf_rows)
    order = np.lexsort((thresholds, features, -gains))
    return [
        SplitCandidate(int(features[i]), float(thresholds[i]), float(gains[i])) for i in order
    ]


def grow_randomized_tree(
    X: np.ndarray,
    y: np.ndarray,
    class_count: int,
    rows: np.ndarray,
    cfg: ForestConfig,
    rng: np.random.Generator,
) -> DecisionTree:
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
        features, thresholds, gains = _candidate_arrays(X, y, class_count, node_rows, cfg.min_leaf_rows)
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
    return DecisionTree(nodes=tuple(nodes))


def _accuracy(predicted: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean(predicted == targets))


def _tree_job(args) -> DecisionTree:
    X, y, class_count, rows, cfg, seed, index = args
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    return grow_randomized_tree(X, y, class_count, rows, cfg, rng)


def build_forest(
    ds: Dataset,
    train_rows: np.ndarray,
    eval_points: np.ndarray,
    eval_labels: np.ndarray,
    cfg: ForestConfig,
    alpha=1.0,
    workers: int = 1,
) -> tuple[Forest, ConvergenceTrace]:
    """Grow the ensemble and track evaluation accuracy as trees accumulate.

    train_rows is split internally into an induction part and a validation
    holdout (used only to select the best single tree).  Per-tree PRNG
    streams derive from (seed, tree_index), so parallel and serial growth
    produce identical forests.
    """
    train_rows = np.asarray(train_rows, dtype=np.int64)
    eval_points = np.asarray(eval_points, dtype=np.float64)
    eval_labels = np.asarray(eval_labels, dtype=np.int64)
    split = split_validation(train_rows, ds.labels, cfg.validation_fraction, seed=cfg.seed)
    induction, validation = split.train, split.holdout

    jobs = [
        (ds.features, ds.labels, ds.class_count, induction, cfg, cfg.seed, t)
        for t in range(cfg.tree_count)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trees = list(pool.map(_tree_job, jobs))
    else:
        trees = [_tree_job(job) for job in jobs]

    val_X, val_y = ds.features[validation], ds.labels[validation]
    validation_acc = tuple(_accuracy(labels, val_y) for _, labels in predict_trees(trees, val_X, alpha))

    ensemble_acc = np.empty(cfg.tree_count)
    single_acc = np.empty(cfg.tree_count)
    prob_sum = np.zeros((len(eval_labels), ds.class_count))
    for t, (p, labels) in enumerate(predict_trees(trees, eval_points, alpha)):
        prob_sum += p
        single_acc[t] = _accuracy(labels, eval_labels)
        ensemble_acc[t] = _accuracy(np.argmax(prob_sum, axis=1), eval_labels)

    best = int(np.argmax(validation_acc))
    forest = Forest(trees=tuple(trees), validation_acc=validation_acc)
    trace = ConvergenceTrace(
        ensemble_acc=ensemble_acc,
        single_acc=single_acc,
        best_validation_acc=float(single_acc[best]),
    )
    return forest, trace


def forest_predictive(forest: Forest, X: np.ndarray, alpha) -> np.ndarray:
    """Arithmetic mean of the per-tree class probabilities."""
    return ensemble_average(forest.trees, [1] * len(forest.trees), X, alpha)[0]


def forest_votes(forest: Forest, X: np.ndarray, alpha) -> np.ndarray:
    """Histogram of per-tree hard labels; rows sum to the tree count."""
    return ensemble_average(forest.trees, [1] * len(forest.trees), X, alpha)[1]
