"""Randomized decision-tree ensembles.

Trees are grown greedily, but at every node one of the best `top_k`
candidate splits (ranked by information gain) is chosen uniformly at
random, which supplies the classifier diversity the ensemble needs.
Candidate thresholds are midpoints of consecutive distinct feature values;
candidates leaving a child below the pruning factor are dropped.

A forest's trees grow in lockstep (`grow_trees`).  Each tree keeps its own
pre-order stack of the row sets still to grow and its own generator.  Per
step, every unfinished tree pops nodes until one needs candidates (small
and pure nodes become leaves on the spot), and one segmented pass computes
the candidates of all those nodes together.  Nodes of different trees that hold the same rows, such as
every root at the first step, share one segment, so a step never computes
a row set twice.  Each tree then draws its split from its own generator,
in the same pre-order as growing it alone, so the forest does not depend
on how many trees grow together or on the worker count.  A tree's nodes
are appended to its pre-order `tree.DecisionTree` columns (feature,
threshold, leaf counts) as they are reached, so no tree is converted
afterwards.  `build_forest` grows on all rows of one training `Dataset`
and hands back one `Forest` record.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, split_validation
from .tree import DecisionTree, ensemble_average, predict_trees


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
    """The trees and how they score on the evaluation points as the
    ensemble grows: ensemble_acc[t] averages trees 0..t, single_acc[t] is
    tree t alone, and best_validation_acc is the evaluation accuracy of the
    tree that scored highest on the validation holdout.  votes and
    probabilities are what `forest_votes` and `forest_predictive` give on
    the evaluation points, bit for bit."""

    trees: tuple[DecisionTree, ...]
    validation_acc: tuple[float, ...]  # per-tree accuracy on the validation holdout
    ensemble_acc: np.ndarray
    single_acc: np.ndarray
    best_validation_acc: float
    votes: np.ndarray  # (n, C) hard-vote histogram of all trees
    probabilities: np.ndarray  # (n, C) mean class probabilities of all trees


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
    row_sets: list[np.ndarray],
    min_leaf_rows: int,
    top_k: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Valid candidates of every row set, in one segmented pass.

    Returns (features, thresholds, gains, bounds).  The candidates of
    row_sets[s] sit at positions bounds[s]:bounds[s + 1], best gain first,
    ties broken by (feature, threshold) ascending; with top_k, only the
    first top_k of them.  A row set that is pure, has fewer than two rows,
    or has no threshold leaving both children with at least min_leaf_rows
    rows has none.  Each segment's class counts are its slice of one
    cumulative sum less the sum before the segment; the 0/1 counts are
    whole numbers in float64, so this is exact and every gain has the bits
    a pass over that row set alone would give.
    """
    sizes = np.array([len(r) for r in row_sets], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    rows = np.concatenate(row_sets)
    seg = np.repeat(np.arange(len(row_sets)), sizes)
    sub_y = y[rows]
    parent_counts = np.bincount(seg * class_count + sub_y, minlength=len(row_sets) * class_count)
    parent_counts = parent_counts.reshape(len(row_sets), class_count)
    parent_entropy = _entropy(parent_counts)
    impure = np.count_nonzero(parent_counts, axis=1) >= 2
    # a boundary between sorted positions i and i + 1 needs both in one impure segment
    inner = (seg[:-1] == seg[1:]) & impure[seg[:-1]]

    # (segment, feature, threshold, gain) of the candidates kept so far, in final order;
    # merging feature by feature keeps at most top_k per segment alive
    kept = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0))
    onehot = np.zeros((len(rows) + 1, class_count))  # row 0 stays zero: cum[i] sums sorted rows < i
    for f in range(X.shape[1]):
        vals = X[rows, f]
        order = np.lexsort((vals, seg))  # segments keep their places; values ascend within each
        sorted_vals = vals[order]
        onehot[1:] = 0.0
        onehot[np.arange(1, len(rows) + 1), sub_y[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        boundaries = np.nonzero(inner & (sorted_vals[:-1] < sorted_vals[1:]))[0]
        b_seg = seg[boundaries]
        left_n = boundaries + 1 - starts[b_seg]
        right_n = sizes[b_seg] - left_n
        valid = (left_n >= min_leaf_rows) & (right_n >= min_leaf_rows)
        boundaries, b_seg = boundaries[valid], b_seg[valid]
        left_n, right_n = left_n[valid], right_n[valid]
        left_counts = cum[boundaries + 1] - cum[starts[b_seg]]
        right_counts = parent_counts[b_seg] - left_counts
        child = (left_n * _entropy(left_counts) + right_n * _entropy(right_counts)) / sizes[b_seg]
        found = (
            b_seg,
            np.full(len(boundaries), f, dtype=np.int64),
            (sorted_vals[boundaries] + sorted_vals[boundaries + 1]) / 2.0,
            parent_entropy[b_seg] - child,
        )
        segments, features, thresholds, gains = (np.concatenate(pair) for pair in zip(kept, found))
        # stable, and earlier features come first: the order one sort of everything gives
        order = np.lexsort((thresholds, features, -gains, segments))
        kept = tuple(a[order] for a in (segments, features, thresholds, gains))
        if top_k is not None:
            rank = np.arange(len(order)) - np.searchsorted(kept[0], kept[0])
            kept = tuple(a[rank < top_k] for a in kept)
    segments, features, thresholds, gains = kept
    bounds = np.concatenate(([0], np.cumsum(np.bincount(segments, minlength=len(row_sets)))))
    return features, thresholds, gains, bounds


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    class_count: int,
    rows: np.ndarray,
    cfg: ForestConfig,
    rngs: list[np.random.Generator],
) -> list[DecisionTree]:
    """Grow one tree per generator from the same rows, all trees in lockstep.

    Each node chooses uniformly among its top-k gain splits.  Growth stops
    at pure nodes, nodes below 2 * min_leaf_rows rows (no valid child split
    can exist), or nodes without candidates.  Tree t draws only from
    rngs[t], in pre-order, so it is the tree it would be if grown alone.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot grow a tree from zero rows")
    # per tree, in pre-order: each node's feature (-1 at a leaf) and threshold,
    # and the leaves' class counts
    feature, threshold, leaf_counts = ([[] for _ in rngs] for _ in range(3))
    stacks = [[rows] for _ in rngs]  # per tree: the rows of the nodes still to grow
    active = list(range(len(rngs)))
    while active:
        pending = []  # (tree, position, rows, class counts) of the nodes that need candidates
        for t in active:
            stack = stacks[t]
            while stack:
                node_rows = stack.pop()
                at = len(feature[t])
                feature[t].append(-1)
                threshold[t].append(0.0)
                counts = np.bincount(y[node_rows], minlength=class_count)
                if len(node_rows) < 2 * cfg.min_leaf_rows or np.count_nonzero(counts) < 2:
                    leaf_counts[t].append(tuple(int(c) for c in counts))
                    continue
                pending.append((t, at, node_rows, counts))
                break
        if pending:
            segment_of: dict[bytes, int] = {}
            row_sets, node_segments = [], []
            for _, _, node_rows, _ in pending:
                # a node's rows keep the order of `rows`, so equal row sets have equal bytes
                key = node_rows.tobytes()
                if key not in segment_of:
                    segment_of[key] = len(row_sets)
                    row_sets.append(node_rows)
                node_segments.append(segment_of[key])
            features, thresholds, _, bounds = _candidate_arrays(
                X, y, class_count, row_sets, cfg.min_leaf_rows, cfg.top_k
            )
            for (t, at, node_rows, counts), s in zip(pending, node_segments):
                first, count = int(bounds[s]), int(bounds[s + 1] - bounds[s])
                if count == 0:
                    leaf_counts[t].append(tuple(int(c) for c in counts))
                    continue
                pick = first + int(rngs[t].integers(count))
                f, thr = int(features[pick]), float(thresholds[pick])
                feature[t][at], threshold[t][at] = f, thr
                mask = X[node_rows, f] <= thr
                stacks[t].append(node_rows[~mask])
                stacks[t].append(node_rows[mask])
        active = [t for t in active if stacks[t]]
    return [DecisionTree(tuple(f), tuple(thr), tuple(c)) for f, thr, c in zip(feature, threshold, leaf_counts)]


def grow_randomized_tree(
    X: np.ndarray,
    y: np.ndarray,
    class_count: int,
    rows: np.ndarray,
    cfg: ForestConfig,
    rng: np.random.Generator,
) -> DecisionTree:
    """One tree of `grow_trees`: induction choosing uniformly among the top-k gain splits."""
    return grow_trees(X, y, class_count, rows, cfg, [rng])[0]


def _accuracy(predicted: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean(predicted == targets))


def _chunk_job(args) -> list[DecisionTree]:
    X, y, class_count, rows, cfg, indices = args
    rngs = [np.random.default_rng(np.random.SeedSequence((cfg.seed, int(t)))) for t in indices]
    return grow_trees(X, y, class_count, rows, cfg, rngs)


def build_forest(
    ds: Dataset,
    eval_points: np.ndarray,
    eval_labels: np.ndarray,
    cfg: ForestConfig,
    alpha=1.0,
    workers: int = 1,
) -> Forest:
    """Grow the ensemble on all of ds's rows and score it on the evaluation
    points as trees accumulate.

    ds's rows are split into an induction part and a validation holdout
    (used only to select the best single tree).  Per-tree PRNG streams
    derive from (seed, tree_index), so parallel and serial growth produce
    identical forests.  With workers > 1, each worker grows one contiguous
    chunk of tree indices in lockstep.
    """
    eval_points = np.asarray(eval_points, dtype=np.float64)
    eval_labels = np.asarray(eval_labels, dtype=np.int64)
    split = split_validation(np.arange(ds.row_count), ds.labels, cfg.validation_fraction, seed=cfg.seed)
    induction, validation = split.train, split.holdout

    chunks = [c for c in np.array_split(np.arange(cfg.tree_count), max(workers, 1)) if c.size]
    jobs = [(ds.features, ds.labels, ds.class_count, induction, cfg, chunk) for chunk in chunks]
    if len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            trees = [tree for chunk_trees in pool.map(_chunk_job, jobs) for tree in chunk_trees]
    else:
        trees = _chunk_job(jobs[0])

    val_X, val_y = ds.features[validation], ds.labels[validation]
    validation_acc = tuple(_accuracy(labels, val_y) for _, labels in predict_trees(trees, val_X, alpha))

    ensemble_acc = np.empty(cfg.tree_count)
    single_acc = np.empty(cfg.tree_count)
    prob_sum = np.zeros((len(eval_labels), ds.class_count))
    votes = np.zeros((len(eval_labels), ds.class_count), dtype=np.int64)
    eval_rows = np.arange(len(eval_labels))
    for t, (p, labels) in enumerate(predict_trees(trees, eval_points, alpha)):
        prob_sum += p  # in tree order from zeros, as `forest_predictive` sums
        votes[eval_rows, labels] += 1
        single_acc[t] = _accuracy(labels, eval_labels)
        ensemble_acc[t] = _accuracy(np.argmax(prob_sum, axis=1), eval_labels)

    return Forest(
        trees=tuple(trees),
        validation_acc=validation_acc,
        ensemble_acc=ensemble_acc,
        single_acc=single_acc,
        best_validation_acc=float(single_acc[int(np.argmax(validation_acc))]),
        votes=votes,
        probabilities=prob_sum / cfg.tree_count,
    )


def forest_predictive(forest: Forest, X: np.ndarray, alpha) -> np.ndarray:
    """Arithmetic mean of the per-tree class probabilities."""
    return ensemble_average(forest.trees, [1] * len(forest.trees), X, alpha)[0]


def forest_votes(forest: Forest, X: np.ndarray, alpha) -> np.ndarray:
    """Histogram of per-tree hard labels; rows sum to the tree count."""
    return ensemble_average(forest.trees, [1] * len(forest.trees), X, alpha)[1]
