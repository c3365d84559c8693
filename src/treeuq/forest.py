"""Randomized decision-tree ensembles.

Trees are grown greedily, but at every node one of the best `top_k`
candidate splits (ranked by information gain) is chosen uniformly at
random, which supplies the classifier diversity the ensemble needs.
Candidate thresholds are midpoints of consecutive distinct feature values;
candidates leaving a child below the pruning factor are dropped.

A forest's trees grow in lockstep (`grow_trees`).  Each tree keeps its own
pre-order stack of the nodes still to grow, each node its rows and class
counts, and its own generator.  Per step, every unfinished tree pops nodes
until one needs candidates (small and pure nodes become leaves on the spot,
read off the carried counts without numpy), and one segmented pass
computes the candidates of all those nodes together.  Nodes of different
trees that hold the same rows, such as every root at the first step, share
one segment, so a step never computes a row set twice.  Each tree then
draws its split from its own generator, in the same pre-order as growing
it alone, so the forest does not depend on how many trees grow together or
on the worker count.  One pass then splits every chosen node of the step:
a stable sort of (node, side) keys cuts the children's rows, each in its
parent's order, and two bincounts give their sizes and class counts.  A
tree's nodes are appended to its pre-order `tree.DecisionTree` columns
(feature, threshold, leaf counts) as they are reached, so no tree is
converted afterwards.  `build_forest` grows on all rows of one training
`Dataset` and hands back one `Forest` record.

The candidate pass sorts integers, not values: `grow_trees` ranks each
column of X once, since the order of a feature's values is the same for
the whole forest, as in presorted decision-tree induction (SLIQ, SPRINT).
Per feature, one sort of (segment, rank) keys orders every node's rows.
Rows of equal value then sort by row index, which changes no candidate
(see `_candidate_arrays`), and merging each feature's candidates into the
ones kept needs only a stable two-key sort by segment and gain.
"""

from __future__ import annotations

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
        if not 1 <= self.tree_count <= 1 << 31:
            # a forest keeps every tree and two float64 accuracies per tree: 2**31 trees hold over 32 GB
            raise ValueError(f"tree_count must lie in 1..2**31, got {self.tree_count}")
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


def _entropy(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) of count rows, given each row's positive
    total; zero counts contribute zero."""
    p = counts / totals[:, None]
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0)
    return -(p * logs).sum(axis=-1)


def _candidate_arrays(
    X: np.ndarray,
    y: np.ndarray,
    class_count: int,
    row_sets: list[np.ndarray],
    min_leaf_rows: int,
    value_rank: np.ndarray,
    top_k: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Valid candidates of every row set, in one segmented pass.

    Returns (features, thresholds, gains, bounds).  The candidates of
    row_sets[s] sit at positions bounds[s]:bounds[s + 1], best gain first,
    ties broken by (feature, threshold) ascending; with top_k, only the
    first top_k of them.  A row set that is pure, has fewer than two rows,
    or has no threshold leaving both children with at least min_leaf_rows
    rows has none.

    value_rank[i, f] is row i's place in column f of X sorted stably.  Per
    feature, one sort of the integers `segment * len(X) + rank` puts the
    rows in segment order with values ascending in each; the keys are
    distinct, so the sort need not be stable.  Rows of equal value then
    sort by row index, not by their order in the row set.  That changes no
    output: a boundary lies only between distinct values, the class counts
    below it are the same in any order of the equal values, and so are the
    values either side of it (-0.0 ties with 0.0, and either gives the
    same midpoint with a nonzero value).  A boundary's left class counts
    are differences of one integer running count per class, and each
    entropy divides by the child's row count, so every gain has the bits a
    pass over that row set alone would give.

    Candidates are merged one feature at a time, so at most top_k per
    segment stay alive.  The ones kept are in (segment, -gain, feature,
    threshold) order; feature f's come in (segment, threshold) order and
    have the largest feature yet.  A stable sort of the two by -gain and
    then by segment therefore leaves equal (segment, gain) keys in
    (feature, threshold) order, the order one sort of everything by all
    four keys gives.  Once a segment keeps top_k candidates, a later one of
    no more gain than the top_k-th would sort after all of them, so it is
    dropped before the merge.
    """
    sizes = np.array([len(r) for r in row_sets], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    rows = np.concatenate(row_sets)
    seg = np.repeat(np.arange(len(row_sets)), sizes)
    seg_key = seg * X.shape[0]
    sub_y = y[rows]
    parent_counts = np.bincount(seg * class_count + sub_y, minlength=len(row_sets) * class_count)
    parent_counts = parent_counts.reshape(len(row_sets), class_count)
    parent_entropy = _entropy(parent_counts, np.maximum(sizes, 1))  # an empty row set has no candidates
    impure = np.count_nonzero(parent_counts, axis=1) >= 2
    # a boundary between sorted positions i and i + 1 needs both in one impure segment
    inner = (seg[:-1] == seg[1:]) & impure[seg[:-1]]

    # (segment, feature, threshold, gain) of the candidates kept so far, in final order
    kept = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0))
    floor = np.full(len(row_sets), -np.inf)  # per segment, the top_k-th kept gain
    below = np.zeros(len(rows) + 1, np.int64)  # below[i]: rows of one class among sorted rows < i
    for f in range(X.shape[1]):
        order = np.argsort(seg_key + value_rank[rows, f])  # segments keep their places; values ascend within each
        sorted_vals = X[rows[order], f]
        boundaries = np.nonzero(inner & (sorted_vals[:-1] < sorted_vals[1:]))[0]
        b_seg = seg[boundaries]
        left_n = boundaries + 1 - starts[b_seg]
        right_n = sizes[b_seg] - left_n
        valid = (left_n >= min_leaf_rows) & (right_n >= min_leaf_rows)
        boundaries, b_seg = boundaries[valid], b_seg[valid]
        left_n, right_n = left_n[valid], right_n[valid]
        sorted_y, ends, firsts = sub_y[order], boundaries + 1, starts[b_seg]
        left_counts = np.empty((len(boundaries), class_count), np.int64)
        for c in range(class_count):
            np.cumsum(sorted_y == c, out=below[1:])
            left_counts[:, c] = below[ends] - below[firsts]
        right_counts = parent_counts[b_seg] - left_counts
        child = (left_n * _entropy(left_counts, left_n) + right_n * _entropy(right_counts, right_n)) / sizes[b_seg]
        gains = parent_entropy[b_seg] - child
        enters = gains > floor[b_seg]
        boundaries = boundaries[enters]
        found = (
            b_seg[enters],
            np.full(len(boundaries), f, dtype=np.int64),
            (sorted_vals[boundaries] + sorted_vals[boundaries + 1]) / 2.0,
            gains[enters],
        )
        segments, features, thresholds, gains = (np.concatenate(pair) for pair in zip(kept, found))
        # stable by -gain, then by segment: numpy sorts segment numbers of up to 16 bits by radix
        order = np.argsort(-gains, kind="stable")
        order = order[np.argsort(segments[order].astype(np.min_scalar_type(len(row_sets))), kind="stable")]
        if top_k is not None:
            in_order = segments[order]
            rank = np.arange(len(order)) - np.searchsorted(in_order, in_order)
            last = order[rank == top_k - 1]
            floor[segments[last]] = gains[last]
            order = order[rank < top_k]
        kept = tuple(a[order] for a in (segments, features, thresholds, gains))
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
    # each row's place in each column of X: the order of a feature's values holds for the whole forest
    value_rank = np.argsort(np.argsort(X, axis=0, kind="stable"), axis=0, kind="stable")
    # per tree, in pre-order: each node's feature (-1 at a leaf) and threshold,
    # and the leaves' class counts
    feature, threshold, leaf_counts = ([[] for _ in rngs] for _ in range(3))
    root = (rows, tuple(np.bincount(y[rows], minlength=class_count).tolist()))
    stacks = [[root] for _ in rngs]  # per tree: (rows, class counts) of the nodes still to grow
    active = list(range(len(rngs)))
    while active:
        pending = []  # (tree, position, rows, class counts) of the nodes that need candidates
        splits, picks = [], []  # (tree, position, rows) of the nodes that split, and their candidates
        for t in active:
            stack = stacks[t]
            while stack:
                node_rows, counts = stack.pop()
                at = len(feature[t])
                feature[t].append(-1)
                threshold[t].append(0.0)
                if len(node_rows) < 2 * cfg.min_leaf_rows or len(counts) - counts.count(0) < 2:
                    leaf_counts[t].append(counts)
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
                X, y, class_count, row_sets, cfg.min_leaf_rows, value_rank, cfg.top_k
            )
            bounds = bounds.tolist()
            for (t, at, node_rows, counts), s in zip(pending, node_segments):
                first, count = bounds[s], bounds[s + 1] - bounds[s]
                if count == 0:
                    leaf_counts[t].append(counts)
                    continue
                picks.append(first + int(rngs[t].integers(count)))
                splits.append((t, at, node_rows))
            if splits:
                features, thresholds = features[picks], thresholds[picks]
                for (t, at, _), f, thr in zip(splits, features.tolist(), thresholds.tolist()):
                    feature[t][at], threshold[t][at] = f, thr
                child_rows, child_counts = _split_nodes(X, y, class_count, [r for *_, r in splits], features, thresholds)
                for i, (t, _, _) in enumerate(splits):  # the right child first, so the left one grows first
                    stacks[t].append((child_rows[2 * i + 1], child_counts[2 * i + 1]))
                    stacks[t].append((child_rows[2 * i], child_counts[2 * i]))
        active = [t for t in active if stacks[t]]
    return [DecisionTree(tuple(f), tuple(thr), tuple(c)) for f, thr, c in zip(feature, threshold, leaf_counts)]


def _split_nodes(
    X: np.ndarray,
    y: np.ndarray,
    class_count: int,
    split_rows: list[np.ndarray],
    features: np.ndarray,
    thresholds: np.ndarray,
) -> tuple[list[np.ndarray], list[tuple]]:
    """The rows and class-count tuples of both children of every node, left
    then right, node i holding split_rows[i] and splitting on
    (features[i], thresholds[i]), in one pass.

    A stable sort of 2 * node + goes_right keeps each child's rows in its
    parent's order.  Each child gets its own array: a view would keep the
    whole step's array alive while the child waits on a stack.
    """
    sizes = [len(r) for r in split_rows]
    cat = np.concatenate(split_rows)
    goes_right = X[cat, np.repeat(features, sizes)] > np.repeat(thresholds, sizes)
    child = 2 * np.repeat(np.arange(len(split_rows)), sizes) + goes_right
    by_child = cat[np.argsort(child, kind="stable")]
    ends = np.cumsum(np.bincount(child, minlength=2 * len(split_rows))).tolist()
    counts = np.bincount(child * class_count + y[cat], minlength=2 * len(split_rows) * class_count)
    return (
        [by_child[a:b].copy() for a, b in zip([0, *ends], ends)],
        [tuple(c) for c in counts.reshape(-1, class_count).tolist()],
    )


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
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a run asks for workers

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
