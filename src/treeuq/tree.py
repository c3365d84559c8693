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

Rows have one bitset form, `RowSets`, for the sampler's training rows
(`mcmc.RowTables`) and the test rows alike: per feature the sorted
distinct values and the rows at or below each, so a split (f, t) sends
`rows & below(f, t)` left, and one pass over a tree's pre-order columns
(`RowSets.route`) gives every node its rows.  Prediction has one path,
`predict_trees`, shared by the posterior average and the forest: it
builds the test rows' `RowSets` once per call and keeps one array of every
row's leaf, rewritten only where rows changed leaf when the leaf count
holds (consecutive chain samples differ in a few rows), rebuilt otherwise.
The rows are held in chunks of ROW_CHUNK: an `le` bitset spans about its
chunk, so with its int header, list slot and value a row costs about
ROW_CHUNK / 7.5 + 64 bytes per feature without ties (203 measured by
`sys.getsizeof` at 1,024), less with them.  Leaf posterior-mean tables are
built PREDICT_BLOCK trees at a time: memory does not grow with the number
of trees predicted.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

PREDICT_BLOCK = 16  # trees whose leaf tables are built together


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


ROW_CHUNK = 1024  # test rows per `_PointTables`: about ROW_CHUNK / 7.5 + 64 bytes per row and feature


class RowSets:
    """The rows of a finite X as Python-int bitsets (bit r set iff row r is
    in the set; `all` holds all `n` rows).  Per feature f: `values[f]`, the
    column's sorted distinct values, each read as x + 0.0 so that -0.0 and
    0.0 are one value (routing is unchanged: -0.0 <= t exactly when
    0.0 <= t), and `le[f][j]`, the rows whose value is at most values[f][j]."""

    def __init__(self, X: np.ndarray):
        self.n = X.shape[0]
        self.all = (1 << self.n) - 1
        self.values, self.le = [], []
        for column in (X + 0.0).T:
            values, counts = np.unique(column, return_counts=True)
            prefix = list(accumulate((1 << r for r in np.argsort(column).tolist()), operator.or_, initial=0))
            self.values.append(values.tolist())
            self.le.append([prefix[k] for k in np.cumsum(counts).tolist()])

    def below(self, feature: int, threshold: float) -> int:
        """The rows with x_feature <= threshold."""
        j = bisect_right(self.values[feature], threshold)
        return self.le[feature][j - 1] if j else 0

    def route(self, feature, threshold) -> list:
        """The row set of every position of the tree of these pre-order
        columns: one pass with a stack of the rows of the right children
        still ahead, each split's step that of `below`, inline.  Raises
        ValueError when X has too few columns for a split or the feature
        column is not one full binary tree."""
        values, le = self.values, self.le
        rows, ahead, out = self.all, [], []
        try:
            for f, t in zip(feature, threshold):
                out.append(rows)
                if f >= 0:
                    j = bisect_right(values[f], t)
                    left = rows & le[f][j - 1] if j else 0
                    ahead.append(rows ^ left)
                    rows = left
                elif ahead:
                    rows = ahead.pop()
                elif len(out) == len(feature):
                    return out
                else:
                    break
        except IndexError:
            raise ValueError(f"X has too few columns ({len(values)}) for a split on feature {max(feature)}") from None
        layout(feature)  # raises: the tree ends before or after the column does


class _PointTables(RowSets):
    """`RowSets` of a chunk of test rows, and their leaf in the tree placed
    last: `at` is a view of the caller's leaf-position array, one entry per
    row, and `leaves` the row sets of that tree's leaves, in pre-order."""

    def __init__(self, X: np.ndarray, at: np.ndarray):
        super().__init__(X)
        self.at, self.leaves = at, []

    def place(self, feature, threshold) -> None:
        """Write each row's leaf position in the tree of these columns to
        `at`: when the tree has as many leaves as the one placed before,
        only the rows that changed leaf; otherwise, or when rewriting them
        one by one would cost more, every row, from the unpacked leaf sets.
        A rewrite costs about 0.5 us a row, a rebuild about 11 us plus
        1.4 ns a row and leaf (2-core x86, Python 3.11, numpy 2.4), hence
        the bound 20 + n x leaves / 400."""
        leaves = [rows for rows, f in zip(self.route(feature, threshold), feature) if f < 0]
        at, moved = self.at, None
        if len(leaves) == len(self.leaves):
            moved = [(j, new & ~old) for j, (new, old) in enumerate(zip(leaves, self.leaves)) if new != old]
        if moved is None or sum(b.bit_count() for _, b in moved) > 20 + self.n * len(leaves) // 400:
            size = (self.n + 7) // 8
            raw = np.frombuffer(b"".join(b.to_bytes(size, "little") for b in leaves), dtype=np.uint8)
            member = np.unpackbits(raw.reshape(len(leaves), size), axis=1, count=self.n, bitorder="little")
            at[:] = np.arange(len(leaves), dtype=np.float64) @ member
        else:
            for j, b in moved:
                while b:
                    low = b & -b
                    at[low.bit_length() - 1] = j
                    b ^= low
        self.leaves = leaves


def predict_trees(trees, X: np.ndarray, alpha):
    """Yield (class probabilities (n, C), hard labels (n,)) for each tree, in order.

    Rows are the Dirichlet posterior mean of the routed leaf, (counts +
    alpha) / (n + sum alpha); labels are their argmax, ties to the lowest
    class index.  X must be finite (ValueError otherwise).  The rows are
    held as `_PointTables` of ROW_CHUNK rows each, built once per call,
    which keep one array of every row's leaf position up to date from tree
    to tree.  The leaf tables are built PREDICT_BLOCK trees at a time.
    """
    if not trees:
        raise ValueError("no trees to predict with")
    alpha = resolve_alpha(alpha, len(trees[0].leaf_counts[0]))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        r, f = bad[0].tolist()
        raise ValueError(f"X must be finite, got {float(X[r, f])} at row {r}, column {f}")
    at = np.zeros(X.shape[0], dtype=np.intp)
    parts = [_PointTables(X[lo : lo + ROW_CHUNK], at[lo : lo + ROW_CHUNK])
             for lo in range(0, max(X.shape[0], 1), ROW_CHUNK)]
    for start in range(0, len(trees), PREDICT_BLOCK):
        block = trees[start : start + PREDICT_BLOCK]
        counts = np.array(list(chain.from_iterable(tree.leaf_counts for tree in block)), dtype=np.float64)
        table = (counts + alpha) / (counts.sum(axis=1, keepdims=True) + alpha.sum())
        labels = np.argmax(table, axis=1)
        offset = 0
        for tree in block:
            for part in parts:
                part.place(tree.feature, tree.threshold)
            end = offset + len(parts[0].leaves)
            if end - offset != len(tree.leaf_counts):
                raise ValueError(f"tree has {end - offset} leaves but {len(tree.leaf_counts)} leaf count rows")
            yield table[offset:end].take(at, axis=0), labels[offset:end].take(at)
            offset = end


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
