"""Binary axis-parallel decision trees: structure, routing, leaf statistics.

Trees are immutable values stored as a pre-order node arena (root at id 0,
left subtree before right).  Nothing here edits a tree: the sampler edits
its own `mcmc.ChainState` and records its trees as `FlatTree` snapshots,
pre-order columns that `FlatTree.tree` turns into an arena when one is
read, and `deserialize` numbers what it reads the same way, so
serialization and feature paths are canonical.

Routing convention: a point goes left iff ``x[feature] <= threshold``.

Prediction has one path, `predict_trees`, shared by the posterior average
and the forest.  It reads each tree as a `FlatTree` (an arena is flattened
first), stacks PREDICT_BLOCK of them into one flat node table (feature,
threshold, child pair, leaf posterior-mean row) and routes every (tree,
row) pair of the block at once, one level per step, for as many levels as
the block's deepest tree.  A block is thrown away before the next is
built, so memory stays O(PREDICT_BLOCK x rows) however many trees are
predicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

PREDICT_BLOCK = 16  # trees routed together; memory is O(PREDICT_BLOCK x rows)


@dataclass(frozen=True, slots=True)
class Split:
    feature: int
    threshold: float
    left: int
    right: int


@dataclass(frozen=True, slots=True)
class Leaf:
    counts: tuple[int, ...] | None = None  # per-class rows; None until fitted

    @property
    def n(self) -> int:
        if self.counts is None:
            raise ValueError("leaf counts not fitted")
        return int(sum(self.counts))


Node = Split | Leaf


@dataclass(frozen=True, slots=True)
class DecisionTree:
    nodes: tuple[Node, ...]
    root: int = 0

    @property
    def leaf_ids(self) -> tuple[int, ...]:
        return tuple(i for i, nd in enumerate(self.nodes) if isinstance(nd, Leaf))

    @property
    def split_ids(self) -> tuple[int, ...]:
        return tuple(i for i, nd in enumerate(self.nodes) if isinstance(nd, Split))

    @property
    def split_count(self) -> int:
        return len(self.nodes) // 2  # a full binary tree with k splits has 2k + 1 nodes

    @property
    def leaf_count(self) -> int:
        return len(self.nodes) - self.split_count


def single_leaf_tree(counts=None) -> DecisionTree:
    return DecisionTree(nodes=(Leaf(counts=tuple(counts) if counts is not None else None),))


# ---------------------------------------------------------------------------
# Nested (feature, threshold, left, right) form -> pre-order arena
# ---------------------------------------------------------------------------


def _flatten(nested) -> DecisionTree:
    nodes: list[Node] = []

    def emit(sub) -> int:
        my_id = len(nodes)
        nodes.append(None)  # placeholder, patched below
        if isinstance(sub, Leaf):
            nodes[my_id] = sub
        else:
            feature, threshold, left, right = sub
            left_id = emit(left)
            right_id = emit(right)
            nodes[my_id] = Split(feature=feature, threshold=float(threshold), left=left_id, right=right_id)
        return my_id

    emit(nested)
    return DecisionTree(nodes=tuple(nodes))


# ---------------------------------------------------------------------------
# Routing and leaf statistics
# ---------------------------------------------------------------------------


def partition_rows(tree: DecisionTree, X: np.ndarray) -> dict[int, np.ndarray]:
    """Row indices reaching every node (splits included)."""
    n = X.shape[0]
    parts: dict[int, np.ndarray] = {}
    stack = [(tree.root, np.arange(n))]
    while stack:
        nid, idx = stack.pop()
        parts[nid] = idx
        node = tree.nodes[nid]
        if isinstance(node, Split):
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return parts


def fit_partition(
    tree: DecisionTree, X: np.ndarray, y: np.ndarray, class_count: int
) -> tuple[DecisionTree, dict[int, np.ndarray]]:
    """Every leaf's class counts recomputed by routing all rows, and the
    per-node row partition (same node ids).

    Empty leaves are reported with zero counts; validity is the caller's
    concern.
    """
    parts = partition_rows(tree, X)
    nodes = list(tree.nodes)
    for nid, node in enumerate(nodes):
        if isinstance(node, Leaf):
            counts = np.bincount(y[parts[nid]], minlength=class_count)
            nodes[nid] = Leaf(counts=tuple(int(c) for c in counts))
    return DecisionTree(nodes=tuple(nodes), root=tree.root), parts


def leaf_predictive(counts, alpha) -> np.ndarray:
    """Dirichlet posterior-mean class probabilities for one leaf."""
    counts = np.asarray(counts, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha <= 0):
        raise ValueError("Dirichlet prior must be strictly positive")
    return (counts + alpha) / (counts.sum() + alpha.sum())


def resolve_alpha(alpha, class_count: int) -> np.ndarray:
    """The Dirichlet prior as a vector of class_count positive pseudo-counts."""
    if isinstance(alpha, (int, float)):
        out = np.full(class_count, float(alpha))
    else:
        out = np.asarray(alpha, dtype=np.float64)
        if out.shape != (class_count,):
            raise ValueError(f"alpha must have {class_count} entries, one per class, got shape {out.shape}")
    if np.any(out <= 0):
        raise ValueError(f"alpha entries must be positive, got {out.tolist()} for {class_count} classes")
    return out


class FlatTree(NamedTuple):
    """A tree as pre-order columns, the form prediction reads.

    Per node, root first: the split feature (-1 at a leaf), the threshold
    (0.0 at a leaf) and the positions of the two children (a leaf's own
    position, twice); then the depth of the deepest leaf and the class
    counts of the leaves, in pre-order.
    """

    feature: list
    threshold: list
    left: list
    right: list
    depth: int
    leaf_counts: list

    @classmethod
    def of(cls, tree: DecisionTree) -> "FlatTree":
        n = len(tree.nodes)
        feature, threshold, left, right = [-1] * n, [0.0] * n, list(range(n)), list(range(n))
        depth, leaf_counts = [0] * n, []
        if tree.root != 0:
            raise ValueError("tree is not numbered in pre-order")
        for i, node in enumerate(tree.nodes):
            if isinstance(node, Split):
                if min(node.left, node.right) <= i:
                    raise ValueError("tree is not numbered in pre-order")
                feature[i], threshold[i], left[i], right[i] = node.feature, node.threshold, node.left, node.right
                depth[node.left] = depth[node.right] = depth[i] + 1
            else:
                leaf_counts.append(node.counts)
        return cls(feature, threshold, left, right, max(depth), leaf_counts)

    def tree(self) -> DecisionTree:
        counts = iter(self.leaf_counts)
        return DecisionTree(nodes=tuple(
            Leaf(counts=next(counts)) if f < 0 else Split(feature=f, threshold=t, left=lo, right=hi)
            for f, t, lo, hi in zip(self.feature, self.threshold, self.left, self.right)
        ))


def _flat(tree) -> FlatTree:
    return tree if isinstance(tree, FlatTree) else FlatTree.of(tree)


def _node_table(flats: list, alpha: np.ndarray):
    """Stack flat trees into flat arrays (node i of tree k sits at its
    tree's offset + i): feature, threshold, a child pair per node taken as
    pair[x <= threshold] (a leaf points to itself), the Dirichlet posterior-mean
    row of every node, each tree's root and the deepest tree's depth."""
    sizes = [len(flat.feature) for flat in flats]
    roots = np.cumsum([0] + sizes[:-1])
    base = np.repeat(roots, sizes)
    feature = np.array(list(chain.from_iterable(flat.feature for flat in flats)))
    threshold = np.array(list(chain.from_iterable(flat.threshold for flat in flats)), dtype=np.float64)
    left = base + np.array(list(chain.from_iterable(flat.left for flat in flats)))
    right = base + np.array(list(chain.from_iterable(flat.right for flat in flats)))
    pairs = np.stack((right, left), axis=1).ravel()
    is_leaf = feature < 0
    feature[is_leaf] = 0
    counts = np.zeros((len(feature), len(alpha)))
    counts[is_leaf] = list(chain.from_iterable(flat.leaf_counts for flat in flats))
    table = (counts + alpha) / (counts.sum(axis=1, keepdims=True) + alpha.sum())
    return feature, threshold, pairs, table, roots, max(flat.depth for flat in flats)


def predict_trees(trees, X: np.ndarray, alpha):
    """Yield (class probabilities (n, C), hard labels (n,)) for each tree
    (a `DecisionTree` or a `FlatTree`), in order.

    Rows are the Dirichlet posterior mean of the routed leaf, bit for bit
    what `leaf_predictive` gives; labels are their argmax, ties to the lowest
    class index.  Trees are routed PREDICT_BLOCK at a time over one flat
    node table, one level per step.
    """
    if not trees:
        raise ValueError("no trees to predict with")
    alpha = resolve_alpha(alpha, len(_flat(trees[0]).leaf_counts[0]))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    flat = X.ravel()
    row_starts = np.arange(X.shape[0]) * X.shape[1]
    for start in range(0, len(trees), PREDICT_BLOCK):
        block = [_flat(tree) for tree in trees[start : start + PREDICT_BLOCK]]
        feature, threshold, pairs, table, roots, levels = _node_table(block, alpha)
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

    def walk(nid: int) -> None:
        node = tree.nodes[nid]
        if isinstance(node, Split):
            lines.append(f"S {node.feature} {node.threshold!r}")
            walk(node.left)
            walk(node.right)
        else:
            if node.counts is None:
                raise ValueError("cannot serialize a tree with unfitted leaves")
            lines.append("L " + " ".join(str(c) for c in node.counts))

    walk(tree.root)
    return "\n".join(lines)


def deserialize(text: str) -> DecisionTree:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    pos = 0

    def read():
        nonlocal pos
        if pos >= len(lines):
            raise ValueError("truncated tree text")
        parts = lines[pos].split()
        pos += 1
        if parts[0] == "L":
            return Leaf(counts=tuple(int(tok) for tok in parts[1:]))
        if parts[0] == "S":
            feature, threshold = int(parts[1]), float(parts[2])
            return (feature, threshold, read(), read())
        raise ValueError(f"bad node line: {lines[pos - 1]!r}")

    nested = read()
    if pos != len(lines):
        raise ValueError("trailing content after tree")
    return _flatten(nested)


def write_tree_file(path, trees, metas=None) -> None:
    """Dump trees to a text file: `tree nodes=<k> [key=value ...]` headers."""
    metas = metas if metas is not None else [{} for _ in trees]
    chunks = []
    for tree, meta in zip(trees, metas):
        extra = "".join(f" {k}={v}" for k, v in meta.items())
        chunks.append(f"tree nodes={len(tree.nodes)}{extra}\n{serialize(tree)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(chunks) + "\n")


def read_tree_file(path) -> list[tuple[DecisionTree, dict]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        if not lines[i].startswith("tree "):
            raise ValueError(f"expected tree header at line {i + 1}")
        meta = dict(tok.split("=", 1) for tok in lines[i].split()[1:])
        node_count = int(meta.pop("nodes"))
        body = "\n".join(lines[i + 1 : i + 1 + node_count])
        out.append((deserialize(body), meta))
        i += 1 + node_count
    return out
