"""Reference implementations the tests check the package against.

The package holds a tree in one form, the pre-order columns of
`treeuq.tree.DecisionTree`, and never edits one: the sampler edits its
`mcmc.ChainState` in place and reads every acceptance term from
`RowTables`.  The references here are written on a second, independent
model of a tree, a node arena:

- `ArenaTree`, `Split` and `Leaf`: a tree as a tuple of `Split` (feature,
  threshold, child ids) and `Leaf` (class counts) nodes with a root id,
  and `single_leaf_tree`.  `columns` and `arena` convert between it and
  the package's `DecisionTree`: `columns` refuses an arena whose ids are
  not its pre-order walk, and `arena` reads the feature column by
  recursive descent, independently of `treeuq.tree.layout`.
- `_flatten`, `deserialize`, `read_tree_file` and `serialize_arena`: the
  nested (feature, threshold, left, right) form, and the tree text read
  and written by walking the arena.  `test_tree`'s `TestSerialization`
  checks the package's `serialize` against `serialize_arena`, and reads
  `samples.txt` and `forest.txt` back with `read_tree_file`.
- `leaf_predictive`: one leaf's Dirichlet posterior mean, the oracle of
  `test_tree`'s `TestPredictTrees` and of criterion 7c.
- `replace_leaf`, `collapse_split` and `with_split_params` (through `_edit`
  and `_nested`): the edit oracles of `test_mcmc`'s
  `test_proposals_match_tree_edits`, the random trees of `conftest`'s
  `random_tree_factory`, the path-summary property test's samples, the
  accept-boundary and `TestMhStep` trees, criterion 7c's enumeration, and
  `test_tree`'s `TestEdits`.
- `route`: one point's leaf, the oracle of `test_tree`'s `TestRouting` and
  `test_matches_route_oracle`, and of criterion 7c's posterior predictive.
- `summarize` (`TreeSummary`): the recursive pre-order feature path behind
  `test_path_summary_matches_summarize_property`, `test_tree`'s
  `TestSummarize`, `TestEdits` and `TestSerialization`.
- `prunable_splits`: death-move candidates on a tree (`TestPrunableSplits`),
  read by `proposal_log_ratio`.
- `proposal_log_ratio`, `split_prior_log_ratio` (`_growth_depth`): the
  structure and split-prior log ratios of a move from one tree to another,
  their formulas written out here on the arena trees, for
  `TestProposalLogRatio` (birth/death reciprocity), criterion 8a,
  `TestSplitPriorLogRatio`, the accept-boundary test and
  `test_proposals_match_tree_edits`, which hold `mcmc.log_accept_ratio`
  to them.
- `rows_of`, `rows_by_node` and `proposed_state`: a row bitset as indices,
  a state's rows per pre-order node, and the state a proposal leads to,
  built on a copy so the drawn-on state stays as it was.
- `bayes_error_estimate` (`BayesErrorEstimate`): the Monte-Carlo error rate
  of the mixture's Bayes-optimal rule, for `test_synth`'s `TestBayesError`
  and criterion 1.
- `fold_indices`: the rows a `data.FoldPlan` assigns to one fold, for
  `test_data`'s `TestMakeFolds`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from treeuq.mcmc import (
    MOVE_BIRTH,
    MOVE_CHANGE_RULE,
    MOVE_CHANGE_SPLIT,
    MOVE_DEATH,
    McmcConfig,
    UniformSplitPrior,
    log_catalan,
)
from treeuq.synth import GaussianMixtureSpec, class_posteriors, sample
from treeuq.tree import DecisionTree


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
class ArenaTree:
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


def single_leaf_tree(counts=None) -> ArenaTree:
    return ArenaTree(nodes=(Leaf(counts=tuple(counts) if counts is not None else None),))


def columns(tree: ArenaTree) -> DecisionTree:
    """The arena as the package's pre-order columns; refused unless a
    pre-order walk from the root visits its node ids in order."""
    order = []

    def walk(nid: int) -> None:
        order.append(nid)
        node = tree.nodes[nid]
        if isinstance(node, Split) and len(order) <= len(tree.nodes):  # bounded, should the ids form a cycle
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    if order != list(range(len(tree.nodes))):
        raise ValueError("tree is not numbered in pre-order")
    return DecisionTree(
        tuple(nd.feature if isinstance(nd, Split) else -1 for nd in tree.nodes),
        tuple(nd.threshold if isinstance(nd, Split) else 0.0 for nd in tree.nodes),
        tuple(nd.counts for nd in tree.nodes if isinstance(nd, Leaf)),
    )


def arena(tree: DecisionTree) -> ArenaTree:
    """The package's columns as an arena with the same node ids, read by
    recursive descent: a split is followed by its left subtree, then its
    right one."""
    counts, at = iter(tree.leaf_counts), 0

    def read():
        nonlocal at
        if at == len(tree.feature):
            raise ValueError("truncated feature column")
        f, t = tree.feature[at], tree.threshold[at]
        at += 1
        if f < 0:
            return Leaf(counts=next(counts))
        return (f, t, read(), read())

    nested = read()
    if at != len(tree.feature):
        raise ValueError("trailing nodes after the tree")
    return _flatten(nested)


# ---------------------------------------------------------------------------
# Nested (feature, threshold, left, right) form -> pre-order arena
# ---------------------------------------------------------------------------


def _flatten(nested) -> ArenaTree:
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
    return ArenaTree(nodes=tuple(nodes))


def leaf_predictive(counts, alpha) -> np.ndarray:
    """Dirichlet posterior-mean class probabilities for one leaf."""
    counts = np.asarray(counts, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha <= 0):
        raise ValueError("Dirichlet prior must be strictly positive")
    return (counts + alpha) / (counts.sum() + alpha.sum())


# ---------------------------------------------------------------------------
# Serialization: one node per line, pre-order
#   S <feature> <threshold>
#   L <count_0> <count_1> ...
# ---------------------------------------------------------------------------


def serialize_arena(tree: ArenaTree) -> str:
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


def deserialize(text: str) -> ArenaTree:
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


def read_tree_file(path) -> list[tuple[ArenaTree, dict]]:
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


@dataclass(frozen=True)
class TreeSummary:
    split_count: int
    leaf_count: int
    depth: int
    feature_path: tuple[int, ...]  # split features in pre-order


def _nested(tree: ArenaTree, nid: int):
    node = tree.nodes[nid]
    if isinstance(node, Leaf):
        return node
    return (node.feature, node.threshold, _nested(tree, node.left), _nested(tree, node.right))


def _edit(tree: ArenaTree, target: int, replace) -> ArenaTree:
    def walk(nid: int):
        node = tree.nodes[nid]
        if nid == target:
            return replace(node)
        if isinstance(node, Leaf):
            return node
        return (node.feature, node.threshold, walk(node.left), walk(node.right))

    return _flatten(walk(tree.root))


def replace_leaf(tree: ArenaTree, leaf_id: int, feature: int, threshold: float) -> ArenaTree:
    """Grow: turn a leaf into a split with two unfitted leaves."""
    if not isinstance(tree.nodes[leaf_id], Leaf):
        raise ValueError(f"node {leaf_id} is not a leaf")
    return _edit(tree, leaf_id, lambda _: (feature, threshold, Leaf(), Leaf()))


def collapse_split(tree: ArenaTree, split_id: int) -> ArenaTree:
    """Prune: replace a split whose children are both leaves by one leaf."""
    node = tree.nodes[split_id]
    if not isinstance(node, Split):
        raise ValueError(f"node {split_id} is not a split")
    left, right = tree.nodes[node.left], tree.nodes[node.right]
    if not (isinstance(left, Leaf) and isinstance(right, Leaf)):
        raise ValueError(f"split {split_id} has non-leaf children")
    if left.counts is not None and right.counts is not None:
        merged = tuple(a + b for a, b in zip(left.counts, right.counts))
    else:
        merged = None
    return _edit(tree, split_id, lambda _: Leaf(counts=merged))


def with_split_params(tree: ArenaTree, node_id: int, feature: int, threshold: float) -> ArenaTree:
    """Re-parameterize one split in place (structure unchanged)."""
    node = tree.nodes[node_id]
    if not isinstance(node, Split):
        raise ValueError(f"node {node_id} is not a split")
    return _edit(
        tree,
        node_id,
        lambda nd: (feature, threshold, _nested(tree, nd.left), _nested(tree, nd.right)),
    )


def route(tree: ArenaTree, point) -> int:
    """Leaf id reached by the point (left iff value <= threshold)."""
    point = np.asarray(point, dtype=np.float64)
    nid = tree.root
    node = tree.nodes[nid]
    while isinstance(node, Split):
        nid = node.left if point[node.feature] <= node.threshold else node.right
        node = tree.nodes[nid]
    return nid


def summarize(tree: ArenaTree) -> TreeSummary:
    path: list[int] = []
    max_depth = 0

    def walk(nid: int, depth: int) -> None:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        node = tree.nodes[nid]
        if isinstance(node, Split):
            path.append(node.feature)
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(tree.root, 0)
    return TreeSummary(
        split_count=tree.split_count,
        leaf_count=tree.leaf_count,
        depth=max_depth,
        feature_path=tuple(path),
    )


def prunable_splits(tree: ArenaTree) -> int:
    """Splits whose two children are both leaves (death-move candidates)."""
    count = 0
    for nid in tree.split_ids:
        node = tree.nodes[nid]
        if isinstance(tree.nodes[node.left], Leaf) and isinstance(tree.nodes[node.right], Leaf):
            count += 1
    return count


def proposal_log_ratio(kind: str, old_tree: ArenaTree, new_tree: ArenaTree, cfg: McmcConfig) -> float:
    """Log proposal-times-structure-prior ratio for the move.

    Birth (k -> k+1 leaves) uses the prunable-split count of the proposed
    tree, death (k -> k-1) that of the current tree, making an exact
    birth/death reverse pair sum to zero.  Change moves contribute zero:
    a global redraw cancels against the matching prior factor, and the
    local rule step is symmetric on a grid the move cannot alter.
    """
    k_old, k_new = old_tree.leaf_count, new_tree.leaf_count
    birth_p, death_p = cfg.move_probs[0], cfg.move_probs[1]
    if kind == MOVE_BIRTH:
        if k_new != k_old + 1:
            raise ValueError("birth must add exactly one leaf")
        q = prunable_splits(new_tree)
        return math.log(death_p / birth_p) + math.log(k_old / q) + log_catalan(k_old) - log_catalan(k_old + 1)
    if kind == MOVE_DEATH:
        if k_new != k_old - 1:
            raise ValueError("death must remove exactly one leaf")
        q = prunable_splits(old_tree)
        return math.log(birth_p / death_p) + math.log(q / (k_old - 1)) + log_catalan(k_old) - log_catalan(k_old - 1)
    if kind in (MOVE_CHANGE_SPLIT, MOVE_CHANGE_RULE):
        if k_new != k_old:
            raise ValueError("change moves must preserve the leaf count")
        return 0.0
    raise ValueError(f"unknown move kind {kind!r}")


def _growth_depth(small: ArenaTree, large: ArenaTree) -> int:
    """Depth of the one leaf of `small` that `large` splits."""

    def walk(sid: int, lid: int, depth: int):
        s, l = small.nodes[sid], large.nodes[lid]
        if isinstance(s, Leaf) and isinstance(l, Split):
            return depth
        if isinstance(s, Leaf) and isinstance(l, Leaf):
            return None
        if isinstance(s, Split) and isinstance(l, Split):
            found = walk(s.left, l.left, depth + 1)
            if found is None:
                found = walk(s.right, l.right, depth + 1)
            return found
        raise ValueError("inconsistent tree pair")

    depth = walk(small.root, large.root, 0)
    if depth is None:
        raise ValueError("trees do not differ by a single split")
    return depth


def split_prior_log_ratio(kind: str, old_tree: ArenaTree, new_tree: ArenaTree, cfg: McmcConfig) -> float:
    """Extra prior term for depth-penalized split priors (zero if uniform):
    with p(d) = base * (1 + d)^-decay at the depth d of the leaf that grows
    (or the split that is pruned), log p(d) + 2 log(1 - p(d + 1)) -
    log(1 - p(d)) for a birth, its negative for a death."""
    prior = cfg.split_prior
    if isinstance(prior, UniformSplitPrior) or kind in (MOVE_CHANGE_SPLIT, MOVE_CHANGE_RULE):
        return 0.0
    if kind not in (MOVE_BIRTH, MOVE_DEATH):
        raise ValueError(f"unknown move kind {kind!r}")
    depth = _growth_depth(old_tree, new_tree) if kind == MOVE_BIRTH else _growth_depth(new_tree, old_tree)
    p_here = prior.base * (1.0 + depth) ** (-prior.decay)
    p_child = prior.base * (2.0 + depth) ** (-prior.decay)
    term = math.log(p_here) + 2.0 * math.log(1.0 - p_child) - math.log(1.0 - p_here)
    return term if kind == MOVE_BIRTH else -term


def rows_of(bits: int) -> np.ndarray:
    """The ascending row indices of a row set."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").nonzero()[0]


def rows_by_node(state) -> dict:
    """Ascending row indices reaching each node, keyed by their positions in `state.tree`."""
    return {i: rows_of(bits) for i, bits in enumerate(state.bits)}


def proposed_state(state, proposal):
    """The chain state after `proposal`, on a copy that shares only the tables."""
    after = copy.deepcopy(state, {id(state.tables): state.tables})
    after.apply(proposal)
    return after


@dataclass(frozen=True)
class BayesErrorEstimate:
    rate: float
    stderr: float
    sample_count: int


def bayes_error_estimate(spec: GaussianMixtureSpec, sample_count: int, seed: int) -> BayesErrorEstimate:
    """Monte-Carlo misclassification rate of the optimal rule on a fresh sample."""
    if sample_count < 10_000:
        raise ValueError("sample_count must be at least 10^4")
    batch = sample(spec, sample_count, seed=seed)
    predicted = np.argmax(class_posteriors(spec, batch.points), axis=1)
    rate = float(np.mean(predicted != batch.labels))
    stderr = float(np.sqrt(rate * (1.0 - rate) / sample_count))
    return BayesErrorEstimate(rate=rate, stderr=stderr, sample_count=sample_count)


def fold_indices(plan, fold: int) -> np.ndarray:
    """The rows of one fold of a `data.FoldPlan`, ascending."""
    return np.nonzero(plan.assignments == fold)[0]
