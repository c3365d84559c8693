"""Reference implementations the tests check the package against.

The package itself never edits a `DecisionTree` or scores a move on whole
trees: the sampler edits its `mcmc.ChainState` in place and reads every
acceptance term from `RowTables`.  These tree-level versions are the
independent references:

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
  for `TestProposalLogRatio` (birth/death reciprocity), criterion 8a,
  `TestSplitPriorLogRatio`, the accept-boundary test and
  `test_proposals_match_tree_edits`.
- `rows_of`, `rows_by_node` and `proposed_state`: a row bitset as indices,
  a state's rows per pre-order node, and the state a proposal leads to,
  built on a copy so the drawn-on state stays as it was.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from treeuq.mcmc import (
    MOVE_BIRTH,
    MOVE_CHANGE_RULE,
    MOVE_CHANGE_SPLIT,
    MOVE_DEATH,
    McmcConfig,
    UniformSplitPrior,
    _split_prior_term,
    _structure_log_ratio,
)
from treeuq.tree import DecisionTree, Leaf, Split, _flatten


@dataclass(frozen=True)
class TreeSummary:
    split_count: int
    leaf_count: int
    depth: int
    feature_path: tuple[int, ...]  # split features in pre-order


def _nested(tree: DecisionTree, nid: int):
    node = tree.nodes[nid]
    if isinstance(node, Leaf):
        return node
    return (node.feature, node.threshold, _nested(tree, node.left), _nested(tree, node.right))


def _edit(tree: DecisionTree, target: int, replace) -> DecisionTree:
    def walk(nid: int):
        node = tree.nodes[nid]
        if nid == target:
            return replace(node)
        if isinstance(node, Leaf):
            return node
        return (node.feature, node.threshold, walk(node.left), walk(node.right))

    return _flatten(walk(tree.root))


def replace_leaf(tree: DecisionTree, leaf_id: int, feature: int, threshold: float) -> DecisionTree:
    """Grow: turn a leaf into a split with two unfitted leaves."""
    if not isinstance(tree.nodes[leaf_id], Leaf):
        raise ValueError(f"node {leaf_id} is not a leaf")
    return _edit(tree, leaf_id, lambda _: (feature, threshold, Leaf(), Leaf()))


def collapse_split(tree: DecisionTree, split_id: int) -> DecisionTree:
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


def with_split_params(tree: DecisionTree, node_id: int, feature: int, threshold: float) -> DecisionTree:
    """Re-parameterize one split in place (structure unchanged)."""
    node = tree.nodes[node_id]
    if not isinstance(node, Split):
        raise ValueError(f"node {node_id} is not a split")
    return _edit(
        tree,
        node_id,
        lambda nd: (feature, threshold, _nested(tree, nd.left), _nested(tree, nd.right)),
    )


def route(tree: DecisionTree, point) -> int:
    """Leaf id reached by the point (left iff value <= threshold)."""
    point = np.asarray(point, dtype=np.float64)
    nid = tree.root
    node = tree.nodes[nid]
    while isinstance(node, Split):
        nid = node.left if point[node.feature] <= node.threshold else node.right
        node = tree.nodes[nid]
    return nid


def summarize(tree: DecisionTree) -> TreeSummary:
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


def prunable_splits(tree: DecisionTree) -> int:
    """Splits whose two children are both leaves (death-move candidates)."""
    count = 0
    for nid in tree.split_ids:
        node = tree.nodes[nid]
        if isinstance(tree.nodes[node.left], Leaf) and isinstance(tree.nodes[node.right], Leaf):
            count += 1
    return count


def proposal_log_ratio(kind: str, old_tree: DecisionTree, new_tree: DecisionTree, cfg: McmcConfig) -> float:
    """Log proposal-times-structure-prior ratio for the move.

    Birth (k -> k+1 leaves) uses the prunable-split count of the proposed
    tree, death (k -> k-1) that of the current tree, making an exact
    birth/death reverse pair sum to zero.  Change moves contribute zero:
    a global redraw cancels against the matching prior factor, and the
    local rule step is symmetric on a grid the move cannot alter.
    """
    k_old, k_new = old_tree.leaf_count, new_tree.leaf_count
    if kind == MOVE_BIRTH:
        if k_new != k_old + 1:
            raise ValueError("birth must add exactly one leaf")
        return _structure_log_ratio(kind, k_old, prunable_splits(new_tree), cfg)
    if kind == MOVE_DEATH:
        if k_new != k_old - 1:
            raise ValueError("death must remove exactly one leaf")
        return _structure_log_ratio(kind, k_old, prunable_splits(old_tree), cfg)
    if kind in (MOVE_CHANGE_SPLIT, MOVE_CHANGE_RULE):
        if k_new != k_old:
            raise ValueError("change moves must preserve the leaf count")
        return 0.0
    raise ValueError(f"unknown move kind {kind!r}")


def _growth_depth(small: DecisionTree, large: DecisionTree) -> int:
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


def split_prior_log_ratio(kind: str, old_tree: DecisionTree, new_tree: DecisionTree, cfg: McmcConfig) -> float:
    """Extra prior term for depth-penalized split priors (zero if uniform)."""
    prior = cfg.split_prior
    if isinstance(prior, UniformSplitPrior) or kind in (MOVE_CHANGE_SPLIT, MOVE_CHANGE_RULE):
        return 0.0
    if kind == MOVE_BIRTH:
        return _split_prior_term(kind, _growth_depth(old_tree, new_tree), prior)
    if kind == MOVE_DEATH:
        return _split_prior_term(kind, _growth_depth(new_tree, old_tree), prior)
    raise ValueError(f"unknown move kind {kind!r}")


def rows_of(bits: int) -> np.ndarray:
    """The ascending row indices of a row set."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").nonzero()[0]


def rows_by_node(state) -> dict:
    """Ascending row indices reaching each node, keyed by the ids of `state.tree`."""
    return {i: rows_of(state.bits[nid]) for i, nid in enumerate(state.order)}


def proposed_state(state, proposal):
    """The chain state after `proposal`, on a copy that shares only the tables."""
    after = copy.deepcopy(state, {id(state.tables): state.tables})
    after.apply(proposal)
    return after
