"""Reversible-jump Metropolis-Hastings sampling over decision trees.

The chain moves between trees of different sizes via birth/death moves and
within a size via change-split/change-rule moves.  Split rules are drawn
uniformly from the observed values of the chosen feature among the rows
reaching the node.  `mh_step` accepts a valid proposal with probability
min(1, exp(total)), where total is the `RowTables.log_lik` difference of
the proposed and current leaves, plus `_structure_log_ratio` (move
probabilities, the prunable-split or leaf count of the reverse move and
the Catalan tree-shape prior; zero for change moves), plus
`_split_prior_term` (the depth-penalized split prior of a birth or death;
zero under the uniform prior).  Every move's rule draw cancels the
rule-prior factor of the node it acts on.  Change moves do not yet carry
the descendant N_d terms: re-routing rows below the changed node changes
N_d, the number of distinct values of split d's feature among d's rows and
so d's rule-prior support, for every split d beneath it, and the total
ignores that.

The chain keeps one mutable `ChainState`: the tree's own pre-order
columns, plus each node's depth and row set, where a node is its
pre-order position; a birth or death inserts or deletes two positions
and renumbers nothing, and a change rewrites the row sets of the
changed split's subtree, the contiguous range of positions after it.
A proposal touches only the subtree it edits.  Every state the chain
reaches keeps every leaf at min_leaf_rows rows or more: the start's
split is drawn among those that leave both sides that many, a birth
checks its two children, a death its merged leaf, and a change
(`ChainState.reroute`) every node whose rows it moves.  A move leaves
the rows of every other leaf as they are, so no proposal checks them
again.  (A root-only chain on fewer rows than min_leaf_rows is the one
exception, and no move from it is valid.)  Each node's training rows are
one Python-int bitset (bit r set iff row r reaches the node).  Each
chain builds its own `RowTables` from its data and prior: per feature
the sorted distinct values and the bitsets of the rows at and below each
value, one bitset per class, and the log-gamma terms for every count
0..n.  The tables read -0.0 as 0.0, so every zero threshold the chain
draws is 0.0.  `ChainState(tables, tree)` reads the split columns of a
`tree.DecisionTree` (the chain's start is one of a single split), routes
its rows from the root with the tables and reads its counts and
log-likelihood from them; `ChainState.tree` gives the state back in that
form.  A split is then `rows & below` and `rows ^ left`, counts are
`int.bit_count`, a change routes its range in one forward pass that
passes over every node whose rows it does not move, and the windowed
change-rule step walks the per-value bitsets without a numpy call.  A
rule redraw (birth, change-split, global change-rule) on a feature
without ties (`RowTables.no_ties`) needs no numpy call either: the i-th
smallest of the node's values sends i + 1 rows left, so a side below
min_leaf_rows is refused at once, and the value is found by bisection
over the `le` sets (`RowTables.draw_rule`); only a feature with ties reads
its values off the node's column.  Either way the draw is the same.
`RowTables.log_lik` adds the table terms with `pairwise_sum`, in the
order numpy's reduction in `log_marginal_of_counts` adds them, so every
bit and every accept decision is the same as evaluating the count matrix
directly.

Log-gamma is `lgam`, a port of the Cephes routine behind
`scipy.special.gammaln` that gives the same bits, so the sampler needs
numpy alone.

Every draw of a chain goes through one `ChainRng` around the chain's own
`Generator`: the start's uniform, each move kind (a uniform against
`McmcConfig.move_bounds`, the running sums of the move probabilities),
each node, feature, rule and window offset, and each accept uniform.  It
reads the generator's raw PCG64 words and gives numpy's `random()` and
`integers(k)` bit for bit, so a chain is the one the `Generator` itself
would draw, at about a quarter of the cost per integer draw.

`run_chain` records its samples as runs (`Samples`): consecutive samples
with no accepted move between them are one `SampleRun`, which holds the
state's `DecisionTree` snapshot and a count.  The trace, one entry per
step, is recorded as columns (`Trace`) and is the chain's one record of
its moves: `Trace.move_counts` and `acceptance_rate` read off it.
`predict_average` predicts each run's tree once (`tree.predict_trees`
re-places only the test rows that change leaf from one run to the next)
and `posterior_path_summary` reads each run's path once.  A chain's
records pickle in a few milliseconds, so pooled chains return cheaply.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .data import Dataset, DataError
from .tree import DecisionTree, ensemble_average, layout, resolve_alpha

MOVE_BIRTH = "birth"
MOVE_DEATH = "death"
MOVE_CHANGE_SPLIT = "change_split"
MOVE_CHANGE_RULE = "change_rule"
MOVE_KINDS = (MOVE_BIRTH, MOVE_DEATH, MOVE_CHANGE_SPLIT, MOVE_CHANGE_RULE)
_MOVE_CODE = {kind: code for code, kind in enumerate(MOVE_KINDS)}


@dataclass(frozen=True)
class UniformSplitPrior:
    """Every tree with the same number of leaves is equally likely."""


@dataclass(frozen=True)
class DepthPenaltySplitPrior:
    """Split probability base*(1+depth)^-decay; decay=0 is depth-free."""

    base: float
    decay: float

    def __post_init__(self):
        if not 0.0 < self.base < 1.0:
            raise ValueError("base split probability must lie strictly in (0, 1)")
        if self.decay < 0.0:
            raise ValueError("decay must be non-negative")

    def split_probability(self, depth: int) -> float:
        return self.base * (1.0 + depth) ** (-self.decay)


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings.

    move_probs is (birth, death, change_split, change_rule) and must sum
    to 1; birth and death are both positive, or both zero for a chain of
    change moves at a fixed size.  min_leaf_rows is the pruning factor:
    any proposal leaving a leaf with fewer rows is rejected outright.
    max_leaves is at least 2, the leaves of the chain's single-split
    start, and defaults to n - 1 at run time.
    """

    move_probs: tuple[float, float, float, float] = (0.1, 0.1, 0.1, 0.7)
    burn_in: int = 2000
    post_burn_in: int = 2000
    sample_rate: int = 1
    restarts: int = 50
    min_leaf_rows: int = 5
    dirichlet_alpha: float | tuple[float, ...] = 1.0
    split_prior: UniformSplitPrior | DepthPenaltySplitPrior = field(default_factory=UniformSplitPrior)
    max_leaves: int | None = None
    change_rule_window: int | None = 2
    seed: int = 0

    def __post_init__(self):
        probs = tuple(float(p) for p in self.move_probs)
        object.__setattr__(self, "move_probs", probs)
        if len(probs) != 4 or any(p < 0 for p in probs):
            raise ValueError("move_probs must be four non-negative numbers")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"move_probs must sum to 1, got {sum(probs)}")
        if (probs[0] == 0) != (probs[1] == 0):
            raise ValueError(f"move_probs: birth and death must both be positive or both zero, got {probs}")
        for name in ("burn_in", "post_burn_in", "sample_rate", "restarts", "min_leaf_rows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.sample_rate > self.post_burn_in:
            raise ValueError(f"sample_rate {self.sample_rate} exceeds post_burn_in {self.post_burn_in}: no sample")
        if self.max_leaves is not None and self.max_leaves < 2:
            raise ValueError(f"max_leaves must be at least 2 (a chain starts from one split), got {self.max_leaves}")
        if self.change_rule_window is not None and self.change_rule_window < 1:
            raise ValueError("change_rule_window must be positive (or None for a global redraw)")
        if isinstance(self.dirichlet_alpha, (int, float)):
            if not 0 < self.dirichlet_alpha < math.inf:
                raise ValueError(f"dirichlet_alpha must be positive and finite, got {self.dirichlet_alpha}")
        else:
            alpha = tuple(float(a) for a in self.dirichlet_alpha)
            object.__setattr__(self, "dirichlet_alpha", alpha)
            if not alpha or not all(0 < a < math.inf for a in alpha):
                raise ValueError(f"dirichlet_alpha entries must be positive and finite, got {alpha}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @cached_property
    def move_bounds(self) -> tuple:
        """The running sums of move_probs: a kind draw u picks the first
        kind whose sum exceeds u."""
        return tuple(accumulate(self.move_probs))


@dataclass(frozen=True, slots=True)
class PosteriorSample:
    tree: DecisionTree
    run_index: int
    iteration: int


class SampleRun(NamedTuple):
    """Consecutive samples of one chain with no accepted move between them:
    the first one's iteration, their number and their tree."""

    run_index: int
    first: int
    count: int
    tree: DecisionTree


@dataclass
class Samples:
    """Posterior samples, run-length encoded: each run of consecutive
    samples that hold one tree is one `SampleRun`, in chain and iteration
    order.  The j-th sample of a run was taken at iteration first +
    j * sample_rate.  Iterating yields one `PosteriorSample` per sample,
    which holds its run's tree itself."""

    runs: list
    sample_rate: int

    def __len__(self) -> int:
        return sum(run.count for run in self.runs)

    def __iter__(self):
        return self.every(1)

    def split_counts(self) -> np.ndarray:
        """The split count of each sample's tree, in sample order."""
        return np.repeat([run.tree.split_count for run in self.runs], [run.count for run in self.runs])

    def every(self, step: int):
        """Sample 0, step, 2 * step, ... as `PosteriorSample`s."""
        at = 0  # position of the run's first sample
        for run in self.runs:
            for k in range(-at % step, run.count, step):
                yield PosteriorSample(run.tree, run.run_index, run.first + k * self.sample_rate)
            at += run.count


class Trace(NamedTuple):
    """The per-iteration trace as columns, one entry per iteration: the
    state after the step, its move kind (an index into MOVE_KINDS) and
    whether it was accepted."""

    run_index: np.ndarray
    iteration: np.ndarray
    post: np.ndarray  # past burn-in
    log_lik: np.ndarray
    split_count: np.ndarray
    move: np.ndarray
    accepted: np.ndarray

    def move_counts(self) -> tuple[dict, dict]:
        """(proposed, accepted): each move kind's number of steps and of
        accepted steps; an invalid proposal counts as proposed."""
        proposed = np.bincount(self.move, minlength=len(MOVE_KINDS))
        accepted = np.bincount(self.move[self.accepted], minlength=len(MOVE_KINDS))
        return dict(zip(MOVE_KINDS, proposed.tolist())), dict(zip(MOVE_KINDS, accepted.tolist()))

    @property
    def acceptance_rate(self) -> float:
        """Accepted steps over all steps; invalid proposals count as steps."""
        return int(np.count_nonzero(self.accepted)) / len(self.accepted)


@dataclass
class ChainResult:
    samples: Samples
    trace: Trace
    warnings: tuple = ()


# ---------------------------------------------------------------------------
# Closed-form pieces
# ---------------------------------------------------------------------------

# Cephes lgam coefficients (Moshier 1989): the Stirling series (A) and the
# rational approximation of log Gamma on [2, 3) (B over C, C monic).
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178
_LGAM_MAX = 2.556348e305  # above this log Gamma overflows


def lgam(x: float) -> float:
    """log Gamma(x) for x > 0: Cephes `lgam`, the routine behind
    `scipy.special.gammaln`, operation for operation in float64, so the two
    agree bit for bit (given the same libm `log`).  Below 13 the recurrence
    shifts x into [2, 3) for the rational approximation; above, Stirling's
    series, shortened from 1000 on and bare from 1e8 on."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"lgam needs x > 0, got {x!r}")
    if x < 13.0:
        # shift x into [2, 3) by the recurrence, collecting the factor in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        b, c = _LGAM_B[0], x + _LGAM_C[0]
        for coef in _LGAM_B[1:]:
            b = b * x + coef
        for coef in _LGAM_C[1:]:
            c = c * x + coef
        return math.log(z) + x * b / c
    if x > _LGAM_MAX:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = _LGAM_A[0]
    for coef in _LGAM_A[1:]:
        a = a * p + coef
    return q + a / x


def pairwise_sum(values: list) -> float:
    """The float64 sum of `values` in the order `np.add.reduce` adds a
    contiguous 1-d array, so the bits are the same: a plain loop from 0.0
    below 8 items; up to 128, eight partial sums (item i goes to sum i % 8)
    combined as a tree, then the items after the last multiple of 8; above
    that, the sums of two halves split on a multiple of 8.  (The builtin
    `sum` compensates its rounding from Python 3.12 on, so it is not used.)"""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        tail = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        for i in range(8, tail, 8):
            a0, a1, a2, a3, a4, a5, a6, a7 = values[i : i + 8]
            r0, r1, r2, r3, r4, r5, r6, r7 = r0 + a0, r1 + a1, r2 + a2, r3 + a3, r4 + a4, r5 + a5, r6 + a6, r7 + a7
        # 0.0 + : the reduction's identity, which makes a -0.0 total 0.0
        total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
        for v in values[tail:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


@lru_cache(maxsize=None)
def log_catalan(k: int) -> float:
    """log of binom(2k, k) / (k + 1), via log-gamma (safe for large k)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return lgam(2 * k + 1) - 2.0 * lgam(k + 1) - math.log(k + 1)


_lgam_array = np.vectorize(lgam, otypes=[np.float64])


class DirichletTerms(NamedTuple):
    """The prior-only parts of the marginal likelihood, computed once per alpha."""

    alpha: np.ndarray
    alpha_sum: float
    log_norm: float  # log Gamma(sum alpha) - sum log Gamma(alpha)

    @classmethod
    def of(cls, alpha) -> "DirichletTerms":
        alpha = np.asarray(alpha, dtype=np.float64)
        alpha_sum = float(alpha.sum())
        log_norm = lgam(alpha_sum) - pairwise_sum([lgam(a) for a in alpha.tolist()])
        if not math.isfinite(log_norm):
            raise ValueError(f"alpha {alpha.tolist()} is too large: log Gamma of its sum overflows")
        return cls(alpha, alpha_sum, log_norm)


def log_marginal_of_counts(counts: np.ndarray, terms: DirichletTerms) -> float:
    """Dirichlet-multinomial log marginal likelihood of a (leaves x classes)
    float64 count matrix, leaves in pre-order.

    The reference evaluation behind `log_marginal_likelihood`; the sampler's
    `RowTables.log_lik` gives the same bits from table terms, which the
    accept decisions and the reported log-likelihoods rely on.
    """
    normalizer = counts.shape[0] * terms.log_norm
    leaf_terms = _lgam_array(counts + terms.alpha).sum() - _lgam_array(counts.sum(axis=1) + terms.alpha_sum).sum()
    return float(normalizer + leaf_terms)


def log_marginal_likelihood(tree: DecisionTree, alpha) -> float:
    """Log probability of the tree's leaf counts with class probabilities
    integrated out under a per-leaf Dirichlet(alpha) prior."""
    if None in tree.leaf_counts:
        raise ValueError("leaf counts not fitted")
    return log_marginal_of_counts(np.asarray(tree.leaf_counts, dtype=np.float64), DirichletTerms.of(alpha))


def valid_rules(values: np.ndarray) -> np.ndarray:
    """Sorted distinct observed values; their count is the rule-prior support size."""
    values = np.sort(values)  # np.unique's algorithm, without its overhead; data is finite
    if values.size == 0:
        raise ValueError("no rows at node")
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _structure_log_ratio(kind: str, k_old: int, q: int, cfg: McmcConfig) -> float:
    """Log proposal-times-structure-prior ratio of a move from a tree of
    k_old leaves; q is the prunable-split count of the larger of the two
    trees (the proposed one for a birth, the current one for a death)."""
    if kind in (MOVE_CHANGE_SPLIT, MOVE_CHANGE_RULE):
        return 0.0
    birth_p, death_p = cfg.move_probs[0], cfg.move_probs[1]
    if kind == MOVE_BIRTH:
        return (
            math.log(death_p / birth_p)
            + math.log(k_old / q)
            + log_catalan(k_old)
            - log_catalan(k_old + 1)
        )
    if kind == MOVE_DEATH:
        return (
            math.log(birth_p / death_p)
            + math.log(q / (k_old - 1))
            + log_catalan(k_old)
            - log_catalan(k_old - 1)
        )
    raise ValueError(f"unknown move kind {kind!r}")


def _split_prior_term(kind: str, depth: int, prior) -> float:
    """Depth-penalized split-prior log ratio of a birth or death at a node
    of the given depth (the leaf that grows, or the split that is pruned)."""
    if isinstance(prior, UniformSplitPrior) or kind in (MOVE_CHANGE_SPLIT, MOVE_CHANGE_RULE):
        return 0.0
    p_here = prior.split_probability(depth)
    p_child = prior.split_probability(depth + 1)
    term = math.log(p_here) + 2.0 * math.log(1.0 - p_child) - math.log(1.0 - p_here)
    if kind == MOVE_BIRTH:
        return term
    if kind == MOVE_DEATH:
        return -term
    raise ValueError(f"unknown move kind {kind!r}")


# ---------------------------------------------------------------------------
# Row sets
# ---------------------------------------------------------------------------


def bits_of(rows: np.ndarray) -> int:
    """The row set of an index array as an int: bit r set iff row r is in it."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return 0
    mask = np.zeros(int(rows.max()) + 1, dtype=bool)
    mask[rows] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


class RowTables:
    """Lookup tables of one training set and prior; each chain builds its own.

    Per feature f: `columns[f]`, the column, contiguous; `values[f]`, its
    sorted distinct values; `rank[f]`, a value -> position dict; `eq[f][j]`,
    the rows whose value is values[f][j]; `le[f][j]`, the rows whose value
    is at most that; `no_ties[f]`, whether its n values are distinct, so
    that a row set's count of distinct values is its row count.
    `class_bits[c]` holds the rows of class c.
    `lg_class[c][k]` = lgam(k + alpha_c) and `lg_total[k]` =
    lgam(k + sum(alpha)) for k = 0..n are `lgam` of the same float64
    inputs as `log_marginal_of_counts` evaluates, so sums over them in
    numpy's order (`log_lik`) reproduce its bits.

    Each column is read as `column + 0.0`, which turns -0.0 into 0.0: a
    feature's zeros are one value, whatever rows reach a node, so every
    threshold drawn from the tables is a value of `values[f]`.  Routing is
    unchanged, since -0.0 <= t exactly when 0.0 <= t.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, class_count: int, alpha):
        n, m = X.shape
        self.n, self.class_count = n, class_count
        self.columns = [X[:, f] + 0.0 for f in range(m)]
        self.values, self.rank, self.eq, self.le = [], [], [], []
        for column in self.columns:
            values, inverse = np.unique(column, return_inverse=True)
            eq = [0] * len(values)
            for r, j in enumerate(inverse.tolist()):
                eq[j] |= 1 << r
            self.values.append(values.tolist())
            self.rank.append({v: j for j, v in enumerate(self.values[-1])})
            self.eq.append(eq)
            self.le.append(list(accumulate(eq, operator.or_)))
        self.no_ties = [len(values) == n for values in self.values]
        self.class_bits = [bits_of(np.flatnonzero(y == c)) for c in range(class_count)]
        terms = DirichletTerms.of(resolve_alpha(alpha, class_count))
        self.lg_class = [[lgam(k + a) for k in range(n + 1)] for a in terms.alpha.tolist()]
        self.lg_total = [lgam(k + terms.alpha_sum) for k in range(n + 1)]
        self.log_norm = terms.log_norm

    def column_at(self, feature: int, rows: int) -> np.ndarray:
        """The feature's values on a row set, in ascending row order."""
        raw = np.frombuffer(rows.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        return self.columns[feature][np.unpackbits(raw, count=self.n, bitorder="little").view(bool)]

    def draw_rule(self, rng, feature: int, rows: int, min_rows: int) -> tuple[float, int] | None:
        """A threshold drawn uniformly from the feature's distinct values
        among `rows`, and the rows it sends left; None when either side
        would hold fewer than min_rows rows.  The draw and the value are
        those of `_pick(rng, valid_rules(column_at(feature, rows)))`.

        Without ties in the feature, `rows` holds size distinct values and
        the i-th smallest sends k = i + 1 rows left and size - k right, so a
        side below min_rows is refused before any search; otherwise the
        value is values[f][j] for the first j whose `le[f][j]` holds k of
        `rows`, found by bisection on `(rows & le[f][j]).bit_count()`.  With
        ties, the values are read off the column."""
        if not self.no_ties[feature]:
            threshold = float(_pick(rng, valid_rules(self.column_at(feature, rows))))
            left = rows & self.below(feature, threshold)
            return None if min(left.bit_count(), (rows ^ left).bit_count()) < min_rows else (threshold, left)
        size = rows.bit_count()
        k = rng.integers(size) + 1
        if min(k, size - k) < min_rows:
            return None
        le = self.le[feature]
        lo, hi = k - 1, self.n - 1 - (size - k)  # the value's rank among all n values lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if (rows & le[mid]).bit_count() < k:
                lo = mid + 1
            else:
                hi = mid
        return self.values[feature][lo], rows & le[lo]

    def below(self, feature: int, threshold: float) -> int:
        """The rows with x_feature <= threshold."""
        j = self.rank[feature].get(threshold)
        if j is None:
            j = bisect_right(self.values[feature], threshold) - 1
            if j < 0:
                return 0
        return self.le[feature][j]

    def step(self, feature: int, rows: int, current: float, offset: int) -> float | None:
        """The change-rule window step: the value `offset` distinct values
        of the feature among `rows` away from `current` (negative:
        downwards), found by walking `eq` from the rank of `current`.  None
        if `current` is not a value of those rows or the step leaves them."""
        eq = self.eq[feature]
        at = self.rank[feature].get(current)
        if at is None or not rows & eq[at]:
            return None
        step, end = (1, len(eq)) if offset > 0 else (-1, -1)
        remaining = abs(offset)
        while remaining:
            at += step
            if at == end:
                return None
            if rows & eq[at]:
                remaining -= 1
        return self.values[feature][at]

    def terms(self, counts: tuple) -> list:
        """The per-class log-gamma terms of a leaf's class counts."""
        return [lg[k] for lg, k in zip(self.lg_class, counts)]

    def leaf(self, bits: int) -> tuple:
        """(class counts, per-class log-gamma terms, total term) of a leaf."""
        counts = tuple([(bits & c).bit_count() for c in self.class_bits])
        return counts, self.terms(counts), self.lg_total[bits.bit_count()]

    def log_lik(self, terms: list, totals: list) -> float:
        """`log_marginal_of_counts` of the leaves whose flat per-class terms
        and total terms these are, bit for bit: the same values, summed in
        numpy's order."""
        return len(totals) * self.log_norm + (pairwise_sum(terms) - pairwise_sum(totals))


# ---------------------------------------------------------------------------
# Chain state
# ---------------------------------------------------------------------------


class ChainState:
    """The chain's current tree as its pre-order columns, edited in place
    by accepted moves.

    `ChainState(tables, tree)` is the state at `tree` (None for the
    root-only tree) on the data and prior of `tables`.  The tree's split
    columns are all it reads, and `tree.layout` refuses a feature column
    that is not one full binary tree: its rows are routed down from the
    root with `RowTables.below`, and its leaf class counts, log-gamma
    terms and `log_lik` are read from the tables.

    A node is its pre-order position.  The per-node lists are the
    `DecisionTree` columns (split feature, -1 for a leaf; threshold, 0.0 for
    a leaf) plus the depth and `bits`, the set of training rows that reach
    the node as an int with bit r set for row r.  A split's left child is
    the next position, so split p is prunable iff positions p + 1 and
    p + 2 are leaves, and its subtree runs from p to the first position
    at which the leaves counted from p outnumber the splits.  A
    birth at leaf p inserts the two new leaves at p + 1 and p + 2; a death
    at split p deletes them; neither renumbers anything, since no node
    holds a position.  A change at split p overwrites the `bits` of p's
    subtree after p.  A leaf's row count is its
    `bits.bit_count()`.  Per leaf, in pre-order, `leaf_class` holds the
    class counts, `leaf_terms` (flat, class_count per leaf) and
    `leaf_totals` the log-gamma terms of the marginal likelihood.  These
    lists are replaced, never edited, so the state and a proposal drawn on
    it may share them.

    A split routes its row set with two integer operations (left =
    rows & below, right = rows ^ left) and counts with `int.bit_count`, so
    a proposal costs a few big-integer operations per touched node; a
    change routes no subtree whose row set it does not alter.  A node's
    distinct values of a feature, should a move need their count, are
    the `RowTables.eq` sets that meet its row set.

    `tree`, the state as a `DecisionTree`, is built when read and cached
    until the next accepted move, so the samples of a run of rejected
    steps share one snapshot.  Consecutive snapshots also share their
    `feature` tuple, rebuilt only after a birth, a death or a change that
    sets a new feature, so a run of change moves holds one copy of it
    (pickling a `ChainResult` stores each shared tuple once).  The state
    keeps no tally of moves: `run_chain` records each step in the `Trace`.
    """

    def __init__(self, tables: RowTables, tree: DecisionTree | None = None):
        feature, threshold = ((-1,), (0.0,)) if tree is None else (tree.feature, tree.threshold)
        right, self.depth = layout(feature)
        self.tables, self._tree = tables, None
        self._feature_column = None  # the snapshot's feature tuple, kept until the feature list changes
        self.feature, self.threshold = list(feature), list(threshold)
        self.bits = [(1 << tables.n) - 1] + [0] * (len(feature) - 1)
        for nid, f in enumerate(feature):  # pre-order: a parent's rows are routed before its children's
            if f >= 0:
                goes_left = self.bits[nid] & tables.below(f, threshold[nid])
                self.bits[nid + 1], self.bits[right[nid]] = goes_left, self.bits[nid] ^ goes_left
        self._index_structure()
        classes, terms, totals = zip(*[tables.leaf(self.bits[nid]) for nid in self.leaf_ids])
        self.leaf_class, self.leaf_totals = list(classes), list(totals)
        self.leaf_terms = [t for lg in terms for t in lg]
        self.log_lik = tables.log_lik(self.leaf_terms, self.leaf_totals)

    @property
    def tree(self) -> DecisionTree:
        if self._tree is None:
            if self._feature_column is None:
                self._feature_column = tuple(self.feature)
            self._tree = DecisionTree(self._feature_column, tuple(self.threshold), tuple(self.leaf_class))
        return self._tree

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_ids)

    @property
    def split_count(self) -> int:
        return len(self.split_ids)

    def _index_structure(self) -> None:
        """Pre-order leaf and split positions and death candidates."""
        feature = self.feature
        self.leaf_ids = [nid for nid, f in enumerate(feature) if f < 0]
        self.split_ids = [nid for nid, f in enumerate(feature) if f >= 0]
        self.prunable = [nid for nid in self.split_ids if feature[nid + 1] < 0 and feature[nid + 2] < 0]

    def reroute(self, node: int, feature: int, threshold: float, tables: RowTables, min_rows: int):
        """Route the rows reaching split `node` down its subtree with the
        node's rule set to (feature, threshold).

        The subtree is the pre-order range node..end-1.  One forward pass
        gives each position its rows, with a stack of the rows of the right
        children still ahead; it ends at the leaf that finds the stack
        empty.  A split whose row set does not change hands on its
        children's as they are.  Returns (end, the row sets of positions node+1..end-1), or None if
        a node whose row set changes holds fewer than min_rows rows; the
        others hold enough already (see the module docstring).
        """
        features, thresholds, bits = self.feature, self.threshold, self.bits
        goes_left = bits[node] & tables.below(feature, threshold)
        rows, ahead, new = goes_left, [bits[node] ^ goes_left], []
        p = node + 1
        while True:
            new.append(rows)
            changed = rows != bits[p]
            if changed and rows.bit_count() < min_rows:
                return None
            if features[p] >= 0:
                goes_left = rows & tables.below(features[p], thresholds[p]) if changed else bits[p + 1]
                ahead.append(rows ^ goes_left)
                rows = goes_left
            elif ahead:
                rows = ahead.pop()
            else:
                return p + 1, new
            p += 1

    def apply(self, proposal: "Proposal") -> None:
        """Make the proposed tree current, editing the lists in place."""
        p, kind = proposal.node, proposal.kind
        if kind in (MOVE_BIRTH, MOVE_DEATH):
            # a birth at leaf p inserts positions p + 1 and p + 2, a death at split p deletes them
            lists = (self.feature, self.threshold, self.depth, self.bits)
            if kind == MOVE_BIRTH:
                d = self.depth[p] + 1
                for values, pair in zip(lists, ((-1, -1), (0.0, 0.0), (d, d), proposal.rows)):
                    values[p + 1 : p + 1] = pair
                self.feature[p], self.threshold[p] = proposal.feature, proposal.threshold
            else:
                for values in lists:
                    del values[p + 1 : p + 3]
                self.feature[p], self.threshold[p] = -1, 0.0
            self._index_structure()
            self._feature_column = None
        else:
            if proposal.feature != self.feature[p]:
                self._feature_column = None
            self.feature[p], self.threshold[p] = proposal.feature, proposal.threshold
            self.bits[p + 1 : p + 1 + len(proposal.rows)] = proposal.rows
        self.leaf_class, self.leaf_terms, self.leaf_totals = proposal.leaf_class, proposal.leaf_terms, proposal.leaf_totals
        self.log_lik = proposal.log_lik
        self._tree = None


class Proposal:
    """One drawn move, as a plain record.

    A valid proposal holds the edit: the pre-order position it acts on, the
    new rule, the new row sets (birth: the two children's; change: those of
    every position of the changed split's subtree after it, in order), the
    proposed per-leaf lists (class counts, log-gamma terms), their
    `log_lik`, read once from `tables`, and the depth the split prior term
    needs (of the leaf that grows, or the split that is pruned).  It keeps
    no reference to the state it was drawn on, and names no position but
    its own: `ChainState.apply` makes it that state's current tree.
    """

    def __init__(self, kind: str, valid: bool, log_proposal_ratio: float = 0.0, *, tables: RowTables | None = None,
                 node: int = -1, feature: int = -1, threshold: float = 0.0, rows=(), leaves=None, depth: int = 0):
        self.kind, self.valid, self.log_proposal_ratio = kind, valid, log_proposal_ratio
        self.node, self.feature, self.threshold, self.rows = node, feature, threshold, rows
        self.leaf_class, self.leaf_terms, self.leaf_totals = leaves or (None,) * 3
        self.log_lik = tables.log_lik(self.leaf_terms, self.leaf_totals) if valid else None
        self.depth = depth


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


WORD_BLOCK = 1024  # raw words a `ChainRng` reads from its generator at a time
_LOW_HALF = 0xFFFFFFFF
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


class ChainRng:
    """A chain's random draws, read from the raw 64-bit words of its
    `Generator`'s PCG64 and equal, draw for draw, to calling the
    `Generator` itself.

    `random()` is numpy's double: the top 53 bits of a whole word, times
    2**-53.  `integers(k)` is numpy's bounded draw for 1 < k <= 2**32:
    Lemire's multiply-shift on a 32-bit half word, with its rejection loop
    (Lemire 2019, ACM TOMACS 29).  Like numpy's PCG64 it takes a word's
    low half first and keeps the high half for the next `integers` call;
    `random()` leaves that half alone.  `integers(1)` is 0 and draws
    nothing, as numpy's is; a larger k (numpy's 64-bit path) is refused.
    Words are read WORD_BLOCK at a time, so nothing else may draw from the
    generator.
    """

    __slots__ = ("_bit_generator", "_next", "_half")

    def __init__(self, generator: np.random.Generator):
        self._bit_generator = generator.bit_generator
        self._next = iter(()).__next__
        self._half = -1  # the kept high half; -1 when there is none

    def _word(self) -> int:
        try:
            return self._next()
        except StopIteration:
            self._next = iter(self._bit_generator.random_raw(WORD_BLOCK).tolist()).__next__
            return self._next()

    def random(self) -> float:
        return (self._word() >> 11) * _DOUBLE_UNIT

    def _half_word(self) -> int:
        half = self._half
        if half < 0:
            word = self._word()
            self._half = word >> 32
            return word & _LOW_HALF
        self._half = -1
        return half

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        if not 1 < k <= 1 << 32:
            raise ValueError(f"integers(k) needs 1 <= k <= 2**32, got {k}")
        m = self._half_word() * k
        if m & _LOW_HALF < k:
            threshold = (1 << 32) % k
            while m & _LOW_HALF < threshold:
                m = self._half_word() * k
        return m >> 32


def _effective_max_leaves(cfg: McmcConfig, n: int) -> int:
    cap = n - 1
    return min(cfg.max_leaves, cap) if cfg.max_leaves is not None else cap


def _pick(rng: ChainRng, seq):
    return seq[rng.integers(len(seq))]


def _draw_kind(rng: ChainRng, move_bounds: tuple) -> str:
    return MOVE_KINDS[min(bisect_right(move_bounds, rng.random()), len(MOVE_KINDS) - 1)]


def _spliced(state: ChainState, lo: int, hi: int, entries: list) -> tuple:
    """The state's per-leaf lists with the leaves at pre-order positions
    [lo, hi) replaced by `entries` (see `RowTables.leaf`)."""
    width = state.tables.class_count
    classes, terms, totals = zip(*entries)
    return (
        state.leaf_class[:lo] + list(classes) + state.leaf_class[hi:],
        state.leaf_terms[: lo * width] + [t for lg in terms for t in lg] + state.leaf_terms[hi * width :],
        state.leaf_totals[:lo] + list(totals) + state.leaf_totals[hi:],
    )


def propose_move(state: ChainState, cfg: McmcConfig, rng: ChainRng) -> Proposal:
    """Draw a move kind and evaluate the proposal on the touched subtree.

    A birth splits one leaf's rows, a death merges two sibling leaves, and a
    change re-routes only the rows reaching the changed node, down its
    subtree.  A proposal is invalid (to be rejected, still counted as
    proposed) when a resulting leaf would hold fewer than min_leaf_rows
    rows, a birth would exceed the leaf cap, or a structural move has no
    candidate node.  Only the leaves a move touches are checked: every
    state the chain reaches keeps its other leaves at min_leaf_rows rows or
    more (see the module docstring).  The state is left unchanged.
    """
    tables = state.tables
    kind = _draw_kind(rng, cfg.move_bounds)
    min_rows = cfg.min_leaf_rows

    if kind == MOVE_BIRTH:
        if state.leaf_count + 1 > _effective_max_leaves(cfg, tables.n):
            return Proposal(kind, False)
        at = rng.integers(state.leaf_count)
        leaf = state.leaf_ids[at]
        rows = state.bits[leaf]
        feature = rng.integers(len(tables.columns))
        drawn = tables.draw_rule(rng, feature, rows, min_rows)
        if drawn is None:
            return Proposal(kind, False)
        threshold, goes_left = drawn
        children = (goes_left, rows ^ goes_left)
        # the new split is prunable, and the leaf's parent no longer is: a left
        # child's parent is the split before it; a right child's is prunable
        # only if it sits two positions back, with the leaf before as its left child
        parent = leaf - 1 if state.feature[leaf - 1] >= 0 else leaf - 2
        q = len(state.prunable) + 1 - (parent in state.prunable)
        return Proposal(
            kind, True, _structure_log_ratio(kind, state.leaf_count, q, cfg), tables=tables,
            node=leaf, feature=feature, threshold=threshold, rows=children,
            leaves=_spliced(state, at, at + 1, [tables.leaf(c) for c in children]), depth=state.depth[leaf],
        )

    if kind == MOVE_DEATH:
        candidates = state.prunable
        if not candidates:
            return Proposal(kind, False)
        node = _pick(rng, candidates)
        size = state.bits[node].bit_count()
        if size < min_rows:
            return Proposal(kind, False)
        at = bisect_left(state.leaf_ids, node + 1)  # the left child; the right one is the next leaf
        counts = tuple([a + b for a, b in zip(state.leaf_class[at], state.leaf_class[at + 1])])
        merged = (counts, tables.terms(counts), tables.lg_total[size])
        return Proposal(
            kind, True, _structure_log_ratio(kind, state.leaf_count, len(candidates), cfg), tables=tables,
            node=node, leaves=_spliced(state, at, at + 2, [merged]), depth=state.depth[node],
        )

    if not state.split_ids:
        return Proposal(kind, False)
    node = _pick(rng, state.split_ids)
    rows = state.bits[node]
    if kind == MOVE_CHANGE_SPLIT or cfg.change_rule_window is None:
        # a redraw of the rule, on a new feature for a change-split.  A side
        # that `draw_rule` refuses holds fewer than min_rows rows, so its
        # rows changed (every state keeps min_rows a leaf): `reroute` would
        # refuse it too
        feature = rng.integers(len(tables.columns)) if kind == MOVE_CHANGE_SPLIT else state.feature[node]
        drawn = tables.draw_rule(rng, feature, rows, min_rows)
        if drawn is None:
            return Proposal(kind, False)
        threshold = drawn[0]
    else:
        feature = state.feature[node]
        # Local symmetric step on the node's observed-value grid.  The
        # rows reaching the node (hence the grid) are unchanged by the
        # move, so forward and reverse steps have equal probability;
        # a step off the grid, or a current rule that upstream moves
        # pushed off the grid (reverse impossible), is invalid.
        w = cfg.change_rule_window
        current = state.threshold[node]
        offset = rng.integers(2 * w)
        offset = offset - w if offset < w else offset - w + 1
        threshold = tables.step(feature, rows, current, offset)
        if threshold is None:
            return Proposal(kind, False)
    routed = state.reroute(node, feature, threshold, tables, min_rows)
    if routed is None:
        return Proposal(kind, False)
    end, rows = routed
    new_class, new_terms, new_totals = list(state.leaf_class), list(state.leaf_terms), list(state.leaf_totals)
    width = tables.class_count
    for at in range(bisect_left(state.leaf_ids, node), bisect_left(state.leaf_ids, end)):
        leaf = state.leaf_ids[at]
        leaf_rows = rows[leaf - node - 1]
        if leaf_rows != state.bits[leaf]:
            new_class[at], new_terms[at * width : (at + 1) * width], new_totals[at] = tables.leaf(leaf_rows)
    return Proposal(
        kind, True, _structure_log_ratio(kind, state.leaf_count, 0, cfg), tables=tables,
        node=node, feature=feature, threshold=threshold, rows=rows, leaves=(new_class, new_terms, new_totals),
    )


def mh_step(state: ChainState, cfg: McmcConfig, rng: ChainRng) -> tuple[str, bool]:
    """One Metropolis-Hastings transition; mutates state, returns (kind, accepted)."""
    proposal = propose_move(state, cfg, rng)
    if not proposal.valid:
        return proposal.kind, False
    total = (
        (proposal.log_lik - state.log_lik)
        + proposal.log_proposal_ratio
        + _split_prior_term(proposal.kind, proposal.depth, cfg.split_prior)
    )
    if total >= 0.0 or rng.random() < math.exp(total):
        state.apply(proposal)
        return proposal.kind, True
    return proposal.kind, False

# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


def draw_initial_split(tables: RowTables, min_leaf_rows: int, rng: ChainRng) -> tuple[int, float] | None:
    """One (feature, rule) pair from the split prior restricted to pairs that
    leave both sides with at least min_leaf_rows rows; None if none exists."""
    n, m = tables.n, len(tables.columns)
    features, thresholds, weights = [], [], []
    for f, (vals, le) in enumerate(zip(tables.values, tables.le)):
        for v, rows in zip(vals, le):
            if min_leaf_rows <= rows.bit_count() <= n - min_leaf_rows:
                features.append(f)
                thresholds.append(v)
                weights.append(1.0 / (m * len(vals)))
    if not features:
        return None
    w = np.asarray(weights)
    w = np.cumsum(w / w.sum())
    w[-1] = 1.0
    j = int(np.searchsorted(w, rng.random(), side="right"))
    return features[j], thresholds[j]


def _derived_rng(seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, run_index)))


def run_chain(ds: Dataset, cfg: McmcConfig, run_index: int = 0) -> ChainResult:
    """One restart: random single-split start, burn-in, then sampled post phase.

    The start is the root-only tree, with a warning, if no split leaves
    min_leaf_rows rows a side or the leaf cap is below 2 (n <= 2 rows).

    Records every sample_rate-th post-burn-in tree, as runs (`Samples`),
    and a full per-iteration trace, as columns (`Trace`).  The private
    PRNG is derived from (cfg.seed, run_index), so runs are reproducible
    regardless of execution order.
    """
    if (np.bincount(ds.labels, minlength=ds.class_count) == 0).any():
        raise DataError("every class must be present in the training data")
    tables = RowTables(ds.features, ds.labels, ds.class_count, cfg.dirichlet_alpha)
    rng = ChainRng(_derived_rng(cfg.seed, run_index))
    warnings, tree = (), None
    if (cap := _effective_max_leaves(cfg, tables.n)) < 2:
        warnings = (f"leaf cap {cap} ({tables.n} training rows) is below a split's 2 leaves; "
                    "chain holds the root-only model",)
    elif (start := draw_initial_split(tables, cfg.min_leaf_rows, rng)) is None:
        warnings = ("no valid split under min_leaf_rows; chain holds the root-only model",)
    else:
        tree = DecisionTree((start[0], -1, -1), (start[1], 0.0, 0.0), (None, None))
    state = ChainState(tables, tree)

    firsts, counts, trees = [], [], []
    log_liks, split_counts, moves, accepts = [], [], [], []
    total_iters = cfg.burn_in + cfg.post_burn_in
    for i in range(1, total_iters + 1):
        kind, accepted = mh_step(state, cfg, rng)
        log_liks.append(state.log_lik)
        split_counts.append(state.split_count)
        moves.append(kind)
        accepts.append(accepted)
        if i > cfg.burn_in and (i - cfg.burn_in) % cfg.sample_rate == 0:
            tree = state.tree
            if trees and trees[-1] is tree:
                counts[-1] += 1
            else:
                firsts.append(i)
                counts.append(1)
                trees.append(tree)
    iterations = np.arange(1, total_iters + 1, dtype=np.int32)
    trace = Trace(
        run_index=np.full(total_iters, run_index, dtype=np.int32), iteration=iterations,
        post=iterations > cfg.burn_in, log_lik=np.array(log_liks), split_count=np.array(split_counts, dtype=np.int32),
        move=np.array([_MOVE_CODE[kind] for kind in moves], dtype=np.int8), accepted=np.array(accepts),
    )
    samples = Samples([SampleRun(run_index, *run) for run in zip(firsts, counts, trees)], cfg.sample_rate)
    return ChainResult(samples=samples, trace=trace, warnings=warnings)


def _chain_job(args) -> ChainResult:
    ds, cfg, run_index = args
    return run_chain(ds, cfg, run_index)


def run_restarts(ds: Dataset, cfg: McmcConfig, workers: int = 1) -> ChainResult:
    """Pool the samples of `cfg.restarts` independent chains.

    Chains own private PRNGs derived from (seed, run_index); results are
    merged in run order, so parallel and serial execution give identical
    output.  Each distinct warning is kept once (restarts warn alike).
    """
    jobs = [(ds, cfg, r) for r in range(cfg.restarts)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chain_job, jobs))
    else:
        results = [_chain_job(job) for job in jobs]
    return ChainResult(
        samples=Samples([run for res in results for run in res.samples.runs], cfg.sample_rate),
        trace=Trace(*map(np.concatenate, zip(*(res.trace for res in results)))),
        warnings=tuple(dict.fromkeys(w for res in results for w in res.warnings)),
    )


# ---------------------------------------------------------------------------
# Posterior summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionSummary:
    probabilities: np.ndarray  # (n, C) posterior-averaged class probabilities
    votes: np.ndarray  # (n, C) hard-label histogram over samples


def predict_average(samples: Samples, X: np.ndarray, alpha) -> PredictionSummary:
    """Average the per-tree class probabilities and tally hard votes; each
    run's tree is predicted once and counted once per sample."""
    if not samples:
        raise ValueError("no posterior samples to average")
    probs, votes = ensemble_average(
        [run.tree for run in samples.runs], [run.count for run in samples.runs], X, alpha
    )
    return PredictionSummary(probabilities=probs, votes=votes)


class PathRow(NamedTuple):
    feature_path: tuple
    split_count: int
    weight: float
    count: int


def posterior_path_summary(samples: Samples) -> tuple[list[PathRow], dict[int, int]]:
    """Group samples by their pre-order feature path.

    The path is read off each run's tree once.  Returns rows
    sorted by posterior weight (descending, ties by path) and the histogram
    of split counts across samples.
    """
    if not samples:
        raise ValueError("no posterior samples to summarize")
    groups: dict[tuple, int] = {}
    histogram: dict[int, int] = {}
    for run in samples.runs:
        path = tuple(f for f in run.tree.feature if f >= 0)
        groups[path] = groups.get(path, 0) + run.count
        histogram[len(path)] = histogram.get(len(path), 0) + run.count
    total = len(samples)
    rows = [
        PathRow(feature_path=path, split_count=len(path), weight=count / total, count=count)
        for path, count in groups.items()
    ]
    rows.sort(key=lambda r: (-r.weight, r.feature_path))
    return rows, dict(sorted(histogram.items()))
