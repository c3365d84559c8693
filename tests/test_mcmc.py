import hashlib
import math
import pickle
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from oracles import (
    ArenaTree,
    Leaf,
    Split,
    arena,
    collapse_split,
    columns,
    leaf_predictive,
    proposal_log_ratio,
    proposed_state,
    replace_leaf,
    rows_by_node,
    rows_of,
    single_leaf_tree,
    split_prior_log_ratio,
    summarize,
    with_split_params,
)
from treeuq import mcmc
from treeuq.data import DataError, Dataset
from treeuq.mcmc import (
    ChainState,
    DepthPenaltySplitPrior,
    McmcConfig,
    MOVE_BIRTH,
    MOVE_CHANGE_RULE,
    MOVE_CHANGE_SPLIT,
    MOVE_DEATH,
    RowTables,
    UniformSplitPrior,
    draw_initial_split,
    log_accept_ratio,
    log_catalan,
    log_marginal_likelihood,
    mh_step,
    posterior_path_summary,
    predict_average,
    propose_move,
    resolve_alpha,
    run_chain,
    run_restarts,
    valid_rules,
)
from treeuq.tree import DecisionTree, fit_partition, layout, predict_trees, serialize

ALPHA2 = np.ones(2)


def small_dataset(n=40, seed=0, m=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
    if y.min() == y.max():  # force both classes
        y[0] = 1 - y[0]
    return Dataset(X, y, 2, tuple(f"f{i}" for i in range(m)))


def samples_of(trees, counts=None) -> mcmc.Samples:
    """Run-length samples of chain 0 at sample rate 1: arena trees[i] held
    by counts[i] consecutive samples (one each by default)."""
    counts = counts or [1] * len(trees)
    firsts = np.cumsum([1] + counts[:-1]).tolist()
    return mcmc.Samples(
        [mcmc.SampleRun(0, first, count, columns(tree)) for tree, first, count in zip(trees, firsts, counts)], 1
    )


def make_state(ds, cfg, tree=None) -> ChainState:
    return ChainState(RowTables(ds.features, ds.labels, ds.class_count, cfg.dirichlet_alpha), tree)


class FakeRng:
    """Scripted stand-in for a Generator: pops queued values."""

    def __init__(self, randoms=(), integers=()):
        self.randoms = list(randoms)
        self.ints = list(integers)

    def random(self, *a):
        return self.randoms.pop(0)

    def integers(self, *a, **k):
        return self.ints.pop(0)


class TestLogCatalan:
    def test_one_split_shape(self):
        assert log_catalan(1) == pytest.approx(0.0, abs=1e-12)

    def test_k3_is_five(self):
        # C(6,3)/4 = 20/4 = 5
        assert log_catalan(3) == pytest.approx(math.log(5), abs=1e-12)

    def test_k25_against_big_integer(self):
        exact = math.comb(50, 25) // 26
        assert exact == 4_861_946_401_452  # about 4.86e12
        assert log_catalan(25) == pytest.approx(math.log(exact), abs=1e-6)

    def test_exact_for_k_up_to_60(self):
        for k in range(1, 61):
            exact = Fraction(math.comb(2 * k, k), k + 1)
            assert exact.denominator == 1
            assert log_catalan(k) == pytest.approx(math.log(exact.numerator), abs=1e-9)

    def test_recurrence(self):
        for k in range(2, 201):
            lhs = log_catalan(k) - log_catalan(k - 1)
            rhs = math.log(2 * (2 * k - 1)) - math.log(k + 1)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            log_catalan(0)


def exact_marginal(counts_rows, alphas) -> Fraction:
    """Big-integer oracle for integer Dirichlet priors: products of factorials."""

    def gamma_int(n: int) -> int:
        return math.factorial(n - 1)

    total = Fraction(1)
    alpha_sum = sum(alphas)
    for counts in counts_rows:
        total *= Fraction(gamma_int(alpha_sum), math.prod(gamma_int(a) for a in alphas))
        num = math.prod(gamma_int(m + a) for m, a in zip(counts, alphas))
        total *= Fraction(num, gamma_int(sum(counts) + alpha_sum))
    return total


def tree_of_leaves(counts_rows) -> DecisionTree:
    """Right-leaning chain of splits whose leaves carry the given counts."""
    if len(counts_rows) == 1:
        return columns(ArenaTree(nodes=(Leaf(counts=counts_rows[0]),)))
    nodes = []
    for i, counts in enumerate(counts_rows[:-1]):
        nodes.append(Split(feature=0, threshold=float(i), left=2 * i + 1, right=2 * i + 2))
        nodes.append(Leaf(counts=counts))
    nodes.append(Leaf(counts=counts_rows[-1]))
    return columns(ArenaTree(nodes=tuple(nodes)))


class TestLogMarginalLikelihood:
    def test_single_leaf_one_one(self):
        tree = columns(single_leaf_tree(counts=(1, 1)))
        assert log_marginal_likelihood(tree, ALPHA2) == pytest.approx(math.log(1 / 6), abs=1e-12)

    def test_single_leaf_two_zero(self):
        tree = columns(single_leaf_tree(counts=(2, 0)))
        assert log_marginal_likelihood(tree, ALPHA2) == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_empty_leaves_give_zero(self):
        tree = tree_of_leaves([(0, 0), (0, 0), (0, 0)])
        assert log_marginal_likelihood(tree, ALPHA2) == pytest.approx(0.0, abs=1e-12)

    def test_unfitted_counts_error(self):
        with pytest.raises(ValueError, match="not fitted"):
            log_marginal_likelihood(columns(single_leaf_tree()), ALPHA2)

    def test_against_big_integer_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            classes = int(rng.integers(2, 5))
            leaves = int(rng.integers(1, 5))
            alphas = [int(a) for a in rng.integers(1, 4, size=classes)]
            counts_rows = [tuple(int(c) for c in rng.integers(0, 7, size=classes)) for _ in range(leaves)]
            got = log_marginal_likelihood(tree_of_leaves(counts_rows), np.array(alphas, float))
            want = exact_marginal(counts_rows, alphas)
            assert got == pytest.approx(
                math.log(want.numerator) - math.log(want.denominator), abs=1e-9
            )


class TestValidRules:
    def test_dedup(self):
        assert valid_rules(np.array([0.2, 0.2, 0.7])).tolist() == [0.2, 0.7]

    def test_single_row(self):
        assert valid_rules(np.array([1.5])).tolist() == [1.5]

    def test_against_set_oracle(self, canonical_data):
        train, _ = canonical_data
        vals = train.features[:50, 0]
        assert len(valid_rules(vals)) == len(set(vals.tolist()))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            valid_rules(np.array([]))


class TestConfigValidation:
    def test_move_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            McmcConfig(move_probs=(0.5, 0.5, 0.5, 0.5))

    def test_birth_and_death_both_positive_or_both_zero(self):
        for probs in [(0.0, 0.5, 0.2, 0.3), (0.5, 0.0, 0.2, 0.3)]:
            with pytest.raises(ValueError, match="birth and death"):
                McmcConfig(move_probs=probs)
        McmcConfig(move_probs=(0.0, 0.0, 0.5, 0.5))

    def test_negative_move_prob(self):
        with pytest.raises(ValueError):
            McmcConfig(move_probs=(-0.1, 0.5, 0.3, 0.3))

    def test_positive_iterations(self):
        with pytest.raises(ValueError):
            McmcConfig(burn_in=0)

    def test_max_leaves_holds_the_start(self):
        """A chain starts from one split, so a cap below two leaves is refused."""
        McmcConfig(max_leaves=2)
        for cap in (1, 0, -3):
            with pytest.raises(ValueError, match=f"max_leaves must be at least 2 .*got {cap}"):
                McmcConfig(max_leaves=cap)

    def test_sample_rate_within_post_burn_in(self):
        McmcConfig(post_burn_in=10, sample_rate=10)
        with pytest.raises(ValueError, match="sample_rate 11 exceeds post_burn_in 10"):
            McmcConfig(post_burn_in=10, sample_rate=11)

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            McmcConfig(dirichlet_alpha=0.0)
        with pytest.raises(ValueError):
            McmcConfig(dirichlet_alpha=(1.0, -1.0))

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, (1.0, math.inf), (math.nan, 1.0)])
    def test_alpha_finite(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            McmcConfig(dirichlet_alpha=alpha)

    def test_depth_prior_base_below_one(self):
        # split probability must stay < 1 at every reachable depth
        with pytest.raises(ValueError):
            DepthPenaltySplitPrior(base=1.0, decay=0.5)
        with pytest.raises(ValueError):
            DepthPenaltySplitPrior(base=0.5, decay=-0.1)

    @pytest.mark.parametrize("decay", [math.nan, math.inf])
    def test_depth_prior_decay_finite(self, decay):
        with pytest.raises(ValueError, match=f"decay must be non-negative and finite, got {decay}"):
            DepthPenaltySplitPrior(base=0.5, decay=decay)

    def test_change_rule_window_fits_one_draw(self):
        """The window offset is one integers(2 * window) draw, which takes at
        most 2**32 values: a window of 2**31 runs, one above is refused."""
        cfg = McmcConfig(move_probs=(0.0, 0.0, 0.0, 1.0), burn_in=20, post_burn_in=20, restarts=1, min_leaf_rows=2,
                         change_rule_window=2**31)
        assert len(run_chain(small_dataset(n=30, seed=2), cfg).trace.accepted) == 40
        for window in (2**31 + 1, 3_000_000_000):
            with pytest.raises(ValueError, match=f"change_rule_window must lie in 1..2\\*\\*31 .*got {window}"):
                McmcConfig(change_rule_window=window)

    def test_counts_fit_the_int32_trace(self):
        """The trace stores run index and iteration as int32: 2**31
        restarts and 2**31 - 1 iterations fit, one more of either is refused
        at construction, not by numpy deep in a run."""
        McmcConfig(restarts=2**31)
        McmcConfig(burn_in=2**30, post_burn_in=2**30 - 1)
        for restarts in (2**31 + 1, 10**25):
            with pytest.raises(ValueError, match=f"restarts must be at most 2\\*\\*31, got {restarts}"):
                McmcConfig(restarts=restarts)
        for burn_in, post in ((2**30, 2**30), (2**31, 1), (1, 10**25)):
            message = f"burn_in \\+ post_burn_in must be at most 2\\*\\*31 - 1, got {burn_in + post}"
            with pytest.raises(ValueError, match=message):
                McmcConfig(burn_in=burn_in, post_burn_in=post)

    def test_resolve_alpha_shapes(self):
        assert resolve_alpha(2.0, 3).tolist() == [2.0, 2.0, 2.0]
        assert resolve_alpha((1.0, 2.0), 2).tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            resolve_alpha((1.0, 2.0), 3)

    def test_resolve_alpha_needs_a_finite_sum(self):
        assert resolve_alpha(1e300, 2).tolist() == [1e300, 1e300]
        for alpha in (1e308, (1e308, 1e308), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite sum"):
                resolve_alpha(alpha, 2)

    def test_dirichlet_terms_refuse_an_overflowing_log_gamma(self):
        assert math.isfinite(mcmc.DirichletTerms.of([1e305, 1e305]).log_norm)
        with pytest.raises(ValueError, match="log Gamma of its sum overflows"):
            mcmc.DirichletTerms.of([1e306, 1e306])


class TestProposeMove:
    def test_death_on_single_leaf_invalid(self, canonical_data):
        train, _ = canonical_data
        cfg = McmcConfig(min_leaf_rows=5, seed=0)
        state = make_state(train, cfg)
        rng = FakeRng(randoms=[0.15])  # lands in the death slot (0.1..0.2)
        prop = propose_move(state, cfg, rng)
        assert prop.kind == MOVE_DEATH and not prop.valid

    def test_birth_needs_twice_min_leaf(self):
        ds = small_dataset(n=8, seed=1)
        cfg = McmcConfig(min_leaf_rows=5, seed=0)
        state = make_state(ds, cfg)
        rng = np.random.default_rng(0)
        for _ in range(200):
            prop = propose_move(state, cfg, rng)
            if prop.kind == MOVE_BIRTH:
                assert not prop.valid  # 8 rows can never feed two leaves of 5

    def test_birth_respects_max_leaves(self, canonical_data):
        train, _ = canonical_data
        cfg = McmcConfig(min_leaf_rows=1, max_leaves=2, seed=0)
        threshold = float(np.median(train.features[:, 0]))
        stump = DecisionTree((0, -1, -1), (threshold, 0.0, 0.0), (None, None))
        state = make_state(train, cfg, stump)
        assert state.leaf_count == 2
        rng = FakeRng(randoms=[0.05])  # birth slot
        prop = propose_move(state, cfg, rng)
        assert prop.kind == MOVE_BIRTH and not prop.valid

    def test_kind_frequencies(self, canonical_data):
        train, _ = canonical_data
        cfg = McmcConfig(min_leaf_rows=5, seed=0)
        state = make_state(train, cfg)
        rng = np.random.default_rng(42)
        counts = {k: 0 for k in mcmc.MOVE_KINDS}
        trials = 10_000
        for _ in range(trials):
            counts[propose_move(state, cfg, rng).kind] += 1
        for kind, expected in zip(mcmc.MOVE_KINDS, (0.1, 0.1, 0.1, 0.7)):
            assert counts[kind] / trials == pytest.approx(expected, abs=0.02)

    def test_valid_birth_is_fitted_and_legal(self, canonical_data):
        train, _ = canonical_data
        cfg = McmcConfig(min_leaf_rows=5, seed=0)
        state = make_state(train, cfg)
        rng = np.random.default_rng(3)
        seen_valid = False
        for _ in range(200):
            prop = propose_move(state, cfg, rng)
            if prop.kind == MOVE_BIRTH and prop.valid:
                seen_valid = True
                tree = arena(proposed_state(state, prop).tree)
                assert tree.leaf_count == 2
                assert min(tree.nodes[i].n for i in tree.leaf_ids) >= 5
                structure = log_accept_ratio(state, prop, cfg) - (prop.log_lik - state.log_lik)
                assert structure == pytest.approx(math.log(0.5))
        assert seen_valid


class TestProposalLogRatio:
    def test_birth_one_to_two(self):
        cfg = McmcConfig()
        old = single_leaf_tree(counts=(5, 5))
        new = ArenaTree(nodes=(Split(0, 0.0, 1, 2), Leaf(counts=(5, 0)), Leaf(counts=(0, 5))))
        # (d/b) * (k / Q(new)) * (S_1/S_2) = 1 * 1 * 1/2
        assert proposal_log_ratio(MOVE_BIRTH, old, new, cfg) == pytest.approx(math.log(0.5))

    def test_death_reverses_birth(self):
        cfg = McmcConfig()
        old = single_leaf_tree(counts=(5, 5))
        new = ArenaTree(nodes=(Split(0, 0.0, 1, 2), Leaf(counts=(5, 0)), Leaf(counts=(0, 5))))
        assert proposal_log_ratio(MOVE_DEATH, new, old, cfg) == pytest.approx(math.log(2.0))

    def test_change_moves_are_zero(self):
        cfg = McmcConfig()
        tree = ArenaTree(nodes=(Split(0, 0.0, 1, 2), Leaf(counts=(5, 0)), Leaf(counts=(0, 5))))
        other = ArenaTree(nodes=(Split(1, 2.0, 1, 2), Leaf(counts=(3, 2)), Leaf(counts=(2, 3))))
        assert proposal_log_ratio(MOVE_CHANGE_SPLIT, tree, other, cfg) == 0.0
        assert proposal_log_ratio(MOVE_CHANGE_RULE, tree, other, cfg) == 0.0

    def test_inconsistent_pair_rejected(self):
        cfg = McmcConfig()
        tree = single_leaf_tree(counts=(1, 1))
        with pytest.raises(ValueError):
            proposal_log_ratio(MOVE_BIRTH, tree, tree, cfg)

    def test_reciprocity_on_recorded_pairs(self, canonical_data):
        """Every valid birth and its exact reverse death sum to zero."""
        train, _ = canonical_data
        cfg = McmcConfig(move_probs=(0.5, 0.5, 0.0, 0.0), min_leaf_rows=5, seed=0)
        ds = train.subset(np.arange(80))
        rng = np.random.default_rng(99)
        state = make_state(ds, cfg)
        checked = 0
        for _ in range(2000):
            prop = propose_move(state, cfg, rng)
            if prop.valid and prop.kind == MOVE_BIRTH:
                back = proposal_log_ratio(MOVE_DEATH, arena(proposed_state(state, prop).tree), arena(state.tree), cfg)
                structure = log_accept_ratio(state, prop, cfg) - (prop.log_lik - state.log_lik)
                assert structure + back == pytest.approx(0.0, abs=1e-12)
                checked += 1
            if prop.valid and rng.random() < 0.5:  # evolve to vary tree shapes
                state.apply(prop)
        assert checked > 100


class TestSplitPriorLogRatio:
    def _birth_pair(self):
        old = single_leaf_tree(counts=(5, 5))
        new = ArenaTree(nodes=(Split(0, 0.0, 1, 2), Leaf(counts=(5, 0)), Leaf(counts=(0, 5))))
        return old, new

    def test_uniform_is_zero(self):
        cfg = McmcConfig()
        old, new = self._birth_pair()
        assert split_prior_log_ratio(MOVE_BIRTH, old, new, cfg) == 0.0
        assert split_prior_log_ratio(MOVE_DEATH, new, old, cfg) == 0.0

    def test_depth_zero_decay_constant_probability(self):
        prior = DepthPenaltySplitPrior(base=0.3, decay=0.0)
        assert prior.split_probability(0) == prior.split_probability(7) == 0.3

    def test_birth_at_root_formula(self):
        cfg = McmcConfig(split_prior=DepthPenaltySplitPrior(base=0.5, decay=1.0))
        old, new = self._birth_pair()
        want = math.log(0.5) + 2 * math.log(1 - 0.25) - math.log(1 - 0.5)
        assert split_prior_log_ratio(MOVE_BIRTH, old, new, cfg) == pytest.approx(want)
        assert split_prior_log_ratio(MOVE_DEATH, new, old, cfg) == pytest.approx(-want)

    def test_deeper_birth_uses_node_depth(self):
        cfg = McmcConfig(split_prior=DepthPenaltySplitPrior(base=0.5, decay=1.0))
        base = ArenaTree(nodes=(Split(0, 0.0, 1, 2), Leaf(counts=(5, 0)), Leaf(counts=(0, 5))))
        grown = replace_leaf(base, 1, feature=0, threshold=-1.0)
        p1, p2 = 0.25, 0.5 / 3
        want = math.log(p1) + 2 * math.log(1 - p2) - math.log(1 - p1)
        assert split_prior_log_ratio(MOVE_BIRTH, base, grown, cfg) == pytest.approx(want)


class TestLogAcceptRatio:
    def test_zero_split_probability_rejects_the_birth(self):
        """A decay that underflows the split probability below the root to
        0.0 gives a birth there log prior -inf, so it is never accepted;
        the reverse death from such a tree gets +inf."""
        ds = small_dataset(n=40, seed=3)
        cfg = McmcConfig(min_leaf_rows=3, split_prior=DepthPenaltySplitPrior(base=0.5, decay=2000.0), seed=0)
        rules = valid_rules(ds.features[:, 0])
        state = make_state(ds, cfg, columns(replace_leaf(single_leaf_tree(), 0, 0, float(rules[len(rules) // 2]))))
        rng = FakeRng(randoms=[0.05], integers=[0, 1, 5])  # birth at leaf 1, feature 1, 6 rows left
        prop = propose_move(state, cfg, rng)
        assert prop.kind == MOVE_BIRTH and prop.valid and prop.node == 1
        assert log_accept_ratio(state, prop, cfg) == -math.inf
        state.apply(prop)
        rng = FakeRng(randoms=[0.15], integers=[0])  # death of the split just grown
        prop = propose_move(state, cfg, rng)
        assert prop.kind == MOVE_DEATH and prop.valid and prop.node == 1
        assert log_accept_ratio(state, prop, cfg) == math.inf


class TestMhStep:
    def test_equal_likelihood_zero_ratio_always_accepted(self):
        # duplicate feature columns: change-split onto the twin column with the
        # same threshold keeps counts identical -> total log ratio 0 -> accept
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        ds = Dataset(X, y, 2, ("a", "b"))
        cfg = McmcConfig(min_leaf_rows=1, change_rule_window=None, seed=0)
        state = make_state(ds, cfg, columns(replace_leaf(single_leaf_tree(), 0, feature=0, threshold=1.0)))
        # kind draw -> change_split slot (0.2..0.3); node pick 0; feature 1; rule index 1 (=1.0)
        rng = FakeRng(randoms=[0.25], integers=[0, 1, 1])
        kind, accepted = mh_step(state, cfg, rng)
        assert kind == MOVE_CHANGE_SPLIT and accepted
        assert state.tree.feature[0] == 1
        assert state.log_lik == pytest.approx(log_marginal_likelihood(state.tree, ALPHA2))

    def test_invalid_proposal_leaves_state_unchanged(self, canonical_data):
        train, _ = canonical_data
        cfg = McmcConfig(min_leaf_rows=5, seed=0)
        state = make_state(train, cfg)
        before = state.tree
        rng = FakeRng(randoms=[0.15])  # death on a single leaf
        kind, accepted = mh_step(state, cfg, rng)
        assert kind == MOVE_DEATH and not accepted
        assert state.tree is before

    def test_log_lik_invariant_along_chain(self):
        ds = small_dataset(n=60, seed=4)
        cfg = McmcConfig(min_leaf_rows=3, seed=1)
        alpha = resolve_alpha(cfg.dirichlet_alpha, 2)
        state = make_state(ds, cfg)
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(300):
            _, accepted = mh_step(state, cfg, rng)
            outcomes.add(accepted)
            assert state.log_lik == log_marginal_likelihood(state.tree, alpha)
            fitted, parts = fit_partition(state.tree, ds.features, ds.labels, 2)
            assert fitted == state.tree  # leaf counts
            rows = rows_by_node(state)
            assert rows.keys() == parts.keys()
            assert all(np.array_equal(rows[nid], parts[nid]) for nid in parts)
        assert outcomes == {True, False}

    def test_accept_boundary_is_exp_of_tree_level_total(self):
        """A scripted birth on a noise feature is accepted exactly when the
        accept draw falls below exp(total), with total summed from the
        tree-level likelihood, proposal and split-prior ratios."""
        ds = small_dataset(n=30, seed=6)
        X, y = ds.features, ds.labels
        cfg = McmcConfig(min_leaf_rows=3, split_prior=DepthPenaltySplitPrior(base=0.5, decay=1.0), seed=0)
        rules = valid_rules(X[:, 1])
        j = len(rules) // 2
        old, _ = fit_partition(columns(single_leaf_tree()), X, y, 2)
        want, _ = fit_partition(columns(replace_leaf(arena(old), 0, 1, float(rules[j]))), X, y, 2)
        total = (
            (log_marginal_likelihood(want, ALPHA2) - log_marginal_likelihood(old, ALPHA2))
            + proposal_log_ratio(MOVE_BIRTH, arena(old), arena(want), cfg)
            + split_prior_log_ratio(MOVE_BIRTH, arena(old), arena(want), cfg)
        )
        assert total < 0.0  # so mh_step draws the accept uniform
        bound = math.exp(total)
        for draw, accepts in ((np.nextafter(bound, 0.0), True), (np.nextafter(bound, 1.0), False)):
            state = make_state(ds, cfg)
            rng = FakeRng(randoms=[0.05, float(draw)], integers=[0, 1, j])  # birth at the root on feature 1
            assert mh_step(state, cfg, rng) == (MOVE_BIRTH, accepts)
            assert not rng.randoms
            assert state.tree == (want if accepts else old)
            assert state.log_lik == log_marginal_likelihood(state.tree, ALPHA2)


class TestIncrementalKernel:
    """The in-place kernel against the tree-level edits and formulas."""

    def test_proposals_match_tree_edits(self):
        ds = small_dataset(n=70, seed=12, m=3)
        X, y = ds.features, ds.labels
        cfg = McmcConfig(
            move_probs=(0.25, 0.25, 0.2, 0.3),
            min_leaf_rows=3,
            split_prior=DepthPenaltySplitPrior(base=0.8, decay=0.5),
            seed=0,
        )
        state = make_state(ds, cfg)
        rng = np.random.default_rng(5)
        checked = {k: 0 for k in mcmc.MOVE_KINDS}
        for _ in range(800):
            prop = propose_move(state, cfg, rng)
            if not prop.valid:
                continue
            tree, at = arena(state.tree), prop.node
            if prop.kind == MOVE_BIRTH:
                edited = replace_leaf(tree, at, prop.feature, prop.threshold)
            elif prop.kind == MOVE_DEATH:
                edited = collapse_split(tree, at)
            else:
                edited = with_split_params(tree, at, prop.feature, prop.threshold)
            want, parts = fit_partition(columns(edited), X, y, 2)
            after = proposed_state(state, prop)
            assert after.tree == want
            rows = rows_by_node(after)
            assert rows.keys() == parts.keys()
            assert all(np.array_equal(rows[nid], parts[nid]) for nid in parts)
            assert prop.log_lik == log_marginal_likelihood(want, ALPHA2)
            assert log_accept_ratio(state, prop, cfg) == (
                (log_marginal_likelihood(want, ALPHA2) - log_marginal_likelihood(state.tree, ALPHA2))
                + proposal_log_ratio(prop.kind, tree, arena(want), cfg)
                + split_prior_log_ratio(prop.kind, tree, arena(want), cfg)
            )
            checked[prop.kind] += 1
            if rng.random() < 0.5:
                state.apply(prop)
                assert state.tree == want
        assert min(checked.values()) >= 20

    def test_malformed_feature_columns_are_refused(self):
        """A feature column that is not one full binary tree in pre-order is
        refused by `layout`, by the chain state and by prediction: a split
        with no children, a split with one, a second root, and a node after
        the tree ends."""
        ds = small_dataset(n=10)
        for feature in [(0,), (0, -1), (-1, -1), (0, -1, -1, -1)]:
            tree = DecisionTree(feature, (0.0,) * len(feature), ((1, 0), (0, 1)))
            with pytest.raises(ValueError, match="full binary tree"):
                layout(feature)
            with pytest.raises(ValueError, match="full binary tree"):
                make_state(ds, McmcConfig(), tree)
            with pytest.raises(ValueError, match="full binary tree"):
                list(predict_trees([tree], ds.features, 1.0))

    def test_state_of_a_fitted_tree_snapshots_it(self, random_tree_factory):
        """`ChainState(tables, t).tree == t` for fitted trees, root-only included,
        and the state's log-likelihood is the tree's."""
        ds = small_dataset(n=50, seed=14, m=3)
        cfg = McmcConfig()
        rng = np.random.default_rng(14)
        for budget in [0] + list(rng.integers(1, 12, size=40)):
            tree = columns(random_tree_factory(ds.features, ds.labels, 2, int(budget), rng))
            state = make_state(ds, cfg, tree)
            assert state.tree == tree
            assert state.log_lik == log_marginal_likelihood(tree, ALPHA2)
        assert make_state(ds, cfg).tree == fit_partition(columns(single_leaf_tree()), ds.features, ds.labels, 2)[0]

    def test_state_equals_the_state_rebuilt_from_its_snapshot(self):
        """After every accepted move, the state's lists equal those of the
        state built afresh from its snapshot: births and deaths renumber
        `depth` and `bits` too, which `state.tree` never reads."""
        ds = small_dataset(n=60, seed=21, m=3)
        cfg = McmcConfig(move_probs=(0.35, 0.35, 0.1, 0.2), min_leaf_rows=1, seed=21)
        tables = RowTables(ds.features, ds.labels, ds.class_count, cfg.dirichlet_alpha)
        rng = mcmc.ChainRng(mcmc._derived_rng(cfg.seed, 0))
        start = draw_initial_split(tables, cfg.min_leaf_rows, rng)
        state = ChainState(tables, columns(ArenaTree((Split(*start, 1, 2), Leaf(), Leaf()))))
        names = ("feature", "threshold", "depth", "bits", "leaf_ids", "split_ids", "prunable",
                 "leaf_class", "leaf_terms", "leaf_totals", "log_lik")
        accepted = {k: 0 for k in mcmc.MOVE_KINDS}
        for _ in range(1500):
            kind, ok = mh_step(state, cfg, rng)
            if ok:
                accepted[kind] += 1
                rebuilt = ChainState(state.tables, state.tree)
                for name in names:
                    assert getattr(rebuilt, name) == getattr(state, name), name
        assert min(accepted.values()) >= 10, accepted


def test_snapshots_share_unchanged_columns():
    """Under a mix of all four move kinds, `state.tree` after every step
    equals the tree built afresh from the state's lists.  A rejected step
    keeps the snapshot; an accepted change move keeps its `feature` tuple
    unless a change split set a new feature; a birth or death rebuilds it.
    A pickled `ChainResult` keeps the sharing between its samples' trees."""
    ds = small_dataset(n=80, seed=31, m=3)
    cfg = McmcConfig(move_probs=(0.4, 0.4, 0.1, 0.1), min_leaf_rows=2, seed=31)
    tables = RowTables(ds.features, ds.labels, ds.class_count, cfg.dirichlet_alpha)
    rng = mcmc.ChainRng(mcmc._derived_rng(cfg.seed, 0))
    feature, threshold = draw_initial_split(tables, cfg.min_leaf_rows, rng)
    state = ChainState(tables, DecisionTree((feature, -1, -1), (threshold, 0.0, 0.0), (None, None)))
    before, accepted = state.tree, {k: 0 for k in mcmc.MOVE_KINDS}
    for _ in range(3000):
        old_feature = list(state.feature)
        kind, ok = mh_step(state, cfg, rng)
        tree = state.tree
        assert tree == DecisionTree(tuple(state.feature), tuple(state.threshold), tuple(state.leaf_class))
        if not ok:
            assert tree is before
            continue
        accepted[kind] += 1
        if kind in (MOVE_BIRTH, MOVE_DEATH):
            assert tree.feature is not before.feature
        else:
            assert (tree.feature is before.feature) == (state.feature == old_feature)
        before = tree
    assert min(accepted.values()) >= 10, accepted
    result = run_chain(ds, replace(cfg, burn_in=500, post_burn_in=1500))
    runs, copies = result.samples.runs, pickle.loads(pickle.dumps(result)).samples.runs
    shared = [a.tree.feature is b.tree.feature for a, b in zip(runs, runs[1:])]
    assert sum(shared) >= 10
    assert copies == runs
    assert [a.tree.feature is b.tree.feature for a, b in zip(copies, copies[1:])] == shared


# The index-array kernel that the bitset one replaced, kept as oracles.


def oracle_reroute(self, node, feature, threshold, X, y, class_count, min_rows):
    """`ChainState.reroute` of the index-array kernel, body unchanged; `self`
    holds per-node lists feature, threshold, left, right and rows (indices)."""
    features, thresholds, left, right = self.feature, self.threshold, self.left, self.right
    moved, leaves, counts = [], [], []
    f, t = feature, threshold
    stack = [(node, self.rows[node])]
    while stack:
        nid, idx = stack.pop()
        if len(idx) < min_rows:
            return None
        if nid != node:
            f = features[nid]
            if f < 0:
                leaves.append(nid)
                counts.append(np.bincount(y[idx], minlength=class_count))
                continue
            t = thresholds[nid]
        goes_left = X[:, f][idx] <= t
        below = ((left[nid], idx[goes_left]), (right[nid], idx[~goes_left]))
        moved += below
        stack += (below[1], below[0])
    return moved, leaves, counts


def oracle_window_step(X, feature, rows, current, offset):
    """The valid_rules + searchsorted change-rule step of the index-array
    kernel: the new threshold, or None where that kernel's proposal was
    invalid."""
    rules = valid_rules(X[:, feature][rows])
    here = int(np.searchsorted(rules, current))
    if here == len(rules) or rules[here] != current:
        return None
    j = here + offset
    if not 0 <= j < len(rules):
        return None
    return float(rules[j])


def index_view(state):
    """The state's nodes as the index-array kernel held them, child
    positions read off the arena form of its snapshot (a leaf's own, twice)."""
    nodes = arena(state.tree).nodes
    left, right = ([getattr(nd, side) if isinstance(nd, Split) else i for i, nd in enumerate(nodes)]
                   for side in ("left", "right"))
    return SimpleNamespace(feature=state.feature, threshold=state.threshold, left=left, right=right,
                           rows=[rows_of(b) for b in state.bits])


tied_values = st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def tied_chains(draw):
    n = draw(st.integers(6, 30))
    m = draw(st.integers(1, 3))
    classes = draw(st.integers(2, 3))
    X = np.array(draw(st.lists(st.lists(tied_values, min_size=m, max_size=m), min_size=n, max_size=n)))
    if draw(st.booleans()):
        X = X + 0.0  # no negative zeros
    y = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n)))
    y[:classes] = np.arange(classes)  # every class present
    cfg = McmcConfig(min_leaf_rows=draw(st.integers(1, 2)), change_rule_window=draw(st.integers(1, 3)),
                     dirichlet_alpha=draw(st.sampled_from([1.0, 0.5, (0.5, 1.0, 2.0)[:classes]])),
                     seed=draw(st.integers(0, 2**16)))
    return Dataset(X, y, classes, tuple(f"f{i}" for i in range(m))), cfg


@given(chain=tied_chains())
@settings(max_examples=80, deadline=None)
def test_bitset_kernel_matches_index_oracle_property(chain, random_tree_factory):
    """On data with many ties (and zeros of both signs): `RowSets.below` is
    the rows at or below each threshold (on a value, between two, below and
    above them all), `RowTables.eq` the rows at each value, and
    `RowSets.route` the row sets `fit_partition` gives every node of the
    states reached by real steps and of random trees.  For every split of
    those states, the bitset reroute agrees with the
    index-array one at every feature and threshold, and the window step with
    the searchsorted one at every current value and offset of windows 1-3.

    The bitset reroute checks only the nodes whose rows move, the index one
    every node below the changed one; they agree on validity at min_rows up
    to the chain's min_leaf_rows, which every node of a reached state
    holds.  Above it the bitset one may pass a range that the index one
    refuses, but only for a node whose rows it keeps."""
    ds, cfg = chain
    X, y, classes = ds.features, ds.labels, ds.class_count
    terms = mcmc.DirichletTerms.of(resolve_alpha(cfg.dirichlet_alpha, classes))
    state = make_state(ds, cfg)
    rng, tree_rng = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed + 1)
    for f, (values, eq) in enumerate(zip(state.tables.values, state.tables.eq)):
        assert eq == [mcmc.bits_of(np.flatnonzero(X[:, f] == v)) for v in values]
        for threshold in values + [-9.0, -0.0, 0.25, 9.0]:
            assert state.tables.below(f, threshold) == mcmc.bits_of(np.flatnonzero(X[:, f] <= threshold))
    for _ in range(4):
        for _ in range(15):
            mh_step(state, cfg, rng)
        tables, old = state.tables, index_view(state)
        # random trees whose thresholds are values of X, lie between them or below them all
        shifted = [columns(random_tree_factory(X + shift, y, classes, 6, tree_rng)) for shift in (0.0, 0.25, -9.0)]
        for tree in (state.tree, *shifted):
            parts = fit_partition(tree, X, y, classes)[1]
            assert tables.route(tree.feature, tree.threshold) == [mcmc.bits_of(parts[p]) for p in range(len(parts))]
        for node in state.split_ids:
            for feature in range(X.shape[1]):
                for threshold in tables.values[feature] + [-9.0, 0.25]:
                    moved, leaves, counts = oracle_reroute(old, node, feature, threshold, X, y, classes, 0)
                    for min_rows in (1, 2, 3):
                        want = oracle_reroute(old, node, feature, threshold, X, y, classes, min_rows)
                        got = state.reroute(node, feature, threshold, min_rows)
                        if got is None or min_rows <= cfg.min_leaf_rows:
                            assert (got is None) == (want is None)
                        if got is None:
                            continue
                        end, rows = got
                        assert sorted(nid for nid, _ in moved) == list(range(node + 1, end))
                        for nid, idx in moved:
                            assert np.array_equal(rows_of(rows[nid - node - 1]), idx)
                            if len(idx) < min_rows:
                                assert rows[nid - node - 1] == state.bits[nid]
                        assert [p for p in range(node + 1, end) if state.feature[p] < 0] == leaves
                        for nid, want_counts in zip(leaves, counts):
                            got_counts, lg, total = tables.leaf(rows[nid - node - 1])
                            assert got_counts == tuple(want_counts.tolist())
                            assert lg == gammaln(want_counts.astype(np.float64) + terms.alpha).tolist()
                            assert total == gammaln(want_counts.sum() + terms.alpha_sum)
            rows = state.bits[node]
            for current in {state.threshold[node], *tables.values[state.feature[node]]}:
                for offset in (-3, -2, -1, 1, 2, 3):
                    want = oracle_window_step(X + 0.0, state.feature[node], old.rows[node], current, offset)
                    got = tables.step(state.feature[node], rows, current, offset)
                    assert repr(got) == repr(want)


@pytest.mark.parametrize("seed", range(4))
def test_table_rule_draw_equals_column_draw(seed):
    """`RowTables.draw_rule` is `_pick(rng, valid_rules(column_at(...)))`
    draw for draw: the same threshold, the same rows sent left and the
    same `ChainRng` state afterwards, on features without ties (the
    bisection over `le`) and with them (the column), and also when it
    refuses a side below min_rows before any search."""
    ds = small_dataset(n=60, seed=seed, m=3)
    X = ds.features.copy()
    X[:, 2] = np.round(X[:, 2])  # ties
    tables = RowTables(X, ds.labels, ds.class_count, 1.0)
    assert tables.no_ties == [True, True, False]
    got_rng, want_rng = (mcmc.ChainRng(np.random.default_rng(seed)) for _ in range(2))
    script = np.random.default_rng(100 + seed)
    refused = 0
    for _ in range(400):
        rows = mcmc.bits_of(np.flatnonzero(script.random(60) < script.uniform(0.02, 1.0))) or 1
        feature, min_rows = int(script.integers(3)), int(script.integers(1, 12))
        got = tables.draw_rule(got_rng, feature, rows, min_rows)
        threshold = float(mcmc._pick(want_rng, valid_rules(tables.column_at(feature, rows))))
        left = rows & tables.below(feature, threshold)
        small = min(left.bit_count(), (rows ^ left).bit_count()) < min_rows
        assert got == (None if small else (threshold, left))
        refused += small
        assert got_rng.integers(2**32) == want_rng.integers(2**32)  # the kept half word, if any
        assert got_rng.random() == want_rng.random()
    assert 20 < refused < 380


class TestChainRng:
    KS = (1, 2, 3, 7, 250, 2**31 + 11, 2**32)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_generator_draw_for_draw(self, seed):
        """Interleaved random() and integers(k) calls give the generator's
        own values, so the high half a draw keeps is served next."""
        want, got = np.random.default_rng(seed), mcmc.ChainRng(np.random.default_rng(seed))
        script = np.random.default_rng(100 + seed)
        for _ in range(3 * mcmc.WORD_BLOCK):
            if script.random() < 0.3:
                assert got.random() == want.random()
            else:
                k = self.KS[script.integers(len(self.KS))]
                assert got.integers(k) == want.integers(k)

    @pytest.mark.parametrize("k", [0, 2**32 + 1, 2**40])
    def test_refuses_k_outside_the_32_bit_draw(self, k):
        with pytest.raises(ValueError, match="integers"):
            mcmc.ChainRng(np.random.default_rng(0)).integers(k)


@pytest.mark.parametrize("window", [1, 2, None])
@pytest.mark.parametrize("min_rows", [1, 2, 5, 12, 30])
def test_every_state_keeps_leaves_at_min_rows(window, min_rows):
    """Every state a chain reaches keeps every leaf at min_leaf_rows rows or
    more, so a proposal need only check the leaves it touches."""
    ds = small_dataset(n=90, seed=min_rows, m=3)
    cfg = McmcConfig(move_probs=(0.3, 0.2, 0.2, 0.3), min_leaf_rows=min_rows, change_rule_window=window,
                     max_leaves=6 if min_rows < 5 else None, seed=min_rows)
    rng = mcmc.ChainRng(mcmc._derived_rng(cfg.seed, 0))
    start = draw_initial_split(RowTables(ds.features, ds.labels, 2, 1.0), min_rows, rng)
    state = make_state(ds, cfg, columns(ArenaTree((Split(*start, 1, 2), Leaf(), Leaf()))))
    accepted = 0
    for _ in range(400):
        accepted += mh_step(state, cfg, rng)[1]
        assert min(state.bits[leaf].bit_count() for leaf in state.leaf_ids) >= min_rows
        assert state.leaf_count <= (cfg.max_leaves or ds.row_count)
    assert accepted > 0


def per_iteration_records(ds, cfg, run_index):
    """`run_chain`'s loop recording one (run, iteration, tree text) per
    sample and one trace row per iteration: the records the chain kept
    before it recorded runs and columns."""
    tables = RowTables(ds.features, ds.labels, ds.class_count, cfg.dirichlet_alpha)
    rng = mcmc.ChainRng(mcmc._derived_rng(cfg.seed, run_index))
    start = draw_initial_split(tables, cfg.min_leaf_rows, rng)
    state = ChainState(tables, None if start is None else columns(ArenaTree((Split(*start, 1, 2), Leaf(), Leaf()))))
    samples, rows = [], []
    for i in range(1, cfg.burn_in + cfg.post_burn_in + 1):
        kind, accepted = mh_step(state, cfg, rng)
        rows.append((run_index, i, i > cfg.burn_in, state.log_lik, state.split_count, kind, accepted))
        if i > cfg.burn_in and (i - cfg.burn_in) % cfg.sample_rate == 0:
            samples.append((run_index, i, serialize(state.tree)))
    return samples, rows


def test_thinned_runs_and_columns_hold_the_per_iteration_records():
    ds = small_dataset(n=60, seed=4)
    cfg = McmcConfig(burn_in=150, post_burn_in=350, sample_rate=7, restarts=3, min_leaf_rows=3, seed=9)
    result = run_restarts(ds, cfg)
    want_samples, want_rows = [], []
    for run in range(cfg.restarts):
        samples, rows = per_iteration_records(ds, cfg, run)
        want_samples += samples
        want_rows += rows
    got = [(s.run_index, s.iteration, serialize(s.tree)) for s in result.samples]
    assert got == want_samples and len(result.samples) == 3 * (350 // 7)
    assert len(result.samples.runs) < len(result.samples)  # some runs hold several samples
    trace = result.trace
    moves = [mcmc.MOVE_KINDS[code] for code in trace.move.tolist()]
    assert list(zip(trace.run_index.tolist(), trace.iteration.tolist(), trace.post.tolist(), trace.log_lik.tolist(),
                    trace.split_count.tolist(), moves, trace.accepted.tolist())) == want_rows
    for step in (1, 2, 5, 64):
        assert [(s.run_index, s.iteration, serialize(s.tree)) for s in result.samples.every(step)] == got[::step]


class TestRunChain:
    def test_sample_counts(self):
        ds = small_dataset(n=50, seed=2)
        cfg = McmcConfig(burn_in=100, post_burn_in=100, sample_rate=1, min_leaf_rows=3, seed=3)
        result = run_chain(ds, cfg)
        assert len(result.samples) == 100
        cfg10 = replace(cfg, sample_rate=10)
        assert len(run_chain(ds, cfg10).samples) == 10

    def test_trace_phases_and_iterations(self):
        ds = small_dataset(n=50, seed=2)
        cfg = McmcConfig(burn_in=50, post_burn_in=50, min_leaf_rows=3, seed=3)
        result = run_chain(ds, cfg)
        assert result.trace.iteration.tolist() == list(range(1, 101))
        assert result.trace.post.tolist() == [False] * 50 + [True] * 50
        assert all(s.iteration > cfg.burn_in for s in result.samples)

    def test_sampled_trees_respect_constraints(self):
        ds = small_dataset(n=60, seed=5)
        cfg = McmcConfig(burn_in=200, post_burn_in=200, min_leaf_rows=4, max_leaves=6, seed=6)
        result = run_chain(ds, cfg)
        for s in result.samples:
            tree = arena(s.tree)
            assert tree.leaf_count <= 6
            assert s.tree.split_count == tree.split_count == tree.leaf_count - 1
            assert min(tree.nodes[i].n for i in tree.leaf_ids) >= 4

    def test_root_only_fallback_when_no_split_fits(self):
        ds = small_dataset(n=6, seed=7)
        cfg = McmcConfig(burn_in=10, post_burn_in=10, min_leaf_rows=5, seed=0)
        result = run_chain(ds, cfg)
        assert result.warnings
        assert all(s.tree.split_count == 0 for s in result.samples)

    def test_two_rows_hold_the_root_only_model(self):
        """Two rows cap a tree at one leaf (n - 1), below the two of the
        single-split start: the chain holds the root-only tree and says so."""
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), 2, ("x",))
        result = run_chain(ds, McmcConfig(burn_in=20, post_burn_in=20, min_leaf_rows=1, seed=0))
        assert result.warnings == ("leaf cap 1 (2 training rows) is below a split's 2 leaves; "
                                   "chain holds the root-only model",)
        assert all(s.tree.split_count == 0 for s in result.samples)
        assert not result.trace.split_count.any()

    def test_missing_class_rejected(self):
        X = np.zeros((10, 1))
        ds = Dataset(X, np.zeros(10, dtype=int), 2, ("x",))
        with pytest.raises(DataError):
            run_chain(ds, McmcConfig(seed=0))

    def test_initial_split_draw_is_valid_or_none(self):
        ds = small_dataset(n=30, seed=8)
        rng = np.random.default_rng(0)
        for _ in range(50):
            drawn = draw_initial_split(RowTables(ds.features, ds.labels, 2, 1.0), 5, rng)
            assert drawn is not None
            feature, threshold = drawn
            left = int(np.sum(ds.features[:, feature] <= threshold))
            assert left >= 5 and 30 - left >= 5
        assert draw_initial_split(RowTables(ds.features[:4], ds.labels[:4], 2, 1.0), 5, rng) is None


def three_class_dataset(n=90, seed=11):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, 3)), 2)
    y = np.digitize(X[:, 0] + 0.4 * rng.normal(size=n), [-0.4, 0.4]).astype(np.int64)
    return Dataset(X, y, 3, ("a", "b", "c"))


def ties_dataset(n=80, seed=24):
    """Three features on a 0.5 grid: few distinct values, many tied rows."""
    rng = np.random.default_rng(seed)
    X = np.round(2.0 * rng.normal(size=(n, 3))) / 2.0
    y = (X[:, 0] - 0.5 * X[:, 1] + 0.5 * rng.normal(size=n) > 0).astype(np.int64)
    return Dataset(X, y, 2, ("a", "b", "c"))


# Sampler configurations whose chains are pinned byte for byte.  Between them
# they reach all four move kinds, both valid and invalid.
GOLDEN_CONFIGS = {
    "window2": (lambda: small_dataset(n=80, seed=21), dict(min_leaf_rows=3, seed=1)),
    "global_rule": (lambda: small_dataset(n=80, seed=21), dict(min_leaf_rows=3, change_rule_window=None, seed=2)),
    "depth_prior": (
        lambda: small_dataset(n=80, seed=22, m=3),
        dict(move_probs=(0.3, 0.3, 0.1, 0.3), min_leaf_rows=2,
             split_prior=DepthPenaltySplitPrior(base=0.8, decay=0.5), seed=3),
    ),
    "max_leaves": (lambda: small_dataset(n=80, seed=23), dict(min_leaf_rows=2, max_leaves=3, seed=4)),
    "root_only": (lambda: small_dataset(n=8, seed=1), dict(min_leaf_rows=5, seed=5)),
    "three_class": (three_class_dataset, dict(min_leaf_rows=3, dirichlet_alpha=(0.5, 1.0, 2.0), seed=6)),
    "ties_window1": (ties_dataset, dict(min_leaf_rows=1, change_rule_window=1, seed=8)),
}

# SHA-256 of each chain's samples and trace, recorded from the
# copy-the-tree-per-proposal kernel that the incremental one replaced.
GOLDEN_DIGESTS = {
    "window2": "328572d7516afd0aebb15eaadc1adc49378fa60411d5d295df751d3bb0638d71",
    "global_rule": "3315f3b1f0c78e08356c9eb610e37f318f5f37d6c3973fc2d306df2a0c51b281",
    "depth_prior": "4297477e86df5c9ac7f5b5d8d716e43849536b77f261703bc7454e1b00df248b",
    "max_leaves": "78acf23cb4653ed3891a94e934930497a06bd71711fe7a1745193fce52645bfe",
    "root_only": "11a2cb34ebbd08a6217840366f0613cd625eecb23724eec1926ca95fa83bb764",
    "three_class": "f6c0b93b9e9070cc843f66f623845d51aa7e1e6e129e6f4e4f2633cbd693aa5e",
    # recorded from the index-array kernel that the bitset one replaced, with
    # its -0.0 thresholds read as 0.0 as the tables now read them
    "ties_window1": "ebacc69d28d66ab45bad795cb8e22d6b456b70857832785d82c76b31329e9e26",
}


def chain_digest(ds, cfg) -> str:
    result = run_chain(ds, cfg)
    h = hashlib.sha256()
    for s in result.samples:
        h.update(f"{s.run_index} {s.iteration}\n{serialize(s.tree)}\n".encode())
    trace = result.trace
    for i, move, accepted, splits, log_lik in zip(trace.iteration.tolist(), trace.move.tolist(),
                                                  trace.accepted.tolist(), trace.split_count.tolist(),
                                                  trace.log_lik.tolist()):
        h.update(f"{i},{mcmc.MOVE_KINDS[move]},{int(accepted)},{splits},{log_lik:.10g}\n".encode())
    return h.hexdigest()


def test_golden_chains(monkeypatch):
    """RNG-draw order, node numbering and every log-likelihood bit of the
    sampler, pinned on small chains."""
    seen = set()
    original = mcmc.propose_move

    def recording(*args):
        proposal = original(*args)
        seen.add((proposal.kind, proposal.valid))
        return proposal

    monkeypatch.setattr(mcmc, "propose_move", recording)
    digests = {}
    for name, (make, settings_) in GOLDEN_CONFIGS.items():
        cfg = McmcConfig(burn_in=400, post_burn_in=400, **settings_)
        digests[name] = chain_digest(make(), cfg)
    assert seen == {(kind, valid) for kind in mcmc.MOVE_KINDS for valid in (True, False)}
    assert digests == GOLDEN_DIGESTS


def test_negative_zero_features_sample_as_zero():
    """Data holding -0.0 gives the chain of the same data with every zero
    +0.0: the same draws, accepts and log-likelihoods, and no sampled
    threshold is -0.0."""
    ds = ties_dataset()
    assert np.signbit(ds.features[ds.features == 0.0]).any()
    plus = Dataset(ds.features + 0.0, ds.labels, ds.class_count, ds.feature_names)
    cfg = McmcConfig(burn_in=400, post_burn_in=400, **GOLDEN_CONFIGS["ties_window1"][1])
    got, want = run_chain(ds, cfg), run_chain(plus, cfg)
    assert [serialize(s.tree) for s in got.samples] == [serialize(s.tree) for s in want.samples]
    assert all(np.array_equal(a, b) for a, b in zip(got.trace, want.trace))
    zeros = [t for s in got.samples for f, t in zip(s.tree.feature, s.tree.threshold) if f >= 0 and t == 0.0]
    assert zeros and not np.signbit(zeros).any()


# SHA-256 of the posterior-averaged probabilities and votes of a pooled
# three-class chain with repeated samples, recorded from the predictor that
# routed one tree at a time.
GOLDEN_PREDICTION = {
    "probabilities": "5fdc2bb53c822135b1ef1612a825ad283f0ede00246f207041c7eff5388ed4d3",
    "votes": "5ae0b41687e49cc35547da58bd123c7bd5b2a64a0337a4ee546d87f1d70cf86b",
}


def test_golden_predict_average():
    ds = three_class_dataset()
    test_X = three_class_dataset(n=60, seed=12).features
    cfg = McmcConfig(burn_in=200, post_burn_in=300, restarts=2, min_leaf_rows=3,
                     dirichlet_alpha=(0.5, 1.0, 2.0), seed=7)
    samples = run_restarts(ds, cfg).samples
    assert 64 < len(samples.runs) < len(samples)  # repeats, and more than one routing block
    probabilities, votes = predict_average(samples, test_X, cfg.dirichlet_alpha)
    outputs = {"probabilities": probabilities, "votes": votes}
    digests = {name: hashlib.sha256(value.tobytes()).hexdigest() for name, value in outputs.items()}
    assert digests == GOLDEN_PREDICTION


def assert_traces_equal(a: mcmc.Trace, b: mcmc.Trace) -> None:
    """Every column of two traces holds the same dtype and values."""
    for name, x, y in zip(mcmc.Trace._fields, a, b):
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


class TestRunRestarts:
    def test_restart_count_and_ordering(self):
        ds = small_dataset(n=50, seed=3)
        cfg = McmcConfig(burn_in=40, post_burn_in=40, restarts=3, min_leaf_rows=3, seed=5)
        result = run_restarts(ds, cfg)
        assert len(result.samples) == 3 * 40
        keys = [(s.run_index, s.iteration) for s in result.samples]
        assert keys == sorted(keys)

    def test_single_restart_equals_run_chain(self):
        ds = small_dataset(n=50, seed=3)
        cfg = McmcConfig(burn_in=40, post_burn_in=40, restarts=1, min_leaf_rows=3, seed=5)
        a = run_restarts(ds, cfg)
        b = run_chain(ds, cfg, run_index=0)
        assert [serialize(s.tree) for s in a.samples] == [serialize(s.tree) for s in b.samples]

    def test_parallel_equals_serial(self):
        ds = small_dataset(n=50, seed=3)
        cfg = McmcConfig(burn_in=30, post_burn_in=30, restarts=4, min_leaf_rows=3, seed=5)
        serial = run_restarts(ds, cfg, workers=1)
        parallel = run_restarts(ds, cfg, workers=2)
        assert [serialize(s.tree) for s in serial.samples] == [
            serialize(s.tree) for s in parallel.samples
        ]
        assert_traces_equal(serial.trace, parallel.trace)

    def test_serial_restarts_share_one_table(self, monkeypatch):
        """A serial `run_restarts` builds `RowTables` once for all its
        chains, and gives the samples and trace of the chains run alone,
        each on tables of its own."""
        built = []

        class CountedTables(RowTables):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        ds = small_dataset(n=50, seed=3)
        cfg = McmcConfig(burn_in=30, post_burn_in=30, restarts=3, min_leaf_rows=3, seed=5)
        monkeypatch.setattr(mcmc, "RowTables", CountedTables)
        pooled = run_restarts(ds, cfg)
        assert len(built) == 1
        alone = [run_chain(ds, cfg, r) for r in range(3)]
        assert len(built) == 4
        assert [serialize(s.tree) for s in pooled.samples] == [
            serialize(s.tree) for res in alone for s in res.samples
        ]
        assert [(s.run_index, s.iteration) for s in pooled.samples] == [
            (s.run_index, s.iteration) for res in alone for s in res.samples
        ]
        assert_traces_equal(pooled.trace, mcmc.Trace(*map(np.concatenate, zip(*(res.trace for res in alone)))))

    def test_missing_class_refused_before_any_chain(self, monkeypatch):
        chains = []
        monkeypatch.setattr(mcmc, "run_chain", lambda *args: chains.append(args))
        ds = small_dataset(n=30, seed=1)
        one_class = Dataset(ds.features, np.zeros(30, dtype=np.int64), 2, ds.feature_names)
        with pytest.raises(DataError, match="^every class must be present in the training data$"):
            run_restarts(one_class, McmcConfig(burn_in=5, post_burn_in=5, restarts=3, seed=0))
        assert chains == []

    def test_pool_class_is_loaded_on_first_use(self):
        """`mcmc.ProcessPoolExecutor` reads as the standard pool class, which
        the benchmark tracer subclasses and assigns back."""
        import concurrent.futures

        assert mcmc.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
        with pytest.raises(AttributeError, match="no attribute 'ThreadPoolExecutor'"):
            mcmc.ThreadPoolExecutor

    def test_pool_no_larger_than_the_restart_count(self, monkeypatch):
        """A pool forks all its workers at once, so run_restarts asks for no
        more than it has chains; a stub pool records the size and maps
        serially, starting no process."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(mcmc, "ProcessPoolExecutor", SerialPool)
        ds = small_dataset(n=50, seed=3)
        cfg = McmcConfig(burn_in=30, post_burn_in=30, restarts=2, min_leaf_rows=3, seed=5)
        run_restarts(ds, cfg, workers=64)
        assert sizes == [2]

    def test_move_counts_match_the_steps_taken(self, monkeypatch):
        """The trace's per-kind counts and acceptance are those of the
        (kind, accepted) pairs that `mh_step` returned, all four kinds."""
        steps = []

        def tallied(*args):
            steps.append(mh_step(*args))
            return steps[-1]

        monkeypatch.setattr(mcmc, "mh_step", tallied)
        ds = small_dataset(n=50, seed=3)
        cfg = McmcConfig(move_probs=(0.25, 0.25, 0.25, 0.25), burn_in=150, post_burn_in=150, restarts=2,
                         min_leaf_rows=3, seed=5)
        trace = run_restarts(ds, cfg).trace
        proposed = {kind: sum(k == kind for k, _ in steps) for kind in mcmc.MOVE_KINDS}
        accepted = {kind: sum(k == kind and a for k, a in steps) for kind in mcmc.MOVE_KINDS}
        assert min(accepted.values()) > 0  # every kind proposed and accepted
        assert trace.move_counts() == (proposed, accepted)
        assert trace.acceptance_rate == sum(a for _, a in steps) / len(steps) == sum(accepted.values()) / 600

    def test_each_warning_pooled_once(self):
        """Every restart of a chain with no valid split warns alike; the
        pooled result holds the warning once."""
        ds = small_dataset(n=6, seed=7)
        result = run_restarts(ds, McmcConfig(burn_in=5, post_burn_in=5, restarts=3, min_leaf_rows=5, seed=0))
        assert result.warnings == ("no valid split under min_leaf_rows; chain holds the root-only model",)


class TestPredictAverage:
    def test_single_sample_equals_leaf_predictive(self):
        probabilities, _ = predict_average(samples_of([single_leaf_tree(counts=(3, 1))]), np.zeros((1, 1)), 1.0)
        assert probabilities[0] == pytest.approx(leaf_predictive((3, 1), ALPHA2))

    def test_two_opposed_samples_average_out(self):
        a = single_leaf_tree(counts=(50, 0))
        b = single_leaf_tree(counts=(0, 50))
        probabilities, votes = predict_average(samples_of([a, b]), np.zeros((1, 1)), 1.0)
        assert probabilities[0] == pytest.approx([0.5, 0.5])
        assert votes[0].tolist() == [1, 1]

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            predict_average([], np.zeros((1, 1)), 1.0)

    @pytest.mark.parametrize("alpha", [(1.0, 1.0, 1.0), (1.0, 0.0), -1.0])
    def test_bad_alpha_names_class_count(self, alpha):
        samples = samples_of([single_leaf_tree(counts=(3, 1))])
        with pytest.raises(ValueError, match=r"\b2 (entries|classes)"):
            predict_average(samples, np.zeros((1, 1)), alpha)


class TestPathSummary:
    def test_identical_samples_single_row(self):
        tree = ArenaTree(nodes=(Split(0, 0.0, 1, 2), Leaf(counts=(5, 0)), Leaf(counts=(0, 5))))
        rows, histogram = posterior_path_summary(samples_of([tree], [10]))
        assert len(rows) == 1
        assert rows[0].weight == 1.0
        assert rows[0].feature_path == (0,)
        assert histogram == {1: 10}

    def test_weights_sum_to_one(self):
        ds = small_dataset(n=60, seed=9)
        cfg = McmcConfig(burn_in=100, post_burn_in=200, min_leaf_rows=3, seed=2)
        result = run_chain(ds, cfg)
        rows, _ = posterior_path_summary(result.samples)
        assert sum(r.weight for r in rows) == pytest.approx(1.0, abs=1e-12)
        assert all(rows[i].weight >= rows[i + 1].weight for i in range(len(rows) - 1))


@st.composite
def edited_tree_samples(draw):
    """Trees reached from one leaf by `replace_leaf`, `collapse_split` and
    `with_split_params` edits, each held by a run of 1-3 consecutive samples
    as a chain's rejected steps hold it."""
    tree, trees, counts = single_leaf_tree(), [], []
    for i in range(draw(st.integers(1, 12))):
        edit = draw(st.sampled_from(("grow", "prune", "change")))
        feature, threshold = draw(st.integers(0, 3)), draw(st.floats(-1.0, 1.0))
        nodes = tree.nodes
        prunable = [s for s in tree.split_ids
                    if isinstance(nodes[nodes[s].left], Leaf) and isinstance(nodes[nodes[s].right], Leaf)]
        if edit == "prune" and prunable:
            tree = collapse_split(tree, draw(st.sampled_from(prunable)))
        elif edit == "change" and tree.split_ids:
            tree = with_split_params(tree, draw(st.sampled_from(tree.split_ids)), feature, threshold)
        else:
            tree = replace_leaf(tree, draw(st.sampled_from(tree.leaf_ids)), feature, threshold)
        trees.append(tree)
        counts.append(draw(st.integers(1, 3)))
    return samples_of(trees, counts)


@given(edited_tree_samples())
@settings(max_examples=60, deadline=None)
def test_path_summary_matches_summarize_property(samples):
    """The column-order path of each sample equals `summarize`'s recursive one."""
    groups, histogram = {}, {}
    for sample in samples:
        summary = summarize(arena(sample.tree))
        groups[summary.feature_path] = groups.get(summary.feature_path, 0) + 1
        histogram[summary.split_count] = histogram.get(summary.split_count, 0) + 1
    want = sorted(
        (mcmc.PathRow(path, len(path), count / len(samples), count) for path, count in groups.items()),
        key=lambda r: (-r.weight, r.feature_path),
    )
    assert posterior_path_summary(samples) == (want, dict(sorted(histogram.items())))


@given(
    counts=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
        min_size=1,
        max_size=4,
    ),
    alpha=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_marginal_likelihood_matches_oracle_property(counts, alpha):
    alphas = [alpha] * 3
    got = log_marginal_likelihood(tree_of_leaves([tuple(c) for c in counts]), np.full(3, alpha))
    want = exact_marginal([tuple(c) for c in counts], alphas)
    assert got == pytest.approx(math.log(want.numerator) - math.log(want.denominator), abs=1e-9)
