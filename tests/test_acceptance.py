"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every check is asserted
at its stated tolerance.  Two checks, 5 (envelope width ordering) and 6b
(log-likelihood level), stay red: no program fault behind them has been
shown, and their assert messages carry the measured evidence.  The Bayes
error (1b) is checked against a population value that the test integrates
itself from the mixture's component list, independently of `treeuq.synth`.
"""

import json
import math
import os
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    ArenaTree,
    Leaf,
    Split,
    arena,
    bayes_error_estimate,
    columns,
    leaf_predictive,
    proposal_log_ratio,
    proposed_state,
    replace_leaf,
    route,
    single_leaf_tree,
)
from treeuq import bench, envelope, forest, mcmc, synth
from treeuq.data import make_folds
from treeuq.tree import fit_partition


def _criterion(num: str, ok: bool, desc: str, detail: str = "") -> None:
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared desk-scale runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bayes_desk_run(canonical_data):
    """10 restarts x (500 + 500) on the canonical 250-row training set."""
    train, test = canonical_data
    cfg = replace(bench.DESK_MCMC, seed=synth.CANONICAL_SEED, min_leaf_rows=5)
    t0 = time.perf_counter()
    result = mcmc.run_restarts(train, cfg)
    probabilities, votes = mcmc.predict_average(result.samples, test.features, cfg.dirichlet_alpha)
    elapsed = time.perf_counter() - t0
    accuracy = float(np.mean(np.argmax(probabilities, axis=1) == test.labels))
    return {
        "cfg": cfg,
        "result": result,
        "votes": votes,
        "accuracy": accuracy,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def forest_desk_run(canonical_data):
    """200 trees, pruning factor 5, on the full canonical training set."""
    train, test = canonical_data
    cfg = forest.ForestConfig(tree_count=200, min_leaf_rows=5, seed=synth.CANONICAL_SEED)
    t0 = time.perf_counter()
    built = forest.build_forest(train, test.features, test.labels, cfg)
    elapsed = time.perf_counter() - t0
    return {"forest": built, "elapsed": elapsed}


def _quadrature_bayes_error(components, step: float) -> float:
    """Population Bayes error of a 2-D isotropic mixture by the midpoint rule.

    Written longhand from the component list alone: each class density is
    the weighted sum of its Gaussian kernels, and the error is the mass off
    the most probable class, integrated over a grid spanning every centre
    +- 8 sigma.  Each kernel factorizes over the two axes, so a grid of
    kernel values is one outer product.
    """
    axes = []
    for d in range(2):
        lo = min(c.center[d] - 8.0 * math.sqrt(c.scale) for c in components)
        hi = max(c.center[d] + 8.0 * math.sqrt(c.scale) for c in components)
        axes.append(lo + step * (np.arange(math.ceil((hi - lo) / step)) + 0.5))
    dens = np.zeros((1 + max(c.label for c in components), len(axes[0]), len(axes[1])))
    for c in components:
        gx, gy = (np.exp(-0.5 * (axes[d] - c.center[d]) ** 2 / c.scale) for d in range(2))
        dens[c.label] += c.weight / (2.0 * math.pi * c.scale) * np.outer(gx, gy)
    return float((dens.sum(axis=0) - dens.max(axis=0)).sum() * step * step)


def test_criterion_1_bayes_error(canonical_data):
    """Monte-Carlo Bayes-error estimate with 1e5 points matches quadrature within 3 stderr."""
    spec = synth.benchmark_mixture()
    t0 = time.perf_counter()
    est = bayes_error_estimate(spec, 100_000, seed=synth.CANONICAL_SEED)
    elapsed = time.perf_counter() - t0
    _criterion("1a", elapsed < 5.0, "Bayes-error estimate runtime < 5 s", f"{elapsed:.2f}s")
    coarse = _quadrature_bayes_error(spec.components, 0.004)
    population = _quadrature_bayes_error(spec.components, 0.002)
    assert abs(coarse - population) < 1e-5, (
        f"quadrature not converged: step 0.004 gives {coarse:.7f}, step 0.002 gives {population:.7f}"
    )
    gap = abs(est.rate - population)
    _criterion(
        "1b",
        gap <= 3.0 * est.stderr,
        "Bayes error estimate within 3 stderr of the quadrature population value",
        f"estimate {est.rate:.4f} +- {est.stderr:.4f}, quadrature {population:.6f}, "
        f"|gap| {gap:.4f} vs 3 stderr {3.0 * est.stderr:.4f}",
    )


def test_criterion_2_bayes_accuracy(bayes_desk_run):
    """Desk-scale posterior-averaged accuracy on the canonical test set."""
    acc = bayes_desk_run["accuracy"]
    elapsed = bayes_desk_run["elapsed"]
    _criterion("2a", elapsed < 180.0, "desk-scale sampler runtime < 3 min", f"{elapsed:.1f}s")
    _criterion("2b", 0.84 <= acc <= 0.91, "Bayesian accuracy in [84%, 91%]", f"{acc:.4f}")


def test_criterion_3_forest_accuracy(forest_desk_run):
    """200-tree ensemble accuracy on the canonical test set."""
    acc = float(forest_desk_run["forest"].ensemble_acc[-1])
    elapsed = forest_desk_run["elapsed"]
    _criterion("3a", elapsed < 60.0, "forest build runtime < 1 min", f"{elapsed:.1f}s")
    _criterion("3b", 0.84 <= acc <= 0.91, "forest accuracy in [84%, 91%]", f"{acc:.4f}")


def test_criterion_4_size_ordering(bayes_desk_run, forest_desk_run):
    """Bayesian trees are substantially smaller than forest trees."""
    bayes_sizes = np.array([s.tree.split_count for s in bayes_desk_run["result"].samples])
    forest_sizes = np.array([t.split_count for t in forest_desk_run["forest"].trees])
    ratio = bayes_sizes.mean() / forest_sizes.mean()
    detail = f"bayes {bayes_sizes.mean():.1f} vs forest {forest_sizes.mean():.1f}, ratio {ratio:.2f}"
    _criterion("4", bayes_sizes.mean() < forest_sizes.mean() and ratio < 0.6, "mean split-count ordering with ratio < 0.6", detail)


def test_criterion_5_envelope_stability_ordering(canonical_data):
    """Bayesian CI rate and CI 2-sigma width below the forest's, 5 paired folds x 3 seeds."""
    train, test = canonical_data
    rows_detail, rate_held, width_failed = [], [], []
    ok_all = True
    for seed in (1, 2, 3):
        folds = make_folds(train, 5, seed=seed)
        b_reports, f_reports = [], []
        for fold in range(5):
            rows = folds.train_indices(fold)
            sub = train.subset(rows)
            mcfg = replace(bench.DESK_MCMC, seed=seed * 100 + fold, min_leaf_rows=5)
            res = mcmc.run_restarts(sub, mcfg)
            _, votes = mcmc.predict_average(res.samples, test.features, 1.0)
            vm = envelope.VoteMatrix(votes, test.labels)
            b_reports.append(envelope.evaluate(vm, 0.99))
            fcfg = forest.ForestConfig(tree_count=200, min_leaf_rows=5, seed=seed * 100 + fold + 50)
            built = forest.build_forest(sub, test.features, test.labels, fcfg)
            vm = envelope.VoteMatrix(forest.forest_votes(built, test.features, 1.0), test.labels)
            f_reports.append(envelope.evaluate(vm, 0.99))
        b = envelope.aggregate(b_reports)
        f = envelope.aggregate(f_reports)
        rate_ok = b.mean.ci_rate < f.mean.ci_rate
        width_ok = b.width2.ci_rate < f.width2.ci_rate
        ok_all = ok_all and rate_ok and width_ok
        if rate_ok:
            rate_held.append(seed)
        if not width_ok:
            width_failed.append(seed)
        rows_detail.append(
            f"seed {seed}: bayes ci {b.mean.ci_rate:.4f} w2 {b.width2.ci_rate:.4f} | "
            f"forest ci {f.mean.ci_rate:.4f} w2 {f.width2.ci_rate:.4f} | "
            f"rate<{rate_ok} width<{width_ok}"
        )
    _criterion(
        "5",
        ok_all,
        "Bayesian CI rate and CI 2-sigma width below forest's on all 3 seeds",
        "; ".join(rows_detail)
        + f" -- the rate half holds on seeds {rate_held} of [1, 2, 3]; the width half "
        f"fails on seeds {width_failed}. Most of the Bayesian width is Monte Carlo "
        "noise of the 10 x (500 + 500) desk sampler: with 50 restarts on the same "
        "chains and seeds the widths drop to 0.0139, 0.0050 and 0.0043, and seed 1 "
        "still fails there because on fold 3 the posterior is confidently wrong on "
        "2.7-3.2% of test points at both restart counts. The paper claims the "
        "Bayesian trees superior within the envelope, but not whether that includes "
        "a per-seed width ordering at desk scale",
    )


def _plug_in_and_max_log_lik(tree, alpha) -> tuple[float, float]:
    """Leaf-count log-likelihood at the Dirichlet posterior mean and at the MLE."""
    plug_in = max_lik = 0.0
    for leaf_counts in tree.leaf_counts:
        counts = np.asarray(leaf_counts, dtype=np.float64)
        seen = counts[counts > 0]
        plug_in += float(counts @ np.log(leaf_predictive(counts, alpha)))
        max_lik += float(seen @ np.log(seen / seen.sum()))
    return plug_in, max_lik


def test_criterion_6_mcmc_health(canonical_data, bayes_desk_run):
    """Post-burn-in log-likelihood level and overall acceptance rate."""
    result = bayes_desk_run["result"]
    trace = result.trace
    ll_mean = float(np.mean(trace.log_lik[trace.post]))
    rate = result.trace.acceptance_rate
    rate_ok = 0.35 <= rate <= 0.60
    ll_ok = -55.0 <= ll_mean <= -30.0
    _criterion("6a", rate_ok, "overall acceptance rate in [0.35, 0.60]", f"{rate:.3f}")
    restart_means = [
        np.mean(trace.log_lik[trace.post & (trace.run_index == run)]) for run in np.unique(trace.run_index)
    ]
    peak = trace.log_lik.max()
    alpha = mcmc.resolve_alpha(bayes_desk_run["cfg"].dirichlet_alpha, canonical_data[0].class_count)
    plug_in, max_lik = np.mean(
        [_plug_in_and_max_log_lik(s.tree, alpha) for s in result.samples], axis=0
    )
    _criterion(
        "6b",
        ll_ok,
        "post-burn-in log-likelihood mean in [-55, -30]",
        f"mean {ll_mean:.1f}; per-restart means run from {max(restart_means):.1f} to "
        f"{min(restart_means):.1f} and no chain visits a value above {peak:.1f}. The "
        f"marginal likelihood itself matches an exact big-integer oracle (7a). Over the "
        f"same samples the plug-in log-likelihood sum n_ik log((n_ik+a_k)/(n_k+sum a)) "
        f"averages {plug_in:.1f} and the maximum-likelihood one {max_lik:.1f}, so no "
        f"reading of log-likelihood the code supports reaches the band on this draw; "
        f"nothing records which draw or statistic the band [-55, -30] was taken from",
    )


# ---------------------------------------------------------------------------
# Criterion 7: oracle equivalence
# ---------------------------------------------------------------------------


def _exact_marginal(counts_rows, alphas) -> Fraction:
    def gamma_int(n: int) -> int:
        return math.factorial(n - 1)

    total = Fraction(1)
    alpha_sum = sum(alphas)
    for counts in counts_rows:
        total *= Fraction(gamma_int(alpha_sum), math.prod(gamma_int(a) for a in alphas))
        total *= Fraction(
            math.prod(gamma_int(m + a) for m, a in zip(counts, alphas)),
            gamma_int(sum(counts) + alpha_sum),
        )
    return total


def test_criterion_7_oracle_equivalence(canonical_data):
    # 7a: marginal likelihood against the exact big-integer oracle
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(25):
        classes = int(rng.integers(2, 5))
        leaves = int(rng.integers(1, 5))
        alphas = [int(a) for a in rng.integers(1, 4, size=classes)]
        counts_rows = [tuple(int(c) for c in rng.integers(0, 8, size=classes)) for _ in range(leaves)]
        if leaves == 1:
            tree = ArenaTree(nodes=(Leaf(counts=counts_rows[0]),))
        else:
            nodes = []
            for i, c in enumerate(counts_rows[:-1]):
                nodes.append(Split(0, float(i), 2 * i + 1, 2 * i + 2))
                nodes.append(Leaf(counts=c))
            nodes.append(Leaf(counts=counts_rows[-1]))
            tree = ArenaTree(nodes=tuple(nodes))
        got = mcmc.log_marginal_likelihood(columns(tree), np.array(alphas, float))
        exact = _exact_marginal(counts_rows, alphas)
        want = math.log(exact.numerator) - math.log(exact.denominator)
        worst = max(worst, abs(got - want))
    _criterion("7a", worst < 1e-9, "marginal likelihood matches big-integer oracle on 25 configs", f"worst |err| {worst:.2e}")

    # 7b: log-Catalan against exact integers for k <= 60
    worst = max(
        abs(mcmc.log_catalan(k) - math.log(math.comb(2 * k, k) // (k + 1))) for k in range(1, 61)
    )
    _criterion("7b", worst < 1e-9, "log-Catalan matches exact big integers for k <= 60", f"worst |err| {worst:.2e}")

    # 7c: exhaustive posterior-predictive oracle on a 6-row, 1-feature problem.
    # Birth/death moves only: their acceptance ratio makes the chain target
    # exactly  lik(tree) * prod_splits 1/(N_node * m) / S_leaves  over valid
    # trees, which a full enumeration of trees with <= 2 splits reproduces.
    # (Change moves are excluded: their zero log-ratio convention ignores the
    # rule-support change at descendant nodes, which is exact only for the
    # changed node itself.)
    X = np.array([[0.1], [0.2], [0.3], [0.4], [0.5], [0.6]])
    y = np.array([0, 1, 0, 1, 1, 0])
    alpha = np.ones(2)

    def fitted(tree):
        t, parts = fit_partition(columns(tree), X, y, 2)
        return arena(t), parts

    def tree_weight(tree, parts):
        lik = math.exp(mcmc.log_marginal_likelihood(columns(tree), alpha))
        w = lik / math.exp(mcmc.log_catalan(tree.leaf_count))
        for nid in tree.split_ids:
            w /= len(np.unique(X[parts[nid], 0]))  # m == 1
        return w

    trees = []
    base, base_parts = fitted(single_leaf_tree())
    trees.append((base, base_parts))
    values = np.unique(X[:, 0])
    for r in values[:-1]:  # the max value would leave an empty right child
        one, one_parts = fitted(replace_leaf(single_leaf_tree(), 0, 0, float(r)))
        trees.append((one, one_parts))
        for leaf_id in one.leaf_ids:
            child_vals = np.unique(X[one_parts[leaf_id], 0])
            for r2 in child_vals[:-1]:
                two, two_parts = fitted(replace_leaf(one, leaf_id, 0, float(r2)))
                if min(two.nodes[i].n for i in two.leaf_ids) >= 1:
                    trees.append((two, two_parts))

    probes = np.array([[0.05], [0.15], [0.25], [0.35], [0.45], [0.55], [0.65]])
    weights = np.array([tree_weight(t, p) for t, p in trees])
    oracle = np.zeros((len(probes), 2))
    for (tree, _), w in zip(trees, weights):
        for i, point in enumerate(probes):
            leaf = tree.nodes[route(tree, point)]
            oracle[i] += w * leaf_predictive(leaf.counts, alpha)
    oracle /= weights.sum()

    cfg = mcmc.McmcConfig(
        move_probs=(0.5, 0.5, 0.0, 0.0),
        burn_in=200,
        post_burn_in=4800,
        restarts=20,
        min_leaf_rows=1,
        max_leaves=3,
        seed=2024,
    )
    ds = __import__("treeuq.data", fromlist=["Dataset"]).Dataset(X, y, 2, ("x",))
    per_restart = []
    for r in range(cfg.restarts):
        res = mcmc.run_chain(ds, cfg, run_index=r)
        probabilities, _ = mcmc.predict_average(res.samples, probes, 1.0)
        per_restart.append(probabilities[:, 0])
    per_restart = np.array(per_restart)
    chain_mean = per_restart.mean(axis=0)
    sigma = per_restart.std(axis=0, ddof=1) / math.sqrt(cfg.restarts)
    z = np.abs(chain_mean - oracle[:, 0]) / sigma
    _criterion(
        "7c",
        bool((z <= 3.0).all()),
        "small-instance chain matches the exhaustive posterior oracle within 3 MC sigma",
        f"{len(trees)} enumerated trees, max |z| {z.max():.2f}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: property suites
# ---------------------------------------------------------------------------


def test_criterion_8_property_suites(canonical_data, bayes_desk_run, forest_desk_run, tmp_path):
    train, test = canonical_data

    # 8a: reciprocity on 1e4 recorded birth/death pairs
    ds = train.subset(np.arange(100))
    cfg = mcmc.McmcConfig(move_probs=(0.5, 0.5, 0.0, 0.0), min_leaf_rows=5, seed=8)
    state = mcmc.ChainState(mcmc.RowTables(ds.features, ds.labels, 2, cfg.dirichlet_alpha))
    rng = np.random.default_rng(8)
    checked, worst = 0, 0.0
    while checked < 10_000:
        prop = mcmc.propose_move(state, cfg, rng)
        if prop.valid and prop.kind == mcmc.MOVE_BIRTH:
            back = proposal_log_ratio(mcmc.MOVE_DEATH, arena(proposed_state(state, prop).tree), arena(state.tree), cfg)
            structure = mcmc.log_accept_ratio(state, prop, cfg) - (prop.log_lik - state.log_lik)
            worst = max(worst, abs(structure + back))
            checked += 1
        if prop.valid and rng.random() < 0.5:
            state.apply(prop)
    _criterion("8a", worst <= 1e-12, "birth/death reciprocity sums to 0 +- 1e-12 on 1e4 pairs", f"worst {worst:.2e}")

    # 8b + 8c: envelope partition identity and consistency bounds.  A
    # consistency outside [1/C, 1] would show as a share of uncertain rows
    # other than the non-unanimous ones at threshold 1, or other than those
    # at the 1/C floor just above it.
    rng = np.random.default_rng(5)
    ok_partition, ok_bounds = True, True
    for _ in range(200):
        classes = int(rng.integers(2, 5))
        voters = int(rng.integers(1, 60))
        votes = rng.multinomial(voters, np.ones(classes) / classes, size=40)
        vm = envelope.VoteMatrix(votes, rng.integers(0, classes, size=40))
        rep = envelope.evaluate(vm, 0.99)
        ok_partition &= abs(rep.cc_rate + rep.u_rate + rep.ci_rate - 1.0) < 1e-12
        top = envelope.evaluate(vm, 1.0)
        floor = envelope.evaluate(vm, float(np.nextafter(1.0 / classes, 1.0)))
        plurality = votes.max(axis=1)
        ok_bounds &= top.u_rate == np.mean(plurality < voters)
        ok_bounds &= floor.u_rate == np.mean(plurality * classes == voters)
    _criterion("8b", ok_partition, "cc + u + ci = 1 on random vote matrices")
    _criterion("8c", ok_bounds, "consistency lies in [1/C, 1] on random vote rows")

    # 8d: sweep monotonicity on the desk-run votes
    vm = envelope.VoteMatrix(bayes_desk_run["votes"], test.labels)
    curve = envelope.sweep(vm)
    mono = bool(
        (np.diff(curve.u_rates) >= -1e-12).all() and (np.diff(curve.ci_rates) <= 1e-12).all()
    )
    _criterion("8d", mono, "u-rate non-decreasing and ci-rate non-increasing along the sweep grid")

    # 8e: pruning factor respected by every sampled and grown tree
    sampled_ok = all(
        min(sum(counts) for counts in s.tree.leaf_counts) >= 5
        for s in bayes_desk_run["result"].samples
    )
    grown_ok = all(
        min(sum(counts) for counts in t.leaf_counts) >= 5 for t in forest_desk_run["forest"].trees
    )
    _criterion("8e", sampled_ok and grown_ok, "every sampled/grown leaf holds >= pruning-factor rows")

    # 8f: byte-identical reports under fixed seeds with parallel execution
    def run(out, workers):
        cfg = bench.ExperimentConfig(
            mcmc=mcmc.McmcConfig(burn_in=60, post_burn_in=60, restarts=3, min_leaf_rows=3, seed=0),
            forest=forest.ForestConfig(tree_count=8, min_leaf_rows=3, seed=0),
            fold_count=3,
            seed=13,
            out_dir=out,
            train_size=80,
            test_size=60,
            workers=workers,
        )
        bench.run_synthetic_protocol(cfg)

    run(tmp_path / "serial", 1)
    run(tmp_path / "parallel", 2)
    same = True
    for a in sorted((tmp_path / "serial").glob("*")):
        if a.name == "manifest.json":
            continue
        b = tmp_path / "parallel" / a.name
        same &= b.exists() and a.read_bytes() == b.read_bytes()
    _criterion("8f", same, "reports byte-identical between serial and parallel execution")


# ---------------------------------------------------------------------------
# Criterion 9: conditional UCI orderings
# ---------------------------------------------------------------------------


def _uci_data_dir() -> Path:
    return Path(os.environ.get("TREEUQ_DATA", Path(__file__).resolve().parent.parent / "data"))


def test_criterion_9_uci_orderings(tmp_path):
    data_dir = _uci_data_dir()
    present = [name for name in bench.UCI_TABLE if (data_dir / f"{name}.csv").exists()]
    if not present:
        pytest.skip(f"no local UCI CSV copies under {data_dir}; criterion 9 is conditional")
    cfg = bench.ExperimentConfig(
        mcmc=bench.DESK_MCMC,
        forest=forest.ForestConfig(tree_count=200),
        data_dir=data_dir,
        datasets=tuple(present),
        out_dir=tmp_path,
        seed=synth.CANONICAL_SEED,
    )
    bench.run_uci_protocol(cfg)
    report = json.loads((tmp_path / "report.json").read_text())

    size_ok, details = True, []
    for name in present:
        entry = report["datasets"][name]
        if entry["status"] != "ok":
            continue
        b = entry["techniques"]["bayes"]["summary"]["mean"]
        f = entry["techniques"]["forest"]["summary"]["mean"]
        size_ok &= b["tree_size_mean"] < f["tree_size_mean"]
        details.append(f"{name}: bayes {b['tree_size_mean']:.1f} vs forest {f['tree_size_mean']:.1f}")
    _criterion("9a", size_ok, "Bayesian mean tree size below forest's on every dataset", "; ".join(details))

    if "wisconsin" in present and report["datasets"]["wisconsin"]["status"] == "ok":
        b = report["datasets"]["wisconsin"]["techniques"]["bayes"]["summary"]["mean"]["accuracy"]
        f = report["datasets"]["wisconsin"]["techniques"]["forest"]["summary"]["mean"]["accuracy"]
        _criterion(
            "9b",
            b >= f and b >= 0.95 and f >= 0.95,
            "Wisconsin: Bayesian accuracy >= forest accuracy, both >= 95%",
            f"bayes {b:.3f}, forest {f:.3f}",
        )
