"""What the benchmark measures: workloads, metrics, bounds and the layer map.

`BENCHMARK.json` at the repository root is rendered from this file:

    python3 perfbench/spec.py            # print the rendering
    python3 perfbench/spec.py --write    # rewrite BENCHMARK.json

The self-check (`run.py --self-check`) fails when the two disagree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One run measures for RUN_SECONDS.  A full benchmark pass, 4 + 22 runs per
# workload, must fit in 3420 s: about 60 s per run with two workloads.
# On a shared 2-core Xeon host the spread of a run's median shrinks with the
# window it covers (a fixed loop's 25 s windows spread 18%, 55 s windows
# 10%), so BENCHMARK.json carries two workloads at 60 s.
RUN_SECONDS = 60

# name -> why (one line each; BENCHMARK.json carries it verbatim)
WORKLOADS = {
    "desk_synthetic": (
        "treeuq bench synthetic --sweep at desk scale: the command users run, every module on the "
        "path, serial; split about 46% sampler, 28% Bayes prediction, 25% forest"
    ),
    "bayes_long_chain": (
        "treeuq bayes, 4 restarts x (2000+2000), timed serially, traced also at --workers 2: "
        "equilibrium chains, 60-70% repeated samples, pooled ChainResults; no forest"
    ),
}

# Run by the harness on request (run.py --workload forest_wide, or --all
# --workloads ...) with the same checks and metrics, but left out of
# BENCHMARK.json: a third workload would cut every run to about 40 s, which
# on a shared host leaves the spread of run medians near the 0.25 bound.
EXTRA_WORKLOADS = {
    "forest_wide": (
        "treeuq bench uci --technique forest on a vehicle-shaped CSV (4 classes, 18 features, "
        "564/282 rows): 96% tree induction, all trees distinct, no sampler"
    ),
}

# (name, unit, better, bound, definition).  Medians over the untraced
# invocations of one run.  Every value here is positive on every workload.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25, "process start to exit of one untraced program run"),
    ("setup_s", "s", "lower", 0.25,
     "interpreter start until treeuq and its dependencies are imported and the workload's input "
     "files are written (median of several fresh set-up processes)"),
    ("cpu_s", "s", "lower", 0.25, "user plus system CPU of one program run, pool workers included"),
    ("peak_rss_mb", "MB", "lower", 0.2, "peak resident set of the main process or of any pool worker"),
    ("accuracy", "ratio", "higher", 0.1,
     "plurality-vote test accuracy, fold mean for bench protocols, averaged over the techniques "
     "the workload runs"),
]

# Quality figures printed and stored with every result but kept out of
# BENCHMARK.json: each can be exactly 0 (failed_share on a healthy run, a
# forest's confident-incorrect share) or is defined for one technique only.
REPORTED_ONLY = [
    ("failed_share", "ratio", "runs failing any output check over runs attempted"),
    ("bayes_accuracy", "ratio", "Bayes plurality-vote test accuracy (fold mean for bench protocols)"),
    ("forest_accuracy", "ratio", "forest plurality-vote test accuracy (fold mean for bench protocols)"),
    ("bayes_ci_rate", "ratio", "Bayes confident-incorrect share at confidence 0.99"),
    ("forest_ci_rate", "ratio", "forest confident-incorrect share at confidence 0.99"),
]

LAYERS = ("mcmc", "tree", "forest", "envelope", "data", "synth", "bench", "cli")

# (name, unit, better).  Units in us/ms are means per call; units in s are
# totals over one program run.  A layer the workload never calls reads 0.
PER_LAYER = [
    ("mcmc.mh_step.us", "us", "lower"),
    ("mcmc.mh_step.us.birth", "us", "lower"),
    ("mcmc.mh_step.us.death", "us", "lower"),
    ("mcmc.mh_step.us.change_split", "us", "lower"),
    ("mcmc.mh_step.us.change_rule", "us", "lower"),
    ("mcmc.mh_step.calls", "count", "lower"),
    ("mcmc.propose_move.us", "us", "lower"),
    ("mcmc.propose_move.valid_share", "ratio", "higher"),
    ("mcmc.accept_share", "ratio", "higher"),
    ("mcmc.log_marginal_likelihood.us", "us", "lower"),
    ("mcmc.log_marginal_likelihood.calls", "count", "lower"),
    ("mcmc.predict_average.s", "s", "lower"),
    ("mcmc.predict_average.ns_per_sample_point", "ns", "lower"),
    ("mcmc.distinct_sample_share", "ratio", "lower"),
    ("mcmc.run_restarts.s", "s", "lower"),
    ("mcmc.run_restarts.cpu_share", "ratio", "higher"),
    ("mcmc.pool_result_bytes", "bytes", "lower"),
    ("mcmc.self_s", "s", "lower"),
    ("tree.fit_partition.us", "us", "lower"),
    ("tree.fit_partition.calls", "count", "lower"),
    ("tree.tree_predictive.us", "us", "lower"),
    ("tree.tree_predictive.calls", "count", "lower"),
    ("tree.nodes_mean", "count", "lower"),
    ("tree.self_s", "s", "lower"),
    ("forest.grow_randomized_tree.ms", "ms", "lower"),
    ("forest.grow_randomized_tree.calls", "count", "lower"),
    ("forest.build_forest.self_s", "s", "lower"),
    ("forest.forest_votes.s", "s", "lower"),
    ("forest.forest_predictive.s", "s", "lower"),
    ("forest.self_s", "s", "lower"),
    ("envelope.evaluate.us", "us", "lower"),
    ("envelope.evaluate.calls", "count", "lower"),
    ("envelope.sweep.ms", "ms", "lower"),
    ("envelope.write_votes_csv.ms", "ms", "lower"),
    ("envelope.self_s", "s", "lower"),
    ("data.load_csv.ms", "ms", "lower"),
    ("data.make_folds.ms", "ms", "lower"),
    ("data.write_csv.ms", "ms", "lower"),
    ("data.self_s", "s", "lower"),
    ("synth.canonical_datasets.ms", "ms", "lower"),
    ("synth.self_s", "s", "lower"),
    ("bench.run_bayes_fold.s", "s", "lower"),
    ("bench.run_forest_fold.s", "s", "lower"),
    ("bench.emit.s", "s", "lower"),
    ("bench.artifact_bytes", "count", "lower"),
    ("bench.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_overhead_share", "ratio", "lower"),
    ("trace_uncovered_share", "ratio", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        (ROOT / "BENCHMARK.json").write_text(render(), encoding="utf-8")
    else:
        sys.stdout.write(render())
