"""Per-layer metrics from the span files that `tracer.py` writes.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.  A layer's
self time is the sum over its spans.  Units in us/ms are means per call,
units in s are totals over one program run, and a function that was never
called reads 0.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from spec import LAYERS

EMIT = ("bench.emit_technique_artifacts", "bench.emit_bayes_diagnostics", "bench.emit_forest_diagnostics")


class Spans:
    """The spans and counters of one traced process."""

    def __init__(self, path: Path):
        with np.load(path) as f:
            self.run_id = str(f["run_id"])
            self.names, self.tags = [str(n) for n in f["names"]], [str(t) for t in f["tags"]]
            self.name, self.tag, self.parent = f["name"], f["tag"], f["parent"]
            self.duration_ns = (f["end"] - f["start"]).astype(np.float64)
            self.counters = {str(k): float(v) for k, v in zip(f["counter_keys"], f["counter_values"]) if str(k)}
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.duration_ns[has_parent], minlength=len(self.parent))
        self.self_ns = self.duration_ns - covered

    def _codes(self, table: list[str], prefix: str) -> list[int]:
        return [i for i, text in enumerate(table) if text.startswith(prefix)]

    def mask(self, name: str, tag_prefix: str | None = None) -> np.ndarray:
        m = np.isin(self.name, [i for i, n in enumerate(self.names) if n == name])
        if tag_prefix is not None:
            m &= np.isin(self.tag, self._codes(self.tags, tag_prefix))
        return m

    def calls(self, name: str, tag_prefix: str | None = None) -> int:
        return int(self.mask(name, tag_prefix).sum())

    def total_s(self, name: str) -> float:
        return float(self.duration_ns[self.mask(name)].sum()) / 1e9

    def mean(self, name: str, scale: float, tag_prefix: str | None = None) -> float:
        m = self.mask(name, tag_prefix)
        return float(self.duration_ns[m].mean()) / scale if m.any() else 0.0

    def self_s(self, prefix: str) -> float:
        return float(self.self_ns[np.isin(self.name, self._codes(self.names, prefix))].sum()) / 1e9

    def root_s(self) -> float:
        return float(self.duration_ns[self.parent < 0].sum()) / 1e9

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0.0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(program: Spans, pool: Spans, setup: Spans | None, *, program_wall_s: float,
              untraced_median_s: float, artifact_bytes: int) -> dict[str, float]:
    """All per-layer metrics.  `program` is the traced run in the timed
    configuration (--workers 1).  `pool` is the traced run at the workload's
    pool size, the same object as `program` when it has none; it gives the
    pool-level metrics.  `setup` adds the input writer's calls to
    data.write_csv and synth.canonical_datasets."""
    p = program
    m: dict[str, float] = {}
    m["mcmc.mh_step.us"] = p.mean("mcmc.mh_step", 1e3)
    for kind in ("birth", "death", "change_split", "change_rule"):
        m[f"mcmc.mh_step.us.{kind}"] = p.mean("mcmc.mh_step", 1e3, kind + ":")
    steps = p.calls("mcmc.mh_step")
    m["mcmc.mh_step.calls"] = steps
    m["mcmc.propose_move.us"] = p.mean("mcmc.propose_move", 1e3)
    m["mcmc.propose_move.valid_share"] = _ratio(p.calls("mcmc.propose_move", "valid"), p.calls("mcmc.propose_move"))
    accepted = p.mask("mcmc.mh_step") & np.isin(p.tag, [i for i, t in enumerate(p.tags) if t.endswith(":1")])
    m["mcmc.accept_share"] = _ratio(int(accepted.sum()), steps)
    m["mcmc.log_marginal_likelihood.us"] = p.mean("mcmc.log_marginal_likelihood", 1e3)
    m["mcmc.log_marginal_likelihood.calls"] = p.calls("mcmc.log_marginal_likelihood")
    m["mcmc.predict_average.s"] = p.total_s("mcmc.predict_average")
    m["mcmc.predict_average.ns_per_sample_point"] = _ratio(
        p.total_s("mcmc.predict_average") * 1e9, p.counter("predict.sample_points"))
    m["mcmc.distinct_sample_share"] = _ratio(p.counter("predict.distinct"), p.counter("predict.samples"))
    m["mcmc.run_restarts.s"] = pool.total_s("mcmc.run_restarts") - pool.counter("pool.measure_s")
    m["mcmc.run_restarts.cpu_share"] = _ratio(pool.counter("run_restarts.cpu_s"), pool.counter("run_restarts.wall_x_workers_s"))
    m["mcmc.pool_result_bytes"] = _ratio(pool.counter("pool.result_bytes"), pool.counter("pool.results"))

    m["tree.fit_partition.us"] = p.mean("tree.fit_partition", 1e3)
    m["tree.fit_partition.calls"] = p.calls("tree.fit_partition")
    m["tree.tree_predictive.us"] = p.mean("tree.tree_predictive", 1e3)
    m["tree.tree_predictive.calls"] = p.calls("tree.tree_predictive")
    m["tree.nodes_mean"] = _ratio(p.counter("tree_predictive.nodes"), p.calls("tree.tree_predictive"))

    m["forest.grow_randomized_tree.ms"] = p.mean("forest.grow_randomized_tree", 1e6)
    m["forest.grow_randomized_tree.calls"] = p.calls("forest.grow_randomized_tree")
    m["forest.build_forest.self_s"] = float(p.self_ns[p.mask("forest.build_forest")].sum()) / 1e9
    m["forest.forest_votes.s"] = p.total_s("forest.forest_votes")
    m["forest.forest_predictive.s"] = p.total_s("forest.forest_predictive")

    m["envelope.evaluate.us"] = p.mean("envelope.evaluate", 1e3)
    m["envelope.evaluate.calls"] = p.calls("envelope.evaluate")
    m["envelope.sweep.ms"] = p.mean("envelope.sweep", 1e6)
    m["envelope.write_votes_csv.ms"] = p.mean("envelope.write_votes_csv", 1e6)

    both = [p] + ([setup] if setup is not None else [])
    for name, key in (("data.load_csv", "data.load_csv.ms"), ("data.make_folds", "data.make_folds.ms"),
                      ("data.write_csv", "data.write_csv.ms"), ("synth.canonical_datasets", "synth.canonical_datasets.ms")):
        calls = sum(s.calls(name) for s in both)
        m[key] = _ratio(sum(s.total_s(name) for s in both) * 1e3, calls)

    m["bench.run_bayes_fold.s"] = p.total_s("bench.run_bayes_fold")
    m["bench.run_forest_fold.s"] = p.total_s("bench.run_forest_fold")
    m["bench.emit.s"] = sum(p.total_s(name) for name in EMIT)
    m["bench.artifact_bytes"] = artifact_bytes

    for layer in LAYERS:
        m[f"{layer}.self_s"] = p.self_s(layer + ".")
    m["trace_overhead_share"] = (program_wall_s - untraced_median_s) / untraced_median_s
    m["trace_uncovered_share"] = (program_wall_s - p.root_s()) / program_wall_s
    return m
