"""Traced launcher: run the treeuq CLI or the input writer with span recording.

    python3 perfbench/tracer.py --spans FILE --run-id ID cli    -- <treeuq args>
    python3 perfbench/tracer.py --spans FILE --run-id ID inputs -- <inputs.py args>

Before the target runs, each function in TARGETS is replaced by a wrapper in
every treeuq module that holds it (so `mcmc.fit_partition`, imported from
`tree`, is wrapped too).  A wrapper records one span per call in memory:
parent span, name, tag, start and end (perf_counter_ns).  Nothing under
src/ is edited.  At exit the spans and a few counters go to FILE (.npz),
which `layers.py` turns into per-layer metrics.

Spans created inside pool worker processes stay in those processes and are
lost; only the launching process writes its spans.
"""

from __future__ import annotations

import argparse
import functools
import os
import pickle
import resource
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, function) pairs wrapped as spans, named "<module>.<function>"
TARGETS = [
    ("cli", "main"),
    ("bench", "run_synthetic_protocol"),
    ("bench", "run_uci_protocol"),
    ("bench", "run_bayes_fold"),
    ("bench", "run_forest_fold"),
    ("bench", "_emit_technique_artifacts"),
    ("bench", "_emit_bayes_diagnostics"),
    ("bench", "_emit_forest_diagnostics"),
    ("mcmc", "run_restarts"),
    ("mcmc", "run_chain"),
    ("mcmc", "mh_step"),
    ("mcmc", "propose_move"),
    ("mcmc", "log_marginal_likelihood"),
    ("mcmc", "predict_average"),
    ("tree", "fit_partition"),
    ("tree", "tree_predictive"),
    ("forest", "build_forest"),
    ("forest", "grow_randomized_tree"),
    ("forest", "forest_votes"),
    ("forest", "forest_predictive"),
    ("envelope", "evaluate"),
    ("envelope", "sweep"),
    ("envelope", "write_votes_csv"),
    ("data", "load_csv"),
    ("data", "make_folds"),
    ("data", "write_csv"),
    ("synth", "canonical_datasets"),
]

MODULES = ("cli", "bench", "mcmc", "tree", "forest", "envelope", "data", "synth")


class Recorder:
    """Spans and counters of one process, kept in memory until `write`.

    Spans live in flat integer arrays rather than one tuple per call, so a
    run of 10^5 calls adds nothing for the garbage collector to traverse.
    """

    FIELDS = ("parent", "name", "tag", "start", "end")

    def __init__(self):
        self.columns = {f: array("q") for f in self.FIELDS}
        self.stack: list[int] = []
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self.counters: dict[str, float] = defaultdict(float)
        self.pid = os.getpid()

    def _index(self, table: list[str], value: str) -> int:
        try:
            return table.index(value)
        except ValueError:
            table.append(value)
            return len(table) - 1

    def wrap(self, name: str, fn, before=None, after=None):
        """Span-recording wrapper.  `before(args, kwargs)` and
        `after(ctx, args, kwargs, result) -> tag` run outside the span."""
        parents, names, tags, starts, ends = (self.columns[f] for f in self.FIELDS)
        stack, clock = self.stack, time.perf_counter_ns
        name_ix = self._index(self.names, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before else None
            sid = len(ends)
            parents.append(stack[-1] if stack else -1)
            names.append(name_ix)
            tags.append(0)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[sid] = start
                ends[sid] = end
            if after:
                tag = after(ctx, args, kwargs, result)
                if tag:
                    tags[sid] = self._index(self.tags, tag)
            return result

        return wrapper

    def write(self, path: Path, run_id: str) -> None:
        if os.getpid() != self.pid:
            return
        counters = sorted(self.counters.items())
        np.savez(
            path,
            run_id=np.array(run_id),
            **{f: np.frombuffer(col, dtype=np.int64) if len(col) else np.zeros(0, np.int64)
               for f, col in self.columns.items()},
            names=np.array(self.names or [""]),
            tags=np.array(self.tags),
            counter_keys=np.array([k for k, _ in counters] or [""]),
            counter_values=np.array([v for _, v in counters] or [0.0]),
        )


def _cpu_seconds() -> float:
    self_, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + children.ru_utime + children.ru_stime


def install(rec: Recorder) -> None:
    """Wrap every TARGETS function in every treeuq module that binds it."""
    import importlib

    modules = {m: importlib.import_module(f"treeuq.{m}") for m in MODULES}
    counters = rec.counters

    def after_mh_step(_ctx, _a, _k, result):
        kind, accepted = result
        return f"{kind}:{int(accepted)}"

    def after_propose(_ctx, _a, _k, proposal):
        return "valid" if proposal.valid else "invalid"

    def after_predict(_ctx, args, _k, _result):
        samples, X = args[0], args[1]
        counters["predict.samples"] += len(samples)
        counters["predict.distinct"] += len({s.tree for s in samples})
        counters["predict.sample_points"] += len(samples) * len(X)
        return None

    def after_tree_predictive(_ctx, args, _k, _result):
        counters["tree_predictive.nodes"] += len(args[0].nodes)
        return None

    def before_restarts(args, kwargs):
        return _cpu_seconds(), time.perf_counter()

    def after_restarts(ctx, args, kwargs, _result):
        cpu0, wall0 = ctx
        workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
        counters["run_restarts.cpu_s"] += _cpu_seconds() - cpu0
        counters["run_restarts.wall_x_workers_s"] += (time.perf_counter() - wall0) * workers
        return None

    hooks = {
        "mcmc.mh_step": (None, after_mh_step),
        "mcmc.propose_move": (None, after_propose),
        "mcmc.predict_average": (None, after_predict),
        "mcmc.run_restarts": (before_restarts, after_restarts),
        "tree.tree_predictive": (None, after_tree_predictive),
    }
    for module, fname in TARGETS:
        original = getattr(modules[module], fname)
        name = f"{module}.{fname.lstrip('_')}"
        wrapper = rec.wrap(name, original, *hooks.get(name, (None, None)))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    base_pool = modules["mcmc"].ProcessPoolExecutor

    class MeasuredPool(base_pool):
        """Counts the pickled size of every result a pool worker returns."""

        def map(self, fn, *iterables, **kwargs):
            for result in super().map(fn, *iterables, **kwargs):
                t0 = time.perf_counter()
                counters["pool.results"] += 1
                counters["pool.result_bytes"] += len(pickle.dumps(result))
                counters["pool.measure_s"] += time.perf_counter() - t0
                yield result

    modules["mcmc"].ProcessPoolExecutor = MeasuredPool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("target", choices=["cli", "inputs"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest

    import treeuq.cli

    rec = Recorder()
    install(rec)
    try:
        if args.target == "cli":
            return treeuq.cli.main(rest)
        import inputs  # perfbench/ is on sys.path as this script's directory

        inputs.main(rest)
        return 0
    finally:
        rec.write(Path(args.spans), args.run_id)


if __name__ == "__main__":
    sys.exit(main())
