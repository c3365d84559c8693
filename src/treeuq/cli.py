"""Command-line interface.

Subcommands: synth, bayes, forest, envelope, sweep, bench synthetic,
bench uci.  Exit codes: 0 success, 2 configuration error, 3 data error.
The default output directory comes from $TREEUQ_OUT (falling back to
./runs); bench subcommands also accept --config pointing at a flat
key=value file whose entries fill any flag not given on the command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bench, envelope, forest, mcmc, synth
from .bench import ConfigError
from .data import Dataset, DataError, load_csv, write_csv
from .tree import format_feature_path, write_tree_file


def _default_out() -> str:
    return os.environ.get("TREEUQ_OUT", "runs")


def _parse_move_probs(text: str) -> tuple[float, float, float, float]:
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 4:
        raise ConfigError("move-probs needs four comma-separated values (birth,death,change-split,change-rule)")
    return tuple(parts)  # type: ignore[return-value]


def _parse_split_prior(text: str):
    if text == "uniform":
        return mcmc.UniformSplitPrior()
    if text.startswith("depth:"):
        try:
            base, decay = (float(tok) for tok in text.split(":")[1:])
        except ValueError:
            raise ConfigError("depth prior spec is depth:<base>:<decay>") from None
        return mcmc.DepthPenaltySplitPrior(base=base, decay=decay)
    raise ConfigError(f"unknown split prior {text!r} (use uniform or depth:<base>:<decay>)")


def _load_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such config file: {path}")
    out: dict[str, str] = {}
    for ln, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _apply_config_file(args: argparse.Namespace, key_specs: dict) -> None:
    """Fill argparse values left at None from the config file, then defaults.

    key_specs maps each config key to (default, type); CLI flags that were
    given explicitly always win over file values.
    """
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(key_specs)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, (default, kind) in key_specs.items():
        if getattr(args, key) is not None:
            continue
        if key in file_values:
            raw = file_values[key]
            try:
                if kind is bool:
                    value = raw.lower() in ("1", "true", "yes", "on")
                else:
                    value = kind(raw)
            except ValueError:
                raise ConfigError(f"config key {key}: cannot parse {raw!r}") from None
            setattr(args, key, value)
        else:
            setattr(args, key, default)


def _mcmc_config(args, seed: int, scale_attrs: bool = True) -> mcmc.McmcConfig:
    base = bench.paper_scale_mcmc_config(seed) if getattr(args, "paper_scale", False) else bench.desk_mcmc_config(seed)
    overrides = {}
    for flag, name in (
        ("restarts", "restarts"),
        ("burn_in", "burn_in"),
        ("post_burn_in", "post_burn_in"),
        ("sample_rate", "sample_rate"),
        ("min_leaf_rows", "min_leaf_rows"),
        ("max_leaves", "max_leaves"),
        ("change_rule_window", "change_rule_window"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "move_probs", None) is not None:
        overrides["move_probs"] = _parse_move_probs(args.move_probs)
    if getattr(args, "alpha", None) is not None:
        overrides["dirichlet_alpha"] = args.alpha
    if getattr(args, "split_prior", None) is not None:
        overrides["split_prior"] = _parse_split_prior(args.split_prior)
    try:
        return dataclasses.replace(base, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _forest_config(args, seed: int) -> forest.ForestConfig:
    overrides = {"seed": seed}
    for flag, name in (
        ("tree_count", "tree_count"),
        ("top_k", "top_k"),
        ("forest_min_leaf_rows", "min_leaf_rows"),
        ("validation_fraction", "validation_fraction"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[name] = value
    try:
        return dataclasses.replace(forest.ForestConfig(), **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train, test = synth.canonical_datasets(
        seed=args.seed, train_size=args.train_size, test_size=args.test_size
    )
    write_csv(train, out / "synthetic_train.csv")
    write_csv(test, out / "synthetic_test.csv")
    print(f"wrote {out/'synthetic_train.csv'} ({train.row_count} rows)")
    print(f"wrote {out/'synthetic_test.csv'} ({test.row_count} rows)")
    return 0


def _load_test(args, train: Dataset) -> Dataset | None:
    """The --test CSV, its labels read as the training data's classes;
    refused unless it has the training data's feature count."""
    if not args.test:
        return None
    test = load_csv(args.test, schema=args.schema, classes_from=train)
    if test.feature_count != train.feature_count:
        raise DataError(
            f"{args.test} has {test.feature_count} feature columns, "
            f"but the training data {args.train} has {train.feature_count}"
        )
    return test


def _cmd_bayes(args) -> int:
    train = load_csv(args.train, schema=args.schema)
    test = _load_test(args, train)
    cfg = _mcmc_config(args, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = mcmc.run_restarts(train, cfg, workers=args.workers)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    bench._write_csv(
        out / "trace.csv",
        ["run", "iteration", "phase", "log_lik", "split_count", "move", "accepted"],
        (
            (r.run_index, r.iteration, r.phase, r.log_lik, r.split_count, r.move, int(r.accepted))
            for r in result.trace
        ),
    )
    rows, histogram = mcmc.posterior_path_summary(result.samples)
    bench._write_csv(
        out / "paths.csv",
        ["path", "split_count", "weight", "count"],
        (
            (format_feature_path(r.feature_path, train.feature_count), r.split_count, r.weight, r.count)
            for r in rows
        ),
    )
    bench._write_csv(out / "size_histogram.csv", ["split_count", "count"], histogram.items())
    thin = max(1, len(result.samples) // 500)
    kept = result.samples[::thin]
    write_tree_file(
        out / "samples.txt",
        [s.tree for s in kept],
        [{"run": s.run_index, "iteration": s.iteration} for s in kept],
    )

    summary = {
        "samples": len(result.samples),
        "acceptance_rate": result.counters.acceptance_rate,
        "proposed": result.counters.proposed,
        "accepted": result.counters.accepted,
    }
    if test is not None:
        pred = mcmc.predict_average(result.samples, test.features, cfg.dirichlet_alpha)
        vm = envelope.VoteMatrix.build(pred.votes, test.labels)
        envelope.write_votes_csv(vm, out / "votes.csv")
        summary["vote_accuracy"] = envelope.evaluate(vm, args.confidence).accuracy
        summary["soft_accuracy"] = float(
            np.mean(np.argmax(pred.probabilities, axis=1) == test.labels)
        )
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_forest(args) -> int:
    train = load_csv(args.train, schema=args.schema)
    test = _load_test(args, train)
    cfg = _forest_config(args, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if test is not None:
        eval_X, eval_y = test.features, test.labels
    else:
        eval_X, eval_y = train.features, train.labels
    built, trace = forest.build_forest(
        train, np.arange(train.row_count), eval_X, eval_y, cfg, workers=args.workers
    )
    bench._write_csv(
        out / "convergence.csv",
        ["t", "ensemble_acc", "single_acc"],
        ((t + 1, pe, ps) for t, (pe, ps) in enumerate(zip(trace.ensemble_acc, trace.single_acc))),
    )
    sizes: dict[int, int] = {}
    for t in built.trees:
        sizes[t.split_count] = sizes.get(t.split_count, 0) + 1
    bench._write_csv(out / "size_histogram.csv", ["split_count", "count"], sorted(sizes.items()))
    write_tree_file(
        out / "forest.txt",
        built.trees,
        [{"index": i, "validation_acc": a} for i, a in enumerate(built.validation_acc)],
    )
    summary = {
        "tree_count": len(built.trees),
        "ensemble_acc_final": float(trace.ensemble_acc[-1]),
        "best_validation_acc": trace.best_validation_acc,
        "size_mean": float(np.mean([t.split_count for t in built.trees])),
    }
    if test is not None:
        vm = envelope.VoteMatrix.build(trace.votes, eval_y)
        envelope.write_votes_csv(vm, out / "votes.csv")
        summary["vote_accuracy"] = envelope.evaluate(vm, args.confidence).accuracy
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_envelope(args) -> int:
    matrices = [envelope.read_votes_csv(p) for p in args.votes]
    reports = [envelope.evaluate(vm, args.confidence) for vm in matrices]
    payload: dict = {
        "confidence": args.confidence,
        "per_input": [bench._report_dict(r) for r in reports],
    }
    if len(reports) >= 2:
        payload["summary"] = bench._summary_dict(envelope.aggregate(reports))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "envelope_report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    try:
        grid = envelope.sweep_grid(args.start, args.stop, args.step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    matrices = [envelope.read_votes_csv(p) for p in args.votes]
    curves = [envelope.sweep(vm, grid) for vm in matrices]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    if len(curves) == 1:
        c = curves[0]
        bench._write_csv(
            path, ["gamma0", "u_rate", "ci_rate"], zip(c.thresholds, c.u_rates, c.ci_rates)
        )
    else:
        agg = envelope.aggregate_sweeps(curves)
        bench._write_csv(
            path,
            ["gamma0", "u_mean", "u_2sigma", "ci_mean", "ci_2sigma"],
            zip(agg.thresholds, agg.u_mean, agg.u_width2, agg.ci_mean, agg.ci_width2),
        )
    print(f"wrote {path} ({len(grid)} rows)")
    return 0


# config-file keys for the bench subcommands: key -> (default, parse type)
_BENCH_KEYS = {
    "technique": ("both", str),
    "fold_count": (5, int),
    "confidence": (0.99, float),
    "seed": (synth.CANONICAL_SEED, int),
    "train_size": (synth.CANONICAL_TRAIN_SIZE, int),
    "test_size": (synth.CANONICAL_TEST_SIZE, int),
    "restarts": (None, int),
    "burn_in": (None, int),
    "post_burn_in": (None, int),
    "sample_rate": (None, int),
    "move_probs": (None, str),
    "alpha": (None, float),
    "max_leaves": (None, int),
    "change_rule_window": (None, int),
    "split_prior": (None, str),
    "min_leaf_rows": (None, int),
    "tree_count": (None, int),
    "top_k": (None, int),
    "validation_fraction": (None, float),
    "workers": (1, int),
    "paper_scale": (False, bool),
    "sweep": (False, bool),
    "data_dir": (None, str),
    "datasets": (None, str),
}


def _bench_experiment_config(args, protocol: str) -> bench.ExperimentConfig:
    _apply_config_file(args, _BENCH_KEYS)
    mcfg = _mcmc_config(args, seed=0)
    if args.min_leaf_rows is not None:
        mcfg = dataclasses.replace(mcfg, min_leaf_rows=args.min_leaf_rows)
    fkwargs = {}
    if args.tree_count is not None:
        fkwargs["tree_count"] = args.tree_count
    if args.top_k is not None:
        fkwargs["top_k"] = args.top_k
    if args.min_leaf_rows is not None:
        fkwargs["min_leaf_rows"] = args.min_leaf_rows
    if args.validation_fraction is not None:
        fkwargs["validation_fraction"] = args.validation_fraction
    try:
        fcfg = dataclasses.replace(forest.ForestConfig(), **fkwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    kwargs = dict(
        technique=args.technique,
        mcmc=mcfg,
        forest=fcfg,
        fold_count=args.fold_count,
        confidence=args.confidence,
        seed=args.seed,
        out_dir=Path(args.out),
        sweep=bool(args.sweep),
        train_size=args.train_size,
        test_size=args.test_size,
        workers=args.workers,
    )
    if protocol == "uci":
        if args.data_dir is None:
            raise ConfigError("bench uci needs --data-dir (or data_dir in the config file)")
        kwargs["data_dir"] = Path(args.data_dir)
        if args.datasets:
            names = args.datasets if isinstance(args.datasets, (list, tuple)) else args.datasets.split(",")
            kwargs["datasets"] = tuple(n.strip() for n in names)
    return bench.ExperimentConfig(**kwargs)


def _cmd_bench(args) -> int:
    if args.manifest:
        return _rerun_from_manifest(args)
    cfg = _bench_experiment_config(args, args.protocol)
    if args.protocol == "synthetic":
        manifest = bench.run_synthetic_protocol(cfg)
    else:
        manifest = bench.run_uci_protocol(cfg)
    print(f"report: {Path(cfg.out_dir) / 'report.json'}")
    print(f"stages (s): {json.dumps({k: round(v, 2) for k, v in manifest.stage_seconds.items()})}")
    return 0


def _rerun_from_manifest(args) -> int:
    """Re-run a protocol from a manifest's recorded config snapshot."""
    path = Path(args.manifest)
    if not path.exists():
        raise ConfigError(f"no such manifest: {path}")
    snap = json.loads(path.read_text(encoding="utf-8"))["config"]
    protocol = snap.pop("protocol")
    split_prior = snap["mcmc"].pop("split_prior")
    if isinstance(split_prior, dict):
        snap["mcmc"]["split_prior"] = mcmc.DepthPenaltySplitPrior(
            base=split_prior["base"], decay=split_prior["decay"]
        )
    else:
        snap["mcmc"]["split_prior"] = mcmc.UniformSplitPrior()
    snap["mcmc"]["move_probs"] = tuple(snap["mcmc"]["move_probs"])
    if isinstance(snap["mcmc"].get("dirichlet_alpha"), list):
        snap["mcmc"]["dirichlet_alpha"] = tuple(snap["mcmc"]["dirichlet_alpha"])
    snap["mcmc"] = mcmc.McmcConfig(**snap["mcmc"])
    snap["forest"] = forest.ForestConfig(**snap["forest"])
    snap["datasets"] = tuple(snap["datasets"])
    snap["out_dir"] = Path(args.out)
    cfg = bench.ExperimentConfig(**snap)
    if protocol == "synthetic":
        bench.run_synthetic_protocol(cfg)
    else:
        bench.run_uci_protocol(cfg)
    print(f"report: {Path(cfg.out_dir) / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_mcmc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--restarts", type=int, default=None, help="independent chain restarts")
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--post-burn-in", type=int, default=None)
    p.add_argument("--sample-rate", type=int, default=None)
    p.add_argument("--move-probs", default=None, help="birth,death,change-split,change-rule")
    p.add_argument("--alpha", type=float, default=None, help="Dirichlet prior pseudo-count per class")
    p.add_argument("--max-leaves", type=int, default=None)
    p.add_argument("--change-rule-window", type=int, default=None)
    p.add_argument("--split-prior", default=None, help="uniform or depth:<base>:<decay>")
    p.add_argument(
        "--paper-scale",
        action="store_const",
        const=True,
        default=None,
        help="50 restarts x (2000+2000)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeuq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit the canonical synthetic train/test CSVs")
    p.add_argument("--out", default=_default_out())
    p.add_argument("--seed", type=int, default=synth.CANONICAL_SEED)
    p.add_argument("--train-size", type=int, default=synth.CANONICAL_TRAIN_SIZE)
    p.add_argument("--test-size", type=int, default=synth.CANONICAL_TEST_SIZE)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bayes", help="sample trees on a training CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--schema", default=None)
    p.add_argument("--out", default=_default_out())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-leaf-rows", type=int, default=None)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--workers", type=int, default=1)
    _add_mcmc_flags(p)
    p.set_defaults(func=_cmd_bayes)

    p = sub.add_parser("forest", help="grow a randomized ensemble on a training CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--schema", default=None)
    p.add_argument("--out", default=_default_out())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tree-count", type=int, default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--forest-min-leaf-rows", "--min-leaf-rows", dest="forest_min_leaf_rows", type=int, default=None)
    p.add_argument("--validation-fraction", type=float, default=None)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_forest)

    p = sub.add_parser("envelope", help="evaluate vote-matrix CSVs at a confidence threshold")
    p.add_argument("--votes", action="append", required=True, help="repeatable, one per fold")
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--out", default=_default_out())
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("sweep", help="threshold sweep over vote-matrix CSVs")
    p.add_argument("--votes", action="append", required=True)
    p.add_argument("--start", type=float, default=0.9)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.001)
    p.add_argument("--out", default=_default_out())
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bench", help="full benchmark protocols")
    p.add_argument("protocol", choices=["synthetic", "uci"])
    p.add_argument("--out", default=_default_out())
    p.add_argument("--config", default=None, help="flat key=value file; flags override")
    p.add_argument("--manifest", default=None, help="re-run from a manifest's config snapshot")
    p.add_argument("--technique", choices=["bayes", "forest", "both"], default=None)
    p.add_argument("--fold-count", type=int, default=None)
    p.add_argument("--confidence", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--train-size", type=int, default=None)
    p.add_argument("--test-size", type=int, default=None)
    p.add_argument("--min-leaf-rows", type=int, default=None, help="pruning factor for both techniques")
    p.add_argument("--tree-count", type=int, default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--validation-fraction", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--sweep", action="store_const", const=True, default=None)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--datasets", default=None, help="comma list of registry names")
    _add_mcmc_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
