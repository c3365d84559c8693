"""Command-line interface.

Subcommands: synth, bayes, forest, envelope, sweep, bench synthetic,
bench uci.  Exit codes: 0 success, 2 configuration error, 3 data error
or a path that cannot be read or written.
The default output directory comes from $TREEUQ_OUT (falling back to
./runs); bench subcommands also accept --config pointing at a flat
key=value file whose entries fill any flag not given on the command line.

Every option is one row of _OPTIONS: the subcommand parsers, the config-file
keys and the ExperimentConfig that a command runs with are all read from it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import bench, envelope, forest, mcmc, synth
from .bench import ConfigError
from .data import Dataset, DataError, load_csv, read_key_values, read_text, write_csv


def _default_out() -> str:
    return os.environ.get("TREEUQ_OUT", "runs")


def _parse_move_probs(text: str) -> tuple[float, float, float, float]:
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 4:
        raise ValueError("move-probs needs four comma-separated values (birth,death,change-split,change-rule)")
    return tuple(parts)  # type: ignore[return-value]


def _parse_split_prior(text: str):
    if text == "uniform":
        return mcmc.UniformSplitPrior()
    if text.startswith("depth:"):
        try:
            base, decay = (float(tok) for tok in text.split(":")[1:])
        except ValueError:
            raise ValueError("depth prior spec is depth:<base>:<decay>") from None
        return mcmc.DepthPenaltySplitPrior(base=base, decay=decay)
    raise ValueError(f"unknown split prior {text!r} (use uniform or depth:<base>:<decay>)")


_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True, "false": False, "0": False, "no": False, "off": False}


def _parse_bool(text: str) -> bool:
    """A config-file boolean; on the command line the bare flag means true."""
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of true/false/1/0/yes/no/on/off, got {text!r}") from None


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(","))


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


class _Opt(NamedTuple):
    """One option of one or more subcommands.

    ``field`` names what the option sets in the ExperimentConfig that
    `_config` builds: a top-level field, ``mcmc.<name>`` or
    ``forest.<name>`` (space-separated when it sets several), or
    ``paper_scale``, which picks the sampler's base protocol.  Each bench
    option with a field is also a --config key, spelled like the flag with
    underscores.  An option without a field is read by its subcommand.
    """

    flag: str
    commands: str  # space-separated subcommands that take the option
    parse: Callable[[str], object] = str
    field: str = ""
    help: str | None = None
    extra: dict = {}  # further add_argument keywords

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_SAMPLER = "bayes bench"
_FOREST = "forest bench"

_OPTIONS = (
    _Opt("protocol", "bench", extra={"choices": ["synthetic", "uci"]}),
    _Opt("--out", "synth bayes forest envelope sweep bench"),
    _Opt("--train", "bayes forest", extra={"required": True}),
    _Opt("--test", "bayes forest"),
    _Opt("--schema", "bayes forest"),
    _Opt("--votes", "envelope sweep", help="repeatable, one per fold", extra={"action": "append", "required": True}),
    _Opt("--start", "sweep", float, extra={"default": 0.9}),
    _Opt("--stop", "sweep", float, extra={"default": 1.0}),
    _Opt("--step", "sweep", float, extra={"default": 0.001}),
    _Opt("--config", "bench", help="flat key=value file; flags override"),
    _Opt("--manifest", "bench", help="re-run from a manifest's config snapshot (takes only --out besides)"),
    _Opt("--technique", "bench", field="technique", extra={"choices": ["bayes", "forest", "both"]}),
    _Opt("--fold-count", "bench", int, "fold_count"),
    _Opt("--confidence", "bayes forest envelope bench", float, "confidence"),
    _Opt("--seed", "synth bayes forest bench", int, "seed"),
    _Opt("--train-size", "synth bench", int, "train_size"),
    _Opt("--test-size", "synth bench", int, "test_size"),
    _Opt("--workers", "bayes forest bench", int, "workers"),
    _Opt("--sweep", "bench", _parse_bool, "sweep"),
    _Opt("--data-dir", "bench", field="data_dir"),
    _Opt("--datasets", "bench", _parse_names, "datasets", "comma list of registry names"),
    _Opt("--restarts", _SAMPLER, int, "mcmc.restarts", "independent chain restarts"),
    _Opt("--burn-in", _SAMPLER, int, "mcmc.burn_in"),
    _Opt("--post-burn-in", _SAMPLER, int, "mcmc.post_burn_in"),
    _Opt("--sample-rate", _SAMPLER, int, "mcmc.sample_rate"),
    _Opt("--move-probs", _SAMPLER, _parse_move_probs, "mcmc.move_probs", "birth,death,change-split,change-rule"),
    _Opt("--alpha", _SAMPLER, float, "mcmc.dirichlet_alpha", "Dirichlet prior pseudo-count per class"),
    _Opt("--max-leaves", _SAMPLER, int, "mcmc.max_leaves"),
    _Opt("--change-rule-window", _SAMPLER, int, "mcmc.change_rule_window"),
    _Opt("--split-prior", _SAMPLER, _parse_split_prior, "mcmc.split_prior", "uniform or depth:<base>:<decay>"),
    _Opt("--paper-scale", _SAMPLER, _parse_bool, "paper_scale", "50 restarts x (2000+2000)"),
    _Opt("--min-leaf-rows", "bayes forest bench", int, "mcmc.min_leaf_rows forest.min_leaf_rows", "pruning factor"),
    _Opt("--tree-count", _FOREST, int, "forest.tree_count"),
    _Opt("--top-k", _FOREST, int, "forest.top_k"),
    _Opt("--validation-fraction", _FOREST, float, "forest.validation_fraction"),
)

# config-file key -> its option
_CONFIG_KEYS = {opt.dest: opt for opt in _OPTIONS if opt.field and "bench" in opt.commands.split()}


def _fill_from_config(args) -> None:
    """Set each config key that the command line left unset from the
    --config file, parsed as its flag is."""
    if not args.config:
        return
    for key, text in read_key_values(args.config, _CONFIG_KEYS, "config", ConfigError, dashes=True).items():
        if getattr(args, key) is None:
            try:
                setattr(args, key, _CONFIG_KEYS[key].parse(text))
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from None


def _config(args) -> bench.ExperimentConfig:
    """The ExperimentConfig that the subcommand's options set.  What they
    leave unset keeps the defaults of ExperimentConfig, ForestConfig and the
    desk (or --paper-scale) sampler protocol; the sampler's and the forest's
    own seed stay 0 here."""
    fields: dict = {"": {}, "mcmc": {}, "forest": {}}
    for opt in _OPTIONS:
        value = getattr(args, opt.dest, None)
        if opt.field and value is not None:
            for target in opt.field.split():
                group, _, name = target.rpartition(".")
                fields[group][name] = value
    top = fields[""]
    sampler = mcmc.McmcConfig() if top.pop("paper_scale", False) else bench.DESK_MCMC
    try:
        return bench.ExperimentConfig(
            mcmc=dataclasses.replace(sampler, **fields["mcmc"]),
            forest=forest.ForestConfig(**fields["forest"]),
            out_dir=Path(args.out),
            **top,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    cfg = _config(args)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    train, test = synth.canonical_datasets(seed=cfg.seed, train_size=cfg.train_size, test_size=cfg.test_size)
    write_csv(train, out / "synthetic_train.csv")
    write_csv(test, out / "synthetic_test.csv")
    print(f"wrote {out/'synthetic_train.csv'} ({train.row_count} rows)")
    print(f"wrote {out/'synthetic_test.csv'} ({test.row_count} rows)")
    return 0


def _load(args) -> tuple[bench.ExperimentConfig, Dataset, Dataset | None]:
    """The config, the --train data and the --test data (None without one,
    its labels read as the training classes, its feature count the same),
    checked before --out is made."""
    cfg = _config(args)
    train = load_csv(args.train, schema=args.schema)
    bench.check_classes(cfg, train.class_count)
    test = None
    if args.test:
        test = load_csv(args.test, schema=args.schema, classes_from=train)
        if test.feature_count != train.feature_count:
            raise DataError(
                f"{args.test} has {test.feature_count} feature columns, "
                f"but the training data {args.train} has {train.feature_count}"
            )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, train, test


def _write_summary(out: Path, summary: dict, outcome: bench.FoldOutcome | None) -> int:
    """Write votes.csv and the vote accuracy of a run scored on --test, then
    summary.json, print the summary and return exit code 0."""
    if outcome is not None:
        envelope.write_votes_csv(outcome.votes, out / "votes.csv")
        summary["vote_accuracy"] = outcome.report.accuracy
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_bayes(args) -> int:
    cfg, train, test = _load(args)
    outcome, result = bench.run_bayes_fold(train, test, cfg, cfg.seed)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    bench._emit_bayes_diagnostics(cfg.out_dir, "", result, {}, train.feature_count)
    proposed, accepted = result.trace.move_counts()
    summary = {
        "samples": len(result.samples),
        "acceptance_rate": result.trace.acceptance_rate,
        "proposed": proposed,
        "accepted": accepted,
    }
    if outcome is not None:
        summary["soft_accuracy"] = outcome.soft_accuracy
    return _write_summary(cfg.out_dir, summary, outcome)


def _cmd_forest(args) -> int:
    cfg, train, test = _load(args)
    outcome, built = bench.run_forest_fold(train, train if test is None else test, cfg, cfg.seed)
    bench._emit_forest_diagnostics(cfg.out_dir, "", built, {})
    summary = dict(outcome.extras, tree_count=len(built.trees), size_mean=outcome.report.tree_size_mean)
    return _write_summary(cfg.out_dir, summary, None if test is None else outcome)


def _cmd_envelope(args) -> int:
    confidence = _config(args).confidence
    matrices = [envelope.read_votes_csv(p) for p in args.votes]
    reports = [envelope.evaluate(vm, confidence) for vm in matrices]
    payload: dict = {
        "confidence": confidence,
        "per_input": [dataclasses.asdict(r) for r in reports],
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
    curves = [envelope.sweep(envelope.read_votes_csv(p), grid) for p in args.votes]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    bench._write_sweep_csv(path, curves)
    print(f"wrote {path} ({len(grid)} rows)")
    return 0


def _manifest_config(args) -> bench.ExperimentConfig:
    """The config recorded in --manifest, writing to --out; the manifest
    must record a run of the protocol asked for."""
    refused = (*_CONFIG_KEYS, "config")
    given = [opt.flag for opt in _OPTIONS if opt.dest in refused and getattr(args, opt.dest) is not None]
    if given:
        raise ConfigError(f"--manifest takes no options but --out; drop {', '.join(given)}")
    path = Path(args.manifest)
    if not path.is_file():
        raise ConfigError(f"no such manifest: {path}")
    text = read_text(path, ConfigError)
    try:
        snapshot = dict(json.loads(text)["config"], out_dir=args.out)
        protocol, cfg = snapshot.pop("protocol"), bench.ExperimentConfig.from_dict(snapshot)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path} holds no config snapshot: {exc!r}") from None
    if protocol != args.protocol:
        raise ConfigError(f"{path} records a bench {protocol} run, not bench {args.protocol}")
    return cfg


def _cmd_bench(args) -> int:
    if args.manifest:
        cfg = _manifest_config(args)
    else:
        _fill_from_config(args)
        cfg = _config(args)
    run = bench.run_synthetic_protocol if args.protocol == "synthetic" else bench.run_uci_protocol
    manifest = run(cfg)
    print(f"report: {cfg.out_dir / 'report.json'}")
    print(f"stages (s): {json.dumps({k: round(v, 2) for k, v in manifest.stage_seconds.items()})}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# subcommand -> (help, handler, defaults that are not ExperimentConfig's)
_COMMANDS = {
    "synth": ("emit the canonical synthetic train/test CSVs", _cmd_synth, {}),
    "bayes": ("sample trees on a training CSV", _cmd_bayes, {"seed": 0}),
    "forest": ("grow a randomized ensemble on a training CSV", _cmd_forest, {"seed": 0}),
    "envelope": ("evaluate vote-matrix CSVs at a confidence threshold", _cmd_envelope, {}),
    "sweep": ("threshold sweep over vote-matrix CSVs", _cmd_sweep, {}),
    "bench": ("full benchmark protocols", _cmd_bench, {}),
}


def _flag_type(parse):
    """``parse`` as an argparse type: its ValueError message is the one shown."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeuq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (text, func, defaults) in _COMMANDS.items():
        commands[name] = sub.add_parser(name, help=text)
        # set before the options are added, so that they take these defaults
        commands[name].set_defaults(func=func, out=_default_out(), **defaults)
    for opt in _OPTIONS:
        kwargs = dict(opt.extra, help=opt.help)
        if opt.parse is _parse_bool:
            kwargs.update(action="store_const", const=True)
        else:
            kwargs["type"] = _flag_type(opt.parse)
        for name in opt.commands.split():
            commands[name].add_argument(opt.flag, **kwargs)
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
    except OSError as exc:  # a path that cannot be read or written, e.g. a directory given as a file
        print(f"file error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
