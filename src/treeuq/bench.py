"""Experiment orchestration: protocols, deterministic seeding, report emission.

Both benchmark protocols share one shape: split training data into folds,
run the two techniques on identical fold-train subsets (paired comparison),
collect per-point vote histograms on a fixed test set, and aggregate
envelope reports across folds with 2-sigma half-widths.  All randomness
derives from the experiment seed, so reports are byte-identical across
reruns and across serial/parallel execution.  `run_bayes_fold` and
`run_forest_fold` alone train a technique and score it, for the protocols'
fold and full-train runs and for the `bayes` and `forest` commands.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, envelope, forest, mcmc, synth
from .data import Dataset, DataError, load_csv, make_folds, split_holdout_count, validation_holdout_count, write_csv
from .tree import format_feature_path, resolve_alpha, write_tree_file


class ConfigError(Exception):
    """Invalid experiment configuration."""


REPORT_SCHEMA_VERSION = 1

# name -> (classes, features, train rows, test rows); a local <name>.csv in
# the data directory is required, datasets without one are skipped
UCI_TABLE = {
    "ionosphere": (2, 33, 200, 151),
    "wisconsin": (2, 9, 455, 228),
    "image": (7, 19, 210, 2100),
    "votes": (2, 16, 391, 44),
    "sonar": (2, 60, 138, 70),
    "vehicle": (4, 18, 564, 282),
    "pima": (2, 8, 512, 256),
}

# uci_table.csv: per (column, summary metric), a <column>_mean and a
# <column>_2sigma cell
_UCI_COLUMNS = (
    ("size", "tree_size_mean"),
    ("accuracy", "accuracy"),
    ("cc", "cc_rate"),
    ("u", "u_rate"),
    ("ci", "ci_rate"),
)

# pruning factor rule: large training sets get 30, small ones 5
PMIN_LARGE_TRAIN_THRESHOLD = 400


def pruning_factor(train_size: int, threshold: int = PMIN_LARGE_TRAIN_THRESHOLD) -> int:
    return 30 if train_size > threshold else 5


# reduced sampler protocol: 10 restarts x (500 burn-in + 500 post burn-in);
# McmcConfig() is the paper's
DESK_MCMC = mcmc.McmcConfig(restarts=10, burn_in=500, post_burn_in=500)


@dataclass(frozen=True)
class ExperimentConfig:
    technique: str = "both"  # bayes | forest | both
    mcmc: mcmc.McmcConfig = DESK_MCMC
    forest: forest.ForestConfig = field(default_factory=forest.ForestConfig)
    fold_count: int = 5
    confidence: float = 0.99
    seed: int = synth.CANONICAL_SEED
    out_dir: Path = Path("runs")
    sweep: bool = False
    train_size: int = synth.CANONICAL_TRAIN_SIZE
    test_size: int = synth.CANONICAL_TEST_SIZE
    data_dir: Path | None = None
    datasets: tuple[str, ...] = tuple(UCI_TABLE)
    workers: int = 1

    def __post_init__(self):
        if self.technique not in ("bayes", "forest", "both"):
            raise ConfigError(f"technique must be bayes/forest/both, got {self.technique!r}")
        if self.fold_count < 2:
            raise ConfigError("fold_count must be at least 2")
        if not 0.0 < self.confidence <= 1.0:
            raise ConfigError("confidence must lie in (0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in ("workers", "train_size", "test_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name in ("out_dir", "data_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, Path):
                object.__setattr__(self, name, Path(value))
        unknown = [d for d in self.datasets if d not in UCI_TABLE]
        if unknown:
            raise ConfigError(f"unknown dataset names: {unknown} (known: {sorted(UCI_TABLE)})")
        if repeated := sorted({d for d in self.datasets if self.datasets.count(d) > 1}):
            raise ConfigError(f"dataset names given more than once: {repeated}")

    @property
    def techniques(self) -> tuple[str, ...]:
        """The techniques that `technique` selects, Bayes first."""
        return ("bayes", "forest") if self.technique == "both" else (self.technique,)

    def to_dict(self) -> dict:
        """JSON-ready snapshot: the fields as plain values, the split prior
        as its class name (uniform) or a depth_penalty dict."""
        snap = dataclasses.asdict(self)
        prior = self.mcmc.split_prior
        snap["mcmc"]["split_prior"] = type(prior).__name__
        if isinstance(prior, mcmc.DepthPenaltySplitPrior):
            snap["mcmc"]["split_prior"] = {"kind": "depth_penalty", "base": prior.base, "decay": prior.decay}
        snap["out_dir"] = str(self.out_dir)
        snap["data_dir"] = None if self.data_dir is None else str(self.data_dir)
        return snap

    @classmethod
    def from_dict(cls, snap: dict) -> "ExperimentConfig":
        """The config that `to_dict` gave ``snap``, also after a JSON round-trip."""
        sampler = dict(snap["mcmc"])
        prior = sampler["split_prior"]
        sampler["split_prior"] = (
            mcmc.DepthPenaltySplitPrior(base=prior["base"], decay=prior["decay"])
            if isinstance(prior, dict)
            else mcmc.UniformSplitPrior()
        )
        return cls(
            **dict(
                snap,
                mcmc=mcmc.McmcConfig(**sampler),
                forest=forest.ForestConfig(**snap["forest"]),
                datasets=tuple(snap["datasets"]),
            )
        )


def check_classes(cfg: ExperimentConfig, class_count: int) -> None:
    """Refuse, before any run on data of class_count classes, a confidence
    at or below 1/class_count, which every plurality vote share reaches
    (ConfigError), and a Dirichlet alpha whose marginal likelihood is not
    finite (ValueError)."""
    if cfg.confidence <= 1.0 / class_count:
        raise ConfigError(f"confidence must lie in (1/{class_count}, 1] for {class_count} classes, "
                          f"got {cfg.confidence}")
    mcmc.DirichletTerms.of(resolve_alpha(cfg.mcmc.dirichlet_alpha, class_count))


def check_fold_rows(cfg: ExperimentConfig, train_rows: int) -> None:
    """Refuse, before a protocol on train_rows rows writes anything, more
    folds than rows (DataError), and a forest validation_fraction that
    holds out no row or every row of the fewest rows the protocol gives the
    forest: a fold's, train_rows - ceil(train_rows / fold_count) as
    make_folds deals them round-robin (ValueError)."""
    if cfg.fold_count > train_rows:
        raise DataError(f"cannot make {cfg.fold_count} folds from {train_rows} rows")
    if "forest" in cfg.techniques:
        fold_rows = train_rows - -(-train_rows // cfg.fold_count)
        try:
            validation_holdout_count(cfg.forest.validation_fraction, fold_rows)
        except ValueError as exc:
            raise ValueError(f"{exc} ({fold_rows} rows: the fewest a fold trains on at train_size {train_rows} "
                             f"and fold_count {cfg.fold_count})") from None


@dataclass
class RunManifest:
    config: dict
    artifacts: dict
    tool_version: str
    stage_seconds: dict

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _fmt(x) -> str:
    return "" if x is None else format(float(x), ".10g")


def _write_csv(path: Path, header: list, rows) -> None:
    cells = ([str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row] for row in rows)
    path.write_text("\n".join([",".join(header), *map(",".join, cells)]) + "\n", encoding="utf-8")


def _write_sweep_csv(path: Path, curves: list) -> None:
    """One sweep curve's rates per threshold, or the mean and 2-sigma width
    of several."""
    if len(curves) == 1:
        c = curves[0]
        _write_csv(path, ["gamma0", "u_rate", "ci_rate"], zip(c.thresholds, c.u_rates, c.ci_rates))
    else:
        agg = envelope.aggregate_sweeps(curves)
        _write_csv(
            path,
            ["gamma0", "u_mean", "u_2sigma", "ci_mean", "ci_2sigma"],
            zip(agg.thresholds, agg.u_mean, agg.u_width2, agg.ci_mean, agg.ci_width2),
        )


def _summary_dict(summary: envelope.EnvelopeSummary) -> dict:
    return {
        "mean": dataclasses.asdict(summary.mean),
        "width2": dataclasses.asdict(summary.width2),
        "fold_count": summary.count,
    }


# ---------------------------------------------------------------------------
# Per-fold technique runners
# ---------------------------------------------------------------------------


@dataclass
class FoldOutcome:
    """What one fold's scoring keeps: its vote matrix, envelope report,
    soft accuracy, and `extras`, whose values are scalars or lists of
    them.  The fold's chain or forest is not kept: a protocol holds one
    fold's records at a time."""

    votes: envelope.VoteMatrix
    report: envelope.EnvelopeReport
    soft_accuracy: float
    extras: dict


def _derive_seed(*parts: int) -> int:
    mixed = np.random.SeedSequence(tuple(parts)).generate_state(1, dtype=np.uint64)[0]
    return int(mixed >> 1)  # keep it a non-negative int64-safe seed


def _fold_outcome(votes, probabilities, labels, sizes, cfg: ExperimentConfig, extras: dict) -> FoldOutcome:
    """The vote matrix of one run's test points and their true labels, its
    envelope report with the mean and std of the tree sizes (split counts)
    and its soft accuracy."""
    vm = envelope.VoteMatrix.build(votes, labels)
    sizes = np.array(sizes)
    report = dataclasses.replace(
        envelope.evaluate(vm, cfg.confidence),
        tree_size_mean=float(sizes.mean()),
        tree_size_std=float(sizes.std(ddof=1)) if len(sizes) > 1 else 0.0,
    )
    soft = float(np.mean(np.argmax(probabilities, axis=1) == labels))
    return FoldOutcome(votes=vm, report=report, soft_accuracy=soft, extras=extras)


def run_bayes_fold(
    train_ds: Dataset, test_ds: Dataset | None, cfg: ExperimentConfig, seed: int
) -> tuple[FoldOutcome | None, mcmc.ChainResult]:
    """The pooled chains of cfg's sampler, run on train_ds at seed, and
    their outcome on test_ds (None without a test set).  A caller that
    writes no diagnostics drops the chains at once."""
    mcfg = dataclasses.replace(cfg.mcmc, seed=seed)
    result = mcmc.run_restarts(train_ds, mcfg, workers=cfg.workers)
    if test_ds is None:
        return None, result
    probabilities, votes = mcmc.predict_average(result.samples, test_ds.features, mcfg.dirichlet_alpha)
    extras = {
        "acceptance_rate": result.trace.acceptance_rate,
        "post_log_lik_mean": float(np.mean(result.trace.log_lik[result.trace.post])),
        "sample_count": len(result.samples),
        "warnings": list(result.warnings),
    }
    outcome = _fold_outcome(votes, probabilities, test_ds.labels, result.samples.split_counts(), cfg, extras)
    return outcome, result


def run_forest_fold(
    train_ds: Dataset, test_ds: Dataset, cfg: ExperimentConfig, seed: int
) -> tuple[FoldOutcome, forest.Forest]:
    """The forest of cfg, grown on train_ds at seed, and its outcome on
    test_ds.  A caller that writes no diagnostics drops the forest at
    once."""
    fcfg = dataclasses.replace(cfg.forest, seed=seed)
    built = forest.build_forest(train_ds, test_ds.features, test_ds.labels, fcfg, alpha=1.0, workers=cfg.workers)
    extras = {
        "ensemble_acc_final": float(built.ensemble_acc[-1]),
        "best_validation_acc": built.best_validation_acc,
    }
    sizes = [t.split_count for t in built.trees]
    outcome = _fold_outcome(built.votes, built.probabilities, test_ds.labels, sizes, cfg, extras)
    return outcome, built


def _run(tag: str, train_ds: Dataset, test_ds: Dataset, cfg: ExperimentConfig, fold: int, label: str):
    """run_bayes_fold or run_forest_fold, as tag names, at the seed derived
    from (experiment seed, technique, fold); a Bayes run's chain warnings go
    to stderr under label, as `treeuq bayes` prints its own."""
    if tag == "forest":
        return run_forest_fold(train_ds, test_ds, cfg, _derive_seed(cfg.seed, 2, fold))
    outcome, result = run_bayes_fold(train_ds, test_ds, cfg, _derive_seed(cfg.seed, 1, fold))
    for warning in result.warnings:
        print(f"warning: {label}: {warning}", file=sys.stderr)
    return outcome, result


def _paired_fold_runs(
    train_ds: Dataset, test_ds: Dataset, cfg: ExperimentConfig, prefix: str = ""
) -> dict[str, list[FoldOutcome]]:
    """Run cfg's techniques on identical fold splits of train_ds, keeping
    each fold's outcome only: its chains or forest are dropped before the
    next run starts.  Chain warnings go to stderr under
    `<prefix>bayes fold <i>`."""
    folds = make_folds(train_ds, cfg.fold_count, seed=cfg.seed)
    out: dict[str, list[FoldOutcome]] = {tag: [] for tag in cfg.techniques}
    for fold in range(cfg.fold_count):
        sub = train_ds.subset(folds.train_indices(fold))
        for tag in cfg.techniques:
            out[tag].append(_run(tag, sub, test_ds, cfg, fold, f"{prefix}{tag} fold {fold}")[0])
    return out


def _emit_technique_artifacts(
    out_dir: Path, tag: str, outcomes: list[FoldOutcome], artifacts: dict, sweep: bool
) -> dict:
    """Write per-fold votes plus aggregated envelope, and with `sweep` the
    aggregated sweep of each fold's votes; return summary JSON part."""
    per_fold = []
    for i, oc in enumerate(outcomes):
        votes_path = out_dir / f"{tag}_fold{i}_votes.csv"
        envelope.write_votes_csv(oc.votes, votes_path)
        artifacts.setdefault(tag, {}).setdefault("votes", []).append(str(votes_path.name))
        per_fold.append(dataclasses.asdict(oc.report) | {"soft_accuracy": oc.soft_accuracy})
    summary = envelope.aggregate([oc.report for oc in outcomes])
    part = {"per_fold": per_fold, "summary": _summary_dict(summary)}
    if sweep:
        sweep_path = out_dir / f"{tag}_sweep.csv"
        _write_sweep_csv(sweep_path, [envelope.sweep(oc.votes) for oc in outcomes])
        artifacts[tag]["sweep"] = str(sweep_path.name)
    return part


TRACE_BLOCK = 2048  # trace rows rendered and written at a time


def _write_trace_csv(path: Path, trace: mcmc.Trace) -> None:
    """The trace, one row per iteration, each cell as `_write_csv` writes
    it; TRACE_BLOCK rows are rendered at a time, column by column."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write("run,iteration,phase,log_lik,split_count,move,accepted\n")
        for lo in range(0, len(trace.iteration), TRACE_BLOCK):
            run_index, iteration, post, log_lik, split_count, move, accepted = (
                column[lo : lo + TRACE_BLOCK].tolist() for column in trace
            )
            rows = zip(
                map(str, run_index),
                map(str, iteration),
                ["post" if p else "burn" for p in post],
                [_fmt(x) for x in log_lik],
                map(str, split_count),
                [mcmc.MOVE_KINDS[code] for code in move],
                ["1" if a else "0" for a in accepted],
            )
            fh.write("".join(",".join(row) + "\n" for row in rows))


def _emit_bayes_diagnostics(
    out_dir: Path, prefix: str, result: mcmc.ChainResult, artifacts: dict, feature_count: int
) -> None:
    """Trace CSV, path-summary CSV, size histogram and a posterior-sample
    dump (thinned to about 200 trees) for one sampler run, each file name
    starting with prefix."""
    trace_path = out_dir / f"{prefix}trace.csv"
    _write_trace_csv(trace_path, result.trace)
    rows, histogram = mcmc.posterior_path_summary(result.samples)
    path_path = out_dir / f"{prefix}paths.csv"
    _write_csv(
        path_path,
        ["path", "split_count", "weight", "count"],
        (
            (format_feature_path(r.feature_path, feature_count), r.split_count, r.weight, r.count)
            for r in rows
        ),
    )
    hist_path = out_dir / f"{prefix}size_histogram.csv"
    _write_csv(hist_path, ["split_count", "count"], histogram.items())
    samples_path = out_dir / f"{prefix}samples.txt"
    kept = list(result.samples.every(max(1, len(result.samples) // 200)))
    write_tree_file(
        samples_path,
        [s.tree for s in kept],
        [{"run": s.run_index, "iteration": s.iteration} for s in kept],
    )
    artifacts[f"{prefix}diagnostics"] = {
        "trace": trace_path.name,
        "paths": path_path.name,
        "size_histogram": hist_path.name,
        "samples": samples_path.name,
    }


def _emit_forest_diagnostics(out_dir: Path, prefix: str, built: forest.Forest, artifacts: dict) -> None:
    """Convergence CSV, size histogram and a dump of every tree for one
    forest, each file name starting with prefix."""
    conv_path = out_dir / f"{prefix}convergence.csv"
    _write_csv(
        conv_path,
        ["t", "ensemble_acc", "single_acc"],
        ((t + 1, pe, ps) for t, (pe, ps) in enumerate(zip(built.ensemble_acc, built.single_acc))),
    )
    sizes = Counter(t.split_count for t in built.trees)
    hist_path = out_dir / f"{prefix}size_histogram.csv"
    _write_csv(hist_path, ["split_count", "count"], sorted(sizes.items()))
    forest_path = out_dir / f"{prefix}forest.txt"
    write_tree_file(
        forest_path,
        built.trees,
        [{"index": i, "validation_acc": _fmt(a)} for i, a in enumerate(built.validation_acc)],
    )
    artifacts[f"{prefix}diagnostics"] = {
        "convergence": conv_path.name,
        "size_histogram": hist_path.name,
        "forest": forest_path.name,
    }


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def _write_report(
    out_dir: Path, report: dict, artifacts: dict, stage_seconds: dict, emit_start: float, cfg: ExperimentConfig
) -> RunManifest:
    """Write report.json, close the emit stage begun at emit_start, then
    write and return the manifest of the report's protocol."""
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    artifacts["report"] = "report.json"
    stage_seconds["emit"] = time.perf_counter() - emit_start
    manifest = RunManifest(
        config=cfg.to_dict() | {"protocol": report["protocol"]},
        artifacts=artifacts,
        tool_version=__version__,
        stage_seconds=stage_seconds,
    )
    manifest.write(out_dir / "manifest.json")
    return manifest


def _headline_runs(
    train_ds: Dataset, test_ds: Dataset, cfg: ExperimentConfig, out_dir: Path, artifacts: dict
) -> dict[str, FoldOutcome]:
    """cfg's techniques on the full training set, each run's diagnostics
    written and its chains or forest dropped before the next run starts."""
    headline: dict[str, FoldOutcome] = {}
    for tag in cfg.techniques:
        headline[tag], kept = _run(tag, train_ds, test_ds, cfg, cfg.fold_count, f"{tag} full_train")
        if tag == "bayes":
            _emit_bayes_diagnostics(out_dir, "bayes_full_", kept, artifacts, train_ds.feature_count)
        else:
            _emit_forest_diagnostics(out_dir, "forest_full_", kept, artifacts)
        del kept  # freed before the next headline run
    return headline


def run_synthetic_protocol(cfg: ExperimentConfig) -> RunManifest:
    """Canonical mixture benchmark: paired fold runs plus full-train headline runs."""
    check_classes(cfg, synth.benchmark_mixture().class_count)
    check_fold_rows(cfg, cfg.train_size)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_seconds: dict[str, float] = {}
    artifacts: dict = {}

    t0 = time.perf_counter()
    train_ds, test_ds = synth.canonical_datasets(
        seed=cfg.seed, train_size=cfg.train_size, test_size=cfg.test_size
    )
    write_csv(train_ds, out_dir / "synthetic_train.csv")
    write_csv(test_ds, out_dir / "synthetic_test.csv")
    artifacts["data"] = {"train": "synthetic_train.csv", "test": "synthetic_test.csv"}
    stage_seconds["data"] = time.perf_counter() - t0

    report: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "protocol": "synthetic",
        "confidence": cfg.confidence,
        "seed": cfg.seed,
        "techniques": {},
    }

    t0 = time.perf_counter()
    headline = _headline_runs(train_ds, test_ds, cfg, out_dir, artifacts)
    stage_seconds["headline"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fold_outcomes = _paired_fold_runs(train_ds, test_ds, cfg)
    stage_seconds["folds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for tag, outcomes in fold_outcomes.items():
        part = _emit_technique_artifacts(out_dir, tag, outcomes, artifacts, cfg.sweep)
        hl = headline[tag]
        part["full_train"] = dataclasses.asdict(hl.report) | {"soft_accuracy": hl.soft_accuracy}
        part["full_train_extras"] = hl.extras
        report["techniques"][tag] = part

    if len(report["techniques"]) == 2:
        b = report["techniques"]["bayes"]["summary"]["mean"]["tree_size_mean"]
        f = report["techniques"]["forest"]["summary"]["mean"]["tree_size_mean"]
        report["size_comparison"] = {
            "bayes_mean_splits": b,
            "forest_mean_splits": f,
            "ratio": b / f if f else None,  # None: every forest tree is root-only
        }
    return _write_report(out_dir, report, artifacts, stage_seconds, t0, cfg)


def _uci_split(ds: Dataset, name: str, cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Honor the registry train/test sizes with a deterministic stratified split."""
    _, _, train_size, test_size = UCI_TABLE[name]
    total = train_size + test_size
    if ds.row_count < total:
        raise DataError(
            f"{name}: need {total} rows for the {train_size}/{test_size} split, found {ds.row_count}"
        )
    indices = np.arange(ds.row_count)
    if ds.row_count > total:
        keep = split_holdout_count(indices, ds.labels, total, seed=_derive_seed(cfg.seed, 3))
        indices = keep.holdout
    pair = split_holdout_count(indices, ds.labels, test_size, seed=_derive_seed(cfg.seed, 4))
    return ds.subset(pair.train), ds.subset(pair.holdout)


def run_uci_protocol(cfg: ExperimentConfig) -> RunManifest:
    """Per-dataset fold comparison on local CSV copies; missing files are skipped."""
    if cfg.data_dir is None:
        raise ConfigError("uci protocol needs a data directory (--data-dir, or data_dir in a config file)")
    if not cfg.data_dir.is_dir():  # refused before anything is written
        raise DataError(f"data_dir {cfg.data_dir} is not a directory")
    for name in cfg.datasets:  # the registry settings of every data set present, before anything is written
        if (Path(cfg.data_dir) / f"{name}.csv").exists():
            check_classes(cfg, UCI_TABLE[name][0])
            check_fold_rows(cfg, UCI_TABLE[name][2])
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_seconds: dict[str, float] = {}
    artifacts: dict = {}
    report: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "protocol": "uci",
        "confidence": cfg.confidence,
        "seed": cfg.seed,
        "datasets": {},
    }

    table_rows = []
    for name in cfg.datasets:
        t0 = time.perf_counter()
        path = Path(cfg.data_dir) / f"{name}.csv"
        if not path.exists():
            report["datasets"][name] = {"status": "skipped", "reason": f"missing file {path.name}"}
            continue
        ds = load_csv(path)
        expected_c, expected_m, train_size, _ = UCI_TABLE[name]
        if ds.class_count != expected_c:
            raise DataError(
                f"{name}: expected {expected_c} classes, found {ds.class_count}"
            )
        notes = []
        if ds.feature_count != expected_m:
            notes.append(f"expected {expected_m} features, found {ds.feature_count}")

        train_ds, test_ds = _uci_split(ds, name, cfg)
        p_min = pruning_factor(train_size)
        ds_cfg = dataclasses.replace(
            cfg,
            mcmc=dataclasses.replace(cfg.mcmc, min_leaf_rows=p_min),
            forest=dataclasses.replace(cfg.forest, min_leaf_rows=p_min),
        )
        fold_outcomes = _paired_fold_runs(train_ds, test_ds, ds_cfg, f"{name} ")
        ds_out = out_dir / name
        ds_out.mkdir(exist_ok=True)
        entry: dict = {
            "status": "ok",
            "notes": notes,
            "pruning_factor": p_min,
            "train_rows": train_ds.row_count,
            "test_rows": test_ds.row_count,
            "techniques": {},
        }
        ds_artifacts: dict = {}
        for tag, outcomes in fold_outcomes.items():
            entry["techniques"][tag] = _emit_technique_artifacts(ds_out, tag, outcomes, ds_artifacts, cfg.sweep)
            summary = entry["techniques"][tag]["summary"]
            table_rows.append(
                (name, tag, *(summary[part][metric] for _, metric in _UCI_COLUMNS for part in ("mean", "width2")))
            )
        artifacts[name] = ds_artifacts
        report["datasets"][name] = entry
        stage_seconds[name] = time.perf_counter() - t0

    t0 = time.perf_counter()
    header = ["dataset", "technique"] + [f"{col}_{stat}" for col, _ in _UCI_COLUMNS for stat in ("mean", "2sigma")]
    _write_csv(out_dir / "uci_table.csv", header, table_rows)
    artifacts["table"] = "uci_table.csv"
    return _write_report(out_dir, report, artifacts, stage_seconds, t0, cfg)
