"""The three workloads: program arguments, expected outputs and quality figures.

Each workload is a closed loop: one treeuq process at a time, started by
the harness.  Timed runs are serial (--workers 1); only the traced run of
bayes_long_chain adds a run at --workers 2, never more than two processes.
`minimal` shrinks every size for the self-check; the full sizes are the
ones the metrics are defined on.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks

# Accuracy floors, fixed from runs of the commit that defined the
# benchmark: the lowest accuracy seen over seeds 1-5, 11-15 and 21-30
# (forest_wide: 1-5), less 0.05, rounded down to 0.01.  Lowest seen:
# desk_synthetic 0.8604 (bayes) and 0.847 (forest), bayes_long_chain 0.849,
# forest_wide 0.8298.
FLOORS = {
    "desk_synthetic": {"bayes_accuracy": 0.81, "forest_accuracy": 0.79},
    "bayes_long_chain": {"bayes_accuracy": 0.79},
    "forest_wide": {"forest_accuracy": 0.77},
}


class DeskSynthetic:
    """`treeuq bench synthetic --sweep --workers 1`: 10 x (500 + 500), 200 trees, 5 folds."""

    name = "desk_synthetic"
    pool_workers = 1

    def __init__(self, minimal: bool = False):
        self.minimal = minimal
        self.folds = 2 if minimal else 5
        self.bayes_votes = 2 * 20 if minimal else 10 * 500
        self.trees = 4 if minimal else 200

    def args(self, seed: int, inputs: Path, out: Path, workers: int = 1) -> list[str]:
        args = ["bench", "synthetic", "--sweep", "--workers", str(workers), "--seed", str(seed), "--out", str(out)]
        if self.minimal:
            args += ["--restarts", "2", "--burn-in", "20", "--post-burn-in", "20",
                     "--tree-count", "4", "--fold-count", "2"]
        return args

    def votes(self, out: Path) -> list[tuple[Path, int]]:
        return [(out / f"bayes_fold{i}_votes.csv", self.bayes_votes) for i in range(self.folds)] + [
            (out / f"forest_fold{i}_votes.csv", self.trees) for i in range(self.folds)
        ]

    def digest_files(self, out: Path) -> list[Path]:
        return [out / "report.json"] + [p for p, _ in self.votes(out)]

    def quality(self, out: Path) -> dict[str, float]:
        techniques = json.loads((out / "report.json").read_text())["techniques"]
        return {
            f"{tag}_{key}": techniques[tag]["summary"]["mean"][key]
            for tag in ("bayes", "forest")
            for key in ("accuracy", "ci_rate")
        }


class BayesLongChain:
    """`treeuq bayes --train --test`: 4 restarts x (2000 + 2000), sample rate 1.

    Timed at --workers 1.  At --workers 2 the pool needs both cores of a
    2-core host, and on a shared host that doubled exposure widened the
    spread of run medians to 0.22-0.25 in three ten-seed sets; the traced
    run still measures the pool at `pool_workers`.
    """

    name = "bayes_long_chain"
    pool_workers = 2

    def __init__(self, minimal: bool = False):
        self.minimal = minimal
        self.restarts, self.iterations = (2, 50) if minimal else (4, 2000)

    def args(self, seed: int, inputs: Path, out: Path, workers: int = 1) -> list[str]:
        return [
            "bayes", "--train", str(inputs / "synthetic_train.csv"), "--test", str(inputs / "synthetic_test.csv"),
            "--restarts", str(self.restarts), "--burn-in", str(self.iterations),
            "--post-burn-in", str(self.iterations), "--sample-rate", "1",
            "--workers", str(workers), "--seed", str(seed), "--out", str(out),
        ]

    def votes(self, out: Path) -> list[tuple[Path, int]]:
        return [(out / "votes.csv", self.restarts * self.iterations)]

    def digest_files(self, out: Path) -> list[Path]:
        return [out / "summary.json", out / "votes.csv", out / "trace.csv"]

    def quality(self, out: Path) -> dict[str, float]:
        summary = json.loads((out / "summary.json").read_text())
        return {"bayes_accuracy": summary["vote_accuracy"], "bayes_ci_rate": checks.ci_rate(out / "votes.csv")}


class ForestWide:
    """`treeuq bench uci --technique forest --datasets vehicle --workers 1`: 200 trees x 5 folds."""

    name = "forest_wide"
    pool_workers = 1

    def __init__(self, minimal: bool = False):
        self.minimal = minimal
        self.folds, self.trees = (2, 4) if minimal else (5, 200)

    def args(self, seed: int, inputs: Path, out: Path, workers: int = 1) -> list[str]:
        args = ["bench", "uci", "--technique", "forest", "--datasets", "vehicle", "--workers", str(workers),
                "--data-dir", str(inputs / "data"), "--seed", str(seed), "--out", str(out)]
        if self.minimal:
            args += ["--tree-count", "4", "--fold-count", "2"]
        return args

    def votes(self, out: Path) -> list[tuple[Path, int]]:
        return [(out / "vehicle" / f"forest_fold{i}_votes.csv", self.trees) for i in range(self.folds)]

    def digest_files(self, out: Path) -> list[Path]:
        return [out / "report.json", out / "uci_table.csv"] + [p for p, _ in self.votes(out)]

    def quality(self, out: Path) -> dict[str, float]:
        entry = json.loads((out / "report.json").read_text())["datasets"]["vehicle"]
        if entry.get("status") != "ok" or entry.get("pruning_factor") != 30:
            raise ValueError(f"vehicle entry not run at pruning factor 30: {entry.get('status')}")
        mean = entry["techniques"]["forest"]["summary"]["mean"]
        return {"forest_accuracy": mean["accuracy"], "forest_ci_rate": mean["ci_rate"]}


WORKLOADS = {w.name: w for w in (DeskSynthetic, BayesLongChain, ForestWide)}


def output_checks(workload, code: int, out: Path) -> tuple[list[str], dict[str, float]]:
    """Failures of one program run, and its quality figures when readable."""
    failures = checks.exit_code(code)
    if failures:
        return failures, {}
    for path, classifiers in workload.votes(out):
        failures += checks.votes_rows(path, classifiers)
    try:
        quality = workload.quality(out)
    except (OSError, ValueError, KeyError) as exc:
        return failures + [f"report unreadable ({exc})"], {}
    if not workload.minimal:
        for key, minimum in FLOORS[workload.name].items():
            failures += checks.floor(quality[key], minimum, key)
    return failures, quality
