"""Vote-consistency evaluation of classification outcomes.

For each test point the consistency is the plurality vote share across the
ensemble's members, ranging from 1/C (maximal disagreement) to 1
(unanimity).  Given a confidence threshold, each outcome is one of
confident-correct (CC), confident-incorrect (CI), or uncertain (U); an
outcome exactly at the threshold counts as confident.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError, read_text


@dataclass(frozen=True)
class VoteMatrix:
    """Per-point per-class vote counts from N classifiers, plus targets."""

    votes: np.ndarray  # (n, C) ints, each row sums to N
    targets: np.ndarray  # (n,) true labels
    classifier_count: int
    class_count: int

    def __post_init__(self):
        votes = np.asarray(self.votes, dtype=np.int64)
        targets = np.asarray(self.targets, dtype=np.int64)
        object.__setattr__(self, "votes", votes)
        object.__setattr__(self, "targets", targets)
        if votes.ndim != 2 or votes.shape[1] != self.class_count:
            raise ValueError("votes must be an (n, class_count) matrix")
        if targets.shape != (votes.shape[0],):
            raise ValueError("targets must have one entry per vote row")
        if self.classifier_count < 1:
            raise ValueError("classifier_count must be at least 1")
        if (votes < 0).any() or (votes.sum(axis=1) != self.classifier_count).any():
            raise ValueError("every vote row must sum to classifier_count")
        if targets.min() < 0 or targets.max() >= self.class_count:
            raise ValueError("target outside {0..class_count-1}")

    @classmethod
    def build(cls, votes: np.ndarray, targets: np.ndarray) -> "VoteMatrix":
        votes = np.asarray(votes, dtype=np.int64)
        return cls(
            votes=votes,
            targets=targets,
            classifier_count=int(votes[0].sum()),
            class_count=votes.shape[1],
        )


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome rates over one evaluation; cc + u + ci == 1 exactly."""

    accuracy: float
    cc_rate: float
    u_rate: float
    ci_rate: float
    tree_size_mean: float | None = None
    tree_size_std: float | None = None


@dataclass(frozen=True)
class EnvelopeSummary:
    """Per-metric mean and twice the sample (n-1) standard deviation."""

    mean: EnvelopeReport
    width2: EnvelopeReport
    count: int


def _check_threshold(threshold: float, class_count: int) -> None:
    if not (1.0 / class_count < threshold <= 1.0):
        raise ValueError(
            f"confidence threshold must lie in (1/{class_count}, 1], got {threshold}"
        )


def evaluate(vm: VoteMatrix, threshold: float) -> EnvelopeReport:
    """Outcome rates over all test points; accuracy ignores the threshold.

    A point's consistency is its plurality vote share and its prediction
    the plurality class, ties to the lowest class; it is confident when
    the consistency is at least the threshold.
    """
    _check_threshold(threshold, vm.class_count)
    predicted = np.argmax(vm.votes, axis=1)
    gamma = vm.votes[np.arange(len(predicted)), predicted] / vm.classifier_count
    confident = gamma >= threshold
    correct = predicted == vm.targets
    n = len(predicted)
    cc = int(np.sum(confident & correct))
    ci = int(np.sum(confident & ~correct))
    u = n - cc - ci
    return EnvelopeReport(
        accuracy=float(np.mean(correct)),
        cc_rate=cc / n,
        u_rate=u / n,
        ci_rate=ci / n,
    )


_METRICS = ("accuracy", "cc_rate", "u_rate", "ci_rate", "tree_size_mean", "tree_size_std")


def aggregate(reports) -> EnvelopeSummary:
    """Mean and 2-sigma half-width of every metric across reports."""
    reports = list(reports)
    if len(reports) < 2:
        raise ValueError("aggregation needs at least two reports")
    means, widths = {}, {}
    for name in _METRICS:
        values = [getattr(r, name) for r in reports]
        if any(v is None for v in values):
            means[name] = None
            widths[name] = None
            continue
        arr = np.asarray(values, dtype=np.float64)
        means[name] = float(arr.mean())
        widths[name] = float(2.0 * arr.std(ddof=1))
    return EnvelopeSummary(mean=EnvelopeReport(**means), width2=EnvelopeReport(**widths), count=len(reports))


@dataclass(frozen=True)
class SweepCurve:
    thresholds: np.ndarray
    u_rates: np.ndarray
    ci_rates: np.ndarray


@dataclass(frozen=True)
class SweepSummary:
    thresholds: np.ndarray
    u_mean: np.ndarray
    u_width2: np.ndarray
    ci_mean: np.ndarray
    ci_width2: np.ndarray


SWEEP_MAX_POINTS = 10**6


def sweep_grid(start: float = 0.9, stop: float = 1.0, step: float = 0.001) -> np.ndarray:
    """Inclusive threshold grid; the default 0.9..1.0 step 0.001 has 101 points.

    Raises ValueError, naming the bad bound, unless all three are finite,
    step is positive, stop is not below start and the grid has at most
    SWEEP_MAX_POINTS points.
    """
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"sweep {name} must be finite, got {value}")
    if step <= 0:
        raise ValueError(f"sweep step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"sweep stop {stop} lies below start {start}")
    count = int(round((stop - start) / step)) + 1
    if count > SWEEP_MAX_POINTS:
        raise ValueError(
            f"sweep step {step} is too fine: {start}..{stop} would take {count} thresholds "
            f"(at most {SWEEP_MAX_POINTS})"
        )
    return np.linspace(start, stop, count)


def sweep(vm: VoteMatrix, thresholds=None) -> SweepCurve:
    """U and CI rates across a threshold grid (U never decreases, CI never grows)."""
    thresholds = sweep_grid() if thresholds is None else np.asarray(thresholds, dtype=np.float64)
    u_rates = np.empty(len(thresholds))
    ci_rates = np.empty(len(thresholds))
    for i, t in enumerate(thresholds):
        report = evaluate(vm, float(t))
        u_rates[i] = report.u_rate
        ci_rates[i] = report.ci_rate
    return SweepCurve(thresholds=thresholds, u_rates=u_rates, ci_rates=ci_rates)


def aggregate_sweeps(curves) -> SweepSummary:
    curves = list(curves)
    if len(curves) < 2:
        raise ValueError("sweep aggregation needs at least two curves")
    base = curves[0].thresholds
    for c in curves[1:]:
        if not np.array_equal(c.thresholds, base):
            raise ValueError("sweep curves must share one threshold grid")
    u = np.stack([c.u_rates for c in curves])
    ci = np.stack([c.ci_rates for c in curves])
    return SweepSummary(
        thresholds=base,
        u_mean=u.mean(axis=0),
        u_width2=2.0 * u.std(axis=0, ddof=1),
        ci_mean=ci.mean(axis=0),
        ci_width2=2.0 * ci.std(axis=0, ddof=1),
    )


# ---------------------------------------------------------------------------
# Vote-matrix CSV: header `target,vote_0,...,vote_{C-1}`, one row per point
# ---------------------------------------------------------------------------


def write_votes_csv(vm: VoteMatrix, path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target"] + [f"vote_{c}" for c in range(vm.class_count)])
        for target, row in zip(vm.targets, vm.votes):
            writer.writerow([int(target)] + [int(v) for v in row])


def read_votes_csv(path) -> VoteMatrix:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    reader = csv.reader(read_text(path).splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"empty votes file: {path}") from None
    if header[:1] != ["target"] or len(header) < 3:
        raise DataError("votes CSV must start with header target,vote_0,...")
    rows = []
    for row in filter(None, reader):  # blank lines skipped
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {reader.line_num} has {len(row)} cells, the header {len(header)} "
                f"(target and {len(header) - 1} vote columns)"
            )
        rows.append(row)
    if not rows:
        raise DataError(f"votes file has no data rows: {path}")
    try:
        targets = np.array([int(r[0]) for r in rows], dtype=np.int64)
        votes = np.array([[int(v) for v in r[1:]] for r in rows], dtype=np.int64)
    except ValueError as exc:
        raise DataError(f"non-integer cell in votes file: {exc}") from None
    try:
        return VoteMatrix.build(votes, targets)
    except ValueError as exc:
        raise DataError(str(exc)) from None
