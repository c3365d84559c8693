"""Output checks.  Each returns a list of failure messages; empty means pass.

The harness reads outputs without importing treeuq, so a defect in the
program cannot hide one in its own checker.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

CONFIDENCE = 0.99


def exit_code(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def read_votes(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(targets, votes) of a vote-matrix CSV `target,vote_0,...,vote_{C-1}`."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 2 or rows[0][:1] != ["target"]:
        raise ValueError(f"{path.name}: not a votes CSV")
    table = np.array([[int(c) for c in r] for r in rows[1:]], dtype=np.int64)
    return table[:, 0], table[:, 1:]


def votes_rows(path: Path, classifiers: int) -> list[str]:
    """Every votes row sums to the classifier count the workload configured."""
    try:
        _, votes = read_votes(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    bad = np.nonzero(votes.sum(axis=1) != classifiers)[0]
    if bad.size:
        return [f"{path.name}: {bad.size} rows do not sum to {classifiers} (first: row {bad[0] + 1})"]
    return []


def ci_rate(path: Path) -> float:
    """Confident-incorrect share: plurality share >= CONFIDENCE and wrong."""
    targets, votes = read_votes(path)
    predicted = np.argmax(votes, axis=1)
    share = votes[np.arange(len(predicted)), predicted] / votes[0].sum()
    return float(np.mean((share >= CONFIDENCE) & (predicted != targets)))


def digest(paths) -> str:
    """sha256 over the names and bytes of the given files, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


def same_digest(digests: list[str], what: str) -> list[str]:
    """All repeats of one seed gave identical bytes."""
    differing = [i for i, d in enumerate(digests) if d != digests[0]]
    return [f"{what}: repeat {i} differs from repeat 0" for i in differing]


def floor(value: float, minimum: float, what: str) -> list[str]:
    return [] if value >= minimum else [f"{what} {value:.4f} below floor {minimum}"]


def equal_votes(a: Path, b: Path) -> list[str]:
    """Serial and parallel runs of one seed give identical votes."""
    try:
        same = all(np.array_equal(x, y) for x, y in zip(read_votes(a), read_votes(b)))
    except (OSError, ValueError) as exc:
        return [f"votes unreadable ({exc})"]
    return [] if same else [f"{a.parent.name}/{a.name} differs from {b.parent.name}/{b.name}"]
