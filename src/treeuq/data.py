"""Dataset container, CSV ingestion, and deterministic fold/validation splitting."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(Exception):
    """An input file or dataset violates the expected format."""


def read_text(path: Path, error: type[Exception] = DataError) -> str:
    """An input file's UTF-8 text; one that is not UTF-8 raises `error` naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Labeled feature matrix with contiguous 0-based class indices.

    Parameters
    ----------
    features : (n, m) float array
    labels : (n,) int array with values in {0..class_count-1}
    class_count : number of classes (>= 2); fixed even for subsets that
        happen to miss a class
    feature_names : m column names
    label_names : original label tokens when the source file used
        non-integer labels, in index order; None otherwise
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    feature_names: tuple[str, ...]
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        feats = _readonly(np.asarray(self.features, dtype=np.float64))
        labs = _readonly(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        n, m = feats.shape
        if n < 1 or m < 1:
            raise DataError("dataset needs at least one row and one feature")
        if labs.shape != (n,):
            raise DataError("labels must have one entry per row")
        if self.class_count < 2:
            raise DataError("need at least two classes")
        if labs.min() < 0 or labs.max() >= self.class_count:
            raise DataError("label outside {0..class_count-1}")
        if len(self.feature_names) != m:
            raise DataError("feature_names must have one entry per column")
        if not np.all(np.isfinite(feats)):
            raise DataError("non-finite feature value")

    @property
    def row_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    def class_histogram(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)

    def subset(self, rows) -> "Dataset":
        """New Dataset restricted to ``rows``; class_count is preserved."""
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            features=self.features[rows],
            labels=self.labels[rows],
            class_count=self.class_count,
            feature_names=self.feature_names,
            label_names=self.label_names,
        )


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic fold assignment for cross-validation.

    ``stratified`` is False when some class had fewer members than
    there are folds and the split fell back to an unstratified shuffle.
    """

    assignments: np.ndarray
    stratified: bool

    def __post_init__(self):
        object.__setattr__(self, "assignments", _readonly(np.asarray(self.assignments, dtype=np.int64)))

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


@dataclass(frozen=True)
class SplitPair:
    """Disjoint train/holdout partition of a source index list."""

    train: np.ndarray
    holdout: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "train", _readonly(np.asarray(self.train, dtype=np.int64)))
        object.__setattr__(self, "holdout", _readonly(np.asarray(self.holdout, dtype=np.int64)))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_SCHEMA_KEYS = {"label_column", "header", "categorical"}


def read_key_values(path, keys, what: str, error: type[Exception], dashes: bool = False) -> dict[str, str]:
    """Parse a flat key=value file (``#`` starts a comment) whose keys lie in
    ``keys``; a missing file, a line without ``=`` or an unknown key raises
    ``error`` naming the ``what`` file and line.  With ``dashes``, ``-`` in
    a key reads as ``_``."""
    path = Path(path)
    if not path.is_file():
        raise error(f"no such {what} file: {path}")
    out = {}
    for ln, raw in enumerate(read_text(path, error).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{what} line {ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if dashes:
            key = key.replace("-", "_")
        if key not in keys:
            raise error(f"{what} line {ln}: unknown key {key!r}")
        out[key] = value
    return out


def load_schema(path) -> dict:
    """Parse a schema file: the keys ``label_column``, ``header``, ``categorical``."""
    return read_key_values(path, _SCHEMA_KEYS, "schema", DataError)


def _is_int_token(tok: str) -> bool:
    try:
        int(tok)
        return True
    except ValueError:
        return False


def _is_float_token(tok: str) -> bool:
    try:
        float(tok)
        return np.isfinite(float(tok))
    except ValueError:
        return False


def load_csv(path, schema=None, classes_from: Dataset | None = None) -> Dataset:
    """Load a comma-separated dataset.

    Format: UTF-8, optional header row, one column per feature, label in the
    last column unless the schema overrides it.  Integer labels must already
    be contiguous 0-based class indices; any other label tokens are remapped
    to indices in first-seen order and the mapping is kept in
    ``label_names``.  Categorical features must be pre-encoded as integers;
    columns listed under the schema key ``categorical`` are validated as
    such.

    With ``classes_from`` (a training set), the labels are read as that
    set's classes instead: through its ``label_names``, or as integers
    below its ``class_count``, so a test file may list the classes in any
    order or lack some of them.  A label the training set does not have
    raises DataError naming it.

    Schema keys: ``label_column`` (name or 0-based index), ``header``
    (``auto``/``true``/``false``), ``categorical`` (comma list of column
    names or indices).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    if schema is not None and not isinstance(schema, dict):
        schema = load_schema(schema)
    schema = schema or {}

    rows = []
    for raw in read_text(path).splitlines():
        if raw.strip():
            rows.append([cell.strip() for cell in raw.split(",")])
    if not rows:
        raise DataError(f"empty file: {path}")

    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"row {i + 1}: expected {width} columns, found {len(row)}")

    header_mode = schema.get("header", "auto").lower()
    if header_mode == "true":
        has_header = True
    elif header_mode == "false":
        has_header = False
    elif header_mode == "auto":
        # A first row that holds the schema's label column name, or a
        # non-numeric feature cell, is a header.  One whose features are all
        # numbers but whose label is not may be a header of numeric names or
        # a data row: ask, when it sits above a numeric label, or when its
        # label is seen in no later row while later labels repeat (a class of
        # one row, at the top).  The label is the schema's label column: an
        # index, or the cell of row 1 that names it.
        key = schema.get("label_column", str(width - 1))
        named = not _is_int_token(key) and key in rows[0]  # a name can only come from a header row
        at = rows[0].index(key) if named else int(key) if _is_int_token(key) else width - 1
        at = at if 0 <= at < width else width - 1  # an index out of range is refused below
        has_header = named or any(not _is_float_token(tok) and tok != "" for j, tok in enumerate(rows[0]) if j != at)
        label, later = rows[0][at], [row[at] for row in rows[1:]]
        if not has_header and later and not _is_float_token(label):
            reason = None
            if _is_float_token(later[0]):
                reason = "row 2's label is"
            elif label not in later and len(set(later)) < len(later):
                reason = "no later row has that label, while later labels repeat"
            if reason:
                raise DataError(
                    f"{path}: cannot tell whether row 1 is a header (its feature cells are numbers, its label "
                    f"{label!r} is not, and {reason}); set header=true or header=false in the schema"
                )
    else:
        raise DataError(f"schema header must be auto/true/false, got {header_mode!r}")

    if has_header:
        names = rows[0]
        data_rows = rows[1:]
    else:
        names = [f"col{j}" for j in range(width)]
        data_rows = rows
    if not data_rows:
        raise DataError(f"empty file (header only): {path}")

    def column_index(key: str, what: str) -> int:
        if _is_int_token(key):
            j = int(key)
            if not 0 <= j < width:
                raise DataError(f"{what} index {j} out of range")
            return j
        if key in names:
            return names.index(key)
        raise DataError(f"unknown {what} column {key!r}")

    label_col = column_index(schema.get("label_column", str(width - 1)), "label")
    categorical = set()
    if schema.get("categorical"):
        for key in schema["categorical"].split(","):
            categorical.add(column_index(key.strip(), "categorical"))

    feature_cols = [j for j in range(width) if j != label_col]
    n = len(data_rows)
    features = np.empty((n, len(feature_cols)), dtype=np.float64)
    for i, row in enumerate(data_rows):
        for k, j in enumerate(feature_cols):
            tok = row[j]
            if not _is_float_token(tok):
                raise DataError(f"non-numeric value {tok!r} at row {i + 1}, column {names[j]!r}")
            if j in categorical and not _is_int_token(tok):
                raise DataError(
                    f"categorical column {names[j]!r} must hold integer codes, got {tok!r} at row {i + 1}"
                )
            features[i, k] = float(tok)

    label_tokens = [row[label_col] for row in data_rows]
    label_names = None
    if classes_from is not None:
        labels = _labels_as_classes_of(label_tokens, classes_from)
        class_count, label_names = classes_from.class_count, classes_from.label_names
    elif all(_is_int_token(tok) for tok in label_tokens):
        labels = np.array([int(tok) for tok in label_tokens], dtype=np.int64)
        present = set(labels.tolist())
        expected = set(range(int(labels.max()) + 1)) if labels.min() >= 0 else None
        if expected is None or present != expected:
            raise DataError(
                "non-contiguous labels: integer labels must cover 0..max "
                f"(found {sorted(present)})"
            )
        class_count = int(labels.max()) + 1
    else:
        seen: dict[str, int] = {}
        labels = np.empty(n, dtype=np.int64)
        for i, tok in enumerate(label_tokens):
            if tok not in seen:
                seen[tok] = len(seen)
            labels[i] = seen[tok]
        label_names = tuple(seen)
        class_count = len(seen)
    if class_count < 2:
        raise DataError("dataset has a single class")

    return Dataset(
        features=features,
        labels=labels,
        class_count=class_count,
        feature_names=tuple(names[j] for j in feature_cols),
        label_names=label_names,
    )


def _labels_as_classes_of(tokens: list, train: Dataset) -> np.ndarray:
    """Class indices of label tokens under the classes of `train`."""
    if train.label_names is not None:
        index = {name: c for c, name in enumerate(train.label_names)}
        known = ", ".join(train.label_names)
    else:
        index = {c: c for c in range(train.class_count)}
        known = f"0..{train.class_count - 1}"
    labels = np.empty(len(tokens), dtype=np.int64)
    for i, tok in enumerate(tokens):
        key = int(tok) if train.label_names is None and _is_int_token(tok) else tok
        if key not in index:
            raise DataError(f"label {tok!r} at row {i + 1} is not a class of the training data ({known})")
        labels[i] = index[key]
    return labels


def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset in the format `load_csv` reads back bit-identically."""
    path = Path(path)
    lines = [",".join((*ds.feature_names, "label"))]
    for i in range(ds.row_count):
        cells = [repr(float(v)) for v in ds.features[i]]
        y = int(ds.labels[i])
        cells.append(ds.label_names[y] if ds.label_names else str(y))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def make_folds(ds: Dataset, fold_count: int, seed: int) -> FoldPlan:
    """Assign every row to one of ``fold_count`` folds, stratified by class.

    Each fold's class counts stay within one item of n_c / fold_count.  When
    some class has fewer members than ``fold_count``, stratification is
    impossible and the plan falls back to a plain shuffled deal, flagged by
    ``stratified=False``.
    """
    if fold_count < 2:
        raise ValueError("fold_count must be at least 2")
    n = ds.row_count
    if n < fold_count:
        raise DataError(f"cannot make {fold_count} folds from {n} rows")
    rng = np.random.default_rng(seed)
    hist = ds.class_histogram()
    stratified = bool((hist >= fold_count).all() and (hist > 0).all())
    if stratified:  # the rows dealt round-robin, class by class, each class shuffled
        order = np.concatenate([rng.permutation(np.flatnonzero(ds.labels == c)) for c in range(ds.class_count)])
    else:
        order = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = np.arange(n) % fold_count
    return FoldPlan(assignments=assignments, stratified=stratified)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def split_holdout_count(indices, labels, holdout_size: int, seed: int) -> SplitPair:
    """Stratified draw of exactly ``holdout_size`` indices out of ``indices``.

    Per-class quotas follow largest-remainder apportionment of the class
    proportions; no class is drained entirely from the train side.
    """
    indices = np.asarray(indices, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    size = len(indices)
    if not 0 < holdout_size < size:
        raise DataError(f"degenerate split: {holdout_size} of {size} rows held out")
    sub = labels[indices]
    classes, counts = np.unique(sub, return_counts=True)
    ideal = holdout_size * counts / size
    quota = np.floor(ideal).astype(np.int64)
    # best effort: keep at least one row of every class on the train side,
    # relaxing that cap only when the target size is otherwise unreachable
    quota = np.minimum(quota, counts - 1)
    remainder = ideal - quota
    while quota.sum() < holdout_size:
        order = np.lexsort((classes, -remainder))
        bumped = False
        for capped in (True, False):
            for j in order:
                if quota[j] < (counts[j] - 1 if capped else counts[j]):
                    quota[j] += 1
                    remainder[j] -= 1.0
                    bumped = True
                    break
            if bumped:
                break

    rng = np.random.default_rng(seed)
    holdout_parts = []
    for cls, q in zip(classes, quota):
        members = indices[sub == cls]
        members = rng.permutation(members)
        holdout_parts.append(members[:q])
    holdout = np.sort(np.concatenate(holdout_parts))
    train = np.setdiff1d(indices, holdout)
    return SplitPair(train=train, holdout=holdout)


def validation_holdout_count(fraction: float, size: int) -> int:
    """The rows, fraction * size rounded half up, that a validation split
    holds out of size; a fraction that holds out no row or every row is a
    setting error (ValueError), named as the forest's validation_fraction."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"validation_fraction must lie in (0, 1), got {fraction}")
    holdout_size = _round_half_up(fraction * size)
    if not 0 < holdout_size < size:
        raise ValueError(
            f"validation_fraction {fraction} holds out {holdout_size} of {size} rows; "
            "it must hold out at least one and keep at least one"
        )
    return holdout_size


def split_validation(indices, labels, fraction: float, seed: int) -> SplitPair:
    """Hold out validation_holdout_count(fraction, len) indices, stratified by label."""
    indices = np.asarray(indices, dtype=np.int64)
    return split_holdout_count(indices, labels, validation_holdout_count(fraction, len(indices)), seed)
