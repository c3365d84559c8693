import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeuq import cli
from treeuq.data import (
    DataError,
    Dataset,
    load_csv,
    load_schema,
    make_folds,
    split_holdout_count,
    split_validation,
    write_csv,
)
from oracles import fold_indices


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


UNSEEN_FIRST_LABEL = "4,label\n1.0,a\n2.0,b\n3.0,a\n"


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        ds = load_csv(_write(tmp_path, "1.0,2.0,0\n3.5,4.0,1\n0.5,0.1,0\n"))
        assert (ds.row_count, ds.feature_count, ds.class_count) == (3, 2, 2)
        assert ds.labels.tolist() == [0, 1, 0]

    def test_header_detected(self, tmp_path):
        ds = load_csv(_write(tmp_path, "x1,x2,label\n1.0,2.0,0\n3.5,4.0,1\n"))
        assert ds.feature_names == ("x1", "x2")
        assert ds.row_count == 2

    def test_ambiguous_first_row_asks_for_header_key(self, tmp_path):
        # numeric features and a non-numeric label above a numeric one: a
        # header of numeric names, or a data row with a class named "no"
        with pytest.raises(DataError, match="header=true or header=false"):
            load_csv(_write(tmp_path, "4,no\n5,1\n6,0\n"))

    def test_unseen_first_label_asks_for_header_key(self, tmp_path, capsys):
        # numeric features and a label no later row has, above repeating
        # labels: a header of numeric names, or a class of one row
        train = _write(tmp_path, UNSEEN_FIRST_LABEL)
        with pytest.raises(DataError, match="header=true or header=false"):
            load_csv(train)
        assert cli.main(["bayes", "--train", str(train), "--out", str(tmp_path / "out")]) == 3
        assert "header=true or header=false" in capsys.readouterr().err

    @pytest.mark.parametrize("header, rows, names", [("true", 2, ("4",)), ("false", 3, ("col0",))])
    def test_schema_header_settles_ambiguous_first_row(self, tmp_path, header, rows, names):
        schema = _write(tmp_path, f"header={header}\n", name="schema.txt")
        ds = load_csv(_write(tmp_path, "4,no\n5,1\n6,0\n"), schema=schema)
        assert (ds.row_count, ds.feature_names) == (rows, names)

    @pytest.mark.parametrize("header, rows, classes", [("true", 3, ("a", "b")), ("false", 4, ("label", "a", "b"))])
    def test_schema_header_settles_unseen_first_label(self, tmp_path, header, rows, classes):
        schema = _write(tmp_path, f"header={header}\n", name="schema.txt")
        ds = load_csv(_write(tmp_path, UNSEEN_FIRST_LABEL), schema=schema)
        assert (ds.row_count, ds.label_names) == (rows, classes)

    def test_ambiguous_first_row_exits_3(self, tmp_path, capsys):
        train = _write(tmp_path, "4,no\n5,1\n6,0\n")
        assert cli.main(["bayes", "--train", str(train), "--out", str(tmp_path / "out")]) == 3
        assert "header=true or header=false" in capsys.readouterr().err

    def test_non_contiguous_integer_labels_rejected(self, tmp_path):
        with pytest.raises(DataError, match="non-contiguous"):
            load_csv(_write(tmp_path, "1,0\n2,1\n3,5\n"))

    def test_string_labels_remapped_first_seen(self, tmp_path):
        ds = load_csv(_write(tmp_path, "1,yes\n2,no\n3,yes\n"))
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.label_names == ("yes", "no")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(_write(tmp_path, "\n\n"))

    def test_non_numeric_cell_reports_position(self, tmp_path):
        with pytest.raises(DataError, match=r"row 2.*col1"):
            load_csv(_write(tmp_path, "1,2,0\n1,oops,1\n"))

    def test_reload_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(
            features=rng.normal(size=(20, 3)),
            labels=rng.integers(0, 2, size=20),
            class_count=2,
            feature_names=("a", "b", "c"),
        )
        path, path2 = tmp_path / "round.csv", tmp_path / "round2.csv"
        write_csv(ds, path)
        again = load_csv(path)
        assert np.array_equal(ds.features, again.features)
        assert np.array_equal(ds.labels, again.labels)
        third = load_csv(path)
        assert np.array_equal(again.features, third.features)
        write_csv(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_schema_label_column_override(self, tmp_path):
        schema = _write(tmp_path, "label_column=0\n", name="schema.txt")
        ds = load_csv(_write(tmp_path, "0,1.5\n1,2.5\n"), schema=schema)
        assert ds.labels.tolist() == [0, 1]
        assert ds.feature_count == 1

    def test_header_test_reads_the_schema_label_column(self, tmp_path):
        # a string label in column 0 is not a non-numeric feature cell, so
        # row 1 is data; by name, the label column is the cell that names it
        schema = _write(tmp_path, "label_column=0\n", name="schema.txt")
        ds = load_csv(_write(tmp_path, "a,1.0,2.0\nb,2.0,3.0\na,3.0,1.0\nb,4.0,0.5\n"), schema=schema)
        assert (ds.row_count, ds.label_names, ds.feature_count) == (4, ("a", "b"), 2)
        assert ds.features[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
        schema = _write(tmp_path, "label_column=y\n", name="schema.txt")
        ds = load_csv(_write(tmp_path, "y,x1,x2\na,1.0,2.0\nb,2.0,3.0\na,3.0,1.0\n"), schema=schema)
        assert (ds.row_count, ds.label_names, ds.feature_names) == (3, ("a", "b"), ("x1", "x2"))

    def test_row_that_names_the_label_column_is_a_header(self, tmp_path):
        # numeric feature names, but row 1 holds the schema's label column
        # name, which only a header row can
        schema = _write(tmp_path, "label_column=y\n", name="schema.txt")
        ds = load_csv(_write(tmp_path, "y,1,2\na,1.0,2.0\nb,2.0,3.0\na,3.0,1.0\n"), schema=schema)
        assert (ds.row_count, ds.label_names, ds.feature_names) == (3, ("a", "b"), ("1", "2"))

    def test_schema_categorical_must_be_integer(self, tmp_path):
        schema = _write(tmp_path, "categorical=0\nheader=false\n", name="schema.txt")
        with pytest.raises(DataError, match="integer codes"):
            load_csv(_write(tmp_path, "1.5,0\n2.0,1\n"), schema=schema)

    def test_schema_unknown_key(self, tmp_path):
        with pytest.raises(DataError, match="unknown key"):
            load_schema(_write(tmp_path, "nonsense=1\n", name="schema.txt"))

    def test_missing_schema_file_exits_3(self, tmp_path, capsys):
        train = _write(tmp_path, "1.0,0\n2.0,1\n3.0,0\n")
        rc = cli.main(["bayes", "--train", str(train), "--schema", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
        assert rc == 3
        assert "no such schema file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case", ["train_dir", "votes_dir", "out_under_file", "train_not_utf8", "votes_not_utf8", "schema_not_utf8"]
    )
    def test_unusable_path_exits_3_naming_it(self, tmp_path, capsys, case):
        folder, plain, latin = tmp_path / "folder", _write(tmp_path, "1.0,0\n"), tmp_path / "latin.csv"
        folder.mkdir()
        latin.write_bytes(b"target,vote_0,vote_1\n\xe9,1,0\n")
        out = ["--out", str(tmp_path / "out")]
        path, argv = {
            "train_dir": (folder, ["bayes", "--train", str(folder), *out]),
            "votes_dir": (folder, ["envelope", "--votes", str(folder), "--confidence", "0.9", *out]),
            "out_under_file": (plain / "sub", ["synth", "--out", str(plain / "sub")]),
            "train_not_utf8": (latin, ["bayes", "--train", str(latin), *out]),
            "votes_not_utf8": (latin, ["envelope", "--votes", str(latin), "--confidence", "0.9", *out]),
            "schema_not_utf8": (latin, ["bayes", "--train", str(plain), "--schema", str(latin), *out]),
        }[case]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err

    def test_pima_shaped_file(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [
            ",".join([f"{v:.3f}" for v in rng.normal(size=8)] + [str(rng.integers(0, 2))])
            for _ in range(768)
        ]
        ds = load_csv(_write(tmp_path, "\n".join(rows)))
        assert (ds.row_count, ds.feature_count, ds.class_count) == (768, 8, 2)


class TestLabelsAgainstTraining:
    """A test file's labels are read as the training file's classes."""

    def test_string_classes_in_another_order(self, tmp_path):
        train = load_csv(_write(tmp_path, "1,yes\n2,no\n3,yes\n", name="train.csv"))
        test = load_csv(_write(tmp_path, "4,no\n5,yes\n", name="test.csv"), classes_from=train)
        assert train.label_names == ("yes", "no")
        assert test.label_names == ("yes", "no")
        assert test.labels.tolist() == [1, 0]

    def test_string_test_file_with_one_class(self, tmp_path):
        train = load_csv(_write(tmp_path, "1,yes\n2,no\n", name="train.csv"))
        test = load_csv(_write(tmp_path, "4,no\n5,no\n", name="test.csv"), classes_from=train)
        assert (test.labels.tolist(), test.class_count) == ([1, 1], 2)

    def test_integer_test_file_lacking_a_lower_class(self, tmp_path):
        train = load_csv(_write(tmp_path, "1,0\n2,1\n3,2\n", name="train.csv"))
        test = load_csv(_write(tmp_path, "4,2\n5,1\n6,2\n", name="test.csv"), classes_from=train)
        assert (test.labels.tolist(), test.class_count, test.label_names) == ([2, 1, 2], 3, None)

    @pytest.mark.parametrize(
        "train_text, test_text, label",
        [
            ("1,yes\n2,no\n", "4,no\n5,maybe\n", "'maybe' at row 2"),
            ("1,0\n2,1\n", "4,1\n5,2\n", "'2' at row 2"),
            ("1,0\n2,1\n", "4,1\n5,no\n", "'no' at row 2"),
            ("1,yes\n2,no\n", "4,0\n5,1\n", "'0' at row 1"),
        ],
    )
    def test_unknown_label_is_named(self, tmp_path, train_text, test_text, label):
        train = load_csv(_write(tmp_path, train_text, name="train.csv"))
        with pytest.raises(DataError, match=f"label {label} is not a class of the training data"):
            load_csv(_write(tmp_path, test_text, name="test.csv"), classes_from=train)


class TestDatasetInvariants:
    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), class_count=2, feature_names=("x",))

    def test_single_class_count_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([0, 0]), class_count=1, feature_names=("x",))

    def test_subset_preserves_class_count(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 2, 0]), 3, ("a", "b"))
        sub = ds.subset([0, 1])
        assert sub.class_count == 3
        assert sub.row_count == 2


class TestMakeFolds:
    def test_balanced_two_class_ten_rows(self):
        ds = Dataset(np.arange(10.0)[:, None], np.array([0] * 5 + [1] * 5), 2, ("x",))
        plan = make_folds(ds, 5, seed=1)
        assert plan.stratified
        for f in range(5):
            idx = fold_indices(plan, f)
            assert len(idx) == 2
            assert sorted(ds.labels[idx].tolist()) == [0, 1]

    def test_deterministic(self):
        ds = Dataset(np.arange(30.0)[:, None], np.arange(30) % 3, 3, ("x",))
        a = make_folds(ds, 5, seed=7)
        b = make_folds(ds, 5, seed=7)
        assert np.array_equal(a.assignments, b.assignments)

    def test_synthetic_250_five_folds(self, canonical_data):
        train, _ = canonical_data
        plan = make_folds(train, 5, seed=0)
        hist = train.class_histogram()
        for f in range(5):
            idx = fold_indices(plan, f)
            assert len(idx) == 50
            for c in range(train.class_count):
                got = int(np.sum(train.labels[idx] == c))
                assert abs(got - hist[c] / 5) <= 1

    def test_unstratified_fallback_flag(self):
        ds = Dataset(np.arange(8.0)[:, None], np.array([0] * 7 + [1]), 2, ("x",))
        plan = make_folds(ds, 4, seed=0)
        assert not plan.stratified

    def test_too_few_rows(self):
        ds = Dataset(np.arange(3.0)[:, None], np.array([0, 1, 0]), 2, ("x",))
        with pytest.raises(DataError):
            make_folds(ds, 4, seed=0)

    @given(
        n_per_class=st.integers(min_value=5, max_value=40),
        classes=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_assignments_partition_all_rows(self, n_per_class, classes, seed):
        labels = np.repeat(np.arange(classes), n_per_class)
        ds = Dataset(np.arange(float(len(labels)))[:, None], labels, classes, ("x",))
        plan = make_folds(ds, 5, seed=seed)
        assert plan.assignments.shape == (len(labels),)
        counts = np.bincount(plan.assignments, minlength=5)
        assert counts.sum() == len(labels)
        assert (counts > 0).all()
        for f in range(5):
            for c in range(classes):
                got = int(np.sum(labels[fold_indices(plan, f)] == c))
                assert abs(got - n_per_class / 5) <= 1


class TestSplitValidation:
    def test_100_rows_fraction_03(self):
        labels = np.arange(100) % 2
        pair = split_validation(np.arange(100), labels, 0.3, seed=0)
        assert (len(pair.train), len(pair.holdout)) == (70, 30)

    def test_two_rows_half(self):
        pair = split_validation(np.arange(2), np.array([0, 1]), 0.5, seed=0)
        assert (len(pair.train), len(pair.holdout)) == (1, 1)

    def test_sonar_sized_138_rows(self):
        labels = (np.arange(138) % 2).astype(int)
        pair = split_validation(np.arange(138), labels, 0.3, seed=5)
        assert (len(pair.train), len(pair.holdout)) == (97, 41)

    def test_partition_property(self):
        labels = np.arange(40) % 2
        idx = np.arange(10, 50)
        pair = split_validation(idx, np.arange(60) % 2, 0.25, seed=3)
        merged = np.sort(np.concatenate([pair.train, pair.holdout]))
        assert np.array_equal(merged, idx)
        assert len(np.intersect1d(pair.train, pair.holdout)) == 0

    def test_stratified_proportions(self):
        labels = np.array([0] * 80 + [1] * 20)
        pair = split_validation(np.arange(100), labels, 0.3, seed=2)
        holdout_ones = int(np.sum(labels[pair.holdout] == 1))
        assert holdout_ones == 6  # 20% of 30

    def test_degenerate_sizes(self):
        with pytest.raises(DataError):
            split_holdout_count(np.arange(4), np.array([0, 1, 0, 1]), 0, seed=0)
        with pytest.raises(DataError):
            split_holdout_count(np.arange(4), np.array([0, 1, 0, 1]), 4, seed=0)

    @pytest.mark.parametrize("fraction, held", [(0.001, 0), (0.999, 250)])
    def test_fraction_holding_out_no_row_or_every_row_refused(self, fraction, held):
        with pytest.raises(ValueError, match=f"validation_fraction {fraction} holds out {held} of 250 rows"):
            split_validation(np.arange(250), np.arange(250) % 2, fraction, seed=0)

    def test_train_keeps_every_class(self):
        labels = np.array([0] * 9 + [1])
        pair = split_validation(np.arange(10), labels, 0.3, seed=4)
        assert set(labels[pair.train].tolist()) == {0, 1}

    def test_deterministic(self):
        labels = np.arange(50) % 2
        a = split_validation(np.arange(50), labels, 0.3, seed=9)
        b = split_validation(np.arange(50), labels, 0.3, seed=9)
        assert np.array_equal(a.holdout, b.holdout)
