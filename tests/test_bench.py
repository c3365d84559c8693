import argparse
import dataclasses
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeuq import bench, cli, forest, mcmc, synth
from treeuq.bench import ConfigError, ExperimentConfig, pruning_factor
from treeuq.data import Dataset, DataError, write_csv
from oracles import read_tree_file


def tiny_config(out_dir, **overrides) -> ExperimentConfig:
    base = dict(
        mcmc=mcmc.McmcConfig(burn_in=60, post_burn_in=60, restarts=2, min_leaf_rows=3, seed=0),
        forest=forest.ForestConfig(tree_count=10, min_leaf_rows=3, seed=0),
        fold_count=3,
        seed=7,
        out_dir=out_dir,
        train_size=80,
        test_size=60,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def non_manifest_files(out_dir):
    return sorted(
        p for p in out_dir.rglob("*") if p.is_file() and p.name != "manifest.json"
    )


class TestConfigValidation:
    def test_bad_technique(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, technique="nope")

    def test_bad_confidence(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, confidence=1.5)

    def test_bad_fold_count(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, fold_count=1)

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown dataset"):
            tiny_config(tmp_path, datasets=("nonexistent",))

    def test_repeated_dataset(self, tmp_path):
        with pytest.raises(ConfigError, match="more than once: \\['sonar'\\]"):
            tiny_config(tmp_path, datasets=("sonar", "sonar"))

    @pytest.mark.parametrize(
        "technique, techniques", [("bayes", ("bayes",)), ("forest", ("forest",)), ("both", ("bayes", "forest"))]
    )
    def test_techniques_follow_technique(self, tmp_path, technique, techniques):
        cfg = tiny_config(tmp_path, technique=technique)
        assert cfg.techniques == techniques
        with pytest.raises(AttributeError):
            cfg.techniques = ("forest",)

    def test_pruning_factor_rule(self):
        assert pruning_factor(138) == 5  # sonar-sized
        assert pruning_factor(455) == 30  # wisconsin-sized
        assert pruning_factor(400) == 5
        assert pruning_factor(401) == 30


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_run")
    manifest = bench.run_synthetic_protocol(tiny_config(out, sweep=True))
    report = json.loads((out / "report.json").read_text())
    return out, manifest, report


@pytest.fixture(scope="module")
def uci_data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("uci_data")
    rng = np.random.default_rng(1)
    n = 208  # sonar-sized: split 138/70
    X = rng.normal(size=(n, 60))
    y = (X[:, 0] + 0.4 * rng.normal(size=n) > 0).astype(int)
    write_csv(Dataset(X, y, 2, tuple(f"a{i}" for i in range(60))), root / "sonar.csv")
    return root


@pytest.fixture(scope="module")
def uci_run(uci_data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("uci_run")
    cfg = tiny_config(out, data_dir=uci_data_dir, datasets=("sonar", "pima"))
    manifest = bench.run_uci_protocol(cfg)
    report = json.loads((out / "report.json").read_text())
    return out, manifest, report


class TestSyntheticProtocol:
    @pytest.fixture
    def run(self, synthetic_run):
        return synthetic_run

    def test_report_structure(self, run):
        _, _, report = run
        assert set(report["techniques"]) == {"bayes", "forest"}
        for part in report["techniques"].values():
            assert len(part["per_fold"]) == 3
            for fold in part["per_fold"]:
                total = fold["cc_rate"] + fold["u_rate"] + fold["ci_rate"]
                assert total == pytest.approx(1.0, abs=1e-12)
            for value in part["summary"]["width2"].values():
                if value is not None:
                    assert value >= 0.0

    def test_size_comparison_present(self, run):
        _, _, report = run
        comp = report["size_comparison"]
        assert comp["ratio"] == pytest.approx(
            comp["bayes_mean_splits"] / comp["forest_mean_splits"]
        )

    def test_sweep_csvs_have_101_rows(self, run):
        out, _, _ = run
        for tag in ("bayes", "forest"):
            lines = (out / f"{tag}_sweep.csv").read_text().splitlines()
            assert len(lines) == 102  # header + grid

    def test_artifacts_exist(self, run):
        out, manifest, _ = run
        for name in (
            "synthetic_train.csv",
            "synthetic_test.csv",
            "bayes_full_trace.csv",
            "bayes_full_paths.csv",
            "bayes_full_samples.txt",
            "forest_full_convergence.csv",
            "forest_full_forest.txt",
        ):
            assert (out / name).exists(), name
        assert manifest.stage_seconds.keys() >= {"data", "headline", "folds", "emit"}

    def test_trace_csv_columns(self, run):
        out, _, _ = run
        header = (out / "bayes_full_trace.csv").read_text().splitlines()[0]
        assert header == "run,iteration,phase,log_lik,split_count,move,accepted"

    def test_byte_determinism(self, run, tmp_path):
        out, _, _ = run
        again = tmp_path / "again"
        bench.run_synthetic_protocol(tiny_config(again, sweep=True))
        ours = non_manifest_files(out)
        theirs = non_manifest_files(again)
        assert [p.name for p in ours] == [p.name for p in theirs]
        for a, b in zip(ours, theirs):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_manifest_rerun_identical(self, run, tmp_path):
        out, _, _ = run
        rerun = tmp_path / "rerun"
        rc = cli.main(
            ["bench", "synthetic", "--manifest", str(out / "manifest.json"), "--out", str(rerun)]
        )
        assert rc == 0
        assert (rerun / "report.json").read_bytes() == (out / "report.json").read_bytes()

    def test_root_only_forest_gives_a_null_size_ratio(self, tmp_path):
        """Folds of 8 rows leave no split with 5 rows a side, so every tree
        is root-only: the report is written with a null size ratio."""
        out = tmp_path / "D"
        rc = cli.main(["bench", "synthetic", "--train-size", "10", "--fold-count", "5", "--restarts", "1",
                       "--burn-in", "5", "--post-burn-in", "5", "--tree-count", "2", "--out", str(out)])
        assert rc == 0
        comparison = json.loads((out / "report.json").read_text())["size_comparison"]
        assert comparison == {"bayes_mean_splits": 0.0, "forest_mean_splits": 0.0, "ratio": None}

    @pytest.mark.parametrize("min_leaf_rows, headline_warns", [(5, False), (6, True)])
    def test_chain_warnings_go_to_stderr(self, tmp_path, capsys, min_leaf_rows, headline_warns):
        """Each fold's chain warnings, and the full-train run's, reach
        stderr as `treeuq bayes` prints its own: folds of 8 rows leave no
        split with 5 rows a side, and 6 rows a side rule out the 10-row
        full-train set too."""
        capsys.readouterr()
        rc = cli.main(["bench", "synthetic", "--train-size", "10", "--fold-count", "5", "--restarts", "1",
                       "--burn-in", "5", "--post-burn-in", "5", "--tree-count", "2",
                       "--min-leaf-rows", str(min_leaf_rows), "--out", str(tmp_path / "out")])
        assert rc == 0
        labels = ["bayes full_train"] * headline_warns + [f"bayes fold {i}" for i in range(5)]
        warning = "no valid split under min_leaf_rows; chain holds the root-only model"
        assert capsys.readouterr().err.splitlines() == [f"warning: {label}: {warning}" for label in labels]

    def test_each_chain_warning_printed_once(self, tmp_path, capsys):
        """Two restarts of every chain warn alike: stderr and the report
        hold each run's warning once."""
        capsys.readouterr()
        rc = cli.main(["bench", "synthetic", "--train-size", "10", "--fold-count", "5", "--restarts", "2",
                       "--burn-in", "5", "--post-burn-in", "5", "--tree-count", "2", "--min-leaf-rows", "6",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        warning = "no valid split under min_leaf_rows; chain holds the root-only model"
        labels = ["bayes full_train"] + [f"bayes fold {i}" for i in range(5)]
        assert capsys.readouterr().err.splitlines() == [f"warning: {label}: {warning}" for label in labels]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["techniques"]["bayes"]["full_train_extras"]["warnings"] == [warning]

    def test_one_fold_held_at_a_time(self, tmp_path, monkeypatch):
        """When a chain or forest run starts, the pooled chains and forests
        of every earlier run (headline and folds) are already freed, and
        none outlives the protocol."""
        runs, alive_at_start = [], []

        def watched(fn, kept):
            def wrapper(*args, **kwargs):
                gc.collect()
                alive_at_start.append([name for name, ref in runs if ref() is not None])
                result = fn(*args, **kwargs)
                runs.append((f"{fn.__name__}#{len(runs)}", weakref.ref(kept(result))))
                return result

            return wrapper

        monkeypatch.setattr(mcmc, "run_restarts", watched(mcmc.run_restarts, lambda result: result))
        monkeypatch.setattr(forest, "build_forest", watched(forest.build_forest, lambda built: built))
        bench.run_synthetic_protocol(tiny_config(tmp_path / "out"))
        gc.collect()
        assert len(runs) == 2 * (1 + 3)  # headline and three folds, each technique
        assert alive_at_start == [[]] * len(runs)
        assert [name for name, ref in runs if ref() is not None] == []

    def test_trace_csv_streams_in_blocks(self, tmp_path, monkeypatch):
        """trace.csv written TRACE_BLOCK rows at a time, across any block
        boundary, is the whole trace rendered in memory, byte for byte."""
        train, _ = synth.canonical_datasets(seed=3, train_size=60, test_size=10)
        result = mcmc.run_restarts(train, mcmc.McmcConfig(restarts=2, burn_in=20, post_burn_in=25, seed=3))
        t = result.trace
        columns = zip(
            map(str, t.run_index.tolist()), map(str, t.iteration.tolist()),
            ["post" if p else "burn" for p in t.post.tolist()], [bench._fmt(x) for x in t.log_lik.tolist()],
            map(str, t.split_count.tolist()), [mcmc.MOVE_KINDS[c] for c in t.move.tolist()],
            ["1" if a else "0" for a in t.accepted.tolist()],
        )
        header = "run,iteration,phase,log_lik,split_count,move,accepted"
        want = ("\n".join([header, *map(",".join, columns)]) + "\n").encode()
        path = tmp_path / "trace.csv"
        for block in (1, 7, 89, 90, 91, bench.TRACE_BLOCK):
            monkeypatch.setattr(bench, "TRACE_BLOCK", block)
            bench._write_trace_csv(path, t)
            assert path.read_bytes() == want, block


class TestRunners:
    def test_bayes_without_a_test_set_runs_the_same_chains(self, tmp_path):
        """No test set: no outcome, and the very chains that a scored run
        at the same seed samples."""
        train, test = synth.canonical_datasets(seed=5, train_size=60, test_size=20)
        cfg = tiny_config(tmp_path)
        outcome, result = bench.run_bayes_fold(train, None, cfg, 11)
        scored, kept = bench.run_bayes_fold(train, test, cfg, 11)
        assert outcome is None and scored.votes.classifier_count == len(kept.samples)

        def runs(chains):
            return [(r.run_index, r.first, r.count, r.tree.feature, r.tree.threshold) for r in chains.samples.runs]

        assert runs(result) == runs(kept)
        for column, other in zip(result.trace, kept.trace):
            np.testing.assert_array_equal(column, other)


class TestUciProtocol:
    @pytest.fixture
    def run(self, uci_run):
        return uci_run

    def test_missing_dataset_skipped_with_notice(self, run):
        _, _, report = run
        assert report["datasets"]["pima"]["status"] == "skipped"
        assert "pima.csv" in report["datasets"]["pima"]["reason"]

    def test_split_sizes_honored(self, run):
        _, _, report = run
        entry = report["datasets"]["sonar"]
        assert (entry["train_rows"], entry["test_rows"]) == (138, 70)
        assert entry["pruning_factor"] == 5

    def test_table_csv_written(self, run):
        out, _, _ = run
        lines = (out / "uci_table.csv").read_text().splitlines()
        assert lines[0].startswith("dataset,technique,size_mean")
        assert len(lines) == 3  # header + sonar x two techniques

    def test_data_dir_required(self, tmp_path):
        with pytest.raises(ConfigError):
            bench.run_uci_protocol(tiny_config(tmp_path, data_dir=None))

    @pytest.mark.parametrize("kind", ["missing", "regular_file"])
    def test_data_dir_that_is_no_directory_refused_before_writing(self, tmp_path, capsys, kind):
        data_dir, out = tmp_path / "data", tmp_path / "out"
        if kind == "regular_file":
            data_dir.write_text("not a directory\n")
        rc = cli.main(["bench", "uci", "--data-dir", str(data_dir), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"data error: data_dir {data_dir} is not a directory\n"
        assert not out.exists()

    def test_fold_chain_warnings_labelled_by_dataset(self, tmp_path, capsys):
        """Constant features leave no split, so every fold's chains warn,
        under `<name> bayes fold <i>`."""
        root = tmp_path / "data"
        root.mkdir()
        y = np.arange(208) % 2
        write_csv(Dataset(np.ones((208, 60)), y, 2, tuple(f"a{i}" for i in range(60))), root / "sonar.csv")
        cfg = tiny_config(tmp_path / "out", data_dir=root, datasets=("sonar",), technique="bayes")
        capsys.readouterr()
        bench.run_uci_protocol(cfg)
        warning = "no valid split under min_leaf_rows; chain holds the root-only model"
        assert capsys.readouterr().err.splitlines() == [f"warning: sonar bayes fold {i}: {warning}" for i in range(3)]

    @pytest.fixture
    def pima_and_sonar(self, uci_data_dir, tmp_path, monkeypatch):
        """A data directory holding sonar and a pima-shaped pima (512 + 256
        rows), in which no chain runs and no forest grows."""
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "sonar.csv").write_bytes((uci_data_dir / "sonar.csv").read_bytes())
        X = np.random.default_rng(3).normal(size=(768, 8))
        write_csv(Dataset(X, (X[:, 0] > 0).astype(int), 2, tuple(f"a{i}" for i in range(8))), data_dir / "pima.csv")
        monkeypatch.setattr(mcmc, "run_restarts", lambda *args, **kwargs: pytest.fail("a chain ran"))
        monkeypatch.setattr(forest, "build_forest", lambda *args, **kwargs: pytest.fail("a forest grew"))
        return data_dir

    def test_validation_fraction_checked_on_fold_rows(self, pima_and_sonar, tmp_path):
        """sonar's folds give the forest 138 - 46 = 92 rows, of which 0.005
        holds out none (of all 138 it would hold out one): refused before
        anything is written, pima's folds (341 rows) included."""
        cfg = tiny_config(tmp_path / "out", data_dir=pima_and_sonar, datasets=("pima", "sonar"),
                          forest=forest.ForestConfig(tree_count=2, validation_fraction=0.005))
        with pytest.raises(ValueError, match="validation_fraction 0.005 holds out 0 of 92 rows"):
            bench.run_uci_protocol(cfg)
        assert not (tmp_path / "out").exists()

    def test_more_folds_than_registry_rows_refused_before_writing(self, pima_and_sonar, tmp_path):
        """sonar's 138 registry training rows make no 140 folds: refused
        before pima, which has rows enough, writes anything."""
        cfg = tiny_config(tmp_path / "out", data_dir=pima_and_sonar, datasets=("pima", "sonar"), fold_count=140)
        with pytest.raises(DataError, match="cannot make 140 folds from 138 rows"):
            bench.run_uci_protocol(cfg)
        assert not (tmp_path / "out").exists()

    def test_class_count_mismatch_rejected(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(208, 60))
        y = rng.integers(0, 3, size=208)
        write_csv(Dataset(X, y, 3, tuple(f"a{i}" for i in range(60))), root / "sonar.csv")
        cfg = tiny_config(tmp_path / "out", data_dir=root, datasets=("sonar",))
        with pytest.raises(DataError, match="expected 2 classes"):
            bench.run_uci_protocol(cfg)

    def test_confidence_refused_before_the_dataset_runs(self, tmp_path):
        """A confidence at or below 1/C of a data set present is refused
        before anything is written: nothing at 0.5 for sonar (2 classes)."""
        root = tmp_path / "data"
        root.mkdir()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(208, 60))
        y = (X[:, 0] > 0).astype(int)
        write_csv(Dataset(X, y, 2, tuple(f"a{i}" for i in range(60))), root / "sonar.csv")
        cfg = tiny_config(tmp_path / "out", data_dir=root, datasets=("sonar",), confidence=0.5)
        with pytest.raises(ConfigError, match=r"confidence must lie in \(1/2, 1\] for 2 classes"):
            bench.run_uci_protocol(cfg)
        assert not (tmp_path / "out").exists()

    def test_too_few_rows_rejected(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 60))
        y = (X[:, 0] > 0).astype(int)
        write_csv(Dataset(X, y, 2, tuple(f"a{i}" for i in range(60))), root / "sonar.csv")
        cfg = tiny_config(tmp_path / "out", data_dir=root, datasets=("sonar",))
        with pytest.raises(DataError, match="need 208 rows"):
            bench.run_uci_protocol(cfg)

    def test_pima_shaped_split_sizes(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(768, 8))
        y = (X[:, 0] > 0).astype(int)
        ds = Dataset(X, y, 2, tuple(f"a{i}" for i in range(8)))
        cfg = ExperimentConfig(seed=3, out_dir=Path("unused"))
        train_ds, test_ds = bench._uci_split(ds, "pima", cfg)
        assert (train_ds.row_count, test_ds.row_count) == (512, 256)
        assert bench.pruning_factor(512) == 30

    def test_oversized_file_subsampled(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 60))  # sonar registry wants 138 + 70 = 208
        y = (X[:, 0] > 0).astype(int)
        write_csv(Dataset(X, y, 2, tuple(f"a{i}" for i in range(60))), root / "sonar.csv")
        cfg = tiny_config(tmp_path / "out", data_dir=root, datasets=("sonar",))
        bench.run_uci_protocol(cfg)
        entry = json.loads((tmp_path / "out" / "report.json").read_text())["datasets"]["sonar"]
        assert (entry["train_rows"], entry["test_rows"]) == (138, 70)


class TestCli:
    def test_synth_roundtrip(self, tmp_path):
        rc = cli.main(
            ["synth", "--out", str(tmp_path), "--train-size", "30", "--test-size", "20", "--seed", "3"]
        )
        assert rc == 0
        from treeuq.data import load_csv

        ds = load_csv(tmp_path / "synthetic_train.csv")
        assert ds.row_count == 30

    def test_missing_train_file_is_data_error(self, tmp_path):
        rc = cli.main(["bayes", "--train", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize(
        "command", [["bayes", "--restarts", "1", "--burn-in", "5", "--post-burn-in", "5"], ["forest", "--tree-count", "2"]]
    )
    @pytest.mark.parametrize("change", ["extra_leading_column", "dropped_column"])
    def test_test_csv_feature_count_must_match(self, tmp_path, capsys, command, change):
        cli.main(["synth", "--out", str(tmp_path), "--train-size", "30", "--test-size", "20"])
        lines = (tmp_path / "synthetic_test.csv").read_text().splitlines()
        if change == "extra_leading_column":
            lines = [f"{'extra' if i == 0 else i % 3},{line}" for i, line in enumerate(lines)]
        else:
            lines = [line.split(",", 1)[1] for line in lines]
        bad = tmp_path / "bad_test.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        train = str(tmp_path / "synthetic_train.csv")
        rc = cli.main([command[0], "--train", train, "--test", str(bad), "--out", str(tmp_path / "out"), *command[1:]])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"has {3 if change == 'extra_leading_column' else 1} feature columns" in err
        assert err.rstrip().endswith("has 2")
        assert not (tmp_path / "out").exists()  # refused before any work or output

    def test_test_csv_labels_read_as_training_classes(self, tmp_path, capsys):
        """A test file that lists the classes in another order is scored
        against the same classes; a label the training file lacks is refused."""
        cli.main(["synth", "--out", str(tmp_path), "--train-size", "60", "--test-size", "40", "--seed", "2"])

        def relabelled(name):
            header, *rows = (tmp_path / name).read_text().splitlines()
            return header, [row[:-1] + ("no", "yes")[int(row[-1])] for row in rows]

        def write(name, header, rows):
            (tmp_path / name).write_text("\n".join([header, *rows]) + "\n")
            return str(tmp_path / name)

        header, rows = relabelled("synthetic_train.csv")
        train = write("train.csv", header, rows)
        first = rows[0].rsplit(",", 1)[1]  # the training file's first class
        header, rows = relabelled("synthetic_test.csv")
        accuracy = {}
        for name, last in (("same_order", False), ("other_order", True)):
            test = write(f"{name}.csv", header, sorted(rows, key=lambda row: row.endswith(first) == last))
            out = tmp_path / name
            rc = cli.main(["forest", "--train", train, "--test", test, "--tree-count", "3", "--seed", "1",
                           "--out", str(out)])
            assert rc == 0
            accuracy[name] = json.loads((out / "summary.json").read_text())["ensemble_acc_final"]
        assert accuracy["same_order"] == accuracy["other_order"] > 0.5

        bad = write("bad.csv", header, [rows[0], rows[1].rsplit(",", 1)[0] + ",maybe"])
        capsys.readouterr()
        rc = cli.main(["bayes", "--train", train, "--test", bad, "--restarts", "1", "--burn-in", "5",
                       "--post-burn-in", "5", "--out", str(tmp_path / "bad")])
        assert rc == 3
        assert "label 'maybe' at row 2 is not a class of the training data" in capsys.readouterr().err

    def test_bad_move_probs_is_config_error(self, tmp_path):
        cli.main(["synth", "--out", str(tmp_path), "--train-size", "30", "--test-size", "20"])
        rc = cli.main(
            [
                "bayes",
                "--train",
                str(tmp_path / "synthetic_train.csv"),
                "--out",
                str(tmp_path),
                "--move-probs",
                "0.5,0.5,0.5,0.5",
            ]
        )
        assert rc == 2

    def test_one_sided_move_probs_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "D"
        rc = cli.main(["bench", "synthetic", "--move-probs", "0,0.5,0.2,0.3", "--out", str(out)])
        assert rc == 2
        assert "birth and death" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_bad_sweep_grid_is_config_error(self, tmp_path):
        votes = tmp_path / "votes.csv"
        votes.write_text("target,vote_0,vote_1\n0,5,0\n")
        rc = cli.main(["sweep", "--votes", str(votes), "--start", "0.99", "--stop", "0.9", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--step", "0"], "sweep step must be positive, got 0.0"),
            (["--step", "-0.001"], "sweep step must be positive, got -0.001"),
            (["--step", "nan"], "sweep step must be finite, got nan"),
            (["--stop", "inf"], "sweep stop must be finite, got inf"),
            (["--start", "1.0", "--stop", "0.9"], "sweep stop 0.9 lies below start 1.0"),
            (["--step", "1e-9"], "sweep step 1e-09 is too fine: 0.9..1.0 would take 100000001 thresholds"),
        ],
        ids=["step_zero", "step_negative", "step_nan", "stop_infinite", "stop_below_start", "step_too_fine"],
    )
    def test_bad_sweep_bound_is_named(self, tmp_path, capsys, flags, message):
        votes = tmp_path / "votes.csv"
        votes.write_text("target,vote_0,vote_1\n0,5,0\n")
        rc = cli.main(["sweep", "--votes", str(votes), "--out", str(tmp_path / "out"), *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_more_folds_than_rows_refused_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["bench", "synthetic", "--train-size", "3", "--out", str(out)])
        assert rc == 3
        assert "cannot make 5 folds from 3 rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fraction, rc", [("0.03", 2), ("0.032", 0)])
    def test_validation_fraction_checked_on_fold_rows_before_writing(self, tmp_path, capsys, fraction, rc):
        """21 rows in 5 folds give the forest 21 - 5 = 16 rows at the
        fewest: 0.03 holds out none of them (of 17 or 21 it would hold out
        one) and is refused before anything is written; 0.032 holds out
        one and runs.  A Bayes-only run is not refused."""
        out = tmp_path / "out"
        small = ["--train-size", "21", "--restarts", "1", "--burn-in", "5", "--post-burn-in", "5", "--tree-count", "2"]
        capsys.readouterr()
        assert cli.main(["bench", "synthetic", *small, "--validation-fraction", fraction, "--out", str(out)]) == rc
        if rc:
            err = capsys.readouterr().err
            assert f"config error: validation_fraction {fraction} holds out 0 of 16 rows" in err
            assert "16 rows: the fewest a fold trains on at train_size 21 and fold_count 5" in err
            assert not out.exists()
        bayes = ["bench", "synthetic", *small, "--validation-fraction", fraction, "--technique", "bayes"]
        assert cli.main([*bayes, "--out", str(tmp_path / "bayes")]) == 0

    @pytest.mark.parametrize("command", [["synth"], ["bench", "synthetic"]])
    @pytest.mark.parametrize("key", ["train_size", "test_size"])
    def test_size_below_one_refused_before_writing(self, tmp_path, capsys, command, key):
        out = tmp_path / "out"
        rc = cli.main([*command, f"--{key.replace('_', '-')}", "0", "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ("depth:0.5:nan", "decay must be non-negative and finite, got nan"),
        ("depth:0.5:inf", "decay must be non-negative and finite, got inf"),
        ("depth:inf:1", "base split probability must lie strictly in (0, 1), got inf"),
        ("depth:nan:1", "base split probability must lie strictly in (0, 1), got nan"),
    ])
    def test_non_finite_depth_prior_refused(self, tmp_path, capsys, spec, message):
        cli.main(["synth", "--out", str(tmp_path), "--train-size", "40", "--test-size", "10"])
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            cli.main(["bayes", "--train", str(tmp_path / "synthetic_train.csv"), "--split-prior", spec,
                      "--out", str(out)])
        assert exited.value.code == 2
        assert f"argument --split-prior: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("decay, deeper", [("0", True), ("2000", False), ("1e308", False)])
    def test_depth_prior_underflow_keeps_splits_at_the_root(self, tmp_path, decay, deeper):
        """A decay that underflows the split probability below the root to
        0.0 runs to the end, and no state of the chain holds a split below
        the root: every birth there has log prior -inf.  Decay 0, on the
        same data and seed, grows deeper trees."""
        cli.main(["synth", "--out", str(tmp_path), "--train-size", "250", "--test-size", "10", "--seed", "1"])
        out = tmp_path / "out"
        rc = cli.main(["bayes", "--train", str(tmp_path / "synthetic_train.csv"), "--split-prior", f"depth:0.5:{decay}",
                       "--restarts", "2", "--burn-in", "100", "--post-burn-in", "100", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["proposed"]["birth"] > 0
        with open(out / "trace.csv") as fh:
            header = fh.readline().strip().split(",")
            splits = [int(line.split(",")[header.index("split_count")]) for line in fh]
        assert (max(splits) > 1) == deeper

    def test_change_rule_window_above_one_draw_refused(self, tmp_path, capsys):
        cli.main(["synth", "--out", str(tmp_path), "--train-size", "40", "--test-size", "10"])
        out = tmp_path / "out"
        rc = cli.main(["bayes", "--train", str(tmp_path / "synthetic_train.csv"), "--change-rule-window", "3000000000",
                       "--out", str(out)])
        assert rc == 2
        assert "change_rule_window must lie in 1..2**31" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fraction, held", [("0.001", 0), ("0.999", 250)])
    def test_validation_fraction_holding_out_no_row_or_every_row_is_a_setting(self, tmp_path, capsys, fraction, held):
        cli.main(["synth", "--out", str(tmp_path), "--train-size", "250", "--test-size", "10"])
        rc = cli.main(["forest", "--train", str(tmp_path / "synthetic_train.csv"), "--validation-fraction", fraction,
                       "--tree-count", "2", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"config error: validation_fraction {fraction} holds out {held} of 250 rows" in capsys.readouterr().err

    def test_missing_votes_is_data_error(self, tmp_path):
        rc = cli.main(["envelope", "--votes", str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
        assert rc == 3

    def test_envelope_report_written(self, tmp_path):
        votes = tmp_path / "votes.csv"
        votes.write_text("target,vote_0,vote_1\n0,9,1\n1,0,10\n")
        rc = cli.main(["envelope", "--votes", str(votes), "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "envelope_report.json").read_text())
        assert payload["per_input"][0]["accuracy"] == 1.0

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text("fold_count=3\ntrain_size=60\ntest_size=40\nrestarts=2\nburn_in=50\npost_burn_in=50\ntree_count=8\nmin_leaf_rows=3\nseed=5\n")
        out = tmp_path / "out"
        rc = cli.main(
            ["bench", "synthetic", "--config", str(config), "--out", str(out), "--technique", "forest"]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report["techniques"]) == ["forest"]  # flag overrode nothing explicit
        assert len(report["techniques"]["forest"]["per_fold"]) == 3  # from file

    def test_config_file_unknown_key(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text("not_a_key=1\n")
        rc = cli.main(["bench", "synthetic", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TREEUQ_OUT", str(tmp_path / "envout"))
        parser = cli.build_parser()
        args = parser.parse_args(["synth"])
        assert args.out == str(tmp_path / "envout")


# Each subcommand's option strings and the bench config-file keys, as the
# parser built them before the options became one table.
PINNED_OPTIONS = {
    "synth": "--help --out --seed --test-size --train-size -h",
    "bayes": "--alpha --burn-in --change-rule-window --confidence --help --max-leaves --min-leaf-rows --move-probs "
    "--out --paper-scale --post-burn-in --restarts --sample-rate --schema --seed --split-prior --test --train "
    "--workers -h",
    "forest": "--confidence --help --min-leaf-rows --out --schema --seed --test --top-k "
    "--train --tree-count --validation-fraction --workers -h",
    "envelope": "--confidence --help --out --votes -h",
    "sweep": "--help --out --start --step --stop --votes -h",
    "bench": "--alpha --burn-in --change-rule-window --confidence --config --data-dir --datasets --fold-count --help "
    "--manifest --max-leaves --min-leaf-rows --move-probs --out --paper-scale --post-burn-in --restarts "
    "--sample-rate --seed --split-prior --sweep --technique --test-size --top-k --train-size --tree-count "
    "--validation-fraction --workers -h protocol",
}
PINNED_CONFIG_KEYS = (
    "alpha burn_in change_rule_window confidence data_dir datasets fold_count max_leaves min_leaf_rows move_probs "
    "paper_scale post_burn_in restarts sample_rate seed split_prior sweep technique test_size top_k train_size "
    "tree_count validation_fraction workers"
)

# The `config` object of a manifest written before ExperimentConfig had
# to_dict/from_dict, by `treeuq bench synthetic --seed 5 --fold-count 2
# --train-size 60 --test-size 40 --restarts 2 --burn-in 30 --post-burn-in 30
# --tree-count 6 --top-k 3 --min-leaf-rows 3 --alpha 0.5 --split-prior
# depth:0.9:1.2 --move-probs 0.2,0.2,0.1,0.5 --sweep`, and the SHA-256 of
# the report.json that run wrote.  A replay sets out_dir from --out.
OLD_MANIFEST_CONFIG = {
    "confidence": 0.99,
    "data_dir": None,
    "datasets": ["ionosphere", "wisconsin", "image", "votes", "sonar", "vehicle", "pima"],
    "fold_count": 2,
    "forest": {"min_leaf_rows": 3, "seed": 0, "top_k": 3, "tree_count": 6, "validation_fraction": 0.3},
    "mcmc": {
        "burn_in": 30,
        "change_rule_window": 2,
        "dirichlet_alpha": 0.5,
        "max_leaves": None,
        "min_leaf_rows": 3,
        "move_probs": [0.2, 0.2, 0.1, 0.5],
        "post_burn_in": 30,
        "restarts": 2,
        "sample_rate": 1,
        "seed": 0,
        "split_prior": {"base": 0.9, "decay": 1.2, "kind": "depth_penalty"},
    },
    "out_dir": "runs/small",
    "protocol": "synthetic",
    "seed": 5,
    "sweep": True,
    "technique": "both",
    "test_size": 40,
    "train_size": 60,
    "workers": 1,
}
OLD_MANIFEST_REPORT_SHA256 = "5b7e33300ca21add45b47ce7938d9b678f983c77f07320e7d3ed9dd3fc85fcff"


@pytest.fixture(scope="module")
def tiny_csvs(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_csvs")
    cli.main(["synth", "--out", str(out), "--train-size", "60", "--test-size", "40", "--seed", "4"])
    return ["--train", str(out / "synthetic_train.csv"), "--test", str(out / "synthetic_test.csv")]


class TestOptionTable:
    def test_option_strings_and_config_keys_pinned(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        found = {
            name: " ".join(sorted(s for a in sub._actions for s in (a.option_strings or [a.dest])))
            for name, sub in commands.choices.items()
        }
        assert found == PINNED_OPTIONS
        assert " ".join(sorted(cli._CONFIG_KEYS)) == PINNED_CONFIG_KEYS
        assert len(cli._CONFIG_KEYS) == 24

    @pytest.mark.parametrize("command", ["bayes", "forest", "bench"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys, tiny_csvs, command, workers):
        argv = ["bench", "synthetic"] if command == "bench" else [command, *tiny_csvs]
        rc = cli.main([*argv, "--workers", workers, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("bayes", ["--alpha", "inf"], "dirichlet_alpha must be positive and finite, got inf"),
            ("bayes", ["--alpha", "nan"], "dirichlet_alpha must be positive and finite, got nan"),
            ("bayes", ["--alpha", "1e308"], "alpha entries must be positive with a finite sum"),
            ("bayes", ["--alpha", "1e306"], "log Gamma of its sum overflows"),
            ("bayes", ["--burn-in", "10", "--post-burn-in", "10", "--sample-rate", "20"],
             "sample_rate 20 exceeds post_burn_in 10"),
            ("bayes", ["--confidence", "0.5"], "confidence must lie in (1/2, 1] for 2 classes, got 0.5"),
            ("forest", ["--confidence", "0.5"], "confidence must lie in (1/2, 1] for 2 classes, got 0.5"),
            ("bench", ["--confidence", "0.5"], "confidence must lie in (1/2, 1] for 2 classes, got 0.5"),
            ("bench", ["--alpha", "1e308"], "alpha entries must be positive with a finite sum"),
            ("bayes", ["--max-leaves", "1"], "max_leaves must be at least 2 (a chain starts from one split), got 1"),
            ("bench", ["--max-leaves", "1"], "max_leaves must be at least 2 (a chain starts from one split), got 1"),
        ],
        ids=["alpha_inf", "alpha_nan", "alpha_sum_inf", "alpha_lgam_inf", "sample_rate", "bayes_confidence",
             "forest_confidence", "bench_confidence", "bench_alpha", "bayes_max_leaves", "bench_max_leaves"],
    )
    def test_refused_before_any_output(self, tmp_path, capsys, tiny_csvs, command, flags, message):
        argv = ["bench", "synthetic"] if command == "bench" else [command, *tiny_csvs]
        rc = cli.main([*argv, *flags, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["true", "1", "yes", "on", "TRUE", "On"])
    def test_config_booleans_true(self, text):
        assert cli._parse_bool(text) is True

    @pytest.mark.parametrize("text", ["false", "0", "no", "off", "False", "OFF"])
    def test_config_booleans_false(self, text):
        assert cli._parse_bool(text) is False

    @pytest.mark.parametrize("line", ["sweep=ture", "paper_scale=maybe", "sweep=", "paper-scale=2"])
    def test_config_boolean_typo_is_config_error(self, tmp_path, capsys, line):
        config = tmp_path / "bench.cfg"
        config.write_text(line + "\n")
        rc = cli.main(["bench", "synthetic", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config key {line.split('=')[0].replace('-', '_')}:" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--seed", "9", "--fold-count", "3"], "--fold-count, --seed"),
            (["--config", "bench.cfg"], "--config"),
            (["--sweep"], "--sweep"),
        ],
    )
    def test_manifest_takes_only_out(self, synthetic_run, tmp_path, capsys, extra, named):
        out, _, _ = synthetic_run
        rc = cli.main(["bench", "synthetic", "--manifest", str(out / "manifest.json"), *extra,
                       "--out", str(tmp_path / "rerun")])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "rerun").exists()

    def test_manifest_of_another_protocol_refused(self, synthetic_run, tmp_path, capsys):
        out, _, _ = synthetic_run
        rc = cli.main(["bench", "uci", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "rerun")])
        assert rc == 2
        assert "records a bench synthetic run, not bench uci" in capsys.readouterr().err
        assert not (tmp_path / "rerun").exists()

    @pytest.mark.parametrize("content", [b"not json\n", b"\xff{}\n"])
    def test_unreadable_manifest_is_named(self, tmp_path, capsys, content):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(content)
        rc = cli.main(["bench", "synthetic", "--manifest", str(manifest), "--out", str(tmp_path / "rerun")])
        assert rc == 2
        assert str(manifest) in capsys.readouterr().err
        assert not (tmp_path / "rerun").exists()

    def test_replays_manifest_config_written_before_round_trip(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"config": OLD_MANIFEST_CONFIG}))
        out = tmp_path / "replay"
        assert cli.main(["bench", "synthetic", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == OLD_MANIFEST_REPORT_SHA256
        replayed = json.loads((out / "manifest.json").read_text())["config"]
        assert replayed == OLD_MANIFEST_CONFIG | {"out_dir": str(out)}

    def test_config_file_sets_every_kind_of_setting(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text(
            "move-probs=0.2,0.2,0.1,0.5\nalpha=0.5\nsplit_prior=depth:0.95:1.5\nmin_leaf_rows=3\n"
            "tree_count=7\ntop_k=4\nsweep=yes\npaper_scale=off\ndatasets=sonar, pima\n"
        )
        args = cli.build_parser().parse_args(["bench", "synthetic", "--config", str(config), "--top-k", "5"])
        cli._fill_from_config(args)
        cfg = cli._config(args)
        assert cfg.mcmc == dataclasses.replace(
            bench.DESK_MCMC,
            move_probs=(0.2, 0.2, 0.1, 0.5),
            dirichlet_alpha=0.5,
            split_prior=mcmc.DepthPenaltySplitPrior(base=0.95, decay=1.5),
            min_leaf_rows=3,
        )
        assert cfg.forest == forest.ForestConfig(tree_count=7, top_k=5, min_leaf_rows=3)
        assert (cfg.sweep, cfg.datasets) == (True, ("sonar", "pima"))

    def test_cli_writes_through_the_bench_diagnostics(self, tmp_path, tiny_csvs):
        """`treeuq bayes` keeps about 200 sampled trees, as bench does, and
        `treeuq forest` writes validation accuracies in bench's .10g form."""
        out = tmp_path / "bayes"
        assert cli.main(["bayes", *tiny_csvs, "--restarts", "2", "--burn-in", "50", "--post-burn-in", "250",
                         "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "paths.csv", "samples.txt", "size_histogram.csv", "summary.json", "trace.csv", "votes.csv"
        ]
        assert len(read_tree_file(out / "samples.txt")) == 250  # 500 samples, every 500 // 200 = 2nd kept
        summary = json.loads((out / "summary.json").read_text())
        assert summary["proposed"].keys() == summary["accepted"].keys() == set(mcmc.MOVE_KINDS)
        assert sum(summary["proposed"].values()) == 2 * (50 + 250)  # restarts x (burn-in + post-burn-in)
        assert summary["acceptance_rate"] == sum(summary["accepted"].values()) / (2 * (50 + 250))
        out = tmp_path / "forest"
        assert cli.main(["forest", *tiny_csvs, "--tree-count", "5", "--out", str(out)]) == 0
        headers = [line for line in (out / "forest.txt").read_text().splitlines() if line.startswith("tree ")]
        accuracies = [re.search(r"validation_acc=(\S+)$", line).group(1) for line in headers]
        assert len(accuracies) == 5
        assert all(a == format(float(a), ".10g") for a in accuracies)


split_priors = st.one_of(
    st.just(mcmc.UniformSplitPrior()),
    st.builds(
        mcmc.DepthPenaltySplitPrior,
        base=st.floats(0.01, 0.99),
        decay=st.floats(0.0, 4.0),
    ),
)
alphas = st.one_of(
    st.floats(0.01, 10.0),
    st.lists(st.floats(0.01, 10.0), min_size=2, max_size=4).map(tuple),
)
experiment_configs = st.builds(
    ExperimentConfig,
    technique=st.sampled_from(["bayes", "forest", "both"]),
    mcmc=st.builds(
        mcmc.McmcConfig,
        move_probs=st.sampled_from([(0.1, 0.1, 0.1, 0.7), (0.25, 0.25, 0.25, 0.25), (0.2, 0.2, 0.1, 0.5)]),
        burn_in=st.integers(1, 5000),
        restarts=st.integers(1, 60),
        min_leaf_rows=st.integers(1, 40),
        dirichlet_alpha=alphas,
        split_prior=split_priors,
        max_leaves=st.none() | st.integers(2, 100),
        change_rule_window=st.none() | st.integers(1, 5),
        seed=st.integers(0, 2**62),
    ),
    forest=st.builds(
        forest.ForestConfig,
        tree_count=st.integers(1, 500),
        top_k=st.integers(1, 50),
        validation_fraction=st.floats(0.01, 0.99),
    ),
    fold_count=st.integers(2, 10),
    confidence=st.floats(0.5, 1.0),
    seed=st.integers(0, 2**31),
    out_dir=st.sampled_from([Path("runs"), Path("out/run 1")]),
    sweep=st.booleans(),
    data_dir=st.none() | st.sampled_from([Path("data"), Path("/data/uci sets")]),
    datasets=st.lists(st.sampled_from(sorted(bench.UCI_TABLE)), unique=True).map(tuple),
    workers=st.integers(1, 8),
)


@given(cfg=experiment_configs)
@settings(max_examples=200, deadline=None)
def test_experiment_config_round_trips_through_json(cfg):
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_traced_names_resolve():
    """Every (module, function) the benchmark tracer wraps exists on treeuq.<module>:
    `perfbench/tracer.py` looks each one up at start-up, so a missing name
    would stop every traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{module}.{name}" for module, name in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"treeuq.{module}"), name, None))
    ]
    assert missing == []


def test_tracer_hooks_count_predicted_samples(tmp_path):
    """The benchmark tracer's `predict_average` hook takes `len(samples)`
    and `{s.tree for s in samples}` of its argument: a traced `bayes --test`
    run records the sample count and between 1 and that many distinct
    trees."""
    root = Path(__file__).resolve().parents[1]
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 2))
    y = (X[:, 0] > 0).astype(np.int64)
    write_csv(Dataset(X[:40], y[:40], 2, ("a", "b")), tmp_path / "train.csv")
    write_csv(Dataset(X[40:], y[40:], 2, ("a", "b")), tmp_path / "test.csv")
    spans = tmp_path / "spans.npz"
    subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), "--spans", str(spans), "--run-id", "guard", "cli",
         "--", "bayes", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
         "--restarts", "2", "--burn-in", "30", "--post-burn-in", "40", "--min-leaf-rows", "3",
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1"),
        check=True, capture_output=True, timeout=300,
    )
    with np.load(spans) as recorded:
        counters = dict(zip(recorded["counter_keys"].tolist(), recorded["counter_values"].tolist()))
    assert counters["predict.samples"] == 2 * 40
    assert 1 <= counters["predict.distinct"] <= 2 * 40
