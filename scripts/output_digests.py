#!/usr/bin/env python3
"""SHA-256 of every output file of the treeuq commands below, per seed.

    python3 scripts/output_digests.py --seeds 1-3 --out FILE [--workers N]

For each seed, in a temporary directory, this runs the `src` tree next to
this script:
  - `treeuq bench synthetic --sweep`;
  - `treeuq envelope` on that run's five `bayes_fold<i>_votes.csv` (the
    per-input reports and their summary) and on its fold-0 file alone (no
    summary);
  - `treeuq sweep` on its five `forest_fold<i>_votes.csv` (the aggregated
    curve) and, with `--start 0.51 --stop 1 --step 0.01`, on its fold-0
    file alone (the single curve);
  - `treeuq synth`, then `treeuq bayes` on its CSVs: 4 restarts x
    (2000 + 2000), sample rate 1;
  - `treeuq bayes --min-leaf-rows 1 --change-rule-window 1` on them too,
    2 restarts x (1000 + 1000): trees of up to about 16 splits with
    single-row leaves, and change-rule steps of one grid value;
  - `treeuq bayes --alpha 0.37 --split-prior depth:0.95:1.5` on them too,
    2 restarts x (1000 + 1000): log-gamma of non-integer arguments, and
    the depth-penalty prior;
  - `treeuq bayes --sample-rate 7` on them too, 3 restarts x (500 + 700):
    thinned samples, so every sampled iteration number and the trees
    `samples.txt` keeps;
  - `treeuq bayes --min-leaf-rows 200` on them too, 2 restarts x (200 +
    200): no split leaves both sides 200 rows of the 250-row train, so
    every chain holds the root-only tree, and `samples.txt` and the
    predictions come from one-leaf trees;
  - `treeuq bayes --move-probs 0.4,0.4,0.1,0.1 --min-leaf-rows 2` on them
    too, 2 restarts x (1000 + 1000): mostly births and deaths, so most
    accepted moves insert or delete the chain state's node positions;
  - `treeuq bayes --move-probs 0.1,0.1,0.4,0.4 --min-leaf-rows 1
    --change-rule-window 3` on them too, 2 restarts x (1000 + 1000):
    mostly change moves on trees of up to about 14 splits, so most
    proposals re-route the rows of a subtree several levels deep, and
    change-rule steps of up to three grid values;
  - `treeuq bayes --min-leaf-rows 1` on a 2-row train CSV (the first
    row of each class of the synth train CSV) and the synth test CSV, 2
    restarts x (100 + 100): two rows cap a tree at one leaf, so every
    chain holds the root-only tree with a warning;
  - `treeuq bayes` on the synth CSVs with every feature rounded to a
    multiple of 0.5, 2 restarts x (1000 + 1000): every feature has ties,
    so every rule is drawn from the values read off the node's column;
  - `treeuq forest --test` on the same CSVs;
  - `treeuq forest --test --tree-count 37 --min-leaf-rows 1` on them too:
    deep trees, and a tree count that no worker count divides evenly;
  - `treeuq synth --test-size 2500`, then `treeuq bayes`, 2 restarts x
    (500 + 500), and `treeuq forest --test --tree-count 20` on its CSVs: a
    test set larger than one `tree.ROW_CHUNK`, predicted in chunks of
    1,024, 1,024 and 452 rows;
  - `treeuq bench synthetic --config FILE`, the file setting move_probs,
    alpha, split_prior=depth:0.95:1.5, min_leaf_rows, tree_count, top_k
    and sweep=true: the config-file path into every kind of setting;
  - `treeuq bench synthetic --manifest bench/manifest.json --out
    bench_replay`: a rerun from the first bench run's manifest;
  - `treeuq bench synthetic --train-size 10 --fold-count 5 --restarts 1
    --burn-in 5 --post-burn-in 5 --tree-count 2`: folds of 8 rows, where
    no split leaves 5 rows a side, so every tree is root-only and the
    report's size ratio is null;
  - the same with `--restarts 2 --min-leaf-rows 6`, out to
    `bench_headline_warns`: 6 rows a side rule out the 10-row full-train
    set too, so every fold and the headline run warn, each restart alike,
    and `report.json` pins the pooled warnings lists;
  - `treeuq bench uci --datasets pima --technique both` on a pima-shaped
    CSV (768 rows, 8 features, 2 classes) drawn from the seed, its
    features multiples of 0.5 so that values tie, 3 folds, 2 restarts x
    (100 + 100) and 20 trees: the registry split, pruning factor 30, and
    each fold's training rows reaching both techniques;
  - `treeuq bench uci --datasets vehicle --technique forest` on a
    vehicle-shaped CSV (846 rows, 18 features, 4 classes) drawn from the
    seed, its features rounded to 3 decimals, 3 folds and 20 trees: a
    forest of more than 2 classes, grown on the registry split with
    pruning factor 30.

FILE gets a first line `# python <version> numpy <version> workers <N>`,
then one sorted line `<seed> <command>/<file> <sha256>` per output file.  Each command's stderr is written next to its output directory as
`<out>.stderr` and digested like any other file, so the chain warnings of
`bayes` and of the bench fold and full-train runs are pinned too; stdout is
not kept, since `bench` prints wall-clock stage times there.  Each
manifest.json is digested with its `stage_seconds` removed: those are
wall-clock times, which differ between any two runs, while the
rest (the config round-trip included) must not.  Commands run inside the
temporary directory with relative output paths, so the `out_dir` that a
manifest records is the same in every run.  Run the script in two
checkouts and `diff` the two files: an empty diff means every output is
byte-identical.  To compare with a tree whose script is older (one that
digests no stderr), copy this script into a checkout of that tree and run
it there.  At two worker counts the bench runs' manifest.json lines
differ, since each manifest records its worker count; every other line
must not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_seeds(text: str) -> list[int]:
    """`1-3` or `1,4,7` (ranges and lists may mix)."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


# the --config run's file: one key of each kind that a config file can set
CONFIG = """move_probs=0.2,0.2,0.1,0.5
alpha=0.5
split_prior=depth:0.95:1.5
min_leaf_rows=3
tree_count=50
top_k=10
sweep=true
"""


def treeuq(work: Path, *args: str) -> None:
    """Run one command in work; its stderr goes to `<out>.stderr` there."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with (work / f"{args[args.index('--out') + 1]}.stderr").open("wb") as err:
        subprocess.run([sys.executable, "-m", "treeuq", *args], cwd=work, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=err)


def write_table(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    """A CSV of features a0, a1, ... and a last `class` column."""
    rows = [",".join([*(repr(float(x)) for x in row), str(label)]) for row, label in zip(X, y)]
    header = ",".join([*(f"a{i}" for i in range(X.shape[1])), "class"])
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def write_pima_shaped(path: Path, seed: int) -> None:
    """768 rows of 8 features, each a multiple of 0.5, and a 0/1 label
    that the first two features set up to Gaussian noise."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(768, 8)) * 2) / 2
    y = (X[:, 0] + X[:, 1] + rng.normal(size=768) > 0).astype(int)
    write_table(path, X, y)


def write_vehicle_shaped(path: Path, seed: int) -> None:
    """846 rows of 18 features rounded to 3 decimals, and a label of 4
    classes: the largest of the first four features, each plus half of
    another and Gaussian noise."""
    rng = np.random.default_rng([seed, 846])
    X = np.round(rng.normal(size=(846, 18)), 3)
    y = np.argmax(X[:, :4] + 0.5 * X[:, 4:8] + rng.normal(size=(846, 4)), axis=1)
    write_table(path, X, y)


def file_bytes(path: Path) -> bytes:
    """The file's bytes; a manifest's without its wall-clock stage_seconds."""
    if path.name != "manifest.json":
        return path.read_bytes()
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["stage_seconds"]
    return json.dumps(payload, indent=2, sort_keys=True).encode()


def run_seed(seed: int, workers: int, work: Path) -> list[str]:
    common = ["--seed", str(seed), "--workers", str(workers)]
    treeuq(work, "synth", "--seed", str(seed), "--out", "synth")
    csvs = ["--train", "synth/synthetic_train.csv", "--test", "synth/synthetic_test.csv"]
    treeuq(work, "bench", "synthetic", "--sweep", *common, "--out", "bench")
    bayes_votes, forest_votes = ([f"bench/{tag}_fold{i}_votes.csv" for i in range(5)] for tag in ("bayes", "forest"))
    treeuq(work, "envelope", *(a for v in bayes_votes for a in ("--votes", v)), "--out", "envelope")
    treeuq(work, "envelope", "--votes", bayes_votes[0], "--out", "envelope_one")
    treeuq(work, "sweep", *(a for v in forest_votes for a in ("--votes", v)), "--out", "sweep")
    treeuq(work, "sweep", "--votes", forest_votes[0], "--start", "0.51", "--stop", "1", "--step", "0.01",
           "--out", "sweep_one")
    treeuq(work, "bayes", *csvs, "--restarts", "4", "--burn-in", "2000", "--post-burn-in", "2000",
           "--sample-rate", "1", *common, "--out", "bayes")
    treeuq(work, "bayes", *csvs, "--min-leaf-rows", "1", "--change-rule-window", "1", "--restarts", "2",
           "--burn-in", "1000", "--post-burn-in", "1000", *common, "--out", "bayes_deep")
    treeuq(work, "bayes", *csvs, "--alpha", "0.37", "--split-prior", "depth:0.95:1.5", "--restarts", "2",
           "--burn-in", "1000", "--post-burn-in", "1000", *common, "--out", "bayes_alpha")
    treeuq(work, "bayes", *csvs, "--sample-rate", "7", "--restarts", "3", "--burn-in", "500",
           "--post-burn-in", "700", *common, "--out", "bayes_thinned")
    treeuq(work, "bayes", *csvs, "--min-leaf-rows", "200", "--restarts", "2", "--burn-in", "200",
           "--post-burn-in", "200", *common, "--out", "bayes_root_only")
    treeuq(work, "bayes", *csvs, "--move-probs", "0.4,0.4,0.1,0.1", "--min-leaf-rows", "2", "--restarts", "2",
           "--burn-in", "1000", "--post-burn-in", "1000", *common, "--out", "bayes_structural")
    treeuq(work, "bayes", *csvs, "--move-probs", "0.1,0.1,0.4,0.4", "--min-leaf-rows", "1",
           "--change-rule-window", "3", "--restarts", "2", "--burn-in", "1000", "--post-burn-in", "1000",
           *common, "--out", "bayes_changes")
    train_lines = (work / "synth" / "synthetic_train.csv").read_text(encoding="utf-8").splitlines()
    first_of_class: dict[str, str] = {}
    for line in train_lines[1:]:
        first_of_class.setdefault(line.rsplit(",", 1)[1], line)
    (work / "two_rows.csv").write_text("\n".join([train_lines[0], *first_of_class.values()]) + "\n", encoding="utf-8")
    treeuq(work, "bayes", "--train", "two_rows.csv", "--test", "synth/synthetic_test.csv", "--min-leaf-rows", "1",
           "--restarts", "2", "--burn-in", "100", "--post-burn-in", "100", *common, "--out", "bayes_two_rows")
    for name in ("train", "test"):
        lines = (work / "synth" / f"synthetic_{name}.csv").read_text(encoding="utf-8").splitlines()
        rounded = [",".join([*(repr(round(float(x) * 2) / 2) for x in row[:-1]), row[-1]])
                   for row in (line.split(",") for line in lines[1:])]
        (work / f"ties_{name}.csv").write_text("\n".join([lines[0], *rounded]) + "\n", encoding="utf-8")
    treeuq(work, "bayes", "--train", "ties_train.csv", "--test", "ties_test.csv", "--restarts", "2",
           "--burn-in", "1000", "--post-burn-in", "1000", *common, "--out", "bayes_ties")
    treeuq(work, "forest", *csvs, *common, "--out", "forest")
    treeuq(work, "forest", *csvs, *common, "--tree-count", "37", "--min-leaf-rows", "1", "--out", "forest_deep")
    treeuq(work, "synth", "--seed", str(seed), "--test-size", "2500", "--out", "synth_chunks")
    chunked = ["--train", "synth_chunks/synthetic_train.csv", "--test", "synth_chunks/synthetic_test.csv"]
    treeuq(work, "bayes", *chunked, "--restarts", "2", "--burn-in", "500", "--post-burn-in", "500", *common,
           "--out", "bayes_chunks")
    treeuq(work, "forest", *chunked, "--tree-count", "20", *common, "--out", "forest_chunks")
    (work / "bench.cfg").write_text(CONFIG, encoding="utf-8")
    treeuq(work, "bench", "synthetic", "--config", "bench.cfg", *common, "--out", "bench_config")
    treeuq(work, "bench", "synthetic", "--manifest", "bench/manifest.json", "--out", "bench_replay")
    treeuq(work, "bench", "synthetic", "--train-size", "10", "--fold-count", "5", "--restarts", "1", "--burn-in", "5",
           "--post-burn-in", "5", "--tree-count", "2", *common, "--out", "bench_zero_split")
    treeuq(work, "bench", "synthetic", "--train-size", "10", "--fold-count", "5", "--restarts", "2", "--burn-in", "5",
           "--post-burn-in", "5", "--tree-count", "2", "--min-leaf-rows", "6", *common, "--out", "bench_headline_warns")
    (work / "uci").mkdir()
    write_pima_shaped(work / "uci" / "pima.csv", seed)
    treeuq(work, "bench", "uci", "--data-dir", "uci", "--datasets", "pima", "--technique", "both", "--fold-count", "3",
           "--restarts", "2", "--burn-in", "100", "--post-burn-in", "100", "--tree-count", "20", *common,
           "--out", "bench_uci")
    write_vehicle_shaped(work / "uci" / "vehicle.csv", seed)
    treeuq(work, "bench", "uci", "--data-dir", "uci", "--datasets", "vehicle", "--technique", "forest",
           "--fold-count", "3", "--tree-count", "20", *common, "--out", "bench_uci_vehicle")
    lines = []
    for path in sorted(work.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(file_bytes(path)).hexdigest()
            lines.append(f"{seed} {path.relative_to(work).as_posix()} {digest}")
    return lines


def toolchain(workers: int) -> str:
    """The header line of FILE: the versions that the digests depend on."""
    return f"# python {sys.version.split()[0]} numpy {np.__version__} workers {workers}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-3", help="e.g. 1-3 or 1,4,7")
    ap.add_argument("--out", required=True, help="digest file to write")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)
    lines = [toolchain(args.workers)]
    for seed in parse_seeds(args.seeds):
        with tempfile.TemporaryDirectory() as tmp:
            lines += run_seed(seed, args.workers, Path(tmp))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
