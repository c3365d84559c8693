#!/usr/bin/env python3
"""SHA-256 of every output file of the treeuq commands below, per seed.

    python3 scripts/output_digests.py --seeds 1-3 --out FILE [--workers N]

For each seed, in a temporary directory, this runs the `src` tree next to
this script:
  - `treeuq bench synthetic --sweep`;
  - `treeuq synth`, then `treeuq bayes` on its CSVs: 4 restarts x
    (2000 + 2000), sample rate 1;
  - `treeuq bayes --min-leaf-rows 1 --change-rule-window 1` on them too,
    2 restarts x (1000 + 1000): trees of up to about 16 splits with
    single-row leaves, and change-rule steps of one grid value;
  - `treeuq bayes --alpha 0.37 --split-prior depth:0.95:1.5` on them too,
    2 restarts x (1000 + 1000): log-gamma of non-integer arguments, and
    the depth-penalty prior;
  - `treeuq forest --test` on the same CSVs;
  - `treeuq forest --test --tree-count 37 --min-leaf-rows 1` on them too:
    deep trees, and a tree count that no worker count divides evenly.

FILE gets one sorted line `<seed> <command>/<file> <sha256>` per output
file.  manifest.json is left out: it records wall-clock times, so it
differs between any two runs.  Run the script in two checkouts, or at two
worker counts, and `diff` the two files: an empty diff means every output
is byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_seeds(text: str) -> list[int]:
    """`1-3` or `1,4,7` (ranges and lists may mix)."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def treeuq(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "treeuq", *args], env=env, check=True, stdout=subprocess.DEVNULL)


def run_seed(seed: int, workers: int, work: Path) -> list[str]:
    common = ["--seed", str(seed), "--workers", str(workers)]
    treeuq("synth", "--seed", str(seed), "--out", str(work / "synth"))
    csvs = ["--train", str(work / "synth" / "synthetic_train.csv"), "--test", str(work / "synth" / "synthetic_test.csv")]
    treeuq("bench", "synthetic", "--sweep", *common, "--out", str(work / "bench"))
    treeuq("bayes", *csvs, "--restarts", "4", "--burn-in", "2000", "--post-burn-in", "2000",
           "--sample-rate", "1", *common, "--out", str(work / "bayes"))
    treeuq("bayes", *csvs, "--min-leaf-rows", "1", "--change-rule-window", "1", "--restarts", "2",
           "--burn-in", "1000", "--post-burn-in", "1000", *common, "--out", str(work / "bayes_deep"))
    treeuq("bayes", *csvs, "--alpha", "0.37", "--split-prior", "depth:0.95:1.5", "--restarts", "2",
           "--burn-in", "1000", "--post-burn-in", "1000", *common, "--out", str(work / "bayes_alpha"))
    treeuq("forest", *csvs, *common, "--out", str(work / "forest"))
    treeuq("forest", *csvs, *common, "--tree-count", "37", "--min-leaf-rows", "1",
           "--out", str(work / "forest_deep"))
    lines = []
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{seed} {path.relative_to(work).as_posix()} {digest}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-3", help="e.g. 1-3 or 1,4,7")
    ap.add_argument("--out", required=True, help="digest file to write")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)
    lines = []
    for seed in parse_seeds(args.seeds):
        with tempfile.TemporaryDirectory() as tmp:
            lines += run_seed(seed, args.workers, Path(tmp))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
