#!/usr/bin/env python3
"""Alternated benchmark pairs of two checkouts, written as one BENCH file.

    python3 scripts/bench_pair.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds 1-10 --seconds 60 --out BENCH_<pr>.json

For each seed this runs `perfbench/run.py --workload W --seed S --seconds
SEC --trace 0` once in each checkout, one after the other: the parent
first on the first seed, the change first on the next, and so on, so
neither side always runs on a host the other has just warmed or loaded.
Each run reads its end-to-end metrics from the last line run.py prints.

FILE gets, as JSON: every pair's metrics and failure counts; per metric
its unit and direction (from the change checkout's BENCHMARK.json), each
side's median, quartiles and spread (the change checkout's `run.py`
`summarize`, as `run.py --all` reports them), the change's median
relative to the parent's, and the number of pairs the change won
(strictly better); and each side's environment stamp as run.py records
it (CPU, Python, numpy, commit and a digest of `src/`).  The seed list
is read by that `run.py`'s `parse_seeds`; nothing else outside the
standard library is used.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path


def load_harness(checkout: Path):
    """`perfbench/run.py` of a checkout as a module (it imports its sibling
    modules, so their folder goes on the path)."""
    folder = checkout / "perfbench"
    sys.path.insert(0, str(folder))
    spec = importlib.util.spec_from_file_location("perfbench_run", folder / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `run.py` result: correct, attempted, failed, metrics, and the
    environment stamp of the result file it leaves."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run.py exited {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    stamp = checkout / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    result["environment"] = json.loads(stamp.read_text(encoding="utf-8"))["environment"]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    harness = load_harness(sides["change"])
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs, stamps, results = [], {}, {"parent": [], "change": []}
    for i, seed in enumerate(harness.parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result = run(sides[side], args.workload, seed, args.seconds)
            stamps[side] = result.pop("environment")
            results[side].append(result)
            pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
            pair[f"{side}_attempted"], pair[f"{side}_failed"] = result["attempted"], result["failed"]
        pairs.append(pair)
        print(f"seed {seed} ({order[0]} first): " + "  ".join(
            f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}" for name in pair["parent"]), flush=True)

    stats = harness.summarize(results, trace=False)  # prints each side's medians and quartiles
    summary = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent, change = ([p[side][name] for p in pairs] for side in ("parent", "change"))
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        base = stats["parent"][name]["median"]
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": stats["parent"][name], "change": stats["change"][name],
            "change_vs_parent": (stats["change"][name]["median"] - base) / base if base else None,
            "change_wins": wins, "pairs": len(pairs),
        }
    report = {
        "workload": args.workload, "seconds": args.seconds, "seeds": [p["seed"] for p in pairs],
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S --seconds {args.seconds:g} --trace 0",
        "environment": stamps, "summary": summary, "pairs": pairs,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("\nchange wins: " + ", ".join(f"{name} {row['change_wins']}/{row['pairs']}" for name, row in summary.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
