"""treeuq benchmark harness.

One workload, one seed (the form of BENCHMARK.json's command):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The BENCHMARK.json workloads (or --workloads a,b) over a list of seeds,
each run in a fresh process, with the median and quartile spread of every
metric (the command to quote results from):

    python3 perfbench/run.py --all --seeds 1-10 --seconds 60 [--trace 0|1]

Harness self-check at minimal sizes:

    python3 perfbench/run.py --self-check

A run writes its inputs with several fresh set-up processes (`setup_s`),
then starts the program again and again with the same seed until --seconds
are used (at least once), checking every output.  With --trace 1 it spends
half of --seconds on untraced runs and then runs the workload once more
under `tracer.py` for the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  Everything else,
including the environment stamp, goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spec
from layers import Spans, per_layer
from workloads import WORKLOADS, output_checks

ROOT = spec.ROOT
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The program sees the checkout's src/ and single-threaded BLAS, so the
    pool workers are the only parallelism."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one process to completion; wall from spawn to reap, rusage of the
    process and every child it waited for (the pool workers)."""
    load_before = os.getloadavg()
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        # past the deadline, kill the program and its pool workers together
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "load_before": load_before,
        "load_after": os.getloadavg(),
    }


def environment() -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo if ln.startswith("model name")), "unknown")
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def _inputs_digest(path: Path) -> str:
    return checks.digest(p for p in path.rglob("*") if p.is_file())


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


class Run:
    """One workload at one seed: set-up, untraced repeats, optional trace."""

    def __init__(self, name: str, seed: int, seconds: float, minimal: bool):
        self.workload = WORKLOADS[name](minimal)
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inputs = self.dir / "inputs"
        self.invocations: list[dict] = []
        self.failures: list[str] = []
        self.notes: list[str] = []

    def _program(self, tag: str, workers: int = 1, spans: Path | None = None) -> dict:
        out = self.dir / tag
        w = self.workload
        args = w.args(self.seed, self.inputs, out, workers)
        if spans is None:
            argv = ["-m", "treeuq", *args]
        else:
            argv = [str(HERE / "tracer.py"), "--spans", str(spans), "--run-id", tag, "cli", "--", *args]
        inv = invoke(argv, self.dir / f"{tag}.log", self.deadline)
        failures, quality = output_checks(w, inv["code"], out)
        inv.update(tag=tag, out=out, failures=failures, quality=quality, traced=spans is not None)
        inv["digest"] = checks.digest(w.digest_files(out)) if not failures else None
        self.invocations.append(inv)
        return inv

    def setup(self) -> float:
        """Write the inputs SETUP_REPEATS times in fresh processes; median wall."""
        walls, digests = [], []
        for i in range(SETUP_REPEATS):
            shutil.rmtree(self.inputs, ignore_errors=True)
            argv = [str(HERE / "inputs.py"), "--workload", self.workload.name, "--seed", str(self.seed), "--out", str(self.inputs)]
            inv = invoke(argv, self.dir / f"setup{i}.log", self.deadline)
            if inv["code"] != 0:
                raise SystemExit(f"set-up failed (exit {inv['code']}); see {self.dir / f'setup{i}.log'}")
            walls.append(inv["wall_s"])
            digests.append(_inputs_digest(self.inputs))
        self.generator = json.loads((self.dir / f"setup{SETUP_REPEATS - 1}.log").read_text().splitlines()[-1])
        self.failures += checks.same_digest(digests, "set-up inputs")
        return statistics.median(walls)

    def repeat_untraced(self, budget_s: float) -> list[dict]:
        """Closed loop: start the next run only if it should end within budget."""
        runs, begin = [], time.monotonic()
        while True:
            runs.append(self._program(f"run{len(runs)}"))
            elapsed = time.monotonic() - begin
            typical = statistics.median(r["wall_s"] for r in runs)
            if elapsed + typical > budget_s or time.monotonic() + 2 * typical > self.deadline:
                return runs

    def trace(self, untraced: list[dict]) -> dict[str, float]:
        w = self.workload
        setup_spans = self.dir / "spans-setup.npz"
        argv = [str(HERE / "tracer.py"), "--spans", str(setup_spans), "--run-id", "setup", "inputs", "--",
                "--workload", w.name, "--seed", str(self.seed), "--out", str(self.dir / "inputs-traced")]
        if invoke(argv, self.dir / "setup-traced.log", self.deadline)["code"] != 0:
            self.failures.append("traced set-up failed")
        self.failures += checks.same_digest(
            [_inputs_digest(self.inputs), _inputs_digest(self.dir / "inputs-traced")], "traced vs untraced set-up")
        traced = self._program("traced", spans=self.dir / "spans-traced.npz")
        pooled = traced
        if w.pool_workers > 1:
            self.notes.append(
                "run_restarts.s, cpu_share and pool_result_bytes come from a second traced run at "
                f"--workers {w.pool_workers}; every other metric from the traced run at --workers 1, "
                "because spans inside pool workers are lost")
            pooled = self._program("traced_pool", workers=w.pool_workers, spans=self.dir / "spans-traced_pool.npz")
            for (a, _), (b, _) in zip(w.votes(pooled["out"]), w.votes(untraced[0]["out"])):
                pooled["failures"] += [f"--workers {w.pool_workers} vs 1: {p}" for p in checks.equal_votes(a, b)]
        setup = Spans(setup_spans) if setup_spans.exists() else None
        for inv in (traced, pooled):
            if not (self.dir / f"spans-{inv['tag']}.npz").exists():
                raise SystemExit(f"traced run {inv['tag']} wrote no spans: " + "; ".join(inv["failures"]))
        program = Spans(self.dir / "spans-traced.npz")
        pool = program if pooled is traced else Spans(self.dir / "spans-traced_pool.npz")
        metrics = per_layer(
            program, pool, setup,
            program_wall_s=traced["wall_s"],
            untraced_median_s=statistics.median(r["wall_s"] for r in untraced),
            artifact_bytes=_tree_bytes(traced["out"]),
        )
        idle = sorted(k for k, v in metrics.items() if v == 0)
        if idle:
            self.notes.append("read 0 because this workload never calls them: " + ", ".join(idle))
        return metrics

    def execute(self, trace: bool) -> dict:
        setup_s = self.setup()
        untraced = self.repeat_untraced(self.seconds / 2 if trace else self.seconds)
        layer_metrics = self.trace(untraced) if trace else {}

        digests = [inv["digest"] for inv in self.invocations if inv["digest"]]
        self.failures += checks.same_digest(digests, "outputs of one seed")
        good = [inv for inv in untraced if not inv["failures"]]
        failed = sum(1 for inv in self.invocations if inv["failures"])
        if not good:
            raise SystemExit("no untraced run passed its checks: " + "; ".join(self.invocations[0]["failures"]))
        if self.failures:
            failed = max(failed, 1)

        quality = {k: statistics.median(inv["quality"][k] for inv in good) for k in good[0]["quality"]}
        accuracy = [v for k, v in quality.items() if k.endswith("_accuracy")]
        e2e = {
            "wall_s": statistics.median(inv["wall_s"] for inv in good),
            "setup_s": setup_s,
            "cpu_s": statistics.median(inv["cpu_s"] for inv in good),
            "peak_rss_mb": statistics.median(inv["peak_rss_mb"] for inv in good),
            "accuracy": sum(accuracy) / len(accuracy),
        }
        extra = dict(quality, failed_share=failed / len(self.invocations))
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": trace,
            "minimal": self.workload.minimal,
            "environment": environment(),
            "inputs": self.generator,
            "untraced_runs": len(good),
            "end_to_end": e2e,
            "reported_only": extra,
            "per_layer": layer_metrics,
            "notes": self.notes,
            "failures": self.failures + [f"{inv['tag']}: {f}" for inv in self.invocations for f in inv["failures"]],
            "attempted": len(self.invocations),
            "failed": failed,
            "invocations": [
                {k: v for k, v in inv.items() if k != "out"} for inv in self.invocations
            ],
        }


def run_one(name: str, seed: int, seconds: float, trace: bool, minimal: bool) -> int:
    if not (ROOT / "src" / "treeuq" / "__init__.py").is_file():
        print(f"error: no treeuq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(name, seed, seconds, minimal)
    result = run.execute(trace)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    suffix = "-minimal" if minimal else ""
    (results / f"{name}-seed{seed}-trace{int(trace)}{suffix}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True, default=str) + "\n")
    for spans in run.dir.glob("spans-*.npz"):
        shutil.move(spans, results / f"{name}-seed{seed}{suffix}-{spans.name}")
    shutil.rmtree(run.dir, ignore_errors=True)

    units = {n: u for n, u, *_ in spec.END_TO_END} | {n: u for n, u, _ in spec.REPORTED_ONLY}
    print(f"{name} seed {seed}: {result['untraced_runs']} untraced runs, {SETUP_REPEATS} set-ups (medians)")
    for key, value in (result["end_to_end"] | result["reported_only"]).items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    layer_units = {n: u for n, u, _ in spec.PER_LAYER}
    for key, value in result["per_layer"].items():
        print(f"{name} {key} = {value:.6g} {layer_units[key]} (traced)")
    for note in result["notes"]:
        print(f"note: {note}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")

    chosen = result["per_layer"] if trace else result["end_to_end"]
    units = layer_units if trace else units
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# Suite: every workload over several seeds, each run in a fresh process
# ---------------------------------------------------------------------------


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_suite(names: list[str], seeds: list[int], seconds: float, trace: bool, minimal: bool = False) -> dict:
    """Interleave workloads per seed; return {workload: [last-line objects]}."""
    lines: dict[str, list[dict]] = {n: [] for n in names}
    for seed in seeds:
        for name in names:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(int(trace))] + (["--minimal"] if minimal else [])
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = done.stdout.strip().splitlines()[-1:] if done.returncode == 0 else []
            if not last:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            lines[name].append(json.loads(last[0]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in lines[name][-1]["metrics"].items()), flush=True)
    return lines


def summarize(lines: dict[str, list[dict]], trace: bool) -> dict:
    bounds = {n: bound for n, _, _, bound, _ in spec.END_TO_END}
    table: dict = {}
    for name, results in lines.items():
        attempted = sum(r["attempted"] for r in results)
        row = {"runs": len(results), "failed_share": sum(r["failed"] for r in results) / max(attempted, 1)}
        print(f"\n{name}: {len(results)} runs, failed_share = {row['failed_share']:.4g}")
        for metric in (results[0]["metrics"] if results else {}):
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
            spread = (q3 - q1) / abs(median) if median else 0.0
            row[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
            verdict = ""
            if not trace and metric in bounds:
                third = "ok" if spread < bounds[metric] / 3 else "WIDE"
                verdict = f"  spread/bound = {spread:.4f}/{bounds[metric]} {third}"
            print(f"  {metric:45s} median {median:<12.6g} {unit:6s} q1 {q1:<10.5g} q3 {q3:<10.5g}{verdict}")
        table[name] = row
    return table


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------


def self_check() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(bench == spec.benchmark_json(), "BENCHMARK.json matches spec.py")
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    expect(all(name_ok.match(n) for n in names) and len(set(names)) == len(names), "names legal and unique")
    expect(all(unit_ok.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"]), "units legal")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"]), "every why is one line of <= 200 chars")
    expect(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds within (0, 0.25]")

    for trace in (False, True):
        lines = run_suite(list(WORKLOADS), [1], 1, trace, minimal=True)
        wanted = {n: u for n, u, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)}
        for name, results in lines.items():
            got = results[0]["metrics"] if results else {}
            expect(bool(results) and results[0]["correct"], f"{name} trace={int(trace)}: minimal run correct")
            expect({k: v["unit"] for k, v in got.items()} == wanted,
                   f"{name} trace={int(trace)}: every {'per-layer' if trace else 'end-to-end'} metric emitted with its unit")

    # every check can fail, shown on the real outputs of a minimal run
    run = Run("desk_synthetic", 1, 1, minimal=True)
    run.setup()
    inv = run._program("run0")
    expect(not inv["failures"], "output checks pass a minimal desk_synthetic run")
    votes, classifiers = run.workload.votes(inv["out"])[0]
    original = run.dir / "original_votes.csv"
    shutil.copy(votes, original)
    lines = votes.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = str(int(cells[1]) + 1)
    votes.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    failures_after, _ = output_checks(run.workload, 0, inv["out"])
    expect(any(votes.name in f for f in failures_after), "output checks fail a corrupted votes file")
    expect(checks.votes_rows(run.dir / "missing.csv", classifiers) != [], "votes check fails a missing file")
    expect(output_checks(run.workload, 1, inv["out"])[0] != [], "exit-code check fails a non-zero exit")
    expect(checks.same_digest([inv["digest"], checks.digest(run.workload.digest_files(inv["out"]))], "x") != [],
           "repeat-digest check fails when one repeat's bytes differ")
    expect(checks.floor(0.5, 0.8, "accuracy") != [], "accuracy floor check fails a low accuracy")
    expect(checks.equal_votes(original, original) == [] and checks.equal_votes(original, votes) != [],
           "serial-vs-parallel check fails differing votes")
    shutil.rmtree(run.dir, ignore_errors=True)

    print(f"\nself-check: {'FAILED ' + str(len(failures)) if failures else 'all passed'}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--minimal", action="store_true", help="shrink every size (self-check)")
    parser.add_argument("--all", action="store_true", help="the BENCHMARK.json workloads over --seeds")
    parser.add_argument("--seeds", default=None, help="e.g. 1-10 or 3,5,8 (with --all)")
    parser.add_argument("--workloads", default=None, help="comma list (with --all)")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if args.self_check:
        return self_check()
    if args.all:
        names = args.workloads.split(",") if args.workloads else list(spec.WORKLOADS)
        seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
        table = summarize(run_suite(names, seeds, args.seconds, bool(args.trace), args.minimal), bool(args.trace))
        WORK.mkdir(exist_ok=True)
        (WORK / f"suite-trace{args.trace}.json").write_text(
            json.dumps({"seeds": seeds, "seconds": args.seconds, "environment": environment(), "workloads": table},
                       indent=2, sort_keys=True) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload, --all or --self-check is required")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.minimal)


if __name__ == "__main__":
    sys.exit(main())
