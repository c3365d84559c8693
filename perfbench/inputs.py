"""Set-up process of one workload: import treeuq, then write the workload's inputs.

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR

The harness times this process from start to exit as `setup_s`.  Inputs
depend on the seed only, so the same seed always gives the same files.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

import treeuq.cli
from treeuq import data

# Shape of the registry entry `vehicle` (treeuq.bench.UCI_TABLE): 4 classes,
# 18 features, 564 + 282 rows.  The first INFORMATIVE features carry the
# class signal; the rest are pure noise.
VEHICLE = {
    "generator": "class-conditional Gaussians",
    "classes": 4,
    "features": 18,
    "rows": 564 + 282,
    "informative": 8,
    "informative_share": 8 / 18,
    "class_shift": 2.5,
    "noise_sd": 1.0,
    "decimals": 3,
    "labels": "0-3, balanced, shuffled",
}


def vehicle_dataset(seed: int) -> data.Dataset:
    """Class c raises the mean of informative features j with j % classes == c."""
    p = VEHICLE
    rng = np.random.default_rng(seed)
    labels = np.arange(p["rows"]) % p["classes"]
    rng.shuffle(labels)
    means = np.zeros((p["classes"], p["features"]))
    for j in range(p["informative"]):
        means[j % p["classes"], j] = p["class_shift"]
    features = means[labels] + rng.normal(0.0, p["noise_sd"], size=(p["rows"], p["features"]))
    return data.Dataset(
        features=np.round(features, p["decimals"]),
        labels=labels,
        class_count=p["classes"],
        feature_names=tuple(f"f{j}" for j in range(p["features"])),
    )


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs and return the generator's parameters."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "desk_synthetic":
        # bench synthetic draws its own canonical data from --seed
        return {"generator": "treeuq bench synthetic (canonical mixture)", "seed": seed}
    if workload == "bayes_long_chain":
        code = treeuq.cli.main(["synth", "--out", str(out), "--seed", str(seed)])
        if code != 0:
            raise SystemExit(code)
        return {"generator": "treeuq synth", "seed": seed, "train_size": 250, "test_size": 1000}
    if workload == "forest_wide":
        (out / "data").mkdir(exist_ok=True)
        data.write_csv(vehicle_dataset(seed), out / "data" / "vehicle.csv")
        return VEHICLE | {"seed": seed}
    raise SystemExit(f"unknown workload {workload!r}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    params = write_inputs(args.workload, args.seed, Path(args.out))
    print(json.dumps(params, sort_keys=True))


if __name__ == "__main__":
    main()
