"""`mcmc.lgam` and `mcmc.pairwise_sum` against the numpy and scipy
functions whose bits they reproduce, and the sampler's independence of
scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeuq.mcmc import lgam, pairwise_sum

SRC = Path(__file__).resolve().parent.parent / "src"

GRID_ALPHAS = (1e-3, 0.01, 0.1, 0.37, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 7.3, 12.9, 100.0, 1e3)
EDGES = (
    5e-324, 1e-300, 0.5, 1.0, np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0), 3.0,
    np.nextafter(13.0, 0.0), 13.0, np.nextafter(1000.0, 0.0), 1000.0, 1e8, np.nextafter(1e8, 2e8),
    2.556348e305, np.nextafter(2.556348e305, 3e305), 1e300, 1.7e308,
)


@pytest.fixture(scope="module")
def gammaln():
    return pytest.importorskip("scipy.special").gammaln


def assert_lgam_matches(gammaln, x: np.ndarray):
    want = gammaln(x).tolist()
    got = [lgam(v) for v in x.tolist()]
    mismatched = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not mismatched, mismatched[:5]


@pytest.mark.parametrize("alpha", GRID_ALPHAS)
def test_lgam_matches_gammaln_on_count_grid(gammaln, alpha):
    """k + alpha for every count k up to 1e5: the tables' arguments."""
    assert_lgam_matches(gammaln, np.arange(100_001, dtype=np.float64) + alpha)


def test_lgam_matches_gammaln_on_random_sweep(gammaln):
    rng = np.random.default_rng(20)
    assert_lgam_matches(gammaln, np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 500_000)))


def test_lgam_matches_gammaln_at_branch_edges(gammaln):
    assert_lgam_matches(gammaln, np.array(EDGES, dtype=np.float64))
    assert lgam(1.7e308) == float("inf")


@pytest.mark.parametrize("x", [0.0, -1.0, float("nan")])
def test_lgam_rejects_non_positive(x):
    with pytest.raises(ValueError, match="x > 0"):
        lgam(x)


magnitudes = st.floats(-3.0, 6.0).map(lambda e: 10.0**e)


@given(st.lists(st.tuples(st.sampled_from((1.0, -1.0)), magnitudes).map(lambda t: t[0] * t[1]), max_size=400))
@settings(max_examples=300, deadline=None)
def test_pairwise_sum_equals_add_reduce_property(values):
    want = np.add.reduce(np.array(values, dtype=np.float64))
    assert pairwise_sum(values).hex() == float(want).hex()


@pytest.mark.parametrize("n", [0, 7, 8, 9, 128, 129, 300])
def test_pairwise_sum_of_negative_zeros(n):
    assert pairwise_sum([-0.0] * n).hex() == float(np.add.reduce(np.full(n, -0.0))).hex()


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy, eager or lazy, now fails
from treeuq import cli
out, config = sys.argv[1:]
for argv in (
    ["synth", "--out", out, "--train-size", "60", "--test-size", "40", "--seed", "3"],
    ["bayes", "--train", out + "/synthetic_train.csv", "--test", out + "/synthetic_test.csv", "--restarts", "2",
     "--burn-in", "40", "--post-burn-in", "40", "--alpha", "0.37", "--split-prior", "depth:0.95:1.5",
     "--out", out + "/bayes"],
    ["bench", "synthetic", "--config", config, "--sweep", "--out", out + "/bench"],
):
    rc = cli.main(argv)
    if rc:
        sys.exit(rc)
"""


def test_commands_run_without_scipy(tmp_path):
    """A `bayes --test` and a small `bench synthetic --sweep` with scipy made unimportable."""
    config = tmp_path / "bench.cfg"
    config.write_text("fold_count=2\ntrain_size=60\ntest_size=40\nrestarts=1\nburn_in=30\npost_burn_in=30\n"
                      "tree_count=4\nmin_leaf_rows=3\nseed=5\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path), str(config)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "bayes" / "summary.json").is_file()
    assert (tmp_path / "bench" / "report.json").is_file()
