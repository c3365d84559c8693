import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeuq import cli
from treeuq.data import DataError
from treeuq.envelope import (
    EnvelopeReport,
    VoteMatrix,
    aggregate,
    aggregate_sweeps,
    evaluate,
    read_votes_csv,
    sweep,
    SWEEP_MAX_POINTS,
    sweep_grid,
    write_votes_csv,
)

vote_rows = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)).filter(
        lambda r: sum(r) > 0
    ),
    min_size=1,
    max_size=30,
)


def matrix(votes, targets):
    return VoteMatrix.build(np.asarray(votes), np.asarray(targets))


def outcome(votes, target, threshold) -> str:
    """The one point's outcome as `evaluate` rates it: CC, CI or U."""
    rep = evaluate(matrix([votes], [target]), threshold)
    return {(1.0, 0.0, 0.0): "CC", (0.0, 0.0, 1.0): "CI", (0.0, 1.0, 0.0): "U"}[(rep.cc_rate, rep.u_rate, rep.ci_rate)]


class TestConsistency:
    def test_worked_example_998_of_1000(self):
        # consistency 0.998, predicted class 0: confident up to 0.998, not above
        assert outcome((998, 2), 0, 0.998) == "CC"
        assert outcome((998, 2), 0, float(np.nextafter(0.998, 1.0))) == "U"
        assert outcome((998, 2), 1, 0.998) == "CI"

    def test_unanimous(self):
        assert outcome((0, 50), 1, 1.0) == "CC"

    def test_split_vote_hits_floor_and_breaks_low(self):
        assert outcome((500, 500), 0, float(np.nextafter(0.5, 1.0))) == "U"
        assert evaluate(matrix([(500, 500)], [0]), 0.9).accuracy == 1.0  # the tie predicts class 0
        assert evaluate(matrix([(500, 500)], [1]), 0.9).accuracy == 0.0

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            matrix([(0, 0)], [0])

    @given(row=st.tuples(st.integers(0, 99), st.integers(0, 99)).filter(lambda r: sum(r) > 0))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_scale_invariance(self, row):
        vm, scaled = matrix([row], [0]), matrix([tuple(7 * v for v in row)], [0])
        assert evaluate(vm, 1.0).u_rate == (max(row) < sum(row))  # consistency <= 1
        assert evaluate(vm, float(np.nextafter(0.5, 1.0))).u_rate == (2 * max(row) == sum(row))  # >= 1/2
        want, got = sweep(vm, np.linspace(0.51, 1.0, 50)), sweep(scaled, np.linspace(0.51, 1.0, 50))
        assert np.array_equal(got.u_rates, want.u_rates) and np.array_equal(got.ci_rates, want.ci_rates)
        assert evaluate(scaled, 0.6).accuracy == evaluate(vm, 0.6).accuracy


class TestClassifyOutcome:
    def test_confident_correct(self):
        assert outcome((998, 2), 0, 0.99) == "CC"

    def test_unanimous_wrong(self):
        assert outcome((0, 10), 0, 0.99) == "CI"

    def test_below_threshold_is_uncertain_either_way(self):
        assert outcome((6, 4), 0, 0.99) == "U"
        assert outcome((6, 4), 1, 0.99) == "U"

    def test_boundary_counts_as_confident(self):
        assert outcome((99, 1), 0, 0.99) == "CC"


class TestEvaluate:
    def test_all_unanimous_correct(self):
        vm = matrix([[10, 0], [0, 10]], [0, 1])
        rep = evaluate(vm, 0.99)
        assert (rep.cc_rate, rep.u_rate, rep.ci_rate) == (1.0, 0.0, 0.0)
        assert rep.accuracy == 1.0

    def test_rates_partition(self):
        vm = matrix([[10, 0], [6, 4], [0, 10], [9, 1]], [0, 0, 0, 1])
        rep = evaluate(vm, 0.95)
        assert rep.cc_rate + rep.u_rate + rep.ci_rate == pytest.approx(1.0, abs=1e-12)
        assert rep.cc_rate == 0.25  # only the unanimous correct row
        assert rep.ci_rate == 0.25  # the unanimous wrong row
        assert rep.u_rate == 0.5  # 0.6 and 0.9 both sit under the 0.95 bar

    def test_accuracy_ignores_threshold(self):
        rng = np.random.default_rng(0)
        votes = rng.multinomial(20, [0.6, 0.4], size=50)
        vm = matrix(votes, rng.integers(0, 2, size=50))
        accs = {evaluate(vm, t).accuracy for t in (0.51, 0.7, 0.99, 1.0)}
        assert len(accs) == 1

    def test_confident_subset_accuracy_identity(self):
        rng = np.random.default_rng(3)
        votes = rng.multinomial(10, [0.5, 0.5], size=200)
        vm = matrix(votes, rng.integers(0, 2, size=200))
        rep = evaluate(vm, 0.8)
        predicted = np.argmax(vm.votes, axis=1)
        gamma = vm.votes[np.arange(200), predicted] / 10
        confident = gamma >= 0.8
        if confident.any():
            restricted = float(np.mean(predicted[confident] == vm.targets[confident]))
            assert restricted == pytest.approx(rep.cc_rate / (rep.cc_rate + rep.ci_rate))

    def test_threshold_range_enforced(self):
        vm = matrix([[5, 5]], [0])
        with pytest.raises(ValueError):
            evaluate(vm, 0.5)  # must exceed 1/C
        with pytest.raises(ValueError):
            evaluate(vm, 1.5)

    @given(rows=vote_rows)
    @settings(max_examples=50, deadline=None)
    def test_rates_sum_to_one_property(self, rows):
        n = max(sum(r) for r in rows)
        votes = []
        for r in rows:  # pad rows to a common classifier count
            pad = n - sum(r)
            votes.append((r[0] + pad, r[1], r[2]))
        vm = matrix(votes, [0] * len(votes))
        rep = evaluate(vm, 0.9)
        assert rep.cc_rate + rep.u_rate + rep.ci_rate == pytest.approx(1.0, abs=1e-12)

    def test_single_classifier_always_unanimous(self):
        vm = matrix([[1, 0], [0, 1], [1, 0]], [0, 0, 1])
        rep = evaluate(vm, 0.99)
        assert rep.u_rate == 0.0
        assert rep.cc_rate + rep.ci_rate == 1.0


class TestAggregate:
    def _rep(self, cc, u, ci, acc=0.9, size=None):
        return EnvelopeReport(accuracy=acc, cc_rate=cc, u_rate=u, ci_rate=ci, tree_size_mean=size)

    def test_identical_reports_zero_width(self):
        reports = [self._rep(0.7, 0.2, 0.1)] * 4
        summary = aggregate(reports)
        assert summary.width2.cc_rate == 0.0
        assert summary.mean.cc_rate == pytest.approx(0.7)

    def test_hand_two_sigma(self):
        summary = aggregate([self._rep(0.6, 0.3, 0.1), self._rep(0.8, 0.1, 0.1)])
        assert summary.mean.cc_rate == pytest.approx(0.7)
        assert summary.width2.cc_rate == pytest.approx(2 * 0.1414, abs=1e-3)

    def test_needs_two_reports(self):
        with pytest.raises(ValueError):
            aggregate([self._rep(0.5, 0.3, 0.2)])

    def test_none_metrics_stay_none(self):
        summary = aggregate([self._rep(0.6, 0.3, 0.1), self._rep(0.8, 0.1, 0.1)])
        assert summary.mean.tree_size_mean is None
        assert summary.width2.tree_size_mean is None


class TestSweep:
    def _random_matrix(self, seed=0, n=300, classifiers=40):
        rng = np.random.default_rng(seed)
        votes = rng.multinomial(classifiers, [0.55, 0.45], size=n)
        return matrix(votes, rng.integers(0, 2, size=n))

    def test_default_grid_has_101_points(self):
        grid = sweep_grid()
        assert len(grid) == 101
        assert grid[0] == pytest.approx(0.9)
        assert grid[-1] == pytest.approx(1.0)
        assert grid[1] - grid[0] == pytest.approx(0.001)

    def test_grid_size_is_bounded(self):
        assert len(sweep_grid(0.0, 1.0, 1.0 / (SWEEP_MAX_POINTS - 1))) == SWEEP_MAX_POINTS
        with pytest.raises(ValueError, match="sweep step 1e-06 is too fine"):
            sweep_grid(0.0, 1.0, 1e-6)

    def test_monotonicity(self):
        curve = sweep(self._random_matrix())
        assert (np.diff(curve.u_rates) >= -1e-12).all()
        assert (np.diff(curve.ci_rates) <= 1e-12).all()

    def test_endpoints_vs_direct_evaluate(self):
        vm = self._random_matrix(seed=5)
        curve = sweep(vm)
        assert curve.u_rates[0] == evaluate(vm, 0.9).u_rate
        assert curve.ci_rates[-1] == evaluate(vm, 1.0).ci_rate

    def test_top_threshold_confident_means_unanimous(self):
        vm = matrix([[40, 0], [39, 1], [0, 40]], [0, 0, 1])
        rep = evaluate(vm, 1.0)
        assert rep.u_rate == pytest.approx(1 / 3)  # only the 39/1 row is non-unanimous
        assert rep.cc_rate == pytest.approx(2 / 3)

    def test_aggregate_sweeps_shapes(self):
        curves = [sweep(self._random_matrix(seed=s)) for s in (1, 2, 3)]
        agg = aggregate_sweeps(curves)
        assert agg.u_mean.shape == (101,)
        assert (agg.u_width2 >= 0).all()

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_monotonicity_property(self, seed):
        curve = sweep(self._random_matrix(seed=seed, n=60, classifiers=12))
        assert (np.diff(curve.u_rates) >= -1e-12).all()
        assert (np.diff(curve.ci_rates) <= 1e-12).all()


class TestVoteMatrix:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            VoteMatrix(votes=np.array([[3, 1], [2, 1]]), targets=np.array([0, 1]), classifier_count=4, class_count=2)

    def test_target_range_validation(self):
        with pytest.raises(ValueError):
            matrix([[2, 2]], [5])

    def test_csv_round_trip(self, tmp_path):
        vm = matrix([[7, 3], [0, 10], [5, 5]], [0, 1, 1])
        path = tmp_path / "votes.csv"
        write_votes_csv(vm, path)
        again = read_votes_csv(path)
        assert np.array_equal(vm.votes, again.votes)
        assert np.array_equal(vm.targets, again.targets)
        assert again.classifier_count == 10

    def test_csv_errors(self, tmp_path):
        with pytest.raises(DataError):
            read_votes_csv(tmp_path / "missing.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("nope,vote_0\n1,2\n")
        with pytest.raises(DataError):
            read_votes_csv(bad)
        nonint = tmp_path / "nonint.csv"
        nonint.write_text("target,vote_0,vote_1\n0,1.5,2\n")
        with pytest.raises(DataError):
            read_votes_csv(nonint)

    @pytest.mark.parametrize("rows, line, cells", [("0,3,1\n1,4\n", 3, 2), ("\n0,3,1,2\n", 3, 4)])
    def test_ragged_row_is_named(self, tmp_path, capsys, rows, line, cells):
        path = tmp_path / "votes.csv"
        path.write_text("target,vote_0,vote_1\n" + rows)
        with pytest.raises(DataError, match=f"line {line} has {cells} cells, the header 3"):
            read_votes_csv(path)
        assert cli.main(["envelope", "--votes", str(path), "--out", str(tmp_path / "out")]) == 3
        assert f"line {line} has {cells} cells" in capsys.readouterr().err
