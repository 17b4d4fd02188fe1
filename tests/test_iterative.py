"""Local solver: sweeps, monotonicity, restarts, determinism."""

import numpy as np
import pytest

from chanpart import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    OutOfRangeError,
    Quantizer,
    SolverOptions,
    distance_matrix,
    evaluate,
    reassign_sweep,
    solve_bruteforce,
    solve_iterative,
)
from chanpart.iterative import _SweepEngine

from conftest import (
    binary_entropy,
    make_e1_spec,
    partition_sets,
    random_hard_labels,
    random_instance,
)


class TestSolveIterative:
    def test_crossed_init_reaches_global_optimum(self, e1_spec):
        opts = SolverOptions(init="provided", initial_assignment=np.array([0, 1, 0, 1]))
        report = solve_iterative(e1_spec, opts)
        expected = 0.5 * binary_entropy(0.7) + 0.5 * binary_entropy(0.3)
        assert report.objective == pytest.approx(expected, abs=1e-12)
        np.testing.assert_array_equal(report.assignment, [0, 0, 1, 1])
        assert report.optimality_certificate

    def test_optimal_init_is_fixed_point(self, e1_spec):
        opts = SolverOptions(init="provided", initial_assignment=np.array([0, 0, 1, 1]))
        report = solve_iterative(e1_spec, opts)
        assert report.iterations_used == (1,)
        assert len(report.objective_trace) == 2
        assert report.objective_trace[0] == report.objective_trace[1]
        assert report.optimality_certificate

    def test_single_cell_needs_no_sweeps(self):
        spec = make_e1_spec(num_cells=1)
        report = solve_iterative(spec, SolverOptions(restarts=2))
        assert report.iterations_used == (0, 0)
        assert report.objective == pytest.approx(1.0, abs=1e-12)
        assert report.optimality_certificate

    def test_default_options_find_e1_optimum(self, e1_spec):
        report = solve_iterative(e1_spec)  # seed 0, 10 restarts
        assert report.objective == pytest.approx(0.8812908992306926, abs=1e-9)
        assert partition_sets(report.assignment) == partition_sets([0, 0, 1, 1])

    def test_deterministic_reports(self):
        rng = np.random.default_rng(61)
        spec = random_instance(rng)
        opts = SolverOptions(seed=123, restarts=4)
        a = solve_iterative(spec, opts)
        b = solve_iterative(spec, opts)
        assert a.objective == b.objective
        assert a.objective_trace == b.objective_trace
        assert a.iterations_used == b.iterations_used
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_never_beats_bruteforce(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            spec = random_instance(rng)
            it = solve_iterative(spec, SolverOptions(seed=7, restarts=3))
            bf = solve_bruteforce(spec)
            assert it.objective >= bf.objective - 1e-9

    def test_trace_non_increasing_sequential(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            spec = random_instance(rng)
            report = solve_iterative(spec, SolverOptions(seed=3, restarts=2))
            diffs = np.diff(report.objective_trace)
            assert np.all(diffs <= 1e-12)

    def test_batch_mode_keeps_best_seen(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            spec = random_instance(rng)
            report = solve_iterative(spec, SolverOptions(seed=5, restarts=2, sweep_mode="batch"))
            assert report.objective <= min(report.objective_trace) + 1e-12

    def test_reseed_empty_populates_second_cell(self, e1_spec):
        start = np.array([0, 0, 0, 0])
        plain = solve_iterative(
            e1_spec, SolverOptions(init="provided", initial_assignment=start)
        )
        assert np.unique(plain.assignment).size == 1
        assert plain.objective == pytest.approx(1.0, abs=1e-12)

        forced = solve_iterative(
            e1_spec,
            SolverOptions(init="provided", initial_assignment=start, reseed_empty=True),
        )
        assert np.unique(forced.assignment).size == 2
        # lands on the two-cell local optimum {Y1} | {Y2, Y3, Y4}
        expected = 0.25 * binary_entropy(0.8) + 0.75 * binary_entropy(0.4)
        assert forced.objective == pytest.approx(expected, abs=1e-12)
        assert forced.optimality_certificate

    def test_surplus_cells_stay_empty(self):
        spec = make_e1_spec(num_cells=6, channel=None)
        report = solve_iterative(spec, SolverOptions(seed=2, restarts=4))
        assert report.best_quantizer.num_cells == 6
        assert np.unique(report.assignment).size <= 4


class TestReassignSweep:
    def test_fixed_point_changes_nothing(self, e1_spec):
        new, changed = reassign_sweep(e1_spec, np.array([0, 0, 1, 1]))
        assert changed == 0
        np.testing.assert_array_equal(new, [0, 0, 1, 1])

    def test_crossed_state_nets_a_swap(self, e1_spec):
        new, changed = reassign_sweep(e1_spec, np.array([0, 1, 0, 1]), mode="sequential")
        assert changed == 2
        np.testing.assert_array_equal(new, [0, 0, 1, 1])

    def test_batch_tie_sends_everything_to_first_cell(self, e1_spec):
        # crossed cells have identical statistics, so every distance ties
        new, changed = reassign_sweep(e1_spec, np.array([0, 1, 0, 1]), mode="batch")
        np.testing.assert_array_equal(new, [0, 0, 0, 0])
        assert changed == 2

    def test_accepts_quantizer_input(self, e1_spec):
        new, changed = reassign_sweep(e1_spec, Quantizer.hard([0, 1, 0, 1], 2))
        assert changed == 2

    def test_rejects_unknown_mode(self, e1_spec):
        with pytest.raises(OutOfRangeError):
            reassign_sweep(e1_spec, np.array([0, 0, 1, 1]), mode="jumbled")


class TestMoveMonotonicity:
    """A nearest-distance move never increases a freshly evaluated objective."""

    def test_single_moves_monotone(self):
        rng = np.random.default_rng(65)
        for _ in range(30):
            spec = random_instance(rng)
            labels = random_hard_labels(rng, spec)
            for _ in range(2 * spec.num_symbols):
                state = evaluate(spec, Quantizer.hard(labels, spec.num_cells))
                dist = distance_matrix(state, spec, scaled=True)
                m = int(rng.integers(spec.num_symbols))
                nearest = int(np.argmin(dist[:, m]))
                if nearest == labels[m]:
                    continue
                before = state.objective
                labels = labels.copy()
                labels[m] = nearest
                after = evaluate(spec, Quantizer.hard(labels, spec.num_cells)).objective
                assert after <= before + 1e-12


class TestIncrementalEngine:
    """The in-place statistics must track a from-scratch evaluation."""

    def test_matches_fresh_evaluation_after_moves(self):
        rng = np.random.default_rng(66)
        for _ in range(10):
            spec = random_instance(rng)
            if spec.num_cells < 2:
                continue
            labels = random_hard_labels(rng, spec)
            engine = _SweepEngine(spec, labels)
            for _ in range(25):
                m = int(rng.integers(spec.num_symbols))
                target = int(rng.integers(spec.num_cells))
                if target == engine.assignment[m]:
                    continue
                engine.move(m, target)
                fresh = evaluate(spec, Quantizer.hard(engine.assignment, spec.num_cells))
                assert engine.objective == pytest.approx(fresh.objective, abs=1e-12)
                np.testing.assert_allclose(
                    engine.clusters, fresh.cluster_joints.entries, atol=1e-12
                )


class TestOptionsValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(OutOfRangeError):
            SolverOptions(max_iterations=0)
        with pytest.raises(OutOfRangeError):
            SolverOptions(restarts=0)
        with pytest.raises(OutOfRangeError):
            SolverOptions(sweep_mode="diagonal")
        with pytest.raises(OutOfRangeError):
            SolverOptions(init="provided")  # missing assignment
        with pytest.raises(OutOfRangeError):
            SolverOptions(initial_assignment=np.array([0, 1]))  # init still "random"
        with pytest.raises(OutOfRangeError):
            SolverOptions(seed=-1)

    def test_bad_initial_assignment_rejected(self, e1_spec):
        short = SolverOptions(init="provided", initial_assignment=np.array([0, 1]))
        with pytest.raises(DimensionMismatchError):
            solve_iterative(e1_spec, short)
        wide = SolverOptions(init="provided", initial_assignment=np.array([0, 1, 2, 0]))
        with pytest.raises(IndexOutOfRangeError):
            solve_iterative(e1_spec, wide)
