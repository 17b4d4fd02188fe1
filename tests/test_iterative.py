"""Local solver: sweeps, monotonicity, restarts, determinism."""

import os
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chanpart import (
    ChannelMatrix,
    ConstraintSpec,
    DimensionMismatchError,
    ImpuritySpec,
    IndexOutOfRangeError,
    OutOfRangeError,
    ProblemSpec,
    Quantizer,
    SolverOptions,
    distance_matrix,
    evaluate,
    reassign_sweep,
    solve_bruteforce,
    solve_iterative,
    validate_joint,
)
from chanpart import iterative
from chanpart.cli import _dump, report_document
from chanpart.errors import ZeroColumnError
from chanpart.impurity import _column_gradients, constraint_derivatives
from chanpart.iterative import FORK_MIN_SYMBOLS, FORK_MIN_WORK, SWEEP_MODES, _distinct_columns, _SweepEngine
from chanpart.objective import _distances, score_cells
from chanpart.probability import posteriors

from conftest import (
    binary_entropy,
    make_e1_spec,
    pam_joint,
    partition_sets,
    random_hard_labels,
    random_instance,
    tied_spec,
    usable_cpus,
)
from test_properties import PROPERTY_SETTINGS, boundary_instances


class TestSolveIterative:
    def test_crossed_init_reaches_global_optimum(self, e1_spec):
        opts = SolverOptions(initial_assignment=np.array([0, 1, 0, 1]))
        report = solve_iterative(e1_spec, opts)
        expected = 0.5 * binary_entropy(0.7) + 0.5 * binary_entropy(0.3)
        assert report.objective == pytest.approx(expected, abs=1e-12)
        np.testing.assert_array_equal(report.assignment, [0, 0, 1, 1])
        assert report.optimality_certificate

    def test_optimal_init_is_fixed_point(self, e1_spec):
        opts = SolverOptions(initial_assignment=np.array([0, 0, 1, 1]))
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
            assert report.objective == report.objective_trace[-1]

    def test_all_in_one_start_stays_in_one_cell(self, e1_spec):
        start = np.array([0, 0, 0, 0])
        plain = solve_iterative(
            e1_spec, SolverOptions(initial_assignment=start)
        )
        assert np.unique(plain.assignment).size == 1
        assert plain.objective == pytest.approx(1.0, abs=1e-12)

    def test_tied_posteriors_stop_after_a_zero_gain_sweep(self):
        # every partition of uniform posteriors scores the same; sweeps only shuffle ties
        spec = tied_spec(30, num_cells=4)
        report = solve_iterative(spec)
        assert len(report.iterations_used) == 10
        assert all(sweeps <= 2 for sweeps in report.iterations_used)
        assert report.optimality_certificate

    def test_zero_gain_sweep_stops_after_one_sweep(self):
        spec = tied_spec(4, num_cells=2)
        start = np.array([0, 0, 0, 1])
        plain = solve_iterative(spec, SolverOptions(initial_assignment=start))
        assert plain.iterations_used == (1,)
        assert len(plain.objective_trace) == 2

    def test_batch_sweep_gaining_at_most_the_tolerance_stops(self):
        # restart 0 alternates between all symbols in cell 0 and a split whose two
        # cells share the conditional (0.5, 0.5): no sweep gains, none rises enough
        # to matter, and the restart used to spin to max_iterations
        joint = validate_joint(
            [[0.1, 0.05, 0.0, 0.05, 0.15, 0.15], [0.1, 0.05, 0.1, 0.05, 0.15, 0.05]]
        )
        spec = ProblemSpec(
            joint=joint,
            channel=ChannelMatrix.identity(3),
            num_cells=3,
            impurity=ImpuritySpec("entropy"),
            constraint=ConstraintSpec.none(),
        )
        opts = SolverOptions(seed=2, restarts=2, sweep_mode="batch")
        report = solve_iterative(spec, opts)
        assert all(sweeps < opts.max_iterations for sweeps in report.iterations_used)
        assert report.objective == 0.8622556248918265
        assert report.assignment.tolist() == [0, 0, 2, 0, 0, 1]
        assert report.objective_trace[-1] == report.objective

    def test_batch_restart_that_rises_returns_the_best_partition_seen(self, e1_spec):
        # batch sweeps seldom rise on real instances, so scripted sweeps make the second one rise
        script = iter([[0, 0, 1, 1], [0, 1, 0, 1]])

        def scripted(engine, columns, inverse):
            labels = np.array(next(script))
            changed = int(np.count_nonzero(labels != engine.assignment))
            engine.assignment = labels
            return changed

        opts = SolverOptions(initial_assignment=[0, 1, 1, 1], sweep_mode="batch")
        with mock.patch.object(_SweepEngine, "sweep_batch", scripted):
            report = solve_iterative(e1_spec, opts)
        assert report.iterations_used == (2,)
        assert report.assignment.tolist() == [0, 0, 1, 1]
        trace = report.objective_trace
        assert len(trace) == 4 and trace[2] > trace[1]
        assert trace[-1] == trace[1] == report.objective

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_an_idle_sweep_is_not_rebuilt(self, e1_spec, mode):
        rebuilt = mock.patch.object(_SweepEngine, "rebuild", autospec=True, side_effect=_SweepEngine.rebuild)
        with rebuilt as rebuild:
            fixed = solve_iterative(e1_spec, SolverOptions(initial_assignment=[0, 0, 1, 1], sweep_mode=mode))
            assert rebuild.call_count == 1  # the start's
            crossed = solve_iterative(e1_spec, SolverOptions(initial_assignment=[0, 1, 0, 1]))
            # one rebuild at the start and one after the moving sweep, none after the idle one
            assert crossed.iterations_used == (2,) and rebuild.call_count == 3
        assert fixed.objective_trace == (fixed.objective,) * 2
        assert crossed.objective_trace[-1] == crossed.objective_trace[-2] == crossed.objective

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

    def test_rejects_a_soft_quantizer(self, e1_spec):
        with pytest.raises(OutOfRangeError, match="^reassignment sweeps operate on hard quantizers$"):
            reassign_sweep(e1_spec, Quantizer.soft(np.full((4, 2), 0.5)))


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
        kinds = [(c, i) for c in ("none", "entropy", "linear") for i in (True, False)]
        for constraint, identity in kinds * 3:
            spec = random_instance(
                rng, constraint=constraint, identity=identity, num_cells=int(rng.integers(2, 4))
            )
            labels = random_hard_labels(rng, spec)
            engine = _SweepEngine(spec, labels)
            for _ in range(25):
                m = int(rng.integers(spec.num_symbols))
                target = int(rng.integers(spec.num_cells))
                if target == engine.assignment[m]:
                    continue
                engine.move(m, target)
                fresh = evaluate(spec, Quantizer.hard(engine.assignment, spec.num_cells))
                np.testing.assert_allclose(
                    engine.clusters, fresh.cluster_joints.entries, atol=1e-12
                )
                np.testing.assert_allclose(engine.gradients, fresh.output_gradients, atol=1e-12)
                np.testing.assert_allclose(
                    engine.derivs, fresh.constraint_derivatives, atol=1e-12
                )
            engine.rebuild()
            fresh = evaluate(spec, Quantizer.hard(engine.assignment, spec.num_cells))
            # rebuild runs evaluate's arithmetic, so the two agree bit for bit
            assert engine.objective == fresh.objective
            np.testing.assert_array_equal(engine.gradients, fresh.output_gradients)

    def test_scored_once_per_rebuild_never_per_move(self, e1_spec):
        with mock.patch("chanpart.iterative.score_cells", wraps=score_cells) as scorer:
            engine = _SweepEngine(e1_spec, np.array([0, 1, 0, 1]))
            assert scorer.call_count == 1
            first = engine.objective
            assert engine.sweep_sequential() == 2
            assert scorer.call_count == 1
            engine.rebuild()
            assert scorer.call_count == 2
            assert engine.objective < first


def _check_move_bits(spec: ProblemSpec, rng: np.random.Generator, moves: int) -> None:
    """After every move the engine's gradients and distances have the bits of a
    fresh refresh of its own cluster joints, not merely its values."""
    channel, post = spec.channel.entries, posteriors(spec.joint)
    engine = _SweepEngine(spec, random_hard_labels(rng, spec))
    for _ in range(moves):
        m, target = int(rng.integers(spec.num_symbols)), int(rng.integers(spec.num_cells))
        if target == engine.assignment[m]:
            continue
        engine.move(m, target)
        fresh = _column_gradients(spec.impurity, engine.clusters @ channel)
        np.testing.assert_array_equal(_words(engine.gradients), _words(fresh))
        # the move refreshes two derivatives; they keep the bits of the whole vector's
        whole = constraint_derivatives(spec.constraint, engine.mass)
        np.testing.assert_array_equal(_words(engine.derivs), _words(whole))
        block = slice(int(rng.integers(spec.num_symbols)), spec.num_symbols)
        expected = _distances(
            channel, np.ascontiguousarray(engine.gradients.T), post[:, block], spec.beta, engine.derivs[:, None]
        )
        np.testing.assert_array_equal(_words(engine.distances(block)), _words(expected))


class TestMoveBits:
    """Each in-place move refresh keeps the bits of the kernels it stands for."""

    @pytest.mark.parametrize("identity", [True, False], ids=["identity", "noisy"])
    @pytest.mark.parametrize("constraint", ["none", "entropy", "linear"])
    @pytest.mark.parametrize("impurity", ["entropy", "gini"])
    def test_every_move_refreshes_bit_for_bit(self, impurity, constraint, identity):
        rng = np.random.default_rng(88)
        for _ in range(6):
            spec = random_instance(
                rng, impurity=impurity, constraint=constraint, identity=identity,
                num_cells=int(rng.integers(2, 5)),
            )
            _check_move_bits(spec, rng, 30)

    @PROPERTY_SETTINGS
    @given(spec=boundary_instances(), seed=st.integers(0, 3))
    def test_boundary_instances_refresh_bit_for_bit(self, spec, seed):
        # exact zeros, K > M and cells emptied by the moves
        _check_move_bits(spec, np.random.default_rng(seed), 20)


def _reference_sweep(engine: _SweepEngine) -> int:
    """Sequential sweep one symbol at a time; asserts no visit sees a near-tie.

    A lone symbol is exempt: every output then has its posterior, so all
    cells tie unless the constraint separates them, and the block scan asks
    for the same one-column block as this sweep.
    """
    changed = 0
    total = engine.assignment.size
    for m in range(total):
        dist = engine.distances(slice(m, m + 1))[:, 0]
        nearest = int(dist.argmin())
        if total > 1:
            assert np.partition(dist, 1)[1] - dist[nearest] > 1e-9
        if nearest != engine.assignment[m]:
            engine.move(m, nearest)
            changed += 1
    return changed


def _interior_instance(rng, num_symbols: int, num_cells: int, constraint: str) -> ProblemSpec:
    """Posteriors and relay entries >= 0.01, and distinct relay rows, so that
    no two cells tie, empty ones included."""
    post = rng.random((3, num_symbols)) + 0.05
    joint = post / post.sum(axis=0) * rng.dirichlet(np.ones(num_symbols))
    raw = rng.random((num_cells, num_cells)) + 0.05
    weights = rng.uniform(0.0, 2.0, size=num_cells)
    return ProblemSpec(
        joint=validate_joint(joint / joint.sum()),
        channel=ChannelMatrix(raw / raw.sum(axis=1, keepdims=True)),
        num_cells=num_cells,
        impurity=ImpuritySpec(("entropy", "gini")[int(rng.integers(2))]),
        constraint=ConstraintSpec.linear(weights) if constraint == "linear" else ConstraintSpec(constraint),
        beta=float(rng.choice((0.1, 1.0, 10.0))),
    )


class TestBlockScan:
    """The spanned sequential sweep makes exactly the one-by-one sweep's moves."""

    @pytest.mark.parametrize("constraint", ["none", "entropy", "linear"])
    def test_matches_symbol_by_symbol_sweep(self, constraint):
        rng = np.random.default_rng(77)
        moved_at_block_end = moved_last = False
        for m in (1, 7, 8, 9, 17, 40):
            for trial in range(12):
                spec = _interior_instance(rng, m, int(rng.integers(2, 5)), constraint)
                if trial % 2:
                    # a fixed point with the last symbol of the first block and
                    # the final symbol knocked out of place
                    start = solve_iterative(spec, SolverOptions(restarts=1)).assignment.copy()
                    for index in {min(m, _SweepEngine.MIN_SPAN) - 1, m - 1}:
                        start[index] = (start[index] + 1) % spec.num_cells
                else:
                    start = random_hard_labels(rng, spec)
                reference = _SweepEngine(spec, start)
                expected = _reference_sweep(reference)

                engine = _SweepEngine(spec, start)
                blocks = []
                distances = engine.distances

                def recording_distances(block):
                    blocks.append(block)
                    return distances(block)

                engine.distances = recording_distances
                moves = []
                move = engine.move

                def recording_move(index, target):
                    moves.append((index, blocks[-1].stop))
                    move(index, target)

                engine.move = recording_move
                assert engine.sweep_sequential() == expected
                np.testing.assert_array_equal(engine.assignment, reference.assignment)
                moved_at_block_end |= any(i == stop - 1 < m - 1 for i, stop in moves)
                moved_last |= any(i == m - 1 for i, _ in moves)
        assert moved_at_block_end and moved_last


def _words(columns: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(columns).view(np.uint64)


def _pam_batch_spec(seed: int, num_bins: int = 6000) -> ProblemSpec:
    rng = np.random.default_rng(seed)
    raw = rng.random((5, 5)) + 0.05
    return ProblemSpec(
        joint=validate_joint(pam_joint(rng, 4, num_bins)),
        channel=ChannelMatrix(raw / raw.sum(axis=1, keepdims=True)),
        num_cells=5,
        impurity=ImpuritySpec("entropy"),
        constraint=ConstraintSpec.none(),
    )


def _equal_keys(words):
    return np.zeros(words.shape[1], dtype=np.uint64)


class TestDistinctColumns:
    """The batch sweep's front end: distinct posteriors, bit for bit, or the raw columns."""

    def test_every_column_is_bit_equal_to_its_representative(self):
        for post in (posteriors(_pam_batch_spec(3).joint), posteriors(tied_spec(9, 2).joint)):
            columns, inverse = _distinct_columns(post)
            assert columns.flags.c_contiguous
            assert columns.shape == (post.shape[0], np.unique(post.T, axis=0).shape[0])
            assert inverse.shape == (post.shape[1],)
            np.testing.assert_array_equal(_words(columns)[:, inverse], _words(post))

    def test_tie_free_input_returns_the_raw_columns(self):
        post = posteriors(validate_joint(np.random.default_rng(4).dirichlet(np.ones(3 * 500)).reshape(3, 500)))
        columns, inverse = _distinct_columns(post)
        assert columns is post and inverse is None

    def test_a_key_collision_falls_back_to_the_raw_columns(self):
        spec = _pam_batch_spec(5)
        post = posteriors(spec.joint)
        start = np.random.default_rng(5).integers(0, spec.num_cells, size=spec.num_symbols)
        distinct = _distinct_columns(post)
        assert distinct[1] is not None
        merged = _SweepEngine(spec, start)
        changed = merged.sweep_batch(*distinct)
        with mock.patch.object(iterative, "_column_keys", _equal_keys):
            columns, inverse = _distinct_columns(post)
            assert columns is post and inverse is None
            raw = _SweepEngine(spec, start)
            assert raw.sweep_batch(columns, inverse) == changed
            labels, swept = reassign_sweep(spec, start, "batch")
        np.testing.assert_array_equal(raw.assignment, merged.assignment)
        assert swept == changed
        np.testing.assert_array_equal(labels, merged.assignment)

    def test_signed_zeros_never_merge(self):
        post = np.array([[0.0, -0.0, 0.0, 0.5], [1.0, 1.0, 1.0, 0.5]])
        columns, inverse = _distinct_columns(post)
        assert inverse[0] == inverse[2] != inverse[1]
        np.testing.assert_array_equal(_words(columns)[:, inverse], _words(post))
        apart = post[:, :2]
        assert _distinct_columns(apart)[1] is None
        with mock.patch.object(iterative, "_column_keys", _equal_keys):
            assert _distinct_columns(apart)[1] is None

    def test_found_once_per_batch_solve_and_never_in_sequential_mode(self):
        spec = _pam_batch_spec(6, num_bins=500)
        with mock.patch.object(iterative, "_distinct_columns", wraps=_distinct_columns) as found:
            solve_iterative(spec, SolverOptions(restarts=3, sweep_mode="batch"))
            assert found.call_count == 1
            solve_iterative(spec, SolverOptions(restarts=3))
            reassign_sweep(spec, np.zeros(spec.num_symbols, dtype=np.int64))
            assert found.call_count == 1
            reassign_sweep(spec, np.zeros(spec.num_symbols, dtype=np.int64), "batch")
            assert found.call_count == 2


class TestOptionsValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(OutOfRangeError):
            SolverOptions(max_iterations=0)
        with pytest.raises(OutOfRangeError):
            SolverOptions(restarts=0)
        with pytest.raises(OutOfRangeError):
            SolverOptions(sweep_mode="diagonal")
        with pytest.raises(OutOfRangeError):
            SolverOptions(seed=-1)
        for not_an_integer in ({"restarts": 1.5}, {"restarts": True}, {"max_iterations": 2.5}, {"seed": "1"}):
            with pytest.raises(OutOfRangeError, match="must be an integer"):
                SolverOptions(**not_an_integer)

    @pytest.mark.parametrize("name", ["max_iterations", "restarts", "seed"])
    def test_refusing_a_huge_integer_names_its_size(self, name):
        # str() of an int of over 4,300 digits raises, so the message gives its size
        with pytest.raises(OutOfRangeError, match=f"^{name} must be .*, got an int of 16610 bits$"):
            SolverOptions(**{name: -(10**5000)})

    def test_init_is_gone(self):
        with pytest.raises(TypeError):
            SolverOptions(init="provided")

    def test_reseed_empty_is_gone(self):
        with pytest.raises(TypeError):
            SolverOptions(reseed_empty=True)

    def test_tolerance_is_gone(self):
        with pytest.raises(TypeError):
            SolverOptions(tolerance=1e-9)

    def test_equality_and_hash_follow_the_labels(self):
        from_list = SolverOptions(initial_assignment=[0, 1, 0, 1])
        from_array = SolverOptions(initial_assignment=np.array([0, 1, 0, 1]))
        assert from_list == from_array
        assert hash(from_list) == hash(from_array)
        assert from_list != SolverOptions(initial_assignment=[0, 1, 1, 1])
        assert SolverOptions() != from_list
        assert hash(SolverOptions()) == hash(SolverOptions())
        assert replace(from_list, seed=1) != from_list

    def test_hash_follows_the_labels_of_any_vector_and_only_a_vector_is_taken(self):
        built = [SolverOptions(initial_assignment=labels)
                 for labels in ([0, 1, 1, 0], (0, 1, 1, 0), np.array([0, 1, 1, 0]))]
        assert len({hash(options) for options in built}) == 1
        assert built[0] == built[1] == built[2]
        # numpy reads a string as one scalar, not as labels
        for not_a_vector in ([[0, 1], [1, 0]], np.zeros((2, 2), dtype=np.int64), 3, "0101"):
            with pytest.raises(DimensionMismatchError, match="^initial_assignment must be a vector, got"):
                SolverOptions(initial_assignment=not_a_vector)

    def test_restarts_past_sys_maxsize_are_refused(self):
        """Restarts are the indices of a range, whose length is at most ``sys.maxsize``."""
        assert SolverOptions(restarts=sys.maxsize).restarts == sys.maxsize
        with pytest.raises(OutOfRangeError, match=f"^restarts must be <= {sys.maxsize}, got {sys.maxsize + 1}$"):
            SolverOptions(restarts=sys.maxsize + 1)
        with pytest.raises(OutOfRangeError, match="^restarts must be <= .*, got an int of 67 bits$"):
            SolverOptions(restarts=10**20)

    def test_wrong_length_gets_the_message_evaluate_gives(self, e1_spec):
        for refuse in (lambda: reassign_sweep(e1_spec, [0, 1]),
                       lambda: solve_iterative(e1_spec, SolverOptions(initial_assignment=[0, 1]))):
            with pytest.raises(DimensionMismatchError, match="^quantizer covers 2 symbols, joint has 4$"):
                refuse()

    def test_bad_initial_assignment_rejected(self, e1_spec):
        short = SolverOptions(initial_assignment=np.array([0, 1]))
        with pytest.raises(DimensionMismatchError):
            solve_iterative(e1_spec, short)
        wide = SolverOptions(initial_assignment=np.array([0, 1, 2, 0]))
        with pytest.raises(IndexOutOfRangeError):
            solve_iterative(e1_spec, wide)
        for not_labels in ([0.7, 1.2, 0.1, 1.9], [True, False, True, False]):
            with pytest.raises(IndexOutOfRangeError):
                solve_iterative(e1_spec, SolverOptions(initial_assignment=not_labels))
            with pytest.raises(IndexOutOfRangeError):
                reassign_sweep(e1_spec, not_labels)


class TestRestartStarts:
    """Random restart i starts from child i of ``SeedSequence(seed).spawn(restarts)``, drawn
    where it runs, so no solve holds the starts of all its restarts."""

    @staticmethod
    def _expected_starts(seed, restarts, num_symbols, num_cells):
        """Each child's first draw that leaves two cells in use, where a real choice exists; and
        whether any child drew again."""
        starts, redrawn = [], False
        for child in np.random.SeedSequence(seed).spawn(restarts):
            rng = np.random.default_rng(child)
            labels = rng.integers(0, num_cells, size=num_symbols)
            while num_cells > 1 and num_symbols > 1 and np.unique(labels).size == 1:
                labels, redrawn = rng.integers(0, num_cells, size=num_symbols), True
            starts.append(labels)
        return starts, redrawn

    @pytest.mark.parametrize(("num_symbols", "num_cells"), [(2, 2), (1, 3), (5, 1), (60, 4)])
    def test_restart_i_starts_from_child_i_of_the_spawned_seeds(self, num_symbols, num_cells):
        spec = random_instance(np.random.default_rng(num_symbols), num_symbols=num_symbols, num_cells=num_cells)
        seen, init = [], _SweepEngine.__init__

        def recording(engine, spec, assignment):
            seen.append(np.array(assignment))
            init(engine, spec, assignment)

        redraws = 0
        with usable_cpus(1), mock.patch.object(_SweepEngine, "__init__", recording):
            for seed in (0, 1, 24, 2**40):
                for restarts in range(1, 6):
                    seen.clear()
                    solve_iterative(spec, SolverOptions(seed=seed, restarts=restarts))
                    expected, redrawn = self._expected_starts(seed, restarts, num_symbols, num_cells)
                    redraws += redrawn
                    assert len(seen) == restarts
                    for start, labels in zip(seen, expected):
                        np.testing.assert_array_equal(start, labels, strict=True)
        # two symbols in two cells land in one cell on half the draws
        assert redraws > 0 if (num_symbols, num_cells) == (2, 2) else redraws == 0

    def test_peak_memory_does_not_grow_with_restarts(self):
        spec = random_instance(np.random.default_rng(24), num_symbols=20_000, num_cells=4)
        peaks = []
        with usable_cpus(1):
            for restarts in (2, 40):
                tracemalloc.start()
                try:
                    solve_iterative(spec, SolverOptions(restarts=restarts, sweep_mode="batch", max_iterations=1))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        one_start = spec.num_symbols * np.dtype(np.int64).itemsize
        assert peaks[1] - peaks[0] < (40 - 2) * one_start

    def test_forked_peak_memory_does_not_grow_with_restarts(self):
        """Each worker hands back one result for its whole chunk, so this process holds
        one assignment per worker, whatever the number of restarts."""
        spec = random_instance(np.random.default_rng(24), num_symbols=20_000, num_cells=4)
        peaks = []
        with usable_cpus(2), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            for restarts in (2, 40):
                tracemalloc.start()
                try:
                    solve_iterative(spec, SolverOptions(restarts=restarts, sweep_mode="batch", max_iterations=1))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert fork.call_count == 2
        one_assignment = spec.num_symbols * np.dtype(np.int64).itemsize
        assert peaks[1] - peaks[0] < 4 * one_assignment


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _fork_instance(seed: int, constraint: str = "none", identity: bool = False, num_symbols: int | None = None):
    """A random instance at the fork gate: the fewest symbols that pass it, unless given."""
    rng = np.random.default_rng(seed)
    num_cells = int(rng.integers(2, 5))
    if num_symbols is None:
        num_symbols = max(FORK_MIN_SYMBOLS, -(-FORK_MIN_WORK // num_cells))
    return random_instance(rng, constraint=constraint, identity=identity, num_symbols=num_symbols,
                           num_cells=num_cells)


def _serial_bytes(spec, opts) -> bytes:
    with usable_cpus(1):
        return _dump(report_document(spec, solve_iterative(spec, opts)))


class TestForkedRestarts:
    """Restarts run in forked workers give the one-core report, byte for byte, and
    leave no process behind."""

    @pytest.mark.parametrize("identity", [True, False], ids=["identity", "noisy"])
    @pytest.mark.parametrize("constraint", ["none", "entropy", "linear"])
    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_forked_reports_are_the_serial_bytes(self, mode, constraint, identity):
        spec = _fork_instance(21, constraint, identity)
        for restarts in range(1, 6):
            opts = SolverOptions(seed=restarts, restarts=restarts, sweep_mode=mode)
            serial = _serial_bytes(spec, opts)
            with usable_cpus(3), mock.patch.object(os, "fork", wraps=os.fork) as fork:
                forked = _dump(report_document(spec, solve_iterative(spec, opts)))
            assert fork.call_count == min(restarts, 3) - 1
            assert forked == serial
        assert _no_child_left()

    @pytest.mark.parametrize(
        ("finals", "winner"),
        [([1.0] * 5, 0), ([1.0, 1.0, 1.0, 1.0, 0.5], 4), ([1.0, 1.0, 0.5, 0.5, 0.5], 2)],
        ids=["all-tied", "last-lower", "lower-then-tied"],
    )
    def test_the_earliest_of_the_lowest_restarts_wins_across_chunks(self, finals, winner):
        """Five restarts on three processes run in the chunks [0], [1, 2] and [3, 4]: a
        later restart wins only by ending strictly lower, in a chunk or across chunks."""
        spec = _fork_instance(9)

        def restart(spec, index, opts, distinct):
            labels = (np.arange(spec.num_symbols) // (index + 1)) % spec.num_cells
            return (10 + index,), [2.0 + index, finals[index]], labels

        expected = restart(spec, winner, None, None)
        for cpus, forks in ((3, 2), (1, 0)):
            with (
                usable_cpus(cpus),
                mock.patch.object(iterative, "_run_restart", restart),
                mock.patch.object(os, "fork", wraps=os.fork) as fork,
            ):
                report = solve_iterative(spec, SolverOptions(restarts=5))
            assert fork.call_count == forks
            assert report.iterations_used == (10, 11, 12, 13, 14)
            assert report.objective_trace == tuple(expected[1])
            np.testing.assert_array_equal(report.assignment, expected[2])
        assert _no_child_left()

    @staticmethod
    def _in_workers(behaviour):
        """Patch ``_run_restart`` so that forked workers call ``behaviour()`` instead,
        and this process ``_run_restart`` itself."""
        parent, run = os.getpid(), iterative._run_restart

        def patched(*args):
            return run(*args) if os.getpid() == parent else behaviour()

        return mock.patch.object(iterative, "_run_restart", patched)

    def test_a_failing_worker_raises_its_exception_here(self):
        def failing():
            raise ZeroColumnError("in a worker")

        with usable_cpus(2), self._in_workers(failing):
            with pytest.raises(ZeroColumnError, match="in a worker"):
                solve_iterative(_fork_instance(1), SolverOptions(restarts=4))
        assert _no_child_left()

    def test_an_unpicklable_worker_exception_arrives_as_its_repr(self):
        class LocalError(Exception):
            pass

        def failing():
            raise LocalError("not importable")

        with usable_cpus(3), self._in_workers(failing):
            with pytest.raises(RuntimeError, match="LocalError.*not importable"):
                solve_iterative(_fork_instance(2), SolverOptions(restarts=3))
        assert _no_child_left()

    def test_a_worker_that_dies_without_a_result_is_an_error(self):
        with usable_cpus(2), self._in_workers(lambda: os._exit(3)):
            with pytest.raises(RuntimeError, match="without a result"):
                solve_iterative(_fork_instance(3), SolverOptions(restarts=2))
        assert _no_child_left()

    def test_a_failing_parent_chunk_kills_and_reaps_the_workers(self):
        parent = os.getpid()

        def failing_while_workers_hang(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise ZeroColumnError("in the parent")

        started = time.monotonic()
        with usable_cpus(3), mock.patch.object(iterative, "_run_restart", failing_while_workers_hang):
            with pytest.raises(ZeroColumnError, match="in the parent"):
                solve_iterative(_fork_instance(4), SolverOptions(restarts=6))
        assert time.monotonic() - started < 30  # the workers were killed, not awaited
        assert _no_child_left()

    @pytest.mark.parametrize("fails", [False, True], ids=["certified", "certificate-fails"])
    def test_workers_are_reaped_after_the_certificate_and_never_killed(self, fails):
        """Every result is read before the certificate, so the workers exit while it
        is computed and are reaped after it, even when it raises, with no SIGKILL."""
        events = []
        certify, waitpid = iterative.certified_report, os.waitpid

        def certified(*args):
            events.append("certificate")
            if fails:
                raise ZeroColumnError("in the certificate")
            return certify(*args)

        def reaped(pid, options):
            events.append("reap")
            return waitpid(pid, options)

        with (
            usable_cpus(3),
            mock.patch.object(iterative, "certified_report", certified),
            mock.patch.object(os, "waitpid", reaped),
            mock.patch.object(os, "kill", wraps=os.kill) as kill,
        ):
            if fails:
                with pytest.raises(ZeroColumnError, match="in the certificate"):
                    solve_iterative(_fork_instance(8), SolverOptions(restarts=3))
            else:
                solve_iterative(_fork_instance(8), SolverOptions(restarts=3))
        assert events == ["certificate", "reap", "reap"]
        kill.assert_not_called()
        assert _no_child_left()

    @pytest.mark.parametrize("failing", [1, 2])
    def test_a_fork_or_pipe_the_system_refuses_runs_here(self, failing):
        """The chunk of a worker that cannot be forked, and each after it, runs in
        this process: the report keeps its bytes and no child is left."""
        spec = _fork_instance(6)
        opts = SolverOptions(seed=6, restarts=5)
        serial = _serial_bytes(spec, opts)
        real_fork, calls = os.fork, []

        def fork():
            calls.append(None)
            if len(calls) == failing:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        with usable_cpus(3), mock.patch.object(os, "fork", fork):
            assert _dump(report_document(spec, solve_iterative(spec, opts))) == serial
        assert len(calls) == failing
        assert _no_child_left()
        with usable_cpus(3), mock.patch.object(os, "pipe", side_effect=OSError(24, "Too many open files")):
            assert _dump(report_document(spec, solve_iterative(spec, opts))) == serial
        assert _no_child_left()

    def test_a_warning_after_the_fork_loses_no_child(self):
        """Python >= 3.12 warns in the parent, once the child exists, when other OS
        threads run; under an error filter that must neither raise nor orphan it."""
        spec = _fork_instance(7)
        opts = SolverOptions(seed=7, restarts=2)
        serial = _serial_bytes(spec, opts)
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks",
                              DeprecationWarning, stacklevel=2)
            return pid

        with usable_cpus(2), mock.patch.object(os, "fork", fork), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _dump(report_document(spec, solve_iterative(spec, opts))) == serial
        assert _no_child_left()

    def test_nothing_forks_below_the_gate(self):
        big = _fork_instance(5)
        little_work = _fork_instance(5, num_symbols=FORK_MIN_WORK // big.num_cells - 1)
        few_symbols = random_instance(np.random.default_rng(5), num_symbols=FORK_MIN_SYMBOLS - 1,
                                      num_cells=-(-FORK_MIN_WORK // (FORK_MIN_SYMBOLS - 1)))
        assert little_work.num_symbols >= FORK_MIN_SYMBOLS
        assert few_symbols.num_symbols * few_symbols.num_cells >= FORK_MIN_WORK
        release = threading.Event()
        with usable_cpus(4), mock.patch.object(os, "fork") as fork:
            solve_iterative(little_work, SolverOptions(restarts=5))
            solve_iterative(few_symbols, SolverOptions(restarts=5))
            solve_iterative(big, SolverOptions(restarts=1))
            solve_iterative(big, SolverOptions(initial_assignment=[0] * big.num_symbols))
            other = threading.Thread(target=release.wait)
            other.start()
            try:
                solve_iterative(big, SolverOptions(restarts=5))
            finally:
                release.set()
                other.join(timeout=10)
            assert not other.is_alive()
            with usable_cpus(1):
                solve_iterative(big, SolverOptions(restarts=5))
        fork.assert_not_called()
