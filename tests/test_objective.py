"""Objective evaluation, assignment distances, and single-move paths."""

import numpy as np
import pytest

from chanpart import (
    ChannelMatrix,
    ConstraintSpec,
    DimensionMismatchError,
    ENTROPY,
    ImpuritySpec,
    IndexOutOfRangeError,
    InvalidMoveError,
    OutOfRangeError,
    ProblemSpec,
    Quantizer,
    distance_matrix,
    evaluate,
    path_objective,
    solve_bruteforce,
    validate_joint,
)

from conftest import binary_entropy, make_e1_spec, random_hard_labels, random_instance

E1_OPT = Quantizer.hard([0, 0, 1, 1], 2)


class TestEvaluate:
    def test_e1_optimal_partition_objective(self, e1_spec):
        expected = 0.5 * binary_entropy(0.7) + 0.5 * binary_entropy(0.3)
        state = evaluate(e1_spec, E1_OPT)
        assert state.objective == pytest.approx(expected, abs=1e-12)
        assert state.F_value == pytest.approx(expected, abs=1e-12)
        assert state.G_value == 0.0

    def test_single_cell_collapse_gives_source_entropy(self):
        spec = make_e1_spec(num_cells=1)
        state = evaluate(spec, Quantizer.hard([0, 0, 0, 0], 1))
        assert state.objective == pytest.approx(binary_entropy(0.5), abs=1e-12)

    def test_entropy_constraint_adds_cell_entropy(self):
        spec = make_e1_spec(constraint="entropy")
        state = evaluate(spec, E1_OPT)
        assert state.G_value == pytest.approx(1.0, abs=1e-12)  # balanced halves
        assert state.objective == pytest.approx(state.F_value + 1.0, abs=1e-12)

    def test_objective_combines_terms_exactly(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            spec = random_instance(rng)
            q = Quantizer.hard(random_hard_labels(rng, spec), spec.num_cells)
            state = evaluate(spec, q)
            assert state.objective == spec.beta * state.F_value + state.G_value

    def test_soft_quantizer_accepted(self, e1_spec):
        q = Quantizer.soft(np.full((4, 2), 0.5))
        state = evaluate(e1_spec, q)
        assert state.objective == pytest.approx(1.0, abs=1e-12)  # fully mixed cells

    def test_wrong_cell_count_rejected(self, e1_spec):
        with pytest.raises(DimensionMismatchError):
            evaluate(e1_spec, Quantizer.hard([0, 0, 1, 2], 3))

    def test_spec_refuses_non_integer_cell_count(self):
        # each count would match its channel's row count
        for count, rows in ((2.0, 2), (True, 1)):
            with pytest.raises(OutOfRangeError, match=f"^num_cells must be an integer, got {count!r}$"):
                make_e1_spec(num_cells=count, channel=ChannelMatrix.identity(rows))
        assert make_e1_spec(num_cells=np.int64(2)).num_cells == 2

    def test_gradients_shapes(self, e1_spec):
        state = evaluate(e1_spec, E1_OPT)
        assert state.output_gradients.shape == (2, 2)
        assert state.constraint_derivatives.shape == (2,)


class TestDistance:
    def test_scaled_distance_is_cross_entropy(self, e1_spec):
        # Y1 has posterior (0.8, 0.2); cell 1 holds joint (0.35, 0.15)
        state = evaluate(e1_spec, E1_OPT)
        expected = 0.8 * np.log2(0.5 / 0.35) + 0.2 * np.log2(0.5 / 0.15)
        assert distance_matrix(state, e1_spec)[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_matching_posterior_gives_cell_entropy(self):
        # a symbol whose posterior equals the cell conditional (0.7, 0.3)
        joint = validate_joint([[0.35, 0.07, 0.28], [0.15, 0.03, 0.12]])
        spec = ProblemSpec(
            joint=joint,
            channel=ChannelMatrix.identity(2),
            num_cells=2,
            impurity=ENTROPY,
            constraint=ConstraintSpec.none(),
            beta=1.0,
        )
        state = evaluate(spec, Quantizer.hard([0, 1, 1], 2))
        assert distance_matrix(state, spec)[0, 1] == pytest.approx(
            binary_entropy(0.7), abs=1e-12
        )

    def test_identical_channel_rows_give_equal_distances(self):
        rng = np.random.default_rng(51)
        raw = rng.random((3, 5)) + 0.1
        joint = validate_joint(raw / raw.sum())
        row = np.array([0.2, 0.5, 0.3])
        spec = ProblemSpec(
            joint=joint,
            channel=ChannelMatrix(np.stack([row, row])),
            num_cells=2,
            impurity=ENTROPY,
            constraint=ConstraintSpec.none(),
            beta=2.5,
        )
        q = Quantizer.hard([0, 1, 0, 1, 0], 2)
        full = distance_matrix(evaluate(spec, q), spec, scaled=False)
        for m in range(5):
            assert full[0, m] == pytest.approx(full[1, m], abs=1e-12)

    def test_full_and_scaled_share_argmin_and_ties(self):
        rng = np.random.default_rng(52)
        for _ in range(60):
            spec = random_instance(rng)
            q = Quantizer.hard(random_hard_labels(rng, spec), spec.num_cells)
            state = evaluate(spec, q)
            full = distance_matrix(state, spec, scaled=False)
            scaled = distance_matrix(state, spec, scaled=True)
            np.testing.assert_array_equal(full.argmin(axis=0), scaled.argmin(axis=0))

    def test_full_is_mass_times_scaled(self):
        rng = np.random.default_rng(53)
        spec = random_instance(rng)
        q = Quantizer.hard(random_hard_labels(rng, spec), spec.num_cells)
        state = evaluate(spec, q)
        full = distance_matrix(state, spec, scaled=False)
        scaled = distance_matrix(state, spec, scaled=True)
        mass = spec.joint.symbol_marginal
        np.testing.assert_allclose(full, scaled * mass[None, :], rtol=1e-12, atol=1e-15)


class TestPathObjective:
    def test_endpoints_match_evaluate(self, e1_spec):
        q = E1_OPT
        start = evaluate(e1_spec, q).objective
        moved = evaluate(e1_spec, Quantizer.hard([0, 1, 1, 1], 2)).objective
        assert path_objective(e1_spec, q, 1, 0, 1, 0.0) == pytest.approx(start, abs=1e-12)
        assert path_objective(e1_spec, q, 1, 0, 1, 1.0) == pytest.approx(moved, abs=1e-12)

    def test_e1_full_move_value(self, e1_spec):
        # moving Y2 out of {Y1, Y2} leaves cells of mass 0.25 and 0.75
        expected = 0.25 * binary_entropy(0.8) + 0.75 * binary_entropy(0.4)
        assert path_objective(e1_spec, E1_OPT, 1, 0, 1, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_invalid_moves_rejected(self, e1_spec):
        with pytest.raises(InvalidMoveError):
            path_objective(e1_spec, E1_OPT, 2, 0, 1, 0.5)  # Y3 is not in cell 0
        with pytest.raises(InvalidMoveError):
            path_objective(e1_spec, E1_OPT, 0, 0, 0, 0.5)  # same cell
        with pytest.raises(OutOfRangeError):
            path_objective(e1_spec, E1_OPT, 0, 0, 1, 1.5)
        with pytest.raises(IndexOutOfRangeError):
            path_objective(e1_spec, E1_OPT, 4, 0, 1, 0.5)  # no symbol 4
        with pytest.raises(IndexOutOfRangeError):
            path_objective(e1_spec, E1_OPT, 0, 0, 2, 0.5)  # no cell 2

    def test_full_move_matches_evaluate_of_the_moved_partition(self):
        # includes moves that empty the source cell and more cells than symbols
        rng = np.random.default_rng(57)
        emptied = 0
        for trial in range(120):
            cells = int(rng.integers(2, 5))
            symbols = int(rng.integers(1, cells)) if trial % 3 == 0 else None
            spec = random_instance(rng, num_symbols=symbols, num_cells=cells)
            labels = random_hard_labels(rng, spec)
            m = int(rng.integers(spec.num_symbols))
            source = int(labels[m])
            target = int(rng.choice([k for k in range(spec.num_cells) if k != source]))
            moved = labels.copy()
            moved[m] = target
            expected = evaluate(spec, Quantizer.hard(moved, spec.num_cells)).objective
            q = Quantizer.hard(labels, spec.num_cells)
            assert path_objective(spec, q, m, source, target, 1.0) == pytest.approx(expected, abs=1e-12)
            emptied += int(np.count_nonzero(labels == source) == 1)
        assert emptied > 0

    def test_chord_slopes_decrease(self):
        """Moving further never improves the per-unit gain of a move."""
        rng = np.random.default_rng(54)
        checked = 0
        while checked < 100:
            spec = random_instance(rng)
            if spec.num_cells < 2:
                continue
            labels = random_hard_labels(rng, spec)
            q = Quantizer.hard(labels, spec.num_cells)
            m = int(rng.integers(spec.num_symbols))
            source = int(labels[m])
            target = int(rng.choice([k for k in range(spec.num_cells) if k != source]))
            t = float(rng.uniform(1e-4, 1.0))
            a = float(rng.uniform(t, 1.0))
            if a <= t:
                continue
            base = path_objective(spec, q, m, source, target, 0.0)
            left = (path_objective(spec, q, m, source, target, t) - base) / t
            right = (path_objective(spec, q, m, source, target, a) - base) / a
            assert left >= right - 1e-9
            checked += 1

    def test_initial_slope_matches_distance_difference(self):
        # restricted to populated target cells: distances to empty cells use
        # the clamped boundary extension, not the true directional derivative
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 60:
            spec = random_instance(rng)
            if spec.num_cells < 2:
                continue
            labels = random_hard_labels(rng, spec)
            q = Quantizer.hard(labels, spec.num_cells)
            state = evaluate(spec, q)
            m = int(rng.integers(spec.num_symbols))
            source = int(labels[m])
            populated = [
                k
                for k in range(spec.num_cells)
                if k != source and state.cluster_joints.cluster_mass[k] > 0
            ]
            if not populated:
                continue
            target = int(rng.choice(populated))
            full = distance_matrix(state, spec, scaled=False)
            predicted = full[target, m] - full[source, m]
            if abs(predicted) < 1e-6:
                continue  # slope too small for a stable relative comparison
            t = 1e-6
            base = path_objective(spec, q, m, source, target, 0.0)
            slope = (path_objective(spec, q, m, source, target, t) - base) / t
            assert slope == pytest.approx(predicted, rel=1e-3)
            checked += 1


class TestSoftNeverBeatsHard:
    def test_sampled_soft_quantizers_dominated(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            spec = random_instance(rng)
            hard_best = solve_bruteforce(spec).objective
            soft_rows = rng.dirichlet(np.ones(spec.num_cells), size=(100, spec.num_symbols))
            for s in soft_rows:
                obj = evaluate(spec, Quantizer.soft(s)).objective
                assert obj >= hard_best - 1e-9
