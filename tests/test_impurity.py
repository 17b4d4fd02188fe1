"""Impurity and constraint functions: values, derivatives, concavity."""

import numpy as np
import pytest

from chanpart import (
    ConstraintSpec,
    ENTROPY,
    GINI,
    ImpuritySpec,
    IndexOutOfRangeError,
    NegativeEntryError,
    NonPositiveEntryError,
    OutOfRangeError,
    cell_gradient,
    cell_impurity,
    constraint_derivative,
    constraint_value,
)
from chanpart.impurity import _column_gradients, _column_impurities, column_gradients, column_impurities

from conftest import binary_entropy

LOG2E = float(np.log2(np.e))


class TestCellImpurity:
    def test_entropy_balanced_half_mass(self):
        assert cell_impurity(ENTROPY, [0.25, 0.25]) == pytest.approx(0.5, abs=1e-12)

    def test_entropy_skewed_cell(self):
        # weight 0.5 times the entropy of the (0.7, 0.3) conditional
        expected = 0.5 * binary_entropy(0.7)
        assert cell_impurity(ENTROPY, [0.35, 0.15]) == pytest.approx(expected, abs=1e-12)

    def test_gini_values(self):
        assert cell_impurity(GINI, [0.25, 0.25]) == pytest.approx(0.25, abs=1e-12)
        assert cell_impurity(GINI, [0.3, 0.0]) == 0.0

    def test_zero_weight_and_pure_cells_score_zero(self):
        for spec in (ENTROPY, GINI):
            assert cell_impurity(spec, [0.0, 0.0, 0.0]) == 0.0
            assert cell_impurity(spec, [0.0, 0.4, 0.0]) == 0.0

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            cell_impurity(ENTROPY, [0.5, -0.1])

    def test_value_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = rng.random(int(rng.integers(2, 6)))
            assert cell_impurity(ENTROPY, v) >= 0.0
            assert cell_impurity(GINI, v) >= 0.0


class TestCellGradient:
    def test_entropy_balanced(self):
        np.testing.assert_allclose(cell_gradient(ENTROPY, [0.25, 0.25]), [1.0, 1.0], atol=1e-12)

    def test_entropy_skewed(self):
        expected = [np.log2(0.5 / 0.35), np.log2(0.5 / 0.15)]
        np.testing.assert_allclose(cell_gradient(ENTROPY, [0.35, 0.15]), expected, atol=1e-12)

    def test_gini_balanced(self):
        np.testing.assert_allclose(cell_gradient(GINI, [0.25, 0.25]), [0.5, 0.5], atol=1e-12)

    def test_zero_entries_clamped_finite(self):
        g = cell_gradient(ENTROPY, [0.5, 0.0])
        assert np.all(np.isfinite(g))
        # clamped zero behaves like mass 1e-12
        assert g[1] == pytest.approx(np.log2((0.5 + 1e-12) / 1e-12), rel=1e-9)

    def test_material_negative_rejected(self):
        with pytest.raises(NonPositiveEntryError):
            cell_gradient(ENTROPY, [0.5, -0.2])

    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_matches_central_differences(self, spec):
        rng = np.random.default_rng(21)
        step = 1e-6
        for _ in range(300):
            v = rng.uniform(0.05, 1.0, size=int(rng.integers(2, 6)))
            grad = cell_gradient(spec, v)
            for n in range(v.size):
                up, down = v.copy(), v.copy()
                up[n] += step
                down[n] -= step
                fd = (cell_impurity(spec, up) - cell_impurity(spec, down)) / (2 * step)
                rel = abs(grad[n] - fd) / max(abs(grad[n]), abs(fd), 1e-3)
                assert rel <= 1e-5


class TestConstraintValue:
    def test_entropy_point_values(self):
        g = ConstraintSpec.entropy()
        assert constraint_value(g, 0, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert constraint_value(g, 0, 0.0) == 0.0
        assert constraint_value(g, 0, 1.0) == 0.0

    def test_linear_uses_cell_weight(self):
        g = ConstraintSpec.linear([2.0, 3.0])
        assert constraint_value(g, 1, 0.25) == pytest.approx(0.75, abs=1e-12)
        assert constraint_value(g, 0, 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_none_is_zero(self):
        assert constraint_value(ConstraintSpec.none(), 0, 0.7) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            constraint_value(ConstraintSpec.entropy(), 0, 1.5)
        with pytest.raises(OutOfRangeError):
            constraint_value(ConstraintSpec.entropy(), 0, -0.1)

    def test_linear_index_checked(self):
        with pytest.raises(IndexOutOfRangeError):
            constraint_value(ConstraintSpec.linear([1.0]), 1, 0.5)


class TestConstraintDerivative:
    def test_entropy_at_half(self):
        expected = -(np.log2(0.5) + LOG2E)
        assert constraint_derivative(ConstraintSpec.entropy(), 0, 0.5) == pytest.approx(
            expected, abs=1e-12
        )

    def test_linear_is_constant(self):
        g = ConstraintSpec.linear([2.0, 3.0])
        for p in (0.0, 0.3, 1.0):
            assert constraint_derivative(g, 0, p) == 2.0

    def test_none_is_zero(self):
        assert constraint_derivative(ConstraintSpec.none(), 0, 0.4) == 0.0

    def test_zero_mass_clamped_finite(self):
        d = constraint_derivative(ConstraintSpec.entropy(), 0, 0.0)
        assert d == pytest.approx(-(np.log2(1e-12) + LOG2E), rel=1e-12)

    def test_matches_finite_differences(self):
        # the derivative crosses zero at p = 1/e, so the relative error uses
        # a small absolute floor to stay well-posed there
        g = ConstraintSpec.entropy()
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = float(rng.uniform(1e-6, 1.0 - 1e-6))
            h = min(p / 1e4, (1.0 - p) / 2.0)
            fd = (constraint_value(g, 0, p + h) - constraint_value(g, 0, p - h)) / (2 * h)
            d = constraint_derivative(g, 0, p)
            rel = abs(d - fd) / max(abs(d), abs(fd), 1e-3)
            assert rel <= 1e-5


class TestWeightScaling:
    """Impurity scales linearly with the cell weight."""

    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_homogeneity(self, spec):
        rng = np.random.default_rng(31)
        for _ in range(300):
            v = rng.random(int(rng.integers(2, 6)))
            lam = float(rng.uniform(0.01, 1.0))
            assert cell_impurity(spec, lam * v) == pytest.approx(
                lam * cell_impurity(spec, v), abs=1e-9
            )


class TestMergeSuperadditivity:
    """Merging two cells never lowers the impurity, with equality iff parallel."""

    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_merge_gain_nonnegative(self, spec):
        rng = np.random.default_rng(32)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            a, b = rng.random(n), rng.random(n)
            merged = cell_impurity(spec, a + b)
            assert merged >= cell_impurity(spec, a) + cell_impurity(spec, b) - 1e-9

    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_parallel_cells_merge_without_gain(self, spec):
        rng = np.random.default_rng(33)
        for _ in range(100):
            a = rng.random(int(rng.integers(2, 6)))
            b = float(rng.uniform(0.1, 3.0)) * a
            gain = cell_impurity(spec, a + b) - cell_impurity(spec, a) - cell_impurity(spec, b)
            assert abs(gain) <= 1e-9


class TestSimplexConcavity:
    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_random_chords(self, spec):
        rng = np.random.default_rng(34)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            a = rng.dirichlet(np.ones(n))
            b = rng.dirichlet(np.ones(n))
            lam = float(rng.uniform(0.0, 1.0))
            mixed = cell_impurity(spec, lam * a + (1 - lam) * b)
            assert mixed >= lam * cell_impurity(spec, a) + (1 - lam) * cell_impurity(spec, b) - 1e-9


class TestVectorKernels:
    """The batched kernels must agree with the scalar operations exactly."""

    def test_column_impurities_match_scalar(self):
        rng = np.random.default_rng(41)
        cols = rng.random((4, 9))
        cols[:, 3] = 0.0
        for spec in (ENTROPY, GINI):
            batch = column_impurities(spec, cols)
            singles = [cell_impurity(spec, cols[:, i]) for i in range(9)]
            np.testing.assert_array_equal(batch, singles)

    def test_column_gradients_match_scalar(self):
        rng = np.random.default_rng(42)
        cols = rng.random((3, 7))
        cols[0, 2] = 0.0
        for spec in (ENTROPY, GINI):
            batch = column_gradients(spec, cols)
            singles = np.stack([cell_gradient(spec, cols[:, i]) for i in range(7)], axis=1)
            np.testing.assert_array_equal(batch, singles)

    def test_matrix_kernels_reject_negative_entries(self):
        cols = np.array([[0.5, 0.2], [0.1, -0.2]])
        for spec in (ENTROPY, GINI):
            with pytest.raises(NegativeEntryError):
                column_impurities(spec, cols)
            with pytest.raises(NonPositiveEntryError):
                column_gradients(spec, cols)

    def test_unchecked_kernels_match_on_nonnegative_columns(self):
        rng = np.random.default_rng(43)
        cols = rng.random((3, 8))
        cols[:, 1] = 0.0
        cols[:, 2] = -0.0
        cols[1, 4] = -0.0
        for spec in (ENTROPY, GINI):
            np.testing.assert_array_equal(_column_impurities(spec, cols), column_impurities(spec, cols))
            np.testing.assert_array_equal(_column_gradients(spec, cols), column_gradients(spec, cols))

    def test_bad_kind_rejected(self):
        with pytest.raises(OutOfRangeError):
            ImpuritySpec("median")
        with pytest.raises(OutOfRangeError):
            ConstraintSpec("quadratic")
