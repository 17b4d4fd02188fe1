"""Impurity and constraint functions: values, derivatives, concavity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chanpart import (
    ConstraintSpec,
    DimensionMismatchError,
    ENTROPY,
    GINI,
    ImpuritySpec,
    NegativeEntryError,
    NonPositiveEntryError,
    OutOfRangeError,
)
from chanpart.impurity import (
    _TINY,
    _column_gradients,
    _column_impurities,
    _short_sum,
    column_gradients,
    column_impurities,
    constraint_derivatives,
    constraint_total,
)

from conftest import binary_entropy, impurities

LOG2E = float(np.log2(np.e))

#: Cells on the boundary of the simplex, given to the property tests beside
#: their random draws: an exact zero entry, a single support and no mass.
#: The first two are probability vectors.
EDGE_COLUMNS = (np.array([0.6, 0.0, 0.4]), np.array([0.0, 1.0, 0.0]), np.zeros(3))


class TestCellImpurity:
    def test_entropy_balanced_half_mass(self):
        assert column_impurities(ENTROPY, [0.25, 0.25])[0] == pytest.approx(0.5, abs=1e-12)

    def test_entropy_skewed_cell(self):
        # weight 0.5 times the entropy of the (0.7, 0.3) conditional
        expected = 0.5 * binary_entropy(0.7)
        assert column_impurities(ENTROPY, [0.35, 0.15])[0] == pytest.approx(expected, abs=1e-12)

    def test_gini_values(self):
        assert column_impurities(GINI, [0.25, 0.25])[0] == pytest.approx(0.25, abs=1e-12)
        assert column_impurities(GINI, [0.3, 0.0])[0] == 0.0

    def test_zero_weight_and_pure_cells_score_zero(self):
        for spec in (ENTROPY, GINI):
            np.testing.assert_array_equal(
                impurities(spec, [0.0, 0.0, 0.0], [0.0, 0.4, 0.0]), [0.0, 0.0]
            )

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            column_impurities(ENTROPY, [0.5, -0.1])

    def test_value_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = rng.random(int(rng.integers(2, 6)))
            assert column_impurities(ENTROPY, v)[0] >= 0.0
            assert column_impurities(GINI, v)[0] >= 0.0


class TestCellGradient:
    def test_entropy_balanced(self):
        np.testing.assert_allclose(column_gradients(ENTROPY, [0.25, 0.25]), [1.0, 1.0], atol=1e-12)

    def test_entropy_skewed(self):
        expected = [np.log2(0.5 / 0.35), np.log2(0.5 / 0.15)]
        np.testing.assert_allclose(column_gradients(ENTROPY, [0.35, 0.15]), expected, atol=1e-12)

    def test_gini_balanced(self):
        np.testing.assert_allclose(column_gradients(GINI, [0.25, 0.25]), [0.5, 0.5], atol=1e-12)

    def test_zero_entries_clamped_finite(self):
        g = column_gradients(ENTROPY, [0.5, 0.0])
        assert np.all(np.isfinite(g))
        # clamped zero behaves like mass 1e-12
        assert g[1] == pytest.approx(np.log2((0.5 + 1e-12) / 1e-12), rel=1e-9)

    def test_material_negative_rejected(self):
        with pytest.raises(NonPositiveEntryError):
            column_gradients(ENTROPY, [0.5, -0.2])

    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_matches_central_differences(self, spec):
        rng = np.random.default_rng(21)
        step = 1e-6
        for _ in range(300):
            v = rng.uniform(0.05, 1.0, size=int(rng.integers(2, 6)))
            grad = column_gradients(spec, v)
            for n in range(v.size):
                up, down = v.copy(), v.copy()
                up[n] += step
                down[n] -= step
                f_up, f_down = impurities(spec, up, down)
                fd = (f_up - f_down) / (2 * step)
                rel = abs(grad[n] - fd) / max(abs(grad[n]), abs(fd), 1e-3)
                assert rel <= 1e-5


class TestConstraintValue:
    """``constraint_total`` of one-cell mass vectors gives g(p) of each mass."""

    def test_entropy_point_values(self):
        half, empty, full = constraint_total(ConstraintSpec.entropy(), [[0.5], [0.0], [1.0]])
        assert half == pytest.approx(0.5, abs=1e-12)
        assert empty == 0.0
        assert full == 0.0

    def test_linear_uses_cell_weight(self):
        g = ConstraintSpec.linear([2.0, 3.0])
        assert constraint_total(g, [0.0, 0.25]) == pytest.approx(0.75, abs=1e-12)
        assert constraint_total(g, [0.25, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_none_is_zero(self):
        assert constraint_total(ConstraintSpec.none(), [0.7]) == 0.0


class TestConstraintDerivative:
    def test_entropy_at_half(self):
        expected = -(np.log2(0.5) + LOG2E)
        assert constraint_derivatives(ConstraintSpec.entropy(), [0.5])[0] == pytest.approx(
            expected, abs=1e-12
        )

    def test_linear_is_constant(self):
        g = ConstraintSpec.linear([2.0, 3.0])
        for p in (0.0, 0.3, 1.0):
            assert constraint_derivatives(g, [p, 1.0 - p])[0] == 2.0

    def test_none_is_zero(self):
        assert constraint_derivatives(ConstraintSpec.none(), [0.4])[0] == 0.0

    def test_zero_mass_clamped_finite(self):
        d = constraint_derivatives(ConstraintSpec.entropy(), [0.0])[0]
        assert d == pytest.approx(-(np.log2(1e-12) + LOG2E), rel=1e-12)

    def test_matches_finite_differences(self):
        # the derivative crosses zero at p = 1/e, so the relative error uses
        # a small absolute floor to stay well-posed there
        g = ConstraintSpec.entropy()
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = float(rng.uniform(1e-6, 1.0 - 1e-6))
            h = min(p / 1e4, (1.0 - p) / 2.0)
            g_up, g_down = constraint_total(g, [[p + h], [p - h]])
            fd = (g_up - g_down) / (2 * h)
            d = constraint_derivatives(g, [p])[0]
            rel = abs(d - fd) / max(abs(d), abs(fd), 1e-3)
            assert rel <= 1e-5


class TestConstraintRefusals:
    @pytest.mark.parametrize("weights", [[1.0, np.nan], [[1.0, 2.0]], []], ids=["nan", "2-d", "empty"])
    def test_linear_weights_must_be_a_finite_vector(self, weights):
        with pytest.raises(DimensionMismatchError, match="^linear weights must be a finite 1-D vector$"):
            ConstraintSpec.linear(weights)

    def test_linear_masses_must_match_the_weights(self):
        g = ConstraintSpec.linear([2.0, 3.0])
        with pytest.raises(DimensionMismatchError, match="^3 cells but 2 linear weights$"):
            constraint_total(g, [0.2, 0.3, 0.5])
        with pytest.raises(DimensionMismatchError, match="^1 cells but 2 linear weights$"):
            constraint_derivatives(g, [0.5])


class TestWeightScaling:
    """Impurity scales linearly with the cell weight."""

    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_homogeneity(self, spec):
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(300):
            v = rng.random(int(rng.integers(2, 6)))
            cases.append((v, float(rng.uniform(0.01, 1.0))))
        cases += [(v, lam) for v in EDGE_COLUMNS for lam in (0.01, 0.5, 1.0)]
        for v, lam in cases:
            scaled, unscaled = impurities(spec, lam * v, v)
            assert scaled == pytest.approx(lam * unscaled, abs=1e-9)


class TestMergeSuperadditivity:
    """Merging two cells never lowers the impurity, with equality iff parallel."""

    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_merge_gain_nonnegative(self, spec):
        rng = np.random.default_rng(32)
        pairs = []
        for _ in range(300):
            n = int(rng.integers(2, 6))
            pairs.append((rng.random(n), rng.random(n)))
        pairs += [(a, b) for a in EDGE_COLUMNS for b in EDGE_COLUMNS]
        for a, b in pairs:
            merged, f_a, f_b = impurities(spec, a + b, a, b)
            assert merged >= f_a + f_b - 1e-9

    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_parallel_cells_merge_without_gain(self, spec):
        rng = np.random.default_rng(33)
        pairs = []
        for _ in range(100):
            a = rng.random(int(rng.integers(2, 6)))
            pairs.append((a, float(rng.uniform(0.1, 3.0)) * a))
        pairs += [(a, 2.0 * a) for a in EDGE_COLUMNS]
        for a, b in pairs:
            merged, f_a, f_b = impurities(spec, a + b, a, b)
            assert abs(merged - f_a - f_b) <= 1e-9


class TestSimplexConcavity:
    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_random_chords(self, spec):
        rng = np.random.default_rng(34)
        chords = []
        for _ in range(300):
            n = int(rng.integers(2, 6))
            a = rng.dirichlet(np.ones(n))
            b = rng.dirichlet(np.ones(n))
            chords.append((a, b, float(rng.uniform(0.0, 1.0))))
        # the all-zero column is the cone's apex, not a simplex point
        chords += [(a, b, lam) for a in EDGE_COLUMNS for b in EDGE_COLUMNS for lam in (0.0, 0.3, 1.0)]
        for a, b, lam in chords:
            mixed, f_a, f_b = impurities(spec, lam * a + (1 - lam) * b, a, b)
            assert mixed >= lam * f_a + (1 - lam) * f_b - 1e-9


class TestVectorKernels:
    """A batch of columns scores exactly as its columns one call at a time."""

    def test_column_impurities_match_scalar(self):
        rng = np.random.default_rng(41)
        cols = rng.random((4, 9))
        cols[:, 3] = 0.0
        for spec in (ENTROPY, GINI):
            batch = column_impurities(spec, cols)
            singles = [column_impurities(spec, cols[:, i])[0] for i in range(9)]
            np.testing.assert_array_equal(batch, singles)

    def test_column_gradients_match_scalar(self):
        rng = np.random.default_rng(42)
        cols = rng.random((3, 7))
        cols[0, 2] = 0.0
        for spec in (ENTROPY, GINI):
            batch = column_gradients(spec, cols)
            singles = np.stack([column_gradients(spec, cols[:, i]) for i in range(7)], axis=1)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("spec", [ENTROPY, GINI], ids=["entropy", "gini"])
    def test_public_kernels_reject_non_finite_entries(self, spec, bad):
        # unchecked, NaN scores a wrong finite Gini value and an infinity a NaN
        for kernel in (column_impurities, column_gradients):
            for cols in ([0.5, bad], [[0.5, 0.2], [0.1, bad]]):
                with pytest.raises(OutOfRangeError, match="cell vector has a non-finite entry"):
                    kernel(spec, cols)

    def test_bad_kind_rejected(self):
        with pytest.raises(OutOfRangeError):
            ImpuritySpec("median")
        with pytest.raises(OutOfRangeError):
            ConstraintSpec("quadratic")


class TestShortSum:
    """``_short_sum`` has the bits of ``ndarray.sum(axis=-1)``, compared as uint64
    words: a numpy that changes the order of its short reductions fails here."""

    @staticmethod
    def _terms(rng, shape):
        """Arrays of ``shape`` whose sums depend on the order of the adds, beside zeros
        of both signs, subnormals and entries near 1e300."""
        sign = rng.choice([-1.0, 1.0], shape)
        return {
            "mixed": rng.standard_normal(shape) * 10.0 ** rng.integers(-17, 17, shape),
            "zeros": np.zeros(shape),
            "negative-zeros": np.full(shape, -0.0),
            "signed-zeros": 0.0 * sign,
            "subnormals": sign * 5e-324 * rng.integers(1, 2**40, shape),
            "near-1e300": sign * rng.uniform(0.5, 1.0, shape) * 1e300 + rng.standard_normal(shape) * 1e284,
            "zeros-among-large": np.where(rng.random(shape) < 0.5, -0.0, sign * 1e300),
        }

    @pytest.mark.parametrize("length", range(1, 17))
    @pytest.mark.parametrize("rows", [(), (5,), (3, 4)], ids=["1-D", "2-D", "3-D"])
    def test_bits_match_numpy_sum(self, length, rows):
        rng = np.random.default_rng(length * 10 + len(rows))
        for name, terms in self._terms(rng, (*rows, length)).items():
            got = np.asarray(_short_sum(terms), dtype=np.float64).view(np.uint64)
            expected = np.asarray(terms.sum(axis=-1), dtype=np.float64).view(np.uint64)
            np.testing.assert_array_equal(got, expected, err_msg=name)


def _masked_impurities(kind: str, v: np.ndarray) -> np.ndarray:
    """The impurity kernel written with ``np.where`` masks instead of the subnormal
    clamp: five array temporaries, and the bits ``_column_impurities`` must keep."""
    w = v.sum(axis=0)
    if kind == "entropy":
        logv = np.log2(np.where(v > 0.0, v, 1.0))
        logw = np.log2(np.where(w > 0.0, w, 1.0))
        out = (v * (logw[None, :] - logv)).sum(axis=0)
    else:
        den = np.where(w > 0.0, w, 1.0)
        out = np.where(w > 0.0, w - (v * v).sum(axis=0) / den, 0.0)
    return np.maximum(out, 0.0)


#: Kernel entries: zeros of both signs, subnormals, values near the clamp of
#: any nearby power of ten, and ordinary masses.
KERNEL_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, _TINY]),
    st.floats(_TINY, 2.0**-1022, allow_subnormal=True),
    st.floats(1e-320, 1e-290, allow_subnormal=True),
    st.floats(0.0, 1.0),
)


@st.composite
def kernel_columns(draw):
    """N x C kernel input, N in 1..5 and C in 0..40: random entries with some
    columns cut to a single support or to all zeros, in C or Fortran order."""
    n, c = draw(st.integers(1, 5)), draw(st.integers(0, 40))
    v = draw(arrays(np.float64, (n, c), elements=KERNEL_ENTRIES))
    shape = draw(arrays(np.int8, c, elements=st.integers(0, 3)))  # 0: zero, 1: single, else free
    v[:, shape == 0] = draw(st.sampled_from([0.0, -0.0]))
    keep = draw(arrays(np.int64, c, elements=st.integers(0, n - 1)))
    v[(np.arange(n)[:, None] != keep) & (shape == 1)] = 0.0
    return np.asfortranarray(v) if draw(st.booleans()) else v


class TestKernelBits:
    """``_column_impurities`` clamps zeros to the smallest subnormal and keeps the
    bits of the masked formula, compared as uint64 words."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(v=kernel_columns())
    def test_clamped_kernel_matches_masked_formula(self, v):
        for spec in (ENTROPY, GINI):
            got = _column_impurities(spec, v).view(np.uint64)
            np.testing.assert_array_equal(got, _masked_impurities(spec.kind, v).view(np.uint64), err_msg=spec.kind)

    @pytest.mark.parametrize("layout", ["C", "F", "F-strided"])
    def test_many_sources_sum_in_the_order_of_their_layout(self, layout):
        # from 8 sources numpy sums a contiguous axis pairwise and other axes row by
        # row, so the kernel lays its terms out as its input is laid out
        rng = np.random.default_rng(44)
        v = rng.random((12, 60)) * (rng.random((12, 60)) < 0.7)
        v = {"C": v, "F": np.asfortranarray(v), "F-strided": np.asfortranarray(v)[:, ::2]}[layout]
        for spec in (ENTROPY, GINI):
            got = _column_impurities(spec, v).view(np.uint64)
            np.testing.assert_array_equal(got, _masked_impurities(spec.kind, v).view(np.uint64), err_msg=spec.kind)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 1000])
    def test_log2_of_the_clamp_is_exact(self, length):
        # numpy's SIMD log2 handles the smallest subnormal, in every lane and in the
        # scalar tail, in place and at an offset start: the entropy kernel relies on it
        for offset in (0, 1):
            for position in sorted({0, length // 2, length - 1}):
                x = np.linspace(0.25, 4.0, length + offset)[offset:]
                x[position] = _TINY
                assert np.log2(x)[position] == -1074.0
                np.log2(x, out=x)
                assert x[position] == -1074.0
