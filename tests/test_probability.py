"""Containers and the linear forward model."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanpart import (
    ChannelMatrix,
    ClusterJoints,
    DimensionMismatchError,
    IndexOutOfRangeError,
    JointDistribution,
    NegativeEntryError,
    OutOfRangeError,
    OutputJoints,
    Quantizer,
    SumNotOneError,
    ZeroColumnError,
    posteriors,
    push_through_channel,
    push_to_clusters,
    validate_channel,
    validate_joint,
)

from chanpart import exact, probability
from chanpart.probability import cell_joints

from conftest import E1_JOINT


class TestValidateJoint:
    def test_single_column_uniform(self):
        j = validate_joint([[0.5], [0.5]])
        assert j.num_sources == 2
        assert j.num_symbols == 1
        np.testing.assert_allclose(j.symbol_marginal, [1.0])

    def test_e1_column_sums(self):
        j = validate_joint(E1_JOINT)
        np.testing.assert_allclose(j.symbol_marginal, [0.25, 0.25, 0.25, 0.25], atol=1e-15)
        np.testing.assert_allclose(j.source_marginal, [0.5, 0.5], atol=1e-15)

    def test_rejects_sum_off_by_too_much(self):
        with pytest.raises(SumNotOneError):
            validate_joint([[0.6], [0.6]])

    def test_rejects_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            validate_joint([[0.7, -0.1], [0.2, 0.2]])

    def test_rejects_zero_column(self):
        with pytest.raises(ZeroColumnError):
            validate_joint([[0.5, 0.0], [0.5, 0.0]])

    def test_normalizes_small_deviation(self):
        raw = np.array(E1_JOINT) * (1.0 + 5e-7)
        j = validate_joint(raw)
        assert abs(float(j.entries.sum()) - 1.0) <= 1e-12

    def test_rejects_single_source_row(self):
        with pytest.raises(DimensionMismatchError):
            validate_joint([[1.0, 0.0]])

    def test_entries_read_only(self):
        j = validate_joint(E1_JOINT)
        with pytest.raises(ValueError):
            j.entries[0, 0] = 0.3

    def test_checks_and_copies_once(self):
        raw = np.array([[0.25, -0.0, 0.2, 1e-300], [0.05, 0.3, 0.0, 0.2]]) * (1.0 + 5e-7)
        before = raw.copy()
        with mock.patch.object(probability, "_distribution", wraps=probability._distribution) as check:
            j = validate_joint(raw)
        assert check.call_count == 1
        assert raw.tobytes() == before.tobytes() and not np.shares_memory(j.entries, raw)
        # the bits of the rescaled array checked again by the container
        assert j.entries.tobytes() == JointDistribution(np.maximum(raw, 0.0) / raw.sum()).entries.tobytes()

    @pytest.mark.parametrize(
        ("entries", "error"),
        [
            ([[0.6], [0.6]], SumNotOneError),
            ([[0.5, 0.0], [0.5, 0.0]], ZeroColumnError),
            ([[np.nan, 0.5], [0.5, 0.0]], OutOfRangeError),
            ([[1.0, 0.0]], DimensionMismatchError),
        ],
        ids=["sum", "zero-column", "nan-entry", "one-row"],
    )
    def test_direct_construction_still_checks(self, entries, error):
        with pytest.raises(error):
            JointDistribution(np.array(entries))


class TestPosteriors:
    def test_single_column(self):
        j = validate_joint([[0.5], [0.5]])
        np.testing.assert_allclose(posteriors(j), [[0.5], [0.5]])

    def test_e1_first_source_row(self):
        j = validate_joint(E1_JOINT)
        np.testing.assert_allclose(posteriors(j)[0], [0.8, 0.6, 0.2, 0.4], atol=1e-15)

    def test_identical_columns_give_identical_posteriors(self):
        j = validate_joint([[0.2, 0.2, 0.1], [0.2, 0.2, 0.1]])
        p = posteriors(j)
        np.testing.assert_allclose(p[:, 0], p[:, 1], atol=0)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(3)
        raw = rng.random((4, 7)) + 0.01
        j = validate_joint(raw / raw.sum())
        np.testing.assert_allclose(posteriors(j).sum(axis=0), np.ones(7), atol=1e-12)


class TestPushToClusters:
    def test_identity_grouping_reproduces_joint(self):
        j = validate_joint(E1_JOINT)
        q = Quantizer.hard([0, 1, 2, 3], 4)
        c = push_to_clusters(j, q)
        np.testing.assert_allclose(c.entries, j.entries, atol=0)

    def test_e1_pairing(self):
        j = validate_joint(E1_JOINT)
        q = Quantizer.hard([0, 0, 1, 1], 2)
        c = push_to_clusters(j, q)
        np.testing.assert_allclose(c.entries, [[0.35, 0.15], [0.15, 0.35]], atol=1e-15)
        np.testing.assert_allclose(c.cluster_mass, [0.5, 0.5], atol=1e-15)

    def test_uniform_soft_splits_source_marginal(self):
        j = validate_joint(E1_JOINT)
        q = Quantizer.soft(np.full((4, 2), 0.5))
        c = push_to_clusters(j, q)
        expected = np.outer(j.source_marginal, [0.5, 0.5])
        np.testing.assert_allclose(c.entries, expected, atol=1e-15)

    def test_dimension_mismatch(self):
        j = validate_joint(E1_JOINT)
        with pytest.raises(DimensionMismatchError):
            push_to_clusters(j, Quantizer.hard([0, 1, 0], 2))

    def test_hard_equals_zero_one_soft(self):
        j = validate_joint(E1_JOINT)
        hard = Quantizer.hard([1, 0, 1, 0], 2)
        soft = Quantizer.soft(hard.membership_matrix())
        np.testing.assert_array_equal(
            push_to_clusters(j, hard).entries, push_to_clusters(j, soft).entries
        )

    def test_empty_cells_are_zero_columns(self):
        j = validate_joint(E1_JOINT)
        c = push_to_clusters(j, Quantizer.hard([0, 0, 0, 0], 3))
        np.testing.assert_allclose(c.entries[:, 1:], 0.0, atol=0)


class TestCellJoints:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        lead=st.sampled_from([(), (1,), (3,), (0,), (2, 3), (3, 1)]),
        m=st.integers(0, 9),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_label_rows_sum_as_one_labelling_each(self, lead, m, k, seed):
        rng = np.random.default_rng(seed)
        entries = rng.random((3, m))
        labels = rng.integers(0, k, size=(*lead, m))
        cells = cell_joints(entries, labels, k)
        assert cells.shape == (3, *lead, k) and cells.dtype == float
        for index in np.ndindex(*lead):
            single = cell_joints(entries, labels[index], k)
            assert cells[(slice(None), *index)].tobytes() == single.tobytes()
            # one labelling: each cell adds its symbols in ascending order onto 0.0
            expected = np.zeros((3, k))
            for symbol, label in enumerate(labels[index].tolist()):
                expected[:, label] += entries[:, symbol]
            assert single.tobytes() == expected.tobytes()

    def test_a_block_tiles_one_source_row_at_a_time(self):
        rng = np.random.default_rng(5)
        rows, k = 64, 4
        symbols = (exact._BLOCK_ENTRIES - 1) // rows  # a block of fewer than _BLOCK_ENTRIES labels
        entries = rng.random((8, symbols))
        labels = rng.integers(0, k, size=(rows, symbols))
        tracemalloc.start()
        try:
            cells = cell_joints(entries, labels, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_bytes = labels.size * entries.itemsize  # one source row tiled for every label row
        assert row_bytes < 128 * 1024
        # the offset labels, one tiled row, and the N bincounts before they are stacked into the result
        assert peak < labels.size * labels.itemsize + row_bytes + 2 * cells.nbytes + 16 * 1024


class TestPushThroughChannel:
    def test_identity_channel_is_noop(self):
        j = validate_joint(E1_JOINT)
        c = push_to_clusters(j, Quantizer.hard([0, 0, 1, 1], 2))
        o = push_through_channel(c, ChannelMatrix.identity(2))
        np.testing.assert_allclose(o.entries, c.entries, atol=0)

    def test_symmetric_flip_mixing(self):
        j = validate_joint(E1_JOINT)
        c = push_to_clusters(j, Quantizer.hard([0, 0, 1, 1], 2))
        a = ChannelMatrix([[0.9, 0.1], [0.1, 0.9]])
        o = push_through_channel(c, a)
        np.testing.assert_allclose(o.entries, [[0.33, 0.17], [0.17, 0.33]], atol=1e-12)

    def test_single_output_collapses_to_source_marginal(self):
        j = validate_joint(E1_JOINT)
        c = push_to_clusters(j, Quantizer.hard([0, 0, 1, 1], 2))
        o = push_through_channel(c, ChannelMatrix([[1.0], [1.0]]))
        assert o.num_outputs == 1
        np.testing.assert_allclose(o.entries[:, 0], j.source_marginal, atol=1e-15)

    def test_dimension_mismatch(self):
        j = validate_joint(E1_JOINT)
        c = push_to_clusters(j, Quantizer.hard([0, 0, 1, 1], 2))
        with pytest.raises(DimensionMismatchError):
            push_through_channel(c, ChannelMatrix.identity(3))


@pytest.mark.parametrize("container", [ClusterJoints, OutputJoints])
@pytest.mark.parametrize(
    ("entries", "error"),
    [
        ([[np.nan, 0.5], [0.5, 0.0]], OutOfRangeError),
        ([[-0.5, 1.0], [0.25, 0.25]], NegativeEntryError),
    ],
    ids=["nan-entry", "negative-entry"],
)
def test_joint_containers_refuse_what_validation_refuses(container, entries, error):
    with pytest.raises(error):
        container(np.array(entries))


@pytest.mark.parametrize(
    ("container", "mass"), [(ClusterJoints, "cluster_mass"), (OutputJoints, "output_mass")]
)
def test_joint_container_mass_is_the_read_only_column_sums(container, mass):
    rng = np.random.default_rng(61)
    for shape in [(2, 1), (3, 4), (2, 7)]:
        e = rng.random(shape)
        e /= e.sum()
        joints = container(e)
        column_sums = getattr(joints, mass)
        np.testing.assert_array_equal(column_sums, e.sum(axis=0), strict=True)
        assert not column_sums.flags.writeable
        with pytest.raises(ValueError):
            column_sums[0] = 0.0
        with pytest.raises(AttributeError):
            setattr(joints, mass, e.sum(axis=0))
    with pytest.raises(TypeError):
        container(e, e.sum(axis=0))  # the mass is derived, not passed


class TestConservation:
    """Mass must survive the quantizer and the channel."""

    def test_total_and_per_row_mass(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m, k, h = rng.integers(2, 6), rng.integers(1, 9), rng.integers(1, 5), rng.integers(1, 5)
            raw = rng.random((n, m)) + 0.01
            j = validate_joint(raw / raw.sum())
            soft = rng.dirichlet(np.ones(k), size=m)
            q = Quantizer.soft(soft)
            a = rng.random((k, h)) + 0.01
            channel = ChannelMatrix(a / a.sum(axis=1, keepdims=True))
            o = push_through_channel(push_to_clusters(j, q), channel)
            assert abs(float(o.entries.sum()) - 1.0) <= 1e-9
            np.testing.assert_allclose(
                o.entries.sum(axis=1), j.entries.sum(axis=1), atol=1e-9
            )

    def test_convex_combination_of_quantizers_is_linear(self):
        rng = np.random.default_rng(12)
        raw = rng.random((3, 6)) + 0.01
        j = validate_joint(raw / raw.sum())
        s1 = rng.dirichlet(np.ones(3), size=6)
        s2 = rng.dirichlet(np.ones(3), size=6)
        for lam in (0.15, 0.5, 0.9):
            mixed = Quantizer.soft(lam * s1 + (1 - lam) * s2)
            c_mixed = push_to_clusters(j, mixed).entries
            c_blend = (
                lam * push_to_clusters(j, Quantizer.soft(s1)).entries
                + (1 - lam) * push_to_clusters(j, Quantizer.soft(s2)).entries
            )
            np.testing.assert_allclose(c_mixed, c_blend, atol=1e-12)


class TestQuantizer:
    def test_rejects_label_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            Quantizer.hard([0, 2], 2)
        for not_a_label in (0.5, np.inf, np.nan):
            with pytest.raises(IndexOutOfRangeError, match="integer cell labels"):
                Quantizer.hard([0, not_a_label], 2)
        for not_labels in ([True, False], ["0", "1"], [0, None], [0, 1 + 0j]):
            with pytest.raises(IndexOutOfRangeError, match="integer cell labels"):
                Quantizer.hard(not_labels, 2)
        with pytest.raises(IndexOutOfRangeError, match=r"got range \[0, 1000000000000000019884624838656\]"):
            Quantizer.hard([0, 1e30], 2)

    def test_rejects_non_integer_cell_count(self):
        for count in (2.5, True):
            with pytest.raises(OutOfRangeError, match=f"^num_cells must be an integer, got {count!r}$"):
                Quantizer.hard([0, 1, 0], count)
        assert Quantizer.hard([0, 1, 2], np.int64(3)).num_cells == 3
        with pytest.raises(DimensionMismatchError, match=r"^num_cells must be >= 1, got 0$"):
            Quantizer.hard([0], 0)
        with pytest.raises(DimensionMismatchError, match=r"^num_cells must be >= 1, got an int of 16610 bits$"):
            Quantizer.hard([0], -(10**5000))

    def test_rejects_bad_soft_rows(self):
        with pytest.raises(SumNotOneError):
            Quantizer.soft([[0.7, 0.7], [0.5, 0.5]])

    def test_soft_refusal_names_the_shape(self):
        with pytest.raises(DimensionMismatchError, match=r"soft assignment needs a 2-D shape .* got \(2,\)"):
            Quantizer.soft([0.5, 0.5])

    def test_membership_matrix_is_one_hot(self):
        q = Quantizer.hard([1, 0, 1], 2)
        np.testing.assert_array_equal(q.membership_matrix(), [[0, 1], [1, 0], [0, 1]])

    def test_soft_membership_matrix_is_the_stored_rows(self):
        rows = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
        q = Quantizer.soft(rows)
        assert q.membership_matrix() is q.soft_assignment
        np.testing.assert_array_equal(q.membership_matrix(), rows, strict=True)
        assert q.num_points == 3

    def test_rejects_unknown_kind(self):
        with pytest.raises(OutOfRangeError, match="^quantizer kind must be 'hard' or 'soft', got 'fuzzy'$"):
            Quantizer("fuzzy", 2, hard_assignment=np.array([0, 1]))

    @pytest.mark.parametrize("kind", ["hard", "soft"])
    @pytest.mark.parametrize("given", ["both", "neither"])
    def test_rejects_both_or_neither_assignment(self, kind, given):
        labels, rows = np.array([0, 1]), np.array([[1.0, 0.0], [0.0, 1.0]])
        assignments = {"hard_assignment": labels, "soft_assignment": rows} if given == "both" else {}
        with pytest.raises(DimensionMismatchError, match=f"^{kind} quantizer requires {kind}_assignment only$"):
            Quantizer(kind, 2, **assignments)

    @pytest.mark.parametrize("labels", [[], [[0, 1]]], ids=["empty", "2-d"])
    def test_rejects_labels_that_are_not_a_nonempty_vector(self, labels):
        with pytest.raises(DimensionMismatchError, match="^hard_assignment must be a nonempty vector$"):
            Quantizer.hard(labels, 2)

    def test_rejects_soft_columns_other_than_the_cell_count(self):
        with pytest.raises(DimensionMismatchError, match="^soft_assignment has 2 columns, expected 3$"):
            Quantizer("soft", 3, soft_assignment=np.array([[0.5, 0.5]]))


class TestChannelMatrix:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(SumNotOneError):
            ChannelMatrix([[0.5, 0.4], [0.5, 0.5]])

    def test_validate_channel_renormalizes_rows(self):
        c = validate_channel([[0.3333333, 0.3333333, 0.3333334], [0.5, 0.25, 0.25]])
        np.testing.assert_allclose(c.entries.sum(axis=1), [1.0, 1.0], atol=1e-15)

    def test_is_identity(self):
        assert ChannelMatrix.identity(3).is_identity
        assert not ChannelMatrix([[0.9, 0.1], [0.1, 0.9]]).is_identity
