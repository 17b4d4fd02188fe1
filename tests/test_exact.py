"""Exact solvers, oracle agreement, and the separation certificate."""

import math
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest

from chanpart import (
    ChannelMatrix,
    ConstraintSpec,
    DimensionMismatchError,
    ENTROPY,
    ImpuritySpec,
    InstanceTooLargeError,
    NotBinaryError,
    PreconditionViolatedError,
    ProblemSpec,
    Quantizer,
    check_hyperplane_separation,
    solve_binary_thresholds,
    solve_bruteforce,
    solve_dp_identity,
    threshold_structure,
    validate_joint,
)
from chanpart import exact, objective
from chanpart.objective import _own_and_best, evaluate, score_cells
from chanpart.probability import cell_joints, posteriors

from conftest import (
    CONSTRAINT_CHOICES,
    IMPURITY_CHOICES,
    binary_entropy,
    make_e1_spec,
    partition_sets,
    random_instance,
    tied_spec,
)

E1_EXPECTED = 0.5 * binary_entropy(0.7) + 0.5 * binary_entropy(0.3)


def _scored(spec, labels):
    clusters = cell_joints(spec.joint.entries, labels, spec.num_cells)
    return score_cells(spec, clusters)[3]


def oracle_bruteforce(spec):
    """One candidate at a time: lexicographic labellings, strict ``<`` keeps the first best."""
    best_obj, best_labels = math.inf, None
    for labels in product(range(spec.num_cells), repeat=spec.num_symbols):
        obj = _scored(spec, np.array(labels, dtype=np.int64))
        if obj < best_obj:
            best_obj, best_labels = obj, labels
    return list(best_labels), best_obj


def oracle_interval_labellings(order, k):
    """Every interval split of ``order`` times every injective labelling, one at a time."""
    m = len(order)
    labels = np.empty(m, dtype=np.int64)
    for intervals in range(1, min(k, m) + 1):
        for cuts in combinations(range(1, m), intervals - 1):
            bounds = (0, *cuts, m)
            for cells in permutations(range(k), intervals):
                for i in range(intervals):
                    labels[order[bounds[i] : bounds[i + 1]]] = cells[i]
                yield labels.tolist()


def oracle_thresholds(spec):
    """One candidate at a time, strict ``<`` keeps the first best."""
    order = np.lexsort((np.arange(spec.num_symbols), posteriors(spec.joint)[0]))
    best_obj, best_labels = math.inf, None
    for labels in oracle_interval_labellings(order, spec.num_cells):
        obj = _scored(spec, np.array(labels, dtype=np.int64))
        if obj < best_obj:
            best_obj, best_labels = obj, labels
    return best_labels, best_obj


def oracle_dp(spec):
    """The DP with one ``score_cells`` call per (interval count, right end)."""
    m, k = spec.num_symbols, spec.num_cells
    order = np.lexsort((np.arange(m), posteriors(spec.joint)[0]))
    prefix = np.zeros((2, m + 1))
    prefix[:, 1:] = np.cumsum(spec.joint.entries[:, order], axis=1)
    max_intervals = min(k, m)
    cost = np.full((max_intervals + 1, m + 1), math.inf)
    split = np.zeros((max_intervals + 1, m + 1), dtype=np.int64)
    cost[0, 0] = 0.0
    for j in range(1, max_intervals + 1):
        for i in range(j, m + 1):
            v = prefix[:, i][:, None, None] - prefix[:, j - 1 : i, None]
            candidates = cost[j - 1, j - 1 : i] + score_cells(spec, v)[3]
            pick = int(np.argmin(candidates))
            cost[j, i] = float(candidates[pick])
            split[j, i] = j - 1 + pick
    labels = np.empty(m, dtype=np.int64)
    j, i = int(np.argmin(cost[1:, m])) + 1, m
    while j > 0:
        a = int(split[j, i])
        labels[order[a:i]] = j - 1
        j, i = j - 1, a
    return labels.tolist(), _scored(spec, labels)


def oracle_ordering_violations(spec, labels, tol):
    """(point, assigned cell, competing cell, margin) of each ordering violation, per cell pair."""
    first = posteriors(spec.joint)[0]
    populated = [k for k in range(spec.num_cells) if np.any(labels == k)]
    found = []
    for a in populated:
        pts_a = np.nonzero(labels == a)[0]
        for b in populated:
            if b == a:
                continue
            vals_b = first[labels == b]
            lo, hi = float(vals_b.min()), float(vals_b.max())
            for m in pts_a[(first[pts_a] > lo + tol) & (first[pts_a] < hi - tol)]:
                found.append((int(m), a, b, float(min(first[m] - lo, hi - first[m]) - tol)))
    return found


def _oracle_instances():
    rng = np.random.default_rng(77)
    for k, m in ((2, 7), (3, 5), (4, 4)):
        for impurity in IMPURITY_CHOICES:
            for constraint in CONSTRAINT_CHOICES:
                for identity in (True, False):
                    name = f"{impurity}-{constraint}-{'identity' if identity else 'noisy'}-K{k}-M{m}"
                    yield pytest.param(
                        random_instance(
                            rng, binary=True, identity=identity, impurity=impurity,
                            constraint=constraint, num_symbols=m, num_cells=k,
                        ),
                        id=name,
                    )
    yield pytest.param(random_instance(rng, binary=True, num_symbols=6, num_cells=1), id="K1")
    yield pytest.param(random_instance(rng, binary=True, identity=False, num_symbols=1, num_cells=3), id="M1")
    yield pytest.param(
        random_instance(rng, binary=True, identity=False, constraint="linear", num_symbols=2, num_cells=5),
        id="K-above-M",
    )
    yield pytest.param(tied_spec(8, 2), id="all-tied")
    yield pytest.param(tied_spec(13, 2), id="all-tied-several-blocks")


ORACLE_INSTANCES = list(_oracle_instances())
DP_INSTANCES = [
    param
    for param in ORACLE_INSTANCES
    if param.values[0].channel.is_identity and param.values[0].constraint.kind != "linear"
]


class _Stop(Exception):
    pass


def first_block_sizes(monkeypatch, solve, spec, calls):
    """(rows, entries) of the label, cell-joint, subset-table, gathered and pushed
    arrays of ``solve``'s first blocks, until ``calls`` arrays are recorded."""
    sizes = []
    block_cells, subset_table = exact.cell_joints, exact._subset_table
    group_objectives, cell_impurities = exact._group_objectives, objective._cell_impurities
    score_cells = exact.score_cells

    def record(*found):
        sizes.extend(found)
        if len(sizes) >= calls:
            raise _Stop

    def built(joint, labels, k):
        cells = block_cells(joint, labels, k)
        record((len(labels), labels.size), (cells.shape[1], cells.size))
        return cells

    def tabled(heads, columns):
        table = subset_table(heads, columns)
        # a group's masses, constraint terms and identity-relay impurities
        # are one entry per table column, N times fewer than the table's
        record((table.shape[1], table.size))
        return table

    def grouped(spec, table, slot, taken):
        # each block of q heads gathers arrays of q times the slot's shape
        for objs in group_objectives(spec, table, slot, taken):
            record((len(objs) * len(slot), len(objs) * slot.size))
            yield objs

    def pushed(spec, cells):
        # a noisy relay pushes each head's gathered cells
        outputs, f_values = cell_impurities(spec, cells)
        record((cells.shape[1], cells.size), (outputs.shape[1], outputs.size))
        return outputs, f_values

    def scored(spec, cells):
        record((cells.shape[1], cells.size))
        return score_cells(spec, cells)

    monkeypatch.setattr(exact, "cell_joints", built)
    monkeypatch.setattr(exact, "_subset_table", tabled)
    monkeypatch.setattr(exact, "_group_objectives", grouped)
    monkeypatch.setattr(objective, "_cell_impurities", pushed)
    monkeypatch.setattr(exact, "score_cells", scored)
    with pytest.raises(_Stop):
        solve(spec)
    return sizes


class TestBruteforce:
    def test_e1_global_optimum(self, e1_spec):
        report = solve_bruteforce(e1_spec)
        assert report.objective == pytest.approx(E1_EXPECTED, abs=1e-12)
        np.testing.assert_array_equal(report.assignment, [0, 0, 1, 1])
        assert report.optimality_certificate

    def test_single_symbol(self):
        joint = validate_joint([[0.6], [0.4]])
        spec = ProblemSpec(
            joint=joint,
            channel=ChannelMatrix.identity(2),
            num_cells=2,
            impurity=ENTROPY,
            constraint=ConstraintSpec.none(),
            beta=1.0,
        )
        report = solve_bruteforce(spec)
        # lexicographic tie-break puts the lone point in the first cell
        np.testing.assert_array_equal(report.assignment, [0])
        assert report.objective == pytest.approx(binary_entropy(0.6), abs=1e-12)

    def test_single_cell(self):
        spec = make_e1_spec(num_cells=1)
        report = solve_bruteforce(spec)
        assert report.objective == pytest.approx(1.0, abs=1e-12)

    def test_budget_boundary(self):
        rng = np.random.default_rng(78)
        at_budget = random_instance(rng, binary=True, identity=True, num_symbols=22, num_cells=2)
        report = solve_bruteforce(at_budget)  # exactly 2^22 assignments
        assert report.objective == solve_binary_thresholds(at_budget).objective
        too_large = random_instance(rng, binary=True, num_symbols=14, num_cells=3)
        with pytest.raises(
            InstanceTooLargeError, match=r"3\^14 assignments exceed the enumeration budget of 2\^22"
        ):
            solve_bruteforce(too_large)

    def test_overflowing_objective_still_returns_a_labelling(self):
        # every assignment scores inf; the first one in lexicographic order wins
        spec = ProblemSpec(
            joint=validate_joint([[0.0625] * 4] * 4),
            channel=ChannelMatrix.identity(2),
            num_cells=2,
            impurity=ENTROPY,
            constraint=ConstraintSpec.none(),
            beta=1e308,
        )
        with np.errstate(over="ignore"):
            report = solve_bruteforce(spec)
        np.testing.assert_array_equal(report.assignment, [0, 0, 0, 0])
        assert report.objective == math.inf

    def test_wide_source_blocks_stay_small(self, monkeypatch):
        # 64 sources: the leading-label prefixes' cell joints come a group at a time
        rng = np.random.default_rng(79)
        spec = ProblemSpec(
            joint=validate_joint(rng.dirichlet(np.ones(64 * 20)).reshape(64, 20)),
            channel=ChannelMatrix.identity(2),
            num_cells=2,
            impurity=ENTROPY,
            constraint=ConstraintSpec.none(),
            beta=1.0,
        )
        sizes = first_block_sizes(monkeypatch, solve_bruteforce, spec, calls=300)
        assert max(entries for _, entries in sizes) < exact._BLOCK_ENTRIES

    @pytest.mark.parametrize("identity", [True, False], ids=["identity", "noisy"])
    @pytest.mark.parametrize("k, m", [(2, 16), (3, 11), (4, 9)])
    def test_grouped_tables_stay_small(self, k, m, identity, monkeypatch):
        # the compare-desk sizes: a subset table holds as many heads as fit
        rng = np.random.default_rng(80)
        spec = random_instance(
            rng, binary=True, identity=identity, constraint="entropy", num_symbols=m, num_cells=k
        )
        sizes = first_block_sizes(monkeypatch, solve_bruteforce, spec, calls=40)
        assert max(entries for _, entries in sizes) < exact._BLOCK_ENTRIES

    def test_noisy_relay_peak_memory(self):
        # the K = 3, M = 11 compare-desk shape over a noisy relay, entropy constraint:
        # the peak holds a grouped subset table and the impurity kernel's arrays on one
        # head's pushed outputs. The bound sits between the 758 KiB of the kernel's one
        # stacked log2 buffer and the 962 KiB that five input-sized temporaries reach
        rng = np.random.default_rng(81)
        raw = rng.random((2, 11)) + 0.05
        relay = np.full((3, 3), 0.05)
        np.fill_diagonal(relay, 0.9)
        spec = ProblemSpec(
            joint=validate_joint(raw / raw.sum()),
            channel=ChannelMatrix(relay),
            num_cells=3,
            impurity=ENTROPY,
            constraint=ConstraintSpec.entropy(),
            beta=4.0,
        )
        expected = solve_bruteforce(spec)  # first call: numpy's lazy set-up stays out of the peak
        tracemalloc.start()
        try:
            report = solve_bruteforce(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.objective == expected.objective
        assert peak < 860 * 1024

    def test_size_guard(self):
        rng = np.random.default_rng(70)
        raw = rng.random((2, 30)) + 0.1
        joint = validate_joint(raw / raw.sum())
        spec = ProblemSpec(
            joint=joint,
            channel=ChannelMatrix.identity(2),
            num_cells=2,
            impurity=ENTROPY,
            constraint=ConstraintSpec.none(),
            beta=1.0,
        )
        with pytest.raises(InstanceTooLargeError):
            solve_bruteforce(spec)


class TestBinaryThresholds:
    def test_e1_matches_bruteforce(self, e1_spec):
        report = solve_binary_thresholds(e1_spec)
        assert report.objective == pytest.approx(E1_EXPECTED, abs=1e-12)
        assert partition_sets(report.assignment) == partition_sets([0, 0, 1, 1])

    def test_noisy_channel_matches_bruteforce(self):
        spec = make_e1_spec(channel=ChannelMatrix([[0.9, 0.1], [0.1, 0.9]]))
        th = solve_binary_thresholds(spec)
        bf = solve_bruteforce(spec)
        assert th.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_equal_posteriors_collapse(self):
        # indistinguishable symbols: every grouping scores like one cell
        joint = validate_joint([[0.1, 0.2, 0.2], [0.1, 0.2, 0.2]])
        spec = ProblemSpec(
            joint=joint,
            channel=ChannelMatrix.identity(2),
            num_cells=2,
            impurity=ENTROPY,
            constraint=ConstraintSpec.none(),
            beta=1.0,
        )
        report = solve_binary_thresholds(spec)
        assert report.objective == pytest.approx(binary_entropy(0.5), abs=1e-12)
        assert np.unique(report.assignment).size == 1

    @pytest.mark.parametrize("block", [1, 5, 4096])
    def test_candidates_come_in_per_candidate_order(self, block):
        joint = np.random.default_rng(77).random((2, 6))
        order = np.array([3, 0, 5, 1, 4, 2])
        rows = []
        for cells, interval, labellings in exact._interval_blocks(joint, 4, np.argsort(order), block):
            labels = labellings[:, interval].transpose(1, 0, 2).reshape(-1, 6)
            assert len(labels) <= block
            # each cell joint sums its symbols in ascending order, as cell_joints does
            np.testing.assert_array_equal(cells, cell_joints(joint, labels, 4))
            rows.extend(labels.tolist())
        assert rows == list(oracle_interval_labellings(order, 4))

    @pytest.mark.parametrize("m", [2000, 100_000])
    def test_long_label_rows_keep_blocks_small(self, m, monkeypatch):
        # every cut is an M-long row of intervals: a block holds fewer than _BLOCK_ENTRIES // M
        sizes = first_block_sizes(monkeypatch, solve_binary_thresholds, tied_spec(m, 2), calls=30)
        assert all(rows == 1 or entries < exact._BLOCK_ENTRIES for rows, entries in sizes)

    def test_rejects_wider_sources(self):
        rng = np.random.default_rng(71)
        spec = random_instance(rng, binary=False)
        with pytest.raises(NotBinaryError):
            solve_binary_thresholds(spec)


class TestDpIdentity:
    def test_e1_two_cells(self, e1_spec):
        report = solve_dp_identity(e1_spec)
        assert report.objective == pytest.approx(E1_EXPECTED, abs=1e-12)
        assert partition_sets(report.assignment) == partition_sets([0, 0, 1, 1])

    def test_one_cell_per_symbol(self):
        spec = make_e1_spec(num_cells=4)
        report = solve_dp_identity(spec)
        expected = 0.25 * (
            binary_entropy(0.8) + binary_entropy(0.6) + binary_entropy(0.2) + binary_entropy(0.4)
        )
        assert report.objective == pytest.approx(expected, abs=1e-12)

    def test_single_cell(self):
        spec = make_e1_spec(num_cells=1)
        assert solve_dp_identity(spec).objective == pytest.approx(1.0, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolatedError):
            solve_dp_identity(make_e1_spec(channel=ChannelMatrix([[0.9, 0.1], [0.1, 0.9]])))
        with pytest.raises(PreconditionViolatedError):
            solve_dp_identity(make_e1_spec(constraint="linear"))
        rng = np.random.default_rng(72)
        with pytest.raises(PreconditionViolatedError):
            solve_dp_identity(random_instance(rng, binary=False, identity=True))

    def test_every_binary_only_route_raises_not_binary(self):
        # N = 3 over the identity channel: the source is the only precondition that fails
        spec = random_instance(np.random.default_rng(73), binary=False, identity=True, constraint="none")
        assert issubclass(NotBinaryError, PreconditionViolatedError)
        for solver in (solve_dp_identity, solve_binary_thresholds):
            with pytest.raises(NotBinaryError, match="^needs a binary source$"):
                solver(spec)
        q = Quantizer.hard(np.zeros(spec.num_symbols, dtype=int), spec.num_cells)
        with pytest.raises(NotBinaryError, match="needs a binary source, got N=3"):
            threshold_structure(spec, q)

    def test_entropy_constraint_can_drop_cells(self):
        # a strong cell-entropy cost favors fewer populated intervals
        spec = make_e1_spec(constraint="entropy", beta=0.1)
        report = solve_dp_identity(spec)
        bf = solve_bruteforce(spec)
        assert report.objective == pytest.approx(bf.objective, abs=1e-9)
        assert np.unique(report.assignment).size < spec.num_cells


class TestOracleAgreement:
    @pytest.mark.parametrize("block_entries", [None, 64], ids=["blocks", "tiny-blocks"])
    @pytest.mark.parametrize("spec", ORACLE_INSTANCES)
    def test_bruteforce_matches_per_candidate_oracle(self, spec, block_entries, monkeypatch):
        if block_entries is not None:  # many blocks, so first-wins must hold across them
            monkeypatch.setattr(exact, "_BLOCK_ENTRIES", block_entries)
        labels, objective = oracle_bruteforce(spec)
        report = solve_bruteforce(spec)
        assert report.assignment.tolist() == labels
        assert report.objective.hex() == objective.hex()

    @pytest.mark.parametrize("spec", ORACLE_INSTANCES)
    def test_every_candidate_scores_as_score_cells(self, spec):
        joint, k = spec.joint.entries, spec.num_cells
        n, m = joint.shape
        labels = np.array(list(product(range(k), repeat=m)))
        cells = cell_joints(joint, labels, k)
        blocked = exact.score_cells(spec, cells)[3]
        # one subset table holds every head's candidates' cells: both sum in ascending symbol order
        for head_symbols in sorted({0, m // 2}):
            trailing = k ** (m - head_symbols)
            heads = cell_joints(joint[:, :head_symbols], labels[::trailing, :head_symbols], k)
            slot = exact._subset_slots(k, m - head_symbols)
            table = exact._subset_table(heads, joint[:, head_symbols:])
            for p in range(heads.shape[1]):
                np.testing.assert_array_equal(
                    np.take(table[:, p], slot, axis=1), cells[:, p * trailing : (p + 1) * trailing]
                )
            # the heads' per-cell scores sum to score_cells' objectives bit for bit,
            # however many heads each gather takes; with no head symbols one table
            # head holds every candidate, and one gemv meets a linear constraint's
            # weights on both sides
            for taken in (1, 2, heads.shape[1]):
                blocks = list(exact._group_objectives(spec, table, slot, taken))
                tabled = np.concatenate([objs.ravel() for objs in blocks])
                if head_symbols == 0 or spec.constraint.kind != "linear":
                    assert [v.hex() for v in tabled.tolist()] == [v.hex() for v in blocked.tolist()]
                else:
                    np.testing.assert_allclose(tabled, blocked, rtol=4 * np.finfo(float).eps, atol=0)
        expected = np.array([_scored(spec, row) for row in labels])
        if spec.constraint.kind == "linear":
            # masses @ weights is a BLAS gemv here and a dot in score_cells: they may round apart
            np.testing.assert_allclose(blocked, expected, rtol=4 * np.finfo(float).eps, atol=0)
        else:
            assert [v.hex() for v in blocked.tolist()] == [v.hex() for v in expected.tolist()]

    @pytest.mark.parametrize("block_entries", [None, 64], ids=["blocks", "tiny-blocks"])
    @pytest.mark.parametrize("spec", ORACLE_INSTANCES)
    def test_thresholds_matches_per_candidate_oracle(self, spec, block_entries, monkeypatch):
        if block_entries is not None:  # many blocks, some splitting one cut's labellings
            monkeypatch.setattr(exact, "_BLOCK_ENTRIES", block_entries)
        labels, objective = oracle_thresholds(spec)
        report = solve_binary_thresholds(spec)
        assert report.assignment.tolist() == labels
        assert report.objective.hex() == objective.hex()

    @pytest.mark.parametrize("spec", DP_INSTANCES)
    def test_dp_matches_per_interval_oracle(self, spec):
        labels, objective = oracle_dp(spec)
        report = solve_dp_identity(spec)
        assert report.assignment.tolist() == labels
        assert report.objective.hex() == objective.hex()

    def test_exact_solvers_match_bruteforce(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            spec = random_instance(rng)
            bf = solve_bruteforce(spec)
            if spec.num_sources == 2:
                th = solve_binary_thresholds(spec)
                assert th.objective == pytest.approx(bf.objective, abs=1e-9)
            if (
                spec.num_sources == 2
                and spec.channel.is_identity
                and spec.constraint.kind != "linear"
            ):
                dp = solve_dp_identity(spec)
                assert dp.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_bruteforce_winner_is_separated(self):
        rng = np.random.default_rng(74)
        for _ in range(25):
            spec = random_instance(rng)
            bf = solve_bruteforce(spec)
            result = check_hyperplane_separation(spec, bf.best_quantizer)
            assert result.separated, result.violations

    def test_extra_cell_never_hurts(self):
        # identity channels only: they extend canonically when K grows
        rng = np.random.default_rng(75)
        for _ in range(15):
            base = random_instance(rng, identity=True, constraint="none")
            k = base.num_cells
            grown = ProblemSpec(
                joint=base.joint,
                channel=ChannelMatrix.identity(k + 1),
                num_cells=k + 1,
                impurity=base.impurity,
                constraint=base.constraint,
                beta=base.beta,
            )
            assert (
                solve_bruteforce(grown).objective
                <= solve_bruteforce(base).objective + 1e-9
            )


class TestSeparationCheck:
    def test_optimum_is_separated(self, e1_spec):
        result = check_hyperplane_separation(e1_spec, Quantizer.hard([0, 0, 1, 1], 2))
        assert result.separated
        assert result.violations == ()

    def test_crossed_partition_is_not(self, e1_spec):
        result = check_hyperplane_separation(e1_spec, Quantizer.hard([0, 1, 0, 1], 2))
        assert not result.separated
        assert len(result.violations) > 0
        for violation in result.violations:
            assert violation.kind in ("distance", "ordering")
            assert violation.margin >= 0.0

    def test_soft_quantizer_rejected(self, e1_spec):
        with pytest.raises(PreconditionViolatedError, match="^separation is defined for hard quantizers$"):
            check_hyperplane_separation(e1_spec, Quantizer.soft(np.full((4, 2), 0.5)))

    def test_single_cell_vacuously_true(self):
        spec = make_e1_spec(num_cells=1)
        result = check_hyperplane_separation(spec, Quantizer.hard([0, 0, 0, 0], 1))
        assert result.separated

    def test_distance_violation_reported(self, e1_spec):
        # {Y1} | {Y2, Y3, Y4} is locally optimal, {Y1, Y4} | {Y2, Y3} is not
        result = check_hyperplane_separation(e1_spec, Quantizer.hard([0, 1, 1, 0], 2))
        assert not result.separated
        kinds = {v.kind for v in result.violations}
        assert "distance" in kinds or "ordering" in kinds


    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05])
    def test_violations_match_per_pair_oracle(self, tol):
        rng = np.random.default_rng(79)
        ordering = empty = 0
        for _ in range(60):
            m, k = int(rng.integers(2, 12)), int(rng.integers(2, 6))
            counts = rng.integers(0, 4, size=(2, m)).astype(float)  # tied posteriors, exact zeros
            counts[0, counts.sum(axis=0) == 0] = 1.0
            spec = ProblemSpec(
                joint=validate_joint(counts / counts.sum()),
                channel=ChannelMatrix.identity(k),
                num_cells=k,
                impurity=ImpuritySpec("entropy"),
                constraint=ConstraintSpec.none(),
            )
            labels = rng.integers(0, int(rng.integers(1, k + 1)), size=m)  # top cells may stay empty
            quantizer = Quantizer.hard(labels, k)
            report = check_hyperplane_separation(spec, quantizer, tol)

            # the distance half, one symbol at a time
            dist, own, best = _own_and_best(spec, evaluate(spec, quantizer), labels)
            expected = [
                (int(p), int(labels[p]), int(dist[:, p].argmin()), float(own[p] - best[p] - tol), "distance")
                for p in np.nonzero(own > best + tol)[0]
            ]
            expected += [(*v, "ordering") for v in oracle_ordering_violations(spec, labels, tol)]
            got = [
                (v.point, v.assigned_cell, v.competing_cell, v.margin, v.kind) for v in report.violations
            ]
            assert [v[3].hex() for v in got] == [v[3].hex() for v in expected]
            assert got == expected
            assert all(type(x) is int for v in got for x in v[:3])
            assert all(type(v[3]) is float for v in got)
            assert report.separated == (not expected)
            ordering += sum(v[4] == "ordering" for v in got)
            empty += np.unique(labels).size < k
        assert ordering > 0 and empty > 0  # the draws reach both cases


class TestThresholdStructure:
    def test_extracts_intervals_of_winner(self, e1_spec):
        report = solve_binary_thresholds(e1_spec)
        structure = threshold_structure(e1_spec, report.best_quantizer)
        # sorted posterior order is Y3, Y4, Y2, Y1
        np.testing.assert_array_equal(structure.sorted_order, [2, 3, 1, 0])
        assert len(structure.boundaries) == len(structure.labeling) - 1
        assert len(set(structure.labeling)) == len(structure.labeling)

    def test_three_runs(self):
        spec = make_e1_spec(num_cells=3)
        # sorted order Y3, Y4, Y2, Y1 is labelled 2 | 0, 0 | 1
        structure = threshold_structure(spec, Quantizer.hard([1, 0, 2, 0], 3))
        np.testing.assert_array_equal(structure.sorted_order, [2, 3, 1, 0])
        assert structure.boundaries == (1, 3)
        assert structure.labeling == (2, 0, 1)
        assert all(type(x) is int for x in structure.boundaries + structure.labeling)
        assert not structure.sorted_order.flags.writeable
        with pytest.raises(ValueError):
            structure.sorted_order[0] = 0

    def test_soft_quantizer_rejected(self, e1_spec):
        with pytest.raises(PreconditionViolatedError, match="^threshold structure is defined for hard quantizers$"):
            threshold_structure(e1_spec, Quantizer.soft(np.full((4, 2), 0.5)))

    def test_non_contiguous_partition_rejected(self, e1_spec):
        with pytest.raises(PreconditionViolatedError):
            threshold_structure(e1_spec, Quantizer.hard([0, 1, 0, 1], 2))

    @pytest.mark.parametrize(
        "q, message",
        [
            (Quantizer.hard([0, 0, 1], 2), "quantizer covers 3 symbols, joint has 4"),
            (Quantizer.hard([0, 0, 1, 1, 0], 2), "quantizer covers 5 symbols, joint has 4"),
            (Quantizer.hard([0, 0, 1, 1], 3), "quantizer has 3 cells, spec expects 2"),
        ],
        ids=["fewer-symbols", "more-symbols", "more-cells"],
    )
    def test_quantizer_that_does_not_fit_the_spec_rejected(self, e1_spec, q, message):
        with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
            threshold_structure(e1_spec, q)

    def test_needs_binary_source(self):
        rng = np.random.default_rng(76)
        spec = random_instance(rng, binary=False)
        q = Quantizer.hard(np.zeros(spec.num_symbols, dtype=int), spec.num_cells)
        with pytest.raises(NotBinaryError):
            threshold_structure(spec, q)
