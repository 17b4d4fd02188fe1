"""Invariants of the solvers on boundary instances, as hypothesis properties.

The instances deliberately leave the interior the other suites use: joint
entries are small integer counts (so exact zeros and exactly tied posteriors
are common), the cell count may exceed the symbol count (so cells start and
stay empty), and the relay may be rank-1 (every cell reaches the same
outputs, so every distance ties).  Bruteforce must pick the labels the
per-candidate oracle picks, ties included (under a linear constraint, to
within the last bits of the objective), and the exact solvers must match
bruteforce on the same instances.  The batch sweep, which computes
distances once per distinct posterior, must move exactly as a sweep over
the raw columns on these, on all-tied instances and on smoothed PAM
histograms.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanpart import (
    ChannelMatrix,
    ConstraintSpec,
    ImpuritySpec,
    PreconditionViolatedError,
    ProblemSpec,
    Quantizer,
    SolverOptions,
    assignment_is_distance_optimal,
    check_hyperplane_separation,
    distance_matrix,
    evaluate,
    reassign_sweep,
    solve_binary_thresholds,
    solve_bruteforce,
    solve_dp_identity,
    solve_iterative,
    validate_joint,
)
from chanpart import exact
from chanpart.iterative import _distinct_columns, _SweepEngine
from chanpart.probability import posteriors

from conftest import pam_joint, tied_spec, usable_cpus
from test_exact import oracle_bruteforce, oracle_dp

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _counts(draw, rows: int, cols: int) -> np.ndarray:
    """Integer matrix with entries in [0, 3]; an all-zero row gets a 1 in column 0."""
    raw = np.array(
        draw(st.lists(st.integers(0, 3), min_size=rows * cols, max_size=rows * cols)),
        dtype=float,
    ).reshape(rows, cols)
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    return raw


@st.composite
def boundary_instances(draw, min_sources: int = 2, max_sources: int = 3) -> ProblemSpec:
    n = draw(st.integers(min_sources, max_sources))
    m = draw(st.integers(1, 7))
    k = draw(st.integers(2, 5))
    columns = _counts(draw, m, n)  # one row per data symbol, zeros allowed
    joint = validate_joint(columns.T / columns.sum())

    relay = draw(st.sampled_from(("identity", "noisy", "rank-1")))
    if relay == "identity":
        channel = ChannelMatrix.identity(k)
    elif relay == "noisy":
        rows = _counts(draw, k, draw(st.integers(1, 4)))
        channel = ChannelMatrix(rows / rows.sum(axis=1, keepdims=True))
    else:
        row = _counts(draw, 1, draw(st.integers(1, 4)))
        channel = ChannelMatrix(np.repeat(row / row.sum(), k, axis=0))

    kind = draw(st.sampled_from(("none", "entropy", "linear")))
    if kind == "linear":
        constraint = ConstraintSpec.linear(
            np.array(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))) / 2.0
        )
    else:
        constraint = ConstraintSpec(kind)
    return ProblemSpec(
        joint=joint,
        channel=channel,
        num_cells=k,
        impurity=ImpuritySpec(draw(st.sampled_from(("entropy", "gini")))),
        constraint=constraint,
        beta=draw(st.sampled_from((0.1, 1.0, 10.0))),
    )


@st.composite
def pam_instances(draw) -> ProblemSpec:
    """A smoothed PAM histogram; 5000 bins span two sweep blocks of raw columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    num_bins = draw(st.sampled_from((40, 700, 5000)))
    joint = validate_joint(pam_joint(rng, draw(st.integers(2, 4)), num_bins))
    k = draw(st.integers(2, 8))
    if draw(st.booleans()):
        channel = ChannelMatrix.identity(k)
    else:
        raw = rng.random((k, k)) + 0.05
        channel = ChannelMatrix(raw / raw.sum(axis=1, keepdims=True))
    kind = draw(st.sampled_from(("none", "entropy", "linear")))
    constraint = ConstraintSpec.linear(rng.uniform(0.0, 0.5, k)) if kind == "linear" else ConstraintSpec(kind)
    return ProblemSpec(
        joint=joint,
        channel=channel,
        num_cells=k,
        impurity=ImpuritySpec(draw(st.sampled_from(("entropy", "gini")))),
        constraint=constraint,
        beta=draw(st.sampled_from((0.1, 1.0, 10.0))),
    )


def _fresh_objective(spec: ProblemSpec, labels: np.ndarray) -> float:
    return evaluate(spec, Quantizer.hard(labels, spec.num_cells)).objective


@PROPERTY_SETTINGS
@given(spec=boundary_instances(), seed=st.integers(0, 3))
def test_sequential_moves_never_raise_the_objective(spec, seed):
    moves = []
    original_move = _SweepEngine.move

    def recording_move(engine, m, target):
        before = engine.assignment.copy()
        original_move(engine, m, target)
        moves.append((before, engine.assignment.copy()))

    sweeps = []
    original_sweep = _SweepEngine.sweep_sequential

    def counting_sweep(engine):
        sweeps.append(1)
        return original_sweep(engine)

    with usable_cpus(1), mock.patch.object(_SweepEngine, "move", recording_move), \
            mock.patch.object(_SweepEngine, "sweep_sequential", counting_sweep):
        report = solve_iterative(spec, SolverOptions(seed=seed, restarts=2))
    # no restart ran out of sight of the hooks
    assert len(sweeps) == sum(report.iterations_used)
    for before, after in moves:
        assert _fresh_objective(spec, after) <= _fresh_objective(spec, before) + 1e-12


@PROPERTY_SETTINGS
@given(spec=boundary_instances(), seed=st.integers(0, 3))
def test_sequential_report_is_certified(spec, seed):
    report = solve_iterative(spec, SolverOptions(seed=seed, restarts=2))
    assert report.optimality_certificate
    assert all(sweeps < SolverOptions().max_iterations for sweeps in report.iterations_used)
    assert np.all(np.diff(report.objective_trace) <= 1e-12)


@PROPERTY_SETTINGS
@given(spec=boundary_instances(min_sources=3), data=st.data())
def test_the_two_certificates_agree(spec, data):
    # with N >= 3 no ordering check applies, so both read the distances alone
    drawn = data.draw(st.lists(st.integers(0, spec.num_cells - 1), min_size=spec.num_symbols,
                               max_size=spec.num_symbols))
    solved = solve_iterative(spec, SolverOptions(restarts=1)).assignment
    for labels in (drawn, solved):
        quantizer = Quantizer.hard(labels, spec.num_cells)
        separation = check_hyperplane_separation(spec, quantizer)
        assert assignment_is_distance_optimal(spec, quantizer) == separation.separated
        dist = distance_matrix(evaluate(spec, quantizer), spec)
        for violation in separation.violations:
            assert violation.kind == "distance"
            assert dist[violation.competing_cell, violation.point] == dist[:, violation.point].min()


@PROPERTY_SETTINGS
@given(spec=boundary_instances(max_sources=4).filter(lambda spec: spec.num_cells**spec.num_symbols <= 4**5))
def test_bruteforce_matches_the_per_candidate_oracle(spec):
    # the oracle scores one candidate at a time, so it is kept to K^M <= 1024
    labels, objective = oracle_bruteforce(spec)
    for block_entries in (exact._BLOCK_ENTRIES, 64):  # 64: many blocks, so first-wins must hold across them
        with mock.patch.object(exact, "_BLOCK_ENTRIES", block_entries):
            report = solve_bruteforce(spec)
        if spec.constraint.kind == "linear":
            # masses @ weights is a BLAS gemv for a block and a dot for one candidate:
            # they round apart, so an exact tie may go to another of the tied candidates
            assert objective <= report.objective <= objective + 1e-12
        else:
            assert report.assignment.tolist() == labels
            assert report.objective.hex() == objective.hex()


@PROPERTY_SETTINGS
@given(spec=boundary_instances(max_sources=2))
def test_exact_solvers_match_bruteforce(spec):
    truth = solve_bruteforce(spec)
    solvers = [solve_binary_thresholds]
    if spec.channel.is_identity and spec.constraint.kind != "linear":
        solvers.append(solve_dp_identity)
        assert solve_dp_identity(spec).assignment.tolist() == oracle_dp(spec)[0]
    else:
        with pytest.raises(PreconditionViolatedError):
            solve_dp_identity(spec)
    for solver in solvers:
        report = solver(spec)
        assert abs(report.objective - truth.objective) <= 1e-9
        assert report.optimality_certificate


@PROPERTY_SETTINGS
@given(
    spec=st.one_of(
        boundary_instances(),
        st.builds(tied_spec, st.integers(1, 40), st.integers(1, 5)),
        pam_instances(),
    ),
    seed=st.integers(0, 3),
)
def test_batch_sweep_on_distinct_posteriors_matches_raw_columns(spec, seed):
    post = posteriors(spec.joint)
    ties = np.unique(post.T, axis=0).shape[0] < spec.num_symbols
    distinct = _distinct_columns(post)
    assert (distinct[1] is not None) == ties
    rng = np.random.default_rng(seed)
    for _ in range(3):
        start = rng.integers(0, spec.num_cells, size=spec.num_symbols)
        merged, raw = _SweepEngine(spec, start), _SweepEngine(spec, start)
        changed = merged.sweep_batch(*distinct)
        assert changed == raw.sweep_batch(post, None)
        np.testing.assert_array_equal(merged.assignment, raw.assignment)
        labels, swept = reassign_sweep(spec, start, "batch")
        assert swept == changed
        np.testing.assert_array_equal(labels, raw.assignment)


@PROPERTY_SETTINGS
@given(
    spec=st.one_of(
        boundary_instances(),
        st.builds(tied_spec, st.integers(1, 40), st.integers(1, 5)),
        pam_instances(),
    ),
    mode=st.sampled_from(("sequential", "batch")),
    seed=st.integers(0, 3),
)
def test_every_restart_stops_and_the_trace_ends_at_the_report(spec, mode, seed):
    opts = SolverOptions(seed=seed, restarts=2, sweep_mode=mode)
    report = solve_iterative(spec, opts)
    assert all(sweeps < opts.max_iterations for sweeps in report.iterations_used)
    assert report.objective == report.objective_trace[-1]
