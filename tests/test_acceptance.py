"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines on passing runs).
"""

import functools
import statistics
import time

import numpy as np

from chanpart import (
    ChannelMatrix,
    ConstraintSpec,
    ENTROPY,
    GINI,
    ProblemSpec,
    Quantizer,
    SolverOptions,
    distance_matrix,
    evaluate,
    path_objective,
    posteriors,
    reassign_sweep,
    solve_binary_thresholds,
    solve_bruteforce,
    solve_dp_identity,
    solve_iterative,
    validate_joint,
)
from chanpart.impurity import (
    column_gradients,
    column_impurities,
    constraint_derivatives,
    constraint_total,
)

from conftest import (
    binary_entropy,
    impurities,
    instance_suite,
    make_e1_spec,
    partition_sets,
    random_instance,
)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num:02d} {label}: {status}{suffix}")


@functools.lru_cache(maxsize=1)
def _suite_bruteforce_objectives() -> tuple[float, ...]:
    return tuple(solve_bruteforce(spec).objective for spec in instance_suite())


def _dp_applicable(spec: ProblemSpec) -> bool:
    return (
        spec.num_sources == 2
        and spec.channel.is_identity
        and spec.constraint.kind != "linear"
    )


def test_criterion_01_oracle_equivalence():
    suite = instance_suite()
    assert len(suite) >= 200
    started = time.perf_counter()
    bf_objectives = _suite_bruteforce_objectives()
    failures = []
    thresholds_runs = dp_runs = 0
    for spec, bf_obj in zip(suite, bf_objectives):
        if spec.num_sources == 2:
            thresholds_runs += 1
            gap = abs(solve_binary_thresholds(spec).objective - bf_obj)
            if gap > 1e-9:
                failures.append(("thresholds", gap))
        if _dp_applicable(spec):
            dp_runs += 1
            gap = abs(solve_dp_identity(spec).objective - bf_obj)
            if gap > 1e-9:
                failures.append(("dp", gap))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0 and thresholds_runs > 0 and dp_runs > 0
    _verdict(
        1,
        "oracle equivalence",
        ok,
        f"{len(suite)} instances, {thresholds_runs} threshold runs, "
        f"{dp_runs} dp runs, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_criterion_02_e1_regression():
    spec = make_e1_spec()
    target_partition = partition_sets([0, 0, 1, 1])
    reports = {
        "bruteforce": solve_bruteforce(spec),
        "thresholds": solve_binary_thresholds(spec),
        "dp": solve_dp_identity(spec),
        "iterative": solve_iterative(spec, SolverOptions(seed=0, restarts=10)),
    }
    failures = []
    for name, report in reports.items():
        if abs(report.objective - 0.881291) > 1e-6:
            failures.append((name, report.objective))
        if partition_sets(report.assignment) != target_partition:
            failures.append((name, list(report.assignment)))
    _verdict(2, "documented 4-point regression", not failures)
    assert not failures, failures


def _soft_objectives(spec: ProblemSpec, softs: np.ndarray) -> np.ndarray:
    clusters = np.einsum("nm,qmk->qnk", spec.joint.entries, softs)
    masses = clusters.sum(axis=1)
    outputs = clusters @ spec.channel.entries
    q, n, h = outputs.shape
    f_values = (
        column_impurities(spec.impurity, outputs.transpose(1, 0, 2).reshape(n, q * h))
        .reshape(q, h)
        .sum(axis=1)
    )
    return spec.beta * f_values + np.asarray(constraint_total(spec.constraint, masses))


def test_criterion_03_soft_quantizers_never_beat_hard_optimum():
    suite = instance_suite()
    bf_objectives = _suite_bruteforce_objectives()
    rng = np.random.default_rng(93)
    worst = -np.inf
    failures = []
    for spec, bf_obj in zip(suite, bf_objectives):
        softs = rng.dirichlet(np.ones(spec.num_cells), size=(1000, spec.num_symbols))
        gap = bf_obj - float(_soft_objectives(spec, softs).min())
        worst = max(worst, gap)
        if gap > 1e-9:
            failures.append(gap)
    _verdict(3, "soft quantizer dominance", not failures, f"worst hard-vs-soft gap {worst:.2e}")
    assert not failures, failures[:5]


def test_criterion_04_convergence_certificates_and_monotone_traces():
    suite = instance_suite()
    failures = []
    runs = 0
    for idx, spec in enumerate(suite):
        for seed in (11, 12, 13):
            report = solve_iterative(spec, SolverOptions(seed=seed, restarts=1))
            runs += 1
            if any(used >= 500 for used in report.iterations_used):
                failures.append((idx, seed, "did not converge"))
                continue
            if not report.optimality_certificate:
                failures.append((idx, seed, "certificate"))
            state = evaluate(spec, report.best_quantizer)
            dist = distance_matrix(state, spec, scaled=True)
            own = dist[report.assignment, np.arange(spec.num_symbols)]
            if not np.all(own <= dist.min(axis=0) + 1e-9):
                failures.append((idx, seed, "min-distance"))
            diffs = np.diff(report.objective_trace)
            if diffs.size and float(diffs.max()) > 1e-12:
                failures.append((idx, seed, f"trace rose by {float(diffs.max()):.2e}"))
    _verdict(4, "local-optimality certificates", not failures, f"{runs} converged runs")
    assert not failures, failures[:5]


def test_criterion_05_impurity_property_suites():
    rng = np.random.default_rng(95)
    failures = []
    for spec in (ENTROPY, GINI):
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            v = rng.random(n)
            lam = float(rng.uniform(0.01, 1.0))
            a, b = rng.random(n), rng.random(n)
            pa, pb = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            mix = lam * pa + (1 - lam) * pb
            f = impurities(spec, lam * v, v, a + b, a, b, mix, pa, pb)
            if abs(f[0] - lam * f[1]) > 1e-9:
                failures.append((spec.kind, "homogeneity"))
            if f[2] < f[3] + f[4] - 1e-9:
                failures.append((spec.kind, "superadditivity"))
            if f[5] < lam * f[6] + (1 - lam) * f[7] - 1e-9:
                failures.append((spec.kind, "concavity"))
    _verdict(5, "homogeneity, superadditivity, concavity", not failures, "1000 draws per impurity")
    assert not failures, failures[:5]


def test_criterion_06_chord_inequality():
    rng = np.random.default_rng(96)
    failures = []
    checked = 0
    while checked < 500:
        spec = random_instance(rng)
        if spec.num_cells < 2:
            continue
        labels = rng.integers(0, spec.num_cells, size=spec.num_symbols).astype(np.int64)
        q = Quantizer.hard(labels, spec.num_cells)
        m = int(rng.integers(spec.num_symbols))
        source = int(labels[m])
        target = int(rng.choice([k for k in range(spec.num_cells) if k != source]))
        t = float(rng.uniform(1e-4, 0.999))
        a = float(rng.uniform(t + 1e-6, 1.0))
        base = path_objective(spec, q, m, source, target, 0.0)
        left = (path_objective(spec, q, m, source, target, t) - base) / t
        right = (path_objective(spec, q, m, source, target, a) - base) / a
        if left < right - 1e-9:
            failures.append((left, right))
        checked += 1
    _verdict(6, "move-path chord inequality", not failures, "500 triples")
    assert not failures, failures[:5]


def test_criterion_07_gradient_checks():
    rng = np.random.default_rng(97)
    failures = []
    step = 1e-6
    for spec in (ENTROPY, GINI):
        for _ in range(1000):
            v = rng.uniform(0.05, 1.0, size=int(rng.integers(2, 6)))
            grad = column_gradients(spec, v)
            n = int(rng.integers(v.size))
            up, down = v.copy(), v.copy()
            up[n] += step
            down[n] -= step
            f_up, f_down = impurities(spec, up, down)
            fd = (f_up - f_down) / (2 * step)
            rel = abs(grad[n] - fd) / max(abs(grad[n]), abs(fd), 1e-3)
            if rel > 1e-5:
                failures.append((spec.kind, rel))

    entropy_constraint = ConstraintSpec.entropy()
    linear_constraint = ConstraintSpec.linear([1.5, 0.25])
    for _ in range(1000):
        p = float(rng.uniform(1e-6, 1.0 - 1e-6))
        h = min(p / 1e4, (1.0 - p) / 2.0)
        # one-cell mass vectors: g(p) alone
        g_up, g_down = constraint_total(entropy_constraint, [[p + h], [p - h]])
        fd = (g_up - g_down) / (2 * h)
        d = constraint_derivatives(entropy_constraint, [p])[0]
        rel = abs(d - fd) / max(abs(d), abs(fd), 1e-3)
        if rel > 1e-5:
            failures.append(("entropy-constraint", rel))
        if constraint_derivatives(linear_constraint, [1.0 - p, p])[1] != 0.25:
            failures.append(("linear-constraint", p))
    _verdict(7, "analytic gradients vs finite differences", not failures, "1000 points each")
    assert not failures, failures[:5]


def test_criterion_08_nearest_cell_matches_kl_divergence():
    rng = np.random.default_rng(98)
    failures = []
    for idx in range(50):
        spec = random_instance(rng, identity=True, impurity="entropy", constraint="none")
        while True:
            labels = rng.integers(0, spec.num_cells, size=spec.num_symbols).astype(np.int64)
            if np.bincount(labels, minlength=spec.num_cells).min() > 0:
                break
        q = Quantizer.hard(labels, spec.num_cells)
        state = evaluate(spec, q)
        dist_pick = distance_matrix(state, spec, scaled=True).argmin(axis=0)

        post = posteriors(spec.joint)  # (N, M)
        conditionals = state.cluster_joints.entries / state.cluster_joints.cluster_mass[None, :]
        kl = np.zeros((spec.num_cells, spec.num_symbols))
        for k in range(spec.num_cells):
            kl[k] = (post * np.log2(post / conditionals[:, [k]])).sum(axis=0)
        kl_pick = kl.argmin(axis=0)
        if not np.array_equal(dist_pick, kl_pick):
            failures.append(idx)
    _verdict(8, "distance argmin equals KL argmin", not failures, "50 instances")
    assert not failures, failures


def _scaling_instance(num_symbols: int, seed: int = 0) -> tuple[ProblemSpec, np.ndarray]:
    rng = np.random.default_rng(seed)
    raw = rng.random((4, num_symbols)) + 0.01
    joint = validate_joint(raw / raw.sum())
    rows = rng.random((8, 8)) + 0.05
    channel = ChannelMatrix(rows / rows.sum(axis=1, keepdims=True))
    spec = ProblemSpec(
        joint=joint,
        channel=channel,
        num_cells=8,
        impurity=ENTROPY,
        constraint=ConstraintSpec.none(),
        beta=1.0,
    )
    labels = rng.integers(0, 8, size=num_symbols).astype(np.int64)
    return spec, labels


def test_criterion_09_sweep_scaling():
    big_spec, big_labels = _scaling_instance(100_000)
    small_spec, small_labels = _scaling_instance(20_000)
    for _ in range(4):  # warm caches and allocator before measuring
        reassign_sweep(big_spec, big_labels, mode="batch")
        reassign_sweep(small_spec, small_labels, mode="batch")

    def timed(spec, labels) -> float:
        t0 = time.perf_counter()
        reassign_sweep(spec, labels, mode="batch")
        return time.perf_counter() - t0

    big, small = [], []
    for _ in range(9):
        big.append(timed(big_spec, big_labels))
        small.append(timed(small_spec, small_labels))
    t_big = statistics.median(big)
    t_small = statistics.median(small)
    ratio = t_big / t_small
    ok = t_big < 1.0 and 3.0 <= ratio <= 7.0
    _verdict(9, "one sweep at M=100000", ok, f"{t_big * 1e3:.1f} ms, ratio {ratio:.2f}")
    assert t_big < 1.0
    assert 3.0 <= ratio <= 7.0


def _dp_instance(num_symbols: int, seed: int = 1) -> ProblemSpec:
    rng = np.random.default_rng(seed)
    raw = rng.random((2, num_symbols)) + 0.01
    joint = validate_joint(raw / raw.sum())
    return ProblemSpec(
        joint=joint,
        channel=ChannelMatrix.identity(8),
        num_cells=8,
        impurity=ENTROPY,
        constraint=ConstraintSpec.none(),
        beta=1.0,
    )


def test_criterion_10_dp_quadratic_growth():
    small, big = _dp_instance(500), _dp_instance(1000)
    solve_dp_identity(small)  # warm-up

    def timed(spec) -> float:
        t0 = time.perf_counter()
        solve_dp_identity(spec)
        return time.perf_counter() - t0

    t_small = min(timed(small) for _ in range(3))
    t_big = min(timed(big) for _ in range(3))
    ratio = t_big / t_small
    ok = ratio <= 4.5
    _verdict(10, "dp runtime growth M=500 to M=1000", ok, f"ratio {ratio:.2f}")
    assert ratio <= 4.5
