"""Exact solvers and the separation certificate.

Three globally exact routes are provided, each with its own validity domain:

* :func:`solve_bruteforce` enumerates every hard assignment (desk scale
  only; it is the ground truth the other solvers are compared against),
* :func:`solve_binary_thresholds` exploits the fact that for a binary source
  an optimal partition is made of contiguous intervals in sorted posterior
  order, enumerating cut positions and cell labelings,
* :func:`solve_dp_identity` solves the binary-source, noiseless-channel,
  symmetric-constraint case by dynamic programming over the same sorted
  order in O(K * M^2).

Each solver checks its own domain before any work and raises
``NotBinaryError`` or ``PreconditionViolatedError`` with a short reason,
which ``chanpart compare`` reports as the solver's ``reason``.

:func:`check_hyperplane_separation` verifies the local-optimality geometry
of any hard partition: every symbol in an argmin-distance cell and, for
binary sources, cells forming contiguous posterior intervals (ties may
interleave).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import (
    InstanceTooLargeError,
    NotBinaryError,
    PreconditionViolatedError,
)
from .impurity import column_impurities, constraint_total
from .objective import (
    CERTIFICATE_TOL,
    ProblemSpec,
    SolveReport,
    certified_report,
    distance_matrix,
    evaluate,
    score_cells,
)
from .probability import Quantizer, cell_joints, posteriors

#: Refuse exhaustive enumeration beyond 2**22 assignments.
BRUTEFORCE_BUDGET_BITS = 22.0

#: Tie tolerance for separation certificates.
SEPARATION_TOL = CERTIFICATE_TOL

_CHUNK = 8192


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def solve_bruteforce(spec: ProblemSpec) -> SolveReport:
    """Exact minimizer over all K^M hard assignments.

    Assignment vectors are enumerated in lexicographic order and ties keep
    the first (lexicographically smallest) winner.  Refuses instances with
    more than 2**22 assignments.
    """
    m, k = spec.num_symbols, spec.num_cells
    bits = m * math.log2(k) if k > 1 else 0.0
    if bits > BRUTEFORCE_BUDGET_BITS + 1e-9:
        raise InstanceTooLargeError(
            f"{k}^{m} assignments exceed the enumeration budget of 2^{BRUTEFORCE_BUDGET_BITS:.0f}"
        )
    total = k**m
    joint = spec.joint.entries
    channel = spec.channel.entries
    eye = np.eye(k)
    powers = k ** np.arange(m - 1, -1, -1, dtype=np.int64)

    best_obj = math.inf
    best_labels: np.ndarray | None = None
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        labels = (idx[:, None] // powers[None, :]) % k  # (C, M), lex order
        onehot = eye[labels]  # (C, M, K)
        clusters = np.einsum("nm,cmk->cnk", joint, onehot)  # (C, N, K)
        masses = clusters.sum(axis=1)  # (C, K)
        outputs = clusters @ channel  # (C, N, H)
        c, n, h = outputs.shape
        f_values = (
            column_impurities(spec.impurity, outputs.transpose(1, 0, 2).reshape(n, c * h))
            .reshape(c, h)
            .sum(axis=1)
        )
        objs = spec.beta * f_values + np.asarray(constraint_total(spec.constraint, masses))
        pick = int(np.argmin(objs))
        if objs[pick] < best_obj:
            best_obj = float(objs[pick])
            best_labels = labels[pick].astype(np.int64)

    return certified_report(spec, best_labels, "bruteforce")


# ---------------------------------------------------------------------------
# Binary-source solvers
# ---------------------------------------------------------------------------


def _sorted_posterior_order(spec: ProblemSpec) -> np.ndarray:
    """Symbols sorted by p(X_1 | Y) ascending, ties by original index."""
    first = posteriors(spec.joint)[0]
    return np.lexsort((np.arange(spec.num_symbols), first))


def solve_binary_thresholds(spec: ProblemSpec) -> SolveReport:
    """Exact solver for binary sources via ordered interval enumeration.

    Sorts the symbols by posterior, then tries every split of the sorted
    order into 1..K contiguous intervals combined with every injective
    interval-to-cell labeling.  Labelings matter because channel rows and
    linear constraint weights are cell-specific.
    """
    if spec.num_sources != 2:
        raise NotBinaryError("needs a binary source")
    m, k = spec.num_symbols, spec.num_cells
    order = _sorted_posterior_order(spec)

    best_obj = math.inf
    best_labels: np.ndarray | None = None
    labels = np.empty(m, dtype=np.int64)
    for intervals in range(1, min(k, m) + 1):
        for cuts in combinations(range(1, m), intervals - 1):
            bounds = (0, *cuts, m)
            for cells in permutations(range(k), intervals):
                for i in range(intervals):
                    labels[order[bounds[i] : bounds[i + 1]]] = cells[i]
                clusters = cell_joints(spec.joint, labels, k)
                obj = score_cells(spec, clusters, clusters.sum(axis=0))[3]
                if obj < best_obj:
                    best_obj = obj
                    best_labels = labels.copy()

    return certified_report(spec, best_labels, "thresholds")


def solve_dp_identity(spec: ProblemSpec) -> SolveReport:
    """Exact dynamic program for binary source over a noiseless channel.

    Needs the channel to be the identity and the constraint to be the same
    function for every cell (none or entropy): then the objective is a sum
    of independent interval costs over the sorted posterior order, and the
    best split into at most K intervals is found in O(K * M^2).
    """
    if spec.num_sources != 2:
        raise PreconditionViolatedError("needs a binary source")
    if not spec.channel.is_identity:
        raise PreconditionViolatedError("needs the identity channel")
    if spec.constraint.kind == "linear":
        raise PreconditionViolatedError("needs a cell-symmetric constraint")

    m, k = spec.num_symbols, spec.num_cells
    order = _sorted_posterior_order(spec)
    sorted_joint = spec.joint.entries[:, order]
    prefix = np.zeros((2, m + 1))
    prefix[:, 1:] = np.cumsum(sorted_joint, axis=1)

    def interval_costs(a_first: int, b: int) -> np.ndarray:
        """Costs of intervals [a, b) for all a in [a_first, b)."""
        v = prefix[:, b][:, None] - prefix[:, a_first:b]
        f_values = column_impurities(spec.impurity, v)
        g_values = np.asarray(constraint_total(spec.constraint, v.sum(axis=0)[:, None]))
        return spec.beta * f_values + g_values

    max_intervals = min(k, m)
    cost = np.full((max_intervals + 1, m + 1), math.inf)
    split = np.zeros((max_intervals + 1, m + 1), dtype=np.int64)
    cost[0, 0] = 0.0
    for j in range(1, max_intervals + 1):
        for i in range(j, m + 1):
            candidates = cost[j - 1, j - 1 : i] + interval_costs(j - 1, i)
            pick = int(np.argmin(candidates))
            cost[j, i] = float(candidates[pick])
            split[j, i] = j - 1 + pick

    best_j = int(np.argmin(cost[1:, m])) + 1
    bounds = [m]
    j, i = best_j, m
    while j > 0:
        i = int(split[j, i])
        bounds.append(i)
        j -= 1
    bounds.reverse()

    labels = np.empty(m, dtype=np.int64)
    for r in range(best_j):
        labels[order[bounds[r] : bounds[r + 1]]] = r
    return certified_report(spec, labels, "dp")


# ---------------------------------------------------------------------------
# Separation structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationViolation:
    """One symbol breaking the separation geometry.

    ``kind`` is "distance" when a strictly closer cell exists and "ordering"
    when the symbol sits strictly between two symbols of another cell in
    posterior order (binary sources only).  ``margin`` is the size of the
    violation beyond the tie tolerance.
    """

    point: int
    assigned_cell: int
    competing_cell: int
    margin: float
    kind: str


@dataclass(frozen=True, eq=False)
class SeparationReport:
    separated: bool
    violations: tuple[SeparationViolation, ...]


def check_hyperplane_separation(
    spec: ProblemSpec, quantizer: Quantizer, tol: float = SEPARATION_TOL
) -> SeparationReport:
    """Verify the local-optimality geometry of a hard partition.

    True exactly when every symbol sits in a cell of minimal scaled distance
    (within ``tol``) and, for binary sources, no symbol lies strictly
    between two symbols of another cell in posterior order.  The symbol- and
    cell-level offenders are returned for diagnosis.
    """
    if quantizer.kind != "hard":
        raise PreconditionViolatedError("separation is defined for hard quantizers")
    labels = quantizer.hard_assignment
    state = evaluate(spec, quantizer)
    dist = distance_matrix(state, spec, scaled=True)
    own = dist[labels, np.arange(labels.size)]
    best = dist.min(axis=0)
    nearest = dist.argmin(axis=0)

    violations: list[SeparationViolation] = []
    for m in np.nonzero(own > best + tol)[0]:
        violations.append(
            SeparationViolation(
                point=int(m),
                assigned_cell=int(labels[m]),
                competing_cell=int(nearest[m]),
                margin=float(own[m] - best[m] - tol),
                kind="distance",
            )
        )

    if spec.num_sources == 2 and spec.num_cells >= 2:
        first = posteriors(spec.joint)[0]
        populated = [k for k in range(spec.num_cells) if np.any(labels == k)]
        for a in populated:
            pts_a = np.nonzero(labels == a)[0]
            for b in populated:
                if b == a:
                    continue
                vals_b = first[labels == b]
                lo, hi = float(vals_b.min()), float(vals_b.max())
                inside = pts_a[(first[pts_a] > lo + tol) & (first[pts_a] < hi - tol)]
                for m in inside:
                    violations.append(
                        SeparationViolation(
                            point=int(m),
                            assigned_cell=a,
                            competing_cell=b,
                            margin=float(min(first[m] - lo, hi - first[m]) - tol),
                            kind="ordering",
                        )
                    )

    return SeparationReport(separated=not violations, violations=tuple(violations))


@dataclass(frozen=True, eq=False)
class ThresholdSolution:
    """Interval structure of a binary-source convex-cell partition.

    ``sorted_order`` is the posterior sort of the symbols, ``boundaries``
    the cut positions between consecutive intervals, and ``labeling`` the
    cell owning each interval (injective).
    """

    sorted_order: np.ndarray
    boundaries: tuple[int, ...]
    labeling: tuple[int, ...]


def threshold_structure(spec: ProblemSpec, quantizer: Quantizer) -> ThresholdSolution:
    """Extract the interval structure of a hard binary-source partition.

    Raises ``PreconditionViolatedError`` when the cells are not contiguous
    in sorted posterior order (a cell's label recurs in separate runs).
    """
    if spec.num_sources != 2:
        raise NotBinaryError(f"threshold structure needs a binary source, got N={spec.num_sources}")
    if quantizer.kind != "hard":
        raise PreconditionViolatedError("threshold structure is defined for hard quantizers")
    order = _sorted_posterior_order(spec)
    run_labels: list[int] = []
    boundaries: list[int] = []
    sorted_labels = quantizer.hard_assignment[order]
    for pos, label in enumerate(sorted_labels):
        if not run_labels or label != run_labels[-1]:
            if run_labels:
                boundaries.append(pos)
            run_labels.append(int(label))
    if len(set(run_labels)) != len(run_labels):
        raise PreconditionViolatedError("cells are not contiguous in sorted posterior order")
    frozen = np.array(order, dtype=np.int64)
    frozen.setflags(write=False)
    return ThresholdSolution(
        sorted_order=frozen, boundaries=tuple(boundaries), labeling=tuple(run_labels)
    )
