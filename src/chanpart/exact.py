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
``PreconditionViolatedError`` (its subclass ``NotBinaryError`` for a source
that is not binary) with a short reason, which ``chanpart compare`` reports
as the solver's ``reason``; the two enumerations also refuse more than 2**22
candidates.  Beyond that they only enumerate and keep the first candidate of
least objective, whose bits ``cell_joints`` and ``score_cells`` tie to those of
its report.  The DP scores each interval once, as a candidate of one cell.

:func:`check_hyperplane_separation` verifies the local-optimality geometry
of any hard partition: every symbol in an argmin-distance cell and, for
binary sources, cells forming contiguous posterior intervals (ties may
interleave).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, permutations

import numpy as np

from .errors import (
    InstanceTooLargeError,
    NotBinaryError,
    PreconditionViolatedError,
)
from .objective import (
    CERTIFICATE_TOL,
    ProblemSpec,
    SolveReport,
    _check_fits,
    _group_objectives,
    _own_and_best,
    certified_report,
    evaluate,
    score_cells,
)
from .probability import Quantizer, _subset_slots, _subset_table, cell_joints, posteriors

#: Refuse exhaustive enumeration beyond 2**22 candidates.
BRUTEFORCE_BUDGET_BITS = 22.0

#: The enumeration solvers work in blocks of fewer than this many entries per
#: N x C x max(K, H) cell-joint array and per array of label rows (or of one
#: row, when one alone is larger): at 128 KiB and above (glibc's default mmap
#: threshold) numpy's temporaries page-fault afresh on every block.
_BLOCK_ENTRIES = 2**14


def _check_budget(count: int, what: str) -> None:
    """Refuse an enumeration of more than 2**22 candidates."""
    if count > 2**BRUTEFORCE_BUDGET_BITS:
        raise InstanceTooLargeError(
            f"{what} exceed the enumeration budget of 2^{BRUTEFORCE_BUDGET_BITS:.0f}"
        )


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def solve_bruteforce(spec: ProblemSpec) -> SolveReport:
    """Exact minimizer over all K^M hard assignments.

    Assignment vectors are enumerated in lexicographic order, one block per
    head of leading labels: the heads' cell joints are built a group at a
    time.  A block's candidates differ only in where its trailing symbols
    go, so their cells are K * 2^low distinct sums, the head's cells plus
    each subset of the trailing symbols, held for a group of heads in one
    subset table that :func:`_group_objectives` scores.  The first assignment
    in that order of least objective wins.  Refuses more than 2**22 assignments.
    """
    m, k, n = spec.num_symbols, spec.num_cells, spec.num_sources
    _check_budget(k**m, f"{k}^{m} assignments")
    joint = spec.joint.entries
    width = n * max(k, spec.channel.num_outputs)
    low = 1  # trailing symbols enumerated inside a block
    while k > 1 and low < m and width * k ** (low + 1) < _BLOCK_ENTRIES:
        low += 1
    powers = k ** np.arange(m - 1, -1, -1, dtype=np.int64)
    prefixes = k ** (m - low)
    group = max(1, (_BLOCK_ENTRIES - 1) // width)  # heads whose cell joints are built at once
    tabled = max(1, (_BLOCK_ENTRIES - 1) // (n * 2**low * k))  # heads per subset table
    slot = _subset_slots(k, low)

    best_obj, best_index = math.inf, None
    for first in range(0, prefixes, group):
        heads = np.arange(first, min(first + group, prefixes))[:, None] // powers[low:] % k
        head_cells = cell_joints(joint[:, : m - low], heads, k)
        for lo in range(0, len(heads), tabled):
            table = _subset_table(head_cells[:, lo : lo + tabled], joint[:, m - low :])
            for head, objs in enumerate(_group_objectives(spec, table, slot), first + lo):
                pick = int(objs.argmin())
                if best_index is None or objs[pick] < best_obj:
                    best_obj, best_index = objs[pick], head * k**low + pick

    return certified_report(spec, best_index // powers % k, "bruteforce")


# ---------------------------------------------------------------------------
# Binary-source solvers
# ---------------------------------------------------------------------------


def _sorted_posterior_order(spec: ProblemSpec) -> np.ndarray:
    """Symbols sorted by p(X_1 | Y) ascending, ties by original index."""
    first = posteriors(spec.joint)[0]
    return np.lexsort((np.arange(spec.num_symbols), first))


def _interval_blocks(joint: np.ndarray, k: int, rank: np.ndarray, block: int):
    """Cell joints of every split of the sorted order (``rank`` is each symbol's
    position in it) into 1..K intervals times every injective interval-to-cell
    labelling, in blocks of at most ``block`` in enumeration order (interval
    count, cuts, labelling).  Yields (cells, interval of each symbol per cut,
    labellings); candidate c is cut c // len(labellings) under labelling
    c % len(labellings)."""
    n, m = joint.shape
    for intervals in range(1, min(k, m) + 1):
        cut_sets = combinations(range(1, m), intervals - 1)
        cuts_per_chunk = max(1, min(block // math.perm(k, intervals), (_BLOCK_ENTRIES - 1) // m))
        while chunk := list(islice(cut_sets, cuts_per_chunk)):
            cuts = np.array(chunk, dtype=np.int64).reshape(len(chunk), intervals - 1)
            interval = (cuts[:, :, None] <= rank).sum(axis=1)  # of each symbol
            interval_joints = cell_joints(joint, interval, intervals)
            labellings = permutations(range(k), intervals)
            while part := list(islice(labellings, block)):
                part = np.array(part, dtype=np.int64)  # the cell of each interval
                cells = np.zeros((n, len(chunk), len(part), k))
                cells[:, :, np.arange(len(part))[:, None], part] = interval_joints[:, :, None]
                yield cells.reshape(n, -1, k), interval, part


def solve_binary_thresholds(spec: ProblemSpec) -> SolveReport:
    """Exact solver for binary sources via ordered interval enumeration.

    Sorts the symbols by posterior, then tries every split of the sorted
    order into 1..K contiguous intervals combined with every injective
    interval-to-cell labeling.  Labelings matter because channel rows and
    linear constraint weights are cell-specific.  Each cut's interval joints
    are built once and placed in the cells of all its labellings; candidates
    are scored in blocks, and the winner is the first in enumeration order
    whose objective, in the report's arithmetic, is the smallest.  Refuses
    more than 2**22.
    """
    if spec.num_sources != 2:
        raise NotBinaryError("needs a binary source")
    m, k = spec.num_symbols, spec.num_cells
    count = sum(math.comb(m - 1, r - 1) * math.perm(k, r) for r in range(1, min(k, m) + 1))
    _check_budget(count, "interval labellings")
    block = max(1, (_BLOCK_ENTRIES - 1) // (2 * max(k, spec.channel.num_outputs)))

    best_obj, best_labels = math.inf, None
    rank = np.argsort(_sorted_posterior_order(spec))
    for cells, interval, labellings in _interval_blocks(spec.joint.entries, k, rank, block):
        objs = score_cells(spec, cells)[3]
        pick = int(np.argmin(objs))
        if best_labels is None or objs[pick] < best_obj:
            cut, labelling = divmod(pick, len(labellings))
            best_obj, best_labels = objs[pick], labellings[labelling][interval[cut]]

    return certified_report(spec, best_labels, "thresholds")


def solve_dp_identity(spec: ProblemSpec) -> SolveReport:
    """Exact dynamic program for binary source over a noiseless channel.

    Needs the channel to be the identity and the constraint to be the same
    function for every cell (none or entropy): then the objective is a sum
    of independent interval costs over the sorted posterior order, each
    scored once, and the best split into at most K intervals is found in M
    steps of O(K * M) arithmetic.
    """
    if spec.num_sources != 2:
        raise NotBinaryError("needs a binary source")
    if not spec.channel.is_identity:
        raise PreconditionViolatedError("needs the identity channel")
    if spec.constraint.kind == "linear":
        raise PreconditionViolatedError("needs a cell-symmetric constraint")

    m, k = spec.num_symbols, spec.num_cells
    order = _sorted_posterior_order(spec)
    prefix = np.zeros((2, m + 1))
    prefix[:, 1:] = np.cumsum(spec.joint.entries[:, order], axis=1)

    # cost[j, i]: best split of the first i sorted symbols into j intervals;
    # row j - 1 is inf before column j - 1 (too few symbols), so no split wins there
    max_intervals = min(k, m)
    cost = np.full((max_intervals + 1, m + 1), math.inf)
    split = np.zeros((max_intervals + 1, m + 1), dtype=np.int64)
    cost[0, 0] = 0.0
    for i in range(1, m + 1):
        # differences of nondecreasing prefix sums are nonnegative
        v = prefix[:, i, None, None] - prefix[:, :i, None]
        # each interval is a one-cell candidate: the identity channel keeps it
        # apart from the other cells, and a cell-symmetric constraint scores
        # it the same whichever cell it becomes
        candidates = cost[:-1, :i] + score_cells(spec, v)[3]
        split[1:, i] = candidates.argmin(axis=1)
        cost[1:, i] = candidates.min(axis=1)

    best_j = int(np.argmin(cost[1:, m])) + 1
    bounds = [m]
    for j in range(best_j, 0, -1):
        bounds.append(int(split[j, bounds[-1]]))

    labels = np.empty(m, dtype=np.int64)
    labels[order] = np.repeat(np.arange(best_j), np.diff(bounds[::-1]))
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
    spec: ProblemSpec, quantizer: Quantizer, tol: float = CERTIFICATE_TOL
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
    dist, own, best = _own_and_best(spec, evaluate(spec, quantizer), labels)

    # (points, competing cells, margins, kind) of each kind, in report order
    far = np.flatnonzero(own > best + tol)
    found = [(far, dist[:, far].argmin(axis=0), own[far] - best[far] - tol, "distance")]
    if spec.num_sources == 2:
        first = posteriors(spec.joint)[0]
        lo = np.full(spec.num_cells, math.inf)
        hi = np.full(spec.num_cells, -math.inf)
        np.minimum.at(lo, labels, first)
        np.maximum.at(hi, labels, first)
        # [b, m]: symbol m of another cell lies strictly inside cell b's range (empty if b is)
        inside = (first > lo[:, None] + tol) & (first < hi[:, None] - tol)
        inside &= labels != np.arange(spec.num_cells)[:, None]
        cells, points = np.nonzero(inside)
        ranked = np.lexsort((points, cells, labels[points]))  # by assigned cell, then cell b
        cells, points = cells[ranked], points[ranked]
        margins = np.minimum(first[points] - lo[cells], hi[cells] - first[points]) - tol
        found.append((points, cells, margins, "ordering"))

    violations = tuple(
        SeparationViolation(
            point=int(m),
            assigned_cell=int(labels[m]),
            competing_cell=int(b),
            margin=float(margin),
            kind=kind,
        )
        for points, cells, margins, kind in found
        for m, b, margin in zip(points, cells, margins)
    )
    return SeparationReport(separated=not violations, violations=violations)


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
    _check_fits(spec, quantizer)
    order = _sorted_posterior_order(spec)
    order.setflags(write=False)
    sorted_labels = quantizer.hard_assignment[order]
    cuts = np.flatnonzero(sorted_labels[1:] != sorted_labels[:-1]) + 1
    run_labels = sorted_labels[np.r_[0, cuts]].tolist()
    if len(set(run_labels)) != len(run_labels):
        raise PreconditionViolatedError("cells are not contiguous in sorted posterior order")
    return ThresholdSolution(
        sorted_order=order, boundaries=tuple(cuts.tolist()), labeling=tuple(run_labels)
    )
