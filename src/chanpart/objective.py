"""Joint objective, assignment distances, and the single-move path objective.

A problem instance fixes the joint p(X, Y), the relay channel, the cell
count, an impurity, a constraint, and the trade-off weight beta.  The score
of a quantizer is

    objective(Q) = beta * F(X, T) + G(p_Z)

where F sums the cell impurities of the channel outputs and G sums the
per-cell constraint values.

Local optimality of an assignment is characterized by a gradient-based
distance from each data symbol to each cell, built from the impurity
gradients c_h at the current channel outputs and the constraint derivatives
d_k at the current cell masses:

    distance(m, k) = beta * sum_h A[k, h] * (c_h . p(X, Y_m)) + d_k * p(Y_m)

Dividing out the (positive, k-independent) symbol mass p(Y_m) gives the
scaled distance used by the solvers; both variants have the same per-symbol
argmin.  An assignment is locally optimal exactly when every symbol sits in
a cell of minimal distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidMoveError,
    OutOfRangeError,
)
from .impurity import (
    ConstraintSpec,
    ImpuritySpec,
    _column_impurities,
    column_gradients,
    constraint_derivatives,
    constraint_total,
)
from .probability import (
    ChannelMatrix,
    ClusterJoints,
    JointDistribution,
    OutputJoints,
    Quantizer,
    _check_integer,
    posteriors,
    push_to_clusters,
)

#: Tie tolerance of the local-optimality certificate.
CERTIFICATE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One complete optimization instance."""

    joint: JointDistribution
    channel: ChannelMatrix
    num_cells: int
    impurity: ImpuritySpec
    constraint: ConstraintSpec
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < float(self.beta) < np.inf:
            raise OutOfRangeError(f"beta must be positive and finite, got {self.beta}")
        object.__setattr__(self, "beta", float(self.beta))
        _check_integer("num_cells", self.num_cells)
        if self.channel.num_inputs != self.num_cells:
            raise DimensionMismatchError(
                f"channel has {self.channel.num_inputs} input rows, expected {self.num_cells}"
            )
        if self.constraint.kind == "linear" and self.constraint.weights.size != self.num_cells:
            raise DimensionMismatchError(
                f"linear constraint has {self.constraint.weights.size} weights, "
                f"expected {self.num_cells}"
            )

    @property
    def num_sources(self) -> int:
        return self.joint.num_sources

    @property
    def num_symbols(self) -> int:
        return self.joint.num_symbols


@dataclass(frozen=True, eq=False)
class EvaluatedState:
    """Everything the assignment rule needs at one quantizer.

    ``output_gradients`` holds one impurity-gradient column per channel
    output; ``constraint_derivatives`` holds one clamped derivative per cell.
    """

    cluster_joints: ClusterJoints
    output_joints: OutputJoints
    output_gradients: np.ndarray  # shape (N, H)
    constraint_derivatives: np.ndarray  # shape (K,)
    F_value: float
    G_value: float
    objective: float


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Result of one solver run, shared by the local and exact solvers."""

    solver_name: str
    best_quantizer: Quantizer
    objective: float
    F_value: float
    G_value: float
    iterations_used: tuple[int, ...]
    objective_trace: tuple[float, ...]
    optimality_certificate: bool
    state: EvaluatedState  # of best_quantizer; the fields above were read from it

    @property
    def assignment(self) -> np.ndarray:
        return self.best_quantizer.hard_assignment


def score_cells(spec: ProblemSpec, cells: np.ndarray, mass: np.ndarray) -> tuple:
    """``(outputs, F, G, objective)`` of cell joints; every solver scores here.

    ``cells`` holds the K cells on its last axis: one N x K partition, with
    ``mass`` its K cell masses and scalar F, G and objective, or N x C x K
    for C candidates at once, with C x K masses and C-vectors of F, G and
    objective.  A candidate's F has the bits it would get alone; under a
    linear constraint its G may differ in the last bits, as C masses meet
    the weights in one matrix product.
    """
    # multiplying by the identity is exact
    outputs = cells if spec.channel.is_identity else cells @ spec.channel.entries
    # sums of nonnegative joint entries through a nonnegative relay need no check
    impurities = _column_impurities(spec.impurity, outputs.reshape(len(outputs), -1))
    f_values = impurities.reshape(outputs.shape[1:]).sum(axis=-1)
    g_values = constraint_total(spec.constraint, mass)
    return outputs, f_values, g_values, spec.beta * f_values + g_values


def evaluate(spec: ProblemSpec, quantizer: Quantizer) -> EvaluatedState:
    """Score a (hard or soft) quantizer and collect its gradient data."""
    if quantizer.num_cells != spec.num_cells:
        raise DimensionMismatchError(
            f"quantizer has {quantizer.num_cells} cells, spec expects {spec.num_cells}"
        )
    clusters = push_to_clusters(spec.joint, quantizer)
    outputs, f_value, g_value, objective = score_cells(
        spec, clusters.entries, clusters.cluster_mass
    )
    return EvaluatedState(
        cluster_joints=clusters,
        output_joints=OutputJoints(outputs),
        output_gradients=column_gradients(spec.impurity, outputs),
        constraint_derivatives=constraint_derivatives(spec.constraint, clusters.cluster_mass),
        F_value=float(f_value),
        G_value=float(g_value),
        objective=float(objective),
    )


def _distances(channel, grads_t, cols, beta: float, offset) -> np.ndarray:
    """``beta * channel @ (grads_t @ cols) + offset`` in one fixed operation order.

    The sweeps and :func:`distance_matrix` (and through it the certificate)
    all compute distances here, so they share one formula and one operation
    order.  ``channel`` is K x H, ``grads_t`` H x N, ``cols`` N x B, and
    ``offset`` broadcasts against the K x B result.
    """
    out = channel @ (grads_t @ cols)
    out *= beta
    out += offset
    return out


def distance_matrix(state: EvaluatedState, spec: ProblemSpec, *, scaled: bool = True) -> np.ndarray:
    """All symbol-to-cell distances at once, as a K x M matrix.

    With ``scaled=True`` (the solver form) the symbol mass is divided out:
    entry [k, m] is beta * sum_h A[k, h] * (c_h . p(X | Y_m)) + d_k.
    """
    derivs = state.constraint_derivatives[:, None]  # (K, 1)
    if scaled:
        cols, offset = posteriors(spec.joint), derivs
    else:
        cols, offset = spec.joint.entries, derivs * spec.joint.symbol_marginal[None, :]
    return _distances(spec.channel.entries, state.output_gradients.T, cols, spec.beta, offset)


def _check_indices(spec: ProblemSpec, m: int, k: int) -> None:
    if not (0 <= m < spec.num_symbols):
        raise IndexOutOfRangeError(f"data index {m} out of range for {spec.num_symbols} symbols")
    if not (0 <= k < spec.num_cells):
        raise IndexOutOfRangeError(f"cell index {k} out of range for {spec.num_cells} cells")


def _own_and_best(spec: ProblemSpec, state: EvaluatedState, labels) -> tuple:
    """The K x M scaled distances, each symbol's distance to its own cell and its least distance."""
    dist = distance_matrix(state, spec, scaled=True)
    return dist, dist[labels, np.arange(labels.size)], dist.min(axis=0)


def _distance_optimal(spec: ProblemSpec, state: EvaluatedState, labels, tol=CERTIFICATE_TOL) -> bool:
    _, own, best = _own_and_best(spec, state, labels)
    # not own - best <= tol: that rounds differently and can flip a tied certificate
    return bool(np.all(own <= best + tol))


def assignment_is_distance_optimal(
    spec: ProblemSpec, quantizer: Quantizer, tol: float = CERTIFICATE_TOL
) -> bool:
    """True when every symbol sits in a cell of minimal scaled distance."""
    if quantizer.kind != "hard":
        raise InvalidMoveError("distance optimality is defined for hard quantizers")
    return _distance_optimal(spec, evaluate(spec, quantizer), quantizer.hard_assignment, tol)


def certified_report(
    spec: ProblemSpec, labels, solver_name: str, iterations_used=(), objective_trace=None
) -> SolveReport:
    """Evaluated, certified report of a hard assignment; the trace defaults to its objective."""
    quantizer = Quantizer.hard(labels, spec.num_cells)
    state = evaluate(spec, quantizer)
    return SolveReport(
        solver_name=solver_name,
        best_quantizer=quantizer,
        objective=state.objective,
        F_value=state.F_value,
        G_value=state.G_value,
        iterations_used=iterations_used,
        objective_trace=(state.objective,) if objective_trace is None else objective_trace,
        optimality_certificate=_distance_optimal(spec, state, quantizer.hard_assignment),
        state=state,
    )


def path_objective(
    spec: ProblemSpec,
    quantizer: Quantizer,
    m: int,
    source_cell: int,
    target_cell: int,
    t: float,
) -> float:
    """Objective after moving a fraction t of symbol m's mass between cells.

    The move transfers t * p(X, Y_m) from ``source_cell`` (which must be the
    symbol's current cell) to ``target_cell``.  t = 0 reproduces the current
    objective and t = 1 the objective of the fully reassigned partition;
    intermediate t realizes the soft partition along the straight path.
    Constraint terms of untouched cells are included, so values at different
    t differ from each other exactly as the touched terms do.
    """
    if quantizer.kind != "hard":
        raise InvalidMoveError("path objective starts from a hard quantizer")
    _check_indices(spec, m, source_cell)
    _check_indices(spec, m, target_cell)
    if source_cell == target_cell:
        raise InvalidMoveError("source and target cells must differ")
    if int(quantizer.hard_assignment[m]) != source_cell:
        raise InvalidMoveError(
            f"symbol {m} is in cell {int(quantizer.hard_assignment[m])}, not {source_cell}"
        )
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise OutOfRangeError(f"move fraction must lie in [0, 1], got {t}")

    membership = quantizer.membership_matrix()
    membership[m, source_cell], membership[m, target_cell] = 1.0 - t, t
    return evaluate(spec, Quantizer.soft(membership)).objective
