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
    column_gradients,
    column_impurities,
    constraint_derivatives,
    constraint_total,
)
from .probability import (
    ChannelMatrix,
    ClusterJoints,
    JointDistribution,
    OutputJoints,
    Quantizer,
    cluster_joints_array,
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

    @property
    def assignment(self) -> np.ndarray:
        return self.best_quantizer.hard_assignment


def score_cells(spec: ProblemSpec, clusters: np.ndarray, mass: np.ndarray) -> tuple:
    """``(outputs, F_value, G_value, objective)`` of N x K cell joints; every solver scores here."""
    outputs = clusters @ spec.channel.entries
    f_value = float(column_impurities(spec.impurity, outputs).sum())
    g_value = float(constraint_total(spec.constraint, mass))
    return outputs, f_value, g_value, spec.beta * f_value + g_value


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
        output_joints=OutputJoints(entries=outputs, output_mass=outputs.sum(axis=0)),
        output_gradients=column_gradients(spec.impurity, outputs),
        constraint_derivatives=constraint_derivatives(spec.constraint, clusters.cluster_mass),
        F_value=f_value,
        G_value=g_value,
        objective=objective,
    )


def distance_matrix(state: EvaluatedState, spec: ProblemSpec, *, scaled: bool = True) -> np.ndarray:
    """All symbol-to-cell distances at once, as a K x M matrix.

    With ``scaled=True`` (the solver form) the symbol mass is divided out:
    entry [k, m] is beta * sum_h A[k, h] * (c_h . p(X | Y_m)) + d_k.
    """
    grads = state.output_gradients  # (N, H)
    channel = spec.channel.entries  # (K, H)
    derivs = state.constraint_derivatives  # (K,)
    if scaled:
        cols = posteriors(spec.joint)  # (N, M)
        return spec.beta * (channel @ (grads.T @ cols)) + derivs[:, None]
    cols = spec.joint.entries
    mass = spec.joint.symbol_marginal
    return spec.beta * (channel @ (grads.T @ cols)) + derivs[:, None] * mass[None, :]


def _check_indices(spec: ProblemSpec, m: int, k: int) -> None:
    if not (0 <= m < spec.num_symbols):
        raise IndexOutOfRangeError(f"data index {m} out of range for {spec.num_symbols} symbols")
    if not (0 <= k < spec.num_cells):
        raise IndexOutOfRangeError(f"cell index {k} out of range for {spec.num_cells} cells")


def distance(state: EvaluatedState, spec: ProblemSpec, m: int, k: int) -> float:
    """Gradient-based distance from data symbol m to cell k."""
    _check_indices(spec, m, k)
    s = state.output_gradients.T @ spec.joint.entries[:, m]  # (H,)
    mass = float(spec.joint.symbol_marginal[m])
    return float(
        spec.beta * (spec.channel.entries[k] @ s)
        + state.constraint_derivatives[k] * mass
    )


def scaled_distance(state: EvaluatedState, spec: ProblemSpec, m: int, k: int) -> float:
    """Distance with the symbol mass divided out; same argmin as `distance`."""
    _check_indices(spec, m, k)
    post = spec.joint.entries[:, m] / spec.joint.symbol_marginal[m]
    s = state.output_gradients.T @ post
    return float(spec.beta * (spec.channel.entries[k] @ s) + state.constraint_derivatives[k])


def _distance_optimal(spec: ProblemSpec, state: EvaluatedState, labels, tol=CERTIFICATE_TOL) -> bool:
    dist = distance_matrix(state, spec, scaled=True)
    own = dist[labels, np.arange(labels.size)]
    # not own - best <= tol: that rounds differently and can flip a tied certificate
    return bool(np.all(own <= dist.min(axis=0) + tol))


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

    entries = cluster_joints_array(spec.joint, quantizer)
    mass = entries.sum(axis=0)
    u = spec.joint.entries[:, m]
    pm = float(spec.joint.symbol_marginal[m])
    entries[:, source_cell] -= t * u
    entries[:, target_cell] += t * u
    mass[source_cell] -= t * pm
    mass[target_cell] += t * pm
    # float dust from the subtraction at t = 1
    np.maximum(entries, 0.0, out=entries)
    np.clip(mass, 0.0, 1.0, out=mass)
    return score_cells(spec, entries, mass)[3]
