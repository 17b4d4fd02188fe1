"""Design of discrete partitions that survive a noisy relay channel.

Given a joint source/data distribution, a cell budget, and a row-stochastic
relay channel, this package searches for the hard partition of the data
alphabet minimizing a weighted sum of end-to-end concave impurity and a
concave cost on the partition's own distribution.  A gradient-distance local
solver handles large alphabets; exhaustive, threshold, and dynamic-program
solvers provide exact answers on their validity domains.
"""

from .errors import (
    ChanpartError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InstanceTooLargeError,
    InvalidMoveError,
    NegativeEntryError,
    NonPositiveEntryError,
    NotBinaryError,
    OutOfRangeError,
    PreconditionViolatedError,
    SumNotOneError,
    ZeroColumnError,
)
from .exact import (
    SeparationReport,
    SeparationViolation,
    ThresholdSolution,
    check_hyperplane_separation,
    solve_binary_thresholds,
    solve_bruteforce,
    solve_dp_identity,
    threshold_structure,
)
from .impurity import (
    ENTROPY,
    GINI,
    ConstraintSpec,
    ImpuritySpec,
)
from .iterative import SolveReport, SolverOptions, reassign_sweep, solve_iterative
from .objective import (
    EvaluatedState,
    ProblemSpec,
    assignment_is_distance_optimal,
    distance_matrix,
    evaluate,
    path_objective,
)
from .probability import (
    ChannelMatrix,
    ClusterJoints,
    JointDistribution,
    OutputJoints,
    Quantizer,
    posteriors,
    push_through_channel,
    push_to_clusters,
    validate_channel,
    validate_joint,
)

__version__ = "0.1.0"

__all__ = [
    "ChanpartError",
    "ChannelMatrix",
    "ClusterJoints",
    "ConstraintSpec",
    "DimensionMismatchError",
    "ENTROPY",
    "EvaluatedState",
    "GINI",
    "ImpuritySpec",
    "IndexOutOfRangeError",
    "InstanceTooLargeError",
    "InvalidMoveError",
    "JointDistribution",
    "NegativeEntryError",
    "NonPositiveEntryError",
    "NotBinaryError",
    "OutOfRangeError",
    "OutputJoints",
    "PreconditionViolatedError",
    "ProblemSpec",
    "Quantizer",
    "SeparationReport",
    "SeparationViolation",
    "SolveReport",
    "SolverOptions",
    "SumNotOneError",
    "ThresholdSolution",
    "ZeroColumnError",
    "assignment_is_distance_optimal",
    "check_hyperplane_separation",
    "distance_matrix",
    "evaluate",
    "path_objective",
    "posteriors",
    "push_through_channel",
    "push_to_clusters",
    "reassign_sweep",
    "solve_binary_thresholds",
    "solve_bruteforce",
    "solve_dp_identity",
    "solve_iterative",
    "threshold_structure",
    "validate_channel",
    "validate_joint",
]
