"""The names callers import from the package stay where they are."""

import chanpart

PUBLIC_NAMES = [
    "ChanpartError", "ChannelMatrix", "ClusterJoints", "ConstraintSpec",
    "DimensionMismatchError", "ENTROPY", "EvaluatedState", "GINI", "ImpuritySpec",
    "IndexOutOfRangeError", "InstanceTooLargeError", "InvalidMoveError", "JointDistribution",
    "NegativeEntryError", "NonPositiveEntryError", "NotBinaryError", "OutOfRangeError",
    "OutputJoints", "PreconditionViolatedError", "ProblemSpec", "Quantizer", "SeparationReport",
    "SeparationViolation", "SolveReport", "SolverOptions", "SumNotOneError", "ThresholdSolution",
    "ZeroColumnError", "assignment_is_distance_optimal", "cell_gradient", "cell_impurity",
    "check_hyperplane_separation", "constraint_derivative", "constraint_value", "distance",
    "distance_matrix", "evaluate", "path_objective", "posteriors", "push_through_channel",
    "push_to_clusters", "reassign_sweep", "scaled_distance", "solve_binary_thresholds",
    "solve_bruteforce", "solve_dp_identity", "solve_iterative", "threshold_structure",
    "validate_channel", "validate_joint",
]


def test_public_surface():
    assert chanpart.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(chanpart, name), name
    # the benchmark imports SolverOptions from here
    from chanpart.iterative import SolveReport, SolverOptions

    assert SolveReport is chanpart.SolveReport
    assert SolverOptions is chanpart.SolverOptions
