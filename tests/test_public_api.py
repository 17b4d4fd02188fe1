"""The names callers import from the package stay where they are."""

import importlib
import inspect

import pytest

import chanpart

PUBLIC_NAMES = [
    "ChanpartError", "ChannelMatrix", "ClusterJoints", "ConstraintSpec",
    "DimensionMismatchError", "ENTROPY", "EvaluatedState", "GINI", "ImpuritySpec",
    "IndexOutOfRangeError", "InstanceTooLargeError", "InvalidMoveError", "JointDistribution",
    "NegativeEntryError", "NonPositiveEntryError", "NotBinaryError", "OutOfRangeError",
    "OutputJoints", "PreconditionViolatedError", "ProblemSpec", "Quantizer", "SeparationReport",
    "SeparationViolation", "SolveReport", "SolverOptions", "SumNotOneError", "ThresholdSolution",
    "ZeroColumnError", "assignment_is_distance_optimal", "check_hyperplane_separation",
    "distance_matrix", "evaluate", "path_objective", "posteriors", "push_through_channel",
    "push_to_clusters", "reassign_sweep", "solve_binary_thresholds", "solve_bruteforce",
    "solve_dp_identity", "solve_iterative", "threshold_structure", "validate_channel",
    "validate_joint",
]

#: The functions the traced benchmark (bench/run.py) looks up by layer and
#: name; its tracer raises KeyError on a run when one of them is gone.
BENCHMARK_NAMES = [
    "impurity.column_gradients", "impurity.column_impurities",
    "impurity.constraint_derivatives", "impurity.constraint_total",
    "probability.posteriors", "probability.push_to_clusters",
    "probability.push_through_channel", "probability.validate_joint",
    "objective.evaluate", "objective.distance_matrix",
    "iterative.solve_iterative",
    "cli.parse_problem_file", "cli.report_document",
    "exact.solve_dp_identity", "exact.solve_bruteforce", "exact.solve_binary_thresholds",
]


def test_public_surface():
    assert chanpart.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(chanpart, name), name
    # the benchmark imports SolverOptions from here
    from chanpart.iterative import SolveReport, SolverOptions

    assert SolveReport is chanpart.SolveReport
    assert SolverOptions is chanpart.SolverOptions


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_names_are_functions_of_their_module(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"chanpart.{layer}")
    fn = getattr(module, attr, None)
    # the tracer wraps only public functions defined in the module itself
    assert inspect.isfunction(fn), name
    assert fn.__module__ == module.__name__, name
