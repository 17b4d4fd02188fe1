"""Batch front end: parse a problem file, dispatch a solver, emit a report.

One JSON schema (``format: 1``) is used for both problem files and reports,
so runs are diffable and reproducible.  Exit codes: 0 success, 2 input or
validation error, 3 solver guard/precondition failure, 4 exact-solver
disagreement in ``compare``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ChanpartError,
    InstanceTooLargeError,
    NotBinaryError,
    PreconditionViolatedError,
)
from .exact import solve_binary_thresholds, solve_bruteforce, solve_dp_identity
from .impurity import CONSTRAINT_KINDS, IMPURITY_KINDS, ConstraintSpec, ImpuritySpec
from .iterative import SolveReport, SolverOptions, solve_iterative
from .objective import ProblemSpec, evaluate
from .probability import ChannelMatrix, posteriors, validate_channel, validate_joint

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_DISAGREE = 4

SOLVER_NAMES = ("iterative", "bruteforce", "thresholds", "dp")
OPTION_KEYS = ("seed", "restarts", "max_iterations", "sweep_mode")
TOP_KEYS = ("format", "joint_xy", "channel", "num_cells", "beta", "impurity", "constraint", "solver", "options")

#: Largest accepted objective gap between exact solvers in ``compare``.
AGREEMENT_TOL = 1e-9


class InputFileError(ChanpartError):
    """Problem-file syntax or validation failure; message names the culprit."""


@dataclass(frozen=True, eq=False)
class ProblemFile:
    """A parsed problem file: the instance plus solver selection."""

    spec: ProblemSpec
    solver: str
    options: SolverOptions


def _require(doc: dict, key: str):
    if key not in doc:
        raise InputFileError(f"{key}: required key is missing")
    return doc[key]


def _positive_int(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InputFileError(f"{key}: expected a positive integer, got {value!r}")
    return value


def parse_problem_document(doc) -> ProblemFile:
    """Build a validated :class:`ProblemFile` from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise InputFileError("document: expected a JSON object at top level")
    for key in doc:
        if key not in TOP_KEYS:
            raise InputFileError(f"{key}: unknown key")
    fmt = _require(doc, "format")
    if fmt != 1:
        raise InputFileError(f"format: unsupported version {fmt!r}, expected 1")

    try:
        joint = validate_joint(np.asarray(_require(doc, "joint_xy"), dtype=float))
    except InputFileError:
        raise
    except (ChanpartError, ValueError, TypeError) as exc:
        raise InputFileError(f"joint_xy: {exc}") from exc

    num_cells = _positive_int(_require(doc, "num_cells"), "num_cells")

    if "channel" in doc and doc["channel"] is not None:
        try:
            channel = validate_channel(np.asarray(doc["channel"], dtype=float))
        except (ChanpartError, ValueError, TypeError) as exc:
            raise InputFileError(f"channel: {exc}") from exc
        if channel.num_inputs != num_cells:
            raise InputFileError(
                f"channel: has {channel.num_inputs} rows but num_cells is {num_cells}"
            )
    else:
        channel = ChannelMatrix.identity(num_cells)

    beta = _require(doc, "beta")
    if isinstance(beta, bool) or not isinstance(beta, (int, float)) or not 0 < beta < math.inf:
        raise InputFileError(f"beta: expected a positive finite number, got {beta!r}")

    impurity_name = _require(doc, "impurity")
    if impurity_name not in IMPURITY_KINDS:
        raise InputFileError(f"impurity: unknown name {impurity_name!r}, expected one of {IMPURITY_KINDS}")
    impurity = ImpuritySpec(impurity_name)

    constraint_doc = _require(doc, "constraint")
    if isinstance(constraint_doc, str):
        constraint_doc = {"kind": constraint_doc}
    if not isinstance(constraint_doc, dict) or "kind" not in constraint_doc:
        raise InputFileError("constraint: expected a name or an object with a 'kind'")
    kind = constraint_doc["kind"]
    if kind not in CONSTRAINT_KINDS:
        raise InputFileError(f"constraint: unknown kind {kind!r}, expected one of {CONSTRAINT_KINDS}")
    for key in constraint_doc:
        if key not in ("kind", "weights"):
            raise InputFileError(f"constraint.{key}: unknown key")
    try:
        if kind == "linear":
            constraint = ConstraintSpec.linear(np.asarray(constraint_doc.get("weights"), dtype=float))
        else:
            if constraint_doc.get("weights") is not None:
                raise InputFileError(f"constraint: kind {kind!r} takes no weights")
            constraint = ConstraintSpec(kind)
    except InputFileError:
        raise
    except (ChanpartError, ValueError, TypeError) as exc:
        raise InputFileError(f"constraint: {exc}") from exc

    try:
        spec = ProblemSpec(
            joint=joint,
            channel=channel,
            num_cells=num_cells,
            impurity=impurity,
            constraint=constraint,
            beta=float(beta),
        )
    except ChanpartError as exc:
        raise InputFileError(f"problem: {exc}") from exc

    solver = _require(doc, "solver")
    if solver not in SOLVER_NAMES:
        raise InputFileError(f"solver: unknown name {solver!r}, expected one of {SOLVER_NAMES}")

    option_doc = doc.get("options", {})
    if option_doc is None:
        option_doc = {}
    if not isinstance(option_doc, dict):
        raise InputFileError("options: expected an object")
    for key in option_doc:
        if key not in OPTION_KEYS:
            raise InputFileError(f"options.{key}: unknown key")
    kwargs = {}
    if "seed" in option_doc:
        seed = option_doc["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise InputFileError(f"options.seed: expected a nonnegative integer, got {seed!r}")
        kwargs["seed"] = seed
    if "restarts" in option_doc:
        kwargs["restarts"] = _positive_int(option_doc["restarts"], "options.restarts")
    if "max_iterations" in option_doc:
        kwargs["max_iterations"] = _positive_int(option_doc["max_iterations"], "options.max_iterations")
    if "sweep_mode" in option_doc:
        mode = option_doc["sweep_mode"]
        if mode not in ("sequential", "batch"):
            raise InputFileError(f"options.sweep_mode: expected 'sequential' or 'batch', got {mode!r}")
        kwargs["sweep_mode"] = mode
    options = SolverOptions(**kwargs)

    return ProblemFile(spec=spec, solver=solver, options=options)


def parse_problem_file(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return parse_problem_document(doc)


def serialize_problem(pf: ProblemFile) -> dict:
    """Canonical document for a parsed problem (post-validation numbers)."""
    spec = pf.spec
    doc = {
        "format": 1,
        "joint_xy": spec.joint.entries.tolist(),
        "channel": spec.channel.entries.tolist(),
        "num_cells": spec.num_cells,
        "beta": spec.beta,
        "impurity": spec.impurity.kind,
        "constraint": (
            {"kind": "linear", "weights": spec.constraint.weights.tolist()}
            if spec.constraint.kind == "linear"
            else spec.constraint.kind
        ),
        "solver": pf.solver,
        "options": {
            "seed": pf.options.seed,
            "restarts": pf.options.restarts,
            "max_iterations": pf.options.max_iterations,
            "sweep_mode": pf.options.sweep_mode,
        },
    }
    return doc


def _run_named_solver(name: str, spec: ProblemSpec, options: SolverOptions) -> SolveReport:
    if name == "iterative":
        return solve_iterative(spec, options)
    if name == "bruteforce":
        return solve_bruteforce(spec)
    if name == "thresholds":
        return solve_binary_thresholds(spec)
    return solve_dp_identity(spec)


def report_document(spec: ProblemSpec, report: SolveReport) -> dict:
    state = evaluate(spec, report.best_quantizer)
    return {
        "format": 1,
        "solver": report.solver_name,
        "beta": spec.beta,
        "objective": report.objective,
        "F_value": report.F_value,
        "G_value": report.G_value,
        "assignment": [int(label) + 1 for label in report.assignment],
        "cell_masses": state.cluster_joints.cluster_mass.tolist(),
        "output_joint": state.output_joints.entries.tolist(),
        "optimality_certificate": report.optimality_certificate,
        "objective_trace": list(report.objective_trace),
        "iterations_used": list(report.iterations_used),
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def write_posterior_csv(path: str, spec: ProblemSpec, report: SolveReport) -> None:
    """One row per data symbol in original order; indices are 1-based."""
    post = posteriors(spec.joint)
    mass = spec.joint.symbol_marginal
    labels = report.assignment
    names = ["index", "p_Y"] + [f"p_X{n + 1}|Y" for n in range(spec.num_sources)] + ["assigned_cell"]
    lines = [",".join(names)]
    for m in range(spec.num_symbols):
        cells = [str(m + 1), repr(float(mass[m]))]
        cells += [repr(float(post[n, m])) for n in range(spec.num_sources)]
        cells.append(str(int(labels[m]) + 1))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        pf = parse_problem_file(args.file)
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    solver = args.solver if args.solver is not None else pf.solver
    options = pf.options
    try:
        if args.seed is not None:
            options = replace(options, seed=args.seed)
        if args.restarts is not None:
            options = replace(options, restarts=args.restarts)
    except ChanpartError as exc:
        print(f"error: options: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        report = _run_named_solver(solver, pf.spec, options)
    except (InstanceTooLargeError, NotBinaryError, PreconditionViolatedError) as exc:
        print(f"error: {solver}: {exc}", file=sys.stderr)
        return EXIT_GUARD

    _write_output(_dump(report_document(pf.spec, report)), args.output)
    if args.emit_posteriors is not None:
        write_posterior_csv(args.emit_posteriors, pf.spec, report)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        pf = parse_problem_file(args.file)
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    results = []
    exact_objectives = {}
    for name in SOLVER_NAMES:
        started = time.perf_counter()
        try:
            report = _run_named_solver(name, pf.spec, pf.options)
        except (NotBinaryError, PreconditionViolatedError) as exc:
            results.append({"solver": name, "applicable": False, "reason": str(exc)})
            continue
        except InstanceTooLargeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return EXIT_GUARD
        elapsed = time.perf_counter() - started
        results.append(
            {
                "solver": name,
                "applicable": True,
                "objective": report.objective,
                "runtime_seconds": elapsed,
            }
        )
        if name != "iterative":
            exact_objectives[name] = report.objective

    values = list(exact_objectives.values())
    gap = max(values) - min(values) if values else 0.0
    agreement = gap <= AGREEMENT_TOL
    doc = {
        "format": 1,
        "mode": "compare",
        "results": results,
        "exact_solver_gap": gap,
        "agreement": agreement,
    }
    _write_output(_dump(doc), args.output)
    if not agreement:
        print(f"error: exact solvers disagree by {gap!r}", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanpart",
        description="Design noisy-channel-aware partitions minimizing concave impurity costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="Solve one problem file and write a report")
    solve.add_argument("file", help="Problem file (JSON, format 1)")
    solve.add_argument("--solver", choices=SOLVER_NAMES, default=None, help="Override the file's solver")
    solve.add_argument("--seed", type=int, default=None, help="Override options.seed")
    solve.add_argument("--restarts", type=int, default=None, help="Override options.restarts")
    solve.add_argument("--emit-posteriors", metavar="PATH", default=None,
                       help="Also write a posterior CSV (original symbol order)")
    solve.add_argument("--output", metavar="PATH", default=None, help="Write the report here instead of stdout")

    compare = sub.add_parser("compare", help="Run every applicable solver and cross-check them")
    compare.add_argument("file", help="Problem file (JSON, format 1)")
    compare.add_argument("--output", metavar="PATH", default=None, help="Write the report here instead of stdout")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
