"""Batch front end: parse a problem file, dispatch a solver, emit a report.

One JSON schema (``format: 1``) is used for both problem files and reports,
so runs are diffable and reproducible.  Exit codes: 0 success, 2 input or
validation error or an output file that cannot be written (both reported
by :func:`main`), 3 solver guard/precondition failure, 4 exact-solver
disagreement in ``compare``.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from .errors import (
    ECHO_LIMIT,
    ChanpartError,
    InstanceTooLargeError,
    PreconditionViolatedError,
    _echo_repr,
)
from .exact import solve_binary_thresholds, solve_bruteforce, solve_dp_identity
from .impurity import ConstraintSpec, ImpuritySpec, gradient_bound
from .iterative import SolveReport, SolverOptions, solve_iterative
from .objective import ProblemSpec
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

#: Most opening brackets and braces a text may hold for orjson to read it.
#: Every array or object opens with one, so their count bounds the nesting
#: depth from above, quotes and escapes aside.  A text with more goes to json
#: alone, so json's recursion limit decides it as before.  orjson before
#: 3.9.15 builds its Python objects by recursion in native code with no depth
#: limit: a valid text nested some 10^5 deep overflows the C stack and kills
#: the process.
ORJSON_MAX_DEPTH = 64

#: Every byte but the opening bracket and brace.
_NOT_OPENING = bytes(b for b in range(256) if b not in b"[{")

#: Bound on any partition's objective and any symbol-to-cell distance that a
#: problem file must keep; half the float range leaves room for their differences.
OBJECTIVE_LIMIT = sys.float_info.max / 2


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


def _echo(text: str) -> str:
    """``text`` cut to :data:`ECHO_LIMIT` characters, saying how many were cut."""
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text) - ECHO_LIMIT} more characters)"


@contextmanager
def _refusal(key: str):
    """Report a library type's refusal of the value under ``key`` as an :class:`InputFileError`."""
    try:
        yield
    except (ChanpartError, ValueError, TypeError, OverflowError) as exc:
        raise InputFileError(f"{key}: {_echo(str(exc))}") from exc


def parse_problem_document(doc) -> ProblemFile:
    """Build a validated :class:`ProblemFile` from a decoded JSON document.

    The file's own rules are checked here; every value goes to the library
    type that owns it, and a refusal there is reported under the value's key.
    """
    if not isinstance(doc, dict):
        raise InputFileError("document: expected a JSON object at top level")
    for key in doc:
        if key not in TOP_KEYS:
            raise InputFileError(f"{_echo(str(key))}: unknown key")
    fmt = _require(doc, "format")
    if fmt != 1:
        raise InputFileError(f"format: unsupported version {_echo_repr(fmt)}, expected 1")

    joint_doc = _require(doc, "joint_xy")
    with _refusal("joint_xy"):
        joint = validate_joint(np.asarray(joint_doc, dtype=float))

    num_cells = _require(doc, "num_cells")
    if not isinstance(num_cells, int) or isinstance(num_cells, bool) or num_cells < 1:
        raise InputFileError(f"num_cells: expected a positive integer, got {_echo_repr(num_cells)}")

    if "channel" in doc and doc["channel"] is not None:
        with _refusal("channel"):
            channel = validate_channel(np.asarray(doc["channel"], dtype=float))
    else:
        try:
            channel = ChannelMatrix.identity(num_cells)
        # past numpy's largest dimension, or more memory than numpy can ask for
        except (ValueError, MemoryError) as exc:
            raise InputFileError(f"num_cells: too large for an identity channel: {exc}") from exc

    beta = _require(doc, "beta")
    # an int past the float range compares exactly, so float(beta) below cannot overflow
    if isinstance(beta, bool) or not isinstance(beta, (int, float)) or not 0 < beta <= sys.float_info.max:
        raise InputFileError(f"beta: expected a positive finite number, got {_echo_repr(beta)}")

    impurity_name = _require(doc, "impurity")
    with _refusal("impurity"):
        impurity = ImpuritySpec(impurity_name)

    constraint_doc = _require(doc, "constraint")
    if isinstance(constraint_doc, str):
        constraint_doc = {"kind": constraint_doc}
    if not isinstance(constraint_doc, dict) or "kind" not in constraint_doc:
        raise InputFileError("constraint: expected a name or an object with a 'kind'")
    for key in constraint_doc:
        if key not in ("kind", "weights"):
            raise InputFileError(f"constraint.{_echo(str(key))}: unknown key")
    with _refusal("constraint"):
        constraint = ConstraintSpec(constraint_doc["kind"], constraint_doc.get("weights"))

    with _refusal("problem"):
        spec = ProblemSpec(
            joint=joint,
            channel=channel,
            num_cells=num_cells,
            impurity=impurity,
            constraint=constraint,
            beta=float(beta),
        )
    # beta * F <= beta * impurity(p_X) (F is superadditive) and beta times a distance's gradient
    # term are both within beta * gradient_bound; a linear constraint adds at most max |w|
    scaled = spec.beta * gradient_bound(impurity, joint.num_sources)
    if not scaled < OBJECTIVE_LIMIT:
        raise InputFileError(f"beta: {_echo_repr(beta)} is too large: the objective could overflow")
    if constraint.kind == "linear" and not scaled + float(np.abs(constraint.weights).max()) < OBJECTIVE_LIMIT:
        raise InputFileError("constraint: linear weights too large: the objective could overflow")

    solver = _require(doc, "solver")
    if solver not in SOLVER_NAMES:
        raise InputFileError(f"solver: unknown name {_echo_repr(solver)}, expected one of {SOLVER_NAMES}")

    option_doc = doc.get("options", {})
    if option_doc is None:
        option_doc = {}
    if not isinstance(option_doc, dict):
        raise InputFileError("options: expected an object")
    for key in option_doc:
        if key not in OPTION_KEYS:
            raise InputFileError(f"options.{_echo(str(key))}: unknown key")
    with _refusal("options"):
        options = SolverOptions(**option_doc)

    return ProblemFile(spec=spec, solver=solver, options=options)


def parse_problem_file(path: str) -> ProblemFile:
    """Read and validate a problem file; its bytes are read once.

    orjson decodes a file with at most :data:`ORJSON_MAX_DEPTH` opening
    brackets and braces.  json decodes the same bytes, as a UTF-8 text-mode
    handle would, when there are more or when orjson or validation refuses
    them; its verdict and message stand, a syntax error's line and column
    included.  The two agree on every file both accept: orjson's floats are
    correctly rounded, and an integer past 64 bits, which orjson reads as a
    float, either fails validation or is used as that same float.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise InputFileError(f"{path}: {exc}") from exc
    try:
        if len(raw.translate(None, _NOT_OPENING)) <= ORJSON_MAX_DEPTH:
            return parse_problem_document(orjson.loads(raw))
    except (orjson.JSONDecodeError, InputFileError):
        pass
    try:
        doc = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    # an integer past Python's digit limit, bytes that are not UTF-8, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise InputFileError(f"{path}: parse error: {exc}") from exc
    return parse_problem_document(doc)


def _run_named_solver(name: str, spec: ProblemSpec, options: SolverOptions) -> SolveReport:
    if name == "iterative":
        return solve_iterative(spec, options)
    if name == "bruteforce":
        return solve_bruteforce(spec)
    if name == "thresholds":
        return solve_binary_thresholds(spec)
    return solve_dp_identity(spec)


def report_document(spec: ProblemSpec, report: SolveReport) -> dict:
    return {
        "format": 1,
        "solver": report.solver_name,
        "beta": spec.beta,
        "objective": report.objective,
        "F_value": report.F_value,
        "G_value": report.G_value,
        "assignment": (report.assignment + 1).tolist(),
        "cell_masses": report.state.cluster_joints.cluster_mass.tolist(),
        "output_joint": report.state.output_joints.entries.tolist(),
        "optimality_certificate": report.optimality_certificate,
        "objective_trace": list(report.objective_trace),
        "iterations_used": list(report.iterations_used),
    }


def _dump(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n"``, byte
    for byte, for documents with string keys.

    Only the top level is joined here, so that a list of plain ints such as
    the labels formats each distinct value once.  Every other value is json's
    own text indented one level; json escapes the newlines inside strings.
    """
    if not doc:
        return "{}\n"
    members = []
    for key, value in sorted(doc.items()):
        if isinstance(value, list) and {*map(type, value)} == {int}:
            # labels: few distinct values, each formatted once
            text = {item: int.__repr__(item) for item in set(value)}
            body = "[\n    " + ",\n    ".join(map(text.__getitem__, value)) + "\n  ]"
        else:
            body = json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n  ")
        members.append(f"{encode_basestring_ascii(key)}: {body}")
    return "{\n  " + ",\n  ".join(members) + "\n}\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def write_posterior_csv(path: str, spec: ProblemSpec, report: SolveReport) -> None:
    """One row per data symbol in original order; indices are 1-based."""
    names = ["index", "p_Y"] + [f"p_X{n + 1}|Y" for n in range(spec.num_sources)] + ["assigned_cell"]
    lines = [",".join(names)]
    rows = zip(spec.joint.symbol_marginal.tolist(), posteriors(spec.joint).T.tolist(), (report.assignment + 1).tolist())
    for index, (mass, post, label) in enumerate(rows, 1):
        lines.append(",".join(map(repr, (index, mass, *post, label))))
    _write_output("\n".join(lines) + "\n", path)


def cmd_solve(args: argparse.Namespace) -> int:
    overrides = {name: getattr(args, name) for name in ("seed", "restarts") if getattr(args, name) is not None}
    pf = parse_problem_file(args.file)
    with _refusal("options"):
        options = replace(pf.options, **overrides)

    solver = args.solver if args.solver is not None else pf.solver

    try:
        report = _run_named_solver(solver, pf.spec, options)
    except (InstanceTooLargeError, PreconditionViolatedError) as exc:
        print(f"error: {solver}: {exc}", file=sys.stderr)
        return EXIT_GUARD

    _write_output(_dump(report_document(pf.spec, report)), args.output)
    if args.emit_posteriors is not None:
        write_posterior_csv(args.emit_posteriors, pf.spec, report)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    pf = parse_problem_file(args.file)

    results = []
    exact_objectives = {}
    for name in SOLVER_NAMES:
        started = time.perf_counter()
        try:
            report = _run_named_solver(name, pf.spec, pf.options)
        except PreconditionViolatedError as exc:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call shares, built at the first rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return cmd_solve(args) if args.command == "solve" else cmd_compare(args)
    # a problem file refused, or an output file that cannot be written
    except (InputFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
