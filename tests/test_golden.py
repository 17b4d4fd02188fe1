"""Golden reports: the exact bytes every solver writes on fixed instances.

Each directory under ``golden/`` holds one problem file and the report of
every applicable solver on it (``<solver>.json``, run with ``--solver``)
plus the ``compare`` report with its ``runtime_seconds`` fields dropped.
Two larger seeded instances, generated here, are pinned by the SHA-256 of
their report bytes in ``golden/large.json``.

Refactors must leave every byte unchanged.  After an intended change of
output, rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from chanpart.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SOLVERS = ("iterative", "bruteforce", "thresholds", "dp")
DESK_COMBOS = tuple(
    (impurity, constraint, channel)
    for impurity in ("entropy", "gini")
    for constraint in ("none", "entropy", "linear")
    for channel in ("identity", "noisy")
)
LARGE = {
    "seq2000": {"num_symbols": 2000, "options": {"seed": 11, "restarts": 2}},
    "batch20000": {
        "num_symbols": 20000,
        "options": {"seed": 12, "restarts": 1, "sweep_mode": "batch"},
    },
}


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _applicable(problem: dict) -> tuple[str, ...]:
    binary = len(problem["joint_xy"]) == 2
    identity = "channel" not in problem
    symmetric = problem["constraint"] in ("none", "entropy")
    names = ["iterative", "bruteforce"]
    if binary:
        names.append("thresholds")
    if binary and identity and symmetric:
        names.append("dp")
    return tuple(names)


def _solve_bytes(path: Path, solver: str, out: Path) -> bytes:
    assert main(["solve", str(path), "--solver", solver, "--output", str(out)]) == 0
    return out.read_bytes()


def _compare_text(path: Path, out: Path) -> str:
    assert main(["compare", str(path), "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    for result in doc["results"]:
        result.pop("runtime_seconds", None)
    return _dump(doc)


def _large_problem(name: str) -> dict:
    """Four-level PAM through AWGN, binned and smoothed, with a noisy 8x8 relay."""
    case = LARGE[name]
    m = case["num_symbols"]
    rng = np.random.default_rng(m)
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    x = rng.integers(0, 4, size=20 * m)
    y = levels[x] + 0.6 * rng.standard_normal(20 * m)
    bins = np.clip(((y + 4.8) * (m / 9.6)).astype(np.int64), 0, m - 1)
    counts = np.bincount(x * m + bins, minlength=4 * m).reshape(4, m) + 1.0
    channel = np.full((8, 8), 0.05 / 7)
    np.fill_diagonal(channel, 0.95)
    return {
        "format": 1,
        "joint_xy": (counts / counts.sum()).tolist(),
        "channel": channel.tolist(),
        "num_cells": 8,
        "beta": 1.0,
        "impurity": "entropy",
        "constraint": "none",
        "solver": "iterative",
        "options": case["options"],
    }


def _large_digest(name: str, work: Path) -> str:
    path = work / f"{name}.problem.json"
    path.write_text(json.dumps(_large_problem(name)), encoding="utf-8")
    return hashlib.sha256(_solve_bytes(path, "iterative", work / "report.json")).hexdigest()


CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) if GOLDEN.is_dir() else []


@pytest.mark.parametrize("case", CASES)
def test_reports_match_golden_bytes(case, tmp_path):
    problem_path = GOLDEN / case / "problem.json"
    problem = json.loads(problem_path.read_text(encoding="utf-8"))
    solvers = _applicable(problem)
    assert sorted(p.stem for p in (GOLDEN / case).glob("*.json")) == sorted(
        (*solvers, "compare", "problem")
    )
    for solver in solvers:
        expected = (GOLDEN / case / f"{solver}.json").read_bytes()
        assert _solve_bytes(problem_path, solver, tmp_path / "report.json") == expected, solver
    expected = (GOLDEN / case / "compare.json").read_text(encoding="utf-8")
    assert _compare_text(problem_path, tmp_path / "compare.json") == expected


def test_golden_set_is_complete():
    assert CASES == sorted(["e1", *(f"desk-{'-'.join(c)}" for c in DESK_COMBOS)])


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_report_digests(name, tmp_path):
    digests = json.loads((GOLDEN / "large.json").read_text(encoding="utf-8"))
    assert _large_digest(name, tmp_path) == digests[name]


# ---------------------------------------------------------------------------
# Writing the golden files
# ---------------------------------------------------------------------------


def _desk_problem(rng: np.random.Generator, impurity: str, constraint: str, channel: str) -> dict:
    """Binary source, M=7, K=3, smoothed small counts (so posteriors tie)."""
    counts = rng.integers(0, 6, size=(2, 7)) + 1.0
    doc = {
        "format": 1,
        "joint_xy": (counts / counts.sum()).tolist(),
        "num_cells": 3,
        "beta": 2.0,
        "impurity": impurity,
        "constraint": constraint,
        "solver": "iterative",
        "options": {
            "seed": int(rng.integers(0, 2**31)),
            "restarts": 4,
            "sweep_mode": "batch" if impurity == "gini" else "sequential",
        },
    }
    if constraint == "linear":
        doc["constraint"] = {"kind": "linear", "weights": rng.uniform(0.0, 0.3, 3).tolist()}
    if channel == "noisy":
        raw = rng.random((3, 3)) + 0.05
        doc["channel"] = (raw / raw.sum(axis=1, keepdims=True)).tolist()
    return doc


def _write_case(name: str, problem: dict, work: Path) -> None:
    case = GOLDEN / name
    case.mkdir(parents=True, exist_ok=True)
    problem_path = case / "problem.json"
    problem_path.write_text(_dump(problem), encoding="utf-8")
    for solver in _applicable(problem):
        (case / f"{solver}.json").write_bytes(_solve_bytes(problem_path, solver, work / "r.json"))
    (case / "compare.json").write_text(_compare_text(problem_path, work / "c.json"), encoding="utf-8")


def write_golden(work: Path) -> None:
    """Regenerate every golden file from the current code."""
    e1 = {
        "format": 1,
        "joint_xy": [[0.20, 0.15, 0.05, 0.10], [0.05, 0.10, 0.20, 0.15]],
        "num_cells": 2,
        "beta": 1.0,
        "impurity": "entropy",
        "constraint": "none",
        "solver": "bruteforce",
        "options": {"seed": 0, "restarts": 10},
    }
    _write_case("e1", e1, work)
    rng = np.random.default_rng(2020)
    for combo in DESK_COMBOS:
        _write_case(f"desk-{'-'.join(combo)}", _desk_problem(rng, *combo), work)
    digests = {name: _large_digest(name, work) for name in sorted(LARGE)}
    (GOLDEN / "large.json").write_text(_dump(digests), encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_golden(Path(scratch))
    sys.exit(0)
