"""Output checks that do not trust the program.

F, G and the objective are recomputed from a report's assignment with this
file's own numpy code; exact-solver results are held to an optimum that
an assignment was shown to reach.  Each check returns a list of problems,
empty when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def objective_terms(instance, labels: np.ndarray) -> tuple[float, float, float]:
    """(F, G, beta * F + G) of a 0-based hard assignment."""
    doc = instance.doc
    k = doc["num_cells"]
    clusters = np.stack([np.bincount(labels, weights=row, minlength=k) for row in instance.joint])
    outputs = clusters @ instance.channel
    w = outputs.sum(axis=0)
    if doc["impurity"] == "entropy":
        safe = np.where(outputs > 0, outputs, 1.0)
        f = float((outputs * np.log2(np.where(w > 0, w, 1.0) / safe)).sum())
    else:
        f = float((w - (outputs * outputs).sum(axis=0) / np.where(w > 0, w, 1.0)).sum())
    mass = clusters.sum(axis=0)
    constraint = doc["constraint"]
    if constraint == "none":
        g = 0.0
    elif constraint == "entropy":
        g = float(-(mass * np.log2(np.where(mass > 0, mass, 1.0))).sum())
    else:
        g = float(mass @ np.asarray(constraint["weights"]))
    return f, g, doc["beta"] * f + g


def contiguous_in_posterior_order(instance, labels: np.ndarray) -> bool:
    """True when the cells' posterior ranges p(X_1 | Y) do not interleave (ties may touch)."""
    joint = instance.joint
    first = joint[0] / joint.sum(axis=0)
    ranges = sorted((first[labels == c].min(), first[labels == c].max()) for c in np.unique(labels))
    return all(hi <= lo + 1e-12 for (_, hi), (lo, _) in zip(ranges, ranges[1:]))


def check_solve(instance, solver: str, report: dict) -> list[str]:
    """Checks on a ``solve`` report; returns the problems found."""
    m, k = instance.joint.shape[1], instance.doc["num_cells"]
    labels = np.asarray(report["assignment"]) - 1
    if labels.shape != (m,) or labels.min() < 0 or labels.max() >= k:
        return [f"{instance.name}: assignment does not map {m} symbols to {k} cells"]
    problems = []
    f, g, objective = objective_terms(instance, labels)
    for key, mine in (("F_value", f), ("G_value", g), ("objective", objective)):
        if not close(report[key], mine):
            problems.append(f"{instance.name}: {key} {report[key]!r} but assignment gives {mine!r}")
    sequential = instance.doc["options"].get("sweep_mode", "sequential") == "sequential"
    if solver == "iterative" and sequential and report["optimality_certificate"] is not True:
        problems.append(f"{instance.name}: sequential report lacks the optimality certificate")
    if solver == "dp" and not contiguous_in_posterior_order(instance, labels):
        problems.append(f"{instance.name}: DP cells are not contiguous in posterior order")
    return problems


def check_compare(instance, report: dict, optimum: float) -> list[str]:
    """Checks on a ``compare`` report against an optimum reached by a checked assignment."""
    if report.get("agreement") is not True:
        return [f"{instance.name}: exact solvers disagree"]
    problems = []
    ran = {r["solver"]: r["objective"] for r in report["results"] if r["applicable"]}
    for solver, value in ran.items():
        if solver != "iterative" and not close(value, optimum):
            problems.append(f"{instance.name}: {solver} optimum {value!r}, expected {optimum!r}")
    if "iterative" in ran and ran["iterative"] < optimum and not close(ran["iterative"], optimum):
        problems.append(f"{instance.name}: iterative {ran['iterative']!r} beats the optimum {optimum!r}")
    if "dp" in ran and "iterative" in ran and ran["dp"] > ran["iterative"] and not close(ran["dp"], ran["iterative"]):
        problems.append(f"{instance.name}: DP {ran['dp']!r} is worse than iterative {ran['iterative']!r}")
    return problems


def exact_optimum(report: dict) -> float:
    return min(r["objective"] for r in report["results"] if r["applicable"] and r["solver"] != "iterative")
