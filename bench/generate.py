"""Seeded problem files for the benchmark workloads.

Every joint p(X, Y) is a smoothed empirical histogram, the way users
estimate it: about 20 samples per data bin are drawn from equiprobable PAM
symbols sent through AWGN with a per-instance noise level, binned into M
uniform bins, and every count is raised by one.  Sparse tail bins end up
with identical count vectors and hence exactly tied posteriors.

``build(workload, seed)`` returns the workload's instance pool; each
instance carries the problem's numbers (for the independent output checks)
and is written as a format-1 problem file by ``write``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLES_PER_BIN = 20

#: Workload name -> one-line reason it is in the benchmark.
WHY = {
    "seq-relay": "MI quantisation through a noisy relay with the default sequential solver: "
    "per-move refresh and thousands of tiny impurity-kernel calls",
    "batch-large": "M=1e5 batch sweep: blocked GEMM+argmin and bincount rebuilds, "
    "and the only workload where CLI JSON parse and dump matter",
    "compare-desk": "the prove-it-optimal path: bruteforce, thresholds, DP and iterative on "
    "wide impurity arrays, the only use of Gini and linear weights",
}

COMPARE_SIZES = ((2, 16), (3, 11), (4, 9))  # (K, M); at most 2^18 assignments
COMPARE_COMBOS = tuple(
    (impurity, constraint, channel)
    for impurity in ("entropy", "gini")
    for constraint in ("none", "entropy", "linear")
    for channel in ("identity", "noisy")
)


@dataclass(frozen=True, eq=False)
class Instance:
    """One problem file plus the command that runs it."""

    name: str
    joint: np.ndarray  # N x M
    channel: np.ndarray  # K x H; the identity when the file names no channel
    doc: dict  # every other key of the format-1 problem document
    argv: tuple[str, ...]  # CLI arguments after the file name


def pam_histogram(rng: np.random.Generator, num_sources: int, num_bins: int, sigma: float) -> np.ndarray:
    """Smoothed (+1) joint histogram of PAM symbols through AWGN."""
    levels = 2.0 * np.arange(num_sources) - (num_sources - 1)
    samples = SAMPLES_PER_BIN * num_bins
    x = rng.integers(0, num_sources, size=samples)
    y = levels[x] + sigma * rng.standard_normal(samples)
    edge = levels[-1] + 3.0 * sigma
    bins = np.clip(((y + edge) * (num_bins / (2.0 * edge))).astype(np.int64), 0, num_bins - 1)
    counts = np.bincount(x * num_bins + bins, minlength=num_sources * num_bins)
    counts = counts.reshape(num_sources, num_bins) + 1.0
    return counts / counts.sum()


def symmetric_channel(num_cells: int, eps: float) -> np.ndarray:
    """K x K relay keeping a cell with probability 1 - eps, else uniform elsewhere."""
    a = np.full((num_cells, num_cells), eps / (num_cells - 1))
    np.fill_diagonal(a, 1.0 - eps)
    return a


def _problem(name, joint, num_cells, argv, *, channel=None, beta=1.0, impurity="entropy",
             constraint="none", options=None) -> Instance:
    doc = {
        "format": 1,
        "num_cells": num_cells,
        "beta": beta,
        "impurity": impurity,
        "constraint": constraint,
        "solver": "iterative",
        "options": options or {},
    }
    if channel is not None:
        doc["channel"] = channel.tolist()
    else:
        channel = np.eye(num_cells)
    return Instance(name, joint, channel, doc, argv)


def _relay_pool(rng, prefix, count, num_bins, options):
    pool = []
    for i in range(count):
        joint = pam_histogram(rng, 4, num_bins, sigma=rng.uniform(0.58, 0.62))
        opts = dict(options, seed=int(rng.integers(0, 2**31)))
        pool.append(_problem(f"{prefix}{i}", joint, 8, ("solve",),
                             channel=symmetric_channel(8, 0.05), options=opts))
    return pool


def _compare_pool(rng):
    # successive commands cycle through all 12 combinations, and the size changes every command
    pool = []
    for j in range(len(COMPARE_SIZES) * len(COMPARE_COMBOS)):
        k, m = COMPARE_SIZES[(j + j // len(COMPARE_COMBOS)) % len(COMPARE_SIZES)]
        impurity, constraint, channel = COMPARE_COMBOS[j % len(COMPARE_COMBOS)]
        joint = pam_histogram(rng, 2, m, sigma=rng.uniform(0.95, 1.05))
        if constraint == "linear":
            constraint = {"kind": "linear", "weights": rng.uniform(0.0, 0.3, k).tolist()}
        pool.append(_problem(
            f"cmp{j}", joint, k, ("compare",),
            channel=symmetric_channel(k, 0.1) if channel == "noisy" else None,
            beta=4.0, impurity=impurity, constraint=constraint,
            options={"seed": int(rng.integers(0, 2**31)), "restarts": 4},
        ))
    return pool


def build(workload: str, seed: int) -> list[Instance]:
    """The instance pool of one workload; the same seed gives the same pool."""
    rng = np.random.default_rng([seed, list(WHY).index(workload)])
    if workload == "seq-relay":
        return _relay_pool(rng, "seq", 16, 2000, {"restarts": 2})
    if workload == "batch-large":
        return _relay_pool(rng, "batch", 8, 100_000, {"restarts": 1, "sweep_mode": "batch"})
    if workload == "compare-desk":
        return _compare_pool(rng)
    raise ValueError(f"unknown workload {workload!r}")


def side_instance(seed: int) -> Instance:
    """Small binary identity-channel instance for the DP-versus-iterative check."""
    rng = np.random.default_rng([seed, len(WHY)])
    joint = pam_histogram(rng, 2, 300, sigma=rng.uniform(0.95, 1.05))
    return _problem("side", joint, 4, ("solve",),
                    options={"seed": int(rng.integers(0, 2**31)), "restarts": 2})


def write(instance: Instance, directory: Path) -> Path:
    """Write the problem file; its numbers parse back to exactly ``instance.joint``."""
    # a histogram has few distinct values, so each is formatted once
    values, inverse = np.unique(instance.joint, return_inverse=True)
    text = [repr(float(v)) for v in values]
    cells = [text[i] for i in inverse.ravel().tolist()]
    m = instance.joint.shape[1]
    rows = ",".join("[" + ",".join(cells[r * m:(r + 1) * m]) + "]" for r in range(instance.joint.shape[0]))
    head = json.dumps(instance.doc)
    path = directory / f"{instance.name}.json"
    path.write_text(f'{head[:-1]}, "joint_xy": [{rows}]}}', encoding="utf-8")
    return path
