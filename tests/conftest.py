"""Shared fixtures: the documented 4-point instance and random instance suites."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from chanpart import (
    ChannelMatrix,
    ConstraintSpec,
    ImpuritySpec,
    ProblemSpec,
    validate_joint,
)
from chanpart.impurity import column_impurities

#: The worked 4-point example used throughout the unit tests: uniform p_Y,
#: posteriors (0.8, 0.6, 0.2, 0.4), optimum partition {Y1, Y2} | {Y3, Y4}.
E1_JOINT = [[0.20, 0.15, 0.05, 0.10], [0.05, 0.10, 0.20, 0.15]]

BETA_CHOICES = (0.1, 1.0, 10.0)
IMPURITY_CHOICES = ("entropy", "gini")
CONSTRAINT_CHOICES = ("none", "entropy", "linear")


def make_e1_spec(
    impurity: str = "entropy",
    constraint: str = "none",
    beta: float = 1.0,
    channel=None,
    num_cells: int = 2,
) -> ProblemSpec:
    joint = validate_joint(E1_JOINT)
    if channel is None:
        channel = ChannelMatrix.identity(num_cells)
    if constraint == "linear":
        cons = ConstraintSpec.linear(np.arange(1, num_cells + 1, dtype=float))
    else:
        cons = ConstraintSpec(constraint)
    return ProblemSpec(
        joint=joint,
        channel=channel,
        num_cells=num_cells,
        impurity=ImpuritySpec(impurity),
        constraint=cons,
        beta=beta,
    )


@pytest.fixture
def e1_spec() -> ProblemSpec:
    return make_e1_spec()


def random_instance(
    rng: np.random.Generator,
    *,
    binary: bool | None = None,
    identity: bool | None = None,
    impurity: str | None = None,
    constraint: str | None = None,
    beta: float | None = None,
    num_symbols: int | None = None,
    num_cells: int | None = None,
) -> ProblemSpec:
    """One random instance in the desk-scale parameter box.

    Entries are bounded away from zero so posteriors and gradients stay
    interior.  Half the instances use the identity channel (so the DP solver
    has a domain to run on) unless ``identity`` pins the choice.
    """
    if binary is None:
        n = int(rng.integers(2, 4))
    else:
        n = 2 if binary else 3
    m = int(rng.integers(3, 9)) if num_symbols is None else num_symbols
    k = int(rng.integers(1, 4)) if num_cells is None else num_cells
    if identity is None:
        identity = bool(rng.random() < 0.5)
    if identity:
        channel = ChannelMatrix.identity(k)
    else:
        h = int(rng.integers(1, 4))
        raw = rng.random((k, h)) + 0.05
        channel = ChannelMatrix(raw / raw.sum(axis=1, keepdims=True))
    raw = rng.random((n, m)) + 0.05
    joint = validate_joint(raw / raw.sum())
    kind = impurity if impurity is not None else IMPURITY_CHOICES[int(rng.integers(2))]
    ckind = constraint if constraint is not None else CONSTRAINT_CHOICES[int(rng.integers(3))]
    if ckind == "linear":
        cons = ConstraintSpec.linear(rng.uniform(0.0, 2.0, size=k))
    else:
        cons = ConstraintSpec(ckind)
    b = beta if beta is not None else float(BETA_CHOICES[int(rng.integers(3))])
    return ProblemSpec(
        joint=joint,
        channel=channel,
        num_cells=k,
        impurity=ImpuritySpec(kind),
        constraint=cons,
        beta=b,
    )


@functools.lru_cache(maxsize=4)
def instance_suite(seed: int = 715, count: int = 216) -> tuple[ProblemSpec, ...]:
    """Deterministic suite sweeping beta, impurity, and constraint choices."""
    rng = np.random.default_rng(seed)
    out = []
    per_combo = count // (len(BETA_CHOICES) * len(IMPURITY_CHOICES) * len(CONSTRAINT_CHOICES))
    for beta in BETA_CHOICES:
        for impurity in IMPURITY_CHOICES:
            for constraint in CONSTRAINT_CHOICES:
                for _ in range(max(per_combo, 1)):
                    out.append(
                        random_instance(rng, impurity=impurity, constraint=constraint, beta=beta)
                    )
    return tuple(out)


def tied_spec(num_symbols: int, num_cells: int) -> ProblemSpec:
    """Uniform posteriors on an identity relay: every partition has the same objective."""
    joint = validate_joint([[1.0 / (2 * num_symbols)] * num_symbols] * 2)
    return ProblemSpec(
        joint=joint,
        channel=ChannelMatrix.identity(num_cells),
        num_cells=num_cells,
        impurity=ImpuritySpec("entropy"),
        constraint=ConstraintSpec.none(),
    )


def pam_joint(rng: np.random.Generator, num_sources: int, num_bins: int) -> np.ndarray:
    """Smoothed (+1) histogram of PAM levels through unit-variance noise, 20 samples
    per bin; the sparse tail bins share count vectors, so their posteriors tie exactly."""
    levels = 2.0 * np.arange(num_sources) - (num_sources - 1)
    x = rng.integers(0, num_sources, size=20 * num_bins)
    y = levels[x] + rng.standard_normal(x.size)
    edge = levels[-1] + 3.0
    bins = np.clip(((y + edge) * (num_bins / (2.0 * edge))).astype(np.int64), 0, num_bins - 1)
    counts = np.bincount(x * num_bins + bins, minlength=num_sources * num_bins) + 1.0
    return counts.reshape(num_sources, num_bins) / counts.sum()


def random_hard_labels(rng: np.random.Generator, spec: ProblemSpec) -> np.ndarray:
    return rng.integers(0, spec.num_cells, size=spec.num_symbols).astype(np.int64)


def partition_sets(labels) -> frozenset[frozenset[int]]:
    """Label-free view of a hard assignment, for comparing partitions."""
    labels = np.asarray(labels)
    cells = []
    for cell in np.unique(labels):
        cells.append(frozenset(np.nonzero(labels == cell)[0].tolist()))
    return frozenset(cells)


def binary_entropy(p: float) -> float:
    """Independent oracle for two-symbol entropies, in bits."""
    if p in (0.0, 1.0):
        return 0.0
    return float(-(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p)))


def impurities(spec: ImpuritySpec, *columns) -> np.ndarray:
    """Impurity of each given cell vector, scored as the columns of one kernel call."""
    return column_impurities(spec, np.stack(columns, axis=1))
