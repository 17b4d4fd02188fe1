"""Concave cell-impurity functions and per-cell constraint functions.

An impurity scores one output cell from its unnormalized joint column v:
the cell of weight w = sum(v) contributes w * f(v / w), where f is a concave
function on the probability simplex (Shannon entropy in bits, or the Gini
index).  A constraint scores one cell from its mass p(Z_k) alone; the three
supported kinds are none (always zero), entropy (-p * log2 p), and linear
(per-cell weight times p).

Both families expose analytic first derivatives.  Derivative evaluation
clamps its inputs away from zero at ``GRADIENT_CLAMP`` so that the entropy
gradient, which diverges at the boundary, stays finite and comparable.

The ``column_*`` functions are the vectorized kernels: they score many cells
in one call and are the only impurity code, behind the objective evaluator,
the certificate and the solvers.  They reject negative and non-finite
entries; the solvers' own columns are finite and nonnegative by construction
and go straight to the unchecked ``_column_*`` kernels behind them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NonPositiveEntryError,
    OutOfRangeError,
    _echo_repr,
)
from .probability import INVARIANT_TOL

#: Derivative inputs are clamped to at least this value before evaluation.
GRADIENT_CLAMP = 1e-12

_LOG2E = float(np.log2(np.e))

#: The smallest positive float, 2**-1074: ``_column_impurities`` clamps zeros to it.
_TINY = 5e-324

IMPURITY_KINDS = ("entropy", "gini")
CONSTRAINT_KINDS = ("none", "entropy", "linear")


@dataclass(frozen=True)
class ImpuritySpec:
    """Choice of concave cell-impurity function f."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in IMPURITY_KINDS:
            raise OutOfRangeError(f"impurity kind must be one of {IMPURITY_KINDS}, got {_echo_repr(self.kind)}")


ENTROPY = ImpuritySpec("entropy")
GINI = ImpuritySpec("gini")


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """Choice of concave per-cell constraint function g_k.

    Only the linear kind may differ across cells (one weight per cell);
    the entropy kind applies the same function to every cell.
    """

    kind: str
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in CONSTRAINT_KINDS:
            raise OutOfRangeError(
                f"constraint kind must be one of {CONSTRAINT_KINDS}, got {_echo_repr(self.kind)}"
            )
        if self.kind == "linear":
            if self.weights is None:
                raise DimensionMismatchError("linear constraint requires a weight per cell")
            w = np.array(self.weights, dtype=float)
            if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)):
                raise DimensionMismatchError("linear weights must be a finite 1-D vector")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise DimensionMismatchError(f"constraint kind {self.kind!r} takes no weights")

    @classmethod
    def none(cls) -> "ConstraintSpec":
        return cls("none")

    @classmethod
    def entropy(cls) -> "ConstraintSpec":
        return cls("entropy")

    @classmethod
    def linear(cls, weights) -> "ConstraintSpec":
        return cls("linear", weights=np.asarray(weights, dtype=float))


# ---------------------------------------------------------------------------
# Impurity of unnormalized cells
# ---------------------------------------------------------------------------


def _checked_columns(columns, error) -> np.ndarray:
    v = np.asarray(columns, dtype=float)
    if not np.all(np.isfinite(v)):
        raise OutOfRangeError("cell vector has a non-finite entry")
    # float dust in [-INVARIANT_TOL, 0) counts as exactly zero
    if np.any(v < -INVARIANT_TOL):
        raise error(f"cell vector has negative entry {float(v.min())}")
    return np.maximum(v, 0.0)


def column_impurities(spec: ImpuritySpec, columns) -> np.ndarray:
    """Impurity w * f(v / w) of each column v of an N x C matrix.

    Zero-weight columns and single-support columns score exactly zero; the
    entropy kind uses the 0 * log 0 = 0 convention.
    """
    v = _checked_columns(columns, NegativeEntryError)
    return _column_impurities(spec, v[:, None] if v.ndim == 1 else v)


def _short_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=-1)`` bit for bit: below 8 terms numpy adds left to right
    onto 0.0, as these column adds do without numpy's per-row reduction loop."""
    if not 0 < terms.shape[-1] < 8:
        return terms.sum(axis=-1)
    out = terms[..., 0] + 0.0  # 0.0 + -0.0 is 0.0, as numpy's start
    for j in range(1, terms.shape[-1]):
        out += terms[..., j]
    return out


def _column_impurities(spec: ImpuritySpec, v: np.ndarray) -> np.ndarray:
    """:func:`column_impurities` of an N x C array already known to be nonnegative.

    Zeros are clamped to the smallest subnormal ``_TINY`` instead of masked out:
    every positive entry is at least ``_TINY`` and keeps its bits, while a zero
    entry's entropy term, 0 * (log2 w + 1074), and a zero-weight column's Gini
    value, 0 - 0 / _TINY, stay zeros, if of either sign; the final ``maximum``
    turns -0.0 into 0.0.  Entropy takes one ``log2`` of the clamped entries
    stacked over their clamped sums.
    """
    if spec.kind == "entropy":
        # laid out as v, so the sum over axis 0 runs in numpy's order for v's layout
        work = np.empty((len(v) + 1, v.shape[1]), order="F" if v.strides[0] < v.strides[1] else "C")
        logv, logw = work[:-1], work[-1]
        np.add.reduce(v, axis=0, out=logw)  # np.sum without its Python wrapper
        np.maximum(v, _TINY, out=logv)
        np.maximum(logw, _TINY, out=logw)
        np.log2(work, out=work)
        np.subtract(logw, logv, out=logv)
        out = np.add.reduce(np.multiply(v, logv, out=logv), axis=0)
    else:
        w = np.add.reduce(v, axis=0)
        out = w - np.add.reduce(v * v, axis=0) / np.maximum(w, _TINY)
    # the impurity is nonnegative; clear the float dust of exact cancellations
    return np.maximum(out, 0.0, out=out)


def column_gradients(spec: ImpuritySpec, columns) -> np.ndarray:
    """Gradient of the column impurity with respect to each joint entry.

    Inputs are clamped at ``GRADIENT_CLAMP`` so the result is finite even on
    the boundary of the simplex.  For entropy the gradient is log2(w / v_n);
    for Gini it is 1 - 2 v_n / w + sum(v^2) / w^2.
    """
    v = _checked_columns(columns, NonPositiveEntryError)
    if v.ndim == 1:
        return _column_gradients(spec, v[:, None])[:, 0]
    return _column_gradients(spec, v)


def _column_gradients(spec: ImpuritySpec, columns: np.ndarray, out=None, work=None) -> np.ndarray:
    """:func:`column_gradients` of a nonnegative N x C array, into ``out`` if given.
    ``work`` is (N + 1) x C scratch (its first N rows may be ``columns``): the clamped
    columns, then their sums, so entropy takes one ``log2`` of it all."""
    work = np.empty((len(columns) + 1, columns.shape[1])) if work is None else work
    v, w = work[:-1], work[-1]
    np.maximum(columns, GRADIENT_CLAMP, out=v)
    np.add.reduce(v, axis=0, out=w)  # np.sum without its Python wrapper
    if spec.kind == "entropy":
        np.log2(work, out=work)
        return np.subtract(w, v, out=out)
    return np.add(1.0 - 2.0 * v / w, (v * v).sum(axis=0) / (w * w), out=out)


def gradient_bound(spec: ImpuritySpec, num_sources: int) -> float:
    """Bound on |column_gradients| and on the impurity of any column of at most
    unit mass: log2(N + 1 / GRADIENT_CLAMP) > log2 N for entropy; 2 for Gini."""
    if spec.kind == "entropy":
        return float(np.log2(num_sources + 1.0 / GRADIENT_CLAMP))
    return 2.0


# ---------------------------------------------------------------------------
# Constraints on cell masses
# ---------------------------------------------------------------------------


def _mass_log_mass(m: np.ndarray) -> np.ndarray:
    """m * log2(m) per entry of a nonnegative array, 0 at 0: minus the entropy constraint."""
    return m * np.log2(np.where(m > 0.0, m, 1.0))


def constraint_total(spec: ConstraintSpec, masses) -> np.ndarray | float:
    """Sum of g_k over the last axis of a (..., K) stack of mass vectors."""
    m = np.maximum(np.asarray(masses, dtype=float), 0.0)
    if spec.kind == "none":
        out = np.zeros(m.shape[:-1])
    elif spec.kind == "entropy":
        out = -_short_sum(_mass_log_mass(m))
    else:
        if m.shape[-1] != spec.weights.size:
            raise DimensionMismatchError(
                f"{m.shape[-1]} cells but {spec.weights.size} linear weights"
            )
        out = m @ spec.weights
    return float(out) if out.ndim == 0 else out


def constraint_derivatives(spec: ConstraintSpec, masses) -> np.ndarray:
    """Vector of constraint derivatives, one per cell, with clamping."""
    # np.clip's values at a third of its call cost on the two masses of a move
    m = np.minimum(np.maximum(np.asarray(masses, dtype=float), GRADIENT_CLAMP), 1.0)
    if spec.kind == "none":
        return np.zeros_like(m)
    if spec.kind == "entropy":
        return -(np.log2(m) + _LOG2E)
    if m.shape[-1] != spec.weights.size:
        raise DimensionMismatchError(f"{m.shape[-1]} cells but {spec.weights.size} linear weights")
    return np.broadcast_to(spec.weights, m.shape).copy()
