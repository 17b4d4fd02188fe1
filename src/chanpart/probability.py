"""Validated probability containers and the linear forward model.

The data flow is a three-stage pipeline: a joint source/data distribution
p(X, Y) is partitioned by a quantizer into cells Z, and the cells are then
pushed through a row-stochastic relay channel to produce the final outputs T.
Both pushes are linear maps on joint distributions:

    p(X_n, Z_k) = sum_m p(X_n, Y_m) * p(Z_k | Y_m)
    p(X_n, T_h) = sum_k p(X_n, Z_k) * A[k, h]

All containers are immutable after construction (arrays are copied and made
read-only), so they can be shared freely across threads.  Every container
refuses non-finite and materially negative entries and mass that does not
add up; one checker, ``_distribution``, decides what a valid array is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NegativeEntryError,
    OutOfRangeError,
    SumNotOneError,
    ZeroColumnError,
    _echo_repr,
)

#: Tolerance for container invariants (sums, row-stochasticity).
INVARIANT_TOL = 1e-9

#: Acceptance window for externally supplied numbers; anything whose total is
#: within this tolerance of 1 is rescaled, anything worse is rejected.  Wider
#: than INVARIANT_TOL because input files carry limited decimal precision.
INPUT_TOL = 1e-6


def _check_integer(name: str, value) -> None:
    """Refuse a count that is not an integer; numpy integers pass and a bool does not."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise OutOfRangeError(f"{name} must be an integer, got {_echo_repr(value)}")


def _count_text(value) -> str:
    """An integer as an error message shows it: past 64 bits by its size, as
    ``str`` refuses an int of over 4,300 digits."""
    bits = int(value).bit_length()
    return f"an int of {bits} bits" if bits > 64 else str(value)


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only; only for arrays no caller holds."""
    a.setflags(write=False)
    return a


def _distribution(raw, what: str, tol: float, rows: bool, min_rows: int = 1) -> np.ndarray:
    """Checked probability array: 2-D of at least ``min_rows`` rows and one
    column, finite, no entry below ``-INVARIANT_TOL`` (float dust is clipped
    to 0), and each row (``rows``) or else the total within ``tol`` of 1.
    Every container and validator checks here, in that order.  The result is
    a new array that the caller owns."""
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] < min_rows or a.shape[1] < 1:
        raise DimensionMismatchError(f"{what} needs a 2-D shape of at least ({min_rows}, 1), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise OutOfRangeError(f"{what} has a non-finite entry")
    if np.any(a < -INVARIANT_TOL):
        raise NegativeEntryError(f"{what} has negative entry {float(a.min())}")
    a = np.maximum(a, 0.0)
    # a sum past the float range reads inf and is refused below
    with np.errstate(over="ignore"):
        sums = a.sum(axis=1 if rows else None, keepdims=True).ravel()
    bad = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[bad] - 1.0) > tol:
        name = f"{what} row {bad}" if rows else what
        raise SumNotOneError(f"{name} sums to {float(sums[bad])!r}, expected 1 within {tol}")
    return a


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint pmf p(X, Y) of the source X (rows) and the data Y (columns).

    Invariants enforced at construction: all entries nonnegative, total mass
    one within ``INVARIANT_TOL``, and every column mass strictly positive
    (a data symbol that never occurs has no posterior).
    """

    entries: np.ndarray  # shape (N, M)

    def __post_init__(self) -> None:
        a = _distribution(self.entries, "joint distribution", INVARIANT_TOL, rows=False, min_rows=2)
        object.__setattr__(self, "entries", _symbol_entries(a))

    @property
    def num_sources(self) -> int:
        return self.entries.shape[0]

    @property
    def num_symbols(self) -> int:
        return self.entries.shape[1]

    @property
    def source_marginal(self) -> np.ndarray:
        """Marginal pmf of X (row sums)."""
        return self.entries.sum(axis=1)

    @property
    def symbol_marginal(self) -> np.ndarray:
        """Marginal pmf of Y (column sums); strictly positive by invariant."""
        return self.entries.sum(axis=0)


def _symbol_entries(a: np.ndarray) -> np.ndarray:
    """Checked joint entries ``a``, made read-only, refusing a data symbol of zero mass."""
    col = a.sum(axis=0)
    if np.any(col <= 0.0):
        dead = int(np.argmin(col))
        raise ZeroColumnError(f"data symbol {dead} has zero probability")
    return _readonly(a)


def validate_joint(raw) -> JointDistribution:
    """Validate and normalize an externally supplied joint matrix.

    The total is rescaled to exactly one when it deviates by at most
    ``INPUT_TOL``; larger deviations raise ``SumNotOneError``.  Negative
    entries and all-zero columns are rejected.  The entries are checked and
    copied once: rescaling a valid array by a total within ``INPUT_TOL`` of
    1 keeps every container invariant but the positive symbol masses, which
    are checked after it.
    """
    a = _distribution(raw, "joint distribution", INPUT_TOL, rows=False, min_rows=2)
    a /= float(a.sum())
    joint = object.__new__(JointDistribution)
    object.__setattr__(joint, "entries", _symbol_entries(a))
    return joint


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Row-stochastic relay channel: entry [k, h] is p(T_h | Z_k)."""

    entries: np.ndarray  # shape (K, H)

    def __post_init__(self) -> None:
        a = _distribution(self.entries, "channel matrix", INVARIANT_TOL, rows=True)
        object.__setattr__(self, "entries", _readonly(a))

    @classmethod
    def identity(cls, num_inputs: int) -> "ChannelMatrix":
        """Noiseless channel: T is a copy of Z."""
        return cls(np.eye(num_inputs))

    @property
    def num_inputs(self) -> int:
        return self.entries.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def is_identity(self) -> bool:
        k, h = self.entries.shape
        return k == h and bool(np.array_equal(self.entries, np.eye(k)))


def validate_channel(raw) -> ChannelMatrix:
    """Validate an externally supplied channel, renormalizing rows within INPUT_TOL."""
    a = _distribution(raw, "channel matrix", INPUT_TOL, rows=True)
    return ChannelMatrix(a / a.sum(axis=1)[:, None])


@dataclass(frozen=True, eq=False)
class Quantizer:
    """Assignment of data symbols to cells, either hard or soft.

    A hard quantizer stores one 0-based cell label per data symbol; a soft
    quantizer stores a row-stochastic membership matrix p(Z_k | Y_m).  A hard
    quantizer is exactly representable as a 0/1 soft one via
    :meth:`membership_matrix`.
    """

    kind: str  # "hard" | "soft"
    num_cells: int
    hard_assignment: np.ndarray | None = None  # shape (M,), int
    soft_assignment: np.ndarray | None = None  # shape (M, K)

    def __post_init__(self) -> None:
        if self.kind not in ("hard", "soft"):
            raise OutOfRangeError(f"quantizer kind must be 'hard' or 'soft', got {_echo_repr(self.kind)}")
        _check_integer("num_cells", self.num_cells)
        if self.num_cells < 1:
            raise DimensionMismatchError(f"num_cells must be >= 1, got {_count_text(self.num_cells)}")
        if self.kind == "hard":
            if self.hard_assignment is None or self.soft_assignment is not None:
                raise DimensionMismatchError("hard quantizer requires hard_assignment only")
            a = np.asarray(self.hard_assignment)
            if a.ndim != 1 or a.size < 1:
                raise DimensionMismatchError("hard_assignment must be a nonempty vector")
            # bool, str, object and complex arrays are refused even where numpy
            # could cast them to labels
            if a.dtype.kind == "f":
                integral = bool(np.all(np.isfinite(a) & (a == np.floor(a))))
            else:
                integral = a.dtype.kind in "iu"
            if not integral:
                raise IndexOutOfRangeError("hard_assignment must hold integer cell labels")
            # checked before the cast, which would wrap a label past the int64 range
            if a.min() < 0 or a.max() >= self.num_cells:
                raise IndexOutOfRangeError(
                    f"cell labels must lie in [0, {self.num_cells}), got range "
                    f"[{int(a.min())}, {int(a.max())}]"
                )
            a = a.astype(np.int64, copy=True)
            a.setflags(write=False)
            object.__setattr__(self, "hard_assignment", a)
        else:
            if self.soft_assignment is None or self.hard_assignment is not None:
                raise DimensionMismatchError("soft quantizer requires soft_assignment only")
            s = np.asarray(self.soft_assignment, dtype=float)
            if s.ndim == 2 and s.shape[1] != self.num_cells:
                raise DimensionMismatchError(
                    f"soft_assignment has {s.shape[1]} columns, expected {self.num_cells}"
                )
            s = _distribution(s, "soft assignment", INVARIANT_TOL, rows=True)
            object.__setattr__(self, "soft_assignment", _readonly(s))

    @classmethod
    def hard(cls, assignment, num_cells: int) -> "Quantizer":
        return cls(kind="hard", num_cells=num_cells, hard_assignment=np.asarray(assignment))

    @classmethod
    def soft(cls, membership) -> "Quantizer":
        m = _distribution(membership, "soft assignment", INVARIANT_TOL, rows=True)
        return cls(kind="soft", num_cells=m.shape[1], soft_assignment=m)

    @property
    def num_points(self) -> int:
        if self.kind == "hard":
            return self.hard_assignment.shape[0]
        return self.soft_assignment.shape[0]

    def membership_matrix(self) -> np.ndarray:
        """Soft view of the quantizer: M x K row-stochastic matrix."""
        if self.kind == "soft":
            return self.soft_assignment
        return np.eye(self.num_cells)[self.hard_assignment]


@dataclass(frozen=True, eq=False)
class ClusterJoints:
    """Per-cell joint pmf p(X, Z); its column sums are the cell masses p(Z)."""

    entries: np.ndarray  # shape (N, K)

    def __post_init__(self) -> None:
        a = _distribution(self.entries, "cluster joint matrix", INVARIANT_TOL, rows=False)
        object.__setattr__(self, "entries", _readonly(a))

    @property
    def num_cells(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def cluster_mass(self) -> np.ndarray:
        return _readonly(self.entries.sum(axis=0))


@dataclass(frozen=True, eq=False)
class OutputJoints:
    """Joint pmf p(X, T) at the far end of the relay channel."""

    entries: np.ndarray  # shape (N, H)

    def __post_init__(self) -> None:
        a = _distribution(self.entries, "output joint matrix", INVARIANT_TOL, rows=False)
        object.__setattr__(self, "entries", _readonly(a))

    @property
    def num_outputs(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def output_mass(self) -> np.ndarray:
        return _readonly(self.entries.sum(axis=0))


def posteriors(joint: JointDistribution) -> np.ndarray:
    """Posterior source distributions p(X | Y_m), one column per data symbol."""
    return joint.entries / joint.symbol_marginal[None, :]


def cell_joints(entries: np.ndarray, labels: np.ndarray, num_cells: int) -> np.ndarray:
    """N x ... x K cell joints p(X_n, Z_k) of the N x M ``entries`` under trusted hard
    labels in [0, num_cells): an M-vector, or label rows ... x M, one labelling each.
    A cell sums its symbols in ascending order, so a candidate has the same bits in a
    block as alone.  C rows are one labelling of C copies of the symbols into C * K
    cells, tiled one source row at a time (a single labelling tiles nothing): fewer
    than 2**14 label entries keep every temporary below 128 KiB."""
    lead = labels.shape[:-1]
    copies = math.prod(lead)
    flat = labels.reshape(-1)
    if copies != 1:  # copy c of the symbols falls in cells c * K to c * K + K - 1
        flat = (labels + num_cells * np.arange(copies).reshape(*lead, 1)).reshape(-1)
    out = np.empty((len(entries), copies * num_cells))
    for n, row in enumerate(entries):
        out[n] = np.bincount(flat, row if copies == 1 else np.tile(row, copies), copies * num_cells)
    return out.reshape(len(entries), *lead, num_cells)


def _subset_table(heads: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The N x P x K cells of P ``heads`` plus every subset of the N x S ``columns``.

    Column b * K + d of head p's N x 2^S K slice of the N x P x 2^S K result is
    its cell d plus the columns in bitmask b (bit j: column j), added in
    ascending order as ``cell_joints`` adds a cell's symbols.
    """
    (n, p, k), s = heads.shape, columns.shape[1]
    table = np.empty((n, p, 2**s, k))
    table[:, :, 0] = heads
    for j in range(s):  # the subsets with bit j add column j to those without
        np.add(table[:, :, : 2**j], columns[:, j, None, None, None], out=table[:, :, 2**j : 2 ** (j + 1)])
    return table.reshape(n, p, -1)


def _subset_slots(k: int, low: int) -> np.ndarray:
    """C x K subset-table columns of the C = K^low labellings of ``low`` symbols,
    in lexicographic order: cell d of labelling c is column ``slot[c, d]``.
    Each symbol j gives every labelling K children, child d adding bit j to
    the bitmask of cell d."""
    slot = np.arange(k)[None]
    for j in range(low):
        slot = (slot[:, None] + 2**j * k * np.eye(k, dtype=np.int64)).reshape(-1, k)
    return slot


def push_to_clusters(joint: JointDistribution, quantizer: Quantizer) -> ClusterJoints:
    """Aggregate the joint over the quantizer cells: p(X_n, Z_k).

    Empty cells are legal and yield all-zero columns.
    """
    if quantizer.num_points != joint.num_symbols:
        raise DimensionMismatchError(
            f"quantizer covers {quantizer.num_points} symbols, joint has {joint.num_symbols}"
        )
    if quantizer.kind == "hard":
        entries = cell_joints(joint.entries, quantizer.hard_assignment, quantizer.num_cells)
    else:
        entries = joint.entries @ quantizer.soft_assignment
    return ClusterJoints(entries)


def push_through_channel(clusters: ClusterJoints, channel: ChannelMatrix) -> OutputJoints:
    """Mix the cell joints through the relay channel: p(X_n, T_h)."""
    if clusters.num_cells != channel.num_inputs:
        raise DimensionMismatchError(
            f"clusters have {clusters.num_cells} cells, channel expects {channel.num_inputs}"
        )
    entries = clusters.entries @ channel.entries
    return OutputJoints(entries)
