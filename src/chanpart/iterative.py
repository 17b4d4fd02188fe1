"""Local search: alternate statistics updates with nearest-distance moves.

Each sweep visits every data symbol and moves it to the cell of minimal
scaled distance (ties go to the lowest cell index).  In sequential mode the
cluster statistics are refreshed after every single move, which makes the
objective non-increasing move by move; in batch mode the whole sweep reuses
one set of statistics, which is faster but carries no monotonicity
guarantee, so it runs behind a cycle guard that keeps the best partition
seen.  Restarts draw independent random initial assignments and the best
restart wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IndexOutOfRangeError, OutOfRangeError
from .impurity import column_gradients, constraint_derivatives
# CERTIFICATE_TOL and SolveReport are also imported from this module by callers
from .objective import CERTIFICATE_TOL, ProblemSpec, SolveReport, certified_report, score_cells
from .probability import Quantizer, cell_joints, posteriors

SWEEP_MODES = ("sequential", "batch")
INIT_MODES = ("random", "provided")


@dataclass(frozen=True, eq=False)
class SolverOptions:
    """Knobs for :func:`solve_iterative`.

    ``init="provided"`` runs a single pass from ``initial_assignment``
    instead of ``restarts`` random starts.  ``reseed_empty`` moves the point
    farthest from its own cell into an empty cell whenever a sweep converges
    with empty cells left (at most once per cell per restart); the forced
    move may raise the objective, so it is off by default.
    """

    max_iterations: int = 500
    restarts: int = 10
    seed: int = 0
    init: str = "random"
    initial_assignment: np.ndarray | None = None
    sweep_mode: str = "sequential"
    tolerance: float = 1e-12
    reseed_empty: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise OutOfRangeError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.restarts < 1:
            raise OutOfRangeError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise OutOfRangeError(f"seed must be nonnegative, got {self.seed}")
        if self.tolerance < 0.0:
            raise OutOfRangeError(f"tolerance must be nonnegative, got {self.tolerance}")
        if self.sweep_mode not in SWEEP_MODES:
            raise OutOfRangeError(f"sweep_mode must be one of {SWEEP_MODES}, got {self.sweep_mode!r}")
        if self.init not in INIT_MODES:
            raise OutOfRangeError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        if (self.init == "provided") != (self.initial_assignment is not None):
            raise OutOfRangeError("initial_assignment must be given exactly when init='provided'")
        if self.initial_assignment is not None:
            a = np.asarray(self.initial_assignment, dtype=np.int64).copy()
            a.setflags(write=False)
            object.__setattr__(self, "initial_assignment", a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolverOptions):
            return NotImplemented
        if (self.initial_assignment is None) != (other.initial_assignment is None):
            return False
        if self.initial_assignment is not None and not np.array_equal(
            self.initial_assignment, other.initial_assignment
        ):
            return False
        mine = (self.max_iterations, self.restarts, self.seed, self.init,
                self.sweep_mode, self.tolerance, self.reseed_empty)
        theirs = (other.max_iterations, other.restarts, other.seed, other.init,
                  other.sweep_mode, other.tolerance, other.reseed_empty)
        return mine == theirs


class _SweepEngine:
    """Mutable per-restart statistics.

    Cluster joints are updated incrementally between moves (one column
    subtracted, one added); everything downstream is recomputed from the
    joints after every move, so the numbers match a from-scratch evaluation
    up to the float dust of the column updates.  ``rebuild`` re-aggregates
    the joints exactly and is called at every sweep boundary to keep that
    dust from accumulating.
    """

    #: Column block size for batch sweeps; keeps temporaries cache- and
    #: allocator-friendly at large M.  Blocks of 16384 columns push the GEMMs
    #: past OpenBLAS's multithreading size threshold, and threaded GEMM on a
    #: two-core host falls into a mode about five times slower.
    BLOCK = 4096

    def __init__(self, spec: ProblemSpec, assignment: np.ndarray) -> None:
        self.spec = spec
        self.assignment = np.array(assignment, dtype=np.int64)
        if self.assignment.shape != (spec.num_symbols,):
            raise DimensionMismatchError(
                f"assignment shape {self.assignment.shape} does not cover "
                f"{spec.num_symbols} symbols"
            )
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= spec.num_cells
        ):
            raise IndexOutOfRangeError("assignment labels out of range")
        self.joint = spec.joint.entries
        self.symbol_mass = spec.joint.symbol_marginal
        self.channel = spec.channel.entries
        self._posteriors: np.ndarray | None = None
        self.rebuild()

    @property
    def posteriors(self) -> np.ndarray:
        if self._posteriors is None:
            self._posteriors = posteriors(self.spec.joint)
        return self._posteriors

    def rebuild(self) -> None:
        self.clusters = cell_joints(self.spec.joint, self.assignment, self.spec.num_cells)
        self.mass = self.clusters.sum(axis=0)
        self._refresh()

    def _refresh(self) -> None:
        outputs, self.F_value, self.G_value, self.objective = score_cells(
            self.spec, self.clusters, self.mass
        )
        self.gradients = column_gradients(self.spec.impurity, outputs)
        self.derivs = constraint_derivatives(self.spec.constraint, self.mass)

    def move(self, m: int, target: int) -> None:
        source = int(self.assignment[m])
        u = self.joint[:, m]
        pm = self.symbol_mass[m]
        self.clusters[:, source] -= u
        self.clusters[:, target] += u
        np.maximum(self.clusters[:, source], 0.0, out=self.clusters[:, source])
        self.mass[source] = max(self.mass[source] - pm, 0.0)
        self.mass[target] += pm
        self.assignment[m] = target
        self._refresh()

    def distance_row(self, m: int) -> np.ndarray:
        s = self.gradients.T @ self.posteriors[:, m]
        return self.spec.beta * (self.channel @ s) + self.derivs

    def distance_all(self) -> np.ndarray:
        out = self.channel @ (self.gradients.T @ self.posteriors)
        out *= self.spec.beta
        out += self.derivs[:, None]
        return out

    def sweep_sequential(self) -> int:
        changed = 0
        for m in range(self.assignment.size):
            nearest = int(np.argmin(self.distance_row(m)))
            if nearest != self.assignment[m]:
                self.move(m, nearest)
                changed += 1
        return changed

    def nearest_cells(self) -> np.ndarray:
        """Scaled-distance argmin per symbol, computed in column blocks."""
        total = self.assignment.size
        nearest = np.empty(total, dtype=np.int64)
        grads_t = np.ascontiguousarray(self.gradients.T)
        for start in range(0, total, self.BLOCK):
            block = slice(start, min(start + self.BLOCK, total))
            dist = self.channel @ (grads_t @ self.posteriors[:, block])
            dist *= self.spec.beta
            dist += self.derivs[:, None]
            nearest[block] = dist.argmin(axis=0)
        return nearest

    def sweep_batch(self) -> int:
        """Move every symbol at once; the statistics are stale until ``rebuild``."""
        nearest = self.nearest_cells()
        changed = int(np.count_nonzero(nearest != self.assignment))
        self.assignment = nearest
        return changed

    def reseed_empty_cells(self, already_reseeded: set[int]) -> bool:
        """Force one point into each empty cell not reseeded before."""
        k = self.spec.num_cells
        counts = np.bincount(self.assignment, minlength=k)
        moved = False
        for cell in range(k):
            if counts[cell] != 0 or cell in already_reseeded:
                continue
            donors = counts[self.assignment] >= 2
            if not np.any(donors):
                break
            dist = self.distance_all()
            own = dist[self.assignment, np.arange(self.assignment.size)]
            own = np.where(donors, own, -np.inf)
            point = int(np.argmax(own))
            counts[self.assignment[point]] -= 1
            counts[cell] += 1
            self.move(point, cell)
            already_reseeded.add(cell)
            moved = True
        return moved


def reassign_sweep(spec: ProblemSpec, assignment, mode: str = "sequential"):
    """Run one full reassignment sweep and return (new_assignment, changed).

    ``assignment`` may be a hard :class:`Quantizer` or a plain label vector.
    Sequential mode refreshes the statistics after every single move; batch
    mode computes all distances once and moves every symbol simultaneously.
    """
    if mode not in SWEEP_MODES:
        raise OutOfRangeError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")
    if isinstance(assignment, Quantizer):
        if assignment.kind != "hard":
            raise OutOfRangeError("reassignment sweeps operate on hard quantizers")
        assignment = assignment.hard_assignment
    engine = _SweepEngine(spec, np.asarray(assignment))
    changed = engine.sweep_sequential() if mode == "sequential" else engine.sweep_batch()
    return engine.assignment.copy(), changed


def _random_assignment(rng: np.random.Generator, num_symbols: int, num_cells: int) -> np.ndarray:
    # reject degenerate all-in-one-cell draws when a real choice exists
    while True:
        a = rng.integers(0, num_cells, size=num_symbols).astype(np.int64)
        if num_cells == 1 or num_symbols == 1 or np.unique(a).size > 1:
            return a


def _run_restart(spec: ProblemSpec, start: np.ndarray, opts: SolverOptions):
    """One restart; returns (sweeps, trace, assignment, objective)."""
    engine = _SweepEngine(spec, start)
    trace = [engine.objective]
    if spec.num_cells == 1:
        return 0, trace, engine.assignment.copy(), engine.objective

    sequential = opts.sweep_mode == "sequential"
    best_obj = engine.objective
    best_assignment = engine.assignment.copy()
    reseeded: set[int] = set()
    sweeps = 0
    while sweeps < opts.max_iterations:
        sweeps += 1
        changed = engine.sweep_sequential() if sequential else engine.sweep_batch()
        engine.rebuild()
        trace.append(engine.objective)
        if engine.objective < best_obj:
            best_obj = engine.objective
            best_assignment = engine.assignment.copy()
        if not sequential and engine.objective > trace[-2] + opts.tolerance:
            # batch updates can cycle; stop and keep the best partition seen
            trace.append(best_obj)
            break
        if changed == 0:
            if opts.reseed_empty and engine.reseed_empty_cells(reseeded):
                trace.append(engine.objective)
                continue
            break

    if sequential:
        return sweeps, trace, engine.assignment.copy(), engine.objective
    return sweeps, trace, best_assignment, best_obj


def solve_iterative(spec: ProblemSpec, options: SolverOptions | None = None) -> SolveReport:
    """Best locally optimal partition over independent restarts.

    Within a restart, statistics updates alternate with nearest-distance
    reassignment until a sweep changes nothing or ``max_iterations`` is hit.
    The restart with the smallest final objective wins (ties keep the
    earliest restart).  Identical spec and options give a bit-identical
    report.
    """
    opts = options or SolverOptions()
    if opts.initial_assignment is not None:
        starts = [opts.initial_assignment]
    else:
        children = np.random.SeedSequence(opts.seed).spawn(opts.restarts)
        starts = [
            _random_assignment(np.random.default_rng(child), spec.num_symbols, spec.num_cells)
            for child in children
        ]

    iterations: list[int] = []
    best = None  # (objective, assignment, trace)
    for start in starts:
        sweeps, trace, assignment, obj = _run_restart(spec, start, opts)
        iterations.append(sweeps)
        if best is None or obj < best[0]:
            best = (obj, assignment, trace)

    return certified_report(
        spec, best[1], "iterative", tuple(iterations), tuple(float(x) for x in best[2])
    )
