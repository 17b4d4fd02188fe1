"""Local search: alternate statistics updates with nearest-distance moves.

Each sweep visits every data symbol and moves it to the cell of minimal
scaled distance (ties go to the lowest cell index).  In sequential mode the
cluster statistics are refreshed after every single move, which makes the
objective non-increasing move by move; in batch mode the whole sweep reuses
one set of statistics, which is faster but carries no monotonicity
guarantee.  Both modes end a restart on a sweep that moves nothing or gains
at most ``CONVERGENCE_TOL``, and a batch restart returns the best partition
it saw.  Each restart draws its random start from its index where it runs,
and the best restart wins.

The sequential sweep is exact yet scans symbols in blocks: the statistics
change only when a symbol moves, so between two moves every symbol's
distances can be computed in one block, and the block's decisions up to
its first move are the ones a symbol-by-symbol visit makes.  A move
refreshes the statistics in place, in the layout the distance product reads.

A symbol's scaled distances depend only on its posterior column p(X|Y_m),
so the batch sweep computes them once per distinct posterior and hands
each symbol the nearest cell of its bit-identical representative.  The
distinct columns are found once per solve.  When no two columns are equal
(or their keys collide) the sweep reads the raw columns.
Assignments, cell joints, restarts and the certificate stay on the M
symbols.  The sequential sweep cannot merge symbols: the statistics change
after every move, so a merged visit would change the visit order.
"""

from __future__ import annotations

import os
import pickle  # numpy imports it already
import sys
import threading
import warnings
from contextlib import closing
from dataclasses import dataclass
from functools import reduce
from itertools import islice, zip_longest

import numpy as np

from .errors import DimensionMismatchError, OutOfRangeError, _echo_repr
from .impurity import _column_gradients, constraint_derivatives
# SolveReport is also imported from this module by callers
from .objective import ProblemSpec, SolveReport, _check_fits, _distances, certified_report, score_cells
from .probability import Quantizer, _check_integer, _count_text, cell_joints, posteriors

SWEEP_MODES = ("sequential", "batch")

#: Ends restarts in both modes.  A sweep whose objective drop is at most this
#: counts as converged, exactly like a sweep that moves nothing: it only
#: shuffles symbols between tied cells or, in batch mode, raises the
#: objective or cycles.
CONVERGENCE_TOL = 1e-12

#: :func:`solve_iterative` forks restart workers only for instances of at
#: least ``FORK_MIN_SYMBOLS`` symbols and ``FORK_MIN_WORK`` symbol-cells (M * K),
#: as a restart costs more with both.  On a 2-vCPU Xeon with one BLAS thread, a
#: fork and the return of its results took 2.0-2.3 ms, and a forked
#: two-restart solve (noisy relay, N=2, 21 alternating runs) took this share
#: of the one-core time: K=2: 0.94-1.07 at M=512, 0.80 at M=1024; K=4: 1.18 at
#: M=128, 0.89 at M=256, 0.82 at M=512; K=8: 1.11-1.24 at M=128, 1.01 at
#: M=192, 0.86 at M=256; K=16: 1.08 at M=128, 0.94 at M=256.
FORK_MIN_SYMBOLS = 256
FORK_MIN_WORK = 2048


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`solve_iterative`.

    ``max_iterations``, ``restarts`` (at most ``sys.maxsize``) and ``seed`` must
    be integers, not bools.  Random restart i draws its start from ``seed`` and
    i, in the process that runs it.  A given ``initial_assignment`` runs a single
    pass from those labels instead; it must be a vector and is stored as a tuple,
    so options compare and hash by value, and :meth:`Quantizer.hard` checks the
    labels when the pass starts.
    """

    max_iterations: int = 500
    restarts: int = 10
    seed: int = 0
    initial_assignment: tuple[int, ...] | None = None
    sweep_mode: str = "sequential"

    def __post_init__(self) -> None:
        bounds = (("max_iterations", 1, ">= 1"), ("restarts", 1, ">= 1"), ("seed", 0, "nonnegative"))
        for name, least, rule in bounds:
            value = getattr(self, name)
            _check_integer(name, value)
            if value < least:
                raise OutOfRangeError(f"{name} must be {rule}, got {_count_text(value)}")
        if self.restarts > sys.maxsize:  # the restarts are the indices of a range
            raise OutOfRangeError(f"restarts must be <= {sys.maxsize}, got {_count_text(self.restarts)}")
        if self.sweep_mode not in SWEEP_MODES:
            raise OutOfRangeError(f"sweep_mode must be one of {SWEEP_MODES}, got {_echo_repr(self.sweep_mode)}")
        if self.initial_assignment is not None:
            labels = np.asarray(self.initial_assignment)
            if labels.ndim != 1:
                raise DimensionMismatchError(f"initial_assignment must be a vector, got {labels.ndim} dimensions")
            object.__setattr__(self, "initial_assignment", tuple(labels.tolist()))


#: Multipliers of the finalizer of MurmurHash3, which the column fold runs per word.
_MIX = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))


def _column_keys(words: np.ndarray) -> np.ndarray:
    """One uint64 key per column of an N x M uint64 matrix; equal columns get equal keys.

    Each word is mixed in so that each of its bits reaches every bit of the
    key: the exponent bits of posteriors agree often and would otherwise
    cancel between rows.
    """
    keys = np.zeros(words.shape[1], dtype=np.uint64)
    for row in words:
        keys ^= row
        for multiplier in _MIX:
            keys ^= keys >> np.uint64(33)
            keys *= multiplier
    return keys


def _distinct_columns(posteriors: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``(columns, inverse)``: the distinct posterior columns and each symbol's index among them.

    Two columns merge only when their float64 words are equal, so ``0.0`` and
    ``-0.0`` stay apart, and ``columns[:, inverse]`` is ``posteriors`` bit for
    bit.  When nothing merges, or two different columns share a key,
    ``posteriors`` itself comes back with no inverse.
    """
    words = np.ascontiguousarray(posteriors).view(np.uint64)
    # no return_index: the stable sort it needs costs about three times the default one
    keys, inverse = np.unique(_column_keys(words), return_inverse=True)
    if keys.size == inverse.size:
        return posteriors, None
    index = np.empty(keys.size, dtype=np.intp)
    index[inverse] = np.arange(inverse.size)  # one column of each key
    distinct = np.take(words, index, axis=1)
    if not np.array_equal(np.take(distinct, inverse, axis=1), words):
        return posteriors, None
    return distinct.view(np.float64), inverse


class _SweepEngine:
    """Mutable per-restart statistics.

    Per move, only what the next distance argmin reads is refreshed, in place:
    two cluster columns (through views), the outputs in the first N rows of the
    (N + 1) x H ``_work`` buffer, and their gradients in the H x N C-contiguous
    ``_grads_t`` that ``distances`` reads (``gradients`` is its N x H view), with
    the bits of ``_column_gradients(impurity, clusters @ channel)``.  The masses
    (Python floats) and the source and target constraint derivatives follow only
    under the entropy constraint; for ``none`` and ``linear`` they are fixed once
    per ``rebuild``.

    ``rebuild`` re-aggregates the joints exactly and sets
    ``objective`` and the gradients from one ``score_cells`` call, as
    :func:`evaluate` does; moves leave ``objective`` stale.  It runs at every
    sweep boundary, which also keeps the float dust of the column updates
    from accumulating.

    Every distance comes from ``distances``, which calls the kernel the
    certificate uses.  A sequential sweep reads a span of symbols at once and moves only
    the first whose nearest cell is not its own: nothing moved before it, so
    the symbols ahead of it saw the statistics a one-by-one visit shows them.
    The scan resumes right behind the move, so no stale distance is acted
    on and no margin or fallback is needed.
    """

    #: Largest column block of one distance call, in batch sweeps and
    #: sequential spans; keeps temporaries cache- and allocator-friendly at
    #: large M.  Blocks of 16384 columns push the GEMMs past OpenBLAS's
    #: multithreading size threshold, and threaded GEMM on a two-core host
    #: falls into a mode about five times slower.
    BLOCK = 4096

    #: First and smallest span of a sequential scan; the span doubles after
    #: a span without a move, up to ``BLOCK``, and halves after a move.
    MIN_SPAN = 8

    def __init__(self, spec: ProblemSpec, assignment: np.ndarray) -> None:
        self.spec = spec
        quantizer = Quantizer.hard(assignment, spec.num_cells)
        _check_fits(spec, quantizer)
        self.assignment = np.array(quantizer.hard_assignment)
        self.joint = spec.joint.entries
        self.symbol_mass = spec.joint.symbol_marginal
        self.channel = spec.channel.entries
        self.posteriors = posteriors(spec.joint)
        self._mass_dependent_derivs = spec.constraint.kind == "entropy"
        self._work = np.empty((spec.num_sources + 1, spec.channel.num_outputs))
        self._outputs = self._work[:-1]
        self._grads_t = np.empty(self._outputs.shape[::-1])
        self.gradients = self._grads_t.T
        self.rebuild()

    def rebuild(self) -> None:
        self.clusters = cell_joints(self.joint, self.assignment, self.spec.num_cells)
        self._columns = list(self.clusters.T)
        self.mass = self.clusters.sum(axis=0).tolist()
        self.derivs = constraint_derivatives(self.spec.constraint, self.mass)
        self._offset = self.derivs[:, None]
        outputs, _, _, objective = score_cells(self.spec, self.clusters)
        self.objective = float(objective)
        # over the identity relay the outputs are the clusters: the kernel copies them into _work
        _column_gradients(self.spec.impurity, outputs, self.gradients, self._work)

    def move(self, m: int, target: int) -> None:
        source = int(self.assignment[m])
        u = self.joint[:, m]
        column, into = self._columns[source], self._columns[target]
        np.subtract(column, u, out=column)
        np.add(into, u, out=into)
        np.maximum(column, 0.0, out=column)
        self.assignment[m] = target
        if self._mass_dependent_derivs:
            pm, mass = float(self.symbol_mass[m]), self.mass
            mass[source] = max(mass[source] - pm, 0.0)
            mass[target] += pm
            # the two changed masses; _offset is a view of derivs
            self.derivs[[source, target]] = constraint_derivatives(
                self.spec.constraint, (mass[source], mass[target]))
        # clusters @ channel: the same GEMM without matmul's dispatch; both
        # are nonnegative, so the outputs need no check
        np.dot(self.clusters, self.channel, out=self._outputs)
        _column_gradients(self.spec.impurity, self._outputs, self.gradients, self._work)

    def distances(self, block, columns=None) -> np.ndarray:
        """K x B scaled distances of the posterior columns in ``block`` at the current
        statistics; the columns are the symbols' own unless ``columns`` is given."""
        cols = (self.posteriors if columns is None else columns)[:, block]
        return _distances(self.channel, self._grads_t, cols, self.spec.beta, self._offset)

    def sweep_sequential(self) -> int:
        """Move each symbol in turn to its nearest cell, scanning spans between moves."""
        assignment = self.assignment
        distances, move = self.distances, self.move  # instance lookups, so tests can hook them
        total = assignment.size
        changed = 0
        span = self.MIN_SPAN
        m = 0
        while m < total:
            stop = min(m + span, total)
            nearest = distances(slice(m, stop)).argmin(axis=0)
            if nearest[0] != assignment[m]:  # most symbols of a first sweep move
                first = 0
            else:
                moved = nearest != assignment[m:stop]
                first = int(moved.argmax())
                if not moved[first]:
                    m = stop
                    span = min(2 * span, self.BLOCK)
                    continue
            move(m + first, int(nearest[first]))
            changed += 1
            m += first + 1
            span = max(span // 2, self.MIN_SPAN)
        return changed

    def sweep_batch(self, columns: np.ndarray, inverse: np.ndarray | None) -> int:
        """Move every symbol at once to its nearest cell; the statistics are stale until ``rebuild``.

        ``(columns, inverse)`` is :func:`_distinct_columns` of the posteriors.
        Distances are computed in column blocks, once per column, and symbol
        ``m`` takes the nearest cell of ``columns[:, inverse[m]]``; with no
        inverse the columns are the raw posteriors, read as slices.
        """
        total = columns.shape[1]
        nearest = np.empty(total, dtype=np.int64)
        for start in range(0, total, self.BLOCK):
            block = slice(start, min(start + self.BLOCK, total))
            nearest[block] = self.distances(block, columns).argmin(axis=0)
        if inverse is not None:
            nearest = nearest[inverse]
        changed = int(np.count_nonzero(nearest != self.assignment))
        self.assignment = nearest
        return changed


def reassign_sweep(spec: ProblemSpec, assignment, mode: str = "sequential"):
    """Run one full reassignment sweep and return (new_assignment, changed).

    ``assignment`` may be a hard :class:`Quantizer` or a plain label vector.
    Sequential mode refreshes the statistics after every single move; batch
    mode computes all distances once and moves every symbol simultaneously.
    """
    if mode not in SWEEP_MODES:
        raise OutOfRangeError(f"mode must be one of {SWEEP_MODES}, got {_echo_repr(mode)}")
    if isinstance(assignment, Quantizer):
        if assignment.kind != "hard":
            raise OutOfRangeError("reassignment sweeps operate on hard quantizers")
        assignment = assignment.hard_assignment
    engine = _SweepEngine(spec, assignment)
    changed = (engine.sweep_sequential() if mode == "sequential"
               else engine.sweep_batch(*_distinct_columns(engine.posteriors)))
    return engine.assignment, changed


def _run_restart(spec: ProblemSpec, index: int, opts: SolverOptions, distinct):
    """Restart ``index`` on batch mode's ``_distinct_columns``; returns ((sweeps,), trace, assignment),
    the trace ending at the assignment's objective.  It starts from ``opts.initial_assignment``
    when set, else from labels drawn here, in the process that runs it, from child ``index`` of
    ``SeedSequence(opts.seed)``, redrawn while all labels agree though K, M > 1."""
    start = opts.initial_assignment
    if start is None:
        rng = np.random.default_rng(np.random.SeedSequence(opts.seed, spawn_key=(index,)))
        while start is None or (min(spec.num_cells, spec.num_symbols) > 1 and start.min() == start.max()):
            start = rng.integers(0, spec.num_cells, size=spec.num_symbols)
    engine = _SweepEngine(spec, start)
    trace = [engine.objective]
    if spec.num_cells == 1:
        return (0,), trace, engine.assignment

    sequential = opts.sweep_mode == "sequential"
    # only batch mode reads the best state seen; a batch sweep replaces the
    # assignment array instead of writing into it, so no copy
    best_obj, best_assignment = engine.objective, engine.assignment
    for sweeps in range(1, opts.max_iterations + 1):
        changed = engine.sweep_sequential() if sequential else engine.sweep_batch(*distinct)
        if changed:  # an idle sweep left the labels, and so the objective, as they were
            engine.rebuild()
        trace.append(engine.objective)
        if not sequential and engine.objective < best_obj:
            best_obj, best_assignment = engine.objective, engine.assignment
        # a sweep that gains at most CONVERGENCE_TOL only shuffles ties, or rises
        if changed == 0 or trace[-2] - engine.objective <= CONVERGENCE_TOL:
            break

    if sequential:
        return (sweeps,), trace, engine.assignment
    if best_obj < engine.objective:
        trace.append(best_obj)  # the last batch sweep rose: end at the state returned
    return (sweeps,), trace, best_assignment


def _merge(first, then):
    """Both sweep counts, and ``then``'s trace and assignment only if it ends strictly lower."""
    return first[0] + then[0], *(then[1:] if then[1][-1] < first[1][-1] else first[1:])


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork_worker(run, chunk):
    """``(pid, read end of its pipe)`` of a forked child that pickles ``(True,
    run(chunk))``, the one result of its whole chunk, or ``(False, exception)``, into
    the pipe and ends without flushing inherited buffers or running exit handlers;
    None when the system grants no pipe or process."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns, in this process after the child exists, when
            # other OS threads (a BLAS pool) run; an error filter would lose the child
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException as exc:
        os.close(read)
        os.close(write)
        if isinstance(exc, OSError):
            return None
        raise
    if pid:
        os.close(write)
        return pid, read
    try:
        os.close(read)
        try:
            payload = pickle.dumps((True, run(chunk)))
        except BaseException as exc:  # handed to the parent, which raises it
            try:
                payload = pickle.dumps((False, exc))
            except Exception:
                payload = pickle.dumps((False, RuntimeError(f"restart worker failed: {exc!r}")))
        with os.fdopen(write, "wb") as stream:
            stream.write(payload)
    finally:
        os._exit(0)


def _restart_results(run, starts, workers: int):
    """``run(chunk)`` for each of ``workers`` contiguous chunks of the starts, in order.

    The first chunk runs in this process and each other one in a forked child,
    except that once the system refuses a pipe or a fork, that chunk and every
    later one run here and no further fork is tried.  Each chunk hands back one
    value, so what this holds grows with ``workers``, not with the starts.  A
    child's exception is raised here; every child is reaped when this returns,
    raises or is closed, and killed first if this fails before its results are read.
    """
    bounds = [len(starts) * w // workers for w in range(workers + 1)]
    chunks = [starts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    children = []  # (pid, read end of the pipe it writes its results to)
    settled = 0  # children whose results are read: they have nothing left to do
    try:
        for chunk in chunks[1:]:
            child = _fork_worker(run, chunk)
            if child is None:
                break
            children.append(child)
        for chunk, child in zip_longest(chunks, [None, *children]):
            if child is None:
                yield run(chunk)
                continue
            pid, read = child
            with os.fdopen(read, "rb", closefd=False) as stream:
                payload = stream.read()
            settled += 1
            if not payload:
                raise RuntimeError(f"restart worker {pid} ended without a result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            yield value
    except BaseException:
        import signal  # only here: its import takes about 0.5 ms on a 2-vCPU Xeon

        for pid, _ in children[settled:]:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)


def solve_iterative(spec: ProblemSpec, options: SolverOptions | None = None) -> SolveReport:
    """Best locally optimal partition over independent restarts.

    Within a restart, statistics updates alternate with nearest-distance
    reassignment until a sweep changes nothing or gains at most
    ``CONVERGENCE_TOL``, or ``max_iterations`` is hit.  A sequential restart
    returns its last partition, a batch restart the best it saw, and the
    trace ends at its objective.  The restart with the smallest final
    objective wins (ties keep the earliest restart).  Identical spec and
    options give a bit-identical report.

    On Linux, random restarts of an instance past the ``FORK_MIN_SYMBOLS`` and ``FORK_MIN_WORK``
    gate run on every CPU this process may use, when no other Python thread is running:
    :func:`_restart_results` runs chunks of their indices in order, in forked workers, and here
    whatever it cannot fork.  Each restart draws its start from its index where it runs, and each
    process folds its chunk with :func:`_merge` into its sweep counts and winner, so memory grows
    with the workers, not the restarts.  The report is the same bytes as a one-core run, with no
    setting for it.  Only idle CPUs make it faster: the workers' CPU time and memory add to this one's.
    """
    opts = options or SolverOptions()
    restarts = range(1 if opts.initial_assignment is not None else opts.restarts)

    # batch sweeps of every restart share one set of distinct posteriors
    distinct = _distinct_columns(posteriors(spec.joint)) if opts.sweep_mode == "batch" else None
    gated = spec.num_symbols >= FORK_MIN_SYMBOLS and spec.num_symbols * spec.num_cells >= FORK_MIN_WORK
    workers = min(len(restarts), _usable_cpus()) if gated and threading.active_count() == 1 else 1
    # closing the results reaps their workers: after the certificate, so they exit meanwhile
    with closing(_restart_results(lambda chunk: reduce(_merge, (_run_restart(spec, i, opts, distinct) for i in chunk)),
                                  restarts, workers)) as results:
        iterations, trace, assignment = reduce(_merge, islice(results, workers))
        return certified_report(spec, assignment, "iterative", iterations, tuple(trace))
