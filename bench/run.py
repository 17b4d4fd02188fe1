"""Closed-loop benchmark of the chanpart command line.

Run from the repository root:

    python3 bench/run.py --workload seq-relay --seed 1 --seconds 20 --trace 0

Each operation is one in-process call of ``chanpart.cli.main([...])`` on a
generated problem file, issued by a single client: the next command starts
only after the previous one returns, cycling through the workload's
instance pool.  Every command's output is checked by ``checks.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced commands and prints per-layer metrics computed from the
traced ones (see ``tracer.py``).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
result, with the environment record, is written to ``bench/out/results/``.
"""

from __future__ import annotations

import os

# BLAS threading is fixed before numpy loads; 1 thread is a plain
# single-threaded baseline on any host.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import generate  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

LAYERS = ("cli", "probability", "impurity", "objective", "iterative", "exact")
KERNELS = ("column_gradients", "column_impurities", "constraint_derivatives", "constraint_total")
COUNTED = ("probability.posteriors", "probability.push_to_clusters",
           "probability.push_through_channel", "objective.evaluate", "objective.distance_matrix")

#: Fresh interpreters timed per run for ``setup_s`` (after one warm-up),
#: spread evenly over the timed command time so that they see the same host
#: conditions as the commands rather than a burst of a few seconds.
SETUP_SAMPLES = 15

#: The tail percentile is the highest one with this many samples beyond it.
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# Counts observed at the solver boundaries (traced commands only)
# ---------------------------------------------------------------------------


def _observe_iterative(args, kwargs, report):
    from chanpart.iterative import SolverOptions

    spec = args[0]
    options = (args[1] if len(args) > 1 else kwargs.get("options")) or SolverOptions()
    trace = report.objective_trace
    sweeps = sum(report.iterations_used)
    return {
        "calls": 1,
        "sweeps": sweeps,
        "visits": sweeps * spec.num_symbols,
        "capped": sum(used >= options.max_iterations for used in report.iterations_used),
        "productive": sum(b < a for a, b in zip(trace, trace[1:])),
        "trace_sweeps": len(trace) - 1,
        "certified": int(report.optimality_certificate),
    }


def _observe_dp(args, kwargs, report):
    m, k = args[0].num_symbols, args[0].num_cells
    return {"interval_costs": sum((m - j + 1) * (m - j + 2) // 2 for j in range(1, min(k, m) + 1))}


def _observe_bruteforce(args, kwargs, report):
    return {"assignments": args[0].num_cells ** args[0].num_symbols}


def _observe_thresholds(args, kwargs, report):
    m, k = args[0].num_symbols, args[0].num_cells
    return {"candidates": sum(math.comb(m - 1, r - 1) * math.perm(k, r) for r in range(1, min(k, m) + 1))}


OBSERVERS = {
    "iterative.solve_iterative": _observe_iterative,
    "exact.solve_dp_identity": _observe_dp,
    "exact.solve_bruteforce": _observe_bruteforce,
    "exact.solve_binary_thresholds": _observe_thresholds,
}


# ---------------------------------------------------------------------------
# Commands and their checks
# ---------------------------------------------------------------------------


def solver_of(argv) -> str:
    """The solver a ``solve`` command line selects; problem files name ``iterative``."""
    argv = list(argv)
    return argv[argv.index("--solver") + 1] if "--solver" in argv else "iterative"


class Client:
    """Issues commands one at a time and checks every output."""

    def __init__(self, cli, work: Path) -> None:
        self.cli = cli
        self.report_path = work / "report.json"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.objectives: dict[str, float] = {}
        self._optima: dict[str, float] = {}

    def call(self, argv: list[str]) -> tuple[int, float]:
        """One ``main()`` call; returns (exit code, wall seconds)."""
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed command, not the end of the run
            traceback.print_exc()
            code = "exception"
        return code, time.perf_counter() - start

    def solve(self, instance, path: Path, *extra: str) -> tuple[dict | None, list[str]]:
        """Untimed ``solve`` used by the checks themselves."""
        code, _ = self.call(["solve", str(path), *extra, "--output", str(self.report_path)])
        if code != 0:
            return None, [f"{instance.name}: solve {' '.join(extra)} exited {code}"]
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        return report, checks.check_solve(instance, solver_of(extra), report)

    def run(self, instance, path: Path, command_id: int = -1, tracer: Tracer | None = None) -> float:
        """Run one workload command, check it, and return its wall seconds."""
        argv = [instance.argv[0], str(path), *instance.argv[1:], "--output", str(self.report_path)]
        if tracer is None:
            code, seconds = self.call(argv)
        else:
            with tracer.command(command_id):
                code, seconds = self.call(argv)
        self.record(self.check(instance, path, code))
        return seconds

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def check(self, instance, path: Path, code) -> list[str]:
        if code != 0:
            return [f"{instance.name}: {instance.argv[0]} exited {code}"]
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        if instance.argv[0] == "compare":
            optimum, problems = self.optimum(instance, path)
            if optimum is None:
                return problems
            problems = checks.check_compare(instance, report, optimum)
            objective = checks.exact_optimum(report)
        else:
            problems = checks.check_solve(instance, solver_of(instance.argv), report)
            objective = report["objective"]
        seen = self.objectives.setdefault(instance.name, objective)
        if seen != objective:
            problems.append(f"{instance.name}: objective {objective!r} differs from the earlier {seen!r}")
        return problems

    def optimum(self, instance, path: Path) -> tuple[float | None, list[str]]:
        """Optimum of a binary instance, reached by a checked thresholds assignment."""
        if instance.name not in self._optima:
            report, problems = self.solve(instance, path, "--solver", "thresholds")
            if problems:
                return None, problems
            labels = np.asarray(report["assignment"]) - 1
            self._optima[instance.name] = checks.objective_terms(instance, labels)[2]
        return self._optima[instance.name], []

    def dp_versus_iterative(self, instance, path: Path) -> None:
        """The exact DP must not lose to the local search on the same instance."""
        dp, problems = self.solve(instance, path, "--solver", "dp")
        local, more = self.solve(instance, path, "--solver", "iterative")
        problems += more
        if not problems and dp["objective"] > local["objective"] and not checks.close(
            dp["objective"], local["objective"]
        ):
            problems.append(f"{instance.name}: DP {dp['objective']!r} above iterative {local['objective']!r}")
        self.record(problems)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def time_setup() -> float:
    """Wall time of a fresh interpreter running ``import chanpart.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import chanpart.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, len(ordered) // 2)  # short runs fall back towards the median
    return ordered[-1 - beyond], 100.0 * (len(ordered) - beyond) / len(ordered)


def layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float]):
    """Per-layer metrics, per traced command, plus each function's self-time share."""
    spans = tracer.arrays()
    size = len(tracer.names)
    calls = np.bincount(spans["name"], minlength=size)
    self_s = np.bincount(spans["name"], weights=spans["self"], minlength=size)
    total_s = np.bincount(spans["name"], weights=spans["duration"], minlength=size)
    index = {name: i for i, name in enumerate(tracer.names)}
    commands = int(calls[0])
    counts: dict[str, dict[str, int]] = {}
    for span, observed in tracer.counts:
        bucket = counts.setdefault(tracer.names[spans["name"][span]], {})
        for key, value in observed.items():
            bucket[key] = bucket.get(key, 0) + value

    def per(value):
        return float(value) / commands

    def ratio(num, den):
        return float(num) / den if den else 0.0

    metrics = {}
    for name in [f"impurity.{k}" for k in KERNELS] + list(COUNTED):
        metrics[f"{name}.calls"] = (per(calls[index[name]]), "count")
        metrics[f"{name}.s"] = (per(self_s[index[name]]), "s")
    kernels = [index[f"impurity.{k}"] for k in KERNELS]
    metrics["impurity.us_per_call"] = (1e6 * ratio(self_s[kernels].sum(), calls[kernels].sum()), "us")

    it = counts.get("iterative.solve_iterative", {})
    solve_it = index["iterative.solve_iterative"]
    grads_inside = tracer.within(spans, "iterative.solve_iterative") & (
        spans["name"] == index["impurity.column_gradients"])
    metrics.update({
        "iterative.solve_iterative.s": (per(self_s[solve_it]), "s"),
        "iterative.sweeps": (per(it.get("sweeps", 0)), "count"),
        "iterative.symbol_visits": (per(it.get("visits", 0)), "count"),
        "iterative.us_per_symbol_visit": (1e6 * ratio(total_s[solve_it], it.get("visits", 0)), "us"),
        "iterative.gradient_calls_per_visit": (ratio(grads_inside.sum(), it.get("visits", 0)), "ratio"),
        "iterative.capped_restarts": (per(it.get("capped", 0)), "count"),
        "iterative.productive_sweeps.ratio": (ratio(it.get("productive", 0), it.get("trace_sweeps", 0)), "ratio"),
        "iterative.certificate.ratio": (ratio(it.get("certified", 0), it.get("calls", 0)), "ratio"),
    })

    cli_names = [i for name, i in index.items() if name.startswith("cli.")]
    metrics["cli.self_s"] = (per(self_s[cli_names].sum()), "s")
    for name in ("cli.parse_problem_file", "cli.report_document", "probability.validate_joint"):
        metrics[f"{name}.s"] = (per(self_s[index[name]]), "s")

    for solver, key, short in (("solve_dp_identity", "interval_costs", "dp"),
                               ("solve_bruteforce", "assignments", "bruteforce"),
                               ("solve_binary_thresholds", "candidates", "thresholds")):
        name = f"exact.{solver}"
        done = counts.get(name, {}).get(key, 0)
        metrics[f"{name}.s"] = (per(self_s[index[name]]), "s")
        metrics[f"exact.{short}.{key}"] = (per(done), "count")
        metrics[f"exact.{short}.{key}_per_s"] = (ratio(done, total_s[index[name]]), "1/s")

    roots = spans["name"] == 0
    command_s = spans["duration"][roots].sum()
    metrics["trace.coverage.ratio"] = (ratio(command_s - spans["self"][roots].sum(), command_s), "ratio")
    metrics["trace.overhead.ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")

    shares = {tracer.names[i]: float(self_s[i] / command_s) for i in np.argsort(-self_s) if i and calls[i]}
    return metrics, shares, spans


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD commit read from the checkout's own .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(load_average) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "load_average_start": list(load_average),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(generate.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="command time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_average = os.getloadavg()
    if not (SRC / "chanpart" / "cli.py").is_file():
        print(f"error: no chanpart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from chanpart import cli

    work = OUT / "work" / args.workload
    results = OUT / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    if not args.trace:
        time_setup()  # warm-up: file cache and bytecode

    pool = generate.build(args.workload, args.seed)
    paths = [generate.write(instance, work) for instance in pool]
    side = generate.side_instance(args.seed)
    client = Client(cli, work)
    client.dp_versus_iterative(side, generate.write(side, work))
    client.run(pool[0], paths[0])  # warm-up: caches, allocator, lazy imports

    tracer = Tracer("chanpart", LAYERS, OBSERVERS) if args.trace else None
    untraced: list[float] = []
    traced: list[float] = []
    timeline: list[tuple[str, bool, float]] = []  # (instance, traced, seconds) in run order
    setup: list[float] = []
    busy, command = 0.0, 0
    while busy < args.seconds or (tracer and command % 2):
        if tracer is None and busy >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(time_setup())  # between commands, outside the command time
        # traced runs visit each instance twice in a row, untraced then traced,
        # so both sides of trace.overhead.ratio see the same instance mix
        slot = (command // 2 if tracer else command) % len(pool)
        trace_this = tracer is not None and command % 2 == 1
        seconds = client.run(pool[slot], paths[slot], command, tracer if trace_this else None)
        (traced if trace_this else untraced).append(seconds)
        timeline.append((pool[slot].name, trace_this, seconds))
        busy += seconds
        command += 1
    for instance, path in zip(pool, paths):  # untimed: every instance enters objective.mean
        if instance.name not in client.objectives:
            client.run(instance, path)

    result = {
        "workload": args.workload,
        "why": generate.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(load_average),
        "instances": {name: client.objectives.get(name) for name in (i.name for i in pool)},
        "failed.ratio": client.failed / client.attempted,
        "problems": client.problems[:50],
        "timeline": timeline,
    }
    if tracer is None:
        value, percentile = tail(untraced)
        objectives = [client.objectives.get(i.name, math.nan) for i in pool]
        metrics = {
            "command_s.p50": (statistics.median(untraced), "s"),
            "command_s.tail": (value, "s"),
            "commands_per_s": (len(untraced) / sum(untraced), "1/s"),
            "objective.mean": (statistics.fmean(objectives), "bit"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        result["tail"] = {"percentile": percentile, "samples": len(untraced)}
        result["setup_samples"] = setup
        print(f"command_s.tail is p{percentile:.1f} of {len(untraced)} timed commands")
    else:
        metrics, shares, spans = layer_metrics(tracer, traced, untraced)
        result["self_time_share"] = shares
        result["commands"] = {"traced": len(traced), "untraced": len(untraced)}
        tracer.save(results / f"{args.workload}-seed{args.seed}.spans.npz", spans)
        print(f"self-time share over {len(traced)} traced commands:")
        for name, share in list(shares.items())[:12]:
            print(f"  {name:40s} {100 * share:6.2f} %")
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for problem in client.problems[:20]:
        print(f"FAILED {problem}")
    print(f"failed.ratio {result['failed.ratio']} ({client.failed} of {client.attempted} commands)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    correct = not client.problems
    print(json.dumps({"correct": correct, "attempted": client.attempted, "failed": client.failed,
                      "metrics": result["metrics"]}))
    return 0 if correct and client.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
