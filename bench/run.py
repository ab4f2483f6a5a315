"""Benchmark for revolve: end-to-end metrics, reference-checked outputs and
an outside-in per-layer trace.

    python3 bench/run.py --workload cross-check --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload cli --seed 1 --dump-inputs

Workloads (see bench/README.md): ``cross-check`` and ``formula-sweep`` call
``revolve.volume.solve`` in this process; ``cli`` starts one ``python -m
revolve`` process per operation.  One client sends one operation at a
time (closed loop).  The operation list is walked in whole passes until
``--seconds`` have passed and the tail percentile has at least ten samples
beyond it.  Every outcome is checked against the closed-form reference in
``oracle.py``; times are scaled to reference machine speed (``clock.py``).

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics (counts of
one pass, times as medians over the traced passes), and the spans go to
``bench/out/``.  The line before it carries the run environment and the
details behind the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import oracle  # noqa: E402  (bench/ is on sys.path when run as a script)
import workloads  # noqa: E402
from clock import Clock  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
# End-to-end runs repeat the set-up this many more times, spread between
# passes, so that its median samples the machine over the whole run and
# not only during the first half second.
SETUP_SPREAD = 8
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 120
_REVOLVE_MODULES = ("revolve", "revolve.volume", "revolve.monotone", "revolve.cli")

# Counts of one traced `solve(method="all")` of x/pi + sin(x) on [0, 2*pi]
# at the commit that introduced this benchmark.  Reported for comparison;
# a change that removes work moves them on purpose.
FLAGSHIP_ANCHOR = {
    "expr.evals": 44403,
    "expr.f_evals": 30404,
    "expr.deriv_evals": 13999,
    "monotone.partition.calls": 3,
    "monotone.validate.calls": 2,
    "numerics.newton.calls": 2355,
    "numerics.newton.iterations": 10885,
    "numerics.integrate.calls": 8,
    "numerics.integrate.panels": 166,
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no revolve sources)."""


# ---------------------------------------------------------------------------
# Set-up

def _import_revolve():
    """Import the revolve sources of this checkout, never an installed copy."""
    if not (SRC / "revolve" / "__init__.py").is_file():
        raise BenchError(f"no revolve sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "revolve" or m.startswith("revolve.")]:
        del sys.modules[name]
    modules = [importlib.import_module(name) for name in _REVOLVE_MODULES]
    origin = Path(modules[0].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"revolve imported from {origin}, not from {SRC}")
    return modules


class Setup:
    """Imported modules, generated operations and their prepared problems."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.seed = seed
        start = time.perf_counter()
        self.revolve, self.volume, self.monotone, self.cli = _import_revolve()
        self.ops = workload.generate(seed)
        generated = time.perf_counter()
        self.problems = [self._prepare(op) for op in self.ops]
        done = time.perf_counter()
        self.seconds = done - start
        self.parse_s = done - generated

    def _prepare(self, op: workloads.Op):
        r = self.revolve
        expression = r.parse(op.curve_text, variable=op.variable,
                             parameters=op.params.keys())
        r.differentiate(expression, op.variable)
        if op.request is None:
            return None
        q = op.request
        return r.VolumeProblem(
            curve=expression, interval=r.Interval(q["lo"], q["hi"]),
            curve_role=q["curve_role"], axis=q["axis"], method=q["method"],
            tol=r.Tolerances(**q["tol"]), parameters=q["parameters"])


def timed_setup(workload: workloads.Workload, seed: int,
                clock: Clock) -> tuple[Setup, dict]:
    """One set-up and its times: measured, at reference speed, and the
    parse share.  The clock must have calibrated right before."""
    setup = Setup(workload, seed)
    return setup, {"measured": setup.seconds, "scaled": setup.seconds * clock.scale(),
                   "parse": setup.parse_s}


def set_up(workload: workloads.Workload, seed: int,
           clock: Clock) -> tuple[Setup, list[dict]]:
    """Set up ``SETUP_REPEATS`` times from a fresh import; keep the last."""
    clock.restart()
    runs = [timed_setup(workload, seed, clock) for _ in range(SETUP_REPEATS)]
    return runs[-1][0], [times for _, times in runs]


# ---------------------------------------------------------------------------
# Executing and checking one operation

def _payload(report) -> dict:
    part = report.partition
    return {
        "value": report.value,
        "method": report.method,
        "sign_factor": report.sign_factor,
        "error_estimate": report.error_estimate,
        "partition": None if part is None else {
            "breakpoints": list(part.breakpoints),
            "directions": list(part.directions),
            "extremum_values": list(part.extremum_values),
        },
        "cross_checks": [{"method": m, "value": v, "delta": d}
                         for m, v, d in report.cross_checks],
        "warnings": list(report.warnings),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("REVOLVE_DEFAULT_TOL", None)  # operations use the default tolerances
    env["PYTHONPATH"] = str(SRC)
    return env


def _cli_outcome(code: int, out: str, err: str) -> dict:
    outcome = {"exit_code": code, "message": err.strip()}
    if out.strip():
        try:
            outcome["payload"] = json.loads(out)
        except ValueError:
            outcome["message"] = f"unparsable output {out[:200]!r}; {err.strip()}"
    return outcome


class Runner:
    """Executes operations one at a time and tallies checked outcomes."""

    def __init__(self, setup: Setup):
        self.setup = setup
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def in_process(self, index: int) -> dict:
        try:
            report = self.setup.volume.solve(self.setup.problems[index])
        except Exception as exc:  # recorded as a failed operation
            return {"exit_code": None, "error": type(exc).__name__,
                    "message": str(exc)}
        return {"exit_code": 0, "payload": _payload(report)}

    def process(self, index: int) -> dict:
        argv = [sys.executable, "-m", "revolve", *self.setup.ops[index].argv]
        try:
            done = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return {"exit_code": None, "message": f"no exit in {CHILD_TIMEOUT_S} s"}
        return _cli_outcome(done.returncode, done.stdout, done.stderr)

    def main_in_process(self, index: int) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.setup.cli.main(list(self.setup.ops[index].argv))
        return _cli_outcome(code, out.getvalue(), err.getvalue())

    def record(self, index: int, outcome: dict) -> None:
        op = self.setup.ops[index]
        problems = oracle.check(op.expected, outcome)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"op {op.id} ({op.label}): " + "; ".join(problems))

    def timed_pass(self, execute, latencies: list[float],
                   clock: Clock | None = None, raw: list[float] | None = None) -> None:
        """Run every operation once.  With a clock, ``latencies`` gets the
        times at reference speed and ``raw`` the measured ones."""
        perf = time.perf_counter
        for index in range(len(self.setup.ops)):
            start = perf()
            outcome = execute(index)
            elapsed = perf() - start
            if clock is not None:
                raw.append(elapsed)
                elapsed *= clock.scale()
            latencies.append(elapsed)
            self.record(index, outcome)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def min_samples(p: float) -> int:
    """Fewest samples that leave at least ten beyond the p-th percentile."""
    return math.ceil(10.0 / (1.0 - p / 100.0) - 1e-9)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics

def _timings(latencies: list[float], setup_times, p: float) -> dict:
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, p) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def run_end_to_end(workload, setup: Setup, setups: list[dict], seconds: float,
                   clock: Clock):
    runner = Runner(setup)
    execute = runner.in_process if workload.in_process else runner.process
    runner.record(0, execute(0))  # warm-up: lazy set-up finishes untimed
    latencies: list[float] = []
    raw: list[float] = []
    passes = 0
    clock.restart()
    start = time.perf_counter()
    need = min_samples(workload.tail_percentile)
    setups = list(setups)
    spread = 0
    while passes == 0 or time.perf_counter() - start < seconds or len(latencies) < need:
        runner.timed_pass(execute, latencies, clock, raw)
        passes += 1
        due = (time.perf_counter() - start) * SETUP_SPREAD / seconds
        if spread < min(due, SETUP_SPREAD):
            setups.append(timed_setup(workload, setup.seed, clock)[1])
            spread += 1
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    p = workload.tail_percentile
    metrics = _timings(latencies, [s["scaled"] for s in setups], p)
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    details = {
        "error_rate": runner.failed / runner.attempted,
        "latency_tail_percentile": p,
        "samples": len(latencies),
        "passes": passes,
        "ops_per_pass": len(setup.ops),
        "setups": len(setups),
        "calibration_ms": statistics.median(clock.samples) * 1e3,
        "measured": {name: value for name, (value, _) in
                     _timings(raw, [s["measured"] for s in setups], p).items()},
    }
    return runner, metrics, details


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics

def _probe(code: str, env: dict) -> float:
    """Median over PROBE_REPEATS fresh interpreters of the float ``code``
    prints, or of the process wall time when it prints nothing."""
    values = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        elapsed = time.perf_counter() - start
        values.append(float(done.stdout) if done.stdout.strip() else elapsed)
    return statistics.median(values)


def _traced_pass(setup: Setup, runner: Runner, execute) -> tuple[Tracer, float]:
    tracer = Tracer()
    tracer.install(setup.volume, setup.monotone, setup.cli)
    perf = time.perf_counter
    busy = 0.0
    try:
        for index in range(len(setup.ops)):
            tracer.op_id = index
            start = perf()
            outcome = execute(index)
            busy += perf() - start
            runner.record(index, outcome)
    finally:
        tracer.restore()
    return tracer, len(setup.ops) / busy


def _layer_metrics(counts: dict, seconds: dict) -> dict:
    c = lambda name: counts.get(name, 0)  # noqa: E731
    s = lambda name: seconds.get(name, 0.0)  # noqa: E731
    evals = c("expr.evals")
    newton_calls = c("numerics.newton.calls")
    volume_self = sum(s(f"{name}.self_s") for name in (
        "volume.solve", "volume.cross_validate", "volume.shell",
        "volume.piecewise", "volume.theorem", "volume.disk"))
    count = "count"
    return {
        "expr.evals": (evals, count),
        "expr.deriv_evals": (c("expr.deriv_evals"), count),
        "expr.eval_self_s": (s("expr.eval_self_s"), "s"),
        "expr.eval_us": (s("expr.eval_self_s") / evals * 1e6 if evals else 0.0, "us"),
        "expr.bind_calls": (c("expr.bind_calls"), count),
        "numerics.integrate.calls": (c("numerics.integrate.calls"), count),
        "numerics.integrate.panels": (c("numerics.integrate.panels"), count),
        "numerics.integrate.unconverged": (c("numerics.integrate.unconverged"), count),
        "numerics.integrate.self_s": (s("numerics.integrate.self_s"), "s"),
        "numerics.newton.calls": (newton_calls, count),
        "numerics.newton.iterations": (c("numerics.newton.iterations"), count),
        "numerics.newton.fallbacks": (c("numerics.newton.fallbacks"), count),
        "numerics.newton.evals_per_call": (
            c("numerics.newton.evals") / newton_calls if newton_calls else 0.0,
            "evals/call"),
        "numerics.newton.self_s": (s("numerics.newton.self_s"), "s"),
        "numerics.scan.calls": (c("numerics.scan.calls"), count),
        "numerics.scan.points": (c("numerics.scan.points"), count),
        "numerics.scan.self_s": (s("numerics.scan.self_s"), "s"),
        "numerics.brent.calls": (c("numerics.brent.calls"), count),
        "numerics.brent.iterations": (c("numerics.brent.iterations"), count),
        "numerics.brent.self_s": (s("numerics.brent.self_s"), "s"),
        "monotone.partition.calls": (c("monotone.partition.calls"), count),
        "monotone.partition.self_s": (s("monotone.partition.self_s"), "s"),
        "monotone.critical_points.calls": (c("monotone.critical_points.calls"), count),
        "monotone.validate.calls": (c("monotone.validate.calls"), count),
        "monotone.validate.self_s": (s("monotone.validate.self_s"), "s"),
        "monotone.validate.evals": (c("monotone.validate.evals"), count),
        "volume.solve.self_s": (volume_self, "s"),
        "volume.cross_validate.s": (s("volume.cross_validate.s"), "s"),
        "volume.shell.s": (s("volume.shell.s"), "s"),
        "volume.piecewise.s": (s("volume.piecewise.s"), "s"),
        "volume.theorem.s": (s("volume.theorem.s"), "s"),
        "volume.disk.s": (s("volume.disk.s"), "s"),
    }


def _flagship(setup: Setup) -> dict:
    r = setup.revolve
    problem = r.VolumeProblem(curve=r.parse("x/pi + sin(x)", variable="x"),
                              interval=r.Interval(0.0, 2.0 * math.pi))
    tracer = Tracer()
    tracer.install(setup.volume, setup.monotone, setup.cli)
    try:
        setup.volume.solve(problem)
    finally:
        tracer.restore()
    return {name: tracer.counts.get(name, 0) for name in FLAGSHIP_ANCHOR}


def run_traced(workload, setup: Setup, setups: list[dict], seconds: float, seed: int):
    """Alternate untraced and traced passes for ``seconds`` (at least two
    of each).  Counts are those of one pass and must repeat exactly; times
    are medians over the traced passes."""
    runner = Runner(setup)
    execute = runner.in_process if workload.in_process else runner.main_in_process
    runner.record(0, execute(0))  # warm-up, as in the untraced run
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while len(tracers) < 2 or time.perf_counter() - start < seconds:
        latencies: list[float] = []
        runner.timed_pass(execute, latencies)
        untraced.append(len(latencies) / sum(latencies))
        tracer, ops_per_s = _traced_pass(setup, runner, execute)
        traced.append(ops_per_s)
        tracers.append(tracer)
    counts = dict(tracers[0].counts)
    changed = sorted({k for t in tracers for k in set(t.counts) | set(counts)
                      if t.counts.get(k) != counts.get(k)})
    deterministic = not changed
    if changed:
        runner.problems.append(f"counts differ between passes: {changed}")
    times = {k: statistics.median(t.seconds.get(k, 0.0) for t in tracers)
             for k in {k for t in tracers for k in t.seconds}}
    layer = _layer_metrics(counts, times)
    spans = tracers[0].spans
    flagship = _flagship(setup)

    # the CLI front end: interpreter start, import, and main() in process
    main_times: list[float] = []
    runner.timed_pass(runner.main_in_process, main_times)
    env = _child_env()
    layer.update({
        "expr.parse_s": (statistics.median(s["parse"] for s in setups), "s"),
        "cli.interpreter_s": (_probe("pass", env), "s"),
        "cli.import_s": (_probe(
            "import time; t = time.perf_counter(); import revolve.cli; "
            "print(time.perf_counter() - t)", env), "s"),
        "cli.main_s": (statistics.median(main_times), "s"),
        "trace.overhead_ops_per_s": (
            statistics.median(untraced) - statistics.median(traced), "1/s"),
    })
    layer.update({f"flagship.{name}": (value, "count")
                  for name, value in flagship.items()})

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload.name}-seed{seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"fields": ["op", "name", "start", "end", "parent"],
                   "spans": spans}, handle)
    details = {
        "deterministic": deterministic,
        "flagship_matches_anchor": flagship == FLAGSHIP_ANCHOR,
        "flagship_counts": flagship,
        "untraced_ops_per_s": statistics.median(untraced),
        "traced_ops_per_s": statistics.median(traced),
        "traced_passes": len(tracers),
        "spans": len(spans),
        "error_rate": runner.failed / runner.attempted,
    }
    return runner, layer, details, deterministic


# ---------------------------------------------------------------------------

def _pin_to_one_cpu() -> int | None:
    """Run this process and its children on one CPU, so that the clock's
    calibration kernel and the timed work share a core and its load."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        return None
    return cpu


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return " ".join(f"{x:.2f}" for x in os.getloadavg())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-inputs", action="store_true",
                        help="print the generated operations as JSON lines and exit")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if args.dump_inputs:
        for op in workload.generate(args.seed):
            print(json.dumps(op.to_json()))
        return 0

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "loadavg_start": _loadavg(), "cpu": _pin_to_one_cpu()}
    clock = Clock()
    try:
        setup, setups = set_up(workload, args.seed, clock)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    correct = True
    if args.trace:
        runner, metrics, details, correct = run_traced(workload, setup, setups,
                                                       args.seconds, args.seed)
    else:
        runner, metrics, details = run_end_to_end(workload, setup, setups,
                                                  args.seconds, clock)
    correct = correct and runner.failed == 0
    env["loadavg_end"] = _loadavg()
    print(json.dumps({"workload": workload.name, "seed": args.seed, "env": env,
                      **details, "problems": runner.problems}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
