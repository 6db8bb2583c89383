"""Benchmark of starstab, driven from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every operation is a fresh child process
with its own time limit: a cold certify(r, k) in a new interpreter, or one
`python -m starstab.cli` call. The
load is a closed loop with one client, so one child runs at a time. Every
pass gets a fresh temporary directory under .bench_build/, so no cache or
file carries over between passes.

With --trace 0 the run repeats passes over the workload for about S
seconds, at least two, with set-up probes around each pass, and reports the
end-to-end metrics. With --trace 1 it runs one plain pass and one pass with per-layer spans (see
tracing.py) and reports the per-layer metrics. Every output is checked; the
last line of stdout is the result object, the line before it a report with
the inputs, the failures and failed_frac.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

# Every run must end within 180 s, whatever the program does.
RUN_BUDGET_S = 165.0
CERTIFY_LIMIT_S = 90.0
CLI_LIMIT_S = 30.0
# Set-up probes run in groups around every pass, so that their median
# samples the same stretch of time as the passes do.
SETUP_PROBES_PER_GROUP = 5
# wall_s is a median over passes: a run makes at least this many, even when
# the last of them ends after --seconds.
MIN_PASSES = 2
PROBE = "import time, starstab; print(time.monotonic_ns())"
MIGRATE_S = 0.05


@dataclass
class Child:
    returncode: int | None  # None when the time limit killed it
    stdout: str
    stderr: str
    spawn_ns: int
    exit_ns: int
    maxrss_kib: int

    @property
    def latency_s(self) -> float:
        return (self.exit_ns - self.spawn_ns) / 1e9


def _exited_within(pid: int, limit_s: float) -> bool:
    """Wait for the child to exit, moving it to the next CPU every
    MIGRATE_S. On a shared host each vCPU switches between a fast and a slow
    state on its own, and a child left on one vCPU takes on that vCPU's
    state; rotating makes every operation sample all of them, which halved
    the run-to-run spread of a fixed computation on a 2-vCPU machine."""
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.monotonic() + limit_s
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        turn = 0
        while True:
            left_s = deadline - time.monotonic()
            if left_s <= 0:
                return False
            if poller.poll(math.ceil(min(left_s, MIGRATE_S) * 1000)):
                return True
            if len(cpus) > 1:
                turn += 1
                try:
                    os.sched_setaffinity(pid, {cpus[turn % len(cpus)]})
                except ProcessLookupError:
                    pass  # exited since the poll
    finally:
        os.close(fd)


def run_child(argv: list[str], cwd: Path, env: dict, limit_s: float, name: str) -> Child:
    """Run one child to its end or its time limit, and reap it with its
    resource usage."""
    out_path, err_path = cwd / f"{name}.out", cwd / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        exited = False
        try:
            exited = _exited_within(proc.pid, limit_s)
        finally:
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            exit_ns = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode if exited else None,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
                 spawn_ns, exit_ns, usage.ru_maxrss)


@dataclass
class Pass:
    wall_s: float
    duration_s: float
    latencies_s: list[float]
    peak_rss_kib: int
    traces: list[dict] = field(default_factory=list)


class Run:
    """One invocation: its operations, the children it started and what failed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.ops = workloads.plan(workload, seed)
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list[dict] = []

    def remaining_s(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def child(self, argv: list[str], cwd: Path, env: dict, limit_s: float, name: str) -> Child:
        self.attempted += 1
        return run_child(argv, cwd, env, min(limit_s, self.remaining_s()), name)

    def fail(self, label: str, problem: str) -> None:
        self.failures.append({"op": label, "problem": problem})


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(tmp))
    env.pop("PERFBENCH_TRACE", None)
    return env


def _exit_problem(child: Child, limit_s: float) -> str | None:
    if child.returncode is None:
        return f"timed out after {limit_s:.0f} s"
    if child.returncode != 0:
        lines = child.stderr.strip().splitlines()
        return f"exit code {child.returncode}: {lines[-1] if lines else ''}"
    return None


def measure_setup(run: Run, probes: int) -> list[float]:
    """Seconds from spawning an interpreter to `import starstab` returning."""
    tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        env = child_env(tmp)
        values = []
        for i in range(probes):
            child = run.child([sys.executable, "-c", PROBE], tmp, env, CLI_LIMIT_S, f"probe{i}")
            problem = _exit_problem(child, CLI_LIMIT_S)
            try:
                imported_ns = int(child.stdout)
            except ValueError:
                problem = problem or f"unreadable output {child.stdout!r}"
            if problem:
                run.fail("import starstab", problem)
            else:
                values.append((imported_ns - child.spawn_ns) / 1e9)
        return values
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _argv(op: workloads.Op, traced: bool) -> list[str]:
    if op.kind == "certify":
        return [sys.executable, str(HERE / "child.py"), "certify", *op.args]
    if traced:
        return [sys.executable, str(HERE / "child.py"), "cli", *op.args]
    return [sys.executable, "-m", "starstab.cli", *op.args]


def _op_problem(op: workloads.Op, child: Child, tmp: Path, trace: dict | None) -> str | None:
    limit_s = CERTIFY_LIMIT_S if op.kind == "certify" else CLI_LIMIT_S
    problem = _exit_problem(child, limit_s)
    if problem:
        return problem
    try:
        problem = op.check(child.stdout, tmp)
        if problem or trace is None:
            return problem
        traced = tracing.op_counts(trace)
        if op.returned_counts is not None:
            for key, value in op.returned_counts(child.stdout).items():
                if traced[key] != value:
                    return f"trace self-check: traced {key} = {traced[key]}, returned {value}"
        return tracing.census_problem(trace) if op.kind == "certify" else None
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return f"unreadable output: {exc!r}"


def _read_trace(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def run_pass(run: Run, traced: bool) -> Pass:
    """One pass over the workload's operations in a fresh directory. Outputs
    are checked after the last child exits, so checking is not timed."""
    started = time.monotonic()
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    try:
        for op in run.ops:
            for name, text in op.files.items():
                (tmp / name).write_text(text)
        env = child_env(tmp)
        children = []
        for i, op in enumerate(run.ops):
            op_env = dict(env, PERFBENCH_TRACE=str(tmp / f"op{i}.trace")) if traced else env
            limit_s = CERTIFY_LIMIT_S if op.kind == "certify" else CLI_LIMIT_S
            children.append(run.child(_argv(op, traced), tmp, op_env, limit_s, f"op{i}"))
        result = Pass(0.0, 0.0, [c.latency_s for c in children],
                      max(c.maxrss_kib for c in children))
        for i, (op, child) in enumerate(zip(run.ops, children)):
            trace = _read_trace(tmp / f"op{i}.trace") if traced else None
            if trace is not None:
                result.traces.append(trace)
            problem = _op_problem(op, child, tmp, trace)
            if traced and trace is None and not problem:
                problem = "no trace written"
            if problem:
                run.fail(op.label, problem)
        result.wall_s = (children[-1].exit_ns - children[0].spawn_ns) / 1e9
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result.duration_s = time.monotonic() - started
    return result


def measure(run: Run, seconds: int, trace: bool) -> tuple[dict[str, float], dict]:
    """Metric values by name, and details for the report."""
    if trace:
        plain = run_pass(run, traced=False)
        traced = run_pass(run, traced=True)
        metrics = tracing.layer_metrics(tracing.merge(traced.traces))
        metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1 if plain.wall_s else 0.0
        return metrics, {"passes": 2, "pass_wall_s": [plain.wall_s, traced.wall_s]}
    deadline = run.start + seconds
    measure_setup(run, 1)  # fills the bytecode cache; not counted
    setup = measure_setup(run, SETUP_PROBES_PER_GROUP)
    passes = [run_pass(run, traced=False)]
    while ((len(passes) < MIN_PASSES or time.monotonic() + passes[-1].duration_s <= deadline)
           and 2 * passes[-1].duration_s < run.remaining_s()):
        setup += measure_setup(run, SETUP_PROBES_PER_GROUP)
        passes.append(run_pass(run, traced=False))
    setup += measure_setup(run, SETUP_PROBES_PER_GROUP)
    latencies = [s for p in passes for s in p.latencies_s]
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "query_p50_s": statistics.median(latencies),
        "peak_rss_mb": statistics.median(p.peak_rss_kib for p in passes) / 1024,
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_samples": len(setup),
        "query_samples": len(latencies),
        "query_max_s": max(latencies),
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "starstab" / "__init__.py").is_file():
        print(f"error: no starstab package under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    WORK.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    values, details = measure(run, args.seconds, bool(args.trace))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = len(run.failures)
    report = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "operations": [op.label for op in run.ops],
        **details,
        "attempted": run.attempted,
        "failed_frac": failed / run.attempted,
        "failures": run.failures,
        "metrics": metrics,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
