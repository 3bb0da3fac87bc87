"""End-to-end benchmark of the quasimode CLI.

Usage, from the repository root:

    python3 bench/run.py --workload sweep-reduced-csv --seed 1 --seconds 20 --trace 0

The run builds nothing: it puts `src/` on the path of the processes it
starts.  It starts one workload process (`worker.py`), warms it up, and
then drives it in a closed loop with one client: whole cycles of seeded
operations (see `workloads.py`) until `--seconds` have passed and
enough operations were timed for ten samples to lie beyond p90.  Every
operation's output is checked (`checks.py`) outside the timed region.
Between cycles it times fresh interpreters up to a ready `quasimode.cli`
(set-up), spread over the run.

With `--trace 0` it reports the end-to-end metrics.  With `--trace 1` it
replays the first cycle alternately untraced and traced (`tracer.py`) until
`--seconds` have passed, and reports per-layer metrics per traced pass.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 2 means the program under test could not be found.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from workloads import WORKLOADS, make_cycle, make_warmup

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINES = ROOT / "tests" / "baselines"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 7
MIN_TIMED_OPS = 100  # so that ten samples lie beyond p90
# One client and no helper threads: BLAS is pinned to one thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import quasimode.cli; "
         "print('ready', flush=True)")


def child_env() -> dict[str, str]:
    return {**os.environ, **THREAD_ENV}


def setup_seconds() -> float:
    """Wall time from launching a fresh interpreter until quasimode.cli is
    imported and ready for its first argv."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], stdout=subprocess.PIPE,
                          text=True, env=child_env()) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return seconds


class SetupProbes:
    """Set-up probes spread over the run, so that one slow stretch of a
    shared machine does not set their median."""

    def __init__(self, seconds: float) -> None:
        self.samples: list[float] = []
        self.start = time.perf_counter()
        self.every = seconds / SETUP_PROBES

    def due(self) -> None:
        if time.perf_counter() - self.start >= len(self.samples) * self.every:
            self.samples.append(setup_seconds())

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(setup_seconds())
        return self.samples


class Worker:
    """The workload process, driven one request at a time."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(SRC)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env())

    def request(self, **message) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"workload process exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs operations through the worker and checks each one."""

    def __init__(self, worker: Worker, seed: int, checks) -> None:
        self.worker = worker
        self.seed = seed
        self.checks = checks
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op, tag: str, trace: bool = False) -> tuple[float, int]:
        """Returns (seconds, output rows) of one checked operation."""
        checks = self.checks
        out = WORK / "figures" if op.kind == "figures" else WORK / "out"
        reply = self.worker.request(cmd="run", argv=op.argv(str(out)), trace=trace)
        self.attempted += 1
        rows = 0
        try:
            if reply["error"]:
                raise checks.CheckFailed(reply["error"].strip().splitlines()[-1])
            rng = random.Random(f"check/{self.seed}/{tag}")
            rows = checks.check(op, reply["rc"], reply["stderr"], out, BASELINES, rng)
        except (checks.CheckFailed, OSError, ValueError, LookupError, TypeError,
                ArithmeticError) as exc:
            self.failures.append(f"{' '.join(op.args)}: {type(exc).__name__}: {exc}")
        finally:
            if out.is_dir():
                shutil.rmtree(out)
            else:
                out.unlink(missing_ok=True)
        return reply["seconds"], rows


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(args, report: dict, timed_ops: int, cycles: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": timed_ops,
        "cycles": cycles,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": report["blas"],
        "blas_threads": THREAD_ENV,
        "heap_trimmed_between_ops": report["heap_trim"],
        "git_sha": git_sha(),
        "timer": "time.perf_counter",
    }


def timed_loop(runner: Runner, probes: SetupProbes, args) -> tuple[list[float], int, int]:
    """Whole cycles until the time is up and p90 has ten samples beyond it."""
    op_seconds: list[float] = []
    rows = 0
    cycles = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(op_seconds) < MIN_TIMED_OPS:
        for i, op in enumerate(make_cycle(args.workload, args.seed, cycles)):
            seconds, op_rows = runner.run(op, f"{cycles}/{i}")
            op_seconds.append(seconds)
            rows += op_rows
        cycles += 1
        probes.due()
    return op_seconds, rows, cycles


def traced_loop(runner: Runner, probes: SetupProbes, args) -> tuple[float, float, int, int]:
    """The first cycle, untraced then traced, until the time is up."""
    ops = make_cycle(args.workload, args.seed, 0)
    untraced = traced = 0.0
    rows = passes = 0
    deadline = time.perf_counter() + args.seconds
    while passes == 0 or time.perf_counter() < deadline:
        for i, op in enumerate(ops):
            untraced += runner.run(op, f"0/{i}")[0]
        for i, op in enumerate(ops):
            seconds, op_rows = runner.run(op, f"0/{i}", trace=True)
            traced += seconds
            rows += op_rows
        passes += 1
        probes.due()
    return traced, untraced, rows, passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "quasimode" / "cli.py").is_file() or not BASELINES.is_dir():
        print(f"error: no quasimode sources under {SRC} or no baselines under {BASELINES}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks  # imports quasimode, so only once src/ is on the path

    probes = SetupProbes(args.seconds)
    probes.due()
    WORK.mkdir(exist_ok=True)
    worker = Worker()
    try:
        runner = Runner(worker, args.seed, checks)
        warmup = make_warmup(args.workload, args.seed)
        for i, op in enumerate(warmup):
            runner.run(op, f"warmup/{i}")
        if args.trace:
            traced, untraced, rows, cycles = traced_loop(runner, probes, args)
        else:
            op_seconds, rows, cycles = timed_loop(runner, probes, args)
        timed_ops = runner.attempted - len(warmup)
        report = worker.request(cmd="report")
        setup = probes.finish()
    finally:
        worker.close()
        shutil.rmtree(WORK, ignore_errors=True)

    if args.trace:
        values = metrics.per_layer(report["spans"], report["observations"], rows, traced,
                                   untraced, cycles)
        units = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(setup, op_seconds, rows, report["peak_rss_kb"])
        units = metrics.END_TO_END

    failed = len(runner.failures)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps(environment(args, report, timed_ops, cycles)))
    if not args.trace:
        p90 = metrics.percentile(op_seconds, 90)
        beyond = sum(1 for s in op_seconds if s > p90)
        print(f"{args.workload} seed {args.seed}: {timed_ops} timed operations in {cycles} "
              f"cycles, {beyond} beyond p90; set-up is the median of {len(setup)} probes")
    print(f"failed_ops_ratio {failed / runner.attempted:.6g} ({failed}/{runner.attempted})")
    for name, value in values.items():
        print(f"  {name:<42} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
