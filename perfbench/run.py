"""Benchmark for the neva CLI: seeded inputs, checked outputs, timed runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stress_en_cascade --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One closed-loop caller in one process runs one command at a time through
``neva.cli.run_command``.  With ``--trace 0`` the run reports the end-to-end
metrics: ``setup_s`` (median over fresh processes of import, network and
scenario load and ``bind``), ``wall_s`` (median warm execution of the
workload's commands), ``solves_per_s`` and ``peak_rss_mb`` (one fresh
process running the workload once); both times are rescaled to a reference
host speed with the calibration kernel of ``speed.py``.  With ``--trace 1``
it reports the per-layer metrics of ``layers.py`` and the tracing overhead
instead.  Every run checks the outputs of one execution against the
workload's correctness check and that every timed execution wrote the same
bytes; the last line of standard output is one JSON object, and the exit
code is 1 when a check failed.
"""
import os

# Pin BLAS/OpenMP to one thread before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
from layers import Tracer, import_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
IMPORT_PROBES = 3
KERNELS_PER_RUN = 3  # calibration kernels timed before each execution
KERNELS_PER_PROBE = 21  # and after each setup probe
CHILD_TIMEOUT = 120


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def probe(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def tail(walls) -> float:
    """The highest percentile with at least ten samples beyond it (the
    largest sample when there are fewer than eleven)."""
    ordered = sorted(walls)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def unit_of(metric: str) -> str:
    if metric == "solves_per_s":
        return "1/s"
    for suffix, unit in (("_us_per_bank", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_bytes", "bytes"), ("_share", "share"),
                         ("_mb", "MB")):
        if metric.endswith(suffix):
            return unit
    return "count"


class Session:
    """Warm in-process executions of one workload's commands."""

    def __init__(self, workload):
        self.workload = workload
        self.cli = importlib.import_module("neva.cli")  # looked up per call
        self.reference = None

    def run(self, argv) -> int:
        return self.cli.run_command(argv)

    def execute(self):
        gc.collect()
        start = perf_counter()
        statuses = [self.run(argv) for argv in self.workload.commands]
        return perf_counter() - start, statuses

    def fingerprint(self, statuses):
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in self.workload.outputs]
        return statuses, digests

    def warm_up(self):
        """One execution whose outputs the workload's check reads; later
        executions must reproduce it exactly."""
        _, statuses = self.execute()
        self.reference = self.fingerprint(statuses)
        return self.workload.check(statuses, self.run)

    def timed(self, tracer=None):
        if tracer:
            tracer.install()
        try:
            wall, statuses = self.execute()
        finally:
            if tracer:
                tracer.uninstall()
        return wall, self.fingerprint(statuses) == self.reference

    def sample(self, seconds, tracer=None):
        """Untraced walls, traced walls (when tracing), the median
        calibration kernel time taken just before each untraced execution
        and the number of executions that did not reproduce the checked
        output.  Sampling stops before a further round would overrun
        ``seconds``."""
        plain, traced, kernels, mismatched = [], [], [], 0
        rounds = [(plain, None)] + ([(traced, tracer)] if tracer else [])
        start = perf_counter()
        while True:
            kernels.append(statistics.median(
                speed.kernel_s() for _ in range(KERNELS_PER_RUN)))
            round_time = KERNELS_PER_RUN * kernels[-1]
            for walls, active in rounds:
                wall, same = self.timed(active)
                walls.append(wall)
                round_time += wall
                mismatched += not same
            if perf_counter() - start + round_time > seconds:
                return plain, traced, kernels, mismatched


def measure(workload, seconds: float, trace: bool) -> dict:
    session = Session(workload)
    if trace:
        metrics = import_times(child_env(), IMPORT_PROBES)
    else:
        cold = probe("run", json.dumps(workload.commands))
        cold_output = session.fingerprint(cold["statuses"])
        setups, setup_kernels = [], []
        for _ in range(SETUP_PROBES):
            setups.append(probe("setup", *workload.setup_inputs)["setup_s"])
            setup_kernels.append(statistics.median(
                speed.kernel_s() for _ in range(KERNELS_PER_PROBE)))
    verdict = session.warm_up()
    for problem in verdict.problems:
        print(f"{workload.name}: check failed: {problem}", file=sys.stderr)
    tracer = Tracer() if trace else None
    plain, traced, kernels, mismatched = session.sample(seconds, tracer)
    if not trace and cold_output != session.reference:
        mismatched += 1  # the fresh process wrote other output
    executions = 1 + len(plain) + len(traced) + (not trace)  # + warm-up, cold
    attempted = workload.solves * executions
    # An execution that reproduces the checked output shares its verdict.
    failed = (verdict.failed * (executions - mismatched)
              + workload.solves * mismatched)
    # The median, not the fastest execution: other tenants of a shared host
    # make it run fast only in rare bursts, so the fastest execution of a run
    # depends on whether one fell into it (see README).
    wall = statistics.median(plain)
    if trace:
        metrics.update(tracer.layer_metrics(len(traced), workload.banks))
        overhead = statistics.median(traced) - wall
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / wall
    else:
        rescaled = speed.rescale(plain, kernels)
        metrics = {"setup_s": speed.rescale(setups, setup_kernels),
                   "wall_s": rescaled,
                   "solves_per_s": (workload.solves - verdict.failed) / rescaled,
                   "peak_rss_mb": cold["peak_rss_mb"]}
    line = " ".join(f"{k}={v:.6g} {unit_of(k)}" for k, v in metrics.items())
    print(f"{workload.name}: {line} samples={len(plain)} "
          f"raw_median_wall={wall:.6g} s "
          f"raw_fastest_wall={min(plain):.6g} s "
          f"raw_tail_wall={tail(plain):.6g} s "
          f"failed_share={failed / attempted:.6g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in metrics.items()}}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import neva
    if Path(neva.__file__).resolve().parent != SRC / "neva":
        raise SystemExit(f"imported neva from {neva.__file__}, not {SRC}")
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(WORKLOADS[name](workdir, seed), seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; metrics keyed workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"{name}: no result (exit code {done.returncode})")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v
                                 for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "neva" / "__init__.py").is_file():
        print(f"no neva sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
