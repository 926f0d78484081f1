"""galemb benchmark: catalog sweeps, oracle verification and engine selfcheck.

Run from the repository root:

    python3 perfbench/run.py --workload tables-small --seed 1 --seconds 10 --trace 0

Workloads are defined in workloads.py.  The benchmark runs in one process with
one thread as a closed loop: each operation starts as soon as the previous one
returns.  It drives galemb from the sources under src/ and only through the
public functions of its modules.

--trace 0 times whole passes over the workload's operations and reports the
end-to-end metrics.  The number of passes is --seconds over the workload's
nominal pass time (PASS_S), rounded, and one at least, so that every run of a
workload does the same work.  All times are at reference speed (see
REF_LOOP), not wall clock: each operation's wall time is divided by how much
slower than nominal the machine ran the reference slices taken around it.
Wall-clock figures are kept in the run record.  op_ms_tail covers every
completed operation of every pass; op_ms_p50 is the median over operations of
each one's median latency.

--trace 1 times one pass with the tracing wrappers of tracing.py installed,
between two untraced passes, and reports the per-layer metrics of the traced
pass.  Either way every output is checked outside the timed region; a wrong
output fails the run (exit 1) and is never turned into a number.  An
operation that raises counts as failed, is recorded, and does not stop the
run.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The full run record (seed, versions, failures, latency sample
counts) and, for traced runs, the spans are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# A pass's time at reference speed at the seed commit, on a 2-vCPU x86-64 VM.
# It sets how many passes --seconds asks for.  The count is fixed rather than
# timed because the tail percentile depends on it: on tables-small a fourth
# pass moves op_ms_tail from one operation's cluster of samples to another's,
# and a timed loop ran 3 passes in some runs and 4 in others.
PASS_S = {"tables-small": 2.5, "tables-large": 12.5, "oracle": 4.9, "selfcheck": 5.8}
WORKLOAD_NAMES = tuple(PASS_S)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of the run's own set-up and this many more, each in a
# fresh interpreter.
SETUP_CHILDREN = 4
TAIL_BEYOND = 10
# The machine's speed drifts by a quarter and more over minutes when it is
# shared.  Times are therefore reported at reference speed: wall time divided
# by the speed factor that interleaved reference slices measure.  Reference
# speed is that of a machine running one slice in REF_NOMINAL_S (a typical
# figure on a 2-vCPU x86-64 VM with CPython 3.11).  An operation's factor is
# the median of the REF_WINDOW slices on either side of it, so that one
# preempted slice does not rescale it.
REF_LOOP = 2_500
REF_NOMINAL_S = 4.0e-3
REF_EVERY_S = 0.05
REF_WINDOW = 2
SETUP_SLICES = 10

END_TO_END = (
    ("setup_s", "s"),
    ("verified_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("completed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    at least TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def reference_slice() -> float:
    """Duration of a fixed pure-Python loop, the yardstick of machine speed.

    It allocates small tuples and lists and does modular carries, like
    collection does, so that it slows down with the machine as galemb does.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()  # a collection here would time the heap, not the machine
    try:
        start = time.perf_counter()
        x, y = (1, 2, 0, 1, 2), (2, 1, 1, 0, 1)
        for _ in range(REF_LOOP):
            z = [a + b for a, b in zip(x, y)]
            for i in range(5):
                q, r = divmod(z[i], 3)
                z[i] = r + q
            x = tuple(v % 3 for v in z)
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def speed_factor(slices: list[float]) -> float:
    """How much slower than reference speed the machine ran the slices."""
    return statistics.median(slices) / REF_NOMINAL_S


@dataclass
class Measurement:
    """Outcome of whole passes over a workload's operations.

    `elapsed` is wall time of the operations; `ref_elapsed` and `samples` are
    at reference speed.  `samples[i]` holds operation i's latency in each pass
    it completed.  `factors` holds each pass's median speed factor."""

    elapsed: float = 0.0
    ref_elapsed: float = 0.0
    passes: int = 0
    attempted: int = 0
    units: int = 0
    samples: list[list[float]] = field(default_factory=list)
    wall_samples: list[list[float]] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def latencies(self) -> list[float]:
        """Latency of every completed operation of every pass."""
        return [x for s in self.samples for x in s]

    def median_latency(self, wall: bool = False) -> float:
        """Median over operations of each operation's median latency.

        Every pass runs every operation, so this estimates the median of all
        samples.  It is taken this way because with an even number of
        operations the median of all samples falls between the two middle
        operations, at the slowest sample of one and the fastest of the
        other, and so measures two extremes (on tables-small, on a 2-vCPU
        x86-64 VM, its spread over ten seeds was 13.5% against 3.9% this
        way)."""
        samples = self.wall_samples if wall else self.samples
        return statistics.median(statistics.median(s) for s in samples if s)

    @property
    def completed(self) -> int:
        return sum(len(s) for s in self.samples)


def measure(workload, passes: int, tracer=None) -> Measurement:
    """Closed loop over `passes` whole passes.  Reference slices run between
    operations, at least every REF_EVERY_S and outside the timed work; each
    operation is divided by the speed factor of the REF_WINDOW slices on
    either side of it.  Each output is checked and dropped as soon as its
    operation returns, outside the timed work, so that no operation runs with
    the outputs of earlier ones still alive.  Latencies are kept for
    completed operations only."""
    m = Measurement(samples=[[] for _ in workload.ops],
                    wall_samples=[[] for _ in workload.ops])
    clock = time.perf_counter
    while m.passes < passes:
        timings = []
        slices = [reference_slice()]
        last_slice = clock()
        for i, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = m.attempted
            m.attempted += 1
            t0 = clock()
            try:
                out = workload.run(op)
            except Exception as exc:  # recorded as a failed operation
                timings.append((None, clock() - t0, len(slices)))
                m.failures.append({"pass": m.passes, "op": i, **op.describe(),
                                   "exception": type(exc).__name__, "message": str(exc)})
            else:
                timings.append((i, clock() - t0, len(slices)))
                m.problems += workload.verify(op, out)
                m.units += workload.units(op, out)
                del out
            if clock() - last_slice >= REF_EVERY_S:
                slices.append(reference_slice())
                last_slice = clock()
        slices.append(reference_slice())
        m.factors.append(speed_factor(slices))
        for i, latency, before in timings:
            factor = speed_factor(slices[max(0, before - REF_WINDOW):before + REF_WINDOW])
            m.elapsed += latency
            m.ref_elapsed += latency / factor
            if i is not None:
                m.samples[i].append(latency / factor)
                m.wall_samples[i].append(latency)
        m.passes += 1
    return m


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of the workload in a fresh interpreter: (wall, reference)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    wall, ref = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(ref)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setups: list[tuple[float, float]], m: Measurement) -> dict:
    latencies = m.latencies()
    tail_s, _, _ = tail(latencies)
    values = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "verified_per_s": m.units / m.ref_elapsed,
        "op_ms_p50": 1000.0 * m.median_latency(),
        "op_ms_tail": 1000.0 * tail_s,
        "completed_frac": m.completed / m.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_record(args, workload, m: Measurement, numpy_version: str) -> dict:
    latencies = m.latencies()
    value, pct, beyond = tail(latencies) if latencies else (None, None, 0)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "ops_per_pass": len(workload.ops),
        "passes": m.passes,
        "timed_wall_s": m.elapsed,
        "timed_ref_s": m.ref_elapsed,
        "speed_factors": m.factors,
        "attempted": m.attempted,
        "completed": m.completed,
        "failed": len(m.failures),
        "failed_frac": len(m.failures) / m.attempted,
        "unit": workload.unit,
        "verified_units": m.units,
        f"{workload.unit}_per_s": m.units / m.ref_elapsed,
        f"{workload.unit}_per_wall_s": m.units / m.elapsed,
        "latency_samples": len(latencies),
        "wall_op_ms_p50": 1000.0 * m.median_latency(wall=True) if latencies else None,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "tail_ms": None if value is None else 1000.0 * value,
        "op_ms": [{**op.describe(), "median_ms": 1000.0 * statistics.median(samples),
                   "samples": len(samples)}
                  for op, samples in zip(workload.ops, m.samples) if samples],
        "failures": m.failures,
        "problems": m.problems,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    if not (ROOT / "src" / "galemb" / "__init__.py").is_file():
        print(f"error: galemb sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import workloads  # imports galemb and numpy
    workload = workloads.WORKLOADS[args.workload](args.seed)
    wall_setup = time.perf_counter() - start
    own_setup = (wall_setup, wall_setup / speed_factor([reference_slice()
                                                        for _ in range(SETUP_SLICES)]))
    if args.probe_setup:
        print(*map(repr, own_setup))
        return 0

    import numpy
    import tracing

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # untraced passes before and after the traced one, so that a drift in
        # machine speed does not read as tracing overhead
        before = measure(workload, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            m = measure(workload, 1, tracer)
        finally:
            tracer.restore()
        after = measure(workload, 1)
        m.problems = before.problems + m.problems + after.problems
        untraced_s = (before.elapsed + after.elapsed) / 2
        metrics = tracing.layer_metrics(tracer, untraced_s, m.elapsed)
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl.gz")
    else:
        setups = [own_setup] + [probe_setup(args.workload, args.seed)
                                for _ in range(SETUP_CHILDREN)]
        m = measure(workload, max(1, round(args.seconds / PASS_S[args.workload])))
        metrics = end_to_end_metrics(setups, m)

    record = run_record(args, workload, m, numpy.__version__)
    record["metrics"] = metrics
    if not args.trace:
        record["setup_samples_wall_ref_s"] = setups
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed}: {m.passes} passes, {m.completed}/"
          f"{m.attempted} operations completed, {m.units} {workload.unit} verified "
          f"in {m.elapsed:.3f}s")
    for failure in m.failures[:len(workload.ops)]:
        print(f"failed: {json.dumps(failure)}")
    for problem in m.problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    result = {"correct": not m.problems, "attempted": m.attempted, "failed": len(m.failures),
              "metrics": {} if m.problems else metrics}
    print(json.dumps(result))
    return 1 if m.problems else 0


if __name__ == "__main__":
    sys.exit(main())
