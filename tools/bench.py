"""Exact work counts and `check-tables` timings of one galemb checkout.

Run from anywhere, with the standard library only:

    python3 tools/bench.py --out BENCH_<n>.json [--repo DIR]

--repo is the checkout to measure (default: the one holding this script); its
`src/` is imported, and nothing else from it.  The JSON record holds:

- counts: for `generate_table` over tables 1-6 at p in PRIMES, per table and
  over all of them, the rows and, per row, the Python calls (`sys.setprofile`
  "call" events, counted by `count_calls`, which tests/test_cost.py gates
  on) and the bytecode
  instructions (`sys.settrace` "opcode" events) in frames of galemb code,
  and the instructions per galemb module.  Each count is taken over a warm
  pass, after one untraced pass has filled every cache the work reads, and
  repeats exactly from run to run on one CPython version;
- instance_counts: the same counts per instance of `enumerate_instances`
  at INSTANCE_PRIME, the path that builds every catalog presentation;
- oracle_counts: the same counts per engine condition of tables 1-6 at
  ORACLE_PRIME, for one `check_raw_vs_normal` plus one `witness_nontrivial`
  (tests/test_cost.py gates on its calls);
- check_tables: per p in PRIMES, over RUNS fresh interpreters each, the
  quartiles of the command's own time (`cli.main`, timed inside the child)
  and of the child's wall time (interpreter start and imports included);
- import_s: over RUNS fresh interpreters, the quartiles of the wall time of
  `python -c "import galemb.cli"`, the start-up every command pays;
- the checkout's git SHA (null outside git), the Python version and the host.

Counts miss work done inside C (big-int arithmetic, `pow`); times on a
shared host spread by a quarter and more, so compare them in alternating
pairs, never across hosts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PRIMES = (3, 13, 31, 101)
TABLES = range(1, 7)
RUNS = 5  # fresh processes per prime
INSTANCE_PRIME = 101
ORACLE_PRIME = 23

# run in a fresh interpreter: the own time of `galemb check-tables --p P`
CHILD = """
import contextlib, io, json, sys, time
from galemb import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    start = time.perf_counter()
    code = cli.main(["check-tables", "--p", sys.argv[1]])
    own = time.perf_counter() - start
print(json.dumps({"code": code, "own_s": own, "lines": out.getvalue().count("\\n")}))
"""


def count_calls(work, package: str) -> int:
    """The `call` events in frames of files under package over one pass of
    work, after a warm pass that fills every cache the work reads."""
    work()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return calls


def _warm_counts(work, package: str) -> tuple[int, int, dict[str, int]]:
    """Calls and instructions in frames of files under package over one
    pass of work, after a warm pass; instructions also by file name."""
    calls = count_calls(work, package)
    by_file: dict[str, int] = {}

    def local(frame, event, arg):
        if event == "opcode":
            name = frame.f_code.co_filename
            by_file[name] = by_file.get(name, 0) + 1
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            frame.f_trace_opcodes = True
            return local
        return None

    sys.settrace(trace)
    try:
        work()
    finally:
        sys.settrace(None)
    modules = {Path(name).stem: n for name, n in sorted(by_file.items())}
    return calls, sum(modules.values()), modules


def count_tables(package: str) -> dict:
    from galemb.obstructions import generate_table

    out = {}
    for p in PRIMES:
        rows, calls, instructions, modules = {}, {}, {}, {}
        for table in TABLES:
            result = []

            def work():
                result[:] = generate_table(table, p)
            c, i, m = _warm_counts(work, package)
            rows[table], calls[table], instructions[table] = len(result), c, i
            for name, n in m.items():
                modules[name] = modules.get(name, 0) + n
        total = sum(rows.values())
        out[str(p)] = {
            "rows": {**{str(t): n for t, n in rows.items()}, "all": total},
            "calls_per_row": {**{str(t): round(calls[t] / rows[t], 1) for t in TABLES},
                              "all": round(sum(calls.values()) / total, 1)},
            "instructions_per_row": {**{str(t): round(instructions[t] / rows[t], 1)
                                        for t in TABLES},
                                     "all": round(sum(instructions.values()) / total, 1)},
            "instructions_per_row_by_module": {name: round(n / total, 1)
                                               for name, n in modules.items()},
        }
    return out


def count_instances(package: str) -> dict:
    from galemb.catalog import enumerate_instances

    result = []

    def work():
        result[:] = enumerate_instances(INSTANCE_PRIME)
    calls, instructions, modules = _warm_counts(work, package)
    n = len(result)
    return {"p": INSTANCE_PRIME, "instances": n,
            "calls_per_instance": round(calls / n, 2),
            "instructions_per_instance": round(instructions / n, 1),
            "instructions_per_instance_by_module": {name: round(i / n, 1)
                                                    for name, i in modules.items()}}


def count_oracle(package: str) -> dict:
    """The same counts per engine condition of tables 1-6 at ORACLE_PRIME,
    for one tame-symbol check of the raw product against its normal form
    plus one nontriviality witness, each raw product built beforehand."""
    from galemb import local_oracle
    from galemb.obstructions import generate_table

    conditions = [c for table in TABLES for row in generate_table(table, ORACLE_PRIME)
                  for c in row.result.conditions]

    def work():
        for c in conditions:
            local_oracle.check_raw_vs_normal(c.raw, c.normal)
            local_oracle.witness_nontrivial(c.raw, c.normal.basis)
    calls, instructions, modules = _warm_counts(work, package)
    n = len(conditions)
    return {"p": ORACLE_PRIME, "conditions": n,
            "calls_per_condition": round(calls / n, 2),
            "instructions_per_condition": round(instructions / n, 1),
            "instructions_per_condition_by_module": {name: round(i / n, 1)
                                                     for name, i in modules.items()}}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def time_check_tables(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for p in PRIMES:
        own, wall, lines = [], [], set()
        for _ in range(RUNS):
            start = time.perf_counter()
            child = subprocess.run([sys.executable, "-c", CHILD, str(p)], env=env,
                                   capture_output=True, text=True, check=True)
            wall.append(time.perf_counter() - start)
            record = json.loads(child.stdout.splitlines()[-1])
            if record["code"] != 0:
                raise SystemExit(f"check-tables --p {p} exited {record['code']}")
            own.append(record["own_s"])
            lines.add(record["lines"])
        out[str(p)] = {"own_s": _quartiles(own), "wall_s": _quartiles(wall),
                       "output_lines": sorted(lines)}
    return out


def time_import(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    wall = []
    for _ in range(RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import galemb.cli"], env=env, check=True)
        wall.append(time.perf_counter() - start)
    return _quartiles(wall)


def _sha(repo: Path) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout to measure (default: this script's)")
    args = parser.parse_args(argv)
    repo = Path(args.repo).resolve()
    src = repo / "src"
    sys.path.insert(0, str(src))
    import galemb

    package = str(Path(galemb.__file__).resolve().parent) + os.sep
    if not package.startswith(str(src) + os.sep):
        raise SystemExit(f"galemb imported from {package}, not from {src}")
    record = {
        "sha": _sha(repo),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": {"machine": platform.machine(), "system": platform.system(),
                 "cpus": os.cpu_count()},
        "primes": list(PRIMES),
        "counts": count_tables(package),
        "instance_counts": count_instances(package),
        "oracle_counts": count_oracle(package),
        "check_tables": time_check_tables(src),
        "import_s": time_import(src),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
