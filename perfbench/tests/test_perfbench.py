"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(run.__file__).resolve().parent


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    value, pct, beyond = run.tail(samples)
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert sum(1 for s in samples if s > value) == 10
    assert run.tail(list(range(11))) == (0, 100.0 * 1 / 11, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_latencies_cover_every_completed_sample():
    m = run.Measurement(samples=[[0.3, 0.1], [], [0.2]])
    assert sorted(m.latencies()) == [0.1, 0.2, 0.3] and m.completed == 3
    assert m.median_latency() == pytest.approx(0.2)


def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["a", 6.0, 8.0, 3, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert tracing.total_times(spans) == {"root": 10.0, "a": 5.0, "leaf": 1.0, "b": 4.0}
    nested = [["f", 0.0, 4.0, -1, 0], ["f", 1.0, 2.0, 0, 0]]
    assert tracing.total_times(nested) == {"f": 4.0}


def _bindings():
    """Every (namespace, name) that binds a traced function, with the object."""
    out = {}
    for qualname in tracing.SPANNED + tracing.COUNTED:
        owner, attr = tracing.resolve(qualname)
        original = vars(owner)[attr]
        spaces = [owner] if isinstance(owner, type) else list(sys.modules.values())
        for ns in spaces:
            for key, value in list(getattr(ns, "__dict__", {}).items()):
                if value is original:
                    out[(id(ns), key)] = (ns, key, original)
    return out


def test_install_restore_round_trip():
    from galemb import arith, groups, local_oracle, obstructions, symbols
    import galemb

    before = _bindings()
    assert (id(obstructions), "normalize") in before and (id(galemb), "normalize") in before
    assert {(id(m), "is_prime") for m in (arith, groups, local_oracle)} <= set(before)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for ns, key, original in before.values():
            patched = getattr(ns, key) if isinstance(ns, type) else vars(ns)[key]
            assert patched is not original and patched.__wrapped__ is original
        assert symbols.normalize is obstructions.normalize is galemb.normalize
    finally:
        tracer.restore()
    for ns, key, original in before.values():
        assert vars(ns)[key] is original
    assert not tracer.patches


def test_tables_smoke_pass_is_verified():
    wl = workloads.TablesWorkload((3,), seed=1, tables=(1, 6))
    m = run.measure(wl, 1)
    assert (m.passes, m.attempted, m.units, m.failures, m.problems) == (1, 2, 12, [], [])


def test_tables_large_smoke_records_the_failure():
    wl = workloads.TablesWorkload((17,), seed=1, tables=(1, 3))
    m = run.measure(wl, 1)
    assert m.problems == [] and m.units == 9 and m.completed == 1
    (failure,) = m.failures
    assert (failure["table"], failure["p"], failure["exception"]) == (3, 17, "ExtensionError")
    assert "enumeration bound" in failure["message"]


def test_wrong_output_is_caught():
    snapshot = workloads.load_snapshot()
    snapshot["tables"]["3"]["1"][0][3] = ["(a1, a2; z)"]
    wl = workloads.TablesWorkload((3,), seed=1, tables=(1,), snapshot=snapshot)
    m = run.measure(wl, 1)
    assert len(m.problems) == 1 and "snapshot" in m.problems[0]


def test_oracle_smoke_pass_is_verified():
    wl = workloads.OracleWorkload((3,), seed=1, tables=(1,), limit=5)
    m = run.measure(wl, 1)
    assert (m.attempted, m.units, m.failures, m.problems) == (5, 5, [], [])


def test_selfcheck_smoke_pass_is_verified():
    wl = workloads.SelfcheckWorkload(3, seed=1, limit=3, triples=1000)
    m = run.measure(wl, 1)
    assert (m.attempted, m.units, m.failures, m.problems) == (3, 3, [], [])


def test_traced_counts_repeat_exactly():
    def traced_counts():
        wl = workloads.TablesWorkload((3,), seed=2, tables=(2, 6))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            m = run.measure(wl, 1, tracer)
        finally:
            tracer.restore()
        metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
        return m, {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}

    m1, first = traced_counts()
    m2, second = traced_counts()
    assert first == second
    assert m1.problems == m2.problems == []
    assert first["obstructions.generate_table.rows"] == 14
    assert first["groups.mul.calls"] > 0 and first["groups.bulk_mul.calls"] == 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
