"""The benchmark calls galemb by name: every function its traced run wraps
must still resolve to a callable, or `perfbench/run.py --trace 1` fails, and
its oracle workload must still run and verify, on every p = 3 operation,
through the keywords it passes."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


@pytest.mark.parametrize("qualname", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_resolves_to_a_callable(qualname):
    owner, attr = tracing.resolve(qualname)
    # install() replaces vars(owner)[attr], so the name must be bound there
    assert callable(vars(owner).get(attr)), qualname


def test_oracle_workload_runs_and_verifies():
    workload = _load("workloads").OracleWorkload((3,), seed=1)
    assert len(workload.ops) == 205  # every engine condition at p = 3
    assert [problem for op in workload.ops
            for problem in workload.verify(op, workload.run(op))] == []
