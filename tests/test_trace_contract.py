"""The benchmark's traced run wraps galemb functions by name: every name it
lists must still resolve to a callable, or `perfbench/run.py --trace 1` fails."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("qualname", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_resolves_to_a_callable(qualname):
    owner, attr = tracing.resolve(qualname)
    # install() replaces vars(owner)[attr], so the name must be bound there
    assert callable(vars(owner).get(attr)), qualname
