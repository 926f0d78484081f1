"""Cost ceilings read from exact counts: Python calls into galemb per unit of
work.

`sys.setprofile` sees every Python-level call.  The number of `call` events
whose frame runs code of the galemb package, over a warm pass, is exact and
repeats from run to run, so a ceiling a few per cent above today's count
catches a regression that the wall-time budgets cannot.  Counts miss work
done inside C calls (big-int arithmetic, `pow`), and they depend on the
CPython version: the ceilings are keyed by (major, minor), and on a version
without a key every test here skips, saying so.  A change that lowers a
count lowers its ceiling with it.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import galemb
from galemb.catalog import enumerate_instances
from galemb.obstructions import generate_table

PACKAGE = str(Path(galemb.__file__).resolve().parent) + os.sep

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# calls per table row over tables 1-6, per condition of an oracle check plus
# witness (`count_oracle`), and per enumerated instance; measured with
# CPython 3.11.7 at 83.8, 86.3, 22.38 and 5.06
CEILINGS = {
    (3, 11): {"row p=5": 86.5, "row p=13": 89.0, "condition p=23": 23.0, "instance p=101": 5.2},
}
CEILING = CEILINGS.get(sys.version_info[:2])

pytestmark = pytest.mark.skipif(
    CEILING is None, reason=f"no call-count ceilings for Python {sys.version_info[0]}."
    f"{sys.version_info[1]}: counts depend on the CPython version; measure and add a key")


def _calls_per_row(p: int, tables=range(1, 7)) -> float:
    rows = []

    def work():
        rows[:] = [row for table in tables for row in generate_table(table, p)]
    return bench.count_calls(work, PACKAGE) / len(rows)


@pytest.mark.parametrize("p", [5, 13])
def test_calls_per_table_row(p):
    per_row = _calls_per_row(p)
    assert per_row <= CEILING[f"row p={p}"], f"{per_row:.1f} calls per row at p={p}"


def test_calls_per_oracle_condition():
    record = bench.count_oracle(PACKAGE)
    assert record["p"] == 23 and record["conditions"] == 887
    per_condition = record["calls_per_condition"]
    assert per_condition <= CEILING["condition p=23"], f"{per_condition:.2f} calls per condition"


def test_calls_per_enumerated_instance():
    count = len(enumerate_instances(101))
    assert count == 5690
    per_instance = bench.count_calls(lambda: enumerate_instances(101), PACKAGE) / count
    assert per_instance <= CEILING["instance p=101"], f"{per_instance:.1f} calls per instance"


def test_calls_per_row_flat_in_p():
    # cost per row should grow with the number of rows, not with p
    ratio = _calls_per_row(31) / _calls_per_row(3)
    assert ratio <= 1.20, f"calls per row at p=31 are {ratio:.3f} x those at p=3"


@pytest.mark.parametrize("table", range(1, 7))
def test_calls_per_row_flat_in_p_table_by_table(table):
    # the bound above also measures the mix of rows, which p changes; within
    # one table no row may get dearer as p grows
    at_5, at_31 = _calls_per_row(5, [table]), _calls_per_row(31, [table])
    assert at_31 <= 1.02 * at_5, f"table {table}: {at_31:.1f} calls per row at p=31, {at_5:.1f} at p=5"
