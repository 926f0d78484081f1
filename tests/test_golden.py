"""Every command line of the golden corpus prints what its transcript under
tests/golden/ holds, byte for byte; `python3 tools/golden.py --write`
regenerates the transcripts when output changes on purpose."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def faults(tmp_path_factory):
    directory = tmp_path_factory.mktemp("gold")
    golden.write_faults(directory)
    return directory


def test_corpus_matches_the_files():
    names = sorted(golden.file_name(argv) for argv in golden.corpus())
    assert names == sorted(path.name for path in golden.GOLDEN.glob("*.json"))


@pytest.mark.parametrize("argv", golden.corpus(), ids=golden.file_name)
def test_transcript(argv, faults):
    want = (golden.GOLDEN / golden.file_name(argv)).read_text(encoding="utf-8")
    assert golden.transcript(argv, faults) == want


@pytest.fixture
def no_reference(monkeypatch):
    """Reading the reference file fails the test."""
    from galemb import catalog

    def unreadable(path):
        raise AssertionError("the reference file was read")

    monkeypatch.setattr(catalog, "_load_gold", unreadable)


@pytest.mark.parametrize("argv", [
    ["list", "--p", "3", "--format", "machine"],
    ["show", "Phi2(41)", "--p", "3"],
    ["obstruct", "Phi2(41)", "--p", "3", "--format", "machine"],
    ["table", "1", "--p", "3", "--format", "text"],
    ["eval", "(a1, a2; z)", "--p", "3"],
], ids=golden.file_name)
def test_only_check_tables_reads_the_reference(argv, faults, no_reference):
    # every other command takes its root level from the problem, and prints
    # its transcript unchanged without the reference file
    want = (golden.GOLDEN / golden.file_name(argv)).read_text(encoding="utf-8")
    assert golden.transcript(argv, faults) == want


def test_library_default_root_level_is_the_minimal_one(no_reference):
    from galemb.catalog import lookup
    from galemb.obstructions import obstruction_for_instance

    result = obstruction_for_instance(lookup("Phi2(41)", 5))
    assert result.root_level == result.spec.minimal_root_level == 3
    assert result.texts() == ["(z3^-1*a1, a2; z)"]
