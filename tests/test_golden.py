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
