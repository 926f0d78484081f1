"""Golden transcripts of the galemb command line.

    python3 tools/golden.py --write     # regenerate tests/golden/
    python3 tools/golden.py             # compare, print the lines that differ

Each file under tests/golden/ holds one command line of `corpus()`: its argv,
exit code, stdout and stderr, as `cli.main` produces them in-process.  The
elapsed time that `check-tables` prints is masked, and so is the directory
that holds the gold files a line names through a `{gold:NAME}` argument.
Those files are the packaged reference table with one fault from `FAULTS`
written in.  tests/test_golden.py runs every line and compares the rendered
transcript with its file byte for byte, so a change of output shows as a diff
of these files.  Regenerate them with --write, never by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# gold-file faults: (row replacing the row of its label, line appended after
# the file or None), where a bare label with no columns drops its row;
# "missing", "directory" and "not-utf8" are unreadable files
FAULTS = {
    "root-level-above": ("Phi2(41) | 5 | 4 | (z3^-1*a1, a2; z)", None),
    "root-level-below": ("Phi2(41) | 5 | 2 | (z3^-1*a1, a2; z)", None),
    "unparsable": ("Phi2(41) | 5 | 3 | (a1, a2; z", None),
    "second-row": ("Phi2(41) | 5 | 3 | (z3^-1*a1, a2; z)", "Phi2(41) | 5 | 4 | (z3^-1*a1, a2; z)"),
    "order": ("Phi13(2211)b | 7 | 1 | (z^-1*a1, a3; z)(a2, a4; z), (a1, z*a2; z)", None),
    "out-of-basis": ("Phi2(41) | 5 | 3 | (z3^-1*a1, a5; z)", None),
    "word-column": ("Phi2(41) | five | 3 | (a1, a2; z)", None),
    "float-column": ("Phi2(41) | 5 | 3.0 | (a1, a2; z)", None),
    "conditions": ("Phi2(41) | 5 | 3 | (a1, a2; z)", None),
    "placeholder": ("Phi2(41) | 5 | 3 | (z3^x*a1, a2; z)", None),
    "three-columns": ("Phi2(41) | 5 | (z3^-1*a1, a2; z)", None),
    "no-row": ("Phi2(41)", None),
    "missing": None,
    "directory": None,
    "not-utf8": None,
}

EVAL_LINES = [
    ("(a1, a2; z)(a2, a1; z)", "3"),
    ("(a1, z*a2; z)", "3", "5"),
    ("(a2, a10; z)(a1, a2; z)", "3"),
    ("(a1, a2; z)", "3"),
    ("(a1, z3*a2; z)", "101"),
    ("(a1, z3*a2; z)", "2003"),
    ("(a1, a2; z)", "1000000007"),
    ("(a1, z*a2; z)(a2^2, a3; z)", "3", "1000000007"),
    ("(a1*z2, a2*z3^2; z2)(z, a1; z2)^-1/2", "3", "5"),
    ("(z3^2, a1; z)(a1^3, z2; z)", "7"),
    ("1", "3"),
    ("(a1, a2; z)^1/3", "3"),
    ("(a1^1/3, a2; z)", "3"),
    ("(a1, a2; z)^1/0", "3"),
    ("(a01, a1; z)", "3"),
    ("(a0, a1; z)", "3"),
    ("(a1, a2; z01)", "3"),
    ("(a1, a2; z0)", "3"),
    ("(a1, a2; z)(a1, a2; z2)", "3"),
    ("", "3"),
    ("a1", "3"),
    ("(a1^, z; z)", "3"),
    ("(a1 a2, z; z)", "3"),
]


def _first_instances(p: int) -> list[str]:
    """The label of each catalog template's first instance at p."""
    from galemb.catalog import enumerate_instances

    labels: dict[int, str] = {}
    for inst in enumerate_instances(p):
        labels.setdefault(id(inst.template), inst.label)
    return list(labels.values())


def corpus() -> list[list[str]]:
    lines = [["--version"]]
    lines += [["check-tables", "--p", str(p)] for p in (3, 5, 7, 17, 101)]
    lines += [["check-tables", "--p", "3", "--gold", f"{{gold:{name}}}"] for name in FAULTS]
    lines += [["table", str(t), "--p", str(p), "--format", fmt]
              for p in (3, 5) for t in range(1, 7) for fmt in ("text", "machine", "csv")]
    lines += [["list", "--p", str(p), "--format", "machine"] for p in (3, 5)]
    for p in (3, 7):
        for label in _first_instances(p):
            lines.append(["show", label, "--p", str(p)])
            lines.append(["obstruct", label, "--p", str(p), "--format", "machine"])
    for expression, *primes in EVAL_LINES:
        lines.append(["eval", expression, *[arg for p in primes for arg in ("--p", p)]])
    lines += [["list", "--p", p] for p in ("2", "9", "1", "0", "-3")]
    lines += [["check-tables", "--p", "15"], ["obstruct", "Phi2(41)", "--p", "4"],
              ["obstruct", "Nope", "--p", "3"]]
    for level in ("1", "2", "3", "4", "6"):
        lines.append(["obstruct", "Phi2(41)", "--p", "5", "--root-level", level])
    lines += [["obstruct", "Phi14(222)", "--p", "3", "--root-level", level] for level in ("1", "3")]
    lines.append(["obstruct", "Phi2(41)", "--p", "3", "--root-level", "5", "--format", "machine"])
    return lines


def file_name(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9.=-]+", "_", "_".join(argv)).strip("_-") + ".json"


def write_faults(directory: Path) -> None:
    """One gold file per entry of FAULTS, named after it, in directory."""
    text = resources.files("galemb").joinpath("data/gold_tables.txt").read_text("utf-8")
    for name, fault in FAULTS.items():
        if fault is None:
            continue
        row, extra = fault
        label = row.split("|", 1)[0].strip()
        lines = []
        for line in text.splitlines():
            if line.split("|", 1)[0].strip() != label:
                lines.append(line)
            elif "|" in row:
                lines.append(row)
        out = "\n".join(lines)
        if extra is not None:
            out += f"\n{extra}\n"
        (directory / name).write_text(out, encoding="utf-8")
    (directory / "directory").mkdir()
    (directory / "not-utf8").write_bytes(b"Phi2(41) \xff")


def transcript(argv: list[str], faults: Path) -> str:
    """The rendered transcript of one command line, run in-process, with gold
    files read from faults."""
    from galemb import cli

    args = [re.sub(r"\{gold:([a-z0-9-]+)\}", lambda m: str(faults / m.group(1)), a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse: --version and usage errors
            code = exc.code
    record = {"argv": argv, "exit": code}
    for key, stream in (("stdout", out), ("stderr", err)):
        text = stream.getvalue().replace(str(faults), "<gold-dir>")
        record[key] = re.sub(r"\(\d+\.\d+s\)$", "(<elapsed>s)", text, flags=re.M).split("\n")
    return json.dumps(record, indent=1, ensure_ascii=False) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate tests/golden/")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    lines = corpus()
    names = [file_name(a) for a in lines]
    if len(set(names)) != len(names):
        raise SystemExit("two corpus lines map to one file name")
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        write_faults(Path(tmp))
        if args.write:
            GOLDEN.mkdir(exist_ok=True)
            for old in GOLDEN.glob("*.json"):
                old.unlink()
        for a, name in zip(lines, names):
            text = transcript(a, Path(tmp))
            if args.write:
                (GOLDEN / name).write_text(text, encoding="utf-8")
            elif not (GOLDEN / name).is_file() or (GOLDEN / name).read_text("utf-8") != text:
                differ.append(name)
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(lines)} lines, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
