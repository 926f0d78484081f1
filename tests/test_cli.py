"""CLI behaviour: output shapes, exit codes, determinism."""

import argparse
import dataclasses
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from galemb import cli, groups
from galemb.catalog import instantiate
from galemb.cli import main
from galemb.groups import make_presentation
from galemb.obstructions import generate_table
from galemb.symbols import normalize, parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestObstruct:
    def test_phi2_41_at_p5(self, capsys):
        code, out, _ = run(capsys, "obstruct", "Phi2(41)", "--p", "5")
        assert code == 0
        assert "(z3^-1*a1, a2; z)" in out
        assert "root=p^3" in out

    def test_machine_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "obstruct", "Phi4(221)a", "--p", "3", "--format", "machine")
        assert code == 0
        record = json.loads(out)
        assert record["solvability"] == "proper"
        for cond in record["conditions"]:
            parse(cond)

    def test_unknown_group_is_data_error(self, capsys):
        code, _, err = run(capsys, "obstruct", "Phi99(1)", "--p", "3")
        assert code == 2 and "unknown group" in err

    def test_gold_file_sets_the_root_level(self, capsys, tmp_path):
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 4 | (z3^-1*a1, a2; z)")
        _, shown, _ = run(capsys, "show", "Phi2(41)", "--p", "5", "--gold", str(gold))
        assert "level p^4" in shown
        code, out, _ = run(capsys, "obstruct", "Phi2(41)", "--p", "5", "--gold", str(gold))
        assert code == 0 and "root=p^4" in out
        code, out, _ = run(capsys, "obstruct", "Phi2(41)", "--p", "5", "--gold", str(gold),
                           "--root-level", "3")
        assert code == 0 and "root=p^3" in out

    def test_root_level_error_names_group_and_prime(self, capsys):
        code, _, err = run(capsys, "obstruct", "Phi2(41)", "--p", "5", "--root-level", "1")
        assert code == 2
        assert "Phi2(41)" in err and "p=5" in err and "below the minimal level 3" in err

    @pytest.mark.parametrize("argv", [("show", "Phi2(41)"), ("obstruct", "Phi2(41)"),
                                      ("table", "1"), ("check-tables",)])
    def test_unparsable_gold_row_names_line_and_group(self, capsys, tmp_path, argv):
        # conditions are compiled when the file loads, so the error names the
        # line and the row's label, whichever group the command asks for
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 3 | (a1, a2; z")
        lineno = next(n for n, line in enumerate(gold.read_text(encoding="utf-8").splitlines(), 1)
                      if line.startswith("Phi2(41) |"))
        code, _, err = run(capsys, *argv, "--p", "3", "--gold", str(gold))
        assert code == 2
        assert err == f"error: gold table line {lineno}: Phi2(41): expected ')' (at position 10)\n"

    @pytest.mark.parametrize("argv", [("show", "Phi2(41)"), ("obstruct", "Phi2(41)"),
                                      ("table", "1"), ("check-tables",)])
    @pytest.mark.parametrize("kind, reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("not-utf8", "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
    ])
    def test_unreadable_gold_file_is_data_error(self, capsys, tmp_path, argv, kind, reason):
        (tmp_path / "latin1.txt").write_bytes(b"Phi2(41) \xff")
        gold = {"missing": tmp_path / "missing.txt", "directory": tmp_path,
                "not-utf8": tmp_path / "latin1.txt"}[kind]
        code, out, err = run(capsys, *argv, "--p", "3", "--gold", str(gold))
        assert code == 2 and out == ""
        assert err == f"error: gold table {gold}: {reason}\n"

    def test_second_row_for_a_label_is_data_error(self, capsys, tmp_path):
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 3 | (z3^-1*a1, a2; z)")
        with open(gold, "a", encoding="utf-8") as fh:
            fh.write("\nPhi2(41) | 5 | 4 | (z3^-1*a1, a2; z)\n")
        lineno = len(gold.read_text(encoding="utf-8").splitlines())
        code, _, err = run(capsys, "table", "1", "--p", "3", "--gold", str(gold))
        assert code == 2
        assert err == f"error: gold table line {lineno}: a second row for 'Phi2(41)'\n"


class TestTable:
    def test_table6_csv_three_rows(self, capsys):
        code, out, _ = run(capsys, "table", "6", "--p", "3", "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("label")]
        assert len(lines) == 3

    def test_list_order5_p3(self, capsys):
        code, out, _ = run(capsys, "list", "--order", "5", "--p", "3")
        assert code == 0
        assert len(out.splitlines()) == 20

    def test_repeated_runs_identical(self, capsys):
        _, out1, _ = run(capsys, "table", "1", "--p", "5")
        _, out2, _ = run(capsys, "table", "1", "--p", "5")
        assert out1 == out2


class TestCheckTables:
    def test_ok_at_p3(self, capsys):
        code, out, _ = run(capsys, "check-tables", "--p", "3")
        assert code == 0 and "101 rows, OK" in out

    def test_ok_at_p17(self, capsys):
        code, out, _ = run(capsys, "check-tables", "--p", "17")
        assert code == 0 and "311 rows, OK" in out

    @pytest.mark.parametrize("argv", [("table", "1"), ("check-tables",)])
    def test_out_of_basis_gold_label_is_data_error(self, capsys, tmp_path, argv):
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 3 | (z3^-1*a1, a5; z)")
        code, _, err = run(capsys, *argv, "--p", "3", "--gold", str(gold))
        assert code == 2
        assert err == ("error: Phi2(41) p=3: unknown label 'a5' for basis ('a1', 'a2')\n")

    @pytest.mark.parametrize("row", ["Phi2(41) | five | 3 | (a1, a2; z)",
                                     "Phi2(41) | 5 | 3.0 | (a1, a2; z)"])
    def test_non_integer_gold_column_is_data_error(self, capsys, tmp_path, row):
        gold = _gold_with(tmp_path, row)
        code, _, err = run(capsys, "table", "1", "--p", "3", "--gold", str(gold))
        assert code == 2
        assert err.startswith("error: gold table line ") and err.count("\n") == 1
        assert "must be integers" in err

    def test_mismatch_exit_code(self, capsys, tmp_path):
        bad = _gold_with(tmp_path, "Phi2(41) | 5 | 3 | (a1, a2; z)")
        code, out, _ = run(capsys, "check-tables", "--p", "3", "--gold", str(bad))
        assert code == 3
        assert "MISMATCH" in out and "Phi2(41)" in out

    def test_root_level_mismatch_counts_in_compare_gold(self, capsys, tmp_path):
        # equal conditions, but the gold root level is not the minimal one
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 4 | (z3^-1*a1, a2; z)")
        code, out, _ = run(capsys, "check-tables", "--p", "3", "--gold", str(gold))
        assert code == 3
        assert "MISMATCH table 1 p=3 Phi2(41): minimal root level 3 != 4\n" in out
        assert [r.label for r in generate_table(1, 3, str(gold)) if not r.ok] == ["Phi2(41)"]

    def test_root_level_below_the_minimum_is_a_mismatch(self, capsys, tmp_path):
        # the row is computed at the minimal level, and every later row is checked
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 2 | (z3^-1*a1, a2; z)")
        code, out, _ = run(capsys, "check-tables", "--p", "3", "--gold", str(gold))
        assert code == 3
        assert out.startswith("MISMATCH table 1 p=3 Phi2(41): minimal root level 3 != 2\n"
                              "  engine: (z3^-1*a1, a2; z)\n"
                              "p=3: 101 rows, 1 mismatches (")
        code, out, _ = run(capsys, "table", "1", "--p", "3", "--gold", str(gold))
        assert code == 0 and "  Phi2(41)                   | a1,a2             | z3  |" in out
        code, _, err = run(capsys, "obstruct", "Phi2(41)", "--p", "3", "--root-level", "2")
        assert code == 2 and err == "error: Phi2(41) p=3: root level 2 below the minimal level 3\n"

    def test_unbound_gold_placeholder_names_group_and_position(self, capsys, tmp_path):
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 3 | (z3^x*a1, a2; z)")
        code, _, err = run(capsys, "check-tables", "--p", "3", "--gold", str(gold))
        assert code == 2
        assert err == "error: Phi2(41) p=3: unbound exponent placeholder 'x' (at position 4)\n"


def _gold_with(tmp_path, row):
    """The packaged reference file with the row of the same label replaced."""
    from importlib import resources

    label = row.split("|", 1)[0].strip()
    text = resources.files("galemb").joinpath("data/gold_tables.txt").read_text("utf-8")
    gold = tmp_path / "gold.txt"
    gold.write_text(
        "\n".join(row if line.split("|", 1)[0].strip() == label else line
                  for line in text.splitlines()),
        encoding="utf-8",
    )
    return gold


class TestMisc:
    def test_show(self, capsys):
        code, out, _ = run(capsys, "show", "Phi14(42)", "--p", "3")
        assert code == 0
        assert "alpha1^9 = beta" in out
        assert "[alpha2, alpha1]" in out

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "(a1, a2; z)(a2, a1; z)", "--p", "3")
        assert code == 0
        assert out == ("p=3\n"
                       "  normal form: 1\n"
                       "  raw form: 0\n"
                       "  witness: none\n"
                       "  raw vs normal form: agree (difference form is zero mod p^n)\n")

    def test_eval_at_every_prime(self, capsys):
        # M[z][a1] != 0: the witness a1 = ell reads M[a1][z] (ell-1)/p, balanced
        code, out, _ = run(capsys, "eval", "(a1, z*a2; z)", "--p", "3", "--p", "5")
        assert code == 0
        assert out == ("p=3\n"
                       "  normal form: (a1, z; z)(a1, a2; z)\n"
                       "  raw form: M[z,a1]=1 M[a1,a2]=-1\n"
                       "  witness: ell=7, a1=ell; value 1\n"
                       "  raw vs normal form: agree (difference form is zero mod p^n)\n"
                       "p=5\n"
                       "  normal form: (a1, z; z)(a1, a2; z)\n"
                       "  raw form: M[z,a1]=1 M[a1,a2]=-1\n"
                       "  witness: ell=11, a1=ell; value -2\n"
                       "  raw vs normal form: agree (difference form is zero mod p^n)\n")

    def test_eval_labels_only_witness(self, capsys):
        # the root column of M is zero: a2 = ell and a1 = g = 3 mod 7
        code, out, _ = run(capsys, "eval", "(a1, a2; z)", "--p", "3")
        assert code == 0
        assert "  witness: ell=7, a1=3, a2=ell; value 1\n" in out

    def test_eval_at_p101_root_level_3(self, capsys):
        # the first prime with v_101(ell - 1) = 3 is 30,909,031 = 30 * 101^3 + 1
        code, out, _ = run(capsys, "eval", "(a1, z3*a2; z)", "--p", "101")
        assert code == 0
        assert "  witness: ell=30909031, a1=ell; value " in out
        assert "agree (difference form is zero mod p^n)\n" in out

    @pytest.mark.parametrize("expression,p,ell", [
        ("(a1, z3*a2; z)", "2003", 78 * 2003**3 + 1),
        ("(a1, z3*a2; z)", "10007", 12 * 10007**3 + 1),
        ("(a1, z3*a2; z)", "1000000007", 62 * 1000000007**3 + 1),
        ("(a1, a2; z)", "1000000007", 44 * 1000000007 + 1),
    ])
    def test_eval_at_large_primes(self, capsys, expression, p, ell):
        # each least ell with v_p(ell - 1) = N has (ell - 1)^2 above 2^63, no
        # p^n-entry discrete-log table is built, and the primitive root mod
        # ell takes no trial division up to p
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", expression, "--p", p)
        assert (code, err) == (0, "")
        assert f"  witness: ell={ell}, " in out
        assert "  raw vs normal form: agree (difference form is zero mod p^n)\n" in out
        assert time.perf_counter() - start < 2.0

    def test_eval_output_does_not_grow_with_p(self, capsys):
        # the output's size depends on the basis, not on p
        expression = "(a1, z*a2; z)(a2^2, a3; z)"
        outs = [run(capsys, "eval", expression, "--p", p)[1] for p in ("3", "3", "1000000007")]
        assert outs[0] == outs[1]
        assert (max(map(len, outs[2].splitlines()))
                <= max(map(len, outs[0].splitlines())))
        assert len(outs[2].splitlines()) == len(outs[0].splitlines()) == 5

    def test_eval_reports_the_counterexample(self, capsys, monkeypatch):
        # a normalizer that doubles every class leaves a nonzero difference
        # form: its witness row is the counterexample
        monkeypatch.setattr(cli, "normalize", lambda expr, basis: normalize(expr * expr, basis))
        code, out, _ = run(capsys, "eval", "(a1, a2; z)", "--p", "3")
        assert code == 3
        assert out.endswith("  raw vs normal form: DISAGREE on ell=7, a1=3, a2=ell\n")

    @pytest.mark.parametrize("expression,message", [
        ("(a1, a2; z)^1/3", "exponent 1/3 has no value mod 3"),
        ("(a1^1/3, a2; z)", "exponent 1/3 has no value mod 3"),
        ("(a1, a2; z)^1/0", "zero denominator in exponent (at position 12)"),
    ])
    def test_bad_fractional_exponent_is_data_error(self, capsys, expression, message):
        code, _, err = run(capsys, "eval", expression, "--p", "3")
        assert code == 2
        assert err.startswith("error: ") and message in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "obstruct")  # missing group argument
        assert exc.value.code == 1

    def test_even_prime_rejected(self, capsys):
        code, _, err = run(capsys, "list", "--p", "2")
        assert code == 1 and "odd prime" in err

    @pytest.mark.parametrize("p", ["9", "15", "1", "0"])
    def test_non_prime_is_data_error(self, capsys, p):
        code, _, err = run(capsys, "eval", "(a1, a2; z)", "--p", p)
        assert code == 2 and err == f"error: {p} is not prime\n"

    @pytest.mark.parametrize("argv", [
        ("eval", "(a1, a2; z)", "--p", "3", "--trials", "20"),
        ("eval", "(a1, a2; z)", "--p", "3", "--seed", "1"),
    ])
    def test_seed_and_trials_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 1

    def test_selfcheck_small(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--p", "3", "--order", "5")
        assert code == 0 and "OK" in out

    def test_selfcheck_verdict_is_per_prime(self, capsys, monkeypatch):
        original = groups.is_abelian_quotient
        monkeypatch.setattr(groups, "is_abelian_quotient",
                            lambda P, kernels: P.p != 3 and original(P, kernels))
        code, out, _ = run(capsys, "selfcheck", "--p", "3", "--p", "5")
        assert code == 2
        assert "p=3: selfcheck FAILED" in out and "p=5: selfcheck OK" in out

    def test_selfcheck_runs_past_int64(self, capsys, monkeypatch):
        # |G| = 1451^6 > 2^63: the consistency test needs no element indices.
        # Every instance at p = 1451 is slow to build: check the first one
        inst = instantiate("Phi5(3111)", 1451)
        monkeypatch.setattr(cli, "iter_instances", lambda p, order_exp: iter([inst]))
        code, out, err = run(capsys, "selfcheck", "--p", "1451", "--order", "6")
        assert code == 0 and err == ""
        assert out.startswith("p=1451: selfcheck OK (")

    def test_selfcheck_reports_a_non_central_kernel(self, capsys, monkeypatch):
        inst = instantiate("Phi2(41)", 3)
        bad = dataclasses.replace(
            inst, template=dataclasses.replace(inst.template, kernels=("alpha1",)))
        monkeypatch.setattr(cli, "iter_instances", lambda p, order_exp: iter([bad]))
        code, out, err = run(capsys, "selfcheck", "--p", "3", "--order", "5")
        assert code == 2 and err == ""
        assert out.startswith("FAIL Phi2(41) p=3: kernels-central, quotient-abelian\n"
                              "p=3: selfcheck FAILED (")

    def test_selfcheck_reports_an_inconsistent_presentation(self, capsys, monkeypatch):
        # Phi14(222) with alpha2 of order p, alpha1 of order p^3: still order
        # p^6, but [alpha1, alpha2] = beta of order p^2 makes it inconsistent
        inst = instantiate("Phi14(222)", 3)
        P = make_presentation(inst.ctx, [("alpha1", 3), ("alpha2", 1), ("beta", 2)],
                              comms={("alpha1", "alpha2"): {"beta": 1}})
        bad = dataclasses.replace(inst, presentation=P)
        monkeypatch.setattr(cli, "iter_instances", lambda p, order_exp: iter([bad]))
        code, out, err = run(capsys, "selfcheck", "--p", "3", "--order", "6")
        assert code == 2 and err == ""
        assert out.startswith("FAIL Phi14(222) p=3: consistent\np=3: selfcheck FAILED (")

    def test_bound_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "selfcheck", "--p", "3", "--bound", "100")
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ("obstruct", "Phi2(41)", "--p", "5", "--format", "csv"),
        ("list", "--p", "3", "--trials", "5"),
        ("selfcheck", "--p", "3", "--triples", "5"),
        ("selfcheck", "--p", "3", "--seed", "1"),
    ])
    def test_option_the_subcommand_does_not_read_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 1


def test_each_subcommand_reads_exactly_its_options():
    # every settable value, pinned: a new option does not land unnoticed
    (subs,) = [a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    options = {name: sorted(flag for action in sub._actions if action.dest != "help"
                            for flag in action.option_strings)
               for name, sub in subs.choices.items()}
    assert options == {
        "list": ["--format", "--order", "--p"],
        "show": ["--gold", "--p"],
        "obstruct": ["--format", "--gold", "--p", "--root-level"],
        "table": ["--format", "--gold", "--p"],
        "check-tables": ["--gold", "--p"],
        "selfcheck": ["--order", "--p"],
        "eval": ["--p"],
    }
    assert sum(map(len, options.values())) == 17


def _readme_block(heading, language):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    return readme.split(heading, 1)[1].split(f"```{language}", 1)[1].split("```", 1)[0]


def test_readme_command_lines_run(capsys):
    block = _readme_block("## Command line", "sh")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("galemb ")]
    assert len(commands) >= 8
    for argv in commands:
        assert run(capsys, *argv[1:])[0] == 0, argv


def test_readme_library_example_prints_its_comments():
    # each `print(value)  # text` line of the example: repr(value) == text
    block = _readme_block("## Library", "python")
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    printed = []
    exec(block, {"print": lambda value: printed.append(repr(value))})
    assert len(expected) >= 2 and printed == expected
