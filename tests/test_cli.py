"""CLI behaviour: output shapes, exit codes, determinism."""

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import galemb
from galemb import cli, groups, obstructions
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

    def test_root_level_error_names_group_and_prime(self, capsys):
        code, _, err = run(capsys, "obstruct", "Phi2(41)", "--p", "5", "--root-level", "1")
        assert code == 2
        assert "Phi2(41)" in err and "p=5" in err and "below the minimal level 3" in err

    def test_huge_root_level_answers(self):
        # root weights are reduced mod p^n, so no p^(N-K) is built in full; a
        # child process, so that a hang fails by the timeout
        env = dict(os.environ, PYTHONPATH=str(Path(galemb.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-m", "galemb.cli", "obstruct", "Phi2(41)",
                              "--p", "3", "--root-level", "1000000000"],
                             capture_output=True, text=True, check=True, timeout=10, env=env)
        assert out.stdout == "Phi2(41) p=3 root=p^1000000000 [proper]: (a1, a2; z)\n"

    def test_unparsable_gold_row_names_line_and_group(self, capsys, tmp_path):
        # conditions are compiled when the file loads, so the error names the
        # line and the row's label before any row is reached
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 3 | (a1, a2; z")
        lineno = next(n for n, line in enumerate(gold.read_text(encoding="utf-8").splitlines(), 1)
                      if line.startswith("Phi2(41) |"))
        code, _, err = run(capsys, "check-tables", "--p", "3", "--gold", str(gold))
        assert code == 2
        assert err == f"error: gold table line {lineno}: Phi2(41): expected ')' (at position 10)\n"

    @pytest.mark.parametrize("kind, reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("not-utf8", "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
    ])
    def test_unreadable_gold_file_is_data_error(self, capsys, tmp_path, kind, reason):
        (tmp_path / "latin1.txt").write_bytes(b"Phi2(41) \xff")
        gold = {"missing": tmp_path / "missing.txt", "directory": tmp_path,
                "not-utf8": tmp_path / "latin1.txt"}[kind]
        code, out, err = run(capsys, "check-tables", "--p", "3", "--gold", str(gold))
        assert code == 2 and out == ""
        assert err == f"error: gold table {gold}: {reason}\n"

    def test_second_row_for_a_label_is_data_error(self, capsys, tmp_path):
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 3 | (z3^-1*a1, a2; z)")
        with open(gold, "a", encoding="utf-8") as fh:
            fh.write("\nPhi2(41) | 5 | 4 | (z3^-1*a1, a2; z)\n")
        lineno = len(gold.read_text(encoding="utf-8").splitlines())
        code, _, err = run(capsys, "check-tables", "--p", "3", "--gold", str(gold))
        assert code == 2
        assert err == f"error: gold table line {lineno}: a second row for 'Phi2(41)'\n"

    def test_gold_order_mismatch_names_the_line(self, capsys, tmp_path):
        # the order column is checked when a row is reached, not when the
        # file loads, and the error still names the row's line
        gold = _gold_with(tmp_path, "Phi13(2211)b | 7 | 1 | (z^-1*a1, a3; z)(a2, a4; z), "
                                    "(a1, z*a2; z)")
        lineno = next(n for n, line in enumerate(gold.read_text(encoding="utf-8").splitlines(), 1)
                      if line.startswith("Phi13(2211)b |"))
        code, _, err = run(capsys, "check-tables", "--p", "3", "--gold", str(gold))
        assert code == 2
        assert err == (f"error: gold table line {lineno}: Phi13(2211)b: order exponent 7, "
                       "but the group has order p^6\n")


class TestTable:
    def test_table6_csv_three_rows(self, capsys):
        code, out, _ = run(capsys, "table", "6", "--p", "3", "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("label")]
        assert len(lines) == 3

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("table", range(1, 7))
    def test_csv_reads_back_six_fields(self, capsys, table, p):
        # labels such as Phi15(2211)b_{1,0} and two-slot conditions hold commas
        code, out, _ = run(capsys, "table", str(table), "--p", str(p), "--format", "csv")
        assert code == 0
        header, *records = csv.reader(io.StringIO(out))
        assert header == ["label", "p", "independents", "root_level", "solvability",
                          "conditions"]
        assert all(len(record) == 6 for record in records)
        assert [record[0] for record in records] == [r.label for r in generate_table(table, p)]

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

    def test_out_of_basis_gold_label_is_data_error(self, capsys, tmp_path):
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 3 | (z3^-1*a1, a5; z)")
        code, _, err = run(capsys, "check-tables", "--p", "3", "--gold", str(gold))
        assert code == 2
        assert err == ("error: Phi2(41) p=3: unknown label 'a5' for basis ('a1', 'a2')\n")

    @pytest.mark.parametrize("row", ["Phi2(41) | five | 3 | (a1, a2; z)",
                                     "Phi2(41) | 5 | 3.0 | (a1, a2; z)"])
    def test_non_integer_gold_column_is_data_error(self, capsys, tmp_path, row):
        gold = _gold_with(tmp_path, row)
        code, _, err = run(capsys, "check-tables", "--p", "3", "--gold", str(gold))
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
        code, out, _ = run(capsys, "table", "1", "--p", "3")
        assert code == 0 and "  Phi2(41)                   | a1,a2             | z3  |" in out
        code, _, err = run(capsys, "obstruct", "Phi2(41)", "--p", "3", "--root-level", "2")
        assert code == 2 and err == "error: Phi2(41) p=3: root level 2 below the minimal level 3\n"

    def test_unbound_gold_placeholder_names_group_and_position(self, capsys, tmp_path):
        gold = _gold_with(tmp_path, "Phi2(41) | 5 | 3 | (z3^x*a1, a2; z)")
        code, _, err = run(capsys, "check-tables", "--p", "3", "--gold", str(gold))
        assert code == 2
        assert err == "error: Phi2(41) p=3: unbound exponent placeholder 'x' (at position 4)\n"


class TestCheckTablesCatalogChecks:
    """The presentation checks check-tables makes on every row, beside the
    gold comparison: a failed one is a MISMATCH line, a bad kernel or
    quotient is a data error."""

    @staticmethod
    def only(monkeypatch, inst):
        """Run check-tables on the one row of `inst`."""
        monkeypatch.setattr(obstructions, "enumerate_instances",
                            lambda p, table: [inst] if table == inst.template.table else [])

    def test_verdict_is_per_prime(self, capsys, monkeypatch):
        original = groups.is_consistent
        monkeypatch.setattr(groups, "is_consistent", lambda P: P.p != 3 and original(P))
        code, out, _ = run(capsys, "check-tables", "--p", "3", "--p", "5")
        assert code == 3
        assert out.startswith("MISMATCH table 1 p=3 Phi2(41): consistent\n"
                              "  engine: (z3^-1*a1, a2; z)\n")
        assert "MISMATCH" not in out.split("p=3: 101 rows, 101 mismatches (", 1)[1]
        assert "\np=5: 118 rows, OK (" in out

    def test_runs_past_int64(self, capsys, monkeypatch):
        # |G| = 1451^6 > 2^63: the checks need no element indices.  Every
        # instance at p = 1451 is slow to build: check one
        self.only(monkeypatch, instantiate("Phi5(3111)", 1451))
        code, out, err = run(capsys, "check-tables", "--p", "1451")
        assert code == 0 and err == ""
        assert out.startswith("p=1451: 1 rows, OK (")

    def test_non_central_kernel_is_data_error(self, capsys, monkeypatch):
        inst = instantiate("Phi2(41)", 3)
        self.only(monkeypatch, dataclasses.replace(
            inst, template=dataclasses.replace(inst.template, kernels=("alpha1",))))
        code, out, err = run(capsys, "check-tables", "--p", "3")
        assert (code, out) == (2, "")
        assert err == "error: Phi2(41) p=3: kernel generator 'alpha1' is not central\n"

    def test_inconsistent_presentation_is_a_mismatch(self, capsys, monkeypatch):
        # Phi14(222) with alpha_i of order p and alpha_i^p = c_i: still order
        # p^6, and its conditions match gold, but [alpha1, alpha2] = beta of
        # order p^2 makes it inconsistent
        inst = instantiate("Phi14(222)", 3)
        P = make_presentation(inst.ctx, [("alpha1", 1), ("alpha2", 1), ("c1", 1), ("c2", 1),
                                         ("beta", 2)],
                              power_tails={"alpha1": {"c1": 1}, "alpha2": {"c2": 1}},
                              comms={("alpha1", "alpha2"): {"beta": 1}})
        self.only(monkeypatch, dataclasses.replace(inst, presentation=P))
        code, out, err = run(capsys, "check-tables", "--p", "3")
        assert code == 3 and err == ""
        assert out.startswith("MISMATCH table 6 p=3 Phi14(222): consistent\n"
                              "  engine: (a1, a2; z2)\n"
                              "p=3: 1 rows, 1 mismatches (")

    def test_order_mismatch_is_a_mismatch(self, capsys, monkeypatch):
        # the presentation has order p^5, the instance claims p^6
        inst = instantiate("Phi2(41)", 3)
        self.only(monkeypatch, dataclasses.replace(
            inst, id=dataclasses.replace(inst.id, order_exp=6)))
        code, out, err = run(capsys, "check-tables", "--p", "3")
        assert code == 3 and err == ""
        assert out.startswith("MISMATCH table 1 p=3 Phi2(41): order\n"
                              "  engine: (z3^-1*a1, a2; z)\n"
                              "p=3: 1 rows, 1 mismatches (")


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

    def test_eval_orders_labels_numerically(self, capsys):
        # a10 after a2: the basis is (z, a1, a2, a10), so (a2, a10)(a1, a2)
        # collects in the a2 and a10 columns, not as (a1*a10^-1, a2; z)
        code, out, _ = run(capsys, "eval", "(a2, a10; z)(a1, a2; z)", "--p", "3")
        assert code == 0
        assert out.startswith("p=3\n"
                              "  normal form: (a1, a2; z)(a2, a10; z)\n"
                              "  raw form: M[a1,a2]=-1 M[a2,a10]=-1\n")

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
        ("(a1, a2; z)", "4611686018427394499", 150 * 4611686018427394499 + 1),
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

    @pytest.mark.parametrize("expression,message", [
        ("(a01, a1; z)", "expected a basis label (aN or z / zK, N and K from 1, no leading zero) "
                         "(at position 1)"),
        ("(a0, a1; z)", "expected a basis label (aN or z / zK, N and K from 1, no leading zero) "
                        "(at position 1)"),
        ("(a1, a2; z01)", "expected a root label after ';' (at position 9)"),
        ("(a1, a2; z0)", "expected a root label after ';' (at position 9)"),
    ])
    def test_label_index_zero_or_leading_zero_is_data_error(self, capsys, expression, message):
        # a01 is not a second label beside a1, and z01 does not read as z
        code, out, err = run(capsys, "eval", expression, "--p", "3")
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    def test_closed_stdout_ends_quietly_with_141(self):
        # 5,690 records at p = 101 outrun any pipe buffer: the reader takes
        # one line and closes the pipe while the command still writes
        env = dict(os.environ, PYTHONPATH=str(Path(galemb.__file__).resolve().parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "galemb.cli", "list", "--p", "101",
                                 "--format", "machine"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert json.loads(proc.stdout.readline())["label"] == "Phi2(41)"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")

    def test_no_command_imports_numpy(self):
        # numpy serves only the reference sweeps in `groups`; a command that
        # loaded it would pay its start-up on every run
        code = (
            "import contextlib, io, sys\n"
            "from galemb import cli\n"
            "for argv in (['list'], ['show', 'Phi2(41)'], ['obstruct', 'Phi2(41)'],\n"
            "             ['table', '1'], ['check-tables', '--p', '3'], ['eval', '(a1, a2; z)']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(galemb.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120, env=env)
        assert out.stdout == "False\n"

    @pytest.mark.parametrize("argv", [
        ("eval", "(a1, a2; z)", "--p", "3", "--trials", "20"),
        ("eval", "(a1, a2; z)", "--p", "3", "--seed", "1"),
    ])
    def test_seed_and_trials_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 1

    def test_selfcheck_is_gone(self, capsys):
        # check-tables checks every catalog instance
        with pytest.raises(SystemExit) as exc:
            run(capsys, "selfcheck", "--p", "3")
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ("obstruct", "Phi2(41)", "--p", "5", "--format", "csv"),
        ("list", "--p", "3", "--trials", "5"),
        ("check-tables", "--p", "3", "--order", "5"),
        ("show", "Phi2(41)", "--p", "5", "--gold", "gold.txt"),
        ("obstruct", "Phi2(41)", "--p", "5", "--gold", "gold.txt"),
        ("table", "1", "--p", "3", "--gold", "gold.txt"),
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
        "show": ["--p"],
        "obstruct": ["--format", "--p", "--root-level"],
        "table": ["--format", "--p"],
        "check-tables": ["--gold", "--p"],
        "eval": ["--p"],
    }
    assert sum(map(len, options.values())) == 12


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
