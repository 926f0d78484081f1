"""Command-line front end: list and inspect catalog groups, compute obstruction
condition sets, regenerate the reference tables and check the catalog against
them.  Every command but `check-tables` works from the catalog alone: its
default root level is the problem's minimal one.  `check-tables` checks every
catalog instance once: its presentation's order and the exact class-2
consistency test `groups.is_consistent`, then its conditions and minimal root
level against the gold row (`--gold` names another reference file).  A failed
check is a MISMATCH line for the row; a kernel generator that is not central
or not of order p^level, or a quotient that is not abelian, is a data error.
The numpy sweeps in `groups` are the test and benchmark reference: no command
calls them, and none imports numpy.

Exit codes: 0 success, 1 usage error, 2 data error, 3 table/oracle mismatch,
141 (128 + SIGPIPE) when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from . import __version__, arith, extension, groups, local_oracle, obstructions
from .catalog import CatalogError, iter_instances, lookup
from .groups import PresentationError
from .obstructions import ObstructionError
from .symbols import (
    BasisError,
    ExpressionError,
    SymbolBasis,
    balanced,
    normalize,
    parse,
    render,
    root_label,
    root_level_of,
)

USAGE_ERROR, DATA_ERROR, MISMATCH_ERROR = 1, 2, 3
PIPE_CLOSED = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="galemb", description=__doc__)
    parser.add_argument("--version", action="version", version=f"galemb {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, help, formats=None):
        """A subcommand with --p; each caller adds the other options it reads."""
        sub = subs.add_parser(name, help=help)
        sub.add_argument("--p", type=int, action="append", help="odd prime (repeatable)")
        if formats:
            sub.add_argument("--format", choices=formats, default="text")
        return sub

    sub = command("list", "list catalog instances", formats=["text", "machine"])
    sub.add_argument("--order", choices=["5", "6", "both"], default="both")

    command("show", "dump one group presentation").add_argument("group")

    sub = command("obstruct", "obstruction conditions for one group",
                  formats=["text", "machine"])
    sub.add_argument("--root-level", type=int, default=None)
    sub.add_argument("group")

    sub = command("table", "regenerate one reference table", formats=["text", "csv", "machine"])
    sub.add_argument("table_id", type=int, choices=range(1, 7))

    command("check-tables", "check every catalog instance and diff its row against the "
            "reference data").add_argument("--gold", default=None,
                                           help="override path of the reference table file")

    sub = command("eval", "numeric tame-symbol values of an expression")
    sub.add_argument("expression")

    return parser


def _primes(args, default=(3,)) -> list[int]:
    return list(args.p) if args.p else list(default)


def _machine_row(inst, result):
    return {
        "label": inst.label,
        "p": inst.p,
        "params": list(inst.id.params) if inst.id.params else None,
        "root_level": result.root_level,
        "minimal_root_level": result.spec.minimal_root_level,
        "torsion_level": result.torsion_level,
        "conditions": result.texts(),
        "solvability": result.solvability_kind,
    }


def cmd_list(args) -> int:
    order_exp = None if args.order == "both" else int(args.order)
    for p in _primes(args):
        for inst in iter_instances(p, order_exp=order_exp):
            if args.format == "machine":
                print(json.dumps({"label": inst.label, "p": p, "order_exp": inst.id.order_exp,
                                  "family": inst.id.family, "table": inst.template.table}))
            else:
                print(f"{inst.label:26s} p={p} order=p^{inst.id.order_exp} table={inst.template.table}")
    return 0


def _word(P, exponents) -> str:
    """A word of generator powers, e.g. beta1*beta2^2."""
    return "*".join(f"{P.names[t]}^{c}" if c != 1 else P.names[t]
                    for t, c in enumerate(exponents) if c)


def cmd_show(args) -> int:
    for p in _primes(args):
        inst = lookup(args.group, p)
        P = inst.presentation
        print(f"{inst.label} at p={p}: order p^{inst.id.order_exp} = {groups.group_order(P)}")
        print(f"  generators: " + ", ".join(
            f"{n} (relative order p^{e})" for n, e in zip(P.names, P.order_exps)))
        for i, tail in enumerate(P.power_tails):
            if tail is not None:
                print(f"  {P.names[i]}^{P.orders[i]} = {_word(P, tail)}")
        for j, i, word in P.comm:
            print(f"  [{P.names[j]}, {P.names[i]}] = {_word(P, word)}")
        print(f"  kernel(s): {', '.join(inst.kernels)} (order p^{inst.kernel_level})")
        print(f"  pre-images: {', '.join(inst.preimages)}")
        print("  assumed root of unity: level "
              f"p^{obstructions.spec_for_instance(inst).minimal_root_level}")
    return 0


def cmd_obstruct(args) -> int:
    for p in _primes(args):
        inst = lookup(args.group, p)
        result = obstructions.obstruction_for_instance(inst, args.root_level)
        if args.format == "machine":
            print(json.dumps(_machine_row(inst, result)))
        else:
            conds = ", ".join(result.texts()) or "1"
            print(f"{inst.label} p={p} root=p^{result.root_level} "
                  f"[{result.solvability_kind}]: {conds}")
    return 0


def cmd_table(args) -> int:
    for p in _primes(args):
        rows = [(inst, obstructions.obstruction_for_instance(inst))
                for inst in iter_instances(p, table=args.table_id)]
        if args.format == "csv":
            # labels such as Phi15(2211)b_{1,0} and two-slot conditions hold commas
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(["label", "p", "independents", "root_level", "solvability",
                             "conditions"])
            writer.writerows([inst.label, p, len(inst.preimages), result.root_level,
                              result.solvability_kind, " ".join(result.texts())]
                             for inst, result in rows)
        elif args.format == "machine":
            for inst, result in rows:
                print(json.dumps(_machine_row(inst, result)))
        else:
            print(f"table {args.table_id}, p={p}")
            for inst, result in rows:
                labels = ",".join(result.spec.labels())
                conds = ", ".join(result.texts()) or "1"
                print(f"  {inst.label:26s} | {labels:17s} | {root_label(result.root_level):3s} | {conds}")
    return 0


def _presentation_faults(inst) -> list[str]:
    """The catalog checks an instance's presentation fails: its order is
    p^order_exp, and it passes the exact class-2 consistency test."""
    P = inst.presentation
    checks = (("order", groups.group_order(P) == inst.p**inst.id.order_exp),
              ("consistent", groups.is_consistent(P)))
    return [name for name, ok in checks if not ok]


def cmd_check_tables(args) -> int:
    status = 0
    for p in _primes(args, default=(3, 5, 7)):
        start = time.perf_counter()
        bad = 0
        nrows = 0
        for table_id in range(1, 7):
            rows = obstructions.generate_table(table_id, p, args.gold)
            nrows += len(rows)
            for r in rows:
                faults = _presentation_faults(r.instance) + r.faults
                if not faults:
                    continue
                bad += 1
                print(f"MISMATCH table {table_id} p={p} {r.label}: {'; '.join(faults)}")
                print(f"  engine: {', '.join(r.result.texts())}")
        elapsed = time.perf_counter() - start
        verdict = "OK" if bad == 0 else f"{bad} mismatches"
        print(f"p={p}: {nrows} rows, {verdict} ({elapsed:.2f}s)")
        if bad:
            status = MISMATCH_ERROR
    return status


def _witness_text(asg: local_oracle.LocalAssignment) -> str:
    """The evaluation prime of a witness row and each label that is not 1:
    a_i = ell, or a_j = g the least primitive root mod ell."""
    return f"ell={asg.ell}" + "".join(f", {name}={'ell' if v else u}"
                                      for name, (v, u) in asg.values[1:] if (v, u) != (0, 1))


def cmd_eval(args) -> int:
    expr = parse(args.expression)
    labels = sorted({lbl for f in expr.factors for lbl, _ in f.left + f.right
                     if lbl.startswith("a")}, key=lambda lbl: (int(lbl[1:]), lbl))
    root = max([root_level_of(lbl) for f in expr.factors for lbl, _ in f.left + f.right
                if lbl.startswith("z")] + [expr.torsion_level or 1])
    status = 0
    for p in _primes(args):
        basis = SymbolBasis(p=p, labels=tuple(labels) or ("a1",),
                            root_level=root, torsion_level=expr.torsion_level or 1)
        torsion = basis.torsion
        nf = normalize(expr, basis)
        print(f"p={p}")
        print(f"  normal form: {render(nf)}")
        # no line grows with p: entries and values print balanced mod p^n
        reading = local_oracle.read_form(expr, basis)
        entries = [f"M[{basis.base_name(u)},{basis.base_name(v)}]={balanced(c, torsion)}"
                   for u, v, c in reading.entries]
        print(f"  raw form: {' '.join(entries) or '0'}")
        if reading.witness is None:
            print("  witness: none")
        else:
            print(f"  witness: {_witness_text(reading.witness)}; "
                  f"value {balanced(reading.value, torsion)}")
        verdict = local_oracle.check_raw_vs_normal(expr, nf)
        if verdict.equal:
            print("  raw vs normal form: agree (difference form is zero mod p^n)")
        else:
            print(f"  raw vs normal form: DISAGREE on {_witness_text(verdict.counterexample)}")
            status = MISMATCH_ERROR
    return status


_COMMANDS = {
    "list": cmd_list,
    "show": cmd_show,
    "obstruct": cmd_obstruct,
    "table": cmd_table,
    "check-tables": cmd_check_tables,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for p in args.p or []:
        if p == 2:
            print("error: p must be an odd prime", file=sys.stderr)
            return USAGE_ERROR
        if not arith.is_prime(p):
            print(f"error: {p} is not prime", file=sys.stderr)
            return DATA_ERROR
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except (CatalogError, PresentationError, ObstructionError, ExpressionError, BasisError,
            extension.ExtensionError, local_oracle.OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_CLOSED


if __name__ == "__main__":
    sys.exit(main())
