"""Command-line front end: list and inspect catalog groups, compute obstruction
condition sets, regenerate and diff the reference tables, and run the
verification suites.  `selfcheck` decides consistency with the exact class-2
test `groups.is_consistent`; the numpy sweeps in `groups` are the test and
benchmark reference, and no command calls them.

Exit codes: 0 success, 1 usage error, 2 data error, 3 table/oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, extension, groups, local_oracle, obstructions
from .catalog import CatalogError, gold_row, iter_instances, lookup
from .groups import PresentationError
from .obstructions import ObstructionError
from .symbols import (
    BasisError,
    ExpressionError,
    SymbolBasis,
    _balanced,
    normalize,
    parse,
    render,
    root_label,
    root_level_of,
)

USAGE_ERROR, DATA_ERROR, MISMATCH_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


_OPTIONS = {
    "--order": dict(choices=["5", "6", "both"], default="both"),
    "--root-level": dict(type=int, default=None),
    "--gold": dict(default=None, help="override path of the reference table file"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="galemb", description=__doc__)
    parser.add_argument("--version", action="version", version=f"galemb {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *options, formats=None):
        """A subcommand with --p and exactly the options it reads."""
        sub = subs.add_parser(name, help=help)
        sub.add_argument("--p", type=int, action="append", help="odd prime (repeatable)")
        for flag in options:
            sub.add_argument(flag, **_OPTIONS[flag])
        if formats:
            sub.add_argument("--format", choices=formats, default="text")
        return sub

    command("list", "list catalog instances", "--order", formats=["text", "machine"])

    sub = command("show", "dump one group presentation", "--gold")
    sub.add_argument("group")

    sub = command("obstruct", "obstruction conditions for one group", "--root-level", "--gold",
                  formats=["text", "machine"])
    sub.add_argument("group")

    sub = command("table", "regenerate one reference table", "--gold",
                  formats=["text", "csv", "machine"])
    sub.add_argument("table_id", type=int, choices=range(1, 7))

    command("check-tables", "diff every generated row against the reference data", "--gold")
    command("selfcheck", "exact class-2 consistency test and kernel checks", "--order")

    sub = command("eval", "numeric tame-symbol values of an expression")
    sub.add_argument("expression")

    return parser


def _primes(args, default=(3,)) -> list[int]:
    return list(args.p) if args.p else list(default)


def _orders(args) -> list[int]:
    return {"5": [5], "6": [6], "both": [5, 6]}[args.order]


def _instances(args, p):
    for order_exp in _orders(args):
        yield from iter_instances(p, order_exp=order_exp)


def _machine_row(inst, result):
    return {
        "label": inst.label,
        "p": inst.p,
        "params": list(inst.id.params) if inst.id.params else None,
        "root_level": result.root_level,
        "minimal_root_level": result.data.minimal_root_level,
        "torsion_level": result.torsion_level,
        "conditions": result.texts(),
        "solvability": result.solvability_kind,
    }


def cmd_list(args) -> int:
    for p in _primes(args):
        for inst in _instances(args, p):
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
        root_level = gold_row(inst, args.gold).root_level
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
        print(f"  assumed root of unity: level p^{root_level}")
    return 0


def cmd_obstruct(args) -> int:
    for p in _primes(args):
        inst = lookup(args.group, p)
        root_level = args.root_level
        if root_level is None:
            root_level = gold_row(inst, args.gold).root_level
        result = obstructions.obstruction_for_instance(inst, root_level)
        if args.format == "machine":
            print(json.dumps(_machine_row(inst, result)))
        else:
            conds = ", ".join(result.texts()) or "1"
            print(f"{inst.label} p={p} root=p^{result.root_level} "
                  f"[{result.solvability_kind}]: {conds}")
    return 0


def cmd_table(args) -> int:
    for p in _primes(args):
        rows = obstructions.generate_table(args.table_id, p, args.gold)
        if args.format == "csv":
            print("label,p,independents,root_level,solvability,conditions")
            for r in rows:
                conds = " ".join(r.result.texts())
                print(f"{r.label},{p},{len(r.instance.preimages)},{r.result.root_level},"
                      f"{r.result.solvability_kind},{conds}")
        elif args.format == "machine":
            for r in rows:
                print(json.dumps(_machine_row(r.instance, r.result)))
        else:
            print(f"table {args.table_id}, p={p}")
            for r in rows:
                labels = ",".join(r.result.data.spec.labels())
                conds = ", ".join(r.result.texts()) or "1"
                print(f"  {r.label:26s} | {labels:17s} | {root_label(r.result.root_level):3s} | {conds}")
    return 0


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
                if r.ok:
                    continue
                kind = []
                if not r.match:
                    kind.append("conditions differ")
                if r.minimal_root_level != r.gold_root_level:
                    kind.append(
                        f"minimal root level {r.minimal_root_level} != {r.gold_root_level}")
                bad += 1
                print(f"MISMATCH table {table_id} p={p} {r.label}: {'; '.join(kind)}")
                print(f"  engine: {', '.join(r.result.texts())}")
        elapsed = time.perf_counter() - start
        verdict = "OK" if bad == 0 else f"{bad} mismatches"
        print(f"p={p}: {nrows} rows, {verdict} ({elapsed:.2f}s)")
        if bad:
            status = MISMATCH_ERROR
    return status


def cmd_selfcheck(args) -> int:
    status = 0
    for p in _primes(args):
        start = time.perf_counter()
        failures = 0
        for inst in _instances(args, p):
            P = inst.presentation
            checks = []
            checks.append(("order", groups.group_order(P) == p**inst.id.order_exp))
            checks.append(("consistent", groups.is_consistent(P)))
            ok_kernels = all(
                groups.is_central_element(P, P.generator(k))
                and groups.element_order(P, P.generator(k)) == p**inst.kernel_level
                for k in inst.kernels)
            checks.append(("kernels-central", ok_kernels))
            checks.append(("quotient-abelian", groups.is_abelian_quotient(P, list(inst.kernels))))
            bad = [name for name, ok in checks if not ok]
            if bad:
                failures += 1
                print(f"FAIL {inst.label} p={p}: {', '.join(bad)}")
        elapsed = time.perf_counter() - start
        print(f"p={p}: selfcheck {'OK' if not failures else 'FAILED'} ({elapsed:.2f}s)")
        if failures:
            status = DATA_ERROR
    return status


def _witness_text(asg: local_oracle.LocalAssignment) -> str:
    """The evaluation prime of a witness row and each label that is not 1:
    a_i = ell, or a_j = g the least primitive root mod ell."""
    return f"ell={asg.ell}" + "".join(f", {name}={'ell' if v else u}"
                                      for name, (v, u) in asg.values[1:] if (v, u) != (0, 1))


def cmd_eval(args) -> int:
    expr = parse(args.expression)
    labels = sorted({lbl for f in expr.factors for lbl, _ in f.left + f.right
                     if lbl.startswith("a")})
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
        form = local_oracle._expression_form(expr, basis)
        entries = [f"M[{basis.base_name(u)},{basis.base_name(v)}]={_balanced(form[u][v], torsion)}"
                   for u in range(basis.size) for v in range(u + 1, basis.size) if form[u][v]]
        print(f"  raw form: {' '.join(entries) or '0'}")
        found = local_oracle._witness_row(form, basis)
        if found is None:
            print("  witness: none")
        else:
            ell, row = found
            value = _balanced(local_oracle._value(form, row, torsion), torsion)
            print(f"  witness: {_witness_text(local_oracle._assignment(basis, ell, row))}; "
                  f"value {value}")
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
    "selfcheck": cmd_selfcheck,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for p in args.p or []:
            if p == 2:
                print("error: p must be an odd prime", file=sys.stderr)
                return USAGE_ERROR
            groups.PrimeContext.for_prime(p)  # a data error unless p is prime
        return _COMMANDS[args.command](args)
    except (CatalogError, PresentationError, ObstructionError, ExpressionError, BasisError,
            extension.ExtensionError, local_oracle.OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
