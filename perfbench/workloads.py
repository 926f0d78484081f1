"""The benchmark workloads.

Each workload turns a seed into a list of operations (its inputs), runs one
operation through galemb's public functions, and checks one output.  A pass
is one run of every operation, in the seeded order.  The checks run outside
the timed region; `verify` returns the problems it found, and any problem
fails the run.

- tables-small: obstructions.generate_table(t, p), t = 1..6, p in 3..13.
- tables-large: the same at p in 17, 19, 23, where cost grows with |G|.
- oracle: every engine condition of the rows at p = 3, 5, 7, verified by the
  tame-symbol oracle (raw vs normal form, then a nontriviality witness).
- selfcheck: the per-instance checks of `galemb selfcheck --p 3`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from galemb import catalog, groups, local_oracle, obstructions

SNAPSHOT = Path(__file__).with_name("snapshot.json")

TABLES = tuple(range(1, 7))
SMALL_PRIMES = (3, 5, 7, 11, 13)
LARGE_PRIMES = (17, 19, 23)
ORACLE_PRIMES = (3, 5, 7)
SELFCHECK_PRIME = 3
ORACLE_TRIALS = 200
WITNESS_TRIALS = 500
TRIPLES = 100_000
EXHAUSTIVE_ORDER = 243


def load_snapshot(path: Path = SNAPSHOT) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def snapshot_rows(rows) -> list[list]:
    """The recorded form of generate_table rows: label, root, kind, texts."""
    return [[r.label, r.result.root_level, r.result.solvability_kind, r.result.texts()]
            for r in rows]


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


@dataclass(frozen=True)
class TableOp:
    table: int
    p: int

    def describe(self) -> dict:
        return {"table": self.table, "p": self.p}


class TablesWorkload:
    """generate_table over tables x primes; output unit: catalog rows."""

    unit = "rows"

    def __init__(self, primes, seed: int, tables=TABLES, snapshot: dict | None = None):
        ops = [TableOp(t, p) for p in primes for t in tables]
        random.Random(seed).shuffle(ops)
        self.ops = ops
        recorded = (snapshot or load_snapshot())["tables"]
        self.expected = {}
        for op in ops:
            instances = catalog.enumerate_instances(op.p, table=op.table)
            gold = [catalog.gold_row(inst) for inst in instances]
            self.expected[op] = (
                [inst.label for inst in instances],
                [row.root_level for row in gold],
                recorded.get(str(op.p), {}).get(str(op.table)),
            )

    def run(self, op: TableOp):
        return obstructions.generate_table(op.table, op.p)

    def units(self, op: TableOp, rows) -> int:
        return len(rows)

    def verify(self, op: TableOp, rows) -> list[str]:
        labels, roots, recorded = self.expected[op]
        where = f"table {op.table} p={op.p}"
        if [r.label for r in rows] != labels:
            return [f"{where}: rows {[r.label for r in rows]} != instances {labels}"]
        problems = []
        for r, root in zip(rows, roots):
            if not r.match:
                problems.append(f"{where} {r.label}: conditions differ from gold")
            if r.minimal_root_level != r.gold_root_level or r.gold_root_level != root:
                problems.append(f"{where} {r.label}: minimal root level "
                                f"{r.minimal_root_level}, gold {r.gold_root_level}/{root}")
        if recorded is not None and snapshot_rows(rows) != recorded:
            got = snapshot_rows(rows)
            diff = [(g, w) for g, w in zip(got, recorded) if g != w]
            problems.append(f"{where}: output differs from snapshot, first {diff[:1]}")
        return problems


@dataclass(frozen=True)
class ConditionOp:
    p: int
    table: int
    label: str
    origin: str
    raw: object
    normal: object
    seed: int

    def describe(self) -> dict:
        return {"p": self.p, "table": self.table, "label": self.label,
                "origin": self.origin, "oracle_seed": self.seed}


class OracleWorkload:
    """The oracle on each engine condition; output unit: conditions."""

    unit = "conditions"

    def __init__(self, primes, seed: int, tables=TABLES, limit: int | None = None):
        conditions = []
        for p in primes:
            for t in tables:
                for row in obstructions.generate_table(t, p):
                    for c in row.result.conditions:
                        conditions.append((p, t, row.label, c))
        conditions = conditions[:limit]
        ops = [ConditionOp(p, t, label, c.origin, c.raw, c.normal, s)
               for (p, t, label, c), s in zip(conditions, _seeds(seed, len(conditions)))]
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def run(self, op: ConditionOp):
        verdict = local_oracle.check_raw_vs_normal(op.raw, op.normal,
                                                   trials=ORACLE_TRIALS, seed=op.seed)
        witness = None
        if verdict.equal and not op.normal.is_zero():
            witness = local_oracle.witness_nontrivial(op.raw, op.normal.basis,
                                                      trials=WITNESS_TRIALS, seed=op.seed)
        return verdict, witness

    def units(self, op: ConditionOp, output) -> int:
        return 1

    def verify(self, op: ConditionOp, output) -> list[str]:
        verdict, witness = output
        where = f"p={op.p} {op.label} {op.origin} (oracle seed {op.seed})"
        if not verdict.equal:
            return [f"{where}: raw product and normal form disagree"]
        if not op.normal.is_zero() and witness is None:
            return [f"{where}: no nontriviality witness in {WITNESS_TRIALS} trials"]
        return []


@dataclass(frozen=True)
class InstanceOp:
    instance: object
    triple_seed: int

    def describe(self) -> dict:
        return {"label": self.instance.label, "p": self.instance.p,
                "triple_seed": self.triple_seed}


class SelfcheckWorkload:
    """`galemb selfcheck` checks per instance; output unit: instances."""

    unit = "instances"

    def __init__(self, p: int, seed: int, limit: int | None = None, triples: int = TRIPLES):
        instances = catalog.enumerate_instances(p)[:limit]
        rng = np.random.default_rng(seed)
        ops = [InstanceOp(inst, int(rng.integers(2**31))) for inst in instances]
        random.Random(seed).shuffle(ops)
        self.ops = ops
        self.triples = triples

    def run(self, op: InstanceOp) -> dict[str, bool]:
        inst = op.instance
        P = inst.presentation
        p = inst.p
        checks = {"order": groups.group_order(P) == p**inst.id.order_exp}
        if groups.group_order(P) <= EXHAUSTIVE_ORDER:
            checks["assoc-exhaustive"] = groups.associativity_exhaustive(P)
        else:
            checks["assoc-random"] = groups.associativity_random(P, self.triples,
                                                                 seed=op.triple_seed)
        checks["kernels-central"] = all(
            groups.is_central_element(P, P.generator(k))
            and groups.element_order(P, P.generator(k)) == p**inst.kernel_level
            for k in inst.kernels)
        checks["quotient-abelian"] = groups.is_abelian_quotient(P, list(inst.kernels))
        return checks

    def units(self, op: InstanceOp, checks) -> int:
        return 1

    def verify(self, op: InstanceOp, checks) -> list[str]:
        bad = [name for name, ok in checks.items() if not ok]
        return [f"{op.instance.label}: failed {', '.join(bad)}"] if bad else []


WORKLOADS = {
    "tables-small": lambda seed: TablesWorkload(SMALL_PRIMES, seed),
    "tables-large": lambda seed: TablesWorkload(LARGE_PRIMES, seed),
    "oracle": lambda seed: OracleWorkload(ORACLE_PRIMES, seed),
    "selfcheck": lambda seed: SelfcheckWorkload(SELFCHECK_PRIME, seed),
}
