"""Record the generate_table output that the table workloads compare against.

Run from the repository root:  python3 perfbench/make_snapshot.py

Writes perfbench/snapshot.json: for every table and prime of tables-small and
tables-large, each row's label, root level, solvability kind and rendered
condition texts.  A table that stops at quotient_structure's enumeration
bound is regenerated with the bound lifted and listed under "bound_lifted",
so that a later fix of the bound is still checked byte for byte.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from galemb import extension, obstructions  # noqa: E402

import workloads  # noqa: E402

LIFTED_BOUND = 10**9


def generate(table: int, p: int) -> tuple[list, bool]:
    try:
        return obstructions.generate_table(table, p), False
    except extension.ExtensionError as exc:
        if "enumeration bound" not in str(exc):
            raise
    original = extension.quotient_structure
    extension.quotient_structure = functools.partial(original, bound=LIFTED_BOUND)
    try:
        return obstructions.generate_table(table, p), True
    finally:
        extension.quotient_structure = original


def main() -> int:
    tables: dict[str, dict[str, list]] = {}
    lifted = []
    for p in workloads.SMALL_PRIMES + workloads.LARGE_PRIMES:
        for t in workloads.TABLES:
            rows, was_lifted = generate(t, p)
            tables.setdefault(str(p), {})[str(t)] = workloads.snapshot_rows(rows)
            if was_lifted:
                lifted.append({"table": t, "p": p})
    lines = ['{"bound_lifted": ' + json.dumps(lifted) + ',', '"tables": {']
    for i, (p, by_table) in enumerate(tables.items()):
        lines.append(f'"{p}": {{')
        for j, (t, rows) in enumerate(by_table.items()):
            lines.append(f'"{t}": [')
            lines += [json.dumps(row) + ("," if k + 1 < len(rows) else "")
                      for k, row in enumerate(rows)]
            lines.append("]" + ("," if j + 1 < len(by_table) else ""))
        lines.append("}" + ("," if i + 1 < len(tables) else ""))
    lines.append("}}")
    workloads.SNAPSHOT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {workloads.SNAPSHOT.name}: {sum(len(r) for t in tables.values() for r in t.values())} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
