"""Call tracing for the benchmark's traced run.

The tracer wraps public galemb functions from outside the package.  A wrapper
is installed by function identity: every module namespace (and, for methods,
the owning class) that binds the original function object gets the wrapper,
so `normalize` is traced whether it is reached as `symbols.normalize` or as
`obstructions.normalize`.  `restore()` puts every original object back.

Functions in SPANNED record one span per call: [name, start, end, parent,
op], where parent is the index of the enclosing span (-1 at top level) and op
the id of the benchmark operation that caused it.  Functions in COUNTED are
hot inner functions: they only bump a counter, and their time is part of the
self time of the nearest spanned caller.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from time import perf_counter

PACKAGE = "galemb"

SPANNED = (
    "catalog.enumerate_instances",
    "catalog.instantiate",
    "catalog.gold_row",
    "groups.make_presentation",
    "groups.quotient_by_central",
    "groups.is_central_element",
    "groups.is_abelian_quotient",
    "groups.element_order",
    "groups.subgroup_closure",
    "groups.bulk_mul",
    "groups.cayley_table",
    "groups.associativity_exhaustive",
    "groups.associativity_random",
    "extension.quotient_structure",
    "extension.extract_params",
    "extension.minimal_root_level",
    "extension.frattini_contains_kernel",
    "symbols.parse",
    "symbols.normalize",
    "obstructions.generate_table",
    "obstructions.obstruction_for_instance",
    "obstructions.kernel_condition",
    "local_oracle.check_raw_vs_normal",
    "local_oracle.witness_nontrivial",
    "local_oracle.random_assignment",
    "local_oracle.find_suitable_ell",
)

COUNTED = (
    "groups.mul",
    "groups.inv",
    "groups.commutator",
    "groups.pow_element",
    "local_oracle.eval_symbol",
    "symbols.SymbolBasis.resolve",
    "arith.is_prime",
)


def _add(tracer: "Tracer", key: str, amount: int) -> None:
    tracer.extra[key] = tracer.extra.get(key, 0) + amount


# Per-call measurements taken from arguments or results: (tracer, args, result).
MEASURES = {
    "groups.subgroup_closure":
        lambda tr, args, res: _add(tr, "groups.subgroup_closure.elements", len(res)),
    "groups.bulk_mul":
        lambda tr, args, res: _add(tr, "groups.bulk_mul.rows", len(args[1])),
    "obstructions.generate_table":
        lambda tr, args, res: _add(tr, "obstructions.generate_table.rows", len(res)),
    "local_oracle.witness_nontrivial":
        lambda tr, args, res: _add(tr, "local_oracle.witness_nontrivial.witnesses",
                                   res is not None),
}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("groups.mul.calls", "count"),
    ("groups.inv.calls", "count"),
    ("groups.commutator.calls", "count"),
    ("groups.pow_element.calls", "count"),
    ("groups.is_central_element.calls", "count"),
    ("groups.subgroup_closure.self_s", "s"),
    ("groups.subgroup_closure.elements", "count"),
    ("extension.frattini_contains_kernel.self_s", "s"),
    ("groups.bulk_mul.calls", "count"),
    ("groups.bulk_mul.rows", "count"),
    ("groups.bulk_mul.self_s", "s"),
    ("groups.cayley_table.self_s", "s"),
    ("groups.quotient_by_central.calls", "count"),
    ("groups.make_presentation.calls", "count"),
    ("obstructions.generate_table.rows", "count"),
    ("extension.quotient_structure.calls_per_row", "calls/row"),
    ("extension.quotient_structure.self_s", "s"),
    ("extension.minimal_root_level.calls_per_row", "calls/row"),
    ("extension.minimal_root_level.self_s", "s"),
    ("extension.extract_params.calls_per_row", "calls/row"),
    ("extension.extract_params.self_s", "s"),
    ("catalog.instantiate.self_s", "s"),
    ("catalog.enumerate_instances.self_s", "s"),
    ("catalog.gold_row.self_s", "s"),
    ("symbols.parse.calls", "count"),
    ("symbols.normalize.calls", "count"),
    ("symbols.normalize.self_s", "s"),
    ("obstructions.obstruction_for_instance.total_s", "s"),
    ("obstructions.obstruction_for_instance.self_s", "s"),
    ("obstructions.generate_table.self_s", "s"),
    ("local_oracle.eval_symbol.calls", "count"),
    ("symbols.SymbolBasis.resolve.calls", "count"),
    ("local_oracle.random_assignment.calls", "count"),
    ("local_oracle.random_assignment.self_s", "s"),
    ("local_oracle.find_suitable_ell.calls", "count"),
    ("local_oracle.find_suitable_ell.self_s", "s"),
    ("arith.is_prime.calls", "count"),
    ("local_oracle.witness_nontrivial.witnesses", "count"),
    ("local_oracle.witness_nontrivial.trials_per_witness", "trials/witness"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def resolve(qualname: str):
    """(owner, attribute) for 'module.func' or 'module.Class.method' in galemb."""
    parts = qualname.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counters of one traced pass; install() ... restore()."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.extra: dict[str, int] = {}
        self.op = -1
        self.patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if measure is not None:
                measure(self, args, result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        modules = [m for m in list(sys.modules.values())
                   if isinstance(getattr(m, "__dict__", None), dict)]
        for names, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for qualname in names:
                owner, attr = resolve(qualname)
                original = vars(owner)[attr]
                wrapper = make(qualname, original)
                namespaces = [owner] if isinstance(owner, type) else modules
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            self.patches.append((ns, key, original))

    def restore(self) -> None:
        while self.patches:
            ns, key, original = self.patches.pop()
            setattr(ns, key, original)

    def write_spans(self, path) -> None:
        """Write the spans as gzip'd JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def total_times(spans) -> dict[str, float]:
    """Per name, the summed duration of spans with no ancestor of that name."""
    out: dict[str, float] = {}
    for name, start, end, parent, _ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, dict]:
    """Every PER_LAYER metric of one traced pass, as {name: {value, unit}}."""
    calls = dict(tracer.counts)
    self_s: dict[str, float] = {}
    for rec, st in zip(tracer.spans, self_times(tracer.spans)):
        calls[rec[0]] = calls.get(rec[0], 0) + 1
        self_s[rec[0]] = self_s.get(rec[0], 0.0) + st
    totals = total_times(tracer.spans)
    rows = tracer.extra.get("obstructions.generate_table.rows", 0)
    witnesses = tracer.extra.get("local_oracle.witness_nontrivial.witnesses", 0)
    trials = sum(1 for rec in tracer.spans
                 if rec[0] == "local_oracle.random_assignment" and rec[3] >= 0
                 and tracer.spans[rec[3]][0] == "local_oracle.witness_nontrivial")
    values: dict[str, float] = dict(tracer.extra)
    values["local_oracle.witness_nontrivial.trials_per_witness"] = (
        trials / witnesses if witnesses else 0.0)
    values["trace.untraced_pass_s"] = untraced_s
    values["trace.traced_pass_s"] = traced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    out = {}
    for name, unit in PER_LAYER:
        func, _, kind = name.rpartition(".")
        if name in values:
            value = values[name]
        elif kind == "calls":
            value = calls.get(func, 0)
        elif kind == "self_s":
            value = self_s.get(func, 0.0)
        elif kind == "total_s":
            value = totals.get(func, 0.0)
        elif kind == "calls_per_row":
            value = calls.get(func, 0) / rows if rows else 0.0
        else:
            value = 0
        out[name] = {"value": value, "unit": unit}
    return out
