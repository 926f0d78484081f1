"""Obstruction condition sets for the catalog's central embedding problems.

One path serves every problem shape.  It reads the data that the problem's
`EmbeddingProblemSpec` computed when it was built (levels n_i, per-kernel
residues m_i and commutator logs d_ij, minimal root level, solvability
verdict) and turns each kernel projection into the product

    prod_i (a_i, zeta_{p^{n_i}}^{m_i}; zeta) * prod_{i<j} (a_j, a_i; zeta)^{d_ij},

in normal form against the assumed root level N (sub-level root factors
vanish there), plus one cyclic-realizability condition (a_i, zeta_{p^N}; zeta)
for each quotient factor with n_i = N + 1.  N only fixes the basis: the
caller passes it to `obstruction`, and a catalog instance's defaults to the
problem's minimal root level.  Every caller shares one `SymbolBasis` per
shape (p, t, N, n).  `generate_table` is `obstruction` at the gold row's
level plus the comparison with the gold row, the only place gold rows are
read.  Each normal form is written
straight from (n, m, d); the raw product is built only when a check asks for
`Condition.raw`, and `normalize` serves the gold rows alone.  Pullback
problems (two disjoint order-p kernels) take the union of their two kernel
projections; homocyclic problems with kernel mu_{p^n}, n >= 2, give the same
shape of product at torsion p^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import extension
from .catalog import GroupInstance, enumerate_instances, gold_row
from .extension import EmbeddingProblemSpec, ExtensionParams
from .symbols import (
    BasisError,
    BrauerExpression,
    ExpressionError,
    NormalForm,
    SymbolBasis,
    SymbolFactor,
    normalize,
    render,
    root_label,
    symbol,
)


class ObstructionError(ValueError):
    """Problem shape outside the implemented criteria (root level too small,
    non-homocyclic quotient, no such table...)."""


@dataclass(frozen=True)
class Condition:
    normal: NormalForm
    origin: str
    # what `raw` is built from: a kernel projection's (n, m, d), or the label
    # of a cyclic-realizability condition
    source: ExtensionParams | str

    @cached_property
    def raw(self) -> BrauerExpression:
        """The unnormalized product that `normal` stands for, built on first
        access: the row path reads the normal form only.  A kernel
        projection's d gives one factor (a_j, a_i)^{d_ij} per triple
        (i, j, d_ij)."""
        basis = self.normal.basis
        if isinstance(self.source, str):
            return symbol({self.source: 1}, {root_label(basis.root_level): 1},
                          basis.torsion_level)
        params, level, labels = self.source, basis.torsion_level, basis.labels
        factors = [SymbolFactor(left=((label, 1),), right=((root_label(ni), mi),), exponent=1,
                                torsion_level=level)
                   for label, ni, mi in zip(labels, params.n, params.m) if mi]
        factors += [SymbolFactor(left=((labels[j], 1),), right=((labels[i], 1),),
                                 exponent=d, torsion_level=level) for i, j, d in params.d]
        return BrauerExpression(tuple(factors))

    def text(self) -> str:
        return render(self.normal)


@dataclass(frozen=True)
class ObstructionResult:
    conditions: tuple[Condition, ...]
    spec: EmbeddingProblemSpec
    basis: SymbolBasis  # every condition's, and the one a gold row normalizes against

    @property
    def root_level(self) -> int:
        return self.basis.root_level

    @property
    def torsion_level(self) -> int:
        return self.basis.torsion_level

    @property
    def solvability_kind(self) -> str:
        return "proper" if self.spec.proper else "weak"

    def texts(self) -> list[str]:
        return [c.text() for c in self.conditions]


# one basis per shape (p, number of labels, root level N, torsion level n);
# a basis is immutable, so every caller in the process shares it
_BASES: dict[tuple[int, int, int, int], SymbolBasis] = {}


def basis_for(spec: EmbeddingProblemSpec, root_level: int) -> SymbolBasis:
    """The one `SymbolBasis` of the spec's shape at root_level, built on
    first use."""
    key = (spec.presentation.p, len(spec.preimage_names), root_level, spec.kernel_level)
    basis = _BASES.get(key)
    if basis is None:
        basis = _BASES[key] = SymbolBasis(p=spec.presentation.p, labels=spec.labels(),
                                          root_level=root_level,
                                          torsion_level=spec.kernel_level)
    return basis


def kernel_condition(spec: EmbeddingProblemSpec, params: ExtensionParams,
                     basis: SymbolBasis) -> Condition:
    """The kernel-formula condition of one kernel projection, in the spec's
    basis, written straight from (n, m, d) at root level N:
    (a_i, zeta_{p^{n_i}}^{m_i}) is the number -m_i p^(N-n_i) at (z, a_i),
    p^(N-n_i) being `SymbolBasis.root_weight`(n_i), and (a_j, a_i)^{d_ij} is
    -d_ij at (a_i, a_j), one entry per triple (i, j, d_ij) of d; residues
    that vanish mod p^n are left out, and d holds no such d_ij."""
    torsion = basis.torsion
    entries = [(0, i, c) for i, (ni, mi) in enumerate(zip(params.n, params.m), start=1)
               if mi and (c := -mi * basis.root_weight(ni) % torsion)]
    entries += [(i + 1, j + 1, -d % torsion) for i, j, d in params.d]
    return Condition(normal=NormalForm(basis, tuple(entries)),
                     origin=f"kernel {spec.kernel_names[params.kernel_index]}", source=params)


def _realizability_conditions(n: tuple[int, ...], basis: SymbolBasis) -> list[Condition]:
    """(a_i, zeta_{p^N}; zeta), -1 at (z, a_i), for each factor with n_i = N + 1."""
    return [Condition(normal=NormalForm(basis, ((0, i, basis.torsion - 1),)),
                      origin=f"cyclic-realizability {label}", source=label)
            for i, (label, ni) in enumerate(zip(basis.labels, n), start=1)
            if ni == basis.root_level + 1]


def _dedupe(conditions: list[Condition]) -> tuple[Condition, ...]:
    """The nonzero conditions, each normal form once; all are in one basis,
    so their entries tell them apart."""
    seen: set = set()
    out = []
    for c in conditions:
        entries = c.normal.entries
        if entries and entries not in seen:
            seen.add(entries)
            out.append(c)
    return tuple(out)


def obstruction(spec: EmbeddingProblemSpec, root_level: int) -> ObstructionResult:
    """Conditions of any catalog shape at the assumed root level: one kernel
    condition per projection, plus cyclic realizability for order-p kernels.
    A kernel mu_{p^n}, n >= 2, needs a homocyclic quotient (C_{p^n})^t, and
    a root level below the minimal one is an error."""
    if spec.kernel_level >= 2 and any(ni != spec.kernel_level for ni in spec.n):
        raise ObstructionError(
            f"quotient is not homocyclic of exponent p^{spec.kernel_level}: levels {spec.n}"
        )
    if root_level < spec.minimal_root_level:
        raise ObstructionError(
            f"root level {root_level} below the minimal level {spec.minimal_root_level}"
        )
    basis = basis_for(spec, root_level)
    conditions = [kernel_condition(spec, params, basis) for params in spec.params]
    if spec.kernel_level == 1:
        conditions += _realizability_conditions(spec.n, basis)
    return ObstructionResult(conditions=_dedupe(conditions), spec=spec, basis=basis)


# ---------------------------------------------------------------------------
# catalog-level drivers


def spec_for_instance(inst: GroupInstance) -> EmbeddingProblemSpec:
    return EmbeddingProblemSpec(
        presentation=inst.presentation,
        kernel_names=inst.kernels,
        kernel_level=inst.kernel_level,
        preimage_names=inst.preimages,
    )


def _named(inst: GroupInstance, exc: Exception) -> Exception:
    """exc's type, with its message prefixed by the instance and p."""
    return type(exc)(f"{inst.label} p={inst.p}: {exc}")


def obstruction_for_instance(inst: GroupInstance, root_level: int | None = None) -> ObstructionResult:
    """`obstruction` of a catalog instance at root_level, by default the
    problem's minimal one; errors name the instance and p."""
    try:
        spec = spec_for_instance(inst)
        return obstruction(spec, spec.minimal_root_level if root_level is None else root_level)
    except (extension.ExtensionError, ObstructionError) as exc:
        raise _named(inst, exc) from exc


@dataclass(frozen=True)
class RowResult:
    instance: GroupInstance
    result: ObstructionResult
    gold_root_level: int
    match: bool

    @property
    def label(self) -> str:
        return self.instance.label

    @property
    def minimal_root_level(self) -> int:
        return self.result.spec.minimal_root_level

    @property
    def faults(self) -> list[str]:
        """The gold checks the row fails: its conditions, then its minimal
        root level against the gold one."""
        faults = [] if self.match else ["conditions differ"]
        if self.minimal_root_level != self.gold_root_level:
            faults.append(f"minimal root level {self.minimal_root_level} != {self.gold_root_level}")
        return faults

    @property
    def ok(self) -> bool:
        """The row's verdict: no gold check fails."""
        return not self.faults


def generate_table(table_id: int, p: int, gold_path: str | None = None) -> list[RowResult]:
    """Engine rows for one table at prime p, each compared against its gold row.

    A row is `obstruction` at its gold root level, or at the minimal level
    where the gold level lies below it: that row's verdict fails, and the
    rows after it are still computed.  Each row binds its gold row, then
    runs the engine, then normalizes the gold conditions against the
    result's basis, and an error names the row."""
    if table_id not in range(1, 7):
        raise ObstructionError(f"no table {table_id}")
    out = []
    for inst in enumerate_instances(p, table=table_id):
        row = gold_row(inst, gold_path)
        try:
            spec = spec_for_instance(inst)
            result = obstruction(spec, max(row.root_level, spec.minimal_root_level))
            # gold and engine forms share one basis: their entries decide
            gold = {normalize(e, result.basis).entries for e in row.obstructions}
        except (extension.ExtensionError, ObstructionError, ExpressionError, BasisError) as exc:
            raise _named(inst, exc) from exc
        out.append(RowResult(instance=inst, result=result, gold_root_level=row.root_level,
                             match=gold == {c.normal.entries for c in result.conditions}))
    return out
