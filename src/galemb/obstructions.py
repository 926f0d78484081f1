"""Obstruction condition sets for the catalog's central embedding problems.

One path serves every problem shape.  It reads the problem's `EmbeddingData`
record (levels n_i, per-kernel residues m_i and commutator logs d_ij, minimal
root level, solvability verdict) and turns each kernel projection into the
product

    prod_i (a_i, zeta_{p^{n_i}}^{m_i}; zeta) * prod_{i<j} (a_j, a_i; zeta)^{d_ij},

normalized against the assumed root level N (sub-level root factors vanish
under that normalization), plus one cyclic-realizability condition
(a_i, zeta_{p^N}; zeta) for each quotient factor with n_i = N + 1.  Pullback
problems (two disjoint order-p kernels) take the union of their two kernel
projections; homocyclic problems with kernel mu_{p^n}, n >= 2, give the same
shape of product at torsion p^n.  Splitting off direct factors is an
alternative assembly route, kept as a cross-check that must normalize to the
same conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import extension, groups
from .catalog import GroupInstance, enumerate_instances, gold_row
from .extension import EmbeddingData, EmbeddingProblemSpec, ExtensionParams
from .symbols import (
    BrauerExpression,
    NormalForm,
    SymbolBasis,
    normalize,
    one,
    render,
    root_label,
    symbol,
)


class ObstructionError(ValueError):
    """Problem shape outside the implemented criteria (root level too small,
    non-abelian or non-homocyclic quotient, missing direct factor...)."""


@dataclass(frozen=True)
class Condition:
    raw: BrauerExpression
    normal: NormalForm
    origin: str

    def text(self) -> str:
        return render(self.normal)


@dataclass(frozen=True)
class ObstructionResult:
    conditions: tuple[Condition, ...]
    data: EmbeddingData

    @property
    def root_level(self) -> int:
        return self.data.spec.root_level

    @property
    def torsion_level(self) -> int:
        return self.data.spec.kernel_level

    @property
    def solvability_kind(self) -> str:
        return "proper" if self.data.proper else "weak"

    def texts(self) -> list[str]:
        return [c.text() for c in self.conditions]

    def normal_forms(self) -> set[NormalForm]:
        return {c.normal for c in self.conditions}


def basis_for(spec: EmbeddingProblemSpec) -> SymbolBasis:
    return SymbolBasis(
        p=spec.presentation.p,
        labels=spec.labels(),
        root_level=spec.root_level,
        torsion_level=spec.kernel_level,
    )


def kernel_condition(spec: EmbeddingProblemSpec, params: ExtensionParams) -> Condition:
    """The kernel-formula condition of one kernel projection."""
    raw = one()
    for i, (ni, mi) in enumerate(zip(params.n, params.m), start=1):
        if mi:
            raw = raw * symbol({f"a{i}": 1}, {root_label(ni): mi}, spec.kernel_level)
    for i in range(params.t):
        for j in range(i + 1, params.t):
            dij = params.d[i][j]
            if dij:
                raw = raw * symbol({f"a{j + 1}": 1}, {f"a{i + 1}": 1}, spec.kernel_level,
                                   exponent=dij)
    return Condition(raw=raw, normal=normalize(raw, basis_for(spec)),
                     origin=f"kernel {spec.kernel_names[params.kernel_index]}")


def _realizability_conditions(n: tuple[int, ...], basis: SymbolBasis) -> list[Condition]:
    out = []
    for i, ni in enumerate(n, start=1):
        if ni == basis.root_level + 1:
            raw = symbol({f"a{i}": 1}, {root_label(basis.root_level): 1}, basis.torsion_level)
            out.append(Condition(raw=raw, normal=normalize(raw, basis),
                                 origin=f"cyclic-realizability a{i}"))
    return out


def _dedupe(conditions: list[Condition]) -> tuple[Condition, ...]:
    seen: set[NormalForm] = set()
    out = []
    for c in conditions:
        if c.normal.is_zero() or c.normal in seen:
            continue
        seen.add(c.normal)
        out.append(c)
    return tuple(out)


def obstruction(spec: EmbeddingProblemSpec) -> ObstructionResult:
    """Conditions of any catalog shape: one kernel condition per projection,
    plus cyclic realizability for order-p kernels.  A kernel mu_{p^n}, n >= 2,
    needs a homocyclic quotient (C_{p^n})^t."""
    data = extension.embedding_data(spec)
    if spec.kernel_level >= 2 and any(ni != spec.kernel_level for ni in data.n):
        raise ObstructionError(
            f"quotient is not homocyclic of exponent p^{spec.kernel_level}: levels {data.n}"
        )
    if spec.root_level < data.minimal_root_level:
        raise ObstructionError(
            f"root level {spec.root_level} below the minimal level {data.minimal_root_level}"
        )
    conditions = [kernel_condition(spec, params) for params in data.params]
    if spec.kernel_level == 1:
        conditions += _realizability_conditions(data.n, basis_for(spec))
    return ObstructionResult(conditions=_dedupe(conditions), data=data)


# ---------------------------------------------------------------------------
# direct-factor / direct-product splitting (alternative assembly routes)


def split_direct_factor(spec: EmbeddingProblemSpec, factor_index: int,
                        kernel_index: int = 0) -> tuple[tuple[int, ...], BrauerExpression]:
    """Split a C_p direct factor (pre-image t = s_{factor_index}) off the quotient.

    Returns the positions (0-based) of the remaining pre-images plus the symbol
    factor (b, zeta^j prod a_i^{d_i}; zeta) with t^p = zeta^j and
    t s_i = zeta^{d_i} s_i t.
    """
    P = spec.presentation
    n = extension.quotient_structure(spec)
    if n[factor_index] != 1:
        raise ObstructionError("no direct C_p complement at this index: factor level exceeds p")
    t_el = spec.preimages[factor_index]
    j = spec.kernel_log(groups.pow_element(P, t_el, P.p), kernel_index)
    right: dict[str, int] = {}
    if j:
        right["z"] = j
    for i, si in enumerate(spec.preimages):
        if i == factor_index:
            continue
        # t s_i = s_i t [t, s_i]
        di = spec.kernel_log(groups.commutator(P, t_el, si), kernel_index)
        if di:
            right[f"a{i + 1}"] = right.get(f"a{i + 1}", 0) + di
    expr = symbol({f"a{factor_index + 1}": 1}, right, 1) if right else one()
    rest = tuple(i for i in range(len(spec.preimages)) if i != factor_index)
    return rest, expr


def split_direct_product(spec: EmbeddingProblemSpec, left: tuple[int, ...],
                         right: tuple[int, ...], kernel_index: int = 0,
                         ) -> tuple[tuple[int, ...], tuple[int, ...], BrauerExpression]:
    """Cross terms prod (b_j, a_i; zeta)^{d_ij} for a bipartition of quotient
    factors (possibly of a restricted problem), plus the two parts, sorted."""
    if set(left) & set(right):
        raise ObstructionError("bipartition parts overlap")
    if not set(left) or not set(right):
        raise ObstructionError("both bipartition parts must be nonempty")
    if not (set(left) | set(right)) <= set(range(len(spec.preimage_names))):
        raise ObstructionError("bipartition indices out of range")
    P = spec.presentation
    s = spec.preimages
    expr = one()
    for i in left:
        for j in right:
            dij = spec.kernel_log(groups.commutator(P, s[j], s[i]), kernel_index)
            if dij:
                expr = expr * symbol({f"a{j + 1}": 1}, {f"a{i + 1}": 1}, 1, exponent=dij)
    return tuple(sorted(left)), tuple(sorted(right)), expr


def _cyclic_residual_expression(spec: EmbeddingProblemSpec, n: tuple[int, ...], index: int,
                                kernel_index: int) -> BrauerExpression:
    """A single cyclic factor contributes (a_i, zeta_{p^{n_i}}^{m_i}; zeta)."""
    P = spec.presentation
    mi = spec.kernel_log(groups.pow_element(P, spec.preimages[index], P.p ** n[index]),
                         kernel_index)
    if not mi:
        return one()
    return symbol({f"a{index + 1}": 1}, {root_label(n[index]): mi}, 1)


def recursive_split_expression(spec: EmbeddingProblemSpec, kernel_index: int = 0,
                               indices: tuple[int, ...] | None = None) -> BrauerExpression:
    """Full recursive split of the quotient into cyclic factors: at each step
    the head's cyclic residual and its cross terms with the rest, then the
    split of the rest.  Normalizes equal to the kernel condition of the direct
    formula."""
    n = extension.quotient_structure(spec)
    if indices is None:
        indices = tuple(range(len(n)))
    expr = one()
    for pos, head in enumerate(indices):
        expr = expr * _cyclic_residual_expression(spec, n, head, kernel_index)
        rest = indices[pos + 1:]
        if rest:
            _, _, cross = split_direct_product(spec, (head,), rest, kernel_index)
            expr = expr * cross
    return expr


# ---------------------------------------------------------------------------
# catalog-level drivers


def spec_for_instance(inst: GroupInstance, root_level: int | None = None) -> EmbeddingProblemSpec:
    if root_level is None:
        root_level = gold_row(inst).root_level
    return EmbeddingProblemSpec(
        presentation=inst.presentation,
        kernel_names=inst.kernels,
        kernel_level=inst.kernel_level,
        preimage_names=inst.preimages,
        root_level=root_level,
    )


def obstruction_for_instance(inst: GroupInstance, root_level: int | None = None) -> ObstructionResult:
    """`obstruction` of a catalog instance; errors name the instance and p."""
    try:
        return obstruction(spec_for_instance(inst, root_level))
    except (extension.ExtensionError, ObstructionError) as exc:
        raise type(exc)(f"{inst.label} p={inst.p}: {exc}") from exc


@dataclass(frozen=True)
class RowResult:
    instance: GroupInstance
    result: ObstructionResult
    gold_root_level: int
    gold_normal_forms: frozenset
    match: bool

    @property
    def label(self) -> str:
        return self.instance.label

    @property
    def minimal_root_level(self) -> int:
        return self.result.data.minimal_root_level


def generate_table(table_id: int, p: int, gold_path: str | None = None) -> list[RowResult]:
    """Engine rows for one table at prime p, each compared against its gold row."""
    if table_id not in range(1, 7):
        raise ObstructionError(f"no table {table_id}")
    out = []
    for inst in enumerate_instances(p, table=table_id):
        row = gold_row(inst, gold_path)
        result = obstruction_for_instance(inst, row.root_level)
        basis = basis_for(result.data.spec)
        gold_nfs = frozenset(normalize(e, basis) for e in row.obstructions)
        out.append(
            RowResult(
                instance=inst,
                result=result,
                gold_root_level=row.root_level,
                gold_normal_forms=gold_nfs,
                match=(gold_nfs == result.normal_forms()),
            )
        )
    return out


@dataclass(frozen=True)
class TableDiff:
    table_id: int
    p: int
    rows: tuple[RowResult, ...]

    @property
    def mismatches(self) -> tuple[RowResult, ...]:
        return tuple(r for r in self.rows if not r.match)


def compare_gold(table_id: int, p: int, gold_path: str | None = None) -> TableDiff:
    return TableDiff(table_id=table_id, p=p,
                     rows=tuple(generate_table(table_id, p, gold_path)))


def all_tables(p: int, gold_path: str | None = None) -> list[TableDiff]:
    return [compare_gold(t, p, gold_path) for t in range(1, 7)]
