"""Obstruction condition sets for the catalog's central embedding problems.

The core operation turns the extracted (n_i, m_i, d_ij) of an abelian-quotient
problem with kernel mu_p into the product

    prod_i (a_i, zeta_{p^{n_i}}^{m_i}; zeta) * prod_{i<j} (a_j, a_i; zeta)^{d_ij},

normalized against the assumed root level N (sub-level root factors vanish
under that normalization), plus one cyclic-realizability condition
(a_i, zeta_{p^N}; zeta) for each quotient factor with n_i = N + 1.  Pullback
problems (two disjoint order-p kernels) take the union of their two kernel
projections; homocyclic problems with kernel mu_{p^n}, n >= 2, use the same
shape of product at torsion p^n.  Two alternative assembly routes (splitting
off direct factors, and the elementary-abelian product formula) are provided
as cross-checks and must normalize to the same conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import extension, groups
from .catalog import GroupInstance, enumerate_instances, gold_row
from .extension import EmbeddingProblemSpec, ExtensionParams
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
class ResidualProblem:
    """Unevaluated restricted problem left over by a direct-factor split."""

    spec: EmbeddingProblemSpec
    indices: tuple[int, ...]  # positions (0-based) of the surviving pre-images


@dataclass(frozen=True)
class ObstructionResult:
    conditions: tuple[Condition, ...]
    root_level: int
    torsion_level: int
    solvability_kind: str  # "proper" | "weak"
    residuals: tuple[ResidualProblem, ...] = field(default=())

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


def _kernel_expression(params: ExtensionParams, level: int) -> BrauerExpression:
    """The raw product of the kernel formula, before normalization."""
    expr = one()
    for i, (ni, mi) in enumerate(zip(params.n, params.m), start=1):
        if mi:
            expr = expr * symbol({f"a{i}": 1}, {root_label(ni): mi}, level)
    for i in range(params.t):
        for j in range(i + 1, params.t):
            dij = params.d[i][j]
            if dij:
                expr = expr * symbol({f"a{j + 1}": 1}, {f"a{i + 1}": 1}, level, exponent=dij)
    return expr


def _realizability_conditions(n: tuple[int, ...], basis: SymbolBasis) -> list[Condition]:
    out = []
    for i, ni in enumerate(n, start=1):
        if ni == basis.root_level + 1:
            raw = symbol({f"a{i}": 1}, {root_label(basis.root_level): 1}, basis.torsion_level)
            out.append(Condition(raw=raw, normal=normalize(raw, basis),
                                 origin=f"cyclic-realizability a{i}"))
        elif ni > basis.root_level + 1:
            raise ObstructionError(
                f"factor level p^{ni} needs at least zeta_{{p^{ni - 1}}} in the base field"
            )
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


def obstruction_abelian(spec: EmbeddingProblemSpec) -> ObstructionResult:
    """Conditions for a single order-p kernel under an abelian quotient."""
    if spec.kernel_level != 1:
        raise ObstructionError("order-p kernel expected; use obstruction_mu_pn for higher levels")
    if len(spec.kernel_names) != 1:
        raise ObstructionError("single kernel expected; use obstruction_pullback")
    n = extension.quotient_structure(spec)
    minimal = extension.minimal_root_level(spec, n)
    if spec.root_level < minimal:
        raise ObstructionError(
            f"root level {spec.root_level} below the minimal level {minimal}"
        )
    basis = basis_for(spec)
    conditions = [kernel_condition(spec, 0, n=n)]
    conditions += _realizability_conditions(n, basis)
    return ObstructionResult(
        conditions=_dedupe(conditions),
        root_level=spec.root_level,
        torsion_level=1,
        solvability_kind="proper",  # order-p kernels: weak solvability is proper
    )


def kernel_condition(spec: EmbeddingProblemSpec, kernel_index: int,
                     n: tuple[int, ...] | None = None) -> Condition:
    """The kernel-formula condition of one kernel projection."""
    basis = basis_for(spec)
    params = extension.extract_params(spec, kernel_index, n=n)
    raw = _kernel_expression(params, spec.kernel_level)
    return Condition(raw=raw, normal=normalize(raw, basis),
                     origin=f"kernel {spec.kernel_names[kernel_index]}")


def obstruction_pullback(spec: EmbeddingProblemSpec) -> ObstructionResult:
    """Union of the two kernel projections for a two-kernel (pullback) problem."""
    if len(spec.kernel_names) != 2:
        raise ObstructionError("pullback problems need exactly two kernels")
    n = extension.quotient_structure(spec)
    if spec.root_level < extension.minimal_root_level(spec, n):
        raise ObstructionError("root level below the minimal level")
    basis = basis_for(spec)
    conditions = [kernel_condition(spec, k, n=n) for k in range(len(spec.kernel_names))]
    conditions += _realizability_conditions(n, basis)
    return ObstructionResult(
        conditions=_dedupe(conditions),
        root_level=spec.root_level,
        torsion_level=1,
        solvability_kind="proper",
    )


def obstruction_mu_pn(spec: EmbeddingProblemSpec) -> ObstructionResult:
    """Single condition at torsion p^n for a cyclic kernel of order p^n, n >= 2,
    under a homocyclic quotient (C_{p^n})^m."""
    if spec.kernel_level < 2 or len(spec.kernel_names) != 1:
        raise ObstructionError("cyclic kernel of order p^n with n >= 2 expected")
    if spec.root_level < spec.kernel_level:
        raise ObstructionError("root level below the kernel level")
    n = extension.quotient_structure(spec)
    if any(ni != spec.kernel_level for ni in n):
        raise ObstructionError(
            f"quotient is not homocyclic of exponent p^{spec.kernel_level}: levels {n}"
        )
    basis = basis_for(spec)
    params = extension.extract_params(spec, 0, n=n)
    raw = _kernel_expression(params, spec.kernel_level)
    conditions = _dedupe([Condition(raw=raw, normal=normalize(raw, basis),
                                    origin=f"kernel {spec.kernel_names[0]}")])
    proper = extension.frattini_contains_kernel(spec.presentation, spec.kernel_names)
    return ObstructionResult(
        conditions=conditions,
        root_level=spec.root_level,
        torsion_level=spec.kernel_level,
        solvability_kind="proper" if proper else "weak",
    )


def elementary_abelian_obstruction(spec: EmbeddingProblemSpec,
                                   kernel_index: int = 0) -> ObstructionResult:
    """The product formula for (C_p)^t quotients, assembled factor by factor:
    prod (a_i, zeta; zeta)^{m_i} prod_{i<j} (a_j, a_i; zeta)^{d_ij}.
    Must agree with the kernel condition of the general formula whenever all
    n_i = 1; applies to one kernel projection of a pullback as well."""
    if spec.kernel_level != 1:
        raise ObstructionError("order-p kernel expected")
    n = extension.quotient_structure(spec)
    if any(ni != 1 for ni in n):
        raise ObstructionError(f"quotient is not elementary abelian: levels {n}")
    basis = basis_for(spec)
    params = extension.extract_params(spec, kernel_index, n=n)
    expr = one()
    for i, mi in enumerate(params.m, start=1):
        if mi:
            expr = expr * symbol({f"a{i}": 1}, {"z": 1}, 1, exponent=mi)
    for i in range(params.t):
        for j in range(i + 1, params.t):
            if params.d[i][j]:
                expr = expr * symbol({f"a{j + 1}": 1}, {f"a{i + 1}": 1}, 1,
                                     exponent=params.d[i][j])
    conditions = _dedupe([Condition(raw=expr, normal=normalize(expr, basis),
                                    origin=f"kernel {spec.kernel_names[kernel_index]}")])
    return ObstructionResult(conditions=conditions, root_level=spec.root_level,
                             torsion_level=1, solvability_kind="proper")


# ---------------------------------------------------------------------------
# direct-factor / direct-product splitting (alternative assembly routes)


def split_direct_factor(spec: EmbeddingProblemSpec, factor_index: int,
                        kernel_index: int = 0) -> tuple[ResidualProblem, BrauerExpression]:
    """Split a C_p direct factor (pre-image t = s_{factor_index}) off the quotient.

    Returns the restricted problem on the remaining pre-images plus the symbol
    factor (b, zeta^j prod a_i^{d_i}; zeta) with t^p = zeta^j and
    t s_i = zeta^{d_i} s_i t.
    """
    P = spec.presentation
    n = extension.quotient_structure(spec)
    if n[factor_index] != 1:
        raise ObstructionError("no direct C_p complement at this index: factor level exceeds p")
    eps = spec.kernel_names[kernel_index]
    complement = frozenset(k for idx, k in enumerate(spec.kernel_names) if idx != kernel_index)
    t_el = spec.preimages[factor_index]
    j = groups.central_log(P, groups.pow_element(P, t_el, P.p), eps, complement)
    right: dict[str, int] = {}
    if j:
        right["z"] = j
    for i, si in enumerate(spec.preimages):
        if i == factor_index:
            continue
        # t s_i = s_i t [t, s_i]
        di = groups.central_log(P, groups.commutator(P, t_el, si), eps, complement)
        if di:
            right[f"a{i + 1}"] = right.get(f"a{i + 1}", 0) + di
    expr = symbol({f"a{factor_index + 1}": 1}, right, 1) if right else one()
    rest = tuple(i for i in range(len(spec.preimages)) if i != factor_index)
    return ResidualProblem(spec=spec, indices=rest), expr


def split_direct_product(spec: EmbeddingProblemSpec, left: tuple[int, ...],
                         right: tuple[int, ...], kernel_index: int = 0,
                         ) -> tuple[ResidualProblem, ResidualProblem, BrauerExpression]:
    """Cross terms prod (b_j, a_i; zeta)^{d_ij} for a bipartition of quotient
    factors (possibly of a restricted problem), plus the two residual handles."""
    if set(left) & set(right):
        raise ObstructionError("bipartition parts overlap")
    if not set(left) or not set(right):
        raise ObstructionError("both bipartition parts must be nonempty")
    if not (set(left) | set(right)) <= set(range(len(spec.preimage_names))):
        raise ObstructionError("bipartition indices out of range")
    expr = one()
    for i in left:
        for j in right:
            dij = extension.commutator_log(spec, kernel_index, j, i)
            if dij:
                expr = expr * symbol({f"a{j + 1}": 1}, {f"a{i + 1}": 1}, 1, exponent=dij)
    return (
        ResidualProblem(spec=spec, indices=tuple(sorted(left))),
        ResidualProblem(spec=spec, indices=tuple(sorted(right))),
        expr,
    )


def _cyclic_residual_expression(spec: EmbeddingProblemSpec, index: int,
                                kernel_index: int) -> BrauerExpression:
    """A single cyclic factor contributes (a_i, zeta_{p^{n_i}}^{m_i}; zeta)."""
    P = spec.presentation
    n = extension.quotient_structure(spec)
    eps = spec.kernel_names[kernel_index]
    complement = frozenset(k for idx, k in enumerate(spec.kernel_names) if idx != kernel_index)
    mi = groups.central_log(
        P, groups.pow_element(P, spec.preimages[index], P.p ** n[index]), eps, complement
    )
    if not mi:
        return one()
    return symbol({f"a{index + 1}": 1}, {root_label(n[index]): mi}, 1)


def recursive_split_expression(spec: EmbeddingProblemSpec, kernel_index: int = 0,
                               indices: tuple[int, ...] | None = None) -> BrauerExpression:
    """Full recursive split of the quotient into cyclic factors: cross terms at
    each bipartition plus the evaluated cyclic residuals.  Normalizes equal to
    the kernel condition of the direct formula."""
    if indices is None:
        indices = tuple(range(len(spec.preimage_names)))
    if len(indices) == 1:
        return _cyclic_residual_expression(spec, indices[0], kernel_index)
    head, rest = indices[0], indices[1:]
    _, _, cross = split_direct_product(spec, (head,), rest, kernel_index)
    return (
        _cyclic_residual_expression(spec, head, kernel_index)
        * cross
        * recursive_split_expression(spec, kernel_index, rest)
    )


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
    spec = spec_for_instance(inst, root_level)
    if spec.kernel_level >= 2:
        return obstruction_mu_pn(spec)
    if len(spec.kernel_names) == 2:
        return obstruction_pullback(spec)
    return obstruction_abelian(spec)


@dataclass(frozen=True)
class RowResult:
    instance: GroupInstance
    result: ObstructionResult
    gold_root_level: int
    minimal_root_level: int
    gold_normal_forms: frozenset
    match: bool

    @property
    def label(self) -> str:
        return self.instance.label


def generate_table(table_id: int, p: int, gold_path: str | None = None) -> list[RowResult]:
    """Engine rows for one table at prime p, each compared against its gold row."""
    if table_id not in range(1, 7):
        raise ObstructionError(f"no table {table_id}")
    out = []
    for inst in enumerate_instances(p, table=table_id):
        row = gold_row(inst, gold_path)
        spec = spec_for_instance(inst, row.root_level)
        result = obstruction_for_instance(inst, row.root_level)
        basis = basis_for(spec)
        gold_nfs = frozenset(normalize(e, basis) for e in row.obstructions)
        engine_nfs = frozenset(c.normal for c in result.conditions)
        out.append(
            RowResult(
                instance=inst,
                result=result,
                gold_root_level=row.root_level,
                minimal_root_level=extension.minimal_root_level(spec),
                gold_normal_forms=gold_nfs,
                match=(gold_nfs == engine_nfs),
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
