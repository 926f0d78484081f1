"""Independent numeric check of symbol identities via tame symbols over Q_ell.

An assignment maps each basis symbol to an element of Q_ell^x recorded as a
(valuation, unit residue) pair, for a prime ell = 1 mod p^n.  The tame symbol

    c = (-1)^{v(x) v(y)} x^{v(y)} y^{-v(x)}  mod ell

composed with the power-residue map c -> c^{(ell-1)/p^n} lands in the order
p^n subgroup of F_ell^x, and its discrete log against a fixed order-p^n
element gives the symbol's value in Z/p^n.  The map is bilinear and
alternating by construction, so every formal rewriting rule the normalizer
uses must be invisible to it: a single disagreement between an expression and
its normal form is a hard failure of the symbol engine.

For odd p the sign (-1)^{v(x) v(y)} cannot change a value: ell - 1 is even
and p^n odd, so (ell-1)/p^n is even and the power-residue map sends -1 to 1.
The scalar reference keeps the sign of the standard formula; the form drops it.

The root basis symbol is pinned to valuation 0 and a unit of exact order p^N,
which requires ell = 1 mod p^N.  Labels are evaluated here, not through the
normalizer's `SymbolBasis.resolve`, so a fault there shows as a disagreement:
a label reads its own column of the assignment, a lower root zeta_{p^K} the
root's value to the power p^(N-K).

Every check evaluates over one prime, the least ell with v_p(ell-1) = N
exactly.  There the root's power residue zeta^{(ell-1)/p^n} has full order
p^n for every n <= N.  Where p^(N+1) divides ell - 1 it is a p-th power in
mu_{p^n}, so a root entry (a, zeta_{p^N}) only takes values divisible by p:
at torsion p it reads 0 on every row.

The checks read assignments in the log domain, over Python ints.  A row
gives each label a valuation v_i and a unit log L_i, its unit being g^(L_i)
for the least primitive root g mod ell; the root column has v = 0 and log
r = (ell-1)/p^N, a unit mod p since v_p(ell-1) = N.  Against zeta_{p^n} =
g^((ell-1)/p^n) the symbol (x, y) reads v(y) L(x) - v(x) L(y) mod p^n,
where v(x) = x.V and L(x) = x.L for x's exponent vector over the columns,
so a product of symbols (x_f, y_f)^{w_f} is the alternating form

    V^T M L,   M = sum_f w_f (y_f x_f^T - x_f y_f^T)  mod p^n,

one (t+1) x (t+1) matrix per check, however many factors the product has.
Two sides are compared through their difference form: it is zero mod p^n
iff every row reads 0, so the check decides equality from M alone.  A
nonzero M has a witness row read off it in closed form, over the least
ell: with a_i = ell (v = 1, L = 0) and every other label 1 (v = 0, L = 0)
the row reads M[i][0] r, nonzero wherever M[i][0] is, since r is a unit;
where the root column of M is zero, a_j = g (L = 1) as well makes it read
M[i][j].  A zero M has no witness, and no ell is picked.  The scalar
`eval_symbol` / `eval_expression` / `eval_normal_form` evaluate each symbol
on its own, with its own power residue and discrete log: they are the
reference the form and its witnesses are tested against.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import is_prime, smallest_primitive_root
from .symbols import BrauerExpression, Monomial, NormalForm, SymbolBasis


class OracleError(ValueError):
    """Degenerate assignment, unbound label or unsuitable evaluation prime."""


@dataclass(frozen=True)
class LocalAssignment:
    ell: int
    zeta_base: int  # multiplicative order p^n mod ell, p^n the basis torsion
    values: tuple[tuple[str, tuple[int, int]], ...]  # label -> (valuation, unit)

    def value_of(self, label: str) -> tuple[int, int]:
        for name, pair in self.values:
            if name == label:
                return pair
        raise OracleError(f"assignment has no value for {label!r}")


@lru_cache(maxsize=256)
def find_suitable_ell(p: int, level: int) -> int:
    """The least prime ell with v_p(ell - 1) = level exactly.  One exists by
    Dirichlet's theorem, since such ell are the primes = 1 + p^level mod
    p^(level+1).  `is_prime` is exact below 3.3 * 10^24 and a strong
    probable-prime test above."""
    modulus = p**level
    for ell in itertools.count(modulus + 1, modulus):
        if (ell - 1) // modulus % p and is_prime(ell):
            return ell


@lru_cache(maxsize=64)
def _primitive_root(ell: int, p: int) -> int:
    """The least primitive root mod a prime ell = 1 mod p, p divided out of
    ell - 1 first: for the least ell = 1 + k p^N, k is small, and trial
    division up to p would take ~p steps once N >= 2."""
    return smallest_primitive_root(ell, known=(p,))


@lru_cache(maxsize=64)
def _dlog_table(ell: int, base: int, order: int) -> dict[int, int]:
    table = {}
    acc = 1
    for k in range(order):
        table[acc] = k
        acc = acc * base % ell
    return table


def _bind(exp: int | Fraction, torsion: int) -> int:
    """An exponent as a residue mod p^n; a fraction num/den is num * den^-1."""
    if isinstance(exp, int):
        return exp % torsion
    if math.gcd(exp.denominator, torsion) != 1:
        raise OracleError(f"exponent {exp} has no value mod {torsion}")
    return exp.numerator * pow(exp.denominator, -1, torsion) % torsion


def _slot(basis: SymbolBasis, label: str) -> tuple[int, int]:
    """The assignment column a label reads, and the power of that column's
    value it stands for: a label is its own column (a_i is column i in
    every engine basis), and z_K = zeta_{p^K} is z^(p^(N-K)) on the root
    column 0."""
    if label in basis.labels:
        return basis.labels.index(label) + 1, 1
    level = label[1:] or "1"
    if label[:1] != "z" or not level.isdigit() or int(level) > basis.root_level:
        raise OracleError(f"label {label!r} has no value in an assignment for {basis}")
    return 0, basis.p ** (basis.root_level - int(level))


def _monomial_value(basis: SymbolBasis, assignment: LocalAssignment, mono: Monomial) -> tuple[int, int]:
    ell = assignment.ell
    names = ("z",) + basis.labels
    val = 0
    unit = 1
    for label, exp in mono.items():
        col, weight = _slot(basis, label)
        e = _bind(exp, basis.torsion) * weight
        v, u = assignment.value_of(names[col])
        val += e * v
        unit = unit * pow(u, e % (ell - 1), ell) % ell
    return val, unit


def eval_symbol(left: Monomial, right: Monomial, assignment: LocalAssignment,
                basis: SymbolBasis) -> int:
    """Tame-symbol value of (left, right) in Z/p^n."""
    ell = assignment.ell
    vx, ux = _monomial_value(basis, assignment, left)
    vy, uy = _monomial_value(basis, assignment, right)
    if ux % ell == 0 or uy % ell == 0:
        raise OracleError("degenerate assignment: zero residue")
    sign = ell - 1 if (vx * vy) % 2 else 1
    c = sign * pow(ux, vy % (ell - 1), ell) * pow(uy, (-vx) % (ell - 1), ell) % ell
    torsion = basis.torsion
    t = pow(c, (ell - 1) // torsion, ell)
    table = _dlog_table(ell, assignment.zeta_base, torsion)
    if t not in table:
        raise OracleError("tame value outside the expected root-of-unity subgroup")
    return table[t]


def eval_expression(expr: BrauerExpression, assignment: LocalAssignment,
                    basis: SymbolBasis) -> int:
    total = 0
    for f in expr.factors:
        w = _bind(f.exponent, basis.torsion)
        total += w * eval_symbol(f.left_mono(), f.right_mono(), assignment, basis)
    return total % basis.torsion


def eval_normal_form(nf: NormalForm, assignment: LocalAssignment) -> int:
    basis = nf.basis
    total = 0
    for u, v, e in nf.entries():
        total += e * eval_symbol({basis.base_name(u): 1}, {basis.base_name(v): 1},
                                 assignment, basis)
    return total % basis.torsion


@dataclass(frozen=True)
class EquivalenceVerdict:
    equal: bool
    counterexample: LocalAssignment | None = None


# ---------------------------------------------------------------------------
# form evaluation

_Row = tuple[list[int], list[int]]  # valuations V and unit logs L, by column


def _vector(basis: SymbolBasis, pairs) -> dict[int, int]:
    """Exponents mod p^n, by assignment column, of a monomial's (label,
    exponent) pairs."""
    torsion = basis.torsion
    vec: dict[int, int] = {}
    for label, exp in pairs:
        col, weight = _slot(basis, label)
        vec[col] = (vec.get(col, 0) + _bind(exp, torsion) * weight) % torsion
    return vec


def _expression_form(expr: BrauerExpression, basis: SymbolBasis) -> list[list[int]]:
    """The alternating matrix M = sum_f w_f (y_f x_f^T - x_f y_f^T) mod p^n of
    a product of symbols (x_f, y_f)^(w_f), over the assignment columns."""
    torsion = basis.torsion
    form = [[0] * basis.size for _ in range(basis.size)]
    for f in expr.factors:
        w = _bind(f.exponent, torsion)
        x, y = _vector(basis, f.left), _vector(basis, f.right)
        for i, yi in y.items():
            for j, xj in x.items():
                c = w * yi * xj
                form[i][j] += c
                form[j][i] -= c
    return [[e % torsion for e in row] for row in form]


def _normal_form_form(nf: NormalForm) -> list[list[int]]:
    """M of a normal form: its upper triangle N holds the exponent of
    (b_u, b_v), so M = N^T - N."""
    torsion = nf.basis.torsion
    return [[(a - b) % torsion for a, b in zip(col, row)]
            for row, col in zip(nf.matrix, zip(*nf.matrix))]


def _value(form: list[list[int]], row: _Row, torsion: int) -> int:
    """V^T M L mod p^n on one row of valuations V and unit logs L."""
    val, log = row
    return sum(v * sum(m * L for m, L in zip(mrow, log))
               for v, mrow in zip(val, form) if v) % torsion


def _assignment(basis: SymbolBasis, ell: int, row: _Row) -> LocalAssignment:
    """The assignment over the prime ell of a row of valuations V and unit
    logs L, column 0 the root symbol and 1..t the labels: each unit is g^L,
    g the least primitive root mod ell."""
    g = _primitive_root(ell, basis.p)
    values = tuple((name, (v, pow(g, L, ell)))
                   for name, v, L in zip(("z",) + basis.labels, *row))
    return LocalAssignment(ell=ell, values=values,
                           zeta_base=pow(g, (ell - 1) // basis.torsion, ell))


def _witness_row(form: list[list[int]], basis: SymbolBasis) -> tuple[int, _Row] | None:
    """(ell, row) of a row on which the form M reads nonzero, or None where M
    is zero.  For the first nonzero column j of M and the first row i
    nonzero there, the row is a_i = ell, a_j = g where j > 0, every other
    label 1: it reads M[i][0] r, r = (ell-1)/p^N a unit mod p, where j = 0,
    and M[i][j] where the root column is zero."""
    size = basis.size
    pick = next(((i, j) for j in range(size) for i in range(size) if form[i][j]), None)
    if pick is None:
        return None
    i, j = pick
    ell = find_suitable_ell(basis.p, basis.root_level)
    return ell, ([int(c == i) for c in range(size)],
                 [(ell - 1) // basis.p**basis.root_level] + [int(c == j) for c in range(1, size)])


def _witness(form: list[list[int]], basis: SymbolBasis) -> LocalAssignment | None:
    found = _witness_row(form, basis)
    return None if found is None else _assignment(basis, *found)


@dataclass(frozen=True)
class FormReading:
    """A product's form M and the row it is witnessed on."""

    entries: tuple[tuple[int, int, int], ...]  # (u, v, M[u][v]) with u < v and M[u][v] != 0
    witness: LocalAssignment | None  # None where M is zero
    value: int | None  # V^T M L mod p^n on the witness row


def read_form(expr: BrauerExpression, basis: SymbolBasis) -> FormReading:
    """The nonzero entries of a product's form M, its closed-form witness
    row and the value M reads there."""
    form = _expression_form(expr, basis)
    entries = tuple((u, v, form[u][v]) for u in range(basis.size)
                    for v in range(u + 1, basis.size) if form[u][v])
    found = _witness_row(form, basis)
    if found is None:
        return FormReading(entries, None, None)
    ell, row = found
    return FormReading(entries, _assignment(basis, ell, row), _value(form, row, basis.torsion))


def _random_row(basis: SymbolBasis, ell: int, rng: random.Random) -> _Row:
    """A row drawn from rng: root symbol pinned to valuation 0 and log
    (ell-1)/p^N, labels with valuations in -2..2 and logs uniform mod ell-1."""
    labels = range(len(basis.labels))
    return ([0] + [rng.randint(-2, 2) for _ in labels],
            [(ell - 1) // basis.p**basis.root_level] + [rng.randrange(ell - 1) for _ in labels])


def random_assignment(basis: SymbolBasis, ell: int, seed: int) -> LocalAssignment:
    """The assignment of the row `_random_row` draws from `seed` over the
    prime ell: the tests' seeded source of rows for the scalar path."""
    N = basis.root_level
    if not is_prime(ell):
        raise OracleError(f"ell={ell} is not prime")
    if (ell - 1) % basis.p**N != 0:
        raise OracleError(f"ell={ell} does not admit a primitive p^{N}-th root of unity")
    return _assignment(basis, ell, _random_row(basis, ell, random.Random(seed)))


def check_raw_vs_normal(expr: BrauerExpression, nf: NormalForm, trials: int = 200,
                        seed: int = 0) -> EquivalenceVerdict:
    """Exact comparison of a raw product with its normal form, through their
    difference form; where it is nonzero, the counterexample is its witness
    row.  `trials` and `seed` are accepted and unused: the check reads no
    drawn rows, and the benchmark's oracle workload still passes them."""
    lhs, rhs = _expression_form(expr, nf.basis), _normal_form_form(nf)
    # both sides are reduced mod p^n, so the difference is zero mod p^n only
    # where it is zero
    counterexample = _witness([[a - b for a, b in zip(lrow, rrow)]
                               for lrow, rrow in zip(lhs, rhs)], nf.basis)
    return EquivalenceVerdict(equal=counterexample is None, counterexample=counterexample)


def witness_nontrivial(expr: BrauerExpression, basis: SymbolBasis, trials: int = 500,
                       seed: int = 0) -> LocalAssignment | None:
    """An assignment on which the product reads nonzero, or None where its
    form is zero, read off the form in closed form.  `trials` and `seed` are
    accepted and unused, as in `check_raw_vs_normal`."""
    return _witness(_expression_form(expr, basis), basis)
