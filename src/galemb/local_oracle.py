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
normalizer's `SymbolBasis.resolve` or the writer's `SymbolBasis.root_weight`,
so a fault there shows as a disagreement: a label reads its own column of the
assignment, a lower root zeta_{p^K} the root's value to the power p^(N-K).

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

however many factors the product has.  M is alternating, so a check keeps
only its nonzero upper entries {(u, v): M[u][v]}, u < v, and reads a row as
sum c (V_u L_v - V_v L_u) over them.  Two sides are compared through their
difference form: it is zero mod p^n iff every row reads 0, so the check
decides equality from M alone.  A nonzero M has a witness row read off it
in closed form, over the least ell: for the least key (j, i), a_i = ell
(v = 1, L = 0), a_j = g (L = 1) where j is a label column, and every other
label 1 (v = 0, L = 0).  The row reads M[i][0] r = -M[0][i] r where j = 0,
nonzero since r is a unit, and M[i][j] = -M[j][i] where no key holds the
root column.  A zero M has no witness, and no ell is picked.  The scalar
`eval_symbol` / `eval_expression` / `eval_normal_form` evaluate each symbol
on its own, with its own power residue and a Pohlig-Hellman discrete log in
mu_{p^n}: they are the reference the form and its witnesses are tested
against.
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
def _baby_steps(ell: int, base: int, p: int) -> tuple[dict[int, int], int]:
    """{base^j: j} for j < m = ceil(sqrt(p)), and base^-m mod ell, for a base
    of order p.  Every assignment over ell has base g^((ell-1)/p), so this
    is one table per (ell, p)."""
    m = math.isqrt(p - 1) + 1
    steps = {}
    acc = 1
    for j in range(m):
        steps[acc] = j
        acc = acc * base % ell
    return steps, pow(acc, -1, ell)


def _dlog(t: int, zeta: int, ell: int, p: int, n: int) -> int:
    """k in [0, p^n) with zeta^k = t mod ell, for zeta of order p^n and t in
    mu_{p^n}: Pohlig-Hellman, each base-p digit by baby-step giant-step in
    mu_p against the order-p base zeta^(p^(n-1))."""
    base = pow(zeta, p ** (n - 1), ell)
    if base == 1 or pow(base, p, ell) != 1:
        raise OracleError(f"zeta_base {zeta} does not have order {p}^{n} mod {ell}")
    steps, giant = _baby_steps(ell, base, p)
    inverse = pow(zeta, -1, ell)
    k = 0
    for i in range(n):
        # t zeta^-k lies in mu_{p^(n-i)}: its p^(n-1-i)-th power is base^digit
        h = pow(t * pow(inverse, k, ell) % ell, p ** (n - 1 - i), ell)
        for q in range(len(steps)):
            if h in steps:
                break
            h = h * giant % ell
        else:
            raise OracleError("tame value outside the expected root-of-unity subgroup")
        k += (q * len(steps) + steps[h]) * p**i
    return k


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
    if pow(t, torsion, ell) != 1:
        raise OracleError("tame value outside the expected root-of-unity subgroup")
    return _dlog(t, assignment.zeta_base, ell, basis.p, basis.torsion_level)


def eval_expression(expr: BrauerExpression, assignment: LocalAssignment,
                    basis: SymbolBasis) -> int:
    total = 0
    for f in expr.factors:
        w = _bind(f.exponent, basis.torsion)
        total += w * eval_symbol(dict(f.left), dict(f.right), assignment, basis)
    return total % basis.torsion


def eval_normal_form(nf: NormalForm, assignment: LocalAssignment) -> int:
    basis = nf.basis
    total = 0
    for u, v, e in nf.entries:
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
_Form = dict[tuple[int, int], int]  # M[u][v] by (u, v) with u < v; M[v][u] = -M[u][v]


def _vector(basis: SymbolBasis, pairs) -> dict[int, int]:
    """Exponents mod p^n, by assignment column, of a monomial's (label,
    exponent) pairs."""
    torsion = basis.torsion
    vec: dict[int, int] = {}
    for label, exp in pairs:
        col, weight = _slot(basis, label)
        vec[col] = (vec.get(col, 0) + _bind(exp, torsion) * weight) % torsion
    return vec


def _expression_form(expr: BrauerExpression, basis: SymbolBasis, start=()) -> _Form:
    """The nonzero upper entries mod p^n of the alternating matrix
    M = sum_f w_f (y_f x_f^T - x_f y_f^T) of a product of symbols
    (x_f, y_f)^(w_f), over the assignment columns, plus the upper entries
    (u, v, c) of `start`."""
    torsion = basis.torsion
    form = {(u, v): c for u, v, c in start}
    for f in expr.factors:
        w = _bind(f.exponent, torsion)
        x = _vector(basis, f.left)
        for i, yi in _vector(basis, f.right).items():
            for j, xj in x.items():
                if i < j:
                    form[i, j] = form.get((i, j), 0) + w * yi * xj
                elif i > j:
                    form[j, i] = form.get((j, i), 0) - w * yi * xj
    return {key: c % torsion for key, c in form.items() if c % torsion}


def _value(form: _Form, row: _Row, torsion: int) -> int:
    """V^T M L mod p^n on one row of valuations V and unit logs L."""
    val, log = row
    return sum(c * (val[u] * log[v] - val[v] * log[u]) for (u, v), c in form.items()) % torsion


def _assignment(basis: SymbolBasis, ell: int, row: _Row) -> LocalAssignment:
    """The assignment over the prime ell of a row of valuations V and unit
    logs L, column 0 the root symbol and 1..t the labels: each unit is g^L,
    g the least primitive root mod ell."""
    g = _primitive_root(ell, basis.p)
    values = tuple((name, (v, pow(g, L, ell)))
                   for name, v, L in zip(("z",) + basis.labels, *row))
    return LocalAssignment(ell=ell, values=values,
                           zeta_base=pow(g, (ell - 1) // basis.torsion, ell))


def _witness_row(form: _Form, basis: SymbolBasis) -> tuple[int, _Row] | None:
    """(ell, row) of a row on which the form M reads nonzero, or None where M
    is zero.  For the least key (j, i), the row is a_i = ell, a_j = g where
    j > 0, every other label 1: it reads -M[j][i] r, r = (ell-1)/p^N a unit
    mod p, where j = 0, and -M[j][i] where no key holds the root column.
    This is the first nonzero entry M[i][j] of the full M, column by column:
    j is the least index in any key, and no key (i, j) with i < j exists."""
    if not form:
        return None
    j, i = min(form)
    ell = find_suitable_ell(basis.p, basis.root_level)
    size = basis.size
    return ell, ([int(c == i) for c in range(size)],
                 [(ell - 1) // basis.p**basis.root_level] + [int(c == j) for c in range(1, size)])


def _witness(form: _Form, basis: SymbolBasis) -> LocalAssignment | None:
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
    entries = tuple(sorted((u, v, c) for (u, v), c in form.items()))
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
    basis = nf.basis
    # the normal form's entries N hold the exponent of (b_u, b_v), so its M
    # is N^T - N, -N above the diagonal: the difference form's upper entries
    # are the raw product's plus N
    counterexample = _witness(_expression_form(expr, basis, nf.entries), basis)
    return EquivalenceVerdict(equal=counterexample is None, counterexample=counterexample)


def witness_nontrivial(expr: BrauerExpression, basis: SymbolBasis, trials: int = 500,
                       seed: int = 0) -> LocalAssignment | None:
    """An assignment on which the product reads nonzero, or None where its
    form is zero, read off the form in closed form.  `trials` and `seed` are
    accepted and unused, as in `check_raw_vs_normal`."""
    return _witness(_expression_form(expr, basis), basis)
