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
The scalar reference keeps the sign of the standard formula; the batch drops it.

The root basis symbol is pinned to valuation 0 and a unit of exact order p^N,
which requires ell = 1 mod p^N.  Labels are evaluated here, not through the
normalizer's `SymbolBasis.resolve`, so a fault there shows as a disagreement:
a label reads its own column of the assignment, a lower root zeta_{p^K} the
root's value to the power p^(N-K).

The checks evaluate all their assignments at once: each draws its assignment
rows from one stdlib generator and evaluates them as int64 arrays over F_ell.
A row assigns units U_i; a product of symbols (x_f, y_f)^{w_f} takes its
value from one power residue, whatever the number of factors:

    prod_f c_f^{w_f (ell-1)/p^n} = prod_i U_i^{E_i},
    E_i = (ell-1)/p^n (sum_f w_f (v(y_f) e_{x_f,i} - v(x_f) e_{y_f,i}) mod p^n),

so a row costs one exponent vector, one modular power per unit and one
discrete log.  The signs drop out, because their product is -1 raised to a
multiple of the even (ell-1)/p^n.  The scalar `eval_symbol` /
`eval_expression` / `eval_normal_form` evaluate each symbol on its own, with
its own power residue and discrete log: they are the reference the batch is
tested against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import is_prime, smallest_primitive_root
from .symbols import BrauerExpression, Monomial, NormalForm, SymbolBasis

# Largest ell with (ell - 1)^2 < 2^63: a product of two residues mod ell fits int64.
MAX_ELL = math.isqrt(2**63 - 1) + 1


class OracleError(ValueError):
    """Degenerate assignment or no suitable evaluation prime."""


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
def find_suitable_ell(p: int, level: int, count: int) -> tuple[int, ...]:
    """First `count` primes ell = 1 mod p^level, all below MAX_ELL."""
    modulus = p**level
    out = []
    ell = modulus + 1
    while len(out) < count:
        if ell > MAX_ELL:
            raise OracleError(f"no prime = 1 mod {modulus} below {MAX_ELL}")
        if is_prime(ell):
            out.append(ell)
        ell += modulus
    return tuple(out)


@lru_cache(maxsize=64)
def _element_of_order(ell: int, order: int) -> int:
    g = smallest_primitive_root(ell)
    return pow(g, (ell - 1) // order, ell)


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
    trials: int
    counterexample: LocalAssignment | None = None


# ---------------------------------------------------------------------------
# batched evaluation

# Valuations and units are reduced from 63-bit generator words; the modulo
# bias is below 2^-31 for every ell <= MAX_ELL.
_WORD_BYTES = 8
_WORD_MASK = 2**63 - 1


@dataclass(frozen=True)
class _Rows:
    """Consecutive assignment rows; column 0 is the root symbol, 1..t the labels."""

    start: int  # stream position of the first row
    ell: np.ndarray  # (k,)
    val: np.ndarray  # (k, size) valuations
    unit: np.ndarray  # (k, size) unit residues mod the row's ell


class _RowStream:
    """Assignment rows of one check, read row by row from one stdlib generator,
    so the first k rows do not depend on how many are drawn.  Row i lives over
    ells[i % len(ells)]: root symbol pinned to valuation 0 and a unit of exact
    order p^N, labels with valuations in -2..2 and uniform unit residues."""

    def __init__(self, basis: SymbolBasis, ells, seed: int):
        p, N = basis.p, basis.root_level
        for ell in ells:
            if ell > MAX_ELL:
                raise OracleError(f"ell={ell} exceeds the int64 evaluation bound {MAX_ELL}")
            if (ell - 1) % p**N != 0:
                raise OracleError(f"ell={ell} does not admit a primitive p^{N}-th root of unity")
        self.basis = basis
        self.ells = tuple(ells)
        self.drawn = 0
        self._ell = np.array(self.ells, dtype=np.int64)
        self._root = np.array([_element_of_order(ell, p**N) for ell in self.ells], dtype=np.int64)
        self._rng = random.Random(seed)

    def draw(self, k: int) -> _Rows:
        t = len(self.basis.labels)
        raw = np.frombuffer(self._rng.randbytes(k * t * 2 * _WORD_BYTES), dtype="<i8")
        words = (raw & _WORD_MASK).reshape(k, t, 2)
        which = (self.drawn + np.arange(k)) % len(self.ells)
        ell = self._ell[which]
        val = np.zeros((k, t + 1), dtype=np.int64)
        val[:, 1:] = words[:, :, 0] % 5 - 2
        unit = np.empty((k, t + 1), dtype=np.int64)
        unit[:, 0] = self._root[which]
        unit[:, 1:] = words[:, :, 1] % (ell[:, None] - 1) + 1
        rows = _Rows(start=self.drawn, ell=ell, val=val, unit=unit)
        self.drawn += k
        return rows

    def assignment(self, rows: _Rows, r: int) -> LocalAssignment:
        basis = self.basis
        ell = int(rows.ell[r])
        names = ("z",) + basis.labels
        values = tuple((name, (int(v), int(u)))
                       for name, v, u in zip(names, rows.val[r], rows.unit[r]))
        return LocalAssignment(ell=ell, zeta_base=_element_of_order(ell, basis.torsion),
                               values=values)


def _pow_mod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base^exp mod `mod` (broadcast), for exp >= 0 and residues
    below MAX_ELL, by square-and-multiply over the bits of the largest exp."""
    out = np.ones(np.broadcast_shapes(base.shape, exp.shape, mod.shape), dtype=np.int64)
    nbits = int(exp.max(initial=0)).bit_length()
    shifts = np.arange(nbits).reshape((nbits,) + (1,) * exp.ndim)
    bits = (exp >> shifts & 1).astype(bool)  # bits[b]: bit b of every exponent
    for bit in range(nbits):
        if bit:
            base = base * base % mod
        out = np.where(bits[bit], out * base % mod, out)
    return out


@lru_cache(maxsize=64)
def _mu_table(ells: tuple[int, ...], torsion: int) -> tuple[np.ndarray, np.ndarray]:
    """A discrete-log table of mu_{p^n} in F_ell^x for every ell = ells[j]:
    the keys zeta^e * len(ells) + j of the powers of its order-p^n element,
    sorted, with their exponents e."""
    keys, exps = [], []
    for j, ell in enumerate(ells):
        zeta = _element_of_order(ell, torsion)
        powers = np.ones(1, dtype=np.int64)
        while len(powers) < torsion:
            powers = np.concatenate([powers, powers * pow(zeta, len(powers), ell) % ell])
        keys.append(powers[:torsion] * len(ells) + j)
        exps.append(np.arange(torsion))
    keys, exps = np.concatenate(keys), np.concatenate(exps)
    order = np.argsort(keys)
    return keys[order], exps[order]


def _discrete_log(t: np.ndarray, rows: _Rows, ells: tuple[int, ...], torsion: int) -> np.ndarray:
    keys, exps = _mu_table(ells, torsion)
    n = len(ells)
    query = t * n + (rows.start + np.arange(len(t))) % n  # row i lives over ells[i % n]
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    if (keys[pos] != query).any():
        raise OracleError("tame value outside the expected root-of-unity subgroup")
    return exps[pos]


def _exponents(weights: np.ndarray, monos: np.ndarray, val: np.ndarray,
               torsion: int) -> np.ndarray:
    """The (k, t+1) exponents mod p^n of each row's units in prod_f c_f^(w_f),
    c_f the tame symbol of (x_f, y_f) without its sign:
    sum_f w_f (v(y_f) e_(x_f) - v(x_f) e_(y_f)).

    Weights, monomial exponents and valuations are reduced mod p^n before
    they multiply, so for p^n <= (MAX_ELL-1)/2 each product is below
    (p^n)^2 < 2^61; the matrix product adds `step` >= 3 of them at a time to
    an accumulator below p^n: every int64 intermediate stays below 2^63."""
    F = len(weights)
    monos = monos % torsion
    signed = np.concatenate([weights, -weights]) % torsion
    # v(y_f) then v(x_f); |val| <= 2, so each sum is below 2 p^n (t+1)
    v = val @ np.concatenate([monos[F:], monos[:F]]).T % torsion
    coef = v * signed % torsion  # v(y_f) w_f, then -v(x_f) w_f
    units = 0
    step = (2**63 - 1 - torsion) // (torsion - 1) ** 2
    for s in range(0, 2 * F, step):
        units = (units + coef[:, s:s + step] @ monos[s:s + step]) % torsion
    return units


def _values(weights: np.ndarray, monos: np.ndarray, rows: _Rows, ells: tuple[int, ...],
            torsion: int) -> np.ndarray:
    """Value in Z/p^n of sum_f weights[f] * (x_f, y_f) on every row, where
    monos stacks the exponent vectors of the x_f, then of the y_f: one
    power-residue of the whole product per row, one discrete log."""
    ell = rows.ell[:, None]
    exps = _exponents(weights, monos, rows.val, torsion) * ((ell - 1) // torsion)
    powers = _pow_mod(rows.unit, exps, ell)
    t = powers[:, 0]
    for i in range(1, powers.shape[1]):
        t = t * powers[:, i] % rows.ell
    return _discrete_log(t, rows, ells, torsion)


def _vector(basis: SymbolBasis, pairs) -> list[int]:
    """Exponents mod p^n over the assignment columns of a monomial's
    (label, exponent) pairs."""
    torsion = basis.torsion
    vec = [0] * (len(basis.labels) + 1)
    for label, exp in pairs:
        col, weight = _slot(basis, label)
        vec[col] = (vec[col] + _bind(exp, torsion) * weight) % torsion
    return vec


def _expression_factors(expr: BrauerExpression, basis: SymbolBasis) -> list[tuple]:
    """(bound weight, left vector, right vector) per factor of nonzero weight."""
    out = []
    for f in expr.factors:
        w = _bind(f.exponent, basis.torsion)
        if w:
            out.append((w, _vector(basis, f.left), _vector(basis, f.right)))
    return out


def _normal_form_factors(nf: NormalForm) -> list[tuple]:
    size = nf.basis.size
    basis_vec = [tuple(int(i == j) for j in range(size)) for i in range(size)]
    return [(e, basis_vec[u], basis_vec[v]) for u, v, e in nf.entries()]


def _arrays(factors: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The weights, and the left then the right exponent vectors, of `factors`."""
    weights = np.array([w for w, _, _ in factors], dtype=np.int64)
    monos = np.array([x for _, x, _ in factors] + [y for _, _, y in factors], dtype=np.int64)
    return weights, monos


def _first_nonzero(factors: list[tuple], basis: SymbolBasis, trials: int, seed: int,
                   nells: int, chunk: int) -> tuple[int, LocalAssignment] | None:
    """Stream position and assignment of the first of `trials` rows on which
    the product of `factors` is nonzero.  Rows are evaluated in chunks that
    start at `chunk` rows and double."""
    ells = find_suitable_ell(basis.p, basis.root_level, nells)
    stream = _RowStream(basis, ells, seed)
    if not factors:
        return None
    weights, monos = _arrays(factors)
    while stream.drawn < trials:
        rows = stream.draw(min(chunk, trials - stream.drawn))
        hits = np.flatnonzero(_values(weights, monos, rows, ells, basis.torsion))
        if hits.size:
            r = int(hits[0])
            return rows.start + r, stream.assignment(rows, r)
        chunk *= 2
    return None


def _compare(lhs: list[tuple], rhs: list[tuple], basis: SymbolBasis, trials: int,
             seed: int) -> EquivalenceVerdict:
    """Both sides on the same rows, as the one product lhs * rhs^-1."""
    torsion = basis.torsion
    diff = lhs + [(-w % torsion, x, y) for w, x, y in rhs]
    hit = _first_nonzero(diff, basis, trials, seed, nells=3, chunk=trials)
    if hit is None:
        return EquivalenceVerdict(equal=True, trials=trials)
    index, assignment = hit
    return EquivalenceVerdict(equal=False, trials=index + 1, counterexample=assignment)


def random_assignment(basis: SymbolBasis, ell: int, seed: int) -> LocalAssignment:
    """The first row of the assignment stream of `seed` over the one prime ell."""
    stream = _RowStream(basis, (ell,), seed)
    return stream.assignment(stream.draw(1), 0)


def _trial_assignments(basis: SymbolBasis, trials: int, seed: int):
    """The rows an equivalence check with this seed evaluates, as assignments."""
    stream = _RowStream(basis, find_suitable_ell(basis.p, basis.root_level, 3), seed)
    rows = stream.draw(trials)
    for r in range(trials):
        yield stream.assignment(rows, r)


def check_equivalence(e1: BrauerExpression, e2: BrauerExpression, basis: SymbolBasis,
                      trials: int = 200, seed: int = 0) -> EquivalenceVerdict:
    """Numeric comparison over `trials` seeded assignments spread over 3 primes."""
    return _compare(_expression_factors(e1, basis), _expression_factors(e2, basis),
                    basis, trials, seed)


def check_raw_vs_normal(expr: BrauerExpression, nf: NormalForm, trials: int = 200,
                        seed: int = 0) -> EquivalenceVerdict:
    return _compare(_expression_factors(expr, nf.basis), _normal_form_factors(nf),
                    nf.basis, trials, seed)


def witness_nontrivial(expr: BrauerExpression, basis: SymbolBasis, trials: int = 500,
                       seed: int = 0) -> LocalAssignment | None:
    """First assignment, over 4 primes, with nonzero value; expected to exist
    whenever the normal form is nonzero, since tame symbols realize all residues."""
    hit = _first_nonzero(_expression_factors(expr, basis), basis, trials, seed, nells=4, chunk=4)
    return None if hit is None else hit[1]
