"""Formal products of cyclic-algebra classes (a, b; zeta_{p^n}) with a canonical form.

Symbols are bilinear and alternating in their two slots (valid for odd p, where
-1 is a p^n-th power), so a product of symbols over a finite monomial basis
normalizes to the nonzero exponents c of its basis symbols (b_u, b_v), u < v,
over Z/p^n.  The basis consists of one root symbol z = zeta_{p^N} plus
independent labels a1..at; lower roots zeta_{p^K} (K < N) are powers
z^{p^(N-K)} of the basis root, which is what makes the vanishing of sub-level
root factors a plain mod-p^n reduction.

Formal equality is coarser than Brauer-group equality (no Steinberg or norm
relations) but sound: formally equal expressions are equal in Br(k) for every
admissible k.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import ModularArithmeticError, mod_inverse

Monomial = dict[str, int | Fraction]

# a label index starts at 1 with no leading zero: a01 is not a second name for a1
_INDEPENDENT_RE = re.compile(r"a[1-9]\d*")
_LABEL_RE = re.compile(rf"({_INDEPENDENT_RE.pattern}|z(?:[1-9]\d*)?)(?!\d)")
_NUM_EXP_RE = re.compile(r"-?\d+(?:/\d+)?")
_NAME_EXP_RE = re.compile(r"-?[a-z][a-z0-9]*")


class ExpressionError(ValueError):
    """Syntax or binding error in a symbol expression."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class BasisError(ValueError):
    """Expression uses labels or torsion incompatible with the basis."""


@dataclass(frozen=True)
class SymbolBasis:
    """Monomial basis: labels a1..at plus the root symbol zeta_{p^N} at torsion p^n."""

    p: int
    labels: tuple[str, ...]
    root_level: int  # N
    torsion_level: int  # n
    # derived once here, not per resolved monomial: p^n, the number of slots
    # (index 0 is the root symbol, 1..t the labels) and each label's slot
    torsion: int = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)
    _slots: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.root_level >= self.torsion_level >= 1):
            raise BasisError("need root_level >= torsion_level >= 1")
        if self.p == 2:
            raise BasisError("odd p only: the alternating rule needs -1 to be a p^n-th power")
        if len(self.labels) < 1:
            raise BasisError("at least one independent label required")
        slots: dict[str, int] = {}
        for idx, label in enumerate(self.labels, start=1):
            # a root label or a repeat would read one way in `resolve` and
            # another in the oracle: labels are the parser's aN names, once each
            if label in slots or not _INDEPENDENT_RE.fullmatch(label):
                raise BasisError(f"basis labels must be distinct aN names, not {self.labels}")
            slots[label] = idx
        object.__setattr__(self, "torsion", self.p**self.torsion_level)
        object.__setattr__(self, "size", len(self.labels) + 1)
        object.__setattr__(self, "_slots", slots)

    def base_name(self, idx: int) -> str:
        return root_label(self.root_level) if idx == 0 else self.labels[idx - 1]

    def root_weight(self, level: int) -> int:
        """The power of the basis root z = z_N that the root z_K is: p^(N-K)
        mod p^n, for K = level <= N.  Reduced mod p^n, the exponent's
        torsion, so a huge N costs one modular power, not p^(N-K) in full."""
        if level > self.root_level:
            raise BasisError(f"root {root_label(level)!r} exceeds the basis root level "
                             f"{self.root_level}")
        return pow(self.p, self.root_level - level, self.torsion)

    def resolve(self, pairs: Iterable[tuple[str, int | Fraction]]) -> dict[int, int]:
        """Nonzero exponents mod p^n, by slot over (z, a1..at), of the (label,
        exponent) pairs of a monomial, such as a factor's stored `left`/`right`
        or a `Monomial`'s items().  A root label z_K is parsed for its level
        and folds into the z slot as z^`root_weight`(K).

        Fractional exponents bind mod p^n here: a different representative
        shifts the slot by a p^n-th power, invisible at torsion p^n.
        """
        vec: dict[int, int] = {}
        torsion = self.torsion
        slots = self._slots
        for label, raw_exp in pairs:
            exp = raw_exp % torsion if type(raw_exp) is int else bind_exponent(raw_exp, torsion)
            idx = slots.get(label)
            if idx is None:
                if label.startswith("a"):
                    raise BasisError(f"unknown label {label!r} for basis {self.labels}")
                idx, exp = 0, exp * self.root_weight(root_level_of(label))
            vec[idx] = (vec.get(idx, 0) + exp) % torsion
        return {idx: exp for idx, exp in vec.items() if exp}


def root_label(level: int) -> str:
    return "z" if level == 1 else f"z{level}"


def root_level_of(label: str) -> int:
    if label == "z":
        return 1
    if label.startswith("z") and label[1:].isdigit():
        return int(label[1:])
    raise ExpressionError(f"bad root label {label!r}")


@dataclass(frozen=True)
class SymbolFactor:
    left: tuple[tuple[str, int], ...]
    right: tuple[tuple[str, int], ...]
    exponent: int | Fraction
    torsion_level: int


@dataclass(frozen=True)
class BrauerExpression:
    """Raw (unnormalized) product of symbol factors, all at one torsion level."""

    factors: tuple[SymbolFactor, ...]

    @property
    def torsion_level(self) -> int | None:
        return self.factors[0].torsion_level if self.factors else None

    def __mul__(self, other: "BrauerExpression") -> "BrauerExpression":
        if self.factors and other.factors and self.torsion_level != other.torsion_level:
            raise ExpressionError("torsion mismatch between factors")
        return BrauerExpression(self.factors + other.factors)


def symbol(left: Monomial, right: Monomial, level: int, exponent: int | Fraction = 1) -> BrauerExpression:
    return BrauerExpression(
        (
            SymbolFactor(
                left=tuple(sorted(left.items())),
                right=tuple(sorted(right.items())),
                exponent=exponent,
                torsion_level=level,
            ),
        )
    )


@dataclass(frozen=True)
class NormalForm:
    """A product of symbols as its nonzero upper entries over Z/p^n, indexed
    by (z, a1..at): the sorted (u, v, c) with u < v and 0 < c < p^n, c the
    exponent of (b_u, b_v).  Equal classes have equal entries."""

    basis: SymbolBasis
    entries: tuple[tuple[int, int, int], ...]

    def is_zero(self) -> bool:
        return not self.entries


def bind_exponent(exp: int | Fraction, torsion: int) -> int:
    # int first: isinstance against Fraction goes through the numbers ABCs
    if isinstance(exp, int):
        return exp % torsion
    try:
        return exp.numerator * mod_inverse(exp.denominator, torsion) % torsion
    except ModularArithmeticError as exc:
        raise ExpressionError(
            f"exponent {exp} has no value mod {torsion}: its denominator is not invertible"
        ) from exc


def normalize(expr: BrauerExpression, basis: SymbolBasis) -> NormalForm:
    """Fold bilinearity, the alternating rule, inversion, root rescaling and
    exponent reduction mod p^n into the unique nonzero upper entries.

    A factor w * (L, R) adds w L[u] R[v] at (u, v) for u < v and subtracts
    it at (v, u) for u > v, over the nonzero entries of L and R only."""
    torsion = basis.torsion
    form: dict[tuple[int, int], int] = {}
    for f in expr.factors:
        if f.torsion_level != basis.torsion_level:
            raise BasisError(
                f"factor at torsion level {f.torsion_level} in a level-{basis.torsion_level} basis"
            )
        w = f.exponent
        w = w % torsion if type(w) is int else bind_exponent(w, torsion)
        if w == 0:
            continue
        right = basis.resolve(f.right).items()
        for u, a in basis.resolve(f.left).items():
            for v, c in right:
                if u < v:
                    form[u, v] = form.get((u, v), 0) + w * a * c
                elif u > v:
                    form[v, u] = form.get((v, u), 0) - w * a * c
    return NormalForm(basis, tuple(sorted([(u, v, c % torsion)
                                           for (u, v), c in form.items() if c % torsion])))


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class _Placeholder:
    """A named exponent such as k or -g, left unbound by `compile_expression`."""

    name: str
    sign: int
    pos: int


_Exponent = int | Fraction | _Placeholder
# a monomial as its (label, exponent) terms in text order, repeats not yet summed
_Terms = tuple[tuple[str, _Exponent], ...]


def _bind(exp: _Exponent, env: dict[str, int] | None) -> int | Fraction:
    if type(exp) is not _Placeholder:
        return exp
    if env is None or exp.name not in env:
        raise ExpressionError(f"unbound exponent placeholder {exp.name!r}", exp.pos)
    return exp.sign * env[exp.name]


def _bind_monomial(terms: _Terms, env: dict[str, int] | None) -> tuple[tuple[str, int], ...]:
    mono: Monomial = {}
    for label, exp in terms:
        mono[label] = mono.get(label, 0) + _bind(exp, env)
    return tuple(sorted(mono.items()))


@dataclass(frozen=True)
class CompiledExpression:
    """An expression parsed once, with its placeholder exponents (k, g, v, r,
    s) unbound; `bind` substitutes them.  Each factor is (left terms, right
    terms, exponent, torsion level)."""

    factors: tuple[tuple[_Terms, _Terms, _Exponent, int], ...]
    # the bound expression of a text without placeholders, built once
    constant: BrauerExpression | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        exps = [exp for _, _, exp, _ in self.factors]
        exps += [exp for left, right, _, _ in self.factors for _, exp in left + right]
        constant = None if any(type(e) is _Placeholder for e in exps) else self._substitute(None)
        object.__setattr__(self, "constant", constant)

    def bind(self, env: dict[str, int] | None = None) -> BrauerExpression:
        """The expression with env's values substituted; a placeholder that env
        does not bind raises, naming its position in the text."""
        return self._substitute(env) if self.constant is None else self.constant

    def _substitute(self, env: dict[str, int] | None) -> BrauerExpression:
        return BrauerExpression(tuple(
            SymbolFactor(left=_bind_monomial(left, env), right=_bind_monomial(right, env),
                         exponent=_bind(exp, env), torsion_level=level)
            for left, right, exp, level in self.factors))


def _parse_exponent(text: str, pos: int) -> tuple[_Exponent, int]:
    m = _NUM_EXP_RE.match(text, pos)
    if m:
        tok = m.group(0)
        if "/" in tok:
            num, den = tok.split("/")
            if int(den) == 0:
                raise ExpressionError("zero denominator in exponent", pos)
            return Fraction(int(num), int(den)), m.end()
        return int(tok), m.end()
    m = _NAME_EXP_RE.match(text, pos)
    if m:
        tok = m.group(0)
        sign = -1 if tok.startswith("-") else 1
        return _Placeholder(tok.lstrip("-"), sign, pos), m.end()
    raise ExpressionError("expected an exponent", pos)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_monomial(text: str, pos: int, stop: str) -> tuple[_Terms, int]:
    terms: list[tuple[str, _Exponent]] = []
    while True:
        pos = _skip_ws(text, pos)
        m = _LABEL_RE.match(text, pos)
        if not m:
            raise ExpressionError(
                "expected a basis label (aN or z / zK, N and K from 1, no leading zero)", pos)
        label = m.group(0)
        pos = m.end()
        exp: _Exponent = 1
        if pos < len(text) and text[pos] == "^":
            exp, pos = _parse_exponent(text, pos + 1)
        terms.append((label, exp))
        pos = _skip_ws(text, pos)
        if pos < len(text) and text[pos] == "*":
            pos += 1
            continue
        if pos < len(text) and text[pos] in stop:
            return tuple(terms), pos
        raise ExpressionError(f"expected '*' or one of {stop!r}", pos)


def compile_expression(text: str) -> CompiledExpression:
    """Parse the ASCII grammar: expr := \"1\" | term+ ;
    term := "(" mono "," mono ";" root ")" ["^" exp].

    Placeholder exponents (k, g, v, r, s) stay unbound until `bind`;
    fractional exponents like ^-1/4 stay symbolic until normalization binds
    them mod p^n.
    """
    s = text.strip()
    if s == "1":
        return CompiledExpression(())
    factors = []
    pos = 0
    level = None
    while True:
        pos = _skip_ws(s, pos)
        if pos >= len(s):
            break
        if s[pos] != "(":
            raise ExpressionError("expected '('", pos)
        left, pos = _parse_monomial(s, pos + 1, ",")
        right, pos = _parse_monomial(s, pos + 1, ";")
        pos = _skip_ws(s, pos + 1)
        m = _LABEL_RE.match(s, pos)
        if not m or not m.group(0).startswith("z"):
            raise ExpressionError("expected a root label after ';'", pos)
        term_level = root_level_of(m.group(0))
        pos = _skip_ws(s, m.end())
        if pos >= len(s) or s[pos] != ")":
            raise ExpressionError("expected ')'", pos)
        pos += 1
        exp: _Exponent = 1
        if pos < len(s) and s[pos] == "^":
            exp, pos = _parse_exponent(s, pos + 1)
        if level is None:
            level = term_level
        elif level != term_level:
            raise ExpressionError("torsion mismatch between factors", pos)
        factors.append((left, right, exp, term_level))
    if not factors:
        raise ExpressionError("empty expression", 0)
    return CompiledExpression(tuple(factors))


def parse(text: str, env: dict[str, int] | None = None) -> BrauerExpression:
    """`compile_expression` then `bind`: placeholder exponents (k, g, v, r, s)
    are substituted from env."""
    return compile_expression(text).bind(env)


# ---------------------------------------------------------------------------
# rendering


def balanced(e: int, torsion: int) -> int:
    """The residue of e mod an odd torsion p^n nearest 0, in -(p^n-1)/2..(p^n-1)/2."""
    e %= torsion
    return e - torsion if e > torsion // 2 else e


def _render_power(label: str, e: int) -> str:
    return label if e == 1 else f"{label}^{e}"


def render(nf: NormalForm) -> str:
    """Compact text form: for each right-slot basis symbol in basis order,
    collect the left-slot monomial; pure-root columns flip to the
    (a, z^e) orientation the tables use.  parse(render(nf)) normalizes back
    to nf."""
    basis = nf.basis
    torsion = basis.torsion
    columns: dict[int, list[tuple[int, int]]] = {}
    for u, v, c in nf.entries:  # sorted by u, so each column lists u ascending
        columns.setdefault(v, []).append((u, c))
    parts = []
    for v, col in sorted(columns.items()):
        vname = basis.base_name(v)
        if len(col) == 1 and col[0][0] == 0:
            # only the root pairs with this label: render as (a, z^-e)
            e = balanced(-col[0][1], torsion)
            parts.append(f"({vname}, {_render_power(root_label(basis.root_level), e)}; "
                         f"{root_label(basis.torsion_level)})")
            continue
        factors = [_render_power(basis.base_name(u), balanced(c, torsion)) for u, c in col]
        parts.append(f"({'*'.join(factors)}, {vname}; {root_label(basis.torsion_level)})")
    return "".join(parts) if parts else "1"
