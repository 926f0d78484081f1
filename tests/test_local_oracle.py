"""Tame-symbol evaluation: frozen worked values, structural properties, and
agreement with the symbolic normal form."""

import ast
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galemb import local_oracle as lo
from galemb.arith import is_prime, smallest_primitive_root
from galemb.catalog import instantiate
from galemb.obstructions import generate_table, obstruction_for_instance
from galemb.symbols import BrauerExpression, SymbolBasis, normalize, parse, root_label, symbol
from dense_forms import raised, to_dense

B1 = SymbolBasis(p=3, labels=("a1", "a2"), root_level=1, torsion_level=1)
B3 = SymbolBasis(p=3, labels=("a1", "a2"), root_level=3, torsion_level=1)

ASG7 = lo.LocalAssignment(
    ell=7, zeta_base=2,
    values=(("z", (0, 2)), ("a1", (1, 1)), ("a2", (0, 3))),
)


class TestEvalSymbol:
    def test_two_units_give_zero(self):
        asg = lo.LocalAssignment(
            ell=7, zeta_base=2,
            values=(("z", (0, 2)), ("a1", (0, 3)), ("a2", (0, 5))),
        )
        assert lo.eval_symbol({"a1": 1}, {"a2": 1}, asg, B1) == 0

    def test_worked_value(self):
        # c = 3^-1 = 5 mod 7; 5^2 = 4 = 2^2, so the value is 2
        assert lo.eval_symbol({"a1": 1}, {"a2": 1}, ASG7, B1) == 2

    def test_swapped_slots_negate(self):
        assert lo.eval_symbol({"a2": 1}, {"a1": 1}, ASG7, B1) == 1

    def test_alternating(self):
        rng = random.Random(0)
        for ell in (7, 13, 19):
            for i in range(50):
                asg = lo.random_assignment(B1, ell, seed=i)
                mono = {"a1": rng.randint(-3, 3), "a2": rng.randint(-3, 3), "z": rng.randint(-2, 2)}
                assert lo.eval_symbol(mono, mono, asg, B1) == 0

    def test_bilinear(self):
        rng = random.Random(1)
        for i in range(100):
            asg = lo.random_assignment(B1, 13, seed=i)
            x = {"a1": rng.randint(-3, 3), "z": rng.randint(-2, 2)}
            xp = {"a2": rng.randint(-3, 3), "a1": rng.randint(-2, 2)}
            y = {"a2": rng.randint(-3, 3), "z": rng.randint(-2, 2)}
            merged = {k: x.get(k, 0) + xp.get(k, 0) for k in set(x) | set(xp)}
            lhs = lo.eval_symbol(merged, y, asg, B1)
            rhs = (lo.eval_symbol(x, y, asg, B1) + lo.eval_symbol(xp, y, asg, B1)) % 3
            assert lhs == rhs


class TestEvalExpression:
    def test_empty(self):
        assert lo.eval_expression(parse("1"), ASG7, B1) == 0

    def test_inverse_pair_cancels(self):
        e = parse("(a1, a2; z)(a2, a1; z)")
        for i in range(50):
            asg = lo.random_assignment(B1, 7, seed=i)
            assert lo.eval_expression(e, asg, B1) == 0

    def test_merged_and_unmerged_agree(self):
        e1 = parse("(z3^-1*a1, a2; z)")
        e2 = parse("(a1, a2; z)(a2, z3; z)")
        for p in (3, 5):
            basis = SymbolBasis(p=p, labels=("a1", "a2"), root_level=3, torsion_level=1)
            assert lo._expression_form(e1, basis) == lo._expression_form(e2, basis)
            for asg in _assignments(basis, 50, seed=7):
                assert lo.eval_expression(e1, asg, basis) == lo.eval_expression(e2, asg, basis)

    def test_normal_form_evaluation(self):
        e = parse("(a1, z*a2; z)")
        nf = normalize(e, B1)
        verdict = lo.check_raw_vs_normal(e, nf)
        assert verdict.equal and verdict.counterexample is None


class TestHelpers:
    def test_find_suitable_ell_level1(self):
        # 13 = 1 mod 3 is not needed: one prime per level
        assert lo.find_suitable_ell(3, 1) == 7

    def test_find_suitable_ell_level4(self):
        assert lo.find_suitable_ell(3, 4) == 163

    def test_find_suitable_ell_skips_a_deeper_valuation(self):
        # 39367 = 2 * 3^9 + 1 is the least prime = 1 mod 3^8, but v_3(39366) = 9
        assert is_prime(39367) and lo.find_suitable_ell(3, 8) == 52489 == 8 * 3**8 + 1

    def test_find_suitable_ell_is_cached(self, monkeypatch):
        first = lo.find_suitable_ell(5, 4)
        calls = []
        monkeypatch.setattr(lo, "is_prime", lambda n: calls.append(n) or True)
        assert lo.find_suitable_ell(5, 4) is first
        assert calls == []  # served from the cache, no primality tests

    def test_least_ell_at_root_level_20(self):
        # ell has no upper bound: the least prime with v_3(ell-1) = 20 is
        # 26 * 3^20 + 1, where (ell-1)^2 exceeds 2^63; confirmed here by
        # trial division
        ell = lo.find_suitable_ell(3, 20)
        assert ell == 90_656_394_427 == 26 * 3**20 + 1
        small = _primes_below(math.isqrt(ell) + 1)

        def prime(n):
            return all(n % q for q in small if q * q <= n)

        assert prime(ell)
        assert not any(prime(k * 3**20 + 1) for k in range(1, 26) if k % 3)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_primitive_root_with_p_divided_out(self, p):
        # dividing the known p out of ell - 1 first changes no root
        for N in range(1, 4):
            ell = lo.find_suitable_ell(p, N)
            assert lo._primitive_root(ell, p) == smallest_primitive_root(ell)

    def test_root_symbol_pinned(self):
        asg = lo.random_assignment(B3, 163, seed=0)
        val, unit = asg.value_of("z")
        assert val == 0
        assert pow(unit, 27, 163) == 1  # order divides p^3 = 27
        assert pow(unit, 9, 163) != 1   # and is exactly 27

    def test_assignment_determinism(self):
        a = lo.random_assignment(B1, 13, seed=5)
        b = lo.random_assignment(B1, 13, seed=5)
        c = lo.random_assignment(B1, 13, seed=6)
        assert a == b and a != c

    def test_witness_absent_for_trivial_class(self):
        assert lo.witness_nontrivial(parse("(a1, a1; z)"), B1) is None

    @pytest.mark.parametrize("other", ["(a1, a2; z)^2", "(a2, a1; z)"])
    def test_distinguishes_inequivalent_expressions(self, other):
        # soundness has teeth: a genuinely different class, a swap included,
        # is detected on a counterexample the scalar path confirms
        expr, bad = parse("(a1, a2; z)"), normalize(parse(other), B1)
        asg = lo.check_raw_vs_normal(expr, bad).counterexample
        assert lo.eval_expression(expr, asg, B1) != lo.eval_normal_form(bad, asg)


class TestDiscreteLog:
    """The scalar path's discrete log in mu_{p^n}: Pohlig-Hellman, each
    base-p digit by baby-step giant-step in mu_p, with no p^n-entry table."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_a_full_table(self, p, n):
        # over the least ell with v_p(ell-1) = n, and one with p^(n+1) | ell-1
        for ell in (lo.find_suitable_ell(p, n), lo.find_suitable_ell(p, n + 1)):
            g = lo._primitive_root(ell, p)
            zeta = pow(g, (ell - 1) // p**n, ell)
            table, acc = {}, 1
            for k in range(p**n):
                table[acc] = k
                acc = acc * zeta % ell
            assert len(table) == p**n and acc == 1
            assert {t: lo._dlog(t, zeta, ell, p, n) for t in table} == table

    def test_value_outside_mu_pn_is_rejected(self, monkeypatch):
        # over the composite 91 = 7 * 13 the unit 46 = 2^-1 gives c = 2 and
        # t = 2^30, whose cube 2^90 is 12 mod 13: eval_symbol rejects t by
        # testing t^(p^n) = 1 itself, before any discrete log is taken
        def no_dlog(*args):
            raise AssertionError("a discrete log was taken")

        monkeypatch.setattr(lo, "_dlog", no_dlog)
        asg = lo.LocalAssignment(ell=91, zeta_base=9,
                                 values=(("z", (0, 9)), ("a1", (1, 1)), ("a2", (0, 46))))
        assert pow(pow(2, 30, 91), 3, 91) != 1
        with pytest.raises(lo.OracleError, match="outside the expected root-of-unity subgroup"):
            lo.eval_symbol({"a1": 1}, {"a2": 1}, asg, B1)

    @pytest.mark.parametrize("zeta", [1, 4])
    def test_zeta_base_of_wrong_order_is_rejected(self, zeta):
        # 1 has order 1 and 4 order 9 mod 19, not p^n = 3
        basis = SymbolBasis(p=3, labels=("a1", "a2"), root_level=2, torsion_level=1)
        asg = lo.LocalAssignment(ell=19, zeta_base=zeta,
                                 values=(("z", (0, 4)), ("a1", (1, 1)), ("a2", (0, 2))))
        with pytest.raises(lo.OracleError, match="does not have order 3"):
            lo.eval_symbol({"a1": 1}, {"a2": 1}, asg, basis)

    @pytest.mark.parametrize("weight", [1, -1, 123_456_789])
    def test_labels_only_witness_at_p_1e9_plus_7(self, weight):
        # the witness row of (a1, a2)^weight reads M[a2][a1] = weight mod p;
        # a p^n-entry table would hold 10^9 entries, the baby steps 31,623
        p = 1_000_000_007
        basis = SymbolBasis(p=p, labels=("a1", "a2"), root_level=1, torsion_level=1)
        form = lo._expression_form(parse(f"(a1, a2; z)^{weight}"), basis)
        ell, row = lo._witness_row(form, basis)
        asg = lo._assignment(basis, ell, row)
        lo._baby_steps.cache_clear()
        start = time.perf_counter()
        value = lo.eval_symbol({"a1": weight}, {"a2": 1}, asg, basis)
        assert time.perf_counter() - start < 1.0
        assert value == lo._value(form, row, basis.torsion) == weight % p


def test_fraction_exponents_evaluate_like_bound_residues():
    e1 = parse("(a1, z^-1/4; z)")
    e2 = symbol({"a1": 1}, {"z": 2}, 1)  # -1/4 = 2 mod 3
    for i in range(30):
        asg = lo.random_assignment(B1, 7, seed=i)
        assert lo.eval_expression(e1, asg, B1) == lo.eval_expression(e2, asg, B1)


def test_oracle_sees_a_root_weight_fault(monkeypatch):
    # the oracle weighs root labels itself: a root weight that takes each
    # lower root z_K for z_(K+1) moves the normal forms the writer builds
    # from it, but not the oracle's value of the raw product
    root_weight = SymbolBasis.root_weight

    def one_level_short(self, level):
        return root_weight(self, level + 1 if level < self.root_level else level)

    monkeypatch.setattr(SymbolBasis, "root_weight", one_level_short)
    conditions = [c for table in range(1, 7) for row in generate_table(table, 3)
                  for c in row.result.conditions]
    moved = [(k, c) for k, c in enumerate(conditions)
             if lo._expression_form(c.raw, c.normal.basis) != _normal_upper(c.normal)]
    assert moved
    # every moved form is caught, on a counterexample that reads differently
    # on both sides under the scalar path too
    for k, c in moved:
        verdict = lo.check_raw_vs_normal(c.raw, c.normal)
        assert not verdict.equal, k
        asg = verdict.counterexample
        assert lo.eval_expression(c.raw, asg, c.normal.basis) != lo.eval_normal_form(c.normal, asg)


@pytest.mark.parametrize("p,ell", [(7, 15), (5, 561), (3, 1)])
def test_composite_ell_is_rejected(p, ell):
    # 15 = 1 mod 7, but mod 15 no unit has order 7: zeta_base would be wrong
    basis = SymbolBasis(p=p, labels=("a1", "a2"), root_level=1, torsion_level=1)
    with pytest.raises(lo.OracleError, match=f"ell={ell} is not prime"):
        lo.random_assignment(basis, ell, seed=0)


def _random_expression(rng: random.Random, basis: SymbolBasis):
    """A product of symbols on every label and root level of the basis, with
    integer, fractional and zero-weight exponents."""
    names = basis.labels + tuple(f"z{k}" if k > 1 else "z" for k in range(1, basis.root_level + 1))
    exponents = [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 4), basis.torsion]

    def mono():
        picked = rng.sample(names, rng.randint(1, 3))
        return {name: rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-3, 3), 2)])
                for name in picked}

    expr = parse("1")
    for _ in range(rng.randint(1, 4)):
        expr = expr * symbol(mono(), mono(), basis.torsion_level, rng.choice(exponents))
    return expr


def _rows(basis, count, seed, ell=None):
    """The evaluation prime (by default the least ell with v_p(ell-1) = N)
    and `count` rows drawn from one generator seeded with `seed`."""
    ell = ell or lo.find_suitable_ell(basis.p, basis.root_level)
    rng = random.Random(seed)
    return ell, [lo._random_row(basis, ell, rng) for _ in range(count)]


def _assignments(basis, count, seed, ell=None):
    """The rows of `_rows`, as assignments."""
    ell, rows = _rows(basis, count, seed, ell)
    return [lo._assignment(basis, ell, row) for row in rows]


def _near_root_expression(rng, basis, names, factors):
    """A product of `factors` symbols whose label exponents and weights lie
    within 40 of +-p^N, so that every root slot resolves far above p^n."""
    big = basis.p**basis.root_level

    def mono():
        return {name: rng.choice((1, -1)) * (big - rng.randint(0, 40))
                for name in rng.sample(names, 3)}

    expr = parse("1")
    for _ in range(factors):
        expr = expr * symbol(mono(), mono(), basis.torsion_level,
                             rng.choice((1, -1)) * (big - rng.randint(1, 40)))
    assert len(expr.factors) == factors
    assert all(lo._bind(f.exponent, basis.torsion) for f in expr.factors)
    return expr


def _columns(basis, pairs):
    """A monomial's exponents mod p^n by assignment column, over all
    columns, read through the oracle's `_slot` and `_bind`."""
    vec = [0] * basis.size
    for label, exp in pairs:
        col, weight = lo._slot(basis, label)
        vec[col] = (vec[col] + lo._bind(exp, basis.torsion) * weight) % basis.torsion
    return vec


def _dense_form(expr, basis):
    """The full alternating matrix M = sum_f w_f (y_f x_f^T - x_f y_f^T) mod
    p^n, built from each factor's column vectors over the assignment
    columns: the reference the oracle's sparse form is checked against."""
    size, torsion = basis.size, basis.torsion
    M = [[0] * size for _ in range(size)]
    for f in expr.factors:
        w = lo._bind(f.exponent, torsion)
        x, y = _columns(basis, f.left), _columns(basis, f.right)
        for i in range(size):
            for j in range(size):
                M[i][j] += w * (y[i] * x[j] - x[i] * y[j])
    return [[c % torsion for c in row] for row in M]


def _dense_normal(nf):
    """M = N^T - N of a normal form whose entries N hold the exponent of
    (b_u, b_v), from its dense upper-triangular N."""
    N, size = to_dense(nf), nf.basis.size
    return [[(N[j][i] - N[i][j]) % nf.basis.torsion for j in range(size)] for i in range(size)]


def _upper(M, torsion):
    """The nonzero upper entries {(u, v): M[u][v] mod p^n}, u < v, of a dense M."""
    return {(u, v): M[u][v] % torsion for u in range(len(M)) for v in range(u + 1, len(M))
            if M[u][v] % torsion}


def _normal_upper(nf):
    return _upper(_dense_normal(nf), nf.basis.torsion)


def _form_equals_scalar(expr, basis, count, seed, ell=None):
    """The form's value on each of the first rows equals the scalar
    `eval_expression` on the same row."""
    ell, rows = _rows(basis, count, seed, ell)
    form = lo._expression_form(expr, basis)
    assert [lo._value(form, row, basis.torsion) for row in rows] == [
        lo.eval_expression(expr, lo._assignment(basis, ell, row), basis) for row in rows]
    return rows


BASES = [SymbolBasis(p=p, labels=("a1", "a2", "a3"), root_level=N, torsion_level=n)
         for p in (3, 5, 7) for N in (1, 2, 3) for n in (1, 2) if n <= N]


class TestBatch:
    @pytest.mark.parametrize("basis", BASES, ids=lambda b: f"p{b.p}N{b.root_level}n{b.torsion_level}")
    def test_batch_equals_scalar(self, basis):
        rng = random.Random(basis.p * 100 + basis.root_level * 10 + basis.torsion_level)
        for case in range(4):
            expr = _random_expression(rng, basis)
            nf = normalize(expr, basis)
            ell, rows = _rows(basis, 40, case)
            asgs = [lo._assignment(basis, ell, row) for row in rows]
            raw, normal = lo._expression_form(expr, basis), _normal_upper(nf)
            assert raw == _upper(_dense_form(expr, basis), basis.torsion)
            assert [lo._value(raw, row, basis.torsion) for row in rows] == [
                lo.eval_expression(expr, asg, basis) for asg in asgs]
            assert [lo._value(normal, row, basis.torsion) for row in rows] == [
                lo.eval_normal_form(nf, asg) for asg in asgs]
            assert lo.check_raw_vs_normal(expr, nf).equal

    def test_ell_above_2_64(self):
        # no ell is too large: over the least ell = 1 mod 3^40, above 2^64,
        # logs near 2^63 would wrap an int64 product but not a Python int
        basis = SymbolBasis(p=3, labels=("a1", "a2"), root_level=2, torsion_level=2)
        ell = lo.find_suitable_ell(3, 40)
        assert ell > 2**64
        expr = parse("(a1^2*z2, a2^-1; z2)(a2*z2^4, a1^7; z2)^-1/2")
        rows = _form_equals_scalar(expr, basis, 30, 4, ell)
        assert max(L for _, log in rows for L in log[1:]) > 2**62

    def test_exponents_near_the_root_level(self):
        # the first ell = 1 mod 3^17, torsion 3^12: label exponents and
        # weights near p^N, and root slots far above p^n after resolution
        basis = SymbolBasis(p=3, labels=("a1", "a2", "a3"), root_level=17, torsion_level=12)
        assert lo.find_suitable_ell(3, 17) == 258280327
        expr = _near_root_expression(random.Random(17), basis,
                                     basis.labels + ("z", "z5", "z17"), 7)
        _form_equals_scalar(expr, basis, 20, 12)

    def test_exponents_exact_above_2_63(self):
        # torsions and logs above 2^63, where int64 products and sums would
        # wrap: the value is the exact sum mod p^n
        rng = random.Random(19)
        size, k = 12, 16
        top = 2**65
        above = next(q for q in range(2**64 + 1, top, 2) if is_prime(q))
        for torsion in (3**41, above):
            assert torsion > 2**63
            # an arbitrary upper-entry form: the largest entries (-1 mod p^n)
            # and random ones
            upper = [[torsion - 1] * size] * 4 + [[rng.randrange(torsion) for _ in range(size)]
                                                  for _ in range(size - 4)]
            form = {(u, v): upper[u][v] for u in range(size) for v in range(u + 1, size)
                    if upper[u][v]}
            assert len(form) > size * (size - 1) // 2 - 2
            M = [[form.get((i, j), 0) - form.get((j, i), 0) for j in range(size)]
                 for i in range(size)]
            rows = [([2] * size, [top] * size), ([-2] * size, [top - 1] * size)] + [
                ([rng.randint(-2, 2) for _ in range(size)],
                 [rng.randrange(top + 1) for _ in range(size)]) for _ in range(k - 2)]
            assert [lo._value(form, row, torsion) for row in rows] == [
                sum(v[i] * M[i][j] * L[j] for i in range(size) for j in range(size)) % torsion
                for v, L in rows], torsion
        # and equal to the scalar path over an ell above 2^64, root level 41
        basis = SymbolBasis(p=3, labels=("a1", "a2", "a3"), root_level=41, torsion_level=10)
        assert lo.find_suitable_ell(3, 41) > 2**64
        expr = _near_root_expression(rng, basis, basis.labels + ("z", "z20", "z41"), 5)
        _form_equals_scalar(expr, basis, 10, 41)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("text", ["(a1, a2; z{n})", "(a1*z{n}, a2^-1; z{n})"])
    def test_batch_drops_the_sign_on_odd_valuation_rows(self, p, n, text):
        # where v(x) v(y) is odd the scalar reference multiplies by -1 and the
        # form does not: their agreement there is the sign dropping out
        basis = SymbolBasis(p=p, labels=("a1", "a2"), root_level=n, torsion_level=n)
        expr = parse(text.format(n=n if n > 1 else ""))
        ell, rows = _rows(basis, 200, seed=p * 10 + n)
        odd = [row for row in rows if row[0][1] * row[0][2] % 2]
        assert len(odd) >= 20
        form = lo._expression_form(expr, basis)
        (f,) = expr.factors
        assert [lo._value(form, row, basis.torsion) for row in odd] == [
            lo.eval_symbol(dict(f.left), dict(f.right), lo._assignment(basis, ell, row), basis)
            for row in odd]

    @pytest.mark.parametrize("nfactors", [4, 8, 16])
    def test_one_form_per_product(self, nfactors):
        # however many factors, a product compiles to one alternating form,
        # kept as its nonzero upper entries: the sum of its factors' forms
        basis = SymbolBasis(p=5, labels=("a1", "a2", "a3"), root_level=2, torsion_level=2)
        torsion = basis.torsion
        rng = random.Random(nfactors)
        expr = parse("1")
        for _ in range(nfactors):
            x, y = rng.sample(basis.labels + ("z2",), 2)
            expr = expr * symbol({x: rng.randint(1, 4)}, {y: 1}, 2, rng.randint(1, 24))
        assert len(expr.factors) == nfactors
        form = lo._expression_form(expr, basis)
        assert form and all(0 <= u < v < 4 and 0 < c < torsion for (u, v), c in form.items())
        parts = [lo._expression_form(BrauerExpression((f,)), basis) for f in expr.factors]
        keys = set(form).union(*parts)
        assert {key: sum(part.get(key, 0) for part in parts) % torsion for key in keys} == {
            key: form.get(key, 0) for key in keys}
        assert form == _upper(_dense_form(expr, basis), torsion)
        _form_equals_scalar(expr, basis, 50, 0)

    def test_root_level_20_is_equal_and_witnessed(self):
        # root level 20 needs ell with (ell-1)^2 above 2^63: the check is
        # decided by its zero difference form, and the witness, over the
        # least ell = 26 * 3^20 + 1, is nonzero under the scalar path
        deep = SymbolBasis(p=3, labels=("a1",), root_level=20, torsion_level=1)
        expr = parse("(a1, z20; z)")
        nf = normalize(expr, deep)
        assert not nf.is_zero()
        verdict = lo.check_raw_vs_normal(expr, nf)
        assert verdict.equal and verdict.counterexample is None
        wit = lo.witness_nontrivial(expr, deep)
        assert wit.ell == 26 * 3**20 + 1
        assert lo.eval_expression(expr, wit, deep) != 0

    def test_mutated_normal_form_is_caught(self):
        basis = SymbolBasis(p=5, labels=("a1", "a2"), root_level=2, torsion_level=1)
        expr = parse("(z2^-1*a1, a2; z)(a1, z2^3; z)")
        nf = normalize(expr, basis)
        for u, v in ((0, 1), (1, 2), (0, 2)):
            bad = raised(nf, u, v)
            verdict = lo.check_raw_vs_normal(expr, bad)
            assert not verdict.equal
            # the counterexample is the difference form's witness, confirmed
            # by the scalar path
            diff = [[a - b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(_dense_form(expr, basis), _dense_normal(bad))]
            assert verdict.counterexample == lo._witness(_upper(diff, basis.torsion), basis)
            asg = verdict.counterexample
            assert lo.eval_expression(expr, asg, basis) != lo.eval_normal_form(bad, asg)

    def test_no_numpy_random(self):
        # numpy.random adds ~5 MB of resident memory to every oracle run
        code = (
            "import sys\n"
            "from galemb import local_oracle as lo\n"
            "from galemb.symbols import SymbolBasis, normalize, parse\n"
            "b = SymbolBasis(p=3, labels=('a1', 'a2'), root_level=2, torsion_level=1)\n"
            "e = parse('(z2*a1, a2; z)')\n"
            "assert lo.check_raw_vs_normal(e, normalize(e, b)).equal\n"
            "assert lo.witness_nontrivial(e, b) is not None\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = str(Path(lo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120, env=env)
        assert out.stdout.strip() == "False"


def test_oracle_imports_neither_numpy_nor_the_engine():
    # the oracle is an independent pure-int checker: it reads the symbol
    # grammar and arith, and nothing of the engine whose conditions it checks
    names = set()
    for node in ast.walk(ast.parse(Path(lo.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert {"arith", "symbols"} <= names
    assert not names & {"numpy", "groups", "catalog", "extension", "obstructions"}


@pytest.mark.parametrize("label,p,root_level", [("Phi2(51)", 103, 4), ("Phi2(41)", 2003, 3)])
def test_oracle_reaches_large_primes(label, p, root_level):
    # the least ell with v_p(ell-1) = N has (ell-1)^2 far above 2^63
    start = time.perf_counter()
    (c,) = obstruction_for_instance(instantiate(label, p)).conditions
    basis = c.normal.basis
    assert basis.root_level == root_level and lo.find_suitable_ell(p, root_level) > 2**32
    assert lo.check_raw_vs_normal(c.raw, c.normal).equal
    wit = lo.witness_nontrivial(c.raw, basis)
    assert lo.eval_expression(c.raw, wit, basis) != 0
    assert time.perf_counter() - start < 2.0


@pytest.fixture(scope="module")
def engine_conditions():
    """Every engine condition of tables 1-6 at p = 3, 5, 7."""
    return [c for p in (3, 5, 7) for table in range(1, 7) for row in generate_table(table, p)
            for c in row.result.conditions]


class TestZeroForm:
    """A row's value is V^T M L, so a zero difference form M reads 0 on every
    row: the check decides equality without drawing any."""

    def test_every_engine_difference_form_is_zero(self, engine_conditions):
        assert len(engine_conditions) == 725
        for c in engine_conditions:
            assert lo._expression_form(c.raw, c.normal.basis) == _normal_upper(c.normal), c.origin

    def test_sparse_form_equals_dense_reference(self, engine_conditions):
        for c in engine_conditions:
            basis = c.normal.basis
            assert lo._expression_form(c.raw, basis) == _upper(_dense_form(c.raw, basis),
                                                               basis.torsion), c.origin

    def test_zero_form_picks_no_ell(self, monkeypatch, engine_conditions):
        def no_ell(p, level):
            raise AssertionError("a zero form picked an evaluation prime")

        monkeypatch.setattr(lo, "find_suitable_ell", no_ell)
        for c in engine_conditions:
            verdict = lo.check_raw_vs_normal(c.raw, c.normal)
            assert verdict.equal and verdict.counterexample is None, c.origin
        trivial = parse("(a1, z*a2; z)(a2, a1; z)(z, a1; z)")
        assert lo.witness_nontrivial(trivial, B1) is None
        assert lo.witness_nontrivial(parse("1"), B3) is None

    def test_drawn_rows_read_zero_anyway(self, engine_conditions):
        for k, c in enumerate(engine_conditions):
            basis = c.normal.basis
            ell, rows = _rows(basis, 200, k)
            raw_form, normal_form = lo._expression_form(c.raw, basis), _normal_upper(c.normal)
            raw = [lo._value(raw_form, row, basis.torsion) for row in rows]
            assert raw == [lo._value(normal_form, row, basis.torsion) for row in rows], c.origin
            # and on the first rows under the scalar path
            for r in range(2):
                asg = lo._assignment(basis, ell, rows[r])
                assert (lo.eval_expression(c.raw, asg, basis) == raw[r]
                        == lo.eval_normal_form(c.normal, asg)), c.origin


def test_oracle_budget_at_p101():
    # every condition of tables 1-6 at p = 101 is equal to its normal form
    # and, where nonzero, witnessed; the oracle calls alone take well under 2 s
    conditions = [c for table in range(1, 7) for row in generate_table(table, 101)
                  for c in row.result.conditions]
    assert len(conditions) == 11_481
    start = time.perf_counter()
    verdicts = [lo.check_raw_vs_normal(c.raw, c.normal) for c in conditions]
    witnesses = [lo.witness_nontrivial(c.raw, c.normal.basis) for c in conditions]
    elapsed = time.perf_counter() - start
    assert all(v.equal and v.counterexample is None for v in verdicts)
    assert [w is None for w in witnesses] == [c.normal.is_zero() for c in conditions]
    # a sample of the witnesses, confirmed under the scalar path
    for c, wit in list(zip(conditions, witnesses))[::97]:
        if wit is not None:
            assert lo.eval_expression(c.raw, wit, c.normal.basis) != 0, c.origin
    assert elapsed < 2.0


@st.composite
def _products(draw, basis):
    """A product of one to four symbols with integer exponents and weights,
    of one of three kinds: over the labels alone (the root column of its
    form is zero), over labels and roots, or zero by construction, each
    factor followed by its swap, (x, y)^w (y, x)^w = 1."""
    kind = draw(st.sampled_from(["labels", "roots", "zero"]))
    names = basis.labels
    if kind != "labels":
        names += tuple(root_label(k) for k in range(1, basis.root_level + 1))
    mono = st.dictionaries(st.sampled_from(names), st.integers(-4, 4), min_size=1, max_size=3)
    factors = draw(st.lists(st.tuples(mono, mono, st.integers(-basis.torsion, basis.torsion)),
                            min_size=1, max_size=4))
    if kind == "zero":
        factors += [(y, x, w) for x, y, w in factors]
    expr = parse("1")
    for x, y, w in factors:
        expr = expr * symbol(x, y, basis.torsion_level, w)
    return expr


class TestWitness:
    """The witness is read off the form M in closed form: for the first
    nonzero entry M[i][j] of the full M, column by column, a_i = ell and,
    where the root column of M is zero, a_j = g; every other label is 1."""

    @pytest.mark.parametrize("basis", BASES, ids=lambda b: f"p{b.p}N{b.root_level}n{b.torsion_level}")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_nonzero_form_is_witnessed_and_zero_form_is_not(self, basis, data):
        expr = data.draw(_products(basis))
        form = lo._expression_form(expr, basis)
        dense = _dense_form(expr, basis)
        assert form == _upper(dense, basis.torsion)
        wit = lo.witness_nontrivial(expr, basis)
        if not any(map(any, dense)):
            assert not form and wit is None
            return
        ell, row = lo._witness_row(form, basis)
        assert wit == lo._assignment(basis, ell, row)
        size = basis.size
        i, j = next((i, j) for j in range(size) for i in range(size) if dense[i][j])
        assert row[0] == [int(c == i) for c in range(size)]
        assert row[1][1:] == [int(c == j) for c in range(1, size)]
        value = lo.eval_expression(expr, wit, basis)
        assert value != 0 and value == lo._value(form, row, basis.torsion)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_root_entry_witness(self, p):
        # M[a1][z] != 0: a1 = ell alone reads M[a1][z] r, r = (ell-1)/p^N a unit
        basis = SymbolBasis(p=p, labels=("a1", "a2"), root_level=2, torsion_level=1)
        expr = parse("(a1, z2; z)(a1, a2; z)")
        wit = lo.witness_nontrivial(expr, basis)
        ell = lo.find_suitable_ell(p, 2)
        g = lo._primitive_root(ell, p)
        assert wit.values == (("z", (0, pow(g, (ell - 1) // p**2, ell))),
                              ("a1", (1, 1)), ("a2", (0, 1)))
        assert lo.eval_expression(expr, wit, basis) != 0

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_labels_only_witness(self, p):
        # the root column is zero: a2 = ell, a1 = g read M[a2][a1] = 1
        basis = SymbolBasis(p=p, labels=("a1", "a2", "a3"), root_level=1, torsion_level=1)
        expr = parse("(a1, a2; z)")
        wit = lo.witness_nontrivial(expr, basis)
        ell = lo.find_suitable_ell(p, 1)
        g = lo._primitive_root(ell, p)
        assert wit.values[1:] == (("a1", (0, g)), ("a2", (1, 1)), ("a3", (0, 1)))
        assert lo.eval_expression(expr, wit, basis) == 1

    def test_every_engine_condition_is_equal_and_witnessed(self, engine_conditions):
        # the witness is built from constants cached by (p, N, n); it must be
        # the assignment of `_witness_row`'s row on every shape, torsion p
        # and p^2 over one (p, N) included
        shapes = set()
        for c in engine_conditions:
            basis = c.normal.basis
            assert lo.check_raw_vs_normal(c.raw, c.normal).equal, c.origin
            wit = lo.witness_nontrivial(c.raw, basis)
            if c.normal.is_zero():
                assert wit is None, c.origin
            else:
                assert lo.eval_expression(c.raw, wit, basis) != 0, c.origin
                form = lo._expression_form(c.raw, basis)
                assert wit == lo._assignment(basis, *lo._witness_row(form, basis)), c.origin
                shapes.add((basis.p, basis.root_level, basis.torsion_level))
        assert {(p, 2, n) for p in (3, 5, 7) for n in (1, 2)} <= shapes
        # the three Phi14 templates, at torsion p^2, at each prime
        assert sum(c.normal.basis.torsion_level == 2 for c in engine_conditions) == 9


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


def _valuation(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m, v = m // p, v + 1
    return v


class TestNoBlindPrime:
    """Every check runs over one prime ell with v_p(ell - 1) = N exactly.  Where
    p^(N+1) divides ell - 1 the root's power residue is a p-th power, and at
    torsion p every root entry (a, zeta_{p^N}) reads 0."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_least_prime_of_exact_valuation(self, p):
        primes = _primes_below(700_000)
        for N in range(1, 5):
            ell = lo.find_suitable_ell(p, N)
            assert ell == next(q for q in primes if _valuation(q - 1, p) == N), (p, N)
            basis = SymbolBasis(p=p, labels=("a1",), root_level=N, torsion_level=1)
            _, zeta = lo.random_assignment(basis, ell, seed=0).value_of("z")
            for n in range(1, N + 1):
                residue = pow(zeta, (ell - 1) // p**n, ell)
                assert pow(residue, p**n, ell) == 1 and pow(residue, p**(n - 1), ell) != 1

    @pytest.mark.parametrize("p,N", [(3, 1), (3, 3), (5, 2)])
    def test_root_entry_is_never_blind(self, p, N):
        basis = SymbolBasis(p=p, labels=("a1", "a2"), root_level=N, torsion_level=1)
        expr = parse(f"(a1, {root_label(N)}; z)")
        rows = [asg for asg in _assignments(basis, 200, seed=0)
                if asg.value_of("a1")[0] % p]
        assert len(rows) >= 100
        assert [asg for asg in rows if lo.eval_expression(expr, asg, basis) == 0] == []


def test_is_prime_matches_sieve():
    assert [k for k in range(10**5) if is_prime(k)] == _primes_below(10**5)


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and is_prime(30909031)
