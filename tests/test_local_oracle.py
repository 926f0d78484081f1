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

import numpy as np
import pytest

from galemb import local_oracle as lo
from galemb.arith import is_prime
from galemb.catalog import instantiate
from galemb.obstructions import generate_table, obstruction_for_instance
from galemb.symbols import (BrauerExpression, NormalForm, SymbolBasis, normalize, one, parse,
                            root_label, root_level_of, symbol)

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
        assert lo.eval_expression(one(), ASG7, B1) == 0

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
            verdict = lo.check_equivalence(e1, e2, basis, trials=200, seed=7)
            assert verdict.equal

    def test_normal_form_evaluation(self):
        e = parse("(a1, z*a2; z)")
        nf = normalize(e, B1)
        verdict = lo.check_raw_vs_normal(e, nf, trials=100, seed=3)
        assert verdict.equal


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

    def test_verdict_determinism(self):
        e1, e2 = parse("(a1, a2; z)"), parse("(a2, a1; z)")
        v1 = lo.check_equivalence(e1, e2, B1, trials=50, seed=9)
        v2 = lo.check_equivalence(e1, e2, B1, trials=50, seed=9)
        assert (v1.equal, v1.trials) == (v2.equal, v2.trials)
        assert not v1.equal  # a swap is numerically visible

    def test_witness_found_quickly(self):
        wit = lo.witness_nontrivial(parse("(a1, a2; z)"), B1, trials=10, seed=0)
        assert wit is not None

    def test_witness_absent_for_trivial_class(self):
        assert lo.witness_nontrivial(parse("(a1, a1; z)"), B1, trials=30, seed=0) is None

    def test_distinguishes_inequivalent_expressions(self):
        # soundness has teeth: a genuinely different class is detected
        e1 = parse("(a1, a2; z)")
        e2 = parse("(a1, a2; z)^2")
        verdict = lo.check_equivalence(e1, e2, B1, trials=100, seed=0)
        assert not verdict.equal


def test_fraction_exponents_evaluate_like_bound_residues():
    e1 = parse("(a1, z^-1/4; z)")
    e2 = symbol({"a1": 1}, {"z": 2}, 1)  # -1/4 = 2 mod 3
    for i in range(30):
        asg = lo.random_assignment(B1, 7, seed=i)
        assert lo.eval_expression(e1, asg, B1) == lo.eval_expression(e2, asg, B1)


def test_oracle_sees_a_resolve_fault(monkeypatch):
    # the oracle evaluates labels itself: a resolve that folds each lower
    # root z_K as z_(K+1) moves the engine's normal forms but not the
    # oracle's value of the raw product
    resolve = SymbolBasis.resolve

    def one_level_short(self, pairs):
        return resolve(self, [
            (label, e) if label.startswith("a") or root_level_of(label) >= self.root_level
            else (root_label(root_level_of(label) + 1), e)
            for label, e in pairs])

    monkeypatch.setattr(SymbolBasis, "resolve", one_level_short)
    conditions = [c for table in range(1, 7) for row in generate_table(table, 3)
                  for c in row.result.conditions]
    moved = [(k, c) for k, c in enumerate(conditions)
             if lo._expression_form(c.raw, c.normal.basis) != lo._normal_form_form(c.normal)]
    assert moved
    verdicts = [(c, lo.check_raw_vs_normal(c.raw, c.normal, seed=k)) for k, c in moved]
    caught = [(c, v.counterexample) for c, v in verdicts if not v.equal]
    assert caught
    # each counterexample reads differently on both sides under the scalar path too
    for c, asg in caught:
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

    expr = one()
    for _ in range(rng.randint(1, 4)):
        expr = expr * symbol(mono(), mono(), basis.torsion_level, rng.choice(exponents))
    return expr


def _rows(basis, trials, seed, ell=None):
    """The row stream a check with `seed` reads, and its first `trials` rows."""
    stream = lo._RowStream(basis, ell or lo.find_suitable_ell(basis.p, basis.root_level), seed)
    return stream, [stream.draw() for _ in range(trials)]


def _assignments(basis, trials, seed, ell=None):
    """The first `trials` rows a check with `seed` reads, as assignments."""
    stream, rows = _rows(basis, trials, seed, ell)
    return [stream.assignment(row) for row in rows]


def _near_root_expression(rng, basis, names, factors):
    """A product of `factors` symbols whose label exponents and weights lie
    within 40 of +-p^N, so that every root slot resolves far above p^n."""
    big = basis.p**basis.root_level

    def mono():
        return {name: rng.choice((1, -1)) * (big - rng.randint(0, 40))
                for name in rng.sample(names, 3)}

    expr = one()
    for _ in range(factors):
        expr = expr * symbol(mono(), mono(), basis.torsion_level,
                             rng.choice((1, -1)) * (big - rng.randint(1, 40)))
    assert len(expr.factors) == factors
    assert all(lo._bind(f.exponent, basis.torsion) for f in expr.factors)
    return expr


def _form_equals_scalar(expr, basis, trials, seed, ell=None):
    """The form's value on each of the first rows equals the scalar
    `eval_expression` on the same row."""
    stream, rows = _rows(basis, trials, seed, ell)
    form = lo._expression_form(expr, basis)
    assert [lo._value(form, row, basis.torsion) for row in rows] == [
        lo.eval_expression(expr, stream.assignment(row), basis) for row in rows]
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
            stream, rows = _rows(basis, 40, case)
            asgs = [stream.assignment(row) for row in rows]
            raw, normal = lo._expression_form(expr, basis), lo._normal_form_form(nf)
            assert [lo._value(raw, row, basis.torsion) for row in rows] == [
                lo.eval_expression(expr, asg, basis) for asg in asgs]
            assert [lo._value(normal, row, basis.torsion) for row in rows] == [
                lo.eval_normal_form(nf, asg) for asg in asgs]
            assert lo.check_raw_vs_normal(expr, nf, trials=40, seed=case).equal

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
            # the largest entries (-1 mod p^n) and random ones
            form = [[torsion - 1] * size] * 4 + [[rng.randrange(torsion) for _ in range(size)]
                                                 for _ in range(size - 4)]
            rows = [([2] * size, [top] * size), ([-2] * size, [top - 1] * size)] + [
                ([rng.randint(-2, 2) for _ in range(size)],
                 [rng.randrange(top + 1) for _ in range(size)]) for _ in range(k - 2)]
            assert [lo._value(form, row, torsion) for row in rows] == [
                sum(v[i] * form[i][j] * L[j] for i in range(size) for j in range(size)) % torsion
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
        stream, rows = _rows(basis, 200, seed=p * 10 + n)
        odd = [row for row in rows if row[0][1] * row[0][2] % 2]
        assert len(odd) >= 20
        form = lo._expression_form(expr, basis)
        (f,) = expr.factors
        assert [lo._value(form, row, basis.torsion) for row in odd] == [
            lo.eval_symbol(f.left_mono(), f.right_mono(), stream.assignment(row), basis)
            for row in odd]

    @pytest.mark.parametrize("nfactors", [4, 8, 16])
    def test_one_form_per_product(self, nfactors):
        # however many factors, a product compiles to one (t+1) x (t+1)
        # alternating form, the sum of its factors' forms
        basis = SymbolBasis(p=5, labels=("a1", "a2", "a3"), root_level=2, torsion_level=2)
        torsion = basis.torsion
        rng = random.Random(nfactors)
        expr = one()
        for _ in range(nfactors):
            x, y = rng.sample(basis.labels + ("z2",), 2)
            expr = expr * symbol({x: rng.randint(1, 4)}, {y: 1}, 2, rng.randint(1, 24))
        assert len(expr.factors) == nfactors
        form = lo._expression_form(expr, basis)
        assert [len(row) for row in form] == [4] * 4
        assert all((form[i][j] + form[j][i]) % torsion == 0 for i in range(4) for j in range(4))
        assert not any(form[i][i] for i in range(4))
        parts = [lo._expression_form(BrauerExpression((f,)), basis) for f in expr.factors]
        assert [[sum(part[i][j] for part in parts) % torsion for j in range(4)]
                for i in range(4)] == form
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
        assert verdict.equal and verdict.trials == 0
        wit = lo.witness_nontrivial(expr, deep)
        assert wit.ell == 26 * 3**20 + 1
        assert lo.eval_expression(expr, wit, deep) != 0

    def test_mutated_normal_form_is_caught(self):
        basis = SymbolBasis(p=5, labels=("a1", "a2"), root_level=2, torsion_level=1)
        expr = parse("(z2^-1*a1, a2; z)(a1, z2^3; z)")
        nf = normalize(expr, basis)
        for u, v in ((0, 1), (1, 2), (0, 2)):
            matrix = [list(row) for row in nf.matrix]
            matrix[u][v] = (matrix[u][v] + 1) % basis.torsion
            bad = NormalForm(basis=basis, matrix=tuple(tuple(row) for row in matrix))
            verdict = lo.check_raw_vs_normal(expr, bad, trials=200, seed=u + v)
            assert not verdict.equal
            rows = _assignments(basis, verdict.trials, seed=u + v)
            # the counterexample is the first disagreeing row, also under the scalar path
            assert rows[-1] == verdict.counterexample
            assert lo.eval_expression(expr, rows[-1], basis) != lo.eval_normal_form(bad, rows[-1])
            assert all(lo.eval_expression(expr, asg, basis) == lo.eval_normal_form(bad, asg)
                       for asg in rows[:-1])

    def test_witness_is_first_nonzero_row(self):
        basis = SymbolBasis(p=3, labels=("a1", "a2"), root_level=1, torsion_level=1)
        expr = parse("(a1*a2, z; z)")
        firsts = []
        for seed in range(120):
            rows = _assignments(basis, 60, seed)
            first = next(i for i, asg in enumerate(rows) if lo.eval_expression(expr, asg, basis))
            assert lo.witness_nontrivial(expr, basis, trials=60, seed=seed) == rows[first]
            firsts.append(first)
        assert max(firsts) >= 4  # some witnesses lie several rows into the stream

    def test_prefix_property(self):
        basis = SymbolBasis(p=5, labels=("a1", "a2", "a3"), root_level=2, torsion_level=1)
        long = _assignments(basis, 200, seed=3)
        assert _assignments(basis, 50, seed=3) == long[:50]
        assert lo.random_assignment(basis, lo.find_suitable_ell(5, 2), seed=3) == long[0]

    def test_rows_decode_the_generator_words(self):
        # a row reads 2t little-endian 64-bit words masked to 63 bits, the
        # same bytes an int64 array decode of the generator reads: rows,
        # witnesses and counterexamples do not depend on the decoder
        basis = SymbolBasis(p=5, labels=("a1", "a2", "a3"), root_level=2, torsion_level=1)
        ell = lo.find_suitable_ell(5, 2)
        _, rows = _rows(basis, 50, seed=3)
        raw = np.frombuffer(random.Random(3).randbytes(50 * 3 * 16), dtype="<i8")
        words = (raw & (2**63 - 1)).reshape(50, 3, 2)
        assert rows == [([0] + (w[:, 0] % 5 - 2).tolist(),
                         [(ell - 1) // 25] + (w[:, 1] % (ell - 1)).tolist()) for w in words]

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
            assert lo._expression_form(c.raw, c.normal.basis) == lo._normal_form_form(c.normal), \
                c.origin

    def test_zero_form_draws_no_rows(self, monkeypatch, engine_conditions):
        calls = []
        draw = lo._RowStream.draw
        monkeypatch.setattr(lo._RowStream, "draw", lambda self: calls.append(1) or draw(self))
        verdicts = [lo.check_raw_vs_normal(c.raw, c.normal, seed=k)
                    for k, c in enumerate(engine_conditions)]
        assert all(v.equal and v.trials == 0 for v in verdicts)
        assert calls == []

    def test_nonzero_form_counts_the_rows_it_read(self):
        # (a1, a2; z) against 1 reads 0 on a row where both valuations are 0:
        # over such first rows the check agrees, and says how many it read
        expr = parse("(a1, a2; z)")
        seed = next(s for s in range(500) if _rows(B1, 1, s)[1][0][0] == [0, 0, 0])
        verdict = lo.check_equivalence(expr, one(), B1, trials=1, seed=seed)
        assert verdict.equal and verdict.trials == 1
        verdict = lo.check_equivalence(expr, one(), B1, trials=200, seed=seed)
        assert not verdict.equal and 1 < verdict.trials <= 200

    def test_drawn_rows_read_zero_anyway(self, engine_conditions):
        for k, c in enumerate(engine_conditions):
            basis = c.normal.basis
            stream, rows = _rows(basis, 200, k)
            raw_form, normal_form = lo._expression_form(c.raw, basis), lo._normal_form_form(c.normal)
            raw = [lo._value(raw_form, row, basis.torsion) for row in rows]
            assert raw == [lo._value(normal_form, row, basis.torsion) for row in rows], c.origin
            # and on the first rows under the scalar path
            for r in range(2):
                asg = stream.assignment(rows[r])
                assert (lo.eval_expression(c.raw, asg, basis) == raw[r]
                        == lo.eval_normal_form(c.normal, asg)), c.origin


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
