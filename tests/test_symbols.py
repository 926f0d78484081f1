"""Expression grammar, normalization rules, and rendering round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galemb.symbols import (
    BasisError,
    BrauerExpression,
    ExpressionError,
    SymbolBasis,
    SymbolFactor,
    compile_expression,
    normalize,
    parse,
    render,
    root_label,
    symbol,
)
from dense_forms import from_dense

B1 = SymbolBasis(p=3, labels=("a1", "a2"), root_level=1, torsion_level=1)
B3 = SymbolBasis(p=3, labels=("a1", "a2"), root_level=3, torsion_level=1)
B21 = SymbolBasis(p=3, labels=("a1", "a2"), root_level=2, torsion_level=1)
B22 = SymbolBasis(p=3, labels=("a1", "a2"), root_level=2, torsion_level=2)


class TestNormalize:
    def test_root_merge(self):
        # (a1,a2;z)(a2,z3;z) carries the same class as (z3^-1*a1, a2; z)
        e = parse("(a1, a2; z)(a2, z3; z)")
        nf = normalize(e, B3)
        assert nf.entries == ((0, 2, 2), (1, 2, 1))  # z-vs-a2 exponent is -1
        assert nf == normalize(parse("(z3^-1*a1, a2; z)"), B3)

    def test_alternating(self):
        assert normalize(parse("(a1, a1; z)"), B1).is_zero()

    def test_sub_level_root_vanishes(self):
        # with zeta_{p^2} in the field, zeta_p is a p-th power
        assert normalize(parse("(a1, z; z)"), B21).is_zero()
        assert not normalize(parse("(a1, z2; z)"), B21).is_zero()

    def test_torsion_p2_keeps_z_power(self):
        nf = normalize(parse("(a1, z; z2)"), B22)
        assert nf.entries == ((0, 1, (-3) % 9),)

    def test_exponent_reduction(self):
        assert normalize(parse("(a1, a2; z)^3"), B1).is_zero()
        assert normalize(parse("(a1, a2; z)^4"), B1) == normalize(parse("(a1, a2; z)"), B1)

    def test_fraction_binding(self):
        # -1/4 = -1 mod 3
        nf = normalize(parse("(a1, z^-1/4; z)"), B1)
        assert nf.entries == ((0, 1, 1),)

    def test_unknown_label(self):
        with pytest.raises(BasisError):
            normalize(parse("(a9, a1; z)"), B1)

    def test_root_above_basis_level(self):
        with pytest.raises(BasisError, match="^root 'z4' exceeds the basis root level 3$"):
            normalize(parse("(a1, z4; z)"), B3)

    def test_basis_labels_are_distinct_a_names(self):
        # a root label or a repeat in the basis would read one way in
        # normalize and another in the oracle
        for labels in [("a1", "a1"), ("a1", "z2"), ("b1",), ("a01",)]:
            with pytest.raises(BasisError, match="distinct aN names"):
                SymbolBasis(p=3, labels=labels, root_level=2, torsion_level=1)
        # eval's basis holds the labels an expression names, gaps and all
        basis = SymbolBasis(p=3, labels=("a2", "a5"), root_level=2, torsion_level=1)
        assert normalize(parse("(a5, z2; z)"), basis).entries == ((0, 2, 2),)

    def test_torsion_mismatch(self):
        with pytest.raises(ExpressionError):
            parse("(a1, a2; z)(a1, a2; z2)")
        with pytest.raises(BasisError):
            normalize(parse("(a1, a2; z2)"), B1)


class TestEqual:
    def test_inverse_pair_is_trivial(self):
        assert normalize(parse("(a1, a2; z)(a2, a1; z)"), B1) == normalize(parse("1"), B1)

    def test_swap_is_not_equal(self):
        assert normalize(parse("(a1, a2; z)"), B1) != normalize(parse("(a2, a1; z)"), B1)

    def test_bilinearity_merge(self):
        assert (normalize(parse("(a1, z*a2; z)"), B1)
                == normalize(parse("(a1, a2; z)(a1, z; z)"), B1))


class TestParse:
    def test_single_symbol_with_root_factor(self):
        e = parse("(z3^-1*a1, a2; z)")
        assert len(e.factors) == 1
        assert dict(e.factors[0].left) == {"z3": -1, "a1": 1}
        assert e.torsion_level == 1

    def test_one(self):
        assert parse("1").factors == ()

    def test_whitespace_insignificant(self):
        assert parse(" ( a1 , a2 ; z ) ") == parse("(a1,a2;z)")

    def test_placeholder_env(self):
        e = parse("(a1, z^k*a3; z)", env={"k": 2})
        basis = SymbolBasis(p=5, labels=("a1", "a2", "a3"), root_level=1, torsion_level=1)
        assert normalize(e, basis).entries == ((0, 1, (-2) % 5), (1, 3, 1))

    def test_unbound_placeholder(self):
        with pytest.raises(ExpressionError):
            parse("(a1, z^k; z)")

    def test_placeholder_binds_per_env(self):
        # one compiled text, two envs: each binding is its own expression and
        # the first is unchanged by the second
        compiled = compile_expression("(a1, z^k*a3; z)(a2, a3; z)^-k")
        two, four = compiled.bind({"k": 2}), compiled.bind({"k": 4})
        assert two != four
        assert two == parse("(a1, z^2*a3; z)(a2, a3; z)^-2")
        assert four == parse("(a1, z^4*a3; z)(a2, a3; z)^-4")
        assert compiled.bind({"k": 2}) == two

    def test_unbound_placeholder_raises_at_bind(self):
        text = "(a1, a2; z)(a1, z^k; z)"
        compiled = compile_expression(text)
        with pytest.raises(ExpressionError) as err:
            compiled.bind({"g": 2})
        assert str(err.value) == f"unbound exponent placeholder 'k' (at position {text.index('k')})"
        assert err.value.pos == text.index("k")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExpressionError) as err:
            parse("(a1, a2; z")
        assert err.value.pos is not None

    @pytest.mark.parametrize("text,pos", [
        ("(a0, a1; z)", 1),
        ("(a01, a1; z)", 1),
        ("(a1, z0*a2; z)", 5),
        ("(a1, z01*a2; z)", 5),
        ("(a1, a2; z0)", 9),
        ("(a1, a2; z01)", 9),
    ])
    def test_label_index_zero_or_leading_zero_is_rejected(self, text, pos):
        # a01 would be a second label beside a1, and z01 would read as z
        with pytest.raises(ExpressionError) as err:
            compile_expression(text)
        assert err.value.pos == pos

    def test_label_index_with_inner_zero_parses(self):
        (factor,) = parse("(a10, z10*a20; z10)").factors
        assert [lbl for lbl, _ in factor.left + factor.right] == ["a10", "a20", "z10"]
        assert factor.torsion_level == 10

    def test_term_exponent(self):
        assert (normalize(parse("(a1, a2; z)^2"), B1)
                == normalize(parse("(a1, a2; z)(a1, a2; z)"), B1))


class TestRender:
    def test_zero(self):
        assert render(normalize(parse("1"), B1)) == "1"

    def test_mixed_column(self):
        assert render(normalize(parse("(a1, a2; z)(a2, z3; z)"), B3)) == "(z3^-1*a1, a2; z)"

    def test_pure_root_column_flips(self):
        assert render(normalize(parse("(a2, z2; z)"), B21)) == "(a2, z2; z)"

    def test_roundtrip_on_catalog_style_expressions(self):
        for text, basis in [
            ("(z3^-1*a1, a2; z)", B3),
            ("(a1, z*a2; z)", B1),
            ("(a1, a2; z)(a2, z; z)", B1),
            ("(a1, z2; z2)(a1, a2; z2)", B22),
        ]:
            nf = normalize(parse(text), basis)
            assert normalize(parse(render(nf)), basis) == nf


def monomials(basis):
    labels = ["z", f"z{basis.root_level}"] + list(basis.labels)
    return st.dictionaries(
        st.sampled_from(labels),
        st.integers(min_value=-6, max_value=6),
        min_size=1,
        max_size=3,
    )


@settings(max_examples=60, deadline=None)
@given(x=monomials(B3), y=monomials(B3), b=monomials(B3))
def test_bilinearity_left_slot(x, y, b):
    xy = dict(x)
    for k, v in y.items():
        xy[k] = xy.get(k, 0) + v
    merged = symbol(xy, b, 1)
    split = symbol(x, b, 1) * symbol(y, b, 1)
    assert normalize(merged, B3) == normalize(split, B3)


@settings(max_examples=60, deadline=None)
@given(x=monomials(B3), b=monomials(B3))
def test_antisymmetry(x, b):
    e = symbol(x, b, 1) * symbol(b, x, 1)
    assert normalize(e, B3).is_zero()
    assert normalize(symbol(x, x, 1), B3).is_zero()


@settings(max_examples=60, deadline=None)
@given(x=monomials(B22), y=monomials(B22))
def test_torsion_power_vanishes(x, y):
    e = symbol(x, y, 2, exponent=9)
    assert normalize(e, B22).is_zero()


@settings(max_examples=60, deadline=None)
@given(x=monomials(B3), y=monomials(B3), e=st.integers(min_value=-4, max_value=4))
def test_render_roundtrip(x, y, e):
    nf = normalize(symbol(x, y, 1, exponent=e), B3)
    assert normalize(parse(render(nf)), B3) == nf


def _dense_normalize(expr, basis):
    """Reference normal form matrix: each slot resolved here, then the
    O(size^2) fold of L[u] R[v] - L[v] R[u] over every pair u < v."""
    p, N, torsion, size = basis.p, basis.root_level, basis.torsion, basis.size

    def bind(e):
        if isinstance(e, Fraction):
            return e.numerator * pow(e.denominator, -1, torsion) % torsion
        return e % torsion

    def vector(pairs):
        vec = [0] * size
        for label, e in pairs:
            if label in basis.labels:
                vec[basis.labels.index(label) + 1] += bind(e)
            else:
                vec[0] += bind(e) * p ** (N - (int(label[1:]) if label != "z" else 1))
        return vec

    M = [[0] * size for _ in range(size)]
    for f in expr.factors:
        w = bind(f.exponent)
        L, R = vector(f.left), vector(f.right)
        for u in range(size):
            for v in range(u + 1, size):
                M[u][v] = (M[u][v] + w * (L[u] * R[v] - L[v] * R[u])) % torsion
    return tuple(tuple(row) for row in M)


@st.composite
def raw_expressions(draw, basis):
    """Products of factors whose slots list (label, exponent) pairs: several
    labels, a label repeated, roots z..z_N, negative and fractional
    exponents (denominators prime to p)."""
    names = basis.labels + tuple(root_label(k) for k in range(1, basis.root_level + 1))
    exponents = st.one_of(
        st.integers(-30, 30),
        st.builds(Fraction, st.integers(-12, 12), st.sampled_from([2, 4, 7])))
    pairs = st.lists(st.tuples(st.sampled_from(names), exponents), min_size=1, max_size=5)
    factors = draw(st.lists(st.tuples(pairs, pairs, exponents), max_size=5))
    return BrauerExpression(tuple(
        SymbolFactor(left=tuple(x), right=tuple(y), exponent=w, torsion_level=basis.torsion_level)
        for x, y, w in factors))


@pytest.mark.parametrize("basis", [
    SymbolBasis(p=3, labels=("a1", "a2", "a3"), root_level=3, torsion_level=1),
    SymbolBasis(p=3, labels=("a1", "a2", "a3"), root_level=3, torsion_level=2),
    SymbolBasis(p=5, labels=("a1", "a2", "a3", "a4"), root_level=2, torsion_level=1),
    SymbolBasis(p=5, labels=("a1", "a2"), root_level=2, torsion_level=2),
], ids=lambda b: f"p{b.p}N{b.root_level}n{b.torsion_level}")
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_sparse_fold_equals_dense_reference(basis, data):
    expr = data.draw(raw_expressions(basis))
    # equal entries, zeros dropped and sorted by (u, v) as from_dense lists them
    assert normalize(expr, basis) == from_dense(basis, _dense_normalize(expr, basis))
