"""Collection arithmetic: multiplication, inverses, powers, commutators,
orders, enumeration, and the structural helpers."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galemb import groups
from galemb.catalog import enumerate_instances, instantiate
from galemb.extension import ExtensionError
from galemb.groups import (
    ElementError,
    EnumerationBoundError,
    PresentationError,
    PrimeContext,
    make_presentation,
)
from galemb.obstructions import spec_for_instance
from strategies import class2_presentations


def fold_mul(P, x, times):
    """Independent oracle: n-fold repeated multiplication."""
    acc = P.identity
    for _ in range(times):
        acc = groups.mul(P, acc, x)
    return acc


class TestMul:
    def test_commutator_relation_drives_collection(self, phi2_41_p3):
        # alpha1 * alpha = alpha * alpha1 * alpha2
        P = phi2_41_p3.presentation
        assert groups.mul(P, (0, 1, 0), (1, 0, 0)) == (1, 1, 1)

    def test_identity(self, phi2_41_p3):
        P = phi2_41_p3.presentation
        rng = random.Random(7)
        for _ in range(20):
            x = tuple(rng.randrange(o) for o in P.orders)
            assert groups.mul(P, x, P.identity) == x
            assert groups.mul(P, P.identity, x) == x

    def test_power_tail_carry(self, phi2_41_p3):
        # alpha^27 = alpha2, computed by brute-force repeated multiplication
        P = phi2_41_p3.presentation
        assert fold_mul(P, P.generator("alpha"), 27) == (0, 0, 1)

    def test_dimension_mismatch(self, phi2_41_p3):
        P = phi2_41_p3.presentation
        with pytest.raises(ElementError):
            groups.mul(P, (0, 0), (0, 0, 0))
        with pytest.raises(ElementError):
            groups.commutator(P, (0, 0, 0), (1, 0))
        with pytest.raises(ElementError):
            groups.inv(P, (1, 0))
        with pytest.raises(ElementError):
            groups.pow_element(P, (1, 0, 0, 0), 2)


class TestInv:
    def test_identity(self, phi2_41_p3):
        P = phi2_41_p3.presentation
        assert groups.inv(P, P.identity) == P.identity

    def test_alpha_inverse_matches_brute_force(self, phi2_41_p3):
        P = phi2_41_p3.presentation
        alpha = P.generator("alpha")
        candidates = [
            (26, 0, b) for b in range(3)
            if groups.mul(P, alpha, (26, 0, b)) == P.identity
        ]
        assert candidates == [(26, 0, 2)]
        assert groups.inv(P, alpha) == (26, 0, 2)

    def test_involution_on_random_elements(self, phi4_221a_p3):
        P = phi4_221a_p3.presentation
        rng = random.Random(11)
        for _ in range(100):
            x = tuple(rng.randrange(o) for o in P.orders)
            assert groups.inv(P, groups.inv(P, x)) == x
            assert groups.mul(P, x, groups.inv(P, x)) == P.identity


class TestPow:
    def test_zero(self, phi2_41_p3):
        P = phi2_41_p3.presentation
        assert groups.pow_element(P, (5, 1, 2), 0) == P.identity

    def test_cube_of_product(self, phi2_41_p3):
        # (alpha*alpha1)^3 = alpha^3: the commutator correction is a cube
        P = phi2_41_p3.presentation
        x = groups.mul(P, P.generator("alpha"), P.generator("alpha1"))
        expected = fold_mul(P, x, 3)
        assert expected == (3, 0, 0)
        assert groups.pow_element(P, x, 3) == expected

    def test_tail_of_order_p2_generator(self):
        # alpha1^(p^2) = beta in the p^2-kernel family
        inst = instantiate("Phi14(42)", 3)
        P = inst.presentation
        assert groups.pow_element(P, P.generator("alpha1"), 9) == (0, 0, 1)

    def test_agrees_with_iterated_mul(self, phi4_221a_p3):
        P = phi4_221a_p3.presentation
        rng = random.Random(3)
        for _ in range(10):
            x = tuple(rng.randrange(o) for o in P.orders)
            acc = P.identity
            for n in range(2 * 27 + 1):
                assert groups.pow_element(P, x, n) == acc
                acc = groups.mul(P, acc, x)


class TestCommutator:
    def test_self_commutator_trivial(self, phi2_41_p3):
        P = phi2_41_p3.presentation
        rng = random.Random(5)
        for _ in range(20):
            x = tuple(rng.randrange(o) for o in P.orders)
            assert groups.commutator(P, x, x) == P.identity

    def test_defining_relation(self, phi2_41_p3):
        P = phi2_41_p3.presentation
        assert groups.commutator(P, P.generator("alpha1"), P.generator("alpha")) == (0, 0, 1)

    def test_inverted_orientation(self, phi4_221a_p3):
        # [alpha, alpha2] = beta2^-1, from [alpha2, alpha] = beta2
        P = phi4_221a_p3.presentation
        got = groups.commutator(P, P.generator("alpha"), P.generator("alpha2"))
        assert got == (0, 0, 0, 0, 2)

    def test_antisymmetry(self, phi4_221a_p3):
        P = phi4_221a_p3.presentation
        rng = random.Random(13)
        for _ in range(50):
            x = tuple(rng.randrange(o) for o in P.orders)
            y = tuple(rng.randrange(o) for o in P.orders)
            assert groups.commutator(P, x, y) == groups.inv(P, groups.commutator(P, y, x))

    def test_relation_words_are_central(self):
        for label, p in [("Phi2(41)", 3), ("Phi15(2211)a", 3), ("Phi14(321)", 3)]:
            P = instantiate(label, p).presentation
            for i, tail in enumerate(P.power_tails):
                if tail is not None:
                    assert groups.is_central_element(P, tuple(c % o for c, o in zip(tail, P.orders)))
            for _, _, word in P.comm:
                assert groups.is_central_element(P, tuple(c % o for c, o in zip(word, P.orders)))


def ref_inv(P, x):
    """Inverse collected as g_{k-1}^{-x_{k-1}} ... g_0^{-x_0}, from mul and
    `carried_power` alone."""
    acc = P.identity
    for i in range(P.ngens - 1, -1, -1):
        acc = groups.mul(P, acc, carried_power(P, i, -x[i]))
    return acc


def ref_pow(P, x, n):
    """x^n by binary powering with mul; negative n through ref_inv."""
    if n < 0:
        x, n = ref_inv(P, x), -n
    acc = P.identity
    while n:
        if n & 1:
            acc = groups.mul(P, acc, x)
        x = groups.mul(P, x, x)
        n >>= 1
    return acc


def assert_closed_forms_match_collection(P, x, y, exponent, n, where):
    """inv, commutator, pow_element and is_central_element at x and y
    against the mul-only references; exponent is a multiple of the exponent
    of P, n any further power to try."""
    p = P.p
    x_inv = ref_inv(P, x)
    assert groups.inv(P, x) == x_inv, where
    assert groups.mul(P, x, x_inv) == P.identity, where
    want = groups.mul(P, groups.mul(P, x_inv, ref_inv(P, y)), groups.mul(P, x, y))
    assert groups.commutator(P, x, y) == want, where
    for k in (0, 1, -1, p, -p, exponent + 1, -exponent - 1, n):
        assert groups.pow_element(P, x, k) == ref_pow(P, x, k), (where, x, k)
    # x is rarely central; its part on the relation targets always is
    gens = [P.generator(name) for name in P.names]
    on_targets = tuple(c if P.central[i] else 0 for i, c in enumerate(x))
    for z in (x, on_targets, groups.mul(P, x, on_targets)):
        central = all(groups.mul(P, z, g) == groups.mul(P, g, z) for g in gens)
        assert groups.is_central_element(P, z) == central, (where, z)


def elements(P):
    return st.tuples(*(st.integers(0, o - 1) for o in P.orders))


class TestClosedForms:
    """The bilinear commutator and the class-2 power formula against
    references built only from collection (mul and `_carry`)."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_agree_with_collection_on_every_instance(self, p):
        rng = random.Random(p)
        for inst in enumerate_instances(p):
            P = inst.presentation
            exponent = max(P.orders) * p  # past the exponent of every catalog group
            for _ in range(4):
                x = tuple(rng.randrange(o) for o in P.orders)
                y = tuple(rng.randrange(o) for o in P.orders)
                assert_closed_forms_match_collection(P, x, y, exponent,
                                                     rng.randrange(-exponent, exponent),
                                                     inst.label)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agree_with_collection_on_drawn_presentations(self, data):
        P = data.draw(class2_presentations())
        x, y = data.draw(elements(P)), data.draw(elements(P))
        order = groups.group_order(P)  # a multiple of the exponent
        assert_closed_forms_match_collection(P, x, y, order,
                                             data.draw(st.integers(-order**2, order**2)), P)
        pairs = data.draw(st.lists(st.tuples(elements(P), elements(P)), min_size=1, max_size=8))
        Z = groups.bulk_mul(P, np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
        assert [tuple(z) for z in Z.tolist()] == [groups.mul(P, a, b) for a, b in pairs]


def carried_power(P, i, n):
    """g_i^n by `_carry` alone."""
    z = [0] * P.ngens
    z[i] = n
    return groups._carry(P, z)


def order_exp_by_collection(P, x):
    """log_p of the order of x, each p-th power by p-fold collection."""
    e = 0
    while x != P.identity:
        x = fold_mul(P, x, P.p)
        e += 1
    return e


def assert_generator_orders(P, kernel, where):
    """generator_order_exp of every generator against element_order and
    collection in G, and, skipping the kernel coordinates, of every other
    generator against collection in G/K."""
    ker = groups.kernel_indices(P, kernel)
    image = groups.quotient_by_central(P, list(kernel))[1]
    for i in range(P.ngens):
        g = tuple(int(t == i) for t in range(P.ngens))
        e = order_exp_by_collection(P, g)
        assert groups.generator_order_exp(P, i) == e, (where, P.names[i])
        assert groups.element_order(P, g) == P.p**e, (where, P.names[i])
        if i not in ker:
            assert (groups.generator_order_exp(P, i, ker)
                    == order_exp_by_collection(image.quotient, image(g))), (where, P.names[i])


class TestGeneratorOrder:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_on_every_instance(self, p):
        for inst in enumerate_instances(p):
            assert_generator_orders(inst.presentation, inst.kernels, inst.label)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_on_drawn_presentations(self, data):
        # any generator with a trivial tail and no commutator relation can
        # be a kernel generator
        P = data.draw(class2_presentations())
        involved = {t for j, i, _ in P.comm for t in (j, i)}
        free = [P.names[t] for t in range(P.ngens)
                if P.power_tails[t] is None and t not in involved]
        kernel = data.draw(st.lists(st.sampled_from(free), unique=True, max_size=2)) if free else []
        assert_generator_orders(P, kernel, P)


class TestStructure:
    def test_abelian_quotient_needs_both_kernels(self, phi4_221a_p3):
        P = phi4_221a_p3.presentation
        assert groups.is_abelian_quotient(P, ["beta1", "beta2"])
        assert not groups.is_abelian_quotient(P, ["beta1"])

    def test_element_order_divides_exponent(self, phi2_41_p3):
        P = phi2_41_p3.presentation
        rng = random.Random(23)
        for _ in range(30):
            x = tuple(rng.randrange(o) for o in P.orders)
            order = groups.element_order(P, x)
            assert 81 % order == 0  # exponent of Phi2(41) at p=3 is p^4

    def test_group_order(self, phi2_41_p3, phi4_221a_p3):
        assert groups.group_order(phi2_41_p3.presentation) == 3**5
        assert groups.group_order(phi4_221a_p3.presentation) == 3**5


class TestCentralLog:
    """The log of a central element, read by `EmbeddingProblemSpec.kernel_logs`."""

    def test_identity(self, phi2_41_p3):
        spec = spec_for_instance(phi2_41_p3)
        assert spec.kernel_names == ("alpha2",)
        assert spec.kernel_logs(phi2_41_p3.presentation.identity) == (0,)

    def test_power_tail(self, phi2_41_p3):
        P = phi2_41_p3.presentation
        x = groups.pow_element(P, P.generator("alpha"), 27)
        assert spec_for_instance(phi2_41_p3).kernel_logs(x) == (1,)

    def test_projection_modulo_complement(self, phi4_221a_p3):
        P = phi4_221a_p3.presentation
        spec = spec_for_instance(phi4_221a_p3)
        c = groups.commutator(P, P.generator("alpha"), P.generator("alpha1"))
        assert spec.kernel_logs(c)[spec.kernel_names.index("beta1")] == 2

    def test_rejects_support_outside_subgroup(self, phi4_221a_p3):
        P = phi4_221a_p3.presentation
        with pytest.raises(ExtensionError, match="outside the kernel"):
            spec_for_instance(phi4_221a_p3).kernel_logs(P.generator("alpha"))


class TestEnumerate:
    def test_trivial_group(self):
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [])
        assert groups.enumerate_elements(P) == [()]

    def test_lengths(self, phi2_41_p3):
        assert len(groups.enumerate_elements(phi2_41_p3.presentation)) == 243
        P6 = instantiate("Phi14(42)", 3).presentation
        assert len(groups.enumerate_elements(P6)) == 729

    def test_lexicographic_order(self, abelian_p3):
        elements = groups.enumerate_elements(abelian_p3)
        assert elements == sorted(elements)

    def test_bound(self, phi2_41_p3):
        with pytest.raises(EnumerationBoundError):
            groups.enumerate_elements(phi2_41_p3.presentation, bound=100)


class TestValidator:
    def test_rejects_p_equal_2(self):
        with pytest.raises(PresentationError):
            PrimeContext.for_prime(2)

    def test_rejects_composite(self):
        with pytest.raises(PresentationError):
            PrimeContext.for_prime(9)

    def test_context_built_once_per_prime(self):
        assert PrimeContext.for_prime(101) is PrimeContext.for_prime(101)
        for bad in (2, 2, 9, 9):  # invalid primes are never cached
            with pytest.raises(PresentationError):
                PrimeContext.for_prime(bad)

    def test_rejects_tail_on_noncentral_target(self):
        # x's tail hits y, but y carries a commutator relation: not class <= 2 data
        ctx = PrimeContext.for_prime(3)
        with pytest.raises(PresentationError):
            make_presentation(
                ctx,
                [("x", 1), ("y", 1), ("z", 1)],
                power_tails={"x": {"y": 1}},
                comms={("y", "x"): {"z": 1}},
            )

    @pytest.mark.parametrize("relations", [{"power_tails": {"b": {"a": 1}}},
                                           {"comms": {("a", "b"): {"a": 1}}},
                                           {"comms": {("b", "a"): {"a": 1}}}])
    def test_rejects_relation_keyed_by_unknown_generator(self, relations):
        ctx = PrimeContext.for_prime(3)
        with pytest.raises(PresentationError, match=r"^unknown generator 'b' in relation$"):
            make_presentation(ctx, [("a", 1)], **relations)

    @pytest.mark.parametrize("gens, comms, error", [
        ([("a", 1), ("a", 1)], {}, "duplicate generator names"),
        ([("a", 0)], {}, "relative order exponents must be >= 1"),
        ([("a", 1), ("c", 1)], {("a", "a"): {"c": 1}}, r"commutator \[a,a\] must be trivial"),
        ([("a", 1), ("b", 1), ("c", 1)], {("a", "b"): {"c": 1}, ("b", "a"): {"c": 2}},
         "duplicate commutator relation for pair b,a"),
    ])
    def test_rejects_malformed_relations(self, gens, comms, error):
        ctx = PrimeContext.for_prime(3)
        with pytest.raises(PresentationError, match=f"^{error}$"):
            make_presentation(ctx, gens, comms=comms)

    def test_rejects_two_power_relations_for_one_generator(self):
        tail = (("c", 1, 1, None),)
        with pytest.raises(PresentationError, match="^two power relations for generator 'a'$"):
            groups.RelationTable((("a", 1), ("c", 1)), (("a", None, tail), ("a", None, tail)))

    def test_zero_words_are_trivial(self):
        # words that vanish mod the orders are skipped before any check
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("a", 1), ("b", 1), ("c", 1)], power_tails={"a": {"c": 3}},
                              comms={("a", "a"): {"c": 3}, ("a", "b"): {"c": 0}, ("b", "a"): {}})
        assert P.power_tails == (None, None, None) and P.comm == ()
        assert P.central == (False, False, False)

    def test_prime_context_values(self):
        ctx = PrimeContext.for_prime(7)
        assert ctx.nu == 3 and ctx.g == 3

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rejects_relations_on_a_relation_target(self, data):
        P = data.draw(class2_presentations())
        gens = list(zip(P.names, P.order_exps))

        def word(vec):
            return {P.names[t]: c for t, c in enumerate(vec) if c}

        tails = {P.names[i]: word(t) for i, t in enumerate(P.power_tails) if t is not None}
        comms = {(P.names[j], P.names[i]): word(w) for j, i, w in P.comm}
        assert make_presentation(P.ctx, gens, tails, comms) == P
        targets = [name for name, hit in zip(P.names, P.central) if hit]
        assume(targets)
        t = data.draw(st.sampled_from(targets))
        w = {data.draw(st.sampled_from(P.names)): 1}
        if data.draw(st.booleans()):
            tails[t] = w
        else:
            comms[(t, data.draw(st.sampled_from([n for n in P.names if n != t])))] = w
        with pytest.raises(PresentationError, match="carries relation values"):
            make_presentation(P.ctx, gens, tails, comms)


def xy_commutator_z(z_exp):
    """x, y of order 3 with [y, x] = z, z of order 3^z_exp.  For z_exp = 2 the
    presentation is inconsistent: [y, x]^3 = [y, x^3] = 1 forces z^3 = 1."""
    ctx = PrimeContext.for_prime(3)
    return make_presentation(ctx, [("x", 1), ("y", 1), ("z", z_exp)],
                             comms={("y", "x"): {"z": 1}})


def associative_all_columns(T):
    """Reference sweep: (xa)y = x(ay) for every middle element a of the table."""
    return all(np.array_equal(T[T[:, a], :], T[:, T[a, :]]) for a in range(T.shape[0]))


def collect_with_extremes(P, X, Y):
    """groups._collect on (k, n) int64 inputs, with the least and the largest
    value that any array operation inside it produced."""
    seen = []

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            def plain(a):
                return a.view(np.ndarray) if isinstance(a, Watched) else a
            inputs = tuple(plain(a) for a in inputs)
            if "out" in kwargs:
                kwargs["out"] = tuple(plain(a) for a in kwargs["out"])
            result = getattr(ufunc, method)(*inputs, **kwargs)
            seen.extend((int(result.min()), int(result.max())))
            return result.view(Watched)

    Z = groups._collect(P, X.view(Watched), Y.view(Watched)).view(np.ndarray)
    return Z, min(seen), max(seen)


def assert_narrow_collect_exact(P, rng, where, ncols=30):
    """On random reduced columns plus the all-(o_i - 1) column, _collect in
    _sweep_dtype(P) equals the int64 _collect and scalar mul, and the int64
    run never leaves [0, _collect_bound(P)], reaching the bound exactly."""
    orders = np.array(P.orders, dtype=np.int64)[:, None]
    X = np.hstack([rng.integers(0, orders, (P.ngens, ncols)), orders - 1])
    Y = np.hstack([rng.integers(0, orders, (P.ngens, ncols)), orders - 1])
    wide, low, high = collect_with_extremes(P, X, Y)
    assert low >= 0 and high == groups._collect_bound(P), where
    dtype = groups._sweep_dtype(P)
    narrow = groups._collect(P, X.astype(dtype), Y.astype(dtype))
    assert narrow.dtype == dtype and np.array_equal(narrow, wide), where
    for x, y, z in zip(X.T.tolist(), Y.T.tolist(), wide.T.tolist()):
        assert groups.mul(P, tuple(x), tuple(y)) == tuple(z), where


class TestBulkOps:
    def test_bulk_matches_scalar(self):
        rng = random.Random(1)
        for p in (3, 5):
            for inst in enumerate_instances(p):
                P = inst.presentation
                X = [[rng.randrange(o) for o in P.orders] for _ in range(50)]
                Y = [[rng.randrange(o) for o in P.orders] for _ in range(50)]
                Z = groups.bulk_mul(P, np.array(X), np.array(Y))
                assert Z.shape == (50, P.ngens)
                for x, y, z in zip(X, Y, Z):
                    assert groups.mul(P, tuple(x), tuple(y)) == tuple(z), (inst.label, p)

    def test_cayley_table_matches_scalar(self, phi2_41_p3):
        for P in (phi2_41_p3.presentation, xy_commutator_z(2)):
            elements = groups.enumerate_elements(P)
            index = {x: a for a, x in enumerate(elements)}
            T = groups.cayley_table(P)
            assert T.shape == (len(elements),) * 2
            for a, x in enumerate(elements):
                assert [index[groups.mul(P, x, y)] for y in elements] == T[a].tolist()

    def test_exhaustive_associativity_small(self, phi2_41_p3):
        assert groups.associativity_exhaustive(phi2_41_p3.presentation)

    def test_cayley_table_limit(self):
        # |G| = 5^5, k = 3: each (k, |G|, |G|) collection array would be int16
        # (|G| - 1 = 3124 is the sweep bound) and take ~59 MB
        P = instantiate("Phi2(41)", 5).presentation
        with pytest.raises(EnumerationBoundError):
            groups.associativity_exhaustive(P)

    @pytest.mark.parametrize("p, dtype6", [(3, np.int16), (5, np.int16), (7, np.int32)])
    def test_narrow_collect_is_exact_on_every_instance(self, p, dtype6):
        # the dtype follows |G| - 1: at most 7^5 - 1 < 2^15 for order p^5 here
        rng = np.random.default_rng(p)
        for inst in enumerate_instances(p):
            P = inst.presentation
            dtype = dtype6 if inst.id.order_exp == 6 else np.int16
            assert groups._sweep_dtype(P) == dtype, inst.label
            assert_narrow_collect_exact(P, rng, inst.label)

    @settings(max_examples=100, deadline=None)
    @given(P=class2_presentations(), seed=st.integers(0, 2**32 - 1))
    def test_narrow_collect_is_exact_on_drawn_presentations(self, P, seed):
        assert_narrow_collect_exact(P, np.random.default_rng(seed), P)

    def test_narrow_collect_is_exact_on_an_inconsistent_presentation(self):
        assert_narrow_collect_exact(xy_commutator_z(2), np.random.default_rng(0), "z_exp=2")

    @pytest.mark.parametrize("bound, dtype", [
        (2**15 - 1, np.int16), (2**15, np.int32),
        (2**31 - 1, np.int32), (2**31, np.int64), (2**63 - 1, np.int64),
    ])
    def test_sweep_dtype_edges(self, monkeypatch, abelian_p3, bound, dtype):
        # every presentation's bound is even (|G| - 1 at two or more
        # generators, 2(|G| - 1) on a cyclic group), so the edges themselves
        # are reached through the kernel bound
        monkeypatch.setattr(groups, "_collect_bound", lambda P: bound)
        assert groups._sweep_dtype(abelian_p3) == dtype

    @pytest.mark.parametrize("q, dtype", [(16381, np.int16), (16411, np.int32)])
    def test_kernel_bound_sets_the_dtype_of_a_cyclic_group(self, q, dtype):
        # C_q: x + y reaches 2(q - 1), past the largest index q - 1
        P = make_presentation(PrimeContext.for_prime(q), [("x", 1)])
        assert groups._collect_bound(P) == 2 * (q - 1)
        assert groups._sweep_dtype(P) == dtype
        assert_narrow_collect_exact(P, np.random.default_rng(q), q)

    def test_indices_set_the_dtype_of_a_large_abelian_group(self):
        # 3^10 elements: the kernel stays below 5, the indices reach 59048
        P = make_presentation(PrimeContext.for_prime(3), [(f"g{i}", 1) for i in range(10)])
        assert groups._collect_bound(P) == 4
        assert groups._sweep_dtype(P) == np.int32
        idx = np.arange(3**10 - 50, 3**10)
        expected = [list(x) for x in groups.enumerate_elements(P)[-50:]]
        assert groups._decode(P, idx.astype(np.int32)).T.tolist() == expected
        assert groups.associativity_random(P, 1_000)

    def test_order_past_int64_is_a_bound_error(self):
        # 1447^6 < 2^63 <= 1451^6: the largest index of an order-p^6 group
        # leaves int64 from p = 1451 on
        assert groups.associativity_random(instantiate("Phi5(3111)", 1447).presentation, 1_000)
        P = instantiate("Phi5(3111)", 1451).presentation
        with pytest.raises(EnumerationBoundError, match=rf"group order 1451\^6 = {1451**6}: "):
            groups.associativity_random(P, 10)

    def test_random_associativity(self):
        P = instantiate("Phi14(321)", 3).presentation
        assert groups.associativity_random(P, 20_000, seed=42)

    def test_checks_reject_an_inconsistent_presentation(self):
        bad, good = xy_commutator_z(2), xy_commutator_z(1)
        assert not groups.associativity_exhaustive(bad)
        assert groups.associativity_exhaustive(good)
        for seed in range(5):
            assert not groups.associativity_random(bad, 2_000, seed=seed)
            assert groups.associativity_random(good, 2_000, seed=seed)

    def test_light_test_agrees_with_all_columns(self):
        presentations = [xy_commutator_z(2), xy_commutator_z(1)]
        presentations += [inst.presentation for inst in enumerate_instances(3)
                          if groups.group_order(inst.presentation) <= 243]
        assert len(presentations) == 22
        for P in presentations:
            T = groups.cayley_table(P)
            assert groups.associativity_exhaustive(P) == associative_all_columns(T)

    def test_light_test_is_exact_on_any_table(self, phi2_41_p3):
        # Light's test checks the generators and everything outside their
        # right-closure; its verdict must equal the all-column sweep whatever
        # the table and whichever elements are called generators.
        rng = np.random.default_rng(7)
        cases = []
        for n in (2, 3, 4, 5):
            for _ in range(300):
                gens = np.flatnonzero(rng.random(n) < 0.4)
                cases.append((rng.integers(0, n, size=(n, n)), gens))
        r = np.arange(6)
        cases += [(np.maximum.outer(r, r), np.array([0])),
                  (np.add.outer(r, 0 * r), np.array([2])),  # left zero semigroup
                  (np.add.outer(r, r) % 6, np.array([1]))]
        P = phi2_41_p3.presentation
        group_table = groups.cayley_table(P)
        gens = groups._radix_weights(P)
        for _ in range(20):
            T = group_table.copy()
            a, b = rng.integers(0, len(T), size=2)
            T[a, b] = (T[a, b] + 1 + rng.integers(0, len(T) - 1)) % len(T)
            cases.append((T, gens))
        verdicts = []
        for T, gens in cases:
            verdict = groups._light_associative(T, gens)
            assert verdict == associative_all_columns(T), (T, gens)
            verdicts.append(verdict)
        assert 50 < sum(verdicts) < len(verdicts) - 50


class TestConsistency:
    def test_agrees_with_light_test_on_unscaled_draws(self):
        # unscaled commutator words: drawn presentations are consistent or not
        # regardless of the criterion, and Light's test on the Cayley table
        # decides which
        verdicts = []

        @settings(max_examples=300, derandomize=True, deadline=None)
        @given(P=class2_presentations(scaled=False, max_order=3**6))
        def agree(P):
            verdict = groups.is_consistent(P)
            assert verdict == groups.associativity_exhaustive(P), P
            verdicts.append(verdict)

        agree()
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_catalog_instance_is_consistent(self, p):
        for inst in enumerate_instances(p):
            assert groups.is_consistent(inst.presentation), inst.label

    def test_xy_commutator_z(self):
        assert groups.is_consistent(xy_commutator_z(1))
        assert not groups.is_consistent(xy_commutator_z(2))

    def test_order_p_generator_bounds_the_word_order(self):
        # [y, x] = z with x of order p, y and z of order p^2: the smaller
        # exponent bounds the order of z, so only z^p is a valid word
        ctx = PrimeContext.for_prime(3)
        for c, ok in ((1, False), (3, True)):
            P = make_presentation(ctx, [("x", 1), ("y", 2), ("z", 2)],
                                  comms={("y", "x"): {"z": c}})
            assert groups.is_consistent(P) is ok
            assert groups.associativity_exhaustive(P) is ok
