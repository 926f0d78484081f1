"""Quotient structure, kernel validation, parameter extraction, and root levels."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galemb import extension, groups
from galemb.catalog import enumerate_instances, instantiate
from galemb.extension import EmbeddingProblemSpec, ExtensionError
from galemb.groups import ElementError, PrimeContext, make_presentation
from galemb.obstructions import spec_for_instance
from strategies import class2_presentations


def make_spec(label, p, root_level=None):
    inst = instantiate(label, p)
    return spec_for_instance(inst, root_level)


class TestQuotientStructure:
    def test_phi2_41(self):
        assert extension.quotient_structure(make_spec("Phi2(41)", 3)) == (1, 3)

    def test_phi5_1five(self):
        assert extension.quotient_structure(make_spec("Phi5(1^5)", 3)) == (1, 1, 1, 1)

    def test_phi2_33(self):
        # alpha1 keeps order p^3; alpha^(p^2) falls into the kernel
        assert extension.quotient_structure(make_spec("Phi2(33)", 3)) == (3, 2)

    def test_phi14_homocyclic(self):
        assert extension.quotient_structure(make_spec("Phi14(42)", 3)) == (2, 2)

    def test_rejects_dependent_preimages(self):
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("x", 1), ("k", 1)])
        spec = EmbeddingProblemSpec(
            presentation=P, kernel_names=("k",), kernel_level=1,
            preimage_names=("x", "x"), root_level=1,
        )
        with pytest.raises(ExtensionError):
            extension.quotient_structure(spec)

    @pytest.mark.parametrize("e", [1, 2])
    def test_rejects_preimages_dependent_through_power_tail(self, e):
        # Q = <x, y, c | x^(p^e) = c> = C_{p^(e+1)} x C_p: x (order p^(e+1)) and
        # c (order p) have the right orders, order product |Q| and disjoint
        # supports, yet c = x^(p^e)
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("x", e), ("y", 1), ("c", 1), ("k", 1)],
                              power_tails={"x": {"c": 1}})
        spec = EmbeddingProblemSpec(
            presentation=P, kernel_names=("k",), kernel_level=1,
            preimage_names=("x", "c"), root_level=e + 1,
        )
        with pytest.raises(ExtensionError, match="not independent"):
            extension.quotient_structure(spec)
        ok = EmbeddingProblemSpec(
            presentation=P, kernel_names=("k",), kernel_level=1,
            preimage_names=("x", "y"), root_level=e + 1,
        )
        assert extension.quotient_structure(ok) == (e + 1, 1)

    def test_rejects_nonabelian_quotient(self):
        spec = EmbeddingProblemSpec(
            presentation=instantiate("Phi4(221)a", 3).presentation,
            kernel_names=("beta1",), kernel_level=1,
            preimage_names=("alpha1", "alpha2", "alpha"), root_level=1,
        )
        with pytest.raises(ExtensionError):
            extension.quotient_structure(spec)


def c9_presentation():
    """G = C_9 = <a> with b = a^3.  Kernel a (order 9) is central, but its
    power tail lands on b: dropping coordinate a leaves a group of order 3
    where G/<a> is trivial."""
    return make_presentation(PrimeContext.for_prime(3), [("a", 1), ("b", 1)], {"a": {"b": 1}})


def phi2_41():
    return instantiate("Phi2(41)", 3).presentation


def xyk_presentation():
    """<x, y, k | [y, x] = k> at p = 3."""
    return make_presentation(PrimeContext.for_prime(3), [("x", 1), ("y", 1), ("k", 1)],
                             comms={("y", "x"): {"k": 1}})


# (presentation, kernel, kernel level, pre-images, error); quotient_by_central
# rejects every case but the wrong order and the repeated name, which only the
# spec knows about, and is_abelian_quotient only the unknown name
BAD_KERNELS = {
    "repeated": (xyk_presentation, ("k", "k"), 1, ("x", "y"), "'k' given twice"),
    "unknown": (phi2_41, ("gamma",), 1, ("alpha1", "alpha"), "unknown kernel generator"),
    "non-central": (phi2_41, ("alpha",), 1, ("alpha1",), "not central"),
    "wrong-order": (phi2_41, ("alpha2",), 2, ("alpha1", "alpha"), "does not have order p\\^2"),
    "tail-leaves-kernel": (c9_presentation, ("a",), 2, ("b",), "leaves the kernel"),
}


class TestKernelValidation:
    @pytest.mark.parametrize("case", BAD_KERNELS)
    def test_spec_rejects(self, case):
        make, kernel, level, pre, message = BAD_KERNELS[case]
        with pytest.raises(ExtensionError, match=message):
            EmbeddingProblemSpec(presentation=make(), kernel_names=kernel, kernel_level=level,
                                 preimage_names=pre, root_level=1)

    @pytest.mark.parametrize("helper, case", [
        (groups.quotient_by_central, "non-central"),
        (groups.quotient_by_central, "tail-leaves-kernel"),
        (groups.quotient_by_central, "unknown"),
        (groups.is_abelian_quotient, "unknown"),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_groups_helpers_reject(self, helper, case):
        make, kernel, _, _, message = BAD_KERNELS[case]
        with pytest.raises(ElementError, match=message):
            helper(make(), list(kernel))

    @pytest.mark.parametrize("case, abelian", [("non-central", False),
                                               ("tail-leaves-kernel", True)])
    def test_abelian_quotient_does_not_validate_the_kernel(self, case, abelian):
        # selfcheck reports a bad kernel through both checks, so the
        # abelian-quotient test answers for kernels that validation rejects
        make, kernel, _, _, _ = BAD_KERNELS[case]
        assert groups.is_abelian_quotient(make(), list(kernel)) is abelian


def _reference_kernel_ok(P, kernel_names) -> bool:
    """Kernel validity without `groups.kernel_indices`: every generator
    central by collection, and the subgroup they generate is exactly the
    elements supported on their coordinates."""
    gens = [P.generator(k) for k in kernel_names]
    if not all(groups.is_central_element(P, g) for g in gens):
        return False
    ker = {P.index[k] for k in kernel_names}
    closure = groups.subgroup_closure(P, gens)
    return (all(c == 0 or i in ker for x in closure for i, c in enumerate(x))
            and len(closure) == math.prod(P.orders[i] for i in ker))


def _reference_quotient_structure(P, kernel_names, preimage_names):
    """The levels n_i, or None when the pre-images do not decompose G/K,
    computed on the explicit quotient Q = G/K: powering in Q and the F_p rank
    of Q's relation rows plus the images."""
    if not _reference_kernel_ok(P, kernel_names):
        return None
    Q, proj = groups.quotient_by_central(P, list(kernel_names))
    if Q.comm:
        return None  # non-abelian quotient
    images = [proj(P.generator(name)) for name in preimage_names]
    n = []
    for y in images:
        e = 0
        while y != Q.identity:
            y = groups.pow_element(Q, y, Q.p)
            e += 1
        n.append(e)
    if math.prod(Q.p**e for e in n) != groups.group_order(Q):
        return None
    if extension._fp_rank(extension._frattini_relations(Q) + images, Q.p) != Q.ngens:
        return None
    return tuple(n)


def _read_off(P, kernel_names, preimage_names):
    """quotient_structure on P, or None when the spec or the read-off rejects
    the problem.  The kernel level is taken from the first kernel generator's
    order, so only a non-central or tail-leaving kernel fails the spec."""
    order = groups.element_order(P, P.generator(kernel_names[0]))
    try:
        spec = EmbeddingProblemSpec(presentation=P, kernel_names=tuple(kernel_names),
                                    kernel_level=round(math.log(order, P.p)),
                                    preimage_names=tuple(preimage_names), root_level=1)
        return extension.quotient_structure(spec)
    except ExtensionError:
        return None


@st.composite
def kernel_problems(draw):
    """A presentation with one or two kernel generators (central or not) and
    pre-images drawn from the other generators: a permutation of them (often
    a decomposition) or any list (often dependent)."""
    P = draw(class2_presentations())
    kernel = draw(st.lists(st.sampled_from(P.names), min_size=1,
                           max_size=min(2, P.ngens - 1), unique=True))
    if len(kernel) == 2 and any(groups.element_order(P, P.generator(k)) != P.p for k in kernel):
        kernel = kernel[:1]  # pullback kernels have order p
    rest = [name for name in P.names if name not in kernel]
    pre = draw(st.one_of(st.permutations(rest),
                         st.lists(st.sampled_from(rest), min_size=1, max_size=len(rest) + 1)))
    return P, kernel, pre


class TestKernelReadOff:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_catalog_matches_explicit_quotient(self, p):
        for inst in enumerate_instances(p):
            want = _reference_quotient_structure(inst.presentation, inst.kernels, inst.preimages)
            assert want is not None, inst.label
            assert extension.quotient_structure(spec_for_instance(inst)) == want, inst.label

    @settings(max_examples=150, deadline=None)
    @given(P=class2_presentations())
    def test_structural_centrality_equals_collection(self, P):
        for name in P.names:
            try:
                groups.kernel_indices(P, [name])
                structural = True
            except ElementError as exc:
                structural = "not central" not in str(exc)
            assert structural == groups.is_central_element(P, P.generator(name)), name

    @settings(max_examples=200, deadline=None)
    @given(problem=kernel_problems())
    def test_read_off_matches_explicit_quotient(self, problem):
        P, kernel, pre = problem
        assert _read_off(P, kernel, pre) == _reference_quotient_structure(P, kernel, pre)


class TestExtractParams:
    def test_phi2_41_worked_values(self):
        params = extension.embedding_data(make_spec("Phi2(41)", 3)).params[0]
        assert params.n == (1, 3)
        assert params.m == (0, 1)
        assert params.d[0][1] == 2  # p - 1

    def test_zero_params_for_plain_abelian(self):
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("x", 1), ("y", 1), ("k", 1)])
        spec = EmbeddingProblemSpec(
            presentation=P, kernel_names=("k",), kernel_level=1,
            preimage_names=("x", "y"), root_level=1,
        )
        params = extension.embedding_data(spec).params[0]
        assert params.m == (0, 0)
        assert all(all(c == 0 for c in row) for row in params.d)

    def test_phi4_221a_both_projections(self):
        beta2, beta1 = extension.embedding_data(make_spec("Phi4(221)a", 3)).params
        assert beta2.m == (0, 0, 1) and beta2.d[1][2] == 2 and beta2.d[0][2] == 0
        assert beta1.m == (1, 0, 0) and beta1.d[0][2] == 2 and beta1.d[1][2] == 0

    def test_phi14_level2_values(self):
        params = extension.embedding_data(make_spec("Phi14(42)", 3)).params[0]
        assert params.m == (1, 0)
        assert params.d[0][1] == 8  # p^2 - 1

    def test_invariant_under_kernel_perturbation(self):
        # replacing s_i by s_i * kernel element leaves m and d unchanged
        rng = random.Random(0)
        for label in ("Phi2(41)", "Phi4(221)a", "Phi5(2111)"):
            inst = instantiate(label, 3)
            spec = spec_for_instance(inst, 4)
            base = extension.embedding_data(spec).params
            P = spec.presentation
            for _ in range(10):
                perturbed = []
                for name in spec.preimage_names:
                    x = P.generator(name)
                    for k in spec.kernel_names:
                        x = groups.mul(P, x, groups.pow_element(P, P.generator(k), rng.randrange(3)))
                    perturbed.append(x)
                n = extension.quotient_structure(spec)
                for k in range(len(spec.kernel_names)):
                    m = tuple(spec.kernel_log(groups.pow_element(P, s, 3**ni), k)
                              for s, ni in zip(perturbed, n))
                    assert m == base[k].m, label
                    for i in range(len(n)):
                        for j in range(i + 1, len(n)):
                            dij = spec.kernel_log(
                                groups.commutator(P, perturbed[j], perturbed[i]), k)
                            assert dij == base[k].d[i][j], label

    def test_d_is_alternating(self):
        spec = make_spec("Phi15(2211)a", 5)
        P, s = spec.presentation, spec.preimages
        for k in range(2):
            t = len(spec.preimage_names)
            for i in range(t):
                for j in range(i + 1, t):
                    dij = spec.kernel_log(groups.commutator(P, s[j], s[i]), k)
                    dji = spec.kernel_log(groups.commutator(P, s[i], s[j]), k)
                    assert (dij + dji) % 5 == 0

    def test_pullback_projections_recombine(self):
        spec = make_spec("Phi4(221)a", 3)
        k1, k2 = spec.kernel_names.index("beta1"), spec.kernel_names.index("beta2")
        P = spec.presentation
        rng = random.Random(2)
        for _ in range(50):
            c1, c2 = rng.randrange(3), rng.randrange(3)
            x = groups.mul(
                P,
                groups.pow_element(P, P.generator("beta1"), c1),
                groups.pow_element(P, P.generator("beta2"), c2),
            )
            assert spec.kernel_log(x, k1) == c1
            assert spec.kernel_log(x, k2) == c2


class TestMinimalRootLevel:
    @pytest.mark.parametrize("label,expected", [
        ("Phi2(41)", 3),
        ("Phi5(1^5)", 1),
        ("Phi2(32)a2", 2),
        ("Phi2(311)c", 2),
        ("Phi14(321)", 2),
        ("Phi4(221)a", 1),
    ])
    def test_examples(self, label, expected):
        assert extension.minimal_root_level(make_spec(label, 3, root_level=4)) == expected


class TestEmbeddingData:
    def test_frattini_test_runs_only_above_kernel_level_1(self, monkeypatch):
        calls = []
        original = extension.frattini_contains_kernel
        monkeypatch.setattr(extension, "frattini_contains_kernel",
                            lambda P, names: calls.append(names) or original(P, names))
        assert extension.embedding_data(make_spec("Phi2(41)", 3)).proper
        assert calls == []
        assert extension.embedding_data(make_spec("Phi14(42)", 3)).proper
        assert calls == [("beta",)]


class TestFrattini:
    def test_family14_kernel_inside(self):
        inst = instantiate("Phi14(42)", 3)
        assert extension.frattini_contains_kernel(inst.presentation, inst.kernels)

    def test_elementary_abelian_group_has_trivial_frattini(self):
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("x", 1), ("k", 1)])
        assert not extension.frattini_contains_kernel(P, ("k",))

    def test_phi2_41(self):
        inst = instantiate("Phi2(41)", 3)
        assert extension.frattini_contains_kernel(inst.presentation, inst.kernels)

    @pytest.mark.parametrize("p", [3, 5])
    def test_rank_check_equals_subgroup_closure(self, p):
        # Phi(G) = <g^p, [G,G]> enumerated by collection, for every generator
        for inst in enumerate_instances(p):
            P = inst.presentation
            gens = [groups.generator_power(P, i, p) for i in range(P.ngens)]
            gens += [tuple(c % o for c, o in zip(word, P.orders)) for _, _, word in P.comm]
            frattini = groups.subgroup_closure(P, gens)
            for name in P.names:
                want = P.generator(name) in frattini
                assert extension.frattini_contains_kernel(P, (name,)) == want, (inst.label, name)

    def test_power_tail_on_kernel_and_another_generator(self):
        # x^p = k*c puts k*c in Phi(G) but neither k nor c; the commutator
        # [y, x] = c then pulls both in
        ctx = PrimeContext.for_prime(5)
        gens = [("x", 1), ("y", 1), ("k", 1), ("c", 1)]
        P = make_presentation(ctx, gens, power_tails={"x": {"k": 1, "c": 1}})
        assert not extension.frattini_contains_kernel(P, ("k",))
        assert not extension.frattini_contains_kernel(P, ("c",))
        P = make_presentation(ctx, gens, power_tails={"x": {"k": 1, "c": 1}},
                              comms={("y", "x"): {"c": 1}})
        assert extension.frattini_contains_kernel(P, ("k", "c"))

    def test_power_tail_of_order_p2_generator(self):
        # k = x^(p^2) lies in G^p although x has relative order p^2
        ctx = PrimeContext.for_prime(5)
        P = make_presentation(ctx, [("x", 2), ("y", 1), ("k", 1)], power_tails={"x": {"k": 1}})
        assert extension.frattini_contains_kernel(P, ("k",))
        assert not extension.frattini_contains_kernel(P, ("y",))
