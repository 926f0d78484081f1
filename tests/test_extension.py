"""Quotient structure, parameter extraction, kernel discovery, and root levels."""

import random

import pytest

from galemb import extension, groups
from galemb.catalog import enumerate_instances, instantiate
from galemb.extension import EmbeddingProblemSpec, ExtensionError
from galemb.groups import PrimeContext, make_presentation
from galemb.obstructions import spec_for_instance


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
                    eps = spec.kernel_names[k]
                    comp = frozenset(c for c in spec.kernel_names if c != eps)
                    m = tuple(
                        groups.central_log(P, groups.pow_element(P, s, 3**ni), eps, comp)
                        for s, ni in zip(perturbed, n)
                    )
                    assert m == base[k].m, label
                    for i in range(len(n)):
                        for j in range(i + 1, len(n)):
                            dij = groups.central_log(
                                P, groups.commutator(P, perturbed[j], perturbed[i]), eps, comp)
                            assert dij == base[k].d[i][j], label

    def test_d_is_alternating(self):
        spec = make_spec("Phi15(2211)a", 5)
        for k in range(2):
            t = len(spec.preimage_names)
            for i in range(t):
                for j in range(i + 1, t):
                    dij = extension.commutator_log(spec, k, j, i)
                    dji = extension.commutator_log(spec, k, i, j)
                    assert (dij + dji) % 5 == 0

    def test_pullback_projections_recombine(self):
        inst = instantiate("Phi4(221)a", 3)
        P = inst.presentation
        rng = random.Random(2)
        for _ in range(50):
            c1, c2 = rng.randrange(3), rng.randrange(3)
            x = groups.mul(
                P,
                groups.pow_element(P, P.generator("beta1"), c1),
                groups.pow_element(P, P.generator("beta2"), c2),
            )
            assert groups.central_log(P, x, "beta1", {"beta2"}) == c1
            assert groups.central_log(P, x, "beta2", {"beta1"}) == c2


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


class TestFindCentralKernels:
    def test_phi2_41_unique_kernel(self):
        P = instantiate("Phi2(41)", 3).presentation
        cands = extension.find_central_kernels(P)
        assert cands.singles == ((0, 0, 1),) or cands.singles == ((0, 0, 2),)
        assert not cands.pairs

    def test_abelian_group_every_central_subgroup_qualifies(self):
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("x", 1), ("y", 1)])
        cands = extension.find_central_kernels(P)
        assert len(cands.singles) == 4  # the four order-3 subgroups of C_3 x C_3

    def test_phi4_1five_pair(self):
        inst = instantiate("Phi4(1^5)", 3)
        P = inst.presentation
        cands = extension.find_central_kernels(P)
        b1, b2 = P.generator("beta1"), P.generator("beta2")
        sub = {frozenset(groups.subgroup_closure(P, [g])) for g in (b1, b2)}
        assert any(
            {frozenset(groups.subgroup_closure(P, [x])), frozenset(groups.subgroup_closure(P, [y]))} == sub
            for x, y in cands.pairs
        )

    def test_pinned_kernels_are_among_candidates(self):
        for inst in enumerate_instances(3, order_exp=5):
            P = inst.presentation
            cands = extension.find_central_kernels(P)
            if len(inst.kernels) == 1:
                want = frozenset(groups.subgroup_closure(P, [P.generator(inst.kernels[0])]))
                assert want in {frozenset(groups.subgroup_closure(P, [x])) for x in cands.singles}
            else:
                want = {frozenset(groups.subgroup_closure(P, [P.generator(k)])) for k in inst.kernels}
                got = {
                    frozenset({frozenset(groups.subgroup_closure(P, [x])),
                               frozenset(groups.subgroup_closure(P, [y]))})
                    for x, y in cands.pairs
                }
                assert frozenset(want) in got

    def test_phi14_cyclic_p2_kernel_found(self):
        inst = instantiate("Phi14(222)", 3)
        P = inst.presentation
        cands = extension.find_central_kernels(P)
        want = frozenset(groups.subgroup_closure(P, [P.generator("beta")]))
        assert want in {frozenset(groups.subgroup_closure(P, [x])) for x in cands.cyclic_p2}
