"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary; every criterion is exact (symbolic identities), with wall-clock
budgets where stated.
"""

import time

import numpy as np

from galemb import extension, groups, local_oracle as lo, obstructions as ob
from galemb.catalog import enumerate_instances, gold_row, instantiate
from galemb.obstructions import spec_for_instance
from galemb.symbols import SymbolBasis
from dense_forms import from_dense, raised


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_table_reproduction():
    """Tables 1-6 reproduce at p in {3,5,7} up to normal-form equality, with the
    gold minimal root level, < 30 s per prime."""
    worst = 0.0
    total = 0
    for p in (3, 5, 7):
        start = time.perf_counter()
        for table_id in range(1, 7):
            for row in ob.generate_table(table_id, p):
                total += 1
                assert row.ok, (
                    f"p={p} table {table_id} {row.label}: engine {row.result.texts()}, "
                    f"minimal root level {row.minimal_root_level}, gold {row.gold_root_level}"
                )
        worst = max(worst, time.perf_counter() - start)
    _report("1 table-reproduction", worst < 30.0,
            f"{total} rows over p=3,5,7, worst prime {worst:.2f}s")


def test_criterion_2_worked_proof_fixtures():
    """Extracted parameters match the two worked proofs for p in {3,5,7,11}."""
    for p in (3, 5, 7, 11):
        params = spec_for_instance(instantiate("Phi2(41)", p)).params[0]
        assert params.n == (1, 3) and params.m == (0, 1), (p, params)
        assert params.d[0][1] == p - 1, (p, params.d)

        beta2, beta1 = spec_for_instance(instantiate("Phi4(221)a", p)).params
        assert beta2.t == 3 and beta2.m == (0, 0, 1), (p, beta2)
        assert beta2.d[1][2] == p - 1 and beta2.d[0][2] == 0, (p, beta2.d)
        assert max(i + 1 for i, mi in enumerate(beta2.m) if mi) == 3  # r = 3
        assert beta1.m == (1, 0, 0) and beta1.d[0][2] == p - 1, (p, beta1)
    _report("2 worked-proof-fixtures", True, "Phi2(41) and Phi4(221)a at p=3,5,7,11")


def test_criterion_3_group_engine_soundness():
    """At p=3: labelled orders, the exact consistency test, associativity
    (exhaustive for order 243, 1e5 random triples otherwise), central kernels,
    abelian quotients; < 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    count = 0
    for inst in enumerate_instances(3):
        P = inst.presentation
        assert groups.group_order(P) == 3**inst.id.order_exp, inst.label
        assert groups.is_consistent(P), inst.label
        if groups.group_order(P) <= 243:
            assert groups.associativity_exhaustive(P), inst.label
        else:
            assert groups.associativity_random(P, 100_000, seed=int(rng.integers(2**31))), inst.label
        for k in inst.kernels:
            g = P.generator(k)
            assert groups.is_central_element(P, g), inst.label
            assert groups.element_order(P, g) == 3**inst.kernel_level, inst.label
        assert groups.is_abelian_quotient(P, list(inst.kernels)), inst.label
        spec = spec_for_instance(inst)
        extension.quotient_structure(spec)  # raises unless independent generators
        count += 1
    elapsed = time.perf_counter() - start
    _report("3 group-engine-soundness", elapsed < 5.0, f"{count} instances in {elapsed:.1f}s")


def _collected_data(spec):
    """n, and (m, d) per kernel, from repeated collection (`groups.mul`) alone:
    s^k by k-fold products, x^-1 as x^(|x|-1), [x, y] = x^-1 y^-1 x y, each
    read at the kernel coordinate."""
    P = spec.presentation
    p = P.p
    kernel = {P.index[k] for k in spec.kernel_names}
    modulus = p**spec.kernel_level

    def in_kernel(x):
        return all(c == 0 or i in kernel for i, c in enumerate(x))

    walks = []  # walks[i][k] = s_i^k for 0 <= k < |s_i|
    for s in spec.preimages:
        walk = [P.identity]
        while (nxt := groups.mul(P, walk[-1], s)) != P.identity:
            walk.append(nxt)
        walks.append(walk)
    n = []
    for walk in walks:
        e = 0
        while not in_kernel(walk[p**e % len(walk)]):
            e += 1
        n.append(e)
    t = len(walks)
    commutators = {}
    for i in range(t):
        for j in range(i + 1, t):
            x, y = spec.preimages[j], spec.preimages[i]
            c = groups.mul(P, groups.mul(P, groups.mul(P, walks[j][-1], walks[i][-1]), x), y)
            assert in_kernel(c), (spec.preimage_names, i, j)
            commutators[i, j] = c
    out = []
    for k in spec.kernel_names:
        col = P.index[k]
        m = tuple(walk[p**e % len(walk)][col] % modulus for walk, e in zip(walks, n))
        d = tuple(tuple(commutators[i, j][col] % modulus if j > i else 0 for j in range(t))
                  for i in range(t))
        out.append((m, d))
    return tuple(n), out


def _expected_normal_forms(spec, N, n, per_kernel):
    """The obstruction's normal forms written straight from collected data, at
    root level N and torsion p, over the basis (z, a1..at): per kernel,
    entry (z, a_i) = -m_i * p^(N - n_i) and entry (a_i, a_j) = -d_ij; one
    form with entry (z, a_i) = -1 per n_i = N + 1; mod p, zero forms dropped."""
    p, t = spec.presentation.p, len(n)
    basis = SymbolBasis(p=p, labels=spec.labels(), root_level=N, torsion_level=1)
    matrices = []
    for m, d in per_kernel:
        M = [[0] * (t + 1) for _ in range(t + 1)]
        for i in range(t):
            if m[i]:
                assert n[i] <= N, (spec.preimage_names, i)
                M[0][i + 1] = -m[i] * p ** (N - n[i])
            for j in range(i + 1, t):
                M[i + 1][j + 1] = -d[i][j]
        matrices.append(M)
    for i in range(t):
        if n[i] == N + 1:
            M = [[0] * (t + 1) for _ in range(t + 1)]
            M[0][i + 1] = -1
            matrices.append(M)
    forms = {from_dense(basis, M) for M in matrices}
    return {nf for nf in forms if not nf.is_zero()}


def test_criterion_4_formula_cross_validation():
    """For every order-p-kernel problem at p in {3,5}: the embedding data
    (n, m, d) equal their values by collection alone, and the obstruction's
    normal forms equal the ones written directly from those values."""
    collected = instances = 0
    for p in (3, 5):
        for inst in enumerate_instances(p):
            if inst.kernel_level != 1:
                continue
            spec = spec_for_instance(inst)
            n, per_kernel = _collected_data(spec)
            assert spec.n == n, inst.label
            for params, (m, d) in zip(spec.params, per_kernel, strict=True):
                assert (params.m, params.d) == (m, d), (inst.label, params.kernel_index)
                collected += 1
            N = gold_row(inst).root_level
            expected = _expected_normal_forms(spec, N, n, per_kernel)
            assert {c.normal for c in ob.obstruction(spec, N).conditions} == expected, inst.label
            instances += 1
    _report("4 formula-cross-validation", (collected, instances) == (378, 213),
            f"{collected} kernel projections by collection, "
            f"{instances} instances against normal forms from collected data")


def test_criterion_5_oracle_soundness():
    """Raw formula vs normal form agree (their difference form is zero mod
    p^n) for every row at p in {3,5}, and disagree once any one normal-form
    entry is raised by 1, on a counterexample over one prime with
    v_p(l-1) = N that the scalar path confirms; 1e4 bilinearity/antisymmetry
    cases; a closed-form nontriviality witness per nonzero condition,
    nonzero under the scalar path; < 5 s."""
    start = time.perf_counter()
    conditions = perturbed = 0
    for p in (3, 5):
        for table in range(1, 7):
            for row in ob.generate_table(table, p):
                for cond in row.result.conditions:
                    verdict = lo.check_raw_vs_normal(cond.raw, cond.normal)
                    assert verdict.equal, (p, row.label, cond.origin)
                    if not cond.normal.is_zero():
                        wit = lo.witness_nontrivial(cond.raw, cond.normal.basis)
                        assert wit is not None, (p, row.label, cond.origin)
                        assert lo.eval_expression(cond.raw, wit, cond.normal.basis), (
                            p, row.label, cond.origin)
                    basis = cond.normal.basis
                    for u in range(basis.size):
                        for v in range(u + 1, basis.size):
                            bad = raised(cond.normal, u, v)
                            verdict = lo.check_raw_vs_normal(cond.raw, bad)
                            where = (p, row.label, cond.origin, (u, v))
                            assert not verdict.equal, where
                            asg = verdict.counterexample
                            assert (lo.eval_expression(cond.raw, asg, basis)
                                    != lo.eval_normal_form(bad, asg)), where
                            perturbed += 1
                    conditions += 1

    import random

    basis = SymbolBasis(p=3, labels=("a1", "a2", "a3"), root_level=2, torsion_level=1)
    ells = (19, 37, 73)  # three primes = 1 mod 9
    rng = random.Random(99)
    for case in range(10_000):
        asg = lo.random_assignment(basis, ells[case % 3], seed=case)
        x = {"a1": rng.randint(-3, 3), "z": rng.randint(-2, 2)}
        y = {"a2": rng.randint(-3, 3), "a3": rng.randint(-2, 2)}
        w = {"a3": rng.randint(-3, 3)}
        xw = {k: x.get(k, 0) + w.get(k, 0) for k in set(x) | set(w)}
        assert lo.eval_symbol(xw, y, asg, basis) == (
            lo.eval_symbol(x, y, asg, basis) + lo.eval_symbol(w, y, asg, basis)) % 3
        assert lo.eval_symbol(x, x, asg, basis) == 0
    elapsed = time.perf_counter() - start
    _report("5 oracle-soundness", elapsed < 5.0,
            f"{conditions} row conditions, {perturbed} perturbed normal forms caught, "
            f"10000 property cases, {elapsed:.1f}s")


def test_criterion_6_root_level_agreement():
    """minimal_root_level equals the reference root column at p in {3,5,7}."""
    checked = 0
    for p in (3, 5, 7):
        for table in range(1, 7):
            for row in ob.generate_table(table, p):
                assert row.minimal_root_level == row.gold_root_level, (p, row.label)
                checked += 1
    spot = {
        "Phi2(41)": 3,
        "Phi2(32)a2": 2,
        "Phi14(42)": 2,
        "Phi14(321)": 2,
        "Phi14(222)": 2,
    }
    for label, level in spot.items():
        spec = spec_for_instance(instantiate(label, 3))
        assert extension.minimal_root_level(spec) == level, label
    _report("6 root-level-agreement", True, f"{checked} rows at p=3,5,7")


def test_criterion_7_frattini_check():
    """Every catalog kernel lies in the Frattini subgroup at p=3 (kernels are
    commutator words or p-th powers), covering the proper-solvability remark
    for the p^2-kernel family."""
    checked = 0
    for inst in enumerate_instances(3):
        P = inst.presentation
        assert extension.frattini_contains_kernel(P, inst.kernels), inst.label
        result = ob.obstruction_for_instance(inst)
        assert result.solvability_kind == "proper", inst.label
        checked += 1
    _report("7 frattini-check", True, f"{checked} instances at p=3")
