"""Obstruction formulas against the worked examples and the reference tables."""

import json
import time
from pathlib import Path

import pytest

from galemb import catalog, extension, groups, local_oracle as lo, obstructions as ob, symbols
from galemb.arith import is_prime
from galemb.catalog import instantiate
from galemb.extension import EmbeddingProblemSpec, ExtensionError
from galemb.groups import PrimeContext, make_presentation
from galemb.obstructions import ObstructionError, spec_for_instance
from galemb.symbols import normalize, parse
from dense_forms import is_canonical


def nfs(result):
    return {c.normal for c in result.conditions}


def gold_nfs(texts, basis, env=None):
    return {normalize(parse(t, env=env), basis) for t in texts}


class TestAbelian:
    def test_phi2_41(self):
        spec = spec_for_instance(instantiate("Phi2(41)", 3))
        result = ob.obstruction(spec, 3)
        basis = ob.basis_for(spec, 3)
        assert nfs(result) == gold_nfs(["(z3^-1*a1, a2; z)"], basis)
        assert result.solvability_kind == "proper"

    def test_phi2_32a2_kernel_term_vanishes(self):
        # at root level 2 the (a1, z; z) kernel factor is a p-th power
        spec = spec_for_instance(instantiate("Phi2(32)a2", 5))
        result = ob.obstruction(spec, 2)
        basis = ob.basis_for(spec, 2)
        assert nfs(result) == gold_nfs(["(a2, z2; z)", "(a1, a2; z)"], basis)

    def test_trivial_problem_has_no_conditions(self):
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("x", 1), ("k", 1)])
        spec = EmbeddingProblemSpec(
            presentation=P, kernel_names=("k",), kernel_level=1,
            preimage_names=("x",),
        )
        assert ob.obstruction(spec, 1).conditions == ()

    def test_root_level_too_small(self):
        with pytest.raises(ObstructionError):
            ob.obstruction(spec_for_instance(instantiate("Phi2(41)", 3)), 2)

    def test_realizability_terms_added_per_factor(self):
        spec = spec_for_instance(instantiate("Phi2(221)d", 3))
        result = ob.obstruction(spec, 1)
        origins = [c.origin for c in result.conditions]
        assert origins == ["kernel alpha2", "cyclic-realizability a1", "cyclic-realizability a2"]


class TestPullback:
    def test_phi4_221a(self):
        spec = spec_for_instance(instantiate("Phi4(221)a", 3))
        result = ob.obstruction(spec, 1)
        basis = ob.basis_for(spec, 1)
        assert nfs(result) == gold_nfs(["(z^-1*a2, a3; z)", "(a1, z*a3; z)"], basis)

    def test_phi4_1five(self):
        spec = spec_for_instance(instantiate("Phi4(1^5)", 5))
        result = ob.obstruction(spec, 1)
        basis = ob.basis_for(spec, 1)
        assert nfs(result) == gold_nfs(["(a2, a3; z)", "(a1, a3; z)"], basis)

    def test_trivial_pullback(self):
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("x", 1), ("k1", 1), ("k2", 1)])
        spec = EmbeddingProblemSpec(
            presentation=P, kernel_names=("k1", "k2"), kernel_level=1,
            preimage_names=("x",),
        )
        assert ob.obstruction(spec, 1).conditions == ()

    def test_projection_matches_single_kernel_condition(self):
        # restricting the pullback conditions to one kernel reproduces that
        # kernel's own formula
        for label in ("Phi4(221)b", "Phi12(2211)h", "Phi13(2211)d", "Phi15(21^4)"):
            result = ob.obstruction_for_instance(instantiate(label, 3))
            spec = result.spec
            for params in spec.params:
                cond = ob.kernel_condition(spec, params, ob.basis_for(spec, result.root_level))
                kernel = spec.kernel_names[params.kernel_index]
                from_result = [c for c in result.conditions if c.origin == f"kernel {kernel}"]
                if cond.normal.is_zero():
                    assert not from_result
                else:
                    assert from_result and from_result[0].normal == cond.normal


class TestMuPn:
    def test_phi14_42(self):
        spec = spec_for_instance(instantiate("Phi14(42)", 3))
        result = ob.obstruction(spec, 2)
        basis = ob.basis_for(spec, 2)
        assert nfs(result) == gold_nfs(["(a1, z2*a2; z2)"], basis)
        assert result.solvability_kind == "proper"

    def test_phi14_321_j_equals_p(self):
        spec = spec_for_instance(instantiate("Phi14(321)", 5))
        result = ob.obstruction(spec, 2)
        assert spec.params[0].m == (5, 0)
        basis = ob.basis_for(spec, 2)
        assert nfs(result) == gold_nfs(["(a1, z*a2; z2)"], basis)

    def test_zero_data_gives_no_conditions(self):
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("x", 2), ("k", 2)])
        spec = EmbeddingProblemSpec(
            presentation=P, kernel_names=("k",), kernel_level=2,
            preimage_names=("x",),
        )
        result = ob.obstruction(spec, 2)
        assert result.conditions == ()
        # k is a free generator, outside Phi(G): only weak solvability
        assert result.solvability_kind == "weak"

    def test_rejects_non_homocyclic(self):
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("x", 2), ("y", 1), ("k", 2)])
        spec = EmbeddingProblemSpec(
            presentation=P, kernel_names=("k",), kernel_level=2,
            preimage_names=("x", "y"),
        )
        with pytest.raises(ObstructionError, match="not homocyclic"):
            ob.obstruction(spec, 2)


class TestElementaryAbelian:
    def test_phi5_1five(self):
        spec = spec_for_instance(instantiate("Phi5(1^5)", 3))
        result = ob.obstruction(spec, 1)
        basis = ob.basis_for(spec, 1)
        assert nfs(result) == gold_nfs(["(a1, a2; z)(a3, a4; z)"], basis)

    def test_trivial(self):
        ctx = PrimeContext.for_prime(3)
        P = make_presentation(ctx, [("x", 1), ("y", 1), ("k", 1)])
        spec = EmbeddingProblemSpec(
            presentation=P, kernel_names=("k",), kernel_level=1,
            preimage_names=("x", "y"),
        )
        assert ob.obstruction(spec, 1).conditions == ()


class TestTables:
    def test_table1_row_count(self):
        assert len(ob.generate_table(1, 5)) == 9

    def test_compare_gold_table6_p3(self):
        rows = ob.generate_table(6, 3)
        assert len(rows) == 3 and all(r.ok for r in rows)

    def test_compare_gold_table2_p7_with_parameters(self):
        rows = ob.generate_table(2, 7)
        labels = [r.label for r in rows]
        assert "Phi4(221)d_3" in labels and "Phi4(221)f_2" in labels
        assert all(r.ok for r in rows)

    @pytest.mark.parametrize("p", [17, 19, 23])
    def test_table3_at_larger_primes(self, p):
        # |Q| reaches p^5 here, beyond any enumeration of the quotient
        rows = ob.generate_table(3, p)
        assert len(rows) == 15
        for row in rows:
            assert row.match, (p, row.label, row.result.texts())
            assert row.minimal_root_level == row.gold_root_level, (p, row.label)

    def test_conditions_deduplicated_and_nonzero(self):
        for p in (3, 5):
            for table in range(1, 7):
                for row in ob.generate_table(table, p):
                    forms = [c.normal for c in row.result.conditions]
                    assert len(set(forms)) == len(forms)
                    assert all(not f.is_zero() for f in forms)

    def test_root_requirements_within_declared_level(self):
        # every condition references only roots at or below the row's level
        for row in ob.generate_table(3, 5):
            basis_size = len(row.instance.preimages) + 1
            for cond in row.result.conditions:
                assert cond.normal.basis.root_level == row.result.root_level
                assert cond.normal.basis.size == basis_size

    def test_unknown_table(self):
        with pytest.raises(ObstructionError):
            ob.generate_table(7, 3)

    def test_one_embedding_pass_per_row(self, monkeypatch):
        # one pass reads every kernel's projection, and the rows of one shape
        # (p, number of labels, root level, torsion level) share one basis
        calls = {"quotient_structure": 0, "extract_params": 0}
        for name in calls:
            def counted(*args, _original=getattr(extension, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(extension, name, counted)
        rows = [row for table in range(1, 7) for row in ob.generate_table(table, 5)]
        assert len(rows) == 118
        assert calls == {"quotient_structure": 118, "extract_params": 118}
        assert len({id(row.result.basis) for row in rows}) == 11

    def test_quotient_read_off_presentation(self, monkeypatch):
        # G/K is read off each row's own presentation: no centrality check by
        # collection and no second presentation per row, whose relations are
        # validated once, by the one binder
        calls = {"is_central_element": 0, "make_presentation": 0, "bind": 0}
        for name in calls:
            owner = groups.RelationTable if name == "bind" else groups
            def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        rows = sum(len(ob.generate_table(table, 5)) for table in range(1, 7))
        assert rows == 118
        assert calls == {"is_central_element": 0, "make_presentation": 0, "bind": rows}

    def test_table_path_parses_nothing(self, monkeypatch):
        # gold conditions are compiled when the file loads and relation words
        # when the templates are built; a row only binds placeholders
        catalog._load_gold(None)

        def parser(*args, **kwargs):
            raise AssertionError("parser call on the table path")
        for name in ("compile_expression", "parse", "_parse_monomial", "_parse_exponent"):
            monkeypatch.setattr(symbols, name, parser)
        for name in ("compile_expression", "_tokenize_word"):
            monkeypatch.setattr(catalog, name, parser)
        rows = sum(len(ob.generate_table(table, 5)) for table in range(1, 7))
        assert rows == 118

    def test_table_path_makes_no_collection_call(self, monkeypatch):
        # (n, m, d) and the kernel order come from the relation tables, never
        # from collection
        def collection(*args, **kwargs):
            raise AssertionError("collection call on the table path")
        for name in ("mul", "commutator", "pow_element", "element_order", "inv"):
            monkeypatch.setattr(groups, name, collection)
        rows = sum(len(ob.generate_table(table, 5)) for table in range(1, 7))
        assert rows == 118

    def test_kernel_validated_once_per_row(self, monkeypatch):
        # the spec validates its kernel once; quotient_structure and every
        # kernel log read the coordinates it keeps
        calls = {"kernel_indices": 0, "is_abelian_quotient": 0}
        for name in calls:
            def counted(*args, _original=getattr(groups, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(groups, name, counted)
        rows = sum(len(ob.generate_table(table, 5)) for table in range(1, 7))
        assert rows == 118
        assert calls == {"kernel_indices": rows, "is_abelian_quotient": 0}


class TestClosedForm:
    """Normal forms written straight from (n, m, d), against `normalize` of
    the raw products they stand for: each a sorted tuple of nonzero upper
    entries."""

    PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)

    def test_every_condition_is_its_raw_product(self):
        # every condition of every row, torsion-p^2 and two-kernel rows too
        conditions = 0
        for p in self.PRIMES:
            for table in range(1, 7):
                for row in ob.generate_table(table, p):
                    for c in row.result.conditions:
                        where = (p, row.label, c.origin)
                        assert is_canonical(c.normal), where
                        assert normalize(c.raw, c.normal.basis) == c.normal, where
                        assert lo.check_raw_vs_normal(c.raw, c.normal).equal, where
                        conditions += 1
        assert conditions == 3810

    def test_table_path_builds_no_raw_product(self, monkeypatch):
        # normalize serves the gold rows only, one call per gold condition
        calls = 0

        def counted(expr, basis):
            nonlocal calls
            calls += 1
            return normalize(expr, basis)
        monkeypatch.setattr(ob, "normalize", counted)
        rows = [row for table in range(1, 7) for row in ob.generate_table(table, 5)]
        assert calls == sum(len(catalog.gold_row(row.instance).obstructions) for row in rows)
        assert not any("raw" in vars(c) for row in rows for c in row.result.conditions)

    def test_gold_sees_a_resolve_fault(self, monkeypatch):
        # the engine's forms do not go through resolve's label slots, so a
        # resolve that negates a2 moves every gold row away from the engine
        resolve = symbols.SymbolBasis.resolve

        def negate_a2(self, pairs):
            return resolve(self, [(label, -e if label == "a2" else e) for label, e in pairs])
        monkeypatch.setattr(symbols.SymbolBasis, "resolve", negate_a2)
        rows = [row for table in range(1, 7) for row in ob.generate_table(table, 3)]
        assert len(rows) == 101
        assert not any(row.ok for row in rows)

    @pytest.mark.parametrize("p, nrows", [(3, 101), (5, 118), (7, 136)])
    def test_gold_matches_the_engine_through_the_oracle_fold(self, p, nrows):
        # a second fold of the gold text, through the oracle's own label slots
        # (M = -N), not `resolve` or `root_weight`: a fault that moves the
        # engine's forms and `normalize` alike shows here
        rows = [row for table in range(1, 7) for row in ob.generate_table(table, p)]
        assert len(rows) == nrows
        differ = []
        for row in rows:
            basis, torsion = row.result.basis, row.result.basis.torsion
            gold = {frozenset(lo._expression_form(e, basis).items())
                    for e in catalog.gold_row(row.instance).obstructions}
            engine = {frozenset(((u, v), -c % torsion) for u, v, c in cond.normal.entries)
                      for cond in row.result.conditions}
            if gold != engine:
                differ.append(row.label)
        assert differ == []

    def test_root_above_the_basis_level_raises(self):
        # a nonzero residue at a level n_i above the basis root level N is
        # a BasisError, not a root weight p^(N - n_i) < 1
        spec = spec_for_instance(instantiate("Phi2(41)", 3))
        params = spec.params[0]
        assert any(ni > 2 and mi for ni, mi in zip(params.n, params.m))
        with pytest.raises(symbols.BasisError, match="exceeds the basis root level 2"):
            ob.kernel_condition(spec, params, ob.basis_for(spec, 2))

    def test_first_instances_at_a_62_bit_safe_prime(self):
        # p - 1 = 2q with q prime: factoring p - 1 for the primitive root
        # stops at the prime cofactor q, where trial division up to sqrt(q)
        # would not return.  Phi15(2211)b_{r,s} is left out: the range of
        # its s takes an exhaustive discrete log mod p
        p = 4611686018427394499
        assert is_prime(p) and is_prime((p - 1) // 2)
        start = time.perf_counter()
        results = [ob.obstruction_for_instance(instantiate(tpl, p, (1,) if tpl.param else None))
                   for tpl in catalog.templates() if tpl.param != "rs"]
        elapsed = time.perf_counter() - start
        assert len(results) == 94
        assert all(r.spec.minimal_root_level <= r.root_level for r in results)
        assert elapsed < 2.0, f"{elapsed:.2f} s"

    def test_catalog_at_p101(self):
        # cost per row stays flat in p: the whole catalog at p = 101 is cheap
        start = time.perf_counter()
        rows = [row for table in range(1, 7) for row in ob.generate_table(table, 101)]
        elapsed = time.perf_counter() - start
        assert len(rows) == 5690
        assert all(row.ok for row in rows)
        assert elapsed < 6.0, f"{elapsed:.2f} s"


SNAPSHOT = Path(__file__).resolve().parents[1] / "perfbench" / "snapshot.json"


class TestBenchmarkSnapshot:
    """The benchmark's output check: every recorded (p, table) pair of the
    table workloads, row by row as (label, root level, kind, texts)."""

    def test_rows_match_the_snapshot(self):
        recorded = json.loads(SNAPSHOT.read_text(encoding="utf-8"))["tables"]
        pairs = [(int(p), int(t)) for p, by_table in recorded.items() for t in by_table]
        assert len(pairs) == 48 and {p for p, _ in pairs} == {3, 5, 7, 11, 13, 17, 19, 23}
        for p, t in pairs:
            got = [[r.label, r.result.root_level, r.result.solvability_kind, r.result.texts()]
                   for r in ob.generate_table(t, p)]
            assert got == recorded[str(p)][str(t)], (p, t)


class TestErrors:
    def test_obstruction_error_names_instance_and_prime(self):
        with pytest.raises(ObstructionError, match=r"^Phi2\(41\) p=5: root level 1 below"):
            ob.obstruction_for_instance(instantiate("Phi2(41)", 5), 1)

    def test_extension_error_keeps_its_type(self, monkeypatch):
        def broken(spec):
            raise ExtensionError("quotient by the kernel product is not abelian")
        monkeypatch.setattr(extension, "quotient_structure", broken)
        with pytest.raises(ExtensionError, match=r"^Phi4\(221\)a p=7: quotient"):
            ob.obstruction_for_instance(instantiate("Phi4(221)a", 7))
