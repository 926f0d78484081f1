"""Catalog instantiation, parameter expansion, number theory helpers, and the
shipped reference rows."""

import dataclasses
import re

import pytest

import galemb
from galemb import catalog, groups
from galemb.arith import (discrete_log_mod_p, mod_inverse, smallest_nonresidue,
                          smallest_primitive_root)
from galemb.catalog import (
    CatalogError,
    enumerate_instances,
    gold_row,
    instantiate,
    iter_instances,
    lookup,
    table_of,
    templates,
)
from galemb.groups import PrimeContext
from galemb.symbols import SymbolBasis, normalize


@pytest.mark.parametrize("module", [galemb, catalog], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


class TestNumberTheory:
    def test_smallest_nonresidue(self):
        # squares mod 7 are {1, 2, 4}
        assert smallest_nonresidue(7) == 3
        assert smallest_nonresidue(3) == 2
        assert smallest_nonresidue(11) == 2

    def test_smallest_primitive_root(self):
        assert smallest_primitive_root(7) == 3
        assert smallest_primitive_root(3) == 2
        assert smallest_primitive_root(5) == 2

    def test_mod_inverse(self):
        assert mod_inverse(4, 7) == 2
        with pytest.raises(ValueError):
            mod_inverse(3, 9)

    def test_discrete_log(self):
        assert discrete_log_mod_p(3, 1, 7) == 0
        assert discrete_log_mod_p(3, 6, 7) == 3
        with pytest.raises(ValueError):
            discrete_log_mod_p(2, 0, 7)


class TestInstantiate:
    def test_phi2_41(self):
        inst = instantiate("Phi2(41)", 3)
        P = inst.presentation
        assert P.names == ("alpha", "alpha1", "alpha2")
        assert P.orders == (27, 3, 3)
        assert P.power_tails[0] == (0, 0, 1)
        assert P.comm == ((1, 0, (0, 0, 1)),)
        assert groups.group_order(P) == 3**5

    def test_phi5_1five_has_no_tails(self):
        inst = instantiate("Phi5(1^5)", 5)
        P = inst.presentation
        assert all(t is None for t in P.power_tails)
        assert len(P.comm) == 2
        assert groups.group_order(P) == 5**5

    def test_fractional_exponent_resolution(self):
        # -1/4 = 5 mod 7
        inst = instantiate("Phi4(221)e", 7)
        P = inst.presentation
        assert P.power_tails[P.index["alpha1"]] == (0, 0, 0, 0, 5)

    def test_negative_primitive_root_exponent(self):
        # alpha4^p = beta2^-g
        inst = instantiate("Phi15(2211)c", 5)
        P = inst.presentation
        assert P.power_tails[P.index["alpha4"]] == (0, 0, 0, 0, 0, (-2) % 5)

    def test_rejects_p2(self):
        with pytest.raises(Exception):
            instantiate("Phi2(41)", 2)

    def test_rejects_out_of_range_params(self):
        with pytest.raises(CatalogError):
            instantiate("Phi4(221)d_r", 3, (2,))  # r ranges over 1..(p-1)/2 = {1}
        with pytest.raises(CatalogError):
            instantiate("Phi2(41)", 3, (1,))


class TestEnumeration:
    def test_family2_order5_has_seven_templates(self):
        fam2 = [t for t in templates(order_exp=5) if t.family == 2]
        assert len(fam2) == 7

    def test_phi4_221d_single_instance_at_p3(self):
        ids = [i for i in enumerate_instances(3, order_exp=5)
               if i.template.label == "Phi4(221)d_r"]
        assert len(ids) == 1 and ids[0].id.params == (1,)

    def test_table1_has_nine_rows(self):
        for p in (3, 5, 7):
            assert len(enumerate_instances(p, table=1)) == 9

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_order5_count_identity(self, p):
        # 9 rows of table 1 plus 9 + (p-1) family-4 instances
        assert len(enumerate_instances(p, order_exp=5)) == 18 + (p - 1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_order6_count_identity(self, p):
        rs = [i for i in enumerate_instances(p, order_exp=6)
              if i.template.label == "Phi15(2211)b_{r,s}"]
        rest = len(enumerate_instances(p, order_exp=6)) - len(rs)
        assert rest == 71 + 7 * (p - 1) // 2
        # one instance per surviving r at least; g is a non-residue so g = r^2
        # never occurs and no r is skipped
        assert len({i.id.params[0] for i in rs}) == (p - 1) // 2

    @pytest.mark.parametrize("p", [7, 11])
    def test_parameter_checks_accept_exactly_the_enumerated_values(self, p):
        from galemb.catalog import _param_values

        ctx = PrimeContext.for_prime(p)
        for tpl in templates():
            if not tpl.param:
                continue
            valid = set(_param_values(tpl, ctx))
            if tpl.param == "rs":
                candidates = [(r, s) for r in range(-1, p + 2) for s in range(-1, 2 * p + 2)]
            else:
                candidates = [(r,) for r in range(-1, p + 2)]
            for params in candidates:
                if params in valid:
                    assert instantiate(tpl, p, params).id.params == params
                else:
                    with pytest.raises(CatalogError):
                        instantiate(tpl, p, params)

    def test_total_template_count_matches_gold_file(self):
        from galemb.catalog import _load_gold

        gold = _load_gold(None)
        assert len(templates()) == len(gold) == 95
        assert set(t.label for t in templates()) == set(gold)
        assert sum(len(conditions) for *_, conditions in gold.values()) == 193

    def test_catalog_order_is_deterministic(self):
        a = [i.label for i in enumerate_instances(5)]
        b = [i.label for i in enumerate_instances(5)]
        assert a == b

    def test_instances_are_built_when_reached(self, monkeypatch):
        calls = []
        original = catalog._build
        monkeypatch.setattr(catalog, "_build",
                            lambda *args: calls.append(args) or original(*args))
        instances = iter_instances(101, order_exp=6)
        assert next(instances).label == "Phi2(51)" and len(calls) == 1
        assert [i.label for i in enumerate_instances(5)] == [i.label for i in iter_instances(5)]

    def test_enumeration_checks_no_parameter_again(self, monkeypatch):
        # family 15's s range costs a discrete log per r; enumeration builds
        # from the parameters it generated, so it takes one per r, not one per
        # (r, s) instance
        calls = []
        monkeypatch.setattr(catalog, "discrete_log_mod_p",
                            lambda *args: calls.append(args) or discrete_log_mod_p(*args))
        p = 101
        enumerate_instances(p)
        assert 0 < len(calls) <= (p - 1) // 2
        with pytest.raises(CatalogError, match="out of range"):
            lookup("Phi15(2211)b_{1,99}", 5)

    def test_table_of(self):
        assert table_of(2, 5) == 1 and table_of(14, 6) == 6
        with pytest.raises(CatalogError):
            table_of(3, 5)


class TestLookup:
    def test_plain_label(self):
        assert lookup("Phi2(41)", 3).label == "Phi2(41)"

    def test_parameterized_labels(self):
        assert lookup("Phi4(221)d_1", 5).id.params == (1,)
        assert lookup("Phi15(2211)b_{1,0}", 3).id.params == (1, 0)
        assert lookup("Phi15(2211)b_1,2", 3).id.params == (1, 2)
        assert lookup("Phi15(2211)b_1, 2", 3).id.params == (1, 2)

    @pytest.mark.parametrize("label", ["Phi15(2211)b_{1}", "Phi4(221)d_{1}",
                                       "Phi15(2211)b_{1,0", "Phi15(2211)b_1,0}"])
    def test_malformed_subscripts_are_rejected(self, label):
        with pytest.raises(CatalogError, match="unknown group"):
            lookup(label, 3)

    def test_fixed_subscript_labels_are_exact(self):
        assert lookup("Phi4(222)d_1", 3).template.label == "Phi4(222)d_1"
        assert lookup("Phi4(2211)j_2", 3).template.label == "Phi4(2211)j_2"

    def test_unknown_label(self):
        with pytest.raises(CatalogError):
            lookup("Phi9(11)", 3)

    def test_parameterized_template_requires_params(self):
        with pytest.raises(CatalogError):
            lookup("Phi4(221)d_r", 3)

    @pytest.mark.parametrize("tpl", [t for t in templates() if t.param], ids=lambda t: t.label)
    def test_hinted_label_resolves(self, tpl):
        with pytest.raises(CatalogError, match="pass subscripts") as err:
            lookup(tpl.label, 3)
        hinted = str(err.value).rsplit("e.g. ", 1)[1]
        assert lookup(hinted, 3).template is tpl


class TestGoldRows:
    def test_phi2_41_row(self):
        inst = instantiate("Phi2(41)", 3)
        row = gold_row(inst)
        assert row.root_level == 3
        assert len(inst.preimages) == 2
        assert len(row.obstructions) == 1

    def test_phi4_221a_row(self):
        row = gold_row(instantiate("Phi4(221)a", 5))
        assert row.root_level == 1 and len(row.obstructions) == 2

    def test_phi14_222_row(self):
        row = gold_row(instantiate("Phi14(222)", 3))
        assert row.root_level == 2 and len(row.obstructions) == 1
        assert row.obstructions[0].torsion_level == 2

    def test_gold_placeholders_bind_per_instance(self):
        # Phi4(221)d_r's row holds z^k, k = g^r: the two instances share one
        # compiled row and bind it each to its own k
        d1, d2 = (gold_row(lookup(f"Phi4(221)d_{r}", 5)) for r in (1, 2))
        assert d1.obstructions[0] == d2.obstructions[0]
        assert d1.obstructions[1] != d2.obstructions[1]
        assert gold_row(lookup("Phi4(221)d_1", 5)) == d1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_gold_row_parses_and_normalizes(self, p):
        for inst in enumerate_instances(p):
            row = gold_row(inst)
            basis = SymbolBasis(
                p=p,
                labels=tuple(f"a{i}" for i in range(1, len(inst.preimages) + 1)),
                root_level=row.root_level,
                torsion_level=inst.kernel_level,
            )
            for expr in row.obstructions:
                normalize(expr, basis)


class TestCatalogSoundness:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_orders_and_kernels(self, p):
        for inst in enumerate_instances(p):
            P = inst.presentation
            assert groups.group_order(P) == p**inst.id.order_exp, inst.label
            for k in inst.kernels:
                g = P.generator(k)
                assert groups.is_central_element(P, g), inst.label
                assert groups.element_order(P, g) == p**inst.kernel_level, inst.label
            assert groups.is_abelian_quotient(P, list(inst.kernels)), inst.label


def _reference_relations(tpl, env, orders):
    """The template's name-keyed relation words bound at env, parsed here on
    their own: factors name^e joined by '*', e an integer, a fraction n/d
    (d inverted mod the generator's order) or a placeholder, either signed."""
    def bind(word):
        out = {}
        for factor in word.split("*"):
            name, _, exp = factor.partition("^")
            sign = -1 if exp.startswith("-") else 1
            exp = exp.lstrip("-") or "1"
            if re.fullmatch(r"[a-z]+", exp):
                value = env[exp]
            elif "/" in exp:
                num, den = exp.split("/")
                value = int(num) * pow(int(den), -1, orders[name])
            else:
                value = int(exp)
            out[name] = out.get(name, 0) + sign * value
        return out
    return ({name: bind(w) for name, w in tpl.powers},
            {(x, y): bind(w) for x, y, w in tpl.comms})


class TestBoundRelations:
    """Each instance's presentation, bound from the template's tokenized
    words, against `make_presentation` of the name-keyed words."""

    @staticmethod
    def _check(inst):
        tpl, p = inst.template, inst.p
        orders = {name: p**e for name, e in tpl.gens}
        powers, comms = _reference_relations(tpl, inst.env, orders)
        want = groups.make_presentation(inst.ctx, list(tpl.gens), powers, comms)
        for f in dataclasses.fields(groups.Presentation):
            assert getattr(inst.presentation, f.name) == getattr(want, f.name), (inst.label, p, f.name)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_every_instance(self, p):
        for inst in enumerate_instances(p):
            self._check(inst)

    def test_first_instance_of_every_template_at_p101(self):
        ctx = PrimeContext.for_prime(101)
        firsts = [instantiate(tpl, 101, catalog._param_values(tpl, ctx)[0]) for tpl in templates()]
        assert len(firsts) == 95
        for inst in firsts:
            self._check(inst)
