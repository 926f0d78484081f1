"""Built-in catalog of the groups of order p^5 and p^6 with an abelian quotient
by a central subgroup of order p or p^2, in their standard isoclinism-family
labelling, together with the shipped reference obstruction table.

Each template records a power-commutator presentation parametric in an odd
prime p (exponents may involve the smallest non-residue v, the smallest
primitive root g, and per-instance parameters r, s, kappa), the pinned
kernel generator(s), and the pre-image convention that fixes the labels
a1..at of the independent elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .arith import discrete_log_mod_p, mod_inverse
from .arith import smallest_nonresidue, smallest_primitive_root  # re-exported API
from .groups import PrimeContext, Presentation, make_presentation
from .symbols import BrauerExpression, ExpressionError, parse

__all__ = [
    "CatalogError",
    "GroupId",
    "GroupInstance",
    "GroupTemplate",
    "TableRow",
    "enumerate_instances",
    "gold_row",
    "instantiate",
    "iter_instances",
    "lookup",
    "smallest_nonresidue",
    "smallest_primitive_root",
    "table_of",
    "templates",
]


class CatalogError(ValueError):
    """Unknown group id, parameter out of range, or undefined instance."""


@dataclass(frozen=True)
class GroupId:
    family: int
    james_label: str
    order_exp: int
    params: tuple[int, ...] | None = None

    @property
    def instance_label(self) -> str:
        if self.params is None:
            return self.james_label
        base = self.james_label.rsplit("_", 1)[0]
        if len(self.params) == 1:
            return f"{base}_{self.params[0]}"
        return f"{base}_{{{','.join(str(v) for v in self.params)}}}"


Word = str  # e.g. "beta1*beta2^r", "alpha2", "beta2^-1/4"


@dataclass(frozen=True)
class GroupTemplate:
    family: int
    label: str
    order_exp: int
    gens: tuple[tuple[str, int], ...]
    powers: tuple[tuple[str, Word], ...]
    comms: tuple[tuple[str, str, Word], ...]
    kernels: tuple[str, ...]  # in the order their conditions are emitted
    kernel_level: int
    preimages: tuple[str, ...]
    param: str = ""  # "", "half", "full", "1nu", "rs"

    @property
    def table(self) -> int:
        return table_of(self.family, self.order_exp)


def table_of(family: int, order_exp: int) -> int:
    key = {(2, 5): 1, (5, 5): 1, (4, 5): 2, (2, 6): 3, (5, 6): 3,
           (4, 6): 4, (12, 6): 4, (13, 6): 5, (15, 6): 5, (14, 6): 6}
    try:
        return key[(family, order_exp)]
    except KeyError:
        raise CatalogError(f"no table for family {family} at order exponent {order_exp}")


# ---------------------------------------------------------------------------
# relation-word evaluation

_FACTOR_RE = re.compile(r"([a-z][a-z0-9]*)(?:\^(-?\d+(?:/\d+)?|-?[a-z]+))?")


def _resolve_exponent(token: str, env: dict[str, int], modulus: int) -> int:
    sign = 1
    if token.startswith("-"):
        sign, token = -1, token[1:]
    if "/" in token:
        num, den = token.split("/")
        value = int(num) * mod_inverse(int(den), modulus)
    elif token.isdigit():
        value = int(token)
    else:
        if token not in env:
            raise CatalogError(f"unknown exponent placeholder {token!r}")
        value = env[token]
    return sign * value % modulus


def _resolve_word(word: Word, env: dict[str, int], orders: dict[str, int]) -> dict[str, int]:
    out: dict[str, int] = {}
    pos = 0
    while pos < len(word):
        m = _FACTOR_RE.match(word, pos)
        if not m:
            raise CatalogError(f"bad relation word {word!r}")
        name, exp = m.group(1), m.group(2)
        if name not in orders:
            raise CatalogError(f"unknown generator {name!r} in word {word!r}")
        e = 1 if exp is None else _resolve_exponent(exp, env, orders[name])
        out[name] = (out.get(name, 0) + e) % orders[name]
        pos = m.end()
        if pos < len(word):
            if word[pos] != "*":
                raise CatalogError(f"bad relation word {word!r}")
            pos += 1
    return out


# ---------------------------------------------------------------------------
# parameter expansion

def _rs_shape(ctx: PrimeContext, r: int) -> tuple[int, int]:
    """(n, max s) for the two-parameter family-15 groups; undefined for g = r^2."""
    p = ctx.p
    if (ctx.g - r * r) % p == 0:
        raise CatalogError(f"instance undefined at p={p}: g = r^2 for r={r}")
    n = 2 + discrete_log_mod_p(ctx.g, (ctx.g - r * r) % p, p)
    # 1 // (2 * n) is 0 for every n >= 2, so the last term vanishes: either dead
    # arithmetic or a mis-transcribed non-integer term; the transcription is
    # unverified against James (1980), the source of the Phi_k labelling.
    m = (p - 3) // 2 + n - 2 * (1 // (2 * n))
    return n, m


def _param_values(tpl: GroupTemplate, ctx: PrimeContext) -> list[tuple[int, ...] | None]:
    p = ctx.p
    if tpl.param == "":
        return [None]
    if tpl.param == "half":
        return [(r,) for r in range(1, (p - 1) // 2 + 1)]
    if tpl.param == "full":
        return [(r,) for r in range(1, p)]
    if tpl.param == "1nu":
        return [(1,), (ctx.nu,)]
    if tpl.param == "rs":
        out: list[tuple[int, ...] | None] = []
        for r in range(1, (p - 1) // 2 + 1):
            if (ctx.g - r * r) % p == 0:
                continue
            _, m = _rs_shape(ctx, r)
            out.extend((r, s) for s in range(m + 1))
        return out
    raise CatalogError(f"unknown parameter kind {tpl.param!r}")


def _env_for(tpl: GroupTemplate, ctx: PrimeContext, params: tuple[int, ...] | None) -> dict[str, int]:
    p = ctx.p
    env = {"p": p, "g": ctx.g, "v": ctx.nu}
    if tpl.param == "":
        if params is not None:
            raise CatalogError(f"{tpl.label} takes no parameters")
        return env
    if params is None or len(params) != (2 if tpl.param == "rs" else 1):
        raise CatalogError(f"{tpl.label} needs {'(r, s)' if tpl.param == 'rs' else 'r'}")
    r = params[0]
    if tpl.param == "full":
        valid = 1 <= r < p
    elif tpl.param == "1nu":
        valid = r in (1, ctx.nu)
    elif tpl.param in ("half", "rs"):
        valid = 1 <= r <= (p - 1) // 2
    else:
        raise CatalogError(f"unknown parameter kind {tpl.param!r}")
    if valid and tpl.param == "rs":
        n, m = _rs_shape(ctx, r)
        valid = 0 <= params[1] <= m
    if not valid:
        raise CatalogError(f"parameters {params} out of range for {tpl.label} at p={p}")
    env["r"] = r
    label = tpl.label
    if label in ("Phi4(221)d_r", "Phi4(222)b_r", "Phi15(2211)d_r"):
        env["k"] = pow(ctx.g, r, p)
    elif label == "Phi4(221)f_r":
        # printed as 4*kappa = g^(2r+1)
        env["k"] = pow(ctx.g, 2 * r + 1, p) * mod_inverse(4, p) % p
    elif label == "Phi4(222)e_r":
        env["k"] = (pow(ctx.g, 2 * r + 1, p) - 1) * mod_inverse(4, p) % p
    elif label == "Phi15(2211)b_{r,s}":
        s = params[1]
        env["s"] = s
        # 1 // (2 * n) is 0 (n >= 2), as in _rs_shape; unverified against
        # James (1980)
        env["k"] = pow(ctx.g, (1 // (2 * n)) + s, p)
    return env


# ---------------------------------------------------------------------------
# the templates, in catalog (table row) order

def _t(family, label, order_exp, gens, powers, comms, kernels, kernel_level, preimages,
       param="") -> GroupTemplate:
    return GroupTemplate(
        family=family, label=label, order_exp=order_exp,
        gens=tuple(gens), powers=tuple(powers.items()),
        comms=tuple((x, y, w) for (x, y), w in comms.items()),
        kernels=tuple(kernels), kernel_level=kernel_level,
        preimages=tuple(preimages), param=param,
    )


_F2_COMM = {("alpha1", "alpha"): "alpha2"}
_F4_GENS5 = [("alpha", 1), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)]
_F4_COMM = {("alpha1", "alpha"): "beta1", ("alpha2", "alpha"): "beta2"}
_F4_PRE = ("alpha1", "alpha2", "alpha")
_F5_GENS = [("alpha1", 1), ("alpha2", 1), ("alpha3", 1), ("alpha4", 1), ("beta", 1)]
_F5_COMM = {("alpha1", "alpha2"): "beta", ("alpha3", "alpha4"): "beta"}
_F5_PRE = ("alpha1", "alpha2", "alpha3", "alpha4")
_F12_GENS = [("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1), ("gamma1", 1), ("gamma2", 1)]
_F12_COMM = {("alpha1", "beta1"): "gamma1", ("alpha2", "beta2"): "gamma2"}
_F12_PRE = ("alpha1", "alpha2", "beta1", "beta2")
_F13_GENS = [("alpha1", 1), ("alpha2", 1), ("alpha3", 1), ("alpha4", 1), ("beta1", 1), ("beta2", 1)]
_F13_COMM = {("alpha1", "alpha2"): "beta1", ("alpha1", "alpha3"): "beta2", ("alpha2", "alpha4"): "beta2"}
_F15_COMM = {("alpha1", "alpha2"): "beta1", ("alpha1", "alpha3"): "beta2",
             ("alpha3", "alpha4"): "beta1", ("alpha2", "alpha4"): "beta2^g"}
_A4_PRE = ("alpha1", "alpha2", "alpha3", "alpha4")


def _f2(label, order_exp, gens, powers, preimages=("alpha1", "alpha")):
    return _t(2, label, order_exp, gens, powers, _F2_COMM, ("alpha2",), 1, preimages)


def _f4(label, order_exp, gens, powers, preimages=_F4_PRE, param=""):
    return _t(4, label, order_exp, gens, powers, _F4_COMM, ("beta2", "beta1"), 1, preimages, param)


def _f5(label, order_exp, gens, powers, preimages=_F5_PRE):
    return _t(5, label, order_exp, gens, powers, _F5_COMM, ("beta",), 1, preimages)


def _f12(label, powers):
    return _t(12, label, 6, _F12_GENS, powers, _F12_COMM, ("gamma2", "gamma1"), 1, _F12_PRE)


def _f13(label, powers, param=""):
    return _t(13, label, 6, _F13_GENS, powers, _F13_COMM, ("beta2", "beta1"), 1, _A4_PRE, param)


def _f15(label, powers, param=""):
    return _t(15, label, 6, _F13_GENS, powers, _F15_COMM, ("beta2", "beta1"), 1, _A4_PRE, param)


_TEMPLATES: tuple[GroupTemplate, ...] = (
    # --- table 1: order p^5, families 2 and 5
    _f2("Phi2(41)", 5, [("alpha", 3), ("alpha1", 1), ("alpha2", 1)], {"alpha": "alpha2"}),
    _f2("Phi2(32)a1", 5, [("alpha", 2), ("alpha1", 2), ("alpha2", 1)], {"alpha": "alpha2"}),
    _f2("Phi2(32)a2", 5, [("alpha", 3), ("alpha1", 1), ("alpha2", 1)], {"alpha1": "alpha2"}),
    _f2("Phi2(311)b", 5, [("alpha", 1), ("alpha1", 1), ("alpha2", 1), ("gamma", 2)],
        {"gamma": "alpha2"}, ("alpha1", "alpha", "gamma")),
    _f2("Phi2(311)c", 5, [("alpha", 3), ("alpha1", 1), ("alpha2", 1)], {}),
    _f2("Phi2(221)c", 5, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("gamma", 1)],
        {"gamma": "alpha2"}, ("alpha1", "alpha", "gamma")),
    _f2("Phi2(221)d", 5, [("alpha", 2), ("alpha1", 2), ("alpha2", 1)], {}),
    _f5("Phi5(2111)", 5, _F5_GENS, {"alpha1": "beta"}),
    _f5("Phi5(1^5)", 5, _F5_GENS, {}),
    # --- table 2: order p^5 pullbacks, family 4
    _f4("Phi4(221)a", 5, _F4_GENS5, {"alpha": "beta2", "alpha1": "beta1"}),
    _f4("Phi4(221)b", 5, _F4_GENS5, {"alpha": "beta2", "alpha2": "beta1"}),
    _f4("Phi4(221)c", 5, _F4_GENS5, {"alpha1": "beta1", "alpha2": "beta2"}),
    _f4("Phi4(221)d_r", 5, _F4_GENS5, {"alpha1": "beta1^k", "alpha2": "beta2"}, param="half"),
    _f4("Phi4(221)e", 5, _F4_GENS5, {"alpha1": "beta2^-1/4", "alpha2": "beta1*beta2"}),
    _f4("Phi4(221)f_0", 5, _F4_GENS5, {"alpha1": "beta2", "alpha2": "beta1^v"}),
    _f4("Phi4(221)f_r", 5, _F4_GENS5, {"alpha1": "beta2^k", "alpha2": "beta1*beta2"}, param="half"),
    _f4("Phi4(2111)a", 5, _F4_GENS5, {"alpha": "beta2"}),
    _f4("Phi4(2111)b", 5, _F4_GENS5, {"alpha1": "beta1"}),
    _f4("Phi4(2111)c", 5, _F4_GENS5, {"alpha2": "beta1"}),
    _f4("Phi4(1^5)", 5, _F4_GENS5, {}),
    # --- table 3: order p^6, families 2 and 5
    _f2("Phi2(51)", 6, [("alpha", 4), ("alpha1", 1), ("alpha2", 1)], {"alpha": "alpha2"}),
    _f2("Phi2(42)a1", 6, [("alpha", 3), ("alpha1", 2), ("alpha2", 1)], {"alpha": "alpha2"}),
    _f2("Phi2(42)a2", 6, [("alpha", 4), ("alpha1", 1), ("alpha2", 1)], {"alpha1": "alpha2"}),
    _f2("Phi2(411)b", 6, [("alpha", 1), ("alpha1", 1), ("alpha2", 1), ("gamma", 3)],
        {"gamma": "alpha2"}, ("alpha1", "alpha", "gamma")),
    _f2("Phi2(411)c", 6, [("alpha", 4), ("alpha1", 1), ("alpha2", 1)], {}),
    _f2("Phi2(33)", 6, [("alpha", 2), ("alpha1", 3), ("alpha2", 1)], {"alpha": "alpha2"}),
    _f2("Phi2(321)c", 6, [("alpha", 3), ("alpha1", 1), ("alpha2", 1), ("gamma", 1)],
        {"gamma": "alpha2"}, ("alpha1", "alpha", "gamma")),
    _f2("Phi2(321)d", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("gamma", 2)],
        {"gamma": "alpha2"}, ("alpha1", "alpha", "gamma")),
    _f2("Phi2(321)f", 6, [("alpha", 3), ("alpha1", 2), ("alpha2", 1)], {}),
    _f2("Phi2(222)b", 6, [("alpha", 2), ("alpha1", 2), ("alpha2", 1), ("gamma", 1)],
        {"gamma": "alpha2"}, ("alpha1", "alpha", "gamma")),
    _f5("Phi5(3111)", 6, [("alpha1", 2), ("alpha2", 1), ("alpha3", 1), ("alpha4", 1), ("beta", 1)],
        {"alpha1": "beta"}),
    _f5("Phi5(2211)a", 6, [("alpha1", 2), ("alpha2", 1), ("alpha3", 1), ("alpha4", 1), ("beta", 1)],
        {"alpha2": "beta"}),
    _f5("Phi5(2211)b", 6, [("alpha1", 2), ("alpha2", 1), ("alpha3", 1), ("alpha4", 1), ("beta", 1)],
        {"alpha3": "beta"}),
    _f5("Phi5(21^4)b", 6,
        [("alpha1", 1), ("alpha2", 1), ("alpha3", 1), ("alpha4", 1), ("beta", 1), ("gamma", 1)],
        {"gamma": "beta"}, ("alpha1", "alpha2", "alpha3", "alpha4", "gamma")),
    _f5("Phi5(21^4)c", 6, [("alpha1", 2), ("alpha2", 1), ("alpha3", 1), ("alpha4", 1), ("beta", 1)], {}),
    # --- table 4: order p^6 pullbacks, families 4 and 12
    _f4("Phi4(321)a", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha": "beta1", "alpha2": "beta2"}),
    _f4("Phi4(321)b", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha": "beta1", "alpha1": "beta2"}),
    _f4("Phi4(321)c", 6, [("alpha", 1), ("alpha1", 1), ("alpha2", 2), ("beta1", 1), ("beta2", 1)],
        {"alpha": "beta2", "alpha2": "beta1"}),
    _f4("Phi4(321)d", 6, [("alpha", 1), ("alpha1", 2), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha": "beta2", "alpha1": "beta1"}),
    _f4("Phi4(321)e_r", 6, [("alpha", 1), ("alpha1", 2), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha1": "beta1", "alpha2": "beta2^r"}, param="full"),
    _f4("Phi4(321)f_r", 6, [("alpha", 1), ("alpha1", 1), ("alpha2", 2), ("beta1", 1), ("beta2", 1)],
        {"alpha1": "beta2^r", "alpha2": "beta1"}, param="1nu"),
    _f4("Phi4(3111)a", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha": "beta1"}),
    _f4("Phi4(3111)b", 6, [("alpha", 1), ("alpha1", 2), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha1": "beta1"}),
    _f4("Phi4(3111)c", 6, [("alpha", 1), ("alpha1", 1), ("alpha2", 2), ("beta1", 1), ("beta2", 1)],
        {"alpha2": "beta1"}),
    _f4("Phi4(222)a", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha1": "beta1", "alpha2": "beta2"}),
    _f4("Phi4(222)b_r", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha1": "beta1^k", "alpha2": "beta2"}, param="half"),
    _f4("Phi4(222)c", 6, [("alpha", 1), ("alpha1", 2), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha": "beta1", "alpha2": "beta2"}),
    _f4("Phi4(222)d_1", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha1": "beta2^-1/4", "alpha2": "beta1*beta2"}),
    _f4("Phi4(222)d_2", 6, [("alpha", 1), ("alpha1", 2), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha": "beta2", "alpha2": "beta1"}),
    _f4("Phi4(222)e_0", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha1": "beta2", "alpha2": "beta1^v"}),
    _f4("Phi4(222)e_r", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha1": "beta2^k", "alpha2": "beta1*beta2"}, param="half"),
    _f4("Phi4(2211)g", 6,
        [("alpha", 1), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1), ("gamma", 1)],
        {"gamma": "beta2", "alpha": "beta1"}, ("alpha1", "alpha2", "alpha", "gamma")),
    _f4("Phi4(2211)h", 6,
        [("alpha", 1), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1), ("gamma", 1)],
        {"gamma": "beta2", "alpha1": "beta1"}, ("alpha1", "alpha2", "alpha", "gamma")),
    _f4("Phi4(2211)i", 6,
        [("alpha", 1), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1), ("gamma", 1)],
        {"gamma": "beta2", "alpha2": "beta1"}, ("alpha1", "alpha2", "alpha", "gamma")),
    _f4("Phi4(2211)j_1", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha1": "beta1"}),
    _f4("Phi4(2211)j_2", 6, [("alpha", 1), ("alpha1", 2), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha": "beta1"}),
    _f4("Phi4(2211)k", 6, [("alpha", 1), ("alpha1", 2), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha": "beta2"}),
    _f4("Phi4(2211)l", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha2": "beta1"}),
    _f4("Phi4(2211)m", 6, [("alpha", 1), ("alpha1", 2), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha2": "beta2"}),
    _f4("Phi4(2211)n", 6, [("alpha", 1), ("alpha1", 2), ("alpha2", 1), ("beta1", 1), ("beta2", 1)],
        {"alpha2": "beta1"}),
    _f4("Phi4(21^4)d", 6,
        [("alpha", 1), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1), ("gamma", 1)],
        {"gamma": "beta1"}, ("alpha1", "alpha2", "alpha", "gamma")),
    _f4("Phi4(21^4)e", 6, [("alpha", 2), ("alpha1", 1), ("alpha2", 1), ("beta1", 1), ("beta2", 1)], {}),
    _f4("Phi4(21^4)f", 6, [("alpha", 1), ("alpha1", 2), ("alpha2", 1), ("beta1", 1), ("beta2", 1)], {}),
    _f12("Phi12(2211)a", {"alpha1": "gamma1", "beta1": "gamma2"}),
    _f12("Phi12(2211)c", {"alpha1": "gamma1*gamma2", "alpha2": "gamma2"}),
    _f12("Phi12(2211)d", {"alpha1": "gamma2", "alpha2": "gamma1"}),
    _f12("Phi12(2211)e", {"alpha1": "gamma1*gamma2", "alpha2": "gamma1"}),
    _f12("Phi12(2211)f", {"alpha1": "gamma1", "alpha2": "gamma1", "beta1": "gamma2"}),
    _f12("Phi12(2211)g", {"alpha1": "gamma1", "alpha2": "gamma2", "beta1": "gamma2"}),
    _f12("Phi12(2211)h", {"alpha1": "gamma1", "beta2": "gamma1", "alpha2": "gamma2", "beta1": "gamma2"}),
    _f12("Phi12(2211)i", {"alpha1": "gamma1", "alpha2": "gamma1*gamma2", "beta1": "gamma2"}),
    _f12("Phi12(21^4)b", {"alpha1": "gamma1*gamma2"}),
    _f12("Phi12(21^4)c", {"alpha1": "gamma2"}),
    _f12("Phi12(21^4)d", {"alpha1": "gamma1", "alpha2": "gamma1"}),
    _f12("Phi12(21^4)e", {"alpha1": "gamma1*gamma2", "alpha2": "gamma1*gamma2"}),
    # --- table 5: order p^6 pullbacks, families 13 and 15
    _f13("Phi13(2211)a", {"alpha2": "beta2", "alpha1": "beta1"}),
    _f13("Phi13(2211)b", {"alpha3": "beta2", "alpha1": "beta1"}),
    _f13("Phi13(2211)c_r", {"alpha2": "beta2^r", "alpha3": "beta1"}, param="1nu"),
    _f13("Phi13(2211)d", {"alpha1": "beta2", "alpha3": "beta1"}),
    _f13("Phi13(2211)e_r", {"alpha4": "beta2^r", "alpha1": "beta1"}, param="full"),
    _f13("Phi13(2211)f", {"alpha4": "beta2", "alpha3": "beta1"}),
    _f13("Phi13(21^4)a", {"alpha1": "beta1"}),
    _f13("Phi13(21^4)b", {"alpha1": "beta2"}),
    _f13("Phi13(21^4)c", {"alpha3": "beta2"}),
    _f13("Phi13(21^4)d", {"alpha3": "beta1"}),
    _f13("Phi13(1^6)", {}),
    _f15("Phi15(2211)a", {"alpha1": "beta1", "alpha2": "beta2"}),
    _f15("Phi15(2211)b_{r,s}", {"alpha1": "beta1*beta2^r", "alpha2": "beta2^k"}, param="rs"),
    _f15("Phi15(2211)c", {"alpha1": "beta1", "alpha4": "beta2^-g"}),
    _f15("Phi15(2211)d_r", {"alpha1": "beta1", "alpha4": "beta2^k"}, param="half"),
    _f15("Phi15(21^4)", {"alpha1": "beta1"}),
    _f15("Phi15(1^6)", {}),
    # --- table 6: order p^6 with kernel of order p^2, family 14
    _t(14, "Phi14(42)", 6, [("alpha1", 2), ("alpha2", 2), ("beta", 2)],
       {"alpha1": "beta"}, {("alpha1", "alpha2"): "beta"}, ("beta",), 2, ("alpha1", "alpha2")),
    _t(14, "Phi14(321)", 6, [("alpha1", 2), ("alpha2", 2), ("beta", 2)],
       {"alpha1": "beta^p"}, {("alpha1", "alpha2"): "beta"}, ("beta",), 2, ("alpha1", "alpha2")),
    _t(14, "Phi14(222)", 6, [("alpha1", 2), ("alpha2", 2), ("beta", 2)],
       {}, {("alpha1", "alpha2"): "beta"}, ("beta",), 2, ("alpha1", "alpha2")),
)

_BY_LABEL = {t.label: t for t in _TEMPLATES}


def templates(order_exp: int | None = None, table: int | None = None) -> list[GroupTemplate]:
    out = [t for t in _TEMPLATES
           if (order_exp is None or t.order_exp == order_exp)
           and (table is None or t.table == table)]
    return out


# ---------------------------------------------------------------------------
# instantiation

@dataclass(frozen=True)
class GroupInstance:
    id: GroupId
    template: GroupTemplate
    ctx: PrimeContext
    env: dict
    presentation: Presentation

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def label(self) -> str:
        return self.id.instance_label

    @property
    def kernels(self) -> tuple[str, ...]:
        return self.template.kernels

    @property
    def kernel_level(self) -> int:
        return self.template.kernel_level

    @property
    def preimages(self) -> tuple[str, ...]:
        return self.template.preimages


def instantiate(label_or_template, p: int, params: tuple[int, ...] | None = None) -> GroupInstance:
    """Build the presentation of one concrete group instance at an odd prime p."""
    if isinstance(label_or_template, GroupTemplate):
        tpl = label_or_template
    else:
        tpl = _BY_LABEL.get(label_or_template)
        if tpl is None:
            raise CatalogError(f"unknown group {label_or_template!r}")
    ctx = PrimeContext.for_prime(p)
    env = _env_for(tpl, ctx, params)
    orders = {name: p**e for name, e in tpl.gens}
    powers = {name: _resolve_word(w, env, orders) for name, w in tpl.powers}
    comms = {(x, y): _resolve_word(w, env, orders) for x, y, w in tpl.comms}
    pres = make_presentation(ctx, list(tpl.gens), powers, comms)
    gid = GroupId(family=tpl.family, james_label=tpl.label, order_exp=tpl.order_exp, params=params)
    return GroupInstance(id=gid, template=tpl, ctx=ctx, env=env, presentation=pres)


def iter_instances(p: int, order_exp: int | None = None, table: int | None = None):
    """The catalog instances at p in catalog order, each built when it is reached."""
    ctx = PrimeContext.for_prime(p)
    for tpl in templates(order_exp, table):
        for params in _param_values(tpl, ctx):
            yield instantiate(tpl, p, params)


def enumerate_instances(p: int, order_exp: int | None = None, table: int | None = None) -> list[GroupInstance]:
    return list(iter_instances(p, order_exp, table))


_INSTANCE_RE = re.compile(r"^(?P<base>.*?)_(?:\{(?P<pair>\d+\s*,\s*\d+)\}|(?P<pair2>\d+\s*,\s*\d+)|(?P<single>\d+))$")


def lookup(label: str, p: int) -> GroupInstance:
    """Resolve a user-facing label like Phi2(41), Phi4(221)d_1 or Phi15(2211)b_{1,0}."""
    label = label.strip()
    if label in _BY_LABEL:
        tpl = _BY_LABEL[label]
        if tpl.param:
            raise CatalogError(f"{label} is parameterized; pass subscripts, e.g. {label.rsplit('_', 1)[0]}_1")
        return instantiate(tpl, p)
    m = _INSTANCE_RE.match(label)
    if m:
        base = m.group("base")
        if m.group("single") is not None:
            params: tuple[int, ...] = (int(m.group("single")),)
            candidates = (f"{base}_r",)
        else:
            pair = m.group("pair") or m.group("pair2")
            params = tuple(int(x) for x in pair.split(","))
            candidates = (f"{base}_{{r,s}}",)
        for cand in candidates:
            if cand in _BY_LABEL:
                return instantiate(_BY_LABEL[cand], p, params)
    raise CatalogError(f"unknown group {label!r}")


# ---------------------------------------------------------------------------
# gold rows

@dataclass(frozen=True)
class TableRow:
    independents: int
    root_level: int
    obstructions: tuple[BrauerExpression, ...]


@lru_cache(maxsize=4)
def _load_gold(path: str | None) -> dict[str, tuple[int, int, tuple[str, ...]]]:
    if path is None:
        text = resources.files("galemb").joinpath("data/gold_tables.txt").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    rows: dict[str, tuple[int, int, tuple[str, ...]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [c.strip() for c in line.split("|")]
        if len(parts) != 4:
            raise CatalogError(f"gold table line {lineno}: expected 4 columns")
        label, order_exp, root_level, exprs = parts
        try:
            order, root = int(order_exp), int(root_level)
        except ValueError:
            raise CatalogError(f"gold table line {lineno}: order {order_exp!r} and root level "
                               f"{root_level!r} must be integers") from None
        rows[label] = (order, root, tuple(_split_conditions(exprs)))
    return rows


def _split_conditions(text: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [c for c in out if c]


def gold_row(inst: GroupInstance, gold_path: str | None = None) -> TableRow:
    rows = _load_gold(gold_path)
    label = inst.template.label
    if label not in rows:
        raise CatalogError(f"no gold row for {label!r}")
    order_exp, root_level, exprs = rows[label]
    if order_exp != inst.template.order_exp:
        raise CatalogError(f"gold row order mismatch for {label!r}")
    try:
        parsed = tuple(parse(e, env=inst.env) for e in exprs)
    except ExpressionError as exc:
        raise ExpressionError(f"{inst.label} p={inst.p}: {exc}") from exc
    return TableRow(
        independents=len(inst.preimages),
        root_level=root_level,
        obstructions=parsed,
    )
