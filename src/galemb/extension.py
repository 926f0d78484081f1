"""Extraction of embedding-problem data from a group with pinned central kernel(s).

Given a presentation, one or two central kernel generators, and an ordered
list of pre-image generators whose images must decompose the abelian quotient
as a direct product of cyclic factors, this module computes the cyclic factor
levels n_i and, per kernel, the residues m_i (kernel component of
s_i^{p^{n_i}}) and the strictly upper-triangular d with

    d_ij = kernel_logs([s_j, s_i])[kernel]   for i < j,

projected modulo the other kernel in the two-kernel (pullback) case.  That
sign convention is the one under which the obstruction product
prod_{i<j} (a_j, a_i; zeta)^{d_ij} reproduces the reference tables.

`embedding_data` computes these data once per problem, together with the
minimal root level and the solvability verdict, into one `EmbeddingData`
record that the obstruction formulas read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import groups
from .groups import Element, Presentation


class ExtensionError(ValueError):
    """Kernel or pre-image data violating the embedding-problem preconditions."""


@dataclass(frozen=True)
class EmbeddingProblemSpec:
    """A central embedding problem: kernel(s) of order p^n inside G with a
    designated ordered set of pre-images generating the abelian quotient."""

    presentation: Presentation
    kernel_names: tuple[str, ...]
    kernel_level: int
    preimage_names: tuple[str, ...]
    root_level: int
    # coordinate of each kernel generator, in kernel order, from
    # groups.kernel_indices: dropping them is the quotient map
    kernel_coords: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        P = self.presentation
        if not 1 <= len(self.kernel_names) <= 2:
            raise ExtensionError("one or two kernel generators expected")
        if len(self.kernel_names) == 2 and self.kernel_level != 1:
            raise ExtensionError("two-kernel problems require kernel level 1")
        try:
            object.__setattr__(self, "kernel_coords", groups.kernel_indices(P, self.kernel_names))
        except groups.ElementError as exc:
            raise ExtensionError(str(exc)) from exc
        for name, i in zip(self.kernel_names, self.kernel_coords):
            if groups.generator_order_exp(P, i) != self.kernel_level:
                raise ExtensionError(
                    f"kernel generator {name!r} does not have order p^{self.kernel_level}"
                )
        for name in self.preimage_names:
            if name not in P.index:
                raise ExtensionError(f"unknown pre-image generator {name!r}")

    @property
    def preimages(self) -> tuple[Element, ...]:
        return tuple(self.presentation.generator(n) for n in self.preimage_names)

    def labels(self) -> tuple[str, ...]:
        return tuple(f"a{i}" for i in range(1, len(self.preimage_names) + 1))

    def kernel_logs(self, x: Element) -> tuple[int, ...]:
        """Exponent of each kernel generator in x, an element of the kernel
        product, in kernel order: entry k is the projection onto kernel k
        modulo the other one (the pullback projection).  Coordinate read-offs
        after one support check."""
        if any(c and i not in self.kernel_coords for i, c in enumerate(x)):
            raise ExtensionError(f"element {x} lies outside the kernel {self.kernel_names}")
        return tuple(x[i] for i in self.kernel_coords)


@dataclass(frozen=True)
class ExtensionParams:
    """(n_i, m_i, d_ij) of one kernel projection, in pre-image order (unsorted)."""

    n: tuple[int, ...]
    m: tuple[int, ...]
    d: tuple[tuple[int, ...], ...]  # full t x t, zero on and below the diagonal
    kernel_index: int

    @property
    def t(self) -> int:
        return len(self.n)


def _fp_rank(rows: list[Element], p: int) -> int:
    """Rank over F_p of integer row vectors, by Gaussian elimination mod p."""
    pivots: dict[int, list[int]] = {}  # pivot column -> reduced row with a 1 there
    for row in rows:
        v = [c % p for c in row]
        for col, piv in pivots.items():
            if v[col]:
                f = v[col]
                v = [(a - f * b) % p for a, b in zip(v, piv)]
        lead = next((i for i, c in enumerate(v) if c), None)
        if lead is not None:
            scale = pow(v[lead], -1, p)
            pivots[lead] = [c * scale % p for c in v]
    return len(pivots)


def _frattini_relations(P: Presentation) -> list[Element]:
    """Relation rows whose F_p span is the image of Phi(G) in F_p^k.

    G/Phi(G) is the abelianization of G mod p: F_p^k, one coordinate per
    generator, modulo every power tail (g_i^{p^{e_i}} = tail_i and p^{e_i}
    vanishes mod p, whatever e_i) and every commutator word."""
    rows = [t for t in P.power_tails if t is not None]
    rows += [word for _, _, word in P.comm]
    return rows


def quotient_structure(spec: EmbeddingProblemSpec) -> tuple[int, ...]:
    """Levels n_i of the pre-image images in Q = G/(kernel product), verified to
    be independent direct-factor generators of the whole quotient.

    Q is read off P without being built: dropping the kernel coordinates is
    the quotient map (`spec.kernel_coords`), so an image is trivial iff its
    support lies in the kernel and |Q| = p^(sum of the other e_i)."""
    P = spec.presentation
    ker = spec.kernel_coords
    if any(c and i not in ker for _, _, word in P.comm for i, c in enumerate(word)):
        raise ExtensionError("quotient by the kernel product is not abelian")
    order_exp = sum(e for i, e in enumerate(P.order_exps) if i not in ker)

    pre = [P.index[name] for name in spec.preimage_names]
    n = tuple(0 if i in ker else groups.generator_order_exp(P, i, ker) for i in pre)
    if sum(n) != order_exp:
        raise ExtensionError(
            "pre-images do not generate a direct decomposition: "
            f"prod p^n_i = {P.p**sum(n)} != quotient order {P.p**order_exp}"
        )
    # Q is abelian.  Images spanning Q/Phi(Q) generate Q (Burnside basis
    # theorem), so (c_i) -> prod s_i^{c_i} maps prod Z/p^{n_i} onto Q; both
    # sides have order prod p^{n_i} = |Q|, so the map is an isomorphism and the
    # images give a direct decomposition.  Q's relation rows are P's with the
    # kernel columns dropped, and the kernel and pre-image unit vectors span
    # exactly their own columns: rank(R + unit vectors) = #units + rank(R on
    # the remaining columns), so the images span Q/Phi(Q) iff the relation
    # rows restricted to the columns outside K and the pre-images have full
    # rank (on no columns, trivially).
    rest = [i for i in range(P.ngens) if i not in ker and i not in pre]
    rows = [[row[i] for i in rest] for row in _frattini_relations(P)]
    if rest and _fp_rank(rows, P.p) != len(rest):
        raise ExtensionError("pre-image images are not independent generators of the quotient")
    return n


def extract_params(spec: EmbeddingProblemSpec,
                   n: tuple[int, ...]) -> tuple[ExtensionParams, ...]:
    """m and d of every kernel projection, in kernel order, given the factor
    levels n; in each, the other kernel is quotiented away.

    Pre-images are generators, so both are read off the relation tables, each
    relation once for every kernel: s_i^(p^n_i) is `generator_power` of the
    pre-image's index, and [s_j, s_i] is the stored word [g_b, g_a] of their
    indices b > a, or its inverse when b < a (the word is central with
    trivial tails, so inverting negates its coordinates)."""
    P = spec.presentation
    modulus = P.p**spec.kernel_level
    kernels = range(len(spec.kernel_names))
    pre = [P.index[name] for name in spec.preimage_names]
    # m[i][k], d[k][i][j]: kernel k's projections
    m = [[c % modulus for c in spec.kernel_logs(groups.generator_power(P, a, P.p**ni))]
         for a, ni in zip(pre, n)]
    words = {(j, i): word for j, i, word in P.comm}
    t = len(pre)
    d = [[[0] * t for _ in range(t)] for _ in kernels]
    for i, a in enumerate(pre):
        for j in range(i + 1, t):
            b = pre[j]
            word = words.get((max(a, b), min(a, b)))
            if word is not None:
                for k, c in enumerate(spec.kernel_logs(word)):
                    d[k][i][j] = (c if b > a else -c) % modulus
    return tuple(ExtensionParams(n=n, m=tuple(mi[k] for mi in m),
                                 d=tuple(tuple(row) for row in d[k]), kernel_index=k)
                 for k in kernels)


@dataclass(frozen=True)
class EmbeddingData:
    """Everything the obstruction reads off one embedding problem."""

    spec: EmbeddingProblemSpec
    n: tuple[int, ...]
    params: tuple[ExtensionParams, ...]  # one per kernel projection, in kernel order
    minimal_root_level: int
    # weak solvability implies proper solvability: always for order-p
    # kernels, and for larger kernels iff they lie in Phi(G)
    proper: bool


def embedding_data(spec: EmbeddingProblemSpec) -> EmbeddingData:
    """The levels n_i, every kernel projection's (m, d), the minimal root level
    and the solvability verdict of one problem, computed once.

    The minimal root level N is the largest factor level carrying a nonzero
    kernel residue, but at least max n_i - 1 (cyclic realizability) and the
    kernel level itself."""
    n = quotient_structure(spec)
    params = extract_params(spec, n)
    level = max(1, spec.kernel_level, max(n) - 1,
                *(ni for prm in params for ni, mi in zip(n, prm.m) if mi))
    proper = spec.kernel_level == 1 or frattini_contains_kernel(spec.presentation,
                                                                spec.kernel_names)
    return EmbeddingData(spec=spec, n=n, params=params, minimal_root_level=level, proper=proper)


def minimal_root_level(spec: EmbeddingProblemSpec) -> int:
    """Smallest root-of-unity level at which a complete condition set exists."""
    return embedding_data(spec).minimal_root_level


def frattini_contains_kernel(P: Presentation, kernel_names: tuple[str, ...] | list[str]) -> bool:
    """True iff each kernel generator lies in Phi(G) = G^p [G,G], i.e. the
    kernel unit vectors lie in the F_p span of the relation rows of
    _frattini_relations: adding them all leaves the rank unchanged."""
    relations = _frattini_relations(P)
    units = [P.generator(name) for name in kernel_names]
    return _fp_rank(relations + units, P.p) == _fp_rank(relations, P.p)
