"""Extraction of embedding-problem data from a group with pinned central kernel(s).

Given a presentation, one or two central kernel generators, and an ordered
list of pre-image generators outside the kernel whose images must decompose
the abelian quotient as a direct product of cyclic factors, this module
computes the cyclic factor levels n_i and, per kernel, the residues m_i
(kernel component of s_i^{p^{n_i}}) and the nonzero

    d_ij = kernel_logs([s_j, s_i])[kernel]   for i < j,

projected modulo the other kernel in the two-kernel (pullback) case, as the
sorted triples (i, j, d_ij), 0-based, with d_ij != 0 mod p^n.  That sign
convention is the one under which the obstruction product
prod_{i<j} (a_j, a_i; zeta)^{d_ij} reproduces the reference tables.

An `EmbeddingProblemSpec` computes these data once, when it is built,
together with the minimal root level and the solvability verdict: they
depend on the problem alone.  The root level N of the assumed zeta_{p^N}
only fixes the basis the conditions are written in, and the obstruction
takes it as an argument.
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
    designated ordered set of pre-images generating the abelian quotient.

    Building one checks the data and computes everything the obstruction
    reads off the problem."""

    presentation: Presentation
    kernel_names: tuple[str, ...]
    kernel_level: int
    preimage_names: tuple[str, ...]
    # coordinate of each kernel generator, in kernel order, from
    # groups.kernel_indices, and every other coordinate: dropping the kernel
    # ones is the quotient map; and the coordinate of each pre-image
    kernel_coords: tuple[int, ...] = field(init=False, repr=False, compare=False)
    other_coords: tuple[int, ...] = field(init=False, repr=False, compare=False)
    preimage_coords: tuple[int, ...] = field(init=False, repr=False, compare=False)
    n: tuple[int, ...] = field(init=False, compare=False)  # quotient_structure's levels
    # one per kernel projection, in kernel order
    params: tuple[ExtensionParams, ...] = field(init=False, repr=False, compare=False)
    minimal_root_level: int = field(init=False, compare=False)
    # weak solvability implies proper solvability: always for order-p
    # kernels, and for larger kernels iff they lie in Phi(G)
    proper: bool = field(init=False, compare=False)

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
        object.__setattr__(self, "other_coords", tuple(
            [i for i in range(P.ngens) if i not in self.kernel_coords]))
        for name, i in zip(self.kernel_names, self.kernel_coords):
            if groups.generator_order_exp(P, i) != self.kernel_level:
                raise ExtensionError(
                    f"kernel generator {name!r} does not have order p^{self.kernel_level}"
                )
        for name in self.preimage_names:
            if name not in P.index:
                raise ExtensionError(f"unknown pre-image generator {name!r}")
            if name in self.kernel_names:
                raise ExtensionError(f"pre-image {name!r} lies in the kernel")
        object.__setattr__(self, "preimage_coords", tuple([P.index[n] for n in self.preimage_names]))
        n = quotient_structure(self)
        if not n:
            raise ExtensionError("the quotient by the kernel is trivial: no pre-images to label")
        params = extract_params(self, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "params", params)
        # the largest factor level carrying a nonzero kernel residue, but at
        # least max n_i - 1 (cyclic realizability) and the kernel level itself
        object.__setattr__(self, "minimal_root_level", max(
            1, self.kernel_level, max(n) - 1,
            *[ni for prm in params for ni, mi in zip(n, prm.m) if mi]))
        object.__setattr__(self, "proper", self.kernel_level == 1
                           or frattini_contains_kernel(P, self.kernel_names))

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
        if any(x[i] for i in self.other_coords):
            raise ExtensionError(f"element {x} lies outside the kernel {self.kernel_names}")
        return tuple(x[i] for i in self.kernel_coords)


@dataclass(frozen=True)
class ExtensionParams:
    """(n_i, m_i, d_ij) of one kernel projection, in pre-image order (unsorted).

    d holds only the nonzero d_ij: the triples (i, j, d_ij), sorted, with
    0-based i < j and 0 < d_ij < p^n, the shape of `NormalForm.entries`."""

    n: tuple[int, ...]
    m: tuple[int, ...]
    d: tuple[tuple[int, int, int], ...]
    kernel_index: int


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
    ker, other, pre = spec.kernel_coords, spec.other_coords, spec.preimage_coords
    # list comprehensions, not generators, on this per-row path: resuming a
    # generator per item costs more than the items
    if any([word[i] for _, _, word in P.comm for i in other]):
        raise ExtensionError("quotient by the kernel product is not abelian")
    order_exp = sum([P.order_exps[i] for i in other])

    n = tuple([groups.generator_order_exp(P, i, ker) for i in pre])
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
    rest = [i for i in other if i not in pre]
    if rest:
        rows = [[row[i] for i in rest] for row in _frattini_relations(P)]
        if _fp_rank(rows, P.p) != len(rest):
            raise ExtensionError("pre-image images are not independent generators of the quotient")
    return n


def extract_params(spec: EmbeddingProblemSpec,
                   n: tuple[int, ...]) -> tuple[ExtensionParams, ...]:
    """m and d of every kernel projection, in kernel order, given the factor
    levels n; in each, the other kernel is quotiented away, and d is the
    sorted nonzero triples (i, j, d_ij), i < j.

    Pre-images are generators outside the kernel, so both are read off the
    relation tables, each relation once for every kernel.  For a pre-image
    g_a, n_i >= e_a and s_i^(p^n_i) = tail_a^(p^(n_i - e_a)): the tail is
    central with trivial tails, so its power scales its coordinates.
    [s_j, s_i] is read off the stored word [g_b, g_a], b > a, of each pair
    of pre-images, negated when s_j = g_a (the word is central with trivial
    tails, so inverting negates its coordinates); a pair with no stored word
    commutes.  Both lie in the kernel product where n are
    `quotient_structure`'s levels, which checks every commutator word's
    support, so the kernel columns are read directly.  Its checks also leave
    no generator twice among the pre-images, so each stored pair names at
    most one (i, j).  A word's kernel coordinate is reduced mod the kernel
    generator's order p^n, so a nonzero one stays nonzero mod p^n."""
    P = spec.presentation
    p, exps = P.p, P.order_exps
    modulus = p**spec.kernel_level
    pre = spec.preimage_coords
    out = []
    for k, c in enumerate(spec.kernel_coords):
        m = []
        for a, ni in zip(pre, n):
            tail = P.power_tails[a]
            m.append(tail[c] * p**(ni - exps[a]) % modulus if tail else 0)
        d = []
        for b, a, word in P.comm:
            if word[c] and a in pre and b in pre:
                i, j, entry = pre.index(a), pre.index(b), word[c]
                d.append((i, j, entry) if i < j else (j, i, -entry % modulus))
        out.append(ExtensionParams(n=n, m=tuple(m), d=tuple(sorted(d)), kernel_index=k))
    return tuple(out)


def minimal_root_level(spec: EmbeddingProblemSpec) -> int:
    """Smallest root-of-unity level at which a complete condition set exists."""
    return spec.minimal_root_level


def frattini_contains_kernel(P: Presentation, kernel_names: tuple[str, ...] | list[str]) -> bool:
    """True iff each kernel generator lies in Phi(G) = G^p [G,G], i.e. the
    kernel unit vectors lie in the F_p span of the relation rows of
    _frattini_relations: adding them all leaves the rank unchanged."""
    relations = _frattini_relations(P)
    units = [P.generator(name) for name in kernel_names]
    return _fp_rank(relations + units, P.p) == _fp_rank(relations, P.p)
