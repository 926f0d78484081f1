"""Exact arithmetic in finite p-groups of nilpotency class <= 2.

A group is described by a power-commutator presentation: generator i has a
relative order p^{e_i}, a power relation g_i^{p^{e_i}} = tail_i, and sparse
commutator relations [g_j, g_i] = word for j > i.  Every tail and commutator
word is required to land on designated central generators whose own relations
are trivial; this makes the carry loop in `mul` provably terminating and keeps
collection a closed-form computation (coordinate sums plus central
corrections).

Elements are plain tuples of residues, coordinate i reduced mod p^{e_i}; the
tuple (x_0, ..., x_{k-1}) denotes the normal form g_0^{x_0} ... g_{k-1}^{x_{k-1}}.
All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .arith import is_prime, mod_inverse, smallest_nonresidue, smallest_primitive_root

Element = tuple[int, ...]

DEFAULT_ENUMERATION_BOUND = 10**6


class PresentationError(ValueError):
    """Invalid power-commutator data (wrong orders, non-central tails, p even...)."""


class ElementError(ValueError):
    """Element incompatible with a presentation (wrong length, bad residue)."""


class EnumerationBoundError(RuntimeError):
    """Group too large for an exhaustive operation."""


@dataclass(frozen=True)
class PrimeContext:
    """An odd prime p together with its smallest non-residue nu and primitive root g."""

    p: int
    nu: int
    g: int

    @classmethod
    def for_prime(cls, p: int) -> "PrimeContext":
        return _prime_context(p)


@lru_cache(maxsize=256)
def _prime_context(p: int) -> PrimeContext:
    # raising leaves nothing in the cache: only valid contexts are memoized
    if p == 2:
        raise PresentationError("only odd primes are supported")
    if not is_prime(p):
        raise PresentationError(f"{p} is not prime")
    return PrimeContext(p=p, nu=smallest_nonresidue(p), g=smallest_primitive_root(p))


@dataclass(frozen=True)
class Presentation:
    """Validated class-<=2 power-commutator presentation, built only by
    `RelationTable.bind`.

    comm maps (j, i) with j > i to the exponent vector of [g_j, g_i]; pairs
    not present commute.  power_tails[i] is the exponent vector of
    g_i^{p^{e_i}}, or None when trivial.  central[i] flags the generators that
    tails and commutator words are allowed to hit.
    """

    ctx: PrimeContext
    names: tuple[str, ...]
    order_exps: tuple[int, ...]
    central: tuple[bool, ...] = field(compare=False)
    power_tails: tuple[Element | None, ...]
    comm: tuple[tuple[int, int, Element], ...]
    orders: tuple[int, ...] = field(compare=False)
    index: dict = field(compare=False, repr=False)

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def ngens(self) -> int:
        return len(self.names)

    @property
    def identity(self) -> Element:
        return (0,) * len(self.names)

    def generator(self, name: str) -> Element:
        i = self.index[name]
        e = [0] * len(self.names)
        e[i] = 1
        return tuple(e)


# one factor g^(sign value / den) of a relation word: (generator name, sign,
# value, den), value an int or a placeholder name read from the env at bind
# time, den None or an int inverted mod the generator's order
Factor = tuple[str, int, int | str, int | None]


@dataclass(frozen=True)
class RelationTable:
    """A presentation's generators and relations, exponents unbound.

    gens: (name, e) pairs in normal-form order; generator has relative order
    p^e.  relations: (x, None, word) for g_x^{p^e_x} = word and (x, y, word)
    for [g_x, g_y] = word in either orientation, each word a tuple of
    `Factor`s.  Building the table checks, once, that the names are distinct,
    every e >= 1, every name in a relation is a generator and no generator
    has two power relations; `bind` checks the rest at each prime."""

    gens: tuple[tuple[str, int], ...]
    relations: tuple[tuple[str, str | None, tuple[Factor, ...]], ...]
    # derived: the generators' names, exponents and coordinates, and each
    # relation as (j, i, word) in coordinates, a commutator flipped into the
    # stored (later, earlier) convention by negating its word's signs
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    exps: tuple[int, ...] = field(init=False, repr=False, compare=False)
    index: dict = field(init=False, repr=False, compare=False)
    coords: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(n for n, _ in self.gens)
        if len(set(names)) != len(names):
            raise PresentationError("duplicate generator names")
        exps = tuple(e for _, e in self.gens)
        if any(e < 1 for e in exps):
            raise PresentationError("relative order exponents must be >= 1")
        index = {n: i for i, n in enumerate(names)}
        coords, tailed = [], set()
        for x, y, word in self.relations:
            for name in (x, y, *(f[0] for f in word)):
                if name is not None and name not in index:
                    raise PresentationError(f"unknown generator {name!r} in relation")
            if y is None:
                if x in tailed:
                    raise PresentationError(f"two power relations for generator {x!r}")
                tailed.add(x)
            j, i, flip = index[x], None if y is None else index[y], 1
            if i is not None and j < i:
                # [x, y] given with x earlier: store [g_j, g_i] = word^{-1}
                j, i, flip = i, j, -1
            coords.append((j, i, tuple((index[n], flip * s, v, d) for n, s, v, d in word)))
        for attr, value in (("names", names), ("exps", exps), ("index", index),
                            ("coords", tuple(coords))):
            object.__setattr__(self, attr, value)

    def bind(self, ctx: PrimeContext, env: dict[str, int] | None = None) -> Presentation:
        """The presentation at ctx.p, placeholders read from env, validated:
        each factor reduced mod its generator's order, a zero word trivial,
        no nontrivial [x, x] and no pair twice, and every generator a
        relation hits (the relation targets) with a trivial power tail and
        in no commutator."""
        names, k = self.names, len(self.names)
        orders = tuple([ctx.p**e for e in self.exps])
        tails: list[Element | None] = [None] * k
        comm: list[tuple[int, int, Element]] = []
        pairs: set[tuple[int, int]] = set()
        support: set[int] = set()
        for j, i, word in self.coords:
            vec = [0] * k
            for t, sign, value, den in word:
                o = orders[t]
                if type(value) is str:
                    if env is None or value not in env:
                        raise PresentationError(f"unknown exponent placeholder {value!r}")
                    value = env[value]
                elif den is not None:
                    value *= mod_inverse(den, o)
                vec[t] = (vec[t] + sign * value % o) % o
            if not any(vec):
                continue  # a zero word is trivial
            vec = tuple(vec)
            if i is None:
                tails[j] = vec
            elif j == i:
                raise PresentationError(f"commutator [{names[j]},{names[j]}] must be trivial")
            elif (j, i) in pairs:
                raise PresentationError(f"duplicate commutator relation for pair {names[j]},{names[i]}")
            else:
                pairs.add((j, i))
                comm.append((j, i, vec))
            support.update(itertools.compress(range(k), vec))
        in_comm = set(itertools.chain.from_iterable(pairs))
        central = [False] * k
        for t in support:
            if tails[t] is not None:
                raise PresentationError(
                    f"generator {names[t]!r} carries relation values but has a nontrivial power tail"
                )
            if t in in_comm:
                raise PresentationError(
                    f"generator {names[t]!r} carries relation values but appears in a commutator"
                )
            central[t] = True
        comm.sort()
        return Presentation(ctx=ctx, names=names, order_exps=self.exps, central=tuple(central),
                            power_tails=tuple(tails), comm=tuple(comm), orders=orders,
                            index=self.index)


def make_presentation(
    ctx: PrimeContext,
    gens: list[tuple[str, int]],
    power_tails: dict[str, dict[str, int]] | None = None,
    comms: dict[tuple[str, str], dict[str, int]] | None = None,
) -> Presentation:
    """Build and validate a presentation.

    gens: (name, e) pairs in normal-form order; generator has relative order p^e.
    power_tails: name -> {target: exponent} for nontrivial g^{p^e} words.
    comms: (x, y) -> {target: exponent} meaning [x, y] = word; either orientation
    is accepted and flipped into the stored (later, earlier) convention.
    """
    words = [((x, None), w) for x, w in (power_tails or {}).items()] + list((comms or {}).items())
    relations = tuple((x, y, tuple((n, 1, e, None) for n, e in w.items())) for (x, y), w in words)
    return RelationTable(tuple(gens), relations).bind(ctx)


def _carry(P: Presentation, z: list[int]) -> Element:
    orders = P.orders
    tails = P.power_tails
    # Tails land only on central generators whose own tails are trivial, so
    # at most a couple of passes are ever needed.
    changed = True
    while changed:
        changed = False
        for i in range(len(z)):
            if 0 <= z[i] < orders[i]:
                continue
            q, r = divmod(z[i], orders[i])
            z[i] = r
            tail = tails[i]
            if tail is not None and q:
                for t, c in enumerate(tail):
                    if c:
                        z[t] += c * q
            changed = True
    return tuple(z)


def mul(P: Presentation, x: Element, y: Element) -> Element:
    """Normal form of xy by class-2 collection."""
    if len(x) != P.ngens or len(y) != P.ngens:
        raise ElementError("element length does not match presentation")
    z = [a + b for a, b in zip(x, y)]
    # moving y's low generators left past x's high generators:
    # g_j^{x_j} g_i^{y_i} = g_i^{y_i} g_j^{x_j} [g_j, g_i]^{x_j y_i}  (j > i)
    for j, i, word in P.comm:
        c = x[j] * y[i]
        if c:
            for t, w in enumerate(word):
                if w:
                    z[t] += w * c
    return _carry(P, z)


def generator_order_exp(P: Presentation, i: int, skip: tuple[int, ...] = ()) -> int:
    """log_p of the order of g_i, read off its power tail in one step:
    g_i^(p^e_i) = tail_i, whose coordinates c_t lie on central generators
    with trivial tails, so tail_i^m has coordinates c_t m mod p^E_t and
    order max_t p^(E_t - v_p(c_t)).  Coordinates in `skip` are dropped: for
    i outside the kernel coordinates, skipping them gives the order of g_i's
    image in G/K."""
    levels = [0]
    for t, c in enumerate(P.power_tails[i] or ()):
        if c and t not in skip:
            level = P.order_exps[t]
            while c % P.p == 0:
                c, level = c // P.p, level - 1
            levels.append(level)
    return P.order_exps[i] + max(levels)


def _relation_sum(P: Presentation, coeffs: list[int]) -> list[int]:
    """Uncarried coordinates of prod [g_j, g_i]^{c}, one coefficient c per
    stored commutator relation (j, i) in P.comm order."""
    z = [0] * P.ngens
    for (_, _, word), c in zip(P.comm, coeffs):
        if c:
            for t, w in enumerate(word):
                if w:
                    z[t] += w * c
    return z


def inv(P: Presentation, x: Element) -> Element:
    """Inverse, as the power x^-1."""
    return pow_element(P, x, -1)


def pow_element(P: Presentation, x: Element, n: int) -> Element:
    """x^n for any integer n, in closed form: in class 2,
    (g_0^{x_0}...g_{k-1}^{x_{k-1}})^n = g_0^{n x_0}...g_{k-1}^{n x_{k-1}}
    prod_{j>i} [g_j, g_i]^{C(n,2) x_j x_i}, from (ab)^n = a^n b^n [b, a]^{C(n,2)}."""
    if len(x) != P.ngens:
        raise ElementError("element length does not match presentation")
    c2 = n * (n - 1) // 2
    z = _relation_sum(P, [c2 * x[j] * x[i] for j, i, _ in P.comm])
    for t, c in enumerate(x):
        z[t] += n * c
    return _carry(P, z)


def commutator(P: Presentation, x: Element, y: Element) -> Element:
    """[x, y] = x^-1 y^-1 x y; central for class-2 presentations, where the
    commutator map is bilinear: prod_{j>i} [g_j, g_i]^{x_j y_i - x_i y_j}."""
    if len(x) != P.ngens or len(y) != P.ngens:
        raise ElementError("element length does not match presentation")
    return _carry(P, _relation_sum(P, [x[j] * y[i] - x[i] * y[j] for j, i, _ in P.comm]))


def element_order(P: Presentation, x: Element) -> int:
    order = 1
    y = x
    while y != P.identity:
        y = pow_element(P, y, P.p)
        order *= P.p
        if order > group_order(P):
            raise ElementError("element order exceeds group order; presentation inconsistent")
    return order


def group_order(P: Presentation) -> int:
    n = 1
    for o in P.orders:
        n *= o
    return n


def is_consistent(P: Presentation) -> bool:
    """True iff the presentation is consistent: its normal forms are pairwise
    distinct elements, so |G| = prod o_i and collection is associative.

    For the shape `RelationTable.bind` enforces this is exact (Sims,
    Computation with Finitely Presented Groups, 1994, ch. 9): P is consistent
    iff every stored commutator word [g_j, g_i] = w has order dividing
    p^min(e_i, e_j), i.e. each coordinate c_t of w has c_t p^min(e_i, e_j)
    = 0 mod o_t.  Proof: let T be the relation targets and N the other
    generators.  Targets have trivial tails and appear in no commutator, so
    collection multiplies (a, x)(b, y) = (a + b + c(x, y) + beta(x, y), x + y)
    on A x Q, A = prod_{t in T} Z/o_t and Q = prod_{i in N} Z/p^{e_i}, with
    the carry term c(x, y) = sum_i floor((x_i + y_i) / o_i) tail_i and
    beta(x, y) = sum_{j > i} x_j y_i w_ji on reduced coordinates.  This is
    associative iff c + beta is a 2-cocycle of Q with values in A.  The carry
    term always is one (floor((x + y) / o) is the cocycle of Z/o^2 over
    Z/o, for any o).  If the criterion holds, beta is a well-defined
    bilinear form on Q, hence a cocycle, so P is consistent.  Conversely, in
    a consistent P every tail lies in the central subgroup A, so
    [g_j, g_i^{p^e_i}] = [g_j, tail_i] = 1, and since w is central that is
    w^{p^e_i}; likewise w^{p^e_j} = 1.  A is then the direct product of the
    cyclic groups <g_t> of order o_t, which turns w^{p^min} = 1 into the
    coordinate test.
    """
    e, p = P.order_exps, P.p
    return all(c * p**min(e[i], e[j]) % o == 0
               for j, i, word in P.comm for c, o in zip(word, P.orders))


def enumerate_elements(P: Presentation, bound: int = DEFAULT_ENUMERATION_BOUND):
    """All elements in lexicographic coordinate order."""
    if group_order(P) > bound:
        raise EnumerationBoundError(f"group order {group_order(P)} exceeds bound {bound}")
    return [tuple(c) for c in itertools.product(*(range(o) for o in P.orders))]


def is_central_element(P: Presentation, x: Element) -> bool:
    return all(commutator(P, x, P.generator(n)) == P.identity for n in P.names)


def subgroup_closure(P: Presentation, gens: list[Element]) -> set[Element]:
    """Subgroup generated by gens (finite group: closure under right products)."""
    seen = {P.identity}
    frontier = [P.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(P, x, g)
                if y not in seen:
                    if len(seen) >= DEFAULT_ENUMERATION_BOUND:
                        raise EnumerationBoundError("subgroup closure exceeded bound")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def kernel_indices(P: Presentation, kernel_names) -> tuple[int, ...]:
    """Coordinates of the kernel generators in the order named, validated so
    that dropping them is the quotient map onto G/K, K the subgroup they
    generate.

    Each name must be a generator named once, each generator central (read
    off P.comm: the commutator map is bilinear, so g_i is central iff no
    stored relation involves i), and each power tail of a kernel generator
    must stay inside the kernel coordinates; then K is exactly the elements
    supported there.
    """
    involved = {t for j, i, _ in P.comm for t in (j, i)}
    ker: list[int] = []
    for name in kernel_names:
        if name not in P.index:
            raise ElementError(f"unknown kernel generator {name!r}")
        if P.index[name] in involved:
            raise ElementError(f"kernel generator {name!r} is not central")
        if P.index[name] in ker:
            raise ElementError(f"kernel generator {name!r} given twice")
        ker.append(P.index[name])
    for i in ker:
        tail = P.power_tails[i]
        if tail is not None and any(c and t not in ker for t, c in enumerate(tail)):
            raise ElementError(f"power tail of kernel generator {P.names[i]!r} leaves the kernel")
    return tuple(ker)


def is_abelian_quotient(P: Presentation, kernel_names: list[str]) -> bool:
    """True iff every commutator word lies in the subgroup spanned by the
    kernel generators.  Reads their coordinates straight from P.index without
    the centrality and tail checks of `kernel_indices`, so a check can ask it
    about a kernel that validation rejects."""
    ker = set()
    for name in kernel_names:
        if name not in P.index:
            raise ElementError(f"unknown kernel generator {name!r}")
        ker.add(P.index[name])
    for _, _, word in P.comm:
        if any(c and i not in ker for i, c in enumerate(word)):
            return False
    return True


def quotient_by_central(P: Presentation, kernel_names: list[str]) -> tuple[Presentation, "QuotientMap"]:
    """Presentation of G/<kernel gens> obtained by dropping the kernel coordinates.

    Valid when the kernel passes `kernel_indices`: central generators (in no
    commutator relation) whose power tails stay inside the kernel.  The
    quotient's relation table is P's power tails and commutator words
    restricted to the kept coordinates, bound at P's prime.
    """
    drop = kernel_indices(P, kernel_names)
    keep = [i for i in range(P.ngens) if i not in drop]
    names = P.names

    def word(vec: Element) -> tuple[Factor, ...]:
        return tuple([(names[t], 1, vec[t], None) for t in keep if vec[t]])

    relations = [(names[i], None, word(P.power_tails[i]))
                 for i in keep if P.power_tails[i] is not None]
    relations += [(names[j], names[i], word(vec)) for j, i, vec in P.comm]
    Q = RelationTable(tuple([(names[i], P.order_exps[i]) for i in keep]),
                      tuple(relations)).bind(P.ctx)
    return Q, QuotientMap(P, Q, tuple(keep))


@dataclass(frozen=True)
class QuotientMap:
    source: Presentation
    quotient: Presentation
    keep: tuple[int, ...]

    def __call__(self, x: Element) -> Element:
        return tuple(x[i] for i in self.keep)


# ---------------------------------------------------------------------------
# bulk (vectorized) operations and the consistency sweeps.  `is_consistent`
# decides consistency exactly; the sweeps stay as the reference the tests and
# the benchmark check it and `mul` against, and no CLI path calls them.  Each
# function imports numpy in its body, so no command loads it.


# bytes of each (k, chunk) work array of associativity_random, below glibc's
# default 128 KiB mmap threshold: the arrays come from the heap and are reused
# from one call to the next instead of being mapped and faulted in on each
# call (10,240 triples a chunk in int8 at k = 6).  Chunks of half this size
# ran ~1.3x slower on a 2-vCPU x86-64 host, from per-call overhead
_SWEEP_CHUNK = 120 * 1024

# largest group cayley_table builds: its collection call holds a (k, n, n)
# array in the kernel dtype, about 3.2 MB at n = 3^6, k = 6 in int8 (72 of
# the 81 groups of order 3^6) and 6.4 MB in int16 (the other 9); 1.5 to
# 2.9 GB at order 5^6
_CAYLEY_TABLE_MAX_ORDER = 3**6


def _collect(P: Presentation, X: np.ndarray, Y: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Coordinate-major collection product of two integer arrays of shape
    (k, ...) (broadcast against each other): row i holds coordinate i of
    every element.  The product is written into out when given, an array of
    the broadcast shape in the dtype of the inputs.  On reduced inputs no
    value it computes exceeds `_collect_bound(P)`, so any dtype that holds
    the bound computes exactly."""
    import numpy as np

    Z = np.add(X, Y, out=out)
    # scratch rows: c for a product or a carry quotient, wc for a multiple of c
    c = np.empty_like(Z[0])
    wc = np.empty_like(c)

    def add_multiple(t, w):  # Z[t] += w * c
        np.add(Z[t], c if w == 1 else np.multiply(c, w, out=wc), out=Z[t])

    for j, i, word in P.comm:
        np.multiply(X[j], Y[i], out=c)
        for t, w in enumerate(word):
            if w:
                add_multiple(t, w)
    # Two fixed carry stages.  This order relies on the invariant that
    # `RelationTable.bind` enforces: power tails land only on P.central
    # generators, whose own tails are trivial.  Reducing the other generators
    # first adds only to central rows; reducing the central rows afterwards
    # carries nowhere.
    for stage_central in (False, True):
        for i, (o, tail) in enumerate(zip(P.orders, P.power_tails)):
            if P.central[i] != stage_central:
                continue
            np.floor_divide(Z[i], o, out=c)
            np.subtract(Z[i], np.multiply(c, o, out=wc), out=Z[i])
            if tail is not None:
                for t, w in enumerate(tail):
                    if w:
                        add_multiple(t, w)
    return Z


def _collect_bound(P: Presentation) -> int:
    """Largest value `_collect` reaches on reduced inputs, attained at
    x = y = (o_i - 1)_i.  Every value is non-negative, and each sum, product,
    quotient and remainder the kernel forms is at most the final pre-reduction
    value of some coordinate.  Coordinate t reaches 2(o_t - 1), plus
    w (o_j - 1)(o_i - 1) for each commutator word [g_j, g_i] = ... g_t^w ...,
    plus w q_i for each tail g_i^{o_i} = ... g_t^w ..., q_i being the largest
    carry quotient of row i, taken in the kernel's carry order."""
    bound = [2 * (o - 1) for o in P.orders]
    for j, i, word in P.comm:
        for t, w in enumerate(word):
            bound[t] += w * (P.orders[j] - 1) * (P.orders[i] - 1)
    for stage_central in (False, True):
        for i, (o, tail) in enumerate(zip(P.orders, P.power_tails)):
            if P.central[i] != stage_central or tail is None:
                continue
            q = bound[i] // o
            for t, w in enumerate(tail):
                bound[t] += w * q
    return max(bound)


def _narrowest_int(P: Presentation, bound: int, dtypes: tuple[str, ...]) -> np.dtype:
    """The first of dtypes that holds bound."""
    import numpy as np

    for dtype in dtypes:
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise EnumerationBoundError(f"group order {P.p}^{sum(P.order_exps)} = {group_order(P)}: "
                                f"sweep values up to {bound} exceed int64")


def _sweep_dtype(P: Presentation) -> np.dtype:
    """dtype of the sweeps' element indices: the narrowest of int16, int32,
    int64 that holds the indices up to |G| - 1 and the kernel's
    `_collect_bound`, so never narrower than `_kernel_dtype`.
    `associativity_random` draws its indices in it, which fixes the triples
    each seed checks."""
    return _narrowest_int(P, max(_collect_bound(P), group_order(P) - 1),
                          ("int16", "int32", "int64"))


def _kernel_dtype(P: Presentation) -> np.dtype:
    """dtype the sweeps run `_collect` in: the narrowest of int8, int16,
    int32, int64 that holds `_collect_bound(P)`."""
    return _narrowest_int(P, _collect_bound(P), ("int8", "int16", "int32", "int64"))


def _radix_weights(P: Presentation) -> np.ndarray:
    """Mixed-radix weights: element x has index sum_i x_i * weights[i]
    (lexicographic coordinate order, as in enumerate_elements)."""
    import numpy as np

    weights = np.ones(P.ngens, dtype=np.int64)
    for i in range(P.ngens - 2, -1, -1):
        weights[i] = weights[i + 1] * P.orders[i + 1]
    return weights


def _decode(P: Presentation, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Writes into out, of shape (k,) + idx.shape and any integer dtype that
    holds the orders, the coordinate-major normal forms of the elements with
    the given indices, each in [0, |G|).  idx serves as scratch: its values
    are overwritten."""
    import numpy as np

    q, qo = np.empty_like(idx), np.empty_like(idx)
    for i in range(P.ngens - 1, 0, -1):
        o = P.orders[i]
        np.floor_divide(idx, o, out=q)
        np.subtract(idx, np.multiply(q, o, out=qo), out=out[i])
        idx, q = q, idx
    out[0] = idx
    return out


def bulk_mul(P: Presentation, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise collection product of two (n, k) coordinate arrays."""
    import numpy as np

    X = np.asarray(X, dtype=np.int64)
    Y = np.asarray(Y, dtype=np.int64)
    return _collect(P, X.T, Y.T).T


def cayley_table(P: Presentation) -> np.ndarray:
    """(n, n) table of element indices (lexicographic coordinate order, as in
    enumerate_elements): T[a, b] is the index of ab, in `_sweep_dtype(P)`."""
    import numpy as np

    n = group_order(P)
    if n > _CAYLEY_TABLE_MAX_ORDER:
        raise EnumerationBoundError(
            f"group order {n} exceeds the Cayley table limit {_CAYLEY_TABLE_MAX_ORDER}")
    index = _sweep_dtype(P)
    E = _decode(P, np.arange(n, dtype=index), np.empty((P.ngens, n), dtype=_kernel_dtype(P)))
    Z = _collect(P, E[:, :, None], E[:, None, :])
    # Horner's rule, ((z_0 o_1 + z_1) o_2 + z_2) ...: after row i, T holds the
    # mixed-radix index of (z_0, ..., z_i), below o_0 ... o_i <= |G|
    T = Z[0].astype(index)
    for o, row in zip(P.orders[1:], Z[1:]):
        T *= o
        T += row
    return T


def _light_associative(T: np.ndarray, gens: np.ndarray) -> bool:
    """Light's associativity test of a finite magma table T with generators gens.

    The middle set A = {a : (xa)y = x(ay) for all x, y} is closed under the
    product: for a, b in A, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) =
    x((ab)y), using a in A, b in A, a in A, b in A in turn.  So if the
    generators lie in A, so does their right-closure R (every left-bracketed
    product of generators).  Checking a for every a in gens and in the
    complement of R therefore decides associativity exactly, for any table:
    when the generators do generate, R is everything and only they are checked.
    """
    import numpy as np

    n = T.shape[0]
    in_closure = np.zeros(n, dtype=bool)
    in_closure[gens] = True
    frontier = gens
    while frontier.size:
        step = np.unique(T[np.ix_(frontier, gens)])
        frontier = step[~in_closure[step]]
        in_closure[frontier] = True
    for a in np.union1d(gens, np.flatnonzero(~in_closure)):
        if not np.array_equal(T[T[:, a], :], T[:, T[a, :]]):
            return False
    return True


def associativity_exhaustive(P: Presentation) -> bool:
    """Check (xy)z = x(yz) for every triple of the Cayley table, by Light's
    test from the presentation generators (see `_light_associative`)."""
    # generator g_i is the element with index weights[i]
    return _light_associative(cayley_table(P), _radix_weights(P))


def associativity_random(P: Presentation, ntriples: int, seed: int = 0) -> bool:
    """Check (xy)z = x(yz) on ntriples triples of elements drawn uniformly
    (each as one uniform index in [0, |G|), drawn in `_sweep_dtype(P)` and
    decoded to its normal form in `_kernel_dtype(P)`)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, group_order(P), size=(3, ntriples), dtype=_sweep_dtype(P))
    kernel = _kernel_dtype(P)
    chunk = _SWEEP_CHUNK // (P.ngens * kernel.itemsize)
    # work arrays, allocated once: x, y, z, then xy and yz, (xy)z and x(yz)
    work = [np.empty((P.ngens, chunk), dtype=kernel) for _ in range(6)]
    for start in range(0, ntriples, chunk):
        m = min(chunk, ntriples - start)
        X, Y, Z, inner, left, right = (a[:, :m] for a in work)
        for row, E in zip(idx[:, start:start + m], (X, Y, Z)):
            _decode(P, row, E)
        _collect(P, _collect(P, X, Y, out=inner), Z, out=left)
        _collect(P, X, _collect(P, Y, Z, out=inner), out=right)
        # compared in place: a (k, chunk) temporary here took the selfcheck
        # workload past glibc's heap trim threshold, and each call then
        # faulted its pages in again
        if np.subtract(left, right, out=left).any():
            return False
    return True
