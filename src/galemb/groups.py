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

import numpy as np

from .arith import is_prime, smallest_nonresidue, smallest_primitive_root

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
    """Validated class-<=2 power-commutator presentation.

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

    # derived, filled by make_presentation
    orders: tuple[int, ...] = field(compare=False, default=())
    index: dict = field(compare=False, default_factory=dict, repr=False)

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
    power_tails = power_tails or {}
    comms = comms or {}
    names = tuple(n for n, _ in gens)
    if len(set(names)) != len(names):
        raise PresentationError("duplicate generator names")
    index = {n: i for i, n in enumerate(names)}
    exps = tuple(e for _, e in gens)
    if any(e < 1 for e in exps):
        raise PresentationError("relative order exponents must be >= 1")
    p = ctx.p
    orders = tuple(p**e for e in exps)
    k = len(names)

    def resolve(word: dict[str, int]) -> Element:
        vec = [0] * k
        for name, exp in word.items():
            if name not in index:
                raise PresentationError(f"unknown generator {name!r} in relation")
            i = index[name]
            vec[i] = (vec[i] + exp) % orders[i]
        return tuple(vec)

    tails: list[Element | None] = [None] * k
    for name, word in power_tails.items():
        vec = resolve(word)
        tails[index[name]] = vec if any(vec) else None

    comm_entries: dict[tuple[int, int], list[int]] = {}
    for (x, y), word in comms.items():
        vec = resolve(word)
        if not any(vec):
            continue
        xi, yi = index[x], index[y]
        if xi == yi:
            raise PresentationError(f"commutator [{x},{x}] must be trivial")
        if xi > yi:
            j, i, entry = xi, yi, list(vec)
        else:
            # [x, y] given with x earlier: store [g_j, g_i] = word^{-1}
            j, i = yi, xi
            entry = [(-c) % o for c, o in zip(vec, orders)]
        if (j, i) in comm_entries:
            raise PresentationError(f"duplicate commutator relation for pair {names[j]},{names[i]}")
        comm_entries[(j, i)] = entry

    support = set()
    for vec in list(tails) + [v for v in comm_entries.values()]:
        if vec is None:
            continue
        support.update(i for i, c in enumerate(vec) if c)
    central = tuple(i in support for i in range(k))
    for i in support:
        if tails[i] is not None:
            raise PresentationError(
                f"generator {names[i]!r} carries relation values but has a nontrivial power tail"
            )
        if any(j == i or ii == i for j, ii in comm_entries):
            raise PresentationError(
                f"generator {names[i]!r} carries relation values but appears in a commutator"
            )

    pres = Presentation(
        ctx=ctx,
        names=names,
        order_exps=exps,
        central=central,
        power_tails=tuple(tails),
        comm=tuple((j, i, tuple(v)) for (j, i), v in sorted(comm_entries.items())),
        orders=orders,
        index=index,
    )
    return pres


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


def generator_power(P: Presentation, i: int, n: int) -> Element:
    """Normal form of g_i^n for any integer n, in closed form:
    g_i^(q p^e_i + r) = g_i^r tail_i^q, each tail coordinate reduced mod its
    order.  Tails land only on central generators with trivial tails
    (`make_presentation` enforces it), so nothing carries further; `_carry`
    is the reference."""
    q, r = divmod(n, P.orders[i])
    tail = P.power_tails[i]
    if tail is None or not q:
        z = [0] * P.ngens
    else:
        z = [c * q % o for c, o in zip(tail, P.orders)]
    z[i] = r
    return tuple(z)


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

    For the shape `make_presentation` enforces this is exact (Sims,
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

    Valid when the kernel passes `kernel_indices`: central generators whose
    power tails stay inside the kernel; relation words keep their non-kernel
    support.
    """
    drop = kernel_indices(P, kernel_names)
    keep = [i for i in range(P.ngens) if i not in drop]

    gens = [(P.names[i], P.order_exps[i]) for i in keep]
    tails = {}
    for i in keep:
        t = P.power_tails[i]
        if t is not None:
            word = {P.names[j]: t[j] for j in keep if t[j]}
            if word:
                tails[P.names[i]] = word
    comms = {}
    for j, i, word in P.comm:
        if j in drop or i in drop:
            continue
        w = {P.names[t]: word[t] for t in keep if word[t]}
        if w:
            comms[(P.names[j], P.names[i])] = w
    Q = make_presentation(P.ctx, gens, tails, comms)
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
# the benchmark check it and `mul` against, and no CLI path calls them.


# bytes per coordinate row of a kernel call in associativity_random: 8192
# triples at int64, 32768 at int16.  The (k, chunk) temporaries stay in cache
# (whole 100,000-column int64 rows ran ~1.5x slower on a 2-vCPU x86-64 host)
_SWEEP_CHUNK = 65536

# largest group cayley_table builds: its collection call holds (k, n, n) arrays
# in the dtype `_sweep_dtype` picks, int16 for every group of order <= 3^6:
# about 6.4 MB each at n = 3^6, k = 6 (2.9 GB at an order-5^6 group, also int16)
_CAYLEY_TABLE_MAX_ORDER = 3**6


def _collect(P: Presentation, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Coordinate-major collection product of two integer arrays of shape
    (k, ...) (broadcast against each other): row i holds coordinate i of
    every element.  On reduced inputs no value it computes exceeds
    `_collect_bound(P)`, so any dtype that holds the bound computes exactly."""
    Z = X + Y
    for j, i, word in P.comm:
        c = X[j] * Y[i]
        for t, w in enumerate(word):
            if w:
                Z[t] += w * c
    # Two fixed carry stages.  This order relies on the invariant that
    # make_presentation enforces: power tails land only on P.central
    # generators, whose own tails are trivial.  Reducing the other generators
    # first adds only to central rows; reducing the central rows afterwards
    # carries nowhere.
    for stage_central in (False, True):
        for i, (o, tail) in enumerate(zip(P.orders, P.power_tails)):
            if P.central[i] != stage_central:
                continue
            q = Z[i] // o
            Z[i] -= q * o
            if tail is not None:
                for t, w in enumerate(tail):
                    if w:
                        Z[t] += w * q
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


def _sweep_dtype(P: Presentation) -> np.dtype:
    """Narrowest of int16, int32, int64 that holds every value of the sweeps:
    the kernel's `_collect_bound` and the element indices up to |G| - 1."""
    n = group_order(P)
    bound = max(_collect_bound(P), n - 1)
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise EnumerationBoundError(
        f"group order {P.p}^{sum(P.order_exps)} = {n}: sweep values up to {bound} exceed int64")


def _radix_weights(P: Presentation) -> np.ndarray:
    """Mixed-radix weights: element x has index sum_i x_i * weights[i]
    (lexicographic coordinate order, as in enumerate_elements)."""
    weights = np.ones(P.ngens, dtype=np.int64)
    for i in range(P.ngens - 2, -1, -1):
        weights[i] = weights[i + 1] * P.orders[i + 1]
    return weights


def _decode(P: Presentation, idx: np.ndarray) -> np.ndarray:
    """Coordinate-major (k, ...) normal forms of the elements with the given
    indices, each in [0, |G|), in the dtype of idx."""
    E = np.empty((P.ngens,) + idx.shape, dtype=idx.dtype)
    for i in range(P.ngens - 1, 0, -1):
        q = idx // P.orders[i]
        np.subtract(idx, q * P.orders[i], out=E[i])
        idx = q
    E[0] = idx
    return E


def bulk_mul(P: Presentation, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise collection product of two (n, k) coordinate arrays."""
    X = np.asarray(X, dtype=np.int64)
    Y = np.asarray(Y, dtype=np.int64)
    return _collect(P, X.T, Y.T).T


def cayley_table(P: Presentation) -> np.ndarray:
    """(n, n) table of element indices (lexicographic coordinate order, as in
    enumerate_elements): T[a, b] is the index of ab."""
    n = group_order(P)
    if n > _CAYLEY_TABLE_MAX_ORDER:
        raise EnumerationBoundError(
            f"group order {n} exceeds the Cayley table limit {_CAYLEY_TABLE_MAX_ORDER}")
    E = _decode(P, np.arange(n, dtype=_sweep_dtype(P)))
    return np.tensordot(_radix_weights(P), _collect(P, E[:, :, None], E[:, None, :]), axes=1)


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
    (each as one uniform index in [0, |G|), decoded to its normal form)."""
    dtype = _sweep_dtype(P)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, group_order(P), size=(3, ntriples), dtype=np.int64).astype(dtype)
    chunk = _SWEEP_CHUNK // dtype.itemsize
    for start in range(0, ntriples, chunk):
        X, Y, Z = _decode(P, idx[:, start:start + chunk]).swapaxes(0, 1)
        left = _collect(P, _collect(P, X, Y), Z)
        right = _collect(P, X, _collect(P, Y, Z))
        if not np.array_equal(left, right):
            return False
    return True
