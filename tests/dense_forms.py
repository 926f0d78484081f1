"""Dense (t+1) x (t+1) reference matrices for `NormalForm`, shared by the
test modules: a normal form keeps only its nonzero upper entries, and these
helpers convert between it and the full upper-triangular matrix N, zeros
included, that the references are written in."""

from galemb.symbols import NormalForm, SymbolBasis


def to_dense(nf: NormalForm) -> list[list[int]]:
    """N with N[u][v] the exponent of (b_u, b_v), zero below the diagonal and
    wherever nf has no entry."""
    size = nf.basis.size
    N = [[0] * size for _ in range(size)]
    for u, v, c in nf.entries:
        N[u][v] = c
    return N


def from_dense(basis: SymbolBasis, N) -> NormalForm:
    """The normal form of an upper-triangular N, its entries read mod p^n."""
    size, torsion = basis.size, basis.torsion
    assert not any(N[u][v] for u in range(size) for v in range(u + 1)), "N is not strictly upper"
    return NormalForm(basis, tuple((u, v, N[u][v] % torsion) for u in range(size)
                                   for v in range(u + 1, size) if N[u][v] % torsion))


def raised(nf: NormalForm, u: int, v: int) -> NormalForm:
    """nf with the entry at (u, v), u < v, raised by 1 mod p^n, a zero entry
    included."""
    N = to_dense(nf)
    N[u][v] += 1
    return from_dense(nf.basis, N)


def is_canonical(nf: NormalForm) -> bool:
    """The entries are sorted by (u, v), each key once, with u < v inside the
    basis and 0 < c < p^n."""
    keys = [(u, v) for u, v, _ in nf.entries]
    return keys == sorted(set(keys)) and all(
        0 <= u < v < nf.basis.size and 0 < c < nf.basis.torsion for u, v, c in nf.entries)
