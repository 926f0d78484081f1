"""Small exact number-theory helpers used by the group catalog and the local oracle."""

from __future__ import annotations


class ModularArithmeticError(ValueError):
    """Raised for impossible modular arithmetic (no inverse, no discrete log)."""


# Strong-pseudoprime bases: the first 12 (up to 37) are exact below
# 3.18 * 10^23, all 13 below 3.3 * 10^24 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin over fixed bases: exact for every n < 3.3 * 10^24, a
    strong probable-prime test above."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no prime factor below 43, so no proper factor at all
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mod_inverse(x: int, m: int) -> int:
    try:
        return pow(x, -1, m)
    except ValueError as exc:
        raise ModularArithmeticError(f"{x} has no inverse mod {m}") from exc


def smallest_nonresidue(p: int) -> int:
    """Least positive quadratic non-residue mod an odd prime p."""
    for x in range(2, p):
        if pow(x, (p - 1) // 2, p) == p - 1:
            return x
    raise ModularArithmeticError(f"no quadratic non-residue mod {p}")


def _prime_factors(n: int, known: tuple[int, ...] = ()) -> list[int]:
    """The distinct prime factors of n: the known primes that divide it, then
    trial division of the cofactor, which stops once the cofactor is prime."""
    out = [q for q in known if n % q == 0]
    for q in out:
        while n % q == 0:
            n //= q
    d = 2
    prime = is_prime(n)
    while not prime and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
            prime = is_prime(n)
        d += 1
    if n > 1:
        out.append(n)
    return out


def smallest_primitive_root(p: int, known: tuple[int, ...] = ()) -> int:
    """Least positive primitive root mod an odd prime p.  The primes in
    `known` are divided out of p - 1 before trial division, which then runs
    up to the square root of the cofactor only: for p = 1 + k q^N with q
    known, sqrt(k) steps instead of up to q."""
    qs = _prime_factors(p - 1, known)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ModularArithmeticError(f"no primitive root mod {p}")


def discrete_log_mod_p(base: int, target: int, p: int) -> int:
    """Smallest k >= 0 with base^k = target mod p, by exhaustive search."""
    target %= p
    if target == 0:
        raise ModularArithmeticError(f"discrete log of 0 mod {p} is undefined")
    acc = 1
    for k in range(p - 1):
        if acc == target:
            return k
        acc = acc * base % p
    raise ModularArithmeticError(f"{target} is not a power of {base} mod {p}")
