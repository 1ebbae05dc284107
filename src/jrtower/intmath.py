"""Small exact integer helpers used throughout the package."""

from __future__ import annotations

import math
from itertools import compress

# Deterministic Miller-Rabin witness set, valid for n < 3.317e24.
_MR_BASES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_SMALL_LIMIT = 3317044064679887385961981
# Beyond the proven range we fall back to the first 50 primes; this is the
# usual practical-determinism compromise and is documented on is_prime.
_MR_BASES_LARGE = _MR_BASES_SMALL + (
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229,
)


def is_square(n: int) -> bool:
    """True iff n is a perfect square (n >= 0)."""
    return n >= 0 and math.isqrt(n) ** 2 == n


def v2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("v2(0) is undefined")
    return (n & -n).bit_length() - 1


def split_two_part(n: int) -> tuple[int, int]:
    """Return (v, odd) with n = 2^v * odd for n > 0."""
    if n <= 0:
        raise ValueError("expected a positive integer")
    v = v2(n)
    return v, n >> v


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n (n >= 0, k >= 1), exactly."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    bits = n.bit_length()
    if bits <= k:
        return 1
    # Seed from the top bits: with r the floor root of n >> (k*m),
    # n >> (k*m) < (r + 1)^k, so n < ((r + 1) << m)^k and the seed lies
    # above the root, by a factor 1 + 1/r. The root has exactly
    # R = ceil(bits/k) bits; taking m = (R - bits(k)) // 2 leaves r
    # with at least bits(k) + 1 bits, so r > k, the seed's relative
    # error is below 1/k and Newton is quadratic from its first step.
    # The recursion about halves the root's bits at each level, as in
    # isqrt, down to roots of at most bits(k) + 1 bits, which are found
    # one bit at a time.
    root_bits = -(-bits // k)
    m = (root_bits - k.bit_length()) // 2
    if m < 1:
        x = 0
        for b in range(root_bits - 1, -1, -1):
            if (x | 1 << b) ** k <= n:
                x |= 1 << b
        return x
    x = (iroot(n >> (k * m), k) + 1) << m
    # Integer Newton from above: each step stays at or above the floor
    # (AM-GM) and falls strictly while x^k > n, so the first
    # non-decrease is the floor.
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def perfect_power(n: int) -> tuple[int, int] | None:
    """Return (b, k) with n = b^k and k >= 2 maximal, or None.

    Only prime exponents are tried: if n = b^p for a prime p, then the
    maximal exponent of n is p times that of b, found by recursing on b.
    """
    if n < 4:
        return None
    for p in prime_sieve(n.bit_length()):
        b = iroot(n, p)
        if b ** p == n:
            inner = perfect_power(b)
            return (b, p) if inner is None else (inner[0], inner[1] * p)
    return None


def _miller_rabin(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d = n - 1
    r = v2(d)
    d >>= r
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Strong probable-prime test to fixed bases.

    Below 3.317e24 the 13 primes 2..41 make it a proof (Sorenson and
    Webster, Math. Comp. 86 (2017)). Above, as for the 50-100 digit
    cofactors of c_7, the first 50 primes give a proof only of a False:
    composites that are strong pseudoprimes to every prime base below
    307 exist (Arnault, 1995), so a True there is probable, not proved.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    bases = _MR_BASES_SMALL if n < _MR_SMALL_LIMIT else _MR_BASES_LARGE
    return all(_miller_rabin(n, b) for b in bases)


def prime_sieve(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(compress(range(limit + 1), flags))
