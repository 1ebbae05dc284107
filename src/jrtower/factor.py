"""Deterministic budgeted integer factorization.

The factorizations feeding square-class arithmetic must be reproducible:
same input and effort always give the same result, and a blown budget
yields an explicit partial result (never a silently wrong one). Pollard
rho therefore runs with a fixed schedule of polynomial offsets and fixed
starting points instead of random ones.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, prod
from types import MappingProxyType

from .intmath import is_prime, is_square, perfect_power, prime_sieve


class Effort(namedtuple("Effort", "trial_bound rho_rounds", defaults=(10**6, 10**7))):
    """Work budget for one factorize() call.

    trial_bound (int): primes up to this bound are removed by sieved
        trial division (so a partial cofactor never has a factor this
        small).
    rho_rounds (int): total Pollard-rho iterations allowed across all
        attempts, each weighted by its modulus's limb count (see _brent_rho).
    """

    __slots__ = ()


EFFORT_QUICK = Effort(trial_bound=10**4, rho_rounds=10**5)
EFFORT_DEFAULT = Effort()
EFFORT_THOROUGH = Effort(trial_bound=10**6, rho_rounds=10**8)

EFFORT_PRESETS = {
    "quick": EFFORT_QUICK,
    "default": EFFORT_DEFAULT,
    "thorough": EFFORT_THOROUGH,
}

class Factorization(namedtuple("Factorization", "n factors cofactor", defaults=(None,))):
    """Outcome of factorize(); immutable.

    factors (Mapping[int, int]) maps prime -> exponent, as a read-only
    view of a private copy, so a caller cannot alter a cached result.
    cofactor (int | None) is None when the factorization is complete,
    otherwise the remaining composite part (guaranteed composite,
    coprime to all primes <= the trial bound).
    """

    __slots__ = ()

    def __new__(cls, n, factors, cofactor=None):
        factors = MappingProxyType(dict(factors))
        rebuilt = prod(p**e for p, e in factors.items()) * (cofactor or 1)
        if rebuilt != n:
            raise ValueError(f"inconsistent factorization of {n}")
        return tuple.__new__(cls, (n, factors, cofactor))

    def __getnewargs__(self):
        # The read-only view does not pickle; its dict does.
        return self.n, dict(self.factors), self.cofactor

    @property
    def complete(self) -> bool:
        return self.cofactor is None


# Per-bound blocks of sieve primes with precomputed products; a single
# gcd against a block product tells whether any of its primes divides n,
# which is much cheaper than dividing by each prime.
_BLOCK = 1024


@lru_cache(maxsize=4)
def _prime_blocks(bound: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    primes = prime_sieve(bound)
    blocks = []
    for i in range(0, len(primes), _BLOCK):
        chunk = primes[i : i + _BLOCK]
        blocks.append((chunk, prod(chunk)))
    return tuple(blocks)


def _trial_divide(n: int, bound: int, out: dict[int, int]) -> int:
    """Divide the sieved primes up to bound out of n, recording them in out.

    Returns 1 when n is split completely, else the rest, which has no
    prime factor up to bound. Once no prime up to p divides n and
    p * p > n, n is 1 or prime: it is recorded without a primality test.
    """
    for chunk, block_prod in _prime_blocks(bound):
        if gcd(n, block_prod) > 1:
            for p in chunk:
                if p * p > n:
                    break
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
        if chunk[-1] * chunk[-1] > n:
            break
    else:
        return n
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return 1


def _has_square_factor(n: int, effort: Effort) -> bool | None:
    """Whether p^2 divides n >= 1 for some prime p, decided
    without factoring n where the trial bound allows.

    Lemma: if no prime below p divides r > 1 and p^3 > r, then r is q,
    q^2 or q q' for primes q < q'. Proof: every prime factor of r is at
    least p, so three of them, counted with multiplicity, would give
    r >= p^3. Hence r has a square factor iff r = q^2 iff r is a
    perfect square, since neither q nor q q' is one.

    So the sieved primes up to effort.trial_bound are divided out of n
    once each, in order: the answer is True at the first p with p^2 | n,
    and at the first p with p^3 > rest it is whether rest > 1 is a
    square, the stripped primes having exponent 1 and being coprime to
    rest. A block whose largest cube is at most rest and whose product
    is coprime to rest holds neither case, and is skipped by one gcd.
    Only when the primes run out first, the rest being at least the cube
    of the largest sieved prime, is the rest, which has a square factor
    iff n has, factored by factorize_cached: any m^2 it finds answers
    True, partial or not, a complete split without one False, else None.
    """
    rest = n
    for chunk, block_prod in _prime_blocks(effort.trial_bound):
        if chunk[-1] ** 3 <= rest and gcd(rest, block_prod) == 1:
            continue
        for p in chunk:
            if p * p * p > rest:
                return rest > 1 and is_square(rest)
            if rest % p == 0:
                rest //= p
                if rest % p == 0:
                    return True
    f = factorize_cached(rest, effort)
    if any(e > 1 for e in f.factors.values()):
        return True
    return False if f.complete else None


def _brent_rho(n: int, budget: int) -> tuple[int | None, int]:
    """One deterministic Brent-rho hunt on composite odd n.

    Returns (factor or None, work spent, at most budget), each iteration
    costing n's limb count ceil(bits(n)/64). Tries polynomial offsets
    c = 1, 3, 5, ... with starting value 2, batching gcds.
    """
    weight = -(-n.bit_length() // 64)
    budget //= weight
    spent = 0
    c = 1
    while spent < budget:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1 and spent < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k, budget - spent)
                if steps <= 0:
                    break
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                spent += steps
                g = gcd(q, n)
                k += steps
            r <<= 1
        if g == n:
            # Backtrack one step at a time to split the batched gcd.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g, spent * weight
        c += 2
    return None, spent * weight


def factorize(n: int, effort: Effort = EFFORT_DEFAULT) -> Factorization:
    """Factor n >= 1 within the given effort budget.

    Deterministic: the result depends only on (n, effort). When the
    budget runs out the result is partial with a composite cofactor;
    a wrong answer is never returned.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    if n == 1:
        return Factorization(1, {})
    found: dict[int, int] = {}
    rest = _trial_divide(n, effort.trial_bound, found)
    if rest == 1:
        return Factorization(n, found)

    budget = effort.rho_rounds
    # Stack of (value, multiplicity) still to be split.
    pending: list[tuple[int, int]] = [(rest, 1)]
    leftovers: list[tuple[int, int]] = []
    while pending:
        m, mult = pending.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + mult
            continue
        pp = perfect_power(m)
        if pp is not None:
            base, k = pp
            pending.append((base, mult * k))
            continue
        if budget <= 0:
            leftovers.append((m, mult))
            continue
        factor, spent = _brent_rho(m, budget)
        budget -= spent
        if factor is None:
            leftovers.append((m, mult))
        else:
            pending.append((factor, mult))
            pending.append((m // factor, mult))

    if not leftovers:
        return Factorization(n, found)
    cofactor = prod(m**mult for m, mult in leftovers)
    return Factorization(n, found, cofactor)


@lru_cache(maxsize=4096)
def factorize_cached(n: int, effort: Effort = EFFORT_DEFAULT) -> Factorization:
    """Memoized factorize; safe because Factorization is treated as read-only."""
    return factorize(n, effort)

