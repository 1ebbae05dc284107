import math
import random

import pytest

from jrtower import intmath
from jrtower.intmath import (
    is_prime,
    is_square,
    iroot,
    perfect_power,
    prime_sieve,
    split_two_part,
    v2,
)


def test_is_square_exact_boundaries():
    for r in range(0, 200):
        assert is_square(r * r)
        if r >= 1:
            assert not is_square(r * r + 1)
            assert not is_square(r * r - 1) or r == 1
    assert not is_square(-4)
    big = (10**40 + 7) ** 2
    assert is_square(big)
    assert not is_square(big + 1)


def test_v2_and_split_two_part():
    assert v2(1) == 0
    assert v2(2) == 1
    assert v2(48) == 4
    assert v2(3 * 2**17) == 17
    assert split_two_part(48) == (4, 3)
    assert split_two_part(7) == (0, 7)
    rng = random.Random(1002)
    for _ in range(200):
        e = rng.randrange(0, 30)
        m = 2 * rng.randrange(0, 10**6) + 1
        assert split_two_part(m << e) == (e, m)


def test_split_two_part_at_its_edges():
    assert split_two_part(1) == (0, 1)
    with pytest.raises(ValueError):
        split_two_part(0)


def test_iroot_floor_property():
    """iroot(n, k) must be the exact integer floor of the k-th root."""
    rng = random.Random(1003)
    for _ in range(200):
        k = rng.randrange(2, 8)
        n = rng.randrange(1, 10**18)
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k
    assert iroot(27, 3) == 3
    assert iroot(26, 3) == 2
    assert iroot(1, 5) == 1


def test_iroot_floor_property_up_to_2000_digits():
    """Exact floor for huge n and k up to 39: no float seed, no slow walk."""
    rng = random.Random(1005)
    for _ in range(3000):
        n = rng.randrange(1, 10 ** rng.randrange(1, 2001))
        k = rng.randrange(2, 40)
        x = iroot(n, k)
        assert x**k <= n < (x + 1) ** k, (n, k)
    # Just above a perfect cube, where a Newton seed taken below the root
    # would leave a walk up of one step at a time.
    assert iroot((10**30 + 7) ** 3 + 5, 3) == 10**30 + 7
    assert iroot((10**30 + 7) ** 3 - 1, 3) == 10**30 + 6


def test_iroot_takes_few_newton_steps_at_large_k(monkeypatch):
    """The top root keeps bits(k) more bits than half the root, so the
    seed is within 1/k and Newton is quadratic at once, where a seed
    from half the root's bits fell by a factor of only about 1 - 1/k a
    step (44 Newton steps at k = 738; 273 from a power of two at k = 503).

    Each Newton step divides n once and each bit of a small root
    compares a power with n; n is wrapped at every level of the
    recursion in an int that counts both.
    """
    steps = 0

    class Counted(int):
        def __floordiv__(self, other):
            nonlocal steps
            steps += 1
            return int(self) // other

        def __ge__(self, other):  # reflected from `x ** k <= n`
            nonlocal steps
            steps += 1
            return int(self) >= other

    plain = intmath.iroot
    monkeypatch.setattr(intmath, "iroot", lambda n, k: plain(Counted(n), k))
    n = 10**2000 + 7
    worst = 0
    for k in prime_sieve(n.bit_length()):
        steps = 0
        x = intmath.iroot(n, k)
        assert x**k <= n < (x + 1) ** k, k
        worst = max(worst, steps)
        if k == 503:
            assert x == 9465 and steps <= 20
    assert 0 < worst <= 30


def test_perfect_power_detects_maximal_exponent():
    assert perfect_power(8) == (2, 3)
    assert perfect_power(64) == (2, 6)
    assert perfect_power(36) == (6, 2)
    assert perfect_power(12) is None
    assert perfect_power(1) is None
    assert perfect_power(0) is None
    # maximal k, not just any k
    assert perfect_power(2**30) == (2, 30)
    assert perfect_power(3**12) == (3, 12)


def test_perfect_power_beyond_float_range():
    # A float estimate n ** (1.0 / k) overflows above about 1e308.
    assert perfect_power(3**700 + 2) is None
    assert perfect_power(3**700) == (3, 700)
    assert perfect_power((10**30 + 7) ** 3) == (10**30 + 7, 3)


def test_perfect_power_against_sympy():
    """Seeded b^k and b^k +- 1 against sympy's maximal-exponent answer."""
    sympy_perfect_power = pytest.importorskip("sympy").perfect_power
    rng = random.Random(1006)
    bases = [10**399 + 3]  # (10^399 + 3)^5 has 1996 digits
    exponents = [5]
    for _ in range(150):
        k = rng.randrange(2, 13)
        digits = int(10 ** rng.uniform(0, 2.7))
        bases.append(rng.randrange(2, 10 ** max(1, digits // k) + 2))
        exponents.append(k)
    for b, k in zip(bases, exponents):
        for n in (b**k - 1, b**k, b**k + 1):
            expected = sympy_perfect_power(n) if n > 1 else False
            assert perfect_power(n) == (expected or None), n


def test_is_prime_against_sieve():
    primes = set(prime_sieve(2000))
    for n in range(2, 2000):
        assert is_prime(n) == (n in primes)


def test_is_prime_known_large_values():
    assert is_prime(2**61 - 1)
    assert is_prime(2**16 + 1)
    assert not is_prime(2**32 + 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(10**18 + 9)
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_is_prime_against_sympy():
    """Seeded inputs of every size, strong pseudoprimes to many bases,
    and primes and composites on both sides of the proof bound 3.317e24
    (itself a strong pseudoprime to the 13 bases below it)."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1006)
    limit = intmath._MR_SMALL_LIMIT
    cases = [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2..23
        318665857834031151167461,  # strong pseudoprime to bases 2..37
        limit,  # strong pseudoprime to bases 2..41
        sympy.prevprime(limit),
        sympy.nextprime(limit),
    ]
    for digits in (6, 12, 18, 24, 25, 40):
        cases += [rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(100)]
    for _ in range(100):
        cases.append(limit + rng.randrange(-(10**20), 10**20))
        p = sympy.nextprime(rng.randrange(10**11, 10**13))
        q = sympy.nextprime(limit // p + rng.randrange(-(10**6), 10**6))
        cases += [p * q, p]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_prime_sieve_contents():
    assert prime_sieve(10) == (2, 3, 5, 7)
    assert prime_sieve(2) == (2,)
    assert prime_sieve(1) == ()
    assert len(prime_sieve(10**4)) == 1229


def enumerate_sieve(limit: int) -> tuple[int, ...]:
    """Eratosthenes read out flag by flag: the reference for the
    compress read-out in prime_sieve."""
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


def test_prime_sieve_matches_the_enumerate_read_out():
    sieve = prime_sieve.__wrapped__  # leave the shared cache alone
    for limit in range(2001):
        assert sieve(limit) == enumerate_sieve(limit), limit
    assert sieve(10**6) == enumerate_sieve(10**6)


def test_iroot_domain():
    assert iroot(10, 1) == 10
    with pytest.raises(ValueError):
        iroot(10, 0)
    with pytest.raises(ValueError):
        iroot(-8, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: intmath.v2(0), r"v2\(0\) is undefined"),
    (lambda: split_two_part(0), "expected a positive integer"),
], ids=["v2", "split_two_part"])
def test_intmath_refuses_inputs_outside_its_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_is_prime_is_false_below_2():
    assert [is_prime(n) for n in (-7, -1, 0, 1)] == [False] * 4
