import random
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrtower.factor import (
    EFFORT_DEFAULT,
    EFFORT_PRESETS,
    EFFORT_QUICK,
    EFFORT_THOROUGH,
    Effort,
    Factorization,
    _has_square_factor,
    factorize,
    factorize_cached,
)
from jrtower.intmath import prime_sieve


def squarefree_kernel(n: int, effort=EFFORT_DEFAULT) -> int | None:
    """Product of the primes dividing n to an odd power, read off
    factorize_cached; None when the factorization stays partial."""
    f = factorize_cached(n, effort)
    if not f.complete:
        return None
    return prod(p for p, e in f.factors.items() if e % 2 == 1)


def brute_factor(n: int) -> dict[int, int]:
    """Reference factorization by unbounded trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_random_against_trial_division():
    rng = random.Random(2001)
    for _ in range(150):
        n = rng.randrange(2, 10**6)
        f = factorize(n, EFFORT_QUICK)
        assert f.complete
        assert f.factors == brute_factor(n)
        assert f.cofactor is None


def test_factorize_against_sympy():
    """Seeded products of primes of 1 to 9 digits, some to a power, are
    factored completely at default effort, as sympy's factorint does."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2002)
    for _ in range(200):
        n = 1
        for _ in range(rng.randrange(1, 5)):
            p = sympy.nextprime(rng.randrange(1, 10 ** rng.randrange(1, 10)))
            n *= p ** rng.choice((1, 1, 1, 2, 3))
        f = factorize(n, EFFORT_DEFAULT)
        assert f.complete, n
        assert dict(f.factors) == sympy.factorint(n), n


def test_factorize_known_values():
    f = factorize(17412)
    assert f.factors == {2: 2, 3: 1, 1451: 1}
    assert f.complete
    assert factorize(1757).factors == {7: 1, 251: 1}
    assert factorize(2).factors == {2: 1}
    assert factorize(2**20).factors == {2: 20}


def test_factorize_perfect_power_beyond_trial_bound():
    # 1000003 is prime and exceeds the quick trial bound, so the square
    # must be recognized as a perfect power first.
    p = 1000003
    f = factorize(p * p, EFFORT_QUICK)
    assert f.complete
    assert f.factors == {p: 2}


def test_factorize_rho_two_medium_primes():
    p, q = 1000003, 1000033
    f = factorize(p * q, EFFORT_DEFAULT)
    assert f.complete
    assert f.factors == {p: 1, q: 1}


def test_factorize_partial_on_hard_semiprime():
    # both factors far beyond quick effort: result must stay honest
    p = 10**15 + 37
    q = 10**15 + 91
    f = factorize(p * q, EFFORT_QUICK)
    assert not f.complete
    assert f.cofactor == p * q
    assert f.factors == {}
    assert squarefree_kernel(p * q, EFFORT_QUICK) is None


def test_factorize_partial_when_the_budget_ends_with_a_piece_pending(monkeypatch):
    """Three primes above the trial bound, with exactly the rho rounds the
    first split takes: the prime piece is recorded, and the composite
    one is left as the cofactor without a second hunt."""
    from jrtower import factor

    a, b, c = 100003, 1000003, 1100009
    n = a * b * c
    first, spent = factor._brent_rho(n, 10**7)
    assert first == a
    hunts = []
    real = factor._brent_rho

    def spy(m, budget):
        hunts.append(m)
        return real(m, budget)

    monkeypatch.setattr(factor, "_brent_rho", spy)
    f = factorize(n, Effort(trial_bound=10**3, rho_rounds=spent))
    assert (f.factors, f.cofactor) == ({a: 1}, b * c)
    assert hunts == [n]


def test_brent_rho_charges_each_iteration_by_limb_count():
    """Modulo a 606-digit n (32 limbs of 64 bits) an iteration costs 32:
    the 639 iterations that split n cost 20448, a budget of 2000 buys
    62 of them and no split, and the spend never exceeds the budget."""
    from jrtower import factor

    n = 1000003 * (10**599 + 7)
    assert factor._brent_rho(n, 10**5) == (1035949, 639 * 32)
    assert factor._brent_rho(n, 2000) == (None, 62 * 32)
    for m in (n, 1000003 * 1000033, 100003 * 1000003 * 1100009):
        for budget in (0, 1, 31, 33, 2000, 10**5):
            assert factor._brent_rho(m, budget)[1] <= budget, (m, budget)


def test_factorize_below_the_sieve_square_needs_no_primality_test(monkeypatch):
    """Below P^2, P the largest sieved prime, trial division proves
    what it leaves prime: p^2 > n once no prime below p divides n."""
    from jrtower import factor

    def forbidden(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(factor, "is_prime", forbidden)
    top = prime_sieve(EFFORT_QUICK.trial_bound)[-1]  # 9973
    rng = random.Random(2003)
    cases = [1, 2, 3, 4, top, top + 1, 10007, 10007 * 9901, 9967 * top,
             top * top - 1, top * top - 2]
    cases += [rng.randrange(2, top * top) for _ in range(200)]
    for n in cases:
        assert n < top * top
        f = factorize(n, EFFORT_QUICK)
        assert f.complete, n
        assert f.factors == brute_factor(n), n
    top = prime_sieve(EFFORT_DEFAULT.trial_bound)[-1]
    assert factorize(top * 999979, EFFORT_DEFAULT).factors == {999979: 1, top: 1}
    assert factorize(10**6 + 3, EFFORT_DEFAULT).factors == {10**6 + 3: 1}


def test_factorization_consistency_enforced():
    with pytest.raises(ValueError):
        Factorization(n=10, factors={2: 1}, cofactor=1)
    ok = Factorization(n=10, factors={2: 1, 5: 1})
    assert ok.complete
    part = Factorization(n=30, factors={2: 1}, cofactor=15)
    assert not part.complete


def test_squarefree_kernel_values():
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(45) == 5
    assert squarefree_kernel(36) == 1
    assert squarefree_kernel(132) == 33
    assert squarefree_kernel(2) == 2
    assert squarefree_kernel(1) == 1
    rng = random.Random(2002)
    for _ in range(100):
        n = rng.randrange(2, 10**5)
        f = brute_factor(n)
        expect = 1
        for prime, e in f.items():
            if e % 2:
                expect *= prime
        assert squarefree_kernel(n, EFFORT_QUICK) == expect


def test_effort_presets():
    assert EFFORT_PRESETS["quick"] is EFFORT_QUICK
    assert EFFORT_PRESETS["default"] is EFFORT_DEFAULT
    assert EFFORT_PRESETS["thorough"] is EFFORT_THOROUGH
    assert EFFORT_QUICK.trial_bound < EFFORT_DEFAULT.trial_bound
    assert EFFORT_DEFAULT.rho_rounds < EFFORT_THOROUGH.rho_rounds


def test_factorize_cached_stable():
    a = factorize_cached(303177732, EFFORT_DEFAULT)
    b = factorize_cached(303177732, EFFORT_DEFAULT)
    assert a is b
    assert a.complete
    prod = 1
    for prime, e in a.factors.items():
        prod *= prime**e
    assert prod == 303177732


def test_factorization_factors_are_read_only():
    source = {2: 2, 3: 1}
    f = Factorization(12, source)
    source[5] = 1  # the caller's dict is copied, not kept
    assert f.factors == {2: 2, 3: 1}
    cached = factorize_cached(303177732, EFFORT_DEFAULT)
    with pytest.raises(TypeError):
        cached.factors[2] = 7
    with pytest.raises(TypeError):
        del cached.factors[2]
    assert factorize_cached(303177732, EFFORT_DEFAULT).factors == factorize(303177732).factors


def test_factorize_domain_edges():
    one = factorize(1)
    assert one.complete and one.factors == {}
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


# ---------------------------------------------------------------------------
# the square-free flag by the cube-root lemma


def factorize_flag(n: int, effort) -> bool | None:
    """The flag read off a factorization: None when it stays partial."""
    f = factorize(n, effort)
    return any(e > 1 for e in f.factors.values()) if f.complete else None


def spy_cached(monkeypatch) -> list[int]:
    """Record the arguments of the fallback to factorize_cached."""
    from jrtower import factor

    calls = []
    real = factor.factorize_cached

    def spy(n, effort):
        calls.append(n)
        return real(n, effort)

    monkeypatch.setattr(factor, "factorize_cached", spy)
    return calls


@pytest.mark.parametrize("effort", [EFFORT_QUICK, EFFORT_DEFAULT])
def test_square_factor_flag_matches_factorize_on_every_odd_n(monkeypatch, effort):
    fallbacks = spy_cached(monkeypatch)
    squareful = 0
    for n in range(1, 2 * 10**5, 2):
        flag = _has_square_factor(n, effort)
        assert flag == factorize_flag(n, EFFORT_QUICK), n
        squareful += flag
    assert fallbacks == []
    assert 10**4 < squareful < 9 * 10**4


@pytest.mark.parametrize("effort", [EFFORT_QUICK, EFFORT_DEFAULT])
def test_square_factor_flag_around_the_trial_bound_and_its_cube(monkeypatch, effort):
    """Seeded p^2, p q and p^2 q, with p and q drawn below the largest
    sieved prime P, just above it, and around P^(3/2), so that the rest
    the lemma meets lies on either side of P^3. Decided cases agree with
    the construction and never reach factorize_cached; a rest of primes
    above P reaches it exactly when it exceeds P^3."""
    sympy = pytest.importorskip("sympy")
    fallbacks = spy_cached(monkeypatch)
    top = prime_sieve(effort.trial_bound)[-1]
    rng = random.Random(2004)
    half = isqrt(top**3)

    def small():
        return sympy.prevprime(rng.randrange(5, top + 1))

    def above():
        return sympy.nextprime(top + rng.randrange(top))

    def around():
        return sympy.nextprime(half + rng.randrange(-half // 100, half // 100))

    draws = (small, above, around)
    decided = reached = 0
    for _ in range(12):
        for pick_p in draws:
            for pick_q in draws:
                p, q = pick_p(), pick_q()
                while q == p:
                    q = pick_q()
                for n, truth in ((p * p, True), (p * q, False), (p * p * q, True)):
                    del fallbacks[:]
                    flag = _has_square_factor(n, effort)
                    assert flag in (truth, None), n
                    if flag is None:
                        assert factorize_flag(n, effort) is None, n
                    if n == p * q and min(p, q) > top:
                        assert (fallbacks == [n]) == (n >= top**3), n
                    elif n != p * q and p <= top:
                        assert fallbacks == [], n
                    decided += fallbacks == []
                    reached += fallbacks == [n]
    assert decided > 100 and reached > 10


def test_square_factor_flag_falls_back_beyond_the_cube(monkeypatch):
    """A rest above P^3 reaches factorize_cached, which keeps its answer:
    None for two 13-digit primes at quick effort, exact when it splits."""
    fallbacks = spy_cached(monkeypatch)
    p, q = 10**12 + 39, 10**12 + 61
    assert _has_square_factor(p * q, EFFORT_QUICK) is None
    assert not factorize(p * q, EFFORT_QUICK).complete
    assert _has_square_factor(p * p, EFFORT_QUICK) is True
    assert _has_square_factor(1000003 * 1000033, EFFORT_QUICK) is False
    assert fallbacks == [p * q, p * p, 1000003 * 1000033]
    # A square of a sieved prime answers before the rest is reached,
    # where the partial factorization has no answer.
    del fallbacks[:]
    assert _has_square_factor(9 * p * q, EFFORT_QUICK) is True
    assert not factorize(9 * p * q, EFFORT_QUICK).complete
    assert fallbacks == []


def test_square_factor_flag_is_true_on_a_square_a_partial_split_found(monkeypatch):
    """Any m > 1 with m^2 | n proves a square factor, whether or not the
    rest splits: at quick effort 10000019^2 p q factors to {10000019: 2}
    with the cofactor p q left, and the flag reads True, not None."""
    fallbacks = spy_cached(monkeypatch)
    p, q = 10**20 + 39, 10**20 + 129
    n = 10000019**2 * p * q
    f = factorize(n, EFFORT_QUICK)
    assert dict(f.factors) == {10000019: 2} and f.cofactor == p * q
    assert _has_square_factor(n, EFFORT_QUICK) is True
    assert _has_square_factor(p * q, EFFORT_QUICK) is None
    assert fallbacks == [n, p * q]

def test_square_factor_fallback_factors_the_rest(monkeypatch):
    """The fallback factors what trial division leaves, not n again: each
    sieved prime it stripped once is coprime to the rest, so n has a
    square factor iff the rest has. On seeded odd mu above 10^12 the flag
    is the one read off factorize(mu) at quick effort."""
    fallbacks = spy_cached(monkeypatch)
    p, q = 10**12 + 39, 10**12 + 61
    assert _has_square_factor(3 * 5 * 7 * p * q, EFFORT_QUICK) is None
    assert _has_square_factor(3 * 5 * 7 * p * p, EFFORT_QUICK) is True
    assert fallbacks == [p * q, p * p]
    sieved = prime_sieve(EFFORT_QUICK.trial_bound)
    rng = random.Random(3101)
    reached = 0
    for _ in range(60):
        mu = rng.randrange(10**12, 10**15) | 1
        del fallbacks[:]
        assert _has_square_factor(mu, EFFORT_QUICK) == factorize_flag(mu, EFFORT_QUICK), mu
        if fallbacks:
            assert fallbacks == [mu // prod(p for p in sieved if mu % p == 0)], mu
            reached += 1
    assert reached > 20


# Prime sizes around the quick trial bound B = 10^4 and its cube: below
# B, just above it, about B^(3/2) (so that a product of two lies on
# either side of B^3) and about B^3.
_PRIME_SIZES = ((2, 10**4), (10**4, 10**5), (5 * 10**5, 2 * 10**6), (10**11, 10**13))
# The shapes p^2 q, p q r, p^3 and p q, as indices into three drawn primes.
_SHAPES = ((0, 0, 1), (0, 1, 2), (0, 0, 0), (0, 1))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(_SHAPES),
       st.lists(st.one_of(*(st.integers(lo, hi) for lo, hi in _PRIME_SIZES)),
                min_size=3, max_size=3))
def test_square_factor_flag_on_structured_n(shape, draws):
    """n built from known primes: the quick flag is whether a prime
    repeats, or None, which the docstring allows only when trial division
    leaves a rest of at least P^3, P the largest sieved prime: no sieved
    prime repeats and the primes above P multiply to at least P^3."""
    sympy = pytest.importorskip("sympy")
    primes = [sympy.nextprime(draws[i] - 1) for i in shape]
    n = prod(primes)
    truth = len(set(primes)) < len(primes)
    flag = _has_square_factor(n, EFFORT_QUICK)
    if flag is None:
        top = prime_sieve(EFFORT_QUICK.trial_bound)[-1]
        sieved = [p for p in primes if p <= top]
        assert len(set(sieved)) == len(sieved), primes
        assert prod(p for p in primes if p > top) >= top**3, primes
    else:
        assert flag is truth, primes
