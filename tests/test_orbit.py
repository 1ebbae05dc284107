import random
from types import SimpleNamespace

import pytest

from jrtower import orbit
from jrtower.errors import InvariantFailure, ResourceLimitError
from jrtower.intmath import is_square
from jrtower.orbit import (
    ITERATE_CAP,
    SEQUENCE_CAP,
    OrbitSequence,
    constant_terms,
    iterate_poly,
    orbit_mod_p,
    tower_params,
    tower_strict,
    valuation_profile,
)


def reference_orbit(nu: int, N: int) -> list[int]:
    """c_1 = nu, c_{k+1} = c_k^2 - nu, computed directly."""
    c = [nu]
    for _ in range(N - 1):
        c.append(c[-1] ** 2 - nu)
    return c


def test_tower_params_splits_two_part():
    p = tower_params(12)
    assert (p.two_adic_valuation, p.mu, p.is_square) == (2, 3, False)
    p = tower_params(48)
    assert (p.two_adic_valuation, p.mu) == (4, 3)
    assert tower_params(8).two_adic_valuation == 3
    assert tower_params(9).is_square
    assert tower_params(7).two_adic_valuation == 0
    with pytest.raises(ValueError):
        tower_params(1)
    with pytest.raises(ValueError):
        tower_params(0)


def test_constant_terms_against_direct_recursion():
    for nu in (2, 5, 7, 12, 48):
        seq = constant_terms(nu, 8)
        assert list(seq.c) == reference_orbit(nu, 8)
        assert all(l == c * c for c, l in zip(seq.c, seq.ell))


def test_constant_terms_known_values():
    seq = constant_terms(12, 4)
    assert seq.c == (12, 132, 17412, 303177732)
    assert seq.ell == (144, 17424, 303177744, 91916737180663824)


def test_ell_minus_nu_is_next_c():
    for nu in (5, 12):
        seq = constant_terms(nu, 11)
        for n in range(10):
            assert seq.ell[n] - nu == seq.c[n + 1]


def test_sequence_cap_enforced():
    constant_terms(12, SEQUENCE_CAP)
    with pytest.raises(ResourceLimitError):
        constant_terms(12, SEQUENCE_CAP + 1)


def test_orbit_sequence_validates_recursion():
    with pytest.raises(InvariantFailure):
        OrbitSequence(nu=12, c=(12, 133))


@pytest.mark.parametrize("nu, c, message", [
    (2, (3,), "orbit sequence seeded incorrectly"),
    (2, (2, 3), "c recursion broken at index 2"),
    (1, (1, 0), "c not positive at index 2"),
])
def test_orbit_sequence_guards_fire_on_forged_fields(nu, c, message):
    """Each check of an OrbitSequence fires on fields that break it alone;
    nu = 1 (below constant_terms' domain) keeps the recursion and
    reaches c_2 = 0."""
    with pytest.raises(InvariantFailure, match=message):
        OrbitSequence(nu, c)


@pytest.mark.parametrize("c, message", [
    ((3, 9), r"valuation pattern broken at nu=3, p=3, n=2: v_p = 2, expected 1"),
    ((3, 12), r"orbit congruence broken at nu=3, m=1, n=2"),
])
def test_valuation_profile_guards_fire_on_a_forged_orbit(c, message):
    """valuation_profile reads only nu and c: c_2 = 9 breaks v_3(c_n) = 1,
    and c_2 = 12 keeps it but breaks c_2 = c_1 = -3 (mod c_1^2)."""
    with pytest.raises(InvariantFailure, match=message):
        valuation_profile(SimpleNamespace(nu=3, c=c), 3)


def test_iterate_poly_matches_pointwise_iteration():
    """The n-th composition evaluated at t must equal iterating t**2 - nu."""
    for nu in (5, 12):
        for n in range(1, 5):
            coeffs = iterate_poly(nu, n)
            assert len(coeffs) == 2**n + 1
            for t in range(-3, 4):
                val = sum(a * t**i for i, a in enumerate(coeffs))
                x = t
                for _ in range(n):
                    x = x * x - nu
                assert val == x


def test_iterate_poly_constant_term_tracks_orbit():
    # the first composition has constant -nu; later ones hit the orbit
    for nu in (5, 12):
        seq = constant_terms(nu, 4)
        assert iterate_poly(nu, 1)[0] == -nu
        for n in range(2, 5):
            assert iterate_poly(nu, n)[0] == seq.c[n - 1]


def test_iterate_poly_known_quartic():
    assert iterate_poly(12, 2) == [132, 0, -24, 0, 1]
    assert iterate_poly(12, 1) == [-12, 0, 1]


def test_iterate_cap_enforced():
    iterate_poly(12, ITERATE_CAP)
    with pytest.raises(ResourceLimitError):
        iterate_poly(12, ITERATE_CAP + 1)


def plain_orbit_walk(nu: int, p: int) -> int | None:
    """Oracle: smallest n <= p with p | c_n, by p steps of the recursion."""
    c = nu % p
    for n in range(1, p + 1):
        if c == 0:
            return n
        c = (c * c - nu) % p
    return None


def test_orbit_mod_p_first_hit():
    assert orbit_mod_p(12, 3) == 1
    assert orbit_mod_p(12, 11) == 2
    assert orbit_mod_p(12, 13) == 4
    assert orbit_mod_p(12, 5) is None
    rng = random.Random(3001)
    from jrtower.intmath import prime_sieve

    primes = prime_sieve(60)
    for _ in range(40):
        nu = rng.randrange(2, 300)
        p = primes[rng.randrange(1, len(primes))]
        assert orbit_mod_p(nu, p) == plain_orbit_walk(nu, p)


def test_orbit_mod_p_matches_plain_walk_on_every_residue():
    """Every nu in 2..2p+1 covers each residue class mod p at least twice."""
    from jrtower.intmath import prime_sieve

    for p in prime_sieve(100) + (257,):
        for nu in range(2, 2 * p + 2):
            assert orbit_mod_p(nu, p) == plain_orbit_walk(nu, p), (nu, p)


def test_orbit_mod_p_matches_plain_walk_mod_65537():
    # Only 295 residues mod 65537 ever reach 0, so seeded nu almost all
    # miss; the fixed ones hit at n = 1, 2, 662, 631 and 608.
    rng = random.Random(3002)
    nus = [rng.randrange(2, 10**6) for _ in range(40)]
    nus += [3 * 65537, 65537 + 1, 3279, 28664, 11089]
    outcomes = set()
    for nu in nus:
        expected = plain_orbit_walk(nu, 65537)
        outcomes.add(expected)
        assert orbit_mod_p(nu, 65537) == expected, nu
    assert {None, 1, 2, 608, 631, 662} <= outcomes


def first_repeat_walk(nu: int, p: int) -> int | None:
    """Oracle: walk c_n mod p, remembering every value, until it is 0
    (return n) or repeats (None): the first repeat closes the cycle."""
    seen = set()
    c, n = nu % p, 1
    while c not in seen:
        if c == 0:
            return n
        seen.add(c)
        c = (c * c - nu) % p
        n += 1
    return None


def test_orbit_walk_matches_first_repeat_oracle():
    rng = random.Random(3003)
    for nu in (rng.randrange(2, 10**12) for _ in range(2000)):
        assert orbit_mod_p(nu, 65537) == first_repeat_walk(nu, 65537), nu
    for p in (5, 17, 257):
        for nu in range(p, 2 * p):
            assert orbit_mod_p(nu, p) == first_repeat_walk(nu, p), (nu, p)


def test_orbit_walk_step_cap(monkeypatch):
    # mod 65537 the orbit of 12 never vanishes and Brent's walk takes
    # more than 64 steps to see it return
    assert first_repeat_walk(12, 65537) is None
    monkeypatch.setattr(orbit, "ORBIT_STEP_CAP", 64)
    with pytest.raises(ResourceLimitError):
        orbit_mod_p(12, 65537)
    assert orbit_mod_p(12, 13) == 4
    assert orbit_mod_p(12, 5) is None
    monkeypatch.undo()
    # Brent's walk takes under 3p steps: no verdict reaches the cap
    assert 3 * 65537 < orbit.ORBIT_STEP_CAP


def test_valuation_profile_support_shape():
    cases = {
        (12, 3): (1, 1),
        (12, 11): (2, 1),
        (12, 2): (1, 2),
        (7, 7): (1, 1),
        (12, 13): (4, 1),
    }
    for (nu, p), (first, e) in cases.items():
        prof = valuation_profile(constant_terms(nu, 10), p)
        assert prof.first_index == first
        assert prof.e == e
        for n in range(1, 11):
            expect = e if n % first == 0 else 0
            assert prof.valuations[n - 1] == expect


def test_valuation_profile_no_support():
    prof = valuation_profile(constant_terms(12, 8), 5)
    assert prof.first_index is None
    assert prof.e == 0
    assert prof.valuations == (0,) * 8


def test_valuation_profile_matches_brute_valuations():
    for nu, p in ((12, 3), (12, 11), (7, 7), (21, 3), (45, 11)):
        c = reference_orbit(nu, 9)
        prof = valuation_profile(constant_terms(nu, 9), p)
        for n, cn in enumerate(c, start=1):
            v = 0
            while cn % p == 0:
                v += 1
                cn //= p
            assert prof.valuations[n - 1] == v


def test_tower_strict_detects_square_terms():
    assert tower_strict(constant_terms(12, 5)).strict
    assert tower_strict(constant_terms(7, 5)).strict
    s = tower_strict(constant_terms(4, 3))
    assert not s.strict
    assert s.witness == 1
    s = tower_strict(constant_terms(9, 3))
    assert not s.strict and s.witness == 1
    assert bool(tower_strict(constant_terms(12, 5))) is True
    assert bool(tower_strict(constant_terms(16, 2))) is False


def test_gap_strictness_agrees_with_the_orbit():
    """The gap lemma against the orbit itself: over nu = 2..20000,
    tower_strict on c_1..c_8 is strict iff nu is not a square, and
    otherwise names c_1 as its witness."""
    squares = 0
    for nu in range(2, 20001):
        want = tower_strict(constant_terms(nu, 8))
        gap = (False, 1) if is_square(nu) else (True, None)
        assert (want.strict, want.witness) == gap, nu
        squares += not want
    assert squares == 140  # 2^2 .. 141^2


def test_valuation_profile_pattern_and_congruence_for_random_nu_and_p():
    """Seeded random nu, with p a prime factor of a random early c_k or a
    small prime: valuations, the pattern v_p(c_n) = e exactly when
    first_index | n, and the congruence o_(q m + r) = o_r (mod c_m^2) for
    the orbit o of 0 under t^2 - nu, all computed directly."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3101)
    N = 10
    supported = 0
    for _ in range(40):
        nu = rng.randrange(2, 10**4)
        c = reference_orbit(nu, N)
        if rng.random() < 0.75:
            p = rng.choice(sympy.primefactors(c[rng.randrange(3)]))
        else:
            p = sympy.prime(rng.randint(1, 30))
        prof = valuation_profile(constant_terms(nu, N), p)
        vals = []
        for cn in c:
            v = 0
            while cn % p == 0:
                v += 1
                cn //= p
            vals.append(v)
        assert prof.valuations == tuple(vals), (nu, p)
        first = next((n for n in range(1, N + 1) if vals[n - 1]), None)
        assert prof.first_index == first, (nu, p)
        if first is None:
            assert prof.e == 0
            continue
        supported += 1
        assert prof.e == vals[first - 1] > 0
        for n in range(1, N + 1):
            assert vals[n - 1] == (prof.e if n % first == 0 else 0), (nu, p, n)
        orbit = [0]
        for _ in range(N):
            orbit.append(orbit[-1] ** 2 - nu)
        modulus = c[first - 1] ** 2
        for n in range(first + 1, N + 1):
            assert (orbit[n] - orbit[n - first]) % modulus == 0, (nu, p, n)
    assert supported >= 25


@pytest.mark.parametrize("call, message", [
    (lambda: orbit.TowerParams(1, 0, 1, True), "nu must be an integer >= 2"),
    (lambda: constant_terms(1, 3), "nu must be an integer >= 2"),
    (lambda: constant_terms(12, 0), "need at least one term"),
    (lambda: iterate_poly(1, 2), "nu must be an integer >= 2"),
    (lambda: iterate_poly(2, 0), "n must be >= 1"),
    (lambda: orbit_mod_p(7, 9), "p = 9 is not prime"),
    (lambda: valuation_profile(constant_terms(12, 3), 9), "p = 9 is not prime"),
], ids=["TowerParams", "constant_terms", "constant_terms-N", "iterate_poly-nu",
        "iterate_poly-n", "orbit_mod_p", "valuation_profile"])
def test_orbit_refuses_inputs_outside_its_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()
