import random
from functools import reduce
from itertools import combinations
from operator import xor
from types import SimpleNamespace
from math import gcd, prod

import pytest

from jrtower.errors import InvariantFailure
from jrtower.factor import EFFORT_QUICK, factorize_cached
from jrtower.intmath import is_square, split_two_part, v2
from jrtower.orbit import constant_terms, tower_params
from jrtower.squareclasses import (
    ABSENT,
    UNKNOWN,
    DEPENDENT,
    FULL_BY_RANK,
    FULL_BY_RULE,
    INDEPENDENT,
    NOT_FULL,
    PRESENT,
    contains_sqrt,
    quadratic_subfields,
    sqrt2_free_certificate,
    two_independent,
    _coprime_base,
    _echelon,
    _square_class_rows,
)


def brute_dependent(values) -> bool:
    """Any nonempty subset with a perfect-square product?"""
    n = len(values)
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            if is_square(prod(values[i] for i in combo)):
                return True
    return False


def galois_full_check(nu: int, n: int) -> str:
    """Fullness of level n by Stoll's rule, else by the rank of c_1..c_n:
    the status quadratic_subfields reports, without its lattice."""
    if nu % 4 == 0 and not is_square(nu):
        return FULL_BY_RULE
    return FULL_BY_RANK if two_independent(constant_terms(nu, n).c) else NOT_FULL


def odd_primes(value: int) -> frozenset[int]:
    """The primes to an odd power in value != 0, read off a complete
    factorization: the factoring oracle for the coprime-base rows."""
    f = factorize_cached(abs(value))
    assert f.complete, value
    return frozenset(p for p, e in f.factors.items() if e % 2 == 1)


def test_two_independent_fixed_cases():
    r = two_independent([3, 6])
    assert r.status == INDEPENDENT
    assert r.rank == 2
    r = two_independent([5, 20])
    assert r.status == DEPENDENT
    assert r.witness == (0, 1)
    assert is_square(5 * 20)
    r = two_independent([2, 3, 6])
    assert r.status == DEPENDENT
    assert r.witness == (0, 1, 2)
    r = two_independent([1])
    assert r.status == DEPENDENT
    assert r.witness == (0,)
    r = two_independent([])
    assert r.status == INDEPENDENT
    assert r.rank == 0


def test_two_independent_witness_is_a_square_product():
    rng = random.Random(6001)
    for _ in range(120):
        vals = [rng.randrange(1, 10**4) for _ in range(rng.randrange(1, 6))]
        r = two_independent(vals)
        dependent = brute_dependent(vals)
        assert (r.status == DEPENDENT) == dependent
        if r.status == DEPENDENT:
            assert r.witness
            assert is_square(prod(vals[i] for i in r.witness))
        else:
            assert r.rank == len(vals)


def test_quadratic_subfields_galois_modes():
    assert quadratic_subfields(12, 2).galois == FULL_BY_RULE
    assert quadratic_subfields(3, 2).galois == FULL_BY_RANK
    assert quadratic_subfields(5, 2).galois == NOT_FULL
    # without the lattice: the rank of c_1..c_n, and a square product
    c = constant_terms(5, 2).c
    witness = two_independent(c).witness
    assert witness == (0, 1)
    assert is_square(prod(c[i] for i in witness))
    assert two_independent(constant_terms(3, 2).c).rank == 2


def test_quadratic_subfields_depth2_nu12():
    lat = quadratic_subfields(12, 2)
    assert lat.known_kernels() == {3, 33, 11}
    assert lat.rank == 2
    assert lat.complete
    assert lat.galois == FULL_BY_RULE
    assert lat.kernels[frozenset({1})] == 3
    assert lat.kernels[frozenset({2})] == 33
    assert lat.kernels[frozenset({1, 2})] == 11


def kernel_by_trial_division(n: int) -> int:
    """Square-free kernel of n >= 1, by plain trial division."""
    kernel, d = 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            n //= d
            kernel *= d
        d += 1
    return kernel * n


def test_quadratic_subfields_match_direct_kernels():
    """Every subset kernel must equal the kernel of the literal product."""
    for nu in range(2, 41):
        for n in range(1, 4):
            lat = quadratic_subfields(nu, n)
            seq = constant_terms(nu, n)
            assert lat.complete
            for subset, kernel in lat.kernels.items():
                direct = kernel_by_trial_division(prod(seq.c[i - 1] for i in subset))
                assert kernel == direct, (nu, n, subset)
            assert len(lat.kernels) == 2**n - 1


def test_quadratic_subfields_names_what_the_factored_parts_allow():
    """At quick effort c_7 of nu = 12 keeps a partial part of its own, so
    exactly the subsets holding 7 stay unnamed; every other kernel k makes
    k * c_S a square."""
    lat = quadratic_subfields(12, 7, EFFORT_QUICK)
    c = constant_terms(12, 7).c
    assert not lat.complete
    assert len(lat.kernels) == 127
    for subset, kernel in lat.kernels.items():
        assert (kernel is None) == (7 in subset), subset
        if kernel is not None:
            assert is_square(kernel * prod(c[i - 1] for i in subset)), subset
    assert len(lat.known_kernels()) == 63


def test_quadratic_subfields_factors_only_the_coprime_parts(monkeypatch):
    """Each non-square part of the coprime base is factored once, in base
    order, and nothing else is: no whole c_n that is not itself a part."""
    import jrtower.squareclasses

    seen = []
    real = jrtower.squareclasses.factorize_cached
    monkeypatch.setattr(jrtower.squareclasses, "factorize_cached",
                        lambda n, *a: seen.append(n) or real(n, *a))
    whole_c_skipped = 0
    for nu in (2, 5, 12, 36, 45, 100, 240):
        for n in (1, 3, 5):
            seen.clear()
            parts = _square_class_rows(constant_terms(nu, n).c)[0]
            quadratic_subfields(nu, n, EFFORT_QUICK)
            assert seen == parts, (nu, n)
            whole_c_skipped += len(set(constant_terms(nu, n).c) - set(parts))
    assert whole_c_skipped > 0


def test_quadratic_subfields_builds_the_orbit_and_base_once(monkeypatch):
    """nu = 7 is odd, so Stoll's rule is silent and the galois status
    comes from the rank of the rows already built: one orbit, one base."""
    import jrtower.squareclasses

    calls = {"constant_terms": 0, "_coprime_base": 0}
    for name in calls:
        real = getattr(jrtower.squareclasses, name)

        def spy(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(jrtower.squareclasses, name, spy)
    lattice = quadratic_subfields(7, 5)
    assert calls == {"constant_terms": 1, "_coprime_base": 1}
    assert lattice.galois == FULL_BY_RANK


def test_stoll_guard_fires_on_a_forged_rank(monkeypatch):
    """Where Stoll's rule applies a rank below n breaks the theorem; where
    it does not, a low rank is the not-full label."""
    import jrtower.squareclasses

    real = jrtower.squareclasses._echelon
    monkeypatch.setattr(jrtower.squareclasses, "_echelon",
                        lambda rows: (real(rows)[0] - 1, []))
    with pytest.raises(InvariantFailure,
                       match="Stoll's rule and the rank disagree at nu = 12, n = 2"):
        quadratic_subfields(12, 2)
    assert quadratic_subfields(3, 2).galois == NOT_FULL


def test_quadratic_subfields_galois_matches_galois_full_check():
    statuses = set()
    for nu in range(2, 400):
        for n in range(1, 5):
            expected = galois_full_check(nu, n)
            assert quadratic_subfields(nu, n, EFFORT_QUICK).galois == expected, (nu, n)
            statuses.add(expected)
    assert statuses == {FULL_BY_RULE, FULL_BY_RANK, NOT_FULL}


def test_quadratic_subfields_known_lattices():
    assert quadratic_subfields(3, 2).known_kernels() == {2, 3, 6}
    assert quadratic_subfields(12, 3).known_kernels() == {
        3, 11, 33, 1451, 4353, 15961, 47883,
    }


def test_quadratic_subfields_dependent_rank():
    lat = quadratic_subfields(5, 2)
    assert lat.galois == NOT_FULL
    assert lat.rank == 1
    # the collapsed subset {1,2} has a square product, hence kernel 1
    assert lat.known_kernels() == {5, 1}
    assert lat.kernels[frozenset({1, 2})] == 1


def test_contains_sqrt_present_cases():
    m = contains_sqrt(3, 2, 2)
    assert m.status == PRESENT
    assert m.subset == frozenset({1, 2})
    m = contains_sqrt(12, 2, 33)
    assert m.status == PRESENT
    assert m.subset == frozenset({2})
    m = contains_sqrt(12, 2, 11)
    assert m.status == PRESENT
    assert m.subset == frozenset({1, 2})
    m = contains_sqrt(12, 1, 3)
    assert m.status == PRESENT
    assert m.subset == frozenset({1})
    assert m and not contains_sqrt(12, 1, 2)  # truthy exactly when present


def test_contains_sqrt_absent_needs_full_information():
    for n in range(1, 6):
        m = contains_sqrt(12, n, 2)
        assert m.status == ABSENT
        assert m.subset is None


def test_contains_sqrt_rejects_bad_d():
    """d = 1 and below are refused; a d with a square factor is answered
    (see test_contains_sqrt_answers_for_the_square_free_kernel)."""
    for d in (1, 0, -3):
        with pytest.raises(ValueError, match="d must be an integer >= 2"):
            contains_sqrt(12, 2, d)
    assert (contains_sqrt(12, 2, 4).status, contains_sqrt(12, 2, 4).subset) == (
        PRESENT, frozenset())
    assert (contains_sqrt(12, 2, 12).status, contains_sqrt(12, 2, 12).subset) == (
        PRESENT, frozenset({1}))


def test_contains_sqrt_answers_for_the_square_free_kernel():
    """Square parts of d cancel in its row: every non-square d gets the
    answer of its square-free kernel, and every square d is present with
    the empty subset, over nu = 2..60, levels 1..4 and d = 2..300."""
    squares = 0
    for nu in range(2, 61):
        for n in range(1, 5):
            answers = {}
            for d in range(2, 301):
                m = contains_sqrt(nu, n, d)
                answers[d] = (m.status, m.subset)
                if is_square(d):
                    assert answers[d] == (PRESENT, frozenset()), (nu, n, d)
                    squares += 1
                else:
                    assert answers[d] == answers[kernel_by_trial_division(d)], (nu, n, d)
    assert squares == 59 * 4 * 16


def sqrt2_cert(nu: int):
    return sqrt2_free_certificate(tower_params(nu))


def forged_params(nu: int, v: int):
    """tower_params(nu) with two_adic_valuation replaced by v: _replace
    skips the record's own 2-adic check."""
    return tower_params(nu)._replace(two_adic_valuation=v)


def test_sqrt2_free_certificate_positive_cases():
    for nu in (12, 28, 44, 48):
        cert = sqrt2_cert(nu)
        assert cert.certified, nu
        assert cert.reason is None


def test_sqrt2_free_certificate_refusals():
    cert = sqrt2_cert(8)
    assert not cert.certified  # odd 2-adic valuation
    cert = sqrt2_cert(3)
    assert not cert.certified  # 4 does not divide nu
    cert = sqrt2_cert(36)
    assert not cert.certified  # perfect square
    cert = sqrt2_cert(4)
    assert not cert.certified  # odd part is 1
    for nu in (8, 3, 36, 4):
        assert sqrt2_cert(nu).reason


def certificate_shape_nus(limit: int) -> list[int]:
    """nu <= limit with even v2(nu) >= 2, odd part >= 3, nu not a square."""
    out = []
    for nu in range(4, limit + 1):
        v, mu = split_two_part(nu)
        if v >= 2 and v % 2 == 0 and mu >= 3 and not is_square(nu):
            out.append(nu)
    return out


def test_sqrt2_certificate_agrees_with_the_lattice():
    """The lattice never lists kernel 2 where the 2-adic check certifies."""
    nus = certificate_shape_nus(300)
    assert len(nus) == 42
    for nu in nus:
        assert sqrt2_cert(nu).certified
        v = v2(nu)
        assert all(v2(c) == v for c in constant_terms(nu, 8).c), nu
        for n in range(1, 5):
            status = contains_sqrt(nu, n, 2).status
            assert status != PRESENT, (nu, n)


def test_sqrt2_residue_guard_agrees_with_the_orbit_valuations():
    """For every multiple of 4 up to 20000, every c_1..c_10 has v2(nu) as
    its 2-adic valuation, and for every even v the guard may be handed it
    raises exactly when the v2 loop over those c_n would have."""
    raised = 0
    for nu in range(4, 20001, 4):
        params = tower_params(nu)
        valuations = {v2(c) for c in constant_terms(nu, 10).c}
        assert valuations == {params.two_adic_valuation}, nu
        if params.mu < 3 or params.is_square:
            continue
        for v in range(2, 16, 2):
            loop_raises = valuations != {v}
            try:
                sqrt2_free_certificate(forged_params(nu, v))
            except InvariantFailure:
                assert loop_raises, (nu, v)
                raised += 1
            else:
                assert not loop_raises, (nu, v)
    assert raised > 20000


def test_sqrt2_certificate_guard_fires_when_the_pattern_breaks():
    """A forged two_adic_valuation passes the shape tests when it is even
    and at least 2; the residue guard then raises for every wrong value,
    as the v2 loop did at c_1. Odd and zero values are refusals."""
    for nu in certificate_shape_nus(300):
        true_v = v2(nu)
        for v in range(0, 10):
            if v == true_v:
                continue
            if v >= 2 and v % 2 == 0:
                with pytest.raises(InvariantFailure,
                                   match=rf"c_n = 2\^{v} \(mod 2\^{v + 1}\) fails at nu = {nu}, "
                                   "so kernel 2 is no longer ruled out"):
                    sqrt2_free_certificate(forged_params(nu, v))
            else:
                assert not sqrt2_free_certificate(forged_params(nu, v)).certified


def random_square_class_values(rng) -> list[int]:
    """Signed products of small primes, some with square or odd-power parts."""
    vals = []
    for _ in range(rng.randrange(1, 7)):
        if rng.random() < 0.2:
            vals.append(rng.choice((8 * 27, 45 * 20, -45 * 20, 4, -1, 72, -50)))
            continue
        v = 1
        for p in rng.sample((2, 3, 5, 7, 11, 13, 101, 65537), rng.randrange(0, 4)):
            v *= p ** rng.randrange(1, 5)
        vals.append(v * rng.choice((1, 1, -1)) * rng.choice((1, 1, 4, 9, 36)))
    return vals


def factored_first_dependency(vals):
    """First dependency in input order from the factored class vectors.

    Classes are sets of (prime | sign) marks; a subset product is a square
    when their symmetric difference is empty. Returns (witness, rank).
    """
    vecs = []
    for v in vals:
        vecs.append(odd_primes(v) | ({"sign"} if v < 0 else set()))

    def span(k):
        out = {frozenset(): ()}
        for i in range(k):
            out.update({cls ^ vecs[i]: sub + (i,) for cls, sub in list(out.items())})
        return out

    for pos in range(len(vals)):
        prefix = span(pos)
        if vecs[pos] in prefix:
            return prefix[vecs[pos]] + (pos,), None
    return None, len(vals)


def test_two_independent_matches_factoring_and_brute_force():
    rng = random.Random(7029)
    dependent_seen = 0
    for _ in range(400):
        vals = random_square_class_values(rng)
        r = two_independent(vals)
        witness, rank = factored_first_dependency(vals)
        assert (r.status == DEPENDENT) == brute_dependent(vals) == (witness is not None), vals
        assert (r.witness, r.rank) == (witness, rank), vals
        if witness is not None:
            dependent_seen += 1
            assert is_square(prod(vals[i] for i in witness))
    assert 50 < dependent_seen < 350


def test_square_class_rank_matches_distinct_factored_classes():
    rng = random.Random(7030)
    for _ in range(200):
        vals = random_square_class_values(rng)
        classes = {(frozenset(), False)}
        for v in vals:
            classes |= {(c ^ odd_primes(v), s != (v < 0)) for c, s in classes}
        rank, kernel = _echelon(_square_class_rows(vals)[1])
        assert 1 << rank == len(classes), vals
        assert rank + len(kernel) == len(vals)
        for subset in kernel:
            assert is_square(prod(v for i, v in enumerate(vals) if subset >> i & 1))


def test_coprime_base_is_pairwise_coprime_and_generates_the_values():
    rng = random.Random(7031)
    for _ in range(200):
        vals = random_square_class_values(rng)
        base = _coprime_base(vals)
        assert all(b > 1 for b in base)
        assert all(gcd(a, b) == 1 for a, b in combinations(base, 2))
        for v in vals:
            rest = abs(v)
            for b in base:
                while rest % b == 0:
                    rest //= b
            assert rest == 1, (vals, base)


def test_two_independent_rejects_zero():
    with pytest.raises(ValueError):
        two_independent([3, 0])


def test_nu7_constants_independent_through_the_sequence_cap():
    c = constant_terms(7, 12).c
    assert len(str(c[-1])) == 1662
    r = two_independent(c)
    assert r.status == INDEPENDENT
    assert r.rank == 12
    assert contains_sqrt(7, 12, 2).status == ABSENT


def refuse_to_factor(monkeypatch):
    import jrtower.factor
    import jrtower.squareclasses

    def refuse(*args):
        raise AssertionError("contains_sqrt factored")

    for module, name in ((jrtower.squareclasses, "factorize_cached"),
                         (jrtower.factor, "factorize_cached"),
                         (jrtower.factor, "_factorize_cached"),
                         (jrtower.factor, "factorize")):
        monkeypatch.setattr(module, name, refuse)


def test_contains_sqrt_factors_nothing(monkeypatch):
    """nu = 240 is decided without factoring d or any c_n; d = 12 gets
    the answer of its kernel 3."""
    refuse_to_factor(monkeypatch)
    m = contains_sqrt(240, 5, 2)
    assert m.status == ABSENT
    assert m.subset is None
    assert contains_sqrt(240, 1, 15).status == PRESENT
    assert contains_sqrt(240, 5, 2 * 3 * 5 * 7 * 10007).status == ABSENT
    assert contains_sqrt(240, 5, 12) == contains_sqrt(240, 5, 3)._replace(d=12)


def test_contains_sqrt_decides_d_beyond_any_factoring_budget(monkeypatch):
    """9pq and pq with two 13-digit primes, and a 27-digit semiprime:
    pq lies beyond the cube of the largest sieved prime and the rho
    budget of quick effort cannot split it, yet the elimination answers
    at once, 9pq with pq's answer."""
    refuse_to_factor(monkeypatch)
    p, q = 10**12 + 39, 10**12 + 61
    assert contains_sqrt(12, 2, p * q).status == ABSENT
    assert contains_sqrt(12, 2, 9 * p * q) == contains_sqrt(12, 2, p * q)._replace(d=9 * p * q)
    assert contains_sqrt(12, 2, 9 * 33 * p**2) == (
        12, 2, 9 * 33 * p**2, PRESENT, 2, frozenset({2}))
    assert contains_sqrt(12, 3, (10**13 + 37) * (10**13 + 51)).status == ABSENT


def test_sqrt2_free_certificate_factors_nothing(monkeypatch):
    import jrtower.factor

    def refuse(*args):
        raise AssertionError("sqrt2_free_certificate factored")

    monkeypatch.setattr(jrtower.factor, "factorize", refuse)
    monkeypatch.setattr(jrtower.factor, "_factorize_cached", refuse)
    for nu in (12, 180, 240, 588, 8, 36):
        sqrt2_cert(nu)


def test_contains_sqrt_matches_brute_force_subset_search():
    """Against the first subset, by size then lexicographically, with d * c_S
    a square; the d's include every factored kernel of the level."""
    non_full = 0
    for nu in range(2, 61):
        for n in range(1, 5):
            c = constant_terms(nu, n).c
            odd = [odd_primes(x) for x in c]
            ds = {2, 3, 5, 6, 7}
            for r in range(1, n + 1):
                for combo in combinations(range(n), r):
                    ds.add(prod(reduce(xor, (odd[i] for i in combo))))
            full = galois_full_check(nu, n) != NOT_FULL
            non_full += not full
            for d in ds - {1}:
                want = next(
                    (frozenset(i + 1 for i in combo)
                     for r in range(1, n + 1)
                     for combo in combinations(range(n), r)
                     if is_square(d * prod(c[i] for i in combo))),
                    None,
                )
                m = contains_sqrt(nu, n, d)
                if want is not None:
                    assert (m.status, m.subset) == (PRESENT, want), (nu, n, d)
                else:
                    assert m.status == (ABSENT if full else UNKNOWN), (nu, n, d)
    assert non_full > 20


@pytest.mark.parametrize("d_of", [lambda nu: 2, lambda nu: 4, lambda nu: nu],
                         ids=["d=2", "square-d", "d=nu"])
def test_sqrt_membership_rank_counts_the_square_subset_products(d_of):
    """c_1..c_n have 2^(n - rank) subsets with a square product, the
    empty one included, whether d's row stays (d = 2, mostly), is zero
    (d = 4) or vanishes on c_1 = nu; and the rank is n exactly when
    two_independent finds them independent."""
    dependent = 0
    for nu in range(2, 201):
        for n in range(1, 7):
            c = constant_terms(nu, n).c
            products = [1]
            for cn in c:
                products += [x * cn for x in products]
            independence = two_independent(c)
            dependent += not independence
            rank = contains_sqrt(nu, n, d_of(nu)).rank
            assert 1 << (n - rank) == sum(map(is_square, products)), (nu, n)
            assert (rank == n) == bool(independence), (nu, n)
            assert independence.rank in (None, rank), (nu, n)
    assert dependent > 0


def test_contains_sqrt_searches_the_whole_solution_coset(monkeypatch):
    """With c = (3, 5, 60), d = 15 has the solutions {1, 2} and {3}. The
    elimination meets {1, 2} first; the canonical witness is the smaller {3}.
    No tower up to nu = 3000 and depth 5 shows such a level, so the c's are
    stand-ins."""
    monkeypatch.setattr(
        "jrtower.squareclasses.constant_terms",
        lambda nu, n: SimpleNamespace(c=(3, 5, 60)[:n]),
    )
    m = contains_sqrt(3, 3, 15)
    assert (m.status, m.subset) == (PRESENT, frozenset({3}))
    assert (contains_sqrt(3, 2, 15).status, contains_sqrt(3, 2, 15).subset) == (
        PRESENT, frozenset({1, 2}))
