import random

import pytest

from jrtower import discriminant
from jrtower.discriminant import (
    RESULTANT_CAP,
    DiscriminantReport,
    _exact_quotient,
    disc_resultant_oracle,
    disc_xn,
    discriminant_report,
    norm_sequence,
    resultant,
)
from jrtower.errors import InvariantFailure, PreconditionError, ResourceLimitError
from jrtower.intmath import is_square
from jrtower.orbit import (
    SEQUENCE_CAP,
    constant_terms,
    iterate_poly,
    orbit_mod_p,
    tower_strict,
)


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    Fraction-free: every division is exact. Row swaps flip the sign.
    """
    m = [row[:] for row in matrix]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def cofactor_det(m: list[list[int]]) -> int:
    """Reference determinant by Laplace expansion (small matrices only)."""
    k = len(m)
    if k == 1:
        return m[0][0]
    total = 0
    for j in range(k):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * m[0][j] * cofactor_det(minor)
    return total


def test_bareiss_against_cofactor_expansion():
    rng = random.Random(5001)
    for _ in range(120):
        k = rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(k)]
        assert bareiss_determinant([row[:] for row in m]) == cofactor_det(m)


def test_bareiss_structured_cases():
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert bareiss_determinant(ident) == 1
    singular = [[1, 2], [2, 4]]
    assert bareiss_determinant(singular) == 0
    # leading zero forces a row swap; sign must flip exactly once
    swapped = [[0, 1], [1, 0]]
    assert bareiss_determinant(swapped) == -1


def test_disc_first_level_is_4nu():
    for nu in (5, 7, 12, 28):
        assert disc_xn(nu, 1) == 4 * nu
        assert disc_resultant_oracle(nu, 1) == 4 * nu


def test_disc_second_level_biquadratic_closed_form():
    # x^4 + p x^2 + q has discriminant 16 q (p^2 - 4q)^2
    for nu in (5, 7, 12, 28):
        p = -2 * nu
        q = nu * nu - nu
        assert disc_xn(nu, 2) == 16 * q * (p * p - 4 * q) ** 2
    assert disc_xn(12, 2) == 4866048
    assert disc_xn(5, 2) == 128000


def test_disc_recursion_equals_resultant_oracle():
    for nu in (5, 12):
        for n in range(1, RESULTANT_CAP + 1):
            assert disc_xn(nu, n) == disc_resultant_oracle(nu, n)


def test_disc_recursion_shape():
    # each level squares the previous and appends the ladder factors
    for nu in (5, 12):
        seq = constant_terms(nu, 5)
        prev = 4 * nu
        for n in range(2, 6):
            cur = disc_xn(nu, n)
            assert cur == prev * prev * 2 ** (2**n) * seq.c[n - 1]
            prev = cur


def test_disc_requires_strict_tower():
    with pytest.raises(PreconditionError, match="c_1 is a perfect square"):
        disc_xn(4, 2)
    with pytest.raises(PreconditionError, match="c_1 is a perfect square"):
        disc_xn(9, 3)
    # the depth bounds are checked before strictness
    for nu in (4, 12):
        with pytest.raises(ValueError):
            disc_xn(nu, 0)
        with pytest.raises(ResourceLimitError):
            disc_xn(nu, SEQUENCE_CAP + 1)


def old_disc_xn(nu: int, n: int) -> int:
    """The recursion as it once read, with c_2..c_n from the orbit."""
    c = constant_terms(nu, n).c
    d = 4 * nu
    for k in range(2, n + 1):
        d = d * d * 2 ** (2**k) * c[k - 1]
    return d


def test_disc_folds_the_ladder_to_the_old_recursion():
    for nu in range(2, 61):
        for n in range(1, 11):
            if is_square(nu):
                with pytest.raises(PreconditionError, match=f"nu = {nu} is not strict"):
                    disc_xn(nu, n)
            else:
                assert disc_xn(nu, n) == old_disc_xn(nu, n), (nu, n)


def test_discriminant_report_builds_one_orbit(monkeypatch):
    """Strictness comes from nu by the gap lemma, and the ladder's orbit
    gives the discriminant too: at most one constant_terms, none at n = 1."""
    import jrtower.orbit

    calls = []
    for name in ("constant_terms", "tower_strict"):
        real = getattr(jrtower.orbit, name)

        def spy(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        for module in (jrtower.orbit, discriminant):
            monkeypatch.setattr(module, name, spy, raising=False)
    for nu in (5, 12, 28):
        for n in range(1, SEQUENCE_CAP + 1):
            del calls[:]
            report = discriminant_report(nu, n)
            assert calls == ([] if n == 1 else ["constant_terms"]), (nu, n)
            assert report.disc == old_disc_xn(nu, n)


def test_resultant_cap_enforced():
    with pytest.raises(ResourceLimitError):
        disc_resultant_oracle(12, RESULTANT_CAP + 1)


def test_norm_sequence_ladder():
    seq = constant_terms(12, 4)
    assert norm_sequence(12, 0) == [48]
    for nu, n in ((1, 0), (0, 0), (1, 2), (12, -1)):
        with pytest.raises(ValueError):
            norm_sequence(nu, n)
    norms = norm_sequence(12, 3)
    assert norms[0] == 48
    for k in range(1, 4):
        assert norms[k] == 2 ** (2 ** (k + 1)) * seq.c[k]
    assert norms[1] == 2112
    assert norms[2] == 4457472


def test_discriminant_report_cross_checks():
    rep = discriminant_report(12, 3)
    assert rep.disc == disc_xn(12, 3)
    assert rep.oracle == rep.disc
    assert rep.norms == tuple(norm_sequence(12, 2))
    rep = discriminant_report(12, 5)
    assert rep.oracle is None  # beyond the resultant cap
    assert rep.disc == disc_xn(12, 5)


def test_discriminant_report_rejects_mismatch():
    with pytest.raises(Exception):
        DiscriminantReport(nu=12, n=2, disc=4866048, oracle=4866047, norms=(48,))


def test_odd_prime_divides_disc_iff_the_orbit_hits_zero_by_n():
    """For odd p, p | disc(x_n) iff p | c_k for some k <= n, that is iff
    orbit_mod_p(nu, p) is at most n: the recursion multiplies in only
    powers of 2 and the c_k."""
    from jrtower.intmath import prime_sieve

    outcomes = set()
    for nu in (2, 3, 7, 12, 48, 112):
        discs = [disc_xn(nu, n) for n in range(1, 5)]
        for p in prime_sieve(50)[1:]:
            first = orbit_mod_p(nu, p)
            for n, disc in enumerate(discs, start=1):
                hit = first is not None and first <= n
                assert (disc % p == 0) == hit, (nu, p, n)
                outcomes.add((hit, first is None))
    # hits, misses of a walk that hits later, and walks that never hit
    assert outcomes == {(True, False), (False, False), (False, True)}


# ---------------------------------------------------------------------------
# the subresultant resultant against the Sylvester matrix and sympy


def sylvester(p: list[int], q: list[int]) -> list[list[int]]:
    """Sylvester matrix of p and q (ascending coefficient lists)."""
    dp = len(p) - 1
    dq = len(q) - 1
    size = dp + dq
    p_desc = p[::-1]
    q_desc = q[::-1]
    rows = [[0] * i + p_desc + [0] * (size - dp - 1 - i) for i in range(dq)]
    rows += [[0] * i + q_desc + [0] * (size - dq - 1 - i) for i in range(dp)]
    return rows


def sylvester_resultant(p: list[int], q: list[int]) -> int:
    return bareiss_determinant(sylvester(p, q))


def random_poly(rng: random.Random, degree: int, bound: int = 9) -> list[int]:
    """Random coefficients in [-bound, bound], leading coefficient nonzero."""
    poly = [rng.randint(-bound, bound) for _ in range(degree)]
    return poly + [rng.choice([-1, 1]) * rng.randint(1, bound)]


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def spread(poly: list[int]) -> list[int]:
    """poly(x^2): every remainder of two such polynomials is even too, so
    the sequence drops by two or more degrees a step."""
    out = [0] * (2 * len(poly) - 1)
    out[::2] = poly
    return out


def resultant_cases():
    rng = random.Random(5101)
    cases = []
    for _ in range(60):  # non-monic, either degree larger
        cases.append((random_poly(rng, rng.randint(1, 8)), random_poly(rng, rng.randint(1, 8))))
    for _ in range(20):  # first step delta >= 2
        da = rng.randint(3, 9)
        cases.append((random_poly(rng, da), random_poly(rng, rng.randint(1, da - 2))))
    for _ in range(20):  # delta >= 2 at every step
        cases.append((spread(random_poly(rng, rng.randint(2, 5))),
                      spread(random_poly(rng, rng.randint(1, 4)))))
    for _ in range(20):  # a shared factor: the resultant is 0
        common = random_poly(rng, rng.randint(1, 3))
        cases.append((poly_mul(random_poly(rng, rng.randint(0, 4)), common),
                      poly_mul(random_poly(rng, rng.randint(0, 4)), common)))
    for _ in range(10):  # a constant on either side
        const = [rng.choice([-1, 1]) * rng.randint(1, 30)]
        poly = random_poly(rng, rng.randint(1, 6))
        cases += [(poly, const), (const, poly)]
    for _ in range(10):  # large coefficients
        cases.append((random_poly(rng, rng.randint(2, 6), 2**80),
                       random_poly(rng, rng.randint(1, 6), 2**80)))
    return cases


def test_resultant_matches_sylvester_bareiss():
    zeros = 0
    for a, b in resultant_cases():
        expected = sylvester_resultant(a, b)
        assert resultant(a, b) == expected, (a, b)
        zeros += expected == 0
    assert zeros >= 20  # every shared-factor case, at least


def test_resultant_matches_sympy():
    """sympy is asked with the larger degree first: sympy 1.14's resultant
    of x + 1 and x^3 is 1, where lc^3 * (x^3 at -1) = -1, so for
    deg a < deg b both odd it returns Res(b, a), the other sign."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for a, b in resultant_cases():
        swapped = len(a) < len(b)
        big, small = (b, a) if swapped else (a, b)
        expected = sympy.resultant(sympy.Poly(big[::-1], x), sympy.Poly(small[::-1], x))
        if swapped and (len(a) - 1) * (len(b) - 1) % 2:
            expected = -expected
        assert resultant(a, b) == expected, (a, b)


def test_resultant_small_cases():
    assert resultant([1, 0, 1], [0, 2]) == 4  # (2i)(-2i)
    assert resultant([-2, 0, 3], [5]) == 25
    assert resultant([5], [-2, 0, 3]) == 25
    assert resultant([3], [4]) == 1
    assert resultant([], [1, 1]) == 0
    assert resultant([1, 1, 0, 0], [0, 0]) == 0  # zero polynomial, trailing zeros
    assert resultant([-1, 1], [-1, 0, 1]) == 0  # shared root x = 1


def test_resultant_sequence_takes_multi_degree_steps(monkeypatch):
    """The even cases reach the h update with delta >= 2 after the first step."""
    steps = []
    pseudo_remainder = discriminant._pseudo_remainder

    def recording(a, b):
        steps.append(len(a) - len(b))
        return pseudo_remainder(a, b)

    monkeypatch.setattr(discriminant, "_pseudo_remainder", recording)
    late_gaps = 0
    for a, b in resultant_cases():
        steps.clear()
        assert resultant(a, b) == sylvester_resultant(a, b)
        late_gaps += any(delta >= 2 for delta in steps[1:])
    assert late_gaps >= 10


def test_exact_quotient_rejects_a_remainder():
    assert _exact_quotient(-12, 4) == -3
    assert _exact_quotient(0, -7) == 0
    with pytest.raises(InvariantFailure, match="a subresultant division leaves a remainder"):
        _exact_quotient(7, 2)
    with pytest.raises(InvariantFailure, match="a subresultant division leaves a remainder"):
        _exact_quotient(-7, 2)


def test_inexact_subresultant_division_raises(monkeypatch):
    """A pseudo-remainder off by one in its constant term no longer
    divides by g h^delta, and the oracle and the report both raise."""
    pseudo_remainder = discriminant._pseudo_remainder

    def off_by_one(a, b):
        r = pseudo_remainder(a, b)
        return [r[0] + 1] + r[1:]

    monkeypatch.setattr(discriminant, "_pseudo_remainder", off_by_one)
    for nu, n in ((12, 2), (12, 3), (5, 4)):
        with pytest.raises(InvariantFailure, match="a subresultant division leaves a remainder"):
            disc_resultant_oracle(nu, n)
    with pytest.raises(InvariantFailure):
        discriminant_report(12, 3)


def test_disc_recursion_matches_oracles_for_random_nu():
    """Recursion = subresultant oracle = Sylvester/Bareiss = sympy.discriminant,
    for seeded random nu with a strict tower."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(5102)
    nus = []
    while len(nus) < 8:
        nu = rng.randrange(2, 10**6)
        if tower_strict(constant_terms(nu, RESULTANT_CAP)):
            nus.append(nu)
    for nu in nus:
        for n in range(1, RESULTANT_CAP + 1):
            poly = iterate_poly(nu, n)
            expected = disc_xn(nu, n)
            assert disc_resultant_oracle(nu, n) == expected, (nu, n)
            assert sympy.discriminant(sympy.Poly(poly[::-1], x)) == expected, (nu, n)
            if n <= 3:
                d = len(poly) - 1
                deriv = [k * poly[k] for k in range(1, d + 1)]
                sign = -1 if d * (d - 1) // 2 % 2 else 1
                assert sign * sylvester_resultant(poly, deriv) == expected, (nu, n)
