import json
import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jrtower
from jrtower import cli, verdict
from jrtower.errors import (
    CertificateFailure,
    InvariantFailure,
    PreconditionError,
    ResourceLimitError,
)
from jrtower.factor import EFFORT_DEFAULT, EFFORT_QUICK, _has_square_factor
from jrtower.orbit import (
    ITERATE_CAP,
    Strictness,
    constant_terms,
    iterate_poly,
    orbit_mod_p,
    tower_params,
    tower_strict,
)
from jrtower.residue import jacobi, residue_certificate
from jrtower.squareclasses import sqrt2_free_certificate
from jrtower.verdict import (
    COS_M_CAP,
    EXCLUDED,
    INCONCLUSIVE,
    NESTED_RADICAL_CAP,
    THEOREM_APPLIES,
    WINDOW_CAP,
    FermatObstruction,
    QuadraticSurd,
    VerdictReport,
    alpha_surd,
    constructible_order,
    cos_minpoly,
    fermat_obstruction,
    hypothesis_check,
    jr_verdict,
    nested_radical_check,
    window_elements_deg2,
)
from jrtower.verdict import (
    _cos_minpoly_pow2,
    _cos_minpoly_prime,
    _cyclotomic,
    _palindrome_to_cos,
    _radical_numeric_check,
    _radical_recurrence_check,
    _radical_symbolic_check,
)


def totient(m: int) -> int:
    """Euler phi by plain trial division."""
    out = m
    d = 2
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out -= out // m
    return out


# ---------------------------------------------------------------------------
# exact quadratic surds


def test_surd_floor_ceil_against_mpmath():
    rng = random.Random(8001)
    with mpmath.workdps(60):
        for _ in range(300):
            a = rng.randrange(-50, 51)
            b = rng.randrange(0, 20)
            D = rng.randrange(0, 500)
            q = rng.randrange(1, 12)
            s = QuadraticSurd(a, b, D, q)
            v = (a + b * mpmath.sqrt(D)) / q
            f = (a + math.isqrt(b * b * D)) // q  # a test-local floor
            assert f <= v < f + 1 or abs(v - f) < mpmath.mpf(10) ** -55
            c = s.ceil()
            assert c - 1 < v <= c or abs(v - c) < mpmath.mpf(10) ** -55
    # alpha is rational exactly when nu = k^2 + k, then alpha = k + 1.
    for nu in (2, 6, 12, 20, 56, 72, 132, 156):
        s = alpha_surd(nu)
        assert s.is_rational
        k = math.isqrt(nu)
        assert s.ceil() == k + 1 and s.compare_int(k + 1) == 0
        assert jr_verdict(nu).jr_upper.ceil() == 2 * k + 2


def test_surd_ceil_takes_one_isqrt_and_matches_compare_int(monkeypatch):
    """ceil decides rationality and the floor from one isqrt(b^2 D): b^2 D
    is a square iff b = 0 or D is. Oracle: the least k with value <= k,
    by exact comparisons."""
    roots = []
    real = verdict.isqrt

    def spy(n):
        roots.append(n)
        return real(n)

    monkeypatch.setattr(verdict, "isqrt", spy)
    for a in range(-7, 8):
        for b in range(4):
            for D in range(13):
                for q in (1, 2, 3, 5):
                    s = QuadraticSurd(a, b, D, q)
                    del roots[:]
                    c = s.ceil()
                    assert roots == [b * b * D]
                    assert s.compare_int(c) <= 0 < s.compare_int(c - 1), s


def test_rational_surd_ceil_and_str_match_fraction():
    rng = random.Random(8003)
    for _ in range(300):
        a = rng.randrange(-50, 51)
        b = rng.randrange(0, 20)
        D = rng.randrange(0, 30) ** 2
        q = rng.randrange(1, 12)
        s = QuadraticSurd(a, b, D, q)
        value = Fraction(a + b * math.isqrt(D), q)
        assert s.ceil() == math.ceil(value)
        assert str(s) == str(value)
    assert str(alpha_surd(12)) == "4"
    assert str(QuadraticSurd(3, 0, 5, 2)) == "3/2"
    assert str(QuadraticSurd(-3, 0, 5, 6)) == "-1/2"
    assert str(QuadraticSurd(-4, 1, 16, 5)) == "0"


def test_surd_compare_int_exact():
    rng = random.Random(8002)
    for _ in range(300):
        a = rng.randrange(-30, 31)
        b = rng.randrange(0, 12)
        D = rng.randrange(0, 200)
        q = rng.randrange(1, 8)
        k = rng.randrange(-20, 21)
        s = QuadraticSurd(a, b, D, q)
        cmp = s.compare_int(k)
        lhs = k * q - a  # s >= k iff b*sqrt(D) >= lhs
        if cmp == 0:
            assert lhs >= 0 and b * b * D == lhs * lhs
        elif cmp > 0:
            assert lhs < 0 or b * b * D > lhs * lhs
        else:
            assert lhs > 0 and b * b * D < lhs * lhs


def test_surd_orders_only_as_a_tuple():
    """A surd is a tuple, so no order operator against an int is numeric:
    each raises TypeError, and compare_int is the numeric comparison."""
    s = QuadraticSurd(1, 1, 49, 2)  # (1 + 7) / 2 = 4
    for compare in (operator.ge, operator.gt, operator.le, operator.lt):
        with pytest.raises(TypeError):
            compare(s, 4)
    assert s.compare_int(4) == 0


def test_surd_rational_detection():
    s = QuadraticSurd(3, 0, 5, 2)
    assert s.is_rational
    assert s.ceil() == 2 and str(s) == "3/2"
    s = QuadraticSurd(1, 1, 49, 2)  # (1 + 7) / 2
    assert s.is_rational
    assert s.ceil() == 4 and s.compare_int(4) == 0
    s = QuadraticSurd(1, 1, 48, 2)
    assert not s.is_rational


def test_surd_decimal_truncates():
    s = QuadraticSurd(0, 1, 2, 1)
    assert s.decimal(6) == "1.414213"  # truncated, not rounded (1.4142135...)
    assert QuadraticSurd(8, 0, 0, 1).decimal(6) == "8.000000"
    assert QuadraticSurd(-1, 0, 0, 2).decimal(2) == "-0.50"
    # -1.5857864376269...: the sign, then the truncated magnitude
    assert QuadraticSurd(-3, 1, 2).decimal() == "-1.585786437626"


def test_surd_decimal_with_no_fractional_digits():
    """digits = 0 renders the truncated integer with no point."""
    assert QuadraticSurd(0, 1, 2).decimal(0) == "1"
    assert QuadraticSurd(5, 0, 0).decimal(0) == "5"
    assert QuadraticSurd(1, 1, 49, 2).decimal(0) == "4"
    assert QuadraticSurd(-3, 1, 2).decimal(0) == "-1"
    # the sign is the value's, as at every other digit count ("-0.50")
    assert QuadraticSurd(-1, 0, 0, 2).decimal(0) == "-0"


def test_surd_decimal_rejects_negative_digits():
    for digits in (-1, -12):
        with pytest.raises(ValueError):
            QuadraticSurd(0, 1, 2).decimal(digits)


def truncated_decimal(a: int, b: int, D: int, q: int, k: int) -> str:
    """Exact oracle for v = (a + b sqrt(D)) / q: its sign, then the largest
    m >= 0 with m q <= |A + sqrt(n)|, where A = a 10^k and n = b^2 D 100^k,
    found by bisection on integer comparisons of squares."""
    A, n = a * 10**k, b * b * D * 100**k
    negative = A < 0 and A * A > n

    def at_most(m: int) -> bool:
        if negative:  # m q <= -A - sqrt(n)
            r = -A - m * q
            return r >= 0 and r * r >= n
        r = m * q - A  # m q <= A + sqrt(n)
        return r <= 0 or r * r <= n

    lo, hi = 0, 1
    while at_most(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if at_most(mid) else (lo, mid)
    whole, frac = divmod(lo, 10**k)
    point = f".{str(frac).zfill(k)}" if k else ""
    return f"{'-' if negative else ''}{whole}{point}"


def test_surd_decimal_matches_an_exact_oracle():
    """Seeded mixed-sign sweep: rational and irrational surds, with a
    near -b sqrt(D) so that values close to 0 from either side occur."""
    rng = random.Random(8117)
    for trial in range(3000):
        b = rng.randint(0, 300)
        D = rng.choice([0, 1, 4, 49, 2, 3, 5, 7, 48, 449]) if trial % 3 else rng.randint(0, 10**4)
        q = rng.randint(1, 60)
        k = rng.randint(0, 15)
        root = math.isqrt(b * b * D)
        a = rng.choice([-root - 1, -root, -root + 1, rng.randint(-2 * root - 9, 2 * root + 9)])
        got = QuadraticSurd(a, b, D, q).decimal(k)
        assert got == truncated_decimal(a, b, D, q, k), (a, b, D, q, k)


def test_alpha_and_upper_bound_surds():
    a = alpha_surd(12)
    assert (a.a, a.b, a.D, a.q) == (1, 1, 49, 2)
    assert a.compare_int(4) == 0
    u = jr_verdict(12).jr_upper
    assert u.compare_int(8) == 0
    a = alpha_surd(112)
    assert a.ceil() == 12 and a.compare_int(11) == 1
    u = jr_verdict(112).jr_upper
    assert u.decimal(6) == "23.094810"
    with mpmath.workdps(40):
        expect = (25 + mpmath.sqrt(449)) / 2
        assert abs(mpmath.mpf(u.decimal(10)) - expect) < mpmath.mpf(10) ** -9


@st.composite
def _big_surds(draw):
    """(a, b, D, q) of 50-500 digits each: irrational, rational (b = 0 or
    D a square), or within 2/q of an integer k, exactly k among them,
    with a of either sign."""
    big = st.integers(50, 500).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1))
    b, D, q = draw(big), draw(big), draw(big)
    a = draw(big) * draw(st.sampled_from((1, -1)))
    shape = draw(st.sampled_from(("irrational", "b = 0", "square D", "near k")))
    if shape == "b = 0":
        b = 0
    elif shape == "square D":
        D = D * D
    elif shape == "near k":
        # D = s^2 + t is a square only at t = 0, and a = k q - isqrt(b^2 D)
        # + delta puts the value at k + (delta + a fraction in [0, 1)) / q,
        # the fraction 0 iff D is a square.
        D = D * D + draw(st.integers(0, 3))
        k = draw(st.integers(-2, 2) | big | big.map(operator.neg))
        a = k * q - math.isqrt(b * b * D) + draw(st.integers(-1, 1))
    return a, b, D, q


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_big_surds(), st.integers(0, 30), st.integers(-1, 1))
def test_big_surds_agree_with_mpmath(surd, k, offset):
    """ceil, decimal and compare_int at 50-500 digits against mpmath. The
    value v = (a + sqrt(n)) / q, n = b^2 D, is a multiple of 1/q when n
    is a square and otherwise lies at least 1 / (q (2 isqrt(n) + 3))
    from every integer, so mpmath at digits(a) + digits(n) + 40 decimal
    digits, and 3k more for decimal(k), which scales a by 10^k and n by
    100^k, decides each answer exactly."""
    a, b, D, q = surd
    s = QuadraticSurd(a, b, D, q)
    n = b * b * D
    with mpmath.workdps(len(str(abs(a))) + 3 * k + len(str(n)) + 40):
        v = (a + b * mpmath.sqrt(D)) / q
        c = int(mpmath.ceil(v))
        assert s.ceil() == c
        for target in (c - 1 + offset, c + offset):
            sign = (v > target) - (v < target)
            assert s.compare_int(target) == sign, target
        whole, frac = divmod(int(mpmath.floor(abs(v) * 10**k)), 10**k)
        point = f".{str(frac).zfill(k)}" if k else ""
        assert s.decimal(k) == f"{'-' if v < 0 else ''}{whole}{point}"


# ---------------------------------------------------------------------------
# constructibility and cosine minimal polynomials


def test_constructible_iff_totient_is_power_of_two():
    for m in range(3, 201):
        dec = constructible_order(m)
        phi = totient(m)
        assert dec.constructible == (phi & (phi - 1) == 0)


def test_constructible_decomposition_shape():
    dec = constructible_order(60)
    assert dec.constructible
    assert dec.two_exponent == 2
    assert dec.odd_primes == ((3, 1), (5, 1))
    dec = constructible_order(9)
    assert not dec.constructible
    dec = constructible_order(17)
    assert dec.constructible and dec.odd_primes == ((17, 1),)


def test_constructible_order_guard_fires_when_rule_and_phi_disagree(monkeypatch):
    """A Fermat-prime list that lost 17 calls the 17-gon not constructible,
    while phi(17) = 16 is a power of two."""
    monkeypatch.setattr(verdict, "known_fermat_primes", lambda: (3, 5, 257, 65537))
    assert constructible_order(15).constructible  # 3 and 5 still agree
    with pytest.raises(InvariantFailure, match="constructibility rule and phi disagree"):
        constructible_order(17)


def test_cos_lists_the_components_of_a_constructible_m(capsys):
    """[2^a] when a >= 2, then the Fermat primes; none when m is not
    constructible."""

    def components(m):
        assert cli.main(["cos", str(m), "--json"]) == 0
        return json.loads(capsys.readouterr().out)["result"].get("components")

    assert components(60) == ["4", "3", "5"]
    assert components(17) == ["17"]
    assert components(48) == ["16", "3"]
    assert components(8) == ["8"]
    assert components(3) == ["3"]
    assert components(6) == ["3"]
    assert components(7) is None
    assert components(9) is None


def test_cos_minpoly_known_values():
    assert cos_minpoly(5) == [-1, 1, 1]
    assert cos_minpoly(7) == [-1, -2, 1, 1]
    assert cos_minpoly(8) == [-2, 0, 1]
    assert cos_minpoly(9) == [1, -3, 0, 1]
    assert cos_minpoly(12) == [-3, 0, 1]
    assert cos_minpoly(16) == [2, 0, -4, 0, 1]


def test_cos_minpoly_annihilates_the_cosine():
    with mpmath.workdps(50):
        for m in range(3, 61):
            poly = cos_minpoly(m)
            assert poly[-1] == 1  # monic
            x = 2 * mpmath.cos(2 * mpmath.pi / m)
            acc = mpmath.mpf(0)
            for coeff in reversed(poly):
                acc = acc * x + coeff
            assert abs(acc) < mpmath.mpf(10) ** -35, m


def test_cos_minpoly_degree_is_half_totient():
    for m in range(3, 201):
        assert len(cos_minpoly(m)) - 1 == totient(m) // 2


def test_cos_minpoly_domain():
    with pytest.raises(ValueError):
        cos_minpoly(2)
    with pytest.raises(ResourceLimitError):
        cos_minpoly(201)


def test_nested_radical_full_domain():
    for d in range(2, NESTED_RADICAL_CAP + 1):
        assert nested_radical_check(d)
    with pytest.raises(ValueError):
        nested_radical_check(1)
    with pytest.raises(ResourceLimitError):
        nested_radical_check(NESTED_RADICAL_CAP + 1)


def test_cos_minpoly_pow2_closed_form_matches_chebyshev_route():
    """Three routes: the closed form, the packed Chebyshev change of
    x^(2^(e-1)) + 1, and (for e >= 3) the iterate P_(e-2) of t^2 - 2,
    since 2cos(2 pi/2^e) = s_(e-2), the (e-2)-times nested radical."""
    for e in range(2, 14):
        half_deg = 2 ** (e - 1)
        phi = [1] + [0] * (half_deg - 1) + [1]  # x^(2^(e-1)) + 1
        assert _cos_minpoly_pow2(e) == _palindrome_to_cos(phi), e
        if 3 <= e <= ITERATE_CAP + 2:
            assert _cos_minpoly_pow2(e) == iterate_poly(2, e - 2), e


def chebyshev_basis_change(coeffs: list[int]) -> list[int]:
    """a_0 + sum_k a_k V_k(y) coefficient by coefficient, O(h^2): the oracle
    for the packed basis change in _palindrome_to_cos."""
    half = (len(coeffs) - 1) // 2
    out = [0] * (half + 1)
    out[0] = coeffs[half]
    v_prev, v_cur = [2], [0, 1]  # V_0, V_1
    for k in range(1, half + 1):
        if k > 1:
            nxt = [0] + v_cur
            for i, c in enumerate(v_prev):
                nxt[i] -= c
            v_prev, v_cur = v_cur, nxt
        for i, c in enumerate(v_cur):
            out[i] += coeffs[half + k] * c
    return out


def test_packed_basis_change_matches_the_recurrence():
    for m in range(3, 201):
        phi = _cyclotomic(m)
        assert _palindrome_to_cos(phi) == chebyshev_basis_change(phi), m
    for e in range(2, 14):
        phi = [1] + [0] * (2 ** (e - 1) - 1) + [1]  # x^(2^(e-1)) + 1
        assert _palindrome_to_cos(phi) == chebyshev_basis_change(phi), e
    assert _palindrome_to_cos([1]) == [1]


def prime_orders(limit: int) -> list[tuple[int, int]]:
    """(m, p) for every m = p and m = 2p up to limit, p an odd prime."""
    primes = [p for p in range(3, limit + 1, 2) if totient(p) == p - 1]
    return [(k * p, p) for p in primes for k in (1, 2) if k * p <= limit]


def test_closed_form_matches_the_fourth_kind_recurrence():
    """Psi_p is W_h, h = (p - 1)/2, with W_0 = 1, W_1 = y + 1 and
    W_(j+1) = y W_j - W_(j-1); Psi_2p(y) = (-1)^h W_h(-y). The formula
    and its check at y = 2 hold for every odd p = 2h + 1, prime or not,
    so this runs h = 1..200."""
    w_prev, w = [1], [1, 1]
    for h in range(1, 201):
        p = 2 * h + 1
        assert _cos_minpoly_prime(p, p) == w, h
        assert _cos_minpoly_prime(2 * p, p) == [(-1) ** (h + i) * c for i, c in enumerate(w)], h
        nxt = [0] + w
        for i, c in enumerate(w_prev):
            nxt[i] -= c
        w_prev, w = w, nxt


def test_closed_form_matches_the_cyclotomic_route():
    """Every m = p or 2p up to COS_M_CAP: the closed form equals the
    O(h^2) basis change of Phi_m, and cos_minpoly returns it."""
    pairs = prime_orders(COS_M_CAP)
    assert len(pairs) == 69
    for m, p in pairs:
        expected = chebyshev_basis_change(_cyclotomic(m))
        assert _cos_minpoly_prime(m, p) == expected, m
        assert cos_minpoly(m) == expected, m


def test_cos_minpoly_matches_sympy_minimal_polynomial():
    """sympy's minimal_polynomial of 2cos(2 pi/m), on both routes: the
    p and 2p of the closed form and a sample of the other m up to 60."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    general = [4, 8, 9, 12, 15, 16, 20, 21, 24, 25, 27, 28, 30, 36, 45, 48, 49, 60]
    for m in [m for m, _ in prime_orders(60)] + general:
        expected = sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / m), x)
        assert cos_minpoly(m) == sympy.Poly(expected, x).all_coeffs()[::-1], m


def test_packed_basis_change_on_random_palindromes():
    """Monic palindromes with signed coefficients up to 2^200, some with
    every coefficient at the bound's size; a non-monic one still raises."""
    rng = random.Random(8101)
    for trial in range(120):
        half = rng.randint(1, 40)
        bits = rng.choice([1, 8, 64, 200])
        inner = [rng.randint(-(2**bits), 2**bits) for _ in range(half)]
        if trial % 4 == 0:
            inner = [rng.choice([-1, 1]) * 2**bits for _ in range(half)]
        coeffs = [1] + inner[1:] + inner[:1] + inner[1:][::-1] + [1]
        assert coeffs == coeffs[::-1]
        assert _palindrome_to_cos(coeffs) == chebyshev_basis_change(coeffs)
        coeffs[0] = coeffs[-1] = 3
        with pytest.raises(InvariantFailure, match="cosine polynomial is not monic"):
            _palindrome_to_cos(coeffs)


def test_slot_width_is_the_least_width_unpack_takes():
    """8, 16, 32 or 64 bits, read by one struct call, or past 64 bits a
    multiple of 8: the least of these that holds the bits asked for."""
    widths = [8, 16, 32, 64] + list(range(72, 512, 8))
    for bits in range(1, 500):
        assert verdict._slot_width(bits) == min(w for w in widths if w >= bits), bits


def test_packed_basis_change_overflow_guard_fires(monkeypatch):
    """Slots of 8 bits cannot hold a 2^200 coefficient: the biased total
    runs past (half + 1) * W bits, or below zero for a negative one."""
    monkeypatch.setattr(verdict, "_slot_bits", lambda half, weight: 8)
    for middle in (2**200, -(2**200)):
        with pytest.raises(InvariantFailure,
                           match="cosine coefficients overflow their Kronecker slots"):
            _palindrome_to_cos([1, middle, 1])


def conjugate_weight(poly: list[int], d: int) -> Fraction:
    """W' = sum_j |c_j| rho^j with rho = 2^(3-d), the bound on |poly| over
    [-rho, rho], exactly."""
    rho = Fraction(2) ** (3 - d)
    return sum(abs(c) * rho**j for j, c in enumerate(poly))


def proof_bits(poly: list[int], d: int) -> int:
    """needed = B + 2 bits(len(poly)) + 2d + 160, B the largest of 0 and
    bits(c_j) + (3 - d) j over the nonzero c_j."""
    top = max([0] + [abs(c).bit_length() + (3 - d) * j for j, c in enumerate(poly) if c])
    return top + 2 * len(poly).bit_length() + 2 * d + 160


def conjugate_point(d: int) -> mpmath.mpf:
    """s' = sqrt(2 - s_(d-2)) at mpmath's working precision."""
    s = mpmath.mpf(0)
    for _ in range(d - 2):
        s = mpmath.sqrt(2 + s)
    return mpmath.sqrt(2 - s)


def test_radical_numeric_check_runs_at_its_proof_precision(monkeypatch):
    """One fixed-point pass at exactly `needed` bits, 4d + 163 for the
    cosine polynomials and so under 256 at d = 12, accepting d = 2..12,
    rejecting a +-1 change to the constant term and to an odd
    coefficient, and rejecting both neighbouring depths' polynomials;
    mpmath at the same precision, at s', agrees with the value.
    """
    used = []
    value = verdict._radical_value

    def recording(poly, d, prec):
        used.append(prec)
        return value(poly, d, prec)

    monkeypatch.setattr(verdict, "_radical_value", recording)
    for d in range(2, NESTED_RADICAL_CAP + 1):
        poly = _cos_minpoly_pow2(d + 1)
        used.clear()
        assert _radical_numeric_check(poly, d)
        assert used == [proof_bits(poly, d)] == [4 * d + 163], (d, used)
        if d == NESTED_RADICAL_CAP:
            assert used[0] < 256, used
        wrong = [_cos_minpoly_pow2(d), _cos_minpoly_pow2(d + 2)]
        for i in (0, 1):
            for delta in (1, -1):
                changed = poly[:]
                changed[i] += delta
                wrong.append(changed)
        for other in wrong:
            used.clear()
            assert not _radical_numeric_check(other, d), (d, other)
            assert used == [proof_bits(other, d)], (d, used)
        for candidate in [poly] + wrong:
            prec = proof_bits(candidate, d)
            with mpmath.workprec(prec):
                exact = mpmath.polyval(candidate[::-1], conjugate_point(d))
                fixed = mpmath.mpf(value(candidate, d, prec)) / 2**prec
                assert abs(fixed - exact) < mpmath.mpf(2) ** -130, (d, candidate)


def test_radical_value_stays_within_its_error_bound():
    """|value - 2^P poly(s')| <= 4^(d-1) * len(poly) * (W' + 1) ulp, the
    bound in _radical_value's docstring, for the V_h of d = 2..12 and for
    random integer polynomials (degree <= 64, |c| < 2^200, some sparse,
    some with zero odd part or zero top coefficients); the reference is
    mpmath at 2P bits."""
    rng = random.Random(1501)
    cases = [(_cos_minpoly_pow2(d + 1), d) for d in range(2, NESTED_RADICAL_CAP + 1)]
    for trial in range(50):
        bits = rng.choice([1, 16, 64, 199])
        poly = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 65))]
        if trial % 5 == 1:
            poly[1::2] = [0] * len(poly[1::2])
        elif trial % 5 == 2:
            poly = [c if rng.random() < 0.2 else 0 for c in poly]
        elif trial % 5 == 3:
            poly += [0] * rng.randint(1, 8)
        cases.append((poly, rng.randint(2, NESTED_RADICAL_CAP)))
    for poly, d in cases:
        prec = proof_bits(poly, d)
        bound = 4 ** (d - 1) * len(poly) * (conjugate_weight(poly, d) + 1)
        with mpmath.workprec(2 * prec):
            exact = mpmath.polyval(poly[::-1], conjugate_point(d)) * mpmath.mpf(2) ** prec
            error = abs(verdict._radical_value(poly, d, prec) - exact)
            assert error <= mpmath.mpf(bound.numerator) / bound.denominator, (d, poly)


def is_eisenstein_at_2(poly: list[int]) -> bool:
    return poly[-1] % 2 == 1 and all(c % 2 == 0 for c in poly[:-1]) and poly[0] % 4 == 2


def test_the_conjugate_nearest_0_is_a_root_of_the_same_eisenstein_polynomial():
    """The lemma _radical_numeric_check stands on, for d = 2..12: the
    cosine polynomial (and P_(d-1) = iterate_poly(2, d - 1) for d <= 7) is
    Eisenstein at 2, so irreducible, and sqrt(2 - s_(d-2)) is its root
    nearest 0, below rho = 2^(3-d). The roots come from mpmath at 4 times
    the working precision as +-sqrt(2 + y) over the roots y of
    P_(d-2), starting from P_0 = x; their product at x = 10 matches
    the polynomial's value there."""
    for d in range(2, NESTED_RADICAL_CAP + 1):
        poly = _cos_minpoly_pow2(d + 1)
        assert is_eisenstein_at_2(poly), d
        if d <= ITERATE_CAP + 1:
            assert is_eisenstein_at_2(iterate_poly(2, d - 1)), d
        with mpmath.workprec(4 * proof_bits(poly, d)):
            roots = [mpmath.mpf(0)]
            for _ in range(d - 1):
                roots = [sign * mpmath.sqrt(2 + y) for y in roots for sign in (1, -1)]
            assert len(roots) == len(poly) - 1
            at_10 = mpmath.polyval(poly[::-1], 10)
            assert abs(mpmath.fprod(10 - r for r in roots) / at_10 - 1) < mpmath.mpf(2) ** -400, d
            nearest = min(roots, key=abs)
            point = conjugate_point(d)
            assert abs(abs(nearest) - point) < mpmath.mpf(2) ** -400, d
            assert point < mpmath.mpf(2) ** (3 - d), d


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 401):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert _cyclotomic(m) == expected, m


def test_cos_minpoly_builds_no_prime_sieve(monkeypatch):
    """m's primes come from trial division up to isqrt(m), not a sieve."""
    from jrtower import intmath

    calls = spy_everywhere(monkeypatch, intmath, "prime_sieve")
    for m in range(3, COS_M_CAP + 1):
        cos_minpoly(m)
    assert calls == []


def test_cos_minpoly_builds_powers_of_two_by_the_closed_form(monkeypatch):
    """m = 2^e takes _cos_minpoly_pow2: it builds no Phi_m and makes no
    Chebyshev change. m = 12 still takes both, so the spies see calls."""
    cyclotomic = spy_everywhere(monkeypatch, verdict, "_cyclotomic")
    change = spy_everywhere(monkeypatch, verdict, "_palindrome_to_cos")
    for e in range(2, 8):
        assert cos_minpoly(2**e) == _cos_minpoly_pow2(e), e
    assert cyclotomic == [] and change == []
    cos_minpoly(12)
    assert cyclotomic == [(12,)] and len(change) == 1


def test_cyclotomic_inexact_binomial_division_raises(monkeypatch):
    """Primes that are not coprime break the Moebius product: with 3 and
    9 given as m's primes, N / D = (x^27 - 1)(x - 1) / ((x^3 - 1)(x^9 - 1))
    = (x^18 + x^9 + 1) / (x^2 + x + 1), which is 3 at a primitive cube
    root of unity, so the packed divmod leaves a remainder."""
    monkeypatch.setattr(verdict, "_trial_factors", lambda m: {3: 1, 9: 1})
    for build in (_cyclotomic, cos_minpoly):
        with pytest.raises(InvariantFailure,
                           match="the cyclotomic product is not divisible by its mu = -1 binomials"):
            build(27)


def test_cyclotomic_quotient_bound_guard_fires(monkeypatch):
    """The packed quotient is the polynomial one only if 2^k' max|Q| <
    2^(S-1). At r = 210, D has k' = 8 binomials, so 8-bit slots fail
    that for any Q; a quotient that fits no slots fails it too."""
    monkeypatch.setattr(verdict, "_quotient_bits", lambda degree, ups, downs: 8)
    with pytest.raises(InvariantFailure,
                       match="cyclotomic quotient exceeds its Kronecker slot bound"):
        _cyclotomic(210)
    monkeypatch.undo()
    monkeypatch.setattr(verdict, "_unpack", lambda packed, fields, width: None)
    with pytest.raises(InvariantFailure,
                       match="cyclotomic quotient exceeds its Kronecker slot bound"):
        cos_minpoly(15)


def test_closed_form_guard_fires_on_a_wrong_formula(monkeypatch):
    """Psi_m(2) = Phi_m(1) catches a wrong binomial and the p and 2p
    sign patterns swapped (each pattern rotated by one)."""
    from itertools import cycle

    monkeypatch.setattr(verdict, "comb", lambda n, k: math.comb(n, k) + (k == 1))
    for m in (7, 14, 199):
        with pytest.raises(InvariantFailure,
                           match=rf"closed-form cosine polynomial has Psi_m\(2\) != Phi_m\(1\) at m = {m}"):
            cos_minpoly(m)
    monkeypatch.undo()
    monkeypatch.setattr(verdict, "cycle", lambda signs: cycle(signs[1:] + signs[:1]))
    for m in (3, 5, 7, 6, 10, 14, 199, 194):
        with pytest.raises(InvariantFailure,
                           match=rf"closed-form cosine polynomial has Psi_m\(2\) != Phi_m\(1\) at m = {m}"):
            cos_minpoly(m)


@pytest.mark.parametrize("name,fake,m", [
    ("_cyclotomic", lambda m: [1, 2, 0, 1], 15),  # not palindromic
    ("_cyclotomic", lambda m: [1, 0, 1, 1], 15),  # not palindromic
    ("_cyclotomic", lambda m: [1, 1, 1, 1], 15),  # odd degree
    ("_cyclotomic", lambda m: [2, 0, 2], 15),  # not monic
    ("_palindrome_to_cos", lambda coeffs: [1, 1], 12),  # wrong degree
    ("_cos_minpoly_pow2", lambda e: [1, 1], 16),  # wrong degree, closed form
    ("_cos_minpoly_prime", lambda m, p: [1, 1], 5),  # wrong degree, closed form
    ("_cos_minpoly_prime", lambda m, p: [1, 1], 14),  # wrong degree, closed form
    ("comb", lambda n, k: 1, 7),  # closed form off at y = 2
])
def test_cos_minpoly_invariant_failures_fire(monkeypatch, name, fake, m):
    monkeypatch.setattr(verdict, name, fake)
    with pytest.raises(InvariantFailure):
        cos_minpoly(m)


def test_cos_minpoly_guards_name_what_broke(monkeypatch):
    for coeffs in ([1, 2, 0, 1], [1, 0, 1, 1], [1, 1, 1, 1]):
        with pytest.raises(InvariantFailure,
                           match="expected a palindromic polynomial of even degree"):
            _palindrome_to_cos(coeffs)
    monkeypatch.setattr(verdict, "_palindrome_to_cos", lambda coeffs: [1, 1])
    with pytest.raises(InvariantFailure, match="cosine polynomial has the wrong degree"):
        cos_minpoly(12)
    monkeypatch.setattr(verdict, "_cos_minpoly_pow2", lambda e: [1, 1])
    with pytest.raises(InvariantFailure, match="cosine polynomial has the wrong degree"):
        cos_minpoly(16)
    monkeypatch.setattr(verdict, "_cos_minpoly_prime", lambda m, p: [1, 1])
    with pytest.raises(InvariantFailure, match="cosine polynomial has the wrong degree"):
        cos_minpoly(7)


def test_nested_radical_invariant_failures_fire(monkeypatch):
    pow2 = _cos_minpoly_pow2

    def off_by_one(e):
        poly = pow2(e)
        poly[0] += 1
        return poly

    monkeypatch.setattr(verdict, "_cos_minpoly_pow2", off_by_one)
    for d in (2, 5, 12):
        with pytest.raises(InvariantFailure, match=f"numeric radical check failed at d = {d}"):
            nested_radical_check(d)
    monkeypatch.setattr(verdict, "_radical_numeric_check", lambda poly, d: True)
    for d in (2, 5, 7):
        with pytest.raises(InvariantFailure, match=f"symbolic radical check failed at d = {d}"):
            nested_radical_check(d)


def test_nested_radical_rejects_a_multiple_of_the_minimal_polynomial(monkeypatch):
    """poly (x - 1) vanishes at s_(d-1) too, so the numeric check passes
    it; its degree 2^(d-1) + 1 fails the degree guard at every d, and
    the identity with the iterate P_(d-1) rejects it at every d the
    symbolic check covers."""
    pow2 = _cos_minpoly_pow2

    def times_x_minus_1(e):
        poly = pow2(e)
        return [hi - lo for hi, lo in zip([0] + poly, poly + [0])]

    monkeypatch.setattr(verdict, "_cos_minpoly_pow2", times_x_minus_1)
    for d in range(2, NESTED_RADICAL_CAP + 1):
        forged = times_x_minus_1(d + 1)
        assert _radical_numeric_check(forged, d)
        if d <= ITERATE_CAP + 1:
            assert not _radical_symbolic_check(forged, d)
        with pytest.raises(InvariantFailure,
                           match=rf"radical polynomial is not monic of degree 2\^{d - 1}"):
            nested_radical_check(d)


def test_nested_radical_rejects_a_polynomial_that_is_not_monic(monkeypatch):
    """2 P_(d-1) has the right degree and root; only the monic guard sees it."""
    pow2 = _cos_minpoly_pow2
    monkeypatch.setattr(verdict, "_cos_minpoly_pow2", lambda e: [2 * c for c in pow2(e)])
    for d in (2, 7, 8, 12):
        with pytest.raises(InvariantFailure,
                           match=rf"radical polynomial is not monic of degree 2\^{d - 1}"):
            nested_radical_check(d)


def test_radical_recurrence_check_sees_every_coefficient():
    """The exact check accepts the cosine polynomial at d = 2..12 and
    rejects a change of +-1 or +-2 to any coefficient below the leading
    one: every index for d <= 9, every 29th and the top 40 beyond."""
    for d in range(2, NESTED_RADICAL_CAP + 1):
        poly = _cos_minpoly_pow2(d + 1)
        assert _radical_recurrence_check(poly), d
        top = len(poly) - 1
        indices = range(top) if d <= 9 else sorted({*range(0, top, 29), *range(top - 40, top)})
        for j in indices:
            for delta in (1, -1, 2, -2):
                changed = poly[:]
                changed[j] += delta
                assert not _radical_recurrence_check(changed), (d, j, delta)


@pytest.mark.parametrize("d, j", [(12, 12), (12, 13), (8, 20)])
def test_nested_radical_rejects_a_high_coefficient_off_by_2(monkeypatch, d, j):
    """2 s'^j is below 2^-100 here (s' < 2^(2.66-d)), so the numeric
    check at s' passes the changed polynomial and no symbolic check runs
    past d = 7: the recurrence is what rejects it."""
    pow2 = _cos_minpoly_pow2

    def off_by_2(e):
        poly = pow2(e)
        poly[j] += 2
        return poly

    monkeypatch.setattr(verdict, "_cos_minpoly_pow2", off_by_2)
    with pytest.raises(InvariantFailure, match=f"recurrence radical check failed at d = {d}"):
        nested_radical_check(d)


def test_nested_radical_symbolic_check_builds_one_iterate(monkeypatch):
    """Work counts, not time: one iterate_poly(2, d - 1) per check for
    d <= ITERATE_CAP + 1 = 7, none beyond, so raising either cap cannot
    silently skip the symbolic check or let it grow past its cap."""
    from jrtower import orbit

    calls = spy_everywhere(monkeypatch, orbit, "iterate_poly")
    for d in range(2, NESTED_RADICAL_CAP + 1):
        calls.clear()
        assert nested_radical_check(d)
        assert calls == ([(2, d - 1)] if d <= ITERATE_CAP + 1 else []), d


# ---------------------------------------------------------------------------
# obstruction chains and hypothesis bundle


def test_fermat_obstruction_exclusion_chain():
    ob = fermat_obstruction(12, 5)
    assert ob.status == EXCLUDED
    assert bool(ob)
    assert len(ob.chain) == 6
    assert ob.reason is None
    for p in (17, 257, 65537):
        assert fermat_obstruction(12, p).status == EXCLUDED


def _eager_chain(nu: int, p: int) -> tuple[str, ...]:
    """The exclusion chain text as the verdict formatted it eagerly, for
    every excluded prime; kept here as the oracle for the chain property."""
    return (
        f"jacobi({nu}, {p}) = -1: nu is not a square modulo {p}",
        f"the orbit of 0 under t^2 - {nu} modulo {p} never vanishes, "
        f"so {p} divides no c_n",
        f"an odd prime divides disc(x_n) only through some c_k, "
        f"so {p} divides no disc(x_n)",
        f"the field discriminant at level n divides disc(x_n), "
        f"so {p} is unramified in every level",
        f"{p} = 1 (mod 4), so sqrt({p}) generates the unique quadratic "
        f"subfield of the {p}-th cyclotomic field and would ramify {p}: "
        f"sqrt({p}) lies in no level",
        f"the field of 2cos(2*pi/{p}) contains sqrt({p}): the cosine and "
        f"its p-power relatives stay outside the tower ring",
    )


def test_chain_text_rendered_on_read_matches_the_eager_formatter():
    excluded = inconclusive = 0
    for nu in range(2, 2001):
        for ob in jr_verdict(nu, 5, EFFORT_QUICK).obstructions:
            if ob.status == EXCLUDED:
                excluded += 1
                assert ob.chain == _eager_chain(nu, ob.p), (nu, ob.p)
            else:
                inconclusive += 1
                assert ob.chain == (), (nu, ob.p)
    assert excluded > 1000 and inconclusive > 1000


FERMAT_ABOVE_3 = (5, 17, 257, 65537)


def _eager_reasons(nu: int) -> tuple[str, ...]:
    """The reasons as jr_verdict built them eagerly, from the clause pairs
    of the hypothesis check and one fermat_obstruction per prime of a
    strict nu; kept here, with jacobi symbols, as the oracle for the
    reasons rendered from the verdict key."""
    params = tower_params(nu)
    v = params.two_adic_valuation
    clauses = [
        ("even positive 2-adic valuation", v >= 2 and v % 2 == 0),
        ("odd part at least 3", params.mu >= 3),
        ("nu is not a perfect square", math.isqrt(nu) ** 2 != nu),
        ("Fermat-prime non-residue certificate",
         all(jacobi(nu, p) == -1 for p in FERMAT_ABOVE_3)),
    ]
    reasons = [f"hypothesis failed: {name}" for name, ok in clauses if not ok]
    strict = math.isqrt(nu) ** 2 != nu
    if not strict:
        reasons.append("tower not strict: c_1 is a perfect square")
    sqrt2 = sqrt2_free_certificate(params)
    if not sqrt2.certified:
        reasons.append(f"sqrt(2) exclusion not certified: {sqrt2.reason}")
    if strict:
        for p in FERMAT_ABOVE_3:
            ob = fermat_obstruction(nu, p)
            if ob.status != EXCLUDED:
                reasons.append(f"Fermat prime {ob.p} not excluded: {ob.reason}")
    return tuple(reasons)


@pytest.mark.parametrize("effort, top", [(EFFORT_QUICK, 6000), (EFFORT_DEFAULT, 300)])
def test_reasons_rendered_on_read_match_the_eager_builder(effort, top):
    assert "reasons" not in VerdictReport._fields
    seen = set()
    for nu in range(2, top + 1):
        report = jr_verdict(nu, 5, effort)
        assert report.reasons == _eager_reasons(nu), nu
        assert (report.reasons == ()) == (report.conclusion == THEOREM_APPLIES), nu
        assert report.to_json()["reasons"] == list(report.reasons), nu
        seen.update(reason.split(":")[0] for reason in report.reasons)
    assert {"hypothesis failed", "tower not strict",
            "sqrt(2) exclusion not certified"} <= seen
    assert any(kind.startswith("Fermat prime") for kind in seen)


@pytest.mark.parametrize("effort, top, applies", [(EFFORT_QUICK, 20000, 167),
                                                  (EFFORT_DEFAULT, 2000, 23)])
def test_theorem_applies_iff_the_key_lemma_holds(effort, top, applies):
    """theorem-applies iff v2(nu) is even and at least 2 and (nu|p) = -1
    at p = 5, 17, 257, 65537: a square nu, or nu = 4^m, has symbols in
    {0, 1}, so the other clauses follow from these."""
    count = 0
    for nu in range(2, top + 1):
        v = (nu & -nu).bit_length() - 1
        lemma = (v >= 2 and v % 2 == 0
                 and all(jacobi(nu, p) == -1 for p in FERMAT_ABOVE_3))
        assert (jr_verdict(nu, 5, effort).conclusion == THEOREM_APPLIES) == lemma, nu
        count += lemma
    assert count == applies


def test_jr_verdict_builds_no_obstruction_and_no_clause_pair(monkeypatch):
    """The verdict and a scan row read the decided facts alone; the
    obstruction records and the clause pairs appear only when read."""
    assert "obstructions" not in VerdictReport._fields
    paired = []
    real_clauses = VerdictReport.clauses.fget

    def spy_clauses(self):
        paired.append(self.nu)
        return real_clauses(self)

    built = spy_on_builds(monkeypatch, [FermatObstruction])
    monkeypatch.setattr(VerdictReport, "clauses", property(spy_clauses))
    reports = []
    for effort in (EFFORT_QUICK, EFFORT_DEFAULT):
        for nu in range(2, 401):
            reports.append(jr_verdict(nu, 5, effort))
            cli._scan_row(nu, effort)
    assert built == [] and paired == []

    strict = 0
    for report in reports:
        doc = report.to_json()
        assert len(doc["hypothesis"]["clauses"]) == 4
        if not report.strict:
            assert doc["obstructions"] == [], report.nu
            continue
        strict += 1
        assert [ob["p"] for ob in doc["obstructions"]] == list(FERMAT_ABOVE_3)
        for ob in doc["obstructions"]:
            excluded = ob["status"] == EXCLUDED
            assert ob["chain"] == (list(_eager_chain(report.nu, ob["p"])) if excluded
                                   else []), (report.nu, ob["p"])
    assert strict > 700
    assert len(built) == 4 * strict and len(paired) == len(reports)


@pytest.mark.parametrize("nu, n", [(13, 9), (36, 15), (12, 21)])
def test_jr_verdict_guard_fires_on_a_composite_modulus(monkeypatch, nu, n):
    """A modulus that is not prime leaves nu^((n-1)/2) outside {0, 1,
    -1}, so the verdict and the hypothesis check raise when
    hypothesis_check takes the symbols, with no obstruction read, also
    for a square nu such as 36, whose tower is not strict."""
    from jrtower import residue

    def unread(self):
        raise AssertionError("the obstructions were read")

    assert pow(nu, (n - 1) // 2, n) not in (0, 1, n - 1)
    monkeypatch.setattr(residue, "_fermat_primes_above_3", lambda: (5, 17, n))
    monkeypatch.setattr(VerdictReport, "obstructions", property(unread))
    with pytest.raises(InvariantFailure, match=rf"no Legendre symbol modulo {n}: {nu}\^"):
        jr_verdict(nu, effort=EFFORT_QUICK)
    with pytest.raises(InvariantFailure, match=rf"no Legendre symbol modulo {n}: {nu}\^"):
        hypothesis_check(nu)


def test_fermat_obstruction_inconclusive_cases():
    ob = fermat_obstruction(21, 17)
    assert ob.status == INCONCLUSIVE
    assert not bool(ob)
    assert ob.chain == ()
    assert "quadratic residue" in ob.reason
    ob = fermat_obstruction(20, 5)
    assert ob.status == INCONCLUSIVE
    assert "divides nu" in ob.reason


def test_fermat_obstruction_domain():
    with pytest.raises(ValueError):
        fermat_obstruction(12, 7)
    with pytest.raises(ValueError):
        fermat_obstruction(12, 6)
    with pytest.raises(PreconditionError):
        fermat_obstruction(4, 5)


def test_jr_verdict_checks_strictness_once_and_trusts_pepin(monkeypatch):
    """One strictness decision per verdict, by the gap lemma: the one
    square test of nu, shared by the third clause and the four
    obstruction chains, which do not re-prove the Fermat primes. No
    Strictness record is built; the orbit agrees on read."""
    from jrtower import orbit

    expected = [fermat_obstruction(12, p) for p in (5, 17, 257, 65537)]
    eager = tower_strict(constant_terms(12, 5))
    decided = spy_on_builds(monkeypatch, [Strictness])
    squares = []
    real_is_square = verdict.is_square
    monkeypatch.setattr(verdict, "is_square",
                        lambda n: squares.append(n) or real_is_square(n))

    def forbidden(n):
        raise AssertionError("a Fermat prime was proved prime again")

    monkeypatch.setattr(orbit, "is_prime", forbidden)
    report = jr_verdict(12, 5)
    assert decided == [] and squares == [12]
    assert (report.strict, report.strict_witness) == (eager.strict, eager.witness)
    assert list(report.obstructions) == expected
    assert report.conclusion == THEOREM_APPLIES


@pytest.mark.parametrize(
    "nus, depths",
    [(range(2, 402), (5,)), (range(4, 169, 4), (6,)), (range(2, 402), range(1, 13))],
    ids=["scan-window", "deep-set", "every-depth"],
)
def test_jr_verdict_builds_no_orbit(monkeypatch, nus, depths):
    """Work counts, not time: strictness and the sqrt(2) guard read nu
    alone, so no verdict builds orbit constants, scans them for squares
    or walks an orbit mod p, at any depth up to SEQUENCE_CAP = 12."""
    from jrtower import orbit

    spies = [
        spy_everywhere(monkeypatch, orbit, name)
        for name in ("constant_terms", "tower_strict", "orbit_mod_p")
    ]
    certified = 0
    for depth in depths:
        for nu in nus:
            report = jr_verdict(nu, depth, EFFORT_QUICK)
            assert report.strict == (math.isqrt(nu) ** 2 != nu), nu
            certified += report.sqrt2_certified
    assert spies == [[], [], []]
    assert certified > 0


@pytest.mark.parametrize("nu, first_zero", [(13, None), (8, 3)])
def test_obstruction_chain_guard_fires_on_a_wrong_symbol(monkeypatch, nu, first_zero):
    """nu = 13 and 8 are squares mod 17; a jacobi that claims -1 makes
    fermat_obstruction raise, whether or not the orbit mod 17 reaches 0."""
    assert orbit_mod_p(nu, 17) == first_zero
    assert tower_strict(constant_terms(nu, 5)).strict
    monkeypatch.setattr(verdict, "jacobi", lambda a, n: -1)
    with pytest.raises(InvariantFailure, match="Euler's criterion"):
        fermat_obstruction(nu, 17)


@pytest.mark.parametrize("split", [(2, 5), (0, 12), (4, 3)])
def test_jr_verdict_split_guard_fires_on_a_forged_split(monkeypatch, split):
    """TowerParams' 2-adic check runs inside the verdict and the
    hypothesis check, on the split they read, with no TowerParams built:
    a forged (v, mu) whose product is not nu, or whose mu is even, raises.
    A forged valuation (4, 3) is caught here, before the sqrt(2) guard's
    base case nu = 2^v (mod 2^(v+1)), which the split check implies."""
    real = verdict.split_two_part
    monkeypatch.setattr(verdict, "split_two_part",
                        lambda nu: split if nu == 12 else real(nu))
    for decide in (jr_verdict, hypothesis_check):
        with pytest.raises(InvariantFailure, match="broken 2-adic decomposition"):
            decide(12)


@pytest.mark.parametrize("kernel, message", [
    (3, "kernel does not divide nu into a square"),
    (5, "universal scope without a 3/7 kernel"),
])
def test_jr_verdict_kernel_guard_fires_on_a_forged_kernel(monkeypatch, kernel, message):
    """nu = 652 passes every clause with a finite scope. A kernel search
    that claims a universal kernel makes the verdict and the hypothesis
    check raise, through the kernel check that a universal
    ResidueCertificate runs, with no certificate built."""
    assert jr_verdict(652, 5).scope == "finite"
    monkeypatch.setattr(verdict, "_kernel_basis", lambda nu: kernel)
    for decide in (jr_verdict, hypothesis_check):
        with pytest.raises(InvariantFailure, match=message):
            decide(652)


def _eager_hypothesis(nu: int, effort) -> dict:
    """The JSON "hypothesis" section as a separate hypothesis record
    rendered it, built from the public records: the oracle for the
    section a report renders from its key."""
    params = tower_params(nu)
    v = params.two_adic_valuation
    try:
        scope, failed_prime = residue_certificate(nu).scope, None
    except CertificateFailure as failure:
        scope, failed_prime = None, failure.prime
    outcomes = (v >= 2 and v % 2 == 0, params.mu >= 3, not params.is_square,
                scope is not None)
    names = ("even positive 2-adic valuation", "odd part at least 3",
             "nu is not a perfect square", "Fermat-prime non-residue certificate")
    return {
        "clauses": [[name, ok] for name, ok in zip(names, outcomes)],
        "scope": scope,
        "failed_prime": failed_prime,
        "mu_not_squarefree": _has_square_factor(params.mu, effort),
    }


@pytest.mark.parametrize("effort, top", [(EFFORT_QUICK, 2000), (EFFORT_DEFAULT, 300)])
def test_records_rendered_on_read_match_the_eager_builders(effort, top):
    """The hypothesis, residue, sqrt(2) and strictness facts a report
    renders from its key equal those the public functions make from nu."""
    seen = set()
    for nu in range(2, top + 1):
        report = jr_verdict(nu, 5, effort)
        params = tower_params(nu)
        assert report.hypothesis is report, nu
        assert hypothesis_check(nu) == (report.outcomes, report.symbols,
                                        report.kernel_basis), nu
        assert report.mu_not_squarefree == _has_square_factor(params.mu, effort), nu
        assert report.to_json()["hypothesis"] == _eager_hypothesis(nu, effort), nu
        try:
            cert = residue_certificate(nu)
        except CertificateFailure:
            assert report.kernel_basis is None, nu
        else:
            assert report.kernel_basis == cert.kernel_basis, nu
        sqrt2 = sqrt2_free_certificate(params)
        assert (report.sqrt2_certified, report.sqrt2_reason) == (sqrt2.certified,
                                                                 sqrt2.reason), nu
        gap = (False, 1) if params.is_square else (True, None)
        assert (report.strict, report.strict_witness) == gap, nu
        seen.add((report.scope, report.sqrt2_certified, report.strict))
    assert {("universal", True, True), (None, False, False), (None, True, True),
            (None, False, True)} <= seen
    assert "finite" in {scope for scope, _, _ in seen}


def spy_on_builds(monkeypatch, classes) -> list[str]:
    """Wrap the __new__ of each record class in classes; return the list
    that the class names of the records built are appended to, in order."""
    built = []
    for cls in classes:
        def spy(new_cls, *args, _new=cls.__new__, **kwargs):
            built.append(new_cls.__name__)
            return _new(new_cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", spy)
    return built


def test_a_verdict_and_a_scan_row_build_one_record(monkeypatch, record_classes):
    """Each verdict builds its VerdictReport and nothing else, a universal
    scope included; a scan row reads the report and builds nothing more."""
    built = spy_on_builds(monkeypatch, record_classes)
    universal = 0
    for effort in (EFFORT_QUICK, EFFORT_DEFAULT):
        for nu in range(2, 401):
            del built[:]
            universal += jr_verdict(nu, 5, effort).scope == "universal"
            assert built == ["VerdictReport"], nu
            del built[:]
            cli._scan_row(nu, effort)
            assert built == ["VerdictReport"], nu
    assert universal > 5


def test_a_read_builds_only_what_it_prints(monkeypatch, record_classes):
    """to_json, the human rendering and a scan row read the decided key:
    none builds a TowerParams, ResidueCertificate or Sqrt2Certificate,
    twins of facts the key holds, and a scan row builds nothing beyond
    its verdict."""
    reports = [jr_verdict(nu, 5, effort)
               for effort in (EFFORT_QUICK, EFFORT_DEFAULT) for nu in range(2, 401)]
    built = spy_on_builds(monkeypatch, record_classes)
    read = set()
    for report in reports:
        del built[:]
        monkeypatch.setattr(cli, "jr_verdict", lambda nu, effort, _report=report: _report)
        cli._scan_row(report.nu, EFFORT_QUICK)
        assert built == [], report.nu
        report.to_json()
        cli._render_verdict(report)
        read.update(built)
    assert read == {"FermatObstruction", "QuadraticSurd"}


def test_euler_criterion_and_orbit_walk_agree_with_exclusions():
    """The orbit walk kept as an oracle: jacobi = -1 exactly when
    Euler's criterion gives -1, and no excluded prime divides a c_n."""
    primes = (5, 17, 257, 65537)
    excluded = 0
    for nu in range(2, 2001):
        for p in primes:
            assert (jacobi(nu, p) == -1) == (pow(nu, (p - 1) // 2, p) == p - 1), (nu, p)
        for ob in jr_verdict(nu, 5, EFFORT_QUICK).obstructions:
            if ob.status == EXCLUDED:
                excluded += 1
                assert orbit_mod_p(nu, ob.p) is None, (nu, ob.p)
    assert excluded > 1000


def spy_everywhere(monkeypatch, module, name):
    """Replace module.name at every jrtower module that imported it;
    return the list of argument tuples the calls record."""
    import sys

    original = getattr(module, name)
    calls = []

    def spy(*args):
        calls.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("jrtower"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    return calls


def test_hypothesis_check_runs_no_sqrt2_guard(monkeypatch):
    """Work counts: the split check proves the sqrt(2) guard's base case
    and its step is an identity, so the decision never reads
    _sqrt2_reason; a report reads it only to name a refused shape."""
    from jrtower import squareclasses

    calls = spy_everywhere(monkeypatch, squareclasses, "_sqrt2_reason")
    reports = [jr_verdict(nu, 5, EFFORT_QUICK) for nu in range(2, 401)]
    for nu in range(2, 401):
        hypothesis_check(nu)
    assert calls == []
    named = [r.nu for r in reports if r.sqrt2_reason is not None]
    assert named == [r.nu for r in reports if not r.sqrt2_certified]
    assert len(calls) == len(named)


def test_jr_verdict_factors_nothing(monkeypatch):
    """The mu-not-squarefree flag comes from the cube-root lemma: below
    trial_bound^3 a verdict neither factors nor looks up a factorization."""
    from jrtower import factor

    memo = factor.factorize_cached
    calls = spy_everywhere(monkeypatch, factor, "factorize")
    cached = spy_everywhere(monkeypatch, factor, "factorize_cached")
    memo.cache_clear()
    for effort in (EFFORT_QUICK, EFFORT_DEFAULT):
        flags = {jr_verdict(nu, 5, effort).hypothesis.mu_not_squarefree
                 for nu in range(2, 401)}
        assert flags == {True, False}, effort
    assert calls == [] and cached == []


def test_the_square_free_flag_is_computed_only_when_read(monkeypatch):
    """Work counts, not time: a verdict calls neither _has_square_factor
    nor factorize_cached, not even for 4 (10^600 + 1), whose odd part
    lies past the cube of the quick trial bound. Reading
    mu_not_squarefree makes the one call, and a scan row reads it only
    on the sqrt2_certified rows that print it."""
    from jrtower import factor

    memo = factor.factorize_cached
    flags = spy_everywhere(monkeypatch, factor, "_has_square_factor")
    cached = spy_everywhere(monkeypatch, factor, "factorize_cached")
    memo.cache_clear()
    reports = [jr_verdict(nu, 5, effort)
               for effort in (EFFORT_QUICK, EFFORT_DEFAULT) for nu in range(2, 401)]
    assert flags == [] and cached == []
    jr_verdict(4 * (10**600 + 1), 5, EFFORT_QUICK)
    assert flags == [] and cached == []
    for report in reports:
        del flags[:]
        report.mu_not_squarefree
        assert flags == [(tower_params(report.nu).mu, report.effort)], report.nu
    assert cached == []
    del flags[:]
    certified = 0
    for nu in range(2, 2001):
        cli._scan_row(nu, EFFORT_QUICK)
        certified += jr_verdict(nu, 5, EFFORT_QUICK).sqrt2_certified
    assert len(flags) == certified == 312


def test_a_scan_row_reads_conclusive_once(monkeypatch):
    """A row's conclusion, caveat flag and reasons rest on one read of
    conclusive, and match what the report's own properties say."""
    reads = []
    real = VerdictReport.conclusive.fget

    def counted(self):
        reads.append(self.nu)
        return real(self)

    monkeypatch.setattr(VerdictReport, "conclusive", property(counted))
    for effort in (EFFORT_QUICK, EFFORT_DEFAULT):
        for nu in range(2, 301):
            report = jr_verdict(nu, 5, effort)
            expected = report.conclusion, report.finite_scope_caveat
            del reads[:]
            row = cli._scan_row(nu, effort)
            assert reads == [nu], nu
            assert (row[1], "finite-scope-caveat" in row[4].split("|")) == expected, nu


def test_jr_verdict_takes_each_jacobi_symbol_once(monkeypatch):
    """Each symbol (nu|p) is taken once, by Euler's criterion: a verdict
    calls fermat_symbols once, and neither jacobi nor _euler_guard."""
    from jrtower import residue

    symbols = spy_everywhere(monkeypatch, residue, "fermat_symbols")
    calls = spy_everywhere(monkeypatch, residue, "jacobi")
    guards = spy_everywhere(monkeypatch, residue, "_euler_guard")
    for nu in range(2, 401):
        del symbols[:]
        jr_verdict(nu, 5, EFFORT_QUICK)
        assert symbols == [(nu,)], nu
        assert calls == [] and guards == [], nu


def test_first_verdict_allocates_under_96_kb():
    """A fresh process builds no per-prime table for its first verdict:
    the tracemalloc peak of jr_verdict(12, 5, EFFORT_QUICK) reads about
    59 KB, under 96 KB, where four residue tables mod 5, 17, 257 and
    65537 (66 KB) would lift it to about 130 KB."""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(jrtower.__file__))
    probe = ("import tracemalloc; from jrtower import jr_verdict; "
             "from jrtower.factor import EFFORT_QUICK; tracemalloc.start(); "
             "jr_verdict(12, 5, EFFORT_QUICK); print(tracemalloc.get_traced_memory()[1])")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert int(out) < 96 * 1024, out


def test_hypothesis_check_bundle():
    outcomes, _, kernel_basis = hypothesis_check(12)
    assert all(outcomes) and kernel_basis == 3
    hyp = jr_verdict(12)
    assert hyp.scope == "universal"
    assert [ok for _, ok in hyp.clauses] == [True, True, True, True]
    outcomes, _, kernel_basis = hypothesis_check(8)
    assert not all(outcomes) and kernel_basis is None
    hyp = jr_verdict(8)
    assert hyp.failed_prime == 17
    assert [ok for _, ok in hyp.clauses].count(False) == 3
    outcomes, _, kernel_basis = hypothesis_check(20)
    assert not all(outcomes) and kernel_basis is None
    hyp = jr_verdict(20)
    assert hyp.failed_prime == 5


@st.composite
def _nu_with_chosen_symbols(draw):
    """nu = 2^v * mu of up to 300 digits, built by the Chinese remainder
    theorem with each (nu|p), p = 5, 17, 257, 65537, drawn from {-1, 0, 1}
    (-1 most often). 3 is a primitive root mod each such p, so an odd
    power of 3 is a non-residue and an even one a residue."""
    v = draw(st.integers(0, 12))
    symbols = tuple(draw(st.sampled_from((-1, -1, -1, 0, 1))) for _ in FERMAT_ABOVE_3)
    modulus, residue = 2, 1  # mu is odd
    for p, j in zip(FERMAT_ABOVE_3, symbols):
        e = draw(st.integers(0, (p - 3) // 2))
        target = 0 if j == 0 else pow(3, 2 * e + (j == -1), p) * pow(2, -v, p) % p
        residue += modulus * ((target - residue) * pow(modulus, -1, p) % p)
        modulus *= p
    digits = draw(st.integers(0, 286))  # of the multiplier k
    k = draw(st.integers(10**digits // 10, 10**digits - 1))
    nu = 2**v * (residue + modulus * k)
    assume(nu >= 2)
    return nu, symbols


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_nu_with_chosen_symbols())
def test_key_lemma_decides_the_verdict(case):
    """The key lemma, by property: the theorem applies to nu iff v2(nu)
    is even and at least 2 and (nu|p) = -1 for every known Fermat prime
    p > 3. The oracle takes each symbol by jacobi, apart from the Euler's
    criterion the verdict uses."""
    nu, symbols = case
    assert tuple(jacobi(nu, p) for p in FERMAT_ABOVE_3) == symbols
    v = (nu & -nu).bit_length() - 1
    applies = v >= 2 and v % 2 == 0 and symbols == (-1,) * 4
    assert (jr_verdict(nu, 5, EFFORT_QUICK).conclusion == THEOREM_APPLIES) == applies


# ---------------------------------------------------------------------------
# full verdicts


def test_jr_verdict_12_exact():
    rep = jr_verdict(12, depth=5)
    assert rep.conclusion == THEOREM_APPLIES
    assert rep.conclusive
    assert rep.jr_upper.compare_int(8) == 0
    assert rep.alpha.compare_int(4) == 0
    assert rep.strict
    assert rep.sqrt2_certified and rep.sqrt2_reason is None
    assert len(rep.obstructions) == 4
    assert all(ob.status == EXCLUDED for ob in rep.obstructions)
    assert not rep.finite_scope_caveat
    assert rep.reasons == ()
    assert len(rep.statements) == 4


def test_jr_verdict_universal_family():
    for nu, decimal in ((48, "15.446221"), (112, "23.094810")):
        rep = jr_verdict(nu, depth=5)
        assert rep.conclusion == THEOREM_APPLIES
        assert rep.hypothesis.scope == "universal"
        assert rep.jr_upper.decimal(6) == decimal


def test_jr_verdict_inconclusive_with_reasons():
    rep = jr_verdict(8, depth=5)
    assert rep.conclusion == INCONCLUSIVE
    assert not rep.conclusive
    assert len(rep.reasons) >= 3
    assert any("2-adic" in r for r in rep.reasons)
    assert rep.statements == ()


def test_jr_verdict_finite_scope_sets_caveat():
    rep = jr_verdict(652, depth=4)
    assert rep.conclusion == THEOREM_APPLIES
    assert rep.hypothesis.scope == "finite"
    assert rep.finite_scope_caveat


def test_jr_verdict_upper_bound_at_least_4():
    for nu in (12, 48, 112, 652):
        rep = jr_verdict(nu, depth=3)
        assert rep.jr_upper.compare_int(4) >= 0


def _eager_statements(nu: int, applies: bool, finite_scope: bool) -> tuple[str, ...]:
    """The statements as jr_verdict built them eagerly, from the surds it
    kept; the oracle for the statements rendered on read."""
    if not applies:
        return ()
    alpha = alpha_surd(nu)
    bound = alpha.shifted(alpha.ceil()).decimal(6)
    scope_note = (" (conditional on no unknown Fermat prime violating the "
                  "residue condition)" if finite_scope else "")
    return (
        "the set of totally positive window bounds is not {+inf}: "
        f"infinitely many n + alpha lie below {bound}",
        "the window set is not [4, +inf): all but finitely many "
        "constructible cosines are excluded from the ring" + scope_note,
        f"the JR number lies in [4, {bound}]",
        "if the JR number equals 4 it is not attained as a minimum; "
        "any JR number of a totally positive ring is >= 4, and an attained 4 "
        "needs infinitely many constructible cosine elements below every "
        "t > 4; the certified exclusions leave only finitely many",
    )


@pytest.mark.parametrize("effort, top, counts", [(EFFORT_QUICK, 2000, (23, 6)),
                                                (EFFORT_DEFAULT, 300, (7, 0))])
def test_statements_rendered_on_read_match_the_eager_builder(effort, top, counts):
    applied = finite = 0
    for nu in range(2, top + 1):
        report = jr_verdict(nu, 5, effort)
        applies = report.conclusion == THEOREM_APPLIES
        scope_finite = report.hypothesis.scope == "finite"
        assert report.statements == _eager_statements(nu, applies, scope_finite), nu
        assert report.to_json()["statements"] == list(report.statements), nu
        assert report.finite_scope_caveat == (applies and scope_finite), nu
        applied += applies
        finite += applies and scope_finite
    assert (applied, finite) == counts


def test_the_bound_and_statements_are_not_fields():
    """The one verdict record holds the decided key and the effort that
    bounds the square-free flag, which renders on read."""
    assert VerdictReport._fields == ("nu", "outcomes", "symbols", "effort", "kernel_basis")
    for name in ("conclusive", "conclusion", "finite_scope_caveat", "hypothesis",
                 "clauses", "scope", "failed_prime", "mu_not_squarefree", "strict",
                 "strict_witness", "sqrt2_certified", "sqrt2_reason", "alpha", "jr_upper",
                 "statements"):
        assert isinstance(getattr(VerdictReport, name), property), name
    assert not hasattr(jrtower, "HypothesisReport")
    assert not hasattr(verdict, "HypothesisReport")
    assert not hasattr(VerdictReport, "sqrt2")
    assert not hasattr(verdict, "_hypothesis_report")


def test_jr_verdict_builds_no_surd_and_no_statement(monkeypatch):
    """A verdict checks the bound's floor in integers; the surds and the
    statement text appear only when read."""
    built = spy_on_builds(monkeypatch, [QuadraticSurd])
    monkeypatch.setattr(verdict, "_KRONECKER_NOTE", None)  # any statement would fail
    reports = [jr_verdict(nu, 5, effort)
               for effort in (EFFORT_QUICK, EFFORT_DEFAULT) for nu in range(2, 401)]
    assert built == []
    report = jr_verdict(12, 5)
    assert report.jr_upper.compare_int(8) == 0
    assert len(built) == 2  # alpha, then ceil(alpha) + alpha
    assert sum(r.conclusion == THEOREM_APPLIES for r in reports) > 10


def test_the_integer_floor_check_matches_the_surds():
    """Over nu = 2..20000: the ceiling the guard reads equals alpha.ceil()
    and an isqrt oracle, the bound is at least 4, and
    2c + 1 + isqrt(1 + 4 nu) >= 8 holds exactly when c + alpha >= 4, for
    the true ceiling c and for c = 0, 1, 2."""
    for nu in range(2, 20001):
        report = jr_verdict(nu, 5, EFFORT_QUICK)
        alpha = report.alpha
        c, s = verdict._surd_ceil(1, 1, 1 + 4 * nu, 2), math.isqrt(1 + 4 * nu)
        assert c == alpha.ceil() == _ceil_alpha_oracle(nu), nu
        assert report.jr_upper.compare_int(4) >= 0, nu
        for k in {0, 1, 2, c}:
            assert (2 * k + 1 + s >= 8) == (alpha.shifted(k).compare_int(4) >= 0), (nu, k)


def test_jr_verdict_floor_guard_fires_on_a_forged_ceiling(monkeypatch):
    """At nu = 2, alpha = 2 and the bound is exactly 4: a ceiling one too
    small puts it at 3 and the verdict raises."""
    assert jr_verdict(2).jr_upper.compare_int(4) == 0
    real = verdict._surd_ceil
    monkeypatch.setattr(verdict, "_surd_ceil", lambda *surd: real(*surd) - 1)
    with pytest.raises(InvariantFailure, match="JR upper bound fell below the floor 4"):
        jr_verdict(2)
    assert jr_verdict(3).conclusion == INCONCLUSIVE  # 2 + alpha(3) > 4 still


def test_jr_verdict_floor_guard_fires_at_exactly_7(monkeypatch):
    """At nu = 4, D = 17 and isqrt(D) = 4: a ceiling forced to 1 gives
    2 * 1 + 1 + 4 = 7, one short of 8, and the verdict raises."""
    monkeypatch.setattr(verdict, "_surd_ceil", lambda *surd: 1)
    with pytest.raises(InvariantFailure, match="JR upper bound fell below the floor 4"):
        jr_verdict(4)


def _ceil_alpha_oracle(nu: int) -> int:
    """ceil((1 + sqrt(D)) / 2), D = 1 + 4 nu: half of one more than the
    least odd k with k^2 >= D."""
    D = 1 + 4 * nu
    r = math.isqrt(D - 1) + 1  # the least r with r^2 >= D
    k = r if r % 2 else r + 1
    return (k + 1) // 2


def _upper_decimal_oracle(nu: int) -> str:
    """floor(10^6 (c + alpha)) / 10^6 as text; c + alpha = (2c + 1 +
    sqrt(D)) / 2, and the floor of (integer + x) / 2 reads floor(x) only."""
    c = _ceil_alpha_oracle(nu)
    scaled = ((2 * c + 1) * 10**6 + math.isqrt((1 + 4 * nu) * 10**12)) // 2
    return f"{scaled // 10**6}.{scaled % 10**6:06d}"


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(
    st.integers(2, 10**300),
    st.integers(1, 10**150).map(lambda k: k * k + k),  # alpha = k + 1
    st.integers(2, 10**150).map(lambda k: k * k),
))
def test_ceiling_and_bound_agree_with_an_isqrt_oracle(nu):
    """The bound alone, by property: no verdict runs, since factoring a
    random nu of 300 digits can take seconds. The report's jr_upper
    reads nu only, so the other fields are placeholders."""
    c = verdict._surd_ceil(1, 1, 1 + 4 * nu, 2)
    assert c == alpha_surd(nu).ceil() == _ceil_alpha_oracle(nu)
    report = VerdictReport(nu, (False,) * 4, (0,) * 4, None, None)
    assert report.conclusion == INCONCLUSIVE and not report.finite_scope_caveat
    assert report.jr_upper.decimal(6) == _upper_decimal_oracle(nu)
    assert report.jr_upper_decimal == _upper_decimal_oracle(nu)
    assert report.statements == ()


def test_jr_verdict_json_roundtrip_types():
    doc = jr_verdict(12, depth=3).to_json()
    assert doc["conclusion"] == THEOREM_APPLIES

    def only_plain(node):
        if isinstance(node, dict):
            return all(isinstance(k, str) and only_plain(v) for k, v in node.items())
        if isinstance(node, (list, tuple)):
            return all(only_plain(v) for v in node)
        return isinstance(node, (str, int, bool)) or node is None

    assert only_plain(doc)


# ---------------------------------------------------------------------------
# window enumeration


def brute_window(nu: int, t: Fraction) -> set[tuple[int, int]]:
    """All a + b*sqrt(nu), b >= 0, with both conjugates in (0, t), from
    the whole box |a| <= T, 0 <= b <= T with T = ceil(t). The box holds
    every answer: a is the conjugates' mean and b*sqrt(nu) half their gap."""
    out = set()
    T = math.ceil(t)
    with mpmath.workdps(60):
        root = mpmath.sqrt(nu)
        for b in range(0, T + 1):
            for a in range(-T, T + 1):
                lo = a - b * root
                hi = a + b * root
                if lo > 0 and hi > 0 and lo < float(t) and hi < float(t):
                    # refuse float ties; the cases below stay clear of them
                    out.add((a, b))
    return out


def test_window_known_enumeration():
    got = window_elements_deg2(12, 8)
    assert got == [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (4, 1)]
    assert window_elements_deg2(12, Fraction(15, 2)) == [
        (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (4, 1),
    ]


def test_window_matches_brute_force():
    rng = random.Random(8003)
    nonsquares = [2, 3, 5, 6, 7, 8, 10, 11, 12, 13]
    for _ in range(25):
        nu = nonsquares[rng.randrange(len(nonsquares))]
        t = Fraction(rng.randrange(3, 40), rng.randrange(1, 4))
        got = set(window_elements_deg2(nu, t))
        assert got == brute_window(nu, t)
    for t in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):  # t <= 1 lists nothing
        assert window_elements_deg2(2, t) == [] and brute_window(2, t) == set()


def test_window_ordering_and_domain(monkeypatch):
    elems = window_elements_deg2(12, 8)
    assert elems == sorted(elems, key=lambda ab: (ab[1], ab[0]))
    with pytest.raises(ValueError):
        window_elements_deg2(12, 0)
    # row b = 0 alone would list 1999999 rationals
    with pytest.raises(ResourceLimitError, match=f"capped at {WINDOW_CAP} pairs"):
        window_elements_deg2(2, 2 * 10**6)
    monkeypatch.setattr(verdict, "WINDOW_CAP", 8)  # the cap holds exactly
    assert window_elements_deg2(12, 8) == elems
    monkeypatch.setattr(verdict, "WINDOW_CAP", 7)  # row b = 0 fits, (4, 1) does not
    with pytest.raises(ResourceLimitError, match="pairs"):
        window_elements_deg2(12, 8)


@pytest.mark.parametrize("call, message", [
    (lambda: QuadraticSurd(1, 1, -5), "only real surds are supported"),
    (lambda: QuadraticSurd(1, -1, 5), "use a negative a rather than a negative b"),
    (lambda: alpha_surd(1), "nu must be >= 2"),
    (lambda: constructible_order(2), "m must be >= 3"),
    (lambda: constructible_order(COS_M_CAP + 1), "m capped at 200"),
    (lambda: verdict._cos_minpoly_pow2(1), "e must be >= 2"),
    (lambda: fermat_obstruction(1, 5), "nu must be an integer >= 2"),
    (lambda: window_elements_deg2(1, 5), "nu must be >= 2"),
    (lambda: jr_verdict(12, 13), "depth must be between 1 and 12"),
], ids=["surd-D", "surd-b", "alpha_surd", "constructible_order", "constructible_order-cap",
         "cos_minpoly_pow2",
        "fermat_obstruction", "window-nu", "jr_verdict-depth"])
def test_verdict_refuses_inputs_outside_its_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()
