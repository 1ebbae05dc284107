"""Constructible cosines, exclusion certificates, and the final verdict.

The Julia Robinson question for the ring O^nu (all algebraic integers
obtained from the tower x_{k+1} = sqrt(nu + x_k) and its translates)
asks for the least t such that infinitely many totally positive ring
elements have all conjugates in [0, t]. Two classical inputs steer the
verdict machinery:

* Gauss-Wantzel: 2cos(2*pi/m) generates a 2-power-degree (real
  constructible) extension iff m = 2^a * (product of distinct Fermat
  primes). These cosines are the canonical small totally positive
  algebraic integers (conjugates in [0, 4]), so keeping them OUT of
  the ring is how one pushes the JR number above 4.
* A Kronecker-style floor: any ring of totally positive algebraic
  integers has JR number >= 4, and equal to an attained 4 only with
  infinitely many conjugate sets dense in [0, 4]; excluding all but
  finitely many constructible cosines rules that out.

The verdict combines: hypothesis shape of nu, tower strictness, the
sqrt(2) exclusion certificate, and per-Fermat-prime obstruction chains.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import count, cycle
from math import comb, gcd, isqrt
from struct import unpack

from .errors import (
    InvariantFailure,
    PreconditionError,
    ResourceLimitError,
)
from .factor import EFFORT_DEFAULT, Effort, _has_square_factor
from .intmath import is_square, split_two_part
from .orbit import (
    ITERATE_CAP,
    SEQUENCE_CAP,
    _check_decomposition,
    iterate_poly,
)
from .residue import (
    _check_kernel,
    _euler_guard,
    _fermat_primes_above_3,
    _first_failure,
    _kernel_basis,
    fermat_symbols,
    jacobi,
    known_fermat_primes,
)
from .squareclasses import _sqrt2_reason

COS_M_CAP = 200
NESTED_RADICAL_CAP = 12
# Bounds the output of window_elements_deg2.
WINDOW_CAP = 10**6
# struct's signed codes by size in bytes, for _unpack's one-call read.
_SIGNED_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}

EXCLUDED = "excluded"
INCONCLUSIVE = "inconclusive"
THEOREM_APPLIES = "theorem-applies"


# ---------------------------------------------------------------------------
# Exact quadratic surds


class QuadraticSurd(namedtuple("QuadraticSurd", "a b D q", defaults=(1,))):
    """(a + b * sqrt(D)) / q with integers a, b >= 0, D >= 0 and q > 0
    (a of any sign).

    Exact: the ceiling and comparisons are integer arithmetic;
    decimals are rendered only for display. b may be 0 (rational).
    """

    __slots__ = ()

    def __new__(cls, a, b, D, q=1):
        if q <= 0:
            raise ValueError("denominator must be positive")
        if D < 0:
            raise ValueError("only real surds are supported")
        if b < 0:
            raise ValueError("use a negative a rather than a negative b")
        return tuple.__new__(cls, (a, b, D, q))

    @property
    def is_rational(self) -> bool:
        return self.b == 0 or is_square(self.D)

    def ceil(self) -> int:
        return _surd_ceil(self.a, self.b, self.D, self.q)

    def shifted(self, k: int) -> "QuadraticSurd":
        """This value plus the integer k."""
        return QuadraticSurd(self.a + k * self.q, self.b, self.D, self.q)

    def compare_int(self, k: int) -> int:
        """Sign of (self - k), exactly."""
        # a + b sqrt(D) vs k q reduces to b sqrt(D) vs kq - a; both
        # sides nonnegative once the trivial sign case is out, so one
        # squaring decides.
        rhs = k * self.q - self.a
        lhs_sq = self.b * self.b * self.D
        if rhs < 0:
            return 1
        if lhs_sq == rhs * rhs:
            return 0
        return 1 if lhs_sq > rhs * rhs else -1

    def decimal(self, digits: int = 12) -> str:
        """Truncated decimal rendering with the given fractional digits:
        the sign of the value, then floor(|value| * 10^digits), with no
        point when digits is 0. Negative digits raise ValueError."""
        return _surd_decimal(self.a, self.b, self.D, self.q, digits)

    def __str__(self) -> str:
        if self.is_rational:
            # The bytes of str(Fraction): reduced, "n" or "n/d", d > 0.
            n = self.a + self.b * isqrt(self.D)
            g = gcd(n, self.q)
            return str(n // g) if g == self.q else f"{n // g}/{self.q // g}"
        core = f"{self.a}+{self.b}*sqrt({self.D})" if self.b != 1 else f"{self.a}+sqrt({self.D})"
        return f"({core})/{self.q}" if self.q != 1 else f"({core})"

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "D": self.D, "q": self.q,
                "decimal": self.decimal()}


def _surd_ceil(a: int, b: int, D: int, q: int) -> int:
    """ceil((a + b sqrt(D)) / q): QuadraticSurd.ceil, and the ceiling
    jr_verdict checks without building alpha."""
    # b sqrt(D) lies in [s, s+1) with s = isqrt(b^2 D), and b^2 D is
    # a square iff b = 0 or D is one, so one isqrt decides rationality.
    # An irrational value lies strictly between (a+s)/q and
    # (a+s+1)/q, and no integer does.
    n = b * b * D
    s = isqrt(n)
    if s * s == n:
        return -(-(a + s) // q)
    return (a + s) // q + 1


def _surd_decimal(a: int, b: int, D: int, q: int, digits: int) -> str:
    """QuadraticSurd.decimal, and the bound a scan row prints without
    building a surd."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scale = 10**digits
    a, n = a * scale, b * b * D * scale * scale
    root = isqrt(n)
    # a + sqrt(n) lies in [a + root, a + root + 1), at its left end iff
    # n = root^2, and no multiple of q lies inside an open unit interval.
    negative = a < 0 and a * a > n
    magnitude = (-a - root - (root * root < n) if negative else a + root) // q
    whole, frac = divmod(magnitude, scale)
    point = f".{str(frac).zfill(digits)}" if digits else ""
    return f"{'-' if negative else ''}{whole}{point}"


def alpha_surd(nu: int) -> QuadraticSurd:
    """alpha = (1 + sqrt(1 + 4 nu)) / 2, the positive root of t^2 - t - nu."""
    if nu < 2:
        raise ValueError("nu must be >= 2")
    return QuadraticSurd(1, 1, 1 + 4 * nu, 2)


# ---------------------------------------------------------------------------
# Constructible orders and cosine minimal polynomials


class ConstructibilityDecomposition(namedtuple(
        "ConstructibilityDecomposition", "m two_exponent odd_primes constructible")):
    """m = 2^a * (odd prime powers), with the constructibility verdict.

    two_exponent is a; odd_primes is a sorted tuple of (p, e) pairs.
    constructible is a bool.
    """

    __slots__ = ()


def _phi_from_factors(two_exponent: int, odd_primes: tuple[tuple[int, int], ...]) -> int:
    phi = 2 ** (two_exponent - 1) if two_exponent else 1
    for p, e in odd_primes:
        phi *= p ** (e - 1) * (p - 1)
    return phi


def constructible_order(m: int) -> ConstructibilityDecomposition:
    """Is the regular m-gon (equivalently 2cos(2*pi/m)) constructible?

    Rule (Gauss-Wantzel): each odd prime of m <= COS_M_CAP, found by trial
    division, is a known Fermat prime to the first power. Cross-checked
    against phi(m) being a power of two; disagreement raises InvariantFailure.
    """
    if m < 3:
        raise ValueError("m must be >= 3")
    if m > COS_M_CAP:
        raise ResourceLimitError(f"m capped at {COS_M_CAP}")
    factors = _trial_factors(m)
    two_exp = factors.pop(2, 0)
    odd = tuple(factors.items())
    fermat = known_fermat_primes()
    ok = all(e == 1 and p in fermat for p, e in odd)
    phi = _phi_from_factors(two_exp, odd)
    if ok != (phi & (phi - 1) == 0):
        raise InvariantFailure(f"constructibility rule and phi disagree at m = {m}")
    return ConstructibilityDecomposition(m, two_exp, odd, ok)


def _trial_factors(m: int) -> dict[int, int]:
    """{p: e} for m >= 1, primes ascending, by trial division by every
    integer: once p^2 > rest, rest is 1 or m's largest prime."""
    factors, rest, p = {}, m, 2
    while p * p <= rest:
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
        p += 1
    if rest > 1:
        factors[rest] = 1
    return factors


def _cyclotomic(m: int) -> list[int]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Phi_m(x) = Phi_r(x^(m/r)) with r the radical of m (_trial_factors), and
    Phi_r = N / D (Arnold and Monagan, Math. Comp. 80 (2011)): N is the
    product of the k binomials x^d - 1, d | r, with mu(r/d) = +1 and D
    that of the k' with mu(r/d) = -1. Both are held as their values at
    X = 2^S, each binomial one shift and one subtraction; one exact
    divmod gives Q(X) = N(X) / D(X), a nonzero remainder raises, and
    _unpack reads Q's coefficients off its signed S-bit slots.

    The integer quotient is the polynomial one. N(X) = (D Q)(X), and
    ||D||_1 <= 2^k' (k' binomials of 1-norm 2), so each coefficient of
    D Q is at most 2^k' max|Q|, which is checked to be below 2^(S-1).
    So is each coefficient of N: for r > 1, k = k' and |N_i| <= 2^k <=
    2^k' max|Q| (Q != 0, as N(X) > 0); for r = 1, N = x - 1. Then
    E = N - D Q has coefficients below 2^S in size and E(2^S) = 0, so
    E = 0: its lowest nonzero coefficient would be a multiple of 2^S.

    S (_quotient_bits) makes that check hold for the true Phi_r. As a
    power series, 1/D = +-prod_d sum_t x^(d t), whose coefficient of
    x^n counts the solutions of sum_d d t_d = n, at most the
    C(n + k' - 1, k' - 1) ways to write n as k' ordered parts; with
    ||N||_1 <= 2^k, |Phi_r| has coefficients at most
    2^k C(deg + k' - 1, k' - 1).
    """
    divisors = [(1, 1)]  # (d, mu(d)) over the squarefree divisors of m
    for p in _trial_factors(m):
        divisors += [(d * p, -mu) for d, mu in divisors]
    r, mu_r = divisors[-1]  # mu(r/d) = mu(r) * mu(d) for squarefree r
    ups = [d for d, mu in divisors if mu == mu_r]
    downs = [d for d, mu in divisors if mu != mu_r]
    degree = sum(ups) - sum(downs)
    width = _quotient_bits(degree, len(ups), len(downs))
    top = bottom = 1
    for d in ups:
        top = (top << d * width) - top
    for d in downs:
        bottom = (bottom << d * width) - bottom
    packed, rest = divmod(top, bottom)
    if rest:
        raise InvariantFailure("the cyclotomic product is not divisible by its mu = -1 binomials")
    poly = _unpack(packed, degree + 1, width)
    if poly is None or max(map(abs, poly)) << len(downs) >= 1 << (width - 1):
        raise InvariantFailure("cyclotomic quotient exceeds its Kronecker slot bound")
    stride = m // r
    out = [0] * (stride * degree + 1)
    out[::stride] = poly
    return out


def _quotient_bits(degree: int, ups: int, downs: int) -> int:
    """Kronecker slot width S for _cyclotomic: the least _slot_width
    with 2^(S-1) > 2^(ups + downs) C(degree + downs - 1, downs - 1)."""
    spread = comb(degree + downs - 1, downs - 1) if downs else 1
    return _slot_width(ups + downs + spread.bit_length() + 1)


def _slot_bits(half: int, weight: int) -> int:
    """Kronecker slot width W for _palindrome_to_cos: the least
    _slot_width with W >= half + bits(weight) + 2, weight = sum |a_k|."""
    return _slot_width(half + weight.bit_length() + 2)


def _slot_width(bits: int) -> int:
    """The least width >= bits that _unpack takes: 8, 16, 32 or 64,
    whose slots one struct call reads, or past 64 a multiple of 8."""
    if bits <= 64:
        return max(8, 1 << (bits - 1).bit_length())
    return (bits + 7) // 8 * 8


def _unpack(packed: int, fields: int, width: int) -> list[int] | None:
    """The b_0..b_(fields-1) in [-2^(W-1), 2^(W-1)) with packed =
    sum_j b_j 2^(j W), W = width a multiple of 8; None if there are none.

    Adding 2^(W-1) to every slot makes each a nonnegative W-bit field,
    and a biased total outside [0, 2^(fields W)) does not fit the slots.
    Flipping each field's top bit back leaves b_j in W-bit two's
    complement: one struct call reads them all for W = 8, 16, 32 or 64,
    int.from_bytes one slot at a time for any other W.
    """
    size = width // 8
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * fields, "little")
    biased = packed + bias
    if biased < 0 or biased.bit_length() > fields * width:
        return None
    raw = (biased ^ bias).to_bytes(fields * size, "little")
    code = _SIGNED_FORMATS.get(size)
    if code:
        return list(unpack(f"<{fields}{code}", raw))
    return [
        int.from_bytes(raw[i : i + size], "little", signed=True)
        for i in range(0, fields * size, size)
    ]


def _palindrome_to_cos(coeffs: list[int]) -> list[int]:
    """Convert a palindromic Phi_m into the minimal polynomial of 2cos(2*pi/m).

    With x^d * Phi evaluated at x + 1/x, the substitution y = x + 1/x
    turns x^k + x^-k into the Chebyshev-like basis V_k(y), V_0 = 2,
    V_1 = y, V_k = y V_{k-1} - V_{k-2}, and the result
    a_0 + sum_k a_k V_k, a_k = coeffs[half + k], is monic of degree
    half = deg(Phi)/2.

    The basis change runs on packed ints (Kronecker substitution): a
    polynomial sum b_j y^j is held as its value at y = 2^W. Clenshaw's
    recurrence b_k = a_k + y b_(k+1) - b_(k+2), for k = half..1 from
    b_(half+1) = b_(half+2) = 0, gives sum_(k>=0) a_k V_k =
    2 a_0 + y b_1 - 2 b_2, so the result is a_0 + y b_1 - 2 b_2: a shift,
    an addition and a subtraction per step, and no product. Each b_k is
    an exact integer whatever its coefficients, so only the result has
    to fit the slots. The coefficient sizes of V_k sum to the Lucas
    number L_k <= 2^k (k >= 1), so every output coefficient has
    |c_j| <= 2^half * sum |a_k| < 2^(W-2) with W from _slot_bits; a
    total that _unpack cannot fit into half + 1 slots has overflowed
    and raises.
    """
    degree = len(coeffs) - 1
    if degree % 2 or coeffs != coeffs[::-1]:
        raise InvariantFailure("expected a palindromic polynomial of even degree")
    half = degree // 2
    a = coeffs[half:]
    width = _slot_bits(half, sum(map(abs, a)))
    b1 = b2 = 0
    for c in a[:0:-1]:
        b1, b2 = c + (b1 << width) - b2, b1
    out = _unpack(a[0] + (b1 << width) - 2 * b2, half + 1, width)
    if out is None:
        raise InvariantFailure("cosine coefficients overflow their Kronecker slots")
    if out[-1] != 1:
        raise InvariantFailure("cosine polynomial is not monic")
    return out


def _cos_minpoly_prime(m: int, p: int) -> list[int]:
    """Minimal polynomial of 2cos(2*pi/m) for m = p or m = 2p, p an odd prime.

    With h = (p - 1)/2, the closed form of Watkins and Zeitlin (Amer.
    Math. Monthly 100 (1993)) is

        Psi_p(y) = sum_i (-1)^floor((h-i)/2) * C(floor((h+i)/2), i) * y^i,

    the Chebyshev polynomial W_h of the fourth kind in y = 2cos(theta).
    Phi_2p(x) = Phi_p(-x) and -y = (-x) + 1/(-x), so
    Psi_2p(y) = (-1)^h Psi_p(-y): coefficient i changes sign iff h - i
    is odd. That is h + 1 binomials and no cyclotomic polynomial.

    Checked: y = 2 is x = 1, so Psi_m(2) = Phi_m(1), which is p for
    m = p and Phi_p(-1) = 1 for m = 2p.
    """
    h = p // 2
    # Coefficient h - j, highest first: floor((h+i)/2) = h - ceil(j/2),
    # and the sign repeats with period 4 in j.
    signs = cycle((1, -1, -1, 1) if m != p else (1, 1, -1, -1))
    out = [s * comb(h - (j + 1) // 2, h - j) for s, j in zip(signs, range(h + 1))]
    value = 0
    for c in out:
        value = 2 * value + c
    if value != (p if m == p else 1):
        raise InvariantFailure(f"closed-form cosine polynomial has Psi_m(2) != Phi_m(1) at m = {m}")
    out.reverse()
    return out


def cos_minpoly(m: int) -> list[int]:
    """Minimal polynomial (ascending coefficients) of 2cos(2*pi/m).

    m = 2^e takes the closed form of _cos_minpoly_pow2; m = p and m = 2p,
    p an odd prime, take that of _cos_minpoly_prime; every other m
    converts Phi_m. Degree phi(m)/2, checked on every route. m is capped
    at COS_M_CAP; use the nested radical checker for the power-of-two
    tail beyond it.
    """
    if m < 3:
        raise ValueError("m must be >= 3")
    if m > COS_M_CAP:
        raise ResourceLimitError(f"m capped at {COS_M_CAP}")
    factors = _trial_factors(m)
    two_exp = factors.pop(2, 0)
    odd = tuple(factors.items())
    if not odd:
        out = _cos_minpoly_pow2(two_exp)
    elif two_exp <= 1 and len(odd) == 1 and odd[0][1] == 1:
        out = _cos_minpoly_prime(m, odd[0][0])
    else:
        out = _palindrome_to_cos(_cyclotomic(m))
    if len(out) - 1 != _phi_from_factors(two_exp, odd) // 2:
        raise InvariantFailure("cosine polynomial has the wrong degree")
    return out


def _cos_minpoly_pow2(e: int) -> list[int]:
    """Minimal polynomial of 2cos(2*pi/2^e) for e >= 2, uncapped.

    Phi_{2^e} = x^(2h) + 1 with h = 2^(e-2), and x^-h Phi_{2^e} =
    x^h + x^-h = V_h(x + 1/x), whose coefficients have a closed form:

        V_h(y) = sum_k (-1)^k * h/(h-k) * C(h-k, k) * y^(h-2k).

    Successive coefficients differ by the factor
    -(h-2k)(h-2k-1) / ((k+1)(h-k-1)), and each division is exact, so
    this takes O(h) integer steps. It skips the divisor ladder and the
    h-step packed Chebyshev recurrence of _palindrome_to_cos, and it
    has no cap, so nested_radical_check uses it past COS_M_CAP.
    """
    if e < 2:
        raise ValueError("e must be >= 2")
    h = 2 ** (e - 2)
    out = [0] * (h + 1)
    a = 1
    for k in range(h // 2):
        out[h - 2 * k] = a
        a = -a * (h - 2 * k) * (h - 2 * k - 1) // ((k + 1) * (h - k - 1))
    out[h % 2] = a
    return out


# ---------------------------------------------------------------------------
# Nested radicals s_1 = sqrt(2), s_k = sqrt(2 + s_{k-1})


def _radical_symbolic_check(poly: list[int], d: int) -> bool:
    """True iff poly vanishes at s_{d-1} in the exact tower ring.

    Z[s_1..s_(d-1)], with s_1^2 = 2 and s_k^2 = 2 + s_(k-1), is free of
    rank 2^(d-1) on the square-free monomials. x -> s_(d-1) maps Z[x]
    onto it, since s_k = P_(d-1-k)(s_(d-1)) for the iterates P_n of
    t^2 - 2, and it kills P_(d-1), since P_(d-1)(s_(d-1)) = s_1^2 - 2.
    Z[x]/(P_(d-1)) is free of rank 2^(d-1) too, and a surjection between
    free Z-modules of equal rank is an isomorphism. So poly vanishes in
    the tower ring iff P_(d-1) divides it; for the monic poly of degree
    2^(d-1) checked here, iff poly == P_(d-1).
    """
    return poly == iterate_poly(2, d - 1)


def _radical_recurrence_check(poly: list[int]) -> bool:
    """True iff poly, monic of degree h, is 2 T_h(x/2), whose c_j obey
    4 (j+2)(j+1) c_(j+2) = (j^2 - h^2) c_j (Chebyshev's equation): with
    c_h = 1 and c_(h+1) = 0 that fixes every c_j, and 2 T_h(2cos(x)/2) =
    2cos(hx) vanishes at s_(d-1) = 2cos(pi/2^d) for h = 2^(d-1)."""
    h = len(poly) - 1
    return not any(poly[h - 1::-2]) and all(
        4 * (j + 2) * (j + 1) * poly[j + 2] == (j * j - h * h) * poly[j]
        for j in range(h - 2, -1, -2))


def _radical_numeric_check(poly: list[int], d: int) -> bool:
    """Fixed-point check that poly annihilates s_{d-1}, made at s'.

    s_(d-1) = 2cos(pi/2^d) and s' = sqrt(2 - s_(d-2)) = 2sin(pi/2^d),
    the root nearest 0 (below rho = 2^(3-d), as sin x < x), are roots of
    P_(d-1), Eisenstein at 2: poly has an exact zero at one iff at the
    other. needed = B + 2 bits(L) + 2d + 160 for L = len(poly) and B =
    max(0, bits(c_j) + (3-d) j over nonzero c_j), so W' = sum |c_j| rho^j
    < L 2^B and _radical_value's error 4^(d-1) L (W' + 1) is below 2^-161.
    Accepts iff the value is below 2^-100: blind to a change of 1 or 2 in
    c_j once s'^j < 2^-100 (j > 10 at d = 12), which the recurrence sees.
    """
    top = max([0] + [c.bit_length() + (3 - d) * j for j, c in enumerate(poly) if c])
    needed = top + 2 * len(poly).bit_length() + 2 * d + 160
    return abs(_radical_value(poly, d, needed)) < 1 << (needed - 100)


def _radical_value(poly: list[int], d: int, prec: int) -> int:
    """poly(s') * 2^prec in integer fixed point, s' = sqrt(2 - s_(d-2)).

    s_0 = 0 and s_k = sqrt(2 + s_(k-1)) come from isqrt, rounded down,
    t = s'^2 = 2 - s_(d-2) from one subtraction, s' from one more isqrt;
    then poly = E(t) + s' O(t), each half by Horner in t.

    Error bound, in ulp = 2^-prec, for any integers c_j, d in
    2..NESTED_RADICAL_CAP and prec >= 2d + 100, with L = len(poly),
    D = L - 1, rho = 2^(3-d), r = rho^2 and W' = sum_j |c_j| rho^j.
    1. s_k - s~_k <= 2, as sqrt(2 + x) has slope below 1/2 for x >= 0.
       So e = t~ - t lies in [0, 2) (0 for d = 2), and t <= t~ <= r,
       as t = 4 sin^2(pi/2^d) <= (pi^2/16) r.
    2. s' >= 2^(2-d), as sin x >= 2x/pi on [0, pi/2], so
       |s' - s~'| <= max(1, e / (2 s')) <= 2^(d-2).
    3. Horner over A(t) = sum_(i<n) a_i t^i sets acc_j =
       floor(acc_(j+1) t~) + a_j, whose error against sum_(i>=j) a_i
       t^(i-j) is at most t~ times the one before, plus e |A_(j+1)(t)|,
       plus a floor loss below 1 only below the top nonzero index J.
       Unrolled, with S_A = sum_i |a_i| r^i and i <= D/2, that is at
       most 2 sum_i i |a_i| r^(i-1) + sum_(j<J) t~^j <= (D/r + 1) S_A
       + D/2, as t~ <= r <= 1 for d >= 3 and 2^J <= S_A for d = 2.
    4. S_E = W'_E, the even-index part of W'; S_O = W'_O / rho >= |O(t)|.
       s' O - floor(s~' O~) is at most s' |O - O~| + |s' - s~'| (|O| +
       |O - O~| ulp) + 1, with s' <= rho <= 2 and 2^(d-2) / rho = 2 / r.
    Summed, with 1/r = 4^(d-3), the error is at most
    (2L/r + 2) W' + 3D/2 + 2 <= 4^(d-1) L (W' + 1).
    """
    s = 0
    for _ in range(d - 2):
        s = isqrt(((2 << prec) + s) << prec)
    t = (2 << prec) - s
    root = isqrt(t << prec)

    def horner(coeffs: list[int]) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * t >> prec) + (c << prec)
        return acc

    return horner(poly[0::2]) + (root * horner(poly[1::2]) >> prec)


def nested_radical_check(d: int) -> bool:
    """Verify 2cos(2*pi/2^(d+1)) = s_{d-1}, the d-1 times nested radical.

    The cosine's minimal polynomial, built exactly, must be monic of
    degree 2^(d-1), that of s_(d-1), so no proper multiple passes; vanish
    at s', the conjugate nearest 0, at 4d + 163 bits; equal the iterate
    P_(d-1) of t^2 - 2 for d <= ITERATE_CAP + 1; and obey the Chebyshev
    recurrence in every coefficient, or InvariantFailure is raised.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if d > NESTED_RADICAL_CAP:
        raise ResourceLimitError(f"d capped at {NESTED_RADICAL_CAP}")
    poly = _cos_minpoly_pow2(d + 1)
    if len(poly) != (1 << (d - 1)) + 1 or poly[-1] != 1:
        raise InvariantFailure(f"radical polynomial is not monic of degree 2^{d - 1}")
    if not _radical_numeric_check(poly, d):
        raise InvariantFailure(f"numeric radical check failed at d = {d}")
    if d <= ITERATE_CAP + 1 and not _radical_symbolic_check(poly, d):
        raise InvariantFailure(f"symbolic radical check failed at d = {d}")
    if not _radical_recurrence_check(poly):
        raise InvariantFailure(f"recurrence radical check failed at d = {d}")
    return True


# ---------------------------------------------------------------------------
# Per-prime obstruction chains


class FermatObstruction(namedtuple("FermatObstruction", "nu p status reason",
                                   defaults=(None,))):
    """Exclusion chain for one Fermat prime p > 3 against the tower of nu.

    status "excluded" certifies 2cos(2*pi/p) (hence the p-th component
    of any constructible cosine) never enters the tower ring; chain
    lists the verified steps in order. status "inconclusive" carries
    the reason (nu is a residue, or p divides nu), and chain is ().
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.status == EXCLUDED

    @property
    def chain(self) -> tuple[str, ...]:
        """The exclusion steps as text, rendered from (nu, p, status) on
        read: a verdict that is not printed formats none."""
        if self.status != EXCLUDED:
            return ()
        nu, p = self.nu, self.p
        return (
            f"jacobi({nu}, {p}) = -1: nu is not a square modulo {p}",
            f"the orbit of 0 under t^2 - {nu} modulo {p} never vanishes, "
            f"so {p} divides no c_n",
        ) + _chain_tail(p)


def fermat_obstruction(nu: int, p: int) -> FermatObstruction:
    """Run the exclusion chain for the Fermat prime p > 3.

    Requires tower strictness, which the gap lemma decides at every
    depth from nu alone (see orbit.Strictness). The chain hinges on
    jacobi(nu, p) = -1, from which p divides no c_n: p | c_1 = nu
    would make the symbol 0, and p | c_n with n >= 2 would give
    c_{n-1}^2 = nu (mod p), so nu would be a square mod p. A -1 from
    jacobi is checked again by Euler's criterion (see residue._euler_guard).
    """
    if p not in _fermat_primes_above_3():
        raise ValueError(f"p = {p} is not a known Fermat prime greater than 3")
    if nu < 2:
        raise ValueError("nu must be an integer >= 2")
    if is_square(nu):
        raise PreconditionError(f"tower over nu = {nu} is not strict: c_1 is a square")
    j = jacobi(nu, p)
    if j == -1:
        _euler_guard(nu, p)
    return _obstruction_chain(nu, p, j)


def _obstruction_chain(nu: int, p: int, j: int) -> FermatObstruction:
    """fermat_obstruction for a strict nu and a Pepin-certified p > 3,
    given the symbol j = (nu|p), from jacobi (checked by its caller) or
    from residue.fermat_symbols, which is Euler's criterion itself."""
    if j != -1:
        return FermatObstruction(nu, p, INCONCLUSIVE, _inconclusive_reason(p, j))
    return FermatObstruction(nu, p, EXCLUDED)


def _inconclusive_reason(p: int, j: int) -> str:
    """Why the chain for p stops at a symbol j = (nu|p) of 0 or 1."""
    return f"p = {p} divides nu" if j == 0 else f"nu is a quadratic residue mod {p}"


def _chain_tail(p: int) -> tuple[str, ...]:
    """The steps of an exclusion chain that depend on p alone."""
    return (
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


# ---------------------------------------------------------------------------
# The hypothesis and the verdict


# The theorem's shape hypotheses on nu, in the order they are checked
# and reported.
CLAUSE_NAMES = (
    "even positive 2-adic valuation",
    "odd part at least 3",
    "nu is not a perfect square",
    "Fermat-prime non-residue certificate",
)


def hypothesis_check(nu: int) -> tuple:
    """Decide the theorem's shape hypotheses on nu (CLAUSE_NAMES) from nu
    alone, factoring nothing, and return the key of jr_verdict:
    (outcomes, symbols, kernel_basis), kernel_basis None unless every
    symbol is -1 and nu is 3 or 7 times a square.

    The guards of the records the key stands for run here, once each,
    and no record is built: the 2-adic split nu = 2^v * mu of
    TowerParams and the two checks of a ResidueCertificate. The split
    check also proves nu = 2^v (mod 2^(v+1)), the base case of
    sqrt2_free_certificate's guard, whose step is an identity. Each
    symbol is Euler's criterion (residue.fermat_symbols), which is the
    check a -1 needs, and the kernel of a universal scope is checked by
    _check_kernel.
    """
    if nu < 2:
        raise ValueError("nu must be an integer >= 2")
    v, mu = split_two_part(nu)
    _check_decomposition(nu, v, mu)
    strict = not is_square(nu)
    symbols = fermat_symbols(nu)
    certified = symbols.count(-1) == len(symbols)
    kernel_basis = _kernel_basis(nu) if certified else None
    if kernel_basis is not None:
        _check_kernel(nu, kernel_basis)
    outcomes = (v >= 2 and v % 2 == 0, mu >= 3, strict, certified)
    return outcomes, symbols, kernel_basis


# The floor rule used in VerdictReport.statements: every ring of totally
# positive algebraic integers has JR number at least 4, and JR = 4
# attained forces conjugate sets filling [0, 4] arbitrarily densely,
# which only the constructible-cosine family provides here.
_KRONECKER_NOTE = (
    "any JR number of a totally positive ring is >= 4, and an attained 4 "
    "needs infinitely many constructible cosine elements below every "
    "t > 4; the certified exclusions leave only finitely many"
)


class VerdictReport(namedtuple("VerdictReport", "nu outcomes symbols effort "
                               "kernel_basis")):
    """The JR classification of one nu at every level: the key that
    hypothesis_check returns and the effort that bounds mu_not_squarefree.
    outcomes holds a bool for each clause of CLAUSE_NAMES, whether it
    passed, in that order; symbols holds the int (nu|p) for the known
    Fermat primes p > 3, in order, by Euler's criterion; kernel_basis is
    the universal residue kernel, 3 or 7, else None.

    Everything else renders from the key on read: the conclusion, the
    finite-scope caveat, the clauses, the scope, failed_prime,
    strictness, the sqrt(2) verdict and reason, mu_not_squarefree (the
    one fact that reads effort), the FermatObstruction records, the
    reasons, alpha, jr_upper and the statements; tower_params(nu) and
    residue_certificate(nu) build the records.
    """

    __slots__ = ()

    @property
    def conclusive(self) -> bool:
        """The theorem applies iff the hypothesis passes, the tower is
        strict, sqrt(2) is certified absent and every obstruction is
        excluded. The tower is strict iff outcomes[2] (the gap lemma),
        sqrt(2) certified iff outcomes[0..2] (see sqrt2_certified) and an
        obstruction excluded iff its symbol is -1, as outcomes[3] asks."""
        return all(self.outcomes)

    @property
    def conclusion(self) -> str:
        return THEOREM_APPLIES if self.conclusive else INCONCLUSIVE

    @property
    def finite_scope_caveat(self) -> bool:
        """The theorem applies, but the residue certificate covers only
        the known Fermat primes."""
        return self.conclusive and self.kernel_basis is None

    @property
    def hypothesis(self) -> VerdictReport:
        """The report itself, which renders the hypothesis section."""
        return self

    @property
    def clauses(self) -> tuple[tuple[str, bool], ...]:
        return tuple(zip(CLAUSE_NAMES, self.outcomes))

    @property
    def scope(self) -> str | None:
        """The residue certificate's scope: None when it failed."""
        if not self.outcomes[3]:
            return None
        return "finite" if self.kernel_basis is None else "universal"

    @property
    def failed_prime(self) -> int | None:
        """The least Fermat prime p > 3 with (nu|p) != -1, or None."""
        return None if self.outcomes[3] else _first_failure(self.symbols)[0]

    @property
    def mu_not_squarefree(self) -> bool | None:
        """Whether mu has a square factor, None if undecided within effort."""
        return _has_square_factor(split_two_part(self.nu)[1], self.effort)

    @property
    def strict(self) -> bool:
        """No c_n is a square: by the gap lemma, nu is not one."""
        return self.outcomes[2]

    @property
    def strict_witness(self) -> int | None:
        return None if self.strict else 1

    @property
    def sqrt2_certified(self) -> bool:
        """sqrt(2) lies in no level: by the 2-adic argument (see
        sqrt2_free_certificate), iff v2(nu) is even and at least 2,
        mu >= 3 and nu is not a square, the first three clauses."""
        return self.outcomes[0] and self.outcomes[1] and self.outcomes[2]

    @property
    def sqrt2_reason(self) -> str | None:
        """Why sqrt2_free_certificate refuses nu, or None. Only a refused
        shape reads _sqrt2_reason, so no 2-adic guard runs on read."""
        if self.sqrt2_certified:
            return None
        return _sqrt2_reason(*split_two_part(self.nu), not self.outcomes[2])

    @property
    def alpha(self) -> QuadraticSurd:
        return alpha_surd(self.nu)

    @property
    def jr_upper(self) -> QuadraticSurd:
        """ceil(alpha) + alpha, the upper end of the JR interval."""
        alpha = self.alpha
        return alpha.shifted(alpha.ceil())

    @property
    def jr_upper_decimal(self) -> str:
        """jr_upper.decimal(6), from its integers (1 + 2c, 1, D, 2) with
        D = 1 + 4 nu and c = ceil(alpha), so no surd is built."""
        D = 1 + 4 * self.nu
        return _surd_decimal(1 + 2 * _surd_ceil(1, 1, D, 2), 1, D, 2, 6)

    @property
    def obstructions(self) -> tuple[FermatObstruction, ...]:
        """One exclusion chain per known Fermat prime p > 3, or () when
        the tower is not strict."""
        if not self.strict:
            return ()
        return tuple(
            _obstruction_chain(self.nu, p, j)
            for p, j in zip(_fermat_primes_above_3(), self.symbols)
        )

    @property
    def reasons(self) -> tuple[str, ...]:
        """The failed checks as text: () iff the report is conclusive."""
        return _reasons(self.outcomes, self.sqrt2_reason,
                        self.symbols if self.strict else ())

    @property
    def statements(self) -> tuple[str, ...]:
        """What the theorem asserts for nu, or () when it does not apply."""
        if not self.conclusive:
            return ()
        scope_note = (" (conditional on no unknown Fermat prime violating the "
                      "residue condition)" if self.finite_scope_caveat else "")
        bound = self.jr_upper_decimal
        return (
            "the set of totally positive window bounds is not {+inf}: "
            f"infinitely many n + alpha lie below {bound}",
            "the window set is not [4, +inf): all but finitely many "
            "constructible cosines are excluded from the ring" + scope_note,
            f"the JR number lies in [4, {bound}]",
            "if the JR number equals 4 it is not attained as a minimum; "
            + _KRONECKER_NOTE,
        )

    def to_json(self) -> dict:
        return {
            "nu": self.nu,
            "hypothesis": {
                "clauses": [[name, ok] for name, ok in self.clauses],
                "scope": self.scope,
                "failed_prime": self.failed_prime,
                "mu_not_squarefree": self.mu_not_squarefree,
            },
            "strict": self.strict,
            "strict_witness": self.strict_witness,
            "sqrt2_certified": self.sqrt2_certified,
            "sqrt2_reason": self.sqrt2_reason,
            "obstructions": [
                {"p": ob.p, "status": ob.status, "reason": ob.reason,
                 "chain": list(ob.chain)}
                for ob in self.obstructions
            ],
            "alpha": self.alpha.to_json(),
            "jr_upper": self.jr_upper.to_json(),
            "conclusion": self.conclusion,
            "reasons": list(self.reasons),
            "statements": list(self.statements),
            "finite_scope_caveat": self.finite_scope_caveat,
        }


# No reason names nu, and the key takes at most 16 * 5 * (3^4 + 1)
# values, so a scan renders each distinct list of reasons once.
@lru_cache(maxsize=None)
def _reasons(outcomes: tuple[bool, ...], sqrt2_reason: str | None,
             symbols: tuple[int, ...]) -> tuple[str, ...]:
    """VerdictReport.reasons from its key; symbols is () when not strict,
    and then the gap lemma's witness is c_1."""
    reasons = [f"hypothesis failed: {name}"
               for name, ok in zip(CLAUSE_NAMES, outcomes) if not ok]
    if not outcomes[2]:
        reasons.append("tower not strict: c_1 is a perfect square")
    if sqrt2_reason is not None:
        reasons.append(f"sqrt(2) exclusion not certified: {sqrt2_reason}")
    for p, j in zip(_fermat_primes_above_3(), symbols):
        if j != -1:
            reasons.append(f"Fermat prime {p} not excluded: {_inconclusive_reason(p, j)}")
    return tuple(reasons)


def jr_verdict(nu: int, depth: int = 5, effort: Effort = EFFORT_DEFAULT) -> VerdictReport:
    """Combine every check into the final classification for nu.

    conclusion "theorem-applies" asserts: the JR number of the tower
    ring lies in [4, ceil(alpha) + alpha], is strictly above 4 or not
    attained at 4, and the totally-positive window set is neither
    {+inf} nor [4, +inf). Anything unproven yields "inconclusive" with
    the failing checks named.

    Its cost does not grow with depth: strictness and the sqrt(2)
    guard hold at every level by short proofs that read nu alone (see
    orbit.Strictness and sqrt2_free_certificate), so no orbit constant
    is built. depth is range-checked and names nothing: the report
    decides every level at once.

    The report holds effort and the key hypothesis_check decides
    from nu alone; it is the one record a verdict builds. The rest
    renders on read (see VerdictReport), and effort bounds only
    mu_not_squarefree. The one guard left here is the bound's floor 4.
    """
    if depth < 1 or depth > SEQUENCE_CAP:
        raise ResourceLimitError(f"depth must be between 1 and {SEQUENCE_CAP}")
    # Looked up as a module global, so that a wrapper installed on
    # verdict.hypothesis_check (bench/spans.py) times every decision.
    outcomes, symbols, kernel_basis = hypothesis_check(nu)
    # With c = ceil(alpha), the x_n + c are infinitely many distinct
    # totally positive ring elements with conjugates inside
    # (c - alpha, c + alpha), since every conjugate of x_n lies in
    # (-alpha, alpha). So the JR number is at most c + alpha, the
    # jr_upper a report renders on read from alpha_surd(nu), whose
    # (a, b, D, q) is (1, 1, 1 + 4 nu, 2). The floor 4 is checked here,
    # on the same c from the same _surd_ceil, in integers and exactly:
    # with s = isqrt(D), c + alpha >= 4 iff sqrt(D) >= 7 - 2c. The right
    # side is an integer, and sqrt(D) >= k iff s >= k for an integer k,
    # so that holds iff 2c + 1 + s >= 8.
    D = 1 + 4 * nu
    if 2 * _surd_ceil(1, 1, D, 2) + 1 + isqrt(D) < 8:
        raise InvariantFailure("JR upper bound fell below the floor 4")
    return VerdictReport(nu, outcomes, symbols, effort, kernel_basis)


# ---------------------------------------------------------------------------
# Window enumeration


def window_elements_deg2(nu: int, t) -> list[tuple[int, int]]:
    """Elements a + b sqrt(nu) of Z[sqrt(nu)] with both conjugates in (0, t).

    Z[sqrt(nu)] can be smaller than the ring of integers of Q(sqrt(nu)),
    so this can miss ring elements: 2 + sqrt(3) at nu = 12, for one.
    t may be an int or a Fraction; comparisons are exact. b >= 0 (the
    (a, -b) twin gives the same conjugate pair); the window bounds both
    coordinates: the conjugates sum to 2a, so 0 < a < t, and differ by
    2b sqrt(nu) < t. Row b's lower end never falls and its upper end never
    rises as b grows, so the walk stops at the first empty row. Returns
    (a, b) pairs sorted by (b, a), at most WINDOW_CAP of them.
    """
    from fractions import Fraction

    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    if nu < 2:
        raise ValueError("nu must be >= 2")
    p, q = t.numerator, t.denominator
    out = []
    for b in count():
        bb = b * b * nu
        # a - b sqrt(nu) > 0 iff a > isqrt(bb); a + b sqrt(nu) < t iff the
        # integer p - a q exceeds q sqrt(bb), i.e. reaches isqrt(bb q^2) + 1.
        lo = isqrt(bb) + 1
        hi = (p - isqrt(bb * q * q) - 1) // q
        if hi < lo:
            return out
        if len(out) + hi - lo + 1 > WINDOW_CAP:
            raise ResourceLimitError(f"window output capped at {WINDOW_CAP} pairs")
        out.extend((a, b) for a in range(lo, hi + 1))
