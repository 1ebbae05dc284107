"""Critical orbit of f(t) = t^2 - nu and the tower constants built from it.

The tower is x_1 = sqrt(nu), x_{k+1} = sqrt(nu + x_k); its defining
polynomials are the iterates P_n = f applied n times to t, and the
integers steering everything downstream are the critical-orbit values
c_n = -P_n evaluated at 0 for n = 1 and the forward orbit of nu under
t -> t^2 - nu afterwards:

    c_1 = nu,   c_{n+1} = c_n^2 - nu.

The companion sequence ell_n (squared norms of x_n shifted by nu) obeys
ell_1 = nu^2, ell_n = (ell_{n-1} - nu)^2 and satisfies ell_n = c_n^2.
"""

from __future__ import annotations

from collections import namedtuple

from . import intmath
from .errors import InvariantFailure, ResourceLimitError
from .intmath import is_prime, is_square, split_two_part

# Dense iterates have degree 2^n; keep them readable at a desk. The cap
# also bounds the nested radicals checked symbolically (d - 1 <= cap),
# since that check compares with iterate_poly(2, d - 1).
ITERATE_CAP = 6
# Orbit constants square in size each step; c_12 of a two-digit nu
# already has a few thousand digits. The cap bounds the orbits that are
# built for display and oracles, and the depth a verdict reports: no
# verdict builds an orbit (see Strictness and sqrt2_free_certificate).
SEQUENCE_CAP = 12
# Brent's walk mod p takes O(sqrt p) steps for a typical nu and at most
# about 3p, under 2^18 mod a Fermat prime. No verdict walks (its
# obstruction chains use Euler's criterion); the cap stops orbit_mod_p
# on a huge p instead of running for ever.
ORBIT_STEP_CAP = 2**24


class TowerParams(namedtuple("TowerParams", "nu two_adic_valuation mu is_square")):
    """2-adic decomposition nu = 2^v * mu with mu odd: the ints nu,
    two_adic_valuation = v and mu, and the bool is_square of nu."""

    __slots__ = ()

    def __new__(cls, nu, two_adic_valuation, mu, is_square):
        if nu < 2:
            raise ValueError("nu must be an integer >= 2")
        _check_decomposition(nu, two_adic_valuation, mu)
        # The field shadows the function: this is intmath.is_square.
        if is_square != intmath.is_square(nu):
            raise InvariantFailure(f"square flag {is_square} is wrong for nu = {nu}")
        return super().__new__(cls, nu, two_adic_valuation, mu, is_square)


def _check_decomposition(nu: int, v: int, mu: int) -> None:
    """Raise unless nu = 2^v * mu with mu odd: TowerParams' check, which
    verdict.hypothesis_check runs on its split of nu without building
    the record."""
    if 2**v * mu != nu or mu % 2 == 0:
        raise InvariantFailure("broken 2-adic decomposition")


def tower_params(nu: int) -> TowerParams:
    if nu < 2:
        raise ValueError("nu must be an integer >= 2")
    v, mu = split_two_part(nu)
    return TowerParams(nu, v, mu, is_square(nu))


class OrbitSequence(namedtuple("OrbitSequence", "nu c ell")):
    """First N orbit constants c_n and companions ell_n, exact: c and
    ell are tuples of N ints."""

    __slots__ = ()

    def __new__(cls, nu, c, ell):
        if len(ell) != len(c):
            raise InvariantFailure(f"c and ell differ in length: {len(c)} and {len(ell)}")
        if not c or c[0] != nu or ell[0] != nu**2:
            raise InvariantFailure("orbit sequence seeded incorrectly")
        for k in range(1, len(c)):
            if c[k] != c[k - 1] ** 2 - nu:
                raise InvariantFailure(f"c recursion broken at index {k + 1}")
            if ell[k] != (ell[k - 1] - nu) ** 2:
                raise InvariantFailure(f"ell recursion broken at index {k + 1}")
            if c[k] <= 0:
                raise InvariantFailure(f"c not positive at index {k + 1}")
        return super().__new__(cls, nu, c, ell)


def constant_terms(nu: int, N: int) -> OrbitSequence:
    """Compute c_1..c_N and ell_1..ell_N for nu >= 2, N <= SEQUENCE_CAP."""
    if nu < 2:
        raise ValueError("nu must be an integer >= 2")
    if N < 1:
        raise ValueError("need at least one term")
    if N > SEQUENCE_CAP:
        raise ResourceLimitError(f"N = {N} exceeds the cap {SEQUENCE_CAP}")
    c = [nu]
    for _ in range(N - 1):
        c.append(c[-1] ** 2 - nu)
    ell = [nu**2]
    for _ in range(N - 1):
        ell.append((ell[-1] - nu) ** 2)
    return OrbitSequence(nu, tuple(c), tuple(ell))


def iterate_poly(nu: int, n: int) -> list[int]:
    """Dense coefficients (ascending) of the n-th iterate of t^2 - nu.

    Degree 2^n; n is capped at ITERATE_CAP.
    """
    if nu < 2:
        raise ValueError("nu must be an integer >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ITERATE_CAP:
        raise ResourceLimitError(f"n = {n} exceeds the cap {ITERATE_CAP}")
    poly = [-nu, 0, 1]
    for _ in range(n - 1):
        deg = len(poly) - 1
        sq = [0] * (2 * deg + 1)
        for i, a in enumerate(poly):
            if a == 0:
                continue
            for j, b in enumerate(poly):
                sq[i + j] += a * b
        sq[0] -= nu
        poly = sq
    return poly


def orbit_mod_p(nu: int, p: int) -> int | None:
    """Least n with p | c_n, or None if the orbit mod p never hits 0.

    The orbit is eventually periodic: a tail, then a cycle. Brent's
    (1980) cycle detection saves the state at each power-of-two step
    and stops when the walk returns to it; by then the tail and one
    full cycle have been visited, so the walk takes O(tail + cycle)
    steps, not p. p must be prime. Block k takes 2^k steps from the
    state saved before it, so a return to that state shows up within
    the block after the walk enters the cycle. The step cap is checked
    between blocks only: a walk longer than ORBIT_STEP_CAP steps raises
    ResourceLimitError.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    x = saved = nu % p
    if not x:
        return 1
    n, power = 1, 1
    while n < ORBIT_STEP_CAP:
        for k in range(1, power + 1):
            x = (x * x - nu) % p
            if not x:
                return n + k
            if x == saved:
                return None
        saved = x
        n += power
        power *= 2
    raise ResourceLimitError(
        f"the orbit of {nu} modulo {p} ran past {ORBIT_STEP_CAP} steps"
    )


class ValuationProfile(namedtuple("ValuationProfile", "nu p first_index e valuations")):
    """p-adic valuations of c_1..c_N, a tuple of N ints.

    first_index is the least n with p | c_n (None when no term is
    divisible), e the common valuation at the divisible terms. The
    proven pattern is v_p(c_n) = e when first_index | n and 0 otherwise.
    """

    __slots__ = ()


def valuation_profile(seq: OrbitSequence, p: int) -> ValuationProfile:
    """Exact v_p(c_n) for the constants c_1..c_N of seq, with the
    divisibility pattern checked.

    Also checks the congruence c_{q*m+r} = c_r (mod c_m^2) that drives
    the pattern, with m = first_index and c_0 read as 0. Violations of
    either raise InvariantFailure since both are proven identities.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    nu, N = seq.nu, len(seq.c)
    vals = []
    for cn in seq.c:
        v = 0
        while cn % p == 0:
            cn //= p
            v += 1
        vals.append(v)
    first = next((i + 1 for i, v in enumerate(vals) if v > 0), None)
    if first is None:
        return ValuationProfile(nu, p, None, 0, tuple(vals))
    e = vals[first - 1]
    for n in range(1, N + 1):
        expected = e if n % first == 0 else 0
        if vals[n - 1] != expected:
            raise InvariantFailure(
                f"valuation pattern broken at nu={nu}, p={p}, n={n}: "
                f"v_p = {vals[n - 1]}, expected {expected}"
            )
    modulus = seq.c[first - 1] ** 2
    for n in range(first + 1, N + 1):
        r = n % first
        j = first if r == 0 else r
        # Reducing the iteration mod c_m^2 lands on the j-th iterate of
        # 0, which is -nu at j = 1 (c_1 carries the opposite sign) and
        # c_j for j >= 2.
        target = -nu if j == 1 else seq.c[j - 1]
        if (seq.c[n - 1] - target) % modulus != 0:
            raise InvariantFailure(
                f"orbit congruence broken at nu={nu}, m={first}, n={n}"
            )
    return ValuationProfile(nu, p, first, e, tuple(vals))


class Strictness(namedtuple("Strictness", "nu depth strict witness")):
    """Whether no c_n with n <= N = depth is a perfect square.

    A square c_n collapses the tower degree at level n; witness (int or
    None) is the least such n when not strict. Only c_1 = nu can be a
    square (the gap lemma): for nu >= 2 every c_n >= nu, since
    c_n >= nu >= 2 gives c_{n+1} = c_n^2 - nu >= c_n^2 - c_n >= c_n. Then
    nu <= c_n < 2c_n - 1 puts c_{n+1} strictly between (c_n - 1)^2 and
    c_n^2. So the tower is strict at every depth iff nu is not a square,
    with witness 1 or None: the verdict decides it so by is_square(nu),
    and tower_strict reads the orbit.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.strict


def tower_strict(seq: OrbitSequence) -> Strictness:
    """Check the orbit constants c_1..c_N of seq for perfect squares."""
    for i, cn in enumerate(seq.c):
        if is_square(cn):
            return Strictness(seq.nu, len(seq.c), False, i + 1)
    return Strictness(seq.nu, len(seq.c), True, None)
