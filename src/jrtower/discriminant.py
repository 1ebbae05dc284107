"""Discriminants of the tower's defining polynomials, two ways.

The production route is the recursion

    disc(x_1) = 4 nu,
    disc(x_n) = disc(x_{n-1})^2 * 2^(2^n) * c_n   (n >= 2),

valid while the tower is strict (no c_k a perfect square, so each P_n
is the minimal polynomial of x_n, of degree 2^n). The independent
oracle recomputes disc(P_n) = (-1)^(d(d-1)/2) Res(P_n, P_n') by the
subresultant polynomial remainder sequence (Collins 1967, Brown and
Traub 1971; Cohen, GTM 138, Alg. 3.3.7): O(d^2) exact integer steps,
every division checked to leave no remainder. P_n is monic, so no
leading-coefficient division is needed at the end.

The recursion is the norm ladder folded: N_0 = 4 nu and
N_k = 2^(2^(k+1)) * c_{k+1}, so disc(x_n) = disc(x_{n-1})^2 * N_{n-1},
and one orbit c_2..c_n gives both the ladder and the discriminant.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantFailure, PreconditionError, ResourceLimitError
from .intmath import is_square
from .orbit import SEQUENCE_CAP, constant_terms, iterate_poly

# P_n has degree 2^n; level 4 gives a 15-step remainder sequence whose
# coefficients reach about 400 digits for nu below 10^4. Level 5 would
# take 31 steps past a thousand digits: beyond the point of an oracle.
RESULTANT_CAP = 4


def _exact_quotient(a: int, b: int) -> int:
    """a / b, which the subresultant theory says is exact; a remainder raises."""
    q, r = divmod(a, b)
    if r:
        raise InvariantFailure("a subresultant division leaves a remainder")
    return q


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, with no division.

    Ascending coefficient lists, deg a >= deg b >= 1; the result is
    trimmed, [] for zero.
    """
    lead = b[-1]
    db = len(b) - 1
    r = a[:]
    spare = len(a) - len(b) + 1  # factors of lc(b) still owed
    while len(r) > db:
        top = r.pop()
        shift = len(r) - db
        r = [lead * c for c in r]
        for i, c in enumerate(b[:-1]):
            r[shift + i] -= top * c
        spare -= 1
        while r and r[-1] == 0:
            r.pop()
    scale = lead**spare
    return [scale * c for c in r]


def resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) of integer polynomials (ascending coefficients).

    The subresultant PRS (Cohen, GTM 138, Alg. 3.3.7, without the
    content split): each step replaces (A, B) by
    (B, prem(A, B) / (g h^delta)), delta = deg A - deg B, then sets
    g = lc(B) and h = g^delta / h^(delta - 1). Every division goes
    through _exact_quotient.
    """
    a = a[:]
    b = b[:]
    for p in (a, b):
        while p and p[-1] == 0:
            p.pop()
    if not a or not b:
        return 0
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        divisor = g * h**delta
        a, b = b, [_exact_quotient(c, divisor) for c in r]
        g = a[-1]
        h = _exact_quotient(g**delta, h ** (delta - 1)) if delta else h
    da = len(a) - 1
    return sign * _exact_quotient(b[0] ** da, h ** (da - 1)) if da else sign


def disc_resultant_oracle(nu: int, n: int) -> int:
    """disc(P_n) straight from the definition, independent of the recursion."""
    if n > RESULTANT_CAP:
        raise ResourceLimitError(f"resultant oracle capped at n = {RESULTANT_CAP}")
    poly = iterate_poly(nu, n)
    deriv = [k * poly[k] for k in range(1, len(poly))]
    d = len(poly) - 1
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(poly, deriv)


def norm_sequence(nu: int, n: int) -> list[int]:
    """[N_0, ..., N_n]: the norm factors linking consecutive discriminants.

    N_0 = 4 nu and N_k = 2^(2^(k+1)) * c_{k+1} for k >= 1, so that
    disc(x_{k+1}) = disc(x_k)^2 * N_k.
    """
    if nu < 2:
        raise ValueError("nu must be an integer >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    c = constant_terms(nu, n + 1).c if n else ()
    return [4 * nu] + [2 ** (2 ** (k + 1)) * c[k] for k in range(1, n + 1)]


def _disc_and_ladder(nu: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(disc(x_n), norm_sequence(nu, n - 1)) for a tower strict through
    level n: the ladder folded as d = N_0, then d <- d^2 * N_k.

    Without strictness P_n is not the minimal polynomial of x_n and the
    recursion is meaningless. The gap lemma (see orbit.Strictness)
    decides it at every level: the tower is strict iff nu is not a
    square, so no c_k with k >= 2 is tested for squareness.
    """
    if nu < 2:
        raise ValueError("nu must be an integer >= 2")
    if n < 1:
        raise ValueError("need at least one term")
    if n > SEQUENCE_CAP:
        raise ResourceLimitError(f"N = {n} exceeds the cap {SEQUENCE_CAP}")
    if is_square(nu):
        raise PreconditionError(
            f"tower over nu = {nu} is not strict: c_1 is a perfect square"
        )
    norms = tuple(norm_sequence(nu, n - 1))
    d = 1
    for norm in norms:
        d = d * d * norm
    return d, norms


def disc_xn(nu: int, n: int) -> int:
    """Discriminant of the n-th tower generator: the norm ladder folded.

    Raises PreconditionError unless the tower is strict through level n.
    """
    return _disc_and_ladder(nu, n)[0]


class DiscriminantReport(namedtuple("DiscriminantReport", "nu n disc oracle norms")):
    """Recursion value, oracle value (an int, or None when not run), and
    the norm ladder (a tuple of ints)."""

    __slots__ = ()

    def __new__(cls, nu, n, disc, oracle, norms):
        if oracle is not None and oracle != disc:
            raise InvariantFailure(
                f"discriminant recursion and resultant oracle disagree at "
                f"nu = {nu}, n = {n}"
            )
        return tuple.__new__(cls, (nu, n, disc, oracle, norms))


def discriminant_report(nu: int, n: int) -> DiscriminantReport:
    """Assemble disc(x_n) with its norm ladder and, for n <= RESULTANT_CAP,
    the resultant oracle."""
    disc, norms = _disc_and_ladder(nu, n)
    oracle = disc_resultant_oracle(nu, n) if n <= RESULTANT_CAP else None
    return DiscriminantReport(nu, n, disc, oracle, norms)
