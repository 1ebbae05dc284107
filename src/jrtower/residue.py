"""Fermat primes and quadratic-residue obstructions.

A Fermat prime p = 2^(2^k) + 1 > 3 satisfies p = 1 (mod 4), so Q(zeta_p)
contains Q(sqrt p); if nu is a quadratic non-residue mod p, the orbit of
0 under t -> t^2 - nu never vanishes mod p and sqrt(p) stays out of the
whole tower. This module certifies the non-residue inputs. The verdict
takes each symbol (nu|p) from fermat_symbols, by Euler's criterion
nu^((p-1)/2) = -1 (mod p), the fact an exclusion rests on. The
certificate covers every Fermat prime at once when nu = q * s^2 with q
in {3, 7}, which two exact tests decide (q | nu, and nu / q is a
perfect square), with no factoring. What "certified" means is defined
once, here: each symbol -1 holds by Euler's criterion and _check_kernel
checks a universal kernel. ResidueCertificate runs _euler_guard and
_check_kernel on every record, and verdict.hypothesis_check runs
fermat_symbols and _check_kernel on the key a VerdictReport holds,
without building one. jacobi, by reciprocity, is the independent
oracle: it serves residue_certificate, fermat_obstruction and
nonresidue_37_check.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import CertificateFailure, InvariantFailure, ResourceLimitError
from .intmath import is_square

# F_9 has 155 digits and Pepin on it is a few hundred modular
# squarings; above that nothing in this package needs the value.
PEPIN_CAP = 9

PROVEN_PRIME = "proven-prime"
PROVEN_COMPOSITE = "proven-composite"

# The only known Fermat primes; every index 5..32 is proven composite in
# the literature and 0..9 are re-proven here by Pepin on demand.
_KNOWN_FERMAT_PRIMES = (3, 5, 17, 257, 65537)


class FermatNumber(namedtuple("FermatNumber", "index value primality")):
    """F_index = value = 2^(2^index) + 1, with its Pepin primality
    (PROVEN_PRIME or PROVEN_COMPOSITE)."""

    __slots__ = ()

    def __new__(cls, index, value, primality):
        if value != 2 ** (2**index) + 1:
            raise InvariantFailure("not a Fermat number")
        return tuple.__new__(cls, (index, value, primality))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1, via binary reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs odd n >= 1")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def fermat_symbols(nu: int) -> tuple[int, ...]:
    """(nu|p) for the known Fermat primes p > 3, in order, each by
    Euler's criterion: nu^((p-1)/2) is 0, 1 or p - 1 modulo a prime p."""
    symbols = []
    for p in _fermat_primes_above_3():
        r = pow(nu, (p - 1) // 2, p)
        if r == p - 1:
            symbols.append(-1)
        elif r > 1:
            # Only a composite p leaves a power other than 0, 1 and -1.
            raise InvariantFailure(f"no Legendre symbol modulo {p}: {nu}^{(p - 1) // 2} = {r}")
        else:
            symbols.append(r)
    return tuple(symbols)


def fermat_value(index: int) -> int:
    if index < 0:
        raise ValueError("Fermat index must be >= 0")
    if index > PEPIN_CAP:
        raise ResourceLimitError(
            f"Fermat numbers above F_{PEPIN_CAP} are not materialized"
        )
    return 2 ** (2**index) + 1


def pepin_test(index: int) -> str:
    """Decide primality of F_index = 2^(2^index) + 1.

    Pepin: for index >= 1, F is prime iff 3^((F-1)/2) = -1 (mod F).
    F_0 = 3 is handled by trial division. Indices above PEPIN_CAP raise.
    """
    F = fermat_value(index)
    if index == 0:
        return PROVEN_PRIME if all(F % d for d in range(2, F)) else PROVEN_COMPOSITE
    r = pow(3, (F - 1) // 2, F)
    return PROVEN_PRIME if r == F - 1 else PROVEN_COMPOSITE


def fermat_number(index: int) -> FermatNumber:
    return FermatNumber(index, fermat_value(index), pepin_test(index))


@lru_cache(maxsize=1)
def known_fermat_primes() -> tuple[int, ...]:
    """The five known Fermat primes, re-certified by Pepin at each process start."""
    certified = tuple(
        fermat_value(k) for k in range(5) if pepin_test(k) == PROVEN_PRIME
    )
    if certified != _KNOWN_FERMAT_PRIMES:
        raise InvariantFailure("Pepin disagrees with the known Fermat prime list")
    return certified


def fermat_mod_pattern(index: int) -> tuple[int, int]:
    """(F_index mod 7, F_index mod 3) for index >= 1, pattern-checked.

    The residues follow 2^(2^index) mod 7 cycling with the parity of the
    index: 3 mod 7 at even indices, 5 mod 7 at odd ones, and always
    2 mod 3. Computed without materializing the Fermat number.
    """
    if index < 1:
        raise ValueError("pattern starts at index 1")
    mod7 = (pow(2, 2**index, 7) + 1) % 7
    mod3 = (pow(2, 2**index, 3) + 1) % 3
    expected7 = 3 if index % 2 == 0 else 5
    if mod7 != expected7 or mod3 != 2:
        raise InvariantFailure(
            f"Fermat residue pattern broken at index {index}: ({mod7}, {mod3})"
        )
    return mod7, mod3


def nonresidue_37_check(p: int) -> tuple[bool, bool]:
    """Verify that 3 and 7 are non-residues modulo the Fermat prime p > 3.

    Returns (3 is a non-residue, 7 is a non-residue); both are expected
    True for every Fermat prime p > 3. Also re-derives the reciprocity
    identities (3|p)(p|3) = 1 and (7|p)(p|7) = 1, which hold because
    p = 1 (mod 4); a violation raises InvariantFailure.
    """
    if p not in _fermat_primes_above_3():
        raise ValueError(f"{p} is not a known Fermat prime greater than 3")
    j3, j7 = jacobi(3, p), jacobi(7, p)
    if jacobi(p, 3) * j3 != 1 or jacobi(p, 7) * j7 != 1:
        raise InvariantFailure(f"reciprocity identity failed at p = {p}")
    return j3 == -1, j7 == -1


class ResidueCertificate(namedtuple("ResidueCertificate",
                                    "nu scope checked_primes kernel_basis")):
    """Certified: nu is a quadratic non-residue modulo Fermat primes.

    scope "universal" covers every Fermat prime > 3 (known or not):
    nu = s^2 * q with q in {3, 7}, both of which are non-residues mod
    every Fermat prime > 3, and no Fermat prime divides s (the known
    ones are checked; unknown ones exceed 2^(2^33) > nu). The rule is
    two exact tests, q | nu and nu / q a perfect square, so no budget
    can leave it undecided; kernel_basis is that q (else None). scope
    "finite" covers exactly the checked primes, a tuple of ints. Every
    record re-checks its claims: the kernel of a universal scope by
    _check_kernel, that a universal scope checked every known Fermat
    prime > 3, then the symbol at each checked prime by _euler_guard.
    """

    __slots__ = ()

    def __new__(cls, nu, scope, checked_primes, kernel_basis):
        if scope == "universal":
            _check_kernel(nu, kernel_basis)
            if checked_primes != _fermat_primes_above_3():
                raise InvariantFailure(
                    f"universal scope skips a known Fermat prime: checked {checked_primes}"
                )
        for p in checked_primes:
            _euler_guard(nu, p)
        return tuple.__new__(cls, (nu, scope, checked_primes, kernel_basis))


def _check_kernel(nu: int, q: int | None) -> None:
    """Raise unless q is 3 or 7 and nu = q * s^2: the check of a
    universal scope."""
    if q not in (3, 7):
        raise InvariantFailure("universal scope without a 3/7 kernel")
    quotient, rem = divmod(nu, q)
    if rem != 0 or not is_square(quotient):
        raise InvariantFailure("kernel does not divide nu into a square")


def _euler_guard(nu: int, p: int) -> None:
    """Re-check a symbol (nu|p) = -1 before an exclusion rests on it.

    An exclusion rests on j = -1 alone (see verdict.fermat_obstruction),
    so that is what the guard re-checks: nu^((p-1)/2) = -1 (mod p),
    Euler's criterion, a modular power computed apart from the
    reciprocity steps of jacobi. It fails on every wrong -1, so it is
    stronger than walking the orbit mod p, which fails only on a wrong
    -1 whose orbit happens to reach 0 (13 is a square mod 17, yet its
    orbit never vanishes there). Every p that the package passes comes
    from known_fermat_primes(), so it is prime.
    """
    if pow(nu, (p - 1) // 2, p) != p - 1:
        raise InvariantFailure(
            f"Euler's criterion disagrees with jacobi({nu}, {p}) = -1"
        )


@lru_cache(maxsize=1)
def _fermat_primes_above_3() -> tuple[int, ...]:
    """The known Fermat primes p > 3: those the certificate checks."""
    return tuple(p for p in known_fermat_primes() if p > 3)


def residue_certificate(nu: int) -> ResidueCertificate:
    """Certify jacobi(nu, p) = -1 for Fermat primes p > 3.

    Universal scope when nu = q * s^2 with q in {3, 7}; otherwise each
    known prime is checked individually (finite scope). Any failure
    raises CertificateFailure naming the smallest violating prime: a
    Jacobi value of 0 (p divides nu) counts as failure, since nu = 0 is
    a square mod p.
    """
    if nu < 2:
        raise ValueError("nu must be an integer >= 2")
    failure = _first_failure(tuple(jacobi(nu, p) for p in _fermat_primes_above_3()))
    if failure is not None:
        raise CertificateFailure(nu, *failure)
    kernel_basis = _kernel_basis(nu)
    scope = "finite" if kernel_basis is None else "universal"
    return ResidueCertificate(nu, scope, _fermat_primes_above_3(), kernel_basis)


def _kernel_basis(nu: int) -> int | None:
    """The q in (3, 7) with nu = q * s^2, or None: two exact tests each."""
    for q in (3, 7):
        quotient, rem = divmod(nu, q)
        if rem == 0 and is_square(quotient):
            return q
    return None


def _first_failure(symbols: tuple[int, ...]) -> tuple[int, int] | None:
    """(p, symbol) at the least prime p of _fermat_primes_above_3() whose
    symbol is not -1, or None when nu is a non-residue modulo all."""
    for p, j in zip(_fermat_primes_above_3(), symbols):
        if j != -1:
            return p, j
    return None
