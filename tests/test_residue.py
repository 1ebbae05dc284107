import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrtower import residue
from jrtower.errors import CertificateFailure, InvariantFailure, ResourceLimitError
from jrtower.factor import EFFORT_QUICK, factorize_cached
from jrtower.intmath import prime_sieve
from jrtower.orbit import tower_params
from jrtower.residue import (
    PEPIN_CAP,
    PROVEN_COMPOSITE,
    PROVEN_PRIME,
    ResidueCertificate,
    _check_kernel,
    fermat_mod_pattern,
    fermat_number,
    fermat_symbols,
    fermat_value,
    jacobi,
    known_fermat_primes,
    nonresidue_37_check,
    pepin_test,
    residue_certificate,
)
from jrtower.verdict import THEOREM_APPLIES, jr_verdict


def euler_symbol(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion, odd prime p."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def test_jacobi_matches_euler_criterion_on_primes():
    rng = random.Random(4001)
    odd_primes = [p for p in prime_sieve(400) if p > 2]
    for _ in range(400):
        a = rng.randrange(-500, 500)
        p = odd_primes[rng.randrange(len(odd_primes))]
        assert jacobi(a, p) == euler_symbol(a, p)


def test_jacobi_multiplicative_in_denominator():
    rng = random.Random(4002)
    for _ in range(200):
        a = rng.randrange(0, 1000)
        assert jacobi(a, 15) == jacobi(a, 3) * jacobi(a, 5)
        assert jacobi(a, 21) == jacobi(a, 3) * jacobi(a, 7)
    assert jacobi(0, 1) == 1
    assert jacobi(5, 1) == 1


FERMAT_ABOVE_3 = (5, 17, 257, 65537)


@pytest.mark.parametrize("p", FERMAT_ABOVE_3)
def test_fermat_symbols_match_jacobi_on_every_residue(p):
    """Euler's criterion against reciprocity, for every r in 0..65536,
    which covers every residue class modulo each known Fermat prime."""
    i = FERMAT_ABOVE_3.index(p)
    assert all(fermat_symbols(r)[i] == jacobi(r, p) for r in range(65537))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(1, 10**300), st.integers(1, 600))
def test_fermat_symbols_of_4_to_the_m_times_mu_are_those_of_mu(mu, m):
    """The key lemma at the symbol level: 4^m is a square prime to each
    Fermat prime p > 3, so (4^m mu|p) = (mu|p), with no factoring."""
    assert fermat_symbols(4**m * mu) == tuple(jacobi(mu, p) for p in FERMAT_ABOVE_3)


@pytest.mark.parametrize("n", [9, 15, 21])
def test_fermat_symbols_guard_fires_on_a_composite_modulus(monkeypatch, n):
    """Modulo a prime, nu^((p-1)/2) is 0, 1 or -1; modulo 9, 15 and 21
    the power of 2 is 7, 8 and 16, so no symbol can be read."""
    monkeypatch.setattr(residue, "_fermat_primes_above_3", lambda: (5, n))
    with pytest.raises(InvariantFailure, match=rf"no Legendre symbol modulo {n}: 2\^"):
        fermat_symbols(2)


def test_jacobi_rejects_even_denominator():
    with pytest.raises(ValueError):
        jacobi(3, 8)
    with pytest.raises(ValueError):
        jacobi(3, 0)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_fermat_values():
    assert [fermat_value(i) for i in range(5)] == [3, 5, 17, 257, 65537]
    assert fermat_value(5) == 4294967297
    assert fermat_value(5) % 641 == 0  # classic factor


def test_pepin_proves_small_fermat_primality():
    for i in range(1, 5):
        assert pepin_test(i) == PROVEN_PRIME
    for i in range(5, 8):
        assert pepin_test(i) == PROVEN_COMPOSITE
    assert pepin_test(PEPIN_CAP) == PROVEN_COMPOSITE
    with pytest.raises(ResourceLimitError):
        pepin_test(PEPIN_CAP + 1)


def test_fermat_number_bundles_value_and_status():
    f4 = fermat_number(4)
    assert f4.value == 65537
    assert f4.primality == PROVEN_PRIME
    f6 = fermat_number(6)
    assert f6.primality == PROVEN_COMPOSITE


def test_known_fermat_primes_recertified():
    assert known_fermat_primes() == (3, 5, 17, 257, 65537)


def test_fermat_number_guard_fires_on_a_wrong_value():
    with pytest.raises(InvariantFailure, match="not a Fermat number"):
        residue.FermatNumber(2, 16, PROVEN_PRIME)


def test_known_fermat_primes_guard_fires_when_pepin_disagrees(monkeypatch):
    """Run uncached, so the process's list is neither read nor replaced."""
    real = residue.pepin_test
    monkeypatch.setattr(residue, "pepin_test",
                        lambda k: PROVEN_COMPOSITE if k == 4 else real(k))
    with pytest.raises(InvariantFailure,
                       match="Pepin disagrees with the known Fermat prime list"):
        known_fermat_primes.__wrapped__()
    monkeypatch.undo()
    assert known_fermat_primes() == (3, 5, 17, 257, 65537)


def test_fermat_mod_pattern_guard_fires_on_a_forged_power(monkeypatch):
    """A pow that returns 1 gives F mod 7 = F mod 3 = 2, off the pattern."""
    monkeypatch.setattr(residue, "pow", lambda base, exp, mod: 1, raising=False)
    with pytest.raises(InvariantFailure,
                       match=r"Fermat residue pattern broken at index 1: \(2, 2\)"):
        fermat_mod_pattern(1)


def test_nonresidue_37_guard_fires_on_a_forged_symbol(monkeypatch):
    """A jacobi that flips (p|3) and (p|7) breaks (q|p)(p|q) = 1."""
    real = residue.jacobi
    monkeypatch.setattr(residue, "jacobi",
                        lambda a, n: -real(a, n) if n in (3, 7) else real(a, n))
    with pytest.raises(InvariantFailure, match="reciprocity identity failed at p = 5"):
        nonresidue_37_check(5)


def test_fermat_mod_pattern_through_index_30():
    for n in range(1, 31):
        m7, m3 = fermat_mod_pattern(n)
        assert m7 == (3 if n % 2 == 0 else 5)
        assert m3 == 2
    # cross-check the small ones against the full values
    for n in range(1, 6):
        v = fermat_value(n)
        assert fermat_mod_pattern(n) == (v % 7, v % 3)
    # the index-0 value 3 is the lone exception and is rejected
    with pytest.raises(ValueError):
        fermat_mod_pattern(0)


def test_nonresidue_37_for_every_known_fermat_prime():
    for p in (5, 17, 257, 65537):
        assert nonresidue_37_check(p) == (True, True)
        assert jacobi(3, p) == -1
        assert jacobi(7, p) == -1


def test_residue_certificate_universal_kernels():
    cert = residue_certificate(12)
    assert cert.scope == "universal"
    assert cert.kernel_basis == 3
    assert cert.checked_primes == (5, 17, 257, 65537)
    cert = residue_certificate(112)
    assert cert.scope == "universal"
    assert cert.kernel_basis == 7
    cert = residue_certificate(28)
    assert cert.scope == "universal"
    assert cert.kernel_basis == 7


def test_residue_certificate_finite_scope():
    # 78 = 2*3*13 passes every individual check but its kernel is not 3 or 7
    for p in (5, 17, 257, 65537):
        assert jacobi(78, p) == -1
    cert = residue_certificate(78)
    assert cert.scope == "finite"
    assert cert.kernel_basis is None


def test_residue_certificate_failure_reports_smallest_prime():
    with pytest.raises(CertificateFailure, match=r"no non-residue certificate for nu = 20 "
                       r"modulo the Fermat prime 5 \(Jacobi symbol 0\)") as info:
        residue_certificate(20)
    assert info.value.prime == 5
    assert info.value.jacobi_value == 0
    with pytest.raises(CertificateFailure, match=r"no non-residue certificate for nu = 8 "
                       r"modulo the Fermat prime 17 \(Jacobi symbol 1\)") as info:
        residue_certificate(8)
    assert info.value.prime == 17
    assert info.value.jacobi_value == 1


def test_residue_certificate_validates_claims():
    with pytest.raises(InvariantFailure, match="universal scope without a 3/7 kernel"):
        ResidueCertificate(
            nu=20, scope="universal", checked_primes=(5, 17, 257, 65537),
            kernel_basis=5,
        )
    # 75 = 3 * 5^2 has a kernel, but a universal scope must have checked
    # every known Fermat prime > 3, 65537 included.
    with pytest.raises(InvariantFailure, match="universal scope skips a known Fermat prime"):
        ResidueCertificate(nu=75, scope="universal", checked_primes=(5, 17, 257), kernel_basis=3)


def test_residue_scope_matches_the_kernel_of_nu():
    """Universal scope iff the square-free kernel of nu, from sympy's
    factorization, is 3 or 7, also where the quick budget leaves nu's
    factorization partial: the scope is two square tests, not a kernel."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2004)
    big = [sympy.nextprime(rng.randrange(10**11, 10**13)) for _ in range(6)]
    hard = [big[0] * big[1], 3 * (big[2] * big[3]) ** 2, 7 * (big[4] * big[5]) ** 2]
    # 2 * 39 = 78 passes every known prime, with kernel 78.
    hard.append(39 * (big[2] * big[3]) ** 2)
    odd_parts = [1, 3, 7, 21, 3 * 11**2, 7 * 5**4, 3 * big[0] ** 2] + hard
    odd_parts += [2 * rng.randrange(1, 10**9) + 1 for _ in range(20)]
    partial, seen = 0, set()
    for m in odd_parts:
        odd_factors = sympy.factorint(m)
        # Trial division strips the 2s first, so every nu = m * 2^v meets
        # the same quick budget on m.
        is_partial = not factorize_cached(m, EFFORT_QUICK).complete
        for v in range(7):
            nu = m << v
            if nu < 2:
                continue
            factors = {**odd_factors, 2: v}
            kernel = math.prod(p for p, e in factors.items() if e % 2)
            partial += is_partial
            try:
                cert = residue_certificate(nu)
            except CertificateFailure:
                continue
            assert cert.scope == ("universal" if kernel in (3, 7) else "finite"), nu
            assert cert.kernel_basis == (kernel if kernel in (3, 7) else None), nu
            seen.add((cert.scope, is_partial))
    assert partial >= 3 * 7
    assert seen == {
        ("universal", False), ("universal", True), ("finite", False), ("finite", True)
    }


@pytest.mark.parametrize("q", [3, 7])
def test_universal_scope_needs_no_factorization_of_mu(q):
    """nu = 4q(pr)^2 with p, r 20-digit primes: the quick budget cannot
    factor mu = q(pr)^2, yet nu = q * s^2 proves the scope universal."""
    p, r = 10**19 + 51, 10**19 + 147
    nu = 4 * q * (p * r) ** 2
    assert not factorize_cached(tower_params(nu).mu, EFFORT_QUICK).complete
    report = jr_verdict(nu, 5, EFFORT_QUICK)
    assert report.conclusion == THEOREM_APPLIES
    assert report.hypothesis.scope == "universal"
    assert report.kernel_basis == residue_certificate(nu).kernel_basis == q
    assert not report.finite_scope_caveat


def test_residue_certificate_factors_nothing(monkeypatch):
    import jrtower.factor
    import jrtower.squareclasses

    def refuse(*args):
        raise AssertionError("residue_certificate factored")

    monkeypatch.setattr(jrtower.factor, "factorize", refuse)
    monkeypatch.setattr(jrtower.factor, "factorize_cached", refuse)
    monkeypatch.setattr(jrtower.squareclasses, "factorize_cached", refuse)
    p, r = 10**19 + 51, 10**19 + 147
    scopes = [residue_certificate(nu).scope for nu in (12, 28, 78, 12 * (p * r) ** 2)]
    assert scopes == ["universal", "universal", "finite", "universal"]
    with pytest.raises(CertificateFailure, match="no non-residue certificate for nu = 20"):
        residue_certificate(20)


@pytest.mark.parametrize("call, message", [
    (lambda: fermat_value(-1), "Fermat index must be >= 0"),
    (lambda: nonresidue_37_check(7), "7 is not a known Fermat prime greater than 3"),
    (lambda: residue_certificate(1), "nu must be an integer >= 2"),
], ids=["fermat_value", "nonresidue_37_check", "residue_certificate"])
def test_residue_refuses_inputs_outside_its_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("nu, q", [(60, 3), (13, 3)], ids=["not-a-square", "remainder"])
def test_check_kernel_fails_each_of_its_two_tests_alone(nu, q):
    """60 = 3 * 20 leaves no remainder but 20 is not a square; 13 = 3 * 4 + 1
    has a square quotient but a remainder. Each alone fails the check."""
    quotient, rem = divmod(nu, q)
    assert (rem == 0) != (math.isqrt(quotient) ** 2 == quotient)
    with pytest.raises(InvariantFailure, match="kernel does not divide nu into a square"):
        _check_kernel(nu, q)
