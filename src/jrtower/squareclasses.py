"""Square classes of orbit constants and the quadratic subfield lattice.

Nonzero integers are 2-independent when no nonempty subset has a
perfect-square product; equivalently their classes in Q*/(Q*)^2 are
linearly independent over F_2. When c_1..c_n are 2-independent the
Galois group of the n-th tower level is the full iterated wreath
product, and the level then contains exactly 2^n - 1 quadratic
subfields Q(sqrt d), one per nonempty subset of {1..n}, with d the
square-free kernel of the subset product.

All subset arithmetic happens on exponent-parity vectors; the subset
products themselves are never multiplied out.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import InvariantFailure
from .factor import EFFORT_DEFAULT, Effort, factorize_cached
from .intmath import v2
from .orbit import TowerParams, constant_terms, tower_params

INDEPENDENT = "independent"
DEPENDENT = "dependent"
UNKNOWN = "unknown"

PRESENT = "present"
ABSENT = "absent"

FULL_BY_RULE = "full(by-rule)"
FULL_BY_RANK = "full(by-rank)"
NOT_FULL = "not-full"


@dataclass(frozen=True)
class SquareClassVector:
    """Class of a nonzero integer in Q*/(Q*)^2.

    odd_primes holds the primes with odd exponent; negative is the sign
    coordinate, which takes part in the F_2 arithmetic so that a
    "square" really means a square in Z, not just up to sign.
    """

    value: int
    odd_primes: frozenset[int]
    negative: bool

    @property
    def kernel(self) -> int:
        k = prod(sorted(self.odd_primes))
        return -k if self.negative else k


def square_class_vector(
    value: int, effort: Effort = EFFORT_DEFAULT
) -> SquareClassVector | None:
    """Parity vector of value, or None when its factorization stays partial."""
    if value == 0:
        raise ValueError("0 has no square class")
    f = factorize_cached(abs(value), effort)
    if not f.complete:
        return None
    odd = frozenset(p for p, e in f.factors.items() if e % 2 == 1)
    return SquareClassVector(value, odd, value < 0)


@dataclass(frozen=True)
class TwoIndependence:
    """Outcome of the F_2 rank computation over square classes.

    witness (only for status "dependent") is a tuple of 0-based
    positions into the input list whose product is a perfect square.
    status "unknown" means some needed factorization stayed partial.
    rank is reported for the independent case (= number of inputs).
    """

    status: str
    rank: int | None
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.status == INDEPENDENT


def two_independent(
    values: list[int] | tuple[int, ...], effort: Effort = EFFORT_DEFAULT
) -> TwoIndependence:
    """Decide 2-independence of nonzero integers by Gaussian elimination.

    Deterministic: rows are processed in input order, so the reported
    dependency ends at the earliest position where the classes become
    linearly dependent over F_2.
    """
    vectors = []
    for value in values:
        vec = square_class_vector(value, effort)
        if vec is None:
            return TwoIndependence(UNKNOWN, None, None)
        vectors.append(vec)

    primes = sorted({p for v in vectors for p in v.odd_primes})
    index = {p: i for i, p in enumerate(primes)}
    sign_bit = len(primes)

    # Bitmask rows over the primes plus a sign coordinate, augmented
    # with provenance bits so a vanished row names its subset.
    pivot_by_low: dict[int, tuple[int, int]] = {}
    for pos, vec in enumerate(vectors):
        row = sum(1 << index[p] for p in vec.odd_primes)
        if vec.negative:
            row |= 1 << sign_bit
        prov = 1 << pos
        while row:
            low = row & -row
            hit = pivot_by_low.get(low)
            if hit is None:
                break
            row ^= hit[0]
            prov ^= hit[1]
        if row == 0:
            witness = tuple(i for i in range(pos + 1) if prov >> i & 1)
            return TwoIndependence(DEPENDENT, None, witness)
        pivot_by_low[row & -row] = (row, prov)
    return TwoIndependence(INDEPENDENT, len(pivot_by_low), None)


@dataclass(frozen=True)
class GaloisCheck:
    """Is the level-n Galois group the full iterated wreath product?

    status "full(by-rule)" uses the sufficient criterion 4 | nu with nu
    not a perfect square (no 2-independence computation needed);
    "full(by-rank)" certifies via the computed rank of c_1..c_n;
    "not-full" carries a witness set of 1-based indices whose product
    of c's is a perfect square; "unknown" means a factorization ran out
    of budget before the rank was decided.
    """

    nu: int
    n: int
    status: str
    witness: frozenset[int] | None = None

    def __bool__(self) -> bool:
        return self.status in (FULL_BY_RULE, FULL_BY_RANK)


def galois_full_check(nu: int, n: int, effort: Effort = EFFORT_DEFAULT) -> GaloisCheck:
    """Certify fullness of the level-n Galois group.

    The rule route needs no factorizations: 4 | nu and nu non-square
    force c_1..c_n to be 2-independent at every level. Otherwise the
    rank of the square classes decides.
    """
    params = tower_params(nu)
    if n < 1:
        raise ValueError("n must be >= 1")
    if params.nu % 4 == 0 and not params.is_square:
        return GaloisCheck(nu, n, FULL_BY_RULE)
    indep = two_independent(list(constant_terms(nu, n).c), effort)
    if indep.status == INDEPENDENT:
        return GaloisCheck(nu, n, FULL_BY_RANK)
    if indep.status == DEPENDENT:
        witness = frozenset(i + 1 for i in indep.witness)
        return GaloisCheck(nu, n, NOT_FULL, witness)
    return GaloisCheck(nu, n, UNKNOWN)


@dataclass(frozen=True)
class SubfieldLattice:
    """Quadratic subfields of level n, indexed by subsets of {1..n}.

    kernels maps each nonempty frozenset S of 1-based indices to the
    square-free kernel of prod(c_i for i in S), or to None when some
    factorization stayed partial. rank is the F_2 rank of the classes
    (None when unknown); complete means every kernel is known; galois
    is the fullness status, and the lattice lists ALL quadratic
    subfields exactly when the group is full.
    """

    nu: int
    n: int
    kernels: dict[frozenset[int], int | None]
    rank: int | None
    complete: bool
    galois: str

    def known_kernels(self) -> set[int]:
        return {k for k in self.kernels.values() if k is not None}


def quadratic_subfields(
    nu: int, n: int, effort: Effort = EFFORT_DEFAULT
) -> SubfieldLattice:
    """Kernel of every nonempty subset product of c_1..c_n, by parity XOR."""
    seq = constant_terms(nu, n)
    vectors = [square_class_vector(c, effort) for c in seq.c]

    # Parities per subset by dynamic programming on the lowest index.
    parities: dict[int, frozenset[int] | None] = {0: frozenset()}
    kernels: dict[frozenset[int], int | None] = {}
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = parities[mask ^ low]
        vec = vectors[i]
        if rest is None or vec is None:
            parities[mask] = None
        else:
            parities[mask] = rest ^ vec.odd_primes
        subset = frozenset(j + 1 for j in range(n) if mask >> j & 1)
        par = parities[mask]
        kernels[subset] = None if par is None else prod(sorted(par))

    indep = two_independent(list(seq.c), effort)
    rank = indep.rank if indep.status == INDEPENDENT else None
    if indep.status == DEPENDENT:
        # Dependent classes still have a well-defined rank; recover it
        # by counting distinct kernels when they are all known.
        known = [k for k in kernels.values() if k is not None]
        if len(known) == len(kernels):
            distinct = len(set(known) | {1})
            rank = distinct.bit_length() - 1
            if 1 << rank != distinct:
                raise InvariantFailure("subset kernels do not span a subspace")
    complete = all(k is not None for k in kernels.values())
    galois = galois_full_check(nu, n, effort).status
    return SubfieldLattice(nu, n, kernels, rank, complete, galois)


@dataclass(frozen=True)
class SqrtMembership:
    """Whether sqrt(d) lies in tower level n.

    status "present" comes with the canonical witness subset (smallest
    size, then lexicographic); "absent" is only issued with a full
    Galois certificate and a complete lattice, which together list
    every quadratic subfield; anything less is "unknown".
    """

    nu: int
    n: int
    d: int
    status: str
    subset: frozenset[int] | None = None

    def __bool__(self) -> bool:
        return self.status == PRESENT


def contains_sqrt(
    nu: int, n: int, d: int, effort: Effort = EFFORT_DEFAULT
) -> SqrtMembership:
    """Decide whether sqrt(d) lies in level n of the tower over nu.

    d must be a square-free integer >= 2 (membership of rational
    square roots is trivial and not handled here).
    """
    if d < 2:
        raise ValueError("d must be a square-free integer >= 2")
    fd = factorize_cached(d, effort)
    if not fd.complete:
        raise ValueError(f"square-freeness of d = {d} not decidable within budget")
    if any(e > 1 for e in fd.factors.values()):
        raise ValueError(f"d = {d} is not square-free")

    lattice = quadratic_subfields(nu, n, effort)
    matches = [s for s, k in lattice.kernels.items() if k == d]
    if matches:
        subset = min(matches, key=lambda s: (len(s), sorted(s)))
        return SqrtMembership(nu, n, d, PRESENT, subset)
    full = lattice.galois in (FULL_BY_RULE, FULL_BY_RANK)
    if full and lattice.complete:
        return SqrtMembership(nu, n, d, ABSENT)
    return SqrtMembership(nu, n, d, UNKNOWN)


@dataclass(frozen=True)
class Sqrt2Certificate:
    """Certificate that sqrt(2) never enters the tower over nu.

    Applicable when nu = 2^(2m) * mu with m >= 1, mu odd >= 3, and nu
    not a perfect square: then every subset product of c's has even
    2-adic valuation, so no kernel equals 2 at any level. certified is
    False with a reason when the shape conditions fail.
    mu_not_squarefree flags the one configuration whose consequences
    are undecided; it never blocks the certificate. spot_checked_depth
    is the level up to which v2(c_n) = v2(nu) was checked.
    """

    nu: int
    certified: bool
    reason: str | None
    mu_not_squarefree: bool | None
    spot_checked_depth: int | None


def sqrt2_free_certificate(
    params: TowerParams | int,
    effort: Effort = EFFORT_DEFAULT,
    spot_check_depth: int = 5,
) -> Sqrt2Certificate:
    """Certify that sqrt(2) lies in no level of the tower.

    The shape conditions are checked exactly. The proof is 2-adic: with
    v = v2(nu) >= 1, v2(c_{n+1}) = v2(c_n^2 - nu) = v because
    v2(c_n^2) = 2v > v, so every c_n has valuation v. For even v every
    subset product of c's then has even 2-adic valuation, and its
    square-free kernel is odd, never 2. As a guard the certificate
    checks v2(c_n) = v for n <= spot_check_depth, exactly and without
    factoring; a mismatch contradicts the proof and raises
    InvariantFailure.
    """
    if isinstance(params, int):
        params = tower_params(params)
    v = params.two_adic_valuation
    if v == 0:
        return Sqrt2Certificate(params.nu, False, "4 does not divide nu", None, None)
    if v % 2 == 1:
        return Sqrt2Certificate(
            params.nu, False, "2-adic valuation of nu is odd", None, None
        )
    if params.mu < 3:
        return Sqrt2Certificate(params.nu, False, "odd part of nu is 1", None, None)
    if params.is_square:
        return Sqrt2Certificate(params.nu, False, "nu is a perfect square", None, None)

    mu_kernel = None
    f = factorize_cached(params.mu, effort)
    if f.complete:
        mu_kernel = all(e == 1 for e in f.factors.values())
    for n, cn in enumerate(constant_terms(params.nu, spot_check_depth).c, 1):
        if v2(cn) != v:
            raise InvariantFailure(
                f"v2(c_{n}) = {v2(cn)} differs from v2(nu) = {v} at "
                f"nu = {params.nu}, so kernel 2 is no longer ruled out"
            )
    not_squarefree = None if mu_kernel is None else not mu_kernel
    return Sqrt2Certificate(params.nu, True, None, not_squarefree, spot_check_depth)
