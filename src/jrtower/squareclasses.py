"""Square classes of orbit constants and the quadratic subfield lattice.

Nonzero integers are 2-independent when no nonempty subset has a
perfect-square product; equivalently their classes in Q*/(Q*)^2 are
linearly independent over F_2. When c_1..c_n are 2-independent the
Galois group of the n-th tower level is the full iterated wreath
product, and the level then contains exactly 2^n - 1 quadratic
subfields Q(sqrt d), one per nonempty subset of {1..n}, with d the
square-free kernel of the subset product.

Every decision runs on exponent-parity rows over a coprime base of the
values (see _coprime_base), found with gcds alone, so no decision waits
on a factorization. Naming the kernels factors only the non-square
parts of that base.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, prod

from .errors import InvariantFailure
from .factor import EFFORT_DEFAULT, Effort, factorize_cached
from .intmath import is_square
from .orbit import TowerParams, constant_terms

INDEPENDENT = "independent"
DEPENDENT = "dependent"
UNKNOWN = "unknown"

PRESENT = "present"
ABSENT = "absent"

FULL_BY_RULE = "full(by-rule)"
FULL_BY_RANK = "full(by-rank)"
NOT_FULL = "not-full"


def _coprime_base(values) -> list[int]:
    """Pairwise-coprime integers > 1 whose powers give every value.

    The quadratic gcd refinement; Bernstein, "Factoring into coprimes in
    essentially linear time", J. Algorithms 54 (2005), is faster but a
    dozen orbit constants do not need it. Splitting b and x with
    g = gcd(b, x) > 1 into g, b/g and x/g divides the product of all
    pending numbers by g, so the loop ends.
    """
    base: list[int] = []
    pending = [abs(v) for v in values if abs(v) > 1]
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                base[i] = base[-1]
                base.pop()
                pending += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def _square_class_rows(values) -> tuple[list[int], list[int]]:
    """(parts, rows): each value's class in Q*/(Q*)^2 as an F_2 bitmask row.

    Over pairwise-coprime parts b, a product is a square iff every b^e
    in it is, that is iff e is even or b is a square. So a row holds the
    exponent parities on the non-square parts, and a sign bit on top.
    """
    if 0 in values:
        raise ValueError("0 has no square class")
    parts = [b for b in _coprime_base(values) if not is_square(b)]
    rows = []
    for value in values:
        rest, row = abs(value), 0
        for i, b in enumerate(parts):
            while rest % b == 0:
                rest //= b
                row ^= 1 << i
        rows.append(row | (value < 0) << len(parts))
    return parts, rows


def _echelon(rows: list[int]) -> tuple[int, list[int]]:
    """F_2 elimination in input order: (rank, square-product subsets).

    Each row carries provenance bits (bit i = input position i), so a
    row that vanishes names a subset whose product is a square; those
    subsets, in order of vanishing, are a basis of all such subsets.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for pos, row in enumerate(rows):
        prov = 1 << pos
        while row and (row & -row) in pivots:
            pivot_row, pivot_prov = pivots[row & -row]
            row, prov = row ^ pivot_row, prov ^ pivot_prov
        if row:
            pivots[row & -row] = (row, prov)
        else:
            kernel.append(prov)
    return len(pivots), kernel


def _positions(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TwoIndependence(namedtuple("TwoIndependence", "status rank witness")):
    """Outcome of the F_2 rank computation over square classes.

    witness (only for status "dependent", else None) is a tuple of
    0-based positions into the input list whose product is a perfect
    square. rank is reported for the independent case (= number of
    inputs), else None.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.status == INDEPENDENT


def two_independent(values: list[int] | tuple[int, ...]) -> TwoIndependence:
    """Decide 2-independence of nonzero integers by Gaussian elimination.

    Exact: the rows come from a coprime base, not from factorizations.
    Deterministic: rows are processed in input order, so the reported
    dependency ends at the earliest position where the classes become
    linearly dependent over F_2.
    """
    rank, kernel = _echelon(_square_class_rows(values)[1])
    if kernel:
        return TwoIndependence(DEPENDENT, None, tuple(_positions(kernel[0])))
    return TwoIndependence(INDEPENDENT, rank, None)


def _full_by_rule(nu: int) -> bool:
    """Stoll's rule, which labels a full rank and checks it: with 4 | nu
    and nu not a square, c_1..c_n are 2-independent at every level
    (Stoll, Arch. Math. 59 (1992), for x^2 + a, 4 | a, -a not a square)."""
    return nu % 4 == 0 and not is_square(nu)


class SubfieldLattice(namedtuple("SubfieldLattice", "nu n kernels rank complete galois")):
    """Quadratic subfields of level n, indexed by subsets of {1..n}.

    kernels is a dict that maps each nonempty frozenset S of 1-based
    indices to the square-free kernel of prod(c_i for i in S), or to
    None when a base part it needs stayed partially factored. rank is
    the F_2 rank of the classes, always decided; complete (a bool) means
    every kernel is named; galois is the fullness status, and the
    lattice lists ALL quadratic subfields exactly when the group is full.
    """

    __slots__ = ()

    def known_kernels(self) -> set[int]:
        return {k for k in self.kernels.values() if k is not None}


def quadratic_subfields(
    nu: int, n: int, effort: Effort = EFFORT_DEFAULT
) -> SubfieldLattice:
    """Kernel of every nonempty subset product of c_1..c_n, from the rows.

    The parts b are pairwise coprime, so the square-free kernel is
    multiplicative over them, and b^e contributes kernel(b) when e is odd
    and nothing when e is even. So kernel(c_S) is the product of the part
    kernels at the set bits of the XOR of S's rows (the c's are positive:
    no sign bit). Each non-square part is factored once, under effort; one
    left partial makes None exactly the S whose XOR holds its bit. Rank
    and galois need no factoring: the group is full exactly when the
    rank is n, that is when c_1..c_n are 2-independent, and the label
    names Stoll's rule where it applies. A rank below n there breaks
    the theorem and raises InvariantFailure.
    """
    parts, rows = _square_class_rows(constant_terms(nu, n).c)
    part_kernels = []
    for f in (factorize_cached(b, effort) for b in parts):
        odd = [p for p, e in f.factors.items() if e % 2 == 1]
        part_kernels.append(prod(odd) if f.complete else None)

    xors = [0]  # XOR of S's rows, extended by S's lowest index
    kernels: dict[frozenset[int], int | None] = {}
    for mask in range(1, 1 << n):
        low = mask & -mask
        xors.append(xors[mask ^ low] ^ rows[low.bit_length() - 1])
        named = [part_kernels[i] for i in _positions(xors[mask])]
        subset = frozenset(i + 1 for i in _positions(mask))
        kernels[subset] = None if None in named else prod(named)

    rank = _echelon(rows)[0]
    if rank < n:
        if _full_by_rule(nu):
            raise InvariantFailure(
                f"Stoll's rule and the rank disagree at nu = {nu}, n = {n}"
            )
        galois = NOT_FULL
    else:
        galois = FULL_BY_RULE if _full_by_rule(nu) else FULL_BY_RANK
    return SubfieldLattice(nu, n, kernels, rank, None not in kernels.values(), galois)


class SqrtMembership(namedtuple("SqrtMembership", "nu n d status rank subset",
                                defaults=(None,))):
    """Whether sqrt(d) lies in tower level n.

    rank is the F_2 rank of the classes of c_1..c_n, so they are
    2-independent exactly when it is n. status "present" comes with the
    canonical witness subset, a frozenset of 1-based indices (smallest
    size, then lexicographic; empty for a perfect square d), and
    otherwise subset is None; "absent" is only issued with a full Galois
    group (rank n), whose quadratic subfields are exactly the
    Q(sqrt c_S); without one it is "unknown".
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.status == PRESENT


def contains_sqrt(nu: int, n: int, d: int) -> SqrtMembership:
    """Decide whether sqrt(d) lies in level n of the tower over nu.

    d is an integer >= 2. One elimination of [c_1..c_n, d] finds the
    subsets S with d * c_S a square, and the rank of c_1..c_n alone,
    which says whether the group is full: the rank of all n + 1 rows,
    less one when d's row does not vanish. Square parts of d cancel in
    its row, so d gets the answer of its square-free kernel, and a
    perfect square d is present with the empty subset. Nothing is
    factored, so no answer waits on a budget.
    """
    if d < 2:
        raise ValueError("d must be an integer >= 2")
    rank, kernel = _echelon(_square_class_rows((*constant_terms(nu, n).c, d))[1])
    if kernel and kernel[-1] >> n:
        # d's row vanished: the subsets S with d * c_S a square form the
        # coset of this one by the square-product subsets of c_1..c_n.
        coset = [kernel.pop() ^ 1 << n]
        for k in kernel:
            coset += [s ^ k for s in coset]
        best = min(coset, key=lambda s: (s.bit_count(), _positions(s)))
        return SqrtMembership(nu, n, d, PRESENT, rank,
                              frozenset(i + 1 for i in _positions(best)))
    return SqrtMembership(nu, n, d, ABSENT if rank == n + 1 else UNKNOWN, rank - 1)


class Sqrt2Certificate(namedtuple("Sqrt2Certificate", "nu certified reason")):
    """Certificate that sqrt(2) never enters the tower over nu.

    Applicable when nu = 2^(2m) * mu with m >= 1, mu odd >= 3, and nu
    not a perfect square: then every subset product of c's has even
    2-adic valuation, so no kernel equals 2 at any level. certified is
    False with a reason (a str, else None) when the shape conditions
    fail.
    """

    __slots__ = ()


def sqrt2_free_certificate(params: TowerParams) -> Sqrt2Certificate:
    """Certify that sqrt(2) lies in no level of the tower.

    The shape conditions are checked exactly (_sqrt2_reason). The proof
    is 2-adic: with v = v2(nu) >= 1, v2(c_{n+1}) = v2(c_n^2 - nu) = v
    because v2(c_n^2) = 2v > v, so every c_n has valuation v. For even v
    every subset product of c's then has even 2-adic valuation, and its
    square-free kernel is odd, never 2.

    Modulo 2^(v+1), v2(c_n) = v reads c_n = 2^v. The base case
    c_1 = nu = 2^v is checked here, since a TowerParams forged with
    _replace skips its own split check: a wrong v raises
    InvariantFailure. The step needs no check: with r = 2^v and v >= 1,
    r^2 - nu = -nu = 2^v = r (mod 2^(v+1)), so 2^v is a fixed point of
    t -> t^2 - nu at every depth.
    """
    nu, v = params.nu, params.two_adic_valuation
    reason = _sqrt2_reason(v, params.mu, params.is_square)
    if reason is None and nu % (2 << v) != 1 << v:
        raise InvariantFailure(
            f"c_n = 2^{v} (mod 2^{v + 1}) fails at nu = {nu}, "
            "so kernel 2 is no longer ruled out"
        )
    return Sqrt2Certificate(nu, reason is None, reason)


def _sqrt2_reason(v: int, mu: int, square: bool) -> str | None:
    """Why sqrt2_free_certificate refuses nu = 2^v * mu, or None when its
    shape conditions hold."""
    if v == 0:
        return "4 does not divide nu"
    if v % 2 == 1:
        return "2-adic valuation of nu is odd"
    if mu < 3:
        return "odd part of nu is 1"
    if square:
        return "nu is a perfect square"
    return None
