"""The iterated wreath product [C_2]^n as depth-n binary tree automorphisms.

An element is a portrait: one swap bit per internal node (2^n - 1 of
them, heap order: node 1 is the root, node h has children 2h, 2h+1).
The bit at node v says whether the two subtrees below v are swapped
after the subtrees themselves have been rearranged. Composition acts
on the left: (a * b) means "apply b, then a", giving the portrait rule

    (a * b)_v = b_v xor a_{b(v)}

where b(v) is the node v lands on under b.

For bulk work elements are converted to permutations of the 2^n
leaves, held inside this module as byte tables (byte i is the image of
leaf i), so composition is one bytes.translate and the other inner
steps are bytes slices and int.from_bytes, all run in C. A byte holds
a leaf index only while there are at most 256 leaves, depth <= 8;
DEPTH_CAP = 4 gives 16. Portraits and leaf_permutation's tuples remain
the canonical public form. Subgroup orders are counted by Schreier's
lemma on the bottom level, so no subgroup is listed element by element:
the walk of the action on the leaves' parents stops once its kernel is
proved to be every sibling swap, and the order of that action is then
counted one level up the same way (76 products for the whole group at
depth 4). The rank of G modulo its Frattini subgroup is read from the
level parities, the homomorphisms G -> F_2 that sum the portrait bits
of one level, and needs no product beyond that count. Only the
depth <= 2 brute-force check of the index-2 count lists the whole group.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .errors import InvariantFailure, ResourceLimitError

# Depth 4 already has |G| = 2^15 = 32768 elements. At depth 5 a
# Schreier walk that never sees the full kernel (a proper subgroup)
# still keeps a lift for each of up to 2^15 elements of the level-4
# quotient, out of desk range, so the cap stays at 4.
DEPTH_CAP = 4


class TreeAutomorphism(namedtuple("TreeAutomorphism", "depth bits")):
    """Portrait of an automorphism of the depth-n binary tree: bits is a
    tuple of 2^n - 1 swap bits, 0 or 1, in heap order."""

    __slots__ = ()

    def __new__(cls, depth, bits):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if len(bits) != 2**depth - 1:
            raise ValueError("portrait must have one bit per internal node")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("portrait bits must be 0 or 1")
        return tuple.__new__(cls, (depth, bits))


def leaf_permutation(a: TreeAutomorphism) -> tuple[int, ...]:
    """Action of a on the 2^depth leaves, as a permutation tuple."""
    n = a.depth
    leaves = 1 << n
    perm = []
    for leaf in range(leaves):
        orig = 1
        out = 0
        for level in range(n - 1, -1, -1):
            step = leaf >> level & 1
            out = (out << 1) | (step ^ a.bits[orig - 1])
            orig = 2 * orig + step
        perm.append(out)
    return tuple(perm)


def minimal_generators(depth: int) -> list[TreeAutomorphism]:
    """The standard n generators: a_k swaps at the node 0^(k-1) below the root.

    a_1 is the root swap; a_k sits at the end of the leftmost path of
    length k-1 (heap node 2^(k-1)).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > DEPTH_CAP:
        raise ResourceLimitError(f"depth capped at {DEPTH_CAP}")
    gens = []
    size = 2**depth - 1
    for k in range(1, depth + 1):
        bits = [0] * size
        bits[2 ** (k - 1) - 1] = 1
        gens.append(TreeAutomorphism(depth, tuple(bits)))
    return gens


def _leaf_table(a: TreeAutomorphism) -> bytes:
    """leaf_permutation(a) as a byte table, the form the group loops use."""
    return bytes(leaf_permutation(a))


def _compose_perm(p: bytes, q: bytes) -> bytes:
    """Permutation of 'apply q, then p': byte i of the result is p[q[i]]."""
    return q.translate(p.ljust(256, b"\0"))


# _HALVE maps a leaf to its parent, so q[::2].translate(_HALVE) is the
# action of q on the leaves' parents.
_HALVE = bytes(x >> 1 for x in range(256))


def _closure_perms(gens: list[bytes], leaves: int) -> set[bytes]:
    ident = bytes(range(leaves))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose_perm(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def _f2_adjoin(pivots: dict[int, int], v: int) -> None:
    """Reduce v over F_2 by pivots (keyed by leading bit); keep it if nonzero."""
    while v:
        top = v.bit_length()
        if top not in pivots:
            pivots[top] = v
            return
        v ^= pivots[top]


def _schreier_order(perms: list[bytes], leaves: int) -> int:
    """Order of the subgroup H generated by leaf permutations.

    Let pi: H -> W_{n-1} be the action on the leaves' parents. Its
    kernel K only swaps sibling leaves, so K lies in the elementary
    abelian E = (C_2)^(leaves/2) and |H| = |pi(H)| * 2^(rank K). A
    breadth-first walk of pi(H) keeps one lift r_y per parent action
    y; by Schreier's lemma the elements r_{y'}^-1 g r_y (g a generator,
    y' the action of g r_y) generate K. Each is read off as the bit
    vector of the sibling pairs it swaps and reduced over F_2.

    Every such vector lies in K, so once they have rank leaves/2 the
    walk has proved K = E and stops: |pi(H)| is then the order of the
    group generated by pi(g) = g[::2].translate(_HALVE), which is again
    a group of tree automorphisms, one level shallower, counted by the
    same function (one leaf: order 1). Otherwise the walk visits all of
    pi(H) and |pi(H)| = len(reps). Either way at most
    |pi(H)| * len(perms) products are formed at this level.
    """
    if leaves == 1:
        return 1
    half = leaves >> 1
    ident = bytes(range(leaves))
    reps = {ident[::2].translate(_HALVE): ident}
    queue = [ident]
    pivots: dict[int, int] = {}
    # the queue grows while it is read, so this is the breadth-first walk
    for r in queue:
        if len(pivots) == half:
            break
        for g in perms:
            q = _compose_perm(g, r)
            key = q[::2].translate(_HALVE)
            lift = reps.get(key)
            if lift is None:
                reps[key] = q
                queue.append(q)
                continue
            # lift and q send each sibling pair to the same pair, so
            # their images of a pair's left leaf differ at most in the
            # low bit, and lift^-1 q swaps pair x exactly where they
            # differ. XOR leaves a byte 0 or 1 per pair: an F_2 vector
            # with one bit in each byte.
            _f2_adjoin(
                pivots, int.from_bytes(q[::2], "big") ^ int.from_bytes(lift[::2], "big")
            )
    if len(pivots) < half:
        quotient = len(reps)
    else:
        quotient = _schreier_order([g[::2].translate(_HALVE) for g in perms], half)
    return quotient << len(pivots)


def closure_order(generators: list[TreeAutomorphism]) -> int:
    """Order of the subgroup generated by the given automorphisms.

    Counted by Schreier's lemma on the bottom level (_schreier_order),
    never by listing the subgroup.
    """
    if not generators:
        raise ValueError("need at least one generator")
    depth = generators[0].depth
    if any(g.depth != depth for g in generators):
        raise ValueError("depth mismatch among generators")
    if depth > DEPTH_CAP:
        raise ResourceLimitError(f"depth capped at {DEPTH_CAP}")
    return _schreier_order([_leaf_table(g) for g in generators], 1 << depth)


def _full_group(depth: int) -> frozenset[bytes]:
    """Every element of G, listed; only the depth <= 2 brute-force check uses it."""
    gens = [_leaf_table(g) for g in minimal_generators(depth)]
    group = _closure_perms(gens, 1 << depth)
    if len(group) != 2 ** (2**depth - 1):
        raise InvariantFailure(
            f"full group at depth {depth} has order {len(group)}"
        )
    return frozenset(group)


def _level_parities(a: TreeAutomorphism) -> int:
    """Bit l is pi_l(a), the parity of a's portrait bits at level l."""
    image = 0
    for v, bit in enumerate(a.bits, start=1):
        image ^= bit << (v.bit_length() - 1)
    return image


@lru_cache(maxsize=DEPTH_CAP)
def agemo_rank(depth: int) -> int:
    """Rank d of G / (G^2 [G,G]) as an F_2 vector space; equals the depth.

    G^2 [G,G] is the Frattini subgroup Phi(G), so d is also the size of
    every minimal generating set. The proof reads the level parities:

    - pi_l(g) = sum of g_v over the nodes v at level l, mod 2, is a
      homomorphism G -> F_2: by the portrait rule
      (a * b)_v = b_v xor a_{b(v)}, and b permutes level l, so
      pi_l(a * b) = pi_l(b) + pi_l(a).
    - pi = (pi_0, ..., pi_{depth-1}) maps G into the elementary abelian
      F_2^depth, so Phi(G) lies in its kernel and d >= rank pi(G). The
      generator a_k has its one bit at level k - 1, so the images of
      the minimal generators already have rank depth: d >= depth.
    - The minimal generators generate G (closure_order counts
      2^(2^depth - 1) elements), so their images span G / Phi(G):
      d <= depth, the easy half of Burnside's basis theorem.

    The two checks take 76 products at depth 4; no element list of G
    is formed. A failed check raises InvariantFailure.
    """
    gens = minimal_generators(depth)
    order = closure_order(gens)
    if order != 2 ** (2**depth - 1):
        raise InvariantFailure(
            f"minimal generators at depth {depth} generate a group of order {order}"
        )
    pivots: dict[int, int] = {}
    for g in gens:
        _f2_adjoin(pivots, _level_parities(g))
    d = len(pivots)
    if d != depth:
        raise InvariantFailure(f"level parities have rank {d}, not the depth {depth}")
    return d


def _index2_subgroup_count_exhaustive(depth: int) -> int:
    """Count index-2 subgroups by brute force (depth <= 2 only)."""
    group = sorted(_full_group(depth))
    half = len(group) // 2
    ident = bytes(range(1 << depth))
    count = 0
    rest = [p for p in group if p != ident]
    for combo in combinations(rest, half - 1):
        subset = {ident, *combo}
        if all(_compose_perm(a, b) in subset for a in subset for b in subset):
            count += 1
    return count


def count_index2_subgroups(depth: int) -> int:
    """Number of index-2 subgroups of [C_2]^depth: 2^d - 1 with d = depth.

    Index-2 subgroups are kernels of surjections onto C_2, which all
    factor through G / G^2[G,G]; they biject with the nonzero linear
    functionals on that d-dimensional F_2 space. For depth <= 2 the
    count is verified against exhaustive enumeration.
    """
    d = agemo_rank(depth)
    count = 2**d - 1
    if depth <= 2:
        brute = _index2_subgroup_count_exhaustive(depth)
        if brute != count:
            raise InvariantFailure(
                f"exhaustive count {brute} disagrees with 2^{d} - 1"
            )
    return count
