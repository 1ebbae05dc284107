import random
from itertools import combinations

import pytest

from jrtower import wreath
from jrtower.errors import InvariantFailure, ResourceLimitError
from jrtower.wreath import (
    DEPTH_CAP,
    TreeAutomorphism,
    agemo_rank,
    closure_order,
    count_index2_subgroups,
    leaf_permutation,
    minimal_generators,
)
from jrtower.wreath import _closure_perms, _level_parities


def random_element(rng: random.Random, depth: int) -> TreeAutomorphism:
    bits = tuple(rng.randrange(2) for _ in range(2**depth - 1))
    return TreeAutomorphism(depth, bits)


# Portrait-level operations, kept here as oracles: the library itself
# composes leaf permutations as byte tables.


def node_image(a: TreeAutomorphism, node: int) -> int:
    """Image of 1-based heap node index under a.

    Portrait bits live on the original tree: the bit at each node of
    the walked-down (original) path flips the corresponding output
    step, while the walk itself follows the original steps.
    """
    if node < 1 or node >= 2 ** (a.depth + 1):
        raise ValueError("node index out of range")
    path = []
    h = node
    while h > 1:
        path.append(h & 1)
        h >>= 1
    orig = 1
    image = 1
    for step in reversed(path):
        out = step ^ a.bits[orig - 1]
        orig = 2 * orig + step
        image = 2 * image + out
    return image


def compose(a: TreeAutomorphism, b: TreeAutomorphism) -> TreeAutomorphism:
    """a * b: apply b first, then a."""
    if a.depth != b.depth:
        raise ValueError("depth mismatch")
    n_internal = 2**a.depth - 1
    bits = []
    for v in range(1, n_internal + 1):
        bits.append(b.bits[v - 1] ^ a.bits[node_image(b, v) - 1])
    return TreeAutomorphism(a.depth, tuple(bits))


def from_leaf_permutation(perm: tuple[int, ...], depth: int) -> TreeAutomorphism:
    """Portrait of the automorphism with the given leaf action."""
    leaves = 1 << depth
    if len(perm) != leaves:
        raise ValueError("permutation length must be 2^depth")
    if sorted(perm) != list(range(leaves)):
        raise ValueError("not a permutation of the leaves")
    bits = [0] * (leaves - 1)

    def fill(node: int, block: list[int]):
        size = len(block)
        if size == 1:
            return
        half = size // 2
        # A tree automorphism sends each half-block onto a half of the
        # image range; which half tells us the swap bit.
        base = min(block)
        lo = [b - base for b in block[:half]]
        hi = [b - base for b in block[half:]]
        swap = lo[0] >= half
        bits[node - 1] = 1 if swap else 0
        if swap:
            lo = [b - half for b in lo]
        else:
            hi = [b - half for b in hi]
        fill(2 * node, lo)
        fill(2 * node + 1, hi)

    fill(1, list(perm))
    out = TreeAutomorphism(depth, tuple(bits))
    if leaf_permutation(out) != tuple(perm):
        raise ValueError("permutation does not respect the tree structure")
    return out


def compose_perms(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def test_identity_fixes_everything():
    for depth in range(1, 5):
        e = TreeAutomorphism(depth, (0,) * (2**depth - 1))
        assert leaf_permutation(e) == tuple(range(2**depth))
        for node in range(1, 2 ** (depth + 1)):
            assert node_image(e, node) == node


def test_leaf_permutation_respects_composition():
    rng = random.Random(7001)
    for depth in range(1, 5):
        for _ in range(40):
            a = random_element(rng, depth)
            b = random_element(rng, depth)
            ab = compose(a, b)
            assert leaf_permutation(ab) == compose_perms(
                leaf_permutation(a), leaf_permutation(b)
            )


def test_node_image_agrees_with_leaf_permutation():
    rng = random.Random(7002)
    for depth in range(1, 5):
        base = 2**depth
        for _ in range(20):
            a = random_element(rng, depth)
            perm = leaf_permutation(a)
            for i in range(base):
                assert node_image(a, base + i) == base + perm[i]


def test_portrait_roundtrip():
    rng = random.Random(7003)
    for depth in range(1, 5):
        for _ in range(40):
            a = random_element(rng, depth)
            assert from_leaf_permutation(leaf_permutation(a), depth) == a


def test_from_leaf_permutation_rejects_non_tree_maps():
    # swapping leaves 0 and 2 at depth 2 tears the sibling blocks apart
    with pytest.raises(ValueError):
        from_leaf_permutation((2, 1, 0, 3), 2)
    with pytest.raises(ValueError):
        from_leaf_permutation((0, 1, 2), 2)


def test_compose_is_associative():
    rng = random.Random(7004)
    for _ in range(30):
        a = random_element(rng, 3)
        b = random_element(rng, 3)
        c = random_element(rng, 3)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_minimal_generators_generate_everything():
    for depth in range(1, 5):
        gens = minimal_generators(depth)
        assert len(gens) == depth
        assert closure_order(gens) == 2 ** (2**depth - 1)


def test_closure_order_of_subgroups():
    # a single level-1 swap generates only C2
    g = minimal_generators(2)
    assert closure_order([g[0]]) == 2
    with pytest.raises(ValueError):
        closure_order([])


def random_generating_set(rng: random.Random, depth: int) -> list[TreeAutomorphism]:
    """1-4 random portraits, some levels held at zero in all of them.

    The portraits with every bit of a level zero form a subgroup, so a
    held level keeps the generated group proper.
    """
    held = {level for level in range(depth) if rng.random() < 0.3}
    gens = []
    for _ in range(rng.randint(1, 4)):
        bits = tuple(
            0 if (v + 1).bit_length() - 1 in held else rng.randrange(2)
            for v in range(2**depth - 1)
        )
        gens.append(TreeAutomorphism(depth, bits))
    return gens


def test_closure_order_matches_enumeration_and_sympy(monkeypatch):
    """Schreier's-lemma order = full breadth-first closure = sympy's order.

    The walk stops early, and recurses on the parents' action, exactly
    when it calls itself with half the leaves; both exits are compared.
    """
    combinatorics = pytest.importorskip("sympy.combinatorics")
    schreier_order = wreath._schreier_order
    sizes = []

    def recording(perms, leaves):
        sizes.append(leaves)
        return schreier_order(perms, leaves)

    monkeypatch.setattr(wreath, "_schreier_order", recording)
    rng = random.Random(7005)
    orders, exits = set(), set()
    for depth in range(1, 5):
        for _ in range(50):
            perms = [leaf_permutation(g) for g in random_generating_set(rng, depth)]
            sizes.clear()
            order = closure_order([from_leaf_permutation(p, depth) for p in perms])
            exits.add((depth, (1 << depth) >> 1 in sizes))
            assert order == len(_closure_perms([bytes(p) for p in perms], 1 << depth))
            group = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(p)) for p in perms]
            )
            assert order == group.order()
            orders.add((depth, order == 2 ** (2**depth - 1)))
    # every depth saw both the whole group and a proper subgroup, and
    # walks that stopped early as well as walks that ran to the end
    both = {(d, flag) for d in range(1, 5) for flag in (True, False)}
    assert orders == both
    assert exits == both


def level_parities(g: TreeAutomorphism) -> int:
    """Bit l is the parity of g's portrait bits at level l, the heap
    nodes 2^l .. 2^(l+1) - 1."""
    return sum(
        (sum(g.bits[(1 << level) - 1 : (1 << (level + 1)) - 1]) & 1) << level
        for level in range(g.depth)
    )


def test_closure_order_matches_the_burnside_basis_theorem():
    """A set generates [C_2]^4 exactly when its level parities span F_2^4.

    The level parities form the map onto G / Phi(G) = F_2^depth, and by
    Burnside's basis theorem a subgroup is all of the 2-group G iff its
    image there is everything.
    """
    rng = random.Random(7007)
    depth, seen = 4, set()
    for _ in range(120):
        gens = [random_element(rng, depth) for _ in range(rng.randint(1, 5))]
        pivots = {}
        for g in gens:
            v = level_parities(g)
            while v and v.bit_length() in pivots:
                v ^= pivots[v.bit_length()]
            if v:
                pivots[v.bit_length()] = v
        spans = len(pivots) == depth
        assert (closure_order(gens) == 2**15) == spans
        seen.add(spans)
    assert seen == {True, False}


def test_closure_order_forms_few_products(monkeypatch):
    """The walk stops once the kernel on the leaves is full, and so on
    down the levels: 76 products at depth 4, where the whole walk of
    pi(G) forms 2^7 * 4 = 512."""
    calls = 0
    compose_perm = wreath._compose_perm

    def counting(p, q):
        nonlocal calls
        calls += 1
        return compose_perm(p, q)

    monkeypatch.setattr(wreath, "_compose_perm", counting)
    assert closure_order(minimal_generators(4)) == 2**15
    assert calls <= 128


def test_frattini_order_matches_the_squares_of_every_element():
    """|G| / |<x^2 : x in G>| = 2^agemo_rank, G listed in full.

    The squares of all of G generate G^2[G,G], since
    [x, y] = x^2 (x^-1 y)^2 y^-2; the subgroup they generate is
    closed here breadth-first, adopting a square only when it is new.
    """
    for depth in range(1, 5):
        leaves = 1 << depth
        gens = [bytes(leaf_permutation(g)) for g in minimal_generators(depth)]
        group = _closure_perms(gens, leaves)
        squares = sorted({bytes(compose_perms(p, p)) for p in group})
        adopted, subgroup = [], {bytes(range(leaves))}
        for square in squares:
            if square not in subgroup:
                adopted.append(square)
                subgroup = _closure_perms(adopted, leaves)
        assert len(group) // len(subgroup) == 2 ** agemo_rank(depth)


def test_level_parities_are_a_homomorphism():
    """pi(a * b) = pi(a) + pi(b) over F_2, the fact agemo_rank rests on."""
    rng = random.Random(7008)
    for depth in range(1, 5):
        for _ in range(60):
            a = random_element(rng, depth)
            b = random_element(rng, depth)
            assert _level_parities(a) == level_parities(a)
            assert _level_parities(compose(a, b)) == _level_parities(a) ^ _level_parities(b)


def test_agemo_rank_lists_no_group(monkeypatch):
    """agemo_rank(4) never enumerates a group and forms few products."""
    calls = 0
    compose_perm = wreath._compose_perm

    def counting(p, q):
        nonlocal calls
        calls += 1
        return compose_perm(p, q)

    def forbidden(*args):
        raise AssertionError("agemo_rank listed a group")

    monkeypatch.setattr(wreath, "_compose_perm", counting)
    monkeypatch.setattr(wreath, "_closure_perms", forbidden)
    agemo_rank.cache_clear()
    assert agemo_rank(4) == 4
    assert 0 < calls <= 128


def test_agemo_rank_rejects_generators_that_miss_the_group(monkeypatch):
    """Without a_depth the generators span a proper subgroup: the order
    check raises before any rank is reported."""
    minimal = wreath.minimal_generators
    monkeypatch.setattr(wreath, "minimal_generators", lambda depth: minimal(depth)[:-1])
    agemo_rank.cache_clear()
    with pytest.raises(InvariantFailure,
                       match="minimal generators at depth 4 generate a group of order"):
        agemo_rank(4)
    monkeypatch.undo()
    assert agemo_rank(4) == 4


def test_agemo_rank_guard_fires_on_forged_parities(monkeypatch):
    """Parities forged to 0 have rank 0: the rank check raises. Run
    uncached, so the process's ranks are neither read nor replaced."""
    monkeypatch.setattr(wreath, "_level_parities", lambda g: 0)
    with pytest.raises(InvariantFailure, match="level parities have rank 0, not the depth 2"):
        agemo_rank.__wrapped__(2)


def test_full_group_guard_fires_on_a_forged_closure(monkeypatch):
    """A closure that returns the identity alone has order 1, not 2^3."""
    monkeypatch.setattr(wreath, "_closure_perms", lambda gens, n: {bytes(range(n))})
    with pytest.raises(InvariantFailure, match="full group at depth 2 has order 1"):
        wreath._full_group.__wrapped__(2)


def test_count_index2_guard_fires_on_a_forged_enumeration(monkeypatch):
    monkeypatch.setattr(wreath, "_index2_subgroup_count_exhaustive", lambda depth: 0)
    with pytest.raises(InvariantFailure, match=r"exhaustive count 0 disagrees with 2\^2 - 1"):
        count_index2_subgroups(2)


def test_agemo_rank_matches_depth():
    for depth in range(1, 5):
        assert agemo_rank(depth) == depth


def test_count_index2_subgroups_small():
    for depth in range(1, 5):
        assert count_index2_subgroups(depth) == 2**depth - 1


def test_exhaustive_subgroups_depth2():
    """Independent enumeration of all order-4 subgroups of the depth-2 group."""
    gens = minimal_generators(2)
    perms = set()
    frontier = [tuple(range(4))]
    gen_perms = [leaf_permutation(g) for g in gens]
    while frontier:
        cur = frontier.pop()
        if cur in perms:
            continue
        perms.add(cur)
        for gp in gen_perms:
            frontier.append(compose_perms(cur, gp))
    assert len(perms) == 8
    ident = tuple(range(4))
    others = sorted(perms - {ident})
    count = 0
    for trio in combinations(others, 3):
        candidate = {ident, *trio}
        closed = all(
            compose_perms(x, y) in candidate for x in candidate for y in candidate
        )
        if closed:
            count += 1
    assert count == 3
    assert count == count_index2_subgroups(2)


def test_depth_cap_enforced():
    with pytest.raises(ResourceLimitError):
        agemo_rank(DEPTH_CAP + 1)
    with pytest.raises(ResourceLimitError):
        count_index2_subgroups(DEPTH_CAP + 1)
    with pytest.raises(ResourceLimitError):
        minimal_generators(DEPTH_CAP + 1)


def test_tree_automorphism_validates_bits():
    with pytest.raises(ValueError):
        TreeAutomorphism(2, (0, 1))
    with pytest.raises(ValueError):
        TreeAutomorphism(2, (0, 1, 2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: TreeAutomorphism(0, ()), ValueError, "depth must be >= 1"),
    (lambda: minimal_generators(0), ValueError, "depth must be >= 1"),
    (lambda: closure_order([minimal_generators(1)[0], minimal_generators(2)[0]]),
     ValueError, "depth mismatch among generators"),
    (lambda: closure_order([TreeAutomorphism(5, (0,) * 31)]),
     ResourceLimitError, f"depth capped at {DEPTH_CAP}"),
], ids=["TreeAutomorphism", "minimal_generators", "closure_order-mismatch",
        "closure_order-cap"])
def test_wreath_refuses_inputs_outside_its_domain(call, error, message):
    with pytest.raises(error, match=message):
        call()
