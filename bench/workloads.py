"""Operations of each benchmark workload, generated from the seed alone.

An operation is a (kind, args) pair of plain integers and tuples, so the
inputs can be generated and checked without importing jrtower. The seed
picks the scan window, the order of the deep set, and the algebra
generating sets and discriminant nu. Each choice costs about the same,
so the spread between seeds stays well inside the benchmark's bounds.
"""

from __future__ import annotations

import random
from math import isqrt

# scan: jr_verdict(nu, depth=5, effort=quick) on 400 consecutive nu.
SCAN_DEPTH = 5
SCAN_WIDTH = 400
SCAN_STARTS = range(2, 102)

# deep: jr_verdict(nu, depth=6, effort=quick) on the multiples of 4 from
# 4 to 168, in an order the seed shuffles. The set itself is fixed: its
# cost sits in three nu (140, 148 and 164 take 0.8-2.1 s, the others
# under 0.3 s), so a window that moved with the seed would move wall_s
# and, as the per-verdict costs cluster, op_p50_s by half. The set stops
# below 172 and 180 (4.1 s and 5.5 s), which would make a round three
# times as long and leave too few rounds in a run to take a median of;
# 208 takes 43 s at this depth.
DEEP_DEPTH = 6
DEEP_NUS = range(4, 172, 4)

# algebra: full group tables, seeded generating sets, cosines, radicals
# and discriminants.
GROUP_DEPTHS = range(1, 5)
CLOSURE_DEPTH = 4
CLOSURE_SETS = 16
CLOSURE_GENERATORS = 4
RADICAL_DEPTHS = range(2, 13)
COS_ORDERS = range(3, 201)
DISC_NUS = 12
DISC_NU_RANGE = range(3, 10**4)
DISC_LEVELS = range(1, 5)

# One untimed call per process before timing starts, on an input that
# the workload never contains: nu = 588 lies above every scan window,
# nu = 3 is odd, and nu = 2 is never drawn for the algebra
# discriminants.
WARM_UP = {
    "scan": ("verdict", (588, SCAN_DEPTH)),
    "deep": ("verdict", (3, DEEP_DEPTH)),
    "algebra": ("disc", (2, 2)),
}

WORKLOADS = tuple(WARM_UP)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def scan_ops(seed: int) -> list[tuple[str, tuple]]:
    start = _rng("scan", seed).choice(SCAN_STARTS)
    return [("verdict", (nu, SCAN_DEPTH)) for nu in range(start, start + SCAN_WIDTH)]


def deep_ops(seed: int) -> list[tuple[str, tuple]]:
    nus = list(DEEP_NUS)
    _rng("deep", seed).shuffle(nus)
    return [("verdict", (nu, DEEP_DEPTH)) for nu in nus]


def level_parities(bits: tuple[int, ...]) -> int:
    """Image of a portrait in G / G^2[G,G]: the parity of each level, as bits.

    A set of portraits generates the whole iterated wreath product
    exactly when these images span F_2^depth (Burnside's basis theorem).
    """
    depth = (len(bits) + 1).bit_length() - 1
    image = 0
    for level in range(depth):
        parity = sum(bits[(1 << level) - 1 : (1 << (level + 1)) - 1]) & 1
        image |= parity << level
    return image


def f2_rank(vectors: list[int]) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def generating_sets(rng: random.Random) -> list[tuple[tuple[int, ...], ...]]:
    """Distinct sets of random depth-4 portraits that each generate the group.

    Every set has the same size and generates the same group, so each
    closure walks 2^15 elements and costs the same whatever the seed.
    """
    size = 2**CLOSURE_DEPTH - 1
    sets: list[tuple[tuple[int, ...], ...]] = []
    while len(sets) < CLOSURE_SETS:
        gens = tuple(
            tuple(rng.randrange(2) for _ in range(size))
            for _ in range(CLOSURE_GENERATORS)
        )
        full = f2_rank([level_parities(g) for g in gens]) == CLOSURE_DEPTH
        if full and gens not in sets:
            sets.append(gens)
    return sets


def disc_nus(rng: random.Random) -> list[int]:
    nus: list[int] = []
    while len(nus) < DISC_NUS:
        nu = rng.choice(DISC_NU_RANGE)
        if isqrt(nu) ** 2 != nu and nu not in nus:
            nus.append(nu)
    return nus


def algebra_ops(seed: int) -> list[tuple[str, tuple]]:
    rng = _rng("algebra", seed)
    ops: list[tuple[str, tuple]] = []
    for d in GROUP_DEPTHS:
        ops += [("group_order", (d,)), ("agemo_rank", (d,)), ("index2", (d,))]
    ops += [("closure", gens) for gens in generating_sets(rng)]
    ops += [("radical", (d,)) for d in RADICAL_DEPTHS]
    ops += [("cos", (m,)) for m in COS_ORDERS]
    ops += [("disc", (nu, n)) for nu in disc_nus(rng) for n in DISC_LEVELS]
    return ops


def build(workload: str, seed: int) -> list[tuple[str, tuple]]:
    builders = {"scan": scan_ops, "deep": deep_ops, "algebra": algebra_ops}
    return builders[workload](seed)
