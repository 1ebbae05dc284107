"""Checks of jrtower's outputs, computed apart from the program.

Each check takes an operation's (kind, args) and the plain summary of
its output (see one_round.summarize) and returns a list of problems,
empty when the output is right. The verdict rule uses only integer
arithmetic from the standard library; the algebra checks use sympy and
mpmath.
"""

from __future__ import annotations

from math import gcd, isqrt

EULER_PRIMES = (5, 17, 257, 65537)


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def expected_verdict(nu: int, depth: int) -> dict:
    """Conclusion, residue scope and JR upper bound of nu, from first principles.

    theorem-applies needs: v2(nu) even and >= 2, odd part >= 3, nu not a
    square, nu a non-residue modulo each Fermat prime above 3 (Euler's
    criterion) and no square among c_1..c_depth.
    """
    v = (nu & -nu).bit_length() - 1
    odd = nu >> v
    euler = all(pow(nu, (p - 1) // 2, p) == p - 1 for p in EULER_PRIMES)
    strict = True
    c = nu
    for _ in range(depth):
        if _is_square(c):
            strict = False
            break
        c = c * c - nu
    applies = (
        v >= 2 and v % 2 == 0 and odd >= 3 and not _is_square(nu) and euler and strict
    )
    kernel_3_or_7 = any(nu % q == 0 and _is_square(nu // q) for q in (3, 7))
    scope = None if not euler else "universal" if kernel_3_or_7 else "finite"

    # alpha = (1 + sqrt(D)) / 2 with D = 1 + 4 nu; the bound is
    # ceil(alpha) + alpha.
    D = 1 + 4 * nu
    s = isqrt(D)
    if s * s == D:
        upper = (1 + s, 0, 1)  # (2 alpha, no surd part, denominator 1)
        scaled = (1 + s) * 10**6
    else:
        ceil_alpha = (s + 1) // 2 + 1
        upper = (2 * ceil_alpha + 1, 1, 2)  # (2 ceil + 1 + sqrt(D)) / 2
        scaled = ((2 * ceil_alpha + 1) * 10**6 + isqrt(D * 10**12)) // 2
    whole, frac = divmod(scaled, 10**6)
    return {
        "conclusion": "theorem-applies" if applies else "inconclusive",
        "scope": scope,
        "upper": upper,
        "D": D,
        "jr_upper_decimal": f"{whole}.{frac:06d}",
    }


def check_verdict(nu: int, depth: int, out: dict) -> list[str]:
    exp = expected_verdict(nu, depth)
    problems = []
    if out["conclusion"] != exp["conclusion"]:
        problems.append(f"conclusion {out['conclusion']}, expected {exp['conclusion']}")
    if out["scope"] != exp["scope"]:
        problems.append(f"scope {out['scope']}, expected {exp['scope']}")
    a, b, d, q = out["jr_upper"]
    num, surd, den = exp["upper"]
    if surd == 0:
        rational = b == 0 or _is_square(d)
        same = rational and (a + b * isqrt(d)) == num * q
    else:
        # (a + b sqrt(d)) / q == (num + sqrt(D)) / den with sqrt(D) irrational.
        same = a * den == num * q and b * b * d * den * den == exp["D"] * q * q
    if not same:
        problems.append(f"jr_upper {out['jr_upper']} is not ceil(alpha) + alpha")
    if out["jr_upper_decimal"] != exp["jr_upper_decimal"]:
        problems.append(
            f"jr_upper decimal {out['jr_upper_decimal']}, "
            f"expected {exp['jr_upper_decimal']}"
        )
    return problems


def check_group(kind: str, d: int, value: int) -> list[str]:
    expected = {
        "group_order": 2 ** (2**d - 1),
        "agemo_rank": d,
        "index2": 2**d - 1,
    }[kind]
    return [] if value == expected else [f"{kind}({d}) = {value}, expected {expected}"]


def check_closure(gens: tuple[tuple[int, ...], ...], order: int) -> list[str]:
    from sympy.combinatorics import Permutation, PermutationGroup

    from jrtower import TreeAutomorphism, leaf_permutation

    depth = (len(gens[0]) + 1).bit_length() - 1
    perms = [
        Permutation(list(leaf_permutation(TreeAutomorphism(depth, g)))) for g in gens
    ]
    expected = PermutationGroup(perms).order()
    return [] if order == expected else [f"closure order {order}, sympy {expected}"]


def _totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def check_cos(m: int, coeffs: list[int]) -> list[str]:
    """Monic, degree totient(m)/2, and zero at every 2cos(2 pi k / m), k coprime to m."""
    import mpmath

    degree = _totient(m) // 2
    if len(coeffs) - 1 != degree:
        return [f"cos_minpoly({m}) has degree {len(coeffs) - 1}, expected {degree}"]
    if coeffs[-1] != 1:
        return [f"cos_minpoly({m}) is not monic"]
    problems = []
    # Terms reach sum |c_i| 2^i before they cancel; carry 30 digits beyond.
    scale = sum(abs(c) << i for i, c in enumerate(coeffs))
    with mpmath.workdps(len(str(scale)) + 30):
        for k in range(1, (m + 1) // 2):
            if gcd(k, m) != 1:
                continue
            x = 2 * mpmath.cos(2 * mpmath.pi * k / m)
            if abs(mpmath.polyval(coeffs[::-1], x)) > mpmath.mpf(10) ** -20:
                problems.append(f"cos_minpoly({m}) does not vanish at 2cos(2pi*{k}/{m})")
    return problems


def check_radical(d: int, value: bool) -> list[str]:
    return [] if value is True else [f"nested_radical_check({d}) returned {value}"]


def check_disc(nu: int, n: int, disc: int) -> list[str]:
    import sympy

    x = sympy.Symbol("x")
    poly = x
    for _ in range(n):
        poly = sympy.expand(poly**2 - nu)
    expected = sympy.discriminant(poly, x)
    return [] if disc == expected else [f"disc({nu}, {n}) = {disc}, sympy {expected}"]


def check(kind: str, args: tuple, out) -> list[str]:
    """Problems with one operation's output summary."""
    if kind == "verdict":
        return check_verdict(*args, out)
    if kind in ("group_order", "agemo_rank", "index2"):
        return check_group(kind, *args, out)
    if kind == "closure":
        return check_closure(args, out)
    if kind == "cos":
        return check_cos(*args, out)
    if kind == "radical":
        return check_radical(*args, out)
    if kind == "disc":
        return check_disc(*args, out)
    raise ValueError(f"unknown operation kind {kind}")
