"""Command line interface.

Exit codes: 0 = success / conclusive, 2 = completed but inconclusive,
1 = usage or input error. JSON output follows a fixed envelope
{"schema": 1, "command": ..., "input": ..., "result": ...} with every
integer serialized as a decimal string (values routinely exceed 64-bit
ranges). Scan output is a pure function of (lo, hi, effort):
identical bytes across reruns and worker counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .discriminant import RESULTANT_CAP, discriminant_report
from .factor import EFFORT_PRESETS, Effort
from .intmath import split_two_part
from .orbit import constant_terms, tower_strict, valuation_profile
from .residue import (
    PEPIN_CAP,
    fermat_mod_pattern,
    fermat_number,
    known_fermat_primes,
    nonresidue_37_check,
)
from .squareclasses import DEPENDENT, INDEPENDENT, contains_sqrt
from .verdict import (
    INCONCLUSIVE,
    THEOREM_APPLIES,
    constructible_order,
    cos_minpoly,
    jr_verdict,
    nested_radical_check,
    window_elements_deg2,
)
from .wreath import agemo_rank, count_index2_subgroups, minimal_generators

SCHEMA_VERSION = 1
CSV_HEADER = "nu,conclusion,scope,jr_upper_decimal,flags"


class _Parser(argparse.ArgumentParser):
    """argparse whose usage failures exit 1 (2 means 'inconclusive' here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _stringify(obj):
    """Copy a JSON-able structure with all ints rendered as decimal strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


def canonical_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _document(args, input_doc: dict, result: dict) -> str:
    return canonical_json({
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "input": _stringify(input_doc),
        "result": _stringify(result),
    })


def _emit(args, input_doc: dict, result, human) -> None:
    """Print the JSON document of what result() returns, or else the
    text that human() builds; only the one printed is built."""
    print(_document(args, input_doc, result()) if args.json else human())


def _effort(args) -> Effort:
    return EFFORT_PRESETS[args.effort]


# ---------------------------------------------------------------------------
# verify


def _render_verdict(report) -> str:
    lines = [f"JR verdict for nu = {report.nu} (depth {report.depth})"]
    v, mu = split_two_part(report.nu)
    lines.append(
        f"  decomposition: nu = 2^{v} * {mu}"
        f"{'' if report.strict else ' (perfect square)'}"
    )
    for name, ok in report.clauses:
        mark = "pass" if ok else "FAIL"
        lines.append(f"  [{mark}] {name}")
    if report.scope:
        basis = report.kernel_basis
        via = f" via square-free kernel {basis}" if basis else ""
        lines.append(f"  residue scope: {report.scope}{via}")
    if report.failed_prime:
        lines.append(f"  smallest violating Fermat prime: {report.failed_prime}")
    lines.append(
        f"  tower strict to depth {report.depth}: "
        + ("yes" if report.strict else f"no (c_{report.strict_witness} is a square)")
    )
    lines.append(
        "  sqrt(2) exclusion: "
        + ("certified" if report.sqrt2_certified
           else f"not certified ({report.sqrt2_reason})")
    )
    if report.sqrt2_certified:
        flag = report.mu_not_squarefree
        if flag:
            lines.append("  note: odd part of nu is not square-free (uncharted territory flag)")
        elif flag is None:
            lines.append("  note: square-freeness of the odd part of nu was not decided "
                         "within the effort")
    for ob in report.obstructions:
        detail = "" if ob.status == "excluded" else f" ({ob.reason})"
        lines.append(f"  Fermat prime {ob.p}: {ob.status}{detail}")
    alpha, upper = report.alpha, report.jr_upper
    lines.append(f"  alpha = {alpha} = {alpha.decimal(6)}")
    lines.append(
        f"  JR upper bound ceil(alpha) + alpha = {upper} = {upper.decimal(6)}"
    )
    lines.append(f"  conclusion: {report.conclusion}")
    for reason in report.reasons:
        lines.append(f"    - {reason}")
    for statement in report.statements:
        lines.append(f"    * {statement}")
    if report.finite_scope_caveat:
        lines.append(
            "  caveat: residue certificate covers the known Fermat primes only"
        )
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    report = jr_verdict(args.nu, depth=args.depth, effort=_effort(args))
    _emit(args, {"nu": args.nu, "depth": args.depth, "effort": args.effort},
          report.to_json, lambda: _render_verdict(report))
    return 0 if report.conclusive else 2


# ---------------------------------------------------------------------------
# scan


def _scan_row(nu: int, effort: Effort) -> tuple[str, ...]:
    """The five CSV fields of nu's row. No field holds a comma, so the
    row's CSV line is ",".join(row) and its JSON record zips it with the
    CSV header's names."""
    # No field of a row depends on the depth (each verdict decides every
    # level at once), so the default depth stands for all of them.
    report = jr_verdict(nu, effort=effort)
    # One read of conclusive stands in for finite_scope_caveat and
    # conclusion, which each read it again.
    conclusive = report.conclusive
    flags = []
    if conclusive and report.kernel_basis is None:
        flags.append("finite-scope-caveat")
    if report.sqrt2_certified:
        flag = report.mu_not_squarefree
        if flag is not False:
            flags.append("mu-not-squarefree" if flag else "mu-squarefree-undecided")
    if not conclusive:
        flags.append(_reason_flags(report.reasons))
    return (str(nu), THEOREM_APPLIES if conclusive else INCONCLUSIVE, report.scope or "none",
            report.jr_upper_decimal, "|".join(flags))


@lru_cache(maxsize=None)
def _reason_flags(reasons: tuple[str, ...]) -> str:
    """The flags text of an inconclusive row's reasons, which name no nu,
    so each distinct tuple is rendered once per process."""
    return "|".join(reason.replace(",", ";").replace(" ", "_") for reason in reasons)


def _print_rows(args, rows) -> None:
    """Stream rows to stdout as the CSV, or under --json as the JSON
    document, one record per row, in the order given."""
    out = sys.stdout
    if not args.json:
        out.write(CSV_HEADER + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
        return
    input_doc = {"lo": args.lo, "hi": args.hi, "effort": args.effort}
    head, _, tail = _document(args, input_doc, {"records": []}).partition("[]")
    out.write(head + "[")
    fields = CSV_HEADER.split(",")
    for i, row in enumerate(rows):
        out.write(("," if i else "") + canonical_json(dict(zip(fields, row))))
    out.write("]" + tail + "\n")


def _journal_header(lo: int, hi: int, effort: str) -> dict:
    """First journal entry: the inputs its rows were computed for."""
    return {"lo": lo, "hi": hi, "effort": effort, "schema": SCHEMA_VERSION}


def _resume_journal(path: str, header: bytes, lo: int, hi: int) -> int:
    """Ready the journal at path for appending; return the first nu it lacks.

    A journal is its header line, then the CSV lines of lo, lo+1, ... in
    turn. The longest such run of complete lines is kept and the file
    cut back to its end: a torn final write, a line of any other form or
    a header for other inputs ends the run there.
    """
    nu, kept = lo, 0
    if os.path.exists(path):
        with open(path, "rb") as fh:
            if fh.readline() == header:
                kept = len(header)
                for line in fh:
                    if nu > hi or not (line.startswith(b"%d," % nu)
                                       and line.endswith(b"\n")
                                       and line.count(b",") == 4):
                        break
                    nu, kept = nu + 1, kept + len(line)
    if kept:
        os.truncate(path, kept)
    else:
        with open(path, "wb") as fh:
            fh.write(header)
    return nu


def _cmd_scan(args) -> int:
    lo, hi = args.lo, args.hi
    if lo < 2 or hi < lo:
        print("scan range must satisfy 2 <= lo <= hi", file=sys.stderr)
        return 1
    if args.out and os.path.isdir(args.out):
        raise IsADirectoryError(f"--out {args.out} is a directory")
    effort = _effort(args)
    if not args.out:
        _print_rows(args, (_scan_row(nu, effort) for nu in range(lo, hi + 1)))
        return 0

    partial, tmp = args.out + ".partial", args.out + ".tmp"
    header = json.dumps({"header": _journal_header(lo, hi, args.effort)}).encode() + b"\n"
    start = _resume_journal(partial, header, lo, hi)
    with open(partial, "ab") as journal:
        for nu in range(start, hi + 1):
            journal.write(",".join(_scan_row(nu, effort)).encode() + b"\n")
            journal.flush()
    with open(partial, "rb") as journal, open(tmp, "wb") as fh:
        journal.readline()
        fh.write(CSV_HEADER.encode() + b"\n")
        fh.writelines(journal)
    os.replace(tmp, args.out)
    os.remove(partial)
    if not args.json:
        print(f"wrote {hi - lo + 1} records to {args.out}")
        return 0
    with open(args.out, encoding="utf-8", newline="") as fh:
        next(fh)
        _print_rows(args, (line[:-1].split(",") for line in fh))
    return 0


# ---------------------------------------------------------------------------
# remaining subcommands


def _cmd_disc(args) -> int:
    report = discriminant_report(args.nu, args.n)
    result = {
        "disc": report.disc,
        "oracle": report.oracle,
        "norms": list(report.norms),
        "oracle_ran": report.oracle is not None,
    }

    def human():
        lines = [f"disc(x_{args.n}) over nu = {args.nu}: {report.disc}"]
        if report.oracle is not None:
            lines.append(f"  resultant oracle agrees: {report.oracle}")
        else:
            lines.append(f"  resultant oracle skipped (n > {RESULTANT_CAP})")
        lines.append("  norm ladder: " + ", ".join(str(x) for x in report.norms))
        return "\n".join(lines)

    _emit(args, {"nu": args.nu, "n": args.n}, lambda: result, human)
    return 0


def _cmd_orbit(args) -> int:
    seq = constant_terms(args.nu, args.n)
    strict = tower_strict(seq)
    profiles = {}
    for p in (2, 3, 5, 7, 11, 13):
        prof = valuation_profile(seq, p)
        if prof.first_index is not None:
            profiles[p] = {
                "first_index": prof.first_index,
                "e": prof.e,
                "valuations": list(prof.valuations),
            }
    # One elimination of (c_1..c_n, 2) gives the rank of c_1..c_n and the
    # membership of sqrt(2); the c's are 2-independent when the rank is n.
    sqrt2 = contains_sqrt(args.nu, args.n, 2)
    independence = INDEPENDENT if sqrt2.rank == args.n else DEPENDENT
    rank = sqrt2.rank if independence == INDEPENDENT else None
    result = {
        "c": list(seq.c),
        "ell": list(seq.ell),
        "strict": strict.strict,
        "strict_witness": strict.witness,
        "valuation_profiles": profiles,
        "independence": independence,
        "rank": rank,
        "sqrt2_status": sqrt2.status,
    }

    def human():
        lines = [f"orbit constants for nu = {args.nu}:"]
        for i, (c, ell) in enumerate(zip(seq.c, seq.ell), start=1):
            lines.append(f"  c_{i} = {c}   ell_{i} = {ell}")
        lines.append(
            "  strict: " + ("yes" if strict.strict else f"no (c_{strict.witness} square)")
        )
        for p, prof in profiles.items():
            lines.append(
                f"  v_{p}: first index {prof['first_index']}, e = {prof['e']}, "
                f"profile {prof['valuations']}"
            )
        lines.append(f"  2-independence: {independence}"
                     + (f" (rank {rank})" if rank is not None else ""))
        lines.append(f"  sqrt(2) in level {args.n}: {sqrt2.status}")
        return "\n".join(lines)

    _emit(args, {"nu": args.nu, "n": args.n}, lambda: result, human)
    return 0


def _cmd_group(args) -> int:
    gens = minimal_generators(args.n)
    rank = agemo_rank(args.n)
    # agemo_rank raises unless the generators close to this full order.
    order = 2 ** (2**args.n - 1)
    count = count_index2_subgroups(args.n)
    result = {
        "depth": args.n,
        "order": order,
        "generator_count": len(gens),
        "agemo_rank": rank,
        "index2_subgroups": count,
    }
    _emit(args, {"n": args.n}, lambda: result, lambda: (
        f"iterated wreath product at depth {args.n}: order {order} = 2^{2**args.n - 1}\n"
        f"  minimal generators: {len(gens)}\n"
        f"  rank of G / G^2[G,G]: {rank}\n"
        f"  index-2 subgroups: {count} = 2^{rank} - 1"
    ))
    return 0


def _cmd_fermat(args) -> int:
    rows = []
    for k in range(PEPIN_CAP + 1):
        fn = fermat_number(k)
        row = {"index": k, "primality": fn.primality}
        if k <= 4:
            row["value"] = fn.value
        if 1 <= k:
            mod7, mod3 = fermat_mod_pattern(k)
            row["mod7"], row["mod3"] = mod7, mod3
        rows.append(row)
    checks = {
        str(p): dict(zip(("three", "seven"), nonresidue_37_check(p)))
        for p in known_fermat_primes()
        if p > 3
    }
    result = {"numbers": rows, "nonresidue_checks": checks}

    def human():
        lines = ["Fermat numbers through the Pepin cap:"]
        for row in rows:
            extra = f" mod7={row.get('mod7')} mod3={row.get('mod3')}" if "mod7" in row else ""
            lines.append(f"  F_{row['index']}: {row['primality']}{extra}")
        lines.append("3 and 7 are non-residues modulo every known Fermat prime > 3: "
                     + ("yes" if all(all(v.values()) for v in checks.values()) else "NO"))
        return "\n".join(lines)

    _emit(args, {}, lambda: result, human)
    return 0


def _cmd_cos(args) -> int:
    poly = cos_minpoly(args.m)
    decomp = constructible_order(args.m)
    result = {
        "m": args.m,
        "minpoly_ascending": poly,
        "degree": len(poly) - 1,
        "constructible": decomp.constructible,
        "two_exponent": decomp.two_exponent,
        "odd_primes": [[p, e] for p, e in decomp.odd_primes],
    }
    if decomp.constructible:
        # 2^a if a >= 2, then each Fermat p: 2cos(2*pi/m) lies in their compositum
        two = [2**decomp.two_exponent] if decomp.two_exponent >= 2 else []
        result["components"] = two + [p for p, _ in decomp.odd_primes]

    def human():
        lines = [
            f"2cos(2*pi/{args.m}): minimal polynomial degree {len(poly) - 1}",
            "  coefficients (ascending): " + ", ".join(str(c) for c in poly),
            f"  constructible order: {decomp.constructible}",
        ]
        if decomp.constructible:
            lines.append("  components: " + " * ".join(str(x) for x in result["components"]))
        return "\n".join(lines)

    _emit(args, {"m": args.m}, lambda: result, human)
    return 0


def _cmd_window(args) -> int:
    from fractions import Fraction

    try:
        t = Fraction(args.t)
    except (ValueError, ZeroDivisionError):
        print(f"invalid window bound: {args.t!r}", file=sys.stderr)
        return 1
    elements = window_elements_deg2(args.nu, t, args.height)
    result = {
        "nu": args.nu,
        "t": str(t),
        "height": args.height,
        "elements": [[a, b] for a, b in elements],
        "count": len(elements),
    }

    def human():
        lines = [f"degree <= 2 elements a + b*sqrt({args.nu}) with conjugates in (0, {t}):"]
        lines.extend(f"  ({a}, {b})" for a, b in elements)
        lines.append(f"  total: {len(elements)}")
        return "\n".join(lines)

    _emit(args, {"nu": args.nu, "t": str(t), "height": args.height}, lambda: result, human)
    return 0


def _cmd_radical(args) -> int:
    ok = nested_radical_check(args.d)
    result = {"d": args.d, "verified": ok}
    _emit(args, {"d": args.d}, lambda: result, lambda: (
        f"2cos(2*pi/2^{args.d + 1}) equals the {args.d - 1}-fold nested radical "
        f"sqrt(2 + sqrt(2 + ...)): verified"
    ))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jrtower", description=__doc__)
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true", help="canonical JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, parents=[json_opt], help=help)
        p.set_defaults(func=func)
        return p

    def effort_option(p):
        p.add_argument("--effort", choices=sorted(EFFORT_PRESETS), default="default",
                       help="factorization budget preset")

    p = command("verify", _cmd_verify, "full JR verdict for one nu")
    p.add_argument("--depth", type=int, default=5, help="tower depth (default 5)")
    effort_option(p)
    p.add_argument("nu", type=int)

    p = command("scan", _cmd_scan, "verdict records for a range")
    effort_option(p)
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--out", help="CSV output file, with a resume journal")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: a scan runs serially")

    p = command("disc", _cmd_disc, "discriminant with oracle and norm ladder")
    p.add_argument("nu", type=int)
    p.add_argument("n", type=int)

    p = command("orbit", _cmd_orbit, "orbit constants, strictness, valuation profiles")
    p.add_argument("nu", type=int)
    p.add_argument("n", type=int)

    p = command("group", _cmd_group, "wreath product order, rank, subgroup count")
    p.add_argument("n", type=int)

    command("fermat", _cmd_fermat, "Pepin table and non-residue checks")

    p = command("cos", _cmd_cos, "cosine minimal polynomial and constructibility")
    p.add_argument("m", type=int)

    p = command("window", _cmd_window, "degree <= 2 totally positive elements under t")
    p.add_argument("nu", type=int)
    p.add_argument("t", help="window bound (integer or fraction like 15/2)")
    p.add_argument("height", type=int, help="bound on the sqrt coefficient")

    p = command("radical", _cmd_radical, "verify the nested-radical cosine identity")
    p.add_argument("d", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    # nu and the orbit constants it prints may run past the 4300 digits
    # that int <-> str conversion allows by default since Python 3.11.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError, but a closed pipe stays silent
        return 1
    except (OSError, ValueError) as exc:  # ValueError covers the jrtower errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
