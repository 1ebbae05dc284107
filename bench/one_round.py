"""One round of a workload in a fresh process: every operation once.

jrtower memoises per process (factorizations, the prime sieve, the
Fermat primes, the depth-4 group tables), so a round that repeated an
input would time a cache hit; bench/run.py starts one process per round.

    python3 bench/one_round.py --workload scan --seed 1 [--probe] [--check] [--trace 1]

The process imports jrtower from src/, makes one untimed warm-up call,
then times each operation. It reads its peak RSS before anything else
is loaded and prints one JSON line with a digest of the outputs, which
must match between rounds. --check also checks every output
(bench/checks.py); --probe stops before the first timed operation, to
sample set-up time; --trace 1 records layer spans (bench/spans.py) and
reports the layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

FAILED = object()


def prepare(jr, kind: str, args: tuple):
    """The jrtower call behind an operation, as (function, arguments)."""
    if kind == "verdict":
        nu, depth = args
        return jr.jr_verdict, (nu, depth, jr.EFFORT_QUICK)
    if kind == "group_order":
        return jr.closure_order, (jr.minimal_generators(args[0]),)
    if kind == "agemo_rank":
        return jr.agemo_rank, args
    if kind == "index2":
        return jr.count_index2_subgroups, args
    if kind == "closure":
        depth = (len(args[0]) + 1).bit_length() - 1
        return jr.closure_order, ([jr.TreeAutomorphism(depth, g) for g in args],)
    if kind == "cos":
        return jr.cos_minpoly, args
    if kind == "radical":
        return jr.nested_radical_check, args
    if kind == "disc":
        return jr.discriminant_report, args
    raise ValueError(f"unknown operation kind {kind}")


def summarize(kind: str, out):
    """The parts of an output that a user reads, as plain JSON data."""
    if kind == "verdict":
        u = out.jr_upper
        return {
            "conclusion": out.conclusion,
            "scope": out.hypothesis.scope,
            "jr_upper": [u.a, u.b, u.D, u.q],
            "jr_upper_decimal": u.decimal(6),
        }
    if kind == "disc":
        return out.disc
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="file to write the spans to")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    import jrtower

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    calls = [prepare(jrtower, kind, op_args) for kind, op_args in ops]
    warm_fn, warm_args = prepare(jrtower, *workloads.WARM_UP[args.workload])
    warm_fn(*warm_args)
    if tracer:
        tracer.clear()
    first_op = time.monotonic()
    if args.probe:
        print(json.dumps({"first_op": first_op}))
        return 0

    outputs, times, errors = [], [], []
    clock = time.perf_counter
    begin = clock()
    for fn, fn_args in calls:
        start = clock()
        try:
            out = fn(*fn_args)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = FAILED
            errors.append(repr(exc))
        times.append(clock() - start)
        outputs.append(out)
    wall = clock() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall, "ops": len(ops), "failed": len(errors), "errors": errors[:5]}
    if tracer:
        result["layers"] = tracer.metrics()
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    else:
        result.update(first_op=first_op, peak_rss_mb=peak_rss_mb, op_times_s=times)

    summaries = [None if out is FAILED else summarize(kind, out)
                 for (kind, _), out in zip(ops, outputs)]
    if args.check:
        problems = []
        for (kind, op_args), summary in zip(ops, summaries):
            if summary is not None:
                problems += checks.check(kind, op_args, summary)
        result["problems"] = problems[:20]
        result["problem_count"] = len(problems)
    result["digest"] = hashlib.sha256(
        json.dumps(summaries, sort_keys=True).encode()
    ).hexdigest()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
