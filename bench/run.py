"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Each round of the workload is a fresh
process (bench/one_round.py) that does every operation once; rounds
repeat until --seconds have passed, always finishing the round under
way. Each operation's latency is the least of its times over the
rounds; wall_s is their sum, op_p50_s their median and op_tail_s the
one with ten operations above it. The first round's outputs are
checked, and every later round must produce the same outputs. Untraced
runs first start a few processes that stop before the first timed
operation, so that set-up time (process start to first timed
operation) is the least of several samples too.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. Per-round figures go to bench/out/, and a traced run also
writes the spans of its first round there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
ROUND = os.path.join(HERE, "one_round.py")

SETUP_PROBES = 5
# Operations a tail percentile must leave beyond it.
TAIL_SAMPLES = 10
# A round that runs longer than this is killed and fails the run, which
# must end within 180 s.
ROUND_TIMEOUT_S = 100


class RoundError(RuntimeError):
    pass


def spawn(args: list[str]) -> tuple[float, dict]:
    """Start one round process; return its start time and its JSON line."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, ROUND, *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round {args} ran past {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RoundError(f"round {args} exited with {proc.returncode}:\n{proc.stderr}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(rounds: list[dict], names: list[str]) -> tuple[dict, bool]:
    """Least self times over rounds; counts and ratios, which must repeat."""
    out = {}
    steady = True
    for name in names:
        values = [r["layers"][name] for r in rounds]
        if name.endswith(".self_s"):
            out[name] = min(values)
        else:
            out[name] = values[0]
            steady &= all(v == values[0] for v in values)
    return out, steady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="how long to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jrtower", "__init__.py")):
        print("bench: src/jrtower not found; run from a checkout of jrtower",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                started, probe = spawn(base + ["--probe"])
                setups.append(probe["first_op"] - started)
        rounds = []
        begin = time.monotonic()
        while not rounds or time.monotonic() - begin < args.seconds:
            extra = []
            if not rounds:
                extra = ["--check"]
                if args.trace:
                    extra += ["--trace-out", os.path.join(OUT_DIR, f"{tag}.spans.json")]
            started, result = spawn(base + extra)
            if not args.trace:
                setups.append(result["first_op"] - started)
            rounds.append(result)
    except RoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    correct = rounds[0]["problem_count"] == 0
    correct &= len({r["digest"] for r in rounds}) == 1
    if args.trace:
        metric_spec = spec["per_layer"]
        values, steady = layer_metrics(rounds, [m["name"] for m in metric_spec])
        correct &= steady
    else:
        metric_spec = spec["end_to_end"]
        # Interference from other work on the machine only adds time, and
        # comes in bursts: the least of a run's samples is the figure that
        # repeats from run to run.
        latencies = [min(op) for op in zip(*(r["op_times_s"] for r in rounds))]
        values = {
            "setup_s": min(setups),
            "wall_s": sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": sorted(latencies)[-1 - TAIL_SAMPLES],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    summary = {
        "correct": correct,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setups_s": setups, "rounds": rounds, "summary": summary}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for line in rounds[0]["problems"] + rounds[0]["errors"]:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
