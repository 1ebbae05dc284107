"""The benchmark's layer tracer finds every function it wraps, and a
benchmark round checks its own outputs and traces the verdict's layers."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"

# The digest of each workload's seed-1 round: a hash of what a user
# reads of every output, so it moves only when an output changes.
ROUND_DIGESTS = {
    "scan": "cfb39655603ec667142de219e2cf0e3266ec2270997374efa119150a4792a117",
    "deep": "7c611564e2afa06653296a7a433c0ba8ed00abc9d481d44efb0ebf5aa5990398",
    "algebra": "d4e6643ba494e3ccfdc8aa7d6f2e760cc5497257ea33f2bc5073e53db8b01c38",
}


def _one_round(*args: str) -> dict:
    """bench/one_round.py at seed 1 in a fresh process, as its JSON line."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "one_round.py"), "--seed", "1", *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_every_traced_layer_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"jrtower.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"jrtower.{layer}.{name}"


@pytest.mark.parametrize("workload", sorted(ROUND_DIGESTS))
def test_a_checked_round_passes_its_checks_and_keeps_its_digest(workload):
    result = _one_round("--workload", workload, "--check")
    assert (result["problem_count"], result["failed"]) == (0, 0), (
        result["problems"], result["errors"])
    assert result["digest"] == ROUND_DIGESTS[workload]


def test_a_traced_scan_round_times_the_decision_of_every_verdict():
    """jr_verdict reaches hypothesis_check through the module, so the
    tracer's wrapper sees one decision per verdict."""
    layers = _one_round("--workload", "scan", "--trace", "1")["layers"]
    assert layers["verdict.hypothesis_check.calls"] == layers["verdict.jr_verdict.calls"] == 400
