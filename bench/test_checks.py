"""The benchmark's output checks accept jrtower's outputs and reject altered ones."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import one_round
import spans
import workloads

import jrtower
from jrtower import EFFORT_QUICK, jr_verdict

BENCH = Path(__file__).resolve().parent


def verdict_summary(nu, depth=5):
    return one_round.summarize("verdict", jr_verdict(nu, depth, EFFORT_QUICK))


@pytest.mark.parametrize("nu", [2, 8, 12, 16, 20, 28, 44, 48, 56, 147, 240, 588])
def test_verdict_check_accepts_program_output(nu):
    assert checks.check("verdict", (nu, 5), verdict_summary(nu)) == []


def test_verdict_rule_covers_every_case():
    expected = {checks.expected_verdict(nu, 5)["conclusion"] for nu in range(2, 200)}
    scopes = {checks.expected_verdict(nu, 5)["scope"] for nu in range(2, 200)}
    assert expected == {"theorem-applies", "inconclusive"}
    assert scopes == {None, "finite", "universal"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("conclusion", "inconclusive"),
        ("scope", "finite"),
        ("jr_upper", [10, 1, 49, 2]),
        ("jr_upper", [9, 1, 49, 1]),
        ("jr_upper_decimal", "8.000001"),
    ],
)
def test_verdict_check_rejects_altered_output(field, value):
    out = verdict_summary(12)  # theorem-applies, universal, upper bound 8
    assert out["jr_upper"] == [9, 1, 49, 2]
    out[field] = value
    assert checks.check("verdict", (12, 5), out)


def test_verdict_check_rejects_flipped_inconclusive():
    out = verdict_summary(8)
    out["conclusion"] = "theorem-applies"
    assert checks.check("verdict", (8, 5), out)


def test_verdict_check_rejects_irrational_bound_shifted():
    out = verdict_summary(20)
    a, b, d, q = out["jr_upper"]
    assert checks.check("verdict", (20, 5), out) == []
    out["jr_upper"] = [a + q, b, d, q]
    assert checks.check("verdict", (20, 5), out)


@pytest.mark.parametrize("kind", ["group_order", "agemo_rank", "index2"])
def test_group_checks(kind):
    fn, args = one_round.prepare(jrtower, kind, (3,))
    value = fn(*args)
    assert checks.check(kind, (3,), value) == []
    assert checks.check(kind, (3,), value + 1)
    assert checks.check(kind, (3,), value - 1)


def test_closure_check_matches_sympy_and_rejects_wrong_order():
    gens = workloads.generating_sets(workloads._rng("algebra", 7))[0]
    fn, args = one_round.prepare(jrtower, "closure", gens)
    order = fn(*args)
    assert order == 2**15
    assert checks.check("closure", gens, order) == []
    assert checks.check("closure", gens, order // 2)


def test_closure_check_on_a_proper_subgroup():
    gens = ((1,) + (0,) * 14, (0, 1) + (0,) * 13)
    fn, args = one_round.prepare(jrtower, "closure", gens)
    order = fn(*args)
    assert order < 2**15
    assert checks.check("closure", gens, order) == []
    assert checks.check("closure", gens, order + 1)


@pytest.mark.parametrize("m", [3, 5, 12, 17, 97, 167, 200])
def test_cos_check(m):
    coeffs = jrtower.cos_minpoly(m)
    assert checks.check("cos", (m,), coeffs) == []
    shifted = coeffs[:]
    shifted[0] += 1
    assert checks.check("cos", (m,), shifted)
    assert checks.check("cos", (m,), coeffs[:-1] + [2])
    assert checks.check("cos", (m,), coeffs + [1])


def test_radical_check():
    assert checks.check("radical", (6,), jrtower.nested_radical_check(6)) == []
    assert checks.check("radical", (6,), False)


@pytest.mark.parametrize("nu, n", [(3, 1), (12, 2), (50, 3), (999, 4)])
def test_disc_check(nu, n):
    disc = one_round.summarize("disc", jrtower.discriminant_report(nu, n))
    assert checks.check("disc", (nu, n), disc) == []
    assert checks.check("disc", (nu, n), disc + 1)
    assert checks.check("disc", (nu, n), -disc)


def test_workloads_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build("algebra", 3) != workloads.build("algebra", 4)


def test_workload_inputs_stay_in_their_ranges():
    for seed in range(40):
        scan = [args[0] for _, args in workloads.build("scan", seed)]
        deep = [args[0] for _, args in workloads.build("deep", seed)]
        assert len(scan) == workloads.SCAN_WIDTH and scan[0] >= 2 and scan[-1] <= 501
        assert sorted(deep) == list(workloads.DEEP_NUS)
        assert workloads.WARM_UP["scan"][1][0] not in scan
        assert workloads.WARM_UP["deep"][1][0] not in deep
        ops = workloads.build("algebra", seed)
        nus = {args[0] for kind, args in ops if kind == "disc"}
        assert 2 not in nus and not any(checks._is_square(nu) for nu in nus)


def test_tracer_self_time_and_ratios():
    tracer = spans.Tracer()
    names = ["factor.factorize_cached", "factor.factorize", "squareclasses.two_independent"]
    for name in names:
        tracer.names.append(name)
    # cached(0..10) -> factorize(2..6); cached(11..12) hit; two_independent(20..30)
    tracer.spans += [
        [0, 0.0, 10.0, -1, None],
        [1, 2.0, 6.0, 0, True],
        [0, 11.0, 12.0, -1, None],
        [2, 20.0, 30.0, -1, False],
    ]
    m = tracer.metrics()
    assert m["factor.factorize_cached.self_s"] == pytest.approx(7.0)
    assert m["factor.factorize.self_s"] == pytest.approx(4.0)
    assert m["factor.factorize_cached.calls"] == 2
    assert m["factor.cache_hit_ratio"] == pytest.approx(0.5)
    assert m["factor.complete_ratio"] == pytest.approx(1.0)
    assert m["squareclasses.decided_ratio"] == pytest.approx(0.0)


def test_one_round_traces_layers_and_counts_repeat(tmp_path):
    def traced_round():
        out = subprocess.run(
            [sys.executable, str(BENCH / "one_round.py"), "--workload", "scan",
             "--seed", "1", "--check", "--trace", "1", "--trace-out", str(tmp_path / "s.json")],
            capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout.splitlines()[-1])

    first, second = traced_round(), traced_round()
    assert first["problem_count"] == 0 and first["failed"] == 0
    counts = {k: v for k, v in first["layers"].items() if k.endswith(".calls")}
    assert counts == {k: second["layers"][k] for k in counts}
    assert counts["verdict.jr_verdict.calls"] == workloads.SCAN_WIDTH
    dump = json.loads((tmp_path / "s.json").read_text())
    assert len(dump["spans"]) == sum(counts.values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((BENCH.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
