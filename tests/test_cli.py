import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jrtower
from jrtower.cli import CSV_HEADER, build_parser, canonical_json, main
from jrtower.factor import EFFORT_DEFAULT, EFFORT_QUICK
from jrtower.verdict import jr_verdict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_ints_are_strings(node, path="result"):
    """JSON payload numbers must be decimal strings, never raw ints."""
    if isinstance(node, dict):
        for k, v in node.items():
            assert_ints_are_strings(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            assert_ints_are_strings(v, f"{path}[{i}]")
    else:
        assert not isinstance(node, int) or isinstance(node, bool), path


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "12")
    assert code == 0
    assert "theorem-applies" in out
    code, out, _ = run(capsys, "verify", "8")
    assert code == 2
    assert "inconclusive" in out


def test_lines_and_refusals_no_golden_reaches(capsys):
    """The finite-scope caveat, a skipped resultant oracle, an unreadable
    window bound and a depth past the cap."""
    code, out, _ = run(capsys, "verify", "2132")
    assert code == 0
    assert out.endswith("  caveat: residue certificate covers the known Fermat primes only\n")
    code, out, _ = run(capsys, "disc", "5", "5")
    assert code == 0
    assert "\n  resultant oracle skipped (n > 4)\n" in out
    assert run(capsys, "window", "12", "abc") == (1, "", "invalid window bound: 'abc'\n")
    assert run(capsys, "verify", "12", "--depth", "13") == (
        1, "", "error: depth must be between 1 and 12\n")


def test_an_undecided_square_free_flag_shows(capsys):
    """nu = 4 p q with p, q of 21 digits is sqrt2_certified, and at quick
    effort its square-free flag stays None: the human text says so in a
    note and the scan row in a token of its own, where a False flag
    prints nothing."""
    nu = str(4 * (10**20 + 39) * (10**20 + 129))
    assert jr_verdict(int(nu), 5, EFFORT_QUICK).mu_not_squarefree is None
    code, out, _ = run(capsys, "verify", nu, "--effort", "quick")
    assert code == 2
    assert ("  sqrt(2) exclusion: certified\n  note: square-freeness of the odd part "
            "of nu was not decided within the effort\n") in out
    code, out, _ = run(capsys, "scan", nu, nu, "--effort", "quick")
    assert code == 0
    assert out.split("\n")[1].split(",")[4].startswith("mu-squarefree-undecided|")

def test_verify_json_document(capsys):
    code, out, _ = run(capsys, "verify", "--json", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "verify"
    assert doc["input"]["nu"] == "12"
    assert doc["result"]["conclusion"] == "theorem-applies"
    assert_ints_are_strings(doc["result"])
    # canonical form: sorted keys, no whitespace
    assert out.strip() == canonical_json(doc)


def test_verify_json_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--json", "12")
    _, second, _ = run(capsys, "verify", "--json", "12")
    assert first == second


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "verify", "twelve")
    assert code == 1
    assert "usage:" in err
    code, _, err = run(capsys, "nosuchcommand")
    assert code == 1
    code, _, err = run(capsys, "verify")
    assert code == 1


def test_scan_csv_shape(capsys):
    code, out, _ = run(capsys, "scan", "4", "8", "--effort", "quick")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "nu,conclusion,scope,jr_upper_decimal,flags"
    assert len(lines) == 6
    for nu, line in zip(range(4, 9), lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(nu)
        assert cells[1] in ("theorem-applies", "inconclusive")
        # flags may not smuggle in extra commas
        assert len(cells) == 5


def test_scan_single_record_exit_zero(capsys):
    code, out, _ = run(capsys, "scan", "4", "4", "--effort", "quick")
    assert code == 0  # inconclusive records are still a successful scan
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("4,inconclusive,")


def test_scan_rejects_bad_range(capsys):
    code, _, err = run(capsys, "scan", "13", "12")
    assert code == 1
    assert "range" in err
    code, _, err = run(capsys, "scan", "1", "5")
    assert code == 1


def test_scan_out_file_and_journal_cleanup(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "4", "12", "--effort", "quick",
                       "--out", str(out_file))
    assert code == 0
    assert "wrote 9 records" in out
    text = out_file.read_text()
    assert text.startswith(CSV_HEADER + "\n")
    assert len(text.strip().split("\n")) == 10
    assert not (tmp_path / "scan.csv.partial").exists()


def test_scan_resume_from_partial_journal(tmp_path, capsys):
    from jrtower.cli import _journal_header, _scan_row

    fresh = tmp_path / "fresh.csv"
    code, _, _ = run(capsys, "scan", "4", "12", "--effort", "quick",
                     "--out", str(fresh))
    assert code == 0

    resumed = tmp_path / "resumed.csv"
    journal = tmp_path / "resumed.csv.partial"
    with journal.open("w") as fh:
        fh.write(json.dumps({"header": _journal_header(4, 12, "quick")}) + "\n")
        for nu in (4, 5, 6):
            fh.write(",".join(_scan_row(nu, EFFORT_QUICK)) + "\n")
        fh.write("7,inconclusive,no")  # torn final write
    code, _, _ = run(capsys, "scan", "4", "12", "--effort", "quick",
                     "--out", str(resumed))
    assert code == 0
    assert resumed.read_bytes() == fresh.read_bytes()
    assert not journal.exists()


def test_an_interrupted_scan_leaves_the_same_journal_bytes(tmp_path, capsys, monkeypatch):
    """A journal holds nothing but the scan's inputs and rows, so two
    runs cut at the same nu leave the same bytes, and a resume of either
    writes the CSV of an uninterrupted run."""
    from jrtower import cli
    from jrtower.errors import ResourceLimitError

    fresh = tmp_path / "fresh.csv"
    assert run(capsys, "scan", "4", "12", "--out", str(fresh))[0] == 0
    real = cli._scan_row

    def cut_at_9(nu, effort):
        if nu == 9:
            raise ResourceLimitError("cut at nu = 9")
        return real(nu, effort)

    journals = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        out_file = tmp_path / name / "scan.csv"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_scan_row", cut_at_9)
            code, _, err = run(capsys, "scan", "4", "12", "--out", str(out_file))
        assert code == 1 and "cut at nu = 9" in err
        assert not out_file.exists()
        journals.append((tmp_path / name / "scan.csv.partial").read_bytes())
    assert journals[0] == journals[1]
    assert len(journals[0].splitlines()) == 6  # the header and nu = 4..8
    assert run(capsys, "scan", "4", "12", "--out", str(out_file))[0] == 0
    assert out_file.read_bytes() == fresh.read_bytes()


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(cut=st.integers(4, 60), data=st.data())
def test_a_scan_cut_anywhere_resumes_to_the_fresh_bytes(tmp_path_factory, cut, data):
    """Cut `scan 4 60 --out` at any nu, then the journal at any byte: the
    resume writes the bytes of an uninterrupted run and leaves no journal
    or temporary file."""
    from jrtower import cli
    from jrtower.errors import ResourceLimitError

    directory = tmp_path_factory.mktemp("resume")
    fresh, out_file = directory / "fresh.csv", directory / "scan.csv"
    argv = ["scan", "4", "60", "--effort", "quick", "--out"]
    assert main(argv + [str(fresh)]) == 0
    real = cli._scan_row

    def cut_at(nu, effort):
        if nu == cut:
            raise ResourceLimitError(f"cut at nu = {cut}")
        return real(nu, effort)

    with mock.patch.object(cli, "_scan_row", cut_at):
        assert main(argv + [str(out_file)]) == 1
    journal = directory / "scan.csv.partial"
    os.truncate(journal, data.draw(st.integers(0, journal.stat().st_size)))
    assert main(argv + [str(out_file)]) == 0
    assert out_file.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(directory)) == ["fresh.csv", "scan.csv"]


@pytest.mark.parametrize("form", ["json-records", "four-fields", "past-hi"])
def test_a_journal_line_of_another_form_ends_the_replay(tmp_path, capsys, form):
    """The replay stops at a line that is not the next nu's five CSV
    fields: the JSON record lines scan journaled before its journal held
    CSV rows, a row with a field missing, or a row past hi."""
    from jrtower.cli import _journal_header, _scan_row

    fresh = tmp_path / "fresh.csv"
    assert run(capsys, "scan", "4", "12", "--effort", "quick", "--out", str(fresh))[0] == 0
    rows = [_scan_row(nu, EFFORT_QUICK) for nu in range(4, 14)]
    lines = {
        "json-records": [json.dumps({"record": dict(zip(CSV_HEADER.split(","), row),
                                                    nu=int(row[0]), conclusion="marked")})
                         for row in rows[:3]],
        "four-fields": [",".join(rows[0]), ",".join(rows[1][:4])],
        "past-hi": [",".join(row) for row in rows],
    }[form]
    with (tmp_path / "scan.csv.partial").open("w") as fh:
        fh.write(json.dumps({"header": _journal_header(4, 12, "quick")}) + "\n")
        fh.writelines(line + "\n" for line in lines)
    out_file = tmp_path / "scan.csv"
    assert run(capsys, "scan", "4", "12", "--effort", "quick", "--out", str(out_file))[0] == 0
    assert out_file.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "scan.csv"]


def test_scan_memory_does_not_grow_with_the_range(tmp_path):
    """Each row is written when it is decided and then dropped, so the
    tracemalloc peak of 2..40000 stays within twice that of 2..4000."""
    peaks = []
    for hi in (4000, 40000):
        with open(tmp_path / "scan.csv", "w") as fh, contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                assert main(["scan", "2", str(hi), "--effort", "quick"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def _cli(*argv, prelude=""):
    """Run `python -c` with jrtower importable: prelude, then main(argv)."""
    src = os.path.dirname(os.path.dirname(jrtower.__file__))
    code = f"import sys; from jrtower import cli\n{prelude}\nsys.exit(cli.main({list(argv)!r}))"
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))


def test_scan_exits_1_silently_when_stdout_closes():
    with _cli("scan", "2", "20000") as proc:
        assert proc.stdout.readline() == (CSV_HEADER + "\n").encode()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (1, b"")


def test_a_verdict_error_mid_scan_keeps_the_rows_printed(capsys):
    _, fresh, _ = run(capsys, "scan", "4", "12", "--effort", "quick")
    prelude = "\n".join([
        "from jrtower.errors import ResourceLimitError",
        "real = cli.jr_verdict",
        "def cut_at_9(nu, **kwargs):",
        "    if nu == 9:",
        "        raise ResourceLimitError('cut at nu = 9')",
        "    return real(nu, **kwargs)",
        "cli.jr_verdict = cut_at_9",
    ])
    proc = _cli("scan", "4", "12", "--effort", "quick", prelude=prelude)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"error: cut at nu = 9\n")
    assert out.decode().splitlines() == fresh.splitlines()[:6]  # the header and nu = 4..8


def _journal_with_marked_record(path, header):
    """A journal whose one row, for nu = 4, no verdict can produce;
    header None leaves the header entry out."""
    from jrtower.cli import _scan_row

    row = list(_scan_row(4, EFFORT_QUICK))
    row[1] = "from-the-journal"
    with path.open("w") as fh:
        if header is not None:
            fh.write(json.dumps({"header": header}) + "\n")
        fh.write(",".join(row) + "\n")


def test_scan_resume_keeps_records_of_a_matching_journal(tmp_path, capsys):
    from jrtower.cli import _journal_header

    out_file = tmp_path / "scan.csv"
    _journal_with_marked_record(tmp_path / "scan.csv.partial",
                                _journal_header(4, 8, "quick"))
    code, _, _ = run(capsys, "scan", "4", "8", "--effort", "quick",
                     "--out", str(out_file))
    assert code == 0
    assert "4,from-the-journal," in out_file.read_text()


@pytest.mark.parametrize("stale", [
    # written when scan still took --depth and named it in the header
    {"lo": 4, "hi": 8, "depth": 5, "effort": "quick"},
    {"lo": 4, "hi": 8, "effort": "default"},
    {"lo": 2, "hi": 8, "effort": "quick"},
    {"lo": 4, "hi": 8, "effort": "quick", "schema": 0},
    None,
], ids=["depth", "effort", "range", "schema", "no-header"])
def test_scan_discards_a_journal_for_other_inputs(tmp_path, capsys, stale):
    from jrtower.cli import _journal_header

    fresh = tmp_path / "fresh.csv"
    run(capsys, "scan", "4", "8", "--effort", "quick", "--out", str(fresh))
    out_file = tmp_path / "scan.csv"
    journal = tmp_path / "scan.csv.partial"
    header = None if stale is None else dict(_journal_header(4, 8, "quick"), **stale)
    _journal_with_marked_record(journal, header)
    code, _, _ = run(capsys, "scan", "4", "8", "--effort", "quick",
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == fresh.read_bytes()
    assert not journal.exists()


def test_scan_workers_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "scan", "4", "20", "--effort", "quick", "--out", str(a))
    run(capsys, "scan", "4", "20", "--effort", "quick", "--workers", "3",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# sha256 of the scan CSV, recorded while the verdict path still factored
# c_1..c_n and walked whole orbits mod p: a speed-up must not change a byte.
GOLDEN_SCANS = [
    (("scan", "2", "1000", "--effort", "quick"),
     "0c8a94821652e5407f99c959b2a0d535d3f0f20b8ae5075efaa9363e13aac509"),
    (("scan", "2", "200"),
     "a22b3929beff8f42e2ebca20aae9ae0f20268684354417259d9c4e18e7ad3b1c"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_SCANS, ids=["quick-2-1000", "default-2-200"])
def test_scan_csv_matches_golden_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `python -m jrtower.cli scan 2 20000`, the same
# at quick and at default effort: no row's bytes depend on the effort.
SCAN_2_20000 = "85be958aa228094eb5bb45b2983378ea4d243872ecb327d60e289bb30901b855"


@pytest.mark.parametrize("effort", ["quick", "default"])
def test_scan_2_20000_matches_its_digest_at_each_effort(effort):
    src = os.path.dirname(os.path.dirname(jrtower.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "jrtower.cli", "scan", "2", "20000", "--effort", effort],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == SCAN_2_20000


# sha256 of the stdout of `scan 2 3000 --effort quick --json`, which
# `--out F` leaves unchanged, and of the CSV that `scan 2 3000 --effort
# quick` prints and `--out F` writes, recorded while a scan still held
# every row until the range was done.
GOLDEN_SCAN_JSON = "29b305dcf7781e70551a14fcee75f23ae15b0e3a5f18e2c7b473bdbc7ff310d8"
GOLDEN_SCAN_CSV = "49a1f3cb52f6a11c043b99549bb82a2a00cd07ce459d2609f1b95ac03de920fd"


def test_scan_json_and_out_file_match_golden_digests(tmp_path, capsys):
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    argv = ("scan", "2", "3000", "--effort", "quick")
    code, csv_out, _ = run(capsys, *argv)
    assert code == 0 and sha(csv_out) == GOLDEN_SCAN_CSV
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and sha(out) == GOLDEN_SCAN_JSON
    out_file = tmp_path / "scan.csv"
    code, out, _ = run(capsys, *argv, "--out", str(out_file), "--json")
    assert code == 0 and sha(out) == GOLDEN_SCAN_JSON
    assert out_file.read_bytes() == csv_out.encode()


# sha256 of the concatenated JSON outputs, recorded while the Frattini
# subgroup was still found by listing the whole depth-4 group. Each
# call's positional arguments are one tuple.
GOLDEN_ALGEBRA = [
    ("group", [(d,) for d in range(1, 5)],
     "4de36e9a88e33b76c0bff93bb44abcf86ba080b3229e3a3a394366501d5080d0"),
    ("radical", [(d,) for d in range(2, 13)],
     "d715816eda02460bd39afcdfc54f6419438a4bc2fe1e021580928211c25b531a"),
    # recorded while Phi_m was still divided by every divisor's Phi_d
    ("cos", [(m,) for m in range(3, 201)],
     "b0671cc551407b45257c00c50646f75d5757fa82fffb29d6f548c00cda8696b9"),
    # recorded while the oracle was still Bareiss on the Sylvester matrix
    ("disc", [(nu, n) for nu in (2, 3, 5, 6, 7, 12, 48, 240, 8756) for n in range(1, 5)],
     "cb4ae6728127b5f6fce6de491f8eac800b8d0cd9c661b2b653cd01e48f4adfa6"),
]


@pytest.mark.parametrize("command,calls,digest", GOLDEN_ALGEBRA,
                         ids=["group-1-4", "radical-2-12", "cos-3-200", "disc-1-4"])
def test_algebra_json_matches_golden_digest(capsys, command, calls, digest):
    outputs = []
    for args in calls:
        code, out, _ = run(capsys, command, *map(str, args), "--json")
        assert code == 0
        outputs.append(out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == digest


# sha256 of the concatenated `explore7 --depth D --json` for D = 1..6,
# recorded once the report had dropped the factoring status of each c_n;
# every other byte is the one it printed while independence and sqrt(2)
# membership were still decided by factoring every c_n. GOLDEN_EXPLORE7_TEXT
# is the sha256 over "<exit code>\n<stdout>" of the same runs without
# --json. `orbit 7 D` now reports these facts, and the documents are
# rebuilt from its output.
GOLDEN_EXPLORE7 = "38ca519fc43cab049beae2739ac75c97531509bf9883d36e919fa94533ec014f"
GOLDEN_EXPLORE7_TEXT = "26a41a038d687c5f696910b3d224a7f30f953a61b30e752e65ac413c2df0f386"
_ORBIT_FACT_KEYS = ("independence", "rank", "sqrt2_status")
_ORBIT_FACT_LINES = ("  2-independence: ", "  sqrt(2) in level ")


def test_orbit_7_rebuilds_the_explore7_documents(capsys):
    documents, texts = [], hashlib.sha256()
    for depth in range(1, 7):
        disclaimer = (f"evidence only: statements cover levels 1..{depth} "
                      "and do not extend to the full tower")
        code, out, _ = run(capsys, "orbit", "7", str(depth), "--json")
        assert code == 0
        result = json.loads(out)["result"]
        documents.append(canonical_json({
            "schema": 1,
            "command": "explore7",
            "input": {"depth": str(depth)},
            "result": {"depth": str(depth), "constants": result["c"],
                       "disclaimer": disclaimer,
                       **{key: result[key] for key in _ORBIT_FACT_KEYS}},
        }) + "\n")
        code, out, _ = run(capsys, "orbit", "7", str(depth))
        lines = out.splitlines()
        text = [f"nu = 7 exploration to depth {depth}:"]
        text += [line.split("   ell_")[0] for line in lines if line.startswith("  c_")]
        text += [line for line in lines if line.startswith(_ORBIT_FACT_LINES)]
        text.append(f"  {disclaimer}")
        texts.update(("\n".join([str(code), *text]) + "\n").encode())
    assert hashlib.sha256("".join(documents).encode()).hexdigest() == GOLDEN_EXPLORE7
    assert texts.hexdigest() == GOLDEN_EXPLORE7_TEXT


def without_orbit_facts(argv, out: str) -> str:
    """out of an `orbit` run as it was before it reported the
    square-class facts: their keys or their lines dropped."""
    if argv[0] != "orbit":
        return out
    if "--json" in argv:
        document = json.loads(out)
        for key in _ORBIT_FACT_KEYS:
            del document["result"][key]
        return canonical_json(document) + "\n"
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith(_ORBIT_FACT_LINES))


# sha256 of the concatenated json.dumps(jr_verdict(nu, 5, effort).to_json(),
# sort_keys=True), recorded while an even nu was still factored whole and
# every obstruction chain recomputed its Jacobi symbol. Unlike the scan
# CSV, these cover the chain text, the statements and the hypothesis
# fields.
GOLDEN_VERDICTS = [
    (range(2, 2001), EFFORT_QUICK,
     "2e8c6290a8070ffe94bc899cb018768db28373c88de99ce2335901746f15b579"),
    (range(2, 301), EFFORT_DEFAULT,
     "dc18c90850c234e8d34c65ed7c48e88a3f2d3ddbd4cc454017f97eec6fc69a67"),
]


@pytest.mark.parametrize("nus,effort,digest", GOLDEN_VERDICTS,
                         ids=["quick-2-2000", "default-2-300"])
def test_verdict_json_matches_golden_digest(nus, effort, digest):
    h = hashlib.sha256()
    for nu in nus:
        h.update(json.dumps(jr_verdict(nu, 5, effort).to_json(), sort_keys=True).encode())
    assert h.hexdigest() == digest


# Per subcommand, sha256 over "<exit code>\n<stdout>" of its runs below,
# in their order: the human output of every subcommand but scan (whose
# CSV is pinned above), then the JSON of the three commands no other
# golden pins. Recorded while every command still built its human text
# under --json as well, and before orbit reported square-class facts:
# its runs are hashed without them (explore7's runs, which the orbit
# facts replace, are rebuilt above).
_ORBITS = [(nu, n) for nu in (2, 3, 7, 12, 1000) for n in (1, 4, 12)]
_WINDOWS = [(12, "8"), (2, "15/2"), (7, "20")]
GOLDEN_RUNS = (
    [("verify", nu) for nu in range(2, 201)]
    + [("disc", nu, n) for nu in (2, 3, 5, 6, 7, 12, 48, 240, 8756) for n in range(1, 5)]
    + [("orbit", *a) for a in _ORBITS]
    + [("group", n) for n in range(1, 5)]
    + [("fermat",)]
    + [("cos", m) for m in range(3, 201)]
    + [("window", *a) for a in _WINDOWS]
    + [("radical", d) for d in range(2, 13)]
    + [("orbit", *a, "--json") for a in _ORBITS]
    + [("fermat", "--json")]
    + [("window", *a, "--json") for a in _WINDOWS]
)
GOLDEN_RUNS_DIGESTS = {
    "verify": "c5efa6c6bcbc066eab4c6b67c3ead34a1f3333cdfa553021447ac9327968a440",
    "disc": "0de84da1d4c3e296f1aca95c67610d475a3745e99815b606ea7c846c16041e4f",
    "orbit": "c5fd5b1dab26cb0e22602fdf1a973fa6348d8fd7d14093b3ec156ebe808a35ba",
    "group": "d4a927c9a9fc6e616dd4e3137af31c0b232ba38e330204cd6ecc96533cb4ed80",
    "fermat": "5854cf5005283d0195aca4952e055bb4c4687f75b380d8eb9b19eb79467d69f8",
    "cos": "287f873ee32db972f7f7810d13e5a5c05d1e0e865d8597f2453657183e8118eb",
    "window": "c54bd4c67e34a732de4b552f2b76cae972fd6be9ce7f18cc09badf8bfdd18fcd",
    "radical": "e50bd5235be3bd102fd4121669e8a0abfac249b9f52fd55bce31f67782bed943",
}


def test_every_subcommand_output_matches_golden_digest(capsys):
    hashes = {}
    for argv in GOLDEN_RUNS:
        code, out, _ = run(capsys, *map(str, argv))
        out = without_orbit_facts(argv, out)
        hashes.setdefault(argv[0], hashlib.sha256()).update(f"{code}\n{out}".encode())
    assert {name: h.hexdigest() for name, h in hashes.items()} == GOLDEN_RUNS_DIGESTS


def test_orbit_decides_past_the_factoring_budget(capsys):
    """c_12 of nu = 7 has 1662 digits, far past what rho could factor,
    yet gcds decide every class at the greatest depth."""
    code, out, _ = run(capsys, "orbit", "7", "12", "--json")
    result = json.loads(out)["result"]
    assert (result["independence"], result["rank"], result["sqrt2_status"]) == (
        "independent", "12", "absent")
    assert code == 0


@pytest.mark.parametrize("nu, n, independence, rank, status", [
    ("5", "3", "dependent", None, "unknown"),
    ("2", "2", "dependent", None, "present"),
    ("3", "2", "independent", "2", "present"),
    ("12", "5", "independent", "5", "absent"),
], ids=["dependent-unknown", "dependent-present", "independent-present",
        "independent-absent"])
def test_orbit_reports_the_square_class_facts(capsys, nu, n, independence, rank, status):
    """c_1 c_2 = 5 * 20 is a square, so level 3 over 5 is not full and
    sqrt(2) stays unknown there; nu = 2 has c_n = 2 at every n, and over
    3, 2 * c_1 c_2 = 36; Stoll's rule makes every level over 12 full."""
    code, out, _ = run(capsys, "orbit", nu, n)
    shown = f" (rank {rank})" if rank else ""
    assert code == 0 and out.endswith(
        f"  2-independence: {independence}{shown}\n  sqrt(2) in level {n}: {status}\n")
    result = json.loads(run(capsys, "orbit", nu, n, "--json")[1])["result"]
    assert [result[key] for key in _ORBIT_FACT_KEYS] == [independence, rank, status]


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = build_parser()
    subcommands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    options = {
        name: sorted(
            a.option_strings[0] for a in sub._actions
            if a.option_strings and a.dest != "help"
        )
        for name, sub in subcommands.items()
    }
    assert options == {
        "verify": ["--depth", "--effort", "--json"],
        "scan": ["--effort", "--json", "--out", "--workers"],
        "disc": ["--json"],
        "orbit": ["--json"],
        "group": ["--json"],
        "fermat": ["--json"],
        "cos": ["--json"],
        "window": ["--json"],
        "radical": ["--json"],
    }
    assert sum(map(len, options.values())) == 14


def test_an_ignored_option_is_a_usage_error(capsys):
    """scan reads no depth, since no row depends on it, cos no effort,
    since trial division factors every m <= COS_M_CAP exactly, and orbit
    no depth, since its n is the depth of every fact it reports."""
    for *argv, option, value in [("group", "2", "--effort", "quick"),
                                 ("scan", "4", "8", "--depth", "5"),
                                 ("cos", "12", "--effort", "quick"),
                                 ("orbit", "7", "4", "--depth", "4")]:
        code, _, err = run(capsys, *argv, option, value)
        assert code == 1
        assert option in err


def test_scan_json_mode(capsys):
    code, out, _ = run(capsys, "scan", "4", "6", "--effort", "quick", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "scan"
    assert doc["input"] == {"lo": "4", "hi": "6", "effort": "quick"}
    recs = doc["result"]["records"]
    assert [r["nu"] for r in recs] == ["4", "5", "6"]
    assert_ints_are_strings(doc["result"])


@pytest.mark.parametrize("argv", [
    ("verify", "12"), ("disc", "12", "3"),
    ("orbit", "12", "4"), ("group", "2"), ("fermat",), ("cos", "12"),
    ("window", "12", "8"), ("radical", "4"),
], ids=lambda argv: argv[0])
def test_json_output_builds_no_human_text(capsys, monkeypatch, argv):
    from jrtower import cli

    built = []
    real_emit = cli._emit

    def spy_emit(args, input_doc, result, human):
        def counted():
            built.append(args.command)
            return human()
        real_emit(args, input_doc, result, counted)

    monkeypatch.setattr(cli, "_emit", spy_emit)
    assert run(capsys, *argv)[0] in (0, 2)
    assert built == [argv[0]]
    assert run(capsys, *argv, "--json")[0] in (0, 2)
    assert built == [argv[0]]


def test_human_output_builds_no_json_document(capsys, monkeypatch):
    """verify's text builds no JSON result, so it reads the square-free
    flag of nu only where it prints it: 1001 is odd, its sqrt(2)
    exclusion is not certified and its text shows no flag."""
    from jrtower import verdict

    calls = []
    real_flag = verdict._has_square_factor

    def spy_flag(*args):
        calls.append(args)
        return real_flag(*args)

    monkeypatch.setattr(verdict, "_has_square_factor", spy_flag)
    code, out, _ = run(capsys, "verify", "1001")
    assert code == 2 and "square-free" not in out
    assert calls == []
    assert run(capsys, "verify", "1001", "--json")[0] == 2
    assert len(calls) == 1


def test_scan_json_joins_no_csv_line(capsys):
    """scan streams its rows rather than passing them to _emit: a CSV
    line is one ",".join, and under --json none is made."""
    joins = []

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_globals["__name__"] == "jrtower.cli" \
                and getattr(arg, "__name__", "") == "join" \
                and getattr(arg, "__self__", None) == ",":
            joins.append(frame.f_code.co_name)

    for json_opt, made in (((), 3), (("--json",), 0)):
        joins.clear()
        sys.setprofile(profile)
        try:
            code = main(["scan", "4", "6", "--effort", "quick", *json_opt])
        finally:
            sys.setprofile(None)
        assert code == 0 and len(joins) == made, joins


def test_cos_decomposes_m_once_within_the_quick_trial_bound(capsys, monkeypatch):
    """Every m <= COS_M_CAP factors exactly by trial division up to
    isqrt(m), so cos builds no sieve block at all."""
    from jrtower import cli, factor, squareclasses, verdict

    bounds, decompositions = set(), []
    real_blocks = factor._prime_blocks.__wrapped__
    real_order = verdict.constructible_order

    def spy_blocks(bound):
        bounds.add(bound)
        return real_blocks(bound)

    def spy_order(m):
        decompositions.append(m)
        return real_order(m)

    monkeypatch.setattr(factor, "_prime_blocks", spy_blocks)
    unmemoized = factor.factorize_cached.__wrapped__
    for module in (factor, squareclasses):
        monkeypatch.setattr(module, "factorize_cached", unmemoized)
    monkeypatch.setattr(cli, "constructible_order", spy_order)
    monkeypatch.setattr(verdict, "constructible_order", spy_order)
    for m in range(3, 201):
        decompositions.clear()
        assert run(capsys, "cos", str(m), "--json")[0] == 0
        assert decompositions == [m]
    assert bounds == set()


def test_scan_out_to_a_missing_directory_is_an_error(tmp_path, capsys):
    out_file = tmp_path / "missing" / "scan.csv"
    code, out, err = run(capsys, "scan", "2", "5", "--effort", "quick", "--out", str(out_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_scan_out_to_a_directory_writes_nothing(tmp_path, capsys, monkeypatch):
    from jrtower import cli

    target = tmp_path / "dir"
    target.mkdir()
    monkeypatch.setattr(cli, "jr_verdict", None)  # any verdict would fail
    code, out, err = run(capsys, "scan", "2", "5", "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: --out {target} is a directory\n"
    assert os.listdir(tmp_path) == ["dir"] and os.listdir(target) == []


def test_disc_subcommand(capsys):
    code, out, _ = run(capsys, "disc", "12", "3")
    assert code == 0
    assert "105545908143142207488" in out
    code, out, _ = run(capsys, "disc", "--json", "12", "2")
    doc = json.loads(out)
    assert doc["result"]["disc"] == "4866048"
    assert doc["result"]["oracle"] == "4866048"


def test_orbit_subcommand(capsys):
    code, out, _ = run(capsys, "orbit", "12", "4")
    assert code == 0
    assert "c_4 = 303177732" in out
    assert "strict: yes" in out


# sha256 over "<exit code>\n<stdout>" of `orbit NU N`, then of
# `orbit NU N --json`, for each (NU, N) of _ORBITS in order, recorded
# while every valuation profile still built its own orbit, and hashed
# without the square-class facts that orbit reports since.
GOLDEN_ORBIT_DIGEST = "dc857412ccc5a1c95e927651c3044e9494f02cd10ba08c05c8d2784718b2c800"


def test_orbit_output_matches_golden_digest(capsys):
    h = hashlib.sha256()
    for nu, n in _ORBITS:
        for extra in ((), ("--json",)):
            code, out, _ = run(capsys, "orbit", str(nu), str(n), *extra)
            out = without_orbit_facts(("orbit", *extra), out)
            h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == GOLDEN_ORBIT_DIGEST


def test_orbit_builds_its_orbit_once(capsys, monkeypatch):
    """The six valuation profiles read the command's one orbit."""
    from jrtower import cli, orbit

    calls = []
    real = orbit.constant_terms

    def spy(nu, n):
        calls.append((nu, n))
        return real(nu, n)

    monkeypatch.setattr(cli, "constant_terms", spy)
    monkeypatch.setattr(orbit, "constant_terms", spy)
    code, out, _ = run(capsys, "orbit", "1000", "12")
    assert code == 0 and "v_3: first index" in out
    assert calls == [(1000, 12)]


def test_orbit_factors_nothing(capsys, monkeypatch):
    """gcds decide every fact orbit reports, so it looks up no
    factorization of any c_n."""
    from jrtower import factor, squareclasses

    def refuse(*args):
        raise AssertionError("orbit factored")

    for module, name in ((squareclasses, "factorize_cached"), (factor, "factorize_cached"),
                         (factor, "factorize")):
        monkeypatch.setattr(module, name, refuse)
    assert run(capsys, "orbit", "7", "12")[0] == 0
    assert run(capsys, "orbit", "1000", "12", "--json")[0] == 0


def test_orbit_eliminates_its_classes_once(capsys, monkeypatch):
    """2-independence and sqrt(2) membership come from one elimination
    of (c_1..c_n, 2), so the coprime base is built once."""
    from jrtower import squareclasses

    calls = []
    real = squareclasses._coprime_base

    def spy(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(squareclasses, "_coprime_base", spy)
    code, out, _ = run(capsys, "orbit", "1000", "12")
    assert code == 0 and "2-independence: independent (rank 12)" in out
    assert calls == [13]


def test_integers_past_4300_digits_are_read_and_printed(capsys):
    """c_12 of nu = 1000 has about 6000 digits and nu = 10^5000 has 5001,
    beyond the default int <-> str limit of Python 3.11."""
    code, out, _ = run(capsys, "orbit", "1000", "12", "--json")
    assert code == 0
    assert len(json.loads(out)["result"]["c"][-1]) > 4300
    nu = "1" + "0" * 5000
    code, out, _ = run(capsys, "verify", nu, "--effort", "quick", "--json")
    assert code == 2
    assert json.loads(out)["input"]["nu"] == nu


def test_group_subcommand(capsys):
    code, out, _ = run(capsys, "group", "3")
    assert code == 0
    assert "order 128" in out
    assert "index-2 subgroups: 7" in out
    code, out, _ = run(capsys, "group", "--json", "2")
    doc = json.loads(out)
    assert doc["result"]["order"] == "8"
    assert doc["result"]["index2_subgroups"] == "3"


def test_group_forms_the_closure_of_the_whole_group_once(capsys, monkeypatch):
    """agemo_rank checks the order of the whole group, and group prints
    that order without forming the closure again."""
    from jrtower import cli, wreath

    calls = []
    real = wreath.closure_order

    def spy(generators):
        calls.append(len(generators))
        return real(generators)

    for module in (wreath, cli):
        monkeypatch.setattr(module, "closure_order", spy, raising=False)
    wreath.agemo_rank.cache_clear()
    code, out, _ = run(capsys, "group", "4")
    assert code == 0
    assert f"order {2**15} = 2^15" in out
    assert calls == [4]


def test_fermat_subcommand(capsys):
    code, out, _ = run(capsys, "fermat")
    assert code == 0
    assert "F_4: proven-prime" in out
    assert "F_5: proven-composite" in out


def test_cos_subcommand(capsys):
    code, out, _ = run(capsys, "cos", "7")
    assert code == 0
    assert "-1, -2, 1, 1" in out
    code, out, _ = run(capsys, "cos", "--json", "16")
    doc = json.loads(out)
    assert doc["result"]["minpoly_ascending"] == ["2", "0", "-4", "0", "1"]
    assert doc["result"]["constructible"] is True


def test_window_subcommand(capsys):
    code, out, _ = run(capsys, "window", "12", "8")
    assert code == 0
    assert "(4, 1)" in out
    assert "total: 8" in out
    code, _, err = run(capsys, "window", "2", "2000000")
    assert code == 1
    assert "capped at 1000000 pairs" in err


def test_radical_subcommand(capsys):
    code, out, _ = run(capsys, "radical", "4")
    assert code == 0
    assert "verified" in out
    code, _, err = run(capsys, "radical", "1")
    assert code == 1


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "verify", "1")
    assert code == 1
    assert err.strip()
    code, _, err = run(capsys, "cos", "300")
    assert code == 1
    code, _, err = run(capsys, "disc", "4", "2")
    assert code == 1


def test_mu_not_squarefree_note_is_gated_on_the_sqrt2_certificate(capsys):
    note = "odd part of nu is not square-free"
    _, out, _ = run(capsys, "verify", "180")  # 4 * 45, certified
    assert note in out
    _, out, _ = run(capsys, "verify", "18")  # 2 * 9, odd valuation, not certified
    assert "sqrt(2) exclusion: not certified" in out
    assert note not in out
    _, out, _ = run(capsys, "verify", "12")
    assert note not in out


def test_import_loads_neither_mpmath_nor_concurrent_futures():
    """A CLI start pays for none of these: mpmath is a test oracle only,
    no scan uses concurrent.futures, records
    are built without dataclasses, and Fraction is imported by the calls
    that take or return one. A rational alpha (nu = 12, 56) is rendered
    in integers, so verdicts leave fractions unloaded too."""
    src = os.path.dirname(os.path.dirname(jrtower.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    unwanted = "{'mpmath', 'concurrent.futures', 'dataclasses', 'fractions'}"
    probes = [f"import sys, {module}" for module in ("jrtower", "jrtower.cli")]
    probes.append("import sys; from jrtower import jr_verdict, hypothesis_check; "
                  "str(jr_verdict(12, 6).alpha); hypothesis_check(56)")
    for probe in probes:
        probe += f"; print(sorted({unwanted} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]", (probe, out)
