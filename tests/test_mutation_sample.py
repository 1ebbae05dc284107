"""A fixed sample of single-node mutants of the decision path.

Each mutant is applied to a copy of the package, and the copy must give
a verdict JSON digest over nu = 2..2000 at quick effort other than the
golden one (tests/test_cli.py), or raise: a wrong edit to the decision,
its guards or the text the key renders is noticed by the digest alone.
The accepted equivalent mutants, which change no answer, must keep the
golden digest instead.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jrtower

SRC = Path(jrtower.__file__).parent
GOLDEN = "2e8c6290a8070ffe94bc899cb018768db28373c88de99ce2335901746f15b579"

# Prints the sha256 of the verdict JSON of nu = 2..2000 at quick effort,
# with the depth 5 it was recorded at put back, as
# test_verdict_json_matches_golden_digest takes it, from the package copy
# under argv[1].
_DIGEST = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from jrtower.factor import EFFORT_QUICK
from jrtower.verdict import jr_verdict
h = hashlib.sha256()
for nu in range(2, 2001):
    document = {**jr_verdict(nu, 5, EFFORT_QUICK).to_json(), "depth": 5}
    h.update(json.dumps(document, sort_keys=True).encode())
print(h.hexdigest())
"""

# (module, function, text, replacement): text occurs once in the function.
MUTANTS = [
    ("verdict.py", "hypothesis_check", "mu >= 3", "mu > 3"),
    ("verdict.py", "hypothesis_check", "v >= 2 and v % 2 == 0", "v >= 2 or v % 2 == 0"),
    ("verdict.py", "hypothesis_check", "symbols.count(-1) == len(symbols)",
     "symbols.count(-1) >= len(symbols) - 1"),
    ("residue.py", "fermat_symbols", "symbols.append(r)", "symbols.append(1)"),
    ("residue.py", "_kernel_basis", "in (3, 7):", "in (3, 5):"),
    ("residue.py", "_check_kernel", "not is_square(quotient)", "is_square(quotient)"),
    ("verdict.py", "_surd_ceil", "(a + s) // q + 1", "(a + s) // q"),
    ("verdict.py", "_reasons", "if j != -1:", "if j == 1:"),
    ("verdict.py", "_inconclusive_reason", "j == 0", "j == 1"),
    ("verdict.py", "scope", '"finite" if self.kernel_basis is None else "universal"',
     '"universal" if self.kernel_basis is None else "finite"'),
    ("verdict.py", "failed_prime", "_first_failure(self.symbols)[0]",
     "_first_failure(self.symbols)[1]"),
    ("verdict.py", "sqrt2_certified", "self.outcomes[0] and self.outcomes[1]",
     "self.outcomes[0] or self.outcomes[1]"),
]

# (module, function, text, replacement, reason): mutants that change no
# answer, so no test can kill them. Each passes the whole tier-1 suite.
EQUIVALENT = [
    ("verdict.py", "sqrt2_certified", "self.outcomes[0] and self.outcomes[1] and ",
     "self.outcomes[0] and ", "mu >= 3 follows from an even v >= 2 and a non-square nu"),
    ("residue.py", "fermat_symbols", "r > 1", "r > 2", "no prime p > 3 leaves r = 2"),
    ("verdict.py", "_surd_decimal", "a < 0", "a <= 0", "a = 0 fails a * a > n anyway"),
    ("verdict.py", "sqrt2_reason", "self.outcomes[2]", "self.outcomes[3]",
     "read only on a square nu once v and mu pass, and a square has no -1 symbol"),
    ("factor.py", "_has_square_factor", "chunk[-1] ** 3 <= rest", "chunk[-1] ** 3 < rest",
     "rest = chunk[-1]^3 shares a prime with the block, so the gcd keeps it"),
    ("factor.py", "_trial_divide", "chunk[-1] * chunk[-1] > n", "chunk[-1] * chunk[-1] >= n",
     "n = chunk[-1]^2 cannot outlive its chunk, which divides chunk[-1] out"),
]


def mutate(path: Path, function: str, text: str, replacement: str) -> None:
    """Replace text, which must occur once, inside the one def of function."""
    source = path.read_text()
    defs = [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == function]
    assert len(defs) == 1, function
    lines = source.splitlines(keepends=True)
    start, end = defs[0].lineno - 1, defs[0].end_lineno
    body = "".join(lines[start:end])
    assert body.count(text) == 1, (function, text)
    mutated = "".join(lines[:start]) + body.replace(text, replacement) + "".join(lines[end:])
    ast.parse(mutated)
    path.write_text(mutated)


def digest_of_copy(root: Path, mutant=None) -> str | None:
    """The copy's digest, or None when the copy raises."""
    shutil.copytree(SRC, root / "jrtower", ignore=shutil.ignore_patterns("__pycache__"))
    if mutant:
        module, *edit = mutant
        mutate(root / "jrtower" / module, *edit)
    run = subprocess.run([sys.executable, "-c", _DIGEST, str(root)],
                         capture_output=True, text=True, timeout=60)
    return run.stdout.strip() if run.returncode == 0 else None


def test_the_unmutated_copy_gives_the_golden_digest(tmp_path):
    assert digest_of_copy(tmp_path) == GOLDEN


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{m[1]}:{m[2]}" for m in MUTANTS])
def test_each_mutant_is_killed_by_the_digest(tmp_path, mutant):
    assert digest_of_copy(tmp_path, mutant) != GOLDEN


@pytest.mark.parametrize("mutant", EQUIVALENT, ids=[f"{m[1]}:{m[2]}" for m in EQUIVALENT])
def test_each_equivalent_mutant_keeps_the_digest(tmp_path, mutant):
    assert digest_of_copy(tmp_path, mutant[:4]) == GOLDEN
