"""Static checks on the package source, with the standard library's ast."""

import ast
import re
from pathlib import Path

import jrtower

SRC = Path(jrtower.__file__).parent


def unread_imports(path: Path) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name counts as read when it is loaded anywhere in the module, which
    covers calls, attribute access and annotations. __future__ imports
    bind nothing.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.name}:{line} {name}" for line, name in bound if name not in read]


def test_every_module_level_import_is_read():
    """__init__.py imports to re-export; every other module imports to use."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unread = [entry for path in modules for entry in unread_imports(path)]
    assert unread == []


ROOT = Path(__file__).resolve().parents[1]

# argparse calls _Parser.error itself; nothing in the package names it.
CALLED_BY_A_FRAMEWORK = {"cli._Parser.error"}


def definitions(tree: ast.Module):
    """(qualified name, first line, last line, member) of every function,
    class and method, nested ones included, dunders excepted; member is
    True for a definition in a class body."""
    stack = [("", node, False) for node in tree.body]
    while stack:
        prefix, node, member = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qualname, node.lineno, node.end_lineno, member
            in_class = isinstance(node, ast.ClassDef)
            stack += [(qualname + ".", child, in_class) for child in node.body]
        else:
            stack += [(prefix, child, False) for child in ast.iter_child_nodes(node)]


def mentions(tree: ast.AST):
    """(line, identifier, bare) of every Name, Attribute and identifier
    string; bare is True for a Name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id, True
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.lineno, node.value, False


def readme_library_block() -> str:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library", 1)[1].split("```python", 1)[1]
    return block.split("```", 1)[0]


def test_every_definition_has_a_caller():
    """Library code that only tests reach belongs in the tests. A
    definition counts as reached when the package, a benchmark script or
    README's Library example names it outside the definition itself. A
    method or property is named only by an attribute or an identifier
    string, so a bare local of the same name does not reach it."""
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    sources.update({path: path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))})
    named: dict[str, list[tuple[Path | None, int, bool]]] = {}
    for path, text in sources.items():
        for line, name, bare in mentions(ast.parse(text, filename=str(path))):
            named.setdefault(name, []).append((path, line, bare))
    for line, name, bare in mentions(ast.parse(readme_library_block())):
        named.setdefault(name, []).append((None, line, bare))

    unreached = []
    for path, text in sources.items():
        if path.parent != SRC or path.name == "__init__.py":
            continue
        for qualname, first, last, member in definitions(ast.parse(text, filename=str(path))):
            name = f"{path.stem}.{qualname}"
            places = named.get(qualname.rsplit(".", 1)[-1], [])
            reached = any((where != path or not first <= line <= last)
                          and not (member and bare) for where, line, bare in places)
            if not reached and name not in CALLED_BY_A_FRAMEWORK:
                unreached.append(name)
    assert len(sources) >= 15
    assert unreached == []


GUARDS = ("InvariantFailure", "CertificateFailure")


def literal_prefix(node: ast.AST) -> str | None:
    """The text a str constant or f-string starts with, up to its first
    replacement field; None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        text = ""
        for part in node.values:
            if not isinstance(part, ast.Constant):
                break
            text += part.value
        return text
    return None


def guard_sites() -> list[tuple[str, str, str]]:
    """(place, exception, literal message prefix) of every
    `raise InvariantFailure(...)` and `raise CertificateFailure(...)` in
    the package. CertificateFailure builds its message in errors.py."""
    errors = ast.parse((SRC / "errors.py").read_text())
    built = next(node.args[0] for node in ast.walk(errors)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "__init__" and node.args)
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id in GUARDS):
                name = node.exc.func.id
                message = built if name == "CertificateFailure" else node.exc.args[0]
                sites.append((f"{path.name}:{node.lineno}", name, literal_prefix(message)))
    return sites


def parametrized_values(function: ast.FunctionDef, name: str) -> list[ast.AST]:
    """The values a pytest.mark.parametrize decorator of function gives
    the argument name."""
    values = []
    for decorator in function.decorator_list:
        if not (isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Attribute)
                and decorator.func.attr == "parametrize"):
            continue
        names = [n.strip() for n in decorator.args[0].value.split(",")]
        if name not in names:
            continue
        index = names.index(name)
        for row in decorator.args[1].elts:
            values.append(row.elts[index] if len(names) > 1 else row)
    return values


def raises_patterns() -> dict[str, list[str]]:
    """Exception name -> the literal match= patterns (their prefix, for
    an f-string) of every pytest.raises(<name>, match=...) under tests/,
    a pattern passed by name resolved through pytest.mark.parametrize."""
    patterns: dict[str, list[str]] = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for function in functions:
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "raises" and node.args
                        and isinstance(node.args[0], ast.Name)):
                    continue
                for keyword in node.keywords:
                    if keyword.arg != "match":
                        continue
                    given = keyword.value
                    if isinstance(given, ast.Name):
                        nodes = parametrized_values(function, given.id)
                    else:
                        nodes = [given]
                    texts = [literal_prefix(value) for value in nodes]
                    patterns.setdefault(node.args[0].id, []).extend(
                        text for text in texts if text)
    return patterns


def matches(pattern: str, prefix: str) -> bool:
    """Whether pattern matches the start of prefix, or the text the
    pattern spells (its escapes undone) starts with prefix."""
    spelled = re.sub(r"\\(\W)", r"\1", pattern)
    return re.match(pattern, prefix) is not None or spelled.startswith(prefix)


def test_every_guard_message_is_matched_by_a_test():
    """Each guard that checks a proved identity fires under its own test:
    its literal message prefix is matched by a pytest.raises(..., match=)
    of the same exception under tests/ that matches no other site's
    prefix. A pattern that counts for two sites, such as one that meets
    a short prefix like "c_" before the message's fields, counts for
    neither, so each message opens with its fixed words."""
    sites = guard_sites()
    patterns = raises_patterns()

    def own(pattern, name):
        return sum(matches(pattern, prefix) for _, other, prefix in sites if other == name) == 1

    unmatched = [(place, prefix) for place, name, prefix in sites
                 if not any(matches(p, prefix) and own(p, name) for p in patterns.get(name, []))]
    assert len(sites) >= 34
    assert all(prefix for _, _, prefix in sites)
    assert unmatched == []


def test_no_module_forges_a_record():
    """_replace and _make build a record with tuple.__new__, past the
    checks in its __new__, so the package calls neither: every record it
    builds has passed its own checks."""
    calls = [
        f"{path.name}:{node.lineno} {node.func.attr}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("_replace", "_make")
    ]
    assert calls == []
