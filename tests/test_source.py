"""Static checks on the package source, with the standard library's ast."""

import ast
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
