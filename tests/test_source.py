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
