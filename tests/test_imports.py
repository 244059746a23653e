"""Every name a flowcamo module imports is used in that module.

Only ``learners/__init__.py`` is skipped: its imports are the re-exports
that program code and tests import through. The other packages re-export
nothing, so a list of re-exports cannot grow back there unread.
"""
import ast
import pathlib

import flowcamo

SRC = pathlib.Path(flowcamo.__file__).parent
REEXPORTS = SRC / "learners" / "__init__.py"


def _unused_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(SRC)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p != REEXPORTS]
    assert len(modules) > 10
    assert [u for p in modules for u in _unused_imports(p)] == []
