"""No module in src/ or tests/ imports a name at module level that it never
reads.  Re-exports count as read: the names in a module's __all__, and
every import of a package's __init__.py (ssblow re-exports
IntegrationControls).  `from __future__` imports are directives, not names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [
    p for p in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    if p.name != "__init__.py"
]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return ["line %d: %s" % (line, name) for name, line in sorted(bound.items()) if name not in read]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import math\nimport os.path\nfrom re import sub\nos.sep\n") == [
        "line 1: math", "line 3: sub"
    ]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
