"""No module in src/ or tests/ imports a name at module level that it never
reads.  Re-exports count as read: the names in a module's __all__, and
every import of a package's __init__.py (ssblow re-exports
IntegrationControls).  `from __future__` imports are directives, not names.

And no module of ssblow lists a name in __all__ that only its own unit
tests use: every public name is read somewhere in the package, the
scripts, perfbench or the acceptance tests, outside its own definition.
The same holds for every module-level private name (one leading
underscore), so a helper whose last caller goes is not left behind."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [
    p for p in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    if p.name != "__init__.py"
]
# where a public name must be read: the package, its scripts and benchmark,
# and the acceptance tests, but not the unit tests
CALLERS = (
    sorted((ROOT / "src" / "ssblow").glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)


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
        if _is_all(node):
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


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if _is_all(node):
            return list(ast.literal_eval(node.value))
    return []


def _private_names(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level, by def, class or
    assignment, that begin with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(tree: ast.Module):
    """(owner, name) for each name the module reads: a loaded variable, an
    attribute, or a string equal to the name (perfbench wraps functions
    by name).  owner is the top-level def or class the read lies in, or
    None; the strings of __all__ are not reads."""
    for top in tree.body:
        if _is_all(top):
            continue
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield owner, node.value


def unread_names(modules: dict[str, str], callers: dict[str, str], names=_public_names) -> list[str]:
    """module.name for each name in a module's __all__ (or, with names
    _private_names, each private name it binds) that no caller reads
    outside the name's own top-level definition.  Both arguments map a
    module or file name to its source; modules are among the callers."""
    reads = {key: set(_reads(ast.parse(src))) for key, src in callers.items()}
    unread = []
    for module, src in modules.items():
        for name in names(ast.parse(src)):
            if not any(
                read == name and (key != module or owner != name)
                for key, found in reads.items()
                for owner, read in found
            ):
                unread.append("%s.%s" % (module, name))
    return unread


def test_every_public_name_has_a_caller():
    """The scan flags a toy module's unread names (a recursive call is
    inside the name's own definition), and flags no name of ssblow."""
    lib = (
        "__all__ = ['used', 'alone', 'recursive', 'Kept']\n"
        "def used(): pass\n"
        "def alone(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Kept: pass\n"
        "def helper(): return Kept()\n"
    )
    callers = {"lib": lib, "script": "import lib\nlib.used()\n"}
    assert unread_names({"lib": lib}, callers) == ["lib.alone", "lib.recursive"]
    assert unread_names(*_ssblow_and_its_callers()) == []


def test_every_private_name_has_a_caller():
    """The scan flags a toy module's unread private names, a def, a
    recursive def and a constant, but not a dunder name or one read by
    another module or in another definition, and flags no name of ssblow."""
    lib = (
        "__version__ = '1'\n"
        "_LIMIT = 3\n"
        "_SPARE: int = 4\n"
        "def _used(): return _LIMIT\n"
        "def _alone(): pass\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "def _from_script(): pass\n"
        "def public(): return _used()\n"
    )
    callers = {"lib": lib, "script": "import lib\nlib._from_script()\n"}
    assert unread_names({"lib": lib}, callers, _private_names) == [
        "lib._SPARE", "lib._alone", "lib._recursive"
    ]
    assert unread_names(*_ssblow_and_its_callers(), _private_names) == []


def _ssblow_and_its_callers() -> tuple[dict[str, str], dict[str, str]]:
    """The sources of ssblow's modules by module name, and those of every
    caller (CALLERS) by module name or path."""
    modules = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "ssblow").glob("*.py"))}
    callers = {
        (p.stem if p.parent.name == "ssblow" else str(p.relative_to(ROOT))): p.read_text() for p in CALLERS
    }
    return modules, callers
