"""No module in src/ or tests/ imports a name at module level that it never
reads.  Re-exports count as read: the names in a module's __all__, and
every import of a package's __init__.py (ssblow re-exports
IntegrationControls).  `from __future__` imports are directives, not names.

And no module of ssblow lists a name in __all__ that only its own unit
tests use: every public name is read somewhere in the package, the
scripts, perfbench or the acceptance tests, outside its own definition.
The same holds for every module-level private name (one leading
underscore), so a helper whose last caller goes is not left behind.  And
every parameter of a module-level function or method of ssblow is read
in its body, so no caller passes a value that nothing uses."""

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


def unread_parameters(source: str) -> list[str]:
    """name(parameter) for each parameter of a module-level function, or
    of a method of a module-level class, that its body never loads.
    Nested functions are exempt: the field kernels take the integrator's
    eta, or the profile run's s, by the calling convention."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    tree = ast.parse(source)
    defs = [(node.name, node) for node in tree.body if isinstance(node, functions)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [("%s.%s" % (cls.name, n.name), n) for n in cls.body if isinstance(n, functions)]
    unread = []
    for name, fn in defs:
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p is not None]
        read = {
            n.id for stmt in fn.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += ["%s(%s)" % (name, p.arg) for p in params if p.arg not in read]
    return unread


def test_every_parameter_is_read():
    """The scan flags a toy module's unread parameters, of a function and a
    method, but not one read only in a nested function, nor the nested
    function's own; and it flags no parameter of ssblow."""
    lib = (
        "def used(a, *, b=1): return a + b\n"
        "def spare(a, params, *rest, **extra): return a\n"
        "def outer(k):\n"
        "    def kernel(eta, y): return k * y\n"
        "    return kernel\n"
        "class C:\n"
        "    def method(self, x): return self\n"
    )
    assert unread_parameters(lib) == ["spare(params)", "spare(rest)", "spare(extra)", "C.method(x)"]
    unread = [
        "%s: %s" % (p.name, u)
        for p in sorted((ROOT / "src" / "ssblow").glob("*.py"))
        for u in unread_parameters(p.read_text())
    ]
    assert unread == []


def imports_numpy(source: str) -> bool:
    """Whether the module imports numpy or a submodule of it anywhere: at
    module level, in a function, or under TYPE_CHECKING."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "numpy" for module in modules):
            return True
    return False


def test_numpy_footprint_is_pinned():
    """The scan finds numpy imported in a function, under TYPE_CHECKING and
    by submodule, but not a name that merely mentions it; and the modules
    of ssblow that import numpy are exactly these.  A module leaves the
    list only on purpose, and none joins it."""
    assert imports_numpy("def f():\n    import numpy as np\n")
    assert imports_numpy("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy\n")
    assert imports_numpy("from numpy.linalg import eig\n")
    assert not imports_numpy("import numpyish\nfrom .numpy_free import x\nnumpy = None\n")
    found = [p.stem for p in sorted((ROOT / "src" / "ssblow").glob("*.py")) if imports_numpy(p.read_text())]
    assert found == ["barriers", "integrate", "io"]


def misrouted_imports(source: str, public: dict[str, list[str] | None]) -> list[str]:
    """'line n: ssblow.module.name' for each public name (no leading
    underscore) that the source imports from an ssblow module whose
    __all__ lacks it.  public maps a module name ("" for the package) to
    its __all__, or to None where it has none (cli, the package), and the
    scan exempts those."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.level or (node.module or "").split(".")[0] != "ssblow":
            continue
        names = public[node.module[len("ssblow."):]]
        for alias in node.names:
            name = alias.name
            if names is None or name.startswith("_") or name in names:
                continue
            found.append("line %d: %s.%s" % (node.lineno, node.module, name))
    return found


def test_every_public_name_is_imported_from_its_module():
    """The scan flags a name read through a module that only imports it,
    and not a private name or a name from a module without __all__; and no
    file of the tests, the scripts or perfbench imports a public name
    through a module other than its own."""
    public = {"": None, "a": ["f"], "b": ["g"], "cli": None}
    toy = (
        "from ssblow.a import f, _h\n"
        "from ssblow.b import f, g\n"
        "from ssblow.cli import main\n"
        "from ssblow import a as a_mod\n"
    )
    assert misrouted_imports(toy, public) == ["line 2: ssblow.b.f"]
    public = {}
    for p in sorted((ROOT / "src" / "ssblow").glob("*.py")):
        tree = ast.parse(p.read_text())
        has_all = any(_is_all(node) for node in tree.body)
        public["" if p.stem == "__init__" else p.stem] = _public_names(tree) if has_all else None
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    found = [
        "%s %s" % (p.relative_to(ROOT), m) for p in files for m in misrouted_imports(p.read_text(), public)
    ]
    assert found == []
