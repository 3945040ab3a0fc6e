"""Every name a module under src/pcbdet or tests/ imports is used there or
re-exported, every name a package module exports in __all__ is defined, and
every module-level function is referenced somewhere in the package: a private
one always, a public one unless UNCALLED_API names it. Likewise every
dataclass field and property is read by package code unless UNREAD_FIELDS
names it."""

import ast
import importlib
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pcbdet"


def unused_imports(source: str) -> list:
    """Imported names that the module never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_checker_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\n__all__ = ['d']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def stale_exports(module) -> list:
    """Names in the module's __all__ that it does not define."""
    return [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]


def test_checker_finds_stale_exports():
    module = types.ModuleType("m")
    module.__all__ = ["kept", "gone"]
    module.kept = None
    assert stale_exports(module) == ["gone"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_stale_exports(path):
    # A deletion that leaves its name in __all__ (here or in pcbdet's) fails.
    name = "pcbdet" if path.stem == "__init__" else f"pcbdet.{path.stem}"
    assert stale_exports(importlib.import_module(name)) == []


def module_functions(sources: dict) -> tuple:
    """(defined, used): each module-level function as (module, name), and the
    names the package reads.

    A function's references to itself do not count, nor do the re-exports
    of __init__.
    """
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = node.name if isinstance(node, ast.FunctionDef) else None
            if own:
                defined.append((module, own))
            if module == "__init__":
                continue
            refs = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    refs.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    refs.add(sub.name)
            used |= refs - {own}
    return defined, used


def dead_private_helpers(sources: dict) -> list:
    """'module:_name' for each module-level _name function that no module reads."""
    defined, used = module_functions(sources)
    private = [(m, name) for m, name in defined if name.startswith("_") and not name.startswith("__")]
    return [f"{m}:{name}" for m, name in private if name not in used]


def uncalled_public_functions(sources: dict) -> list:
    """'module:name' for each public module-level function that no module reads."""
    defined, used = module_functions(sources)
    return [f"{m}:{name}" for m, name in defined if not name.startswith("_") and name not in used]


def package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_checker_finds_dead_helpers():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\ndef _live():\n    pass\ndef _remote():\n    pass\n"
             "def public():\n    return _live()\n",
        "b": "import a\na._remote()\n",
    }
    assert dead_private_helpers(sources) == ["a:_dead"]


def test_no_dead_private_helpers():
    assert dead_private_helpers(package_sources()) == []


# Public functions that no package code calls, each with the reason it stays.
UNCALLED_API = {
    "point_to_cloud_distance": "perfbench traces it",
    "vote_target_class": "perfbench traces it",
}


def test_checker_finds_test_only_api():
    sources = {
        "a": "def lonely(n):\n    return lonely(n - 1)\ndef used():\n    pass\ndef _private():\n    pass\n",
        "b": "from a import used\nused()\n",
        "__init__": "from a import lonely\n",
    }
    assert uncalled_public_functions(sources) == ["a:lonely"]


def test_no_test_only_api():
    # Equality, not a subset: an exemption whose function gains a caller goes.
    assert sorted(name.split(":")[1] for name in uncalled_public_functions(package_sources())) == sorted(UNCALLED_API)


def _is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", None) == "dataclass" or getattr(dec, "attr", None) == "dataclass":
            return True
    return False


def unread_fields(sources: dict) -> list:
    """'Class.name' for each dataclass field or property that no package code
    loads as an attribute or names in a string (config.SECTIONS,
    report.STATS_VALUES and getattr calls name fields in strings)."""
    members, read = [], set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        members.append((node.name, item.target.id))
                    elif isinstance(item, ast.FunctionDef) and any(
                        getattr(dec, "id", None) == "property" for dec in item.decorator_list
                    ):
                        members.append((node.name, item.name))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{cls}.{name}" for cls, name in members if name not in read]


def test_checker_finds_test_only_fields():
    sources = {
        "a": "from dataclasses import dataclass\n"
             "@dataclass(frozen=True)\nclass A:\n    kept: int\n    named: int\n    lonely: int\n"
             "    @property\n    def shown(self):\n        return self.kept\n"
             "    @property\n    def hidden(self):\n        return 0\n"
             "class Plain:\n    unread: int\n",
        "b": "COLUMNS = ('named',)\ndef f(a):\n    a.lonely = a.shown\n",
    }
    assert unread_fields(sources) == ["A.lonely", "A.hidden"]


# Dataclass fields and properties that no package code reads, each with the
# reason it stays.
UNREAD_FIELDS = {"GroupEstimate.rho": "the detect diagnostics of ROADMAP aim 4 will read it"}


def test_no_test_only_fields():
    # Equality, not a subset: an exemption whose field gains a reader goes.
    assert sorted(unread_fields(package_sources())) == sorted(UNREAD_FIELDS)
