"""Every name a module under src/pcbdet imports is used there or re-exported,
and every module-level private function is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pcbdet"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_private_helpers(sources: dict) -> list:
    """'module:_name' for each module-level _name function that no module reads.

    A function's references to itself do not count.
    """
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = node.name if isinstance(node, ast.FunctionDef) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined.append((module, own))
            refs = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    refs.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    refs.add(sub.name)
            used |= refs - {own}
    return [f"{module}:{name}" for module, name in defined if name not in used]


def test_checker_finds_dead_helpers():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\ndef _live():\n    pass\ndef _remote():\n    pass\n"
             "def public():\n    return _live()\n",
        "b": "import a\na._remote()\n",
    }
    assert dead_private_helpers(sources) == ["a:_dead"]


def test_no_dead_private_helpers():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert dead_private_helpers(sources) == []
