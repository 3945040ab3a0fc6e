"""Every module under src/pcbdet imports only the standard library, numpy
and pcbdet itself. Every name a module under src/pcbdet or tests/ imports is
used there or re-exported, every name a package module exports in __all__ is defined, and
every module-level function is referenced somewhere in the package: a private
one always, a public one unless UNCALLED_API names it. Likewise every
dataclass field and property is read by package code unless UNREAD_FIELDS
names it."""

import ast
import dataclasses
import importlib
import inspect
import sys
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


RUNTIME_PACKAGES = set(sys.stdlib_module_names) | {"numpy", "pcbdet"}


def foreign_imports(source: str) -> list:
    """Top-level packages that a module imports, anywhere in its code, from
    outside RUNTIME_PACKAGES; a relative import is pcbdet's own."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - RUNTIME_PACKAGES)


def test_checker_finds_foreign_imports():
    source = ("import os.path\nimport numpy as np\nfrom . import geometry\nfrom pcbdet.config import SECTIONS\n"
              "def f():\n    from scipy import special\n    import yaml\n")
    assert foreign_imports(source) == ["scipy", "yaml"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_needs_numpy_alone(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


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
    # accuracy and attack_success_rate classify a split with one head call,
    # so no stage runs a single cloud's forward pass.
    "forward_logits": "perfbench traces it",
    "point_to_cloud_distance": "perfbench traces it",
    # Deleting it also drops estimation's import of pool_vector, which
    # perfbench's TestRebinder.test_missing_names_are_reported reads as
    # estimation.pool_vector: that test must change first.
    "vote_target_class": "perfbench traces it, and it is estimation's only use of pool_vector",
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


def stage_setting_parameters(module, sections) -> list:
    """'name(param)' for each parameter of a module's *_stage function that
    is named after a run setting: a config key or a field of a section's
    dataclass (RunConfig's own fields among them), given as config.SECTIONS."""
    settings = set()
    for _, cls, _, keys in sections:
        settings |= set(keys) | {f.name for f in dataclasses.fields(cls)}
    return [
        f"{name}({param})"
        for name, func in vars(module).items()
        if name.endswith("_stage") and callable(func)
        for param in inspect.signature(func).parameters
        if param in settings
    ]


def test_checker_finds_stage_setting_parameters():
    @dataclasses.dataclass
    class Section:
        seed: int = 0
        out_dir: str = ""

    module = types.ModuleType("m")
    exec("def a_stage(cfg, out_dir, prefix): pass\ndef b_stage(cfg, data_seed): pass\n"
         "def helper(seed): pass\n", vars(module))
    sections = (("s", Section, None, {"data_seed": "seed", "out_dir": "out_dir"}),)
    assert stage_setting_parameters(module, sections) == ["a_stage(out_dir)", "b_stage(data_seed)"]


def test_stages_take_settings_from_the_config_alone():
    # A stage parameter that repeats a setting would be a second way to set
    # it, beside the run config every stage already takes.
    from pcbdet import pipeline
    from pcbdet.config import SECTIONS

    assert stage_setting_parameters(pipeline, SECTIONS) == []


def _is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", None) == "dataclass" or getattr(dec, "attr", None) == "dataclass":
            return True
    return False


def _annotated_class(annotation):
    """The class an annotation names, as `C` or `C | None`; else None."""
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [a for a in (annotation.left, annotation.right) if not isinstance(a, ast.Constant)]
        return _annotated_class(sides[0]) if len(sides) == 1 else None
    return annotation.id if isinstance(annotation, ast.Name) else None


def _scope_nodes(scope):
    """The nodes of a module's or function's own code, not of the functions
    defined in it (a class body belongs to the scope around it)."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _receiver_classes(func, classes: set, owner) -> dict:
    """name -> class for the names of a function whose class is known: the
    first parameter of a method (owner's), an annotated parameter or local,
    or a name assigned a call of a package class. A name given two classes
    is left out."""
    found = {}

    def bind(name, cls):
        found[name] = cls if found.get(name, cls) == cls else None

    params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    if owner and params:
        bind(params[0].arg, owner)
    for arg in params:
        if cls := _annotated_class(arg.annotation):
            bind(arg.arg, cls)
    for node in _scope_nodes(func):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if cls := _annotated_class(node.annotation):
                bind(node.target.id, cls)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name) and node.value.func.id in classes):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bind(target.id, node.value.func.id)
    return {name: cls for name, cls in found.items() if cls}


def unread_fields(sources: dict) -> list:
    """'Class.name' for each dataclass field or property that no package code
    reads. A load `x.name` reads Class.name alone when x's class is known in
    its function (see _receiver_classes), and reads nothing when it only
    copies the field into a new instance of that class (`Class(name=x.name)`);
    a load on any other receiver reads every field of that name, and so does
    a string (config.SECTIONS, report.STATS_VALUES and getattr calls name
    fields in strings)."""
    trees = [ast.parse(source) for source in sources.values()]
    classes = {node.name for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    members, by_name, by_class = [], set(), set()
    for tree in trees:
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owners.update((item, node.name) for item in node.body if isinstance(item, ast.FunctionDef))
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        members.append((node.name, item.target.id))
                    elif isinstance(item, ast.FunctionDef) and any(
                        getattr(dec, "id", None) == "property" for dec in item.decorator_list
                    ):
                        members.append((node.name, item.name))
        scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            known = {} if scope is tree else _receiver_classes(scope, classes, owners.get(scope))
            nodes = list(_scope_nodes(scope))

            def receiver(attr):
                return known.get(attr.value.id) if isinstance(attr.value, ast.Name) else None

            copies = {
                id(kw.value)
                for node in nodes
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                for kw in node.keywords
                if isinstance(kw.value, ast.Attribute) and kw.value.attr == kw.arg
                and receiver(kw.value) == node.func.id
            }
            for node in nodes:
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in copies:
                    cls = receiver(node)
                    if cls:
                        by_class.add((cls, node.attr))
                    else:
                        by_name.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    by_name.add(node.value)
    return [f"{cls}.{name}" for cls, name in members if name not in by_name and (cls, name) not in by_class]


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


def test_checker_resolves_receivers():
    # A load reads the field of its receiver's class when that is known: an
    # annotated parameter or local, a constructor call, or self in a method.
    # A copy into a new instance of the class reads nothing.
    sources = {
        "a": "from dataclasses import dataclass\n"
             "@dataclass\nclass A:\n    values: list\n    size: int\n    tag: str\n    mark: int\n"
             "    @property\n    def total(self):\n        return self.mark\n"
             "@dataclass\nclass B:\n    size: int\n    mark: int\n",
        "b": "def f(stacks: dict, a: A, b: B | None, c):\n"
             "    n: int = 0\n"
             "    fresh = B(size=1, mark=2)\n"
             "    copy = A(values=a.values, size=fresh.size, tag=c.tag, mark=0)\n"
             "    return stacks.values(), n.size, b.mark, a.total, copy\n",
    }
    assert unread_fields(sources) == ["A.values", "A.size"]


# Dataclass fields and properties that no package code reads, each with the
# reason it stays.
UNREAD_FIELDS = {"GroupEstimate.rho": "the detect diagnostics of ROADMAP aim 4 will read it"}


def test_no_test_only_fields():
    # Equality, not a subset: an exemption whose field gains a reader goes.
    assert sorted(unread_fields(package_sources())) == sorted(UNREAD_FIELDS)
