"""Every imported name in the package, the tests and the tools is used, every
module of the package but the entry point is imported by another, every
top-level function and class of the package is used or exported, and every
fixture of the tests is requested.

`__init__.py` is skipped by the import scan: its imports are the package's
exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/sharedctrl/*.py"))
TESTS = sorted(ROOT.glob("tests/*.py"))
TOOLS = sorted(ROOT.glob("tools/*.py"))
FILES = sorted(p for p in [*PACKAGE, *TESTS, *TOOLS] if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_sees_the_files():
    names = {p.name for p in FILES}
    assert {"lstar.py", "cli.py", "conftest.py", "test_imports.py", "cli_fingerprint.py"} <= names


def test_scan_flags_an_unused_name():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n"
    assert unused_imports(source) == ["e", "os"]


def test_no_unused_imports():
    unused = [f"{p.relative_to(ROOT)}: {name}"
              for p in FILES for name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not unused, "unused imports: " + ", ".join(unused)


def unimported_modules(sources, entry_points):
    """Each module of `sources` (`{file name: text}`, one package's modules)
    that is not in `entry_points` and that no other module of them imports,
    as `from .m import x`, `from .m.sub import x` or `from . import m`."""
    imported = set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                imported.update({f"{t.split('.')[0]}.py" for t in targets} - {name})
    return sorted(set(sources) - imported - set(entry_points))


def test_scan_flags_an_unimported_module():
    # `import c` is another package's module, and a module importing itself counts for nothing
    sources = {"cli.py": "from .a import run\n", "a.py": "from . import b\nfrom .a import x\n",
               "b.py": "import c\n", "c.py": "from .c import y\n", "d.py": "from .b.sub import z\n"}
    assert unimported_modules(sources, {"cli.py"}) == ["c.py", "d.py"]


def test_every_module_is_imported_by_another():
    # `__init__.py` imports the exports, not what the pipeline calls
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE if p.name != "__init__.py"}
    orphans = unimported_modules(sources, {"cli.py"})
    assert not orphans, "modules no other package module imports: " + ", ".join(orphans)


def unreferenced_definitions(sources, exported):
    """`name: definition` for each top-level function and class of
    `sources` (`{name: text}`) that no source names, as a name or an
    attribute, and that is not in `exported`."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used)


def exports(source):
    """The definitions an `__init__.py` imports, which the package exports."""
    return {alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_scan_flags_an_unreferenced_definition():
    sources = {"a.py": "def used():\n    pass\n\n\ndef dead():\n    used()\n\n\n"
                       "class Kept:\n    pass\n\n\nclass Gone:\n    pass\n",
               "b.py": "import a\n\n\ndef helper():\n    return a.Kept\n"}
    assert unreferenced_definitions(sources, {"helper"}) == ["a.py: Gone", "a.py: dead"]
    assert exports("from .a import Gone, dead as alias\n__version__ = '1'\n") == {
        "Gone", "dead"}


def test_every_definition_is_used_or_exported():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    dead = unreferenced_definitions(sources, exports(sources.pop("__init__.py")))
    assert not dead, "defined but never used or exported: " + ", ".join(dead)


def is_fixture(decorator):
    """Whether a decorator is `pytest.fixture`, called or not."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Attribute) and target.attr == "fixture"


def unrequested_fixtures(sources):
    """`name: fixture` for each fixture of `sources` (`{name: text}`) that is
    no parameter of any function in them."""
    functions = [(name, node) for name, text in sources.items()
                 for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)]
    requested = {arg.arg for _name, node in functions
                 for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    return sorted(f"{name}: {node.name}" for name, node in functions
                  if node.name not in requested and any(map(is_fixture, node.decorator_list)))


def test_scan_flags_an_unrequested_fixture():
    sources = {"conftest.py": "import pytest\n\n\n@pytest.fixture\ndef used():\n    pass\n\n\n"
                              "@pytest.fixture(scope='session')\ndef unused(used):\n    pass\n",
               "test_a.py": "def test_x(used):\n    pass\n"}
    assert unrequested_fixtures(sources) == ["conftest.py: unused"]


def test_every_fixture_is_requested():
    unrequested = unrequested_fixtures({p.name: p.read_text(encoding="utf-8") for p in TESTS})
    assert not unrequested, "fixtures no test requests: " + ", ".join(unrequested)
