"""Every imported name in the package and the tests is used.

`__init__.py` is skipped: its imports are the package's exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in [*ROOT.glob("src/sharedctrl/*.py"), *ROOT.glob("tests/*.py")]
               if p.name != "__init__.py")


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
    assert {"lstar.py", "cli.py", "conftest.py", "test_imports.py"} <= names


def test_scan_flags_an_unused_name():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n"
    assert unused_imports(source) == ["e", "os"]


def test_no_unused_imports():
    unused = [f"{p.relative_to(ROOT)}: {name}"
              for p in FILES for name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not unused, "unused imports: " + ", ".join(unused)
