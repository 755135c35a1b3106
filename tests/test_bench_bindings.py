"""Every `sharedctrl` name the benchmark wraps exists where it is looked up.

`bench/layers.py` binds its spans to names in `sharedctrl` modules: `CALLS`
maps each function name to the module it is taken from, and `refine_loop`'s
lookups in `sharedctrl.cosim` are listed in `COSIM_BINDINGS`.  A traced run
records a missing name as absent instead of failing, so a rename is caught
here.  The file is parsed, not imported, so this needs nothing outside the
standard library and `sharedctrl`.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def bindings():
    """`(module name, attribute)` for every name `bench/layers.py` looks up."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sharedctrl":
            modules.update((a.asname or a.name, f"sharedctrl.{a.name}") for a in node.names)
    found = []
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0].id
        if target == "CALLS":
            for key, value in zip(node.value.keys, node.value.values):
                found.append((modules[value.elts[0].id], key.value))
        elif target == "COSIM_BINDINGS":
            found.extend(("sharedctrl.cosim", elt.value) for elt in node.value.elts)
    return found


def test_scan_sees_both_tables():
    names = {(module, name) for module, name in bindings()}
    assert ("sharedctrl.game", "build_arena") in names
    assert ("sharedctrl.cosim", "LearningSession") in names


def test_benchmark_bindings_exist():
    missing = [f"{module}.{name}" for module, name in bindings()
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, "bench/layers.py looks up missing names: " + ", ".join(missing)
