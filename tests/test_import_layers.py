"""The package imports in one direction: every import of a chaincodes module
sits at module top level and names a module below the importer in LAYERS,
so no import cycle can form and no import waits for a call to run."""

import ast
from pathlib import Path

import chaincodes

# lowest first: ring scalars, polynomials over Z_{p^e} and F_p, cyclic codes,
# their weights, the JSON schema, the constructions, the command line
LAYERS = ["ring", "_modpoly", "fieldpoly", "ringpoly", "code", "exhaustive", "serialize", "constructions", "cli"]
# the package facade and the entry point may import anything
EXEMPT = {"__init__", "__main__"}
SOURCE = Path(chaincodes.__file__).resolve().parent


def _package_imports(tree: ast.Module):
    """(line, imported module, at top level) for each import of a chaincodes
    module; the package itself counts as the module "__init__"."""
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "chaincodes"]
            targets = [name.partition(".")[2] or "__init__" for name in names]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "chaincodes"):
            module = (node.module or "").removeprefix("chaincodes").lstrip(".")
            # `from . import x` and `from chaincodes import x` import each name x
            targets = [module.split(".")[0]] if module else [alias.name for alias in node.names]
        else:
            continue
        for target in targets:
            yield node.lineno, target, id(node) in top


def test_every_module_has_a_layer():
    modules = {path.stem for path in SOURCE.glob("*.py")} - EXEMPT
    assert modules == set(LAYERS)


def test_imports_point_down_the_layers():
    faults = []
    for name in LAYERS:
        path = SOURCE / f"{name}.py"
        for line, target, at_top in _package_imports(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{line} imports {target}"
            if not at_top:
                faults.append(f"{where} below module top level")
            if target not in LAYERS or LAYERS.index(target) >= LAYERS.index(name):
                faults.append(f"{where}, which is not below {name}")
    assert not faults, "\n".join(faults)


def test_the_facade_exports_each_name_once_in_order():
    names = chaincodes.__all__
    assert names == sorted(set(names))
    assert all(hasattr(chaincodes, name) for name in names)
    assert len(names) == 51
