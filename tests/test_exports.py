import ast
import importlib
import pkgutil
from pathlib import Path

import perccode


def test_every_export_resolves():
    for info in pkgutil.iter_modules(perccode.__path__):
        module = importlib.import_module(f"perccode.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"perccode.{info.name}.__all__ names {missing}"
    tree = ast.parse(Path(perccode.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if not hasattr(perccode, name)] == []


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` of each name one module of the package imports
    from the package, the module written out from ``perccode``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level > 0:
            module = f"perccode.{module}".rstrip(".")
        if module.split(".")[0] == "perccode":
            found += [(module, alias.name) for alias in node.names]
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    # a name with a leading underscore belongs to its own module
    crossings = [
        f"{path.name}: from {module} import {name}"
        for path in sorted(Path(perccode.__file__).parent.glob("*.py"))
        for module, name in _package_imports(path)
        if name.startswith("_")
    ]
    assert crossings == []


def test_oracle_imports_nothing_from_the_sampler():
    # the enumeration counts its configurations itself, so that a test can
    # check the sampler's tally against it
    package = Path(perccode.__file__).parent
    imports = _package_imports(package / "oracle.py")
    assert imports
    assert [
        (module, name)
        for module, name in imports
        if module == "perccode.percolate" or (module, name) == ("perccode", "percolate")
    ] == []
    # nor does any module it imports, followed transitively; ``from perccode
    # import x`` runs the package's __init__, and then module x if it is one
    reached, todo = set(), ["perccode.oracle"]
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        stem = module.removeprefix("perccode").lstrip(".") or "__init__"
        for imported, name in _package_imports(package / f"{stem}.py"):
            todo.append(imported)
            if imported == "perccode" and (package / f"{name}.py").exists():
                todo.append(f"perccode.{name}")
    assert reached >= {"perccode.oracle", "perccode.analytic", "perccode.infomeasure"}
    assert "perccode.percolate" not in reached


def test_ensemble_draws_only_through_grid_tallies():
    # every cell, one alone included, is a row of sweep: one draw path from the sampler
    imports = _package_imports(Path(perccode.__file__).parent / "ensemble.py")
    assert sorted(name for module, name in imports if module == "perccode.percolate") == [
        "RNG_VERSION",
        "grid_tallies",
    ]
    assert ("perccode", "percolate") not in imports
