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


def test_no_module_imports_a_private_name_of_a_sibling():
    # a name with a leading underscore belongs to its own module
    crossings = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(Path(perccode.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "perccode")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossings == []
