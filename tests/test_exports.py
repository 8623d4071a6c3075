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
