import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import perccode
from perccode import cli


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


def test_every_name_the_benchmark_reads_off_the_package_exists():
    # the benchmark calls the program through module attributes
    # (``percolate.sample_tally``): a renamed one fails its run, so it fails here first
    bench = Path(__file__).parents[1] / "perfbench"
    missing, read = [], 0
    for source in ("workloads.py", "run.py"):
        tree = ast.parse((bench / source).read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "perccode":
                modules.update({a.asname or a.name: f"perccode.{a.name}" for a in node.names})
            elif isinstance(node, ast.Import):
                named = [a for a in node.names if a.name == "perccode"]
                modules.update({a.asname or a.name: a.name for a in named})
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module = modules.get(node.value.id)
                if module is not None:
                    read += 1
                    if not hasattr(importlib.import_module(module), node.attr):
                        missing.append(f"{source}: {module}.{node.attr}")
    assert read > 10
    assert missing == []


# Public names no subcommand runs, each with why it stays in the library.  An
# entry the subcommands do reach, or that names nothing public, fails the gate.
UNREACHED_ALLOWED = {
    "analytic.pgf_eval": "exact reference",
    "analytic.leaf_pgf_eval": "exact reference",
    "analytic.pgf_iterate": "exact reference",
    "analytic.node_moments": "exact reference",
    "analytic.leaf_moments": "exact reference",
    "oracle.node_distribution": "exact reference",
    "oracle.joint_leaf_distribution": "exact reference",
    "percolate.tally": "benchmark probe",
    "percolate.sample_tally": "benchmark probe",
    "infomeasure.measures": "benchmark probe",
    "codec.encode": "public codec API",
    "codec.kraft_sum": "public codec API",
    "codec.CodeBook.generations": "public codec API",
}


def _public_code() -> dict:
    """The code object of each plain function, and each public method of a
    class, that a module of the package names in its ``__all__``."""
    found = {}
    for info in pkgutil.iter_modules(perccode.__path__):
        module = importlib.import_module(f"perccode.{info.name}")
        for name in module.__all__:
            obj = inspect.unwrap(getattr(module, name))
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        found[f"{info.name}.{name}.{attr}"] = member.__code__
    return found


def test_every_public_function_is_reached_by_a_subcommand(tmp_path):
    # all seven subcommands in-process, each function entered noted by a profile hook
    cluster, book = str(tmp_path / "cluster.json"), str(tmp_path / "book.txt")
    entered = set()

    def note(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(note)
    try:
        for argv in (
            ["analytic", "--p", "0.3", "--p", "0.5", "--p", "0.65"],
            ["sample", "--p", "0.6", "--depth", "8", "--seed", "4", "--out", cluster],
            ["sample", "--p", "0.6", "--depth", "8", "--seed", "4", "--format", "dot"],
            ["codebook", "--p", "0.6", "--depth", "8", "--seed", "4", "--weights"],
            ["codebook", "--cluster", cluster, "--out", book],
            ["ensemble", "--p", "0.6", "--depth", "8", "--samples", "200"],
            ["sweep", "--p", "0.5", "--p", "0.6", "--depth", "6", "--samples", "100"],
            ["oracle", "--p", "0.6", "--depth", "2"],
        ):
            assert cli.main(argv) == 0, argv
        bits = "".join(Path(book).read_text(encoding="ascii").split()[:2])
        assert cli.main(["decode", "--book", book, "--bits", bits]) == 0
    finally:
        sys.setprofile(previous)
    unreached = {name for name, code in _public_code().items() if code not in entered}
    assert sorted(unreached - UNREACHED_ALLOWED.keys()) == []
    stale = [name for name in UNREACHED_ALLOWED if name not in unreached]
    assert stale == []
