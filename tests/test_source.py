"""Source checks on the package itself."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib
import re
import sys

import numpy as np

import fiberplan

PACKAGE = pathlib.Path(fiberplan.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_package_has_no_assert_statements():
    """`python -O` strips asserts, so package control flow must raise instead."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the package: " + ", ".join(found)


def test_package_imports_only_the_standard_library_and_numpy():
    """numpy is the only runtime dependency, even where scipy or networkx
    happen to be installed."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "fiberplan"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert not found, "imports outside the standard library and numpy: " + ", ".join(found)


def test_no_module_names_a_point_class():
    """A coordinate is two floats throughout the package: no module names
    `GeoPoint`, as a class, a name, an attribute or an import."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                names = (node.name.rpartition(".")[2], node.asname)
            else:
                names = (getattr(node, "id", None), getattr(node, "attr", None),
                         node.name if isinstance(node, ast.ClassDef) else None)
            if "GeoPoint" in names:
                found.append(f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', '?')}")
    assert not found, "GeoPoint named in the package: " + ", ".join(found)


def test_readme_library_use_block_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert 'out_dir="/tmp/golden"' in block
    monkeypatch.chdir(ROOT)
    exec(block.replace('"/tmp/golden"', repr(str(tmp_path))), {})
    assert len(capsys.readouterr().out.splitlines()) == 8  # 2 deciles x 2 levels x 2 algorithms
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "demand.csv",
        "design_access_mst.geojson",
        "design_access_pcst.geojson",
        "design_regional_mst.geojson",
        "design_regional_pcst.geojson",
        "mc_summary.csv",
        "report.csv",
    ]


def test_perfbench_span_targets_resolve():
    """The traced benchmark wraps functions at the module attributes its
    SPANS and LEAVES tables name; each one must still exist."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # defines the tables; install() is not called
    targets = [target for target, _ in spans.SPANS + spans.LEAVES]
    assert targets
    missing = []
    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(f"fiberplan.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(target)
    assert not missing, "perfbench span targets not found: " + ", ".join(missing)


# The README's "Lower-level pieces" list: module -> the names it gives there.
LOWER_LEVEL_PIECES = {
    "fiberplan.geodata": ("haversine_km",),
    "fiberplan.netdesign.solvers": ("prim_mst", "pcst_gw"),
    "fiberplan.costmodel": ("capex_quantities", "opex_npv"),
    "fiberplan.lca": ("emissions_quantities",),
    "fiberplan.report": ("scc", "monte_carlo"),
    "fiberplan.demand": ("assign_deciles",),
}


def test_readme_lower_level_pieces_import_from_their_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("Lower-level pieces", 1)[1].split("\n## ", 1)[0]
    for module_name, names in LOWER_LEVEL_PIECES.items():
        module = importlib.import_module(module_name)
        assert f"`{module_name}" in section, module_name
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
            assert f"`{name}`" in section or f"`{module_name}.{name}`" in section, name


def _public_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, def line) of every public top-level function or class and
    every public method of a top-level class."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [(name, line) for name, line in found if not name.startswith("_")]


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring nodes of a module and of its classes and
    functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _readers() -> set[str]:
    """The names read where a run or a reader of the package meets them:
    the `Name`, `Attribute` and imported names of the code under `src/` and
    `perfbench/`, the words of the string constants in `perfbench/` (the
    span targets), docstrings left out, and the words of the README's code
    spans and blocks. Comments, docstrings and prose read nothing."""
    words = re.compile(r"\w+")
    read: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_perfbench = path.parent.name == "perfbench"
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
            elif (
                in_perfbench
                and isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                read.update(words.findall(node.value))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", readme, flags=re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    for code in blocks + spans:
        read.update(words.findall(code))
    return read


def test_every_public_name_in_src_has_a_reader():
    """A public function, class or method that no code in the package or
    the benchmark, no benchmark span target and no README code span names
    is API kept only for tests: it belongs in the tests, or nowhere."""
    read = _readers()
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unread += [
            f"{path.relative_to(PACKAGE)}:{def_line} {name}"
            for name, def_line in _public_definitions(tree)
            if name not in read
        ]
    assert not unread, "public names nothing outside the tests reads: " + ", ".join(unread)


# Package modules cli.py may import from, and the names it may take from
# each (None: any name). Stages run through `pipeline` and `config` only.
CLI_IMPORTS = {
    "": {"__version__"},
    "config": None,
    "errors": None,
    "pipeline": None,
    "netdesign.design": {"ALGORITHMS"},  # the argparse choices
}


def test_cli_reaches_the_stages_only_through_pipeline_and_config():
    """The CLI is a shell over the pipeline: it imports no stage function
    (loaders, demand, classify, design, solvers, report) on its own."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.partition(".")[0] == "fiberplan"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "fiberplan":
                    continue
                module = module.partition(".")[2]
            allowed = CLI_IMPORTS.get(module, set())
            found += [
                f"{module}.{a.name}"
                for a in node.names
                if allowed is not None and a.name not in allowed
            ]
    assert not found, "cli.py imports stage code directly: " + ", ".join(found)


def test_geometry_stays_out_of_the_pipeline():
    """`pipeline.py` orchestrates the stages: it imports neither numpy nor a
    `haversine_*` distance, and only `geodata.py` calls the vectorised
    `haversine_km_array`; a nearest-point search is `RoadGraph.nearest_vertex`."""
    found = []
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        found += [
            f"pipeline.py:{node.lineno} {name}"
            for name in names
            if name.partition(".")[0] == "numpy" or name.startswith("haversine_")
        ]
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "geodata.py" and path.parent == PACKAGE:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno} haversine_km_array()"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "haversine_km_array" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None))
        ]
    assert not found, "geometry outside geodata: " + ", ".join(found)


TRIGONOMETRY = {"sin", "cos", "asin", "arcsin", "radians", "degrees"}


def test_only_geodata_measures_the_earth():
    """The spherical Earth model lives in `geodata.py`: no other module
    reads a trigonometric or angle function of `math` or numpy (called or
    hoisted) or names `EARTH_RADIUS_KM`, so every great-circle distance is
    `haversine_km` or the numpy kernel beside it."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "geodata.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                base = getattr(node.value, "id", None)
                names = [node.attr] if base in ("math", "np", "numpy") else []
            elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
                names = [alias.name for alias in node.names]
            else:
                names = []
            names = [name for name in names if name in TRIGONOMETRY]
            if "EARTH_RADIUS_KM" in (getattr(node, "id", None), getattr(node, "attr", None),
                                     node.name if isinstance(node, ast.alias) else None):
                names.append("EARTH_RADIUS_KM")
            found += [f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', '?')} {name}"
                      for name in names]
    assert not found, "great-circle geometry outside geodata: " + ", ".join(found)


def test_only_the_solvers_build_a_network_design():
    """A `NetworkDesign` is what `prim_mst` or `pcst_gw` returns: no other
    module constructs one, so every design, a lone settlement's too, is a
    solver run."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "netdesign" / "solvers.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "NetworkDesign" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))
        ]
    assert not found, "NetworkDesign built outside the solvers: " + ", ".join(found)


def test_oracles_take_only_result_builders_from_the_solvers():
    """The PCST reference prunes and routes with its own code: from
    `netdesign.solvers`, `tests/oracles.py` imports only the two functions
    that turn a solve into a `NetworkDesign`."""
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "fiberplan.netdesign.solvers"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "fiberplan.netdesign.solvers":
                found += [
                    a.name for a in node.names if a.name not in ("_prized_design", "_sorted_edges")
                ]
            elif node.module == "fiberplan.netdesign":
                found += [a.name for a in node.names if a.name == "solvers"]
    assert not found, "oracles.py imports solver code: " + ", ".join(found)


# Graph classes a design reads, by module: built once, then only read.
DESIGN_GRAPHS = {
    "geodata.py": ("RoadGraph",),
    "netdesign/graphs.py": ("GreatCircleGraph", "RoadOverlay"),
}


def _owner(node: ast.AST) -> str | None:
    """The name at the root of an attribute or subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _unpacked(target: ast.AST):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _unpacked(element)
    else:
        yield target


def _changes_self(node: ast.AST) -> bool:
    """An assignment to, deletion of, or append/extend/insert on `self.…`."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("append", "extend", "insert") and _owner(node.func) == "self"
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        not isinstance(t, ast.Name) and _owner(t) == "self"
        for target in targets
        for t in _unpacked(target)
    )


def test_design_graphs_never_change_after_construction():
    """A road graph is shared by every design of a run, and each design's
    graph by whatever reads its result: none of them fills a cache or
    grows after `__init__`, so no method but `__init__` sets or extends an
    attribute of `self`."""
    found = []
    for module, classes in DESIGN_GRAPHS.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        seen = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name in classes]
        assert sorted(c.name for c in seen) == sorted(classes), module
        for cls in seen:
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                    continue
                found += [
                    f"{module}:{node.lineno} {cls.name}.{method.name}"
                    for node in ast.walk(method)
                    if _changes_self(node)
                ]
    assert not found, "graph state changed after construction: " + ", ".join(found)


NONNEGATIVE_MESSAGE = " must be >= 0, got "


def test_only_errors_writes_the_nonnegative_check():
    """The "<name> must be >= 0" rule of the books and of every pricing and
    demand quantity is `errors.check_nonnegative`: no other module raises a
    `ValueError` whose f-string spells that message."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            if getattr(node.exc.func, "id", None) != "ValueError":
                continue
            texts = [
                part.value
                for arg in node.exc.args
                if isinstance(arg, ast.JoinedStr)
                for part in arg.values
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            ]
            if any(NONNEGATIVE_MESSAGE in text for text in texts):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, "non-negativity checks outside errors.py: " + ", ".join(found)


# numpy `Generator` methods that turn bits into values; NEP 19 does not
# promise that their streams stay the same across numpy versions. `power`
# is left out: `np.power` is a ufunc of the same name.
GENERATOR_METHODS = frozenset(
    name for name in dir(np.random.Generator) if not name.startswith("_")
) - {"bit_generator", "spawn", "power"}


def test_draws_rest_on_the_philox_bit_stream_alone():
    """No module calls a `Generator` method (Monte Carlo values are computed
    from Philox words by `report.draw_table`) or imports `threading` (no
    module keeps per-thread generator state)."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in GENERATOR_METHODS:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} .{node.func.attr}(")
                continue
            else:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} import {name}"
                for name in names
                if name.partition(".")[0] == "threading"
            ]
    assert not found, "generator methods or threading in the package: " + ", ".join(found)
