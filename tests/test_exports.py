"""The package exports a pinned set of public names, no two modules export the
same name, every name a module exports through ``__all__`` resolves, every
private module-level name of the package is used somewhere in it, and every
name a module imports is used in that module. Only the CLI group turns errors
into ``click.ClickException``. The package and the CLI load a library module
only when a name of it is used."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ordlines

MODULES = ["ordlines"] + [f"ordlines.{m.name}" for m in pkgutil.iter_modules(ordlines.__path__)]

# The modules whose public names the package re-exports.
LIBRARY_MODULES = [
    "analysis", "constructions", "errors", "fields", "geometry", "incidence", "pointset_io", "search",
]

PUBLIC_NAMES = [
    "AlmostCoplanarReport", "BoundConstants", "CanonLine2", "CanonLine3",
    "CanonPlane", "ConcurrentProbeReport", "DegenerateInputError", "DomainError", "Eisenstein",
    "GenerationError", "InvariantViolationError", "KellyTraceReport", "Kind", "OrdlinesError",
    "ParseError", "PlaneSummary", "Point", "PointSet", "ProjectionImage", "Scalar", "SearchConfig",
    "SearchResult", "SkewBoundReport", "SpanSummary", "SylvesterGallaiReport", "UsageError", "W",
    "affine2", "affine3", "as_scalar", "boroczky_model", "bound_constants", "canon_line",
    "canon_plane", "collinear", "concurrent_lines_probe", "coplanar",
    "gamma_prime", "gen_coplanar_heavy", "gen_grid2d", "gen_hesse", "gen_near_coplanar",
    "gen_random", "gen_two_skew", "incident", "kelly_trace", "make_point", "max_coplanar",
    "minimize_ordinary", "ordinary_lines", "parse_pointset", "plane_ordinary_profile",
    "plane_summary", "point_degrees", "project_from", "projective2", "read_pointset_file", "skew",
    "span_summary", "verify_almost_coplanar", "verify_skew_bound", "verify_sylvester_gallai",
    "write_pointset",
]


def test_package_exports_the_pinned_names():
    assert len(PUBLIC_NAMES) == 63
    assert sorted(ordlines.__all__) == PUBLIC_NAMES
    # Submodules (``cli`` too, once imported) are attributes but not exports.
    public = [
        n for n in dir(ordlines) if not n.startswith("_") and not inspect.ismodule(getattr(ordlines, n))
    ]
    assert public == PUBLIC_NAMES


def test_module_export_lists_are_disjoint():
    # The package resolves a name from the first module, in dependency order,
    # that exports it, so a name two modules export would hide the later one.
    exported = {
        m: set(getattr(importlib.import_module(f"ordlines.{m}"), "__all__", ())) for m in LIBRARY_MODULES
    }
    shared = [
        (a, b, sorted(exported[a] & exported[b]))
        for i, a in enumerate(LIBRARY_MODULES)
        for b in LIBRARY_MODULES[i + 1 :]
        if exported[a] & exported[b]
    ]
    assert shared == []


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used_names(stmt) -> set[str]:
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_private_module_name_is_used():
    # A module-level _name (function, class or constant) that no other
    # statement of the package names is dead code, left behind by its last caller.
    statements = [
        (path.name, stmt)
        for path in sorted(Path(ordlines.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    used = [_used_names(stmt) for _, stmt in statements]
    unused = [
        f"{module}: {name}"
        for i, (module, stmt) in enumerate(statements)
        for name in _defined_names(stmt)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in names for j, names in enumerate(used) if j != i)
    ]
    assert unused == []


def test_every_imported_name_is_used():
    # A name a module imports and never reads is an import left behind by its
    # last use. Star imports and ``__future__`` imports bind nothing to check.
    unused = []
    for path in sorted(Path(ordlines.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
            if alias.name != "*"
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in read]
    assert unused == []


def _raises_by_scope(node, scope: str):
    """(dotted scope, raised expression) for every ``raise`` under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield inner, ast.unparse(exc)
        yield from _raises_by_scope(child, inner)


def test_only_the_cli_group_raises_click_exceptions():
    # Commands and helpers raise the package's own errors; ``_Main.invoke``
    # alone turns them into "Error: ..." and exit status 1.
    path = Path(ordlines.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    raising = [scope for scope, exc in _raises_by_scope(tree, "cli") if exc.endswith("ClickException")]
    assert raising == ["cli._Main.invoke"]


# --- loading on demand --------------------------------------------------------

_REPORT_LOADED = """
import sys
{run}
print(" ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "ordlines")))
"""


def _fresh(run: str) -> list[str]:
    """What a fresh interpreter prints when it runs ``run``: its lines, the last
    one naming the ``ordlines`` modules loaded."""
    src = str(Path(ordlines.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_LOADED.format(run=run)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded_by_command(*args: str) -> list[str]:
    run = f"""
from ordlines.cli import main
try:
    main({list(args)!r}, prog_name="ordlines")
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""
    return _fresh(run)[-1].split()


def test_importing_the_package_loads_no_submodule():
    assert _fresh("import ordlines") == ["ordlines"]


def test_help_loads_only_the_cli_and_the_errors():
    assert _loaded_by_command("--help") == ["ordlines", "ordlines.cli", "ordlines.errors"]


def test_boroczky_loads_neither_analysis_nor_search():
    loaded = _loaded_by_command("boroczky", "--m", "6")
    assert "ordlines.constructions" in loaded
    assert [m for m in ("ordlines.analysis", "ordlines.search") if m in loaded] == []


def test_constants_loads_neither_geometry_nor_incidence():
    # The bound constants are plain Fractions; only the verifiers need the kernels.
    loaded = _loaded_by_command("constants", "--alpha", "1/2", "--beta", "2/3", "--gamma", "1/9")
    assert loaded == ["ordlines", "ordlines.analysis", "ordlines.cli", "ordlines.errors", "ordlines.fields"]


def test_star_import_binds_the_pinned_names():
    namespace: dict = {}
    exec("from ordlines import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ordlines.no_such_name  # noqa: B018


def test_dir_lists_the_exports_the_modules_and_the_package_attributes():
    dunders = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__"]
    dunders += ["__name__", "__package__", "__path__", "__spec__", "__version__"]
    listed = _fresh("import ordlines\nprint(' '.join(dir(ordlines)))")[0].split()
    assert listed == sorted(PUBLIC_NAMES + LIBRARY_MODULES + dunders)
