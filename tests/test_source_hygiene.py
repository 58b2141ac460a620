"""Checks over the package sources, made with the stdlib ``ast``.

Every imported name must be used, and every ``__all__`` entry must name
something the module defines or imports. ``__init__.py`` imports purely to
re-export, so only its ``__all__`` (if any) is checked. SciPy may only be
imported inside a function, so commands that never interpolate skip its
import cost. Every public name (``__all__`` entries and public methods)
must have a caller outside the unit tests: the package itself, the demos,
the benchmark or the acceptance suite. The package namespace is the
``__all__`` of every module but ``formats`` and ``cli``, and no name is in
two of those lists, since a star import would silently shadow one; this
check imports the package.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import ptzscan

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ptzscan").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
REEXPORTED = [p for p in MODULES if p.stem not in ("formats", "cli")]
CALLERS = [
    *MODULES,
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "ptzbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line number."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _public_surface(tree: ast.Module) -> set[str]:
    """``__all__`` entries plus the public methods of top-level classes."""
    names = set(_dunder_all(tree))
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            names.update(
                f.name
                for f in cls.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not f.name.startswith("_")
            )
    return names


def _references(tree: ast.Module) -> set[str]:
    """Every name and attribute a module uses."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set(_imports(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_dunder_all(tree))
    unused = {name: line for name, line in _imports(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dunder_all_resolves(path):
    tree = _parse(path)
    missing = [name for name in _dunder_all(tree) if name not in _top_level_names(tree)]
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


def _module_level_imports(tree: ast.Module):
    """Import statements that run on import: everything outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_is_not_imported_at_module_level(path):
    lines = sorted(
        node.lineno
        for node in _module_level_imports(_parse(path))
        for module in (
            [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
        )
        if module.split(".")[0] == "scipy"
    )
    assert not lines, f"{path.name}: module-level scipy import at line(s) {lines}"


def test_public_names_have_a_caller():
    used = set().union(*(_references(_parse(p)) for p in CALLERS))
    uncalled = {p.name: sorted(_public_surface(_parse(p)) - used) for p in MODULES}
    uncalled = {name: names for name, names in uncalled.items() if names}
    assert not uncalled, f"public names only tests use: {uncalled}"


def test_package_namespace_is_every_reexported_all():
    missing = {
        p.stem: names
        for p in REEXPORTED
        if (names := [n for n in _dunder_all(_parse(p)) if not hasattr(ptzscan, n)])
    }
    assert not missing, f"__all__ names missing from the ptzscan namespace: {missing}"


def test_no_name_is_exported_twice():
    counts = Counter(n for p in REEXPORTED for n in _dunder_all(_parse(p)))
    twice = sorted(n for n, c in counts.items() if c > 1)
    assert not twice, f"names in two modules' __all__: {twice}"
