"""Checks over the package sources, made with the stdlib ``ast``.

Every imported name must be used, and every ``__all__`` entry must name
something the module defines or imports. ``__init__.py`` imports purely to
re-export, so only its ``__all__`` (if any) is checked. SciPy may only be
imported inside a function, so commands that never interpolate skip its
import cost. No module imports a private SciPy module or name, and only
``surface`` and its unit tests may touch ``Delaunay._transform``, so a SciPy
upgrade has one place to check. Every public name (``__all__`` entries and public methods)
must have a caller outside the unit tests: the package itself, the demos,
the benchmark or the acceptance suite. The package namespace is the
``__all__`` of every module but ``formats`` and ``cli``, and no name is in
two of those lists, since a star import would silently shadow one; this
check imports the package. No module reads an environment variable unless
it is on ``ENVIRONMENT_ALLOWLIST``, so every knob a run obeys is a visible
decision. Importing ``ptzscan.cli``, the start-up cost of every command,
loads nothing beyond the standard library, NumPy and the package itself.
Every command-line option is recorded in ``CLI_OPTIONS``, so adding or
removing a knob is a visible diff here too. ``formats`` calls ``float``,
``int`` or ``str`` on a decoded record's field only inside its two type
checks, ``_floats`` and ``_integer``, so a mistyped field is refused in one
place rather than coerced in another. Every pose check (a finite
position, a unit quaternion or direction, a raw quaternion's norm, a finite
position error) has one definition over stacks, which only ``vec3``, the
value constructors, the batch reader and the stacked ``view_rays``
call, a read batch row is built by
one private constructor that checks nothing, and no module filters one of
the package's own warning classes. The package sources stay within
``LINE_BUDGET`` lines, so a change that grows them raises it in a visible
diff. A pose batch's per-record values are slotted, a read batch keeps its
floats in arrays, and reading it peaks near the bytes it keeps, so a batch
never costs its whole text too; scoring a read batch peaks at a few
stacks a record above it, so its blocks keep their temporaries small.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ptzscan
from ptzscan.cli import build_parser
from ptzscan.evaluation import PoseEstimate
from ptzscan.formats import read_sample_batch
from ptzscan.geometry import CameraPose, CylinderModel, quat_from_yaw_pitch
from ptzscan.losses import LossWeights, PoseSample, SampleBatch, batch_losses
import test_cli_golden as golden

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
# Environment variables the package may read (names, e.g. "PTZSCAN_TRACE").
ENVIRONMENT_ALLOWLIST: frozenset[str] = frozenset()
_SCAN = "--cloud --sections --hfov-deg --vfov-deg --mu --quadrant"
# The options of the top-level parser ("") and of each subcommand, less -h/--help.
CLI_OPTIONS = {
    "": "--version",
    "interpolate": "--cloud --sections --out",
    "plan": f"{_SCAN} --camera --out --csv --export-pantilt",
    "simulate": f"{_SCAN} --plan --true-camera --estimated-camera --cylinder --draws"
    " --sigma-pos --sigma-yaw --seed --out --csv",
    "randomize": "--boundary --seed --train --val --test --hfov-deg --out",
    "evaluate": "--predictions --out --csv",
    "loss-check": "--predictions --s-x --s-q --s-c --cylinder --out",
    "pipeline": f"{_SCAN} --camera --true-camera --cylinder --out",
}

# ``wc -l src/ptzscan/*.py``: the most source lines the package may hold.
LINE_BUDGET = 3336


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


# The one SciPy private name the sources, demos, benchmark and tests may
# touch, and where: the places to check when SciPy is upgraded.
SCIPY_PRIVATE_ALLOWED = {"surface.py": {"_transform"}, "test_surface.py": {"_transform"}}


def _scipy_private_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each private SciPy module or name imported, and of each
    ``_transform`` attribute touched (``Delaunay._transform``)."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr] if node.attr == "_transform" else []
        else:
            continue
        uses.extend((node.lineno, name) for name in names
                    if any(part.startswith("_") for part in name.split(".")))
    return uses


def test_scipy_private_uses_finder():
    tree = ast.parse(
        "import scipy.spatial\n"
        "from scipy.spatial import Delaunay\n"
        "from scipy.spatial._qhull import f\n"
        "from scipy.spatial import _qhull\n"
        "import scipy._lib\n"
        "tri._transform = t\n"
        "x = tri.transform\n"
        "from numpy import _core\n"
    )
    assert _scipy_private_uses(tree) == [
        (3, "scipy.spatial._qhull"), (3, "scipy.spatial._qhull.f"),
        (4, "scipy.spatial._qhull"), (5, "scipy._lib"), (6, "_transform"),
    ]


def test_scipy_private_names_only_where_allowed():
    paths = [*SOURCES, *CALLERS, *sorted((ROOT / "tests").glob("*.py"))]
    found = {p.name: {name for _, name in _scipy_private_uses(_parse(p))} for p in paths}
    found = {name: names for name, names in found.items() if names}
    assert found == SCIPY_PRIVATE_ALLOWED, f"SciPy private names in use: {found}"


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


# The functions of formats that check a decoded field's JSON type.
FORMATS_TYPE_CHECKS = {"_floats", "_integer"}


def _field_coercions(tree: ast.Module) -> list[int]:
    """Lines that call ``float``, ``int`` or ``str`` on a subscript or a
    ``.get(...)`` outside the functions in ``FORMATS_TYPE_CHECKS``."""
    lines = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name in FORMATS_TYPE_CHECKS:
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "int", "str")
            and node.args
        ):
            arg = node.args[0]
            get = isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "get"
            if isinstance(arg, ast.Subscript) or get:
                lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_field_coercions_finder():
    tree = ast.parse(
        "def _floats(values):\n"
        "    return [float(v[0]) for v in values]\n"
        "def read(record, entry, path, values):\n"
        "    a = float(record['x'])\n"
        "    b = int(record.get('i', 0))\n"
        "    c = [str(e['name']) for e in entry]\n"
        "    d = str(path), float(values), repr(record['x'])\n"
        "    e = _floats(record['x']), int(bool(values[0])), record.get('x')\n"
    )
    assert _field_coercions(tree) == [4, 5, 6]


def test_formats_reads_fields_only_through_its_type_checks():
    lines = _field_coercions(_parse(ROOT / "src" / "ptzscan" / "formats.py"))
    assert not lines, f"formats.py: float/int/str of a record field at line(s) {lines}"


# The one home of the pose checks, and the functions that may call it:
# ``vec3``, the constructors of the values it guards, the batch reader's
# block check, and ``view_rays``, which makes a block's view rays.
VALUE_CHECKS = {"_check_rows"}
VALUE_BUILDERS = {"vec3", "__post_init__", "check_block", "view_rays"}


def _value_check_uses(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(enclosing function, use, line) of each definition and call of a
    ``VALUE_CHECKS`` function, and of each test those checks make: a finite
    squared norm, ``isfinite(v.dot(v))`` or ``isfinite(x * x + ...)``, a
    finite norm, ``isfinite(vector_norm(v))`` or, stacked,
    ``isfinite(vector_norms(v))``, and a unit norm, ``abs(n - 1.0)``."""
    out = []

    def squared_norm(arg):
        if getattr(getattr(arg, "func", None), "attr", None) == "dot":
            return True
        return isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add) and any(
            isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
            and ast.dump(n.left) == ast.dump(n.right) for n in ast.walk(arg)
        )

    def norm(arg):
        return any(getattr(getattr(n, "func", None), "id", None) in ("vector_norm", "vector_norms")
                   for n in ast.walk(arg)) if arg is not None else False

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in VALUE_CHECKS:
                out.append((function, f"def {node.name}", node.lineno))
            function = node.name
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            arg = node.args[0] if len(node.args) == 1 else None
            if name in VALUE_CHECKS:
                out.append((function, f"call {name}", node.lineno))
            elif name == "isfinite" and (squared_norm(arg) or norm(arg)):
                out.append((function, "finite test", node.lineno))
            elif (name == "abs" and isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub)
                  and getattr(arg.right, "value", None) == 1.0):
                out.append((function, "unit test", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return out


def test_value_check_finder():
    tree = ast.parse(
        "def _finite_vec3(v):\n"
        "    return math.isfinite(x * x + y * y + z * z)\n"
        "def vec3(x, y, z):\n"
        "    return _check_rows((x, y, z))\n"
        "class Ray:\n"
        "    def __post_init__(self):\n"
        "        _check_rows(self.direction)\n"
        "def kernel(q, v):\n"
        "    assert abs(norm(q) - 1.0) < 1e-9 and np.isfinite(q).all()\n"
        "    assert math.isfinite(v.dot(v)) and math.isfinite(v[0] * 2.0 + 1.0) and math.isfinite(r * r)\n"
        "    return geometry._check_rows(q)\n"
        "def _check_rows(p, u):\n"
        "    ok = np.isfinite(vector_norms(p - u)) & (np.abs(vector_norms(u) - 1.0) <= 1e-9)\n"
        "    return math.isfinite(vector_norm(p)) or np.isfinite(norms) or np.isfinite(p.sum())\n"
    )
    assert _value_check_uses(tree) == [
        ("_finite_vec3", "finite test", 2),
        ("vec3", "call _check_rows", 4), ("__post_init__", "call _check_rows", 7),
        ("kernel", "unit test", 9), ("kernel", "finite test", 10), ("kernel", "call _check_rows", 11),
        (None, "def _check_rows", 12), ("_check_rows", "finite test", 13),
        ("_check_rows", "unit test", 13), ("_check_rows", "finite test", 14),
    ]


def test_each_value_check_has_one_home():
    """Each pose decision (a finite position, a unit quaternion or direction,
    a raw quaternion's norm, a finite position error) is made in one function
    over stacks, which the value constructors call on one row, and the batch
    reader and ``view_rays`` on a block of rows: nothing else checks a built
    value again."""
    uses = [(p.name, *use) for p in SOURCES for use in _value_check_uses(_parse(p))]
    homes = sorted((path, use) for path, _, use, _ in uses if use.startswith("def "))
    assert homes == [("geometry.py", "def _check_rows")]
    inline = [u for u in uses if u[2].endswith(" test") and (u[0], u[1]) != ("geometry.py", "_check_rows")]
    assert not inline, f"value checks copied outside their home: {inline}"
    tests = {use for path, function, use, _ in uses if use.endswith(" test")}
    assert tests == {"finite test", "unit test"}
    callers = [u for u in uses if u[2].startswith("call ") and u[1] not in VALUE_BUILDERS]
    assert not callers, f"the pose checks called outside vec3, constructors, the reader and view_rays: {callers}"


def test_a_batch_row_is_built_without_a_decision():
    """``SampleBatch`` yields each row through one private constructor,
    ``_built``, which calls no value check and no checking constructor: the
    reader has checked the row."""
    losses, geometry = (_parse(ROOT / "src" / "ptzscan" / f"{m}.py") for m in ("losses", "geometry"))
    [batch] = [n for n in losses.body if isinstance(n, ast.ClassDef) and n.name == "SampleBatch"]
    [iterate] = [n for n in batch.body if isinstance(n, ast.FunctionDef) and n.name == "__iter__"]
    [built] = [n for n in geometry.body if isinstance(n, ast.FunctionDef) and n.name == "_built"]
    checking = VALUE_CHECKS | {"CameraPose", "PoseSample", "Ray", "vec3"}
    for function in (iterate, built):
        calls = {getattr(n.func, "id", getattr(n.func, "attr", None))
                 for n in ast.walk(function) if isinstance(n, ast.Call)}
        assert not calls & checking, f"{function.name} calls {sorted(calls & checking)}"
        assert not _value_check_uses(function), f"{function.name} makes a value check"
    assert "_built" in {getattr(n.func, "id", None) for n in ast.walk(iterate) if isinstance(n, ast.Call)}


def _warning_filters(tree: ast.Module) -> list[tuple[int, object]]:
    """(line, category name or None) of each ``simplefilter`` or
    ``filterwarnings`` call."""
    out = []
    for node in ast.walk(tree):
        name = getattr(node, "func", None)
        name = getattr(name, "attr", getattr(name, "id", None))
        if name not in ("simplefilter", "filterwarnings"):
            continue
        position = 1 if name == "simplefilter" else 2  # filterwarnings(action, message, category)
        keywords = [k.value for k in node.keywords if k.arg == "category"]
        category = (keywords or node.args[position:position + 1] or [None])[0]
        out.append((node.lineno, getattr(category, "id", getattr(category, "attr", None))))
    return sorted(out, key=lambda r: r[0])


def test_warning_filter_finder():
    tree = ast.parse(
        "warnings.simplefilter('ignore', EmptySectionWarning)\n"
        "warnings.simplefilter('ignore', category=ptzscan.GimbalLockWarning)\n"
        "warnings.filterwarnings('ignore', 'msg', UserWarning)\n"
        "warnings.simplefilter('ignore')\n"
        "warnings.warn('x', YawToleranceWarning)\n"
        "simplefilter('error', SectionMismatchWarning)\n"
    )
    assert _warning_filters(tree) == [
        (1, "EmptySectionWarning"), (2, "GimbalLockWarning"), (3, "UserWarning"), (4, None),
        (6, "SectionMismatchWarning"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_silences_a_package_warning(path):
    """The package's own warnings reach the caller: no module filters one,
    or filters every category at once."""
    package_warnings = {
        name for name in dir(ptzscan)
        if isinstance(cls := getattr(ptzscan, name), type) and issubclass(cls, Warning)
    }
    assert {"GimbalLockWarning", "YawToleranceWarning", "SectionMismatchWarning"} <= package_warnings
    filters = [(line, category) for line, category in _warning_filters(_parse(path))
               if category is None or category in package_warnings]
    assert not filters, f"{path.name}: (line, category) filters of package warnings {filters}"


def _environment_reads(tree: ast.Module) -> list[tuple[int, object]]:
    """(line, variable name) of every use of ``environ`` or ``getenv``; the
    name is None unless the use reads one literal key."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    out = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name not in ("environ", "getenv"):
            continue
        parent, key = parents.get(node), None
        if isinstance(parent, ast.Subscript) and parent.value is node:
            key = parent.slice  # environ["X"]
        elif isinstance(parent, ast.Call) and parent.func is node and parent.args:
            key = parent.args[0]  # getenv("X")
        elif isinstance(parent, ast.Attribute) and parent.attr == "get":
            call = parents.get(parent)
            if isinstance(call, ast.Call) and call.func is parent and call.args:
                key = call.args[0]  # environ.get("X")
        out.append((node.lineno, key.value if isinstance(key, ast.Constant) else None))
    return sorted(out, key=lambda r: r[0])


def test_environment_read_finder():
    source = """import os
from os import environ, getenv
os.environ.get("A")
os.environ["B"]
os.getenv("C", "x")
environ.get("D")
getenv("E")
os.environ.get(name)
dict(os.environ)
"""
    assert _environment_reads(ast.parse(source)) == [
        (3, "A"), (4, "B"), (5, "C"), (6, "D"), (7, "E"), (8, None), (9, None),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_environment_reads_are_allowlisted(path):
    reads = [r for r in _environment_reads(_parse(path)) if r[1] not in ENVIRONMENT_ALLOWLIST]
    assert not reads, f"{path.name}: (line, variable) environment reads off the allowlist {reads}"


def test_cli_import_loads_only_stdlib_numpy_and_ptzscan():
    script = """
import sys
before = set(sys.modules)
import ptzscan.cli
print(*sorted({name.split(".")[0] for name in set(sys.modules) - before}))
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    extra = sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "ptzscan"})
    assert not extra, f"importing ptzscan.cli loads {extra}"
    assert {"numpy", "ptzscan"} <= loaded


# A sliver (its third point 2e-14 above the bottom edge): Delaunay gives it
# a NaN transform row.
SLIVER_CLOUD = "-1 10 1\n0 10 2\n-0.6686209525383975 10.000000000000021 3\n-1 11 4\n0 11 5\n"


@pytest.mark.parametrize("name", ["pipeline", "simulate-draws", "sliver"])
def test_no_command_loads_scipy_interpolate(tmp_path, name):
    """The commands that interpolate load scipy.spatial, and none loads
    scipy.interpolate, a degenerate triangulation included."""
    inputs, outputs = tmp_path / "inputs", tmp_path / "outputs"
    golden.write_inputs(inputs)
    outputs.mkdir()
    argv = dict(golden.commands(inputs, outputs)).get(name)
    if name == "sliver":
        (inputs / "sliver.xyz").write_text(SLIVER_CLOUD)
        argv = ["interpolate", "--cloud", str(inputs / "sliver.xyz"),
                "--sections", str(inputs / "sections.json"), "--out", str(outputs)]
    script = f"""
import sys
from ptzscan.cli import main
assert main({argv!r}) == 0
print("scipy.spatial" in sys.modules, "scipy.interpolate" in sys.modules)
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].split() == ["True", "False"]


def test_cli_options_are_recorded():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {}
    for name, sub in [("", parser), *commands.choices.items()]:
        strings = (s for action in sub._actions for s in action.option_strings)
        found[name] = sorted(set(strings) - {"-h", "--help"})
    assert found == {name: sorted(options.split()) for name, options in CLI_OPTIONS.items()}


def test_source_stays_within_its_line_budget():
    counts = {p.name: p.read_bytes().count(b"\n") for p in SOURCES}
    total = sum(counts.values())
    assert total <= LINE_BUDGET, f"{total} source lines, over the {LINE_BUDGET} budget: {counts}"


@pytest.mark.parametrize(
    "cls", [CameraPose, PoseEstimate, PoseSample, LossWeights, SampleBatch],
    ids=lambda c: c.__name__,
)
def test_pose_batch_values_are_slotted(cls):
    """A batch's weights, and the samples and poses ``loss-check`` builds
    from it a record at a time, hold no instance dictionaries."""
    unslotted = [c.__name__ for c in cls.__mro__[:-1] if "__slots__" not in vars(c)]
    assert not unslotted, f"{cls.__name__}: classes without __slots__: {unslotted}"


# Bytes a read batch may keep per record. It holds 18 floats (144 bytes), a
# line number and a weights slot: 161 bytes a record on the 5,000-line batch
# below, measured with tracemalloc under CPython 3.11 and NumPy 2, against
# 906 when it held two poses, a sample and five small arrays per record.
HELD_BYTES_PER_RECORD = 250


def test_reading_a_batch_peaks_near_what_it_keeps(tmp_path):
    """read_sample_batch goes a line at a time into arrays, dropping each line's
    checked sample, so it keeps its floats, not objects, and peaks at about
    what it keeps, not at that plus the file's text and its lines."""
    rng = np.random.default_rng(1)
    path = tmp_path / "batch.jsonl"
    with path.open("w") as handle:
        for _ in range(5000):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            record = {
                "true": {"position_m": rng.normal(size=3).tolist(), "quaternion_wxyz": q.tolist()},
                "predicted": {"position_m": rng.normal(size=3).tolist(),
                              "quaternion_wxyz": (q + rng.normal(0.0, 0.01, 4)).tolist()},
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    read_sample_batch(path)  # the first call's one-off allocations
    tracemalloc.start()
    try:
        batch = read_sample_batch(path)
        held, peak = (size / len(batch) for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held <= HELD_BYTES_PER_RECORD, f"a read batch keeps {held:.0f} bytes per record"
    limit = 1.5 * HELD_BYTES_PER_RECORD
    assert peak <= limit, f"read_sample_batch peaks at {peak:.0f} bytes per record, over {limit:.0f}"


# Bytes that scoring a read batch may add at its peak, per record: its four
# float stacks (32 bytes), plus one block's temporaries spread over the
# records. On the 5,000-line batch below, under CPython 3.11 and NumPy 2, it
# peaked at 115 bytes a record, against 389 in one block.
SCORED_BYTES_PER_RECORD = 160


def test_scoring_a_batch_peaks_near_its_stacks(tmp_path):
    """batch_losses scores a block of rows at a time into its result stacks,
    so its temporaries stay one block's, however long the batch."""
    rng = np.random.default_rng(2)
    path = tmp_path / "batch.jsonl"
    with path.open("w") as handle:
        for _ in range(5000):  # a camera near (-7, y, 2) looking at the cylinder
            position = np.array([-7.0, 0.0, 2.0]) + rng.uniform(-0.5, 0.5, 3)
            q = quat_from_yaw_pitch(*rng.uniform(-10.0, 10.0, 2))
            record = {
                "true": {"position_m": position.tolist(), "quaternion_wxyz": q.tolist()},
                "predicted": {"position_m": (position + rng.normal(0.0, 0.1, 3)).tolist(),
                              "quaternion_wxyz": (q + rng.normal(0.0, 0.01, 4)).tolist()},
            }
            handle.write(json.dumps(record) + "\n")
    batch, cylinder = read_sample_batch(path), CylinderModel(axis_height=2.0, radius=2.0)
    batch_losses(batch, LossWeights(), cylinder)  # the first call's one-off allocations
    tracemalloc.start()
    try:
        *_, refused = batch_losses(batch, LossWeights(), cylinder)
        peak = tracemalloc.get_traced_memory()[1] / len(batch)
    finally:
        tracemalloc.stop()
    assert refused is None
    limit = SCORED_BYTES_PER_RECORD
    assert peak <= limit, f"batch_losses peaks at {peak:.0f} bytes per record, over {limit}"
