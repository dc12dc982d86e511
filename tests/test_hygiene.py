"""Source hygiene: no module imports a name it never uses, no package
class has a field that nothing reads, and no package function or class
exists only for the tests.

The repository configures no linter, so these standard-library AST scans
stand in for the unused-import and write-only-field rules.

The import scan covers the package modules (except ``__init__.py``,
whose imports are re-exports) and the test modules. A name counts as
used when it is read anywhere in the module or listed in ``__all__``.

The field scan covers every annotated field of a class in the package.
A field counts as read when some module under ``src/``, ``tests/`` or
``bench/`` loads an attribute of that name, names it in a ``getattr``
call, or passes the field's class to ``fields(...)``.

The reference scan covers every top-level function and class of the
package modules (except ``__init__.py``). Each must be named, as a
loaded name or attribute, by some module under ``src/`` or ``bench/``;
an import alone is no reference, so a re-export does not count. A twin
of an engine rule that only tests call, which can drift from the rule
it copies while the checks still pass, fails here.

The column scan checks that a new ``LayerCache`` and one that has
evicted tokens hold no ``object``-dtype array, and that no field of
their ``records`` and ``evicted`` record arrays is an ``object`` field.

The payload check reads ``TraceRecord``'s fields at run time: exactly
the fields annotated ``np.ndarray`` declare an integer or float
``dtype`` and a ``rank`` in their metadata, and a declared ``key_axis``
is an axis below that rank. Record equality, the writer's finite check
and the trace reader all read the payloads from that metadata, so a new
payload field that does not declare it fails here instead of skipping
the reader's conversion or the record's exact equality.

The dependency scan fails when a package module imports, at module
level or inside a function, a top-level package that is neither in the
standard library nor listed in ``pyproject.toml``'s
``[project].dependencies``.

The direction scan fails on any import under ``if TYPE_CHECKING:`` in
the package, which hides an import cycle instead of removing it, and on
``telemetry.py`` importing a package module other than ``config`` and
``errors``: telemetry owns the record schema, so the step path imports
it and it imports nothing of the step path.

The round-trip scan fails on ``np.array(list(...))`` (or ``np.asarray``)
in the package: ids and protection masks travel the step path as
arrays, and turning an iterable into a list only to build an array from
it is the per-layer cost the array form removed.

The view scan fails on any ``.view(...)`` call in the package that can
read an array's bytes as another dtype: every argument but
``np.recarray`` counts. A cache field is its own array of its own dtype,
so no column is a bit-cast of another.

The mutant-table check loads ``tools/mutants.py`` and fails when an
entry's text does not occur exactly once in its module, or when one of
the nine probed modules has fewer than three entries, so a refactor that
leaves an entry stale fails here instead of on the next probe run.

The choices scan fails when a package module other than ``config.py``
names ``POLICIES``, ``BUDGET_MODES`` or ``ATTN_DTYPES``, in an import or
an expression: each setting's allowed values are declared once, on its
``StreamConfig`` field, and validation, the CLI and the trace reader
read them there, so no second copy can drift from the first.
"""

import ast
import importlib.util
import re
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from boundedkv.cache import CacheSession, LayerCache, admit, remove
from boundedkv.config import StreamConfig
from boundedkv.telemetry import TraceRecord

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "boundedkv").glob("*.py"))
SCANNED = sorted(
    p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
USERS = sorted(p for d in ("src", "bench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\n\nloads(os.sep)\n"
    assert unused_imports(source) == [(1, "math"), (3, "d")]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def write_only_fields(defining: str, readers: list[str]) -> list[str]:
    """``Class.field`` of every annotated field in ``defining`` that no
    module in ``readers`` reads."""
    declared = [
        (cls.name, stmt.target.id)
        for cls in ast.walk(ast.parse(defining)) if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    read: set[str] = set()
    whole: set[str] = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                args = node.args
                if node.func.id == "fields" and args and isinstance(args[0], ast.Name):
                    whole.add(args[0].id)
                elif node.func.id == "getattr" and len(args) > 1 and isinstance(args[1], ast.Constant):
                    read.add(args[1].value)
    return [f"{cls}.{name}" for cls, name in declared if name not in read and cls not in whole]


def test_scanner_flags_a_write_only_field():
    defining = (
        "class A:\n    x: int\n    y: int\n    z: int = 0\n"
        "class B:\n    w: int\n"
        "class C:\n    v: int\n"
    )
    reader = "print(a.x, getattr(a, 'y'))\nfields(B)\na.z = a.v = 2\n"
    assert write_only_fields(defining, [reader]) == ["A.z", "C.v"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_write_only_fields(path):
    readers = [p.read_text() for p in READERS]
    assert write_only_fields(path.read_text(), readers) == []


def unreferenced_definitions(defining: str, users: list[str]) -> list[str]:
    """Top-level functions and classes in ``defining`` that no module in
    ``users`` loads by name or as an attribute."""
    defined = [
        node.name for node in ast.parse(defining).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    named: set[str] = set()
    for source in users:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                named.add(node.attr)
    return [name for name in defined if name not in named]


def test_scanner_flags_an_unreferenced_definition():
    defining = (
        "def f():\n    return g()\n\ndef g():\n    pass\n\n"
        "class A:\n    pass\n\nclass B:\n    pass\n\nasync def h():\n    pass\n"
    )
    user = "from m import B, f\nm.h()\nx = 'A'\n"
    assert unreferenced_definitions(defining, [defining, user]) == ["f", "A", "B"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_test_only_definitions(path):
    users = [p.read_text() for p in USERS]
    assert unreferenced_definitions(path.read_text(), users) == []


def undeclared_imports(source: str, declared: set[str]) -> list[tuple[int, str]]:
    """(line, package) of every absolute import of a top-level package
    that is neither in the standard library nor in ``declared``."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append((node.lineno, node.module))
    return sorted(
        (line, top) for line, name in imported
        if (top := name.split(".")[0]) not in sys.stdlib_module_names and top not in declared
    )


def declared_dependencies() -> set[str]:
    """Package names in ``[project].dependencies``, without version specifiers."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.split(r"[\s\[<>=!~;]", spec, maxsplit=1)[0] for spec in project["dependencies"]}


def test_scanner_flags_an_undeclared_import():
    source = (
        "import json, numpy as np\nfrom . import config\nfrom .errors import X\n"
        "import yaml.loader\n\ndef f():\n    from scipy import linalg\n    import orjson\n"
    )
    assert undeclared_imports(source, {"numpy", "orjson"}) == [(4, "yaml"), (7, "scipy")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_undeclared_imports(path):
    assert undeclared_imports(path.read_text(), declared_dependencies()) == []


def list_round_trips(source: str) -> list[int]:
    """Lines of every ``np.array(list(...))`` or ``np.asarray(list(...))``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr in ("array", "asarray")
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        and node.args and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name) and node.args[0].func.id == "list"
    )


def test_scanner_flags_a_list_round_trip():
    source = (
        "a = np.array(list(ids), dtype=np.int64)\n"
        "b = np.asarray(ids)\n"
        "c = np.asarray(\n    list(range(3)))\n"
        "d = np.array([list(x)])\n"
    )
    assert list_round_trips(source) == [1, 3]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_list_round_trips(path):
    assert list_round_trips(path.read_text()) == []


def byte_views(source: str) -> list[int]:
    """Lines of every ``.view(...)`` call given anything but ``np.recarray``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "view"
        and [ast.unparse(arg) for arg in [*node.args, *(k.value for k in node.keywords)]] not in ([], ["np.recarray"])
    )


def test_scanner_flags_a_byte_view():
    source = (
        "a = row.view(np.float64)\n"
        "b = rows.view(np.recarray)\n"
        "c = rows.view()\n"
        "d = rows.view(_RECORD)[:, 0].view(np.recarray)\n"
        "e = rows.view(dtype=np.int8)\n"
        "f = rows.view(type=np.recarray)\n"
        "g = rows.view(np.int64, np.recarray)\n"
    )
    assert byte_views(source) == [1, 4, 5, 7]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_byte_views(path):
    assert byte_views(path.read_text()) == []


CHOICE_CONSTANTS = {"POLICIES", "BUDGET_MODES", "ATTN_DTYPES"}


def choice_constants(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import or use of a ``CHOICE_CONSTANTS`` name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in CHOICE_CONSTANTS]
    return sorted(found)


def test_scanner_flags_a_choice_constant():
    source = (
        "from .config import POLICIES as P, StreamConfig\n"
        "import boundedkv.config\n"
        "x = config.BUDGET_MODES\n"
        "y = {'policy': ATTN_DTYPES}\n"
        "z = 'POLICIES'\n"
        "w = StreamConfig.__dataclass_fields__['policy'].metadata['choices']\n"
    )
    assert choice_constants(source) == [(1, "POLICIES"), (3, "BUDGET_MODES"), (4, "ATTN_DTYPES")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "config.py"], ids=lambda p: p.name)
def test_choices_are_declared_only_in_config(path):
    assert choice_constants(path.read_text()) == []


def test_payload_fields_declare_dtype_and_rank():
    for f in fields(TraceRecord):
        array = "np.ndarray" in f.type
        assert ("dtype" in f.metadata, "rank" in f.metadata) == (array, array), f.name
        if array:
            assert np.dtype(f.metadata["dtype"]).kind in "if", f.name
        if "key_axis" in f.metadata:
            assert array and 0 <= f.metadata["key_axis"] < f.metadata["rank"], f.name


def package_imports(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Package modules (``config``, ``simulate``, ...) that one import statement names."""
    if isinstance(node, ast.Import):
        paths = [alias.name for alias in node.names]
    else:
        base = ".".join(filter(None, ["boundedkv" if node.level else "", node.module]))
        paths = [f"{base}.{alias.name}" if base == "boundedkv" else base for alias in node.names]
    return [path.split(".")[1] for path in paths if path.startswith("boundedkv.")]


def direction_faults(source: str, allowed: set[str] | None = None) -> list[tuple[int, str]]:
    """(line, name) of every import inside ``if TYPE_CHECKING:`` and, when
    ``allowed`` is given, of every package module imported but not in it."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            faults += [(n.lineno, "TYPE_CHECKING") for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
        elif allowed is not None and isinstance(node, (ast.Import, ast.ImportFrom)):
            faults += [(node.lineno, name) for name in package_imports(node) if name not in allowed]
    return sorted(faults)


def test_scanner_flags_a_direction_fault():
    source = (
        "import typing\nimport numpy as np\nfrom .config import StreamConfig\n"
        "from . import errors, cache\nimport boundedkv.simulate\nfrom boundedkv.scoring import f\n"
        "from boundedkv import oracle\n\ndef g():\n    from .errors import E\n"
        "if typing.TYPE_CHECKING:\n    from .config import C\n"
    )
    assert direction_faults(source) == [(12, "TYPE_CHECKING")]
    assert direction_faults(source, {"config", "errors"}) == [
        (4, "cache"), (5, "simulate"), (6, "scoring"), (7, "oracle"), (12, "TYPE_CHECKING"),
    ]


# Package modules a module may import, where it is restricted.
ALLOWED_IMPORTS = {"telemetry.py": {"config", "errors"}}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_direction(path):
    assert direction_faults(path.read_text(), ALLOWED_IMPORTS.get(path.name)) == []


def evicting_layer() -> LayerCache:
    """A layer that has admitted four tokens and evicted two."""
    session = CacheSession(StreamConfig(layers=1, dim=8))
    zeros = np.zeros((4, 8))
    ids = admit(session, 0, zeros, zeros, np.zeros(4, dtype=bool))
    remove(session, 0, ids[:2])
    return session.layers[0]


@pytest.mark.parametrize("make", [lambda: LayerCache(0, 8, np.float64), evicting_layer],
                         ids=["LayerCache", "evicting"])
def test_no_object_columns(make):
    # North star: the cache is arrays, not per-token Python objects.
    layer = make()
    columns = {name: value.dtype for name, value in vars(layer).items() if isinstance(value, np.ndarray)}
    for snapshot in ("records", "evicted"):
        columns.update((f"{snapshot}.{field}", dtype) for field, (dtype, _) in getattr(layer, snapshot).dtype.fields.items())
    assert columns
    assert [name for name, dtype in columns.items() if dtype == object] == []


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutant_table_is_current():
    mutants = load_mutants()
    sources = {module: (ROOT / "src" / "boundedkv" / f"{module}.py").read_text() for module in mutants.MODULES}
    stale = [(module, text) for module, text, _, _ in mutants.MUTANTS if sources[module].count(text) != 1]
    assert stale == []
    per_module = Counter(module for module, *_ in mutants.MUTANTS)
    assert {module: per_module[module] for module in mutants.MODULES if per_module[module] < 3} == {}
