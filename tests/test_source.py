"""Checks on the package source itself."""

import ast
import builtins
import importlib
import os
import subprocess
import sys
from pathlib import Path

import toriq
from helpers import toriq_caches
from toriq import fans, mmp

SRC = Path(toriq.__file__).parent


def test_no_assert_statements():
    # invariants must survive `python -O`, so they are explicit raises
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")) and not found, found


def test_start_up_loads_no_code_inspection():
    # `dataclasses` imports these (about 7 ms per process at start-up), and
    # no other package code needs them; a fresh process counts them exactly
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, toriq.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "toriq.cli" in loaded
    found = {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(loaded)
    assert not found, found


def _unbounded_cache(node) -> bool:
    """``lru_cache(maxsize=None)``/``lru_cache(None)``, ``cache``, or a bare
    ``@lru_cache`` decorator, with or without the ``functools.`` prefix."""
    def name(n):
        return n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", None)

    if isinstance(node, ast.Call):
        if name(node.func) == "cache":
            return True
        if name(node.func) != "lru_cache":
            return False
        sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)
    return name(node) in ("lru_cache", "cache")


def test_no_unbounded_caches():
    # caches keyed on fans and polytopes must not grow without bound in a sweep
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            calls = [node] if isinstance(node, ast.Call) else []
            decorators = getattr(node, "decorator_list", [])
            if any(_unbounded_cache(n) for n in calls + decorators):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")) and not found, found


def _gcd_or_lcm(node) -> bool:
    """A call of ``gcd`` or ``lcm``, with or without the ``math.`` prefix."""
    if not isinstance(node, ast.Call):
        return False
    return getattr(node.func, "id", getattr(node.func, "attr", None)) in ("gcd", "lcm")


def _folds_gcd_or_lcm(loop) -> bool:
    """A loop that reassigns a name from a gcd or lcm of that name, as a
    running gcd or common denominator does."""
    for node in ast.walk(loop):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = {t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                       if isinstance(t, ast.Name)}
            calls = [c for c in ast.walk(node.value) if _gcd_or_lcm(c)]
            if any(isinstance(n, ast.Name) and n.id in targets for c in calls for n in ast.walk(c)):
                return True
    return False


def test_one_integer_scaling():
    # rationals go over one common denominator only in linalg._scaled: no
    # other module imports lcm, and no module defines its own gcd or lcm or
    # folds one over a vector by hand (math.gcd(*v) takes a whole vector)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imports = isinstance(node, (ast.Import, ast.ImportFrom))
            names = [a.name for a in node.names] if imports else [getattr(node, "attr", None)]
            if path.stem != "linalg" and "lcm" in names:
                found.append(f"{path.name}:{node.lineno} uses lcm")
            if isinstance(node, ast.FunctionDef) and ("gcd" in node.name or "lcm" in node.name):
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
            if isinstance(node, (ast.For, ast.While)) and _folds_gcd_or_lcm(node):
                found.append(f"{path.name}:{node.lineno} folds gcd or lcm in a loop")
    assert list(SRC.glob("*.py")) and not found, found


def _sums_of_products(tree) -> list[int]:
    """Lines of each ``sum(map(mul, ...))`` in the tree."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
            and node.args and isinstance(node.args[0], ast.Call)
            and getattr(node.args[0].func, "id", None) == "map"
            and getattr(next(iter(node.args[0].args), None), "id", None) == "mul"]


def test_one_dot_kernel():
    # every hot product of two vectors goes through linalg._dot_of, which
    # writes out the short lengths: only its generic fallback, linalg._dot,
    # sums map(mul, u, v)
    found, fallback = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = _sums_of_products(tree)
        if path.stem == "linalg":
            kernel = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_dot")
            fallback = _sums_of_products(kernel)
            lines = [n for n in lines if n not in fallback]
        found += [f"{path.name}:{n}" for n in lines]
    assert len(fallback) == 1 and not found, found


def test_every_cache_is_bounded():
    # the loaded caches themselves, whatever expression gave their size
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"toriq.{path.stem}")
    sizes = {name: fn.cache_parameters()["maxsize"] for name, fn in toriq_caches().items()}
    assert "toriq.fans._cone_inverse" in sizes, sorted(sizes)
    assert all(isinstance(size, int) and size > 0 for size in sizes.values()), sizes


def _tracing_tables() -> dict:
    """``LAYERS`` and ``CACHED`` as written in the benchmark's tracer."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    tables = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("LAYERS", "CACHED"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_traced_names_resolve():
    # `--trace 1` patches these names by string, so a rename must not drop one
    tables = _tracing_tables()
    missing = [
        f"{mod}.{name}"
        for mod, names in tables["LAYERS"].items()
        for name in names
        if not callable(getattr(importlib.import_module(f"toriq.{mod}"), name, None))
    ]
    uncached = [
        f"{mod}.{name}"
        for mod, name in tables["CACHED"]
        if not all(hasattr(getattr(importlib.import_module(f"toriq.{mod}"), name), attr)
                   for attr in ("cache_info", "cache_clear"))
    ]
    assert tables["LAYERS"] and tables["CACHED"] and not missing and not uncached, (
        missing, uncached)


def test_traced_fiber_data_is_one_function():
    # the tracer patches every namespace holding mmp.mori_fiber_data, so the
    # calls of the run (through mmp) and of the Cayley search (through fans)
    # count as one only while both names hold the same function
    assert mmp.mori_fiber_data is fans.mori_fiber_data


def _referenced(node) -> set:
    """Every name a node reads, as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _definitions() -> tuple[list, set]:
    """(module, name, node) for each module-level function and class of the
    package, and every name the package reads outside the definition of
    that name."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined.append((path.stem, own, node))
            used |= _referenced(node) - {own}
    return defined, used


def test_every_function_has_a_caller():
    # a module-level function that no other package code, the public API or
    # the tracer names is dead weight; its tests can keep a test-side copy
    defined, used = _definitions()
    kept = set(toriq.__all__) | {n for names in _tracing_tables()["LAYERS"].values()
                                 for n in names}
    uncalled = [f"{mod}.{name}" for mod, name, node in defined
                if isinstance(node, ast.FunctionDef) and name not in used | kept]
    assert defined and not uncalled, uncalled


def test_every_private_name_is_used():
    # a module-level _private function or class serves the package alone,
    # so some other package code must name it; tests are no reason to keep it
    defined, used = _definitions()
    unused = [f"{mod}.{name}" for mod, name, _ in defined
              if name.startswith("_") and name not in used]
    assert defined and not unused, unused


# the functions that build a record on a parent record's checked rays or
# normals (``FacetPresentation._derived``, ``Fan._on_rays``); every other
# record, input above all, takes the public constructor and all its checks
DERIVED_BUILDERS = {"polytopes.normal_fan", "polytopes.adjoint", "polytopes.remove_redundant",
                    "polytopes._core_and_projection", "mmp.contract", "mmp.flip",
                    "mmp._point_core_fan", "mmp._adjoint_cross_validation"}
INPUT_BOUNDARY = {"formats", "fano_table", "cli", "fans.fan_from_primitive_data",
                  "fans.face_fan", "fans._image_fan", "fans.mori_fiber_data"}


def test_only_derived_records_skip_the_constructor_checks():
    found = {f"{path.stem}.{top.name}"
             for path in sorted(SRC.glob("*.py"))
             for top in ast.parse(path.read_text(encoding="utf-8")).body
             if _referenced(top) & {"_derived", "_on_rays"}}
    assert found == DERIVED_BUILDERS
    assert not {f for f in found if f in INPUT_BOUNDARY or f.split(".")[0] in INPUT_BOUNDARY}


def _except_tuples(path):
    """(line, [class, ...]) for each ``except (A, B, ...)`` in a package module,
    the names resolved in that module."""
    module = importlib.import_module(f"toriq.{path.stem}")
    scope = {**vars(builtins), **vars(module)}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
            yield node.lineno, [eval(ast.unparse(e), scope) for e in node.type.elts]


def test_no_except_tuple_names_a_base_with_a_subclass():
    # `except (SubError, BaseError)` reads as two cases but is only the base
    found = [
        f"{path.name}:{line} {sub.__name__} < {base.__name__}"
        for path in sorted(SRC.glob("*.py"))
        for line, classes in _except_tuples(path)
        for sub in classes for base in classes
        if sub is not base and issubclass(sub, base)
    ]
    assert list(SRC.glob("*.py")) and not found, found


def test_no_unused_imports():
    # every name a package module imports is read in that module; the
    # package's __init__ imports names to re-export them
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert list(SRC.glob("*.py")) and not found, found


def test_one_smith_form():
    # a sublattice's saturation, coordinates and annihilator all come from
    # the one Smith form of linalg._saturation, the cached core of
    # linalg.saturation_and_projection
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and "smith_normal_form" in _referenced(node.func)
                        and getattr(top, "name", None) != "_saturation"):
                    found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")) and not found, found


# each module imports only modules of lower rank, so the package imports one
# way: linalg -> fans -> polytopes -> {intersection, mmp, formats} -> fano_table -> cli
LAYERS = {"linalg": 0, "fans": 1, "polytopes": 2, "intersection": 3, "mmp": 3, "formats": 3,
          "fano_table": 4, "cli": 5}


def _package_imports(node) -> list:
    """The package modules an import statement names: ``from . import m``,
    ``from .m import x``, ``import toriq.m`` and their absolute forms."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("toriq.")]
    parts = (("toriq." if node.level else "") + (node.module or "")).rstrip(".").split(".")
    if parts[0] != "toriq":
        return []
    return parts[1:2] or [a.name for a in node.names]


def _import_faults(path) -> list:
    """Each import inside a ``def`` or a ``class``, and each package import
    of a module that is unranked or not ranked below the importer."""
    rank, found = LAYERS[path.stem], []

    def visit(node, nested):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if nested:
                found.append(f"{path.name}:{node.lineno} imports inside a definition")
            found.extend(f"{path.name}:{node.lineno} imports {name}"
                         for name in _package_imports(node) if LAYERS.get(name, rank) >= rank)
        inner = nested or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_modules_import_one_way():
    # no cycle, hidden in a function or not; __init__ re-exports every layer
    paths = [p for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    assert sorted(p.stem for p in paths) == sorted(LAYERS)
    found = [fault for path in paths for fault in _import_faults(path)]
    assert not found, found
