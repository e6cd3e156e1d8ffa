"""Checks on the package source itself."""

import ast
from pathlib import Path

import toriq

SRC = Path(toriq.__file__).parent


def test_no_assert_statements():
    # invariants must survive `python -O`, so they are explicit raises
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")) and not found, found


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
