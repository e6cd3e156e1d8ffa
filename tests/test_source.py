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
