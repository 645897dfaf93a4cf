import ast
from pathlib import Path

import pytest

import sqk

MODULES = sorted(Path(sqk.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_check_is_an_assert(path):
    # python -O drops assert statements, and every check with them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"
