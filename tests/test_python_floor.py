"""The package declares ``requires-python = ">=3.10"``: every Python file of
the repository must parse under 3.10's grammar.  This checks syntax only
(no 3.11 library call is caught here); the CI workflow runs the tests on
3.10 too."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "tools", "perfbench")
               for path in (ROOT / top).rglob("*.py"))


def test_the_floor_is_the_declared_one():
    assert 'requires-python = ">=3.10"' in \
        (ROOT / "pyproject.toml").read_text()
    assert len(FILES) > 20


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
