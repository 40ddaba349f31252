"""Every module of the package parses under Python 3.10, the floor that
``requires-python`` in pyproject.toml declares, so syntax newer than the
floor fails here rather than only on a 3.10 interpreter."""

import ast
from pathlib import Path

import bo_soliton


def test_modules_parse_at_the_declared_floor():
    for path in sorted(Path(bo_soliton.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
