"""Every Python file of the project parses as Python 3.10.

The CI matrix runs tier-1 on 3.10 and 3.11.  This test catches, on any
interpreter from 3.10 on, syntax newer than 3.10 (``except*``, PEP 695
``type`` statements, ...) in ``src/``, ``tests/`` and ``perfbench/``.  It
checks syntax only: a call to a standard-library function added after 3.10
parses and still fails only on a 3.10 interpreter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FEATURE_VERSION = (3, 10)


def python_files() -> list[Path]:
    return sorted(path for folder in ("src", "tests", "perfbench")
                  for path in (ROOT / folder).rglob("*.py"))


def test_every_python_file_parses_as_python_3_10():
    files = python_files()
    assert any(path.name == "exactmat.py" for path in files)
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=FEATURE_VERSION)


def test_newer_syntax_is_rejected():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse(newer, feature_version=FEATURE_VERSION)
