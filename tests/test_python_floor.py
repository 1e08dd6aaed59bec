"""The Python floor in ``pyproject.toml`` and the README, held by grammar.

Every ``.py`` file under ``src/``, ``tests/`` and ``gmbench/`` must parse with
the Python 3.10 grammar.  This checks grammar only: it does not see a
standard-library name or behaviour that 3.10 lacks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_every_source_parses_with_the_floor_grammar():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    files = sorted(p for d in ("src", "tests", "gmbench") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
