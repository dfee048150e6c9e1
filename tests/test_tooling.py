"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import vkt

SRC = Path(__file__).resolve().parent.parent / "src" / "vkt"


def test_no_assert_statements_in_the_package():
    # invariants raise InvariantError: `python -O` strips assert statements
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_public_name_resolves():
    assert [name for name in vkt.__all__ if not hasattr(vkt, name)] == []
