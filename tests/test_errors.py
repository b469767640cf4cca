"""Every error class in gghs.errors is raised somewhere in src/gghs, no
`raise` names the base class, and no two classes share a code.

Reads errors.py and the package sources with the stdlib ast module, so a
class that no `raise` names, or a code the CLI would print for two different
errors, fails here without running any of it.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gghs"


def error_codes(source: str) -> dict:
    """name -> code of GGHSError and of each class derived from it."""
    codes = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
        if node.name != "GGHSError" and not bases & set(codes):
            continue
        codes[node.name] = next(
            stmt.value.value
            for stmt in node.body
            if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["code"]
        )
    return codes


def raised_names(source: str) -> set:
    """The class name of each `raise X(...)`, `raise errors.X(...)` or `raise X`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Attribute):
                names.add(exc.attr)
            elif isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


CODES = error_codes((SRC / "errors.py").read_text(encoding="utf-8"))
RAISED = set().union(*(raised_names(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")))


def test_the_scan_sees_classes_codes_and_raises():
    source = (
        "class GGHSError(Exception):\n    code = 'error'\n"
        "class A(GGHSError):\n    code = 'a'\n"
        "class B(A):\n    code = 'b'\n"
        "class Other(Exception):\n    code = 'other'\n"
    )
    assert error_codes(source) == {"GGHSError": "error", "A": "a", "B": "b"}
    source = "try:\n    raise errors.A('x') from None\nexcept B:\n    raise\nraise C\n"
    assert raised_names(source) == {"A", "C"}


@pytest.mark.parametrize("name", sorted(set(CODES) - {"GGHSError"}))
def test_every_error_class_is_raised(name):
    assert name in RAISED


def test_no_raise_names_the_base_class():
    # The base class's code "error" names no error.
    assert "GGHSError" not in RAISED


def test_error_codes_are_distinct():
    assert [code for code, count in Counter(CODES.values()).items() if count > 1] == []
