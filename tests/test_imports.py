"""No module imports a name that its code never uses, and src/gghs keeps
its imports at the top.

Scans src/gghs, tests and scripts with the stdlib ast module. A package
__init__.py is skipped: its imports are the re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src/gghs", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no Name node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys.path\nfrom a import b as c, d\nsys.exit(d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def function_level_imports(source: str) -> list:
    """(function name, line) of each import statement inside a function body."""
    return sorted(
        (fn.name, node.lineno)
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_the_check_sees_a_function_level_import():
    source = "import os\ndef f():\n    from . import a\nclass C:\n    def g(self):\n        import b\n"
    assert function_level_imports(source) == [("f", 3), ("g", 6)]


def test_imports_inside_functions_are_only_the_lazy_subcommand_loads():
    # cli loads each heavy module inside the subcommand that runs it; every
    # other module imports at the top.
    found = {
        (path.name, name)
        for path in FILES
        if path.parent.name == "gghs"
        for name, _ in function_level_imports(path.read_text(encoding="utf-8"))
    }
    lazy = {(file, name) for file, name in found if file == "cli.py" and name.startswith("cmd_")}
    assert found == lazy


def test_limits_is_a_leaf_module():
    # Every module reads its limits from _limits, so _limits imports no gghs
    # module but errors (the package imports its own modules relatively).
    tree = ast.parse((ROOT / "src/gghs/_limits.py").read_text(encoding="utf-8"))
    relative = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == ["from . import errors"]
