"""Repository rules checked on the source text itself."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "meshpart"


def absolute_imports(path: pathlib.Path) -> list[str]:
    """Top-level module names of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def test_the_package_imports_only_the_standard_library_and_itself():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {
        f"{path.name}: {name}"
        for path in files
        for name in absolute_imports(path)
        if name != "meshpart" and name not in sys.stdlib_module_names
    }
    assert not foreign, sorted(foreign)
