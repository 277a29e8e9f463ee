"""Repository rules checked on the source text itself."""

import argparse
import ast
import pathlib
import sys

from meshpart import cli

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


def args_reads(functions: dict[str, ast.FunctionDef], name: str, param: str,
               seen: set[tuple[str, str]]) -> set[str]:
    """Attributes that function `name` reads from its parameter `param`, and
    that every function of the same module it passes `param` to reads."""
    if (name, param) in seen:
        return set()
    seen.add((name, param))
    reads = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == param):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions):
            params = [a.arg for a in functions[node.func.id].args.args]
            for callee_param, arg in zip(params, node.args):
                if isinstance(arg, ast.Name) and arg.id == param:
                    reads |= args_reads(functions, node.func.id, callee_param, seen)
    return reads


def test_every_subcommand_flag_is_read_by_its_command():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    (commands,) = (
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    unread = []
    for command, parser in commands.choices.items():
        func = parser.get_default("func").__name__
        reads = args_reads(functions, func, functions[func].args.args[0].arg, set())
        unread += [
            f"{command} {action.option_strings[0]}"
            for action in parser._actions
            if action.dest != "help" and action.dest not in reads
        ]
    assert not unread, unread
