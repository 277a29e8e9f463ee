"""Repository rules checked on the source text itself."""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import json
import pathlib
import re
import shlex
import subprocess
import sys
import time

from meshpart import cli, ir

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "meshpart"
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_every_readme_command_line_parses():
    commands = [
        line
        for block in readme_blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("meshpart ")
    ]
    assert len(commands) >= 5
    for line in commands:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_the_readme_report_example_has_the_keys_of_a_real_report(tmp_path):
    (example,) = readme_blocks("json")
    example = json.loads(example)
    out = tmp_path / "report.json"
    assert cli.main(["search", "--model", "transformer", "--mesh", "batch=2,model=2",
                     "--schedule", "RT1_RT2_MEM1", "--budget", "6", "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    def keys(r: dict) -> tuple:
        return sorted(r), sorted(r["goals"][0]), sorted(r["estimate"])

    assert keys(example) == keys(report)


def test_the_readme_names_every_key_graph_json_writes_for_an_op():
    from test_cli import every_kind_graph

    text = " ".join(README.split())
    start = text.index("In graph JSON,")
    paragraph = text[start:text.index("exits 2.", start)]
    written = {key for op in ir.graph_to_json(every_kind_graph())["ops"] for key in op}
    assert written - set(re.findall(r"`(\w+)`", paragraph)) == set()


def test_the_readme_states_the_mesh_axis_limit_of_the_code():
    # the input rules give the limit twice: what `--mesh` rejects, and why
    text = " ".join(README.split())
    stated = re.findall(
        r"more than (\d+) axes|A mesh has at least one axis, and at most (\d+)", text
    )
    assert len(stated) == 2
    assert {int(over or most) for over, most in stated} == {ir.MAX_MESH_AXES}


def bench_wraps() -> list[tuple[str, str, str]]:
    """(owner, attribute, span name) of every `wrap` call in bench/child.py."""
    tree = ast.parse((ROOT / "bench" / "child.py").read_text(encoding="utf-8"))
    return [
        (ast.unparse(node.args[0]), node.args[1].value, node.args[2].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "wrap"
    ]


def test_every_function_the_bench_wraps_exists():
    # bench/child.py patches `wrap(owner, "attr", ...)` over meshpart names;
    # a rename would only surface when the benchmark runs
    wrapped = [(owner, attr) for owner, attr, _ in bench_wraps()]
    assert len(wrapped) >= 8
    missing = []
    for owner, attr in wrapped:
        module, *path = owner.split(".")
        obj = importlib.import_module(f"meshpart.{module}")
        for name in path:
            obj = getattr(obj, name, None)
        if not callable(getattr(obj, attr, None)):
            missing.append(f"{owner}.{attr}")
    assert not missing, missing


def test_a_traced_bench_child_records_a_span_for_every_wrapped_name(tmp_path):
    # the traced child's notes read state attributes (the estimate note reads
    # `fingerprint.digest`), which only a traced run exercises; one axis of
    # gns lets 6 trajectories expand a whole node and select below it
    timings = tmp_path / "timings.json"
    spawn_t = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), repr(spawn_t), "traced",
         str(timings), str(SRC.parent), "search", "--model", "gns", "--mesh", "batch=2",
         "--schedule", "batch:rt", "--budget", "6", "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    recorded = json.loads(timings.read_text())
    assert {name for _, _, name in bench_wraps()} <= {s[0] for s in recorded["spans"]}
    assert recorded["counters"]["trajectories"] == 6


def test_the_bench_gate_passes_a_real_search_report(tmp_path, monkeypatch):
    # bench/run.py's gate replays the plan and compares its fingerprint,
    # re-prices and lowers it; a change to what it reads would otherwise
    # fail only the benchmark
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look their module up
    monkeypatch.setattr(sys, "path", sys.path[:])  # run.py puts its src/ first
    spec.loader.exec_module(run)
    wl = dataclasses.replace(run.WORKLOADS["staged"], budget=6)
    out = tmp_path / "report.json"
    assert cli.main(run.cli_args(wl, 0) + ["--out", str(out)]) == 0
    problems, lower_s = run.check_report(out.read_text(), run.Reference(wl, 0))
    assert problems == [] and lower_s is not None


def module_state_calls() -> list[tuple[str, str]]:
    """(file, innermost enclosing function) of every `ModuleState(...)` call
    in src/ and tests/; module-level calls name the function `<module>`."""
    found = []

    def visit(node: ast.AST, path: str, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "ModuleState":
                    found.append((path, where))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, child.name if inner else where)

    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        rel = path.relative_to(ROOT).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8"), rel), rel, "<module>")
    return found


def test_only_make_state_constructs_a_module_state():
    # `costmodel.estimate` reads a state's row from the root's closure table,
    # which holds it because `engine._make_state` records it there first
    assert module_state_calls() == [("src/meshpart/engine.py", "_make_state")]


# the tables only pricing reads, which `costmodel._Pricing` owns
PRICING_FIELDS = {
    "nbytes", "live_to_end", "out_idx", "value_of", "scan_keys", "scans",
    "scan_interned", "analyses", "counts_interned",
}


def names_in(path: pathlib.Path) -> set[str]:
    """Every identifier, attribute and bare-word string constant of one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # a `__slots__` entry or a `getattr` name
    return names


def test_pricing_tables_have_one_owner():
    # `engine` compiles propagation, identity and the closure table; the cost
    # model builds and keeps everything else in the slot it alone touches
    naming = sorted(path.name for path in SRC.glob("*.py") if "pricing" in names_in(path))
    assert naming == ["costmodel.py", "engine.py"]
    engine_tree = ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))
    # `engine` only declares the slot, in `_Compiled.__slots__`
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "pricing"
        for node in ast.walk(engine_tree)
    )
    assert names_in(SRC / "engine.py") & PRICING_FIELDS == set()
    assert not any({"producer_op", "_OUTPUT"} & names_in(path) for path in SRC.glob("*.py"))


# the group tables that `_Compiled.groups`, one record per group, replaced
DELETED_GROUP_FIELDS = {"group_members", "group_rank", "group_pos", "group_dims", "seed_base"}


def test_every_compiled_slot_is_read_outside_its_constructor():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")])
    }
    compiled = next(
        node for node in trees[SRC / "engine.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "_Compiled"
    )
    slots = next(
        ast.literal_eval(node.value) for node in compiled.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__slots__"
    )
    init = next(
        node for node in compiled.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    )
    built = {id(node) for node in ast.walk(init)}
    read = set()
    for node in (node for path in SRC.glob("*.py") for node in ast.walk(trees[path])):
        if id(node) in built:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr"
              and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)  # how `costmodel` reads the unset `pricing`
    # a slot that only the constructor touches is a dead table
    assert sorted(set(slots) - read) == []
    # no module or test reaches a deleted group table, as an attribute or,
    # in src/, as a `__slots__` or `getattr` string
    for path, tree in trees.items():
        named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if path.parent == SRC:
            named |= {
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            }
        assert named & DELETED_GROUP_FIELDS == set(), path.name
