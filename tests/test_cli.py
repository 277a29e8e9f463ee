"""End-to-end command-line behavior: reports, plans, exit codes, determinism."""

import copy
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from _random_graphs import random_graph, random_mesh
from meshpart import cli, controller, costmodel as cm, engine, ir, models, oracle

AB = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 2)))
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def small_graph() -> ir.Graph:
    b = ir.GraphBuilder("matmul_bias")
    b.arg("x", (8, 4), role=ir.Role.DATA, group="x")
    b.arg("w", (4, 8), role=ir.Role.PARAMETER, group="w")
    b.arg("c", (8, 8), role=ir.Role.PARAMETER, group="c")
    y = b.dot("x", "w", lhs_contract=(1,), rhs_contract=(0,))
    b.output(b.add(y, "c"))
    return b.build()


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "matmul_bias.json"
    path.write_text(json.dumps(ir.graph_to_json(small_graph(), AB)))
    return str(path)


def run_cli(*argv) -> int:
    return cli.main(list(argv))


# --- dump-graph --------------------------------------------------------------


def test_dump_graph_round_trips_through_the_loader(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli("dump-graph", "--model", "transformer", "--mesh", "batch=2,model=2",
                   "--out", str(out)) == 0
    graph, mesh = ir.load_graph_file(str(out))
    assert graph.name == "transformer"
    assert mesh is not None and mesh.axis_names == ("batch", "model")


def test_dump_graph_without_mesh_omits_it(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli("dump-graph", "--model", "unet", "--out", str(out)) == 0
    graph, mesh = ir.load_graph_file(str(out))
    assert mesh is None
    assert len(graph.ops) == 48


# --- search ------------------------------------------------------------------


def test_search_report_is_complete_and_internally_consistent(graph_file, tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("search", "--graph", graph_file, "--schedule", "RT_MEM_ALL",
                   "--budget", "120", "--seed", "5", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["graph"] == "matmul_bias"
    assert report["mesh"] == [{"name": "a", "size": 2}, {"name": "b", "size": 2}]
    assert report["schedule"] == "RT_MEM_ALL"
    assert report["total_budget"] == 120
    assert report["seed"] == 5 and report["seeds_run"] == [5]
    assert len(report["goals"]) == 4
    for g in report["goals"]:
        assert set(g) == {"axis", "objective", "budget", "trajectories_used",
                          "trajectories_to_best", "distinct_states_visited", "committed"}
    # the emitted plan really replays to the emitted fingerprint and cost
    plan = [engine.Action(p["group"], p["dim"], p["axis"]) for p in report["plan"]]
    state = engine.replay_plan(small_graph(), AB, plan)
    assert state.fingerprint.digest == report["fingerprint"]
    est = cm.estimate(state, cm.default_config(AB))
    assert est.runtime_seconds == report["estimate"]["runtime_seconds"]
    assert est.peak_memory_bytes == report["estimate"]["peak_memory_bytes"]
    assert est.penalized_cost == report["estimate"]["penalized_cost"]


def test_search_is_byte_deterministic(graph_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("search", "--graph", graph_file, "--schedule", "NONE",
            "--budget", "80", "--seed", "1")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    rng = random.Random(5)
    graph_path = tmp_path / "rand5.json"
    graph_path.write_text(json.dumps(ir.graph_to_json(random_graph(rng), random_mesh(rng))))
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        for argv in (
            ["search", "--model", "transformer", "--mesh", "batch=2,model=2",
             "--schedule", "RT1_RT2_MEM1", "--budget", "200", "--seeds", "2",
             "--trace", str(out / "trace.tsv"), "--out", str(out / "report.json")],
            ["oracle", "--graph", str(graph_path), "--out", str(out / "states.csv")],
        ):
            subprocess.run([sys.executable, "-m", "meshpart.cli", *argv], env=env,
                           check=True, timeout=120)
        outputs.append([(out / f).read_bytes() for f in ("report.json", "trace.tsv",
                                                         "states.csv")])
    assert outputs[0] == outputs[1]


def test_multi_seed_search_keeps_the_best_run(graph_file, tmp_path):
    merged = tmp_path / "m.json"
    assert run_cli("search", "--graph", graph_file, "--schedule", "NONE",
                   "--budget", "40", "--seed", "10", "--seeds", "3",
                   "--out", str(merged)) == 0
    report = json.loads(merged.read_text())
    assert report["seeds_run"] == [10, 11, 12]
    singles = {}
    for seed in (10, 11, 12):
        p = tmp_path / f"s{seed}.json"
        run_cli("search", "--graph", graph_file, "--schedule", "NONE",
                "--budget", "40", "--seed", str(seed), "--out", str(p))
        singles[seed] = json.loads(p.read_text())["estimate"]["penalized_cost"]
    assert report["estimate"]["penalized_cost"] == min(singles.values())
    winners = [s for s, v in singles.items() if v == min(singles.values())]
    assert report["seed"] == min(winners)


def test_search_trace_is_tab_separated(graph_file, tmp_path):
    trace = tmp_path / "trace.tsv"
    assert run_cli("search", "--graph", graph_file, "--schedule", "a:rt:30",
                   "--budget", "30", "--trace", str(trace),
                   "--out", str(tmp_path / "r.json")) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "seed\ttrajectory\tdepth\tfingerprint\treward\tbest_metric"
    assert len(lines) == 31
    first = lines[1].split("\t")
    assert first[0] == "0" and first[1] == "1"


def test_mesh_flag_overrides_the_embedded_mesh(graph_file, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("search", "--graph", graph_file, "--mesh", "a=4",
                   "--schedule", "NONE", "--budget", "30", "--out", str(out)) == 0
    assert json.loads(out.read_text())["mesh"] == [{"name": "a", "size": 4}]


# --- estimate ----------------------------------------------------------------


def test_estimate_round_trips_a_search_report(graph_file, tmp_path):
    report_path = tmp_path / "report.json"
    run_cli("search", "--graph", graph_file, "--budget", "100",
            "--out", str(report_path))
    est_path = tmp_path / "estimate.json"
    assert run_cli("estimate", "--graph", graph_file, "--plan", str(report_path),
                   "--out", str(est_path)) == 0
    report = json.loads(report_path.read_text())
    estimated = json.loads(est_path.read_text())
    assert estimated["fingerprint"] == report["fingerprint"]
    assert estimated["estimate"] == report["estimate"]
    assert estimated["plan"] == report["plan"]


def test_estimate_accepts_a_bare_plan_list(graph_file, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps([{"group": 0, "dim": 0, "axis": "a"}]))
    out = tmp_path / "e.json"
    assert run_cli("estimate", "--graph", graph_file, "--plan", str(plan_path),
                   "--out", str(out)) == 0
    got = json.loads(out.read_text())
    direct = engine.replay_plan(small_graph(), AB, [engine.Action(0, 0, "a")])
    assert got["fingerprint"] == direct.fingerprint.digest


# --- oracle ------------------------------------------------------------------


def test_oracle_emits_a_csv_of_every_state(graph_file, tmp_path):
    out = tmp_path / "states.csv"
    assert run_cli("oracle", "--graph", graph_file, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("fingerprint,runtime_seconds,peak_memory_bytes,"
                        "penalized_cost,allgather,allreduce,reducescatter")
    start = engine.initial_state(small_graph(), AB)
    assert len(lines) - 1 == len(oracle.enumerate_states(start))
    assert lines[1].startswith('"()",')


def test_oracle_axis_subset_and_depth_flags(graph_file, tmp_path):
    out = tmp_path / "states.csv"
    assert run_cli("oracle", "--graph", graph_file, "--axes", "a",
                   "--max-depth", "1", "--out", str(out)) == 0
    body = out.read_text().splitlines()[1:]
    assert all((",0," in r) or r.startswith('"()"') for r in body)
    assert run_cli("oracle", "--graph", graph_file, "--axes", "zz") == 3


# --- failure modes -----------------------------------------------------------


def test_incompatible_mesh_is_an_input_error(capsys):
    code = run_cli("search", "--model", "transformer", "--mesh", "batch=3")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_config_mistakes_exit_three(graph_file, tmp_path, capsys):
    assert run_cli("search", "--graph", graph_file, "--schedule", "BOGUS") == 3
    assert run_cli("search", "--graph", graph_file, "--breakfast") == 3
    assert run_cli("search") == 3  # neither --graph nor --model
    assert run_cli("search", "--graph", graph_file, "--model", "unet") == 3
    assert run_cli("dump-graph", "--graph", graph_file, "--model", "unet") == 3
    assert run_cli("dump-graph", "--graph", graph_file, "--cost-cfg", "cost.json") == 3
    assert run_cli("search", "--model", "unet") == 3  # no mesh anywhere
    assert run_cli("search", "--model", "unet", "--mesh", "a=") == 3
    assert run_cli("search", "--model", "transformer", "--mesh", "batch=2",
                   "--model-cfg", "{not json") == 3
    assert run_cli("estimate", "--graph", graph_file,
                   "--plan", str(tmp_path / "absent.json")) == 3
    capsys.readouterr()


def test_a_schedule_axis_named_all_is_an_unknown_axis_on_a_mesh_without_one(
        graph_file, capsys):
    assert run_cli("search", "--graph", graph_file, "--schedule", "all:rt",
                   "--budget", "4") == 3
    assert "names unknown axis 'all'" in only_error_line(capsys)


def test_an_explicit_zero_goal_budget_exits_three(graph_file, capsys):
    # an omitted budget is an even share; an explicit 0 is refused, not read as one
    assert run_cli("search", "--graph", graph_file, "--schedule", "a:rt:0,b:rt",
                   "--budget", "100") == 3
    assert "needs a positive budget; omit it for an even share" in only_error_line(capsys)


def test_broken_plans_exit_two(graph_file, tmp_path, capsys):
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps([{"group": 0, "dim": 0, "axis": "a"},
                               {"group": 0, "dim": 1, "axis": "a"}]))
    assert run_cli("estimate", "--graph", graph_file, "--plan", str(bad)) == 2
    err = capsys.readouterr().err
    assert "plan action #1" in err


def only_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("mutate, message", [
    (lambda g: g["ops"].__setitem__(0, 5), "ops[0] must be an object"),
    (lambda g: g["outputs"].__setitem__(0, []), "outputs[0] must be a value id"),
    (lambda g: g["ops"].append({"id": "r", "kind": "Reduce", "reduce_kind": "sum",
                                "dims": [0], "operands": []}),
     "Reduce takes 1 operand, got 0"),
    (lambda g: g["ops"].append({"id": "t", "kind": "Transpose", "permutation": [1, 0],
                                "operands": ["x", "w"]}),
     "Transpose takes 1 operand, got 2"),
    (lambda g: g["ops"].append({"id": "b", "kind": "DotGeneral", "lhs_batch_dims": [0],
                                "rhs_batch_dims": [0], "operands": ["x", "w"]}),
     "batch pair 0: lhs dim 0 (8) != rhs dim 0 (4)"),
    (lambda g: g["ops"].append({"id": "k", "kind": "Constant", "dims": [2],
                                "element_bytes": 4, "operands": ["x"]}),
     "Constant takes no operands"),
    (lambda g: g["ops"].append({"id": "r", "kind": "Reduce", "reduce_kind": "sum",
                                "dims": [0, 0], "operands": ["x"]}),
     "duplicate reduce dims (0, 0)"),
    (lambda g: g["ops"].append({"id": "r", "kind": "Reduce", "reduce_kind": "sum",
                                "dims": [2], "operands": ["x"]}),
     "reduce dim 2 out of range for rank 2"),
    (lambda g: g["args"].append(dict(g["args"][0], group=3)),
     "duplicate value id 'x'; x: argument 'x' appears in groups 0 and 3"),
])
def test_mistyped_graph_json_entries_exit_two(tmp_path, capsys, mutate, message):
    obj = ir.graph_to_json(small_graph(), AB)
    mutate(obj)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(obj))
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    assert run_cli("estimate", "--graph", str(graph_path), "--plan", str(plan)) == 2
    assert message in only_error_line(capsys)


def test_a_graph_file_with_a_mistyped_mesh_axis_name_exits_two(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    assert run_cli("dump-graph", "--model", "gns", "--mesh", "batch=2,model=2",
                   "--out", str(graph_path)) == 0
    obj = json.loads(graph_path.read_text())
    obj["mesh"][0]["name"] = 5
    graph_path.write_text(json.dumps(obj))
    assert run_cli("search", "--graph", str(graph_path), "--schedule", "RT_MP_ALL",
                   "--budget", "20") == 2
    assert "mesh axis name must be an identifier, got 5" in only_error_line(capsys)


@pytest.mark.parametrize("cfg, message", [
    ({"axes": [{"name": "a", "bandwidth": 0, "latency": 1e-6}]},
     "bandwidth of axis 'a' must be finite and positive"),
    ({"axes": [{"name": "a", "bandwidth": float("nan"), "latency": 1e-6}]},
     "bandwidth of axis 'a' must be finite and positive"),
    ({"memory_penalty_slope": -0.5}, "memory_penalty_slope must be finite and at least 0"),
    ([], "cost config must be a JSON object, got list"),
    ({"cse_allgather": "no"}, "cse_allgather must be true or false"),
    ({"flops_per_second": "1e12"}, "flops_per_second must be a JSON number"),
    ({"axes": [{"name": "modle", "bandwidth": 1e9, "latency": 0}]},
     "cost config axis 'modle' names no mesh axis"),
    ({"axes": [{"name": "a", "bandwidth": 1e9, "latency": 0}] * 2},
     "cost config gives axis 'a' twice"),
    ({"flops_per_secnd": 1, "memory_limit": 5},
     "cost config has unknown key(s) ['flops_per_secnd', 'memory_limit']"),
    ({"axes": [{"name": "a", "bandwidth": 1e9, "latency": 0, "lat": 1}]},
     "cost config axes entry has unknown key(s) ['lat']"),
])
def test_out_of_range_cost_configs_exit_three(graph_file, tmp_path, capsys, cfg, message):
    cfg_path = tmp_path / "cost.json"
    cfg_path.write_text(json.dumps(cfg))  # NaN is written as the bare token NaN
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    assert run_cli("estimate", "--graph", graph_file, "--plan", str(plan),
                   "--cost-cfg", str(cfg_path)) == 3
    assert message in only_error_line(capsys)


@pytest.mark.parametrize("entry", [
    {"group": 0, "dim": 0.5, "axis": "a"},
    {"group": "0", "dim": 0, "axis": "a"},
    {"group": True, "dim": 0, "axis": "a"},
    {"group": 0, "dim": False, "axis": "a"},
    {"group": 0, "dim": 0, "axis": 1},
])
def test_mistyped_plan_entries_exit_three(graph_file, tmp_path, capsys, entry):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([{"group": 1, "dim": 0, "axis": "a"}, entry]))
    assert run_cli("estimate", "--graph", graph_file, "--plan", str(plan)) == 3
    assert "plan entry #1 is malformed" in only_error_line(capsys)


@pytest.mark.parametrize("plan_obj, message", [
    (5, "plan file must be a JSON list or a report with a 'plan'"),
    ({"x": 1}, "plan file must be a JSON list or a report with a 'plan'"),
    ({"plan": 3}, "plan file must be a JSON list or a report with a 'plan'"),
    ([{"group": 0}], "plan entry #0 is malformed: it has no key 'dim'"),
    ([7], "plan entry #0 is malformed: it must be an object, got 7"),
])
def test_a_plan_that_is_no_list_of_actions_exits_three(
        graph_file, tmp_path, capsys, plan_obj, message):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_obj))
    assert run_cli("estimate", "--graph", graph_file, "--plan", str(plan)) == 3
    assert message in only_error_line(capsys)


@pytest.mark.parametrize("command", ["search", "estimate", "oracle"])
def test_a_graph_without_arguments_exits_two(tmp_path, capsys, command):
    obj = {
        "name": "no_args",
        "mesh": [{"name": "a", "size": 2}],
        "args": [],
        "ops": [{"id": "c", "kind": "Constant", "dims": [4], "element_bytes": 4,
                 "operands": []}],
        "outputs": ["c"],
    }
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(obj))
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    extra = ["--plan", str(plan)] if command == "estimate" else []
    assert run_cli(command, "--graph", str(graph_path), *extra) == 2
    assert "axis 'a' (size 2) divides no dimension" in only_error_line(capsys)


def test_incompatible_mesh_names_a_group_with_its_own_dims(tmp_path, capsys):
    obj = ir.graph_to_json(small_graph(), ir.Mesh((ir.MeshAxis("a", 3),)))
    obj["args"][0]["group"], obj["args"][1]["group"] = 1, 0  # x (8, 4), w (4, 8)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(obj))
    assert run_cli("search", "--graph", str(graph_path), "--budget", "4") == 2
    assert "(e.g. group 0 dims (4, 8))" in only_error_line(capsys)


@pytest.mark.parametrize("model, cfg, message", [
    ("transformer", {"layers": 1.5}, "layers must be an integer, got 1.5"),
    ("transformer", {"batch": True}, "batch must be an integer, got True"),
    ("transformer", {"d_model": "64"}, "d_model must be an integer, got '64'"),
    ("gns", {"edges": 2.5}, "edges must be an integer, got 2.5"),
    ("unet", {"widths": 5}, "widths must be a list of integers, got 5"),
    ("unet", {"widths": [16, 32.0]}, "widths must be a list of integers"),
    ("unet", {"widths": [16, False]}, "widths must be a list of integers"),
    ("unet", {"batch": True}, "batch must be an integer, got True"),
    ("unet", {"skip_connections": "no"}, "skip_connections must be true or false"),
    ("unet", {"skip_connections": 0}, "skip_connections must be true or false"),
    ("transformer", {"widths": [16, 32]}, "unexpected keyword argument 'widths'"),
    ("transformer", [1], "--model-cfg must be a JSON object"),
])
def test_mistyped_model_configs_exit_three(tmp_path, capsys, model, cfg, message):
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    assert run_cli("estimate", "--model", model, "--mesh", "a=2", "--plan", str(plan),
                   "--model-cfg", json.dumps(cfg)) == 3
    assert message in only_error_line(capsys)


def test_well_typed_model_configs_are_accepted(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("dump-graph", "--model", "unet", "--out", str(out), "--model-cfg",
                   json.dumps({"widths": [16, 32], "batch": 4, "skip_connections": False})) == 0
    graph, _ = ir.load_graph_file(str(out))
    assert graph.args[0].type.dims == (4, 16)


def axes_spec(n: int) -> str:
    return ",".join(f"a{i}=2" for i in range(n))


# a mesh past 8 axes is rejected: a dim's axes are one mask byte of a row;
# an empty entry is rejected, not skipped
@pytest.mark.parametrize("spec", [
    ",", "a=1", "a=-3", "a=2,a=2", "a=x", "a", "=2", "a=2,b", "a=2,b=x",
    "", "a=2,,b=2", "a=2,b=2,", ",a=2", "a=2, ,b=2",
    pytest.param(axes_spec(9), id="9-axes"),
    pytest.param(axes_spec(65), id="65-axes"),
])
def test_every_bad_mesh_flag_exits_three(graph_file, capsys, spec):
    assert run_cli("search", "--graph", graph_file, "--mesh", spec, "--budget", "4") == 3
    assert repr(spec) in only_error_line(capsys)


# a fingerprint joins axis names with '+' and ';', and the oracle CSV quotes
# them: with `--mesh a=2,b=2,a+b=2`, dim 0 on a and b would print as on a+b
@pytest.mark.parametrize("name", ["a+b", "a;b", 'a"b'])
def test_a_mesh_axis_name_that_is_not_an_identifier_is_rejected(
        graph_file, tmp_path, capsys, name):
    message = f"mesh axis name must be an identifier, got {name!r}"
    assert run_cli("search", "--graph", graph_file, "--mesh", f"a=2,b=2,{name}=2",
                   "--budget", "4") == 3
    assert message in only_error_line(capsys)
    obj = ir.graph_to_json(small_graph(), AB)
    obj["mesh"][1]["name"] = name
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(obj))
    assert run_cli("search", "--graph", str(graph_path), "--budget", "4") == 2
    assert message in only_error_line(capsys)


def test_eight_mesh_axes_are_accepted(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    assert run_cli("estimate", "--model", "transformer", "--mesh", axes_spec(8),
                   "--plan", str(plan), "--out", str(tmp_path / "est.json")) == 0


def test_a_bad_mesh_inside_a_graph_file_exits_two(tmp_path, capsys):
    obj = ir.graph_to_json(small_graph(), AB)
    obj["mesh"][1]["size"] = 1
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(obj))
    assert run_cli("search", "--graph", str(graph_path), "--budget", "4") == 2
    assert "size 1" in only_error_line(capsys)


def test_a_mesh_of_too_many_axes_inside_a_graph_file_exits_two(tmp_path, capsys):
    obj = ir.graph_to_json(small_graph(), AB)
    obj["mesh"] = [{"name": f"a{i}", "size": 2} for i in range(9)]
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(obj))
    assert run_cli("search", "--graph", str(graph_path), "--budget", "4") == 2
    assert "mesh has 9 axes; at most 8 are supported" in only_error_line(capsys)


@pytest.mark.parametrize("command", ["search", "estimate", "oracle"])
def test_a_graph_file_with_an_empty_mesh_exits_two(tmp_path, capsys, command):
    obj = ir.graph_to_json(small_graph(), AB)
    obj["mesh"] = []
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(obj))
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    extra = ["--plan", str(plan)] if command == "estimate" else []
    assert run_cli(command, "--graph", str(graph_path), *extra) == 2
    assert "mesh has no axes" in only_error_line(capsys)


@pytest.mark.parametrize("model_cfg, cost_cfg", [
    ({"batch": 10**400}, None),  # an integer cost past the float range
    ({"layers": 4}, {"flops_per_second": 1e-300}),  # a float cost that overflows
])
def test_a_cost_that_is_not_a_finite_float_exits_three(tmp_path, capsys, model_cfg, cost_cfg):
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    argv = ["--model", "transformer", "--mesh", "batch=2,model=2",
            "--model-cfg", json.dumps(model_cfg)]
    if cost_cfg is not None:
        cfg_path = tmp_path / "cost.json"
        cfg_path.write_text(json.dumps(cost_cfg))
        argv += ["--cost-cfg", str(cfg_path)]
    for command in (["estimate", "--plan", str(plan)], ["search", "--budget", "4"]):
        assert run_cli(*command, *argv) == 3
        out, err = capsys.readouterr()
        assert out == ""  # no report, so none that holds Infinity or NaN
        assert err.count("\n") == 1 and "is not a finite number" in err, err


def test_an_argument_whose_bytes_overflow_a_float_cost_exits_three(tmp_path, capsys):
    obj = ir.graph_to_json(small_graph(), AB)
    obj["args"][0]["element_bytes"] = 10**400  # peak memory past the float range
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(obj))
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    assert run_cli("estimate", "--graph", str(graph_path), "--plan", str(plan)) == 3
    assert "the cost of this plan is not a finite number" in only_error_line(capsys)


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """A one-item list that counts the calls of `owner.<name>`."""
    count = [0]
    fn = getattr(owner, name)

    def counted(*args):
        count[0] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return count


@pytest.mark.parametrize("argv", [
    ["search", "--budget", "30", "--seeds", "3"],
    ["oracle"],
    ["estimate"],
    ["estimate", "--model", "transformer", "--mesh", "batch=2,model=2"],
])
def test_a_command_compiles_its_tables_once(graph_file, tmp_path, monkeypatch, argv):
    compiles = count_calls(monkeypatch, engine._Compiled, "__init__")
    validations = count_calls(monkeypatch, ir, "check_valid")
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    extra = ["--plan", str(plan)] if argv[0] == "estimate" else []
    if "--model" not in argv:
        extra += ["--graph", graph_file]
    assert run_cli(*argv, *extra, "--out", str(tmp_path / "out")) == 0
    assert (compiles[0], validations[0]) == (1, 1)


@pytest.mark.parametrize("command", ["search", "estimate", "oracle", "dump-graph"])
def test_missing_graph_file_exits_three(tmp_path, capsys, command):
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    extra = ["--plan", str(plan)] if command == "estimate" else []
    assert run_cli(command, "--graph", str(tmp_path / "absent.json"), *extra) == 3
    assert "cannot read graph file" in only_error_line(capsys)


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_unwritable_search_outputs_exit_three(graph_file, tmp_path, capsys, flag):
    target = str(tmp_path / "no_such_dir" / "file")
    assert run_cli("search", "--graph", graph_file, "--budget", "40", flag, target) == 3
    assert "cannot write" in only_error_line(capsys)


def test_a_trace_and_a_report_on_one_file_exit_three_before_the_search(
    graph_file, tmp_path, capsys, monkeypatch
):
    searches = count_calls(monkeypatch, controller, "run_schedule")
    monkeypatch.chdir(tmp_path)
    assert run_cli("search", "--graph", graph_file, "--budget", "40",
                   "--trace", "./both", "--out", "both") == 3
    assert "--trace and --out name one file 'both'" in only_error_line(capsys)
    assert searches == [0]


def test_unwritable_out_exits_three_for_every_command(graph_file, tmp_path, capsys):
    target = str(tmp_path / "no_such_dir" / "out")
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    assert run_cli("estimate", "--graph", graph_file, "--plan", str(plan), "--out", target) == 3
    assert "cannot write" in only_error_line(capsys)
    assert run_cli("oracle", "--graph", graph_file, "--out", target) == 3
    assert "cannot write" in only_error_line(capsys)
    assert run_cli("dump-graph", "--graph", graph_file, "--out", target) == 3
    assert "cannot write" in only_error_line(capsys)


@pytest.mark.parametrize("argv, message", [
    (["search", "--seeds", "0"], "--seeds must be at least 1"),
    (["search", "--seeds", "-3"], "--seeds must be at least 1"),
    (["oracle", "--max-depth", "-1"], "--max-depth must be at least 0"),
    (["oracle", "--axes", ","], "names no mesh axis"),
    (["oracle", "--axes", " "], "names no mesh axis"),
    (["oracle", "--axes", ""], "names no mesh axis"),
    (["oracle", "--axes", "a,a"], "names an axis twice"),
    (["oracle", "--axes", "a, b ,a"], "names an axis twice"),
    (["oracle", "--axes", "a,c"], "unknown mesh axis 'c'"),
    (["oracle", "--axes", "a,"], "empty entry in --axes 'a,'"),
    (["oracle", "--axes", ",b"], "empty entry in --axes ',b'"),
    (["oracle", "--axes", "a, ,b"], "empty entry in --axes 'a, ,b'"),
])
def test_out_of_range_counts_exit_three(graph_file, capsys, argv, message):
    assert run_cli(*argv, "--graph", graph_file) == 3
    assert message in only_error_line(capsys)


@pytest.mark.parametrize("which, code", [("graph", 2), ("plan", 3), ("cost", 3)])
def test_files_that_are_not_utf8_give_one_error_line(graph_file, tmp_path, capsys, which, code):
    paths = {"graph": graph_file, "plan": str(tmp_path / "plan.json"),
             "cost": str(tmp_path / "cost.json")}
    (tmp_path / "plan.json").write_text("[]")
    (tmp_path / "cost.json").write_text("{}")
    paths[which] = str(tmp_path / "binary.json")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00not text")
    assert run_cli("estimate", "--graph", paths["graph"], "--plan", paths["plan"],
                   "--cost-cfg", paths["cost"]) == code
    assert "is not valid JSON" in only_error_line(capsys)


def every_kind_graph() -> ir.Graph:
    b = ir.GraphBuilder("every_kind")
    b.arg("x", (8, 4), role=ir.Role.DATA, group="x")
    b.arg("w", (4, 8), role=ir.Role.PARAMETER, group="w")
    y = b.dot("x", "w", lhs_contract=(1,), rhs_contract=(0,))
    t = b.transpose(y, (1, 0))
    r = b.reshape(t, (8, 2, 4))
    s = b.reduce(r, (1,), kind="sum")
    b.output(b.add(s, b.constant((8, 4))))
    return b.build()


@pytest.mark.parametrize("path, bad", [
    (("args", 0, "group"), 0.5),
    (("args", 0, "group"), "0"),
    (("args", 1, "group"), True),
    (("args", 0, "dims"), [8.0, 4]),
    (("args", 0, "dims"), "84"),
    (("args", 1, "element_bytes"), 2.5),
    (("args", 1, "element_bytes"), False),
    (("mesh", 0, "size"), 2.0),
    (("mesh", 1, "size"), "2"),
    (("ops", 0, "lhs_contracting_dims"), [1.0]),
    (("ops", 0, "rhs_batch_dims"), [True]),
    (("ops", 1, "permutation"), [1, 0.0]),
    (("ops", 2, "target_dims"), [8, 2, "4"]),
    (("ops", 3, "dims"), [1.0]),
    (("ops", 4, "dims"), [8.0, 4]),
    (("ops", 4, "element_bytes"), 4.0),
])
def test_graph_numbers_must_be_json_integers(tmp_path, capsys, path, bad):
    obj = ir.graph_to_json(every_kind_graph(), AB)
    *parents, key = path
    entry = obj
    for step in parents:
        entry = entry[step]
    entry[key] = bad
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(obj))
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    assert run_cli("estimate", "--graph", str(graph_path), "--plan", str(plan)) == 2
    err = only_error_line(capsys)
    assert f"{key}" in err and "integer" in err


def test_the_every_kind_graph_loads_unmutated(tmp_path):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(ir.graph_to_json(every_kind_graph(), AB)))
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    assert run_cli("estimate", "--graph", str(graph_path), "--plan", str(plan)) == 0


# values a mutant may put anywhere in the graph JSON
FUZZ_VALUES = (
    None, True, False, 0, -1, 1, 2, 3, 7, 4096, 2.5, 1.0, -0.0, float("nan"), "", "x",
    "v0", "Reduce", "sum", "parameter", [], [0], [1, 2], [-1], [[]], {}, {"kind": "Reduce"},
)


def json_paths(node, prefix=()):
    """The path of every entry below node, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


def mutate(obj, rng: random.Random, paths: list[tuple]) -> list[str]:
    """Apply one to three random edits to obj in place; describe them."""
    done = []
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(paths)
        parent = obj
        try:
            for step in path[:-1]:
                parent = parent[step]
            key = path[-1]
            parent[key]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed this entry
        how = rng.choice(("set", "set", "swap", "delete", "duplicate"))
        if how == "set":
            parent[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
        elif how == "swap":  # a value from elsewhere in the file
            other = obj
            try:
                for step in rng.choice(paths):
                    other = other[step]
            except (KeyError, IndexError, TypeError):
                continue
            parent[key] = copy.deepcopy(other)
        elif how == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            continue
        done.append(f"{how} {'/'.join(map(str, path))}")
    return done


def test_mutated_graph_files_end_in_one_error_line_or_a_result(tmp_path, capsys):
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    text = json.dumps(ir.graph_to_json(models.build_named_model("transformer"), mesh))
    paths = list(json_paths(json.loads(text)))
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    graph_path = tmp_path / "g.json"
    rng = random.Random(2022)
    codes = set()
    for k in range(300):
        obj = json.loads(text)
        edits = mutate(obj, rng, paths)
        graph_path.write_text(json.dumps(obj))
        try:
            code = run_cli("estimate", "--graph", str(graph_path), "--plan", str(plan))
        except Exception as e:  # only MeshPartError may leave the loader, and main maps it
            pytest.fail(f"mutant {k} ({'; '.join(edits)}) raised {type(e).__name__}: {e}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (k, edits, code)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (k, edits, err)
        codes.add(code)
    assert codes >= {0, 2}  # the mutants reach both outcomes
