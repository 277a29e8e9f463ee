"""End-to-end command-line behavior: reports, plans, exit codes, determinism."""

import json

import pytest

from meshpart import cli, costmodel as cm, engine, ir, oracle

AB = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 2)))


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
    assert run_cli("search", "--model", "unet") == 3  # no mesh anywhere
    assert run_cli("search", "--model", "unet", "--mesh", "a=") == 3
    assert run_cli("search", "--model", "transformer", "--mesh", "batch=2",
                   "--model-cfg", "{not json") == 3
    assert run_cli("estimate", "--graph", graph_file,
                   "--plan", str(tmp_path / "absent.json")) == 3
    capsys.readouterr()


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


@pytest.mark.parametrize("cfg, message", [
    ({"axes": [{"name": "a", "bandwidth": 0, "latency": 1e-6}]},
     "bandwidth of axis 'a' must be finite and positive"),
    ({"axes": [{"name": "a", "bandwidth": float("nan"), "latency": 1e-6}]},
     "bandwidth of axis 'a' must be finite and positive"),
    ({"memory_penalty_slope": -0.5}, "memory_penalty_slope must be finite and at least 0"),
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
