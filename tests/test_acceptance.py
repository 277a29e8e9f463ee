"""Acceptance gate: one test per externally stated behavior of the package.

Each test prints a single `criterion NN: PASS/FAIL` line (visible with -s or
in captured output) and asserts the same condition, so the suite both
documents and enforces the contract.  Heavy search runs are shared through
module-scoped fixtures.
"""

import json
import random
import time

import pytest

from meshpart import cli
from meshpart import controller as ctl
from meshpart import costmodel as cm
from meshpart import engine, ir, mcts, models, oracle
from _random_graphs import random_graph, random_mesh

DESK_MESH = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
BUDGET = 2000
AG, AR, RS = cm.ALL_GATHER, cm.ALL_REDUCE, cm.REDUCE_SCATTER


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def desk():
    graph = models.build_transformer()
    cfg = cm.default_config(DESK_MESH)
    plans = models.transformer_expert_plans(DESK_MESH)
    expert = {
        name: cm.estimate(engine.replay_plan(graph, DESK_MESH, plan), cfg)
        for name, plan in plans.items()
    }
    return graph, cfg, expert


def zero3_pattern(counts, bp_mt_allreduce: int) -> bool:
    return (
        counts[AG] > 0 and counts[RS] > 0 and counts[AR] < bp_mt_allreduce
    )


@pytest.fixture(scope="module")
def goal_runs(desk):
    """Ten seeded runs of the staged schedule used by several criteria."""
    graph, cfg, _ = desk
    sched = ctl.builtin_schedule("RT1_RT2_MEM1", DESK_MESH, BUDGET)
    t0 = time.perf_counter()
    start = engine.initial_state(graph, DESK_MESH)
    outs = [ctl.run_schedule(start, sched, cost_cfg=cfg, seed=s) for s in range(10)]
    return outs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def none_runs(desk):
    graph, cfg, _ = desk
    sched = ctl.builtin_schedule("NONE", DESK_MESH, BUDGET)
    start = engine.initial_state(graph, DESK_MESH)
    return [ctl.run_schedule(start, sched, cost_cfg=cfg, seed=s) for s in range(10)]


def test_criterion_01_composite_strategy_discovery(desk, goal_runs):
    _, _, expert = desk
    outs, elapsed = goal_runs
    bp_mt_ar = expert["bp_mt"].counts[AR]
    hits = sum(zero3_pattern(o.final_cost.counts, bp_mt_ar) for o in outs)
    report(
        1,
        hits >= 8 and elapsed < 600.0,
        f"staged schedule reaches the gather/scatter pattern in {hits}/10 seeds "
        f"(need >= 8) in {elapsed:.1f}s (limit 600s)",
    )


def test_criterion_02_expert_collective_patterns(desk):
    _, _, expert = desk
    bp, mt, z3 = expert["bp"].counts, expert["bp_mt"].counts, expert["bp_mt_zero3"].counts
    pattern_ok = (
        bp[AG] == 0 and bp[RS] == 0 and bp[AR] > 0
        and mt[AG] == 0 and mt[RS] == 0 and mt[AR] > bp[AR]
        and z3[AG] > 0 and z3[RS] > 0 and z3[AR] < mt[AR]
    )
    frozen_ok = (
        bp[AR] == 12
        and mt[AR] == 21
        and (z3[AG], z3[AR], z3[RS]) == (25, 9, 11)
    )
    report(
        2,
        pattern_ok and frozen_ok,
        f"expert plan collectives: data-parallel AR={bp[AR]}, +tensor AR={mt[AR]}, "
        f"+sharded-optimizer AG/AR/RS={z3[AG]}/{z3[AR]}/{z3[RS]}",
    )


def test_criterion_03_search_matches_exhaustive_oracle():
    seeds = (11, 22, 33)
    per_seed = {s: 0 for s in seeds}
    merged = 0
    n_cases = 20
    for case in range(n_cases):
        rng = random.Random(case)
        graph = random_graph(rng, max_groups=4)
        mesh = random_mesh(rng)
        cfg = cm.default_config(mesh)
        start = engine.initial_state(graph, mesh)
        depth = len(graph.groups) * len(mesh.axis_names)
        _, best = oracle.exhaustive_best(start, max_depth=depth, cost_cfg=cfg)
        solved_any = False
        for s in seeds:
            scfg = mcts.SearchConfig(trajectory_budget=500, seed=s, max_depth=depth)
            r = mcts.run_search(start, None, scfg, cfg)
            if cm.metric_value(r.best_cost, cm.PENALIZED_RUNTIME) == best.penalized_cost:
                per_seed[s] += 1
                solved_any = True
        merged += solved_any
    ok = all(v >= 18 for v in per_seed.values()) and merged == n_cases
    report(
        3,
        ok,
        f"exact oracle matches per seed: {sorted(per_seed.values())} of {n_cases} "
        f"(need >= 18 each); min-merged {merged}/{n_cases} (need all)",
    )


def test_criterion_04_fingerprints_compress_action_sequences():
    b = ir.GraphBuilder("matmul_bias")
    b.arg("x", (8, 4), role=ir.Role.DATA, group="x")
    b.arg("w", (4, 8), role=ir.Role.PARAMETER, group="w")
    b.arg("c", (8, 8), role=ir.Role.PARAMETER, group="c")
    y = b.dot("x", "w", lhs_contract=(1,), rhs_contract=(0,))
    b.output(b.add(y, "c"))
    mesh = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 2)))
    start = engine.initial_state(b.build(), mesh)
    sequences = oracle.count_action_sequences(start, max_depth=2)
    states = len(oracle.enumerate_states(start, max_depth=2)) - 1  # non-empty only
    report(
        4,
        states < sequences,
        f"{states} distinct states reachable in <= 2 actions vs {sequences} "
        f"ordered action sequences",
    )


def test_criterion_05_goal_direction_is_necessary(desk, goal_runs, none_runs):
    _, _, expert = desk
    bp_mt_ar = expert["bp_mt"].counts[AR]
    outs, _ = goal_runs
    with_goals = sum(zero3_pattern(o.final_cost.counts, bp_mt_ar) for o in outs)
    without = sum(zero3_pattern(o.final_cost.counts, bp_mt_ar) for o in none_runs)
    report(
        5,
        without < with_goals,
        f"gather/scatter pattern found in {without}/10 unguided seeds vs "
        f"{with_goals}/10 goal-directed seeds (need strictly fewer)",
    )


def test_criterion_06_axis_restriction_speeds_up_search(desk):
    graph, cfg, _ = desk

    def rate(axis):
        start = engine.initial_state(graph, DESK_MESH)
        scfg = mcts.SearchConfig(trajectory_budget=500, seed=0)
        t0 = time.perf_counter()
        r = mcts.run_search(start, axis, scfg, cfg)
        return r.trajectories_used / (time.perf_counter() - t0)

    single = rate("batch")
    unrestricted = rate(None)
    report(
        6,
        single >= unrestricted,
        f"single-axis search throughput {single:.0f} traj/s vs "
        f"{unrestricted:.0f} traj/s unrestricted",
    )


def test_criterion_07_discovered_plans_stay_short(goal_runs):
    outs, _ = goal_runs
    longest = max(len(o.plan) for o in outs)
    report(7, longest <= 13, f"longest discovered plan has {longest} actions (limit 13)")


def test_criterion_08_cost_model_identities(desk):
    _, cfg, expert = desk
    # 1/n compute scaling on a collective-free sharding
    b = ir.GraphBuilder("scal")
    b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
    b.output(b.elementwise("relu", "x"))
    graph = b.build()
    start = engine.initial_state(graph, DESK_MESH)
    full = cm.estimate(start, cfg)
    half = cm.estimate(engine.apply_action(start, engine.Action(0, 0, "batch")), cfg)
    scaling_ok = full.runtime_seconds == 2.0 * half.runtime_seconds

    ar = cm.collective_time(cm.Collective(AR, "batch", 4096, "s"), cfg, DESK_MESH)
    ag = cm.collective_time(cm.Collective(AG, "batch", 4096, "s"), cfg, DESK_MESH)
    rs = cm.collective_time(cm.Collective(RS, "batch", 4096, "s"), cfg, DESK_MESH)
    identity_ok = ar == ag + rs

    mem_ok = (
        expert["bp_mt_zero3"].peak_memory_bytes < expert["bp"].peak_memory_bytes
    )
    report(
        8,
        scaling_ok and identity_ok and mem_ok,
        f"compute halves under 2-way sharding: {scaling_ok}; "
        f"AR time == AG+RS time: {identity_ok}; sharded-optimizer peak "
        f"{expert['bp_mt_zero3'].peak_memory_bytes} < data-parallel peak "
        f"{expert['bp'].peak_memory_bytes}: {mem_ok}",
    )


def test_criterion_09_cli_determinism_and_replay(tmp_path):
    invocations = (
        ("search", "--model", "transformer", "--mesh", "batch=2,model=2",
         "--schedule", "RT1_RT2_MEM1", "--budget", "200", "--seed", "0"),
        ("search", "--model", "unet", "--mesh", "batch=2,model=2",
         "--schedule", "NONE", "--budget", "150", "--seed", "2"),
    )
    ok = True
    details = []
    for i, argv in enumerate(invocations):
        a, b = tmp_path / f"{i}a.json", tmp_path / f"{i}b.json"
        assert cli.main([*argv, "--out", str(a)]) == 0
        assert cli.main([*argv, "--out", str(b)]) == 0
        identical = a.read_bytes() == b.read_bytes()
        reportd = json.loads(a.read_text())
        graph = models.build_named_model(argv[2])
        mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
        plan = [engine.Action(p["group"], p["dim"], p["axis"]) for p in reportd["plan"]]
        state = engine.replay_plan(graph, mesh, plan)
        est = cm.estimate(state, cm.default_config(mesh))
        replays = (
            state.fingerprint.digest == reportd["fingerprint"]
            and est.runtime_seconds == reportd["estimate"]["runtime_seconds"]
            and est.peak_memory_bytes == reportd["estimate"]["peak_memory_bytes"]
            and est.penalized_cost == reportd["estimate"]["penalized_cost"]
        )
        ok = ok and identical and replays
        details.append(f"{argv[2]}: bytes-identical={identical} replay-exact={replays}")
    report(9, ok, "; ".join(details))


def searched_min_penalized(graph, mesh, seeds=5):
    cfg = cm.default_config(mesh)
    sched = ctl.builtin_schedule("RT_MP_ALL", mesh, BUDGET)
    start = engine.initial_state(graph, mesh)
    best = min(
        ctl.run_schedule(start, sched, cost_cfg=cfg, seed=s).final_cost.penalized_cost
        for s in range(seeds)
    )
    return best, cfg


def test_criterion_10_search_beats_reference_baselines():
    graph = models.build_gns_like()
    searched, cfg = searched_min_penalized(graph, DESK_MESH)
    base_plan = models.gns_edge_sharding_plan(DESK_MESH)
    baseline = cm.estimate(engine.replay_plan(graph, DESK_MESH, base_plan), cfg)
    gns_ok = searched <= baseline.penalized_cost
    gns_detail = (
        f"graph-net searched {searched:.4e} <= edge-sharding {baseline.penalized_cost:.4e}"
    )

    graph = models.build_unet_like()
    searched_u, cfg = searched_min_penalized(graph, DESK_MESH)
    base_plan = models.unet_zero3_plan(graph, DESK_MESH)
    baseline_u = cm.estimate(engine.replay_plan(graph, DESK_MESH, base_plan), cfg)
    unet_ok = searched_u <= baseline_u.penalized_cost
    unet_detail = (
        f"unet searched {searched_u:.4e} <= sharded-optimizer "
        f"{baseline_u.penalized_cost:.4e}"
    )
    report(10, gns_ok and unet_ok, f"{gns_detail}; {unet_detail}")
