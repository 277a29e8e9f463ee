"""Tree search behavior: rewards, UCT selection, budgets, and optimality."""

import random

import pytest

from meshpart import costmodel as cm
from meshpart import engine, ir, mcts, oracle
from _random_graphs import random_graph, random_mesh

A2 = ir.Mesh((ir.MeshAxis("a", 2),))
AB = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 2)))


def matmul_bias_graph() -> ir.Graph:
    b = ir.GraphBuilder("matmul_bias")
    b.arg("x", (8, 4), role=ir.Role.DATA, group="x")
    b.arg("w", (4, 8), role=ir.Role.PARAMETER, group="w")
    b.arg("c", (8, 8), role=ir.Role.PARAMETER, group="c")
    y = b.dot("x", "w", lhs_contract=(1,), rhs_contract=(0,))
    b.output(b.add(y, "c"))
    return b.build()


def est(runtime: float) -> cm.CostEstimate:
    return cm.CostEstimate(runtime, 0, {}, runtime)


# --- reward ------------------------------------------------------------------


def test_reward_is_clamped_metric_ratio():
    assert mcts.reward(est(2.0), est(1.0), cm.RUNTIME) == 0.25
    assert mcts.reward(est(1.0), est(1.0), cm.RUNTIME) == 0.5
    assert mcts.reward(est(0.25), est(1.0), cm.RUNTIME) == 1.0  # ratio clamps at 2
    assert mcts.reward(est(0.0), est(1.0), cm.RUNTIME) == 1.0
    assert mcts.reward(est(0.0), est(0.0), cm.RUNTIME) == 0.5


# --- UCT selection -----------------------------------------------------------


def node(visits: int = 0, total: float = 0.0) -> mcts.SearchNode:
    # selection reads only the statistics and the children's digest keys
    n = mcts.SearchNode(engine.initial_state(matmul_bias_graph(), A2))
    n.visit_count = visits
    n.total_value = total
    return n


def parented(children: dict[str, mcts.SearchNode]) -> mcts.SearchNode:
    p = node(visits=sum(c.visit_count for c in children.values()))
    p.children = dict(children)
    return p


def test_uct_balances_value_against_visit_count():
    a, b = node(2, 0.6), node(8, 3.2)
    parent = parented({"s_a": a, "s_b": b})
    explore = mcts.SearchConfig(trajectory_budget=1, uct_c=1.0)
    # 0.3 + sqrt(ln 10 / 2) = 1.373 beats 0.4 + sqrt(ln 10 / 8) = 0.936
    assert mcts.select_child(parent, explore) is a
    greedy = mcts.SearchConfig(trajectory_budget=1, uct_c=0.0)
    assert mcts.select_child(parent, greedy) is b


def test_unvisited_children_have_priority_and_ties_pick_smallest_digest():
    fresh1, fresh2 = node(), node()
    seasoned = node(5, 5.0)
    parent = parented({"z_late": fresh1, "a_early": fresh2, "mid": seasoned})
    cfg = mcts.SearchConfig(trajectory_budget=1)
    # both unvisited score inf; 'a_early' < 'z_late'
    assert mcts.select_child(parent, cfg) is fresh2


def test_select_child_requires_children():
    with pytest.raises(ValueError):
        mcts.select_child(node(), mcts.SearchConfig(trajectory_budget=1))


def test_search_config_validation():
    with pytest.raises(ValueError):
        mcts.SearchConfig(trajectory_budget=0)
    with pytest.raises(ValueError):
        mcts.SearchConfig(trajectory_budget=10, uct_c=-0.5)


# --- run_search contracts ----------------------------------------------------


def run(graph, mesh, axis=None, budget=200, seed=0, objective=cm.PENALIZED_RUNTIME, **kw):
    start = engine.initial_state(graph, mesh)
    cfg = mcts.SearchConfig(trajectory_budget=budget, seed=seed, objective=objective, **kw)
    return mcts.run_search(start, axis, cfg, cm.default_config(mesh))


def test_budget_one_still_returns_a_valid_result():
    r = run(matmul_bias_graph(), A2, budget=1)
    assert r.trajectories_used == 1
    assert r.trajectories_to_best <= 1
    assert r.best_cost.runtime_seconds > 0


def test_search_never_returns_worse_than_the_start():
    graph = matmul_bias_graph()
    cost_cfg = cm.default_config(A2)
    baseline = cm.estimate(engine.initial_state(graph, A2), cost_cfg)
    r = run(graph, A2, budget=50)
    assert cm.metric_value(r.best_cost, cm.PENALIZED_RUNTIME) <= baseline.penalized_cost


def test_same_seed_reproduces_the_search_exactly():
    traces = []
    for _ in range(2):
        calls = []
        start = engine.initial_state(matmul_bias_graph(), A2)
        cfg = mcts.SearchConfig(trajectory_budget=120, seed=7)
        r = mcts.run_search(start, None, cfg, cm.default_config(A2), trace=lambda *a: calls.append(a))
        traces.append((r.best_state.fingerprint, r.best_cost, r.trajectories_to_best, calls))
    assert traces[0] == traces[1]


def test_longer_budget_never_loses_ground():
    graph = matmul_bias_graph()
    short = run(graph, AB, budget=40, seed=3)
    long = run(graph, AB, budget=400, seed=3)
    m_short = cm.metric_value(short.best_cost, cm.PENALIZED_RUNTIME)
    m_long = cm.metric_value(long.best_cost, cm.PENALIZED_RUNTIME)
    assert m_long <= m_short


def test_transpositions_collapse_to_distinct_states():
    graph = matmul_bias_graph()
    start = engine.initial_state(graph, AB)
    reachable = len(oracle.enumerate_states(start))
    r = run(graph, AB, budget=500)
    assert r.distinct_states_visited <= reachable


def test_axis_with_no_legal_actions_returns_the_start():
    bld = ir.GraphBuilder("odd")
    bld.arg("x", (3, 5), role=ir.Role.DATA, group="d")
    bld.output(bld.elementwise("relu", "x"))
    r = run(bld.build(), A2, axis="a", budget=25)
    assert r.trajectories_used == 0
    assert r.distinct_states_visited == 1
    assert r.best_state.fingerprint.digest == "()"


def test_the_start_is_returned_exactly_when_nothing_beat_it():
    rng = random.Random(17)
    beaten_seen = set()
    for k in range(30):
        graph = matmul_bias_graph() if k % 3 == 0 else random_graph(rng, max_groups=3, max_ops=5)
        mesh = random_mesh(rng)
        objective = (cm.RUNTIME, cm.MEMORY, cm.PENALIZED_RUNTIME)[k % 3]
        cost_cfg = cm.default_config(mesh)
        start = engine.initial_state(graph, mesh)
        baseline = cm.metric_value(cm.estimate(start, cost_cfg), objective)
        cfg = mcts.SearchConfig(trajectory_budget=rng.randint(1, 20), seed=k, objective=objective)
        r = mcts.run_search(start, None, cfg, cost_cfg)
        beaten = r.trajectories_to_best > 0
        assert (r.best_state is not start) == beaten
        if beaten:
            assert cm.metric_value(r.best_cost, objective) < baseline
        else:
            assert cm.metric_value(r.best_cost, objective) == baseline
        beaten_seen.add(beaten)
    assert beaten_seen == {True, False}


def test_max_depth_bounds_the_returned_plan():
    r = run(matmul_bias_graph(), AB, budget=300, max_depth=1)
    assert len(r.best_state.applied) <= 1


def test_trace_reports_every_trajectory_in_order():
    calls = []
    start = engine.initial_state(matmul_bias_graph(), A2)
    cfg = mcts.SearchConfig(trajectory_budget=30, seed=1)
    r = mcts.run_search(start, None, cfg, cm.default_config(A2), trace=lambda *a: calls.append(a))
    assert len(calls) == r.trajectories_used == 30
    assert [c[0] for c in calls] == list(range(1, 31))
    best_metrics = [c[4] for c in calls]
    assert all(b2 <= b1 for b1, b2 in zip(best_metrics, best_metrics[1:]))


def test_search_matches_exhaustive_optimum_on_small_graphs():
    graph = matmul_bias_graph()
    for mesh, objective in (
        (A2, cm.PENALIZED_RUNTIME),
        (AB, cm.PENALIZED_RUNTIME),
        (AB, cm.RUNTIME),
        (AB, cm.MEMORY),
    ):
        cost_cfg = cm.default_config(mesh)
        start = engine.initial_state(graph, mesh)
        _, best = oracle.exhaustive_best(start, objective=objective, cost_cfg=cost_cfg)
        cfg = mcts.SearchConfig(trajectory_budget=400, seed=0, objective=objective)
        r = mcts.run_search(start, None, cfg, cost_cfg)
        assert cm.metric_value(r.best_cost, objective) == pytest.approx(
            cm.metric_value(best, objective)
        )


def test_search_matches_exhaustive_optimum_on_random_graphs():
    rng = random.Random(99)
    solved = 0
    for _ in range(12):
        graph = random_graph(rng, max_groups=3, max_ops=5)
        mesh = random_mesh(rng, max_axes=1)
        cost_cfg = cm.default_config(mesh)
        start = engine.initial_state(graph, mesh)
        _, best = oracle.exhaustive_best(start, cost_cfg=cost_cfg)
        cfg = mcts.SearchConfig(trajectory_budget=300, seed=5)
        r = mcts.run_search(start, None, cfg, cost_cfg)
        assert cm.metric_value(r.best_cost, cm.PENALIZED_RUNTIME) == pytest.approx(
            best.penalized_cost
        )
        solved += 1
    assert solved == 12
