"""Tree search behavior: rewards, UCT selection, budgets, and optimality."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies

from meshpart import costmodel as cm
from meshpart import controller as ctl
from meshpart import engine, ir, mcts, models, oracle
from _random_graphs import matmul_bias_graph, random_graph, random_mesh

A2 = ir.Mesh((ir.MeshAxis("a", 2),))
AB = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 2)))
BATCH_MODEL = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))


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


def node(visits: int = 0, total: float = 0.0, state=None) -> mcts.SearchNode:
    # selection reads only the statistics and the children's digests
    n = mcts.SearchNode(state or engine.initial_state(matmul_bias_graph(), A2))
    n.visit_count = visits
    n.total_value = total
    return n


def parented(children: dict[bytes, mcts.SearchNode]) -> mcts.SearchNode:
    p = node(visits=sum(c.visit_count for c in children.values()))
    p.children = dict(children)
    return p


def test_uct_balances_value_against_visit_count():
    a, b = node(2, 0.6), node(8, 3.2)
    parent = parented({"s_a": a, "s_b": b})
    # 0.3 + sqrt(ln 10 / 2) = 1.373 beats 0.4 + sqrt(ln 10 / 8) = 0.936
    assert mcts.select_child(parent) is a


def test_unvisited_children_have_priority_and_ties_pick_smallest_digest():
    root = engine.initial_state(matmul_bias_graph(), A2)
    late, early, other = (
        engine.apply_action(root, engine.Action(g, d, "a")) for g, d in ((0, 1), (0, 0), (1, 1))
    )
    # the children are keyed by ident as in a search, and the two orders
    # disagree, so a tie broken on the keys would pick the other child
    assert early.fingerprint.digest < late.fingerprint.digest
    assert early.ident > late.ident
    fresh_late, fresh_early = node(state=late), node(state=early)
    seasoned = node(5, 5.0, state=other)
    parent = parented({n.state.ident: n for n in (fresh_late, fresh_early, seasoned)})
    # both unvisited score inf, and the smaller digest wins
    assert mcts.select_child(parent) is fresh_early


def test_select_child_requires_children():
    with pytest.raises(ValueError):
        mcts.select_child(node())


def test_search_config_validation():
    with pytest.raises(ValueError):
        mcts.SearchConfig(trajectory_budget=-1)
    with pytest.raises(ValueError, match="max_depth"):
        mcts.SearchConfig(trajectory_budget=5, max_depth=-1)


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


@pytest.mark.parametrize("objective", cm.OBJECTIVES)
def test_zero_budget_returns_the_start_without_a_trajectory(objective):
    start = engine.initial_state(matmul_bias_graph(), AB)
    assert engine.legal_actions(start, None)
    cost_cfg = cm.default_config(AB)
    cfg = mcts.SearchConfig(trajectory_budget=0, objective=objective)
    calls = []
    r = mcts.run_search(start, None, cfg, cost_cfg, trace=lambda *a: calls.append(a))
    assert r.best_state is start
    assert r.best_cost == cm.estimate(start, cost_cfg)
    assert r.trajectories_used == r.trajectories_to_best == 0
    assert r.distinct_states_visited == 1
    assert calls == []


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


def watch_counts(monkeypatch) -> list:
    """Watch each `run_search` call for the digests its count covers.

    Returns one entry per search: its result, the digests of the states it
    made tree nodes of, and the terminal digests its trace reported.
    """
    searches = []
    real_init, real_search = mcts.SearchNode.__init__, mcts.run_search

    def init(self, state):
        real_init(self, state)
        searches[-1][1].add(state.fingerprint.digest)

    def run_search(*args, trace=None, **kwargs):
        entry = [None, set(), set()]
        searches.append(entry)

        def traced(t, depth, digest, r, best):
            entry[2].add(digest)
            if trace is not None:
                trace(t, depth, digest, r, best)

        entry[0] = real_search(*args, trace=traced, **kwargs)
        return entry[0]

    monkeypatch.setattr(mcts.SearchNode, "__init__", init)
    monkeypatch.setattr(mcts, "run_search", run_search)
    return searches


def test_each_goal_counts_its_tree_nodes_and_terminals_once(monkeypatch):
    """`distinct_states_visited` is the number of distinct digests among the
    tree's nodes and the trajectories' terminals; a terminal that is or
    later becomes a node counts once."""
    searches = watch_counts(monkeypatch)
    graph = models.build_named_model("gns")
    s = ctl.builtin_schedule("RT_MP_ALL", BATCH_MODEL, 600)
    out = ctl.run_schedule(engine.initial_state(graph, BATCH_MODEL), s, seed=0)
    assert [o.result for o in out.goal_outcomes] == [r for r, _, _ in searches]
    for result, nodes, terminals in searches:
        assert result.distinct_states_visited == len(nodes | terminals)
        assert terminals & nodes and terminals - nodes  # both kinds of terminal occur


def test_the_count_is_the_tree_nodes_and_terminals_on_random_graphs(monkeypatch):
    searches = watch_counts(monkeypatch)
    rng = random.Random(31)
    for k in range(20):
        graph = random_graph(rng, max_groups=4, max_ops=6)
        mesh = random_mesh(rng)
        axis = rng.choice([None, *(a.name for a in mesh.axes)])
        start = engine.initial_state(graph, mesh)
        cfg = mcts.SearchConfig(trajectory_budget=rng.randint(1, 60), seed=k)
        r = mcts.run_search(start, axis, cfg, cm.default_config(mesh))
        _, nodes, terminals = searches[-1]
        # the start counts even when it has no legal action and makes no node
        assert r.distinct_states_visited == len(nodes | terminals | {start.fingerprint.digest})


def test_a_search_builds_no_ident_for_a_state_its_rollout_passes_through(monkeypatch):
    """Only the start, expansion children (new or grouped) and rollout
    terminals build an ident; a rollout state that the walk leaves again
    builds none."""
    built, applies = [], [[]]
    real_ident, real_apply = engine.ModuleState.ident.fget, engine.StateCache.apply

    def ident(self):
        if self._ident is None:
            built.append(self)
        return real_ident(self)

    def apply(cache, state, action):
        made = real_apply(cache, state, action)
        applies[-1].append((state, made))
        return made

    monkeypatch.setattr(engine.ModuleState, "ident", property(ident))
    monkeypatch.setattr(engine.StateCache, "apply", apply)
    graph = models.build_named_model("gns")
    start = engine.initial_state(graph, BATCH_MODEL)
    cfg = mcts.SearchConfig(trajectory_budget=300, seed=2)
    mcts.run_search(start, None, cfg, cm.default_config(BATCH_MODEL),
                    trace=lambda *a: applies.append([]))
    expansion, passed, terminals = [], [], []
    for made in applies[:-1]:
        # a trajectory's expansion applies all leave the node being expanded,
        # a state no apply of this trajectory made; its rollout then walks a
        # chain from the expansion child, each step leaving the last state
        chain = len(made) - 1
        while chain > 0 and made[chain][0] is made[chain - 1][1]:
            chain -= 1
        expansion += [m for _, m in made[:chain + 1]]
        rollout = [m for _, m in made[chain + 1:]]
        passed += rollout[:-1]
        terminals += rollout[-1:]
    assert passed
    assert not {id(s) for s in built} & {id(s) for s in passed}
    assert {id(s) for s in built} == {id(s) for s in [start, *expansion, *terminals]}


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


@settings(max_examples=40, deadline=None)
@given(graph_seed=strategies.integers(0, 2**32 - 1), seed=strategies.integers(0, 2**32 - 1))
def test_search_and_enumeration_share_the_start_tables(graph_seed, seed):
    rng = random.Random(graph_seed)
    graph = random_graph(rng)
    mesh = random_mesh(rng)
    start = engine.initial_state(graph, mesh)
    cost_cfg = cm.default_config(mesh)
    priced = []
    real_estimate = cm.estimate

    def recording_estimate(state, cfg):
        priced.append(state)
        return real_estimate(state, cfg)

    # neither compiles tables of its own: every state it makes is start's
    with mock.patch.object(cm, "estimate", recording_estimate), \
            mock.patch.object(engine, "_Compiled", side_effect=AssertionError("compiled")):
        cfg = mcts.SearchConfig(trajectory_budget=30, seed=seed)
        result = mcts.run_search(start, None, cfg, cost_cfg)
        oracle.enumerate_states(start, cost_cfg=cost_cfg)
    assert len(priced) > 1
    assert all(state._comp is start._comp for state in [result.best_state, *priced])
