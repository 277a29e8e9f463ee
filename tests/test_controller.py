"""Goal sequencing: budget splits, commit rules, built-ins, and parsing."""

import gc
import weakref

import pytest

from meshpart import controller as ctl
from meshpart import costmodel as cm
from meshpart import engine, ir, mcts, models
from meshpart.errors import ConfigError
from _random_graphs import matmul_bias_graph

A2 = ir.Mesh((ir.MeshAxis("a", 2),))
AB = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 2)))
BATCH_MODEL = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))

RT, MEM, MP = cm.RUNTIME, cm.MEMORY, cm.PENALIZED_RUNTIME


# --- budgets -----------------------------------------------------------------


def sched(goals, total):
    return ctl.Schedule("t", tuple(goals), total)


def test_auto_budgets_split_evenly_with_remainder_on_the_last():
    s = sched([ctl.Goal("a", RT), ctl.Goal("b", RT), ctl.Goal("a", MEM)], 100)
    assert ctl.resolve_budgets(s) == [33, 33, 34]


def test_explicit_budgets_are_kept_and_the_rest_is_shared():
    s = sched([ctl.Goal("a", RT, budget=10), ctl.Goal("b", RT), ctl.Goal("a", MEM)], 100)
    assert ctl.resolve_budgets(s) == [10, 45, 45]
    s = sched([ctl.Goal("a", RT), ctl.Goal("b", RT, budget=7), ctl.Goal("a", MEM)], 20)
    assert ctl.resolve_budgets(s) == [6, 7, 7]


def test_overcommitted_explicit_budgets_leave_autos_empty():
    s = sched([ctl.Goal("a", RT, budget=50), ctl.Goal("b", RT)], 30)
    assert ctl.resolve_budgets(s) == [50, 0]


def test_goal_and_schedule_validation():
    with pytest.raises(ConfigError):
        ctl.Goal("a", "Speed")
    with pytest.raises(ConfigError):
        ctl.Goal("a", RT, budget=-1)
    with pytest.raises(ConfigError):
        ctl.Schedule("s", (), 10)
    with pytest.raises(ConfigError):
        ctl.Schedule("s", (ctl.Goal("a", RT),), -5)


# --- built-in schedules ------------------------------------------------------


def test_builtin_rt_mem_all_covers_every_axis_twice():
    s = ctl.builtin_schedule("RT_MEM_ALL", AB, 400)
    assert [(g.axis, g.objective) for g in s.goals] == [
        ("a", RT),
        ("b", RT),
        ("a", MEM),
        ("b", MEM),
    ]
    assert s.total_budget == 400


def test_builtin_two_axis_schedules_need_two_axes():
    s = ctl.builtin_schedule("rt1_rt2_mem1", AB, 90)  # names are case-insensitive
    assert [(g.axis, g.objective) for g in s.goals] == [("a", RT), ("b", RT), ("a", MEM)]
    s = ctl.builtin_schedule("RT1_RT2_MEM2", AB, 90)
    assert [(g.axis, g.objective) for g in s.goals] == [("a", RT), ("b", RT), ("b", MEM)]
    with pytest.raises(ConfigError):
        ctl.builtin_schedule("RT1_RT2_MEM1", A2, 90)


def test_builtin_penalized_schedule_doubles_the_slope_per_axis():
    s = ctl.builtin_schedule("RT_MP_ALL", AB, 100)
    assert [(g.axis, g.objective, g.penalty_scale) for g in s.goals] == [
        ("a", MP, 1.0),
        ("b", MP, 2.0),
    ]


def test_builtin_none_is_one_unrestricted_goal():
    s = ctl.builtin_schedule("NONE", AB, 100)
    assert len(s.goals) == 1
    assert s.goals[0].axis is None
    assert s.goals[0].objective == MP


def test_unknown_builtin_name_is_rejected():
    with pytest.raises(ConfigError):
        ctl.builtin_schedule("FASTEST", AB, 10)


# --- schedule parsing --------------------------------------------------------


def test_parse_schedule_accepts_triples_and_builtins():
    s = ctl.parse_schedule("a:rt,b:mem:50", AB, 200)
    assert [(g.axis, g.objective, g.budget) for g in s.goals] == [
        ("a", RT, 0),
        ("b", MEM, 50),
    ]
    s = ctl.parse_schedule("*:mp", AB, 200)
    assert s.goals[0].axis is None
    s = ctl.parse_schedule("none", AB, 200)
    assert s.name == "NONE"


def test_only_star_means_every_axis_so_an_axis_named_all_can_be_targeted():
    mesh = ir.Mesh((ir.MeshAxis("all", 2), ir.MeshAxis("model", 2)))
    s = ctl.parse_schedule("all:rt,model:mem", mesh, 200)
    assert [g.axis for g in s.goals] == ["all", "model"]


def test_parse_schedule_error_messages_name_the_problem():
    with pytest.raises(ConfigError, match="expected axis:objective"):
        ctl.parse_schedule("BOGUS", AB, 100)
    with pytest.raises(ConfigError, match="unknown axis"):
        ctl.parse_schedule("z:rt", AB, 100)
    with pytest.raises(ConfigError, match="unknown objective"):
        ctl.parse_schedule("a:speed", AB, 100)
    with pytest.raises(ConfigError, match="non-integer budget"):
        ctl.parse_schedule("a:rt:soon", AB, 100)
    with pytest.raises(ConfigError, match="empty goal"):
        ctl.parse_schedule("a:rt,,b:mem", AB, 100)
    for budget in ("0", "-5"):
        with pytest.raises(ConfigError, match="positive budget; omit it for an even share"):
            ctl.parse_schedule(f"a:rt:{budget},b:rt", AB, 100)


# --- running schedules -------------------------------------------------------


def test_schedule_only_commits_strict_improvements():
    graph = matmul_bias_graph()
    s = sched([ctl.Goal("a", RT, budget=200), ctl.Goal("a", RT, budget=200)], 400)
    out = ctl.run_schedule(engine.initial_state(graph, A2), s, seed=0)
    assert out.goal_outcomes[0].committed is True
    # the first goal already found the axis optimum; no strict improvement left
    assert out.goal_outcomes[1].committed is False
    assert (
        out.final_state.fingerprint
        == out.goal_outcomes[0].result.best_state.fingerprint
    )


def test_zero_budget_schedule_is_a_no_op():
    graph = matmul_bias_graph()
    s = sched([ctl.Goal("a", RT), ctl.Goal("a", MEM)], 0)
    out = ctl.run_schedule(engine.initial_state(graph, A2), s, seed=0)
    assert out.plan == ()
    assert all(not o.committed for o in out.goal_outcomes)
    assert out.final_state.fingerprint.digest == "()"


def test_a_zero_budget_goal_between_searching_goals_never_commits(monkeypatch):
    # One digest can cover states of different cost, so pricing the current
    # state afresh may disagree with the price the search cached for its
    # digest.  Model that by making every pricing a little cheaper than the
    # one before: a goal that runs no trajectory must still not commit.
    real_estimate = cm.estimate
    calls = []

    def drifting_estimate(state, cfg):
        calls.append(None)
        est = real_estimate(state, cfg)
        runtime = est.runtime_seconds * (1.0 - 1e-6 * len(calls))
        return cm.CostEstimate(runtime, est.peak_memory_bytes, est.counts, runtime)

    monkeypatch.setattr(cm, "estimate", drifting_estimate)
    graph = matmul_bias_graph()
    s = sched([ctl.Goal("a", RT, budget=40), ctl.Goal("b", RT), ctl.Goal("b", MEM, budget=40)], 80)
    start = engine.initial_state(graph, AB)
    for seed in range(3):
        first, idle, _ = ctl.run_schedule(start, s, seed=seed).goal_outcomes
        assert first.committed
        assert idle.budget == 0 and idle.result.trajectories_to_best == 0
        assert not idle.committed
        assert idle.result.best_state is first.result.best_state


def test_goals_only_improve_their_own_metric():
    graph = matmul_bias_graph()
    baseline = cm.estimate(
        engine.initial_state(graph, AB), cm.default_config(AB)
    )
    rt_only = sched([ctl.Goal("a", RT, budget=150), ctl.Goal("b", RT, budget=150)], 300)
    out = ctl.run_schedule(engine.initial_state(graph, AB), rt_only, seed=1)
    assert out.final_cost.runtime_seconds <= baseline.runtime_seconds

    mem_only = sched([ctl.Goal("a", MEM, budget=150), ctl.Goal("b", MEM, budget=150)], 300)
    out = ctl.run_schedule(engine.initial_state(graph, AB), mem_only, seed=1)
    assert out.final_cost.peak_memory_bytes <= baseline.peak_memory_bytes
    # a memory goal is free to spend runtime (collectives) to shrink the peak;
    # the combined schedule therefore guarantees no cross-metric bound


def test_plan_replays_to_the_final_state():
    graph = matmul_bias_graph()
    s = ctl.builtin_schedule("RT_MEM_ALL", AB, 300)
    out = ctl.run_schedule(engine.initial_state(graph, AB), s, seed=2)
    replayed = engine.replay_plan(graph, AB, out.plan)
    assert replayed.fingerprint == out.final_state.fingerprint


def test_same_seed_reproduces_the_whole_schedule():
    graph = matmul_bias_graph()
    s = ctl.builtin_schedule("RT_MEM_ALL", AB, 200)
    a = ctl.run_schedule(engine.initial_state(graph, AB), s, seed=9)
    b = ctl.run_schedule(engine.initial_state(graph, AB), s, seed=9)
    assert a.final_state.fingerprint == b.final_state.fingerprint
    assert a.plan == b.plan
    assert [o.committed for o in a.goal_outcomes] == [o.committed for o in b.goal_outcomes]


def test_rollover_passes_leftover_trajectories_forward():
    graph = matmul_bias_graph()
    s = sched([ctl.Goal("a", RT, budget=60), ctl.Goal("b", RT, budget=60)], 120)
    out = ctl.run_schedule(engine.initial_state(graph, AB), s, seed=4, rollover=True)
    first = out.goal_outcomes[0]
    second = out.goal_outcomes[1]
    if first.committed:
        carry = 60 - first.result.trajectories_to_best
        assert second.budget == 60 + carry
        assert carry > 0
    else:  # pragma: no cover - seed 4 commits on this graph
        assert second.budget == 60


def test_trace_indices_run_consecutively_across_goals():
    graph = matmul_bias_graph()
    s = sched([ctl.Goal("a", RT, budget=25), ctl.Goal("b", RT, budget=25)], 50)
    seen = []
    start = engine.initial_state(graph, AB)
    ctl.run_schedule(start, s, seed=3, trace=lambda *a: seen.append(a[0]))
    assert seen == list(range(1, len(seen) + 1))
    assert len(seen) == 50


def test_unrestricted_goal_uses_every_axis():
    graph = matmul_bias_graph()
    s = ctl.builtin_schedule("NONE", AB, 300)
    out = ctl.run_schedule(engine.initial_state(graph, AB), s, seed=0)
    axes_used = {a.axis for a in out.plan}
    assert axes_used <= {"a", "b"}
    assert out.goal_outcomes[0].result.trajectories_used == 300


def outcome_summary(out: ctl.ScheduleOutcome) -> tuple:
    return out.plan, out.final_cost, [
        (o.budget, o.committed, o.result.best_cost, o.result.trajectories_to_best,
         o.result.distinct_states_visited, o.result.best_state.applied)
        for o in out.goal_outcomes
    ]


def test_a_root_shared_across_seeds_changes_no_outcome(monkeypatch):
    # every seed of a command starts from one root, whose tables keep the
    # closed rows of the action sets and the analyses of the states that
    # earlier seeds made and priced
    calls = {"_analyze": 0, "_close": 0}

    def counted(module, name: str):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(cm, "_analyze")
    counted(engine, "_close")
    graph = models.build_named_model("gns")
    s = ctl.builtin_schedule("RT_MP_ALL", AB, 300)
    fresh_root = engine.initial_state(graph, AB)
    calls.update(_analyze=0, _close=0)
    fresh = ctl.run_schedule(fresh_root, s, seed=1)
    fresh_calls = dict(calls)
    shared = engine.initial_state(graph, AB)
    ctl.run_schedule(shared, s, seed=0)
    calls.update(_analyze=0, _close=0)
    warm = ctl.run_schedule(shared, s, seed=1)
    assert outcome_summary(warm) == outcome_summary(fresh)
    assert 0 < calls["_analyze"] < fresh_calls["_analyze"]
    assert 0 < calls["_close"] < fresh_calls["_close"]
    calls.update(_analyze=0, _close=0)
    again = ctl.run_schedule(shared, s, seed=1)
    assert outcome_summary(again) == outcome_summary(fresh)
    assert calls == {"_analyze": 0, "_close": 0}


def watch_searches(monkeypatch) -> tuple[list, list, list]:
    """Watch each `run_search` call and the states `apply_action` makes in it.

    Returns (made, results, alive): per search, weak references to the
    fingerprints of the states it made (a `ModuleState` has slots and no
    `__weakref__`), its result, and those of its states still alive when
    the next search starts.
    """
    made, results, alive = [], [], []
    real_apply, real_search = engine.apply_action, mcts.run_search

    def apply_action(state, action):
        new = real_apply(state, action)
        made[-1].append(weakref.ref(new.fingerprint))
        return new

    def run_search(*args, **kwargs):
        if made:
            gc.collect()
            alive.append([fp for ref in made[-1] if (fp := ref()) is not None])
        made.append([])
        results.append(real_search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(engine, "apply_action", apply_action)
    monkeypatch.setattr(mcts, "run_search", run_search)
    return made, results, alive


def test_a_goals_search_frees_every_state_but_the_one_it_returns(monkeypatch):
    made, results, alive = watch_searches(monkeypatch)
    graph = models.build_named_model("gns")
    s = ctl.builtin_schedule("RT_MP_ALL", BATCH_MODEL, 400)
    out = ctl.run_schedule(engine.initial_state(graph, BATCH_MODEL), s, seed=0)
    assert out.goal_outcomes[0].committed and len(made[0]) > 100
    (left,) = alive  # when the second goal's search starts
    assert len(left) == 1 and left[0] is results[0].best_state.fingerprint


def test_a_search_keeps_only_its_tree_states_its_best_and_its_terminal(monkeypatch):
    """A state that no tree node holds dies with its trajectory: at
    trajectory t, at most t tree nodes (one per expansion), the best state
    and the terminal are alive of the states the search made."""
    made, _, _ = watch_searches(monkeypatch)
    excess = []

    def trace(t, *_):
        gc.collect()
        excess.append(sum(ref() is not None for ref in made[-1]) - t)

    start = engine.initial_state(models.build_named_model("gns"), BATCH_MODEL)
    mcts.run_search(start, None, mcts.SearchConfig(300, seed=0),
                    cm.default_config(BATCH_MODEL), trace=trace)
    assert len(excess) == 300 and len(made[0]) > 1000
    assert max(excess) <= 2


@pytest.mark.parametrize("model, spec, budget, seed", [
    # the second goal searches the same axis again, so it reaches sets the
    # first goal reached, here by another order
    ("unet", "batch:rt,batch:mem", 200, 0),
    # a best state whose set the search had made before by another order
    ("gns", "RT_MP_ALL", 400, 3),
])
def test_each_goal_reports_the_order_its_own_search_first_made_its_set_by(
    monkeypatch, model, spec, budget, seed
):
    """Each goal reports the order of the path by which its own search made
    its best state: that state object came from this goal's search, not an
    earlier goal's, and its order replays to the same state."""
    made, results, _ = watch_searches(monkeypatch)
    graph = models.build_named_model(model)
    s = ctl.parse_schedule(spec, BATCH_MODEL, budget)
    out = ctl.run_schedule(engine.initial_state(graph, BATCH_MODEL), s, seed=seed)
    assert [o.result for o in out.goal_outcomes] == results
    assert all(r.trajectories_to_best > 0 for r in results)
    for i, r in enumerate(results):
        fp = r.best_state.fingerprint
        owners = [j for j, refs in enumerate(made) if any(ref() is fp for ref in refs)]
        assert owners == [i]
    for r in results:
        best = r.best_state
        assert engine.replay_plan(graph, BATCH_MODEL, best.applied).fingerprint == best.fingerprint
