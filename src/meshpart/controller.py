"""Goal schedules: decompose an objective into per-axis searches and commit wins.

A schedule is an ordered list of (axis, objective) goals sharing one
trajectory budget.  Goals run sequentially: each searches from the current
committed state, restricted to its axis (None searches every axis at once),
and its best state is committed exactly when the search found a state that
strictly improves the goal's own metric on the start state
(`trajectories_to_best > 0`), so a goal with no budget never commits.
Goals with explicit budgets keep them; the rest split the remaining total
evenly, remainder to the last.

Built-in schedules (axis order = mesh declaration order, first axis is the
batch-like one):

* RT_MEM_ALL:    runtime on every axis, then memory on every axis
* RT1_RT2_MEM1:  runtime on axes 1 and 2, then memory on axis 1
* RT1_RT2_MEM2:  runtime on axes 1 and 2, then memory on axis 2
* RT_MP_ALL:     penalized runtime per axis, memory penalty doubling per goal
* NONE:          one unrestricted goal on penalized runtime (no goal
                 decomposition; actions from all axes compete in one search)
"""

from __future__ import annotations

import dataclasses
import random

from . import costmodel, engine, ir, mcts
from .errors import ConfigError


@dataclasses.dataclass(frozen=True)
class Goal:
    axis: str | None  # None: actions from every mesh axis
    objective: str
    budget: int = 0  # 0: even share of the schedule's remaining total
    penalty_scale: float = 1.0  # multiplies memory_penalty_slope for this goal

    def __post_init__(self):
        if self.objective not in costmodel.OBJECTIVES:
            raise ConfigError(
                f"unknown objective {self.objective!r}; expected one of "
                f"{costmodel.OBJECTIVES}"
            )
        if self.budget < 0:
            raise ConfigError("goal budget must be >= 0")


@dataclasses.dataclass(frozen=True)
class Schedule:
    name: str
    goals: tuple[Goal, ...]
    total_budget: int

    def __post_init__(self):
        if not self.goals:
            raise ConfigError("schedule needs at least one goal")
        if self.total_budget < 0:
            raise ConfigError("total budget must be >= 0")


@dataclasses.dataclass(frozen=True)
class GoalOutcome:
    goal: Goal
    budget: int
    result: mcts.SearchResult
    committed: bool


@dataclasses.dataclass(frozen=True)
class ScheduleOutcome:
    schedule: Schedule
    goal_outcomes: tuple[GoalOutcome, ...]
    final_state: engine.ModuleState
    final_cost: costmodel.CostEstimate
    plan: tuple[engine.Action, ...]


def resolve_budgets(schedule: Schedule) -> list[int]:
    """Per-goal budgets: explicit ones kept, zeros split the rest evenly.

    The division remainder goes to the last auto-budget goal so the total
    is conserved exactly.
    """
    explicit = sum(g.budget for g in schedule.goals)
    autos = [i for i, g in enumerate(schedule.goals) if g.budget == 0]
    budgets = [g.budget for g in schedule.goals]
    if autos:
        pool = max(schedule.total_budget - explicit, 0)
        share = pool // len(autos)
        for i in autos:
            budgets[i] = share
        budgets[autos[-1]] += pool - share * len(autos)
    return budgets


def _check_state(state: engine.ModuleState) -> None:
    # single-use and divisibility must survive propagation on every value
    graph = state.graph
    types = {a.id: a.type for a in graph.args} | {op.id: op.result_type for op in graph.ops}
    for vid, sharding in state.shardings.items():
        ir.validate_sharding(types[vid], sharding, state.mesh)


def run_schedule(
    start: engine.ModuleState,
    schedule: Schedule,
    cost_cfg: costmodel.CostModelConfig | None = None,
    seed: int = 0,
    rollover: bool = False,
    trace: mcts.TraceFn | None = None,
) -> ScheduleOutcome:
    """Run every goal in order from `start` and return the final committed
    state and plan.

    `start` is normally the replicated state of `engine.initial_state`, and
    every state the schedule reaches shares its tables.  All randomness
    derives from `seed`.  With rollover enabled, a committed goal passes its
    unused trajectories (budget minus trajectories-to-best) on to the next
    goal.  The trace callback sees trajectory indices numbered consecutively
    across goals.
    """
    if cost_cfg is None:
        cost_cfg = costmodel.default_config(start.mesh)
    state = start
    master = random.Random(seed)
    goal_seeds = [master.getrandbits(32) for _ in schedule.goals]
    budgets = resolve_budgets(schedule)
    estimate_caches: dict[float, dict[str, costmodel.CostEstimate]] = {}
    outcomes: list[GoalOutcome] = []
    carry = 0
    trajectories_before = 0

    for i, goal in enumerate(schedule.goals):
        budget = budgets[i] + carry
        carry = 0
        gcfg = dataclasses.replace(
            cost_cfg, memory_penalty_slope=cost_cfg.memory_penalty_slope * goal.penalty_scale
        )
        scfg = mcts.SearchConfig(
            trajectory_budget=budget, seed=goal_seeds[i], objective=goal.objective
        )
        goal_trace = None
        if trace is not None:
            goal_trace = lambda t, d, fp, r, b, _o=trajectories_before: trace(_o + t, d, fp, r, b)
        result = mcts.run_search(
            state,
            goal.axis,
            scfg,
            gcfg,
            estimate_cache=estimate_caches.setdefault(goal.penalty_scale, {}),
            trace=goal_trace,
        )
        trajectories_before += result.trajectories_used
        # the search found a state that beats the start on the goal's metric
        committed = result.trajectories_to_best > 0
        if committed:
            state = result.best_state
            _check_state(state)
            if rollover:
                carry = max(0, budget - result.trajectories_to_best)
        outcomes.append(GoalOutcome(goal, budget, result, committed))

    final_cost = costmodel.estimate(state, cost_cfg)
    return ScheduleOutcome(
        schedule, tuple(outcomes), state, final_cost, tuple(state.applied)
    )


# --- schedule construction ---------------------------------------------------

BUILTIN_SCHEDULES = ("RT_MEM_ALL", "RT1_RT2_MEM1", "RT1_RT2_MEM2", "RT_MP_ALL", "NONE")


def builtin_schedule(name: str, mesh: ir.Mesh, total_budget: int) -> Schedule:
    """Construct one of the named schedules for this mesh (case-insensitive)."""
    key = name.strip().upper()
    axes = mesh.axis_names
    rt, mem, mp = costmodel.RUNTIME, costmodel.MEMORY, costmodel.PENALIZED_RUNTIME
    if key in ("RT1_RT2_MEM1", "RT1_RT2_MEM2") and len(axes) < 2:
        raise ConfigError(f"schedule {key} needs a mesh with at least 2 axes")
    if key == "RT_MEM_ALL":
        goals = [Goal(a, rt) for a in axes] + [Goal(a, mem) for a in axes]
    elif key == "RT1_RT2_MEM1":
        goals = [Goal(axes[0], rt), Goal(axes[1], rt), Goal(axes[0], mem)]
    elif key == "RT1_RT2_MEM2":
        goals = [Goal(axes[0], rt), Goal(axes[1], rt), Goal(axes[1], mem)]
    elif key == "RT_MP_ALL":
        goals = [Goal(a, mp, penalty_scale=float(2**i)) for i, a in enumerate(axes)]
    elif key == "NONE":
        goals = [Goal(None, mp)]
    else:
        raise ConfigError(
            f"unknown schedule {name!r}; built-ins are {', '.join(BUILTIN_SCHEDULES)}"
        )
    return Schedule(key, tuple(goals), total_budget)


_OBJECTIVE_TOKENS = {
    "rt": costmodel.RUNTIME,
    "runtime": costmodel.RUNTIME,
    "mem": costmodel.MEMORY,
    "memory": costmodel.MEMORY,
    "mp": costmodel.PENALIZED_RUNTIME,
    "penalized": costmodel.PENALIZED_RUNTIME,
    "penalizedruntime": costmodel.PENALIZED_RUNTIME,
}


def parse_schedule(text: str, mesh: ir.Mesh, total_budget: int) -> Schedule:
    """A built-in name, or comma-separated `axis:objective[:budget]` triples.

    The axis may be `*` for an unrestricted goal (a mesh axis name is an
    identifier, so never `*`); objectives accept the short tokens rt / mem /
    mp.
    """
    if text.strip().upper() in BUILTIN_SCHEDULES:
        return builtin_schedule(text, mesh, total_budget)
    goals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"empty goal in schedule spec {text!r}")
        pieces = part.split(":")
        if len(pieces) not in (2, 3):
            raise ConfigError(
                f"bad goal {part!r}; expected axis:objective or axis:objective:budget"
            )
        axis_token = pieces[0].strip()
        axis = None if axis_token == "*" else axis_token
        if axis is not None and not mesh.has_axis(axis):
            raise ConfigError(
                f"goal {part!r} names unknown axis {axis!r}; mesh has {mesh.axis_names}"
            )
        objective = _OBJECTIVE_TOKENS.get(pieces[1].strip().lower())
        if objective is None:
            raise ConfigError(
                f"goal {part!r} has unknown objective {pieces[1]!r}; "
                f"use rt, mem, or mp"
            )
        budget = 0
        if len(pieces) == 3:
            try:
                budget = int(pieces[2])
            except ValueError as e:
                raise ConfigError(f"goal {part!r} has non-integer budget") from e
            if budget <= 0:  # Goal.budget 0 means an even share, so ":0" would mean one
                raise ConfigError(
                    f"goal {part!r} needs a positive budget; omit it for an even share"
                )
        goals.append(Goal(axis, objective, budget))
    return Schedule(text, tuple(goals), total_budget)
