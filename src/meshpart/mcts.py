"""Monte Carlo tree search over partitioning actions.

The tree is built over canonical state fingerprints, not action sequences:
a global transposition table maps each digest to a single node, so every
action order and action set that closes to the same argument-group shardings
shares one set of statistics.  A fingerprint does not cover op results,
which different action sets may shard differently: a node keeps the state of
the action set that first expanded into it, and the estimate cache keeps the
cost of the first state priced under a digest.  During expansion, actions
that land on an already-known child of the current node are recorded as
extra edges to it and are never simulated again.

Each trajectory runs selection (UCT over children), one expansion, and a
uniform random rollout that may stop early: at every rollout step the stop
choice is one extra slot next to the legal actions, so it is taken with
probability 1/(1+|legal|).  The terminal state's cost yields the reward,
normalized against the episode-start baseline, and the best state is
tracked over every evaluated terminal, rollout endpoints included.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable

from . import costmodel, engine

TraceFn = Callable[[int, int, str, float, float], None]
"""Called once per trajectory: (index, depth, terminal digest, reward, best metric)."""


@dataclasses.dataclass
class SearchConfig:
    trajectory_budget: int
    uct_c: float = 1.0
    max_depth: int | None = None  # None: number of equi-shard groups
    seed: int = 0
    objective: str = costmodel.PENALIZED_RUNTIME

    def __post_init__(self):
        if self.trajectory_budget < 1:
            raise ValueError("trajectory_budget must be >= 1")
        if self.uct_c < 0:
            raise ValueError("uct_c must be >= 0")


@dataclasses.dataclass(frozen=True)
class SearchResult:
    best_state: engine.ModuleState
    best_cost: costmodel.CostEstimate
    trajectories_used: int
    trajectories_to_best: int
    distinct_states_visited: int


class SearchNode:
    """One tree node per distinct fingerprint.

    `edges` maps every simulated action to the digest of the child it
    produces; several actions may share one child.  `untried` holds actions
    not yet simulated from here (None until the node is first expanded).
    """

    __slots__ = ("fingerprint", "visit_count", "total_value", "children", "edges", "untried")

    def __init__(self, fingerprint: engine.Fingerprint):
        self.fingerprint = fingerprint
        self.visit_count = 0
        self.total_value = 0.0
        self.children: dict[str, SearchNode] = {}
        self.edges: dict[engine.Action, str] = {}
        self.untried: list[engine.Action] | None = None


def reward(
    cost: costmodel.CostEstimate, baseline: costmodel.CostEstimate, objective: str
) -> float:
    """Baseline-to-cost ratio on the objective metric, clamped into [0, 1]."""
    b = costmodel.metric_value(baseline, objective)
    c = costmodel.metric_value(cost, objective)
    if c <= 0.0:
        ratio = 2.0 if b > 0 else 1.0
    else:
        ratio = b / c
    return min(max(ratio, 0.0), 2.0) / 2.0


def select_child(node: SearchNode, cfg: SearchConfig) -> tuple[engine.Action, SearchNode]:
    """UCT pick among children; ties go to the smallest digest.

    A child reached through several actions is one candidate; the returned
    action is the smallest edge leading to it.
    """
    log_n = math.log(node.visit_count) if node.visit_count > 1 else 0.0
    best_digest = None
    best_score = -math.inf
    for digest, child in node.children.items():
        if child.visit_count == 0:
            score = math.inf
        else:
            q = child.total_value / child.visit_count
            score = q + cfg.uct_c * math.sqrt(log_n / child.visit_count)
        if score > best_score or (score == best_score and digest < best_digest):
            best_score = score
            best_digest = digest
    if best_digest is None:
        raise ValueError("select_child on a node with no children")
    action = min(a for a, d in node.edges.items() if d == best_digest)
    return action, node.children[best_digest]


def run_search(
    start: engine.ModuleState,
    axis: str | None,
    cfg: SearchConfig,
    cost_cfg: costmodel.CostModelConfig,
    *,
    state_cache: engine.StateCache | None = None,
    estimate_cache: dict[str, costmodel.CostEstimate] | None = None,
    trace: TraceFn | None = None,
) -> SearchResult:
    """Search from `start`, restricted to `axis` (None: all mesh axes).

    Runs exactly cfg.trajectory_budget trajectories (zero when the start
    state has no legal actions) and returns the cheapest state evaluated
    under cfg.objective, which may be the start state itself.
    """
    if state_cache is None:
        state_cache = engine.StateCache(start.graph, start.mesh)
    if estimate_cache is None:
        estimate_cache = {}

    def est_of(state: engine.ModuleState) -> costmodel.CostEstimate:
        d = state.fingerprint.digest
        e = estimate_cache.get(d)
        if e is None:
            e = estimate_cache[d] = costmodel.estimate(state, cost_cfg)
        return e

    rng = random.Random(cfg.seed)
    max_depth = cfg.max_depth if cfg.max_depth is not None else len(start.graph.groups)
    objective = cfg.objective

    baseline = est_of(start)
    best_state = start
    best_cost = baseline
    best_metric = costmodel.metric_value(baseline, objective)
    to_best = 0

    if not engine.legal_actions(start, axis):
        return SearchResult(start, baseline, 0, 0, 1)

    root = SearchNode(start.fingerprint)
    table: dict[str, SearchNode] = {start.fingerprint.digest: root}
    node_state: dict[str, engine.ModuleState] = {start.fingerprint.digest: start}
    seen: set[str] = {start.fingerprint.digest}

    for t in range(1, cfg.trajectory_budget + 1):
        node = root
        state = start
        depth = 0
        path = [node]

        # Selection and one expansion.
        while depth < max_depth:
            if node.untried is None:
                node.untried = engine.legal_actions(state, axis)
                rng.shuffle(node.untried)
            expanded = False
            while node.untried:
                action = node.untried.pop()
                child_state = state_cache.apply(state, action)
                digest = child_state.fingerprint.digest
                node.edges[action] = digest
                if digest in node.children:
                    continue  # grouped action: same child, nothing new to simulate
                child = table.get(digest)
                if child is None:
                    child = table[digest] = SearchNode(child_state.fingerprint)
                    node_state[digest] = child_state
                    # a state becomes best-eligible as soon as it joins the
                    # tree; rollouts alone would rarely stop right here
                    cand = est_of(child_state)
                    cand_metric = costmodel.metric_value(cand, objective)
                    if cand_metric < best_metric:
                        best_metric = cand_metric
                        best_state = child_state
                        best_cost = cand
                        to_best = t
                node.children[digest] = child
                node, state = child, child_state
                depth += 1
                path.append(node)
                seen.add(digest)
                expanded = True
                break
            if expanded:
                break
            if not node.children:
                break  # terminal: no legal actions at all
            action, child = select_child(node, cfg)
            node = child
            state = node_state[node.fingerprint.digest]
            depth += 1
            path.append(node)
            seen.add(node.fingerprint.digest)

        # Rollout from wherever the tree phase stopped.
        while depth < max_depth:
            legal = engine.legal_actions(state, axis)
            if not legal:
                break
            k = rng.randrange(len(legal) + 1)
            if k == len(legal):
                break
            state = state_cache.apply(state, legal[k])
            depth += 1
            seen.add(state.fingerprint.digest)

        est = est_of(state)
        r = reward(est, baseline, objective)
        metric = costmodel.metric_value(est, objective)
        if metric < best_metric:
            best_metric = metric
            best_state = state
            best_cost = est
            to_best = t
        for n in path:
            n.visit_count += 1
            n.total_value += r
        if trace is not None:
            trace(t, depth, state.fingerprint.digest, r, best_metric)

    return SearchResult(best_state, best_cost, cfg.trajectory_budget, to_best, len(seen))
