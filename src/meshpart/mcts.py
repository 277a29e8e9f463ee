"""Monte Carlo tree search over partitioning actions.

The tree is built over canonical state fingerprints, not action sequences:
a global transposition table maps each digest to a single node, so every
action order and action set that closes to the same argument-group shardings
shares one set of statistics.  A fingerprint does not cover op results,
which different action sets may shard differently: a node holds the state of
the action set that first expanded into it, and the estimate cache keeps the
cost of the first state priced under a digest.  So the digest cache decides
*which* state's cost a digest gets; pricing that state is exact per mask row
(`costmodel.estimate` caches analyses by row across goals and seeds).
During expansion, actions that land on an already-known child of the
current node are skipped and never simulated again.

A state's `applied` order is the path that made it.  A rollout state that
joins no tree node and is not the best dies when its trajectory ends.

Each trajectory runs selection (UCT over children), one expansion, and a
uniform random rollout that may stop early: at every rollout step the stop
choice is one extra slot next to the legal actions, so it is taken with
probability 1/(1+|legal|).  The terminal state's cost yields the reward,
normalized against the episode-start baseline, and the best state is
tracked over every state that joins the tree and every evaluated terminal,
rollout endpoints included.
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
        if self.trajectory_budget < 0:
            raise ValueError("trajectory_budget must be >= 0")
        if self.uct_c < 0:
            raise ValueError("uct_c must be >= 0")


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """The cheapest state a search evaluated, and the trajectory that found it.

    `trajectories_to_best` is 0 exactly when nothing beat the start; then
    `best_state` is the start state and `best_cost` its estimate.
    """

    best_state: engine.ModuleState
    best_cost: costmodel.CostEstimate
    trajectories_used: int
    trajectories_to_best: int
    distinct_states_visited: int


class SearchNode:
    """One tree node per distinct fingerprint.

    `state` is the state the node was created with; `children` maps each
    child's digest to its node, and several actions may lead to one child.
    `untried` holds actions not yet simulated from here (None until the
    node is first expanded).
    """

    __slots__ = ("state", "visit_count", "total_value", "children", "untried")

    def __init__(self, state: engine.ModuleState):
        self.state = state
        self.visit_count = 0
        self.total_value = 0.0
        self.children: dict[str, SearchNode] = {}
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


def select_child(node: SearchNode, cfg: SearchConfig) -> SearchNode:
    """UCT pick among children; ties go to the smallest digest.

    A child reached through several actions is one candidate.
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
    return node.children[best_digest]


def run_search(
    start: engine.ModuleState,
    axis: str | None,
    cfg: SearchConfig,
    cost_cfg: costmodel.CostModelConfig,
    *,
    estimate_cache: dict[str, costmodel.CostEstimate] | None = None,
    trace: TraceFn | None = None,
) -> SearchResult:
    """Search from `start`, restricted to `axis` (None: all mesh axes).

    Runs exactly cfg.trajectory_budget trajectories (zero when the start
    state has no legal actions) and returns the cheapest state evaluated
    under cfg.objective, which may be the start state itself.  With a
    budget of 0 that is the start state and its estimate.
    """
    state_cache = engine.StateCache()
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

    root = SearchNode(start)
    table: dict[str, SearchNode] = {start.fingerprint.digest: root}
    seen: set[str] = {start.fingerprint.digest}

    for t in range(1, cfg.trajectory_budget + 1):
        node = root
        state = start
        depth = 0
        path = [node]
        candidates = []  # weighed against the best in order: a new tree state, the terminal

        # Selection and one expansion.
        expanded = False
        while depth < max_depth and not expanded:
            if node.untried is None:
                node.untried = engine.legal_actions(state, axis)
                rng.shuffle(node.untried)
            while node.untried:
                child_state = state_cache.apply(state, node.untried.pop())
                digest = child_state.fingerprint.digest
                if digest in node.children:
                    continue  # grouped action: same child, nothing new to simulate
                child = table.get(digest)
                if child is None:
                    child = table[digest] = SearchNode(child_state)
                    # a state becomes best-eligible as soon as it joins the
                    # tree; rollouts alone would rarely stop right here
                    candidates.append(child_state)
                node.children[digest] = child
                node, state = child, child_state
                expanded = True
                break
            else:  # every action is simulated: descend by UCT
                if not node.children:
                    break  # terminal: no legal actions at all
                node = select_child(node, cfg)
                state = node.state
            depth += 1
            path.append(node)
            seen.add(state.fingerprint.digest)

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

        candidates.append(state)
        for cand in candidates:
            est = est_of(cand)
            metric = costmodel.metric_value(est, objective)
            if metric < best_metric:
                best_metric, best_state, best_cost, to_best = metric, cand, est, t
        r = reward(est, baseline, objective)  # the terminal's, weighed last
        for n in path:
            n.visit_count += 1
            n.total_value += r
        if trace is not None:
            trace(t, depth, state.fingerprint.digest, r, best_metric)

    return SearchResult(best_state, best_cost, cfg.trajectory_budget, to_best, len(seen))
