"""Exhaustive enumeration of reachable partition states on tiny instances.

Brute-force ground truth for tests: walks every legal action from a start
state with breadth-first search, deduplicates by fingerprint, and scores
each distinct state with the cost model.  A hard size guard (at most 6
equi-shard groups and 2 mesh axes) keeps the state space enumerable;
larger instances are rejected outright rather than timed out.
"""

from __future__ import annotations

from . import costmodel, engine, ir
from .costmodel import CostEstimate, CostModelConfig, PENALIZED_RUNTIME
from .errors import OracleSizeError

MAX_GROUPS = 6
MAX_AXES = 2


def _check_size(graph: ir.Graph, axes: tuple[str, ...]) -> None:
    if len(graph.groups) > MAX_GROUPS:
        raise OracleSizeError(
            f"graph has {len(graph.groups)} equi-shard groups; the exhaustive "
            f"enumerator only handles up to {MAX_GROUPS}"
        )
    if len(axes) > MAX_AXES:
        raise OracleSizeError(
            f"{len(axes)} mesh axes requested; the exhaustive enumerator only "
            f"handles up to {MAX_AXES}"
        )


def _legal(state: engine.ModuleState, axes: tuple[str, ...]) -> list[engine.Action]:
    out: list[engine.Action] = []
    for axis in axes:
        out.extend(engine.legal_actions(state, axis))
    return out


def enumerate_states(
    start: engine.ModuleState,
    axes: tuple[str, ...] | None = None,
    max_depth: int | None = None,
    cost_cfg: CostModelConfig | None = None,
) -> tuple[tuple[engine.Fingerprint, CostEstimate], ...]:
    """Every distinct reachable state (including the start), sorted by digest.

    ``axes`` restricts which mesh axes actions may use (default: all).
    ``max_depth`` bounds the action-sequence length (default: unbounded; the
    walk still terminates because each action retires its group from that
    axis's worklist).
    """
    mesh = start.mesh
    graph = start.graph
    use_axes = tuple(axes) if axes is not None else mesh.axis_names
    _check_size(graph, use_axes)
    cfg = cost_cfg if cost_cfg is not None else costmodel.default_config(mesh)

    cache = engine.StateCache(start)
    seen: dict[str, engine.ModuleState] = {start.fingerprint.digest: start}
    frontier = [start]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        nxt = []
        for state in frontier:
            for action in _legal(state, use_axes):
                child = cache.apply(state, action)
                digest = child.fingerprint.digest
                if digest not in seen:
                    seen[digest] = child
                    nxt.append(child)
        frontier = nxt
        depth += 1
    return tuple(
        (state.fingerprint, costmodel.estimate(state, cfg))
        for _, state in sorted(seen.items())
    )


def exhaustive_best(
    start: engine.ModuleState,
    axes: tuple[str, ...] | None = None,
    max_depth: int | None = None,
    objective: str = PENALIZED_RUNTIME,
    cost_cfg: CostModelConfig | None = None,
) -> tuple[engine.Fingerprint, CostEstimate]:
    """Argmin of the objective over every reachable state; ties pick the
    lexicographically smallest digest."""
    table = enumerate_states(start, axes, max_depth, cost_cfg)
    return min(
        table, key=lambda row: (costmodel.metric_value(row[1], objective), row[0].digest)
    )


def count_action_sequences(
    start: engine.ModuleState,
    axes: tuple[str, ...] | None = None,
    max_depth: int = 2,
) -> int:
    """Number of distinct non-empty legal action sequences up to ``max_depth``.

    Sequences are counted as ordered paths, so two different orders of the
    same action set count twice; comparing this against the number of
    distinct fingerprints shows how much state compression merges.
    """
    mesh = start.mesh
    use_axes = tuple(axes) if axes is not None else mesh.axis_names
    _check_size(start.graph, use_axes)
    cache = engine.StateCache(start)
    total = 0

    def walk(state: engine.ModuleState, remaining: int) -> None:
        nonlocal total
        if remaining == 0:
            return
        for action in _legal(state, use_axes):
            total += 1
            walk(cache.apply(state, action), remaining - 1)

    walk(start, max_depth)
    return total
