"""Enumeration of reachable partition states on tiny instances.

Brute-force ground truth for tests: walks every legal action from a start
state with breadth-first search, deduplicates by fingerprint, and scores
each distinct state with the cost model.  The walk is exhaustive over
fingerprints, not over closed states: two action sets can close to one
fingerprint with different rows, and the walk expands only the first
state it meets per fingerprint, so it never reaches what only the second
one's children reach.  Walked on one axis from the root of `gns` or
`unet` on a `batch=2,model=2` mesh (both past the size guard, so walked
with it lifted), it lists 191 of 510 reachable rows on gns and 842 of
1,567 on unet.  A hard size guard (at most 6 equi-shard groups and 2 mesh axes)
keeps the walk small; larger instances are rejected outright rather than
timed out.
"""

from __future__ import annotations

from . import costmodel, engine
from .costmodel import CostEstimate, CostModelConfig, PENALIZED_RUNTIME
from .errors import ConfigError, OracleSizeError

MAX_GROUPS = 6
MAX_AXES = 2


def _walk_axes(start: engine.ModuleState, axes, max_depth: int | None) -> tuple[str, ...]:
    """The axes a walk may act on: every mesh axis, or `axes`, which must name
    known axes, each once.  Raises on a negative `max_depth`, and unless the
    instance fits the size guard."""
    if max_depth is not None and max_depth < 0:
        raise ConfigError(f"max_depth must be at least 0, got {max_depth}")
    if axes is None:
        axes = start.mesh.axis_names
    else:
        axes = tuple(axes)
        if not axes:
            raise ConfigError(f"axes {axes!r} names no mesh axis")
        for a in axes:
            if not start.mesh.has_axis(a):
                raise ConfigError(f"axes {axes!r} names unknown mesh axis {a!r}")
        if len(set(axes)) < len(axes):
            raise ConfigError(f"axes {axes!r} names an axis twice")
    if len(start.graph.groups) > MAX_GROUPS:
        raise OracleSizeError(
            f"graph has {len(start.graph.groups)} equi-shard groups; the exhaustive "
            f"enumerator only handles up to {MAX_GROUPS}"
        )
    if len(axes) > MAX_AXES:
        raise OracleSizeError(
            f"{len(axes)} mesh axes requested; the exhaustive enumerator only "
            f"handles up to {MAX_AXES}"
        )
    return axes


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
    """One reachable state per distinct fingerprint (including the start's),
    sorted by digest.

    Each fingerprint's state is the first the breadth-first walk met, and
    only that state is expanded, so closed states that share its
    fingerprint, and what only they reach, are missing (module docstring).

    ``axes`` restricts which mesh axes actions may use (default: all); an
    empty, unknown or repeated axis is a ConfigError.
    ``max_depth`` bounds the action-sequence length (default: unbounded; the
    walk still terminates because each action retires its group from that
    axis's worklist); a negative one is a ConfigError.
    """
    use_axes = _walk_axes(start, axes, max_depth)
    cfg = cost_cfg if cost_cfg is not None else costmodel.default_config(start.mesh)

    seen: dict[str, engine.ModuleState] = {start.fingerprint.digest: start}
    frontier = [start]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        nxt = []
        for state in frontier:
            for action in _legal(state, use_axes):
                child = engine.apply_action(state, action)
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
    """Number of distinct non-empty legal action sequences up to ``max_depth``,
    which must be at least 0.

    Sequences are counted as ordered paths, so two different orders of the
    same action set count twice; comparing this against the number of
    distinct fingerprints shows how much state compression merges.
    """
    use_axes = _walk_axes(start, axes, max_depth)
    total = 0

    def walk(state: engine.ModuleState, remaining: int) -> None:
        nonlocal total
        if remaining == 0:
            return
        for action in _legal(state, use_axes):
            total += 1
            walk(engine.apply_action(state, action), remaining - 1)

    walk(start, max_depth)
    return total
