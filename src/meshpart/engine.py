"""Partitioning engine: actions, sharding propagation, worklists, fingerprints.

An action shards one dim of one argument group along one mesh axis.  After
seeding the action, shardings are propagated to a fixpoint through the whole
graph.  Propagation is monotone (axis assignments only grow) and conservative:
an axis only lands on a dim when divisibility and the single-use rule hold;
conflicting arrivals are dropped, first writer wins in a canonical order.

A state is made only from a legal action set.  `apply_action` (and so
`replay_plan`) and `StateCache.apply` admit an action only through
`_seed_index`, which holds the whole legality rule, so the cache raises
exactly when `apply_action` does.

A state is fully determined by the *set* of actions applied so far: applying
an action re-derives the closure from all seeds jointly, in one deterministic
order, so any application order of the same action set yields identical
shardings and fingerprints.  The converse does not hold: two different action
sets may close to the same group shardings (one fingerprint) while op results
in between carry different shardings.

Propagation rules, per op kind:

* Elementwise: dim d of every operand and the result are tied.  Partial
  axes never cross an elementwise op; they are resolved by lowering.
* DotGeneral: batch dims tie both operands and the result; a free dim of an
  operand ties the matching result dim; contracting dims tie the two
  operands, and any axis present on both sides of a contracting pair marks
  the result partial over that axis.
* Reduce: kept dims tie operand and result.  For sum, axes on a reduced dim
  mark the result partial; for max, sharded reduced dims do not propagate.
* Transpose: dims tie through the permutation.
* Reshape: a dim ties only to a target dim with equal size and equal prefix
  product (the reshape preserves that dim boundary); merged or split dims
  do not propagate.
* Constant: nothing to propagate into; its result participates normally.

Group members are also tied dim-by-dim so every member of an equi-shard
group carries the same sharding after closure.
"""

from __future__ import annotations

import array
import dataclasses
import weakref
from typing import NamedTuple

from . import ir
from .errors import IllegalActionError, PlanReplayError, ShapeError


@dataclasses.dataclass(frozen=True, order=True)
class Action:
    """Shard dim `dim` of every member of group `group` along mesh axis `axis`."""

    group: int
    dim: int
    axis: str


@dataclasses.dataclass(frozen=True)
class Fingerprint:
    """Canonical digest of all argument-group shardings.

    Two fingerprints compare equal exactly when every group carries the same
    set of axes on the same dims; the order in which actions produced the
    state does not matter.  It covers argument groups only: states from
    different action sets may share a fingerprint yet differ in the
    shardings of op results, and so in cost.
    """

    digest: str


class _MeshTables:
    """Axis-to-bit encoding and mask-to-size-product lookup for one mesh.

    `typecode` is the narrowest `array` type that holds an axis mask; states
    store their masks in arrays of it.
    """

    __slots__ = (
        "mesh", "axis_names", "axis_index", "bit_of", "name_of_bit", "prod", "nbits",
        "typecode",
    )

    def __init__(self, mesh: ir.Mesh):
        self.mesh = mesh
        self.axis_names = mesh.axis_names
        self.nbits = len(mesh.axes)
        self.axis_index = {a.name: i for i, a in enumerate(mesh.axes)}
        self.bit_of = {a.name: 1 << i for i, a in enumerate(mesh.axes)}
        self.name_of_bit = {1 << i: a.name for i, a in enumerate(mesh.axes)}
        self.prod = [1] * (1 << self.nbits)
        for mask in range(1, 1 << self.nbits):
            low = mask & -mask
            self.prod[mask] = self.prod[mask ^ low] * mesh.axes[low.bit_length() - 1].size
        self.typecode = next(
            code for code in "BHILQ" if array.array(code).itemsize * 8 >= self.nbits
        )

    def names(self, mask: int) -> list[str]:
        out = []
        while mask:
            b = mask & -mask
            mask ^= b
            out.append(self.name_of_bit[b])
        return out


_mesh_tables_cache: dict[tuple, _MeshTables] = {}


def _tables(mesh: ir.Mesh) -> _MeshTables:
    key = tuple((a.name, a.size) for a in mesh.axes)
    mt = _mesh_tables_cache.get(key)
    if mt is None:
        mt = _mesh_tables_cache[key] = _MeshTables(mesh)
    return mt


def _reshape_dim_pairs(src: tuple[int, ...], dst: tuple[int, ...]) -> list[tuple[int, int]]:
    """Dims preserved whole by a reshape: equal size and equal prefix product."""
    pairs = []
    i = j = 0
    pi = pj = 1  # prefix products consumed so far
    while i < len(src) and j < len(dst):
        if pi == pj and src[i] == dst[j]:
            pairs.append((i, j))
            pi *= src[i]
            pj *= dst[j]
            i += 1
            j += 1
        elif pi * src[i] <= pj * dst[j]:
            pi *= src[i]
            i += 1
        else:
            pj *= dst[j]
            j += 1
    return pairs


class _OpMeta(NamedTuple):
    """Per-op lowering tables, in absolute dim positions.

    `plans[s]` holds one `(p, q, r)` per dim of operand slot s: the dim sits
    at position p, and the op requires the axes `fm[q] & fm[r]` on it.  A
    dim that must match a result dim reads that result dim twice; one whose
    own sharding is acceptable as-is reads p twice; a contracting dim reads
    both dims of its pair (axes on both sides); one that must be unsharded
    reads the zero slot at position `total_dims`, one past the last dim,
    twice.  The op's local flops are `flops[0]` times the product of
    `size // prod[fm[q] & fm[r]]` over the `(size, q, r)` of `flops[1]`.
    """

    result_idx: int
    operand_idx: tuple[int, ...]
    plans: tuple[tuple[tuple[int, int, int], ...], ...]
    flops: tuple[int, tuple[tuple[int, int, int], ...]]


class _Compiled:
    """Mesh-independent propagation/lowering tables derived from one graph."""

    __slots__ = (
        "ids", "index", "dims", "ebytes", "nbytes", "nvals", "live_to_end",
        "producer_op", "out_idx", "groups", "group_pos", "group_rank", "group_members",
        "seed_base", "seed_slots", "offsets", "value_of", "total_dims", "instances", "op_meta",
    )

    def __init__(self, graph: ir.Graph):
        ir.check_valid(graph)
        self.ids = [a.id for a in graph.args] + [op.id for op in graph.ops]
        self.index = {vid: i for i, vid in enumerate(self.ids)}
        types = [a.type for a in graph.args] + [op.result_type for op in graph.ops]
        self.dims = [t.dims for t in types]
        self.ebytes = [t.element_bytes for t in types]
        self.nbytes = [t.byte_size for t in types]
        self.nvals = len(self.ids)
        self.producer_op = [-1] * len(graph.args) + list(range(len(graph.ops)))
        self.out_idx = [self.index[o] for o in graph.outputs]
        # values whose buffer stays live to the end of the program
        resident = (ir.Role.PARAMETER, ir.Role.OPTIMIZER_STATE)
        self.live_to_end = [a.role in resident for a in graph.args] + [False] * len(graph.ops)
        for v in self.out_idx:
            self.live_to_end[v] = True

        self.offsets = []
        total = 0
        for d in self.dims:
            self.offsets.append(total)
            total += len(d)
        self.total_dims = total
        self.value_of = [v for v, dims in enumerate(self.dims) for _ in dims]  # per dim position
        zero = total  # plans read a zero slot one past the last dim

        self.groups = sorted((g.id, tuple(self.index[m] for m in g.members)) for g in graph.groups)
        self.group_members = {gid: members for gid, members in self.groups}
        self.group_rank = {gid: len(self.dims[members[0]]) for gid, members in self.groups}
        self.group_pos = {gid: pos for pos, (gid, _) in enumerate(self.groups)}
        # Seed slots: one per (group, dim), in (group id, dim) order.  On a
        # mesh of n axes, action (group, dim, axis #k) is seed index
        # (seed_base[group position] + dim) * n + k, so ascending seed
        # indices run in (group, dim, axis) order.
        self.seed_base = []
        self.seed_slots = []
        for gid, members in self.groups:
            self.seed_base.append(len(self.seed_slots))
            self.seed_slots.extend((gid, d) for d in range(len(self.dims[members[0]])))

        instances: list[tuple] = []

        def unify(i: int, di: int, j: int, dj: int, res: int = -1) -> None:
            """Tie dim di of value i to dim dj of value j; with a result
            value res, axes on both dims also mark res partial."""
            instances.append((
                res >= 0, i, self.offsets[i] + di, self.dims[i][di],
                j, self.offsets[j] + dj, self.dims[j][dj], res,
            ))

        for gid, members in self.groups:
            first = members[0]
            for other in members[1:]:
                for d in range(len(self.dims[first])):
                    unify(first, d, other, d)

        def like(p: int, q: int) -> tuple[int, int, int]:
            """Plan entry: the dim at position p must carry the axes at q."""
            return (p, q, q)

        def unsharded(v: int) -> list[tuple[int, int, int]]:
            base = self.offsets[v]
            return [like(base + d, zero) for d in range(len(self.dims[v]))]

        self.op_meta = []
        for op in graph.ops:
            res = self.index[op.id]
            res_base = self.offsets[res]
            # local compute covers every element of the local result
            res_terms = tuple(
                (size, res_base + k, res_base + k) for k, size in enumerate(self.dims[res])
            )
            operand_idx = tuple(self.index[r] for r in op.operands)
            kind = op.kind
            if isinstance(kind, ir.DotGeneral):
                li, ri = operand_idx
                l_base, r_base = self.offsets[li], self.offsets[ri]
                lhs_free, rhs_free = ir.dot_free_dims(
                    kind, len(self.dims[li]), len(self.dims[ri])
                )
                l_req, r_req = unsharded(li), unsharded(ri)
                for k, (a, b) in enumerate(zip(kind.lhs_batch, kind.rhs_batch)):
                    unify(li, a, res, k)
                    unify(ri, b, res, k)
                    unify(li, a, ri, b)
                    l_req[a] = like(l_base + a, res_base + k)
                    r_req[b] = like(r_base + b, res_base + k)
                k = len(kind.lhs_batch)
                for d in lhs_free:
                    unify(li, d, res, k)
                    l_req[d] = like(l_base + d, res_base + k)
                    k += 1
                for d in rhs_free:
                    unify(ri, d, res, k)
                    r_req[d] = like(r_base + d, res_base + k)
                    k += 1
                contract = []
                for a, b in zip(kind.lhs_contract, kind.rhs_contract):
                    unify(li, a, ri, b, res)
                    # the axes both sides carry
                    l_req[a] = (l_base + a, l_base + a, r_base + b)
                    r_req[b] = (r_base + b, l_base + a, r_base + b)
                    contract.append((self.dims[li][a], l_base + a, r_base + b))
                plans = (tuple(l_req), tuple(r_req))
                flops = (2, res_terms + tuple(contract))
            elif isinstance(kind, ir.Elementwise):
                rank = len(self.dims[res])  # every operand has the result's shape
                for v in operand_idx:
                    for d in range(rank):
                        unify(v, d, res, d)
                plans = tuple(
                    tuple(like(self.offsets[v] + d, res_base + d) for d in range(rank))
                    for v in operand_idx
                )
                flops = (1, res_terms)
            elif isinstance(kind, ir.Reduce):
                (src,) = operand_idx
                plan = []
                reduced = []
                out_pos = 0
                for d, size in enumerate(self.dims[src]):
                    p = self.offsets[src] + d
                    if d not in kind.dims:
                        unify(src, d, res, out_pos)
                        plan.append(like(p, res_base + out_pos))
                        out_pos += 1
                    elif kind.reduce_kind == "sum":  # any sharding will do
                        unify(src, d, src, d, res)
                        plan.append(like(p, p))
                        reduced.append((size, p, p))
                    else:  # max needs the dim whole
                        plan.append(like(p, zero))
                        reduced.append((size, zero, zero))
                plans = (tuple(plan),)
                flops = (1, res_terms + tuple(reduced))
            elif isinstance(kind, ir.Transpose):
                (src,) = operand_idx
                plan = unsharded(src)
                for out_d, in_d in enumerate(kind.permutation):
                    unify(src, in_d, res, out_d)
                    plan[in_d] = like(self.offsets[src] + in_d, res_base + out_d)
                plans = (tuple(plan),)
                flops = (1, res_terms)
            elif isinstance(kind, ir.Reshape):
                (src,) = operand_idx
                plan = unsharded(src)
                for sd, td in _reshape_dim_pairs(self.dims[src], kind.target_dims):
                    unify(src, sd, res, td)
                    plan[sd] = like(self.offsets[src] + sd, res_base + td)
                plans = (tuple(plan),)
                flops = (0, ())  # moves no data
            else:  # constant
                plans = ()
                flops = (0, ())
            self.op_meta.append(_OpMeta(res, operand_idx, plans, flops))
        self.instances = tuple(instances)


_compiled_cache: "weakref.WeakKeyDictionary[ir.Graph, _Compiled]" = weakref.WeakKeyDictionary()


def _compile(graph: ir.Graph) -> _Compiled:
    comp = _compiled_cache.get(graph)
    if comp is None:
        comp = _compiled_cache[graph] = _Compiled(graph)
    return comp


def _close(comp: _Compiled, mt: _MeshTables, fm: list[int], partials: list[int]) -> list[int]:
    """Run all propagation instances to a fixpoint.  Mutates fm/partials.

    Returns the per-value used-axis masks.  The instance list is swept in a
    fixed order until no sweep changes anything, so the result depends only
    on the seeded masks, never on arrival order.

    Every instance `(partial, i, pi, size_i, j, pj, size_j, res)` ties dim
    position `pi` of value `i` to dim position `pj` of value `j`: each axis
    on one side that the other value does not use yet crosses over if the
    dim stays divisible.  With `partial` set, axes then on both sides mark
    value `res` partial.  A contracting pair is such a tie between the two
    operands.  A sum-reduced dim is a self-tie (`i == j`, `pi == pj`), which
    only marks the result partial over the dim's axes.

    `used[v]` always holds every axis on a dim of `v`, so a tie whose two
    masks are equal moves no axis in either direction and goes straight to
    its partial mark; a self-tie always does.
    """
    used = list(partials)
    for v, m in zip(comp.value_of, fm):
        if m:
            used[v] |= m
    prod = mt.prod
    instances = comp.instances
    changed = True
    while changed:
        changed = False
        for partial, i, pi, size_i, j, pj, size_j, res in instances:
            a = fm[pi]
            c = fm[pj]
            if a != c:  # equal masks move no axis either way
                m = a & ~used[j]
                if m:
                    cur = c
                    while m:
                        b = m & -m
                        m ^= b
                        if size_j % prod[cur | b] == 0:
                            cur |= b
                            used[j] |= b
                            changed = True
                    fm[pj] = c = cur
                m = c & ~used[i]
                if m:
                    cur = a
                    while m:
                        b = m & -m
                        m ^= b
                        if size_i % prod[cur | b] == 0:
                            cur |= b
                            used[i] |= b
                            changed = True
                    fm[pi] = a = cur
            if partial:
                add = a & c & ~used[res]
                if add:
                    partials[res] |= add
                    used[res] |= add
                    changed = True
    return used


class ModuleState:
    """A propagation-closed assignment of shardings for one graph on one mesh.

    Immutable.  `worklists` maps each mesh axis to the set of group ids still
    actionable on that axis: a group leaves an axis's worklist as soon as any
    member carries that axis anywhere in its sharding, whether from a direct
    action or from propagation.

    Search keeps every state it reaches, so a state is stored compactly: the
    per-dim axis masks (`_fm`) and per-value partial masks (`_partials`) are
    arrays of the mesh's mask typecode, each axis's worklist is one int
    bitmask over positions in the compiled group list (`_wl`), and the
    applied action set is one int bitmask of seed indices (`_key`).
    """

    __slots__ = (
        "graph", "mesh", "applied", "fingerprint",
        "_comp", "_mt", "_key", "_fm", "_partials", "_wl",
    )

    def __init__(self, graph, mesh, comp, mt, key, applied, fm, partials, wl):
        self.graph = graph
        self.mesh = mesh
        self._comp = comp
        self._mt = mt
        self._key = key
        self.applied = applied
        self._fm = fm
        self._partials = partials
        self._wl = wl
        self.fingerprint = Fingerprint(self._digest())

    @property
    def worklists(self) -> dict[str, frozenset[int]]:
        """Per mesh axis, the ids of the groups still actionable on it."""
        groups = self._comp.groups
        return {
            name: frozenset(gid for pos, (gid, _) in enumerate(groups) if mask >> pos & 1)
            for name, mask in zip(self._mt.axis_names, self._wl)
        }

    def _digest(self) -> str:
        comp, mt, fm = self._comp, self._mt, self._fm
        parts = []
        for gid, members in comp.groups:
            first = members[0]
            base = comp.offsets[first]
            for d in range(len(comp.dims[first])):
                mask = fm[base + d]
                if mask:
                    parts.append(f"{gid}.{d}:{'+'.join(sorted(mt.names(mask)))}")
        return ";".join(parts) if parts else "()"

    @property
    def shardings(self) -> dict[str, ir.Sharding]:
        """Public per-value shardings; axes listed in mesh declaration order."""
        comp, mt, fm = self._comp, self._mt, self._fm
        out = {}
        for v, vid in enumerate(comp.ids):
            base = comp.offsets[v]
            per_dim = tuple(
                ir.DimSharding(tuple(mt.names(fm[base + d]))) for d in range(len(comp.dims[v]))
            )
            out[vid] = ir.Sharding(per_dim, frozenset(mt.names(self._partials[v])))
        return out

    def sharding_of(self, value_id: str) -> ir.Sharding:
        return self.shardings[value_id]


def _make_state(graph, mesh, comp, mt, key: int, applied: tuple) -> ModuleState:
    """Seed the actions of `key`, a legal action set, and close.

    Every seed divides its dim: a legal seed's axes there are a subset of
    the parent's closed axes plus the new one, and the members of a group
    share their dims.
    """
    fm = [0] * comp.total_dims
    partials = [0] * comp.nvals
    rest = key
    while rest:  # ascending seed index: (group, dim, axis) order
        low = rest & -rest
        rest ^= low
        slot, k = divmod(low.bit_length() - 1, mt.nbits)
        gid, dim = comp.seed_slots[slot]
        for m in comp.group_members[gid]:
            fm[comp.offsets[m] + dim] |= 1 << k
    used = _close(comp, mt, fm, partials)
    wl = [0] * mt.nbits
    for pos, (_, members) in enumerate(comp.groups):
        u = 0
        for m in members:
            u |= used[m]
        for k in range(mt.nbits):
            if not u >> k & 1:
                wl[k] |= 1 << pos
    return ModuleState(
        graph, mesh, comp, mt, key, applied,
        array.array(mt.typecode, fm), array.array(mt.typecode, partials), tuple(wl),
    )


def initial_state(graph: ir.Graph, mesh: ir.Mesh) -> ModuleState:
    """Fully replicated starting state; validates the graph first."""
    comp = _compile(graph)
    mt = _tables(mesh)
    return _make_state(graph, mesh, comp, mt, 0, ())


def legal_actions(state: ModuleState, active_axis: str | None) -> list[Action]:
    """All currently legal actions, ordered by (group, dim).

    With active_axis=None, actions for every mesh axis are returned in mesh
    declaration order.  An action is legal when its group is still on the
    axis's worklist and the dim remains divisible after adding the axis.
    """
    if active_axis is None:
        out = []
        for name in state._mt.axis_names:
            out.extend(legal_actions(state, name))
        return out
    mt = state._mt
    if active_axis not in mt.bit_of:
        raise ShapeError(f"unknown mesh axis {active_axis!r}; mesh has {mt.axis_names}")
    bit = mt.bit_of[active_axis]
    comp = state._comp
    groups = comp.groups
    fm = state._fm
    actions = []
    mask = state._wl[mt.axis_index[active_axis]]
    while mask:  # ascending position: ascending group id
        low = mask & -mask
        mask ^= low
        gid, members = groups[low.bit_length() - 1]
        base = comp.offsets[members[0]]
        dims = comp.dims[members[0]]
        for d in range(len(dims)):
            if dims[d] % mt.prod[fm[base + d] | bit] == 0:
                actions.append(Action(gid, d, active_axis))
    return actions


def _seed_index(state: ModuleState, action: Action) -> int:
    """The action's bit position in a state key; raises unless it is legal.

    This is the one legality rule: the axis and group exist, the dim is in
    range, the group is still on the axis's worklist, and the dim stays
    divisible with the axis added to the axes it carries.
    """
    mt = state._mt
    comp = state._comp
    if action.axis not in mt.bit_of:
        raise IllegalActionError(
            f"unknown mesh axis {action.axis!r}; mesh has {mt.axis_names}"
        )
    if action.group not in comp.group_members:
        raise IllegalActionError(f"unknown group {action.group}")
    rank = comp.group_rank[action.group]
    if not 0 <= action.dim < rank:
        raise IllegalActionError(
            f"dim {action.dim} out of range for group {action.group} of rank {rank}"
        )
    k = mt.axis_index[action.axis]
    group_pos = comp.group_pos[action.group]
    if not state._wl[k] >> group_pos & 1:
        raise IllegalActionError(
            f"group {action.group} is no longer actionable on axis {action.axis!r}"
        )
    first = comp.group_members[action.group][0]
    pos = comp.offsets[first] + action.dim
    size = comp.dims[first][action.dim]
    if size % mt.prod[state._fm[pos] | 1 << k] != 0:
        raise IllegalActionError(
            f"dim {action.dim} of group {action.group} (size {size}) not divisible "
            f"by axis {action.axis!r} on top of {mt.names(state._fm[pos])}"
        )
    return (comp.seed_base[group_pos] + action.dim) * mt.nbits + k


def apply_action(state: ModuleState, action: Action) -> ModuleState:
    """Apply one action and re-propagate to fixpoint; raises if illegal."""
    return _make_state(
        state.graph, state.mesh, state._comp, state._mt,
        state._key | 1 << _seed_index(state, action), state.applied + (action,),
    )


def replay_plan(graph: ir.Graph, mesh: ir.Mesh, actions: list[Action]) -> ModuleState:
    """Apply a recorded action list in order; errors carry the failing index."""
    state = initial_state(graph, mesh)
    for i, action in enumerate(actions):
        try:
            state = apply_action(state, action)
        except IllegalActionError as e:
            raise PlanReplayError(f"plan action #{i} ({action}) failed: {e}", i) from e
    return state


class StateCache:
    """Memoizes states by applied action *set* for one (graph, mesh) pair.

    Search and enumeration revisit the same states through many action
    orders; since a state is a pure function of its action set, the closure
    is computed once per distinct set.  `apply` checks the action with the
    same rule as `apply_action`, on a hit too, so it raises exactly when
    `apply_action` does, with the same message.
    """

    def __init__(self, graph: ir.Graph, mesh: ir.Mesh):
        self.root = initial_state(graph, mesh)
        self._states: dict[int, ModuleState] = {self.root._key: self.root}

    def apply(self, state: ModuleState, action: Action) -> ModuleState:
        key = state._key | 1 << _seed_index(state, action)
        hit = self._states.get(key)
        if hit is None:
            hit = self._states[key] = apply_action(state, action)
        return hit

    def __len__(self) -> int:
        return len(self._states)
