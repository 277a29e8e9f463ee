"""Partitioning engine: actions, sharding propagation, worklists, fingerprints.

An action shards one dim of one argument group along one mesh axis.  After
seeding the action, shardings are propagated to a fixpoint through the whole
graph.  Propagation is monotone (axis assignments only grow) and conservative:
an axis only lands on a dim when divisibility and the single-use rule hold;
conflicting arrivals are dropped, first writer wins in a canonical order.

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
from typing import Mapping

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


# Required-operand-sharding sources, used by lowering (see costmodel).
REQ_SELF = 0     # producer's own sharding is acceptable as-is
REQ_ZERO = 1     # dim must be unsharded at the consumer
REQ_RES = 2      # dim must match a result dim (aux = result dim index)
REQ_COMMON = 3   # contracting dim: axes shared by both operands (aux = pair index)


class _OpMeta:
    """Per-op lowering metadata: operand/result indices and requirement plans."""

    __slots__ = ("tag", "op_index", "operand_idx", "result_idx", "req_plans", "contract", "reduce_info")

    def __init__(self, tag, op_index, operand_idx, result_idx, req_plans, contract, reduce_info):
        self.tag = tag                  # "dot"|"ew"|"reduce"|"transpose"|"reshape"|"const"
        self.op_index = op_index
        self.operand_idx = operand_idx  # value indices per slot
        self.result_idx = result_idx
        self.req_plans = req_plans      # per slot: tuple of (code, aux) per operand dim
        self.contract = contract        # dot only: tuple of (l_dim, r_dim, size)
        self.reduce_info = reduce_info  # reduce only: (reduce_kind, reduced_dims)


class _Compiled:
    """Mesh-independent propagation/lowering tables derived from one graph."""

    __slots__ = (
        "graph", "ids", "index", "dims", "ebytes", "nbytes", "nvals", "n_args",
        "roles", "producer_op", "out_idx", "groups", "group_pos", "group_rank",
        "group_members", "seed_base", "seed_slots", "offsets", "total_dims",
        "instances", "op_meta", "consumers",
    )

    def __init__(self, graph: ir.Graph):
        ir.check_valid(graph)
        self.graph = graph
        self.ids = [a.id for a in graph.args] + [op.id for op in graph.ops]
        self.index = {vid: i for i, vid in enumerate(self.ids)}
        types = [a.type for a in graph.args] + [op.result_type for op in graph.ops]
        self.dims = [t.dims for t in types]
        self.ebytes = [t.element_bytes for t in types]
        self.nbytes = [t.byte_size for t in types]
        self.nvals = len(self.ids)
        self.n_args = len(graph.args)
        self.roles = [a.role for a in graph.args] + [None] * len(graph.ops)
        self.producer_op = [-1] * self.n_args + list(range(len(graph.ops)))
        self.out_idx = [self.index[o] for o in graph.outputs]

        self.offsets = []
        total = 0
        for d in self.dims:
            self.offsets.append(total)
            total += len(d)
        self.total_dims = total

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

        self.consumers = [[] for _ in range(self.nvals)]
        instances: list[tuple] = []

        def unify(i: int, di: int, j: int, dj: int) -> None:
            instances.append((
                0, i, self.offsets[i] + di, self.dims[i][di],
                j, self.offsets[j] + dj, self.dims[j][dj],
            ))

        for gid, members in self.groups:
            first = members[0]
            for other in members[1:]:
                for d in range(len(self.dims[first])):
                    unify(first, d, other, d)

        self.op_meta = []
        for op_index, op in enumerate(graph.ops):
            res = self.index[op.id]
            operand_idx = tuple(self.index[r] for r in op.operands)
            for slot, v in enumerate(operand_idx):
                self.consumers[v].append((op_index, slot))
            kind = op.kind
            contract = ()
            reduce_info = None
            if isinstance(kind, ir.DotGeneral):
                tag = "dot"
                li, ri = operand_idx
                lhs_free, rhs_free = ir.dot_free_dims(
                    kind, len(self.dims[li]), len(self.dims[ri])
                )
                l_req = [(REQ_ZERO, 0)] * len(self.dims[li])
                r_req = [(REQ_ZERO, 0)] * len(self.dims[ri])
                for k, (a, b) in enumerate(zip(kind.lhs_batch, kind.rhs_batch)):
                    unify(li, a, res, k)
                    unify(ri, b, res, k)
                    unify(li, a, ri, b)
                    l_req[a] = (REQ_RES, k)
                    r_req[b] = (REQ_RES, k)
                base = len(kind.lhs_batch)
                for pos, d in enumerate(lhs_free):
                    unify(li, d, res, base + pos)
                    l_req[d] = (REQ_RES, base + pos)
                for pos, d in enumerate(rhs_free):
                    unify(ri, d, res, base + len(lhs_free) + pos)
                    r_req[d] = (REQ_RES, base + len(lhs_free) + pos)
                pairs = []
                for k, (a, b) in enumerate(zip(kind.lhs_contract, kind.rhs_contract)):
                    instances.append((
                        1, li, self.offsets[li] + a, self.dims[li][a],
                        ri, self.offsets[ri] + b, self.dims[ri][b], res,
                    ))
                    pairs.append((a, b, self.dims[li][a]))
                    l_req[a] = (REQ_COMMON, k)
                    r_req[b] = (REQ_COMMON, k)
                contract = tuple(pairs)
                req_plans = (tuple(l_req), tuple(r_req))
            elif isinstance(kind, ir.Elementwise):
                tag = "ew"
                req_plans = []
                for v in operand_idx:
                    plan = []
                    for d in range(len(self.dims[v])):
                        unify(v, d, res, d)
                        plan.append((REQ_RES, d))
                    req_plans.append(tuple(plan))
                req_plans = tuple(req_plans)
            elif isinstance(kind, ir.Reduce):
                tag = "reduce"
                (src,) = operand_idx
                reduced = set(kind.dims)
                plan = []
                out_pos = 0
                for d in range(len(self.dims[src])):
                    if d in reduced:
                        if kind.reduce_kind == "sum":
                            instances.append((2, src, self.offsets[src] + d, res))
                            plan.append((REQ_SELF, 0))
                        else:
                            plan.append((REQ_ZERO, 0))
                    else:
                        unify(src, d, res, out_pos)
                        plan.append((REQ_RES, out_pos))
                        out_pos += 1
                req_plans = (tuple(plan),)
                reduce_info = (kind.reduce_kind, kind.dims)
            elif isinstance(kind, ir.Transpose):
                tag = "transpose"
                (src,) = operand_idx
                plan = [(REQ_ZERO, 0)] * len(self.dims[src])
                for out_d, in_d in enumerate(kind.permutation):
                    unify(src, in_d, res, out_d)
                    plan[in_d] = (REQ_RES, out_d)
                req_plans = (tuple(plan),)
            elif isinstance(kind, ir.Reshape):
                tag = "reshape"
                (src,) = operand_idx
                plan = [(REQ_ZERO, 0)] * len(self.dims[src])
                for sd, td in _reshape_dim_pairs(self.dims[src], kind.target_dims):
                    unify(src, sd, res, td)
                    plan[sd] = (REQ_RES, td)
                req_plans = (tuple(plan),)
            else:
                tag = "const"
                req_plans = ()
            self.op_meta.append(
                _OpMeta(tag, op_index, operand_idx, res, req_plans, contract, reduce_info)
            )
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
    """
    used = [0] * comp.nvals
    offsets = comp.offsets
    for v in range(comp.nvals):
        u = partials[v]
        for p in range(offsets[v], offsets[v] + len(comp.dims[v])):
            u |= fm[p]
        used[v] = u
    prod = mt.prod
    instances = comp.instances
    changed = True
    while changed:
        changed = False
        for inst in instances:
            tag = inst[0]
            if tag == 0:
                _, i, pi, size_i, j, pj, size_j = inst
                m = fm[pi] & ~used[j]
                if m:
                    cur = fm[pj]
                    while m:
                        b = m & -m
                        m ^= b
                        if size_j % prod[cur | b] == 0:
                            cur |= b
                            used[j] |= b
                            changed = True
                    fm[pj] = cur
                m = fm[pj] & ~used[i]
                if m:
                    cur = fm[pi]
                    while m:
                        b = m & -m
                        m ^= b
                        if size_i % prod[cur | b] == 0:
                            cur |= b
                            used[i] |= b
                            changed = True
                    fm[pi] = cur
            elif tag == 1:
                _, li, pl, size_l, ri, pr, size_r, res = inst
                m = fm[pl] & ~used[ri]
                if m:
                    cur = fm[pr]
                    while m:
                        b = m & -m
                        m ^= b
                        if size_r % prod[cur | b] == 0:
                            cur |= b
                            used[ri] |= b
                            changed = True
                    fm[pr] = cur
                m = fm[pr] & ~used[li]
                if m:
                    cur = fm[pl]
                    while m:
                        b = m & -m
                        m ^= b
                        if size_l % prod[cur | b] == 0:
                            cur |= b
                            used[li] |= b
                            changed = True
                    fm[pl] = cur
                add = fm[pl] & fm[pr] & ~used[res]
                if add:
                    partials[res] |= add
                    used[res] |= add
                    changed = True
            else:
                _, src, ps, res = inst
                add = fm[ps] & ~used[res]
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
        "_comp", "_mt", "_key", "_fm", "_partials", "_wl", "_shardings",
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
        self._shardings = None
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
        if self._shardings is None:
            comp, mt = self._comp, self._mt
            out = {}
            for v, vid in enumerate(comp.ids):
                base = comp.offsets[v]
                per_dim = tuple(
                    ir.DimSharding(tuple(mt.names(self._fm[base + d])))
                    for d in range(len(comp.dims[v]))
                )
                out[vid] = ir.Sharding(per_dim, frozenset(mt.names(self._partials[v])))
            self._shardings = out
        return self._shardings

    def sharding_of(self, value_id: str) -> ir.Sharding:
        return self.shardings[value_id]


def _make_state(graph, mesh, comp, mt, key: int, applied: tuple) -> ModuleState:
    fm = [0] * comp.total_dims
    partials = [0] * comp.nvals
    rest = key
    while rest:  # ascending seed index: (group, dim, axis) order
        low = rest & -rest
        rest ^= low
        slot, k = divmod(low.bit_length() - 1, mt.nbits)
        gid, dim = comp.seed_slots[slot]
        bit = 1 << k
        for m in comp.group_members[gid]:
            pos = comp.offsets[m] + dim
            if comp.dims[m][dim] % mt.prod[fm[pos] | bit] != 0:
                raise IllegalActionError(
                    f"dim {dim} of group {gid} (size {comp.dims[m][dim]}) not divisible "
                    f"under axes {mt.names(fm[pos] | bit)}"
                )
            fm[pos] |= bit
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
    """The action's bit position in a state key; raises if it names no seed."""
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
    slot = comp.seed_base[comp.group_pos[action.group]] + action.dim
    return slot * mt.nbits + mt.axis_index[action.axis]


def apply_action(state: ModuleState, action: Action) -> ModuleState:
    """Apply one action and re-propagate to fixpoint; raises if illegal."""
    index = _seed_index(state, action)
    mt = state._mt
    comp = state._comp
    if not state._wl[mt.axis_index[action.axis]] >> comp.group_pos[action.group] & 1:
        raise IllegalActionError(
            f"group {action.group} is no longer actionable on axis {action.axis!r}"
        )
    bit = mt.bit_of[action.axis]
    first = comp.group_members[action.group][0]
    pos = comp.offsets[first] + action.dim
    size = comp.dims[first][action.dim]
    if size % mt.prod[state._fm[pos] | bit] != 0:
        raise IllegalActionError(
            f"dim {action.dim} of group {action.group} (size {size}) not divisible "
            f"by axis {action.axis!r} on top of {mt.names(state._fm[pos])}"
        )
    return _make_state(
        state.graph, state.mesh, comp, mt, state._key | 1 << index,
        state.applied + (action,),
    )


def fingerprint(state: ModuleState) -> Fingerprint:
    return state.fingerprint


def propagate(
    graph: ir.Graph, mesh: ir.Mesh, shardings: Mapping[str, ir.Sharding]
) -> dict[str, ir.Sharding]:
    """Close an explicit sharding map over the propagation rules.

    Input entries may cover any subset of values (missing values start
    replicated) and must individually be valid; the returned map covers
    every argument and op result.
    """
    comp = _compile(graph)
    mt = _tables(mesh)
    fm = [0] * comp.total_dims
    partials = [0] * comp.nvals
    for vid, sharding in shardings.items():
        if vid not in comp.index:
            raise ShapeError(f"unknown value {vid!r} in sharding map")
        v = comp.index[vid]
        ttype = ir.TensorType(comp.dims[v], comp.ebytes[v])
        ir.validate_sharding(ttype, sharding, mesh)
        base = comp.offsets[v]
        for d, dim_sharding in enumerate(sharding.per_dim):
            for name in dim_sharding.axes:
                fm[base + d] |= mt.bit_of[name]
        for name in sharding.partial_axes:
            partials[v] |= mt.bit_of[name]
    _close(comp, mt, fm, partials)
    out = {}
    for v, vid in enumerate(comp.ids):
        base = comp.offsets[v]
        per_dim = tuple(
            ir.DimSharding(tuple(mt.names(fm[base + d])))
            for d in range(len(comp.dims[v]))
        )
        out[vid] = ir.Sharding(per_dim, frozenset(mt.names(partials[v])))
    return out


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
    is computed once per distinct set.
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
