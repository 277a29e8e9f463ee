"""Partitioning engine: actions, sharding propagation, worklists, fingerprints.

An action shards one dim of one argument group along one mesh axis.  After
seeding the action, shardings are propagated to a fixpoint through the whole
graph.  Propagation is monotone (axis assignments only grow) and conservative:
an axis only lands on a dim when divisibility and the single-use rule hold;
conflicting arrivals are dropped, first writer wins in a canonical order.

A state is made only from a legal action set.  Every state but a root is
made by `apply_action`, which admits an action only through `_seed_index`,
the whole legality rule; `replay_plan` and search call it, so they raise
exactly when it does.

One table object, `_Compiled(graph, mesh)`, holds everything derived from
the graph and the mesh: the propagation and lowering tables, the axis
encoding, one `Action` per seed index, the layout of a state's mask row
(one immutable `bytes` object: a mesh has at most `ir.MAX_MESH_AXES` = 8
axes, so every mask fits one byte), the seed writes of every action, the
closure table of closed rows, and the pricing memo and analysis cache
that `costmodel` fills.  It belongs to a root state: `initial_state` builds
it, every state made from that root shares it, and a state reads its graph
and mesh through it.  There is no process-wide cache, so each
`initial_state` call compiles its own tables, and they are freed with the
last state that holds them; a command builds its root once and hands it to
every consumer, so the closure runs once per distinct action set per
command, across its goals and seeds.
Graphs and meshes are valid by construction, and whether a mesh can shard
a graph is an IR check (`models.check_mesh_compatibility`), so none is here.

A state is fully determined by the *set* of actions applied so far: applying
an action re-derives the closure from all seeds jointly, in one deterministic
order, so any application order of the same action set yields identical
shardings and fingerprints.  The converse does not hold: two different action
sets may close to the same group shardings (one fingerprint) while op results
in between carry different shardings.

The closure sweeps the propagation instances in one fixed order until a
sweep changes nothing, but only those of *live* components: the instances
tie dim positions into connected components, and a sweep runs the
components that hold an axis at entry (first sweep) or that the sweep
before changed.  The seeds are the only axes at entry, so whoever writes
them also records the entry's used masks and live components, from the
same seed table.  This is exact.  Axes move only along ties, so a component
with no axis at entry stays empty.  A component that a whole sweep left
unchanged can change only through its own instances, and what the other
components do since then only removes candidate axes (it grows the
per-value used masks), so it never changes again.  The skipped instances
are no-ops, and the writes, fixpoints and sweep counts are those of
sweeping every instance.

Each op is compiled once, as ties; its lowering plan and flop terms follow
from them (`_OpMeta`).  Propagation rules, per op kind:

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

import dataclasses
import operator
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
    """Per-op lowering tables in absolute dim positions, derived from the ties.

    `plans[s]` holds one `(p, q, r)` per dim of operand slot s: the dim sits
    at row position p, and the op requires the axes `row[q] & row[r]` on it.
    A dim tied to a result dim reads that result dim twice; a contracting
    dim reads both dims of its pair (a sum-reduced dim is contracted with
    itself); any other dim reads the row's zero slot (`_Compiled`) twice.
    The op's local flops are `flops[0]` times the product of
    `size // prod[row[q] & row[r]]` over the `(size, q, r)` of `flops[1]`:
    the result dims, then each contracted or reduced dim.
    """

    operand_idx: tuple[int, ...]
    plans: tuple[tuple[tuple[int, int, int], ...], ...]
    flops: tuple[int, tuple[tuple[int, int, int], ...]]


class _Compiled:
    """Propagation/lowering tables and the axis encoding for one graph on one mesh.

    Axis #k of the mesh is mask bit `1 << k`; `prod[mask]` is the product of
    the sizes of the axes in `mask`, and `labels[mask]` their names, sorted
    and joined by '+'.  A mesh has at most 8 axes (`ir.MAX_MESH_AXES`), so
    a mask fits one byte, and a closed state is one immutable `bytes` row
    of masks, laid out here and only here: `row[offsets[v] + d]`, below
    `total_dims`, holds the axes on dim d of value v; `row[total_dims]` is
    the zero slot, which plans read for a dim that must be unsharded;
    `row[partial_base + v]`, where `partial_base = total_dims + 1`, holds
    the axes value v is partial over.  The zero slot stays 0, which plans
    and a constant's memo key rely on: instances write only dim and partial
    positions, seeds only dim ones.  A row is its own key in the analysis
    cache (`costmodel.estimate`), so that cache holds no copy of it.

    The closure table maps a state key to its row (`closed`), and `rows`
    maps each distinct row to the one row object that every state with
    that row holds.  Only `_make_state` fills or reads them, so a repeated
    action set costs `apply_action` a table hit, not a closure.
    """

    __slots__ = (
        "graph", "mesh", "axis_names", "bit_of", "name_of_bit", "prod", "nbits", "labels",
        "ids", "index", "dims", "nbytes", "nvals", "live_to_end",
        "producer_op", "out_idx", "groups", "group_pos", "group_rank", "group_members",
        "group_dims", "seed_base", "seed_writes", "offsets", "value_of",
        "total_dims", "partial_base", "instances", "op_meta", "part_of", "_sweeps",
        "digest_slots", "scan_keys", "scans", "scan_interned", "analyses", "counts_interned",
        "actions", "closed", "rows",
    )

    def __init__(self, graph: ir.Graph, mesh: ir.Mesh):
        self.graph = graph
        self.mesh = mesh
        self.axis_names = mesh.axis_names
        self.nbits = len(mesh.axes)
        self.bit_of = {a.name: 1 << i for i, a in enumerate(mesh.axes)}
        self.name_of_bit = {1 << i: a.name for i, a in enumerate(mesh.axes)}
        self.prod = [1] * (1 << self.nbits)
        for mask in range(1, 1 << self.nbits):
            low = mask & -mask
            self.prod[mask] = self.prod[mask ^ low] * mesh.axes[low.bit_length() - 1].size
        self.labels = tuple(
            "+".join(sorted(self.names(mask))) for mask in range(1 << self.nbits)
        )

        self.ids = [a.id for a in graph.args] + [op.id for op in graph.ops]
        self.index = {vid: i for i, vid in enumerate(self.ids)}
        types = [a.type for a in graph.args] + [op.result_type for op in graph.ops]
        self.dims = [t.dims for t in types]
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
        self.partial_base = total + 1
        self.value_of = [v for v, dims in enumerate(self.dims) for _ in dims]  # per dim position
        zero = total

        self.groups = sorted((g.id, tuple(self.index[m] for m in g.members)) for g in graph.groups)
        self.group_members = {gid: members for gid, members in self.groups}
        self.group_rank = {gid: len(self.dims[members[0]]) for gid, members in self.groups}
        self.group_pos = {gid: pos for pos, (gid, _) in enumerate(self.groups)}
        # per group, in `groups` order: the dim positions of all its members
        self.group_dims = tuple(
            tuple(self.offsets[m] + d for m in members for d in range(len(self.dims[m])))
            for _, members in self.groups
        )
        # Seed slots: one per (group, dim), in (group id, dim) order.  On a
        # mesh of n axes, action (group, dim, axis #k) is seed index
        # (seed_base[group position] + dim) * n + k, so ascending seed
        # indices run in (group, dim, axis) order.
        self.seed_base = []
        seed_slots = []
        for gid, members in self.groups:
            self.seed_base.append(len(seed_slots))
            seed_slots.extend((gid, d) for d in range(len(self.dims[members[0]])))
        # one `Action` per seed index, which `legal_actions` hands out
        self.actions = tuple(
            Action(gid, d, name) for gid, d in seed_slots for name in self.axis_names
        )
        # digest entries: the dims of each group's first member, in seed-slot order
        self.digest_slots = tuple(
            (self.offsets[self.group_members[gid][0]] + d, f"{gid}.{d}:")
            for gid, d in seed_slots
        )

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

        # An op's ties give its lowering plan and flop terms.  An operand dim
        # tied to a result dim must carry that dim's axes; a contracting pair
        # or a sum-reduced dim needs the axes on both sides; any other dim
        # must be unsharded.  Plans are keyed by operand slot, since one value
        # may fill two slots (`dot(x, x)`).

        def tie(s: int, d: int, k: int) -> None:
            """Tie dim d of operand slot s to result dim k."""
            v = operand_idx[s]
            unify(v, d, res, k)
            plans[s][d] = (self.offsets[v] + d, res_base + k, res_base + k)

        def contract(s: int, a: int, t: int, b: int) -> None:
            """Contract dim a of slot s with dim b of slot t: the result is
            partial over the axes both carry, and compute spans the pair."""
            v, w = operand_idx[s], operand_idx[t]
            pa, pb = self.offsets[v] + a, self.offsets[w] + b
            unify(v, a, w, b, res)
            plans[s][a] = (pa, pa, pb)
            plans[t][b] = (pb, pa, pb)
            terms.append((self.dims[v][a], pa, pb))

        self.op_meta = []
        for op in graph.ops:
            res = self.index[op.id]
            res_base = self.offsets[res]
            operand_idx = tuple(self.index[r] for r in op.operands)
            plans = [
                [(self.offsets[v] + d, zero, zero) for d in range(len(self.dims[v]))]
                for v in operand_idx
            ]
            # local compute covers every element of the local result
            terms = [(size, res_base + k, res_base + k) for k, size in enumerate(self.dims[res])]
            mult = 1
            kind = op.kind
            if isinstance(kind, ir.DotGeneral):
                mult = 2
                li, ri = operand_idx
                for k, (a, b) in enumerate(zip(kind.lhs_batch, kind.rhs_batch)):
                    tie(0, a, k)
                    tie(1, b, k)
                    unify(li, a, ri, b)
                k = len(kind.lhs_batch)
                free = ir.dot_free_dims(kind, len(self.dims[li]), len(self.dims[ri]))
                for s, dims in enumerate(free):
                    for d in dims:
                        tie(s, d, k)
                        k += 1
                for a, b in zip(kind.lhs_contract, kind.rhs_contract):
                    contract(0, a, 1, b)
            elif isinstance(kind, ir.Elementwise):
                for s in range(len(operand_idx)):
                    for d in range(len(self.dims[res])):  # every operand has the result's shape
                        tie(s, d, d)
            elif isinstance(kind, ir.Reduce):
                out_pos = 0
                for d, size in enumerate(self.dims[operand_idx[0]]):
                    if d not in kind.dims:
                        tie(0, d, out_pos)
                        out_pos += 1
                    elif kind.reduce_kind == "sum":  # any sharding will do
                        contract(0, d, 0, d)
                    else:  # max needs the dim whole
                        terms.append((size, zero, zero))
            elif isinstance(kind, ir.Transpose):
                for out_d, in_d in enumerate(kind.permutation):
                    tie(0, in_d, out_d)
            elif isinstance(kind, ir.Reshape):
                mult = 0  # moves no data
                for sd, td in _reshape_dim_pairs(self.dims[operand_idx[0]], kind.target_dims):
                    tie(0, sd, td)
            else:  # constant
                mult = 0
            self.op_meta.append(_OpMeta(
                operand_idx, tuple(map(tuple, plans)),
                (mult, tuple(terms)) if mult else (0, ()),
            ))
        self.instances = tuple(instances)

        # Pricing memo (`costmodel._analyze`): an op's requirement scan and
        # flops read only a state's row at its plan and flop positions and
        # its operands' partial masks.  Per op, `scan_keys` gets those
        # entries and `scans` maps them to the op's scan result.
        # `scan_interned` holds one object per distinct key and result, so
        # equal keys of different ops and equal results share it.  An op
        # that reads nothing (a constant) keys on the zero slot.
        self.scan_keys = []
        for meta in self.op_meta:
            pos = {p for plan in meta.plans for entry in plan for p in entry}
            pos.update(p for _, q, r in meta.flops[1] for p in (q, r))
            pos.discard(zero)
            pos.update(self.partial_base + v for v in meta.operand_idx)
            self.scan_keys.append(operator.itemgetter(*sorted(pos) or (zero,)))
        self.scans = [{} for _ in self.op_meta]
        self.scan_interned: dict = {}
        # `costmodel.estimate`'s penalty-free analyses: config key -> row
        # bytes -> (runtime, peak, counts); rows with equal collective counts
        # share one counts dict, kept in `counts_interned` under its values
        self.analyses: dict = {}
        self.counts_interned: dict = {}

        # Components of the tie graph over dim positions: union the two
        # positions of every instance.  part_of[pos] is one bit per component
        # (numbered by first appearance in instance order), 0 for a position
        # no instance touches.
        root = list(range(total))

        def find(p: int) -> int:
            while root[p] != p:
                root[p] = p = root[root[p]]
            return p

        for inst in instances:
            root[find(inst[5])] = find(inst[2])
        bit_of_root: dict[int, int] = {}
        self.part_of = [0] * total
        for inst in instances:
            for p in (inst[2], inst[5]):
                self.part_of[p] = bit_of_root.setdefault(find(p), 1 << len(bit_of_root))
        self._sweeps: dict[int, tuple] = {}
        # per seed slot, `(component bit, writes)`: the writes that seeding
        # it makes, one `(position, value)` per group member.  The members'
        # dims are tied to the first member's, so they share its component.
        self.seed_writes = tuple(
            (
                self.part_of[self.offsets[self.group_members[gid][0]] + d],
                tuple((self.offsets[m] + d, m) for m in self.group_members[gid]),
            )
            for gid, d in seed_slots
        )
        # the closure table (`_make_state`): key -> row, and row -> itself
        self.closed: dict[int, bytes] = {}
        self.rows: dict[bytes, bytes] = {}

    def sweep_of(self, live: int) -> tuple:
        """The instances of the components in mask `live`, in instance order."""
        run = self._sweeps.get(live)
        if run is None:
            part_of = self.part_of
            run = self._sweeps[live] = tuple(
                inst for inst in self.instances if part_of[inst[2]] & live
            )
        return run

    def names(self, mask: int) -> list[str]:
        out = []
        while mask:
            b = mask & -mask
            mask ^= b
            out.append(self.name_of_bit[b])
        return out


def _close(comp: _Compiled, row: list[int], used: list[int], live: int) -> None:
    """Run all propagation instances to a fixpoint on a mask row, in place.

    `row` is laid out as `_Compiled` says.  The caller hands over the entry
    with it: `used[v]`, the OR of value v's dim masks and its partial mask,
    and `live`, the OR of `_Compiled.part_of` over the nonzero dim
    positions.  `_make_state` writes the seeds, the only nonzero masks at
    entry, and records both from the same seed table (`seed_writes`), so
    they are what a scan of the row would find.  `used` is updated in
    place.  The instance list is swept in a fixed order until no sweep
    changes anything, so the result depends only on the seeded masks.

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

    A sweep runs only the instances of *live* tie-graph components
    (`_Compiled.part_of`), in instance order: the first sweep those with a
    nonzero mask at entry, each later sweep those that the sweep before it
    changed.  The skipped instances are no-ops, so the writes, the fixpoint
    and the number of sweeps are those of sweeping every instance:

    * A position gains axes only through a tie from a nonzero position of
      its own component, so a component with no nonzero mask at entry stays
      all zero: each of its ties meets equal masks (`a == c`) and a zero
      partial mark (`a & c == 0`).
    * If a whole sweep changed nothing in a component, its masks can change
      only through its own instances, and each of those later meets the
      same masks and a `used` that has only grown.  Growth removes
      candidate axes and partial marks, and an axis that failed to divide
      a dim fails again while the dim's mask stays put.  So the component
      never changes again.
    """
    part_of = comp.part_of
    prod = comp.prod
    while live:
        changed = 0
        for partial, i, pi, size_i, j, pj, size_j, res in comp.sweep_of(live):
            a = row[pi]
            c = row[pj]
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
                            changed |= part_of[pi]
                    row[pj] = c = cur
                m = c & ~used[i]
                if m:
                    cur = a
                    while m:
                        b = m & -m
                        m ^= b
                        if size_i % prod[cur | b] == 0:
                            cur |= b
                            used[i] |= b
                            changed |= part_of[pi]
                    row[pi] = a = cur
            if partial:
                add = a & c & ~used[res]
                if add:
                    row[comp.partial_base + res] |= add
                    used[res] |= add
                    changed |= part_of[pi]
        live = changed


class ModuleState:
    """A propagation-closed assignment of shardings for one graph on one mesh.

    Immutable.  A group is actionable on an axis (`legal_actions`) until any
    member carries that axis anywhere in its sharding, whether from a direct
    action or from propagation.  Arguments are never partial, so this is
    read off the members' dim masks (`_Compiled.group_dims`).

    A search holds a state per tree node, so a state is stored compactly: one
    `bytes` row of closed masks (`_row`, laid out as `_Compiled` says) and
    one int bitmask of the applied action set's seed indices (`_key`).
    States with equal rows share one row object (`_make_state`).
    """

    __slots__ = ("applied", "fingerprint", "_comp", "_key", "_row")

    def __init__(self, comp, key, applied, row):
        self._comp = comp
        self._key = key
        self.applied = applied
        self._row = row
        self.fingerprint = Fingerprint(self._digest())

    @property
    def graph(self) -> ir.Graph:
        return self._comp.graph

    @property
    def mesh(self) -> ir.Mesh:
        return self._comp.mesh

    def _digest(self) -> str:
        row, labels = self._row, self._comp.labels
        return ";".join(
            [head + labels[row[pos]] for pos, head in self._comp.digest_slots if row[pos]]
        ) or "()"

    @property
    def shardings(self) -> dict[str, ir.Sharding]:
        """Public per-value shardings; axes listed in mesh declaration order."""
        comp, row = self._comp, self._row
        out = {}
        for v, vid in enumerate(comp.ids):
            base = comp.offsets[v]
            per_dim = tuple(
                ir.DimSharding(tuple(comp.names(row[base + d]))) for d in range(len(comp.dims[v]))
            )
            out[vid] = ir.Sharding(per_dim, frozenset(comp.names(row[comp.partial_base + v])))
        return out


def _make_state(comp: _Compiled, key: int, applied: tuple) -> ModuleState:
    """The state of `key`, a legal action set, reached by `applied`.

    The row comes from the root's closure table (`_Compiled.closed`) when
    an earlier call closed the same set.  Otherwise the actions of `key`
    are seeded, the row is closed and stored as `bytes`, and the table
    records it, interned through `_Compiled.rows` so that equal rows are
    one object.  A row depends only on the action set, so a table hit is
    the row a closure would compute.

    Each seed's writes (`_Compiled.seed_writes`) also give `_close` its
    entry: the used masks of the values they write, and the component of
    the slot.  Every seed divides its dim: a legal seed's axes there are a
    subset of the parent's closed axes plus the new one, and the members
    of a group share their dims.
    """
    row = comp.closed.get(key)
    if row is None:
        work = [0] * (comp.partial_base + comp.nvals)
        used = [0] * comp.nvals
        live = 0
        rest = key
        while rest:  # ascending seed index: (group, dim, axis) order
            low = rest & -rest
            rest ^= low
            slot, k = divmod(low.bit_length() - 1, comp.nbits)
            bit = 1 << k
            part, writes = comp.seed_writes[slot]
            live |= part
            for pos, v in writes:
                work[pos] |= bit
                used[v] |= bit
        _close(comp, work, used, live)
        row = bytes(work)
        row = comp.closed[key] = comp.rows.setdefault(row, row)
    return ModuleState(comp, key, applied, row)


def initial_state(graph: ir.Graph, mesh: ir.Mesh) -> ModuleState:
    """Fully replicated starting state; compiles the tables its successors share."""
    return _make_state(_Compiled(graph, mesh), 0, ())


def legal_actions(state: ModuleState, active_axis: str | None) -> list[Action]:
    """All currently legal actions, ordered by (group, dim).

    With active_axis=None, actions for every mesh axis are returned in mesh
    declaration order.  An action is legal when its group is still on the
    axis's worklist and the dim remains divisible after adding the axis.
    """
    if active_axis is None:
        out = []
        for name in state._comp.axis_names:
            out.extend(legal_actions(state, name))
        return out
    comp = state._comp
    if active_axis not in comp.bit_of:
        raise ShapeError(f"unknown mesh axis {active_axis!r}; mesh has {comp.axis_names}")
    bit = comp.bit_of[active_axis]
    nbits = comp.nbits
    row = state._row
    actions = []
    # groups in ascending id
    for (_, members), positions, seed in zip(comp.groups, comp.group_dims, comp.seed_base):
        for p in positions:
            if row[p] & bit:  # off the axis's worklist
                break
        else:
            base = comp.offsets[members[0]]
            dims = comp.dims[members[0]]
            first = seed * nbits + bit.bit_length() - 1  # the seed index of dim 0
            for d in range(len(dims)):
                if dims[d] % comp.prod[row[base + d] | bit] == 0:
                    actions.append(comp.actions[first + d * nbits])
    return actions


def _seed_index(state: ModuleState, action: Action) -> int:
    """The action's bit position in a state key; raises unless it is legal.

    This is the one legality rule: the axis and group exist, the dim is in
    range, the group is still on the axis's worklist, and the dim stays
    divisible with the axis added to the axes it carries.
    """
    comp = state._comp
    if action.axis not in comp.bit_of:
        raise IllegalActionError(
            f"unknown mesh axis {action.axis!r}; mesh has {comp.axis_names}"
        )
    if action.group not in comp.group_members:
        raise IllegalActionError(f"unknown group {action.group}")
    rank = comp.group_rank[action.group]
    if not 0 <= action.dim < rank:
        raise IllegalActionError(
            f"dim {action.dim} out of range for group {action.group} of rank {rank}"
        )
    bit = comp.bit_of[action.axis]
    group_pos = comp.group_pos[action.group]
    if any(state._row[p] & bit for p in comp.group_dims[group_pos]):
        raise IllegalActionError(
            f"group {action.group} is no longer actionable on axis {action.axis!r}"
        )
    first = comp.group_members[action.group][0]
    pos = comp.offsets[first] + action.dim
    size = comp.dims[first][action.dim]
    if size % comp.prod[state._row[pos] | bit] != 0:
        raise IllegalActionError(
            f"dim {action.dim} of group {action.group} (size {size}) not divisible "
            f"by axis {action.axis!r} on top of {comp.names(state._row[pos])}"
        )
    return (comp.seed_base[group_pos] + action.dim) * comp.nbits + bit.bit_length() - 1


def apply_action(state: ModuleState, action: Action) -> ModuleState:
    """Apply one action and re-propagate to fixpoint; raises if illegal.

    The one way to make a state from another: `_seed_index` checks the
    action, and `_make_state` takes the new set's row from the closure
    table or closes it.  The result is a new state object each call.
    """
    return _make_state(
        state._comp, state._key | 1 << _seed_index(state, action), state.applied + (action,)
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
    """Caches nothing: `apply` is `apply_action`.

    `mcts.run_search` makes its states through it only because the traced
    bench wraps `StateCache.apply` to count them (`bench/child.py`); the
    class goes when that wrapper does.  A state's `applied` order is the
    path that made it.
    """

    def apply(self, state: ModuleState, action: Action) -> ModuleState:
        return apply_action(state, action)
