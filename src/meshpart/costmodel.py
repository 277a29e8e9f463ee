"""Lowering to collectives and analytical cost estimation.

Lowering walks the ops in program order and compares each operand's actual
sharding with the sharding the consumer requires, derived from the op's own
result sharding read backwards through the propagation rules:

* producer sharded along an axis the consumer cannot use there (wrong dim or
  unsharded requirement): AllGather along that axis, any residual dim
  mismatch is a free local slice;
* producer partial over an axis some consumer needs sharded on a dim: one
  ReduceScatter shared by every consumer of that (value, axis);
* producer partial over an axis with only full-value consumers: one
  AllReduce at the producer, shared by all of them — unless a ReduceScatter
  was already emitted for the pair, in which case full-value consumers
  AllGather from its output instead (same total cost as the AllReduce);
* pending partial sums reaching a module output are AllReduced at the
  producer unless a ReduceScatter already materialized the value.

AllGather placement follows cse_allgather: off, each consumer site gathers
privately and the gathered tensor lives only at that site; on, one gather
per (value, axes) placed at the first use, with the gathered tensor held
live until its last use.

Collective timing uses ring schedules on n devices with per-axis link
bandwidth B and latency a:

    AllGather / ReduceScatter:  (n-1)*a + S*(n-1)/(n*B)
    AllReduce:                  2*(n-1)*a + 2*S*(n-1)/(n*B)

where S is the payload: the bytes of the tensor made full along the
collective's axis (other sharded axes still divide it).

Runtime is the sum of per-op local compute time and all collective times.
Peak memory is the maximum over program points of live per-device bytes,
with Parameter and OptimizerState arguments resident for the whole program.
The penalized cost multiplies runtime by a soft over-limit factor.

A state is one mask row, laid out by `engine._Compiled`.  This module owns
every table that only pricing reads (`_Pricing`): value sizes, resident
buffers, the per-op memo keys, the pricing memo, its intern table and the
analysis cache.  They are built from the root's compiled tables on the
first pricing of one of its states, sit beside them in `_Compiled.pricing`,
and are freed with them.  Each op's requirement scan and flops are
memoized.  They read only the row's entries at the op's plan positions
`(p, q, r)` and its operands' partial masks (`_scan_key`), so that tuple of
masks is the memo key and the result (flops, gathers, partial entries,
base values) is a pure function of it: a hit returns exactly what the scan
would compute.  `cse_allgather` enters only in the per-state
bookkeeping that reads the results, so one memo serves every config.

`estimate` also caches each state's penalty-free analysis (runtime, peak,
counts), keyed first by the config fields `_analyze` reads
(`flops_per_second`, `cse_allgather`, `links`) and then by the state's
packed row as the root's closure table holds it (`_Compiled.closed` under
the state's key), so the cache holds no copy of it.  Every state is made
by `engine._make_state`, which records its row in that table before it
returns the state, so the lookup always finds it.  Equal rows are one
interned object, packing is exact (`_Compiled.unpack` inverts it) and the
analysis is a pure function of the row and those fields, so a hit is
exact.  A digest would not do as the key: it covers the argument groups
only, and states sharing one may differ in cost.  The memory limit and
penalty slope stay out of the key: `_penalize` applies them after the
lookup, so every goal's penalty and every seed of a command share one
analysis per closed state.  `lower` runs `_analyze` itself, since it needs
the events, and checks its costs with the same `_penalize`.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from itertools import accumulate
from typing import Mapping, Sequence

from . import engine, ir
from .errors import ConfigError

ALL_GATHER = "AllGather"
ALL_REDUCE = "AllReduce"
REDUCE_SCATTER = "ReduceScatter"
COLLECTIVE_KINDS = (ALL_GATHER, ALL_REDUCE, REDUCE_SCATTER)

RUNTIME = "Runtime"
MEMORY = "Memory"
PENALIZED_RUNTIME = "PenalizedRuntime"
OBJECTIVES = (RUNTIME, MEMORY, PENALIZED_RUNTIME)


@dataclasses.dataclass(frozen=True)
class Collective:
    kind: str
    axis: str
    payload_bytes: int
    site: str  # id of the op the collective serves (consumer) or resolves (producer)


@dataclasses.dataclass(frozen=True)
class AxisLink:
    bandwidth_bytes_per_second: float
    latency_seconds: float


@dataclasses.dataclass(frozen=True)
class CostModelConfig:
    flops_per_second: float
    links: Mapping[str, AxisLink]
    memory_limit_bytes: float
    memory_penalty_slope: float
    cse_allgather: bool = False


DEFAULT_FLOPS_PER_SECOND = 1.0e12
DEFAULT_BANDWIDTH = 1.0e11
DEFAULT_LATENCY = 5.0e-7
DEFAULT_MEMORY_LIMIT = float(1 << 20)
DEFAULT_PENALTY_SLOPE = 1.0


def default_config(mesh: ir.Mesh, **overrides) -> CostModelConfig:
    links = {
        a.name: AxisLink(DEFAULT_BANDWIDTH, DEFAULT_LATENCY) for a in mesh.axes
    }
    base = dict(
        flops_per_second=DEFAULT_FLOPS_PER_SECOND,
        links=links,
        memory_limit_bytes=DEFAULT_MEMORY_LIMIT,
        memory_penalty_slope=DEFAULT_PENALTY_SLOPE,
        cse_allgather=False,
    )
    base.update(overrides)
    return CostModelConfig(**base)


@dataclasses.dataclass(frozen=True, slots=True)
class CostEstimate:
    runtime_seconds: float
    peak_memory_bytes: int
    counts: Mapping[str, int]
    penalized_cost: float


def metric_value(est: CostEstimate, objective: str) -> float:
    """The scalar a goal optimizes: lower is always better."""
    if objective == RUNTIME:
        return est.runtime_seconds
    if objective == MEMORY:
        return float(est.peak_memory_bytes)
    if objective == PENALIZED_RUNTIME:
        return est.penalized_cost
    raise ConfigError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")


@dataclasses.dataclass(frozen=True)
class LoweredProgram:
    """Graph ops in original order with collectives spliced around them.

    An event is an op id (`str`) or a `Collective`.
    """

    events: tuple[str | Collective, ...]

    @property
    def collectives(self) -> tuple[Collective, ...]:
        return tuple(e for e in self.events if isinstance(e, Collective))


def _ring_terms(cfg: CostModelConfig, mesh: ir.Mesh, axis: str) -> tuple[float, int, float]:
    """`((n-1)*latency, n-1, n*bandwidth)` of one axis's ring of n devices."""
    n = mesh.axis_size(axis)
    link = cfg.links.get(axis)
    if link is None:
        raise ConfigError(f"cost config has no link parameters for axis {axis!r}")
    return (n - 1) * link.latency_seconds, n - 1, n * link.bandwidth_bytes_per_second


def collective_time(c: Collective, cfg: CostModelConfig, mesh: ir.Mesh) -> float:
    """Ring-schedule time for one collective over its mesh axis."""
    latency, hops, width = _ring_terms(cfg, mesh, c.axis)
    steps = latency + c.payload_bytes * hops / width
    if c.kind == ALL_REDUCE:
        return 2.0 * steps
    if c.kind in (ALL_GATHER, REDUCE_SCATTER):
        return steps
    raise ConfigError(f"unknown collective kind {c.kind!r}")


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b


def _penalize(
    cfg: CostModelConfig, runtime: float, peak: int, counts: dict[str, int]
) -> CostEstimate:
    """The estimate of a penalty-free analysis under cfg's memory penalty.

    The one place the penalty is applied.  Raises ConfigError when a cost
    does not convert to a finite float (a model or cost config far out of
    range), so no estimate, report or reward ever holds an infinite or NaN
    cost.
    """
    try:
        over = max(0.0, peak / cfg.memory_limit_bytes - 1.0)
        penalized = runtime * (1.0 + cfg.memory_penalty_slope * over)
    except OverflowError:  # an integer cost past the float range
        penalized = math.inf
    if not (math.isfinite(runtime) and math.isfinite(penalized)):
        raise ConfigError(
            f"the cost of this plan is not a finite number (runtime {runtime} s, "
            f"penalized cost {penalized}); the model or cost config is out of range"
        )
    return CostEstimate(runtime, peak, counts, penalized)


def _analysis(state: engine.ModuleState, cfg: CostModelConfig) -> tuple:
    """(events, runtime, peak bytes, counts by kind) from `_analyze`.

    The runtime is infinite when an integer cost passes the float range,
    so `_penalize` rejects it.
    """
    try:
        events, compute_seconds, comm_seconds, peak, counts = _analyze(state, cfg)
    except OverflowError:
        return [], math.inf, 0, {}
    return events, compute_seconds + comm_seconds, peak, counts


class _Pricing:
    """The cost model's tables for one root, beside its `engine._Compiled`.

    Built from the compiled tables on the first pricing of a state of the
    root (`_pricing`) and kept in `_Compiled.pricing`.  It holds no
    reference back to them, so the two are freed together.  Per value:
    `nbytes`, its full size, and `live_to_end`, whether its buffer stays
    live to the end of the program; `value_of` gives the value of each dim
    position.  Per op, `scan_keys` gets its memo key (`_scan_key`) from a
    row and `scans` maps the key to the op's scan result; `scan_interned`
    holds one object per distinct key and result, so equal keys of
    different ops and equal results share it.  `analyses` is `estimate`'s
    cache of penalty-free analyses: config key -> packed row -> (runtime,
    peak, counts); rows with equal collective counts share one counts dict,
    kept in `counts_interned` under its values.
    """

    def __init__(self, comp: engine._Compiled):
        args, ops = comp.graph.args, comp.graph.ops
        self.nbytes = [a.type.byte_size for a in args] + [op.result_type.byte_size for op in ops]
        self.out_idx = [comp.index[o] for o in comp.graph.outputs]
        # parameters, optimizer state and outputs stay resident
        resident = (ir.Role.PARAMETER, ir.Role.OPTIMIZER_STATE)
        self.live_to_end = [a.role in resident for a in args] + [False] * len(ops)
        for v in self.out_idx:
            self.live_to_end[v] = True
        self.value_of = [v for v, dims in enumerate(comp.dims) for _ in dims]
        self.scan_keys = [_scan_key(comp, meta) for meta in comp.op_meta]
        self.scans = [{} for _ in ops]
        self.scan_interned: dict = {}
        self.analyses: dict = {}
        self.counts_interned: dict = {}


def _pricing(comp: engine._Compiled) -> _Pricing:
    """The root's pricing tables, built on its first pricing."""
    tables = getattr(comp, "pricing", None)  # `_Compiled` leaves the slot unset
    if tables is None:
        tables = comp.pricing = _Pricing(comp)
    return tables


def _scan_key(comp: engine._Compiled, meta: engine._OpMeta) -> operator.itemgetter:
    """The memo key of an op's scan: the row entries `_scan` reads.

    Those are the op's plan positions `(p, q, r)` and its operands'
    partial masks, less the zero slot, which is 0 in every row.  Each
    flop-term position `(q, r)` is a plan position too: a result dim's is
    that of the operand dims tied to it, a contracted dim's that of its
    pair, and a max-reduced dim's the zero slot.  An op that reads nothing
    (a constant) keys on the zero slot.
    """
    zero = comp.total_dims
    pos = {p for plan in meta.plans for entry in plan for p in entry}
    pos.discard(zero)
    pos.update(comp.partial_base + v for v in meta.operand_idx)
    return operator.itemgetter(*sorted(pos) or (zero,))


def _scan(comp: engine._Compiled, i: int, row: Sequence[int]) -> tuple:
    """(flops, gathers, partial entries, base values) of op `i`.

    `row` is a state's mask row (`engine._Compiled`); the result reads only
    the entries of the op's key (`_scan_key`), so it is a pure function of
    that key.  Per operand slot, a dim's producer axes outside its
    requirement `row[q] & row[r]` are gathered, and each partial bit of the operand is
    needed sharded when some dim requires it.  Gathers are distinct
    `(v, gmask)` pairs, partial entries distinct `((v, bit), needs_sharded)`
    pairs, and base values the operands some slot reads as they are, each
    in slot order.
    """
    operand_idx, plans, (mult, terms) = comp.op_meta[i]
    gathers: list[tuple[int, int]] = []
    part_entries: list[tuple[tuple[int, int], bool]] = []
    bases: list[int] = []
    for v, plan in zip(operand_idx, plans):
        gmask = 0
        req_union = 0
        for p, q, r in plan:
            req = row[q] & row[r]
            req_union |= req
            gmask |= row[p] & ~req
        if gmask and (v, gmask) not in gathers:
            gathers.append((v, gmask))
        # every partial bit the slot needs sharded becomes a ReduceScatter
        needs_rs = False
        for bit in _bits(row[comp.partial_base + v]):
            entry = ((v, bit), bool(req_union & bit))
            needs_rs |= entry[1]
            if entry not in part_entries:
                part_entries.append(entry)
        if not gmask and not needs_rs and v not in bases:
            bases.append(v)
    prod = comp.prod
    n = mult
    for size, q, r in terms:
        n *= size // prod[row[q] & row[r]]
    return n, tuple(gathers), tuple(part_entries), tuple(bases)


def _analyze(
    state: engine.ModuleState, cfg: CostModelConfig
) -> tuple[list, float, float, int, dict[str, int]]:
    """(events, compute seconds, comm seconds, peak bytes, counts by kind).

    An event is an op index, or a collective `(kind, axis bit, payload
    bytes, site op index)`; `lower` turns them into ids and `Collective`s.
    """
    comp = state._comp
    tables = _pricing(comp)
    row = state._row
    prod = comp.prod
    nvals = comp.nvals
    n_ops = len(comp.op_meta)

    dmask = [0] * nvals  # per value, the axes on any of its dims
    for v, m in zip(tables.value_of, row):  # dim positions only
        if m:
            dmask[v] |= m

    def local_bytes(v: int) -> int:
        return tables.nbytes[v] // prod[dmask[v]]

    # --- requirement scan --------------------------------------------------
    # For every operand slot, compare the producer's sharding to what this
    # consumer's own result sharding requires, per the slot's plan.  Each
    # op's scan comes from its memo (`_scan`); the bookkeeping below is
    # the only part that depends on the config.
    part_req: dict[tuple[int, int], list[int]] = {}   # (v, bit) -> requiring ops
    part_full: dict[tuple[int, int], list[int]] = {}  # (v, bit) -> full-needing ops
    # (v, gmask, op) -> consumer ops; op is -1 when gathers are shared
    ag: dict[tuple[int, int, int], list[int]] = {}
    base_op = [-1] * nvals  # last op with a slot that reads the value's own buffer
    shared = cfg.cse_allgather
    interned = tables.scan_interned
    flops = 0

    for i, key_of, memo in zip(range(n_ops), tables.scan_keys, tables.scans):
        key = key_of(row)
        scan = memo.get(key)
        if scan is None:
            scan = _scan(comp, i, row)
            scan = memo[interned.setdefault(key, key)] = interned.setdefault(scan, scan)
        n, gathers, part_entries, bases = scan
        flops += n
        for v, gmask in gathers:
            ag.setdefault((v, gmask, -1 if shared else i), []).append(i)
        for v_bit, needs_sharded in part_entries:
            (part_req if needs_sharded else part_full).setdefault(v_bit, []).append(i)
        for v in bases:
            base_op[v] = i

    # a partial output needs its full value at the module boundary
    for o in tables.out_idx:
        for bit in _bits(row[comp.partial_base + o]):
            part_full.setdefault((o, bit), [])

    # --- collective placement ---------------------------------------------
    # pre[i]: collectives before op i, gathers then ReduceScatters, each
    # ordered by value and axes; post[i]: (v, bit) AllReduces right after it.
    # Only op results are partial, and the values are the arguments, then
    # the op results, so value v is the result of op v + n_ops - nvals.
    pre: list[list[tuple]] = [[] for _ in range(n_ops)]
    post: list[list[tuple[int, int]]] = [[] for _ in range(n_ops)]

    for (v, gmask, _), consumers in sorted(ag.items()):
        pre[consumers[0]].append(("ag", v, gmask, consumers))
    for (v, bit), req_ops in sorted(part_req.items()):
        full_ops = part_full.pop((v, bit), [])
        pre[min(req_ops + full_ops)].append(("rs", v, bit, req_ops, full_ops))
    for v, bit in sorted(part_full):
        post[v + n_ops - nvals].append((v, bit))

    # --- events and buffers ------------------------------------------------
    events: list = []
    ev_of_op = [0] * n_ops + [-1]  # the -1 slot serves base_op's "no reader"
    base_read = [-1] * nvals  # last collective that touches the value's own buffer
    # (start event, consumers, bytes) of each collective's output buffer
    deferred: list[tuple[int, list[int], int]] = []
    comm_seconds = 0.0
    counts = {ALL_GATHER: 0, ALL_REDUCE: 0, REDUCE_SCATTER: 0}
    ring: dict[int, tuple[float, int, float]] = {}  # axis bit -> _ring_terms

    def emit(kind: str, axis_bit: int, payload: int, site_op: int, v: int) -> int:
        # adds collective_time in event order, with its float operations
        nonlocal comm_seconds
        terms = ring.get(axis_bit)
        if terms is None:
            terms = ring[axis_bit] = _ring_terms(cfg, comp.mesh, comp.name_of_bit[axis_bit])
        steps = terms[0] + payload * terms[1] / terms[2]
        comm_seconds += 2.0 * steps if kind == ALL_REDUCE else steps
        events.append((kind, axis_bit, payload, site_op))
        counts[kind] += 1
        base_read[v] = len(events) - 1
        return base_read[v]

    for i in range(n_ops):
        for entry in pre[i]:
            if entry[0] == "ag":
                _, v, gmask, consumers = entry
                remaining = dmask[v]
                prev: tuple[int, int] | None = None
                for bit in _bits(gmask):
                    remaining &= ~bit
                    payload = tables.nbytes[v] // prod[remaining]
                    e = emit(ALL_GATHER, bit, payload, consumers[0], v)
                    if prev is not None:  # the next gather of the chain reads it
                        deferred.append((prev[0], [e], prev[1]))
                    prev = (e, payload)
                deferred.append((prev[0], consumers, prev[1]))
            else:
                _, v, bit, req_ops, full_ops = entry
                payload = local_bytes(v)
                e = emit(REDUCE_SCATTER, bit, payload, min(req_ops + full_ops), v)
                ends = list(req_ops)
                if full_ops:
                    e2 = emit(ALL_GATHER, bit, payload, min(full_ops), v)
                    ends.append(e2)  # scattered buffer feeds the gather
                    deferred.append((e2, full_ops, payload))
                deferred.append((e, ends, payload // prod[bit]))
        ev_of_op[i] = len(events)
        events.append(i)
        for v, bit in post[i]:
            emit(ALL_REDUCE, bit, local_bytes(v), i, v)

    # A buffer live from event `start` through event `end` adds its bytes
    # to delta[start] and takes them off at delta[end + 1].
    last = max(len(events) - 1, 0)
    delta = [0] * (last + 2)
    for start, consumers, nbytes in deferred:
        end = max(c if c >= start else ev_of_op[c] for c in consumers)
        delta[start] += nbytes
        delta[end + 1] -= nbytes

    # a value's own buffer: an argument's from event 0, an op result's from
    # its op's event (values are the arguments, then the op results)
    def_ev = [0] * (nvals - n_ops) + ev_of_op[:n_ops]
    for pinned, start, coll, op, nbytes, m in zip(
        tables.live_to_end, def_ev, base_read, base_op, tables.nbytes, dmask
    ):
        end = last if pinned else max(coll, ev_of_op[op], start)
        nbytes //= prod[m]
        delta[start] += nbytes
        delta[end + 1] -= nbytes

    # --- peak memory: sweep live bytes across events -----------------------
    peak = max(accumulate(delta[: last + 1], initial=0))

    compute_seconds = flops / cfg.flops_per_second
    return events, compute_seconds, comm_seconds, peak, counts


def lower(state: engine.ModuleState, cfg: CostModelConfig) -> LoweredProgram:
    """Materialize the collective schedule implied by the state's shardings."""
    events, *costs = _analysis(state, cfg)
    _penalize(cfg, *costs)  # rejects what `estimate` rejects
    ops = state.graph.ops
    axis_name = state._comp.name_of_bit
    return LoweredProgram(tuple(
        ops[e].id if type(e) is int
        else Collective(e[0], axis_name[e[1]], e[2], ops[e[3]].id)
        for e in events
    ))


def estimate(state: engine.ModuleState, cfg: CostModelConfig) -> CostEstimate:
    """Simulated step time, peak per-device memory, and collective counts."""
    comp = state._comp
    tables = _pricing(comp)
    by_row = tables.analyses.setdefault(_analysis_key(cfg), {})
    row = comp.closed[state._key]
    costs = by_row.get(row)
    if costs is None:
        runtime, peak, counts = _analysis(state, cfg)[1:]
        counts = tables.counts_interned.setdefault(tuple(counts.values()), counts)
        costs = by_row[row] = runtime, peak, counts
    return _penalize(cfg, *costs)


def _analysis_key(cfg: CostModelConfig) -> tuple:
    """The config fields `_analyze` reads: all but the memory limit and slope."""
    return cfg.flops_per_second, cfg.cse_allgather, tuple(cfg.links.items())


# --- configuration serialization -------------------------------------------


def config_to_json(cfg: CostModelConfig) -> dict:
    return {
        "flops_per_second": cfg.flops_per_second,
        "axes": [
            {
                "name": name,
                "bandwidth": link.bandwidth_bytes_per_second,
                "latency": link.latency_seconds,
            }
            for name, link in cfg.links.items()
        ],
        "memory_limit_bytes": cfg.memory_limit_bytes,
        "memory_penalty_slope": cfg.memory_penalty_slope,
        "cse_allgather": cfg.cse_allgather,
    }


_CONFIG_KEYS = (
    "flops_per_second", "axes", "memory_limit_bytes", "memory_penalty_slope", "cse_allgather",
)
_AXIS_KEYS = ("name", "bandwidth", "latency")


def config_from_json(obj: object, mesh: ir.Mesh) -> CostModelConfig:
    """Read a cost config; mesh axes it gives no link get the default link.

    The top level is an object with only the keys `config_to_json` writes.
    Numbers are JSON numbers (not strings or booleans), finite and positive;
    latencies and the penalty slope may be 0.  `cse_allgather` is a boolean,
    and `axes` a list of objects with only the keys `name`, `bandwidth` and
    `latency`, each naming a mesh axis at most once.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"cost config must be a JSON object, got {type(obj).__name__}")
    ir.reject_unknown_keys(obj, _CONFIG_KEYS, "cost config", ConfigError)

    def number(what: str, value, zero_ok: bool) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{what} must be a JSON number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
            bound = "at least 0" if zero_ok else "positive"
            raise ConfigError(f"{what} must be finite and {bound}, got {value}")
        return value

    flops = number(
        "flops_per_second", obj.get("flops_per_second", DEFAULT_FLOPS_PER_SECOND), False
    )
    limit = number(
        "memory_limit_bytes", obj.get("memory_limit_bytes", DEFAULT_MEMORY_LIMIT), False
    )
    slope = number(
        "memory_penalty_slope", obj.get("memory_penalty_slope", DEFAULT_PENALTY_SLOPE), True
    )
    cse = obj.get("cse_allgather", False)
    if not isinstance(cse, bool):
        raise ConfigError(f"cse_allgather must be true or false, got {cse!r}")
    entries = obj.get("axes", [])
    if not isinstance(entries, list):
        raise ConfigError(f"cost config axes must be a list, got {entries!r}")
    links = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError(f"cost config axes entries must be objects, got {entry!r}")
        ir.reject_unknown_keys(entry, _AXIS_KEYS, "cost config axes entry", ConfigError)
        name = entry.get("name")
        if not isinstance(name, str) or not mesh.has_axis(name):
            raise ConfigError(
                f"cost config axis {name!r} names no mesh axis; mesh has {mesh.axis_names}"
            )
        if name in links:
            raise ConfigError(f"cost config gives axis {name!r} twice")
        links[name] = AxisLink(
            number(f"bandwidth of axis {name!r}", entry.get("bandwidth"), False),
            number(f"latency of axis {name!r}", entry.get("latency"), True),
        )
    for axis in mesh.axes:
        if axis.name not in links:
            links[axis.name] = AxisLink(DEFAULT_BANDWIDTH, DEFAULT_LATENCY)
    return CostModelConfig(flops, links, limit, slope, cse)


def load_config_file(path: str, mesh: ir.Mesh) -> CostModelConfig:
    return config_from_json(ir.read_json_file(path, "cost config"), mesh)
