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
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Mapping, TypeAlias

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


@dataclasses.dataclass(frozen=True)
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
class OpEvent:
    op_id: str


@dataclasses.dataclass(frozen=True)
class CollectiveEvent:
    collective: Collective


ProgramEvent: TypeAlias = OpEvent | CollectiveEvent


@dataclasses.dataclass(frozen=True)
class LoweredProgram:
    """Graph ops in original order with collectives spliced around them."""

    events: tuple[ProgramEvent, ...]

    @property
    def collectives(self) -> tuple[Collective, ...]:
        return tuple(
            e.collective for e in self.events if isinstance(e, CollectiveEvent)
        )


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


_OUTPUT = -1  # sentinel consumer: the module boundary itself


def _analyze(
    state: engine.ModuleState, cfg: CostModelConfig
) -> tuple[list, float, float, int, dict[str, int]]:
    """(events, compute seconds, comm seconds, peak bytes, counts by kind).

    An event is an op index, or a collective `(kind, axis bit, payload
    bytes, site op index)`; `lower` turns them into `ProgramEvent`s.
    """
    comp = state._comp
    mt = state._mt
    fm = state._fm.tolist()
    fm.append(0)  # the zero slot that plans read at comp.total_dims
    partials = state._partials
    prod = mt.prod
    nvals = comp.nvals
    op_meta = comp.op_meta
    n_ops = len(op_meta)

    dmask = [0] * nvals  # per value, the axes on any of its dims
    for v, m in zip(comp.value_of, fm):
        if m:
            dmask[v] |= m

    def local_bytes(v: int) -> int:
        return comp.nbytes[v] // prod[dmask[v]]

    # --- requirement scan --------------------------------------------------
    # For every operand slot, compare the producer's sharding to what this
    # consumer's own result sharding requires, per the slot's plan.
    part_req: dict[tuple[int, int], list[int]] = {}   # (v, bit) -> requiring ops
    part_full: dict[tuple[int, int], list[int]] = {}  # (v, bit) -> full-needing ops
    # (v, gmask, op) -> consumer ops; op is -1 when gathers are shared
    ag: dict[tuple[int, int, int], list[int]] = {}
    base_op = [-1] * nvals  # last op with a slot that reads the value's own buffer

    for i, (_, operand_idx, plans, _) in enumerate(op_meta):
        for v, plan in zip(operand_idx, plans):
            gmask = 0
            req_union = 0
            for p, q, r in plan:
                req = fm[q] & fm[r]
                req_union |= req
                gmask |= fm[p] & ~req
            if gmask:
                sites = ag.setdefault((v, gmask, -1 if cfg.cse_allgather else i), [])
                if not sites or sites[-1] != i:
                    sites.append(i)
            # every partial bit the slot needs sharded becomes a ReduceScatter
            needs_rs = False
            if partials[v]:
                for bit in _bits(partials[v]):
                    if req_union & bit:
                        needs_rs = True
                        lst = part_req.setdefault((v, bit), [])
                    else:
                        lst = part_full.setdefault((v, bit), [])
                    if not lst or lst[-1] != i:
                        lst.append(i)
            if not gmask and not needs_rs:
                base_op[v] = i

    for o in comp.out_idx:
        for bit in _bits(partials[o]):
            part_full.setdefault((o, bit), []).append(_OUTPUT)

    # --- collective placement ---------------------------------------------
    # pre[i]: collectives before op i, gathers then ReduceScatters, each
    # ordered by value and axes; post[i]: (v, bit) AllReduces right after it.
    pre: list[list[tuple]] = [[] for _ in range(n_ops)]
    post: list[list[tuple[int, int]]] = [[] for _ in range(n_ops)]

    for (v, gmask, _), consumers in sorted(ag.items()):
        pre[consumers[0]].append(("ag", v, gmask, consumers))
    for (v, bit), req_ops in sorted(part_req.items()):
        full_ops = [c for c in part_full.pop((v, bit), []) if c != _OUTPUT]
        pre[min(req_ops + full_ops)].append(("rs", v, bit, req_ops, full_ops))
    for v, bit in sorted(part_full):
        post[comp.producer_op[v]].append((v, bit))

    # --- event construction ------------------------------------------------
    events: list = []
    ev_of_op = [0] * n_ops
    base_read = [-1] * nvals  # last collective that touches the value's own buffer
    def_ev = [0] * nvals
    buffers: list[tuple[int, int, int]] = []  # (start event, end event, bytes)
    deferred: list[tuple[int, list[int], int]] = []  # ends at consumers' op events
    comm_seconds = 0.0
    counts = {ALL_GATHER: 0, ALL_REDUCE: 0, REDUCE_SCATTER: 0}
    ring: dict[int, tuple[float, int, float]] = {}  # axis bit -> _ring_terms

    def emit(kind: str, axis_bit: int, payload: int, site_op: int, v: int) -> int:
        # adds collective_time in event order, with its float operations
        nonlocal comm_seconds
        terms = ring.get(axis_bit)
        if terms is None:
            terms = ring[axis_bit] = _ring_terms(cfg, mt.mesh, mt.name_of_bit[axis_bit])
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
                    payload = comp.nbytes[v] // prod[remaining]
                    e = emit(ALL_GATHER, bit, payload, consumers[0], v)
                    if prev is not None:
                        buffers.append((prev[0], e, prev[1]))
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
        events.append(i)
        ev_of_op[i] = def_ev[op_meta[i].result_idx] = len(events) - 1
        for v, bit in post[i]:
            emit(ALL_REDUCE, bit, local_bytes(v), i, v)

    last = len(events) - 1 if events else 0

    for start, consumers, nbytes in deferred:
        end = max(c if c >= start else ev_of_op[c] for c in consumers)
        buffers.append((start, end, nbytes))

    for pinned, start, coll, op, nbytes, m in zip(
        comp.live_to_end, def_ev, base_read, base_op, comp.nbytes, dmask
    ):  # start is 0 for an argument
        if pinned:
            end = last
        else:
            end = max(coll, ev_of_op[op] if op >= 0 else -1, start)
        buffers.append((start, end, nbytes // prod[m]))

    # --- peak memory: sweep live bytes across events -----------------------
    delta = [0] * (last + 2)
    for start, end, nbytes in buffers:
        delta[start] += nbytes
        delta[end + 1] -= nbytes
    peak = 0
    live = 0
    for d in delta[: last + 1]:
        live += d
        if live > peak:
            peak = live

    # --- local compute time ------------------------------------------------
    flops = 0
    for _, _, _, (mult, terms) in op_meta:
        n = mult
        for size, q, r in terms:
            n *= size // prod[fm[q] & fm[r]]
        flops += n

    compute_seconds = flops / cfg.flops_per_second
    return events, compute_seconds, comm_seconds, peak, counts


def lower(state: engine.ModuleState, cfg: CostModelConfig) -> LoweredProgram:
    """Materialize the collective schedule implied by the state's shardings."""
    ops = state.graph.ops
    axis_name = state._mt.name_of_bit
    return LoweredProgram(tuple(
        OpEvent(ops[e].id) if type(e) is int
        else CollectiveEvent(Collective(e[0], axis_name[e[1]], e[2], ops[e[3]].id))
        for e in _analyze(state, cfg)[0]
    ))


def estimate(state: engine.ModuleState, cfg: CostModelConfig) -> CostEstimate:
    """Simulated step time, peak per-device memory, and collective counts."""
    _, compute_seconds, comm_seconds, peak, counts = _analyze(state, cfg)
    runtime = compute_seconds + comm_seconds
    over = max(0.0, peak / cfg.memory_limit_bytes - 1.0)
    penalized = runtime * (1.0 + cfg.memory_penalty_slope * over)
    return CostEstimate(runtime, peak, counts, penalized)


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


def config_from_json(obj: object, mesh: ir.Mesh) -> CostModelConfig:
    """Read a cost config; mesh axes it gives no link get the default link.

    The top level is an object.  Numbers are JSON numbers (not strings or
    booleans), finite and positive; latencies and the penalty slope may be 0.
    `cse_allgather` is a boolean, and `axes` a list of objects, each naming a
    mesh axis at most once.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"cost config must be a JSON object, got {type(obj).__name__}")

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
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read cost config {path!r}: {e}") from e
    except ValueError as e:  # not JSON, or not UTF-8
        raise ConfigError(f"cost config {path!r} is not valid JSON: {e}") from e
    return config_from_json(obj, mesh)
