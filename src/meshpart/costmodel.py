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


def collective_time(c: Collective, cfg: CostModelConfig, mesh: ir.Mesh) -> float:
    """Ring-schedule time for one collective over its mesh axis."""
    n = mesh.axis_size(c.axis)
    link = cfg.links.get(c.axis)
    if link is None:
        raise ConfigError(f"cost config has no link parameters for axis {c.axis!r}")
    steps = (n - 1) * link.latency_seconds + c.payload_bytes * (n - 1) / (
        n * link.bandwidth_bytes_per_second
    )
    if c.kind == ALL_REDUCE:
        return 2.0 * steps
    if c.kind in (ALL_GATHER, REDUCE_SCATTER):
        return steps
    raise ConfigError(f"unknown collective kind {c.kind!r}")


def wire_bytes_per_device(c: Collective, mesh: ir.Mesh) -> float:
    """Bytes each device sends over the ring; AllReduce moves twice the data."""
    n = mesh.axis_size(c.axis)
    one_pass = c.payload_bytes * (n - 1) / n
    return 2.0 * one_pass if c.kind == ALL_REDUCE else one_pass


class _Analysis:
    __slots__ = ("program", "compute_seconds", "comm_seconds", "peak_bytes", "counts")

    def __init__(self, program, compute_seconds, comm_seconds, peak_bytes, counts):
        self.program = program
        self.compute_seconds = compute_seconds
        self.comm_seconds = comm_seconds
        self.peak_bytes = peak_bytes
        self.counts = counts


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b


_OUTPUT = -1  # sentinel consumer: the module boundary itself


def _analyze(state: engine.ModuleState, cfg: CostModelConfig) -> _Analysis:
    comp = state._comp
    mt = state._mt
    fm = state._fm
    partials = state._partials
    prod = mt.prod
    offsets = comp.offsets
    nvals = comp.nvals
    n_ops = len(comp.op_meta)

    dmask = [0] * nvals
    for v in range(nvals):
        m = 0
        for p in range(offsets[v], offsets[v] + len(comp.dims[v])):
            m |= fm[p]
        dmask[v] = m

    def local_bytes(v: int) -> int:
        return comp.nbytes[v] // prod[dmask[v]]

    # --- requirement scan --------------------------------------------------
    # For every operand slot, compare the producer's sharding to what this
    # consumer's own result sharding requires, per the slot's plan.
    part_req: dict[tuple[int, int], list[int]] = {}   # (v, bit) -> requiring ops
    part_full: dict[tuple[int, int], list[int]] = {}  # (v, bit) -> full-needing ops
    ag_private: dict[int, set[tuple[int, int]]] = {}  # op -> {(v, gmask)}
    ag_shared: dict[tuple[int, int], list[int]] = {}  # (v, gmask) -> consumer ops
    slot_gmask: dict[tuple[int, int], int] = {}       # (op, slot) -> gathered axes
    slot_rs_bits: dict[tuple[int, int], int] = {}     # (op, slot) -> partial bits required

    for meta in comp.op_meta:
        i = meta.op_index
        res_base = offsets[meta.result_idx]
        for slot, v in enumerate(meta.operand_idx):
            vbase = offsets[v]
            plan = meta.req_plans[slot]
            gmask = 0
            req_union = 0
            for d, (code, aux) in enumerate(plan):
                p = fm[vbase + d]
                if code == engine.REQ_RES:
                    req = fm[res_base + aux]
                elif code == engine.REQ_SELF:
                    req = p
                elif code == engine.REQ_COMMON:
                    l_dim, r_dim, _ = meta.contract[aux]
                    li, ri = meta.operand_idx
                    req = fm[offsets[li] + l_dim] & fm[offsets[ri] + r_dim]
                else:
                    req = 0
                req_union |= req
                gmask |= p & ~req
            if gmask:
                if cfg.cse_allgather:
                    sites = ag_shared.setdefault((v, gmask), [])
                    if not sites or sites[-1] != i:
                        sites.append(i)
                else:
                    ag_private.setdefault(i, set()).add((v, gmask))
            slot_gmask[(i, slot)] = gmask
            rs_bits = 0
            for bit in _bits(partials[v]):
                if req_union & bit:
                    rs_bits |= bit
                    lst = part_req.setdefault((v, bit), [])
                    if not lst or lst[-1] != i:
                        lst.append(i)
                else:
                    lst = part_full.setdefault((v, bit), [])
                    if not lst or lst[-1] != i:
                        lst.append(i)
            slot_rs_bits[(i, slot)] = rs_bits

    for o in comp.out_idx:
        for bit in _bits(partials[o]):
            part_full.setdefault((o, bit), []).append(_OUTPUT)

    # --- collective placement ---------------------------------------------
    # pre[i]: collectives before op i; post[i]: AllReduces right after it.
    pre: list[list[tuple]] = [[] for _ in range(n_ops)]
    post: list[list[tuple]] = [[] for _ in range(n_ops)]
    rs_resolved: set[tuple[int, int]] = set()

    for (v, bit), req_ops in sorted(part_req.items()):
        rs_resolved.add((v, bit))
        full_ops = [c for c in part_full.pop((v, bit), []) if c != _OUTPUT]
        site = min(req_ops + full_ops)
        pre[site].append(("rs", v, bit, req_ops, full_ops))
    for (v, bit), consumers in sorted(part_full.items()):
        post[comp.producer_op[v]].append(("ar", v, bit))
    for (v, gmask), consumers in sorted(ag_shared.items()):
        pre[consumers[0]].append(("ag", v, gmask, consumers))
    for i, entries in ag_private.items():
        for v, gmask in sorted(entries):
            pre[i].append(("ag", v, gmask, [i]))

    # --- event construction ------------------------------------------------
    events: list[ProgramEvent] = []
    ev_of_op = [0] * n_ops
    base_read = [-1] * nvals  # last event that touches the value's own buffer
    def_ev = [0] * nvals
    buffers: list[tuple[int, int, int]] = []  # (start event, end event, bytes)
    deferred: list[tuple[int, list[int], int]] = []  # ends at consumers' op events
    comm_seconds = 0.0
    counts = {ALL_GATHER: 0, ALL_REDUCE: 0, REDUCE_SCATTER: 0}

    def emit(kind: str, axis_bit: int, payload: int, site_op: int, v: int) -> int:
        nonlocal comm_seconds
        c = Collective(
            kind, mt.name_of_bit[axis_bit], payload, comp.graph.ops[site_op].id
        )
        events.append(CollectiveEvent(c))
        counts[kind] += 1
        comm_seconds += collective_time(c, cfg, mt.mesh)
        e = len(events) - 1
        if base_read[v] < e:
            base_read[v] = e
        return e

    for i in range(n_ops):
        for entry in sorted(pre[i], key=lambda t: (t[0], t[1], t[2])):
            tag = entry[0]
            if tag == "ag":
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
            elif tag == "rs":
                _, v, bit, req_ops, full_ops = entry
                payload = local_bytes(v)
                e = emit(REDUCE_SCATTER, bit, payload, min(req_ops + full_ops), v)
                ends = list(req_ops)
                if full_ops:
                    e2 = emit(ALL_GATHER, bit, payload, min(full_ops), v)
                    ends.append(e2)  # scattered buffer feeds the gather
                    deferred.append((e2, full_ops, payload))
                deferred.append((e, ends, payload // prod[bit]))
        events.append(OpEvent(comp.graph.ops[i].id))
        e = len(events) - 1
        ev_of_op[i] = e
        meta = comp.op_meta[i]
        def_ev[meta.result_idx] = e
        for slot, v in enumerate(meta.operand_idx):
            reads_base = slot_gmask[(i, slot)] == 0 and not any(
                (v, bit) in rs_resolved for bit in _bits(slot_rs_bits[(i, slot)])
            )
            if reads_base and base_read[v] < e:
                base_read[v] = e
        for entry in sorted(post[i], key=lambda t: (t[1], t[2])):
            _, v, bit = entry
            emit(ALL_REDUCE, bit, local_bytes(v), i, v)

    last = len(events) - 1 if events else 0

    for start, consumers, nbytes in deferred:
        end = max(c if c >= start else ev_of_op[c] for c in consumers)
        buffers.append((start, end, nbytes))

    out_set = set(comp.out_idx)
    for v in range(nvals):
        start = 0 if v < comp.n_args else def_ev[v]
        if v in out_set or comp.roles[v] in (ir.Role.PARAMETER, ir.Role.OPTIMIZER_STATE):
            end = last
        else:
            end = max(base_read[v], start)
        buffers.append((start, end, local_bytes(v)))

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
    for meta in comp.op_meta:
        res = meta.result_idx
        res_base = offsets[res]
        res_dims = comp.dims[res]
        n = 1
        for d in range(len(res_dims)):
            n *= res_dims[d] // prod[fm[res_base + d]]
        if meta.tag == "dot":
            li, ri = meta.operand_idx
            for l_dim, r_dim, size in meta.contract:
                common = fm[offsets[li] + l_dim] & fm[offsets[ri] + r_dim]
                n *= size // prod[common]
            flops += 2 * n
        elif meta.tag in ("ew", "transpose"):
            flops += n
        elif meta.tag == "reduce":
            (src,) = meta.operand_idx
            kind, reduced_dims = meta.reduce_info
            for d in reduced_dims:
                size = comp.dims[src][d]
                n *= size // prod[fm[offsets[src] + d]] if kind == "sum" else size
            flops += n
        # reshape and const move no data and cost nothing

    compute_seconds = flops / cfg.flops_per_second
    return _Analysis(
        LoweredProgram(tuple(events)), compute_seconds, comm_seconds, peak, counts
    )


def lower(state: engine.ModuleState, cfg: CostModelConfig) -> LoweredProgram:
    """Materialize the collective schedule implied by the state's shardings."""
    return _analyze(state, cfg).program


def estimate(state: engine.ModuleState, cfg: CostModelConfig) -> CostEstimate:
    """Simulated step time, peak per-device memory, and collective counts."""
    a = _analyze(state, cfg)
    runtime = a.compute_seconds + a.comm_seconds
    over = max(0.0, a.peak_bytes / cfg.memory_limit_bytes - 1.0)
    penalized = runtime * (1.0 + cfg.memory_penalty_slope * over)
    return CostEstimate(runtime, a.peak_bytes, dict(a.counts), penalized)


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


def config_from_json(obj: Mapping, mesh: ir.Mesh) -> CostModelConfig:
    try:
        links = {
            a["name"]: AxisLink(float(a["bandwidth"]), float(a["latency"]))
            for a in obj.get("axes", [])
        }
        for axis in mesh.axes:
            if axis.name not in links:
                links[axis.name] = AxisLink(DEFAULT_BANDWIDTH, DEFAULT_LATENCY)
        cfg = CostModelConfig(
            flops_per_second=float(obj.get("flops_per_second", DEFAULT_FLOPS_PER_SECOND)),
            links=links,
            memory_limit_bytes=float(obj.get("memory_limit_bytes", DEFAULT_MEMORY_LIMIT)),
            memory_penalty_slope=float(
                obj.get("memory_penalty_slope", DEFAULT_PENALTY_SLOPE)
            ),
            cse_allgather=bool(obj.get("cse_allgather", False)),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed cost config: {e}") from e
    # (name, value, whether zero is allowed); NaN and infinities never are
    checks = [
        ("flops_per_second", cfg.flops_per_second, False),
        ("memory_limit_bytes", cfg.memory_limit_bytes, False),
        ("memory_penalty_slope", cfg.memory_penalty_slope, True),
    ]
    for name, link in links.items():
        checks.append((f"bandwidth of axis {name!r}", link.bandwidth_bytes_per_second, False))
        checks.append((f"latency of axis {name!r}", link.latency_seconds, True))
    for what, value, zero_ok in checks:
        if not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
            bound = "at least 0" if zero_ok else "positive"
            raise ConfigError(f"{what} must be finite and {bound}, got {value}")
    return cfg


def load_config_file(path: str, mesh: ir.Mesh) -> CostModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read cost config {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"cost config {path!r} is not valid JSON: {e}") from e
    return config_from_json(obj, mesh)
