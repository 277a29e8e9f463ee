"""Collective timing, lowering decisions, memory accounting, and config I/O."""

import pytest

from meshpart import costmodel as cm
from meshpart import engine, ir
from meshpart.errors import ConfigError, ShapeError

A2 = ir.Mesh((ir.MeshAxis("a", 2),))
A4 = ir.Mesh((ir.MeshAxis("a", 4),))


def build(fn) -> ir.Graph:
    b = ir.GraphBuilder(fn.__name__)
    fn(b)
    return b.build()


def state_of(graph: ir.Graph, mesh: ir.Mesh, *actions: engine.Action) -> engine.ModuleState:
    st = engine.initial_state(graph, mesh)
    for a in actions:
        st = engine.apply_action(st, a)
    return st


def clean_cfg(mesh: ir.Mesh, **overrides) -> cm.CostModelConfig:
    links = {a.name: cm.AxisLink(1.0e9, 1.0e-6) for a in mesh.axes}
    base = dict(
        flops_per_second=1.0e12,
        links=links,
        memory_limit_bytes=1.0e12,
        memory_penalty_slope=1.0,
        cse_allgather=False,
    )
    base.update(overrides)
    return cm.CostModelConfig(**base)


# --- ring timing -------------------------------------------------------------


def test_ring_times_match_closed_forms():
    cfg = clean_cfg(A4)
    ag = cm.Collective(cm.ALL_GATHER, "a", 4000, "s")
    # (n-1) latency hops plus S(n-1)/(nB) on the wire
    assert cm.collective_time(ag, cfg, A4) == pytest.approx(3.0e-6 + 3.0e-6)
    rs = cm.Collective(cm.REDUCE_SCATTER, "a", 4000, "s")
    assert cm.collective_time(rs, cfg, A4) == pytest.approx(6.0e-6)
    ar = cm.Collective(cm.ALL_REDUCE, "a", 4000, "s")
    assert cm.collective_time(ar, cfg, A4) == pytest.approx(1.2e-5)


def test_allreduce_time_equals_gather_plus_scatter():
    cfg = clean_cfg(A4)
    for payload in (512, 4096, 100_000):
        ar = cm.collective_time(cm.Collective(cm.ALL_REDUCE, "a", payload, "s"), cfg, A4)
        ag = cm.collective_time(cm.Collective(cm.ALL_GATHER, "a", payload, "s"), cfg, A4)
        rs = cm.collective_time(cm.Collective(cm.REDUCE_SCATTER, "a", payload, "s"), cfg, A4)
        assert ar == ag + rs


def test_wire_bytes_double_for_allreduce():
    ag = cm.Collective(cm.ALL_GATHER, "a", 4000, "s")
    ar = cm.Collective(cm.ALL_REDUCE, "a", 4000, "s")
    assert cm.wire_bytes_per_device(ag, A4) == pytest.approx(3000.0)
    assert cm.wire_bytes_per_device(ar, A4) == pytest.approx(6000.0)


def test_collective_time_rejects_bad_axis_link_and_kind():
    cfg = clean_cfg(A2)
    with pytest.raises(ShapeError):
        cm.collective_time(cm.Collective(cm.ALL_GATHER, "zz", 8, "s"), cfg, A2)
    no_links = cm.CostModelConfig(1.0e12, {}, 1.0e12, 1.0)
    with pytest.raises(ConfigError):
        cm.collective_time(cm.Collective(cm.ALL_GATHER, "a", 8, "s"), no_links, A2)
    with pytest.raises(ConfigError):
        cm.collective_time(cm.Collective("Gossip", "a", 8, "s"), cfg, A2)


def test_metric_value_selects_each_objective():
    est = cm.CostEstimate(2.0, 7, {}, 3.0)
    assert cm.metric_value(est, cm.RUNTIME) == 2.0
    assert cm.metric_value(est, cm.MEMORY) == 7.0
    assert cm.metric_value(est, cm.PENALIZED_RUNTIME) == 3.0
    with pytest.raises(ConfigError):
        cm.metric_value(est, "Throughput")


# --- compute and memory scaling ---------------------------------------------


def relu_graph() -> ir.Graph:
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.elementwise("relu", "x"))

    return build(g)


def test_sharding_halves_compute_and_memory_without_collectives():
    graph = relu_graph()
    cfg = clean_cfg(A2)
    repl = cm.estimate(state_of(graph, A2), cfg)
    shard = cm.estimate(state_of(graph, A2, engine.Action(0, 0, "a")), cfg)
    assert sum(repl.counts.values()) == 0
    assert sum(shard.counts.values()) == 0
    assert repl.runtime_seconds == 2.0 * shard.runtime_seconds
    assert repl.peak_memory_bytes == 256  # x and its relu, both 8*4*4 bytes
    assert shard.peak_memory_bytes == 128


def test_peak_counts_overlapping_buffers_and_frees_dead_ones():
    def g(b):
        b.arg("x", (64, 64), role=ir.Role.DATA, group="d")
        h = b.elementwise("relu", "x")
        b.output(b.reduce(h, (0, 1), kind="sum"))

    est = cm.estimate(state_of(build(g), A2), clean_cfg(A2))
    # x and relu(x) overlap at the relu event; x is dead by the reduce
    assert est.peak_memory_bytes == 2 * 64 * 64 * 4


def test_parameters_stay_resident_to_the_end():
    def g(b):
        b.arg("w", (64, 64), role=ir.Role.PARAMETER, group="w")
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        s = b.reduce("w", (0, 1), kind="sum")  # only read of w, first op
        r = b.elementwise("relu", "x")
        b.output(b.elementwise("relu", r), s)

    est = cm.estimate(state_of(build(g), A2), clean_cfg(A2))
    # w (16384) is live at the last event alongside both relu buffers
    assert est.peak_memory_bytes >= 16384 + 2 * 128


# --- lowering decisions ------------------------------------------------------


def test_blocked_max_reduce_gathers_its_operand_per_site():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.reduce("x", (0,), kind="max"))

    st = state_of(build(g), A2, engine.Action(0, 0, "a"))
    cfg = clean_cfg(A2)
    prog = cm.lower(st, cfg)
    (c,) = prog.collectives
    assert c.kind == cm.ALL_GATHER
    assert c.axis == "a"
    assert c.payload_bytes == 8 * 4 * 4
    assert c.site == "v0"
    # the gather precedes the op that needs the full operand
    kinds = [type(e).__name__ for e in prog.events]
    assert kinds == ["CollectiveEvent", "OpEvent"]


def test_two_consumers_gather_twice_unless_reuse_enabled():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        m1 = b.reduce("x", (0,), kind="max")
        m2 = b.reduce("x", (0,), kind="max", name="m2")
        b.output(m1, m2)

    st = state_of(build(g), A2, engine.Action(0, 0, "a"))
    per_site = cm.estimate(st, clean_cfg(A2))
    shared = cm.estimate(st, clean_cfg(A2, cse_allgather=True))
    assert per_site.counts[cm.ALL_GATHER] == 2
    assert shared.counts[cm.ALL_GATHER] == 1
    assert shared.runtime_seconds < per_site.runtime_seconds


def matched_contraction() -> ir.Graph:
    def g(b):
        b.arg("u", (8, 4), role=ir.Role.DATA, group="gu")
        b.arg("w", (8, 4), role=ir.Role.PARAMETER, group="gw")
        b.output(b.dot("u", "w", lhs_contract=(0,), rhs_contract=(0,)))

    return build(g)


def test_partial_output_allreduces_once_at_the_producer():
    st = state_of(matched_contraction(), A2, engine.Action(0, 0, "a"))
    cfg = clean_cfg(A2)
    prog = cm.lower(st, cfg)
    (c,) = prog.collectives
    assert c.kind == cm.ALL_REDUCE
    assert c.payload_bytes == 4 * 4 * 4
    kinds = [type(e).__name__ for e in prog.events]
    assert kinds == ["OpEvent", "CollectiveEvent"]  # resolved right after the dot


def rs_graph(*, with_full_consumer: bool) -> ir.Graph:
    b = ir.GraphBuilder("rs")
    b.arg("u", (8, 4), role=ir.Role.DATA, group="gu")
    b.arg("w", (8, 4), role=ir.Role.PARAMETER, group="gw")
    b.arg("m", (4, 4), role=ir.Role.OPTIMIZER_STATE, group="gm")
    g = b.dot("u", "w", lhs_contract=(0,), rhs_contract=(0,))
    s = b.add(g, "m")
    outs = [s]
    if with_full_consumer:
        outs.append(b.reduce(g, (0,), kind="max"))
    b.output(*outs)
    return b.build()


def test_partial_feeding_a_sharded_consumer_reduce_scatters():
    st = state_of(
        rs_graph(with_full_consumer=False),
        A2,
        engine.Action(0, 0, "a"),
        engine.Action(2, 0, "a"),
    )
    assert st.sharding_of("v0").partial_axes == {"a"}
    assert st.sharding_of("v1").per_dim[0].axes == ("a",)
    prog = cm.lower(st, clean_cfg(A2))
    (c,) = prog.collectives
    assert c.kind == cm.REDUCE_SCATTER
    assert c.payload_bytes == 4 * 4 * 4


def test_scatter_plus_gather_costs_exactly_one_allreduce():
    st = state_of(
        rs_graph(with_full_consumer=True),
        A2,
        engine.Action(0, 0, "a"),
        engine.Action(2, 0, "a"),
    )
    cfg = clean_cfg(A2)
    prog = cm.lower(st, cfg)
    kinds = sorted(c.kind for c in prog.collectives)
    assert kinds == [cm.ALL_GATHER, cm.REDUCE_SCATTER]
    comm = sum(cm.collective_time(c, cfg, A2) for c in prog.collectives)
    ar = cm.collective_time(cm.Collective(cm.ALL_REDUCE, "a", 4 * 4 * 4, "s"), cfg, A2)
    assert comm == pytest.approx(ar)


def test_matched_contraction_shrinks_dot_flops():
    graph = matched_contraction()
    cfg = clean_cfg(A2)
    repl = cm.estimate(state_of(graph, A2), cfg)
    shard = cm.estimate(state_of(graph, A2, engine.Action(0, 0, "a")), cfg)
    # full dot: 2 * 4*4*8 flops; sharded contraction halves the 8
    assert repl.runtime_seconds == pytest.approx(256 / 1.0e12)
    ar = cm.collective_time(cm.Collective(cm.ALL_REDUCE, "a", 64, "s"), cfg, A2)
    assert shard.runtime_seconds == pytest.approx(128 / 1.0e12 + ar)


# --- penalty -----------------------------------------------------------------


def test_penalty_scales_with_relative_overflow():
    graph = relu_graph()
    st = state_of(graph, A2)
    roomy = cm.estimate(st, clean_cfg(A2, memory_limit_bytes=1.0e6))
    assert roomy.penalized_cost == roomy.runtime_seconds
    tight = cm.estimate(st, clean_cfg(A2, memory_limit_bytes=128.0))
    # peak 256 over limit 128: overflow ratio 1, doubled cost
    assert tight.penalized_cost == pytest.approx(2.0 * tight.runtime_seconds)
    steep = cm.estimate(
        st, clean_cfg(A2, memory_limit_bytes=128.0, memory_penalty_slope=3.0)
    )
    assert steep.penalized_cost == pytest.approx(4.0 * steep.runtime_seconds)


# --- configuration -----------------------------------------------------------


def test_default_config_covers_every_axis_and_takes_overrides():
    mesh = ir.Mesh((ir.MeshAxis("p", 2), ir.MeshAxis("q", 4)))
    cfg = cm.default_config(mesh, memory_limit_bytes=5.0)
    assert set(cfg.links) == {"p", "q"}
    assert cfg.memory_limit_bytes == 5.0
    assert cfg.flops_per_second == cm.DEFAULT_FLOPS_PER_SECOND


def test_config_json_round_trip(tmp_path):
    mesh = ir.Mesh((ir.MeshAxis("p", 2), ir.MeshAxis("q", 4)))
    cfg = cm.default_config(mesh, memory_penalty_slope=2.5, cse_allgather=True)
    obj = cm.config_to_json(cfg)
    back = cm.config_from_json(obj, mesh)
    assert back == cfg
    path = tmp_path / "cost.json"
    import json

    path.write_text(json.dumps(obj))
    assert cm.load_config_file(str(path), mesh) == cfg


def test_config_from_json_fills_missing_axes_with_defaults():
    mesh = ir.Mesh((ir.MeshAxis("p", 2), ir.MeshAxis("q", 4)))
    obj = {"axes": [{"name": "p", "bandwidth": 5.0e10, "latency": 1.0e-6}]}
    cfg = cm.config_from_json(obj, mesh)
    assert cfg.links["p"] == cm.AxisLink(5.0e10, 1.0e-6)
    assert cfg.links["q"] == cm.AxisLink(cm.DEFAULT_BANDWIDTH, cm.DEFAULT_LATENCY)


def test_config_from_json_rejects_malformed_input():
    mesh = ir.Mesh((ir.MeshAxis("p", 2),))
    with pytest.raises(ConfigError):
        cm.config_from_json({"axes": [{"name": "p", "latency": 1e-6}]}, mesh)
    with pytest.raises(ConfigError):
        cm.config_from_json({"flops_per_second": "fast"}, mesh)
    with pytest.raises(ConfigError):
        cm.config_from_json({"flops_per_second": -1.0}, mesh)


@pytest.mark.parametrize("obj", [
    {"flops_per_second": 0},
    {"flops_per_second": float("inf")},
    {"memory_limit_bytes": float("nan")},
    {"memory_limit_bytes": 0},
    {"memory_penalty_slope": -1.0},
    {"memory_penalty_slope": float("inf")},
    {"axes": [{"name": "p", "bandwidth": 0.0, "latency": 1e-6}]},
    {"axes": [{"name": "p", "bandwidth": -1e9, "latency": 1e-6}]},
    {"axes": [{"name": "p", "bandwidth": float("nan"), "latency": 1e-6}]},
    {"axes": [{"name": "p", "bandwidth": 1e9, "latency": -1e-6}]},
    {"axes": [{"name": "p", "bandwidth": 1e9, "latency": float("inf")}]},
])
def test_config_from_json_rejects_out_of_range_numbers(obj):
    with pytest.raises(ConfigError):
        cm.config_from_json(obj, ir.Mesh((ir.MeshAxis("p", 2),)))


def test_config_from_json_accepts_zero_latency_and_slope():
    mesh = ir.Mesh((ir.MeshAxis("p", 2),))
    obj = {"axes": [{"name": "p", "bandwidth": 1e9, "latency": 0}], "memory_penalty_slope": 0}
    cfg = cm.config_from_json(obj, mesh)
    assert cfg.links["p"].latency_seconds == 0.0
    assert cfg.memory_penalty_slope == 0.0


def test_load_config_file_errors_are_config_errors(tmp_path):
    mesh = ir.Mesh((ir.MeshAxis("p", 2),))
    with pytest.raises(ConfigError):
        cm.load_config_file(str(tmp_path / "absent.json"), mesh)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        cm.load_config_file(str(bad), mesh)
