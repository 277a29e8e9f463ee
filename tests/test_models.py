"""Reference model builders, expert plans, and their frozen cost profiles."""

import random

import pytest
from hypothesis import given, settings, strategies

from meshpart import costmodel as cm
from meshpart import engine, ir, models
from meshpart.errors import ConfigError, GraphValidationError
from _random_graphs import random_graph

MESH = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))


def estimate_plan(graph, plan, cfg=None):
    cfg = cfg or cm.default_config(MESH)
    return cm.estimate(engine.replay_plan(graph, MESH, plan), cfg)


# --- transformer -------------------------------------------------------------


def test_transformer_config_validation():
    with pytest.raises(ConfigError):
        models.TransformerConfig(d_model=60)  # not n_head * d_head
    with pytest.raises(ConfigError):
        models.TransformerConfig(layers=0)
    with pytest.raises(ConfigError):
        models.TransformerConfig(batch=-8)


def test_transformer_graph_shape():
    graph = models.build_transformer()
    ir.check_valid(graph)
    assert len(graph.args) == 25
    assert len(graph.ops) == 97
    assert len(graph.groups) == 13
    # one model output plus updated weights and momenta for every parameter
    assert len(graph.outputs) == 25


def test_transformer_groups_pair_weights_across_layers():
    graph = models.build_transformer(models.TransformerConfig())
    by_id = {g.id: g.members for g in graph.groups}
    assert by_id[models.T_DATA] == ("x0",)
    assert by_id[models.T_WQ] == ("wq0", "wq1")  # one member per layer
    assert by_id[models.T_M1] == ("m1_0", "m1_1")


def test_expert_plans_have_expected_action_counts():
    plans = models.transformer_expert_plans(MESH)
    assert set(plans) == {"bp", "bp_mt", "bp_mt_zero3"}
    assert len(plans["bp"]) == 1
    assert len(plans["bp_mt"]) == 3
    assert len(plans["bp_mt_zero3"]) == 9
    assert plans["bp_mt"][: len(plans["bp"])] == plans["bp"]
    assert plans["bp_mt_zero3"][: len(plans["bp_mt"])] == plans["bp_mt"]


def test_batch_parallel_plan_allreduces_each_gradient():
    graph = models.build_transformer()
    plans = models.transformer_expert_plans(MESH)
    est = estimate_plan(graph, plans["bp"])
    # one gradient sync per weight per layer: 6 weights x 2 layers
    assert est.counts == {"AllGather": 0, "AllReduce": 12, "ReduceScatter": 0}


def test_tensor_parallel_plan_adds_activation_syncs():
    graph = models.build_transformer()
    plans = models.transformer_expert_plans(MESH)
    est = estimate_plan(graph, plans["bp_mt"])
    assert est.counts == {"AllGather": 0, "AllReduce": 21, "ReduceScatter": 0}


def test_sharded_optimizer_plan_trades_gathers_for_memory():
    graph = models.build_transformer()
    plans = models.transformer_expert_plans(MESH)
    est = estimate_plan(graph, plans["bp_mt_zero3"])
    assert est.counts == {"AllGather": 25, "AllReduce": 9, "ReduceScatter": 11}


def test_expert_plans_trace_the_memory_frontier():
    graph = models.build_transformer()
    plans = models.transformer_expert_plans(MESH)
    cfg = cm.default_config(MESH)
    repl = cm.estimate(engine.initial_state(graph, MESH), cfg)
    bp = estimate_plan(graph, plans["bp"], cfg)
    mt = estimate_plan(graph, plans["bp_mt"], cfg)
    z3 = estimate_plan(graph, plans["bp_mt_zero3"], cfg)
    assert repl.peak_memory_bytes == 2031616
    assert bp.peak_memory_bytes == 1589248
    assert mt.peak_memory_bytes == 802816
    assert z3.peak_memory_bytes == 606208
    # every step of the expert progression buys memory
    assert z3.peak_memory_bytes < mt.peak_memory_bytes < bp.peak_memory_bytes
    # and batch parallelism buys runtime over running replicated
    assert bp.runtime_seconds < repl.runtime_seconds


# --- graph network -----------------------------------------------------------


def test_gns_like_graph_shape():
    graph = models.build_gns_like()
    ir.check_valid(graph)
    assert len(graph.ops) == 76
    assert len(graph.groups) == 10
    members = {g.id: g.members for g in graph.groups}
    assert members[models.G_NODES] == ("n0",)
    assert members[models.G_EDGES] == ("e0",)


def test_gns_edge_plan_shards_the_wide_tensors():
    graph = models.build_gns_like()
    plan = models.gns_edge_sharding_plan(MESH)
    assert plan == (
        engine.Action(models.G_EDGES, 0, "batch"),
        engine.Action(models.G_EDGES, 0, "model"),
    )
    cfg = cm.default_config(MESH)
    repl = cm.estimate(engine.initial_state(graph, MESH), cfg)
    sharded = estimate_plan(graph, plan, cfg)
    assert sharded.peak_memory_bytes < repl.peak_memory_bytes


def test_gns_config_validation():
    with pytest.raises(ConfigError):
        models.GnsLikeConfig(message_passing_steps=0)
    with pytest.raises(ConfigError):
        models.GnsLikeConfig(edges=-1)


# --- unet --------------------------------------------------------------------


def test_unet_like_graph_shape():
    graph = models.build_unet_like()
    ir.check_valid(graph)
    assert len(graph.ops) == 48
    assert len(graph.groups) == 13


def test_unet_zero3_plan_shards_data_and_every_weight():
    graph = models.build_unet_like()
    plan = models.unet_zero3_plan(graph, MESH)
    assert len(plan) == 7
    assert all(a.axis == "batch" and a.dim == 0 for a in plan)
    cfg = cm.default_config(MESH)
    repl = cm.estimate(engine.initial_state(graph, MESH), cfg)
    sharded = estimate_plan(graph, plan, cfg)
    assert sharded.peak_memory_bytes < repl.peak_memory_bytes


def test_unet_without_skips_is_smaller():
    with_skips = models.build_unet_like()
    without = models.build_unet_like(models.UNetLikeConfig(skip_connections=False))
    assert len(without.ops) < len(with_skips.ops)
    ir.check_valid(without)


def test_unet_config_validation():
    with pytest.raises(ConfigError):
        models.UNetLikeConfig(widths=())
    with pytest.raises(ConfigError):
        models.UNetLikeConfig(batch=0)


# --- registry ----------------------------------------------------------------


def test_named_models_build_with_overrides():
    assert set(models.MODEL_BUILDERS) == {"transformer", "gns", "unet"}
    small = models.build_named_model("transformer", {"layers": 1})
    full = models.build_named_model("transformer")
    assert len(small.ops) < len(full.ops)
    unet = models.build_named_model("unet", {"widths": [32, 64]})
    ir.check_valid(unet)


def test_named_model_errors():
    with pytest.raises(ConfigError):
        models.build_named_model("resnet")
    with pytest.raises(ConfigError):
        models.build_named_model("transformer", {"coffee": 2})


def test_mesh_compatibility_check_names_the_offending_axis():
    graph = models.build_transformer()
    models.check_mesh_compatibility(graph, MESH)  # everything divides
    odd = ir.Mesh((ir.MeshAxis("batch", 3),))
    with pytest.raises(GraphValidationError) as exc:
        models.check_mesh_compatibility(graph, odd)
    assert "axis 'batch' (size 3)" in str(exc.value)


WIDE = ir.Mesh(tuple(ir.MeshAxis(f"ax{i}", 2) for i in range(8)))


@settings(max_examples=150, deadline=None)
@given(graph_seed=strategies.integers(0, 2**32 - 1), wide=strategies.booleans(),
       sizes=strategies.lists(strategies.sampled_from((2, 3, 4, 8, 16, 32)),
                              min_size=1, max_size=8))
def test_the_mesh_check_fails_exactly_when_an_axis_has_no_legal_action(graph_seed, wide, sizes):
    graph = random_graph(random.Random(graph_seed))
    mesh = WIDE if wide else ir.Mesh(
        tuple(ir.MeshAxis(f"ax{i}", size) for i, size in enumerate(sizes))
    )
    start = engine.initial_state(graph, mesh)
    idle = [axis for axis in mesh.axis_names if not engine.legal_actions(start, axis)]
    if not idle:
        models.check_mesh_compatibility(graph, mesh)
        return
    with pytest.raises(GraphValidationError) as exc:
        models.check_mesh_compatibility(graph, mesh)
    named = [axis for axis in mesh.axis_names if f"axis {axis!r} (size" in str(exc.value)]
    assert named == idle
