"""Mesh, tensor, sharding, and graph validity behavior."""

import json
import random

import pytest

from meshpart import ir
from meshpart.errors import GraphValidationError, ShapeError


def mesh2x2() -> ir.Mesh:
    return ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))


# --- mesh --------------------------------------------------------------------


def test_mesh_devices_is_product_of_axis_sizes():
    mesh = ir.Mesh((ir.MeshAxis("a", 4), ir.MeshAxis("b", 8)))
    assert ir.mesh_devices(mesh) == 32


def test_mesh_rejects_duplicate_axis_names():
    with pytest.raises(ShapeError):
        ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("a", 2)))


def test_mesh_rejects_size_one_axis():
    with pytest.raises(ShapeError):
        ir.MeshAxis("a", 1)


def test_mesh_axis_lookup():
    mesh = mesh2x2()
    assert mesh.axis_names == ("batch", "model")
    assert mesh.axis_size("model") == 2
    assert mesh.has_axis("batch") and not mesh.has_axis("data")
    with pytest.raises(ShapeError):
        mesh.axis_size("nope")


# --- tensor types and shardings ---------------------------------------------


def test_tensor_type_byte_size():
    t = ir.TensorType((16, 8), element_bytes=4)
    assert t.rank == 2
    assert t.byte_size == 16 * 8 * 4


def test_tensor_type_rejects_bad_dims():
    with pytest.raises(ShapeError):
        ir.TensorType((16, 0))
    with pytest.raises(ShapeError):
        ir.TensorType((4,), element_bytes=0)


def test_local_shape_divides_each_dim():
    mesh = ir.Mesh((ir.MeshAxis("a", 4),))
    t = ir.TensorType((16, 8))
    s = ir.Sharding(per_dim=(ir.DimSharding(("a",)), ir.DimSharding()))
    assert ir.local_shape(t, s, mesh).dims == (4, 8)


def test_local_shape_replicated_is_identity():
    mesh = mesh2x2()
    t = ir.TensorType((16, 8))
    assert ir.local_shape(t, ir.Sharding.replicated(2), mesh).dims == (16, 8)


def test_local_shape_two_axes_on_one_dim():
    mesh = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 4)))
    t = ir.TensorType((16, 8))
    s = ir.Sharding(per_dim=(ir.DimSharding(("a", "b")), ir.DimSharding()))
    assert ir.local_shape(t, s, mesh).dims == (2, 8)


def test_validate_sharding_rejects_axis_reuse():
    mesh = mesh2x2()
    t = ir.TensorType((8, 8))
    # same axis on two dims
    s = ir.Sharding((ir.DimSharding(("batch",)), ir.DimSharding(("batch",))))
    with pytest.raises(ShapeError):
        ir.validate_sharding(t, s, mesh)
    # dim sharding and partial marker
    s = ir.Sharding((ir.DimSharding(("batch",)), ir.DimSharding()), partial_axes=("batch",))
    with pytest.raises(ShapeError):
        ir.validate_sharding(t, s, mesh)


def test_validate_sharding_rejects_indivisible_dim():
    mesh = ir.Mesh((ir.MeshAxis("a", 4),))
    s = ir.Sharding((ir.DimSharding(("a",)),))
    with pytest.raises(ShapeError):
        ir.validate_sharding(ir.TensorType((6,)), s, mesh)


def test_validate_sharding_rejects_unknown_axis():
    with pytest.raises(ShapeError):
        ir.validate_sharding(
            ir.TensorType((8,)), ir.Sharding((ir.DimSharding(("ghost",)),)), mesh2x2()
        )


# --- result type inference ---------------------------------------------------


def test_dot_result_dims_batch_then_lhs_free_then_rhs_free():
    kind = ir.DotGeneral(lhs_batch=(0,), rhs_batch=(0,), lhs_contract=(2,), rhs_contract=(1,))
    out = ir.infer_result_type(kind, [ir.TensorType((4, 8, 16)), ir.TensorType((4, 16, 32))])
    assert out.dims == (4, 8, 32)


def test_dot_rejects_contract_size_mismatch():
    kind = ir.DotGeneral(lhs_contract=(1,), rhs_contract=(0,))
    with pytest.raises(ShapeError):
        ir.infer_result_type(kind, [ir.TensorType((4, 8)), ir.TensorType((6, 4))])


def test_elementwise_binary_requires_identical_shapes():
    kind = ir.Elementwise("add")
    with pytest.raises(ShapeError):
        ir.infer_result_type(kind, [ir.TensorType((4, 8)), ir.TensorType((8, 4))])


def test_reduce_drops_reduced_dims():
    out = ir.infer_result_type(ir.Reduce("sum", (1,)), [ir.TensorType((4, 8, 2))])
    assert out.dims == (4, 2)


def test_reduce_rejects_unknown_kind():
    with pytest.raises(ShapeError):
        ir.infer_result_type(ir.Reduce("mean", (0,)), [ir.TensorType((4,))])


def test_transpose_permutes_dims():
    out = ir.infer_result_type(ir.Transpose((2, 0, 1)), [ir.TensorType((2, 4, 8))])
    assert out.dims == (8, 2, 4)


def test_reshape_preserves_element_count():
    out = ir.infer_result_type(ir.Reshape((8, 4)), [ir.TensorType((4, 8))])
    assert out.dims == (8, 4)
    with pytest.raises(ShapeError):
        ir.infer_result_type(ir.Reshape((5, 5)), [ir.TensorType((4, 8))])


# --- graph validation --------------------------------------------------------


def small_chain() -> ir.Graph:
    b = ir.GraphBuilder("chain")
    x = b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
    w = b.arg("w", (4, 8), role=ir.Role.PARAMETER, group="w")
    y = b.dot(x, w, lhs_contract=(1,), rhs_contract=(0,))
    z = b.elementwise("relu", y)
    b.output(z)
    return b.build()


def test_wellformed_graph_has_no_violations():
    assert ir.validate_graph(small_chain()) == []


def test_undefined_operand_is_reported():
    g = small_chain()
    bad = ir.Graph(
        name=g.name,
        args=g.args,
        ops=g.ops + (ir.Operation("zz", ir.Elementwise("relu"), ("ghost",), ir.TensorType((1,))),),
        outputs=g.outputs,
        groups=g.groups,
    )
    violations = ir.validate_graph(bad)
    assert any("ghost" in v.message for v in violations)
    with pytest.raises(GraphValidationError):
        ir.check_valid(bad)


def test_group_member_shape_mismatch_is_reported():
    t1, t2 = ir.TensorType((4, 4)), ir.TensorType((8, 4))
    g = ir.Graph(
        name="g",
        args=(ir.Argument("a", t1, ir.Role.PARAMETER), ir.Argument("c", t2, ir.Role.PARAMETER)),
        ops=(),
        outputs=("a",),
        groups=(ir.EquiShardGroup(0, ("a", "c")),),
    )
    violations = ir.validate_graph(g)
    assert any("differing dims" in v.message for v in violations)


def test_ungrouped_argument_is_reported():
    t = ir.TensorType((4,))
    g = ir.Graph(
        name="g",
        args=(ir.Argument("a", t, ir.Role.DATA),),
        ops=(),
        outputs=("a",),
        groups=(),
    )
    assert any("no group" in v.message for v in ir.validate_graph(g))


def test_undefined_output_is_reported():
    t = ir.TensorType((4,))
    g = ir.Graph(
        name="g",
        args=(ir.Argument("a", t, ir.Role.DATA),),
        ops=(),
        outputs=("b",),
        groups=(ir.EquiShardGroup(0, ("a",)),),
    )
    assert any("output" in v.message for v in ir.validate_graph(g))


# --- builder -----------------------------------------------------------------


def test_builder_assigns_group_ids_in_first_seen_order():
    b = ir.GraphBuilder("g")
    b.arg("x", (4,), role=ir.Role.DATA, group="data")
    b.arg("w0", (4, 4), role=ir.Role.PARAMETER, group="w")
    b.arg("w1", (4, 4), role=ir.Role.PARAMETER, group="w")
    b.arg("m0", (4, 4), role=ir.Role.OPTIMIZER_STATE, group="m")
    b.output("x")
    g = b.build()
    assert [(grp.id, grp.members) for grp in g.groups] == [
        (0, ("x",)),
        (1, ("w0", "w1")),
        (2, ("m0",)),
    ]


def test_builder_rejects_duplicate_ids():
    b = ir.GraphBuilder("g")
    b.arg("x", (4,), role=ir.Role.DATA, group="d")
    with pytest.raises(ShapeError):
        b.arg("x", (4,), role=ir.Role.DATA, group="d")


def test_builder_infers_op_types():
    b = ir.GraphBuilder("g")
    x = b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
    y = b.transpose(x, (1, 0))
    assert b.type_of(y).dims == (4, 8)
    z = b.reduce(y, (0,), kind="sum")
    assert b.type_of(z).dims == (8,)


# --- JSON interchange --------------------------------------------------------


def test_graph_json_round_trip_preserves_structure():
    g = small_chain()
    mesh = mesh2x2()
    obj = ir.graph_to_json(g, mesh)
    text = json.dumps(obj)  # must be JSON-serializable as-is
    g2, mesh2 = ir.graph_from_json(json.loads(text))
    assert mesh2 == mesh
    assert g2.name == g.name
    assert [a.id for a in g2.args] == [a.id for a in g.args]
    assert [(a.type.dims, a.role) for a in g2.args] == [(a.type.dims, a.role) for a in g.args]
    assert [(o.id, o.operands, o.result_type) for o in g2.ops] == [
        (o.id, o.operands, o.result_type) for o in g.ops
    ]
    assert g2.outputs == g.outputs
    assert g2.groups == g.groups


def test_graph_json_without_mesh():
    g2, mesh2 = ir.graph_from_json(ir.graph_to_json(small_chain()))
    assert mesh2 is None
    assert g2.outputs == small_chain().outputs


def test_malformed_graph_json_is_rejected():
    with pytest.raises(GraphValidationError):
        ir.graph_from_json({"name": "g", "args": [{"id": "x"}]})


@pytest.mark.parametrize("field, index, bad", [
    ("args", 0, "x"),
    ("ops", 0, 5),
    ("ops", 1, None),
    ("outputs", 0, []),
    ("outputs", 0, 3),
])
def test_mistyped_graph_json_entries_are_rejected(field, index, bad):
    obj = ir.graph_to_json(small_chain())
    obj[field][index] = bad
    with pytest.raises(GraphValidationError, match=rf"{field}\[{index}\]"):
        ir.graph_from_json(obj)


def test_mistyped_operand_names_its_op():
    obj = ir.graph_to_json(small_chain())
    obj["ops"][0]["operands"][0] = ["x"]
    with pytest.raises(GraphValidationError, match=r"op '.*': operands\[0\]"):
        ir.graph_from_json(obj)


def test_json_round_trip_on_random_graphs():
    from _random_graphs import random_graph

    for seed in range(8):
        g = random_graph(random.Random(seed))
        g2, _ = ir.graph_from_json(ir.graph_to_json(g))
        assert ir.validate_graph(g2) == []
        assert [o.id for o in g2.ops] == [o.id for o in g.ops]
        assert g2.groups == g.groups
