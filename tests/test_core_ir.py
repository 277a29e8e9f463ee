"""Mesh, tensor, sharding, and graph validity behavior."""

import json
import random

import pytest

from meshpart import ir
from meshpart.errors import GraphValidationError, ShapeError


def mesh2x2() -> ir.Mesh:
    return ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))


# --- mesh --------------------------------------------------------------------


def test_mesh_rejects_duplicate_axis_names():
    with pytest.raises(ShapeError):
        ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("a", 2)))


def test_mesh_rejects_size_one_axis():
    with pytest.raises(ShapeError):
        ir.MeshAxis("a", 1)


def test_mesh_axes_need_a_string_name_and_an_integer_size():
    for name, size in ((5, 2), ("", 2), ("a", 2.0), ("a", True), ("a", "2")):
        with pytest.raises(ShapeError):
            ir.MeshAxis(name, size)


@pytest.mark.parametrize("name", ["a+b", "a;b", 'a"b'])
def test_mesh_axis_names_are_identifiers(name):
    with pytest.raises(ShapeError, match="mesh axis name must be an identifier"):
        ir.MeshAxis(name, 2)


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


def test_validate_sharding_rejects_a_sharding_of_the_wrong_rank():
    s = ir.Sharding((ir.DimSharding(("batch",)),))
    with pytest.raises(ShapeError, match="sharding covers 1 dims but tensor has rank 2"):
        ir.validate_sharding(ir.TensorType((8, 8)), s, mesh2x2())


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
    ghost = ir.Operation("zz", ir.Elementwise("relu"), ("ghost",), ir.TensorType((1,)))
    with pytest.raises(GraphValidationError) as exc:
        ir.Graph(name=g.name, args=g.args, ops=g.ops + (ghost,), outputs=g.outputs,
                 groups=g.groups)
    assert [(v.value_id, v.message) for v in exc.value.violations] == [
        ("zz", "operand 'ghost' of 'zz' is not defined earlier"),
    ]


@pytest.mark.parametrize("kind", [ir.Reduce("sum", (0,)), ir.Transpose((1, 0)), ir.Reshape((32,))])
@pytest.mark.parametrize("operands", [(), ("x", "w")])
def test_a_unary_op_with_another_operand_count_is_reported(kind, operands):
    g = small_chain()
    bad = ir.Operation("zz", kind, operands, ir.TensorType((1,)))
    with pytest.raises(GraphValidationError) as exc:
        ir.Graph(name=g.name, args=g.args, ops=g.ops + (bad,), outputs=g.outputs,
                 groups=g.groups)
    assert [(v.value_id, v.message) for v in exc.value.violations] == [
        ("zz", f"{type(kind).__name__} takes 1 operand, got {len(operands)}"),
    ]


@pytest.mark.parametrize("kind, result, message", [
    ("relu", (8, 8), "unknown op kind str"),
    (ir.Elementwise("relu"), (8, 4), "result type (8, 4) does not match inferred (8, 8)"),
])
def test_a_bad_op_is_reported(kind, result, message):
    g = small_chain()
    bad = ir.Operation("zz", kind, (g.ops[-1].id,), ir.TensorType(result))
    with pytest.raises(GraphValidationError) as exc:
        ir.Graph(name=g.name, args=g.args, ops=g.ops + (bad,), outputs=g.outputs,
                 groups=g.groups)
    assert [(v.value_id, v.message) for v in exc.value.violations] == [("zz", message)]


@pytest.mark.parametrize("groups, violation", [
    ((ir.EquiShardGroup(0, ("a",)), ir.EquiShardGroup(0, ("c",))),
     (None, "duplicate group id 0")),
    ((ir.EquiShardGroup(0, ("a",)), ir.EquiShardGroup(1, ("c", "ghost"))),
     ("ghost", "group 1 member 'ghost' is not an argument")),
])
def test_bad_group_bookkeeping_is_reported(groups, violation):
    t = ir.TensorType((4,))
    with pytest.raises(GraphValidationError) as exc:
        ir.Graph(name="g", args=(ir.Argument("a", t, ir.Role.DATA),
                                 ir.Argument("c", t, ir.Role.PARAMETER)),
                 ops=(), outputs=("a",), groups=groups)
    assert [(v.value_id, v.message) for v in exc.value.violations] == [violation]


def test_group_member_shape_mismatch_is_reported():
    t1, t2 = ir.TensorType((4, 4)), ir.TensorType((8, 4))
    with pytest.raises(GraphValidationError) as exc:
        ir.Graph(
            name="g",
            args=(ir.Argument("a", t1, ir.Role.PARAMETER),
                  ir.Argument("c", t2, ir.Role.PARAMETER)),
            ops=(),
            outputs=("a",),
            groups=(ir.EquiShardGroup(0, ("a", "c")),),
        )
    assert [(v.value_id, v.message) for v in exc.value.violations] == [
        (None, "group 0 members have differing dims: [(4, 4), (8, 4)]"),
    ]


def test_ungrouped_argument_is_reported():
    t = ir.TensorType((4,))
    with pytest.raises(GraphValidationError) as exc:
        ir.Graph(name="g", args=(ir.Argument("a", t, ir.Role.DATA),), ops=(), outputs=("a",),
                 groups=())
    assert [(v.value_id, v.message) for v in exc.value.violations] == [
        ("a", "argument 'a' is in no group"),
    ]


def test_undefined_output_is_reported():
    t = ir.TensorType((4,))
    with pytest.raises(GraphValidationError) as exc:
        ir.Graph(name="g", args=(ir.Argument("a", t, ir.Role.DATA),), ops=(), outputs=("b",),
                 groups=(ir.EquiShardGroup(0, ("a",)),))
    assert [(v.value_id, v.message) for v in exc.value.violations] == [
        ("b", "output 'b' is not defined"),
    ]


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
    b.elementwise("relu", "x", name="y")
    with pytest.raises(ShapeError, match="duplicate value id 'y'"):
        b.elementwise("relu", "x", name="y")


def test_builder_rejects_an_undefined_operand():
    b = ir.GraphBuilder("g")
    b.arg("x", (4,), role=ir.Role.DATA, group="d")
    with pytest.raises(ShapeError, match="operand 'ghost' is not defined"):
        b.add("x", "ghost")


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


@pytest.mark.parametrize("path, bad, message", [
    pytest.param(("args", 0), "x", r"args\[0\]", id="args-0-x"),
    pytest.param(("ops", 0), 5, r"ops\[0\]", id="ops-0-5"),
    pytest.param(("ops", 1), None, r"ops\[1\]", id="ops-1-None"),
    pytest.param(("outputs", 0), [], r"outputs\[0\]", id="outputs-0-bad3"),
    pytest.param(("outputs", 0), 3, r"outputs\[0\]", id="outputs-0-3"),
    pytest.param(("name",), 5, r"'name' must be a string, got 5", id="name-5"),
    pytest.param(("args", 1, "id"), 5, r"args\[1\]: 'id' must be a string", id="arg-id-5"),
    pytest.param(("ops", 0, "id"), ["v0"], r"ops\[0\]: 'id' must be a string", id="op-id-list"),
    pytest.param(("ops", 1, "op_name"), [1, {"x": 2}],
                 r"op 'v1': 'op_name' must be a string, got \[1, \{'x': 2\}\]",
                 id="op-name-list"),
    pytest.param(("mesh", 0, "name"), 5, r"mesh axis name must be an identifier, got 5",
                 id="mesh-name-5"),
    pytest.param(("mesh", 1, "size"), True, r"mesh axis 'model': size must be an integer",
                 id="mesh-size-true"),
])
def test_mistyped_graph_json_entries_are_rejected(path, bad, message):
    obj = ir.graph_to_json(small_chain(), mesh2x2())
    *parents, key = path
    entry = obj
    for step in parents:
        entry = entry[step]
    entry[key] = bad
    with pytest.raises(GraphValidationError, match=message):
        ir.graph_from_json(obj)


def test_a_group_without_members_is_reported():
    with pytest.raises(GraphValidationError) as exc:
        ir.Graph(name="g", args=(), ops=(), outputs=(), groups=(ir.EquiShardGroup(0, ()),))
    assert [v.message for v in exc.value.violations] == ["group 0 has no members"]


def test_mistyped_operand_names_its_op():
    obj = ir.graph_to_json(small_chain())
    obj["ops"][0]["operands"][0] = ["x"]
    with pytest.raises(GraphValidationError, match=r"op '.*': operands\[0\]"):
        ir.graph_from_json(obj)


def matmul_json() -> dict:
    b = ir.GraphBuilder("matmul")
    b.arg("x", (4, 8), role=ir.Role.DATA, group="x")
    b.arg("w", (8, 4), role=ir.Role.PARAMETER, group="w")
    b.output(b.dot("x", "w", lhs_contract=(1,), rhs_contract=(0,)))
    return ir.graph_to_json(b.build())


def test_a_misspelt_contracting_key_is_an_error_not_an_outer_product():
    obj = matmul_json()
    op = obj["ops"][0]
    op["lhs_contract_dims"] = op.pop("lhs_contracting_dims")
    op["rhs_contract_dims"] = op.pop("rhs_contracting_dims")
    # dropped, the misspelt keys would leave both contracting lists empty,
    # and the op would load as an outer product with dims (4, 8, 8, 4)
    pattern = r"op 'v0' has unknown key\(s\) \['lhs_contract_dims', 'rhs_contract_dims'\]"
    with pytest.raises(GraphValidationError, match=pattern):
        ir.graph_from_json(obj)
    graph, _ = ir.graph_from_json(matmul_json())
    assert graph.ops[0].result_type.dims == (4, 4)


def test_a_missing_contracting_key_is_an_error_not_an_outer_product():
    obj = matmul_json()
    op = obj["ops"][0]
    del op["lhs_contracting_dims"], op["rhs_contracting_dims"]
    pattern = r"op 'v0' has no key\(s\) \['lhs_contracting_dims', 'rhs_contracting_dims'\]"
    with pytest.raises(GraphValidationError, match=pattern):
        ir.graph_from_json(obj)


@pytest.mark.parametrize("obj", [[], [{"name": "g"}], ["name"], "g", None, 5])
def test_a_graph_that_is_no_json_object_is_an_error(obj):
    with pytest.raises(GraphValidationError, match="graph JSON must be an object, got"):
        ir.graph_from_json(obj)


def test_json_round_trip_on_random_graphs():
    from _random_graphs import random_graph
    from test_cli import every_kind_graph

    graphs = [random_graph(random.Random(seed)) for seed in range(8)] + [every_kind_graph()]
    for g in graphs:
        g2, _ = ir.graph_from_json(ir.graph_to_json(g))
        assert ir.validate_graph(g2) == []
        assert (g2.name, g2.args, g2.ops, g2.outputs) == (g.name, g.args, g.ops, g.outputs)
        assert g2.groups == g.groups
