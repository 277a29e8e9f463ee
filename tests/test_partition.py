"""Sharding propagation, action legality, fingerprints, and state identity."""

import dataclasses
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies

from meshpart import costmodel as cm, engine, ir, models
from meshpart.errors import IllegalActionError, PlanReplayError
from _random_graphs import random_graph, random_mesh

A2 = ir.Mesh((ir.MeshAxis("a", 2),))
AB = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 2)))


def build(fn) -> ir.Graph:
    b = ir.GraphBuilder(fn.__name__)
    fn(b)
    return b.build()


# --- per-rule propagation behavior -------------------------------------------


def test_elementwise_ties_dims_across_operands_and_result():
    def g(b):
        b.arg("x", (8, 8), role=ir.Role.DATA, group="d")
        b.arg("y", (8, 8), role=ir.Role.PARAMETER, group="w")
        b.output(b.add("x", "y"))

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    assert st.sharding_of("x").per_dim[0].axes == ("a",)
    assert st.sharding_of("y").per_dim[0].axes == ("a",)
    assert st.sharding_of("v0").per_dim[0].axes == ("a",)


def test_partial_markers_do_not_cross_elementwise_ops():
    def g(b):
        b.arg("u", (8, 4), role=ir.Role.DATA, group="d")
        b.arg("w", (8, 4), role=ir.Role.PARAMETER, group="w")
        p = b.dot("u", "w", lhs_contract=(0,), rhs_contract=(0,))  # [4,4] partial
        b.output(b.elementwise("relu", p))

    st = engine.initial_state(build(g), A2)
    st = engine.apply_action(st, engine.Action(0, 0, "a"))
    assert st.sharding_of("v0").partial_axes == frozenset({"a"})
    assert st.sharding_of("v1").partial_axes == frozenset()


def test_dot_contraction_ties_operands_and_marks_result_partial():
    def g(b):
        b.arg("u", (8, 4), role=ir.Role.DATA, group="d")
        b.arg("w", (8, 4), role=ir.Role.PARAMETER, group="w")
        b.output(b.dot("u", "w", lhs_contract=(0,), rhs_contract=(0,)))

    start = engine.initial_state(build(g), A2)
    st = engine.apply_action(start, engine.Action(0, 0, "a"))
    # the contracting tie spreads the axis to the other operand, so one
    # action already yields a matched contraction and a partial result
    assert st.sharding_of("w").per_dim[0].axes == ("a",)
    assert st.sharding_of("v0").partial_axes == frozenset({"a"})
    assert all(d.axes == () for d in st.sharding_of("v0").per_dim)
    assert 1 not in st.worklists["a"]


def test_dot_batch_and_free_dims_tie_operands_to_result():
    def g(b):
        b.arg("x", (4, 8, 4), role=ir.Role.DATA, group="d")
        b.arg("w", (4, 4, 8), role=ir.Role.PARAMETER, group="w")
        b.output(
            b.dot("x", "w", lhs_batch=(0,), rhs_batch=(0,), lhs_contract=(2,), rhs_contract=(1,))
        )

    st = engine.apply_action(engine.initial_state(build(g), AB), engine.Action(0, 0, "a"))
    # batch dim ties lhs ↔ rhs ↔ result
    assert st.sharding_of("w").per_dim[0].axes == ("a",)
    assert st.sharding_of("v0").per_dim[0].axes == ("a",)
    st = engine.apply_action(st, engine.Action(0, 1, "b"))
    assert st.sharding_of("v0").per_dim[1].axes == ("b",)  # lhs free dim


def test_reduce_sum_over_sharded_dim_becomes_partial():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.reduce("x", (0,), kind="sum"))

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    assert st.sharding_of("v0").partial_axes == frozenset({"a"})
    assert st.sharding_of("v0").per_dim[0].axes == ()


def test_reduce_max_over_sharded_dim_stays_unsharded():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.reduce("x", (0,), kind="max"))

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    assert st.sharding_of("v0").partial_axes == frozenset()
    assert st.sharding_of("v0").per_dim[0].axes == ()


def test_reduce_kept_dims_tie_through():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.reduce("x", (0,), kind="sum"))

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 1, "a"))
    assert st.sharding_of("v0").per_dim[0].axes == ("a",)


def test_transpose_maps_dims_through_permutation():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.transpose("x", (1, 0)))

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    assert st.sharding_of("v0").per_dim[1].axes == ("a",)
    assert st.sharding_of("v0").per_dim[0].axes == ()


def test_reshape_propagates_only_whole_preserved_dims():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.reshape("x", (8, 2, 2)))

    # dim0 survives the reshape (same size, same prefix product): propagates
    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    assert st.sharding_of("v0").per_dim[0].axes == ("a",)
    # dim1 is split 4 -> (2, 2): does not propagate
    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 1, "a"))
    assert all(d.axes == () for d in st.sharding_of("v0").per_dim)


def test_group_members_always_share_shardings():
    def g(b):
        b.arg("x", (4, 4), role=ir.Role.DATA, group="d")
        b.arg("w0", (4, 4), role=ir.Role.PARAMETER, group="w")
        b.arg("w1", (4, 4), role=ir.Role.PARAMETER, group="w")
        b.output(b.add("x", "w0"))  # w1 is only reached through its group

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    assert st.sharding_of("w0") == st.sharding_of("w1")
    assert st.sharding_of("w1").per_dim[0].axes == ("a",)


def test_conflicting_axes_on_one_dim_append_when_divisible():
    def g(b):
        b.arg("x", (4, 4), role=ir.Role.DATA, group="d")
        b.arg("y", (4, 4), role=ir.Role.DATA, group="e")
        b.output(b.add("x", "y"))

    st = engine.initial_state(build(g), AB)
    st = engine.apply_action(st, engine.Action(0, 0, "a"))
    st = engine.apply_action(st, engine.Action(1, 0, "b"))
    assert set(st.sharding_of("v0").per_dim[0].axes) == {"a", "b"}


def test_seeding_atop_a_propagated_axis_requires_divisibility():
    def g(b):
        b.arg("x", (2, 4), role=ir.Role.DATA, group="d")
        b.arg("y", (2, 4), role=ir.Role.DATA, group="e")
        b.output(b.add("x", "y"))

    st = engine.apply_action(engine.initial_state(build(g), AB), engine.Action(0, 0, "a"))
    # closure already put 'a' on y dim0; size 2 cannot also take 'b'
    assert st.sharding_of("y").per_dim[0].axes == ("a",)
    with pytest.raises(IllegalActionError):
        engine.apply_action(st, engine.Action(1, 0, "b"))


def test_closure_conflict_resolves_to_one_axis_deterministically():
    mesh = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 4)))

    def g(b):
        b.arg("p", (4, 8), role=ir.Role.DATA, group="gp")
        b.arg("q", (4, 8), role=ir.Role.DATA, group="gq")
        b.output(b.add("p", "q"))

    graph = build(g)
    seed_p = ir.Sharding((ir.DimSharding(("b",)), ir.DimSharding()))
    seed_q = ir.Sharding((ir.DimSharding(("a",)), ir.DimSharding()))
    closed = engine.propagate(graph, mesh, {"p": seed_p, "q": seed_q})
    # dim0 (size 4) cannot hold both a size-2 and a size-4 axis
    axes = closed["v0"].per_dim[0].axes
    assert axes in (("a",), ("b",))
    # insertion order of the seed map must not matter
    again = engine.propagate(graph, mesh, {"q": seed_q, "p": seed_p})
    assert again == closed


# --- legality and worklists --------------------------------------------------


def test_legal_actions_respect_divisibility():
    def g(b):
        b.arg("x", (6, 8), role=ir.Role.DATA, group="d")
        b.output(b.elementwise("relu", "x"))

    mesh = ir.Mesh((ir.MeshAxis("a", 4),))
    start = engine.initial_state(build(g), mesh)
    assert engine.legal_actions(start, "a") == [engine.Action(0, 1, "a")]
    with pytest.raises(IllegalActionError):
        engine.apply_action(start, engine.Action(0, 0, "a"))


def test_legal_actions_all_axes_follow_mesh_order():
    def g(b):
        b.arg("x", (4, 4), role=ir.Role.DATA, group="d")
        b.output(b.elementwise("relu", "x"))

    start = engine.initial_state(build(g), AB)
    acts = engine.legal_actions(start, None)
    assert acts == [
        engine.Action(0, 0, "a"),
        engine.Action(0, 1, "a"),
        engine.Action(0, 0, "b"),
        engine.Action(0, 1, "b"),
    ]


def test_group_leaves_worklist_once_sharded_even_by_propagation():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.arg("w", (4, 8), role=ir.Role.PARAMETER, group="w")
        b.arg("c", (8, 8), role=ir.Role.PARAMETER, group="c")
        y = b.dot("x", "w", lhs_contract=(1,), rhs_contract=(0,))
        b.output(b.add(y, "c"))

    start = engine.initial_state(build(g), A2)
    assert start.worklists["a"] == {0, 1, 2}
    st = engine.apply_action(start, engine.Action(0, 0, "a"))
    # propagation sharded c through the add, so c is no longer actionable
    assert st.worklists["a"] == {1}
    with pytest.raises(IllegalActionError):
        engine.apply_action(st, engine.Action(2, 0, "a"))


def test_worklists_shrink_monotonically():
    rng = random.Random(5)
    for _ in range(10):
        graph = random_graph(rng)
        mesh = random_mesh(rng)
        st = engine.initial_state(graph, mesh)
        for _ in range(4):
            legal = engine.legal_actions(st, None)
            if not legal:
                break
            nxt = engine.apply_action(st, rng.choice(legal))
            for axis in mesh.axis_names:
                assert nxt.worklists[axis] <= st.worklists[axis]
            st = nxt


def test_apply_rejects_unknown_group_and_axis():
    def g(b):
        b.arg("x", (4,), role=ir.Role.DATA, group="d")
        b.output(b.elementwise("relu", "x"))

    start = engine.initial_state(build(g), A2)
    with pytest.raises(IllegalActionError):
        engine.apply_action(start, engine.Action(7, 0, "a"))
    with pytest.raises(IllegalActionError):
        engine.apply_action(start, engine.Action(0, 0, "zz"))
    with pytest.raises(IllegalActionError):
        engine.apply_action(start, engine.Action(0, 3, "a"))


# --- state identity ----------------------------------------------------------


def matmul_bias_graph() -> ir.Graph:
    b = ir.GraphBuilder("matmul_bias")
    b.arg("x", (8, 4), role=ir.Role.DATA, group="x")
    b.arg("w", (4, 8), role=ir.Role.PARAMETER, group="w")
    b.arg("c", (8, 8), role=ir.Role.PARAMETER, group="c")
    y = b.dot("x", "w", lhs_contract=(1,), rhs_contract=(0,))
    b.output(b.add(y, "c"))
    return b.build()


def test_different_actions_reaching_one_sharding_share_a_fingerprint():
    graph = matmul_bias_graph()
    start = engine.initial_state(graph, A2)
    via_x = engine.apply_action(start, engine.Action(0, 0, "a"))
    via_c = engine.apply_action(start, engine.Action(2, 0, "a"))
    assert via_x.fingerprint == via_c.fingerprint
    assert via_x.shardings == via_c.shardings
    assert via_x.applied != via_c.applied  # histories differ, state does not


def test_initial_state_is_empty_and_replicated():
    start = engine.initial_state(matmul_bias_graph(), A2)
    assert start.fingerprint.digest == "()"
    assert start.applied == ()
    assert all(s.is_replicated for s in start.shardings.values())


def test_action_order_never_changes_the_resulting_state():
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        graph = random_graph(rng)
        mesh = random_mesh(rng)
        st = engine.initial_state(graph, mesh)
        seq = []
        for _ in range(4):
            legal = engine.legal_actions(st, None)
            if not legal:
                break
            a = rng.choice(legal)
            seq.append(a)
            st = engine.apply_action(st, a)
        if len(seq) < 2:
            continue
        perm = seq[:]
        rng.shuffle(perm)
        other = engine.initial_state(graph, mesh)
        try:
            for a in perm:
                other = engine.apply_action(other, a)
        except IllegalActionError:
            continue  # this order is unreachable; nothing to compare
        checked += 1
        assert other.fingerprint == st.fingerprint
        assert other.shardings == st.shardings
    assert checked >= 10  # the property must actually get exercised


def test_replay_plan_reports_failing_action_index():
    graph = matmul_bias_graph()
    plan = [engine.Action(0, 0, "a"), engine.Action(2, 0, "a")]  # second is illegal
    with pytest.raises(PlanReplayError) as exc:
        engine.replay_plan(graph, A2, plan)
    assert exc.value.action_index == 1


def test_propagate_map_matches_action_closure():
    graph = matmul_bias_graph()
    st = engine.apply_action(engine.initial_state(graph, A2), engine.Action(0, 0, "a"))
    seeded = {
        "x": ir.Sharding((ir.DimSharding(("a",)), ir.DimSharding())),
    }
    closed = engine.propagate(graph, A2, seeded)
    assert closed == st.shardings


def test_state_cache_returns_identical_objects():
    graph = matmul_bias_graph()
    cache = engine.StateCache(graph, A2)
    a = engine.Action(0, 0, "a")
    s1 = cache.apply(cache.root, a)
    s2 = cache.apply(cache.root, a)
    assert s1 is s2
    assert len(cache) >= 2


# --- compact state storage ----------------------------------------------------

# nine axes: masks no longer fit one byte, so states use a wider typecode
WIDE = ir.Mesh(tuple(ir.MeshAxis(f"ax{i}", 2) for i in range(9)))


def random_walk(graph: ir.Graph, mesh: ir.Mesh, picks: list[int]) -> list[engine.Action]:
    """Apply legal actions chosen by `picks`; return the actions applied."""
    state = engine.initial_state(graph, mesh)
    seq = []
    for pick in picks:
        legal = engine.legal_actions(state, None)
        if not legal:
            break
        seq.append(legal[pick % len(legal)])
        state = engine.apply_action(state, seq[-1])
    return seq


def reference_state(state: engine.ModuleState) -> tuple[list[int], list[int], dict]:
    """From-scratch closure of the state's action set on plain lists."""
    comp, mt = state._comp, state._mt
    fm = [0] * comp.total_dims
    partials = [0] * comp.nvals
    for a in state.applied:
        for m in comp.group_members[a.group]:
            fm[comp.offsets[m] + a.dim] |= mt.bit_of[a.axis]
    used = engine._close(comp, mt, fm, partials)
    worklists = {
        name: frozenset(
            gid for gid, members in comp.groups
            if all(used[m] & mt.bit_of[name] == 0 for m in members)
        )
        for name in mt.axis_names
    }
    return fm, partials, worklists


def check_against_reference(state: engine.ModuleState) -> None:
    fm, partials, worklists = reference_state(state)
    assert state._fm.tolist() == fm
    assert state._partials.tolist() == partials
    assert state.worklists == worklists
    groups = state._comp.groups
    for name, mask in zip(state._mt.axis_names, state._wl):
        assert mask == sum(1 << pos for pos, (gid, _) in enumerate(groups)
                           if gid in worklists[name])


SEEDS = strategies.integers(0, 2**32 - 1)
PICKS = strategies.integers(0, 1 << 16)


@settings(max_examples=150, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(),
       picks=strategies.lists(PICKS, min_size=1, max_size=5), data=strategies.data())
def test_permuted_action_sets_store_identical_state(graph_seed, wide, picks, data):
    rng = random.Random(graph_seed)
    graph = random_graph(rng)
    mesh = WIDE if wide else random_mesh(rng)
    seq = random_walk(graph, mesh, picks)
    assume(seq)
    perm = data.draw(strategies.permutations(seq))
    try:
        again = engine.replay_plan(graph, mesh, perm)
    except PlanReplayError:
        assume(False)  # this order is unreachable; nothing to compare
    first = engine.replay_plan(graph, mesh, seq)
    assert again._fm == first._fm
    assert again._partials == first._partials
    assert again.worklists == first.worklists
    assert again.fingerprint == first.fingerprint
    # one action set, one cache key, whatever the order
    cache = engine.StateCache(graph, mesh)
    ends = []
    for order in (seq, perm):
        state = cache.root
        for a in order:
            state = cache.apply(state, a)
        ends.append(state)
    assert ends[0] is ends[1]
    cfg = cm.default_config(mesh)
    assert cm.estimate(again, cfg) == cm.estimate(first, cfg)


@settings(max_examples=150, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), picks=strategies.lists(PICKS, max_size=5))
def test_every_stored_state_matches_the_list_closure(graph_seed, wide, picks):
    rng = random.Random(graph_seed)
    graph = random_graph(rng)
    mesh = WIDE if wide else random_mesh(rng)
    state = engine.initial_state(graph, mesh)
    check_against_reference(state)
    for a in random_walk(graph, mesh, picks):
        state = engine.apply_action(state, a)
        check_against_reference(state)


def test_masks_past_the_eighth_axis_are_stored_whole():
    graph = random_graph(random.Random(3))
    state = engine.initial_state(graph, WIDE)
    assert state._fm.itemsize > 1
    a = engine.legal_actions(state, "ax8")[0]
    state = engine.apply_action(state, a)
    first = state._comp.group_members[a.group][0]
    assert state._fm[state._comp.offsets[first] + a.dim] & 1 << 8
    assert state.sharding_of(graph.args[first].id).per_dim[a.dim].axes[-1] == "ax8"
    check_against_reference(state)


def footprint(state: engine.ModuleState) -> int:
    """Bytes a state holds of its own: sys.getsizeof summed over its fields.

    Skips the graph, mesh and compiled tables, which every state of a search
    shares, and Action objects, which the search tree holds anyway.
    """
    shared = {"graph", "mesh", "_comp", "_mt"}
    seen: set[int] = set()

    def size(obj) -> int:
        if obj is None or isinstance(obj, engine.Action) or id(obj) in seen:
            return 0
        seen.add(id(obj))
        n = sys.getsizeof(obj)
        if isinstance(obj, dict):
            n += sum(size(k) + size(v) for k, v in obj.items())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            n += sum(size(x) for x in obj)
        elif dataclasses.is_dataclass(obj):
            n += sum(size(getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return n

    return sys.getsizeof(state) + sum(
        size(getattr(state, f)) for f in type(state).__slots__ if f not in shared
    )


def test_a_transformer_state_stores_under_1500_bytes():
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    graph = models.build_named_model("transformer")
    plan = models.transformer_expert_plans(mesh)["bp_mt"]
    assert len(plan) == 3
    state = engine.replay_plan(graph, mesh, list(plan))
    assert footprint(state) <= 1500
