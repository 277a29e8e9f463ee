"""Sharding propagation, action legality, fingerprints, and state identity."""

import dataclasses
import functools
import gc
import random
import sys
import weakref

import pytest
from hypothesis import assume, event, given, settings, strategies

from meshpart import costmodel as cm, engine, ir, models
from meshpart.errors import ConfigError, IllegalActionError, PlanReplayError, ShapeError
from _random_graphs import matmul_bias_graph, random_graph, random_mesh, self_tied_graph

A2 = ir.Mesh((ir.MeshAxis("a", 2),))
AB = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 2)))


def build(fn) -> ir.Graph:
    b = ir.GraphBuilder(fn.__name__)
    fn(b)
    return b.build()


def worklists(state: engine.ModuleState) -> dict[str, frozenset[int]]:
    """Per mesh axis, the ids of the groups still actionable on it: those
    with no member carrying the axis on any dim."""
    comp, row = state._comp, state._row
    return {
        name: frozenset(
            gid for (gid, _), dims in zip(comp.groups, comp.group_dims)
            if not any(row[p] & bit for p in dims)
        )
        for name, bit in comp.bit_of.items()
    }


def close_row(comp, row: list[int]) -> list[int]:
    """`engine._close` a hand-seeded row in place; return the used masks.

    Scans the row for the entry `_close` takes from its caller: per value,
    the OR of its dim masks and its partial mask, and the components of
    the nonzero dim positions.
    """
    used = row[comp.partial_base:]
    live = 0
    for v, part, m in zip(comp.value_of, comp.part_of, row):  # dim positions only
        if m:
            used[v] |= m
            live |= part
    engine._close(comp, row, used, live)
    return used


# --- per-rule propagation behavior -------------------------------------------


def test_elementwise_ties_dims_across_operands_and_result():
    def g(b):
        b.arg("x", (8, 8), role=ir.Role.DATA, group="d")
        b.arg("y", (8, 8), role=ir.Role.PARAMETER, group="w")
        b.output(b.add("x", "y"))

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    sh = st.shardings
    assert sh["x"].per_dim[0].axes == ("a",)
    assert sh["y"].per_dim[0].axes == ("a",)
    assert sh["v0"].per_dim[0].axes == ("a",)


def test_partial_markers_do_not_cross_elementwise_ops():
    def g(b):
        b.arg("u", (8, 4), role=ir.Role.DATA, group="d")
        b.arg("w", (8, 4), role=ir.Role.PARAMETER, group="w")
        p = b.dot("u", "w", lhs_contract=(0,), rhs_contract=(0,))  # [4,4] partial
        b.output(b.elementwise("relu", p))

    st = engine.initial_state(build(g), A2)
    st = engine.apply_action(st, engine.Action(0, 0, "a"))
    sh = st.shardings
    assert sh["v0"].partial_axes == frozenset({"a"})
    assert sh["v1"].partial_axes == frozenset()


def test_dot_contraction_ties_operands_and_marks_result_partial():
    def g(b):
        b.arg("u", (8, 4), role=ir.Role.DATA, group="d")
        b.arg("w", (8, 4), role=ir.Role.PARAMETER, group="w")
        b.output(b.dot("u", "w", lhs_contract=(0,), rhs_contract=(0,)))

    start = engine.initial_state(build(g), A2)
    st = engine.apply_action(start, engine.Action(0, 0, "a"))
    sh = st.shardings
    # the contracting tie spreads the axis to the other operand, so one
    # action already yields a matched contraction and a partial result
    assert sh["w"].per_dim[0].axes == ("a",)
    assert sh["v0"].partial_axes == frozenset({"a"})
    assert all(d.axes == () for d in sh["v0"].per_dim)
    assert 1 not in worklists(st)["a"]


def test_dot_batch_and_free_dims_tie_operands_to_result():
    def g(b):
        b.arg("x", (4, 8, 4), role=ir.Role.DATA, group="d")
        b.arg("w", (4, 4, 8), role=ir.Role.PARAMETER, group="w")
        b.output(
            b.dot("x", "w", lhs_batch=(0,), rhs_batch=(0,), lhs_contract=(2,), rhs_contract=(1,))
        )

    st = engine.apply_action(engine.initial_state(build(g), AB), engine.Action(0, 0, "a"))
    sh = st.shardings
    # batch dim ties lhs ↔ rhs ↔ result
    assert sh["w"].per_dim[0].axes == ("a",)
    assert sh["v0"].per_dim[0].axes == ("a",)
    st = engine.apply_action(st, engine.Action(0, 1, "b"))
    assert st.shardings["v0"].per_dim[1].axes == ("b",)  # lhs free dim


def test_reduce_sum_over_sharded_dim_becomes_partial():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.reduce("x", (0,), kind="sum"))

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    sh = st.shardings
    assert sh["v0"].partial_axes == frozenset({"a"})
    assert sh["v0"].per_dim[0].axes == ()


def test_reduce_max_over_sharded_dim_stays_unsharded():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.reduce("x", (0,), kind="max"))

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    sh = st.shardings
    assert sh["v0"].partial_axes == frozenset()
    assert sh["v0"].per_dim[0].axes == ()


def test_reduce_kept_dims_tie_through():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.reduce("x", (0,), kind="sum"))

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 1, "a"))
    assert st.shardings["v0"].per_dim[0].axes == ("a",)


def test_transpose_maps_dims_through_permutation():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.transpose("x", (1, 0)))

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    sh = st.shardings
    assert sh["v0"].per_dim[1].axes == ("a",)
    assert sh["v0"].per_dim[0].axes == ()


def test_reshape_propagates_only_whole_preserved_dims():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.output(b.reshape("x", (8, 2, 2)))

    # dim0 survives the reshape (same size, same prefix product): propagates
    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    assert st.shardings["v0"].per_dim[0].axes == ("a",)
    # dim1 is split 4 -> (2, 2): does not propagate
    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 1, "a"))
    assert all(d.axes == () for d in st.shardings["v0"].per_dim)


def test_group_members_always_share_shardings():
    def g(b):
        b.arg("x", (4, 4), role=ir.Role.DATA, group="d")
        b.arg("w0", (4, 4), role=ir.Role.PARAMETER, group="w")
        b.arg("w1", (4, 4), role=ir.Role.PARAMETER, group="w")
        b.output(b.add("x", "w0"))  # w1 is only reached through its group

    st = engine.apply_action(engine.initial_state(build(g), A2), engine.Action(0, 0, "a"))
    sh = st.shardings
    assert sh["w0"] == sh["w1"]
    assert sh["w1"].per_dim[0].axes == ("a",)


def test_conflicting_axes_on_one_dim_append_when_divisible():
    def g(b):
        b.arg("x", (4, 4), role=ir.Role.DATA, group="d")
        b.arg("y", (4, 4), role=ir.Role.DATA, group="e")
        b.output(b.add("x", "y"))

    st = engine.initial_state(build(g), AB)
    st = engine.apply_action(st, engine.Action(0, 0, "a"))
    st = engine.apply_action(st, engine.Action(1, 0, "b"))
    assert set(st.shardings["v0"].per_dim[0].axes) == {"a", "b"}


def test_seeding_atop_a_propagated_axis_requires_divisibility():
    def g(b):
        b.arg("x", (2, 4), role=ir.Role.DATA, group="d")
        b.arg("y", (2, 4), role=ir.Role.DATA, group="e")
        b.output(b.add("x", "y"))

    st = engine.apply_action(engine.initial_state(build(g), AB), engine.Action(0, 0, "a"))
    # closure already put 'a' on y dim0; size 2 cannot also take 'b'
    assert st.shardings["y"].per_dim[0].axes == ("a",)
    with pytest.raises(IllegalActionError):
        engine.apply_action(st, engine.Action(1, 0, "b"))


def test_closure_conflict_resolves_to_one_axis_deterministically():
    mesh = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 4)))

    def g(b):
        b.arg("p", (4, 8), role=ir.Role.DATA, group="gp")
        b.arg("q", (4, 8), role=ir.Role.DATA, group="gq")
        b.output(b.add("p", "q"))

    # No legal action set seeds this conflict: either action closes its axis
    # onto the other argument, whose dim0 cannot also take the second axis.
    # So seed the masks directly.
    comp = engine._Compiled(build(g), mesh)
    p, q, v0 = (comp.offsets[comp.index[vid]] for vid in ("p", "q", "v0"))
    fm = [0] * comp.total_dims
    fm[p] = comp.bit_of["b"]
    fm[q] = comp.bit_of["a"]
    partials = [0] * comp.nvals
    row = fm + [0] + partials
    close_row(comp, row)
    # dim0 (size 4) cannot hold both a size-2 and a size-4 axis: the tie
    # of p, first in instance order, wins, and each seed stays put
    assert (row[p], row[q], row[v0]) == (comp.bit_of["b"], comp.bit_of["a"], comp.bit_of["b"])
    assert row[comp.partial_base:] == [0] * comp.nvals


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


def test_equal_legal_actions_of_two_states_are_one_object():
    start = engine.initial_state(matmul_bias_graph(), AB)
    st = engine.apply_action(start, engine.Action(0, 0, "a"))
    before = {a: a for a in engine.legal_actions(start, None)}
    after = engine.legal_actions(st, None)
    assert after
    assert all(before[a] is a for a in after)


def test_group_leaves_worklist_once_sharded_even_by_propagation():
    def g(b):
        b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
        b.arg("w", (4, 8), role=ir.Role.PARAMETER, group="w")
        b.arg("c", (8, 8), role=ir.Role.PARAMETER, group="c")
        y = b.dot("x", "w", lhs_contract=(1,), rhs_contract=(0,))
        b.output(b.add(y, "c"))

    start = engine.initial_state(build(g), A2)
    assert worklists(start)["a"] == {0, 1, 2}
    st = engine.apply_action(start, engine.Action(0, 0, "a"))
    # propagation sharded c through the add, so c is no longer actionable
    assert worklists(st)["a"] == {1}
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
                assert worklists(nxt)[axis] <= worklists(st)[axis]
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


def test_legal_actions_rejects_an_unknown_axis():
    start = engine.initial_state(matmul_bias_graph(), A2)
    with pytest.raises(ShapeError, match="unknown mesh axis 'zz'"):
        engine.legal_actions(start, "zz")


# --- state identity ----------------------------------------------------------


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
    for sharding in start.shardings.values():
        assert all(d.axes == () for d in sharding.per_dim)
        assert sharding.partial_axes == frozenset()


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


# --- compact state storage ----------------------------------------------------

# eight axes, the most a mesh may have: masks use every bit of a row's byte
WIDE = ir.Mesh(tuple(ir.MeshAxis(f"ax{i}", 2) for i in range(8)))


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


def reference_close(comp, fm: list[int], partials: list[int]) -> list[int]:
    """The closure swept instance by instance, with no shortcut.

    Every instance runs both directions of its tie and then its partial
    mark, whatever the masks; `engine._close` must give the same result.
    """
    used = [0] * comp.nvals
    for v in range(comp.nvals):
        u = partials[v]
        for p in range(comp.offsets[v], comp.offsets[v] + len(comp.dims[v])):
            u |= fm[p]
        used[v] = u
    prod = comp.prod
    changed = True
    while changed:
        changed = False
        for partial, i, pi, size_i, j, pj, size_j, res in comp.instances:
            for src, dst, v, size in ((pi, pj, j, size_j), (pj, pi, i, size_i)):
                for k in range(comp.nbits):
                    b = 1 << k
                    if fm[src] & b and not used[v] & b and size % prod[fm[dst] | b] == 0:
                        fm[dst] |= b
                        used[v] |= b
                        changed = True
            if partial:
                add = fm[pi] & fm[pj] & ~used[res]
                if add:
                    partials[res] |= add
                    used[res] |= add
                    changed = True
    return used


def reference_state(state: engine.ModuleState) -> tuple[list[int], list[int], dict]:
    """From-scratch closure of the state's action set on plain lists."""
    comp = state._comp
    fm = [0] * comp.total_dims
    partials = [0] * comp.nvals
    for a in state.applied:
        for m in comp.group_members[a.group]:
            fm[comp.offsets[m] + a.dim] |= comp.bit_of[a.axis]
    used = reference_close(comp, fm, partials)
    actionable = {
        name: frozenset(
            gid for gid, members in comp.groups
            if all(used[m] & comp.bit_of[name] == 0 for m in members)
        )
        for name in comp.axis_names
    }
    return fm, partials, actionable


def reference_digest(state: engine.ModuleState) -> str:
    """The digest spelled out group by group, dim by dim."""
    comp, row = state._comp, state._row
    parts = []
    for gid, members in comp.groups:
        first = members[0]
        base = comp.offsets[first]
        for d in range(len(comp.dims[first])):
            mask = row[base + d]
            if mask:
                parts.append(f"{gid}.{d}:{'+'.join(sorted(comp.names(mask)))}")
    return ";".join(parts) if parts else "()"


def check_against_reference(state: engine.ModuleState) -> None:
    fm, partials, want_worklists = reference_state(state)
    comp, row = state._comp, list(state._row)
    # the row's shape first: one mask per dim position, the zero slot, and
    # one partial mask per value (`engine._Compiled`)
    assert len(row) == comp.partial_base + comp.nvals
    assert row[comp.total_dims] == 0
    assert row == fm + [0] + partials
    assert state.fingerprint.digest == reference_digest(state)
    assert worklists(state) == want_worklists


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
    assert again._row == first._row
    assert worklists(again) == worklists(first)
    assert again.fingerprint == first.fingerprint
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


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, picks=strategies.lists(PICKS, min_size=1, max_size=5))
def test_apply_action_admits_exactly_the_legal_actions(graph_seed, picks):
    rng = random.Random(graph_seed)
    graph = random_graph(rng)
    mesh = random_mesh(rng)
    state = engine.initial_state(graph, mesh)
    comp = state._comp
    # every group and one unknown, every dim and one past the widest rank,
    # every axis and one unknown
    gids = [gid for gid, _ in comp.groups] + [len(comp.groups)]
    dims = range(max(comp.group_rank.values()) + 1)
    axes = mesh.axis_names + ("zz",)
    for pick in [*picks, None]:
        accepted = set()
        for gid in gids:
            for dim in dims:
                for axis in axes:
                    action = engine.Action(gid, dim, axis)
                    try:
                        engine.apply_action(state, action)
                    except IllegalActionError:
                        continue
                    accepted.add(action)
        legal = engine.legal_actions(state, None)
        assert sorted(legal) == sorted(accepted)
        if pick is None or not legal:
            break
        state = engine.apply_action(state, legal[pick % len(legal)])


def test_an_action_on_the_eighth_axis_sets_the_top_bit_of_its_mask():
    graph = random_graph(random.Random(3))
    state = engine.initial_state(graph, WIDE)
    a = engine.legal_actions(state, "ax7")[0]
    state = engine.apply_action(state, a)
    first = state._comp.group_members[a.group][0]
    assert state._row[state._comp.offsets[first] + a.dim] == 1 << 7
    assert state.shardings[graph.args[first].id].per_dim[a.dim].axes == ("ax7",)
    assert f"{a.group}.{a.dim}:ax7" in state.fingerprint.digest.split(";")
    check_against_reference(state)


def test_rows_are_bytes_while_a_mask_fits_one_byte():
    # every mesh does: it has at most 8 axes, one bit of a mask byte each
    graph = random_graph(random.Random(3))
    for mesh in (AB, WIDE):
        root = engine.initial_state(graph, mesh)
        state = engine.apply_action(root, engine.legal_actions(root, None)[-1])
        for s in (root, state):
            assert type(s._row) is bytes


def random_action_set(comp: engine._Compiled, rng: random.Random) -> tuple[int, tuple]:
    """A random set of seed indices, legal or not, and its actions."""
    n = len(comp.actions)
    key = rng.getrandbits(n) & rng.getrandbits(n)
    return key, tuple(a for i, a in enumerate(comp.actions) if key >> i & 1)


@settings(max_examples=150, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), tied=strategies.booleans(),
       key_seed=SEEDS)
def test_states_made_from_random_action_sets_match_the_list_closure(
    graph_seed, wide, tied, key_seed
):
    comp = random_compiled(graph_seed, wide, tied)
    key, applied = random_action_set(comp, random.Random(key_seed))
    check_against_reference(engine._make_state(comp, key, applied))


@pytest.mark.parametrize("name", sorted(models.MODEL_BUILDERS))
def test_model_states_made_from_random_action_sets_match_the_list_closure(name):
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    comp = engine._Compiled(models.build_named_model(name), mesh)
    if name != "unet":  # seeds that write two or more members
        assert max(len(members) for _, members in comp.groups) >= 2
    rng = random.Random(0)
    for _ in range(20):
        check_against_reference(engine._make_state(comp, *random_action_set(comp, rng)))


def footprint(state: engine.ModuleState) -> int:
    """Bytes a state holds of its own: sys.getsizeof summed over its fields.

    Skips the compiled tables, which every state of a search shares and
    which hold the graph and mesh, and Action objects, which the search tree
    holds anyway.
    """
    shared = {"_comp"}
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


def test_a_transformer_state_stores_under_1000_bytes():
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    graph = models.build_named_model("transformer")
    plan = models.transformer_expert_plans(mesh)["bp_mt"]
    assert len(plan) == 3
    state = engine.replay_plan(graph, mesh, list(plan))
    assert footprint(state) <= 1000


# --- properties of the closure and lowering kernels ---------------------------


def walk_states(graph_seed: int, wide: bool, picks: list[int], tied: bool = False):
    """The states of a random walk on a random graph, the start included."""
    rng = random.Random(graph_seed)
    graph = self_tied_graph(rng) if tied else random_graph(rng)
    mesh = WIDE if wide else random_mesh(rng)
    state = engine.initial_state(graph, mesh)
    yield state
    for a in random_walk(graph, mesh, picks):
        state = engine.apply_action(state, a)
        yield state


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), picks=strategies.lists(PICKS, max_size=5))
def test_closing_a_closed_state_again_changes_nothing(graph_seed, wide, picks):
    for state in walk_states(graph_seed, wide, picks):
        row = list(state._row)
        close_row(state._comp, row)
        assert row == list(state._row)


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), picks=strategies.lists(PICKS, max_size=5))
def test_estimates_agree_with_the_lowered_program(graph_seed, wide, picks):
    for state in walk_states(graph_seed, wide, picks):
        mesh = state.mesh
        shardings = state.shardings
        resident = 0
        for arg in state.graph.args:
            if arg.role in (ir.Role.PARAMETER, ir.Role.OPTIMIZER_STATE):
                shards = 1
                for dim in shardings[arg.id].per_dim:
                    for axis in dim.axes:
                        shards *= mesh.axis_size(axis)
                resident += arg.type.byte_size // shards
        for cse in (False, True):
            cfg = cm.default_config(mesh, cse_allgather=cse)
            est = cm.estimate(state, cfg)
            collectives = cm.lower(state, cfg).collectives
            assert est.counts == {
                kind: sum(c.kind == kind for c in collectives) for kind in cm.COLLECTIVE_KINDS
            }
            assert est.runtime_seconds >= sum(cm.collective_time(c, cfg, mesh) for c in collectives)
            assert est.peak_memory_bytes >= resident


def analysis(state: engine.ModuleState, cfg: cm.CostModelConfig) -> tuple:
    """`_analyze`'s output, its float sums as `float.hex`: equal means bit-identical."""
    events, compute_seconds, comm_seconds, peak, counts = cm._analyze(state, cfg)
    return events, compute_seconds.hex(), comm_seconds.hex(), peak, counts


def check_cold_and_warm_memos_agree(states: list[engine.ModuleState]) -> None:
    """Each state priced from the memo its walk filled, and on fresh tables.

    The walk's states share one `_Compiled`, so once every state has been
    priced under both configs, each op's result comes from whichever state
    first met its key.  A state's masks on new tables find empty memos.
    """
    cfgs = [cm.default_config(states[0].mesh, cse_allgather=cse) for cse in (False, True)]
    for cfg in cfgs:
        for state in states:
            cm._analyze(state, cfg)
    for state in states:
        for cfg in cfgs:
            cold = engine.ModuleState(
                engine._Compiled(state.graph, state.mesh),
                state._key, state.applied, state._row,
            )
            assert analysis(state, cfg) == analysis(cold, cfg)


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), tied=strategies.booleans(),
       picks=strategies.lists(PICKS, max_size=5))
def test_a_warm_pricing_memo_prices_like_a_cold_one(graph_seed, wide, tied, picks):
    check_cold_and_warm_memos_agree(list(walk_states(graph_seed, wide, picks, tied)))


@settings(max_examples=30, deadline=None)
@given(name=strategies.sampled_from(sorted(models.MODEL_BUILDERS)),
       picks=strategies.lists(PICKS, max_size=8))
def test_a_warm_pricing_memo_prices_model_walks_like_a_cold_one(name, picks):
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    graph = models.build_named_model(name)
    states = [engine.initial_state(graph, mesh)]
    for a in random_walk(graph, mesh, picks):
        states.append(engine.apply_action(states[-1], a))
    check_cold_and_warm_memos_agree(states)


def pricing_configs(mesh: ir.Mesh) -> list[cm.CostModelConfig]:
    """Eight configs that differ in each field `estimate` reads.

    Each (`cse_allgather`, links) pair comes under two memory penalties, so
    every config shares its analysis key with one other, and its key differs
    from others' in `cse_allgather` alone or in one link alone.
    """
    links = cm.default_config(mesh).links
    slow = {**links, mesh.axis_names[0]: cm.AxisLink(cm.DEFAULT_BANDWIDTH / 3, cm.DEFAULT_LATENCY)}
    return [
        cm.default_config(
            mesh, memory_penalty_slope=slope, memory_limit_bytes=limit,
            cse_allgather=cse, links=slow if k % 2 else links,
        )
        for k, (slope, limit) in enumerate(((0.0, 2.0**20), (1.0, 2.0**20), (2.0, 64.0), (4.0, 64.0)))
        for cse in (False, True)
    ]


def check_warm_and_cold_analyses_agree(states: list[engine.ModuleState]) -> None:
    """Each state's estimates on the shared root's analysis cache, and on fresh tables.

    The states share one root, and each is priced under every config in
    turn, so most of them hit analyses that another config or another state
    left in the cache.  A state's row on new tables finds the cache empty.
    """
    cfgs = pricing_configs(states[0].mesh)
    warm = [[cm.estimate(state, cfg) for cfg in cfgs] for state in states]
    for state, estimates in zip(states, warm):
        for cfg, est in zip(cfgs, estimates):
            cold = cm.estimate(engine.ModuleState(
                engine._Compiled(state.graph, state.mesh), state._key, state.applied, state._row,
            ), cfg)
            assert est.runtime_seconds.hex() == cold.runtime_seconds.hex()
            assert est.penalized_cost.hex() == cold.penalized_cost.hex()
            assert est == cold


def walks_from_one_root(graph: ir.Graph, mesh: ir.Mesh, walks: list[list[int]]):
    """The states of several random walks from one root, the root first."""
    root = engine.initial_state(graph, mesh)
    states = [root]
    for picks in walks:
        state = root
        for pick in picks:
            legal = engine.legal_actions(state, None)
            if not legal:
                break
            state = engine.apply_action(state, legal[pick % len(legal)])
            states.append(state)
    return states


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), tied=strategies.booleans(),
       walks=strategies.lists(strategies.lists(PICKS, max_size=5), min_size=1, max_size=3))
def test_a_warm_analysis_cache_prices_like_a_cold_one(graph_seed, wide, tied, walks):
    rng = random.Random(graph_seed)
    graph = self_tied_graph(rng) if tied else random_graph(rng)
    mesh = WIDE if wide else random_mesh(rng)
    check_warm_and_cold_analyses_agree(walks_from_one_root(graph, mesh, walks))


@settings(max_examples=20, deadline=None)
@given(name=strategies.sampled_from(sorted(models.MODEL_BUILDERS)),
       walks=strategies.lists(strategies.lists(PICKS, max_size=8), min_size=1, max_size=3))
def test_a_warm_analysis_cache_prices_model_walks_like_a_cold_one(name, walks):
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    graph = models.build_named_model(name)
    check_warm_and_cold_analyses_agree(walks_from_one_root(graph, mesh, walks))


@pytest.mark.parametrize("name, plans", [
    ("gns", ([(9, 0), (3, 1)], [(9, 0), (0, 1)])),
    ("transformer", ([(3, 2), (11, 0)], [(3, 2), (5, 0)])),
])
def test_states_sharing_a_digest_are_priced_by_their_rows(name, plans):
    # a digest covers the argument groups only, so it does not key an analysis
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    root = engine.initial_state(models.build_named_model(name), mesh)
    a, b = (
        functools.reduce(engine.apply_action, [engine.Action(g, d, "batch") for g, d in plan], root)
        for plan in plans
    )
    assert a.fingerprint == b.fingerprint and a._row != b._row
    cfg = cm.default_config(mesh)
    assert cm.estimate(a, cfg) != cm.estimate(b, cfg)
    check_warm_and_cold_analyses_agree([root, a, b])


def test_the_analysis_cache_keys_each_analysis_by_a_priced_row_itself():
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    graph = models.build_named_model("transformer")
    states = walks_from_one_root(graph, mesh, [[3, 1, 4, 1, 5], [9, 2, 6], [5, 3, 5, 8]])
    cfg = cm.default_config(mesh)
    for state in states:
        cm.estimate(state, cfg)
    (by_row,) = states[0]._comp.analyses.values()
    assert len(by_row) == len({bytes(s._row) for s in states})
    rows = {id(s._row) for s in states}
    assert all(id(key) in rows for key in by_row)  # no copy of a row


# --- a state depends on its action set only ---------------------------------


@settings(max_examples=100, deadline=None)
@given(source=strategies.sampled_from(["random", "tied", "wide", *sorted(models.MODEL_BUILDERS)]),
       graph_seed=SEEDS,
       walks=strategies.lists(strategies.lists(PICKS, max_size=5), min_size=1, max_size=3),
       order_seed=SEEDS)
def test_any_order_of_an_action_set_makes_the_state_a_fresh_replay_does(
    source, graph_seed, walks, order_seed
):
    """Shuffled orders of the same action sets, applied on one root: every
    prefix keeps the order that made it, and its key, row and digest are
    those of replaying that order on a fresh root."""
    rng = random.Random(graph_seed)
    if source in models.MODEL_BUILDERS:
        graph = models.build_named_model(source)
        mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    else:
        graph = self_tied_graph(rng) if source == "tied" else random_graph(rng)
        mesh = WIDE if source == "wide" else random_mesh(rng)
    root, *states = walks_from_one_root(graph, mesh, walks)
    order_rng = random.Random(order_seed)
    for seq in [s.applied for s in states] * 2:
        state, order = root, ()
        for action in order_rng.sample(seq, len(seq)):
            try:
                state = engine.apply_action(state, action)
            except IllegalActionError:
                break  # this order is unreachable from here on
            order += (action,)
            assert state.applied == order
            fresh = engine.replay_plan(graph, mesh, list(order))
            assert state._key == fresh._key
            assert state._row == fresh._row
            assert state.fingerprint.digest == fresh.fingerprint.digest


# --- the root's closure table -------------------------------------------------


def check_the_closure_table(graph: ir.Graph, mesh: ir.Mesh, walks: list[list[int]],
                            rng: random.Random) -> None:
    """The action sets of several walks from one root, replayed shuffled on
    that warm root, against a closure of each set on a fresh root.

    Each shuffled prefix is a set the table may not hold yet and each full
    set is one it holds, so the check covers both ways `_make_state` takes.
    A hit must also keep the `applied` order of its own caller.
    """
    root, *states = walks_from_one_root(graph, mesh, walks)
    cfg = cm.default_config(mesh)
    for seq in (s.applied for s in states):
        order = rng.sample(seq, len(seq))
        try:
            warm = functools.reduce(engine.apply_action, order, root)
        except IllegalActionError:
            order = seq  # this order is unreachable; the walk's order is not
            warm = functools.reduce(engine.apply_action, order, root)
        cold = engine.replay_plan(graph, mesh, list(seq))
        assert warm._comp is root._comp and warm.applied == tuple(order)
        assert warm._key == cold._key
        assert warm._row == cold._row
        assert warm.fingerprint == cold.fingerprint
        a, b = cm.estimate(warm, cfg), cm.estimate(cold, cfg)
        assert a.runtime_seconds.hex() == b.runtime_seconds.hex()
        assert a.penalized_cost.hex() == b.penalized_cost.hex()
        assert a == b


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), tied=strategies.booleans(),
       walks=strategies.lists(strategies.lists(PICKS, max_size=5), min_size=1, max_size=3),
       order_seed=SEEDS)
def test_a_warm_closure_table_makes_the_states_a_fresh_root_does(
    graph_seed, wide, tied, walks, order_seed
):
    rng = random.Random(graph_seed)
    graph = self_tied_graph(rng) if tied else random_graph(rng)
    mesh = WIDE if wide else random_mesh(rng)
    check_the_closure_table(graph, mesh, walks, random.Random(order_seed))


@settings(max_examples=15, deadline=None)
@given(name=strategies.sampled_from(sorted(models.MODEL_BUILDERS)),
       walks=strategies.lists(strategies.lists(PICKS, max_size=6), min_size=1, max_size=3),
       order_seed=SEEDS)
def test_a_warm_closure_table_makes_the_model_states_a_fresh_root_does(name, walks, order_seed):
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    check_the_closure_table(
        models.build_named_model(name), mesh, walks, random.Random(order_seed)
    )


@pytest.mark.parametrize("mesh", [A2, WIDE], ids=["1-axis", "8-axes"])
def test_action_sets_closing_to_equal_rows_hold_one_row(mesh):
    graph = matmul_bias_graph()
    root = engine.initial_state(graph, mesh)
    axis = mesh.axis_names[0]
    via_x = engine.apply_action(root, engine.Action(0, 0, axis))
    via_c = engine.apply_action(root, engine.Action(2, 0, axis))
    assert via_x._key != via_c._key
    assert via_x._row is via_c._row
    comp = root._comp
    assert comp.closed[via_x._key] is comp.closed[via_c._key] is via_x._row
    assert comp.rows == {bytes(s._row): s._row for s in (root, via_x)}


def test_every_state_of_a_root_holds_its_tables_row():
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    graph = models.build_named_model("gns")
    states = walks_from_one_root(graph, mesh, [[3, 1, 4, 1, 5], [9, 2, 6], [5, 3, 5, 8], [2, 7]])
    comp = states[0]._comp
    assert len(comp.rows) == len({bytes(s._row) for s in states}) < len(states)
    assert all(comp.rows[bytes(s._row)] is comp.closed[s._key] is s._row for s in states)
    cfg = cm.default_config(mesh)
    for state in states:
        cm.estimate(state, cfg)
    (by_row,) = comp.analyses.values()
    assert all(comp.rows[key] is key for key in by_row)  # each key is a state's own row


def random_compiled(graph_seed: int, wide: bool, tied: bool) -> engine._Compiled:
    rng = random.Random(graph_seed)
    graph = self_tied_graph(rng) if tied else random_graph(rng)
    return engine._Compiled(graph, WIDE if wide else random_mesh(rng))


def arbitrary_masks(graph_seed: int, wide: bool, tied: bool, mask_seed: int):
    """Tables of a random graph with arbitrary masks, so ties meet equal,
    disjoint and overlapping sides and several components start live."""
    comp = random_compiled(graph_seed, wide, tied)
    rng = random.Random(mask_seed)
    fm = [rng.randrange(1 << comp.nbits) if rng.random() < 0.3 else 0
          for _ in range(comp.total_dims)]
    partials = [rng.randrange(1 << comp.nbits) if rng.random() < 0.2 else 0
                for _ in range(comp.nvals)]
    return comp, fm, partials


@settings(max_examples=150, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), tied=strategies.booleans(),
       mask_seed=SEEDS)
def test_the_closure_matches_the_plain_sweep(graph_seed, wide, tied, mask_seed):
    comp, fm, partials = arbitrary_masks(graph_seed, wide, tied, mask_seed)
    ref_fm, ref_partials = fm[:], partials[:]
    ref_used = reference_close(comp, ref_fm, ref_partials)
    row = fm + [0] + partials
    assert close_row(comp, row) == ref_used
    assert row == ref_fm + [0] + ref_partials


def tie_components(comp) -> list[set[int]]:
    """Connected components of the dim positions that instances tie together."""
    adjacent: dict[int, set[int]] = {}
    for inst in comp.instances:
        pi, pj = inst[2], inst[5]
        adjacent.setdefault(pi, set()).add(pj)
        adjacent.setdefault(pj, set()).add(pi)
    parts, seen = [], set()
    for start in adjacent:
        if start in seen:
            continue
        part, todo = set(), [start]
        while todo:
            p = todo.pop()
            if p not in part:
                part.add(p)
                todo.extend(adjacent[p] - part)
        seen |= part
        parts.append(part)
    return parts


def live_components(comp, fm: list[int]) -> list[set[int]]:
    return [part for part in tie_components(comp) if any(fm[p] for p in part)]


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), tied=strategies.booleans())
def test_the_compiled_components_are_the_tie_graph_components(graph_seed, wide, tied):
    comp = random_compiled(graph_seed, wide, tied)
    parts = tie_components(comp)
    for inst in comp.instances:
        assert comp.part_of[inst[2]] == comp.part_of[inst[5]]
    bits = [{comp.part_of[p] for p in part} for part in parts]
    assert all(len(b) == 1 for b in bits)
    bits = [b.pop() for b in bits]
    assert all(b > 0 and b & (b - 1) == 0 for b in bits)  # one bit each
    assert len(set(bits)) == len(parts)
    touched = set().union(*parts)
    assert all(comp.part_of[p] == 0 for p in range(comp.total_dims) if p not in touched)
    # a sweep over some components runs their instances in instance order
    live = 0
    for b in bits[::2]:
        live |= b
    assert comp.sweep_of(live) == tuple(
        inst for inst in comp.instances if any(inst[2] in part for part in parts[::2])
    )


@settings(max_examples=150, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), tied=strategies.booleans(),
       mask_seed=SEEDS)
def test_a_component_without_masks_at_entry_stays_unsharded(graph_seed, wide, tied, mask_seed):
    comp, fm, partials = arbitrary_masks(graph_seed, wide, tied, mask_seed)
    live = live_components(comp, fm)
    event(f"live components: {min(len(live), 3)}{'+' if len(live) >= 3 else ''}")
    dead = [part for part in tie_components(comp) if part not in live]
    row = fm + [0] + partials
    close_row(comp, row)
    assert all(row[p] == 0 for part in dead for p in part)


def test_the_property_examples_include_several_live_components():
    counts = [
        len(live_components(*arbitrary_masks(seed, wide, tied, seed)[:2]))
        for seed in range(10) for wide in (False, True) for tied in (False, True)
    ]
    assert sum(n >= 2 for n in counts) >= 5, counts


def close_both_ways(comp, fm: list[int], partials: list[int]) -> tuple[list[int], list[int]]:
    """`_close` the masks as one row, check it against `reference_close`, return
    the closed dim and partial masks."""
    ref_fm, ref_partials = fm[:], partials[:]
    row = fm + [0] + partials
    assert close_row(comp, row) == reference_close(comp, ref_fm, ref_partials)
    assert row == ref_fm + [0] + ref_partials
    return ref_fm, ref_partials


def test_components_coupled_by_a_used_mask_close_in_instance_order():
    # y = p + q (y is v0): p.0, q.0, y.0 form one tie component and p.1,
    # q.1, y.1 another, coupled only through the used masks of p, q and y
    def g(b):
        b.arg("p", (4, 4), role=ir.Role.DATA, group="gp")
        b.arg("q", (4, 4), role=ir.Role.DATA, group="gq")
        b.output(b.add("p", "q"))

    comp = engine._Compiled(build(g), AB)
    pos = {f"{vid}.{d}": comp.offsets[comp.index[vid]] + d
           for vid in ("p", "q", "v0") for d in range(2)}
    a, b = comp.bit_of["a"], comp.bit_of["b"]
    assert comp.part_of[pos["p.0"]] != comp.part_of[pos["p.1"]]
    # a on p.0 reaches y.0 first, so y.1 cannot take a from q.1
    fm = [0] * comp.total_dims
    fm[pos["p.0"]] = fm[pos["q.1"]] = a
    fm, _ = close_both_ways(comp, fm, [0] * comp.nvals)
    assert {k: fm[p] for k, p in pos.items()} == {
        "p.0": a, "p.1": 0, "q.0": 0, "q.1": a, "v0.0": a, "v0.1": 0,
    }
    # The tie p.1-y.1 runs before q.0-y.0, so a lands on y.1, not y.0, though
    # q.0's component comes first.  b on q.0 reaches y.0 in the first sweep
    # and p.0 only in the second.
    fm = [0] * comp.total_dims
    fm[pos["p.1"]] = a
    fm[pos["q.0"]] = a | b
    fm, _ = close_both_ways(comp, fm, [0] * comp.nvals)
    assert {k: fm[p] for k, p in pos.items()} == {
        "p.0": b, "p.1": a, "q.0": a | b, "q.1": 0, "v0.0": b, "v0.1": a,
    }


def test_a_partial_mark_blocks_an_axis_in_another_component():
    def g(b):
        b.arg("p", (4, 4), role=ir.Role.DATA, group="gp")
        b.arg("w", (4, 4), role=ir.Role.PARAMETER, group="gw")
        b.arg("q", (4, 4), role=ir.Role.DATA, group="gq")
        z = b.dot("p", "w", lhs_contract=(1,), rhs_contract=(0,))
        b.output(b.add(z, "q"))

    # z = p @ w is v0 and y = z + q is v1.  The contracting pair p.1-w.0 is
    # a component of its own; z's dims belong to the other two.
    comp = engine._Compiled(build(g), AB)
    a = comp.bit_of["a"]
    pos = {f"{vid}.{d}": comp.offsets[comp.index[vid]] + d
           for vid in ("p", "w", "q", "v0", "v1") for d in range(2)}
    assert comp.part_of[pos["p.1"]] not in (comp.part_of[pos["v0.0"]], comp.part_of[pos["v0.1"]])
    fm = [0] * comp.total_dims
    fm[pos["p.1"]] = fm[pos["w.0"]] = fm[pos["q.0"]] = a
    fm, partials = close_both_ways(comp, fm, [0] * comp.nvals)
    # the partial mark on z comes first in the first sweep, so the a that
    # y.0 takes from q.0 later in that sweep never crosses to z.0
    assert partials[comp.index["v0"]] == a
    assert {k: fm[p] for k, p in pos.items() if fm[p]} == {
        "p.1": a, "w.0": a, "q.0": a, "v1.0": a,
    }


@settings(max_examples=30, deadline=None)
@given(name=strategies.sampled_from(sorted(models.MODEL_BUILDERS)),
       picks=strategies.lists(PICKS, max_size=8))
def test_walk_states_of_the_models_match_the_list_closure(name, picks):
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    graph = models.build_named_model(name)
    state = engine.initial_state(graph, mesh)
    check_against_reference(state)
    for a in random_walk(graph, mesh, picks):
        state = engine.apply_action(state, a)
        check_against_reference(state)


def local_flops(state: engine.ModuleState) -> int:
    """Per-device flops of the state's ops, counted from its public shardings."""
    mesh = state.mesh
    shardings = state.shardings

    def shards(axes) -> int:
        n = 1
        for axis in axes:
            n *= mesh.axis_size(axis)
        return n

    def dim_axes(vid: str, d: int) -> tuple[str, ...]:
        return shardings[vid].per_dim[d].axes

    graph = state.graph
    dims = {a.id: a.type.dims for a in graph.args} | {op.id: op.result_type.dims for op in graph.ops}
    total = 0
    for op in graph.ops:
        kind = op.kind
        n = 1
        for d, size in enumerate(op.result_type.dims):
            n *= size // shards(dim_axes(op.id, d))
        if isinstance(kind, ir.DotGeneral):
            lhs, rhs = op.operands
            for a, b in zip(kind.lhs_contract, kind.rhs_contract):
                common = set(dim_axes(lhs, a)) & set(dim_axes(rhs, b))
                n *= dims[lhs][a] // shards(common)
            total += 2 * n
        elif isinstance(kind, ir.Reduce):
            (src,) = op.operands
            for d in kind.dims:
                size = dims[src][d]
                n *= size // shards(dim_axes(src, d)) if kind.reduce_kind == "sum" else size
            total += n
        elif isinstance(kind, (ir.Elementwise, ir.Transpose)):
            total += n
    return total


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), picks=strategies.lists(PICKS, max_size=5))
def test_runtime_is_compute_plus_the_lowered_collective_times(graph_seed, wide, picks):
    for state in walk_states(graph_seed, wide, picks):
        # uneven, slow links with a tiny latency: the transfer term then
        # sets the low bits of the sum, so any change in its float
        # operations shows
        links = {
            name: cm.AxisLink(1e9 / (1.7 + k), 3.1e-12 * (1.3 + k))
            for k, name in enumerate(state.mesh.axis_names)
        }
        for cse in (False, True):
            cfg = cm.default_config(state.mesh, cse_allgather=cse, links=links)
            comm = 0.0
            for c in cm.lower(state, cfg).collectives:
                comm += cm.collective_time(c, cfg, state.mesh)
            compute = local_flops(state) / cfg.flops_per_second
            assert cm.estimate(state, cfg).runtime_seconds == compute + comm


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), picks=strategies.lists(PICKS, max_size=5))
def test_a_missing_link_fails_only_where_its_axis_carries_a_collective(graph_seed, wide, picks):
    for state in walk_states(graph_seed, wide, picks):
        cfg = cm.default_config(state.mesh)
        full = cm.estimate(state, cfg)
        carried = {c.axis for c in cm.lower(state, cfg).collectives}
        for axis in state.mesh.axis_names:
            links = {name: link for name, link in cfg.links.items() if name != axis}
            partial_cfg = dataclasses.replace(cfg, links=links)
            if axis in carried:
                with pytest.raises(ConfigError, match=f"no link parameters for axis '{axis}'"):
                    cm.estimate(state, partial_cfg)
            else:
                assert cm.estimate(state, partial_cfg) == full


def test_compiled_tables_are_freed_with_their_graph():
    # closing fills the closure table, and pricing the memo, its intern table
    # and the analysis cache, on the root's tables; they must not hold the
    # graph or a state
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    graphs = [models.build_named_model("transformer") for _ in range(20)]
    for graph in graphs:
        root = engine.initial_state(graph, mesh)
        state = engine.apply_action(root, engine.legal_actions(root, None)[0])
        for cse in (False, True):
            for s in (root, state):
                cm.estimate(s, cm.default_config(mesh, cse_allgather=cse))
        assert root._comp.scans[0]
        assert [len(by_row) for by_row in root._comp.analyses.values()] == [2, 2]
        assert len(root._comp.closed) == len(root._comp.rows) == 2
    refs = [weakref.ref(graph) for graph in graphs]
    del graphs, graph, root, state, s
    gc.collect()
    assert all(ref() is None for ref in refs)
