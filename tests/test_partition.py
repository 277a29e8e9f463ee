"""Sharding propagation, action legality, fingerprints, and state identity."""

import dataclasses
import gc
import random
import sys
import weakref

import pytest
from hypothesis import assume, given, settings, strategies

from meshpart import costmodel as cm, engine, ir, models
from meshpart.errors import ConfigError, IllegalActionError, PlanReplayError
from _random_graphs import random_graph, random_mesh, self_tied_graph

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

    # No legal action set seeds this conflict: either action closes its axis
    # onto the other argument, whose dim0 cannot also take the second axis.
    # So seed the masks directly.
    comp, mt = engine._compile(build(g)), engine._tables(mesh)
    p, q, v0 = (comp.offsets[comp.index[vid]] for vid in ("p", "q", "v0"))
    fm = [0] * comp.total_dims
    fm[p] = mt.bit_of["b"]
    fm[q] = mt.bit_of["a"]
    partials = [0] * comp.nvals
    engine._close(comp, mt, fm, partials)
    # dim0 (size 4) cannot hold both a size-2 and a size-4 axis: the tie
    # of p, first in instance order, wins, and each seed stays put
    assert (fm[p], fm[q], fm[v0]) == (mt.bit_of["b"], mt.bit_of["a"], mt.bit_of["b"])
    assert partials == [0] * comp.nvals


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
    assert all(s.is_replicated() for s in start.shardings.values())


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


def reference_close(comp, mt, fm: list[int], partials: list[int]) -> list[int]:
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
    prod = mt.prod
    changed = True
    while changed:
        changed = False
        for partial, i, pi, size_i, j, pj, size_j, res in comp.instances:
            for src, dst, v, size in ((pi, pj, j, size_j), (pj, pi, i, size_i)):
                for k in range(mt.nbits):
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
    comp, mt = state._comp, state._mt
    fm = [0] * comp.total_dims
    partials = [0] * comp.nvals
    for a in state.applied:
        for m in comp.group_members[a.group]:
            fm[comp.offsets[m] + a.dim] |= mt.bit_of[a.axis]
    used = reference_close(comp, mt, fm, partials)
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


def outcome(apply, state: engine.ModuleState, action: engine.Action):
    """The state `apply` makes, or the message it raises."""
    try:
        return apply(state, action)
    except IllegalActionError as e:
        return str(e)


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, picks=strategies.lists(PICKS, min_size=1, max_size=5))
def test_the_state_cache_admits_exactly_the_actions_apply_action_does(graph_seed, picks):
    rng = random.Random(graph_seed)
    graph = random_graph(rng)
    mesh = random_mesh(rng)
    cache = engine.StateCache(graph, mesh)
    comp = cache.root._comp
    # every group and one unknown, every dim and one past the widest rank,
    # every axis and one unknown
    gids = [gid for gid, _ in comp.groups] + [len(comp.groups)]
    dims = range(max(comp.group_rank.values()) + 1)
    axes = mesh.axis_names + ("zz",)
    # one cache across the walk: every child of every state on it is
    # stored, so later states meet action sets the cache already holds
    state = cache.root
    seq = []
    for pick in [*picks, None]:
        accepted = set()
        for gid in gids:
            for dim in dims:
                for axis in axes:
                    action = engine.Action(gid, dim, axis)
                    got = outcome(cache.apply, state, action)
                    want = outcome(engine.apply_action, state, action)
                    if isinstance(want, str):
                        assert got == want
                    else:
                        assert not isinstance(got, str), got
                        assert got._key == want._key
                        assert got._fm == want._fm
                        assert got._partials == want._partials
                        accepted.add(action)
        legal = engine.legal_actions(state, None)
        assert sorted(legal) == sorted(accepted)
        if pick is None or not legal:
            break
        seq.append(legal[pick % len(legal)])
        state = cache.apply(state, seq[-1])
    replayed = engine.replay_plan(graph, mesh, seq)
    assert replayed._fm == state._fm
    assert replayed._partials == state._partials
    assert replayed.fingerprint.digest == state.fingerprint.digest
    cfg = cm.default_config(mesh)
    assert cm.estimate(replayed, cfg) == cm.estimate(state, cfg)


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


# --- properties of the closure and lowering kernels ---------------------------


def walk_states(graph_seed: int, wide: bool, picks: list[int]):
    """The states of a random walk on a random graph, the start included."""
    rng = random.Random(graph_seed)
    graph = random_graph(rng)
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
        fm, partials = state._fm.tolist(), state._partials.tolist()
        engine._close(state._comp, state._mt, fm, partials)
        assert fm == state._fm.tolist()
        assert partials == state._partials.tolist()


@settings(max_examples=100, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), picks=strategies.lists(PICKS, max_size=5))
def test_estimates_agree_with_the_lowered_program(graph_seed, wide, picks):
    for state in walk_states(graph_seed, wide, picks):
        mesh = state.mesh
        resident = 0
        for arg in state.graph.args:
            if arg.role in (ir.Role.PARAMETER, ir.Role.OPTIMIZER_STATE):
                shards = 1
                for dim in state.sharding_of(arg.id).per_dim:
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


@settings(max_examples=150, deadline=None)
@given(graph_seed=SEEDS, wide=strategies.booleans(), tied=strategies.booleans(),
       mask_seed=SEEDS)
def test_the_closure_matches_the_plain_sweep(graph_seed, wide, tied, mask_seed):
    rng = random.Random(graph_seed)
    graph = self_tied_graph(rng) if tied else random_graph(rng)
    mesh = WIDE if wide else random_mesh(rng)
    comp, mt = engine._compile(graph), engine._tables(mesh)
    # arbitrary starting masks, so ties meet equal, disjoint and overlapping sides
    rng = random.Random(mask_seed)
    fm = [rng.randrange(1 << mt.nbits) if rng.random() < 0.3 else 0
          for _ in range(comp.total_dims)]
    partials = [rng.randrange(1 << mt.nbits) if rng.random() < 0.2 else 0
                for _ in range(comp.nvals)]
    ref_fm, ref_partials = fm[:], partials[:]
    ref_used = reference_close(comp, mt, ref_fm, ref_partials)
    assert engine._close(comp, mt, fm, partials) == ref_used
    assert fm == ref_fm
    assert partials == ref_partials


def local_flops(state: engine.ModuleState) -> int:
    """Per-device flops of the state's ops, counted from its public shardings."""
    mesh = state.mesh

    def shards(axes) -> int:
        n = 1
        for axis in axes:
            n *= mesh.axis_size(axis)
        return n

    def dim_axes(vid: str, d: int) -> tuple[str, ...]:
        return state.sharding_of(vid).per_dim[d].axes

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
    mesh = ir.Mesh((ir.MeshAxis("batch", 2), ir.MeshAxis("model", 2)))
    graphs = [models.build_named_model("transformer") for _ in range(20)]
    for graph in graphs:
        engine.initial_state(graph, mesh)
    held = len(engine._compiled_cache)
    assert held >= 20
    refs = [weakref.ref(graph) for graph in graphs]
    del graphs, graph
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(engine._compiled_cache) <= held - 20
