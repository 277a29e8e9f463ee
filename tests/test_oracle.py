"""Exhaustive enumeration used to cross-check the tree search."""

import pytest

from meshpart import costmodel as cm
from meshpart import engine, ir, oracle
from meshpart.errors import ConfigError, OracleSizeError

A2 = ir.Mesh((ir.MeshAxis("a", 2),))
AB = ir.Mesh((ir.MeshAxis("a", 2), ir.MeshAxis("b", 2)))


def single_group() -> ir.Graph:
    b = ir.GraphBuilder("one")
    b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
    b.output(b.elementwise("relu", "x"))
    return b.build()


def two_groups() -> ir.Graph:
    b = ir.GraphBuilder("two")
    b.arg("x", (8, 4), role=ir.Role.DATA, group="d")
    b.arg("y", (8, 4), role=ir.Role.DATA, group="e")
    b.output(b.elementwise("relu", "x"), b.elementwise("relu", "y"))
    return b.build()


def test_single_group_one_axis_has_three_states():
    table = oracle.enumerate_states(engine.initial_state(single_group(), A2))
    digests = [fp.digest for fp, _ in table]
    assert digests == ["()", "0.0:a", "0.1:a"]


def test_independent_groups_multiply_state_counts():
    table = oracle.enumerate_states(engine.initial_state(two_groups(), A2))
    assert len(table) == 9  # 3 placements per group, chosen independently


def test_enumeration_is_sorted_and_deduplicated():
    start = engine.initial_state(two_groups(), AB)
    table = oracle.enumerate_states(start)
    digests = [fp.digest for fp, _ in table]
    assert digests == sorted(digests)
    assert len(digests) == len(set(digests))
    assert "()" in digests


def test_costs_in_the_table_match_direct_estimates():
    start = engine.initial_state(single_group(), A2)
    cfg = cm.default_config(A2)
    table = dict(
        (fp.digest, est) for fp, est in oracle.enumerate_states(start, cost_cfg=cfg)
    )
    sharded = engine.apply_action(start, engine.Action(0, 0, "a"))
    assert table["0.0:a"] == cm.estimate(sharded, cfg)
    assert table["()"] == cm.estimate(start, cfg)


def test_axis_restriction_prunes_the_reachable_set():
    start = engine.initial_state(single_group(), AB)
    only_a = oracle.enumerate_states(start, axes=("a",))
    both = oracle.enumerate_states(start)
    assert len(only_a) == 3
    assert len(only_a) < len(both)
    assert all(
        "b" not in fp.digest for fp, _ in only_a
    )


def test_max_depth_limits_sequence_length():
    start = engine.initial_state(two_groups(), A2)
    shallow = oracle.enumerate_states(start, max_depth=1)
    assert len(shallow) == 5  # start plus four single-action states


def test_size_guard_rejects_large_problems():
    b = ir.GraphBuilder("big")
    for i in range(7):
        b.arg(f"x{i}", (8,), role=ir.Role.DATA, group=f"g{i}")
    b.output(b.elementwise("relu", "x0"))
    start = engine.initial_state(b.build(), A2)
    with pytest.raises(OracleSizeError):
        oracle.enumerate_states(start)

    wide = ir.Mesh(
        (ir.MeshAxis("a", 2), ir.MeshAxis("b", 2), ir.MeshAxis("c", 2))
    )
    start = engine.initial_state(single_group(), wide)
    with pytest.raises(OracleSizeError):
        oracle.enumerate_states(start)
    assert len(oracle.enumerate_states(start, axes=("a", "b"))) > 0


def test_exhaustive_best_breaks_ties_by_digest():
    start = engine.initial_state(single_group(), A2)
    fp, est = oracle.exhaustive_best(start, objective=cm.MEMORY)
    # both sharded placements peak at 128 bytes; the smaller digest wins
    assert fp.digest == "0.0:a"
    assert est.peak_memory_bytes == 128


def test_exhaustive_best_under_penalized_runtime():
    start = engine.initial_state(single_group(), A2)
    fp, est = oracle.exhaustive_best(start)
    assert fp.digest != "()"  # sharding halves compute at no collective cost
    baseline = cm.estimate(start, cm.default_config(A2))
    assert est.penalized_cost < baseline.penalized_cost


def test_sequence_counts_overcount_merged_states():
    start = engine.initial_state(single_group(), A2)
    assert oracle.count_action_sequences(start) == 2  # one axis: depth-2 unreachable
    start = engine.initial_state(single_group(), AB)
    assert oracle.count_action_sequences(start, max_depth=1) == 4
    # each of the 4 openings leaves 2 legal second moves on the other axis
    assert oracle.count_action_sequences(start, max_depth=2) == 12
    # while distinct states stay far fewer than ordered sequences
    assert len(oracle.enumerate_states(start)) < 13


@pytest.mark.parametrize("axes, message", [
    ((), "names no mesh axis"),
    (("a", "a"), "names an axis twice"),
    (("a", "c"), "unknown mesh axis 'c'"),
])
def test_walks_reject_empty_repeated_and_unknown_axes(axes, message):
    start = engine.initial_state(two_groups(), AB)
    with pytest.raises(ConfigError, match=message):
        oracle.enumerate_states(start, axes=axes)
    with pytest.raises(ConfigError, match=message):
        oracle.count_action_sequences(start, axes=axes, max_depth=2)
    with pytest.raises(ConfigError, match=message):
        oracle.exhaustive_best(start, axes=axes)


def test_walks_reject_a_negative_depth():
    # a negative depth would count sequences of every length, or walk nothing
    start = engine.initial_state(two_groups(), AB)
    with pytest.raises(ConfigError, match="max_depth must be at least 0, got -1"):
        oracle.enumerate_states(start, max_depth=-1)
    with pytest.raises(ConfigError, match="max_depth must be at least 0, got -1"):
        oracle.count_action_sequences(start, max_depth=-1)
    assert oracle.count_action_sequences(start, max_depth=0) == 0
    assert len(oracle.enumerate_states(start, max_depth=0)) == 1
