"""Seeded random tiny-graph generator shared by the property tests, and
one fixed tiny graph (`matmul_bias_graph`) shared by the unit tests.

Graphs stay inside the exhaustive enumerator's size guard (at most 4
argument groups, 1-2 mesh axes) and every dim size is a multiple of 4 so
axis sizes of 2 and 4 always divide.  Op operands are drawn only from
shape-compatible candidates, so every generated graph validates.
"""

from __future__ import annotations

import random

from meshpart import ir

DIM_SIZES = (4, 8, 16)
ROLES = (ir.Role.DATA, ir.Role.PARAMETER, ir.Role.OPTIMIZER_STATE)


def matmul_bias_graph() -> ir.Graph:
    """x @ w + c: three groups, each tied to the others through the ops."""
    b = ir.GraphBuilder("matmul_bias")
    b.arg("x", (8, 4), role=ir.Role.DATA, group="x")
    b.arg("w", (4, 8), role=ir.Role.PARAMETER, group="w")
    b.arg("c", (8, 8), role=ir.Role.PARAMETER, group="c")
    y = b.dot("x", "w", lhs_contract=(1,), rhs_contract=(0,))
    b.output(b.add(y, "c"))
    return b.build()


def random_mesh(rng: random.Random, max_axes: int = 2) -> ir.Mesh:
    n_axes = rng.randint(1, max_axes)
    names = ("ax0", "ax1")[:n_axes]
    return ir.Mesh(tuple(ir.MeshAxis(n, rng.choice((2, 2, 4))) for n in names))


def random_graph(rng: random.Random, max_groups: int = 4, max_ops: int = 8) -> ir.Graph:
    b = ir.GraphBuilder(f"rand{rng.randrange(1 << 16)}")
    values: list[str] = []
    for i in range(rng.randint(2, max_groups)):
        rank = rng.randint(1, 3)
        dims = tuple(rng.choice(DIM_SIZES) for _ in range(rank))
        values.append(
            b.arg(f"a{i}", dims, role=rng.choice(ROLES), group=f"g{i}")
        )

    consumed: set[str] = set()

    def shape(v: str) -> tuple[int, ...]:
        return b.type_of(v).dims

    def emit(result: str, *operands: str) -> None:
        consumed.update(operands)
        values.append(result)

    n_ops = rng.randint(3, max_ops)
    for _ in range(n_ops):
        kind = rng.choice(("ew1", "ew2", "dot", "reduce", "transpose", "dot",
                           "ew2", "reduce"))
        v = rng.choice(values)
        if kind == "ew2":
            mates = [u for u in values if shape(u) == shape(v)]
            u = rng.choice(mates)
            emit(b.elementwise(rng.choice(("add", "mul")), v, u), v, u)
        elif kind == "dot" and shape(v):
            # contract the last dim of v against a matching first dim,
            # keeping the result rank within [1, 3]
            mates = [
                u for u in values
                if shape(u) and shape(u)[0] == shape(v)[-1]
                and 1 <= len(shape(v)) + len(shape(u)) - 2 <= 3
            ]
            if not mates:
                emit(b.elementwise("relu", v), v)
                continue
            u = rng.choice(mates)
            emit(
                b.dot(v, u, lhs_contract=(len(shape(v)) - 1,), rhs_contract=(0,)),
                v, u,
            )
        elif kind == "reduce" and len(shape(v)) >= 2:
            dim = rng.randrange(len(shape(v)))
            emit(b.reduce(v, (dim,), kind=rng.choice(("sum", "sum", "max"))), v)
        elif kind == "transpose" and len(shape(v)) >= 2:
            perm = list(range(len(shape(v))))
            rng.shuffle(perm)
            emit(b.transpose(v, tuple(perm)), v)
        else:
            emit(b.elementwise(rng.choice(("relu", "softmax", "scale")), v), v)

    sinks = [v for v in values if v not in consumed]
    b.output(*(sinks or values[-1:]))
    return b.build()


def self_tied_graph(rng: random.Random) -> ir.Graph:
    """A graph whose closure ties dims of one value to each other.

    It holds a product of a value with itself, a contraction of a value's
    dim with the same dim (a self-tie that marks its result partial), an
    elementwise op on one value twice and sum reductions, with random sizes
    and roles.
    """
    b = ir.GraphBuilder(f"tied{rng.randrange(1 << 16)}")
    n = rng.choice(DIM_SIZES)
    x = b.arg("x", (n, n), role=rng.choice(ROLES), group="gx")
    y = b.arg("y", (rng.choice(DIM_SIZES), rng.choice(DIM_SIZES)), role=rng.choice(ROLES),
              group="gy")
    square = b.dot(x, x, lhs_contract=(1,), rhs_contract=(0,))
    gram = b.dot(y, y, lhs_contract=(0,), rhs_contract=(0,))
    double = b.elementwise("add", square, square)
    b.output(
        b.reduce(double, (rng.randrange(2),), kind="sum"),
        b.reduce(gram, (rng.randrange(2),), kind=rng.choice(("sum", "max"))),
    )
    return b.build()
