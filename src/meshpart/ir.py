"""Core IR: device meshes, tensor types, shardings, operations, and graphs.

A graph is a flat SSA sequence of operations over named values.  Module
arguments carry a role (parameter, optimizer state, or data) and belong to
exactly one equi-shard group; a partitioning action applied to a group
shards every member identically.  Shardings assign ordered mesh axes to
tensor dims and may mark pending cross-device reductions via partial axes.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import Iterable, Mapping, TypeAlias

from .errors import ConfigError, GraphValidationError, ShapeError


class Role(str, enum.Enum):
    """What a module argument holds between training steps."""

    PARAMETER = "Parameter"
    OPTIMIZER_STATE = "OptimizerState"
    DATA = "Data"


@dataclasses.dataclass(frozen=True)
class MeshAxis:
    """One named axis of the device mesh."""

    name: str
    size: int

    def __post_init__(self):
        # letters, digits and '_': fingerprints join axis names with '+' and
        # ';', reports quote them in CSV and traces write them in TSV
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise ShapeError(f"mesh axis name must be an identifier, got {self.name!r}")
        if type(self.size) is not int:  # bool is an int subclass
            raise ShapeError(f"mesh axis {self.name!r}: size must be an integer, got {self.size!r}")
        if self.size < 2:
            raise ShapeError(f"mesh axis {self.name!r} has size {self.size}; need >= 2")


MAX_MESH_AXES = 8  # a dim's axes are one mask byte of a state's row (`engine`)


@dataclasses.dataclass(frozen=True)
class Mesh:
    """A multi-dimensional device mesh with uniquely named axes: at least
    one, at most `MAX_MESH_AXES`."""

    axes: tuple[MeshAxis, ...]

    def __post_init__(self):
        if not self.axes:
            raise ShapeError("mesh has no axes")
        if len(self.axes) > MAX_MESH_AXES:
            raise ShapeError(
                f"mesh has {len(self.axes)} axes; at most {MAX_MESH_AXES} are supported"
            )
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate mesh axis names in {names}")

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    def axis_size(self, name: str) -> int:
        for a in self.axes:
            if a.name == name:
                return a.size
        raise ShapeError(f"unknown mesh axis {name!r}; mesh has {self.axis_names}")

    def has_axis(self, name: str) -> bool:
        return any(a.name == name for a in self.axes)


@dataclasses.dataclass(frozen=True)
class TensorType:
    """Dense tensor shape plus element width in bytes."""

    dims: tuple[int, ...]
    element_bytes: int = 4

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise ShapeError(f"tensor dims must be >= 1, got {self.dims}")
        if self.element_bytes < 1:
            raise ShapeError(f"element_bytes must be >= 1, got {self.element_bytes}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def byte_size(self) -> int:
        return math.prod(self.dims) * self.element_bytes


@dataclasses.dataclass(frozen=True)
class DimSharding:
    """Ordered mesh axes sharding one tensor dim; empty means replicated."""

    axes: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class Sharding:
    """Per-dim axis assignment plus partial-sum markers.

    partial_axes names mesh axes over which the value is a pending sum:
    each device holds a full-shaped addend and the true value is the sum
    across the axis.  A mesh axis may appear at most once across per_dim
    and partial_axes together.
    """

    per_dim: tuple[DimSharding, ...]
    partial_axes: frozenset[str] = frozenset()


def validate_sharding(ttype: TensorType, sharding: Sharding, mesh: Mesh) -> None:
    """Raise ShapeError unless the sharding is valid for the tensor on the mesh."""
    if len(sharding.per_dim) != ttype.rank:
        raise ShapeError(
            f"sharding covers {len(sharding.per_dim)} dims but tensor has rank {ttype.rank}"
        )
    seen: set[str] = set()
    for name in sharding.partial_axes:
        mesh.axis_size(name)
        seen.add(name)
    for d, dim_sharding in enumerate(sharding.per_dim):
        product = 1
        for name in dim_sharding.axes:
            if name in seen:
                raise ShapeError(f"mesh axis {name!r} used more than once in sharding")
            seen.add(name)
            product *= mesh.axis_size(name)
        if product and ttype.dims[d] % product != 0:
            raise ShapeError(
                f"dim {d} of size {ttype.dims[d]} not divisible by axes "
                f"{dim_sharding.axes} (product {product})"
            )


# --- Operation kinds ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DotGeneral:
    """Batched contraction.  Result dims: batch (lhs order), lhs free, rhs free."""

    lhs_batch: tuple[int, ...] = ()
    rhs_batch: tuple[int, ...] = ()
    lhs_contract: tuple[int, ...] = ()
    rhs_contract: tuple[int, ...] = ()


@dataclasses.dataclass(frozen=True)
class Elementwise:
    """Pointwise op over 1 or 2 same-shape operands; op_name is descriptive only."""

    op_name: str


@dataclasses.dataclass(frozen=True)
class Reduce:
    """Reduction over the listed dims, which are removed from the result."""

    reduce_kind: str  # "sum" | "max"
    dims: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class Transpose:
    permutation: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class Reshape:
    target_dims: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class Constant:
    """Materializes a literal; carries its own type and has no operands."""

    type: TensorType


OpKind: TypeAlias = DotGeneral | Elementwise | Reduce | Transpose | Reshape | Constant


@dataclasses.dataclass(frozen=True)
class Operation:
    id: str
    kind: OpKind
    operands: tuple[str, ...]
    result_type: TensorType


@dataclasses.dataclass(frozen=True)
class Argument:
    id: str
    type: TensorType
    role: Role


@dataclasses.dataclass(frozen=True)
class EquiShardGroup:
    """Arguments that must always receive identical shardings."""

    id: int
    members: tuple[str, ...]


@dataclasses.dataclass(frozen=True, eq=False)
class Graph:
    """An SSA tensor program: args, ops in definition order, named outputs.
    Valid by construction: building one runs `check_valid` on it."""

    name: str
    args: tuple[Argument, ...]
    ops: tuple[Operation, ...]
    outputs: tuple[str, ...]
    groups: tuple[EquiShardGroup, ...]

    def __post_init__(self):
        check_valid(self)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One structural problem found by validate_graph."""

    value_id: str | None
    message: str


# --- Shape inference ---------------------------------------------------------


def _dot_result_dims(
    kind: DotGeneral, lhs: TensorType, rhs: TensorType
) -> tuple[int, ...]:
    lb, rb = kind.lhs_batch, kind.rhs_batch
    lc, rc = kind.lhs_contract, kind.rhs_contract
    if len(lb) != len(rb):
        raise ShapeError(f"batch dim lists differ in length: {lb} vs {rb}")
    if len(lc) != len(rc):
        raise ShapeError(f"contracting dim lists differ in length: {lc} vs {rc}")
    for side, t, dims in (("lhs", lhs, lb + lc), ("rhs", rhs, rb + rc)):
        if len(set(dims)) != len(dims):
            raise ShapeError(f"{side} batch/contracting dims overlap: {dims}")
        for d in dims:
            if not 0 <= d < t.rank:
                raise ShapeError(f"{side} dim {d} out of range for rank {t.rank}")
    for k, (a, b) in enumerate(zip(lb, rb)):
        if lhs.dims[a] != rhs.dims[b]:
            raise ShapeError(
                f"batch pair {k}: lhs dim {a} ({lhs.dims[a]}) != rhs dim {b} ({rhs.dims[b]})"
            )
    for k, (a, b) in enumerate(zip(lc, rc)):
        if lhs.dims[a] != rhs.dims[b]:
            raise ShapeError(
                f"contracting pair {k}: lhs dim {a} ({lhs.dims[a]}) != "
                f"rhs dim {b} ({rhs.dims[b]})"
            )
    lhs_free, rhs_free = dot_free_dims(kind, lhs.rank, rhs.rank)
    dims = [lhs.dims[d] for d in lb]
    dims += [lhs.dims[d] for d in lhs_free]
    dims += [rhs.dims[d] for d in rhs_free]
    return tuple(dims)


def dot_free_dims(kind: DotGeneral, lhs_rank: int, rhs_rank: int):
    """(lhs_free, rhs_free) operand dims that pass through to the result."""
    lhs_free = [
        d
        for d in range(lhs_rank)
        if d not in kind.lhs_batch and d not in kind.lhs_contract
    ]
    rhs_free = [
        d
        for d in range(rhs_rank)
        if d not in kind.rhs_batch and d not in kind.rhs_contract
    ]
    return lhs_free, rhs_free


def infer_result_type(kind: OpKind, operand_types: list[TensorType]) -> TensorType:
    """Compute the result type of an op; raises ShapeError on inconsistency."""
    if isinstance(kind, Constant):
        if operand_types:
            raise ShapeError("Constant takes no operands")
        return kind.type
    if isinstance(kind, DotGeneral):
        if len(operand_types) != 2:
            raise ShapeError(f"DotGeneral takes 2 operands, got {len(operand_types)}")
        lhs, rhs = operand_types
        return TensorType(_dot_result_dims(kind, lhs, rhs), lhs.element_bytes)
    if isinstance(kind, Elementwise):
        if len(operand_types) not in (1, 2):
            raise ShapeError(
                f"Elementwise takes 1 or 2 operands, got {len(operand_types)}"
            )
        if len(operand_types) == 2 and operand_types[0].dims != operand_types[1].dims:
            raise ShapeError(
                f"elementwise operands differ in shape: "
                f"{operand_types[0].dims} vs {operand_types[1].dims}"
            )
        return operand_types[0]
    if not isinstance(kind, (Reduce, Transpose, Reshape)):
        raise ShapeError(f"unknown op kind {type(kind).__name__}")
    if len(operand_types) != 1:
        raise ShapeError(f"{type(kind).__name__} takes 1 operand, got {len(operand_types)}")
    (t,) = operand_types
    if isinstance(kind, Reduce):
        if kind.reduce_kind not in ("sum", "max"):
            raise ShapeError(f"unknown reduce kind {kind.reduce_kind!r}")
        if len(set(kind.dims)) != len(kind.dims):
            raise ShapeError(f"duplicate reduce dims {kind.dims}")
        for d in kind.dims:
            if not 0 <= d < t.rank:
                raise ShapeError(f"reduce dim {d} out of range for rank {t.rank}")
        dims = tuple(s for d, s in enumerate(t.dims) if d not in kind.dims)
        return TensorType(dims, t.element_bytes)
    if isinstance(kind, Transpose):
        if sorted(kind.permutation) != list(range(t.rank)):
            raise ShapeError(
                f"permutation {kind.permutation} is not a permutation of rank {t.rank}"
            )
        return TensorType(
            tuple(t.dims[p] for p in kind.permutation), t.element_bytes
        )
    if math.prod(kind.target_dims) != math.prod(t.dims):
        raise ShapeError(
            f"reshape changes element count: {t.dims} -> {kind.target_dims}"
        )
    return TensorType(kind.target_dims, t.element_bytes)


# --- Graph validation --------------------------------------------------------


def validate_graph(graph: Graph) -> list[Violation]:
    """Return all structural violations, in deterministic definition order."""
    violations: list[Violation] = []
    types: dict[str, TensorType] = {}
    for arg in graph.args:
        if arg.id in types:
            violations.append(Violation(arg.id, f"duplicate value id {arg.id!r}"))
        types[arg.id] = arg.type

    # Group bookkeeping: every arg in exactly one group, members share dims.
    arg_ids = {a.id for a in graph.args}
    grouped: dict[str, int] = {}
    seen_gids: set[int] = set()
    for group in graph.groups:
        if group.id in seen_gids:
            violations.append(Violation(None, f"duplicate group id {group.id}"))
        seen_gids.add(group.id)
        if not group.members:
            violations.append(Violation(None, f"group {group.id} has no members"))
        member_dims: set[tuple[int, ...]] = set()
        for member in group.members:
            if member not in arg_ids:
                violations.append(
                    Violation(member, f"group {group.id} member {member!r} is not an argument")
                )
                continue
            if member in grouped:
                violations.append(
                    Violation(
                        member,
                        f"argument {member!r} appears in groups {grouped[member]} and {group.id}",
                    )
                )
            grouped[member] = group.id
            member_dims.add(types[member].dims)
        if len(member_dims) > 1:
            violations.append(
                Violation(
                    None,
                    f"group {group.id} members have differing dims: {sorted(member_dims)}",
                )
            )
    for arg in graph.args:
        if arg.id not in grouped:
            violations.append(Violation(arg.id, f"argument {arg.id!r} is in no group"))

    for op in graph.ops:
        if op.id in types:
            violations.append(Violation(op.id, f"duplicate value id {op.id!r}"))
        operand_types = []
        missing = False
        for ref in op.operands:
            if ref not in types:
                violations.append(
                    Violation(op.id, f"operand {ref!r} of {op.id!r} is not defined earlier")
                )
                missing = True
            else:
                operand_types.append(types[ref])
        if not missing:
            try:
                inferred = infer_result_type(op.kind, operand_types)
                if inferred != op.result_type:
                    violations.append(
                        Violation(
                            op.id,
                            f"result type {op.result_type.dims} does not match "
                            f"inferred {inferred.dims}",
                        )
                    )
            except ShapeError as e:
                violations.append(Violation(op.id, str(e)))
        types[op.id] = op.result_type

    for out in graph.outputs:
        if out not in types:
            violations.append(Violation(out, f"output {out!r} is not defined"))
    return violations


def check_valid(graph: Graph) -> None:
    """Raise GraphValidationError if validate_graph reports anything."""
    violations = validate_graph(graph)
    if violations:
        lines = "; ".join(f"{v.value_id}: {v.message}" for v in violations[:5])
        raise GraphValidationError(
            f"graph {graph.name!r} has {len(violations)} violation(s): {lines}",
            violations,
        )


# --- Graph construction helper ----------------------------------------------


class GraphBuilder:
    """Incremental SSA graph builder with group labels and shape inference."""

    def __init__(self, name: str):
        self.name = name
        self._args: list[Argument] = []
        self._ops: list[Operation] = []
        self._outputs: list[str] = []
        self._types: dict[str, TensorType] = {}
        self._group_members: dict[str, list[str]] = {}
        self._counter = 0

    def arg(
        self,
        id: str,
        dims: Iterable[int],
        *,
        role: Role,
        group: str,
        element_bytes: int = 4,
    ) -> str:
        t = TensorType(tuple(dims), element_bytes)
        if id in self._types:
            raise ShapeError(f"duplicate value id {id!r}")
        self._args.append(Argument(id, t, role))
        self._types[id] = t
        self._group_members.setdefault(group, []).append(id)
        return id

    def _emit(self, kind: OpKind, operands: tuple[str, ...], name: str | None) -> str:
        for ref in operands:
            if ref not in self._types:
                raise ShapeError(f"operand {ref!r} is not defined")
        result = infer_result_type(kind, [self._types[r] for r in operands])
        if name is None:
            name = f"v{self._counter}"
            self._counter += 1
        if name in self._types:
            raise ShapeError(f"duplicate value id {name!r}")
        self._ops.append(Operation(name, kind, operands, result))
        self._types[name] = result
        return name

    def dot(
        self,
        lhs: str,
        rhs: str,
        *,
        lhs_contract: tuple[int, ...] = (),
        rhs_contract: tuple[int, ...] = (),
        lhs_batch: tuple[int, ...] = (),
        rhs_batch: tuple[int, ...] = (),
        name: str | None = None,
    ) -> str:
        kind = DotGeneral(lhs_batch, rhs_batch, lhs_contract, rhs_contract)
        return self._emit(kind, (lhs, rhs), name)

    def elementwise(self, op_name: str, *operands: str, name: str | None = None) -> str:
        return self._emit(Elementwise(op_name), tuple(operands), name)

    def add(self, a: str, b: str, name: str | None = None) -> str:
        return self.elementwise("add", a, b, name=name)

    def mul(self, a: str, b: str, name: str | None = None) -> str:
        return self.elementwise("mul", a, b, name=name)

    def reduce(
        self, operand: str, dims: tuple[int, ...], kind: str = "sum", name: str | None = None
    ) -> str:
        return self._emit(Reduce(kind, dims), (operand,), name)

    def transpose(self, operand: str, permutation: tuple[int, ...], name: str | None = None) -> str:
        return self._emit(Transpose(permutation), (operand,), name)

    def reshape(self, operand: str, target_dims: tuple[int, ...], name: str | None = None) -> str:
        return self._emit(Reshape(target_dims), (operand,), name)

    def constant(self, dims: Iterable[int], element_bytes: int = 4, name: str | None = None) -> str:
        t = TensorType(tuple(dims), element_bytes)
        return self._emit(Constant(t), (), name)

    def output(self, *ids: str) -> None:
        self._outputs.extend(ids)

    def type_of(self, id: str) -> TensorType:
        return self._types[id]

    def build(self) -> Graph:
        groups = tuple(
            EquiShardGroup(i, tuple(members))
            for i, members in enumerate(self._group_members.values())
        )
        return Graph(
            name=self.name,
            args=tuple(self._args),
            ops=tuple(self._ops),
            outputs=tuple(self._outputs),
            groups=groups,
        )


# --- JSON serialization ------------------------------------------------------

# The op-kind dataclasses are the schema: a kind is written under its class
# name, and each field under its own name, but for DotGeneral's dim lists.
# A Constant writes its type as `dims` and `element_bytes`.
_KINDS = {cls.__name__: cls for cls in (DotGeneral, Elementwise, Reduce, Transpose, Reshape)}
_DOT_KEYS = {
    "lhs_batch": "lhs_batch_dims", "rhs_batch": "rhs_batch_dims",
    "lhs_contract": "lhs_contracting_dims", "rhs_contract": "rhs_contracting_dims",
}


def _kind_to_json(kind: OpKind) -> dict:
    if isinstance(kind, Constant):
        t = kind.type
        return {"kind": "Constant", "dims": list(t.dims), "element_bytes": t.element_bytes}
    out: dict = {"kind": type(kind).__name__}
    for field in dataclasses.fields(kind):
        value = getattr(kind, field.name)
        out[_DOT_KEYS.get(field.name, field.name)] = (
            list(value) if isinstance(value, tuple) else value
        )
    return out


def _typed(value, kind: type, what: str):
    """A JSON integer or string as is; any other type (a bool too) is an error."""
    if type(value) is not kind:
        noun = "an integer" if kind is int else "a string"
        raise GraphValidationError(f"malformed graph JSON: {what} must be {noun}, got {value!r}")
    return value


def _ints(obj: Mapping, key: str, where: str) -> tuple[int, ...]:
    """obj[key] as a tuple of JSON integers."""
    items = obj[key]
    if not isinstance(items, (list, tuple)):
        raise GraphValidationError(
            f"malformed graph JSON: {where}{key!r} must be a list of integers, got {items!r}"
        )
    return tuple(_typed(x, int, f"{where}{key}[{i}]") for i, x in enumerate(items))


def reject_unknown_keys(
    obj: Mapping, known: tuple[str, ...], where: str, error: type[Exception]
) -> None:
    """Raise `error` naming every key of the JSON object `obj` not in `known`."""
    unknown = sorted(k for k in obj if k not in known)
    if unknown:
        raise error(f"{where} has unknown key(s) {unknown}; expected {list(known)}")


def _require_keys(obj: Mapping, keys: tuple[str, ...], where: str) -> None:
    """Raise GraphValidationError naming every key in `keys` that the JSON
    object `obj` lacks."""
    missing = [k for k in keys if k not in obj]
    if missing:
        raise GraphValidationError(f"malformed graph JSON: {where} has no key(s) {missing}")


def reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's (key, value) pairs as a dict; a key given twice is a
    ValueError (a `json.load` object_pairs_hook)."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice")
        obj[key] = value
    return obj


# the keys `graph_to_json` writes: at the top level, in a mesh axis and an
# argument (an op's come from its kind)
_GRAPH_KEYS = ("name", "mesh", "args", "ops", "outputs")
_MESH_AXIS_KEYS = ("name", "size")
_ARG_KEYS = ("id", "dims", "element_bytes", "role", "group")
_CONSTANT_KEYS = ("dims", "element_bytes")


def _kind_from_json(obj: Mapping, op: str) -> OpKind:
    """The kind of the op JSON object `obj`, which `op` names in errors.  The
    object holds exactly the keys that `_kind_to_json` writes for its kind,
    besides `id` and `operands`: no key is optional."""
    _require_keys(obj, ("kind",), op)
    name = obj["kind"]
    cls = _KINDS.get(name) if isinstance(name, str) else None
    if cls is None and name != "Constant":
        raise GraphValidationError(f"unknown op kind {name!r}")
    fields = dataclasses.fields(cls) if cls else ()
    keys = tuple(_DOT_KEYS.get(f.name, f.name) for f in fields) if cls else _CONSTANT_KEYS
    known = ("id", "kind", *keys, "operands")
    reject_unknown_keys(obj, known, f"malformed graph JSON: {op}", GraphValidationError)
    _require_keys(obj, known, op)
    where = f"{op}: "
    if cls is None:
        return Constant(TensorType(
            _ints(obj, "dims", where), _typed(obj["element_bytes"], int, f"{where}'element_bytes'")
        ))
    return cls(*(
        _ints(obj, key, where) if f.type == "tuple[int, ...]"
        else _typed(obj[key], str, f"{where}{key!r}")
        for f, key in zip(fields, keys)
    ))


def graph_to_json(graph: Graph, mesh: Mesh | None = None) -> dict:
    """Serialize a graph (and optionally its mesh) to the interchange schema."""
    arg_group = {}
    for group in graph.groups:
        for member in group.members:
            arg_group[member] = group.id
    out: dict = {"name": graph.name}
    if mesh is not None:
        out["mesh"] = [{"name": a.name, "size": a.size} for a in mesh.axes]
    out["args"] = [
        {
            "id": a.id,
            "dims": list(a.type.dims),
            "element_bytes": a.type.element_bytes,
            "role": a.role.value,
            "group": arg_group.get(a.id),
        }
        for a in graph.args
    ]
    out["ops"] = [
        {"id": op.id, **_kind_to_json(op.kind), "operands": list(op.operands)}
        for op in graph.ops
    ]
    out["outputs"] = list(graph.outputs)
    return out


def _entries(
    obj: Mapping, key: str, entry_type: type, noun: str, where: str = "",
    keys: tuple[str, ...] | None = None,
) -> list:
    """obj[key] as a list whose every entry has the given JSON type; with
    `keys`, an entry is an object with exactly those keys."""
    items = obj[key]
    if not isinstance(items, (list, tuple)):
        raise GraphValidationError(f"malformed graph JSON: {where}{key!r} must be a list")
    for i, item in enumerate(items):
        if not isinstance(item, entry_type):
            raise GraphValidationError(
                f"malformed graph JSON: {where}{key}[{i}] must be {noun}, got {item!r}"
            )
        if keys is not None:
            reject_unknown_keys(
                item, keys, f"malformed graph JSON: {where}{key}[{i}]", GraphValidationError
            )
            _require_keys(item, keys, f"{where}{key}[{i}]")
    return items


def graph_from_json(obj: Mapping) -> tuple[Graph, Mesh | None]:
    """Parse the interchange schema and infer op result types; the Graph and
    Mesh built from it check themselves.  Every object holds exactly the keys
    that `graph_to_json` writes for it (or for its op kind): none is optional
    but the top level's `mesh`.  `read_json_file` rejects a key given twice."""
    try:
        if not isinstance(obj, dict):
            raise GraphValidationError(f"graph JSON must be an object, got {type(obj).__name__}")
        reject_unknown_keys(obj, _GRAPH_KEYS, "malformed graph JSON: the top level",
                            GraphValidationError)
        _require_keys(obj, tuple(k for k in _GRAPH_KEYS if k != "mesh"), "the top level")
        name = _typed(obj["name"], str, "'name'")
        mesh = None
        if "mesh" in obj:
            mesh = Mesh(tuple(
                MeshAxis(a["name"], a["size"])
                for a in _entries(obj, "mesh", dict, "an object", keys=_MESH_AXIS_KEYS)
            ))
        args = []
        types: dict[str, TensorType] = {}
        group_members: dict[int, list[str]] = {}
        for i, a in enumerate(_entries(obj, "args", dict, "an object", keys=_ARG_KEYS)):
            arg_id = _typed(a["id"], str, f"args[{i}]: 'id'")
            where = f"arg {arg_id!r}: "
            t = TensorType(
                _ints(a, "dims", where), _typed(a["element_bytes"], int, f"{where}'element_bytes'")
            )
            args.append(Argument(arg_id, t, Role(a["role"])))
            types[arg_id] = t
            group_members.setdefault(_typed(a["group"], int, f"{where}'group'"), []).append(arg_id)
        ops = []
        for i, o in enumerate(_entries(obj, "ops", dict, "an object")):
            kind = _kind_from_json(o, f"op {o['id']!r}" if "id" in o else f"ops[{i}]")
            op_id = _typed(o["id"], str, f"ops[{i}]: 'id'")
            operands = tuple(_entries(o, "operands", str, "a value id", f"op {op_id!r}: "))
            missing = [r for r in operands if r not in types]
            if missing:
                raise GraphValidationError(
                    f"op {op_id!r} references undefined value(s) {missing}"
                )
            result = infer_result_type(kind, [types[r] for r in operands])
            ops.append(Operation(op_id, kind, operands, result))
            types[op_id] = result
        groups = tuple(
            EquiShardGroup(gid, tuple(members))
            for gid, members in sorted(group_members.items())
        )
        graph = Graph(
            name=name,
            args=tuple(args),
            ops=tuple(ops),
            outputs=tuple(_entries(obj, "outputs", str, "a value id")),
            groups=groups,
        )
    except (KeyError, TypeError, ValueError, ShapeError) as e:
        raise GraphValidationError(f"malformed graph JSON: {e}") from e
    return graph, mesh


def read_json_file(path: str, what: str, invalid: type[Exception] = ConfigError) -> object:
    """Parse a JSON file; `what` names it in errors.

    An unreadable file raises ConfigError, and text that is not JSON (or not
    UTF-8, or gives a key of one object twice) raises `invalid`.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, object_pairs_hook=reject_duplicate_keys)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path!r}: {e}") from e
    except ValueError as e:  # not JSON, not UTF-8, or a key given twice
        raise invalid(f"{what} {path!r} is not valid JSON: {e}") from e


def load_graph_file(path: str) -> tuple[Graph, Mesh | None]:
    return graph_from_json(read_json_file(path, "graph file", GraphValidationError))
