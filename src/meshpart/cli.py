"""Command-line front end: search for a plan, price a plan, or enumerate.

Subcommands
-----------
search      run a goal schedule and emit a JSON report with the plan
estimate    replay a plan file and print its cost estimate
oracle      exhaustively enumerate reachable states as CSV (tiny graphs)
dump-graph  emit a built-in model as interchange JSON

Exit codes: 0 success, 2 graph/plan validation failure, 3 configuration
error (bad flags, unreadable files, malformed schedules, size guards).
All randomness flows from ``--seed``; identical invocations produce
byte-identical reports (stable key order, no timestamps).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import controller, costmodel, engine, ir, models, oracle
from .errors import ConfigError, MeshPartError, ShapeError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems as ConfigError (exit 3)."""

    def error(self, message: str):
        raise ConfigError(message)


def _entries(text: str, flag: str) -> list[str]:
    """The stripped comma-separated entries of `text`, none when every
    entry is blank; an empty entry beside others is a ConfigError."""
    entries = [part.strip() for part in text.split(",")]
    if not any(entries):
        return []
    if not all(entries):
        raise ConfigError(f"empty entry in {flag} {text!r}")
    return entries


def parse_mesh_spec(text: str) -> ir.Mesh:
    """``name=size[,name=size...]`` -> Mesh; every mistake is a ConfigError."""
    axes = []
    for part in _entries(text, "--mesh"):
        name, sep, size = part.partition("=")
        if not sep or not name.strip():
            raise ConfigError(f"bad mesh spec {text!r}: axis {part!r} is not name=size")
        try:
            n = int(size)
        except ValueError:
            raise ConfigError(f"bad mesh spec {text!r}: {part!r} has no integer size") from None
        axes.append((name.strip(), n))
    try:
        return ir.Mesh(tuple(ir.MeshAxis(name, n) for name, n in axes))
    except ShapeError as e:
        raise ConfigError(f"bad mesh spec {text!r}: {e}") from e


def _load_model_cfg(text: str | None) -> dict:
    if not text:
        return {}
    try:
        obj = json.loads(text, object_pairs_hook=ir.reject_duplicate_keys)
    except ValueError as e:  # not JSON, or a key given twice
        raise ConfigError(f"--model-cfg is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError("--model-cfg must be a JSON object")
    return obj


def _load_graph_and_mesh(args) -> tuple[ir.Graph, ir.Mesh | None]:
    """The input graph and `--mesh`, else the graph file's mesh, else None."""
    if args.graph:
        if args.model:
            raise ConfigError("give either --graph or --model, not both")
        graph, mesh = ir.load_graph_file(args.graph)
    elif args.model:
        graph, mesh = models.build_named_model(args.model, _load_model_cfg(args.model_cfg)), None
    else:
        raise ConfigError("one of --graph or --model is required")
    if args.mesh is not None:  # an empty `--mesh ""` is a mistake, not an absent flag
        mesh = parse_mesh_spec(args.mesh)
    return graph, mesh


def _load_problem(args) -> tuple[ir.Graph, ir.Mesh, costmodel.CostModelConfig]:
    """The graph, mesh and cost config of a command that prices states; the
    mesh must be able to shard the graph."""
    graph, mesh = _load_graph_and_mesh(args)
    if mesh is None:
        raise ConfigError("no mesh: pass --mesh or embed one in the graph file")
    models.check_mesh_compatibility(graph, mesh)
    if args.cost_cfg:
        return graph, mesh, costmodel.load_config_file(args.cost_cfg, mesh)
    return graph, mesh, costmodel.default_config(mesh)


def _estimate_dict(est: costmodel.CostEstimate) -> dict:
    return {
        "runtime_seconds": est.runtime_seconds,
        "peak_memory_bytes": est.peak_memory_bytes,
        "penalized_cost": est.penalized_cost,
        "collective_counts": {k: est.counts[k] for k in sorted(est.counts)},
    }


def _plan_list(plan) -> list[dict]:
    return [{"group": a.group, "dim": a.dim, "axis": a.axis} for a in plan]


def plan_from_obj(obj) -> list[engine.Action]:
    """A plan is a list of {group,dim,axis}; a full search report also works."""
    if isinstance(obj, dict):
        obj = obj.get("plan")
    if not isinstance(obj, list):
        raise ConfigError("plan file must be a JSON list or a report with a 'plan'")
    actions = []
    for i, item in enumerate(obj):
        if not isinstance(item, dict):
            raise ConfigError(f"plan entry #{i} is malformed: it must be an object, got {item!r}")
        try:
            group, dim, axis = item["group"], item["dim"], item["axis"]
        except KeyError as e:
            raise ConfigError(f"plan entry #{i} is malformed: it has no key {e}") from e
        # bool is an int subclass, so true/false need the exact type test
        if type(group) is not int or type(dim) is not int or not isinstance(axis, str):
            raise ConfigError(
                f"plan entry #{i} is malformed: group and dim must be integers "
                f"and axis a string, got {item!r}"
            )
        actions.append(engine.Action(group, dim, axis))
    return actions


def _emit(text: str, out_path: str | None, mode: str = "w") -> None:
    if out_path:
        try:
            with open(out_path, mode, encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write {out_path!r}: {e}") from e
    else:
        sys.stdout.write(text)


def _dump_json(obj: dict, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n", out_path)


def cmd_search(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    graph, mesh, cost_cfg = _load_problem(args)
    schedule = controller.parse_schedule(args.schedule, mesh, args.budget)
    created = []  # the output paths that the check below makes
    try:
        for path in (args.trace, args.out):
            if path:
                # an unwritable path fails now, not after the search;
                # appending nothing keeps the bytes of a file that exists
                new = not os.path.lexists(path)
                _emit("", path, "a")
                if new:
                    created.append(path)
        if args.trace and args.out and os.path.samefile(args.trace, args.out):
            raise ConfigError(f"--trace and --out name one file {args.out!r}")
        return _search(args, graph, mesh, cost_cfg, schedule)
    except BaseException:
        # a failed search leaves no file that was not there before it
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _search(args, graph, mesh, cost_cfg, schedule) -> int:
    """Run `cmd_search` once its outputs are known to be writable."""
    start = engine.initial_state(graph, mesh)

    trace_rows: list[tuple] = []
    outcomes: list[tuple[int, controller.ScheduleOutcome]] = []
    for i in range(args.seeds):
        seed = args.seed + i
        tracer = None
        if args.trace:
            tracer = lambda t, d, fp, r, b, _s=seed: trace_rows.append(
                (_s, t, d, fp, r, b)
            )
        outcomes.append(
            (
                seed,
                controller.run_schedule(
                    start,
                    schedule,
                    cost_cfg=cost_cfg,
                    seed=seed,
                    rollover=args.rollover,
                    trace=tracer,
                ),
            )
        )
    # min-merge: keep the run with the lowest final penalized cost; ties
    # resolve to the lowest seed, so the result is order-independent
    best_seed, best = min(
        outcomes, key=lambda pair: (pair[1].final_cost.penalized_cost, pair[0])
    )

    if args.trace:
        lines = ["seed\ttrajectory\tdepth\tfingerprint\treward\tbest_metric"]
        for s, t, d, fp, r, b in trace_rows:
            lines.append(f"{s}\t{t}\t{d}\t{fp}\t{r!r}\t{b!r}")
        _emit("\n".join(lines) + "\n", args.trace)

    report = {
        "graph": graph.name,
        "mesh": [{"name": a.name, "size": a.size} for a in mesh.axes],
        "schedule": schedule.name,
        "total_budget": schedule.total_budget,
        "seed": best_seed,
        "seeds_run": [s for s, _ in outcomes],
        "rollover": bool(args.rollover),
        "goals": [
            {
                "axis": g.goal.axis,
                "objective": g.goal.objective,
                "budget": g.budget,
                "trajectories_used": g.result.trajectories_used,
                "trajectories_to_best": g.result.trajectories_to_best,
                "distinct_states_visited": g.result.distinct_states_visited,
                "committed": g.committed,
            }
            for g in best.goal_outcomes
        ],
        "plan": _plan_list(best.plan),
        "fingerprint": best.final_state.fingerprint.digest,
        "estimate": _estimate_dict(best.final_cost),
    }
    _dump_json(report, args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    graph, mesh, cost_cfg = _load_problem(args)
    actions = plan_from_obj(ir.read_json_file(args.plan, "plan file"))
    state = engine.replay_plan(graph, mesh, actions)
    est = costmodel.estimate(state, cost_cfg)
    report = {
        "graph": graph.name,
        "mesh": [{"name": a.name, "size": a.size} for a in mesh.axes],
        "plan": _plan_list(actions),
        "fingerprint": state.fingerprint.digest,
        "estimate": _estimate_dict(est),
    }
    _dump_json(report, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    graph, mesh, cost_cfg = _load_problem(args)
    axes = None if args.axes is None else tuple(_entries(args.axes, "--axes"))
    start = engine.initial_state(graph, mesh)
    table = oracle.enumerate_states(start, axes, args.max_depth, cost_cfg)
    lines = [
        "fingerprint,runtime_seconds,peak_memory_bytes,penalized_cost,"
        "allgather,allreduce,reducescatter"
    ]
    for fp, est in table:
        lines.append(
            f'"{fp.digest}",{est.runtime_seconds!r},{est.peak_memory_bytes!r},'
            f"{est.penalized_cost!r},{est.counts[costmodel.ALL_GATHER]},"
            f"{est.counts[costmodel.ALL_REDUCE]},{est.counts[costmodel.REDUCE_SCATTER]}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_dump_graph(args) -> int:
    graph, mesh = _load_graph_and_mesh(args)
    _dump_json(ir.graph_to_json(graph, mesh), args.out)
    return EXIT_OK


def _add_input_flags(p: argparse.ArgumentParser, prices: bool) -> None:
    p.add_argument("--graph", help="graph interchange JSON file")
    p.add_argument("--model", help="built-in model name (transformer|gns|unet)")
    p.add_argument("--model-cfg", help="JSON object of model config overrides")
    p.add_argument("--mesh", help="mesh spec name=size[,name=size...]")
    if prices:
        p.add_argument("--cost-cfg", help="cost model config JSON file")
    p.add_argument("--out", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="meshpart", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("search", help="run a goal schedule, emit plan + report")
    _add_input_flags(p, prices=True)
    p.add_argument("--schedule", default="RT_MEM_ALL",
                   help="built-in name or axis:objective[:budget],... spec")
    p.add_argument("--budget", type=int, default=1000, help="total trajectory budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1,
                   help="run N schedule instances (seed, seed+1, ...) and keep the best")
    p.add_argument("--rollover", action="store_true",
                   help="carry unused post-best trajectories into later goals")
    p.add_argument("--trace", help="write a tab-separated trajectory log here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("estimate", help="replay a plan file and print its cost")
    _add_input_flags(p, prices=True)
    p.add_argument("--plan", required=True,
                   help="JSON plan list, or a search report containing one")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", help="enumerate every reachable state as CSV")
    _add_input_flags(p, prices=True)
    p.add_argument("--axes", help="comma-separated subset of mesh axes")
    p.add_argument("--max-depth", type=int, default=None,
                   help="bound on action-sequence length (default: exhaust)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dump-graph", help="emit a model as interchange JSON")
    _add_input_flags(p, prices=False)
    p.set_defaults(func=cmd_dump_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MeshPartError as e:  # graph, plan and shape failures
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
