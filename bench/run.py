"""Benchmark of ``meshpart search``: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload staged --seed 0 --seconds 30 --trace 0

Each measured invocation is one ``meshpart search`` in a fresh,
single-threaded process (``child.py``), run one at a time, so every
invocation pays for the import, the graph compile and the cache fills as a
user does.  A run repeats the workload's invocation with the same seed until
``--seconds`` is used up and reports medians.  Every report passes the
correctness gate in ``check_report`` or the invocation counts as failed.

``--trace 0`` reports the end-to-end metrics; between searches it samples
set-up time with processes that stop on entering the search.  ``--trace 1``
alternates untraced and traced invocations and reports the per-layer
metrics from the traced ones, plus the tracing overhead.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; a table of the
metrics and a host-speed diagnostic go to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(0, SRC)  # the gate imports the meshpart under test, not an installed one

MESH = "batch=2,model=2"
MIN_UNTRACED = 2  # untraced invocations per run, whatever --seconds says
SETUP_PROBES = 3  # set-up-only processes before each untraced search
RUN_LIMIT_S = 150.0  # no new invocation past this, so a run ends within 180 s


@dataclasses.dataclass(frozen=True)
class Workload:
    model: str
    schedule: str
    seeds: int
    budget: int = 2000


# Why each workload: see README.md.
WORKLOADS = {
    "staged": Workload("transformer", "RT1_RT2_MEM1", 3),
    "unguided": Workload("transformer", "NONE", 1),
    "penalized": Workload("gns", "RT_MP_ALL", 5),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "traj_per_s": "traj/s",
    "peak_rss_mib": "MiB",
    "plan_cost_us": "sim_us",
    "plan_peak_kib": "KiB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "models.build_named_model.s": "s",
    "models.check_mesh_compatibility.s": "s",
    "engine.apply_action.calls": "count",
    "engine.apply_action.s": "s",
    "engine.apply_action.us_per_call": "us",
    "engine.apply_action.repeat_ratio": "ratio",
    "engine.state_cache.apply.calls": "count",
    "engine.state_cache.hit_ratio": "ratio",
    "engine.legal_actions.calls": "count",
    "engine.legal_actions.s": "s",
    "costmodel.estimate.calls": "count",
    "costmodel.estimate.s": "s",
    "costmodel.estimate.us_per_call": "us",
    "costmodel.estimate.repeat_ratio": "ratio",
    "costmodel.lower.s": "s",
    "mcts.run_search.calls": "count",
    "mcts.run_search.s": "s",
    "mcts.self_s": "s",
    "mcts.select_child.calls": "count",
    "mcts.select_child.s": "s",
    "mcts.distinct_states": "count",
    "controller.run_schedule.s": "s",
    "controller.self_s": "s",
    "cli.report_s": "s",
    "trace.overhead_ratio": "ratio",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cli_args(wl: Workload, seed: int) -> list[str]:
    return [
        "search", "--model", wl.model, "--mesh", MESH, "--schedule", wl.schedule,
        "--budget", str(wl.budget), "--seed", str(seed), "--seeds", str(wl.seeds),
    ]


def calibrate() -> float:
    """Seconds for a fixed stdlib loop: a host-speed diagnostic, not a metric."""
    t = now()
    h = 0
    for i in range(300_000):
        h = (h * 1_000_003 + i) & 0xFFFFFFFF
    sorted(str(i * h % 7919) for i in range(30_000))
    return now() - t


@dataclasses.dataclass
class Invocation:
    mode: str  # "plain", "traced" or "setup" (see child.py)
    exit_code: int | None  # None: killed at the time limit
    timings: dict | None
    report: str | None
    calibration_s: float
    problems: list[str] = dataclasses.field(default_factory=list)
    lower_s: float | None = None  # None: no complete report to measure


def invoke(wl: Workload, seed: int, mode: str, workdir: str, timeout: float) -> Invocation:
    """Run one ``meshpart search`` in a fresh process and collect its outputs."""
    calibration_s = calibrate()
    fd, report_path = tempfile.mkstemp(suffix=".json", dir=workdir)
    os.close(fd)
    timings_path = report_path[:-5] + ".timings"
    argv = cli_args(wl, seed) + ["--out", report_path]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = now()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, repr(spawn), mode, timings_path, SRC, *argv],
            env=env, stdout=sys.stderr, timeout=timeout,
        )
        exit_code = proc.returncode
    except subprocess.TimeoutExpired:
        exit_code = None
    timings = report = None
    if exit_code == 0:
        with open(timings_path, encoding="utf-8") as f:
            timings = json.load(f)
        if mode != "setup":
            with open(report_path, encoding="utf-8") as f:
                report = f.read()
    for path in (report_path, timings_path):
        if os.path.exists(path):
            os.remove(path)
    return Invocation(mode, exit_code, timings, report, calibration_s)


class Reference:
    """What the gate compares reports against, built once per run."""

    def __init__(self, wl: Workload, seed: int):
        from meshpart import cli, costmodel, models

        self.wl = wl
        self.seed = seed
        self.graph = models.build_named_model(wl.model)
        self.mesh = cli.parse_mesh_spec(MESH)
        self.cfg = costmodel.default_config(self.mesh)
        with open(EXPECTED, encoding="utf-8") as f:
            self.expected = json.load(f).get(" ".join(cli_args(wl, seed)))


def check_report(text: str, ref: Reference) -> tuple[list[str], float | None]:
    """Problems found in one report, and the seconds ``lower()`` took on it.

    The seconds are None when the report is too incomplete to check.
    """
    from meshpart import cli, costmodel, engine
    from meshpart.errors import MeshPartError

    wl = ref.wl
    try:
        report = json.loads(text)
        fingerprint = report["fingerprint"]
        est = report["estimate"]
        counts = est["collective_counts"]
        header = [report[k] for k in ("graph", "schedule", "total_budget", "seeds_run")]
        goals = report["goals"]
        state = engine.replay_plan(ref.graph, ref.mesh, cli.plan_from_obj(report))
    except (ValueError, KeyError, TypeError, MeshPartError) as e:
        return [f"incomplete report: {e!r}"], None
    problems = []
    want = [ref.graph.name, wl.schedule, wl.budget, list(range(ref.seed, ref.seed + wl.seeds))]
    if header != want or not goals:
        problems.append(f"report header {header} does not match the workload {want}")
    if state.fingerprint.digest != fingerprint:
        problems.append("replayed plan has another fingerprint than the report")
    mine = costmodel.estimate(state, ref.cfg)
    if (mine.runtime_seconds, mine.peak_memory_bytes, mine.penalized_cost, dict(mine.counts)) != (
        est["runtime_seconds"], est["peak_memory_bytes"], est["penalized_cost"], counts
    ):
        problems.append("re-estimating the replayed plan differs from the report")
    t = now()
    lowered = costmodel.lower(state, ref.cfg).collectives
    lower_s = now() - t
    lowered_counts = {k: 0 for k in costmodel.COLLECTIVE_KINDS}
    for c in lowered:
        lowered_counts[c.kind] += 1
    if lowered_counts != counts:
        problems.append(f"lower() counts {lowered_counts} differ from the report's {counts}")
    comm = sum(costmodel.collective_time(c, ref.cfg, ref.mesh) for c in lowered)
    if comm > est["runtime_seconds"]:
        problems.append(f"collective time {comm} exceeds the reported runtime")
    if ref.expected is not None:
        got = {"plan": report["plan"], "fingerprint": fingerprint, "estimate": est}
        if got != ref.expected:
            problems.append("plan, fingerprint or estimate differ from expected.json")
    return problems, lower_s


def gate(inv: Invocation, ref: Reference, first_report: str | None) -> None:
    if inv.exit_code != 0:
        inv.problems.append(f"exit code {inv.exit_code}")
        return
    if inv.mode == "setup":
        if not _runs_of(inv.timings["spans"], "controller.run_schedule"):
            inv.problems.append("set-up probe never reached the search")
        return
    inv.problems, inv.lower_s = check_report(inv.report, ref)
    if first_report is not None and inv.report != first_report:
        inv.problems.append("report bytes differ from the first report of this run")


def _runs_of(spans: list, name: str) -> list:
    return [s for s in spans if s[0] == name]


def setup_s(inv: Invocation) -> float:
    """Process start to the first entry into ``controller.run_schedule``."""
    return _runs_of(inv.timings["spans"], "controller.run_schedule")[0][1] - inv.timings["spawn"]


def end_to_end(inv: Invocation) -> dict[str, float]:
    t = inv.timings
    schedules = _runs_of(t["spans"], "controller.run_schedule")
    est = json.loads(inv.report)["estimate"]
    return {
        "wall_s": t["main_end"] - t["spawn"],
        "setup_s": setup_s(inv),
        "traj_per_s": t["counters"]["trajectories"] / sum(e - s for _, s, e, _ in schedules),
        "peak_rss_mib": t["maxrss_kib"] / 1024.0,
        "plan_cost_us": est["penalized_cost"] * 1e6,
        "plan_peak_kib": est["peak_memory_bytes"] / 1024.0,
    }


def per_layer(inv: Invocation) -> dict[str, float]:
    """Layer metrics of one traced invocation, self times derived from spans."""
    t = inv.timings
    spans = t["spans"]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    child = [0.0] * len(spans)  # time covered by direct child spans
    child_layers = [0.0] * len(spans)  # the same, engine and costmodel children only
    cached_closures = 0
    for name, s, e, parent in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (e - s)
        if parent >= 0:
            child[parent] += e - s
            if name.startswith(("engine.", "costmodel.")):
                child_layers[parent] += e - s
            if name == "engine.apply_action" and spans[parent][0] == "engine.state_cache.apply":
                cached_closures += 1

    def self_time(name, covered):
        return sum(e - s - covered[i] for i, (n, s, e, _) in enumerate(spans) if n == name)

    def ratio(a, b):
        return a / b if b else 0.0

    c = t["counters"]
    out = {"setup.import_s": t["imported"] - t["spawn"]}
    for name in ("models.build_named_model", "models.check_mesh_compatibility",
                 "engine.apply_action", "engine.legal_actions", "costmodel.estimate",
                 "mcts.run_search", "mcts.select_child", "controller.run_schedule"):
        out[name + ".s"] = total.get(name, 0.0)
        out[name + ".calls"] = calls.get(name, 0)
    for name in ("engine.apply_action", "costmodel.estimate"):
        out[name + ".us_per_call"] = 1e6 * ratio(out[name + ".s"], out[name + ".calls"])
    out["engine.apply_action.repeat_ratio"] = ratio(
        c["apply_action_repeats"], out["engine.apply_action.calls"])
    out["costmodel.estimate.repeat_ratio"] = ratio(
        c["estimate_repeats"], out["costmodel.estimate.calls"])
    out["engine.state_cache.apply.calls"] = calls.get("engine.state_cache.apply", 0)
    out["engine.state_cache.hit_ratio"] = 1.0 - ratio(
        cached_closures, out["engine.state_cache.apply.calls"])
    out["costmodel.lower.s"] = inv.lower_s
    out["mcts.self_s"] = self_time("mcts.run_search", child_layers)
    out["mcts.distinct_states"] = c["distinct_states"]
    out["controller.self_s"] = self_time("controller.run_schedule", child)
    last_schedule_end = max(e for _, _, e, _ in _runs_of(spans, "controller.run_schedule"))
    out["cli.report_s"] = t["main_end"] - last_schedule_end
    return {k: out[k] for k in PER_LAYER if k in out}


def _median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(name: str, wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run: repeated invocations, gated, summarized as medians."""
    compileall.compile_dir(os.path.join(SRC, "meshpart"), quiet=1)
    ref = Reference(wl, seed)
    os.makedirs(WORK, exist_ok=True)
    invs: list[Invocation] = []
    start = now()
    rounds = 0
    first_report = None
    modes = ("plain", "traced") if traced else ("setup",) * SETUP_PROBES + ("plain",)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=WORK) as workdir:
        while True:
            for mode in modes:
                timeout = max(1.0, 170.0 - (now() - start))
                inv = invoke(wl, seed, mode, workdir, timeout)
                gate(inv, ref, first_report)
                if first_report is None and inv.report is not None:
                    first_report = inv.report
                invs.append(inv)
                wall = inv.timings and inv.timings["main_end"] - inv.timings["spawn"]
                print(f"invocation {len(invs) - 1} {mode} exit={inv.exit_code} "
                      f"wall_s={wall} host_calibration_s={inv.calibration_s:.4f}",
                      file=sys.stderr)
            rounds += 1
            elapsed = now() - start
            next_end = elapsed * (rounds + 1) / rounds
            if next_end > RUN_LIMIT_S or (next_end > seconds and (traced or rounds >= MIN_UNTRACED)):
                break
    failed = sum(1 for inv in invs if inv.problems)
    for i, inv in enumerate(invs):
        for p in inv.problems:
            print(f"invocation {i} failed: {p}", file=sys.stderr)
    ok = [inv for inv in invs
          if inv.exit_code == 0 and (inv.mode == "setup" or inv.lower_s is not None)]
    plain = [end_to_end(inv) for inv in ok if inv.mode == "plain"]
    if not plain:
        raise RuntimeError("no invocation produced a report")
    if traced:
        layered = [per_layer(inv) for inv in ok if inv.mode == "traced"]
        if not layered:
            raise RuntimeError("no traced invocation produced a report")
        values = _median_of(layered)
        traced_tps = statistics.median(
            end_to_end(inv)["traj_per_s"] for inv in ok if inv.mode == "traced")
        values["trace.overhead_ratio"] = traced_tps / _median_of(plain)["traj_per_s"]
        units = PER_LAYER
    else:
        values = _median_of(plain)
        values["setup_s"] = statistics.median(setup_s(inv) for inv in ok)
        units = END_TO_END
    calib = [inv.calibration_s for inv in invs]
    print(f"diagnostic host_calibration_s median {statistics.median(calib):.4f} "
          f"min {min(calib):.4f} max {max(calib):.4f} over {len(calib)}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "meshpart", "cli.py")):
        print(f"error: no meshpart sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for k, m in result["metrics"].items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
