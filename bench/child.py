"""One ``meshpart search`` in a fresh process, timed for the benchmark.

Usage: python3 child.py SPAWN_T MODE TIMINGS_OUT SRC_DIR CLI_ARG...

SPAWN_T is the CLOCK_MONOTONIC reading the parent took just before it
started this process.  Every time written to TIMINGS_OUT is on that clock,
so the parent measures from process start, interpreter start-up and
``import meshpart`` included.

The process enters ``meshpart.cli.main`` with CLI_ARG.  Before that it
replaces public functions of the meshpart modules with wrappers that
record spans (name, start, end, parent span) in memory; the spans are
written out after ``main`` returns.  MODE is one of

* ``plain``: only ``controller.run_schedule`` is wrapped, which is what the
  end-to-end metrics need;
* ``traced``: every layer boundary below is wrapped;
* ``setup``: the process stops on entering ``controller.run_schedule``,
  so the parent can sample set-up time cheaply.
"""

import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    spawn_t = float(sys.argv[1])
    mode = sys.argv[2]
    timings_path = sys.argv[3]
    sys.path.insert(0, sys.argv[4])
    cli_argv = sys.argv[5:]

    from meshpart import cli, controller, costmodel, engine, mcts, models

    imported = now()

    import dataclasses
    import json
    import resource

    spans: list[list] = []  # [name, start, end, parent index, note]
    stack = [-1]

    def wrap(owner, attr, name, note=None):
        fn = getattr(owner, attr)

        def spanned(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)  # recursion: only the outermost call is a span
            rec = [name, now(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if note is not None:
                rec[4] = note(args, out)
            return out

        setattr(owner, attr, spanned)

    class SetupDone(Exception):
        pass

    if mode == "setup":
        def stop(*args, **kwargs):
            raise SetupDone

        controller.run_schedule = stop
    wrap(controller, "run_schedule", "controller.run_schedule",
         lambda a, out: sum(g.result.trajectories_used for g in out.goal_outcomes))
    if mode == "traced":
        wrap(models, "build_named_model", "models.build_named_model")
        wrap(models, "check_mesh_compatibility", "models.check_mesh_compatibility")
        wrap(mcts, "run_search", "mcts.run_search",
             lambda a, out: out.distinct_states_visited)
        wrap(mcts, "select_child", "mcts.select_child")
        wrap(engine, "legal_actions", "engine.legal_actions")
        wrap(engine.StateCache, "apply", "engine.state_cache.apply")
        wrap(engine, "apply_action", "engine.apply_action", lambda a, out: out.applied)
        wrap(costmodel, "estimate", "costmodel.estimate",
             lambda a, out: (a[0].fingerprint.digest, a[1]))

    try:
        rc = cli.main(cli_argv)
    except SetupDone:
        rc = 0
    main_end = now()
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def cfg_key(cfg):
        # the penalty is arithmetic on (runtime, peak), so a repeat is the
        # same state priced under a config equal up to the penalty slope
        return repr(dataclasses.replace(cfg, memory_penalty_slope=0.0))

    def repeats(name, key):
        seen, n = set(), 0
        for s in spans:
            if s[0] == name and s[4] is not None:
                k = key(s[4])
                n += k in seen
                seen.add(k)
        return n

    def total(name):
        return sum(s[4] or 0 for s in spans if s[0] == name)

    counters = {
        "trajectories": total("controller.run_schedule"),
        "distinct_states": total("mcts.run_search"),
        "apply_action_repeats": repeats("engine.apply_action", frozenset),
        "estimate_repeats": repeats("costmodel.estimate", lambda n: (n[0], cfg_key(n[1]))),
    }
    with open(timings_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "spawn": spawn_t,
                "imported": imported,
                "main_end": main_end,
                "maxrss_kib": maxrss_kib,
                "counters": counters,
                "spans": [s[:4] for s in spans],
            },
            f,
            separators=(",", ":"),
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
