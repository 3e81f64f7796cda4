"""One socbec runner invocation in a fresh interpreter.

    python3 child.py MODE CONFIG OUT_DIR RESULT_JSON T_SPAWN RUN_ID

MODE is one of
    plain   untraced run; records set-up, run, ground-state and dynamics times
    traced  every layer wrapped by `tracer.Tracer`; adds per-layer stats and
            writes the spans next to RESULT_JSON
    setup   stops at the first solver call (set-up probe)

T_SPAWN is the parent's `time.monotonic()` just before this process was
started, so set-up time covers interpreter start-up and `import socbec`.
The runner's exit status is recorded in RESULT_JSON; this process exits 0
whenever it could write that file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


class SetupDone(BaseException):
    """Raised at the first solver call of a set-up probe."""


def main(argv) -> int:
    mode, config_path, out_dir, result_path, t_spawn, run_id = argv
    t_spawn = float(t_spawn)
    marks = {"setup_end": None, "gs_s": 0.0, "flow_iters": 0,
             "evolve_s": 0.0, "evolve_steps": 0}

    import socbec
    from socbec import config, ground_state, runner

    expected = Path(__file__).resolve().parent.parent / "src" / "socbec"
    if Path(socbec.__file__).resolve().parent != expected:
        raise SystemExit(f"socbec imported from {socbec.__file__}, "
                         f"not from {expected}")

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Light probes at the entry points; each fires a handful of times per run,
    # so the untraced figures carry no per-iteration cost.
    build = ground_state.build_initial_state

    def build_initial_state(*args, **kwargs):
        out = build(*args, **kwargs)
        if marks["setup_end"] is None:
            marks["setup_end"] = time.monotonic()
            if mode == "setup":
                raise SetupDone
        return out

    ground_state.build_initial_state = build_initial_state

    def timed(fn, seconds_key=None, count=None):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            if seconds_key is not None:
                marks[seconds_key] += time.perf_counter() - t0
            if count is not None:
                count(args, out)
            return out
        return call

    def flow_iters(args, res):
        marks["flow_iters"] += res.iterations

    def evolve_steps(args, series):
        options = args[2]
        marks["evolve_steps"] += int(round(series.times[-1] / options.tau))

    for name in ("solve_ground_state", "limit_study"):
        setattr(runner, name, timed(getattr(runner, name), "gs_s"))
    for name in ("gfdn_solve", "besp_solve"):
        setattr(ground_state, name,
                timed(getattr(ground_state, name), count=flow_iters))
    runner.evolve = timed(runner.evolve, "evolve_s", evolve_steps)

    result = {"mode": mode}
    if tracer is not None:
        cfg = tracer.span("config.parse", config.load_config, config_path)
    else:
        cfg = config.load_config(config_path)
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            rc = tracer.span("runner.run", runner.run, cfg, out_dir, threads=1)
        else:
            rc = runner.run(cfg, out_dir, threads=1)
    except SetupDone:
        rc = None
    run_s = time.perf_counter() - t0

    result["setup_s"] = marks["setup_end"] - t_spawn
    if mode != "setup":
        result.update(
            rc=rc, run_s=run_s, gs_s=marks["gs_s"],
            flow_iters=marks["flow_iters"], evolve_s=marks["evolve_s"],
            evolve_steps=marks["evolve_steps"],
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    if tracer is not None:
        result["layers"] = tracer.layer_stats()
        tracer.save(Path(result_path).with_suffix(".spans.npz"), int(run_id))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
