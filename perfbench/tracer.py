"""In-memory span recorder that wraps the public functions of each socbec layer.

Spans are recorded from the benchmark's side of each layer boundary: the
wrappers replace module attributes (and the `Grid` transform methods) at the
sites where the runner and the solvers look them up, so nothing under `src/`
changes.  Each span holds (name, start, end, parent); the run id is the
invocation index stored next to the spans when they are written.  Counters
that the spans cannot carry (iterations, bytes, delivered results) are
recorded at the same boundaries.

Tracing assumes one thread, which holds for `threads=1` runner invocations.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

COMPLEX_BYTES = 16  # every transform works on complex128 fields

TRANSFORM_SPANS = ("grid.forward", "grid.inverse", "grid.deriv")
COUNTERS = ("grid.bytes_computed", "ground_state.solves",
            "ground_state.results", "ground_state.iters",
            "ground_state.wasted_iters", "ground_state.unconverged",
            "checkpoint.saves", "checkpoint.bytes_written")
MODEL_FUNCS = ("energy", "chemical_potential", "observables", "potential_field")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter(dict.fromkeys(COUNTERS, 0))
        # results of the flow solves started under each open multi_start
        self._start_groups: list[list] = []

    # ---- recording ------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Span around `fn`; `after(args, result)` runs outside the span."""
        name_id = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, out)
            return out

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span (for calls the benchmark makes itself)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # ---- layer installation ----------------------------------------------

    def install(self):
        """Wrap the public functions of every layer at their lookup sites."""
        from socbec import com, dynamics, ground_state, runner
        from socbec.grid import Grid

        counts = self.counts

        def field_bytes(args, passes):
            counts["grid.bytes_computed"] += 2 * COMPLEX_BYTES * args[1].size * passes

        def per_axis(args, out):
            field_bytes(args, args[0].dim)

        for meth in ("forward", "inverse"):
            setattr(Grid, meth, self.wrap(f"grid.{meth}", getattr(Grid, meth),
                                          per_axis))
        # a derivative is one transform pass there and one back
        Grid.deriv = self.wrap("grid.deriv", Grid.deriv,
                               lambda args, out: field_bytes(args, 2))
        # forward + inverse inside: recorded as those two transform calls
        Grid.laplacian = self.wrap("grid.laplacian", Grid.laplacian)

        for mod in (ground_state, dynamics, com, runner):
            for func in MODEL_FUNCS:
                if hasattr(mod, func):
                    setattr(mod, func,
                            self.wrap(f"model.{func}", getattr(mod, func)))

        for mod, func in ((ground_state, "build_initial_state"),
                          (ground_state, "base_profile"),
                          (ground_state, "single_component"),
                          (runner, "gaussian_profile"),
                          (runner, "single_component")):
            setattr(mod, func, self.wrap("states.initial", getattr(mod, func)))

        def solved(args, res):
            counts["ground_state.solves"] += 1
            counts["ground_state.iters"] += res.iterations
            counts["ground_state.unconverged"] += not res.converged
            if self._start_groups:
                self._start_groups[-1].append(res)
            else:
                counts["ground_state.results"] += 1

        for func in ("gfdn_solve", "besp_solve"):
            setattr(ground_state, func, self.wrap(
                "ground_state.solve", getattr(ground_state, func), solved))

        inner_multi_start = ground_state.multi_start

        def multi_start(*args, **kwargs):
            self._start_groups.append([])
            try:
                best = inner_multi_start(*args, **kwargs)
            finally:
                group = self._start_groups.pop()
            counts["ground_state.results"] += 1
            counts["ground_state.wasted_iters"] += sum(
                r.iterations for r in group if r is not best)
            return best

        ground_state.multi_start = self.wrap("ground_state.multi_start",
                                             multi_start)
        for func in ("solve_ground_state", "limit_study"):
            setattr(runner, func, self.wrap(f"ground_state.{func}",
                                            getattr(runner, func)))

        runner.evolve = self.wrap("dynamics.evolve", runner.evolve)
        for func in ("tsfp_step", "box_step"):
            setattr(dynamics, func, self.wrap("dynamics.step",
                                              getattr(dynamics, func)))
        dynamics.build_mode_propagators = self.wrap(
            "dynamics.setup", dynamics.build_mode_propagators)

        runner.lda_ode_solve = self.wrap("com.lda_ode", runner.lda_ode_solve)

        def saved(args, out):
            counts["checkpoint.saves"] += 1
            counts["checkpoint.bytes_written"] += os.path.getsize(args[0])

        runner.save_checkpoint = self.wrap("checkpoint.save",
                                           runner.save_checkpoint, saved)

    # ---- results ------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path, run_id: int):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, run_id=run_id, names=np.array(self.names),
                            name=name, parent=parent, start=start, end=end)

    def layer_stats(self) -> dict:
        """Per-layer counts and times of this invocation (sums, not ratios)."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        ids = self._ids

        def mask(*span_names):
            m = np.zeros(len(dur), dtype=bool)
            for s in span_names:
                if s in ids:
                    m |= name == ids[s]
            return m

        def prefix(layer):
            return mask(*[s for s in self.names if s.startswith(layer + ".")])

        out = dict(self.counts)
        out["grid.transform_calls"] = int(mask(*TRANSFORM_SPANS).sum())
        out["grid.transform_s"] = float(self_time[prefix("grid")].sum())
        for func in MODEL_FUNCS:
            m = mask(f"model.{func}")
            out[f"model.{func}_calls"] = int(m.sum())
            out[f"model.{func}_s"] = float(self_time[m].sum())
        out["states.initial_s"] = float(self_time[mask("states.initial")].sum())
        out["ground_state.self_s"] = float(self_time[prefix("ground_state")].sum())
        out["ground_state.solve_wall_s"] = float(dur[mask("ground_state.solve")].sum())
        steps = mask("dynamics.step")
        out["dynamics.steps"] = int(steps.sum())
        out["dynamics.step_wall_s"] = float(dur[steps].sum())
        evolve_ids = np.flatnonzero(mask("dynamics.evolve"))
        records = mask("model.observables") & np.isin(parent, evolve_ids)
        out["dynamics.record_s"] = float(dur[records].sum())
        out["dynamics.setup_s"] = float(dur[mask("dynamics.setup")].sum())
        out["com.lda_ode_s"] = float(self_time[mask("com.lda_ode")].sum())
        out["checkpoint.save_s"] = float(self_time[mask("checkpoint.save")].sum())
        out["config.parse_s"] = float(self_time[mask("config.parse")].sum())
        out["runner.self_s"] = float(self_time[mask("runner.run")].sum())
        return out
