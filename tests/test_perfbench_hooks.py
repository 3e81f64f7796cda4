"""The module attributes that the benchmark harness patches exist and are
looked up at call time.

`perfbench/tracer.py` and `perfbench/child.py` wrap public functions of
`runner`, `ground_state`, `dynamics` and `Grid` by name.  A refactor that
drops or renames one, or binds it where the wrapper cannot reach it, leaves
the rest of the suite green while the traced benchmark breaks or reads 0.
This runs one traced benchmark invocation of a small com_compare config on
a Fourier grid, one of a small box ground state on a sine grid, and one of
an `init = auto` ground state whose second start merges into the first.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

COM_CONFIG = """
[run]
mode = com_compare
[grid]
x = -8, 8, 32, fourier
[params]
omega = 20
k0 = 1
beta11 = 10
beta12 = 10
beta22 = 10
[gfdn]
init = gaussian_pair
[evolve]
tau = 1e-3
t_end = 0.02
record_every = 10
[initial]
kind = shifted_ground_state
offset = 0.5
"""

BOX_CONFIG = """
[run]
mode = ground_state
[grid]
x = -1, 1, 32, sine
[params]
omega = 5
k0 = 1
beta11 = 10
beta12 = 9
beta22 = 9
potential = box
"""

# default_starts runs the pair start, then the opposite start, which merges
# into the pair start's state before reaching its own tolerance
AUTO_CONFIG = """
[run]
mode = ground_state
[grid]
x = -16, 16, 128, fourier
[params]
k0 = 0.05
omega = -2
beta11 = 1
beta12 = 0.5
beta22 = 1
[gfdn]
init = auto
"""

# config, evolve steps, flow solves, checkpoints written, fewest observables
# calls, layers that must read > 0
CASES = {
    "com_fourier_1d": (COM_CONFIG, 20, 1, 1, 3,
                       ("states.initial_s", "dynamics.setup_s",
                        "dynamics.record_s", "com.lda_ode_s",
                        "config.parse_s")),
    "box_sine_1d": (BOX_CONFIG, 0, 2, 2, 1,
                    ("states.initial_s", "config.parse_s")),
}


def traced_child(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "traced",
            str(cfg), str(tmp_path / "out"), str(result),
            repr(time.monotonic()), "0"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    # an AttributeError here names the hook that is gone
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


@pytest.mark.parametrize("case", CASES)
def test_traced_benchmark_invocation_reaches_every_hook(tmp_path, case):
    text, steps, solves, saves, records, timed_layers = CASES[case]
    data = traced_child(tmp_path, text)
    assert data["rc"] == 0
    # child.py's own probes: solver, flow-iteration and evolve counters
    assert data["gs_s"] > 0 and data["flow_iters"] > 0
    assert data["evolve_steps"] == steps
    # tracer.py's spans: every layer of this run was seen through its hook
    layers = data["layers"]
    assert layers["ground_state.results"] == 1
    assert layers["ground_state.solves"] == solves
    assert layers["ground_state.iters"] == data["flow_iters"]
    for key in timed_layers:
        assert layers[key] > 0, key
    assert layers["checkpoint.saves"] == saves
    assert layers["model.observables_calls"] >= records
    # every flow iteration is one forward and one inverse transform, and
    # the solvers reach them through `Grid.forward`/`inverse`
    assert layers["grid.transform_calls"] >= 2 * layers["ground_state.iters"]
    assert layers["grid.bytes_computed"] > 0


def test_traced_child_counts_the_iterations_of_merged_starts(tmp_path,
                                                             monkeypatch):
    from socbec import ground_state
    from socbec.config import parse_config

    solved = []

    def counting(*args, _solve=ground_state.gfdn_solve, **kwargs):
        res = _solve(*args, **kwargs)
        solved.append(res)
        return res

    monkeypatch.setattr(ground_state, "gfdn_solve", counting)
    cfg = parse_config(AUTO_CONFIG)
    ground_state.solve_ground_state(cfg.params, cfg.grid, cfg.gfdn)
    pair, opposite = solved
    assert pair.converged and not opposite.converged
    assert "merged into start 0" in opposite.warnings

    data = traced_child(tmp_path, AUTO_CONFIG)
    assert data["rc"] == 0
    iterations = sum(r.iterations for r in solved)
    assert data["flow_iters"] == iterations
    assert data["layers"]["ground_state.iters"] == iterations
