"""socbec benchmark: end-to-end and per-layer cost of the runner workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation runs one generated config through the public
`socbec.config.load_config` -> `socbec.runner.run` path in a fresh
interpreter with `threads=1` (see child.py).  Invocations run one after
another (a closed loop with one client); one pass over a workload's configs
is a cycle.  Cycles repeat while the next one is expected to end within
`--seconds` (the second one within 1.25 x `--seconds`); at least one always
runs.  Every invocation's artifacts are checked against tolerance-based
gates, never byte equality.

With `--trace 0` the last stdout line carries the end-to-end metrics (medians
over cycles).  With `--trace 1` traced and untraced cycles alternate; the
line carries the per-layer metrics of the traced cycles and the tracing
overhead (traced minus untraced `run_s`).  README.md in this directory lists
the workloads, the metrics and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"
CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 3
COMPLEX_BYTES = 16


def _num(v: float) -> str:
    return repr(float(v))


def _axis(lo: float, hi: float, n: int, basis: str, shift: float) -> str:
    return f"{_num(lo + shift)}, {_num(hi + shift)}, {n}, {basis}"


# ---------------------------------------------------------------------------
# Workloads.  Seed 0 gives the reference inputs.  Other seeds pick among
# symmetry images of them, so every seed does the same work and keeps the
# seed-0 outcomes and reference values:
#   - the Raman sign flip omega -> -omega (with psi2 -> -psi2, which swaps the
#     pair and opposite starts; exact in floating point),
#   - box_gs: a y translation of the box by whole cells (nothing in the box
#     problem depends on y; bit-identical),
#   - com_2d: the y offset of the initial kick (the y centre of mass
#     separates from the x dynamics the gates check).

BOX_GS_CONFIG = """\
[run]
mode = ground_state

[grid]
x = {x}
y = {y}

[params]
k0 = {k0}
omega = {omega}
delta = 0.0
beta11 = 10.0
beta12 = 9.0
beta22 = 9.0
potential = box

[gfdn]
tau = 0.01
tol = 1e-7
max_iters = 12000
init = {init}
"""

COM_2D_CONFIG = """\
[run]
mode = com_compare

[grid]
x = {x}
y = {y}

[params]
k0 = 2.0
omega = {omega}
delta = 0.0
beta11 = 10.0
beta12 = 10.0
beta22 = 10.0
gamma_x = 2.0
gamma_y = 2.0

[gfdn]
tau = 0.01
tol = 1e-7
init = auto

[evolve]
tau = 1e-3
t_end = 10.0
record_every = 20

[initial]
kind = shifted_ground_state
offset = 2.0, {y_offset}

[lda]
tau = 1e-3
t_end = 20.0
"""

SWEEP_1D_CONFIG = """\
[run]
mode = limit_study

[grid]
x = {x}

[params]
omega = {omega}
beta11 = 1.0
beta12 = 0.5
beta22 = 1.0

[gfdn]
tau = 0.01
tol = 1e-7

[sweep]
kind = rate_small_k0
values = 0.0125, 0.025, 0.05, 0.1
"""

# seed-commit reference values (tolerance-gated, see the gate functions)
BOX_K0_10_ENERGY = 1.4286313646457716
BOX_K0_50_ITERATE_ENERGY = 4.5216641431320976  # unconverged at 12000 iters
SWEEP_1D_ENERGIES = (-0.35617378167840158, -0.35624489055359448,
                     -0.35652939663289951, -0.35766855207672044)


def _variant(seed: int):
    """(rng, Raman sign) for a seed; seed 0 is the reference orientation."""
    rng = random.Random(seed)
    return rng, 1.0 if seed == 0 or rng.random() < 0.5 else -1.0


def box_gs_cases(seed: int):
    rng, sign = _variant(seed)
    y_shift = 0 if seed == 0 else rng.randint(-8, 8) * (2.0 / 64)
    text = functools.partial(
        BOX_GS_CONFIG.format, x=_axis(-1.0, 1.0, 64, "sine", 0.0),
        y=_axis(-1.0, 1.0, 64, "sine", y_shift), omega=_num(50.0 * sign),
        init="gaussian_opposite" if sign > 0 else "gaussian_pair")
    return [("k0_10", text(k0=10), _gate_box_k0_10),
            ("k0_50", text(k0=50), _gate_box_k0_50)]


def com_2d_cases(seed: int):
    rng, sign = _variant(seed)
    y_offset = 2.0 if seed == 0 else rng.choice((-1, 1)) * rng.randint(6, 10) / 4
    axis = _axis(-8.0, 8.0, 64, "fourier", 0.0)
    text = COM_2D_CONFIG.format(x=axis, y=axis, omega=_num(50.0 * sign),
                                y_offset=_num(y_offset))
    return [("com", text, _gate_com_2d)]


def sweep_1d_cases(seed: int):
    _, sign = _variant(seed)
    text = SWEEP_1D_CONFIG.format(x=_axis(-16.0, 16.0, 128, "fourier", 0.0),
                                  omega=_num(-2.0 * sign))
    return [("rate_small_k0", text, _gate_sweep_1d)]


WORKLOADS = {
    "box_gs": box_gs_cases,
    "com_2d": com_2d_cases,
    "sweep_1d": sweep_1d_cases,
}


# ---------------------------------------------------------------------------
# Correctness gates: (ok, details).  `ok` says the outputs are what this
# commit's program must produce; an exit status of 2 still counts against
# success_frac (1 - fail_frac) even when its gate passes.

def _manifest(out: Path) -> dict:
    text = (out / "run_manifest.txt").read_text(encoding="utf-8")
    lines = text.splitlines()
    fields = {"status": next(ln.split()[1] for ln in lines
                             if ln.startswith("status "))}
    section = None
    for ln in lines:
        if ln.startswith("["):
            section = ln
        elif section == "[results]" and ln:
            key, _, value = ln.partition(" ")
            fields[key] = value
    return fields


def _csv(path: Path):
    rows = path.read_text(encoding="utf-8").splitlines()
    header = rows[0].split(",")
    return [dict(zip(header, r.split(","))) for r in rows[1:]]


def _gate_box_k0_10(rc: int, out: Path):
    m = _manifest(out)
    err = abs(float(m["energy"]) - BOX_K0_10_ENERGY)
    ok = rc == 0 and m["status"] == "ok" and err <= 1e-8
    return ok, {"energy": float(m["energy"]), "energy_err": err,
                "iterations": int(m["iterations"])}


def _gate_box_k0_50(rc: int, out: Path):
    # Known defect (2*k0 = 100 exceeds pi/h ~ 99 on the 64^2 box): the solve
    # runs to max_iters unconverged and the runner reports it with exit 2 and
    # a FAILED marker.  Either that report or a converged result near the
    # seed iterate passes; exit 2 still counts as a failed invocation.
    m = _manifest(out)
    energy = float(m["energy"])
    near = abs(energy - BOX_K0_50_ITERATE_ENERGY) <= 1e-3
    if rc == 0:
        ok = m["status"] == "ok" and near
    else:
        ok = (rc == 2 and m["status"] == "failed" and near
              and (out / "FAILED").exists()
              and int(m["iterations"]) == 12000)
    return ok, {"energy": energy, "iterations": int(m["iterations"]),
                "converged": rc == 0}


def _gate_com_2d(rc: int, out: Path):
    m = _manifest(out)
    mass = [float(r["N"]) for r in _csv(out / "observables.csv")]
    mass_drift = max(abs(v - mass[0]) for v in mass)
    lda_drift = float(m["lda_conserved_drift"])
    max_dev = float(m["max_dev_lda"])
    # 1e-12 per 1000 steps (criterion 4's budget) over the 10,000 TSFP steps;
    # round-off accumulates to 4.7e-12 at the seed commit
    ok = (rc == 0 and m["status"] == "ok" and mass_drift <= 1e-11
          and lda_drift <= 1e-8 and max_dev <= 0.15)
    return ok, {"mass_drift": mass_drift, "lda_conserved_drift": lda_drift,
                "max_dev_lda": max_dev}


def _gate_sweep_1d(rc: int, out: Path):
    m = _manifest(out)
    rows = _csv(out / "summary.csv")
    energies = [float(r["energy"]) for r in rows]
    converged = all(r["converged"] == "1" for r in rows)
    err = max(abs(a - b) for a, b in zip(energies, SWEEP_1D_ENERGIES))
    ok = (rc == 0 and m["status"] == "ok" and converged
          and len(energies) == len(SWEEP_1D_ENERGIES) and err <= 1e-8)
    # modulus-distance slope: 2.0 by design, reported and never gated
    return ok, {"energy_err": err, "converged": converged,
                "fit_slope": float(m["fit_slope"])}


# ---------------------------------------------------------------------------
# Invocations and cycles

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Bench:
    def __init__(self, workload: str, seed: int):
        self.cases = WORKLOADS[workload](seed)
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = _child_env()
        self.configs = []
        for name, text, _ in self.cases:
            path = self.dir / f"{name}.cfg"
            path.write_text(text, encoding="utf-8")
            self.configs.append(path)
        self.count = 0

    def invoke(self, mode: str, case: int) -> dict:
        """One child process; returns its result dict, gated unless a probe."""
        self.count += 1
        name = self.cases[case][0]
        out = self.dir / f"{name}.out"
        shutil.rmtree(out, ignore_errors=True)
        result_path = self.dir / f"{self.count:04d}_{name}_{mode}.json"
        argv = [sys.executable, str(BENCH / "child.py"), mode,
                str(self.configs[case]), str(out), str(result_path)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv + [repr(t_spawn), str(self.count)],
                                cwd=ROOT, env=self.env)
        try:
            status = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            status = None
        if status != 0 or not result_path.exists():
            return {"case": name, "crashed": True}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["case"] = name
        if mode != "setup":
            try:
                ok, details = self.cases[case][2](result["rc"], out)
            except (OSError, KeyError, ValueError, StopIteration) as exc:
                ok, details = False, {"gate_error": repr(exc)}
            result["gate_ok"] = ok
            result["details"] = details
        return result

    def cycle(self, mode: str) -> dict:
        t0 = time.monotonic()
        runs = [self.invoke(mode, i) for i in range(len(self.cases))]
        return {"mode": mode, "runs": runs, "wall_s": time.monotonic() - t0}


def _sum(runs, key):
    return sum(r[key] for r in runs)


def cycle_metrics(cycle) -> dict:
    runs = cycle["runs"]
    gs_s = _sum(runs, "gs_s")
    evolve_steps = _sum(runs, "evolve_steps")
    if evolve_steps:
        steps_per_s = evolve_steps / _sum(runs, "evolve_s")
    else:
        # no real-time dynamics: steps of the fictitious-time flow instead
        steps_per_s = _sum(runs, "flow_iters") / gs_s
    return {"run_s": _sum(runs, "run_s"), "gs_time_s": gs_s,
            "evolve_steps_per_s": steps_per_s}


def cycle_layers(cycle) -> dict:
    total: dict = {}
    for r in cycle["runs"]:
        for k, v in r["layers"].items():
            total[k] = total.get(k, 0) + v

    def ratio(a, b, scale=1.0):
        return total[a] / total[b] * scale if total[b] else 0.0

    total["grid.transform_us_per_call"] = ratio("grid.transform_s",
                                                "grid.transform_calls", 1e6)
    total["ground_state.useful_solve_ratio"] = ratio("ground_state.results",
                                                     "ground_state.solves")
    total["ground_state.iters_per_solve"] = ratio("ground_state.iters",
                                                  "ground_state.solves")
    total["ground_state.iter_us"] = ratio("ground_state.solve_wall_s",
                                          "ground_state.iters", 1e6)
    total["dynamics.step_us"] = ratio("dynamics.step_wall_s",
                                      "dynamics.steps", 1e6)
    return total


# ---------------------------------------------------------------------------
# Machine and working-set facts (printed, not part of the metrics line)

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def machine_facts(cases) -> list[str]:
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = _read(f"{base}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{base}/size")
    facts = [
        f"nproc {len(os.sched_getaffinity(0))}",
        f"cpu {model}",
        "caches " + " ".join(f"{k}={v}" for k, v in sorted(caches.items())),
        f"python {sys.version.split()[0]}",
        f"numpy {metadata.version('numpy')}",
        f"scipy {metadata.version('scipy')}",
    ]
    for name, text, _ in cases:
        size = 1
        for line in text.splitlines():
            if line[:4] in ("x = ", "y = ", "z = "):
                n, basis = line.split(",")[2:4]
                size *= int(n) - (basis.strip() == "sine")
        facts.append(f"field_bytes {name} {size * COMPLEX_BYTES} "
                     "(one complex128 component)")
    facts.append("out-of-cache sizes (256^2 and up) are not measured by this "
                 "benchmark")
    return facts


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "socbec" / "__init__.py").is_file():
        print(f"no socbec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    start = time.monotonic()
    bench = Bench(args.workload, args.seed)
    for line in machine_facts(bench.cases):
        print(line)

    # set-up probes: one warm-up (bytecode and file caches), then SETUP_PROBES
    bench.invoke("setup", 0)
    probes = [bench.invoke("setup", 0) for _ in range(SETUP_PROBES)]

    cycles = []
    while True:
        traced = args.trace == 1 and len(cycles) % 2 == 0
        cycles.append(bench.cycle("traced" if traced else "plain"))
        modes = {c["mode"] for c in cycles}
        if args.trace == 1 and len(modes) < 2:
            continue
        elapsed = time.monotonic() - start
        expected = statistics.median(c["wall_s"] for c in cycles)
        # a second cycle may stretch the run by a quarter, so that medians
        # rest on two cycles where that is affordable
        limit = args.seconds * (1.25 if len(cycles) < 2 else 1.0)
        if elapsed + expected > limit:
            break

    runs = [r for c in cycles for r in c["runs"]]
    crashed = [r for r in probes + runs if r.get("crashed")]
    attempted = len(runs)
    gate_failed = sum(1 for r in runs if not r.get("gate_ok"))
    succeeded = sum(1 for r in runs
                    if r.get("gate_ok") and r.get("rc") == 0)
    correct = not crashed and gate_failed == 0

    for r in runs:
        print(f"invocation {r['case']} {r.get('mode', '-')} "
              f"rc={r.get('rc')} gate_ok={r.get('gate_ok')} "
              f"{json.dumps(r.get('details', {}))}")
    print(f"fail_frac {(attempted - succeeded) / attempted} "
          f"({attempted - succeeded} of {attempted} invocations exited "
          "non-zero or failed a gate)")
    print(f"cycles {len(cycles)} elapsed_s {time.monotonic() - start}")

    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": max(gate_failed, 1), "metrics": {}}))
        return 1

    plain = [c for c in cycles if c["mode"] == "plain"]
    per_cycle = [cycle_metrics(c) for c in plain]

    def median_of(key):
        return statistics.median(m[key] for m in per_cycle)

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(
                r["setup_s"] for r in probes + runs),
            "run_s": median_of("run_s"),
            "gs_time_s": median_of("gs_time_s"),
            "evolve_steps_per_s": median_of("evolve_steps_per_s"),
            "success_frac": succeeded / attempted,
            "peak_rss_mb": max(r["maxrss_kb"] for r in runs) / 1024.0,
        }
        declared = spec["end_to_end"]
    else:
        traced_cycles = [c for c in cycles if c["mode"] == "traced"]
        layers = [cycle_layers(c) for c in traced_cycles]
        traced_run_s = statistics.median_low(
            cycle_metrics(c)["run_s"] for c in traced_cycles)
        # median_low keeps counts whole and times as measured
        values = {k: statistics.median_low(m[k] for m in layers)
                  for k in layers[0]}
        values["trace.run_s"] = traced_run_s
        values["trace.overhead_s"] = traced_run_s - median_of("run_s")
        declared = spec["per_layer"]
    # names and units come from BENCHMARK.json; a missing value is a KeyError
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": gate_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
