"""Line-oriented experiment configuration.

Format: `key = value` lines grouped under `[section]` headers; `#` starts a
comment.  Unknown sections or keys are errors carrying the line number, as
are missing required keys and non-finite numbers.

Sections and keys:

    [run]      mode = ground_state | dynamics | limit_study | com_compare
    [grid]     x = lo, hi, n, basis     (basis: fourier | sine; y, z likewise)
    [params]   k0, omega, delta, beta11, beta12, beta22,
               gamma_x, gamma_y, gamma_z, potential, frame
    [gfdn]     tau, tol, max_iters, init, stabilization_shift, record_every
    [evolve]   tau, t_end, record_every, snapshot_every
    [initial]  kind = gaussian | ground_state | shifted_ground_state | checkpoint
               center, width, component, offset, path
    [sweep]    kind = large_k0 | large_omega | large_delta | rate_small_k0 |
                      rate_large_k0 | energy_competition
               values = v1, v2, ...
    [lda]      tau, t_end
    [output]   dir

For box potentials the frame defaults to tilde (the solver requirement);
everything else defaults to the library defaults (gfdn tau 0.01, tol 1e-7,
evolve tau 1e-3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .grid import FOURIER, SINE, Axis, Grid
from .ground_state import SWEPT_PARAMETER, GfdnOptions
from .model import BOX, FREE, HARMONIC, LAB, TILDE, Params

MODES = ("ground_state", "dynamics", "limit_study", "com_compare")
SWEEP_KINDS = tuple(SWEPT_PARAMETER)
INITIAL_KINDS = ("gaussian", "ground_state", "shifted_ground_state", "checkpoint")


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass
class InitialSpec:
    kind: str = "gaussian"
    center: tuple = ()
    width: float = 1.0
    component: int = 1
    offset: tuple = ()
    path: str | None = None


@dataclass
class EvolveSpec:
    tau: float = 1e-3
    t_end: float | None = None
    record_every: int = 10
    snapshot_every: int = 0


@dataclass
class LdaSpec:
    tau: float = 1e-3
    t_end: float | None = None


@dataclass
class SweepSpec:
    kind: str
    values: tuple
    parameter: str


@dataclass
class ExperimentConfig:
    mode: str
    grid: Grid
    params: Params
    gfdn: GfdnOptions
    evolve: EvolveSpec
    initial: InitialSpec
    sweep: SweepSpec | None
    lda: LdaSpec
    out_dir: str
    text: str = field(repr=False, default="")


def _tokenize(text: str):
    """Yield (line_no, section, key, value) for every key=value line."""
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            yield ln, section, None, None
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", ln)
        key, value = line.split("=", 1)
        if section is None:
            raise ConfigError(f"key {key.strip()!r} before any [section]", ln)
        yield ln, section, key.strip().lower(), value.strip()


def _to_float(value: str, key: str, ln: int) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", ln) from None
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}", ln)
    return out


def _to_int(value: str, key: str, ln: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", ln) from None


def _to_floats(value: str, key: str, ln: int):
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} needs at least one value", ln)
    return tuple(_to_float(p, key, ln) for p in parts)


_SECTIONS = {
    "run": {"mode", "out"},
    "grid": {"x", "y", "z"},
    "params": {"k0", "omega", "delta", "beta11", "beta12", "beta22",
               "gamma_x", "gamma_y", "gamma_z", "potential", "frame"},
    "gfdn": {"tau", "tol", "max_iters", "init", "stabilization_shift",
             "record_every"},
    "evolve": {"tau", "t_end", "record_every", "snapshot_every"},
    "initial": {"kind", "center", "width", "component", "offset", "path"},
    "sweep": {"kind", "values"},
    "lda": {"tau", "t_end"},
    "output": {"dir"},
}


def parse_config(text: str, base_dir: str | Path = ".") -> ExperimentConfig:
    """Parse and fully validate a config; defaults applied, files checked."""
    base_dir = Path(base_dir)
    values: dict = {}
    lines: dict = {}
    for ln, section, key, value in _tokenize(text):
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]", ln)
        if key is None:
            continue
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", ln)
        if (section, key) in values:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", ln)
        values[(section, key)] = value
        lines[(section, key)] = ln

    def get(section, key, default=None):
        return values.get((section, key), default)

    def line_of(section, key):
        return lines.get((section, key))

    mode = get("run", "mode")
    if mode is None:
        raise ConfigError("missing required key 'mode' in section [run]")
    mode = mode.lower()
    if mode not in MODES:
        raise ConfigError(
            f"mode must be one of {', '.join(MODES)}; got {mode!r}",
            line_of("run", "mode"),
        )

    # grid
    axes = []
    for name in ("x", "y", "z"):
        spec = get("grid", name)
        if spec is None:
            break
        ln = line_of("grid", name)
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) not in (3, 4):
            raise ConfigError(
                f"grid axis {name!r} needs 'lo, hi, n[, basis]', got {spec!r}", ln
            )
        lo = _to_float(parts[0], name, ln)
        hi = _to_float(parts[1], name, ln)
        n = _to_int(parts[2], name, ln)
        basis = parts[3].lower() if len(parts) == 4 else FOURIER
        if basis not in (FOURIER, SINE):
            raise ConfigError(f"unknown basis {basis!r}", ln)
        try:
            axes.append(Axis(lo, hi, n, basis))
        except ValueError as exc:
            raise ConfigError(str(exc), ln) from None
    if not axes:
        raise ConfigError("missing required key 'x' in section [grid]")
    for name in ("y", "z"):
        if get("grid", name) is not None and len(axes) <= ("y", "z").index(name):
            raise ConfigError(f"grid axis {name!r} given without its predecessors",
                              line_of("grid", name))
    grid = Grid(axes)

    # params
    pkw = {}
    for key in ("k0", "omega", "delta", "beta11", "beta12", "beta22",
                "gamma_x", "gamma_y", "gamma_z"):
        v = get("params", key)
        if v is not None:
            pkw[key] = _to_float(v, key, line_of("params", key))
    potential = get("params", "potential")
    if potential is not None:
        potential = potential.lower()
        if potential not in (HARMONIC, BOX, FREE):
            raise ConfigError(f"unknown potential {potential!r}",
                              line_of("params", "potential"))
        pkw["potential"] = potential
    frame = get("params", "frame")
    if frame is not None:
        frame = frame.lower()
        if frame not in (LAB, TILDE):
            raise ConfigError(f"unknown frame {frame!r}", line_of("params", "frame"))
        pkw["frame"] = frame
    elif pkw.get("potential") == BOX:
        pkw["frame"] = TILDE  # solver requirement for box truncations
    params = Params(**pkw)

    # gfdn options
    gkw = {}
    for key, conv in (("tau", _to_float), ("tol", _to_float),
                      ("stabilization_shift", _to_float)):
        v = get("gfdn", key)
        if v is not None:
            gkw[key] = conv(v, key, line_of("gfdn", key))
    for key in ("max_iters", "record_every"):
        v = get("gfdn", key)
        if v is not None:
            gkw[key] = _to_int(v, key, line_of("gfdn", key))
    init = get("gfdn", "init")
    if init is not None:
        init = init.lower()
        allowed = ("auto", "gaussian_pair", "gaussian_opposite", "sine_pair",
                   "sine_opposite")
        if init not in allowed and not init.startswith("plane_wave:"):
            raise ConfigError(f"unknown gfdn init {init!r}", line_of("gfdn", "init"))
        gkw["init"] = init
    else:
        gkw["init"] = "auto"
    try:
        gfdn = GfdnOptions(**gkw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    # evolve options
    ekw = {}
    for key in ("tau", "t_end"):
        v = get("evolve", key)
        if v is not None:
            ekw[key] = _to_float(v, key, line_of("evolve", key))
    for key in ("record_every", "snapshot_every"):
        v = get("evolve", key)
        if v is not None:
            ekw[key] = _to_int(v, key, line_of("evolve", key))
    evolve = EvolveSpec(**ekw)
    if mode in ("dynamics", "com_compare") and evolve.t_end is None:
        raise ConfigError("missing required key 't_end' in section [evolve]")
    if evolve.tau <= 0:
        raise ConfigError("evolve tau must be positive", line_of("evolve", "tau"))

    # initial state
    ikw: dict = {}
    kind = get("initial", "kind")
    if kind is not None:
        kind = kind.lower()
        if kind not in INITIAL_KINDS:
            raise ConfigError(f"unknown initial kind {kind!r}",
                              line_of("initial", "kind"))
        ikw["kind"] = kind
    if get("initial", "center") is not None:
        ikw["center"] = _to_floats(get("initial", "center"), "center",
                                   line_of("initial", "center"))
    if get("initial", "width") is not None:
        ikw["width"] = _to_float(get("initial", "width"), "width",
                                 line_of("initial", "width"))
    if get("initial", "component") is not None:
        comp = _to_int(get("initial", "component"), "component",
                       line_of("initial", "component"))
        if comp not in (1, 2):
            raise ConfigError("component must be 1 or 2",
                              line_of("initial", "component"))
        ikw["component"] = comp
    if get("initial", "offset") is not None:
        ikw["offset"] = _to_floats(get("initial", "offset"), "offset",
                                   line_of("initial", "offset"))
    if get("initial", "path") is not None:
        path = get("initial", "path")
        resolved = Path(path)
        if not resolved.is_absolute():
            resolved = base_dir / resolved
        if not resolved.exists():
            raise ConfigError(f"initial checkpoint {path!r} does not exist",
                              line_of("initial", "path"))
        ikw["path"] = str(resolved)
    initial = InitialSpec(**ikw)
    if initial.kind == "checkpoint" and initial.path is None:
        raise ConfigError("initial kind 'checkpoint' needs 'path'")
    for key, tup in (("center", initial.center), ("offset", initial.offset)):
        if tup and len(tup) != grid.dim:
            raise ConfigError(
                f"initial {key} has {len(tup)} entries for a {grid.dim}D grid",
                line_of("initial", key),
            )

    # sweep
    sweep = None
    if get("sweep", "kind") is not None or get("sweep", "values") is not None:
        kind = get("sweep", "kind")
        vals = get("sweep", "values")
        if kind is None or vals is None:
            raise ConfigError("sweep needs both 'kind' and 'values'")
        kind = kind.lower()
        if kind not in SWEEP_KINDS:
            raise ConfigError(f"unknown sweep kind {kind!r}",
                              line_of("sweep", "kind"))
        sweep = SweepSpec(
            kind=kind,
            values=_to_floats(vals, "values", line_of("sweep", "values")),
            parameter=SWEPT_PARAMETER[kind],
        )
    if mode == "limit_study" and sweep is None:
        raise ConfigError("limit_study mode needs a [sweep] section")

    # lda
    lkw = {}
    for key in ("tau", "t_end"):
        v = get("lda", key)
        if v is not None:
            lkw[key] = _to_float(v, key, line_of("lda", key))
    lda = LdaSpec(**lkw)

    out_dir = get("output", "dir") or get("run", "out") or "socbec_out"

    return ExperimentConfig(
        mode=mode, grid=grid, params=params, gfdn=gfdn, evolve=evolve,
        initial=initial, sweep=sweep, lda=lda, out_dir=out_dir, text=text,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)
