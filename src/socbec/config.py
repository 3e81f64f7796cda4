"""Line-oriented experiment configuration.

Format: `key = value` lines grouped under `[section]` headers; `#` starts a
comment.  `_SCHEMA` is the list of sections and keys: it maps each key to
the converter that checks its value.  A grid axis reads `lo, hi, n[, basis]`
(basis fourier or sine, default fourier); `center`, `offset` and sweep
`values` are comma-separated numbers.  Unknown sections or keys, duplicate
keys, bad values and non-finite numbers are errors carrying the line number;
so are missing required keys and the cross-key rules in `parse_config`.
A section that the run mode never reads (`MODE_SECTIONS`) is an error too,
so `[evolve]` under `ground_state` or `[sweep]` outside `limit_study` is not
silently ignored; nor is `[gfdn] init` under `limit_study`, or `[gfdn]`
where the `[initial]` kind solves no ground state (`GROUND_STATE_KINDS`).

`[initial]` takes `kind` and only the keys that kind reads (`INITIAL_KEYS`):
gaussian `center`, `width`, `component`; shifted_ground_state `offset`;
checkpoint `path`; ground_state none.  A checkpoint start reaches the
config's frame through the lab frame: a tilde checkpoint goes to the lab
frame with its own k0, then a tilde config to the tilde frame with its k0;
a field whose frame and k0 already match the config's is used as stored.
`socbec validate` loads that checkpoint and checks its grid, as `run` does.

Each section resolves once, here, to the object its run reads (`Params`,
`GfdnOptions`, `dynamics.EvolveOptions` or a spec below), whose ValueError
is a ConfigError naming the section; a section the mode never reads is None.
Unset keys take the library defaults (gfdn tau 0.01, tol 1e-7) or the
config's own, passed in by `parse_config`: gfdn init `auto`, evolve and lda
tau 1e-3, evolve record_every 10, lda t_end the [evolve] t_end, and the
tilde frame for box potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .dynamics import EvolveOptions, step_count
from .grid import FOURIER, Axis, Grid
from .ground_state import SWEPT_PARAMETER, GfdnOptions
from .model import BOX, FREE, HARMONIC, LAB, TILDE, Params
from .states import INIT_SPECS, PLANE_WAVE

# the sections each run mode reads; any other section given is an error
_EVERY_MODE = ("run", "grid", "params", "gfdn", "output")
MODE_SECTIONS = {
    "ground_state": _EVERY_MODE,
    "dynamics": _EVERY_MODE + ("evolve", "initial"),
    "limit_study": _EVERY_MODE + ("sweep",),
    "com_compare": _EVERY_MODE + ("evolve", "initial", "lda"),
}
MODES = tuple(MODE_SECTIONS)
# the [initial] keys besides `kind` that each kind reads; any other is an error
INITIAL_KEYS = {
    "gaussian": ("center", "width", "component"),
    "ground_state": (),
    "shifted_ground_state": ("offset",),
    "checkpoint": ("path",),
}
GROUND_STATE_KINDS = ("ground_state", "shifted_ground_state")  # read [gfdn]


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
class LdaSpec:
    tau: float
    t_end: float

    def __post_init__(self):
        step_count(self.tau, self.t_end)


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
    evolve: EvolveOptions | None
    initial: InitialSpec | None
    sweep: SweepSpec | None
    lda: LdaSpec | None
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


# ---- converters: (value, key, line) -> checked value -------------------------

def _text(value: str, key: str, ln: int) -> str:
    if not value:
        raise ConfigError(f"{key} needs a value", ln)
    return value


def _float(value: str, key: str, ln: int) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", ln) from None
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}", ln)
    return out


def _positive(value: str, key: str, ln: int) -> float:
    out = _float(value, key, ln)
    if out <= 0:
        raise ConfigError(f"{key} must be positive, got {value!r}", ln)
    return out


def _int(value: str, key: str, ln: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", ln) from None


def _floats(value: str, key: str, ln: int) -> tuple:
    if not value:
        raise ConfigError(f"{key} needs at least one value", ln)
    return tuple(_float(p.strip(), key, ln) for p in value.split(","))


def _choice(*names: str):
    def convert(value: str, key: str, ln: int) -> str:
        out = value.lower()
        if out not in names:
            raise ConfigError(
                f"unknown {key} {out!r}; expected one of {', '.join(names)}", ln
            )
        return out
    return convert


def _component(value: str, key: str, ln: int) -> int:
    out = _int(value, key, ln)
    if out not in (1, 2):
        raise ConfigError("component must be 1 or 2", ln)
    return out


def _init(value: str, key: str, ln: int) -> str:
    out = value.lower()
    if out.startswith(PLANE_WAVE):
        _float(out[len(PLANE_WAVE):], f"{key} {PLANE_WAVE}<k>", ln)
    elif out != "auto" and out not in INIT_SPECS:
        raise ConfigError(f"unknown {key} {out!r}", ln)
    return out


def _axis(value: str, key: str, ln: int) -> Axis:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) not in (3, 4):
        raise ConfigError(
            f"grid axis {key!r} needs 'lo, hi, n[, basis]', got {value!r}", ln
        )
    lo, hi = _float(parts[0], key, ln), _float(parts[1], key, ln)
    n = _int(parts[2], key, ln)
    basis = parts[3].lower() if len(parts) == 4 else FOURIER
    try:
        return Axis(lo, hi, n, basis)
    except ValueError as exc:
        raise ConfigError(str(exc), ln) from None


_SCHEMA = {
    "run": {"mode": _choice(*MODES)},
    "grid": {"x": _axis, "y": _axis, "z": _axis},
    "params": {
        **dict.fromkeys(("k0", "omega", "delta", "beta11", "beta12", "beta22",
                         "gamma_x", "gamma_y", "gamma_z"), _float),
        "potential": _choice(HARMONIC, BOX, FREE),
        "frame": _choice(LAB, TILDE),
    },
    "gfdn": {"tau": _float, "tol": _float, "max_iters": _int, "init": _init},
    "evolve": {"tau": _positive, "t_end": _float, "record_every": _int,
               "snapshot_every": _int},
    "initial": {"kind": _choice(*INITIAL_KEYS),
                "center": _floats, "width": _positive, "component": _component,
                "offset": _floats, "path": _text},
    "sweep": {"kind": _choice(*SWEPT_PARAMETER),
              "values": _floats},
    "lda": {"tau": _positive, "t_end": _float},
    "output": {"dir": _text},
}


def _resolve(section: str, cls, kwargs: dict):
    """`cls(**kwargs)`, its ValueError a ConfigError that names the section."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def parse_config(text: str, base_dir: str | Path = ".") -> ExperimentConfig:
    """Parse and fully validate a config; defaults applied, files checked."""
    found = {section: {} for section in _SCHEMA}
    lines = {}
    headers = {}
    for ln, section, key, value in _tokenize(text):
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]", ln)
        if key is None:
            headers.setdefault(section, ln)
            continue
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", ln)
        if key in found[section]:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", ln)
        found[section][key] = _SCHEMA[section][key](value, key, ln)
        lines[section, key] = ln

    mode = found["run"].get("mode")
    if mode is None:
        raise ConfigError("missing required key 'mode' in section [run]")
    reads = MODE_SECTIONS[mode]
    for section, ln in headers.items():
        if section not in reads:
            raise ConfigError(f"{mode} mode does not read section [{section}]", ln)
    if mode == "limit_study" and "init" in found["gfdn"]:
        raise ConfigError("limit_study mode does not read [gfdn] key 'init'; "
                          "each study picks its own starts", lines["gfdn", "init"])
    kind = found["initial"].get("kind", InitialSpec.kind)
    if ("initial" in reads and "gfdn" in headers
            and kind not in GROUND_STATE_KINDS):
        raise ConfigError(f"initial kind {kind!r} does not read section [gfdn]",
                          headers["gfdn"])

    axes = found["grid"]
    order = list(_SCHEMA["grid"])
    names = [name for name in order if name in axes]
    if not names:
        raise ConfigError(f"missing required key {order[0]!r} in section [grid]")
    for name, expected in zip(names, order):
        if name != expected:
            raise ConfigError(f"grid axis {name!r} given without its predecessors",
                              lines["grid", name])
    grid = Grid([axes[name] for name in names])

    pkw = found["params"]
    if pkw.get("potential") == BOX:
        pkw.setdefault("frame", TILDE)  # solver requirement for box truncations
    params = Params(**pkw)

    gfdn = _resolve("gfdn", GfdnOptions, {"init": "auto", **found["gfdn"]})

    evolve = lda = sweep = None
    if "evolve" in reads:
        if "t_end" not in found["evolve"]:
            raise ConfigError("missing required key 't_end' in section [evolve]")
        evolve = _resolve("evolve", EvolveOptions,
                          {"tau": 1e-3, "record_every": 10, **found["evolve"]})
    if "lda" in reads:
        lda = _resolve("lda", LdaSpec,
                       {"tau": 1e-3, "t_end": evolve.t_end, **found["lda"]})

    ikw = found["initial"]
    for key in ikw:
        if key != "kind" and key not in INITIAL_KEYS[kind]:
            raise ConfigError(f"initial kind {kind!r} does not read {key!r}",
                              lines["initial", key])
    if "path" in ikw:
        resolved = Path(base_dir) / ikw["path"]
        if not resolved.exists():
            raise ConfigError(f"initial checkpoint {ikw['path']!r} does not exist",
                              lines["initial", "path"])
        ikw["path"] = str(resolved)
    if kind == "checkpoint" and "path" not in ikw:
        raise ConfigError("initial kind 'checkpoint' needs 'path'")
    for key in ("center", "offset"):
        tup = ikw.get(key, ())
        if tup and len(tup) != grid.dim:
            raise ConfigError(
                f"initial {key} has {len(tup)} entries for a {grid.dim}D grid",
                lines["initial", key],
            )
    initial = InitialSpec(**ikw) if "initial" in reads else None

    if "sweep" in reads:
        skw = found["sweep"]
        if set(skw) != set(_SCHEMA["sweep"]):
            raise ConfigError("limit_study mode needs [sweep] 'kind' and 'values'")
        sweep = SweepSpec(**skw, parameter=SWEPT_PARAMETER[skw["kind"]])

    return ExperimentConfig(
        mode=mode, grid=grid, params=params, gfdn=gfdn, evolve=evolve,
        initial=initial, sweep=sweep, lda=lda,
        out_dir=found["output"].get("dir", "socbec_out"), text=text,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})",
                          data.count(b"\n", 0, exc.start) + 1) from None
    return parse_config(text, base_dir=path.parent)
