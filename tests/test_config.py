from dataclasses import fields

import pytest

from socbec import ConfigError, GfdnOptions, Params, parse_config
from socbec.config import (_SCHEMA, INITIAL_KEYS, MODE_SECTIONS, EvolveSpec,
                           InitialSpec, LdaSpec, SweepSpec)

MINIMAL = """
[run]
mode = ground_state
[grid]
x = -16, 16, 128, fourier
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.mode == "ground_state"
    assert cfg.gfdn.tau == 0.01
    assert cfg.gfdn.tol == 1e-7
    assert cfg.gfdn.init == "auto"
    assert cfg.evolve.tau == 1e-3
    assert cfg.params.potential == "harmonic"
    assert cfg.params.frame == "lab"
    assert cfg.grid.dim == 1
    assert cfg.out_dir == "socbec_out"


def test_params_parsed():
    cfg = parse_config(MINIMAL + "[params]\nomega = 50\nk0 = 2.5\n")
    assert cfg.params.omega == 50.0
    assert cfg.params.k0 == 2.5


def test_misspelled_key_reports_line():
    text = MINIMAL + "[params]\ngamax = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "gamax" in str(err.value)
    assert err.value.line == text.splitlines().index("gamax = 1") + 1


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "[solver]\nx = 1\n")
    assert "solver" in str(err.value)


def test_missing_mode_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nx = -1, 1, 16\n")
    assert "mode" in str(err.value)


def test_missing_grid_rejected():
    with pytest.raises(ConfigError):
        parse_config("[run]\nmode = ground_state\n")


def test_bad_mode_rejected():
    with pytest.raises(ConfigError):
        parse_config("[run]\nmode = fly\n[grid]\nx = -1, 1, 16\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "[params]\nomega = 1\nomega = 2\n")
    assert "duplicate" in str(err.value)


def test_nonfinite_value_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[params]\nomega = inf\n")


def test_key_before_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("mode = ground_state\n")


def test_dynamics_needs_t_end():
    text = MINIMAL.replace("ground_state", "dynamics")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "t_end" in str(err.value)


def test_limit_study_needs_sweep():
    text = MINIMAL.replace("ground_state", "limit_study")
    with pytest.raises(ConfigError):
        parse_config(text)
    cfg = parse_config(text + "[sweep]\nkind = large_delta\nvalues = 10, 40\n")
    assert cfg.sweep.kind == "large_delta"
    assert cfg.sweep.values == (10.0, 40.0)
    assert cfg.sweep.parameter == "delta"


@pytest.mark.parametrize("mode, section", [
    ("ground_state", "evolve"),
    ("ground_state", "initial"),
    ("ground_state", "lda"),
    ("dynamics", "lda"),
    ("dynamics", "sweep"),
    ("com_compare", "sweep"),
    ("limit_study", "evolve"),
])
def test_section_the_mode_never_reads_rejected(mode, section):
    text = MINIMAL.replace("ground_state", mode) + (
        "[evolve]\nt_end = 0.1\n" if mode in ("dynamics", "com_compare") else ""
    ) + ("[sweep]\nkind = large_delta\nvalues = 10\n"
         if mode == "limit_study" else "")
    if section not in text:
        text += f"[{section}]\n"  # an empty header counts as given
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"{mode} mode does not read section [{section}]" in str(err.value)
    assert err.value.line == text.splitlines().index(f"[{section}]") + 1


def test_gfdn_init_under_limit_study_rejected():
    text = MINIMAL.replace("ground_state", "limit_study") + (
        "[gfdn]\ntol = 1e-8\ninit = gaussian_pair\n"
        "[sweep]\nkind = large_delta\nvalues = 10\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "limit_study mode does not read [gfdn] key 'init'" in str(err.value)
    assert err.value.line == text.splitlines().index("init = gaussian_pair") + 1
    cfg = parse_config(text.replace("init = gaussian_pair\n", ""))
    assert cfg.gfdn.tol == 1e-8


@pytest.mark.parametrize("mode", ["dynamics", "com_compare"])
@pytest.mark.parametrize("kind", [None, "gaussian", "checkpoint",
                                  "ground_state", "shifted_ground_state"])
def test_gfdn_section_read_only_by_ground_state_starts(tmp_path, mode, kind):
    (tmp_path / "seed.socb").write_bytes(b"")
    text = MINIMAL.replace("ground_state", mode) + "[evolve]\nt_end = 0.1\n"
    if kind is not None:  # unset kind is gaussian
        text += f"[initial]\nkind = {kind}\n"
        if kind == "checkpoint":
            text += "path = seed.socb\n"
    text += "[gfdn]\ntau = 0.02\n"
    if kind in ("ground_state", "shifted_ground_state"):
        assert parse_config(text, base_dir=tmp_path).gfdn.tau == 0.02
        return
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=tmp_path)
    assert f"initial kind {kind or 'gaussian'!r} does not read section [gfdn]" \
        in str(err.value)
    assert err.value.line == text.splitlines().index("[gfdn]") + 1


def test_every_section_is_read_by_some_mode():
    read = {s for sections in MODE_SECTIONS.values() for s in sections}
    assert read == set(_SCHEMA)


def test_bad_grid_axis_reports_line():
    text = "[run]\nmode = ground_state\n[grid]\nx = 0, 0, 64\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == 4


def test_axis_order_enforced():
    text = "[run]\nmode = ground_state\n[grid]\ny = -1, 1, 16\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_box_defaults_to_tilde_frame():
    text = ("[run]\nmode = ground_state\n[grid]\nx = -1, 1, 32, sine\n"
            "[params]\npotential = box\n")
    cfg = parse_config(text)
    assert cfg.params.frame == "tilde"
    cfg2 = parse_config(text + "frame = lab\n")
    assert cfg2.params.frame == "lab"


def test_initial_checkpoint_must_exist(tmp_path):
    text = MINIMAL.replace("ground_state", "dynamics") + (
        "[evolve]\nt_end = 0.1\n[initial]\nkind = checkpoint\npath = nope.socb\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=tmp_path)
    assert "does not exist" in str(err.value)


def test_initial_center_dimension_checked():
    text = MINIMAL.replace("ground_state", "dynamics") + (
        "[evolve]\nt_end = 0.1\n[initial]\nkind = gaussian\ncenter = 1, 2\n"
    )
    with pytest.raises(ConfigError):
        parse_config(text)


def initial_text(lines):
    return MINIMAL.replace("ground_state", "dynamics") + (
        "[evolve]\nt_end = 0.1\n[initial]\n" + "".join(f"{l}\n" for l in lines))


@pytest.mark.parametrize("kind, key, value", [
    ("ground_state", "offset", "3.3"),
    ("ground_state", "component", "2"),
    ("gaussian", "offset", "1.0"),
    ("shifted_ground_state", "width", "2"),
    ("checkpoint", "center", "1.0"),
    (None, "path", "seed.socb"),
])
def test_initial_keys_the_kind_does_not_read_rejected(tmp_path, kind, key, value):
    (tmp_path / "seed.socb").write_bytes(b"")
    lines = [f"kind = {kind}"] if kind else []  # unset kind is gaussian
    if kind == "checkpoint":
        lines.append("path = seed.socb")
    text = initial_text(lines + [f"{key} = {value}"])
    with pytest.raises(ConfigError) as err:
        parse_config(text, base_dir=tmp_path)
    assert f"initial kind {kind or 'gaussian'!r} does not read {key!r}" \
        in str(err.value)
    assert err.value.line == text.splitlines().index(f"{key} = {value}") + 1


def test_initial_keys_each_kind_reads_accepted(tmp_path):
    (tmp_path / "seed.socb").write_bytes(b"")
    values = {"center": "1.0", "width": "2", "component": "2",
              "offset": "0.25", "path": "seed.socb"}
    for kind, keys in INITIAL_KEYS.items():
        text = initial_text([f"kind = {kind}"] + [f"{k} = {values[k]}" for k in keys])
        assert parse_config(text, base_dir=tmp_path).initial.kind == kind
    # every [initial] key is read by some kind
    read = {key for keys in INITIAL_KEYS.values() for key in keys}
    assert read | {"kind"} == set(_SCHEMA["initial"])


def test_comments_and_blank_lines_ignored():
    text = """
# experiment
[run]
mode = ground_state   # the mode
[grid]
x = -16, 16, 128      # axis
"""
    cfg = parse_config(text)
    assert cfg.mode == "ground_state"


def test_unknown_sweep_kind():
    text = MINIMAL.replace("ground_state", "limit_study") + \
        "[sweep]\nkind = bogus\nvalues = 1\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_unknown_init_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[gfdn]\ninit = wiggle\n")
    cfg = parse_config(MINIMAL + "[gfdn]\ninit = plane_wave:1.5\n")
    assert cfg.gfdn.init == "plane_wave:1.5"


@pytest.mark.parametrize("width", ["0", "-1"])
def test_nonpositive_initial_width_reports_line(width):
    text = MINIMAL.replace("ground_state", "dynamics") + (
        f"[evolve]\nt_end = 0.1\n[initial]\nwidth = {width}\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "width" in str(err.value)
    assert err.value.line == text.splitlines().index(f"width = {width}") + 1


@pytest.mark.parametrize("key, value", [("max_iters", 0), ("max_iters", -3)])
def test_gfdn_iteration_counts_checked(key, value):
    with pytest.raises(ValueError, match=key):
        GfdnOptions(**{key: value})
    with pytest.raises(ConfigError, match=key):
        parse_config(MINIMAL + f"[gfdn]\n{key} = {value}\n")


@pytest.mark.parametrize("key", ["stabilization_shift", "record_every"])
def test_removed_gfdn_keys_rejected(key):
    # the flow's shifts are derived from the iterate and its energy check is
    # always on, so neither is a setting
    text = MINIMAL + f"[gfdn]\ntau = 0.01\n{key} = 1\n"
    with pytest.raises(ConfigError, match=f"unknown key '{key}'") as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index(f"{key} = 1") + 1


@pytest.mark.parametrize("section, cls", [
    ("params", Params), ("gfdn", GfdnOptions), ("evolve", EvolveSpec),
    ("initial", InitialSpec), ("lda", LdaSpec), ("sweep", SweepSpec),
], ids=lambda v: getattr(v, "__name__", v))
def test_section_keys_are_dataclass_fields(section, cls):
    # a field deleted with its key left behind would reach the dataclass as
    # an unexpected keyword (TypeError) instead of a ConfigError; the sweep's
    # parameter is derived from its kind
    names = {f.name for f in fields(cls)} - {"parameter"}
    assert set(_SCHEMA[section]) == names
