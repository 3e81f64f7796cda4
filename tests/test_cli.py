import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socbec import (Axis, GfdnOptions, Params, Spinor, eigen_residual, energy,
                    load_checkpoint, make_grid, save_checkpoint,
                    solve_ground_state)
from socbec.cli import main
from socbec.config import load_config
from socbec.runner import run

GS_CONFIG = """
[run]
mode = ground_state
[grid]
x = -16, 16, 64, fourier
[params]
omega = -2
beta11 = 1
beta12 = 0.5
beta22 = 1
[gfdn]
init = gaussian_pair
"""

DYN_CONFIG = """
[run]
mode = dynamics
[grid]
x = -16, 16, 64, fourier
[params]
omega = 4
k0 = 1
beta11 = 2
beta12 = 2
beta22 = 2
[evolve]
tau = 1e-3
t_end = 0.05
record_every = 10
snapshot_every = 25
[initial]
kind = gaussian
center = 1.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_ok(tmp_path, capsys):
    cfg = write(tmp_path, "gs.cfg", GS_CONFIG)
    assert main(["validate", cfg]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_bad_key(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", GS_CONFIG + "[params]\ngamax = 1\n")
    assert main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert "gamax" in err and "line" in err


def test_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "missing.cfg")]) == 1


def test_usage_error():
    assert main(["frobnicate"]) == 1


# a run whose config digest takes hashlib's sha256, not the built-in _sha256
FALLBACK_DIGEST_SCRIPT = """
import sys
sys.modules["_sha256"] = None
from socbec.cli import main
status = main(sys.argv[1:])
assert "hashlib" in sys.modules
sys.exit(status)
"""


def test_ground_state_run_and_determinism(tmp_path):
    cfg = write(tmp_path, "gs.cfg", GS_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", FALLBACK_DIGEST_SCRIPT, "run", cfg,
         "--out", str(out2)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out1 / "observables.csv").read_bytes() == \
        (out2 / "observables.csv").read_bytes()
    assert (out1 / "run_manifest.txt").read_bytes() == \
        (out2 / "run_manifest.txt").read_bytes()
    sha = hashlib.sha256(GS_CONFIG.encode()).hexdigest()
    assert f"config_sha256 {sha}" in \
        (out1 / "run_manifest.txt").read_text().splitlines()
    header = (out1 / "observables.csv").read_text().splitlines()[0]
    assert header == "iter,N,N1,N2,delta_N,E,mu,xc_x,Px,raman_overlap"
    chk = load_checkpoint(out1 / "ground_state.socb")
    assert abs(chk.spinor.norm_sq() - 1.0) <= 1e-10


def test_ground_state_nonconvergence_fails(tmp_path):
    cfg = write(tmp_path, "gs.cfg", GS_CONFIG + "[gfdn]\nmax_iters = 3\n"
                .replace("[gfdn]\n", ""))
    # append to the existing gfdn section instead of a duplicate one
    cfg = write(tmp_path, "gs2.cfg",
                GS_CONFIG.replace("init = gaussian_pair",
                                  "init = gaussian_pair\nmax_iters = 3"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert (out / "FAILED").exists()
    assert "did not reach" in (out / "FAILED").read_text()
    # partial artifacts are retained
    assert (out / "observables.csv").exists()


def test_dynamics_run_artifacts(tmp_path):
    cfg = write(tmp_path, "dyn.cfg", DYN_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "observables.csv").read_text().splitlines()
    assert lines[0].startswith("t,N,N1,N2")
    assert len(lines) == 2 + 5  # header + t=0 + 5 records
    assert (out / "final_state.socb").exists()
    assert (out / "snapshot_00000000.socb").exists()
    assert (out / "snapshot_00000025.socb").exists()
    assert (out / "snapshot_00000050.socb").exists()
    chk = load_checkpoint(out / "final_state.socb")
    assert chk.time == 0.05
    # mass column stays at 1 to round-off
    for row in lines[1:]:
        assert abs(float(row.split(",")[1]) - 1.0) <= 1e-12


def checkpoint_start(tmp_path):
    return write(tmp_path, "dyn.cfg", DYN_CONFIG.replace(
        "[initial]\nkind = gaussian\ncenter = 1.0",
        "[initial]\nkind = checkpoint\npath = seed.socb"))


def test_dynamics_from_checkpoint_grid_mismatch(tmp_path, capsys):
    other = make_grid([Axis(-1.0, 1.0, 16, "sine")])
    phi = Spinor(other, np.zeros(other.shape), np.zeros(other.shape))
    save_checkpoint(tmp_path / "seed.socb", phi,
                    Params(potential="box", frame="tilde"))
    cfg = checkpoint_start(tmp_path)
    assert main(["validate", cfg]) == 1
    assert "grid" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "grid" in (out / "FAILED").read_text()


def test_validate_and_run_reject_a_truncated_checkpoint(tmp_path, capsys):
    g = make_grid([Axis(-16.0, 16.0, 64)])
    save_checkpoint(tmp_path / "seed.socb",
                    Spinor(g, np.ones(g.shape), np.zeros(g.shape)), Params())
    (tmp_path / "seed.socb").write_bytes((tmp_path / "seed.socb").read_bytes()[:100])
    cfg = checkpoint_start(tmp_path)
    assert main(["validate", cfg]) == 1
    assert "truncated" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "truncated" in (out / "FAILED").read_text()


def test_initial_key_the_kind_does_not_read_is_a_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, "dyn.cfg", DYN_CONFIG.replace(
        "[initial]\nkind = gaussian\ncenter = 1.0",
        "[initial]\nkind = ground_state\noffset = 3.3\ncomponent = 2"))
    for argv in (["validate", cfg], ["run", cfg, "--out", str(tmp_path / "o")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "initial kind 'ground_state' does not read 'offset'" in err
        line = Path(cfg).read_text().splitlines().index("offset = 3.3") + 1
        assert f"line {line}:" in err
    assert not (tmp_path / "o").exists()


def test_limit_study_run(tmp_path):
    text = """
[run]
mode = limit_study
[grid]
x = -16, 16, 64, fourier
[params]
omega = -2
beta11 = 1
beta12 = 0.5
beta22 = 1
[sweep]
kind = large_delta
values = 10, 40, 160
"""
    cfg = write(tmp_path, "study.cfg", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("delta,first_component_norm")
    assert len(lines) == 4
    norms = [float(r.split(",")[1]) for r in lines[1:]]
    assert norms[0] > norms[1] > norms[2]
    assert (out / "state_delta_10.socb").exists()
    assert "unconverged" not in (out / "run_manifest.txt").read_text()

    # unconverged points stay results: the manifest names them, exit 0
    cfg = write(tmp_path, "short.cfg", text + "[gfdn]\nmax_iters = 5\n")
    assert main(["run", cfg, "--out", str(out)]) == 0
    manifest = (out / "run_manifest.txt").read_text().splitlines()
    assert "warning unconverged sweep points: delta = 10, 40, 160" in manifest


def test_com_compare_run(tmp_path):
    text = """
[run]
mode = com_compare
[grid]
x = -16, 16, 64, fourier
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
t_end = 0.2
record_every = 20
[initial]
kind = shifted_ground_state
offset = 1.0
[lda]
t_end = 0.2
"""
    cfg = write(tmp_path, "com.cfg", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "lda_compare.csv").read_text().splitlines()
    assert lines[0] == "t,xc_pde,xc_closed_form,xc_lda,xc_lda_measured"
    assert len(lines) >= 5
    manifest = (out / "run_manifest.txt").read_text()
    assert "lda_conserved_drift" in manifest
    assert "max_dev_closed_form" in manifest


def results_section(out):
    lines = (out / "run_manifest.txt").read_text().splitlines()
    start = lines.index("[results]") + 1
    return lines[start:lines.index("", start)]


def test_initial_ground_state_is_reported(tmp_path):
    # a com_compare run's initial ground state reaches [results] as a
    # ground_state run's does, warnings included
    text = DYN_CONFIG.replace("mode = dynamics", "mode = com_compare").replace(
        "[initial]\nkind = gaussian\ncenter = 1.0",
        "[initial]\nkind = shifted_ground_state\noffset = 1.0\n"
        "[gfdn]\ninit = auto")
    out = tmp_path / "out"
    assert main(["run", write(tmp_path, "com.cfg", text), "--out", str(out)]) == 0
    fields = dict(ln.split(" ", 1) for ln in results_section(out))
    g = make_grid([Axis(-16.0, 16.0, 64)])
    p = Params(k0=1.0, omega=4.0, beta11=2.0, beta12=2.0, beta22=2.0)
    res = solve_ground_state(p, g, GfdnOptions(init="auto"))
    assert res.converged
    assert float(fields["ground_state_energy"]) == res.energy
    assert float(fields["ground_state_mu"]) == res.mu
    assert int(fields["ground_state_iterations"]) == res.iterations
    assert float(fields["ground_state_residual"]) == res.residual
    assert res.residual == eigen_residual(res.phi, p) < 1e-7
    assert "warning selected from 2 starts" in results_section(out)
    assert "lda_conserved_drift" in fields

    # an unconverged initial solve fails the run and still reports itself
    cfg = write(tmp_path, "short.cfg", text + "max_iters = 1\n")
    assert main(["run", cfg, "--out", str(out)]) == 2
    results = results_section(out)
    assert "ground_state_iterations 1" in results
    assert any(ln.startswith("warning gradient flow did not reach")
               for ln in results)


def test_manifest_shows_the_lda_t_end_the_ode_runs_to(tmp_path):
    # an unset [lda] t_end is the [evolve] t_end (0.05 here)
    text = DYN_CONFIG.replace("mode = dynamics", "mode = com_compare")
    out = tmp_path / "out"
    assert main(["run", write(tmp_path, "com.cfg", text), "--out", str(out)]) == 0
    manifest = (out / "run_manifest.txt").read_text().splitlines()
    assert "lda LdaSpec(tau=0.001, t_end=0.05)" in manifest
    assert ("evolve EvolveOptions(tau=0.001, t_end=0.05, record_every=10, "
            "snapshot_every=25)") in manifest
    out = tmp_path / "set"
    text += "[lda]\nt_end = 0.02\n"
    assert main(["run", write(tmp_path, "set.cfg", text), "--out", str(out)]) == 0
    manifest = (out / "run_manifest.txt").read_text().splitlines()
    assert "lda LdaSpec(tau=0.001, t_end=0.02)" in manifest
    # an unset [lda] tau is the [evolve] tau, so 3 steps of 4e-4 fit both
    text = DYN_CONFIG.replace("mode = dynamics", "mode = com_compare").replace(
        "tau = 1e-3\nt_end = 0.05", "tau = 0.0004\nt_end = 0.0012")
    cfg = write(tmp_path, "step.cfg", text)
    assert main(["validate", cfg]) == 0
    out = tmp_path / "step"
    assert main(["run", cfg, "--out", str(out)]) == 0
    manifest = (out / "run_manifest.txt").read_text().splitlines()
    assert "lda LdaSpec(tau=0.0004, t_end=0.0012)" in manifest
    # the [resolved] block echoes only the sections the run reads
    out = tmp_path / "gs"
    assert main(["run", write(tmp_path, "gs.cfg", GS_CONFIG), "--out",
                 str(out)]) == 0
    manifest = (out / "run_manifest.txt").read_text().splitlines()
    for section in ("evolve", "initial", "lda", "sweep"):
        assert f"{section} None" in manifest


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    # every multi-start runs its starts in order; there is no worker count
    cfg = write(tmp_path, "gs.cfg", GS_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_a_thread_count_above_one(tmp_path):
    config = load_config(write(tmp_path, "gs.cfg", GS_CONFIG))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="threads"):
        run(config, out_dir=out, threads=2)
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(("# caf\u00e9\n" + GS_CONFIG).encode("latin-1"))
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "run" else []
    assert main([command, str(path), *extra]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
    assert not out.exists()


def test_box_ground_state_writes_lab_companion(tmp_path):
    text = """
[run]
mode = ground_state
[grid]
x = -1, 1, 32, sine
[params]
potential = box
k0 = 1.5
omega = 3
beta11 = 2
beta12 = 1
beta22 = 2
[gfdn]
init = sine_opposite
"""
    cfg = write(tmp_path, "box.cfg", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    tilde = load_checkpoint(out / "ground_state.socb")
    lab = load_checkpoint(out / "ground_state_lab.socb")
    assert tilde.params.frame == "tilde" and lab.params.frame == "lab"
    np.testing.assert_allclose(np.abs(lab.spinor.psi1),
                               np.abs(tilde.spinor.psi1), atol=1e-14)
    results = dict(line.split(" ", 1) for line in
                   (out / "run_manifest.txt").read_text().splitlines()
                   if line.startswith(("lab_energy ", "mu ")))
    # the lab state is evaluated under its own params, on its own sine grid
    assert energy(lab.spinor, lab.params) == pytest.approx(
        float(results["lab_energy"]), rel=1e-12)
    mu = float(results["mu"])
    assert eigen_residual(lab.spinor, lab.params, mu - 0.5 * lab.params.k0**2) \
        == pytest.approx(eigen_residual(tilde.spinor, tilde.params, mu), rel=1e-12)


def test_box_raman_sweep_1d(tmp_path):
    text = """
[run]
mode = limit_study
[grid]
x = -1, 1, 64, sine
[params]
omega = 50
beta11 = 10
beta12 = 9
beta22 = 9
potential = box
[gfdn]
max_iters = 4000
[sweep]
kind = large_k0
values = 1, 5, 10
"""
    cfg = write(tmp_path, "sweep.cfg", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("k0,raman_coupling_abs,dist_to_no_raman")
    overlaps = [float(r.split(",")[1]) for r in lines[1:]]
    assert overlaps[0] > overlaps[1] > overlaps[2]
    assert (out / "state_k0_5.socb").exists()


# ---- validate rejects what run rejects ----------------------------------------

HARMONIC_ON_SINE = GS_CONFIG.replace("x = -16, 16, 64, fourier",
                                     "x = -1, 1, 32, sine")

BOX_ON_FOURIER = GS_CONFIG.replace("beta22 = 1", "beta22 = 1\npotential = box")

T_END_NOT_MULTIPLE = DYN_CONFIG.replace("t_end = 0.05", "t_end = 0.0505")

LDA_T_END_NOT_MULTIPLE = DYN_CONFIG.replace(
    "mode = dynamics", "mode = com_compare") + "[lda]\ntau = 0.03\nt_end = 0.1\n"

# a limit study picks its own starts, so these drop the [gfdn] init
STUDY_FROM_GS = GS_CONFIG.replace("mode = ground_state", "mode = limit_study")

RATE_SWEEP_ZERO_K0 = STUDY_FROM_GS.replace("init = gaussian_pair\n", "") \
    + "[sweep]\nkind = rate_small_k0\nvalues = 0, 0.1, 0.2\n"

RATE_SWEEP_REPEATED = STUDY_FROM_GS.replace("init = gaussian_pair\n", "") \
    + "[sweep]\nkind = rate_small_k0\nvalues = 0.1, 0.1, 0.1\n"

STUDY_INIT = STUDY_FROM_GS + "[sweep]\nkind = rate_small_k0\nvalues = 0.1, 0.2, 0.3\n"

GAUSSIAN_START_GFDN = DYN_CONFIG + "[gfdn]\ntau = 0.02\n"

NEGATIVE_SNAPSHOT_EVERY = DYN_CONFIG.replace("snapshot_every = 25",
                                             "snapshot_every = -3")

ZERO_RECORD_EVERY = DYN_CONFIG.replace("record_every = 10", "record_every = 0")

# the [initial] path names the config's own directory, not a checkpoint file
INITIAL_PATH_IS_DIRECTORY = DYN_CONFIG.replace(
    "kind = gaussian\ncenter = 1.0", "kind = checkpoint\npath = .")

# sections a ground_state run never reads, the [initial] path being this
# config file itself rather than a checkpoint
UNREAD_SECTIONS = GS_CONFIG + (
    "[evolve]\ntau = 0.5\nt_end = 3\n[initial]\nkind = checkpoint\npath = bad.cfg\n")


# parse errors stop `run` before its output directory (exit 1); the dry run's
# rejections come after it (exit 2, FAILED and manifest written)
@pytest.mark.parametrize("text, needle, run_status", [
    (HARMONIC_ON_SINE, "Fourier grid", 2),
    (BOX_ON_FOURIER, "sine-basis", 2),
    (T_END_NOT_MULTIPLE, "[evolve] t_end must be an integer multiple", 1),
    (LDA_T_END_NOT_MULTIPLE, "[lda] t_end must be an integer multiple", 1),
    (RATE_SWEEP_ZERO_K0, "positive k0", 2),
    (RATE_SWEEP_REPEATED, "repeated sweep values", 2),
    (NEGATIVE_SNAPSHOT_EVERY, "[evolve] snapshot_every must be >= 0", 1),
    (ZERO_RECORD_EVERY, "[evolve] record_every must be >= 1", 1),
    (UNREAD_SECTIONS, "ground_state mode does not read section [evolve]", 1),
    (STUDY_INIT, "line 12: limit_study mode does not read [gfdn] key 'init'", 1),
    (GAUSSIAN_START_GFDN,
     "line 20: initial kind 'gaussian' does not read section [gfdn]", 1),
    (INITIAL_PATH_IS_DIRECTORY,
     "line 19: initial checkpoint '.' does not exist or is not a file", 1),
], ids=["harmonic_on_sine", "box_on_fourier", "t_end_not_multiple",
        "lda_t_end_not_multiple", "rate_sweep_zero_k0", "rate_sweep_repeated",
        "negative_snapshot_every", "zero_record_every", "unread_sections",
        "study_init", "gaussian_start_gfdn", "initial_path_is_directory"])
def test_validate_and_run_reject_alike(tmp_path, capsys, text, needle,
                                       run_status):
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["validate", cfg]) == 1
    assert needle in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == run_status
    if run_status == 1:
        assert needle in capsys.readouterr().err
        assert not out.exists()
    else:
        assert needle in (out / "FAILED").read_text()
        assert "status failed" in (out / "run_manifest.txt").read_text()


def test_resolution_warning_in_failed_and_manifest(tmp_path, capsys):
    # 2|k0| = 24 exceeds the largest sine wavenumber 15*pi/2 = 23.56
    text = """
[run]
mode = ground_state
[grid]
x = -1, 1, 16, sine
[params]
potential = box
k0 = 12
omega = 3
[gfdn]
init = sine_opposite
max_iters = 2
"""
    cfg = write(tmp_path, "box.cfg", text)
    assert main(["validate", cfg]) == 0
    assert "under-resolved" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "under-resolved" in (out / "FAILED").read_text()
    manifest = (out / "run_manifest.txt").read_text()
    assert manifest.count("warning under-resolved") == 1


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent.parent / "configs").glob("*.cfg")),
    ids=lambda p: p.stem)
def test_shipped_configs_validate(path, capsys):
    assert main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_ground_state_1d_run_reproduces_its_golden_outputs(tmp_path):
    # tests/golden/ground_state_1d holds the run's observables.csv and the
    # [results] section of its manifest; a change that moves these bits
    # re-pins both files and says which digits moved and why
    root = Path(__file__).parent.parent
    golden = root / "tests" / "golden" / "ground_state_1d"
    out = tmp_path / "out"
    assert main(["run", str(root / "configs" / "ground_state_1d.cfg"),
                 "--out", str(out)]) == 0
    assert ((out / "observables.csv").read_bytes()
            == (golden / "observables.csv").read_bytes())
    manifest = (out / "run_manifest.txt").read_text()
    results = manifest[manifest.index("[results]\n"):]
    results = results[:results.index("\n\n") + 1]
    assert results == (golden / "results.txt").read_text()


def test_python_dash_m_runs_the_cli_from_the_source_tree():
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "socbec", "validate",
         "configs/ground_state_1d.cfg"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout


# ---- checkpoint starts, limit-study fits and failure paths ---------------------

BOX_GS_CONFIG = """
[run]
mode = ground_state
[grid]
x = -1, 1, 32, sine
[params]
potential = box
k0 = 3
omega = 20
beta11 = 10
beta12 = 9
beta22 = 9
[gfdn]
init = sine_opposite
"""


def _rows(path):
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def test_dynamics_from_lab_checkpoint_starts_at_ground_state(tmp_path):
    # the lab companion is gauge-transformed back into the tilde frame
    cfg = write(tmp_path, "gs.cfg", BOX_GS_CONFIG)
    assert main(["run", cfg, "--out", str(tmp_path / "gs")]) == 0
    # a checkpoint start solves no ground state, so the run has no [gfdn]
    dyn = BOX_GS_CONFIG.replace("mode = ground_state", "mode = dynamics") \
        .replace("[gfdn]\ninit = sine_opposite\n", "") + """
[evolve]
tau = 1e-4
t_end = 1e-3
[initial]
kind = checkpoint
path = gs/{name}
"""

    def t0_row(name, k0):
        text = dyn.replace("k0 = 3", f"k0 = {k0}").format(name=name)
        out = tmp_path / f"dyn_{k0}_{name}"
        assert main(["run", write(tmp_path, "dyn.cfg", text),
                     "--out", str(out)]) == 0
        row = _rows(out / "observables.csv")[0]
        assert row[0] == 0.0
        return row

    gs_row = _rows(tmp_path / "gs" / "observables.csv")[0]
    np.testing.assert_allclose(t0_row("ground_state_lab.socb", 3)[1:],
                               gs_row[1:], rtol=0, atol=1e-12)
    # at another k0 both checkpoints go through the lab frame, the tilde one
    # with its own k0, so they start from the same state
    row = t0_row("ground_state.socb", 4)
    assert row == t0_row("ground_state_lab.socb", 4)
    assert abs(row[-1] - gs_row[-1]) <= 1e-12  # raman_overlap is the state's


STUDY_CONFIG = """
[run]
mode = limit_study
[grid]
x = -16, 16, 64, fourier
[params]
{params}
beta11 = 1
beta12 = 0.5
beta22 = 1
[sweep]
kind = {kind}
values = {values}
"""


@pytest.mark.parametrize("params, kind, values, fits", [
    ("omega = -2", "rate_small_k0", "0.025, 0.05, 0.1",
     ("fit_slope", "fit_intercept")),
    ("k0 = 2\nomega = 0.5", "energy_competition", "0.5, 1, 1.5",
     ("fitted_c0",)),
], ids=["rate_small_k0", "energy_competition"])
def test_limit_study_fits_reach_manifest(tmp_path, params, kind, values, fits):
    cfg = write(tmp_path, "study.cfg",
                STUDY_CONFIG.format(params=params, kind=kind, values=values))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    results = {}
    for line in (out / "run_manifest.txt").read_text().splitlines():
        key, _, value = line.partition(" ")
        if key in fits:
            results[key] = float(value)
    assert set(results) == set(fits)
    assert all(np.isfinite(v) for v in results.values())
    assert len(_rows(out / "summary.csv")) == 3
    if kind == "rate_small_k0":
        # the modulus distance responds at second order in k0
        assert results["fit_slope"] == pytest.approx(2.0, abs=0.05)


def test_dynamics_run_reports_non_finite_evolution(tmp_path, monkeypatch):
    from socbec import dynamics

    exact_phase = dynamics._nonlinear_phase
    calls = []

    def poisoned(psi, *args):
        calls.append(None)
        out = exact_phase(psi, *args)
        if len(calls) == 7:
            out[0].flat[0] = np.nan
        return out

    monkeypatch.setattr(dynamics, "_nonlinear_phase", poisoned)
    cfg = write(tmp_path, "dyn.cfg", DYN_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "non-finite values" in (out / "FAILED").read_text()
    assert "status failed" in (out / "run_manifest.txt").read_text()
    chk = load_checkpoint(out / "final_state.socb")
    assert np.isfinite(chk.spinor.psi).all()
    # the step-6 state, stamped with its own time, not the last record's
    assert chk.time == 6 * 1e-3


def test_dynamics_from_unconverged_ground_state_fails(tmp_path):
    cfg = write(tmp_path, "dyn.cfg", DYN_CONFIG.replace(
        "[initial]\nkind = gaussian\ncenter = 1.0",
        "[initial]\nkind = ground_state\n[gfdn]\nmax_iters = 1"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "ground-state solve did not converge" in \
        (out / "FAILED").read_text()


LDA_SINGULAR = DYN_CONFIG.replace("mode = dynamics", "mode = com_compare") \
    .replace("omega = 4\nk0 = 1", "omega = 0\nk0 = 0")


def test_singular_lda_force_fails_the_run(tmp_path):
    # at omega = 0 the reduced force is singular where 2*k0*Px = delta, a
    # condition on the state; here (delta = k0 = 0) it holds from the start
    cfg = write(tmp_path, "lda.cfg", LDA_SINGULAR)
    assert main(["validate", cfg]) == 0
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "singular reduced force" in (out / "FAILED").read_text()
    assert "status failed" in (out / "run_manifest.txt").read_text()


def test_run_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, "gs.cfg", GS_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["run", cfg, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(taken) in err
    assert taken.read_text() == "not a directory\n"
