from pathlib import Path

import numpy as np
import pytest

from socbec import Axis, Params, Spinor, load_checkpoint, make_grid, save_checkpoint
from socbec.cli import main

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


def test_ground_state_run_and_determinism(tmp_path):
    cfg = write(tmp_path, "gs.cfg", GS_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    assert (out1 / "observables.csv").read_bytes() == \
        (out2 / "observables.csv").read_bytes()
    assert (out1 / "run_manifest.txt").read_bytes() == \
        (out2 / "run_manifest.txt").read_bytes()
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


def test_dynamics_from_checkpoint_grid_mismatch(tmp_path):
    other = make_grid([Axis(-1.0, 1.0, 16, "sine")])
    phi = Spinor(other, np.zeros(other.shape), np.zeros(other.shape))
    save_checkpoint(tmp_path / "seed.socb", phi,
                    Params(potential="box", frame="tilde"))
    cfg = write(tmp_path, "dyn.cfg", DYN_CONFIG.replace(
        "[initial]\nkind = gaussian\ncenter = 1.0",
        "[initial]\nkind = checkpoint\npath = seed.socb"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "grid" in (out / "FAILED").read_text()


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


def test_env_threads_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SOCBEC_THREADS", "2")
    cfg = write(tmp_path, "gs.cfg", GS_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0


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
    assert "lab_energy" in (out / "run_manifest.txt").read_text()


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
    assert main(["run", cfg, "--out", str(out), "--threads", "2"]) == 0
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

RATE_SWEEP_ZERO_K0 = GS_CONFIG.replace("mode = ground_state", "mode = limit_study") \
    + "[sweep]\nkind = rate_small_k0\nvalues = 0, 0.1, 0.2\n"

RATE_SWEEP_REPEATED = GS_CONFIG.replace("mode = ground_state", "mode = limit_study") \
    + "[sweep]\nkind = rate_small_k0\nvalues = 0.1, 0.1, 0.1\n"

NEGATIVE_SNAPSHOT_EVERY = DYN_CONFIG.replace("snapshot_every = 25",
                                             "snapshot_every = -3")


@pytest.mark.parametrize("text, needle", [
    (HARMONIC_ON_SINE, "Fourier grid"),
    (BOX_ON_FOURIER, "sine-basis"),
    (T_END_NOT_MULTIPLE, "multiple of tau"),
    (LDA_T_END_NOT_MULTIPLE, "multiple of tau"),
    (RATE_SWEEP_ZERO_K0, "positive k0"),
    (RATE_SWEEP_REPEATED, "repeated sweep values"),
    (NEGATIVE_SNAPSHOT_EVERY, "snapshot_every"),
], ids=["harmonic_on_sine", "box_on_fourier", "t_end_not_multiple",
        "lda_t_end_not_multiple", "rate_sweep_zero_k0", "rate_sweep_repeated",
        "negative_snapshot_every"])
def test_validate_and_run_reject_alike(tmp_path, capsys, text, needle):
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["validate", cfg]) == 1
    assert needle in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
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
