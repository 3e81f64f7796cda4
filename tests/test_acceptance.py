"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run `pytest -s` to stream them)
and then asserts.  Criteria 7, 8, 10 and 12 run 2D desk-scale solves and
take a few minutes together.

Criterion 9 is implemented exactly as stated and is expected to FAIL: the
fitted modulus-distance slope is 2.0, not 1.0 +- 0.3, because the leading
small-k0 response of the ground state is a pure phase (the spin-orbit
perturbation enters a real linearized operator through an imaginary source),
so the modulus moves only at second order.  The stated C*|k0| upper bound
itself holds.  An independent dense minimizer reproduces the measured
distances to five digits; see the companion phase-aligned diagnostic, whose
slope is 1.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from socbec import (
    Axis,
    ComClosedFormInputs,
    EvolveOptions,
    GfdnOptions,
    Params,
    Spinor,
    build_box_rotation,
    build_mode_propagators,
    box_step,
    evolve,
    gfdn_solve,
    lda_ode_solve,
    limit_study,
    make_grid,
    multi_start,
    parse_config,
    run,
    lda_initial_from_imbalance,
    tsfp_step,
    xc_closed_form,
)
from socbec.states import gaussian_profile, single_component


def report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}",
          flush=True)
    assert ok, f"criterion {num}: {detail}"


def line_grid(n=128, lo=-16.0, hi=16.0):
    return make_grid([Axis(lo, hi, n)])


def box_grid_2d(n=64):
    return make_grid([Axis(-1.0, 1.0, n, "sine"), Axis(-1.0, 1.0, n, "sine")])


def plane_grid_2d(n=64, half=8.0):
    return make_grid([Axis(-half, half, n), Axis(-half, half, n)])


def gaussian_2d(grid, center, width=1.0):
    prof = gaussian_profile(grid, center=list(center), widths=width)
    return single_component(grid, prof, 1)


def test_criterion_01_analytic_ground_state():
    g = line_grid()
    t0 = time.perf_counter()
    init = single_component(g, gaussian_profile(g, widths=2.0), 1)
    res = gfdn_solve(Params(gamma_x=1.0), g, GfdnOptions(init=init))
    elapsed = time.perf_counter() - t0
    x = g.coordinate(0)
    exact = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    dist = np.sqrt(g.quadrature((np.abs(res.phi.psi1) - exact) ** 2))
    ok = (abs(res.energy - 0.5) <= 1e-6 and abs(res.mu - 0.5) <= 1e-6
          and dist <= 1e-6 and elapsed <= 5.0)
    report(1, ok,
           f"analytic ground state: |E-0.5|={abs(res.energy - 0.5):.2e}, "
           f"|mu-0.5|={abs(res.mu - 0.5):.2e}, dist={dist:.2e}, "
           f"t={elapsed:.2f}s")


def test_criterion_02_gauge_energy_shift():
    g = line_grid()
    errs = []
    for k0 in (1.0, 2.0):
        res = gfdn_solve(Params(k0=k0), g, GfdnOptions())
        errs.append(abs(res.energy - (0.5 - 0.5 * k0**2)))
    ok = max(errs) <= 1e-6
    report(2, ok, f"gauge energy shift: errors={[f'{e:.2e}' for e in errs]}")


def test_criterion_03_mode_propagator_oracle():
    rng = np.random.default_rng(2024)
    max_err = 0.0
    max_orth = 0.0
    for _ in range(200):
        length = rng.uniform(2.0, 40.0)
        g = make_grid([Axis(-0.5 * length, 0.5 * length, 8)])
        k0 = rng.normal(0.0, 3.0)
        delta = rng.normal(0.0, 3.0)
        omega = rng.normal(0.0, 5.0) or 1.0
        tau = 10 ** rng.uniform(-4.0, -1.0)
        prop = build_mode_propagators(g, Params(k0=k0, omega=omega,
                                                delta=delta), tau)
        q = prop.q
        qqt = np.einsum("ij...,kj...->ik...", q, q)
        max_orth = max(max_orth,
                       np.abs(qqt - np.eye(2)[:, :, None]).max())
        idx = rng.integers(0, 8)
        mu = g.wavenumbers[0][idx]
        chi = k0 * mu - 0.5 * delta
        symbol = np.array([[0.5 * mu**2 - chi, 0.5 * omega],
                           [0.5 * omega, 0.5 * mu**2 + chi]])
        exact = expm(-0.5j * tau * symbol)
        qm = q[:, :, idx]
        d = np.diag([prop.phases[0][idx], prop.phases[1][idx]])
        max_err = max(max_err, np.abs(qm.T @ d @ qm - exact).max())
    ok = max_err <= 1e-12 and max_orth <= 1e-13
    report(3, ok, f"mode propagator oracle: exp err={max_err:.2e}, "
                  f"orthogonality={max_orth:.2e}")


def test_criterion_04_conservation_in_dynamics():
    g = line_grid()
    p = Params(k0=1.0, omega=20.0, beta11=10.0, beta12=10.0, beta22=10.0)
    x = g.coordinate(0)
    psi0 = Spinor(g, np.pi**-0.25 * np.exp(-((x - 1.0) ** 2) / 2.0),
                  np.zeros(g.shape))
    series = evolve(psi0, p, EvolveOptions(tau=1e-3, t_end=1.0, record_every=1))
    mass_err = np.abs(series.column("mass") - 1.0).max()
    e = series.column("energy")
    e_drift = np.abs(e - e[0]).max() / abs(e[0])
    ok = mass_err <= 1e-12 and e_drift <= 1e-6
    report(4, ok, f"conservation: |N-1|={mass_err:.2e}, "
                  f"energy drift={e_drift:.2e}")


def test_criterion_05_temporal_order():
    # TSFP with a smooth trapped state
    g = line_grid(128)
    x = g.coordinate(0)
    p = Params(k0=1.0, omega=4.0, delta=0.3, beta11=2.0, beta12=1.5,
               beta22=1.0)
    psi0 = Spinor(g, np.exp(-(x**2) / 2.0),
                  0.4 * np.exp(-(x**2) / 2.0)).normalized()

    def tsfp_terminal(tau, t_end=0.4):
        prop = build_mode_propagators(g, p, tau)
        psi = psi0
        for _ in range(int(round(t_end / tau))):
            psi = tsfp_step(psi, p, prop, tau)
        return psi

    ref = tsfp_terminal(2.5e-4)
    e1 = tsfp_terminal(2e-3)
    e2 = tsfp_terminal(1e-3)
    r_tsfp = (max(np.abs(e1.psi1 - ref.psi1).max(),
                  np.abs(e1.psi2 - ref.psi2).max())
              / max(np.abs(e2.psi1 - ref.psi1).max(),
                    np.abs(e2.psi2 - ref.psi2).max()))

    # box splitting with a bandlimited Dirichlet state
    from scipy import fft as sfft

    gb = make_grid([Axis(-1.0, 1.0, 32, "sine")])
    c1 = np.zeros(31, complex)
    c2 = np.zeros(31, complex)
    c1[:4] = [1.0, 0.3 + 0.2j, 0.1j, 0.05]
    c2[:4] = [0.6 - 0.1j, 0.2, 0.0, 0.1]
    psi0b = Spinor(gb, sfft.dst(c1, type=1) / 2.0,
                   sfft.dst(c2, type=1) / 2.0).normalized()
    pb = Params(k0=2.0, omega=4.0, delta=0.7, beta11=3.0, beta12=2.0,
                beta22=1.0, potential="box", frame="tilde")

    def box_terminal(tau, t_end=0.2):
        psi = psi0b
        rot = build_box_rotation(gb, pb, tau)
        for _ in range(int(round(t_end / tau))):
            psi = box_step(psi, pb, tau, rotation=rot)
        return psi

    refb = box_terminal(2.5e-4)
    b1 = box_terminal(2e-3)
    b2 = box_terminal(1e-3)
    r_box = (max(np.abs(b1.psi1 - refb.psi1).max(),
                 np.abs(b1.psi2 - refb.psi2).max())
             / max(np.abs(b2.psi1 - refb.psi1).max(),
                   np.abs(b2.psi2 - refb.psi2).max()))

    ok = abs(r_tsfp - 4.0) <= 0.8 and abs(r_box - 4.0) <= 0.8
    report(5, ok, f"temporal order: tsfp ratio={r_tsfp:.2f}, "
                  f"box ratio={r_box:.2f} (target 4 +- 0.8)")


def test_criterion_06_mass_split_at_zero_raman():
    g = line_grid()
    x = g.coordinate(0)
    p = Params(k0=1.5, delta=0.7, beta11=3.0, beta12=2.0, beta22=1.0)
    psi0 = Spinor(g, 0.9 * np.pi**-0.25 * np.exp(-(x**2) / 2.0),
                  0.45 * np.pi**-0.25 * np.exp(-((x - 0.5) ** 2) / 2.0))
    psi0 = psi0.normalized()
    series = evolve(psi0, p, EvolveOptions(tau=1e-3, t_end=1.0,
                                           record_every=1))
    dn = series.column("delta_n")
    drift = np.abs(dn - dn[0]).max()
    ok = drift <= 1e-10
    report(6, ok, f"omega=0 mass split over 1000 steps: drift={drift:.2e}")


@pytest.mark.slow
def test_criterion_07_large_k0_raman_removal():
    t0 = time.perf_counter()
    g = box_grid_2d(64)
    p = Params(omega=50.0, beta11=10.0, beta12=9.0, beta22=9.0,
               potential="box", frame="tilde")
    study = limit_study("large_k0", p, g, [1.0, 5.0, 10.0, 50.0],
                        GfdnOptions(max_iters=12_000))
    elapsed = time.perf_counter() - t0
    raman = study.diagnostics["raman_coupling_abs"]
    dist = study.diagnostics["dist_to_no_raman"]
    monotone = all(raman[i] > raman[i + 1] for i in range(len(raman) - 1))
    ok = monotone and dist[-1] <= 0.05 and elapsed <= 600.0
    report(7, ok,
           "large-k0 Raman removal: |Omega*overlap|="
           f"{[f'{v:.3g}' for v in raman]}, dist(k0=50)={dist[-1]:.4f}, "
           f"t={elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_large_omega_symmetrization():
    t0 = time.perf_counter()
    g = box_grid_2d(64)
    p = Params(k0=10.0, beta11=10.0, beta12=9.0, beta22=9.0,
               potential="box", frame="tilde")
    study = limit_study("large_omega", p, g, [50.0, 200.0, 500.0],
                        GfdnOptions(max_iters=60_000))
    elapsed = time.perf_counter() - t0
    asym = study.diagnostics["component_asymmetry"]
    ok = asym[0] > asym[1] > asym[2]
    report(8, ok, f"large-Omega symmetrization: |||phi1|-|phi2|||="
                  f"{[f'{v:.4f}' for v in asym]}, t={elapsed:.0f}s")


def test_criterion_09_small_k0_rate():
    g = line_grid()
    p = Params(omega=-2.0, beta11=1.0, beta12=0.5, beta22=1.0)
    study = limit_study("rate_small_k0", p, g, [0.0125, 0.025, 0.05, 0.1],
                        GfdnOptions())
    slope = study.slope
    aligned = study.diagnostics["state_dist_to_k0_zero"]
    phase_slope = float(np.polyfit(np.log([0.0125, 0.025, 0.05, 0.1]),
                                   np.log(aligned), 1)[0])
    ok = abs(slope - 1.0) <= 0.3
    report(9, ok,
           f"small-k0 rate: modulus-distance slope={slope:.3f} "
           f"(stated window 1.0 +- 0.3; see ledger - the modulus responds "
           f"at second order, phase-aligned slope={phase_slope:.3f})")


def test_criterion_10_transverse_periodicity():
    g = plane_grid_2d(64)
    p = Params(k0=1.0, omega=3.0, delta=0.2, beta11=2.0, beta12=1.0,
               beta22=2.0, gamma_x=1.5, gamma_y=1.0)
    psi0 = gaussian_2d(g, (0.5, 1.0))
    # real initial data: P_y(0)=0, so the tiny t_end/2pi mismatch is O(dt^2)
    series = evolve(psi0, p, EvolveOptions(tau=1e-3, t_end=6.283,
                                           record_every=6283))
    dev = abs(series.xc[-1, 1] - series.xc[0, 1])
    ok = dev <= 1e-3
    report(10, ok, f"transverse periodicity: |y_c(2pi)-y_c(0)|={dev:.2e}")


def test_criterion_11_short_time_com_approximation():
    g = plane_grid_2d(64)
    p = Params(k0=1.0, omega=20.0, beta11=10.0, beta12=10.0, beta22=10.0,
               gamma_x=1.0, gamma_y=1.0)
    psi0 = gaussian_2d(g, (1.0, 1.0))
    series = evolve(psi0, p, EvolveOptions(tau=1e-3, t_end=2.0,
                                           record_every=10))
    inputs = ComClosedFormInputs.from_state(psi0, p)
    approx = xc_closed_form(inputs, series.times)
    dev = np.abs(series.xc[:, 0] - approx).max()
    ok = dev <= 0.1
    report(11, ok, f"short-time com approximation: max dev={dev:.4f}")


def test_criterion_12_lda_ode_agreement():
    t0 = time.perf_counter()
    g = plane_grid_2d(64)
    p = Params(k0=2.0, omega=50.0, beta11=10.0, beta12=10.0, beta22=10.0,
               gamma_x=2.0, gamma_y=2.0)
    gs = multi_start(p, g, GfdnOptions())
    assert gs.converged, "ground-state solve must converge"
    shift = (2.0, 2.0)
    steps = [int(round(s / h)) for s, h in zip(shift, g.spacing)]
    psi0 = Spinor(g, np.roll(gs.phi.psi1, steps, axis=(0, 1)),
                  np.roll(gs.phi.psi2, steps, axis=(0, 1)))
    series = evolve(psi0, p, EvolveOptions(tau=1e-3, t_end=10.0,
                                           record_every=20))

    dn0 = gs.phi.component_masses()
    lda = lda_ode_solve(lda_initial_from_imbalance(series.xc[0, 0],
                                            dn0[0] - dn0[1], p),
                        p, 1e-3, 20.0)
    drift = np.abs(lda.conserved - lda.conserved[0]).max()
    xc_lda = np.interp(series.times, lda.times, lda.xc)
    dev = np.abs(series.xc[:, 0] - xc_lda).max()
    elapsed = time.perf_counter() - t0
    ok = drift <= 1e-8 and dev <= 0.15
    report(12, ok, f"LDA ODE: conserved drift={drift:.2e}, "
                   f"max|xc_pde-xc_lda|={dev:.4f}, t={elapsed:.0f}s")


DET_CONFIG = """
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
record_every = 5
[initial]
kind = gaussian
center = 1.0
"""


def test_criterion_13_determinism(tmp_path):
    cfg = parse_config(DET_CONFIG)
    assert run(cfg, out_dir=tmp_path / "a") == 0
    assert run(cfg, out_dir=tmp_path / "b") == 0
    same = ((tmp_path / "a" / "observables.csv").read_bytes()
            == (tmp_path / "b" / "observables.csv").read_bytes())
    report(13, same, "determinism: byte-identical observables.csv on rerun")
