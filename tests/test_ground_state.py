import numpy as np
import pytest

from socbec import (
    Axis,
    GfdnOptions,
    Params,
    Spinor,
    besp_solve,
    eigen_residual,
    energy,
    gfdn_solve,
    gfdn_step,
    lab_view,
    limit_study,
    make_grid,
    multi_start,
    solve_ground_state,
)
from socbec.states import gaussian_profile, single_component


def grid_1d(n=128, lo=-16.0, hi=16.0):
    return make_grid([Axis(lo, hi, n)])


def box_1d(n=64):
    return make_grid([Axis(-1.0, 1.0, n, "sine")])


def ho_gaussian(grid):
    x = grid.coordinate(0)
    return np.pi**-0.25 * np.exp(-(x**2) / 2.0)


# ---- single step ------------------------------------------------------------

def test_gfdn_step_stationary_at_exact_ground_state():
    g = grid_1d()
    phi = Spinor(g, ho_gaussian(g), np.zeros(g.shape))
    opts = GfdnOptions(tau=0.01, tol=1e-7)
    new = gfdn_step(phi, Params(), opts)
    moved = max(np.abs(new.psi1 - phi.psi1).max(),
                np.abs(new.psi2 - phi.psi2).max())
    assert moved <= opts.tol * opts.tau


def test_gfdn_step_projects_to_unit_norm():
    g = grid_1d(64)
    rng = np.random.default_rng(0)
    env = np.exp(-g.coordinate(0) ** 2 / 4.0)
    phi = Spinor(g, env * rng.normal(size=g.shape),
                 env * rng.normal(size=g.shape)).normalized()
    p = Params(k0=0.5, omega=-1.0, beta11=2.0, beta12=1.0, beta22=2.0)
    new = gfdn_step(phi, p, GfdnOptions(tau=0.05))
    assert abs(new.norm_sq() - 1.0) <= 1e-14


def test_gfdn_options_validation():
    with pytest.raises(ValueError):
        GfdnOptions(tau=0.0)
    with pytest.raises(ValueError):
        GfdnOptions(tol=-1.0)
    with pytest.raises(ValueError):
        GfdnOptions(stabilization_shift=-2.0)


# ---- analytic solves ---------------------------------------------------------

def test_linear_oscillator_ground_state():
    g = grid_1d()
    init = single_component(g, gaussian_profile(g, widths=2.0), 1)
    res = gfdn_solve(Params(), g, GfdnOptions(init=init))
    assert res.converged
    assert res.energy == pytest.approx(0.5, abs=1e-6)
    assert res.mu == pytest.approx(0.5, abs=1e-6)
    dist = np.sqrt(g.quadrature((np.abs(res.phi.psi1) - ho_gaussian(g)) ** 2))
    assert dist <= 1e-6


@pytest.mark.parametrize("k0", [1.0, 2.0])
def test_gauge_energy_shift_at_zero_raman(k0):
    g = grid_1d()
    res = gfdn_solve(Params(k0=k0), g, GfdnOptions())
    assert res.converged
    assert res.energy == pytest.approx(0.5 - 0.5 * k0**2, abs=1e-6)
    # omega = 0 with equal potentials and couplings: non-uniqueness reported
    assert any("not unique" in w for w in res.warnings)


def test_converged_state_solves_eigenproblem():
    g = grid_1d()
    p = Params(omega=-2.0, beta11=3.0, beta12=1.0, beta22=2.0, k0=0.5)
    opts = GfdnOptions()
    res = gfdn_solve(p, g, opts)
    assert res.converged
    assert eigen_residual(res.phi, p, res.mu) <= 10.0 * opts.tol


def test_energy_monotone_along_iterates():
    g = grid_1d(64)
    p = Params(omega=-2.0, beta11=5.0, beta12=2.0, beta22=4.0)
    phi = single_component(g, gaussian_profile(g, widths=2.0), 1)
    opts = GfdnOptions(tau=0.1)
    energies = [energy(phi, p)]
    for _ in range(300):
        phi = gfdn_step(phi, p, opts)
        energies.append(energy(phi, p))
    diffs = np.diff(energies)
    assert diffs.max() <= 1e-10
    # every projected iterate sits on the constraint sphere
    assert abs(phi.norm_sq() - 1.0) <= 1e-13


def test_global_phase_degeneracy_of_result():
    g = grid_1d()
    p = Params(omega=-2.0, beta11=1.0, beta12=0.5, beta22=1.0)
    res = gfdn_solve(p, g, GfdnOptions())
    rot = Spinor(g, np.exp(1.3j) * res.phi.psi1, np.exp(1.3j) * res.phi.psi2)
    assert energy(rot, p) == pytest.approx(res.energy, abs=1e-12)


# ---- dense imaginary-time oracle --------------------------------------------

def _dense_ground_state(grid, p, tau=0.004, iters=60_000):
    """Projected steepest descent with dense spectral matrices.

    Independent of the solver under test: explicit Euler on the same energy,
    assembled from a dense Fourier differentiation matrix.
    """
    n = grid.axes[0].n
    h = grid.spacing[0]
    x = grid.nodes[0]
    mu = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    f = np.fft.fft(np.eye(n), axis=0)
    finv = np.fft.ifft(np.eye(n), axis=0)
    kmat = (finv @ np.diag(0.5 * mu**2) @ f).real
    v = 0.5 * p.gamma_x**2 * x**2

    rng = np.random.default_rng(123)
    p1 = np.exp(-(x**2) / 2.0) * (1.0 + 0.01 * rng.normal(size=n))
    p2 = np.exp(-(x**2) / 2.0) * (1.0 + 0.01 * rng.normal(size=n))
    nrm = np.sqrt(h * np.sum(p1**2 + p2**2))
    p1, p2 = p1 / nrm, p2 / nrm
    for _ in range(iters):
        r1, r2 = p1**2, p2**2
        g1 = kmat @ p1 + (v + p.beta11 * r1 + p.beta12 * r2) * p1 \
            + 0.5 * p.omega * p2
        g2 = kmat @ p2 + (v + p.beta12 * r1 + p.beta22 * r2) * p2 \
            + 0.5 * p.omega * p1
        p1 = p1 - tau * g1
        p2 = p2 - tau * g2
        nrm = np.sqrt(h * np.sum(p1**2 + p2**2))
        p1, p2 = p1 / nrm, p2 / nrm
    return p1, p2


def test_nonlinear_solve_matches_dense_oracle():
    g = grid_1d(64)
    p = Params(omega=-2.0, beta11=10.0, beta12=10.0, beta22=10.0)
    res = multi_start(p, g, GfdnOptions())
    assert res.converged

    # strip the global phase; omega < 0 ground state is positive in both slots
    mid = np.argmax(np.abs(res.phi.psi1))
    phase = res.phi.psi1[mid] / np.abs(res.phi.psi1[mid])
    p1 = res.phi.psi1 / phase
    p2 = res.phi.psi2 / phase
    assert np.abs(p1.imag).max() <= 1e-6
    assert np.abs(p2.imag).max() <= 1e-6
    assert p2.real.min() >= -1e-6

    o1, o2 = _dense_ground_state(g, p)
    assert np.abs(np.abs(p1) - np.abs(o1)).max() <= 1e-5
    assert np.abs(np.abs(p2) - np.abs(o2)).max() <= 1e-5


# ---- box / tilde solves -------------------------------------------------------

def test_besp_equals_gfdn_at_k0_zero():
    g = box_1d()
    p_lab = Params(omega=-2.0, beta11=2.0, beta12=1.0, beta22=2.0,
                   potential="box", frame="lab")
    p_tilde = p_lab.with_(frame="tilde")
    opts = GfdnOptions(init="sine_pair")
    a = gfdn_solve(p_lab, g, opts)
    b = besp_solve(p_tilde, g, opts)
    assert a.converged and b.converged
    assert a.energy == pytest.approx(b.energy, abs=1e-8)
    assert np.abs(np.abs(a.phi.psi1) - np.abs(b.phi.psi1)).max() <= 1e-8


def test_besp_validation_errors():
    g = box_1d()
    p = Params(potential="box", frame="tilde")
    with pytest.raises(ValueError):
        besp_solve(p.with_(frame="lab"), g)
    with pytest.raises(ValueError):
        besp_solve(p.with_(potential="harmonic"), g)
    with pytest.raises(ValueError):
        besp_solve(p, grid_1d())
    with pytest.raises(ValueError):
        gfdn_solve(Params(potential="box", frame="lab", k0=1.0), g)


def test_besp_max_iters_guard_returns_flagged_result():
    g = box_1d(32)
    p = Params(omega=50.0, beta11=10.0, beta12=9.0, beta22=9.0,
               potential="box", frame="tilde")
    res = besp_solve(p, g, GfdnOptions(max_iters=1))
    assert not res.converged
    assert res.iterations == 1
    assert any("did not reach" in w for w in res.warnings)


def test_single_component_structure_at_zero_raman_box():
    # beta11 > beta12 = beta22 with no Raman coupling drains the first slot
    g = make_grid([Axis(-1.0, 1.0, 32, "sine"), Axis(-1.0, 1.0, 32, "sine")])
    p = Params(omega=0.0, beta11=10.0, beta12=9.0, beta22=9.0,
               potential="box", frame="tilde")
    res = solve_ground_state(p, g, GfdnOptions(init="auto", max_iters=20_000))
    n1 = np.sqrt(g.quadrature(np.abs(res.phi.psi1) ** 2))
    assert n1 <= 1e-3


def test_lab_view_of_tilde_result():
    g = box_1d()
    p = Params(k0=1.5, omega=3.0, beta11=2.0, beta12=1.0, beta22=2.0,
               potential="box", frame="tilde")
    res = besp_solve(p, g, GfdnOptions(init="sine_opposite"))
    phi_lab, e_lab = lab_view(res, p)
    assert e_lab == pytest.approx(res.energy - 0.5 * p.k0**2, abs=1e-12)
    # gauge factors leave the densities untouched
    assert np.abs(np.abs(phi_lab.psi1) - np.abs(res.phi.psi1)).max() <= 1e-14
    # direct evaluation of the lab functional in the sine basis carries a
    # spatial representation error (the gauge factor is not odd-extendable);
    # it converges to the identity value with n
    assert energy(phi_lab, p.with_(frame="lab")) == pytest.approx(e_lab,
                                                                  abs=1e-5)


# ---- multi start ---------------------------------------------------------------

def test_multi_start_single_equals_direct():
    g = grid_1d(64)
    p = Params(omega=-2.0, beta11=1.0, beta12=0.5, beta22=1.0)
    a = multi_start(p, g, GfdnOptions(), starts=["gaussian_pair"])
    b = gfdn_solve(p, g, GfdnOptions(init="gaussian_pair"))
    assert a.energy == b.energy
    assert np.array_equal(a.phi.psi1, b.phi.psi1)


def test_multi_start_identical_starts_identical_result():
    g = grid_1d(64)
    p = Params(omega=-2.0, beta11=1.0, beta12=0.5, beta22=1.0)
    res = multi_start(p, g, GfdnOptions(),
                      starts=["gaussian_pair", "gaussian_pair"])
    single = gfdn_solve(p, g, GfdnOptions(init="gaussian_pair"))
    assert res.energy == single.energy


def test_multi_start_selects_minimum():
    g = grid_1d(64)
    p = Params(omega=3.0, beta11=4.0, beta12=6.0, beta22=4.0)
    starts = ["gaussian_pair", "gaussian_opposite"]
    individual = [gfdn_solve(p, g, GfdnOptions(init=s)) for s in starts]
    best = multi_start(p, g, GfdnOptions(), starts=starts)
    assert best.energy <= min(r.energy for r in individual) + 1e-14


def test_multi_start_threads_deterministic():
    g = grid_1d(64)
    p = Params(omega=3.0, beta11=4.0, beta12=6.0, beta22=4.0)
    starts = ["gaussian_pair", "gaussian_opposite"]
    a = multi_start(p, g, GfdnOptions(), starts=starts, threads=1)
    b = multi_start(p, g, GfdnOptions(), starts=starts, threads=2)
    assert a.energy == b.energy
    assert np.array_equal(a.phi.psi1, b.phi.psi1)


def test_multi_start_threads_deterministic_on_box():
    # the 2D box transforms are BLAS matrix products run inside the pool
    g = make_grid([Axis(-1.0, 1.0, 64, "sine"), Axis(-1.0, 1.0, 64, "sine")])
    p = Params(k0=10.0, omega=50.0, beta11=10.0, beta12=9.0, beta22=9.0,
               potential="box", frame="tilde")
    starts = ["sine_pair", "sine_opposite"]
    opts = GfdnOptions(max_iters=200)
    a = multi_start(p, g, opts, starts=starts, threads=1)
    b = multi_start(p, g, opts, starts=starts, threads=2)
    assert a.energy == b.energy
    assert np.array_equal(a.phi.psi, b.phi.psi)


def test_multi_start_needs_starts():
    g = grid_1d(64)
    with pytest.raises(ValueError):
        multi_start(Params(), g, GfdnOptions(), starts=[])


# ---- limit studies --------------------------------------------------------------

def test_limit_study_large_delta_drains_first_component():
    g = grid_1d(64)
    p = Params(omega=-2.0, beta11=1.0, beta12=0.5, beta22=1.0)
    study = limit_study("large_delta", p, g, [10.0, 40.0, 160.0], GfdnOptions())
    norms = study.diagnostics["first_component_norm"]
    assert norms[0] > norms[1] > norms[2]


def test_limit_study_small_k0_rate():
    # the modulus responds quadratically in k0 (the O(k0) response is a pure
    # phase), well inside the C*|k0| bound; the phase-aligned distance shows
    # the linear response
    g = grid_1d()
    p = Params(omega=-2.0, beta11=1.0, beta12=0.5, beta22=1.0)
    study = limit_study("rate_small_k0", p, g,
                        [0.0125, 0.025, 0.05, 0.1], GfdnOptions())
    errs = study.diagnostics["dist_to_k0_zero"]
    assert errs[0] < errs[1] < errs[2] < errs[3]
    assert study.slope == pytest.approx(2.0, abs=0.25)
    # the linear upper bound holds with a modest constant
    assert all(e <= 1.0 * k for e, k in zip(errs, [0.0125, 0.025, 0.05, 0.1]))
    aligned = study.diagnostics["state_dist_to_k0_zero"]
    ratios = np.log(aligned[-1] / aligned[0]) / np.log(0.1 / 0.0125)
    assert ratios == pytest.approx(1.0, abs=0.25)


def test_limit_study_rate_needs_three_points():
    g = grid_1d(64)
    with pytest.raises(ValueError):
        limit_study("rate_small_k0", Params(omega=-2.0), g, [0.1, 0.2])


@pytest.mark.parametrize("kind", ["rate_small_k0", "rate_large_k0"])
def test_limit_study_rate_needs_positive_k0(kind):
    # the fits take log(k0) and 1/sqrt(k0)
    g = grid_1d(64)
    with pytest.raises(ValueError, match="positive k0"):
        limit_study(kind, Params(omega=-2.0), g, [0.0, 0.1, 0.2])


def test_limit_study_unknown_kind():
    g = grid_1d(64)
    with pytest.raises(ValueError):
        limit_study("bogus", Params(), g, [1.0, 2.0])


def test_limit_study_energy_competition():
    # |k0| << |omega| << k0^2 at k0 = 8: excess energy below -k0^2/2, growing
    # in magnitude with omega^2
    g = grid_1d(512)
    p = Params(k0=8.0, omega=16.0)
    study = limit_study("energy_competition", p, g, [16.0, 24.0, 32.0],
                        GfdnOptions(max_iters=60_000))
    excess = study.diagnostics["energy_excess"]
    assert all(e < 0.0 for e in excess)
    assert abs(excess[0]) < abs(excess[1]) < abs(excess[2])
    assert study.fitted_c0 is not None and study.fitted_c0 > 0.0


def test_3d_linear_oscillator():
    # n=32 per axis resolves the Gaussian tail past mu = 2*pi
    g = make_grid([Axis(-8.0, 8.0, 32)] * 3)
    res = gfdn_solve(Params(), g, GfdnOptions(init="gaussian_pair"))
    assert res.converged
    assert res.energy == pytest.approx(1.5, abs=1e-6)


def test_limit_study_large_k0_rate_reports_fit():
    # the bound is C/sqrt(k0); the measured decay is at least that fast, so
    # the fitted slope against 1/sqrt(k0) comes out >= 1
    g = grid_1d(512)
    p = Params(omega=-2.0, beta11=1.0, beta12=0.5, beta22=1.0)
    study = limit_study("rate_large_k0", p, g, [4.0, 8.0, 16.0],
                        GfdnOptions(max_iters=60_000))
    errs = study.diagnostics["dist_to_no_raman"]
    assert errs[0] > errs[1] > errs[2]
    assert study.slope is not None and study.slope >= 0.8


def test_history_recording_and_monotone_energy():
    g = grid_1d(64)
    p = Params(omega=-2.0, beta11=2.0, beta12=1.0, beta22=2.0)
    res = gfdn_solve(p, g, GfdnOptions(record_every=5))
    hist = res.history
    assert len(hist["iterations"]) == len(hist["energy"])
    assert np.diff(hist["energy"]).max() <= 1e-10
    assert not any("energy increased" in w for w in res.warnings)
