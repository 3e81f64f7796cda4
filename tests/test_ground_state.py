import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy import fft as sfft

from socbec import (
    Axis,
    GfdnOptions,
    Params,
    Spinor,
    besp_solve,
    chemical_potential,
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
from socbec import ground_state
from socbec.grid import DENSE_SINE_MAX_N, Grid, _dst1_pair
from socbec.ground_state import default_starts
from socbec.model import Discretization, abs2, discretization
from socbec.states import build_initial_state, gaussian_profile, single_component


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
    # an unconverged result reports the eigen residual of its state too
    assert res.residual == eigen_residual(res.phi, p) > GfdnOptions().tol


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
    assert energy(phi_lab, p.with_(frame="lab")) == pytest.approx(e_lab,
                                                                  rel=1e-12)


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


SWEEP_1D = Params(omega=-2.0, beta11=1.0, beta12=0.5, beta22=1.0)


def counted_solves(monkeypatch):
    """Every `gfdn_solve` result, in call order, through the module hook."""
    solved = []

    def call(*args, _solve=ground_state.gfdn_solve, **kwargs):
        res = _solve(*args, **kwargs)
        solved.append(res)
        return res

    monkeypatch.setattr(ground_state, "gfdn_solve", call)
    return solved


def test_multi_start_saddle_does_not_absorb_the_ground_state(monkeypatch):
    # the opposite start converges to the E = +1.6438 excited state; the pair
    # start passes far from it and must run on to the ground state
    solved = counted_solves(monkeypatch)
    best = multi_start(SWEEP_1D, grid_1d(), GfdnOptions(),
                       starts=["gaussian_opposite", "gaussian_pair"])
    saddle, pair = solved
    assert saddle.converged and saddle.energy > 1.6
    assert pair.converged and best is pair
    assert best.energy == pytest.approx(-0.35615008028781, abs=1e-10)


def test_multi_start_merges_into_the_earliest_start(monkeypatch):
    g, p = grid_1d(), SWEEP_1D.with_(k0=0.05)
    starts = ["gaussian_pair", "gaussian_opposite"]
    alone = gfdn_solve(p, g, GfdnOptions(init="gaussian_pair"))
    solved = counted_solves(monkeypatch)
    best = multi_start(p, g, GfdnOptions(), starts=starts)
    pair, opposite = solved
    assert best is pair
    assert np.array_equal(best.phi.psi, alone.phi.psi)
    # run to its own tolerance the opposite start takes 4,935 iterations
    assert not opposite.converged and opposite.iterations <= 4_000
    assert any("merged into start 0" in w for w in opposite.warnings)


def test_multi_start_merges_a_start_that_certifies_at_its_first_refresh(
        monkeypatch):
    # a start at the converged state certifies at its first refresh, where
    # the residual test runs before the flow's own merge test; the
    # selection's duplicate test catches it
    g, p = grid_1d(), SWEEP_1D.with_(k0=0.05)
    res = gfdn_solve(p, g, GfdnOptions())
    assert res.converged and res.iterations == 680
    solved = counted_solves(monkeypatch)
    best = multi_start(p, g, GfdnOptions(), starts=[res.phi, res.phi])
    first, second = solved
    assert second.converged
    assert second.iterations == ground_state.MU_UPDATE_EVERY == 10
    assert "merged into start 0" in second.warnings
    assert best is first


def test_every_result_reports_the_residual_of_its_state(monkeypatch):
    # converged is residual < tol, and residual is the eigen residual of the
    # returned state, whether the solve certified, merged or ran out of
    # iterations between refreshes
    results = []

    def checked(solve):
        def call(params, grid, options, merge_into=None):
            res = solve(params, grid, options, merge_into)
            assert res.converged == (res.residual < options.tol)
            assert res.residual == eigen_residual(res.phi, params)
            results.append(res)
            return res
        return call

    for name in ("gfdn_solve", "besp_solve"):
        monkeypatch.setattr(ground_state, name,
                            checked(getattr(ground_state, name)))
    g, p = grid_1d(), SWEEP_1D.with_(k0=0.05)
    best = multi_start(p, g, GfdnOptions(),
                       starts=["gaussian_pair", "gaussian_opposite"])
    pair, opposite = results
    assert best is pair and pair.converged
    assert not opposite.converged
    assert "merged into start 0" in opposite.warnings
    short = ground_state.gfdn_solve(p, g, GfdnOptions(init=best.phi,
                                                      max_iters=5))
    assert short.converged and short.iterations == 5
    results.clear()
    box = Params(k0=3.0, omega=20.0, beta11=10.0, beta12=9.0, beta22=9.0,
                 potential="box", frame="tilde")
    study = limit_study("large_delta", box, box_1d(32), [10.0, 40.0])
    # 2 default starts, then the warm start and 2 more
    assert len(results) == 5
    assert all(any(r is s for s in results) for r in study.results)


def test_a_converged_solve_transforms_only_in_steps_and_refreshes(monkeypatch):
    # N iterations take N inverses, and N + 1 forwards with the modes the
    # last refresh returns for a step never taken; every refresh (set-up
    # included) takes one more forward for the energy, whose modes it reuses
    # for the eigen residual; certifying takes one exact residual pair, and
    # the result's energy and mu are the last refresh's
    calls = {"forward": 0, "inverse": 0}

    def counted(name):
        transform = getattr(Grid, name)

        def call(self, *args, **kwargs):
            calls[name] += 1
            return transform(self, *args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(Grid, name, counted(name))
    res = gfdn_solve(SWEEP_1D.with_(k0=0.05), grid_1d(), GfdnOptions())
    n = res.iterations
    assert res.converged and n == 680
    refreshes = n // ground_state.MU_UPDATE_EVERY + 1
    assert calls == {"forward": (n + 1) + refreshes + 1, "inverse": n + 1}


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
    # the one-inner-product distance keeps 1e-9 relative precision at these
    # distances against the exact sqrt(h)*||a - e^{i theta} b||
    ref = multi_start(p.with_(k0=0.0), g, GfdnOptions()).phi.psi
    for r, d in zip(study.results, aligned):
        overlap = np.vdot(ref, r.phi.psi)
        exact = np.sqrt(g.cell_volume) * np.linalg.norm(
            r.phi.psi - overlap / abs(overlap) * ref)
        assert d == pytest.approx(exact, rel=1e-9)


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


@pytest.mark.parametrize("grid, params, omegas", [
    (grid_1d(64), Params(k0=2.0, omega=0.5, beta11=1.0, beta12=0.5,
                         beta22=1.0), [0.5, 1.0, 1.5]),
    (box_1d(32), Params(k0=4.0, omega=1.0, beta11=1.0, beta12=0.5,
                        beta22=1.0, potential="box", frame="tilde"),
     [1.0, 2.0, 3.0]),
], ids=["lab", "tilde"])
def test_energy_competition_excess_reads_the_lab_energy(
        grid, params, omegas):
    # E_g is the lab energy; the tilde energy already carries the +k0^2/2
    study = limit_study("energy_competition", params, grid, omegas)
    excess = study.diagnostics["energy_excess"]
    half_k0_sq = 0.5 * params.k0**2
    for e, r in zip(excess, study.results):
        assert e == lab_view(r, params)[1] + half_k0_sq
        if params.frame == "lab":
            assert e == r.energy + half_k0_sq
        else:
            assert e == pytest.approx(r.energy, abs=1e-12)


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


@pytest.mark.parametrize("p, opts, rises", [
    pytest.param(Params(omega=-2.0, beta11=2.0, beta12=1.0, beta22=2.0),
                 GfdnOptions(), False, id="converging"),
    # tau far above the stable range for this coupling: the iterates climb
    pytest.param(Params(k0=3.0, omega=-2.0, beta11=100.0, beta12=50.0,
                        beta22=100.0),
                 GfdnOptions(tau=0.5, max_iters=200), True, id="tau_too_large"),
])
def test_energy_rise_warning(p, opts, rises):
    g = grid_1d(128)
    res = gfdn_solve(p, g, opts)
    assert res.converged != rises
    assert any("energy increased" in w for w in res.warnings) == rises


# ---- the stabilization shift -------------------------------------------------

COM_2D_GRID = make_grid([Axis(-8.0, 8.0, 64), Axis(-8.0, 8.0, 64)])
COM_2D_PARAMS = Params(k0=2.0, omega=50.0, beta11=10.0, beta12=10.0,
                       beta22=10.0, gamma_x=2.0, gamma_y=2.0)
SWEEP_1D_PARAMS = Params(k0=0.0125, omega=-2.0, beta11=1.0, beta12=0.5,
                         beta22=1.0)
BOX_GS_GRID = make_grid([Axis(-1.0, 1.0, 64, "sine")] * 2)
BOX_GS_PARAMS = Params(k0=10.0, omega=50.0, beta11=10.0, beta12=9.0,
                       beta22=9.0, potential="box", frame="tilde")


BOX_1D_PARAMS = Params(k0=2.0, omega=5.0, beta11=10.0, beta12=9.0,
                       beta22=9.0, potential="box", frame="tilde")


def check_refresh(flow, psi, tau):
    """The step, shift and guard of `refresh` on `psi`, as documented."""
    d = flow.disc
    e, quartic = d.energy_parts(psi)
    mu = e + quartic
    floor = flow.guard_floor(mu)
    # the guard is read off the discrete symbol, not off a frame rule
    assert floor == mu - d.symbol.min()
    pot = d.potential(psi)
    u = float(pot.max())
    # the bound of the linearized explicit term, V + 3*beta*rho + |omega|/2
    u_lin = float((3.0 * pot - 2.0 * d.v).max()) + 0.5 * abs(d.params.omega)
    assert u_lin > floor
    step = max(tau, 1.0 / (u_lin - floor))
    assert flow.tau == step
    assert flow.alpha == min(0.5 * u, 0.5 * (u + 0.5 * abs(d.params.omega)
                                             + floor) - 1.0 / step)
    assert flow.alpha <= 0.5 * u  # never above the tau-independent shift
    if flow.alpha < floor:
        # at the guard every denominator is >= 1, the lowest mode's exactly 1
        assert abs(flow.inv_den.max() - 1.0) <= 1e-12
    if step > tau:
        # a raised step runs at the guard floor
        assert flow.alpha < floor
        assert np.array_equal(flow.lin, 1.0 + step * (floor - d.v))
    else:
        # the trap keeps every trapped benchmark problem at its own tau
        assert d.grid.is_fourier


@pytest.mark.parametrize("g, p, tau", [
    (COM_2D_GRID, COM_2D_PARAMS, 0.01),
    (grid_1d(128), SWEEP_1D_PARAMS, 0.01),
    (grid_1d(128), SWEEP_1D_PARAMS, 1.0),
    (grid_1d(128), Params(k0=3.0, omega=-2.0, beta11=100.0, beta12=50.0,
                          beta22=100.0), 0.5),
    (box_1d(64), BOX_1D_PARAMS, 0.01),
    # the detuning shifts the lowest mode of the symbol by -|delta|/2
    (grid_1d(128), SWEEP_1D_PARAMS.with_(delta=0.3), 0.01),
    (box_1d(64), BOX_1D_PARAMS.with_(delta=0.4), 0.01),
], ids=["com_2d", "sweep_1d", "sweep_1d_large_tau", "tau_too_large", "box_1d",
        "sweep_1d_delta", "box_1d_delta"])
def test_refresh_sets_the_tau_aware_shift(g, p, tau):
    flow = ground_state._Flow(discretization(g, p), tau)
    psi = build_initial_state("gaussian_pair", g, p).psi
    flow.refresh(psi)
    check_refresh(flow, psi, tau)
    start = flow.tau, flow.alpha
    # one cadence: the next refresh derives the step and shift again
    for _ in range(ground_state.MU_UPDATE_EVERY):
        psi = flow.step(psi)
    flow.refresh(psi, ground_state.MU_UPDATE_EVERY)
    check_refresh(flow, psi, tau)
    assert (flow.tau, flow.alpha) != start


def test_box_shift_stays_at_the_guard_floor():
    # box_gs's k0 = 10 problem: the tau-aware shift never rises above the
    # positivity guard, so every refresh applies guard_floor itself
    g, p = BOX_GS_GRID, BOX_GS_PARAMS
    flow = ground_state._Flow(discretization(g, p), GfdnOptions().tau)
    applied = []
    set_shifts = flow.set_shifts

    def record(alpha, mu_hat):
        applied.append((alpha, flow.guard_floor(mu_hat)))
        set_shifts(alpha, mu_hat)

    flow.set_shifts = record
    psi = build_initial_state("gaussian_opposite", g, p).psi
    flow.refresh(psi)
    for it in range(1, 61):
        psi = flow.step(psi)
        flow.refresh(psi, it)
    assert len(applied) == 7
    assert all(alpha == floor for alpha, floor in applied)


@pytest.mark.parametrize("g, p, init, max_iters, e_ref", [
    # sweep_1d's first point: 636 iterations here, 1,003 with alpha = u/2
    (grid_1d(128), SWEEP_1D_PARAMS, "gaussian_pair", 800,
     -0.35617378167840158),
    (COM_2D_GRID, COM_2D_PARAMS, "gaussian_opposite", 600, None),
    (COM_2D_GRID, COM_2D_PARAMS, "gaussian_pair", 3_500, None),
    # box_gs's k0 = 10 problem: 6,005 iterations without the step raise
    (BOX_GS_GRID, BOX_GS_PARAMS, "gaussian_opposite", 3_000,
     1.4286313646457716),
], ids=["sweep_1d", "com_2d_opposite", "com_2d_pair", "box_gs_k0_10"])
def test_flow_iteration_guard(g, p, init, max_iters, e_ref):
    solve = besp_solve if p.frame == "tilde" else gfdn_solve
    opts = GfdnOptions(init=init, max_iters=max_iters)
    res = solve(p, g, opts)
    assert res.converged
    assert res.residual < opts.tol
    assert not any("energy increased" in w for w in res.warnings)
    if e_ref is not None:
        assert res.energy == pytest.approx(e_ref, abs=1e-10)


# (grid, params, {start: energy of a tau = 0.01 flow that stops on the step
# test alone}); stopped on the step test, the raised box flows leave eigen
# residuals of up to 1.8e-7
CERTIFIED_STOP_CASES = {
    "box_1d_omega_5": (
        box_1d(64), Params(k0=2.0, omega=5.0, beta11=10.0, beta12=9.0,
                           beta22=9.0, potential="box", frame="tilde"),
        {"gaussian_pair": 3.038255313173519,
         "gaussian_opposite": 3.0382553131735177}),
    # the pair start settles on a higher stationary state than the opposite
    "box_1d_omega_1": (
        box_1d(64), Params(k0=1.0, omega=1.0, beta11=3.0, beta12=2.0,
                           beta22=3.0, potential="box", frame="tilde"),
        {"gaussian_pair": 2.467908144233721,
         "gaussian_opposite": 1.7439345872374519}),
    # a step bound from V + beta*rho instead of V + 3*beta*rho raises the
    # energy here by up to 94 between refreshes
    "box_1d_beta_100": (
        box_1d(64), Params(k0=1.0, omega=0.0, beta11=100.0, beta12=50.0,
                           beta22=100.0, potential="box", frame="tilde"),
        {"gaussian_pair": 23.375597921696208,
         "gaussian_opposite": 23.375597921696208}),
    "box_32x32": (
        make_grid([Axis(-1.0, 1.0, 32, "sine")] * 2),
        Params(k0=3.0, omega=10.0, beta11=30.0, beta12=25.0, beta22=30.0,
               potential="box", frame="tilde"),
        {"gaussian_pair": 6.636784496404731,
         "gaussian_opposite": 6.607822866960767}),
    "lab_1d_narrow": (
        grid_1d(64, -2.0, 2.0), Params(k0=0.5, omega=-1.0, beta11=1.0,
                                       beta12=0.5, beta22=1.0),
        {"gaussian_pair": 0.055827177092571234,
         "gaussian_opposite": 0.055827177092587665}),
    "lab_1d_wide": (
        grid_1d(128, -8.0, 8.0), Params(k0=3.0, omega=-1.0, beta11=1.0,
                                        beta12=0.5, beta22=1.0),
        {"gaussian_pair": -3.8704365748047453,
         "gaussian_opposite": -3.870641147119947}),
    "lab_32x32": (
        make_grid([Axis(-4.0, 4.0, 32)] * 2),
        Params(k0=1.0, omega=-2.0, beta11=5.0, beta12=5.0, beta22=5.0),
        {"gaussian_pair": 0.17994320020952914,
         "gaussian_opposite": 0.622662901484788}),
}


@pytest.mark.parametrize("case, init", [
    (case, init) for case in CERTIFIED_STOP_CASES
    for init in ("gaussian_pair", "gaussian_opposite")])
def test_certified_stop_keeps_the_states(case, init):
    # the raised step and the residual stop reach each start's state, and a
    # converged result's residual is the eigen residual of its state
    g, p, energies = CERTIFIED_STOP_CASES[case]
    solve = besp_solve if p.frame == "tilde" else gfdn_solve
    opts = GfdnOptions(init=init)
    res = solve(p, g, opts)
    assert res.converged
    assert res.residual < opts.tol
    assert res.residual == eigen_residual(res.phi, p)
    assert res.energy == pytest.approx(energies[init], abs=1e-10)
    assert not any("energy increased" in w for w in res.warnings)


# ---- one path per solve ------------------------------------------------------

@pytest.mark.parametrize("solve, g, p, init", [
    pytest.param(gfdn_solve, grid_1d(64, -8.0, 8.0),
                 Params(k0=1.0, omega=200.0, beta11=10.0, beta12=9.0,
                        beta22=9.0),
                 "gaussian_pair", id="lab_omega_200"),
    pytest.param(besp_solve, BOX_GS_GRID, BOX_GS_PARAMS, "gaussian_opposite",
                 id="box_gs_k0_10"),
])
def test_gfdn_step_matches_one_solver_iteration(solve, g, p, init):
    # the single-step API and the solver's first iteration are the same
    # step; both starts raise it above the options' tau
    opts = GfdnOptions(tau=0.01, max_iters=1, init=init)
    start = build_initial_state(init, g, p)
    flow = ground_state._Flow(discretization(g, p), opts.tau)
    flow.refresh(start.psi)
    assert flow.tau > opts.tau
    stepped = gfdn_step(start, p, opts)
    assert np.array_equal(stepped.psi, solve(p, g, opts).phi.psi)


LAB_STRONG_RAMAN = Params(k0=1.0, omega=200.0, beta11=10.0, beta12=9.0,
                          beta22=9.0)
BOX_STRONG_RAMAN = Params(k0=3.0, omega=300.0, beta11=10.0, beta12=9.0,
                          beta22=9.0, potential="box", frame="tilde")


@pytest.mark.parametrize("solve, p, g, init, max_iters, e_ref", [
    # a flow capped at tau = 1e-3 needs 18,596 / 40,291 and 4,229 / 8,162
    (gfdn_solve, LAB_STRONG_RAMAN, grid_1d(64, -8.0, 8.0), "gaussian_opposite",
     2_500, -98.141917544492),
    (gfdn_solve, LAB_STRONG_RAMAN, grid_1d(64, -8.0, 8.0), "gaussian_pair",
     5_500, -98.141917544492),
    (besp_solve, BOX_STRONG_RAMAN, box_1d(64), "gaussian_opposite",
     800, -141.191545495086),
    (besp_solve, BOX_STRONG_RAMAN, box_1d(64), "gaussian_pair",
     1_500, -141.191545495086),
])
def test_strong_raman_converges_at_the_default_tau(solve, p, g, init,
                                                   max_iters, e_ref):
    res = solve(p, g, GfdnOptions(init=init, max_iters=max_iters))
    assert res.converged
    assert res.energy == pytest.approx(e_ref, abs=1e-10)
    assert not any("energy increased" in w for w in res.warnings)


@pytest.mark.parametrize("solve, p, g", [
    (gfdn_solve, Params(), grid_1d(64)),
    (besp_solve, Params(potential="box", frame="tilde"), box_1d(32)),
])
def test_solvers_reject_auto_init(solve, p, g):
    # only solve_ground_state reads "auto"
    with pytest.raises(ValueError, match="auto"):
        solve(p, g, GfdnOptions(init="auto"))


def test_spinor_start_with_nan_aborts_flow():
    g = grid_1d(64)
    start = build_initial_state("gaussian_pair", g, Params())
    psi = start.psi.copy()
    psi[0, 10] = np.nan
    with np.errstate(invalid="ignore"):
        res = gfdn_solve(Params(), g, GfdnOptions(
            init=Spinor.from_stacked(g, psi)))
    assert not res.converged
    assert res.iterations == 0
    assert any("non-finite values" in w for w in res.warnings)


def test_every_solve_goes_through_the_module_hooks(monkeypatch):
    # profilers count flow iterations by wrapping gfdn_solve/besp_solve and
    # mark the end of set-up at the first build_initial_state call; both are
    # looked up as module attributes at call time
    solved, built = [], []

    def counting(fn):
        def call(*args, **kwargs):
            res = fn(*args, **kwargs)
            solved.append(res)
            return res
        return call

    def build(*args, **kwargs):
        built.append(None)
        return build_initial_state(*args, **kwargs)

    for name in ("gfdn_solve", "besp_solve"):
        monkeypatch.setattr(ground_state, name,
                            counting(getattr(ground_state, name)))
    monkeypatch.setattr(ground_state, "build_initial_state", build)

    def check(results, n_solves):
        assert len(solved) == len(built) == n_solves
        assert all(any(r is s for s in solved) for r in results)
        if n_solves == len(results):
            assert sum(s.iterations for s in solved) == \
                sum(r.iterations for r in results)
        solved.clear()
        built.clear()

    opts = GfdnOptions(max_iters=200)
    lab = Params(omega=-2.0, beta11=1.0, beta12=0.5, beta22=1.0)
    box = Params(k0=3.0, omega=20.0, beta11=10.0, beta12=9.0, beta22=9.0,
                 potential="box", frame="tilde")
    g, gb = grid_1d(64), box_1d(32)
    check([solve_ground_state(lab, g, opts)], 1)
    check([solve_ground_state(box, gb, replace(opts, init="sine_pair"))], 1)
    check([solve_ground_state(box, gb, replace(opts, init="auto"))],
          len(default_starts(box, gb)))
    starts = ["gaussian_pair", "gaussian_opposite"]
    check([multi_start(lab, g, opts, starts)], 2)
    study = limit_study("rate_small_k0", lab, g, [0.025, 0.05, 0.1], opts)
    # first point: 2 default starts; then warm start + 2; reference: 2
    check(study.results, 2 + 3 + 3 + 2)
    # the symmetrized reference is one more single-start solve
    study = limit_study("large_omega", lab, g, [5.0], opts)
    check(study.results, 2 + 1)


# ---- the lean iteration is the plain one, bit for bit ---------------------------

def _dense_sine_product(arr, mats):
    # DST-I matrix per axis through the float64 view, moving the last axis to
    # the front of the spatial ones on each pass
    lead = arr.ndim - len(mats)
    out = arr
    for mat in reversed(mats):
        t = np.ascontiguousarray(np.moveaxis(out, -1, lead))
        flat = t.view(np.float64).reshape(t.shape[:lead + 1] + (-1,))
        out = np.matmul(mat, flat).view(t.dtype).reshape(t.shape)
    return out


def reference_flow(solve_params, g, init, iters):
    """The flow loop with the plain step expressions: tensordot, a fresh
    temporary per operation, and fftn/ifftn over the spatial axes or the
    DST-I matrix product (dstn/idstn past DENSE_SINE_MAX_N).
    `_Flow.refresh` supplies the shifts."""
    axes = tuple(range(1, g.dim + 1))
    if g.is_sine and max(a.n for a in g.axes) <= DENSE_SINE_MAX_N:
        fwd, inv = zip(*(_dst1_pair(a.n) for a in g.axes))
        to_modes = partial(_dense_sine_product, mats=fwd)
        from_modes = partial(_dense_sine_product, mats=inv)
    elif g.is_sine:
        to_modes = partial(sfft.dstn, type=1, axes=axes)
        from_modes = partial(sfft.idstn, type=1, axes=axes)
    else:
        to_modes = partial(sfft.fftn, axes=axes)
        from_modes = partial(sfft.ifftn, axes=axes)
    flow = ground_state._Flow(discretization(g, solve_params), GfdnOptions().tau)
    psi = build_initial_state(init, g, solve_params).psi
    flow.refresh(psi)
    for it in range(1, iters + 1):
        u = (flow.lin - np.tensordot(flow.tau_beta, abs2(psi), 1)) * psi
        u -= flow.tau_coupling * psi[::-1]
        c = to_modes(u)
        c *= flow.inv_den
        new = from_modes(c)
        new /= np.sqrt(g.cell_volume * np.vdot(new, new).real)
        psi = new
        flow.refresh(psi, it)
    return psi


BIT_IDENTITY_CASES = [
    pytest.param(gfdn_solve, grid_1d(128),
                 Params(k0=0.05, omega=-2.0, beta11=1.0, beta12=0.5,
                        beta22=1.0),
                 "gaussian_opposite", id="lab_fourier_1d"),
    pytest.param(gfdn_solve,
                 make_grid([Axis(-8.0, 8.0, 64), Axis(-8.0, 8.0, 64)]),
                 Params(k0=2.0, omega=50.0, beta11=10.0, beta12=10.0,
                        beta22=10.0, gamma_x=2.0, gamma_y=2.0),
                 "gaussian_pair", id="lab_fourier_64x64"),
    pytest.param(besp_solve,
                 make_grid([Axis(-1.0, 1.0, 64, "sine")] * 2),
                 Params(k0=10.0, omega=50.0, beta11=10.0, beta12=9.0,
                        beta22=9.0, potential="box", frame="tilde"),
                 "gaussian_opposite", id="box_64x64"),
    pytest.param(besp_solve, box_1d(128),
                 Params(k0=2.0, omega=5.0, beta11=10.0, beta12=9.0,
                        beta22=9.0, potential="box", frame="tilde"),
                 "gaussian_opposite", id="box_1d_dstn"),
]


@pytest.mark.parametrize("solve, g, p, init", BIT_IDENTITY_CASES)
def test_flow_iterates_are_bit_identical_to_the_plain_loop(solve, g, p, init):
    psi = reference_flow(p, g, init, 60)
    res = solve(p, g, GfdnOptions(tol=1e-12, max_iters=60, init=init))
    assert res.iterations == 60
    assert np.array_equal(res.phi.psi, psi)
    assert res.residual == eigen_residual(Spinor.from_stacked(g, psi), p)


@pytest.mark.parametrize("g, p", [
    (grid_1d(64), Params(k0=0.5, omega=-1.0, beta11=2.0, beta12=1.0,
                         beta22=2.0)),
    (box_1d(32), Params(k0=2.0, omega=4.0, beta11=3.0, beta12=2.0,
                        beta22=1.0, potential="box", frame="tilde")),
], ids=["lab_fourier", "box"])
def test_flow_step_returns_a_fresh_array(g, p):
    # the step's work buffers live on the flow; what it returns must not
    start = build_initial_state("gaussian_pair", g, p)
    psi = start.psi
    before = psi.copy()
    flow = ground_state._Flow(discretization(g, p), 0.01)
    flow.refresh(psi)
    first, second = flow.step(psi), flow.step(psi)
    assert np.array_equal(psi, before)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    owned = [v for v in vars(flow).values() if isinstance(v, np.ndarray)]
    for out in (first, second):
        assert not np.shares_memory(out, psi)
        assert not any(np.shares_memory(out, buf) for buf in owned)
    opts = GfdnOptions()
    assert np.array_equal(gfdn_step(start, p, opts).psi,
                          gfdn_step(start, p, opts).psi)
    # a step given the modes a refresh at psi returns is the plain step
    assert np.array_equal(flow.step(psi, flow.refresh(psi)), first)


# ---- the eigen residual read off the next step's modes ------------------------

def refresh_residual(g, p, psi):
    """The residual of `psi` that a refresh at `psi` reads."""
    flow = ground_state._Flow(discretization(g, p), GfdnOptions().tau)
    assert flow.refresh(psi) is not None
    return flow.residual


@pytest.mark.parametrize("g, p, init", [
    (grid_1d(128), SWEEP_1D_PARAMS, "gaussian_pair"),
    (COM_2D_GRID, COM_2D_PARAMS, "gaussian_opposite"),
    (BOX_GS_GRID, BOX_GS_PARAMS, "gaussian_opposite"),
], ids=["sweep_1d", "com_2d", "box_gs_k0_10"])
def test_the_refresh_residual_is_the_eigen_residual(g, p, init):
    # (F(psi) - c)/(tau*inv_den) are the modes of H psi - mu psi.  F(psi) - c
    # cancels as the flow converges and 1/tau amplifies the round-off of the
    # two transforms: at these converged states the two values differ by
    # 2.3e-9 (sweep_1d), 3.2e-8 (com_2d) and 2.1e-8 (box_gs) relative, and
    # against a long-double reference the exact value is the closer one
    start = build_initial_state(init, g, p)
    exact = eigen_residual(start, p)
    assert abs(refresh_residual(g, p, start.psi) - exact) <= 1e-12 * exact
    solve = besp_solve if p.frame == "tilde" else gfdn_solve
    res = solve(p, g, GfdnOptions(init=init))
    assert res.converged
    cheap = refresh_residual(g, p, res.phi.psi)
    assert abs(cheap - res.residual) <= 5e-8 * res.residual


def test_a_failed_step_after_a_refresh_returns_the_refreshed_iterate(
        monkeypatch):
    # the step after the refresh at iteration 20 fails: the solve returns
    # that iterate, with its exact residual
    g, p = grid_1d(), SWEEP_1D.with_(k0=0.05)
    at_20 = gfdn_solve(p, g, GfdnOptions(max_iters=20))
    step, calls = ground_state._Flow.step, []

    def failing(self, psi, c=None):
        calls.append(None)
        if len(calls) == 21:
            raise FloatingPointError("injected")
        return step(self, psi, c)

    monkeypatch.setattr(ground_state._Flow, "step", failing)
    res = gfdn_solve(p, g, GfdnOptions())
    assert len(calls) == 21 and res.iterations == 20
    assert np.array_equal(res.phi.psi, at_20.phi.psi)
    assert res.residual == eigen_residual(res.phi, p) == at_20.residual
    assert not res.converged
    assert "injected" in res.warnings


def test_a_failed_confirmation_continues_on_the_plain_iterates(monkeypatch):
    # the refresh's value passes and the exact one fails: the solve drops
    # the handed modes for the exact pass, the next step computes them again
    # and it certifies one refresh later, on the iterates of the plain loop
    g, p = grid_1d(), SWEEP_1D.with_(k0=0.05)
    first = gfdn_solve(p, g, GfdnOptions())
    exact, calls = Discretization.eigen_residual, []

    def failing_once(self, psi, mu=None):
        calls.append(None)
        return np.inf if len(calls) == 1 else exact(self, psi, mu)

    monkeypatch.setattr(Discretization, "eigen_residual", failing_once)
    res = gfdn_solve(p, g, GfdnOptions())
    assert res.converged
    assert res.iterations == first.iterations + ground_state.MU_UPDATE_EVERY
    assert np.array_equal(res.phi.psi,
                          reference_flow(p, g, "gaussian_pair", res.iterations))


def test_the_last_refreshed_iterate_of_a_run_gets_the_merge_test():
    # uncapped, the opposite start merges at its refresh at iteration 3,660;
    # a run capped there still tests that last refreshed iterate
    g, p = grid_1d(), SWEEP_1D.with_(k0=0.05)
    pair = gfdn_solve(p, g, GfdnOptions())
    assert pair.converged and pair.iterations == 680
    res = gfdn_solve(p, g, GfdnOptions(init="gaussian_opposite",
                                       max_iters=3660),
                     merge_into=pair.phi.psi)
    assert res.iterations == 3660 and not res.converged
    assert any(w.startswith("stopped after 3660 iterations at phase-aligned")
               for w in res.warnings)
    assert not any("did not reach tol" in w for w in res.warnings)


@pytest.mark.parametrize("solve, g, p, start, other", [
    (gfdn_solve, grid_1d(), SWEEP_1D.with_(k0=0.05), "gaussian_pair",
     "gaussian_opposite"),
    (besp_solve, box_1d(), BOX_1D_PARAMS, "gaussian_opposite",
     "gaussian_pair"),
], ids=["lab_1d", "box_1d"])
def test_the_result_energy_and_mu_are_exact(monkeypatch, solve, g, p, start,
                                            other):
    # a solve that ends on a refreshed iterate reports that refresh's energy
    # and mu, any other computes them at the end: both are the bits of
    # `energy` and `chemical_potential` on the returned state, for every
    # ending (converged, merged, out of iterations on and off the refresh
    # schedule, a failed step)
    converged = solve(p, g, GfdnOptions(init=start))
    merged = solve(p, g, GfdnOptions(init=other), merge_into=converged.phi.psi)
    on, off = (solve(p, g, GfdnOptions(init=start, max_iters=n))
               for n in (20, 25))
    step, calls = ground_state._Flow.step, []

    def failing(self, psi, c=None):
        calls.append(None)
        if len(calls) == 21:
            raise FloatingPointError("injected")
        return step(self, psi, c)

    monkeypatch.setattr(ground_state._Flow, "step", failing)
    failed = solve(p, g, GfdnOptions(init=start))
    assert converged.converged
    assert any(w.startswith("stopped after") for w in merged.warnings)
    assert [r.iterations for r in (on, off, failed)] == [20, 25, 20]
    assert "injected" in failed.warnings
    for res in (converged, merged, on, off, failed):
        assert res.energy == energy(res.phi, p)
        assert res.mu == chemical_potential(res.phi, p)


@pytest.mark.parametrize("g, p", [
    (COM_2D_GRID, COM_2D_PARAMS),
    (BOX_GS_GRID, BOX_GS_PARAMS),
], ids=["lab", "tilde"])
def test_refresh_refills_its_tables_in_place(g, p):
    flow = ground_state._Flow(discretization(g, p), GfdnOptions().tau)
    psi = build_initial_state("gaussian_opposite", g, p).psi

    def tables():
        return [flow.inv_den, flow.lin, flow.tau_coupling]

    flow.refresh(psi)
    first = tables()
    values = [t.copy() for t in first]
    for it in range(1, 2 * ground_state.MU_UPDATE_EVERY + 1):
        psi = flow.step(psi)
        flow.refresh(psi, it)
    # the lab flow keeps its step at the options' tau, so only the tilde
    # frame's tau*coupling changes value
    moved = [True, True, p.frame == "tilde"]
    for old, new, value, changes in zip(first, tables(), values, moved):
        assert np.shares_memory(old, new)
        assert np.array_equal(new, value) != changes


# the flow's memory: tracemalloc peaks of one solve over a warm baseline
# (the discretization and transform plans cached by a first solve) read
# 963 KB and 1,244 KB; the bound allows 5% more
@pytest.mark.parametrize("solve, g, p, options, peak_kb", [
    (gfdn_solve, COM_2D_GRID, COM_2D_PARAMS,
     GfdnOptions(init="gaussian_opposite"), 963),
    (besp_solve, BOX_GS_GRID, BOX_GS_PARAMS.with_(k0=50.0),
     GfdnOptions(init="gaussian_opposite", max_iters=300), 1244),
], ids=["com_2d_opposite", "box_k0_50"])
def test_a_solve_stays_within_its_memory_peak(solve, g, p, options, peak_kb):
    solve(p, g, options)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = solve(p, g, options)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.iterations == (550 if res.converged else 300)
    assert peak <= 1.05 * peak_kb * 1024
