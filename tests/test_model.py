import numpy as np
import pytest

from socbec import (
    Axis,
    BandParams,
    EvolveOptions,
    GfdnOptions,
    Params,
    Spinor,
    apply_hamiltonian,
    band_eigenvalues,
    chemical_potential,
    eigen_residual,
    energy,
    energy_variant,
    existence_conditions,
    gauge_transform,
    make_grid,
    nondimensionalize,
    observables,
    potential_field,
    raman_overlap,
    reduce_dimension,
    uniqueness_indicator,
)
from socbec.grid import Grid
from socbec.model import discretization


def grid_1d(n=128, lo=-16.0, hi=16.0):
    return make_grid([Axis(lo, hi, n)])


def ho_gaussian(grid):
    x = grid.coordinate(0)
    return np.pi**-0.25 * np.exp(-(x**2) / 2.0)


def random_spinor(grid, seed=0, normalize=False):
    rng = np.random.default_rng(seed)
    env = np.exp(-grid.coordinate(0) ** 2 / 4.0)
    f1 = env * (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    f2 = env * (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    phi = Spinor(grid, f1, f2)
    return phi.normalized() if normalize else phi


def packet_spinor(grid, seed=0, normalize=False):
    """Random bundle of smooth wave packets: localized in space and band.

    Needed wherever a test multiplies by e^{+-ik0 x}: the identity under a
    gauge factor only survives discretization when the field decays at the
    domain edge and well inside the resolved band.
    """
    rng = np.random.default_rng(seed)
    x = grid.coordinate(0)
    comps = []
    for _ in range(2):
        f = np.zeros(grid.shape, dtype=complex)
        for _ in range(3):
            amp = rng.normal() + 1j * rng.normal()
            c = rng.uniform(-4.0, 4.0)
            w = rng.uniform(1.0, 2.0)
            theta = rng.uniform(-2.5, 2.5)
            f += amp * np.exp(-((x - c) ** 2) / (2.0 * w**2) + 1j * theta * x)
        comps.append(f)
    phi = Spinor(grid, comps[0], comps[1])
    return phi.normalized() if normalize else phi


# ---- potentials ----------------------------------------------------------

def test_harmonic_potential_values():
    g = grid_1d(16, -4.0, 4.0)
    v1, v2 = potential_field(Params(gamma_x=1.0), g)
    x = g.coordinate(0)
    idx = int(np.argmin(np.abs(x - 2.0)))
    assert v1[idx] == pytest.approx(2.0)
    assert np.array_equal(v1, v2)

    g2 = make_grid([Axis(-4.0, 4.0, 16), Axis(-4.0, 4.0, 16)])
    v1, _ = potential_field(Params(gamma_x=1.0, gamma_y=2.0), g2)
    x, y = g2.coordinate(0), g2.coordinate(1)
    mask = (np.abs(x - 1.0) < 1e-12) & (np.abs(y - 1.0) < 1e-12)
    assert v1[mask][0] == pytest.approx(2.5)


def test_box_potential_requires_sine_grid():
    with pytest.raises(ValueError):
        potential_field(Params(potential="box"), grid_1d())
    g = make_grid([Axis(-1.0, 1.0, 16, "sine")])
    v1, v2 = potential_field(Params(potential="box"), g)
    assert not v1.any() and not v2.any()


def test_harmonic_needs_positive_gammas():
    with pytest.raises(ValueError):
        potential_field(Params(gamma_x=0.0), grid_1d())


# ---- energy --------------------------------------------------------------

def test_energy_harmonic_oscillator_ground_state():
    g = grid_1d()
    phi = Spinor(g, ho_gaussian(g), np.zeros(g.shape))
    assert energy(phi, Params()) == pytest.approx(0.5, abs=1e-12)


def test_energy_gauge_identity_plane_wave():
    # e^{ix} times the oscillator state cancels the SO shift: E = 0.5 - k0^2/2
    g = grid_1d()
    x = g.coordinate(0)
    phi = Spinor(g, np.exp(1j * x) * ho_gaussian(g), np.zeros(g.shape))
    assert energy(phi, Params(k0=1.0)) == pytest.approx(0.0, abs=1e-12)


def _energy_oracle(phi, params):
    """Term-by-term direct summation, independent of the grid module."""
    g = phi.grid
    n = g.axes[0].n
    h = g.spacing[0]
    length = g.axes[0].length
    mu = 2.0 * np.pi * np.fft.fftfreq(n, d=h)

    def d_dx(f):
        return np.fft.ifft(1j * mu * np.fft.fft(f))

    def integral(f):
        return h * np.sum(f)

    p1, p2 = phi.psi1, phi.psi2
    x = g.nodes[0]
    v = 0.5 * params.gamma_x**2 * x**2
    rho1, rho2 = np.abs(p1) ** 2, np.abs(p2) ** 2
    total = 0.5 * integral(np.abs(d_dx(p1)) ** 2 + np.abs(d_dx(p2)) ** 2)
    total += integral(v * (rho1 + rho2))
    total += 0.5 * params.delta * integral(rho1 - rho2)
    total += params.omega * np.real(integral(p1 * np.conj(p2)))
    total += np.real(1j * params.k0 * integral(
        np.conj(p1) * d_dx(p1) - np.conj(p2) * d_dx(p2)))
    total += integral(0.5 * params.beta11 * rho1**2
                      + 0.5 * params.beta22 * rho2**2
                      + params.beta12 * rho1 * rho2)
    return float(np.real(total))


def test_energy_matches_direct_summation_oracle():
    g = grid_1d(32)
    phi = random_spinor(g, seed=5)
    params = Params(k0=1.3, omega=2.4, delta=-0.7, beta11=1.1, beta12=0.4,
                    beta22=0.9, gamma_x=1.2)
    assert energy(phi, params) == pytest.approx(_energy_oracle(phi, params),
                                                abs=1e-12)


def test_energy_variant_tilde_no_raman_ignores_omega():
    g = grid_1d(64)
    phi = random_spinor(g, seed=2, normalize=True)
    p = Params(k0=1.0, omega=5.0, beta11=1.0, frame="tilde")
    a = energy_variant(phi, p, "tilde_no_raman")
    b = energy_variant(phi, p.with_(omega=-40.0), "tilde_no_raman")
    assert a == pytest.approx(b, abs=1e-14)


def test_energy_variant_large_omega_half_norm_gaussian():
    g = grid_1d()
    phi = Spinor(g, ho_gaussian(g) / np.sqrt(2.0), np.zeros(g.shape))
    val = energy_variant(phi, Params(), "large_omega")
    assert val == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("frame", ["lab", "tilde"])
def test_energy_variant_large_omega_is_the_limiting_functional(frame):
    g = grid_1d(64)
    phi = random_spinor(g, seed=5)
    p = Params(k0=2.0, omega=30.0, delta=0.5, beta11=2.0, beta12=0.5,
               beta22=1.0, frame=frame)
    psi = phi.psi1
    rho = np.abs(psi) ** 2
    v1, v2 = potential_field(p, g)
    kinetic = -0.5 * g.quadrature(np.real(np.conj(psi) * g.laplacian(psi)))
    ref = (kinetic + g.quadrature(0.5 * (v1 + v2) * rho)
           + 0.25 * (2.0 + 1.0 + 2.0 * 0.5) * g.quadrature(rho**2))
    assert energy_variant(phi, p, "large_omega") == pytest.approx(ref, rel=1e-12)


def test_energy_variant_no_so_equals_energy_without_k0():
    g = grid_1d(64)
    phi = random_spinor(g, seed=9)
    p = Params(k0=2.0, omega=1.5, delta=0.3, beta11=2.0, beta12=0.5, beta22=1.0)
    assert energy_variant(phi, p, "no_so") == pytest.approx(
        energy(phi, p.with_(k0=0.0)), abs=1e-14)


def test_energy_variant_unknown():
    g = grid_1d(32)
    with pytest.raises(ValueError):
        energy_variant(random_spinor(g), Params(), "bogus")


# ---- chemical potential ---------------------------------------------------

def test_mu_equals_energy_without_interactions():
    g = grid_1d(64)
    phi = random_spinor(g, seed=3, normalize=True)
    p = Params(k0=0.7, omega=1.1, delta=0.2)
    assert chemical_potential(phi, p) == pytest.approx(energy(phi, p), abs=1e-13)


def test_mu_gaussian_quartic_shift():
    g = grid_1d()
    beta = 3.7
    phi = Spinor(g, ho_gaussian(g), np.zeros(g.shape))
    p = Params(beta11=beta)
    shift = chemical_potential(phi, p) - energy(phi, p)
    assert shift == pytest.approx(beta / (2.0 * np.sqrt(2.0 * np.pi)), abs=1e-12)


def test_mu_matches_quadrature_oracle():
    g = grid_1d(32)
    phi = random_spinor(g, seed=8)
    p = Params(beta11=1.4, beta12=-0.3, beta22=0.8, omega=0.9, k0=0.5)
    h = g.spacing[0]
    rho1, rho2 = np.abs(phi.psi1) ** 2, np.abs(phi.psi2) ** 2
    quart = h * np.sum(0.5 * p.beta11 * rho1**2 + 0.5 * p.beta22 * rho2**2
                       + p.beta12 * rho1 * rho2)
    assert chemical_potential(phi, p) == pytest.approx(
        energy(phi, p) + quart, abs=1e-12)


def test_mu_at_least_energy_for_repulsive_interactions():
    g = grid_1d(64)
    phi = random_spinor(g, seed=4)
    p = Params(beta11=2.0, beta12=1.0, beta22=3.0, omega=-1.0, k0=1.0)
    assert chemical_potential(phi, p) >= energy(phi, p)


# ---- observables -----------------------------------------------------------

def test_observables_symmetric_density_centered():
    g = grid_1d()
    phi = Spinor(g, ho_gaussian(g), 0.5 * ho_gaussian(g))
    obs = observables(phi, Params())
    assert abs(obs.xc[0]) <= 1e-12


def test_observables_shifted_gaussian():
    g = grid_1d()
    x = g.coordinate(0)
    phi = Spinor(g, np.pi**-0.25 * np.exp(-((x - 1.0) ** 2) / 2.0),
                 np.zeros(g.shape))
    obs = observables(phi, Params())
    assert obs.mass == pytest.approx(1.0, abs=1e-12)
    assert obs.xc[0] == pytest.approx(1.0, abs=1e-10)
    assert obs.mass1 == pytest.approx(1.0, abs=1e-12)
    assert obs.delta_n == pytest.approx(1.0, abs=1e-12)


def test_observables_plane_wave_momentum():
    g = grid_1d()
    k0 = 2.0
    x = g.coordinate(0)
    phi = Spinor(g, np.exp(1j * k0 * x) * ho_gaussian(g), np.zeros(g.shape))
    obs = observables(phi, Params(k0=k0))
    assert obs.momentum[0] == pytest.approx(k0, abs=1e-10)


# ---- gauge transform -------------------------------------------------------

def test_gauge_identity_at_k0_zero():
    g = grid_1d(64)
    phi = random_spinor(g, seed=1)
    out = gauge_transform(phi, Params(k0=0.0), "to_tilde")
    assert np.array_equal(out.psi1, phi.psi1)
    assert np.array_equal(out.psi2, phi.psi2)


def test_gauge_round_trip():
    g = grid_1d(64)
    phi = random_spinor(g, seed=6)
    p = Params(k0=1.7)
    back = gauge_transform(gauge_transform(phi, p, "to_tilde"), p, "to_lab")
    np.testing.assert_allclose(back.psi1, phi.psi1, atol=1e-15)
    np.testing.assert_allclose(back.psi2, phi.psi2, atol=1e-15)


def test_gauge_energy_identity_normalized():
    g = grid_1d()
    phi = packet_spinor(g, seed=12, normalize=True)
    p = Params(k0=2.0, omega=1.5, delta=0.4, beta11=1.0, beta12=0.5, beta22=0.8)
    tilde = gauge_transform(phi, p, "to_tilde")
    e_lab = energy(phi, p)
    e_tilde = energy(tilde, p.with_(frame="tilde"))
    assert e_lab == pytest.approx(e_tilde - 0.5 * p.k0**2, abs=1e-10)


def test_gauge_energy_identity_general_norm():
    g = grid_1d()
    phi = packet_spinor(g, seed=13)
    p = Params(k0=1.2, omega=-2.0, delta=0.1, beta11=0.7, beta12=0.2, beta22=0.5)
    tilde = gauge_transform(phi, p, "to_tilde")
    e_lab = energy(phi, p)
    e_tilde = energy(tilde, p.with_(frame="tilde"))
    assert e_lab == pytest.approx(e_tilde - 0.5 * p.k0**2 * phi.norm_sq(),
                                  abs=1e-10)


def test_gauge_preserves_mass_and_shifts_momentum():
    g = grid_1d()
    phi = Spinor(g, ho_gaussian(g), np.zeros(g.shape))
    p = Params(k0=1.5)
    tilde = gauge_transform(phi, p, "to_tilde")
    assert tilde.norm_sq() == pytest.approx(phi.norm_sq(), abs=1e-13)
    obs_lab = observables(phi, p)
    obs_tilde = observables(tilde, p.with_(frame="tilde"))
    # single component in slot 1: e^{-ik0x} shifts Px by -k0*N1
    assert obs_tilde.momentum[0] == pytest.approx(
        obs_lab.momentum[0] - p.k0 * obs_lab.mass1, abs=1e-10)


def test_global_phase_invariance():
    g = grid_1d(64)
    phi = random_spinor(g, seed=21, normalize=True)
    p = Params(k0=1.0, omega=2.0, delta=0.3, beta11=1.0, beta12=0.4, beta22=0.9)
    rot = Spinor(g, np.exp(0.7j) * phi.psi1, np.exp(0.7j) * phi.psi2)
    assert energy(rot, p) == pytest.approx(energy(phi, p), abs=1e-12)


def test_hamiltonian_rayleigh_quotient_matches_mu():
    g = grid_1d(64)
    phi = random_spinor(g, seed=22, normalize=True)
    p = Params(k0=0.8, omega=1.2, delta=-0.4, beta11=1.5, beta12=0.3, beta22=0.7)
    h = apply_hamiltonian(phi, p)
    quad = g.quadrature(np.conj(phi.psi1) * h.psi1 + np.conj(phi.psi2) * h.psi2)
    assert np.real(quad) == pytest.approx(chemical_potential(phi, p), abs=1e-12)


SO_SINE = make_grid([Axis(-12.0, 12.0, 96, "sine")])
OPERATOR_PARAMS = Params(k0=0.8, omega=1.2, delta=-0.4, beta11=1.5,
                         beta12=0.3, beta22=0.7)
OPERATOR_CASES = {
    # the spin-orbit term sits in the diagonal symbol
    "lab_fourier": (grid_1d(64), OPERATOR_PARAMS),
    "tilde_sine": (SO_SINE, OPERATOR_PARAMS.with_(potential="box", frame="tilde")),
    # k0 != 0 on a sine x axis: the tilde operator under the gauge map
    "lab_sine": (SO_SINE, OPERATOR_PARAMS.with_(potential="box")),
}


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_hamiltonian_is_the_gradient_of_the_energy(case):
    g, p = OPERATOR_CASES[case]
    assert (discretization(g, p).gauge is not None) == (case == "lab_sine")
    phi, eta = random_spinor(g, seed=23, normalize=True), random_spinor(g, seed=24).psi
    h = apply_hamiltonian(phi, p).psi
    # <psi, H psi> = mu(psi)
    assert g.cell_volume * np.vdot(phi.psi, h).real == pytest.approx(
        chemical_potential(phi, p), rel=1e-13)
    # dE(psi + eps*eta)/deps at 0 = 2 Re <H psi, eta>
    eps = 1e-5
    plus = Spinor.from_stacked(g, phi.psi + eps * eta)
    minus = Spinor.from_stacked(g, phi.psi - eps * eta)
    slope = (energy(plus, p) - energy(minus, p)) / (2.0 * eps)
    assert slope == pytest.approx(
        2.0 * g.cell_volume * np.vdot(h, eta).real, rel=1e-8)


@pytest.mark.parametrize("case", ["lab_fourier"])
def test_spin_orbit_is_the_k0_part_of_the_operator(case):
    # on a Fourier x axis the symbol holds (i k0 dx, -i k0 dx): H(k0) - H(0)
    # is that spectral derivative
    g, p = OPERATOR_CASES[case]
    d, d0 = discretization(g, p), discretization(g, p.with_(k0=0.0))
    psi = packet_spinor(g, seed=25, normalize=True).psi
    so = g.deriv(psi, 0) * (1j * p.k0 * np.array([1.0, -1.0]))[:, None]
    h = d.hamiltonian(psi)
    assert np.abs(h - d0.hamiltonian(psi) - so).max() <= 1e-13 * np.abs(h).max()
    assert d.energy_parts(psi)[0] - d0.energy_parts(psi)[0] == pytest.approx(
        g.cell_volume * np.vdot(psi, so).real, rel=1e-12)


GAUGE_CASES = {
    "sine": (SO_SINE, OPERATOR_PARAMS.with_(potential="box")),
    "sine_fourier": (make_grid([Axis(-6.0, 6.0, 48, "sine"), Axis(-5.0, 5.0, 32)]),
                     OPERATOR_PARAMS),
}


@pytest.mark.parametrize("case", GAUGE_CASES)
def test_lab_operator_on_a_sine_x_axis_is_the_gauged_tilde_operator(case):
    # with G = diag(e^{ik0x}, e^{-ik0x}) and psi = G psi~:
    # E_lab(psi) = E_tilde(psi~) - k0^2/2 |psi|^2, H_lab psi = G H_tilde psi~
    # - k0^2/2 psi and Px_lab = Px_tilde + k0 (N1 - N2), all to round-off
    g, p = GAUGE_CASES[case]
    pt = p.with_(frame="tilde")
    phi = random_spinor(g, seed=26)
    tilde = gauge_transform(phi, p, "to_tilde")
    half_k2 = 0.5 * p.k0**2
    shift = half_k2 * phi.norm_sq()
    assert energy(phi, p) == pytest.approx(energy(tilde, pt) - shift, rel=1e-13)
    mu_t = chemical_potential(tilde, pt)
    assert chemical_potential(phi, p) == pytest.approx(mu_t - shift, rel=1e-13)
    h = apply_hamiltonian(phi, p).psi
    ref = gauge_transform(apply_hamiltonian(tilde, pt), p, "to_lab").psi
    ref -= half_k2 * phi.psi
    assert np.abs(h - ref).max() <= 1e-13 * np.abs(h).max()
    obs, obs_t = observables(phi, p), observables(tilde, pt)
    assert obs.momentum[0] == pytest.approx(
        obs_t.momentum[0] + p.k0 * (obs_t.mass1 - obs_t.mass2), abs=1e-13)
    np.testing.assert_allclose(obs.momentum[1:], obs_t.momentum[1:], atol=1e-13)
    assert raman_overlap(phi, p) == pytest.approx(raman_overlap(tilde, pt),
                                                  abs=1e-13)
    assert eigen_residual(phi, p, mu_t - half_k2) == pytest.approx(
        eigen_residual(tilde, pt, mu_t), rel=1e-12)


def test_lab_operator_on_a_sine_x_axis_takes_no_physical_space_derivative(
        monkeypatch):
    # a collocation spin-orbit term is not the energy's gradient: the
    # operator must not call Grid.deriv (observables still does, for the
    # sine-axis momenta)
    def no_deriv(*args, **kwargs):
        raise AssertionError("Grid.deriv called by the operator")

    g, p = OPERATOR_CASES["lab_sine"]
    phi = random_spinor(g, seed=27, normalize=True)
    monkeypatch.setattr(Grid, "deriv", no_deriv)
    energy(phi, p)
    chemical_potential(phi, p)
    apply_hamiltonian(phi, p)
    eigen_residual(phi, p)


def test_eigen_residual_exact_oscillator():
    g = grid_1d()
    phi = Spinor(g, ho_gaussian(g), np.zeros(g.shape))
    assert eigen_residual(phi, Params(), mu=0.5) <= 1e-12


# ---- auxiliary formulas ----------------------------------------------------

def test_reduce_dimension():
    assert reduce_dimension(1.0, 1.0, 1.0, 1.0, 2.0 * np.pi, 2) == \
        pytest.approx((1.0, 1.0, 1.0))
    assert reduce_dimension(1.0, 1.0, 1.0, 2.0 * np.pi, 2.0 * np.pi, 1) == \
        pytest.approx((1.0, 1.0, 1.0))
    assert reduce_dimension(0.0, 0.0, 0.0, 3.0, 5.0, 2) == (0.0, 0.0, 0.0)
    assert reduce_dimension(2.0, 3.0, 4.0, 1.0, 1.0, 3) == (2.0, 3.0, 4.0)
    with pytest.raises(ValueError):
        reduce_dimension(1.0, 1.0, 1.0, 1.0, 1.0, 4)


def test_nondimensionalize_isotropic_trap():
    nd = nondimensionalize(mass=1.4e-25, omega_x=20.0, omega_y=20.0,
                           omega_z=20.0, a11=5e-9, a12=5e-9, a22=5e-9,
                           n_atoms=1e4, k0_raman=1e6, detuning=40.0, rabi=100.0)
    p = nd.params
    assert (p.gamma_x, p.gamma_y, p.gamma_z) == (1.0, 1.0, 1.0)
    assert p.delta == pytest.approx(2.0)
    assert p.omega == pytest.approx(5.0)
    assert p.k0 == pytest.approx(1e6 * nd.x_s / 2.0)


def test_nondimensionalize_zero_scattering_and_linearity():
    common = dict(mass=1.4e-25, omega_x=10.0, omega_y=20.0, omega_z=40.0,
                  k0_raman=0.0, detuning=0.0, rabi=0.0)
    nd0 = nondimensionalize(a11=0.0, a12=0.0, a22=0.0, n_atoms=1e4, **common)
    assert (nd0.g11, nd0.g12, nd0.g22) == (0.0, 0.0, 0.0)
    nd1 = nondimensionalize(a11=3e-9, a12=2e-9, a22=1e-9, n_atoms=1e4, **common)
    nd2 = nondimensionalize(a11=3e-9, a12=2e-9, a22=1e-9, n_atoms=2e4, **common)
    assert nd2.g11 == pytest.approx(2.0 * nd1.g11)
    assert nd2.g12 == pytest.approx(2.0 * nd1.g12)
    assert nd2.g22 == pytest.approx(2.0 * nd1.g22)
    assert (nd1.params.gamma_x, nd1.params.gamma_y, nd1.params.gamma_z) == \
        (1.0, 2.0, 4.0)


def test_nondimensionalize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nondimensionalize(mass=-1.0, omega_x=1.0, omega_y=1.0, omega_z=1.0,
                          a11=0.0, a12=0.0, a22=0.0, n_atoms=1.0,
                          k0_raman=0.0, detuning=0.0, rabi=0.0)
    with pytest.raises(ValueError):
        nondimensionalize(mass=1.0, omega_x=0.0, omega_y=1.0, omega_z=1.0,
                          a11=0.0, a12=0.0, a22=0.0, n_atoms=1.0,
                          k0_raman=0.0, detuning=0.0, rabi=0.0)


def test_uniqueness_indicator_cases():
    g = grid_1d(32)
    field, flag = uniqueness_indicator(
        Params(delta=0.0, beta11=1.0, beta12=1.0, beta22=1.0), g)
    assert not flag and not field.any()
    field, flag = uniqueness_indicator(
        Params(delta=1.0, beta11=1.0, beta12=1.0, beta22=1.0), g)
    assert flag
    np.testing.assert_allclose(field, 1.0)
    field, flag = uniqueness_indicator(
        Params(delta=0.0, beta11=7.0, beta12=4.0, beta22=0.0), g)
    assert flag
    np.testing.assert_allclose(field, 25.0)


def test_band_eigenvalues_decoupled():
    band = BandParams(k_inf=0.0, omega_inf=0.0, delta_inf=0.0)
    lam1, lam2 = band_eigenvalues([1.0, 2.0], band, v1=3.0, v2=1.0)
    xi2 = 0.5 * (1.0 + 4.0)
    assert lam1 == pytest.approx(xi2 + 3.0)
    assert lam2 == pytest.approx(xi2 + 1.0)


def test_band_eigenvalues_coupled_example():
    band = BandParams(k_inf=1.0, omega_inf=2.0, delta_inf=0.0)
    lam1, lam2 = band_eigenvalues([1.0], band, v1=0.0, v2=0.0)
    assert lam1 == pytest.approx(0.5 + np.sqrt(2.0))
    assert lam2 == pytest.approx(0.5 - np.sqrt(2.0))


def test_band_eigenvalues_against_dense_solver():
    rng = np.random.default_rng(17)
    for _ in range(50):
        xi = rng.normal(size=2)
        band = BandParams(*rng.normal(size=3))
        v1, v2 = rng.normal(size=2)
        lam1, lam2 = band_eigenvalues(xi, band, v1, v2)
        base = 0.5 * np.dot(xi, xi)
        m = np.array([
            [band.k_inf * xi[0] + v1 + 0.5 * band.delta_inf, 0.5 * band.omega_inf],
            [0.5 * band.omega_inf, -band.k_inf * xi[0] + v2 - 0.5 * band.delta_inf],
        ])
        ev = np.linalg.eigvalsh(m)
        assert lam1 == pytest.approx(base + ev[1], abs=1e-12)
        assert lam2 == pytest.approx(base + ev[0], abs=1e-12)
        assert lam1 >= lam2


def test_existence_conditions():
    assert existence_conditions(Params(beta11=1.0, beta12=0.5, beta22=1.0), 1) == []
    assert existence_conditions(Params(beta11=1.0, beta12=0.5, beta22=1.0), 3) == []
    warns = existence_conditions(Params(beta11=-1.0, beta12=0.0, beta22=1.0), 3)
    assert warns and "no 3D ground state" in warns[0]
    # 2D thresholds only checked with a supplied best constant
    assert existence_conditions(Params(beta11=-5.0), 2) == []
    warns = existence_conditions(Params(beta11=-5.0), 2, c_b=1.0)
    assert warns


def test_3d_harmonic_energy():
    g = make_grid([Axis(-8.0, 8.0, 32)] * 3)
    r2 = sum(g.coordinate(i) ** 2 for i in range(3))
    phi = Spinor(g, np.pi**-0.75 * np.exp(-r2 / 2.0), np.zeros(g.shape))
    assert energy(phi, Params()) == pytest.approx(1.5, abs=1e-10)
    v1, _ = potential_field(Params(gamma_x=1.0, gamma_y=2.0, gamma_z=3.0), g)
    x, y, z = (g.coordinate(i) for i in range(3))
    np.testing.assert_allclose(v1, 0.5 * (x**2 + 4 * y**2 + 9 * z**2),
                               atol=1e-12)


def test_spinor_validation():
    g = grid_1d(32)
    with pytest.raises(ValueError):
        Spinor(g, np.zeros(16), np.zeros(32))
    with pytest.raises(ValueError):
        Spinor(g, np.zeros(g.shape), np.zeros(g.shape)).normalized()
    with pytest.raises(ValueError):
        Params(potential="lattice")
    with pytest.raises(ValueError):
        Params(frame="rotating")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("cls, kwargs, name", [
    (GfdnOptions, {"tau": NAN}, "tau"),
    (GfdnOptions, {"tau": INF}, "tau"),
    (GfdnOptions, {"tol": INF}, "tol"),
    (GfdnOptions, {"tol": NAN}, "tol"),
    (EvolveOptions, {"tau": INF, "t_end": 1.0}, "tau"),
    (EvolveOptions, {"tau": NAN, "t_end": 1.0}, "tau"),
    (EvolveOptions, {"tau": 0.01, "t_end": INF}, "t_end"),
    (EvolveOptions, {"tau": 0.01, "t_end": NAN}, "t_end"),
] + [(Params, {name: bad}, name)
      for name in ("k0", "omega", "delta", "beta11", "beta12", "beta22",
                   "gamma_x", "gamma_y", "gamma_z")
      for bad in (NAN, -INF)])
def test_library_api_rejects_non_finite_values(cls, kwargs, name):
    # the config parser rejects these too; the dataclasses must not rely on it
    with pytest.raises(ValueError, match=f"^{name} must be"):
        cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, name", [
    (Axis, {"lo": -1.0, "hi": 1.0, "n": 64.5, "basis": "sine"}, "n"),
    (Axis, {"lo": -1.0, "hi": 1.0, "n": 64.0}, "n"),
    (GfdnOptions, {"max_iters": 1e3}, "max_iters"),
    (EvolveOptions, {"tau": 0.1, "t_end": 1.0, "record_every": 2.5},
     "record_every"),
    (EvolveOptions, {"tau": 0.1, "t_end": 1.0, "snapshot_every": 1.5},
     "snapshot_every"),
])
def test_library_api_rejects_non_integer_counts(cls, kwargs, name):
    # a float count would build a fractional shape or a float step stride
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        cls(**kwargs)
