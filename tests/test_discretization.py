"""The cached discretization and the stacked whole-array paths built on it.

Each fused path is compared with a per-component reference that spells out
the formula with one-axis transforms, so the stacked arrays, the folded
scale factors and the Parseval forms are checked against the plain
definitions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from socbec import (
    Axis,
    GfdnOptions,
    Params,
    Spinor,
    besp_solve,
    build_mode_propagators,
    chemical_potential,
    energy,
    make_grid,
    observables,
    potential_field,
    tsfp_step,
)
from socbec.grid import DENSE_SINE_MAX_N
from socbec.ground_state import _Flow
from socbec.model import discretization


def per_axis_forward(g, f):
    out = np.asarray(f, dtype=complex)
    for i, a in enumerate(g.axes):
        if a.basis == "fourier":
            out = sfft.fft(out, axis=i) / a.n
        else:
            out = sfft.dst(out, type=1, axis=i) / a.n
    return out


def per_axis_inverse(g, c):
    out = np.asarray(c, dtype=complex)
    for i, a in enumerate(g.axes):
        if a.basis == "fourier":
            out = sfft.ifft(out, axis=i) * a.n
        else:
            out = sfft.dst(out, type=1, axis=i) / 2.0
    return out


def smooth_spinor(g, seed):
    rng = np.random.default_rng(seed)
    env = np.ones(g.shape)
    for i, a in enumerate(g.axes):
        x = g.coordinate(i)
        if a.basis == "sine":
            env = env * np.sin(np.pi * (x - a.lo) / a.length)
        else:
            env = env * np.exp(-((x - 0.3 * (i + 1)) ** 2) / 2.0)
    comps = [env * (rng.normal() + 1j * rng.normal())
             * np.exp(1j * rng.uniform(-1, 1) * g.coordinate(0))
             for _ in range(2)]
    return Spinor(g, *comps).normalized()


FOURIER_1D = make_grid([Axis(-8.0, 8.0, 64)])
FOURIER_2D = make_grid([Axis(-8.0, 8.0, 32), Axis(-6.0, 6.0, 32)])
SINE_1D = make_grid([Axis(-1.0, 1.0, 32, "sine")])
SINE_2D = make_grid([Axis(-1.0, 1.0, 32, "sine"), Axis(-1.0, 1.0, 24, "sine")])

LAB = Params(k0=1.3, omega=-2.5, delta=0.4, beta11=3.0, beta12=1.5,
             beta22=2.0, gamma_x=1.0, gamma_y=1.5)
BOX = Params(k0=2.0, omega=4.0, delta=0.7, beta11=3.0, beta12=2.0,
             beta22=1.0, potential="box", frame="tilde")

CASES = [(FOURIER_1D, LAB), (FOURIER_2D, LAB), (SINE_2D, BOX)]


def reference_flow_step(phi, p, tau, alpha, mu_hat):
    """Per-component backward-Euler step and renormalization."""
    g = phi.grid
    v1, v2 = potential_field(p, g)
    psi1, psi2 = phi.psi1, phi.psi2
    rho1, rho2 = np.abs(psi1) ** 2, np.abs(psi2) ** 2
    g1 = (alpha - v1 - p.beta11 * rho1 - p.beta12 * rho2) * psi1
    g2 = (alpha - v2 - p.beta12 * rho1 - p.beta22 * rho2) * psi2
    base = 1.0 + tau * (0.5 * g.mu2 + alpha - mu_hat)
    if p.frame == "lab":
        g1 = g1 - 0.5 * p.omega * psi2
        g2 = g2 - 0.5 * p.omega * psi1
        so = -p.k0 * g.mu(0)
        den1 = base + tau * (so + 0.5 * p.delta)
        den2 = base + tau * (-so - 0.5 * p.delta)
    else:
        phase = np.exp(2j * p.k0 * g.coordinate(0))
        g1 = g1 - 0.5 * p.omega * np.conj(phase) * psi2
        g2 = g2 - 0.5 * p.omega * phase * psi1
        den1 = base + tau * 0.5 * p.delta
        den2 = base - tau * 0.5 * p.delta
    new1 = per_axis_inverse(g, per_axis_forward(g, psi1 + tau * g1) / den1)
    new2 = per_axis_inverse(g, per_axis_forward(g, psi2 + tau * g2) / den2)
    s = np.sqrt(g.quadrature(np.abs(new1) ** 2 + np.abs(new2) ** 2))
    return new1 / s, new2 / s


@pytest.mark.parametrize("g, p", CASES)
def test_fused_flow_step_matches_per_component_reference(g, p):
    phi = smooth_spinor(g, seed=1)
    tau, alpha, mu_hat = 0.01, 7.5, 2.25
    flow = _Flow(discretization(g, p), tau)
    flow.set_shifts(alpha, mu_hat)
    out = flow.step(phi.psi)
    ref1, ref2 = reference_flow_step(phi, p, tau, alpha, mu_hat)
    assert np.abs(out[0] - ref1).max() <= 1e-13
    assert np.abs(out[1] - ref2).max() <= 1e-13


def reference_energy_terms(phi, p):
    """Kinetic and spin-orbit energies in the quadrature-of-Laplacian and
    quadrature-of-derivative forms."""
    g = phi.grid
    kinetic = sum(-0.5 * g.quadrature(np.real(np.conj(psi) * g.laplacian(psi)))
                  for psi in (phi.psi1, phi.psi2))
    t1 = g.quadrature(np.conj(phi.psi1) * g.deriv(phi.psi1, 0))
    t2 = g.quadrature(np.conj(phi.psi2) * g.deriv(phi.psi2, 0))
    return kinetic, float(np.real(1j * p.k0 * (t1 - t2)))


@pytest.mark.parametrize("g", [FOURIER_1D, FOURIER_2D, SINE_1D, SINE_2D])
def test_parseval_kinetic_and_spin_orbit_energies(g):
    phi = smooth_spinor(g, seed=2)
    # only the quadratic terms: no trap, coupling, detuning or interaction
    bare = Params(k0=1.7, potential="free" if g.is_fourier else "box",
                  frame="lab")
    kinetic, spin_orbit = reference_energy_terms(phi, bare)
    free = energy(phi, bare.with_(k0=0.0))
    assert free == pytest.approx(kinetic, rel=1e-12)
    assert energy(phi, bare) - free == pytest.approx(spin_orbit, rel=1e-12)


@pytest.mark.parametrize("g, p", CASES)
def test_chemical_potential_and_observables_share_one_energy(g, p):
    phi = smooth_spinor(g, seed=3)
    obs = observables(phi, p)
    assert obs.energy == energy(phi, p)
    assert obs.chem_mu == chemical_potential(phi, p)
    quartic = g.quadrature(0.5 * p.beta11 * np.abs(phi.psi1) ** 4
                           + 0.5 * p.beta22 * np.abs(phi.psi2) ** 4
                           + p.beta12 * np.abs(phi.psi1 * phi.psi2) ** 2)
    assert obs.chem_mu - obs.energy == pytest.approx(quartic, rel=1e-12)
    for i in range(g.dim):
        ref = sum(g.quadrature(np.imag(np.conj(psi) * g.deriv(psi, i)))
                  for psi in (phi.psi1, phi.psi2))
        assert obs.momentum[i] == pytest.approx(ref, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("g", [FOURIER_1D, FOURIER_2D])
@pytest.mark.parametrize("omega", [0.0, 5.0])
def test_fused_tsfp_step_matches_per_component_reference(g, omega):
    p = LAB.with_(omega=omega)
    tau = 2e-3
    phi = smooth_spinor(g, seed=4)
    prop = build_mode_propagators(g, p, tau)
    m12 = 0.0 if prop.m12 is None else prop.m12

    def half(p1, p2):
        c1, c2 = per_axis_forward(g, p1), per_axis_forward(g, p2)
        return (per_axis_inverse(g, prop.m11 * c1 + m12 * c2),
                per_axis_inverse(g, m12 * c1 + prop.m22 * c2))

    v1, v2 = potential_field(p, g)
    p1, p2 = half(phi.psi1, phi.psi2)
    rho1, rho2 = np.abs(p1) ** 2, np.abs(p2) ** 2
    p1 = p1 * np.exp(-1j * tau * (v1 + p.beta11 * rho1 + p.beta12 * rho2))
    p2 = p2 * np.exp(-1j * tau * (v2 + p.beta12 * rho1 + p.beta22 * rho2))
    ref1, ref2 = half(p1, p2)
    out = tsfp_step(phi, p, prop, tau)
    assert np.abs(out.psi1 - ref1).max() <= 1e-13
    assert np.abs(out.psi2 - ref2).max() <= 1e-13


# ---- stacked transforms (property tests) --------------------------------------

axes_strategy = st.lists(
    st.tuples(st.sampled_from(["fourier", "sine"]),
              st.sampled_from([4, 6, 8, 10, 16, 30])),
    min_size=1, max_size=2,
)


def stacked_case(spec, seed):
    g = make_grid([Axis(-1.0 - i, 2.0 + i, n, basis)
                   for i, (basis, n) in enumerate(spec)])
    rng = np.random.default_rng(seed)
    shape = (2,) + g.shape
    return g, rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(axes_strategy, st.integers(0, 2**32 - 1))
def test_stacked_round_trip_and_per_component_agreement(spec, seed):
    g, a = stacked_case(spec, seed)
    modes = g.to_modes(a)
    np.testing.assert_allclose(g.from_modes(modes), a, rtol=0, atol=1e-12)
    for k in range(2):
        np.testing.assert_allclose(modes[k] / np.prod([ax.n for ax in g.axes]),
                                   per_axis_forward(g, a[k]), rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(axes_strategy, st.integers(0, 2**32 - 1))
def test_stacked_parseval(spec, seed):
    g, a = stacked_case(spec, seed)
    physical = g.cell_volume * np.sum(np.abs(a) ** 2)
    spectral = g.mode_weight * np.sum(np.abs(g.to_modes(a)) ** 2)
    assert spectral == pytest.approx(physical, rel=1e-12)


sine_sizes = st.lists(
    st.sampled_from([4, 9, DENSE_SINE_MAX_N, DENSE_SINE_MAX_N + 1, 130]),
    min_size=1, max_size=3,
).filter(lambda ns: np.prod([n - 1 for n in ns]) <= 40_000)


@settings(max_examples=60, deadline=None)
@given(sine_sizes, st.sampled_from([(), (2,), (3, 2)]),
       st.integers(0, 2**32 - 1))
def test_all_sine_transforms_match_scipy_on_both_sides_of_dense_limit(
        sizes, batch, seed):
    g = make_grid([Axis(-1.0, 1.0 + i, n, "sine") for i, n in enumerate(sizes)])
    rng = np.random.default_rng(seed)
    a = rng.normal(size=batch + g.shape) + 1j * rng.normal(size=batch + g.shape)
    axes = tuple(range(len(batch), a.ndim))
    ref = sfft.dstn(a, type=1, axes=axes)
    modes = g.to_modes(a)
    assert np.abs(modes - ref).max() <= 1e-13 * np.abs(ref).max()
    inv_ref = sfft.idstn(ref, type=1, axes=axes)
    assert np.abs(g.from_modes(ref) - inv_ref).max() <= 1e-13 * np.abs(a).max()
    np.testing.assert_allclose(g.from_modes(modes), a, rtol=0, atol=1e-12)


# ---- the cached object --------------------------------------------------------

def test_discretization_is_cached_bounded_and_read_only():
    d = discretization(SINE_2D, BOX)
    assert discretization(SINE_2D, BOX.with_()) is d
    assert discretization.cache_info().maxsize <= 8
    with pytest.raises(ValueError):
        d.v[0, 0, 0] = 1.0
    v1, _ = potential_field(BOX, SINE_2D)
    with pytest.raises(ValueError):
        v1[0, 0] = 1.0


def test_validity_rules_live_on_the_discretization():
    with pytest.raises(ValueError, match="sine-basis"):
        discretization(FOURIER_1D, BOX)
    with pytest.raises(ValueError, match="Fourier grid"):
        discretization(SINE_1D, Params()).check_flow()
    with pytest.raises(ValueError, match="k0 = 0"):
        discretization(SINE_1D, BOX.with_(frame="lab")).check_flow()
    with pytest.raises(ValueError, match="sine grid"):
        discretization(FOURIER_1D, LAB.with_(frame="tilde")).check_dynamics()
    discretization(FOURIER_1D, LAB).check_flow()
    discretization(SINE_1D, BOX).check_dynamics()


BOX_64 = make_grid([Axis(-1.0, 1.0, 64, "sine"), Axis(-1.0, 1.0, 64, "sine")])
BOX_RAMAN = Params(omega=50.0, beta11=10.0, beta12=9.0, beta22=9.0,
                   potential="box", frame="tilde")


def test_resolution_warning_thresholds():
    # largest sine wavenumber of the 64-interval box is 63*pi/2 = 98.96
    assert discretization(BOX_64, BOX_RAMAN.with_(k0=10.0)).warnings == ()
    assert discretization(BOX_64, BOX_RAMAN.with_(k0=49.0)).warnings == ()
    assert discretization(BOX_64, BOX_RAMAN.with_(k0=50.0)).warnings
    # lab frame: |k0| against pi/h = 4*pi on the 64-node [-8, 8) axis
    assert discretization(FOURIER_1D, LAB.with_(k0=12.0)).warnings == ()
    assert discretization(FOURIER_1D, LAB.with_(k0=4 * np.pi)).warnings


def test_resolution_warning_reaches_the_result():
    res = besp_solve(BOX_RAMAN.with_(k0=50.0), BOX_64,
                     GfdnOptions(init="sine_opposite", max_iters=1))
    assert any("under-resolved" in w for w in res.warnings)
    res = besp_solve(BOX_RAMAN.with_(k0=10.0), BOX_64,
                     GfdnOptions(init="sine_opposite", max_iters=1))
    assert not any("under-resolved" in w for w in res.warnings)
