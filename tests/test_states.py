import numpy as np
import pytest

from socbec import Axis, Params, Spinor, make_grid
from socbec.states import (
    base_profile,
    build_initial_state,
    gaussian_profile,
    pair_state,
    plane_wave_pair,
    sine_profile,
    single_component,
    trap_profile,
)


def test_gaussian_profile_normalized():
    g = make_grid([Axis(-16.0, 16.0, 128)])
    f = gaussian_profile(g, center=[1.0], widths=2.0)
    assert g.quadrature(f**2) == pytest.approx(1.0, abs=1e-13)


def test_trap_profile_matches_oscillator_width():
    g = make_grid([Axis(-16.0, 16.0, 128)])
    f = trap_profile(g, Params(gamma_x=4.0))
    x = g.coordinate(0)
    exact = (4.0 / np.pi) ** 0.25 * np.exp(-2.0 * x**2)
    np.testing.assert_allclose(f, exact, atol=1e-12)


def test_sine_profile_vanishing_mode():
    g = make_grid([Axis(-1.0, 1.0, 32, "sine")])
    f = sine_profile(g)
    assert g.quadrature(f**2) == pytest.approx(1.0, abs=1e-13)
    c = g.forward(f) / 32  # a pure mode has coefficient N = n
    assert abs(c[0]) > 0.5 and np.abs(c[1:]).max() <= 1e-13


@pytest.mark.parametrize("name,sign", [
    ("gaussian_pair", 1.0), ("gaussian_opposite", -1.0),
    ("sine_pair", 1.0), ("sine_opposite", -1.0),
])
def test_named_pair_states(name, sign):
    basis = "sine" if name.startswith("sine") else "fourier"
    lo, hi = (-1.0, 1.0) if basis == "sine" else (-16.0, 16.0)
    g = make_grid([Axis(lo, hi, 64, basis)])
    p = Params(potential="box" if basis == "sine" else "harmonic",
               frame="tilde" if basis == "sine" else "lab")
    phi = build_initial_state(name, g, p)
    assert phi.norm_sq() == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(phi.psi2, sign * phi.psi1, atol=1e-14)


def test_plane_wave_state_string():
    g = make_grid([Axis(-16.0, 16.0, 64)])
    p = Params()
    a = build_initial_state("plane_wave:1.5", g, p)
    np.testing.assert_allclose(np.abs(a.psi1), np.abs(a.psi2), atol=1e-15)
    # the string is the only spelling
    with pytest.raises(ValueError):
        build_initial_state(("plane_wave", 1.5), g, p)
    # opposite carrier phases on the two components
    x = g.coordinate(0)
    ratio = a.psi2 * np.exp(2j * 1.5 * x) / a.psi1
    np.testing.assert_allclose(ratio, 1.0, atol=1e-12)


def test_user_supplied_state_grid_checked():
    g = make_grid([Axis(-16.0, 16.0, 64)])
    other = make_grid([Axis(-16.0, 16.0, 32)])
    phi = single_component(other, gaussian_profile(other), 1)
    with pytest.raises(ValueError):
        build_initial_state(phi, g, Params())
    # matching grid passes through normalized
    phi2 = Spinor(g, 3.0 * gaussian_profile(g), np.zeros(g.shape))
    out = build_initial_state(phi2, g, Params())
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-13)


def test_unknown_init_rejected():
    g = make_grid([Axis(-16.0, 16.0, 64)])
    with pytest.raises(ValueError):
        build_initial_state("wiggle", g, Params())
    with pytest.raises(ValueError):
        single_component(g, gaussian_profile(g), 3)


def test_base_profile_follows_potential():
    gs = make_grid([Axis(-1.0, 1.0, 32, "sine")])
    f = base_profile(gs, Params(potential="box", frame="tilde"))
    assert gs.quadrature(f**2) == pytest.approx(1.0, abs=1e-13)
    gf = make_grid([Axis(-16.0, 16.0, 64)])
    f2 = base_profile(gf, Params(potential="free"))
    assert gf.quadrature(f2**2) == pytest.approx(1.0, abs=1e-13)


def test_pair_state_half_mass_each():
    g = make_grid([Axis(-16.0, 16.0, 64)])
    phi = pair_state(g, gaussian_profile(g), -1.0)
    n1, n2 = phi.component_masses()
    assert n1 == pytest.approx(0.5, abs=1e-13)
    assert n2 == pytest.approx(0.5, abs=1e-13)


def test_plane_wave_pair_carries_momentum():
    from socbec import observables

    g = make_grid([Axis(-16.0, 16.0, 128)])
    phi = plane_wave_pair(g, gaussian_profile(g), 2.0)
    obs = observables(phi, Params(k0=2.0))
    # opposite carriers cancel in the total momentum
    assert obs.momentum[0] == pytest.approx(0.0, abs=1e-10)
    assert phi.norm_sq() == pytest.approx(1.0, abs=1e-13)
