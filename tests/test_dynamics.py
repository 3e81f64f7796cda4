import numpy as np
import pytest
from scipy import fft as sfft
from scipy.linalg import expm

from socbec import (
    Axis,
    EvolveOptions,
    Params,
    Spinor,
    box_step,
    build_mode_propagators,
    evolve,
    gauge_transform,
    make_grid,
    observables,
    tsfp_step,
)
from socbec import dynamics
from socbec.dynamics import _box_splitting, _strang_step
from socbec.model import discretization, potential_field


def fourier_1d(n=64, lo=-8.0, hi=8.0):
    return make_grid([Axis(lo, hi, n)])


def sine_1d(n=32, lo=-1.0, hi=1.0):
    return make_grid([Axis(lo, hi, n, "sine")])


def mode_symbol(mu, k0, delta, omega):
    chi = k0 * mu - 0.5 * delta
    return np.array([[0.5 * mu**2 - chi, 0.5 * omega],
                     [0.5 * omega, 0.5 * mu**2 + chi]])


# ---- mode propagators --------------------------------------------------------

def test_propagator_example_values():
    g = fourier_1d(16)
    prop = build_mode_propagators(g, Params(omega=2.0), 0.01)
    assert prop.chi[0] == 0.0
    assert prop.lam[0] == pytest.approx(1.0)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(prop.q[:, :, 0], [[s, s], [-s, s]], atol=1e-14)


def test_propagator_orthogonality_random():
    rng = np.random.default_rng(42)
    g = fourier_1d(16)
    for _ in range(30):
        p = Params(k0=rng.normal(0, 3), omega=rng.normal(0, 5) or 1.0,
                   delta=rng.normal(0, 3))
        prop = build_mode_propagators(g, p, 0.02)
        q = prop.q
        qqt = np.einsum("ij...,kj...->ik...", q, q)
        assert np.abs(qqt[0, 0] - 1.0).max() <= 1e-13
        assert np.abs(qqt[1, 1] - 1.0).max() <= 1e-13
        assert np.abs(qqt[0, 1]).max() <= 1e-13


def test_propagator_matches_matrix_exponential():
    rng = np.random.default_rng(7)
    g = fourier_1d(8, -3.0, 5.0)
    for _ in range(40):
        k0, delta = rng.normal(0, 3, size=2)
        omega = rng.normal(0, 5)
        if omega == 0.0:
            omega = 1.0
        tau = 10 ** rng.uniform(-4, -1)
        p = Params(k0=k0, omega=omega, delta=delta)
        prop = build_mode_propagators(g, p, tau)
        for idx in range(8):
            mu = g.wavenumbers[0][idx]
            exact = expm(-0.5j * tau * mode_symbol(mu, k0, delta, omega))
            got = np.array([[prop.m11[idx], prop.m12[idx]],
                            [prop.m12[idx], prop.m22[idx]]])
            assert np.abs(got - exact).max() <= 1e-12
            # the stored factorization reproduces the same matrix
            q = prop.q[:, :, idx]
            d = np.diag([prop.phases[0][idx], prop.phases[1][idx]])
            np.testing.assert_allclose(q.T @ d @ q, exact, atol=1e-12)


def test_propagator_omega_zero_diagonal_branch():
    g = fourier_1d(16)
    p = Params(k0=1.2, delta=0.6, omega=0.0)
    tau = 0.03
    prop = build_mode_propagators(g, p, tau)
    assert prop.q is None and prop.m12 is None
    for idx in (0, 5):
        mu = g.wavenumbers[0][idx]
        exact = expm(-0.5j * tau * mode_symbol(mu, p.k0, p.delta, 0.0))
        assert abs(prop.m11[idx] - exact[0, 0]) <= 1e-13
        assert abs(prop.m22[idx] - exact[1, 1]) <= 1e-13


@pytest.mark.parametrize("omega", [0.0, 2.0])
def test_propagator_apply_never_writes_its_input(omega):
    g = fourier_1d(16)
    p = Params(k0=1.2, delta=0.6, omega=omega)
    rng = np.random.default_rng(5)
    c = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
    before = c.copy()
    half = build_mode_propagators(g, p, 0.03)
    out = half.apply(c)
    assert np.array_equal(c, before)
    assert not np.shares_memory(out, c)
    # two half-step tables compose into the table built at twice the step
    full = build_mode_propagators(g, p, 0.06)
    assert np.abs(half.apply(out) - full.apply(c)).max() <= 1e-14


def test_propagator_validation():
    with pytest.raises(ValueError):
        build_mode_propagators(sine_1d(), Params(), 0.01)
    with pytest.raises(ValueError):
        build_mode_propagators(fourier_1d(), Params(frame="tilde"), 0.01)
    with pytest.raises(ValueError):
        build_mode_propagators(fourier_1d(), Params(), 0.0)


def test_tsfp_step_guards():
    g = fourier_1d()
    p = Params(omega=1.0, potential="free")
    psi = Spinor(g, np.exp(-g.coordinate(0) ** 2), np.zeros(g.shape))
    with pytest.raises(ValueError, match="lab frame"):
        tsfp_step(psi, p.with_(frame="tilde"), 1e-3)


# ---- tsfp stepping -------------------------------------------------------------

def test_tsfp_conserves_mass_per_step():
    g = fourier_1d(128, -16.0, 16.0)
    x = g.coordinate(0)
    p = Params(k0=1.0, omega=20.0, beta11=10.0, beta12=10.0, beta22=10.0)
    psi = Spinor(g, np.exp(-((x - 1.0) ** 2) / 2.0) * np.exp(0.3j * x),
                 0.5 * np.exp(-(x**2))).normalized()
    for _ in range(50):
        psi = tsfp_step(psi, p, 1e-3)
        assert abs(psi.norm_sq() - 1.0) <= 1e-12


def test_tsfp_single_mode_matches_exact_solution():
    # beta = 0, V = 0: one Fourier mode evolves by the 2x2 mode ODE exactly
    g = fourier_1d(64, -8.0, 8.0)
    x = g.coordinate(0)
    p = Params(k0=1.0, omega=3.0, delta=0.5, potential="free")
    mu5 = g.wavenumbers[0][5]
    carrier = np.exp(1j * mu5 * (x + 8.0)) / 4.0
    psi = Spinor(g, carrier, np.zeros(g.shape))
    tau = 1e-3
    steps = 400
    for _ in range(steps):
        psi = tsfp_step(psi, p, tau)
    u = expm(-1j * steps * tau * mode_symbol(mu5, p.k0, p.delta, p.omega)) @ \
        np.array([1.0, 0.0])
    assert np.abs(psi.psi1 - u[0] * carrier).max() <= 1e-10
    assert np.abs(psi.psi2 - u[1] * carrier).max() <= 1e-10


def test_tsfp_time_reversibility_linear():
    g = fourier_1d(64)
    x = g.coordinate(0)
    p = Params(k0=1.0, omega=2.0, delta=0.4, potential="free")
    psi0 = Spinor(g, np.exp(-(x**2) / 2.0) * np.exp(1j * x),
                  0.3 * np.exp(-(x**2) / 3.0)).normalized()
    psi = psi0
    for _ in range(20):
        psi = tsfp_step(psi, p, 1e-2)
    for _ in range(20):
        psi = tsfp_step(psi, p, -1e-2)
    assert np.abs(psi.psi1 - psi0.psi1).max() <= 1e-11
    assert np.abs(psi.psi2 - psi0.psi2).max() <= 1e-11


def test_trap_oscillation_period():
    g = fourier_1d(128, -16.0, 16.0)
    x = g.coordinate(0)
    psi0 = Spinor(g, np.pi**-0.25 * np.exp(-((x - 1.0) ** 2) / 2.0),
                  np.zeros(g.shape))
    series = evolve(psi0, Params(gamma_x=1.0),
                    EvolveOptions(tau=1e-3, t_end=1.0, record_every=200))
    assert series.xc[-1, 0] == pytest.approx(np.cos(1.0), abs=1e-4)


def test_evolve_zero_steps_records_initial_only():
    g = fourier_1d(32)
    psi0 = Spinor(g, np.exp(-g.coordinate(0) ** 2), np.zeros(g.shape)).normalized()
    series = evolve(psi0, Params(), EvolveOptions(tau=1e-3, t_end=0.0))
    assert len(series.times) == 1 and series.times[0] == 0.0
    assert len(series.records) == 1


def test_evolve_energy_drift_small():
    g = fourier_1d(128, -16.0, 16.0)
    x = g.coordinate(0)
    p = Params(k0=1.0, omega=20.0, beta11=10.0, beta12=10.0, beta22=10.0)
    psi0 = Spinor(g, np.pi**-0.25 * np.exp(-((x - 1.0) ** 2) / 2.0),
                  np.zeros(g.shape))
    series = evolve(psi0, p, EvolveOptions(tau=1e-3, t_end=0.3, record_every=50))
    e = series.column("energy")
    assert np.abs(e - e[0]).max() / abs(e[0]) <= 1e-6


def test_delta_n_constant_when_omega_zero():
    g = fourier_1d(128, -16.0, 16.0)
    x = g.coordinate(0)
    p = Params(k0=1.5, delta=0.7, beta11=3.0, beta12=2.0, beta22=1.0)
    psi0 = Spinor(g, 0.9 * np.pi**-0.25 * np.exp(-(x**2) / 2.0),
                  0.45 * np.pi**-0.25 * np.exp(-((x - 0.5) ** 2) / 2.0))
    psi0 = psi0.normalized()
    series = evolve(psi0, p, EvolveOptions(tau=1e-3, t_end=1.0, record_every=100))
    dn = series.column("delta_n")
    assert np.abs(dn - dn[0]).max() <= 1e-10


def test_richardson_second_order_tsfp():
    g = fourier_1d(64, -8.0, 8.0)
    x = g.coordinate(0)
    p = Params(k0=1.0, omega=4.0, delta=0.3, beta11=2.0, beta12=1.5, beta22=1.0)
    psi0 = Spinor(g, np.exp(-(x**2) / 2.0), 0.4 * np.exp(-(x**2) / 2.0))
    psi0 = psi0.normalized()

    def terminal(tau, t_end=0.4):
        psi = psi0
        for _ in range(int(round(t_end / tau))):
            psi = tsfp_step(psi, p, tau)
        return psi

    ref = terminal(5e-4)
    e1 = terminal(4e-3)
    e2 = terminal(2e-3)
    err1 = max(np.abs(e1.psi1 - ref.psi1).max(), np.abs(e1.psi2 - ref.psi2).max())
    err2 = max(np.abs(e2.psi1 - ref.psi1).max(), np.abs(e2.psi2 - ref.psi2).max())
    assert err1 / err2 == pytest.approx(4.0, rel=0.2)


# ---- box / tilde stepping -------------------------------------------------------

def bandlimited_box_state(grid, seed=3):
    n = grid.axes[0].n
    rng = np.random.default_rng(seed)
    c1 = np.zeros(n - 1, complex)
    c2 = np.zeros(n - 1, complex)
    c1[:5] = rng.normal(size=5) + 1j * rng.normal(size=5)
    c2[:5] = rng.normal(size=5) + 1j * rng.normal(size=5)
    f1 = sfft.dst(c1, type=1) / 2.0
    f2 = sfft.dst(c2, type=1) / 2.0
    return Spinor(grid, f1, f2).normalized()


def box_rotation(grid, params, tau):
    """Core of the box splitting at beta = 0: with no trap in the box the
    phase half-steps are the identity, so it is the Raman rotation alone."""
    p = params.with_(beta11=0.0, beta12=0.0, beta22=0.0)
    return _box_splitting(discretization(grid, p), tau)[1]


def test_rotation_preserves_pointwise_density():
    g = sine_1d()
    psi = bandlimited_box_state(g)
    p = Params(k0=2.0, omega=4.0, potential="box", frame="tilde")
    r = box_rotation(g, p, 0.37)(psi.psi.copy())
    before = np.abs(psi.psi1) ** 2 + np.abs(psi.psi2) ** 2
    after = np.abs(r[0]) ** 2 + np.abs(r[1]) ** 2
    assert np.abs(after - before).max() <= 1e-14


def test_rotation_identity_at_omega_zero():
    g = sine_1d()
    psi = bandlimited_box_state(g)
    rot = box_rotation(g, Params(k0=2.0, omega=0.0, potential="box",
                                 frame="tilde"), 0.5)
    assert np.array_equal(rot(psi.psi.copy()), psi.psi)


@pytest.mark.parametrize("p", [
    Params(k0=2.0, omega=50.0, delta=0.3, beta11=10.0, beta12=9.0,
           beta22=8.0, potential="box", frame="tilde"),
    Params(k0=1.0, omega=0.0, beta11=5.0, beta12=5.0, beta22=5.0,
           potential="box", frame="tilde"),
], ids=["coupled", "omega0_equal_beta"])
def test_box_splitting_is_the_written_out_expression(p):
    g = make_grid([Axis(-1.0, 1.0, 32, "sine"), Axis(-1.0, 2.0, 24, "sine")])
    d = discretization(g, p)
    tau = 0.37e-2
    half, core = _box_splitting(d, tau)
    rng = np.random.default_rng(18)
    a = rng.normal(size=(2,) + g.shape) + 1j * rng.normal(size=(2,) + g.shape)

    assert np.array_equal(half(a), np.exp((-1j * (0.5 * tau)) * d.symbol) * a)
    angle = 0.5 * p.omega * tau
    off = -1j * np.sin(angle) * np.stack((np.conj(d.phase), d.phase))
    ref = dynamics._nonlinear_phase(a.copy(), d, 0.5 * tau)
    r = float(np.cos(angle)) * ref
    r += off * ref[::-1]
    ref = dynamics._nonlinear_phase(r, d, 0.5 * tau)
    assert np.array_equal(core(a.copy()), ref)


def test_box_step_guards():
    g = sine_1d()
    psi = bandlimited_box_state(g)
    p = Params(k0=1.0, omega=2.0, potential="box", frame="tilde")
    with pytest.raises(ValueError):
        box_step(psi, p.with_(frame="lab"), 1e-2)
    gf = fourier_1d()
    psif = Spinor(gf, np.exp(-gf.coordinate(0) ** 2), np.zeros(gf.shape))
    with pytest.raises(ValueError):
        box_step(psif, p, 1e-2)


def _tilde_rhs_dense(grid, p, v1, v2):
    n = grid.axes[0].n
    mu = grid.wavenumbers[0]
    x = grid.nodes[0]
    phase = np.exp(2j * p.k0 * x)

    def rhs(y):
        p1, p2 = y
        lap1 = sfft.dst(-(mu**2) * sfft.dst(p1, type=1) / n, type=1) / 2.0
        lap2 = sfft.dst(-(mu**2) * sfft.dst(p2, type=1) / n, type=1) / 2.0
        r1, r2 = np.abs(p1) ** 2, np.abs(p2) ** 2
        h1 = (-0.5 * lap1 + (v1 + 0.5 * p.delta + p.beta11 * r1
                             + p.beta12 * r2) * p1
              + 0.5 * p.omega * np.conj(phase) * p2)
        h2 = (-0.5 * lap2 + (v2 - 0.5 * p.delta + p.beta12 * r1
                             + p.beta22 * r2) * p2
              + 0.5 * p.omega * phase * p1)
        return np.stack([-1j * h1, -1j * h2])

    return rhs


def test_box_step_local_error_third_order():
    g = sine_1d()
    psi0 = bandlimited_box_state(g)
    p = Params(k0=2.0, omega=4.0, delta=0.7, beta11=3.0, beta12=2.0,
               beta22=1.0, potential="box", frame="tilde")
    v1, v2 = potential_field(p, g)
    rhs = _tilde_rhs_dense(g, p, v1, v2)

    def reference(tau, nsub=2000):
        y = np.stack([psi0.psi1, psi0.psi2])
        h = tau / nsub
        for _ in range(nsub):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y

    errs = []
    for tau in (0.004, 0.002):
        stepped = box_step(psi0, p, tau)
        ref = reference(tau)
        errs.append(max(np.abs(stepped.psi1 - ref[0]).max(),
                        np.abs(stepped.psi2 - ref[1]).max()))
    assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.25)


def test_box_step_conserves_mass():
    g = sine_1d()
    psi = bandlimited_box_state(g, seed=9)
    p = Params(k0=1.0, omega=3.0, delta=0.2, beta11=2.0, beta12=1.0,
               beta22=2.0, potential="box", frame="tilde")
    for _ in range(50):
        psi = box_step(psi, p, 1e-3)
        assert abs(psi.norm_sq() - 1.0) <= 1e-12


def test_richardson_second_order_box():
    g = sine_1d()
    psi0 = bandlimited_box_state(g, seed=5)
    p = Params(k0=2.0, omega=4.0, delta=0.7, beta11=3.0, beta12=2.0,
               beta22=1.0, potential="box", frame="tilde")

    def terminal(tau, t_end=0.2):
        psi = psi0
        for _ in range(int(round(t_end / tau))):
            psi = box_step(psi, p, tau)
        return psi

    ref = terminal(2.5e-4)
    e1 = terminal(2e-3)
    e2 = terminal(1e-3)
    err1 = max(np.abs(e1.psi1 - ref.psi1).max(), np.abs(e1.psi2 - ref.psi2).max())
    err2 = max(np.abs(e2.psi1 - ref.psi1).max(), np.abs(e2.psi2 - ref.psi2).max())
    assert err1 / err2 == pytest.approx(4.0, rel=0.2)


def test_lab_and_tilde_frames_agree_on_densities():
    # lattice-commensurate k0 keeps e^{ik0x} periodic, so the gauge map is
    # exact on the torus and both frames evolve the same physics
    g = fourier_1d(128, -16.0, 16.0)
    x = g.coordinate(0)
    k0 = 2.0 * np.pi * 8.0 / 32.0
    p = Params(k0=k0, omega=3.0, delta=0.4, beta11=2.0, beta12=1.0, beta22=2.0)
    psi0 = Spinor(g, np.pi**-0.25 * np.exp(-((x - 0.5) ** 2) / 2.0),
                  0.5 * np.pi**-0.25 * np.exp(-(x**2) / 2.0)).normalized()
    tau, steps = 5e-5, 1000

    lab = psi0
    for _ in range(steps):
        lab = tsfp_step(lab, p, tau)

    p_t = p.with_(frame="tilde")
    tilde = gauge_transform(psi0, p, "to_tilde")
    # box_step rejects a Fourier grid, so build its tables unchecked here
    half, core = _box_splitting(discretization(g, p_t), tau)
    for _ in range(steps):
        tilde = _strang_step(tilde, half, core)

    assert np.abs(np.abs(lab.psi1) - np.abs(tilde.psi1)).max() <= 1e-6
    assert np.abs(np.abs(lab.psi2) - np.abs(tilde.psi2)).max() <= 1e-6


def test_evolve_requires_commensurate_t_end():
    g = fourier_1d(32)
    psi0 = Spinor(g, np.exp(-g.coordinate(0) ** 2), np.zeros(g.shape)).normalized()
    with pytest.raises(ValueError):
        evolve(psi0, Params(), EvolveOptions(tau=1e-3, t_end=0.0005))


def test_transverse_com_period_2d():
    # y motion is a plain oscillator at gamma_y regardless of k0, omega
    g = make_grid([Axis(-8.0, 8.0, 32), Axis(-8.0, 8.0, 32)])
    x, y = g.coordinate(0), g.coordinate(1)
    p = Params(k0=1.0, omega=3.0, delta=0.2, beta11=2.0, beta12=1.0,
               beta22=2.0, gamma_x=1.5, gamma_y=1.0)
    psi0 = Spinor(g, np.exp(-((x - 0.5) ** 2 + (y - 1.0) ** 2) / 2.0),
                  np.zeros(g.shape)).normalized()
    series = evolve(psi0, p, EvolveOptions(tau=2e-3, t_end=6.28,
                                           record_every=157))
    yc = series.xc[:, 1]
    t = series.times
    # y_c(t) = y_c(0) cos(t) + dy(0) sin(t): check the final sample against
    # the two-parameter fit pinned by the first samples
    yc0 = yc[0]
    dy0 = (yc[1] - yc0 * np.cos(t[1])) / np.sin(t[1])
    model = yc0 * np.cos(t) + dy0 * np.sin(t)
    assert np.abs(yc - model).max() <= 2e-3


def test_3d_evolution_mass_and_com():
    g = make_grid([Axis(-8.0, 8.0, 16)] * 3)
    x = g.coordinate(0)
    r2 = sum(g.coordinate(i) ** 2 for i in range(3))
    psi0 = Spinor(g, np.exp(-(r2 - 2.0 * x) / 2.0), np.zeros(g.shape))
    psi0 = psi0.normalized()  # gaussian displaced along x by 1
    p = Params(k0=0.5, omega=2.0, beta11=1.0, beta12=1.0, beta22=1.0)
    series = evolve(psi0, p, EvolveOptions(tau=5e-3, t_end=0.1,
                                           record_every=10))
    assert np.abs(series.column("mass") - 1.0).max() <= 1e-12
    assert series.xc.shape[1] == 3


def test_evolve_observer_callback():
    g = fourier_1d(32)
    psi0 = Spinor(g, np.exp(-g.coordinate(0) ** 2),
                  np.zeros(g.shape)).normalized()
    seen = []
    evolve(psi0, Params(), EvolveOptions(tau=1e-3, t_end=0.01, record_every=5),
           observer=lambda t, psi, obs: seen.append((t, obs.mass)))
    assert [t for t, _ in seen] == [0.0, 0.005, 0.01]
    assert all(abs(m - 1.0) <= 1e-12 for _, m in seen)


# ---- fused evolve against single steps ----------------------------------------

def _lab_1d_case(omega):
    g = fourier_1d(64, -8.0, 8.0)
    x = g.coordinate(0)
    psi0 = Spinor(g, np.exp(-((x - 1.0) ** 2) / 2.0),
                  0.5 * np.exp(-((x + 0.5) ** 2) / 2.0)).normalized()
    return psi0, Params(k0=1.5, omega=omega, delta=0.7, beta11=3.0,
                        beta12=2.0, beta22=1.0)


def _lab_2d_case(beta11=2.0, beta12=1.0, beta22=2.0):
    g = make_grid([Axis(-8.0, 8.0, 32), Axis(-8.0, 8.0, 32)])
    x, y = g.coordinate(0), g.coordinate(1)
    psi0 = Spinor(g, np.exp(-((x - 0.5) ** 2 + (y - 1.0) ** 2) / 2.0),
                  0.3 * np.exp(-(x ** 2 + y ** 2) / 2.0)).normalized()
    return psi0, Params(k0=1.0, omega=3.0, delta=0.2, beta11=beta11,
                        beta12=beta12, beta22=beta22, gamma_x=1.5, gamma_y=1.0)


def _box_2d_case(beta11=5.0, beta12=4.0, beta22=5.0):
    g = make_grid([Axis(-1.0, 1.0, 24, "sine"), Axis(-1.0, 1.0, 24, "sine")])
    x, y = g.coordinate(0), g.coordinate(1)

    def mode(kx, ky):
        return np.sin(0.5 * np.pi * kx * (x + 1.0)) * \
            np.sin(0.5 * np.pi * ky * (y + 1.0))

    psi0 = Spinor(g, mode(1, 1) + 0.3j * mode(2, 1),
                  0.6 * mode(1, 2)).normalized()
    return psi0, Params(k0=2.0, omega=4.0, delta=0.3, beta11=beta11,
                        beta12=beta12, beta22=beta22, potential="box",
                        frame="tilde")


# the *_equal cases run the one-row nonlinear phase (equal interactions)
FUSED_CASES = {
    "lab_1d": lambda: _lab_1d_case(2.0),
    "lab_1d_omega0": lambda: _lab_1d_case(0.0),
    "lab_2d": _lab_2d_case,
    "lab_2d_equal": lambda: _lab_2d_case(10.0, 10.0, 10.0),
    "box_2d": _box_2d_case,
    "box_2d_equal": lambda: _box_2d_case(5.0, 5.0, 5.0),
}


@pytest.mark.parametrize("case", ["lab_2d", "box_2d"])
def test_nonlinear_phase_has_one_row_exactly_under_equal_interactions(case):
    psi0, p = FUSED_CASES[case]()
    g = psi0.grid
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(2,) + g.shape) + 1j * rng.normal(size=(2,) + g.shape)
    dt = 3e-3

    def phase(beta11, beta12, beta22):
        d = discretization(g, p.with_(beta11=beta11, beta12=beta12,
                                      beta22=beta22))
        # the two-row reference: every row of the full potential
        pot = d.potential(psi)
        pot *= -dt
        want = psi.copy()
        want *= np.cos(pot) + 1j * np.sin(pot)
        got = dynamics._nonlinear_phase(psi.copy(), d, dt)
        assert np.array_equal(got, want)
        return d.potential_rows, got / psi

    rows, rot = phase(10.0, 10.0, 10.0)
    assert rows == 1
    assert np.abs(rot[0] - rot[1]).max() <= 1e-14
    for betas in [(11.0, 10.0, 10.0), (10.0, 11.0, 10.0), (10.0, 10.0, 11.0)]:
        rows, rot = phase(*betas)
        assert rows == 2
        assert np.abs(rot[0] - rot[1]).max() > 1e-3


def stepped_states(psi0, p, tau, n):
    """States after 0..n `tsfp_step`/`box_step` calls: the evolve oracle."""
    step = tsfp_step if p.frame == "lab" else box_step
    out = [psi0]
    for _ in range(n):
        out.append(step(out[-1], p, tau))
    return out


def assert_records_close(got, want, tol=1e-12):
    for name in vars(want):
        diff = np.abs(np.asarray(getattr(got, name)) -
                      np.asarray(getattr(want, name))).max()
        assert diff <= tol, (name, diff)


def assert_states_close(got, want, tol=1e-12):
    assert np.abs(got.psi - want.psi).max() <= tol


@pytest.mark.parametrize("snapshot_every", [0, 3])
@pytest.mark.parametrize("record_every", [1, 7, 15])
@pytest.mark.parametrize("case", sorted(FUSED_CASES))
def test_fused_evolve_matches_single_steps(case, record_every, snapshot_every):
    psi0, p = FUSED_CASES[case]()
    tau, n = 5e-3, 15
    ref = stepped_states(psi0, p, tau, n)
    seen = []
    series = evolve(psi0, p, EvolveOptions(tau=tau, t_end=n * tau,
                                           record_every=record_every,
                                           snapshot_every=snapshot_every),
                    observer=lambda t, psi, rec: seen.append((t, psi.copy(),
                                                              rec)))
    recorded = [0] + [k for k in range(1, n + 1)
                      if k % record_every == 0 or k == n]
    assert list(series.times) == [k * tau for k in recorded]
    assert [t for t, _, _ in seen] == list(series.times)
    for k, (_, psi, rec), kept in zip(recorded, seen, series.records):
        assert kept is rec
        assert_states_close(psi, ref[k])
        assert_records_close(rec, observables(ref[k], p))
    snapped = [0] + [k for k in range(1, n + 1)
                     if k % snapshot_every == 0 or k == n] \
        if snapshot_every else []
    assert [t for t, _ in series.snapshots] == [k * tau for k in snapped]
    for k, (_, psi) in zip(snapped, series.snapshots):
        assert_states_close(psi, ref[k])
    assert not series.aborted
    assert_states_close(series.final_state, ref[n])


@pytest.mark.parametrize("bad_step", [1, 5, 6])
@pytest.mark.parametrize("case,phases_per_step", [("lab_1d", 1),
                                                  ("lab_2d_equal", 1),
                                                  ("box_2d", 2)])
def test_evolve_abort_keeps_last_good_state(monkeypatch, case,
                                            phases_per_step, bad_step):
    psi0, p = FUSED_CASES[case]()
    tau = 5e-3
    ref = stepped_states(psi0, p, tau, bad_step - 1)
    exact_phase = dynamics._nonlinear_phase
    calls = []

    def poisoned(psi, *args):
        # a NaN from the first pointwise phase of step `bad_step`
        calls.append(None)
        out = exact_phase(psi, *args)
        if len(calls) == phases_per_step * (bad_step - 1) + 1:
            out[0].flat[0] = np.nan
        return out

    monkeypatch.setattr(dynamics, "_nonlinear_phase", poisoned)
    series = evolve(psi0, p, EvolveOptions(tau=tau, t_end=10 * tau,
                                           record_every=2))
    assert series.aborted
    kept = list(range(0, bad_step, 2))
    assert list(series.times) == [k * tau for k in kept]
    for k, rec in zip(kept, series.records):
        assert_records_close(rec, observables(ref[k], p))
    assert_states_close(series.final_state, ref[bad_step - 1])
    assert series.final_time == (bad_step - 1) * tau


@pytest.mark.parametrize("case,built_taus", [("lab_1d", [5e-3, 1e-2]),
                                             ("box_2d", [])])
def test_evolve_builds_tables_through_module_hooks(monkeypatch, case,
                                                   built_taus):
    # perfbench/tracer.py times these module attributes as its dynamics layer
    assert all(callable(getattr(dynamics, name)) for name in
               ("tsfp_step", "box_step", "build_mode_propagators"))
    exact = dynamics.build_mode_propagators
    taus = []

    def counted(grid, params, tau):
        taus.append(tau)
        return exact(grid, params, tau)

    monkeypatch.setattr(dynamics, "build_mode_propagators", counted)
    psi0, p = FUSED_CASES[case]()
    evolve(psi0, p, EvolveOptions(tau=5e-3, t_end=1e-2))
    # the half-step and the full-step table of a lab run; none in the box
    assert taus == built_taus
