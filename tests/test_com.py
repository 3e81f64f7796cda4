import numpy as np
import pytest
from scipy.integrate import quad

from socbec import (
    Axis,
    ComClosedFormInputs,
    EvolveOptions,
    LdaState,
    Params,
    Spinor,
    com_rhs_exact,
    compare_series,
    evolve,
    lda_conserved,
    lda_ode_solve,
    make_grid,
    lda_initial_from_imbalance,
    xc_closed_form,
)


def fourier_1d(n=128, lo=-16.0, hi=16.0):
    return make_grid([Axis(lo, hi, n)])


INPUTS = dict(x0=0.7, p0x=-0.3, delta_n0=0.4, c0=0.25, gamma_x=1.3,
              omega=7.0, k0=0.8)


# ---- exact second-order law ---------------------------------------------------

def test_com_rhs_harmonic_restoring_force():
    g = make_grid([Axis(-8.0, 8.0, 32), Axis(-8.0, 8.0, 32)])
    x, y = g.coordinate(0), g.coordinate(1)
    # real spinor centered at (1, 0): no Raman force term
    phi = Spinor(g, np.exp(-((x - 1.0) ** 2 + y**2) / 2.0),
                 np.zeros(g.shape)).normalized()
    p = Params(k0=3.0, omega=5.0, gamma_x=2.0, gamma_y=1.0)
    acc = com_rhs_exact(phi, p)
    assert acc[0] == pytest.approx(-4.0, abs=1e-8)
    assert acc[1] == pytest.approx(0.0, abs=1e-10)


def test_com_rhs_matches_finite_difference_of_trajectory():
    g = fourier_1d()
    x = g.coordinate(0)
    p = Params(k0=1.0, omega=4.0, beta11=3.0, beta12=3.0, beta22=3.0)
    psi0 = Spinor(g, np.pi**-0.25 * np.exp(-((x - 1.0) ** 2) / 2.0),
                  np.zeros(g.shape))
    tau = 1e-4
    series = evolve(psi0, p, EvolveOptions(tau=tau, t_end=10 * tau,
                                           record_every=1))
    xc = series.xc[:, 0]
    # second difference at the middle sample vs the law evaluated there
    mid = 5
    fd = (xc[mid + 1] - 2.0 * xc[mid] + xc[mid - 1]) / tau**2
    psi_mid = psi0
    prop_state = evolve(psi0, p, EvolveOptions(tau=tau, t_end=mid * tau,
                                               record_every=mid))
    acc = com_rhs_exact(prop_state.final_state, p)[0]
    assert fd == pytest.approx(acc, rel=1e-4)


def test_xc_velocity_identity_along_trajectory():
    # d/dt xc = Px - k0 * delta_N, checked by centered differences
    g = fourier_1d()
    x = g.coordinate(0)
    p = Params(k0=1.0, omega=4.0, delta=0.3, beta11=2.0, beta12=1.0, beta22=2.0)
    psi0 = Spinor(g, np.pi**-0.25 * np.exp(-((x - 1.0) ** 2) / 2.0),
                  np.zeros(g.shape))
    series = evolve(psi0, p, EvolveOptions(tau=1e-3, t_end=0.2, record_every=1))
    xc = series.xc[:, 0]
    px = series.momentum[:, 0]
    dn = series.column("delta_n")
    t = series.times
    fd = (xc[2:] - xc[:-2]) / (t[2:] - t[:-2])
    law = px[1:-1] - p.k0 * dn[1:-1]
    scale = np.abs(law).max()
    assert np.abs(fd - law).max() <= 1e-4 * max(1.0, scale)


# ---- closed forms ---------------------------------------------------------------

def test_closed_form_reduces_to_trap_oscillation_at_k0_zero():
    inp = ComClosedFormInputs(**{**INPUTS, "k0": 0.0})
    t = np.linspace(0.0, 5.0, 11)
    expected = inp.x0 * np.cos(inp.gamma_x * t) + \
        inp.p0x / inp.gamma_x * np.sin(inp.gamma_x * t)
    np.testing.assert_allclose(xc_closed_form(inp, t), expected, atol=1e-14)


def test_closed_form_zero_initial_imbalance():
    inp = ComClosedFormInputs(**{**INPUTS, "delta_n0": 0.0, "c0": 0.0})
    t = np.linspace(0.0, 5.0, 11)
    expected = inp.x0 * np.cos(inp.gamma_x * t) + \
        inp.p0x / inp.gamma_x * np.sin(inp.gamma_x * t)
    np.testing.assert_allclose(xc_closed_form(inp, t), expected, atol=1e-13)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_closed_form_matches_convolution_quadrature():
    # the adaptive oracle flags round-off near its 1e-14 target; harmless at
    # the 1e-10 comparison tolerance
    inp = ComClosedFormInputs(**INPUTS)

    def delta_n(s):
        return inp.delta_n0 * np.cos(inp.omega * s) + inp.c0 * np.sin(inp.omega * s)

    def oracle(t):
        conv, _ = quad(lambda s: np.cos(inp.gamma_x * (t - s)) * delta_n(s),
                       0.0, t, limit=400, epsabs=1e-14, epsrel=1e-13)
        return (inp.x0 * np.cos(inp.gamma_x * t)
                + inp.p0x / inp.gamma_x * np.sin(inp.gamma_x * t)
                - inp.k0 * conv)

    for t in (0.3, 1.1, 2.7, 5.0, 9.3):
        assert xc_closed_form(inp, t) == pytest.approx(oracle(t), abs=1e-10)


def test_closed_form_resonant_case_continuity():
    exact = ComClosedFormInputs(**{**INPUTS, "omega": 1.3})
    near = ComClosedFormInputs(**{**INPUTS, "omega": 1.3 + 1e-6})
    assert exact.resonant and not near.resonant
    t = np.linspace(0.0, 5.0, 41)
    assert np.abs(xc_closed_form(exact, t) - xc_closed_form(near, t)).max() \
        <= 1e-4


def test_closed_form_requires_positive_trap():
    with pytest.raises(ValueError):
        ComClosedFormInputs(**{**INPUTS, "gamma_x": 0.0})


def test_closed_form_inputs_from_state():
    g = fourier_1d()
    x = g.coordinate(0)
    phi = Spinor(g, np.pi**-0.25 * np.exp(-((x - 1.0) ** 2) / 2.0),
                 np.zeros(g.shape))
    p = Params(k0=1.0, omega=20.0, gamma_x=1.0)
    inp = ComClosedFormInputs.from_state(phi, p)
    assert inp.x0 == pytest.approx(1.0, abs=1e-10)
    assert inp.p0x == pytest.approx(0.0, abs=1e-10)
    assert inp.delta_n0 == pytest.approx(1.0, abs=1e-12)
    assert inp.c0 == pytest.approx(0.0, abs=1e-12)


# ---- reduced ODE -----------------------------------------------------------------

def test_lda_exact_harmonic_at_k0_zero():
    p = Params(gamma_x=2.0, omega=50.0)
    series = lda_ode_solve(LdaState(xc=1.5, px=0.4), p, 1e-3, 10.0)
    exact = 1.5 * np.cos(2.0 * series.times) + 0.2 * np.sin(2.0 * series.times)
    assert np.abs(series.xc - exact).max() <= 1e-8


def test_lda_conserved_quantity_drift():
    p = Params(gamma_x=2.0, omega=50.0, k0=2.0, delta=0.0)
    series = lda_ode_solve(lda_initial_from_imbalance(2.0, 0.01, p), p, 1e-3, 20.0)
    assert np.abs(series.conserved - series.conserved[0]).max() <= 1e-8


def test_lda_trajectory_closes():
    p = Params(gamma_x=2.0, omega=50.0, k0=2.0, delta=0.0)
    s0 = lda_initial_from_imbalance(2.0, 0.01, p)
    series = lda_ode_solve(s0, p, 1e-3, 50.0)
    d2 = (series.xc - s0.xc) ** 2 + (series.px - s0.px) ** 2
    mask = series.times > 0.5
    i = np.argmin(d2[mask]) + np.count_nonzero(~mask)
    # quadratic interpolation of the squared distance through the minimum
    a, b, c = d2[i - 1], d2[i], d2[i + 1]
    d_min = np.sqrt(max(b - (c - a) ** 2 / (8.0 * (a - 2.0 * b + c)), 0.0))
    assert d_min <= 1e-4


def test_lda_initial_seeding():
    p = Params(k0=2.0)
    s = lda_initial_from_imbalance(1.5, 0.3, p)
    assert s.xc == 1.5 and s.px == pytest.approx(0.6)


def test_lda_singular_force_reported():
    p = Params(gamma_x=1.0, omega=0.0, k0=1.0, delta=0.0)
    with pytest.raises(ZeroDivisionError):
        lda_ode_solve(LdaState(xc=1.0, px=0.0), p, 1e-3, 1.0)


def numpy_scalar_lda(x, p, params, tau, n):
    """The RK4 loop on numpy scalars with np.hypot, as a reference."""
    def rhs(xc, px):
        a = 2.0 * params.k0 * px - params.delta
        root = np.hypot(a, params.omega)
        return px - params.k0 * a / root, -params.gamma_x**2 * xc

    xc, pc = np.empty(n + 1), np.empty(n + 1)
    xc[0], pc[0] = x, p
    for i in range(n):
        k1x, k1p = rhs(x, p)
        k2x, k2p = rhs(x + 0.5 * tau * k1x, p + 0.5 * tau * k1p)
        k3x, k3p = rhs(x + 0.5 * tau * k2x, p + 0.5 * tau * k2p)
        k4x, k4p = rhs(x + tau * k3x, p + tau * k3p)
        x = x + tau * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        p = p + tau * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        xc[i + 1], pc[i + 1] = x, p
    return xc, pc


# configs/com_compare_2d.cfg: its parameters, and x_c, delta_N and P_x of the
# shifted ground state, as its observables.csv prints them at t = 0
COM_2D = Params(k0=2.0, omega=50.0, beta11=10.0, beta12=10.0, beta22=10.0,
                gamma_x=2.0, gamma_y=2.0)
COM_2D_STARTS = [
    lda_initial_from_imbalance(1.9999999999999976, -5.9729998724833422e-14,
                               COM_2D),
    LdaState(xc=1.9999999999999976, px=-8.0918605149804534e-13),
]


@pytest.mark.parametrize("start", COM_2D_STARTS, ids=["imbalance", "measured"])
def test_lda_solve_is_the_numpy_scalar_loop_on_com_2d(start):
    series = lda_ode_solve(start, COM_2D, 1e-3, 20.0)
    xc, px = numpy_scalar_lda(start.xc, start.px, COM_2D, 1e-3, 20000)
    assert np.array_equal(series.xc, xc)
    assert np.array_equal(series.px, px)
    assert np.array_equal(series.conserved, lda_conserved(xc, px, COM_2D))


def test_lda_solve_follows_the_numpy_scalar_loop():
    # math.hypot and np.hypot may differ in the last bit, so away from
    # com_2d the two loops agree to round-off accumulated over the steps
    rng = np.random.default_rng(5)
    n = 2000
    for _ in range(4):
        x0, p0 = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
        params = Params(k0=rng.uniform(0.2, 2.0), omega=rng.uniform(1.0, 10.0),
                        delta=rng.uniform(-1.0, 1.0), gamma_x=rng.uniform(0.5, 2.0))
        series = lda_ode_solve(LdaState(xc=x0, px=p0), params, 1e-3, n * 1e-3)
        xc, px = numpy_scalar_lda(x0, p0, params, 1e-3, n)
        scale = max(1.0, np.abs(xc).max(), np.abs(px).max())
        tol = 10 * n * np.finfo(float).eps * scale
        assert np.abs(series.xc - xc).max() <= tol
        assert np.abs(series.px - px).max() <= tol


def test_lda_conserved_formula():
    p = Params(gamma_x=2.0, omega=3.0, k0=1.0, delta=0.5)
    val = lda_conserved(1.0, 2.0, p)
    expected = 4.0 + 4.0 - np.hypot(2.0 * 2.0 - 0.5, 3.0)
    assert val == pytest.approx(expected)


# ---- series comparison --------------------------------------------------------------

def test_compare_identical_series():
    t = np.linspace(0.0, 2.0, 21)
    x = np.cos(t)
    c = compare_series(t, x, t, x)
    assert c.max_dev == 0.0 and c.l2_dev == 0.0


def test_compare_constant_shift():
    t = np.linspace(0.0, 2.0, 21)
    x = np.cos(t)
    c = compare_series(t, x + 0.1, t, x)
    assert c.max_dev == pytest.approx(0.1)


def test_compare_respects_window():
    t = np.linspace(0.0, 10.0, 101)
    x = np.zeros_like(t)
    y = np.where(t > 5.0, 1.0, 0.0)
    c = compare_series(t, x, t, y, t_min=0.0, t_max=4.0)
    assert c.max_dev == 0.0
    with pytest.raises(ValueError):
        compare_series(t, x, t, y, t_min=20.0, t_max=21.0)
