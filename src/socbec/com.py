"""Center-of-mass dynamical laws and comparison helpers.

Under equal harmonic traps the center-of-mass obeys the exact forced
oscillator law

    xc'' = -Lambda xc - 2*k0*omega*Im(int conj(psi1) psi2) e_x,

with initial slope xc'(0) = P(0) - k0*delta_N(0) e_x.  Two reductions are
implemented: the small-k0 closed forms (delta_N approximated by its own
Rabi oscillation) and the local-density-approximation ODE for shifted
stationary initial data, whose conserved quantity

    gamma_x^2 xc^2 + Px^2 - sqrt((2 k0 Px - delta)^2 + omega^2)

is recorded along the integration as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import step_count
from .model import Params, Spinor, observables

RESONANCE_TOL = 1e-12


@dataclass(frozen=True)
class ComClosedFormInputs:
    """Initial data of the closed-form approximations.

    c0 is twice the imaginary Raman overlap at t=0, so the initial mass-rate
    is delta_N'(0) = omega*c0.  The closed forms assume zero detuning and
    equal interactions; delta is carried for bookkeeping only.
    """

    x0: float
    p0x: float
    delta_n0: float
    c0: float
    gamma_x: float
    omega: float
    k0: float
    delta: float = 0.0

    def __post_init__(self):
        if self.gamma_x <= 0:
            raise ValueError("gamma_x must be positive")

    @property
    def resonant(self) -> bool:
        return abs(abs(self.omega) - self.gamma_x) <= RESONANCE_TOL

    @classmethod
    def from_state(cls, phi: Spinor, params: Params) -> "ComClosedFormInputs":
        obs = observables(phi, params)
        g = phi.grid
        c0 = 2.0 * float(np.imag(g.quadrature(np.conj(phi.psi1) * phi.psi2)))
        return cls(
            x0=float(obs.xc[0]), p0x=float(obs.momentum[0]),
            delta_n0=obs.delta_n, c0=c0, gamma_x=params.gamma_x,
            omega=params.omega, k0=params.k0, delta=params.delta,
        )


def com_rhs_exact(phi: Spinor, params: Params) -> np.ndarray:
    """xc'' evaluated from the current field (harmonic-trap law)."""
    g = phi.grid
    obs = observables(phi, params)
    gammas = params.gammas(g.dim)
    acc = -np.array(gammas) ** 2 * obs.xc
    overlap_im = float(np.imag(g.quadrature(np.conj(phi.psi1) * phi.psi2)))
    acc[0] -= 2.0 * params.k0 * params.omega * overlap_im
    return acc


def xc_closed_form(inputs: ComClosedFormInputs, t):
    """Small-k0 closed-form xc(t); scalar or array t.

    The mass difference is approximated by its Rabi oscillation
    delta_N(s) = delta_N(0) cos(omega s) + c0 sin(omega s) and the forced
    oscillator is solved exactly.  |omega| = gamma_x switches to the secular
    (resonant) branch.
    """
    t = np.asarray(t, dtype=float)
    g = inputs.gamma_x
    k0, om = inputs.k0, inputs.omega
    d0, c0 = inputs.delta_n0, inputs.c0
    x0, p0 = inputs.x0, inputs.p0x
    if k0 == 0.0:
        out = x0 * np.cos(g * t) + (p0 / g) * np.sin(g * t)
        return float(out) if out.ndim == 0 else out
    if inputs.resonant:
        sgn = np.sign(om)
        out = ((x0 - 0.5 * k0 * d0 * t) * np.cos(g * t)
               + (p0 - 0.5 * k0 * d0 - sgn * 0.5 * g * k0 * c0 * t)
               * np.sin(g * t) / g)
        return float(out) if out.ndim == 0 else out
    denom = g**2 - om**2
    a_cos = x0 + k0 * c0 * om / denom
    b_sin = (p0 - g**2 * k0 * d0 / denom) / g
    out = (a_cos * np.cos(g * t) + b_sin * np.sin(g * t)
           - (k0 * c0 * om / denom) * np.cos(om * t)
           + (k0 * d0 * om / denom) * np.sin(om * t))
    return float(out) if out.ndim == 0 else out


@dataclass
class LdaState:
    xc: float
    px: float


@dataclass
class LdaSeries:
    times: np.ndarray
    xc: np.ndarray
    px: np.ndarray
    conserved: np.ndarray


def lda_initial_from_imbalance(x0: float, delta_n0: float, params: Params) -> LdaState:
    """Reduced-ODE seeding from the initial mass imbalance:
    xc(0) = x0, Px(0) = k0 * delta_N(0).
    """
    return LdaState(xc=float(x0), px=params.k0 * delta_n0)


def lda_conserved(xc, px, params: Params):
    a = 2.0 * params.k0 * np.asarray(px) - params.delta
    return (params.gamma_x**2 * np.asarray(xc) ** 2 + np.asarray(px) ** 2
            - np.hypot(a, params.omega))


def _lda_rhs(xc: float, px: float, k0: float, delta: float, omega: float,
             gamma_x2: float):
    a = 2.0 * k0 * px - delta
    root = math.hypot(a, omega)
    if root == 0.0:
        raise ZeroDivisionError(
            "singular reduced force: omega = 0 and 2*k0*Px - delta = 0"
        )
    return px - k0 * a / root, -gamma_x2 * xc


def lda_ode_solve(initial: LdaState, params: Params, tau: float,
                  t_end: float) -> LdaSeries:
    """Classical fixed-step RK4 on the reduced center-of-mass ODE.

    Records (t, xc, Px) and the conserved quantity at every step; the fixed
    step keeps the conserved-quantity drift a meaningful integrator check.
    The loop runs on Python floats with `math.hypot`: a numpy scalar costs
    several times a float per operation, and the two hypot functions are
    both accurate to within an ulp (they can differ in the last bit).
    """
    n = step_count(tau, t_end)
    coeffs = (float(params.k0), float(params.delta), float(params.omega),
              float(params.gamma_x)**2)
    tau = float(tau)
    half = 0.5 * tau
    xc = np.empty(n + 1)
    px = np.empty(n + 1)
    x, p = float(initial.xc), float(initial.px)
    xc[0], px[0] = x, p
    for i in range(n):
        k1x, k1p = _lda_rhs(x, p, *coeffs)
        k2x, k2p = _lda_rhs(x + half * k1x, p + half * k1p, *coeffs)
        k3x, k3p = _lda_rhs(x + half * k2x, p + half * k2p, *coeffs)
        k4x, k4p = _lda_rhs(x + tau * k3x, p + tau * k3p, *coeffs)
        x = x + tau * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        p = p + tau * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        xc[i + 1], px[i + 1] = x, p
    times = np.arange(n + 1) * tau
    return LdaSeries(times=times, xc=xc, px=px,
                     conserved=lda_conserved(xc, px, params))


@dataclass
class SeriesComparison:
    max_dev: float
    l2_dev: float
    t_min: float
    t_max: float
    n_samples: int


def compare_series(times_a, xc_a, times_b, xc_b,
                   t_min: float | None = None,
                   t_max: float | None = None) -> SeriesComparison:
    """Time-aligned max and L2 deviations of two xc histories over a window.

    Series b is linearly interpolated onto the samples of series a that fall
    inside the window (default: the overlap of the two time ranges).
    """
    times_a = np.asarray(times_a, dtype=float)
    times_b = np.asarray(times_b, dtype=float)
    xc_a = np.asarray(xc_a, dtype=float)
    xc_b = np.asarray(xc_b, dtype=float)
    lo = max(times_a[0], times_b[0]) if t_min is None else t_min
    hi = min(times_a[-1], times_b[-1]) if t_max is None else t_max
    mask = (times_a >= lo - 1e-12) & (times_a <= hi + 1e-12)
    if not np.any(mask):
        raise ValueError("comparison window contains no samples")
    t = times_a[mask]
    diff = xc_a[mask] - np.interp(t, times_b, xc_b)
    max_dev = float(np.abs(diff).max())
    if len(t) > 1:
        l2 = float(np.sqrt(np.trapezoid(diff**2, t)))
    else:
        l2 = float(abs(diff[0]))
    return SeriesComparison(max_dev=max_dev, l2_dev=l2, t_min=float(lo),
                            t_max=float(hi), n_samples=int(mask.sum()))
