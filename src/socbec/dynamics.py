"""Real-time evolution by second-order operator splitting.

Lab frame / periodic truncation: time-splitting Fourier pseudospectral (TSFP)
stepping.  The kinetic + spin-orbit + detuning + Raman block is diagonalized
per Fourier mode: with chi = k0*mu_x - delta/2 and
lambda = sqrt(4*chi^2 + omega^2)/2, the mode symbol

    A = [[|mu|^2/2 - chi, omega/2], [omega/2, |mu|^2/2 + chi]]

has eigenvalues |mu|^2/2 +- lambda and the half-step flow exp(-i*(tau/2)*A)
is applied in closed form.  The trap/nonlinear phase step is exact because it
leaves the densities unchanged.  Strang order: spectral half, pointwise full,
spectral half.

The phase e^{-i dt (V + beta rho)} costs a scalar libm cos and sin per node
and row.  Under equal interactions (beta11 = beta12 = beta22) the two rows
of V + beta rho are the same bits, as V1 = V2, so the TSFP core and both
half-phases of the box core compute the phase on one row and broadcast it
(`Discretization.potential_rows`), with the bits of the two-row phase.

Tilde frame / box potential: three-part splitting on a sine (Dirichlet) grid
- kinetic/detuning half (diagonal in sine space), trap/nonlinear phase half,
exact Raman rotation over the full step, then the halves in reverse.  The
rotation solves i dt psi1 = (omega/2) e^{-2ik0x} psi2 (and conjugate) exactly:

    R(tau) = cos(omega*tau/2) I - i sin(omega*tau/2) [[0, e^{-2ik0x}],
                                                      [e^{2ik0x}, 0]],

which preserves the pointwise total density.

`_splitting(grid, params, tau)` is the one builder of a step's tables: the
spectral half-step and the pointwise part.  It checks the discretization;
the box tables come from the unchecked `_box_splitting`.  `evolve` fuses
adjacent spectral half-steps ("first same as last"): after one leading
half-step, each step is inverse transform, pointwise part, forward
transform and one full spectral step (the half-step table of `_splitting`
at 2*tau), one transform pair in all.  Record and snapshot points, the last
step and an abort first close the pending half-step, so they see the states
of a loop of `tsfp_step(psi, params, tau)` or `box_step(psi, params, tau)`
to round-off.  Those two are the single-step API and the test oracle: each
checks its frame and runs one unfused `_strang_step` over the `_splitting`
tables, rebuilt on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .grid import Grid, check_integer
from .model import (LAB, TILDE, Discretization, Params, Spinor,
                    discretization, observables)


def step_count(tau: float, t_end: float) -> int:
    """Number of fixed steps tau that reach t_end exactly.

    Raises ValueError unless tau and t_end are finite, tau > 0, t_end >= 0
    and t_end is an integer multiple of tau (to 1e-9 relative).
    """
    for name, value in (("tau", tau), ("t_end", t_end)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    n = int(round(t_end / tau))
    if abs(n * tau - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of tau")
    return n


@dataclass
class EvolveOptions:
    tau: float
    t_end: float
    record_every: int = 1
    snapshot_every: int = 0

    def __post_init__(self):
        step_count(self.tau, self.t_end)
        check_integer("record_every", self.record_every)
        check_integer("snapshot_every", self.snapshot_every)
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")

    @property
    def steps(self) -> int:
        return step_count(self.tau, self.t_end)


class ModePropagator:
    """Per-mode half-step propagator table for the lab-frame spectral block.

    Entries m11/m12/m22 are the closed-form symmetric unitary
    Q^T e^{-i(tau/4) U} Q advancing the mode ODE by tau/2; chi, lam, the
    orthogonal factor Q and the diagonal phases are retained for inspection.
    For omega = 0 the table degenerates to decoupled diagonal phases and Q is
    not constructed (its printed entries divide by lambda -+ chi).  m11 and
    m22 are the rows of the stacked `diag` table that `apply` uses.
    """

    def __init__(self, grid: Grid, params: Params, tau: float):
        if params.frame != LAB:
            raise ValueError("mode propagators implement the lab-frame block")
        disc = discretization(grid, params)
        disc.check_dynamics()
        if tau == 0.0:
            raise ValueError("tau must be nonzero")
        mu2 = grid.mu2
        chi = params.k0 * disc.mu_x - 0.5 * params.delta
        self.chi = chi
        omega = params.omega
        self.diag = np.empty((2,) + grid.shape, dtype=np.complex128)
        self.m11, self.m22 = self.diag
        if omega != 0.0:
            lam = 0.5 * np.sqrt(4.0 * chi**2 + omega**2)
            self.lam = lam
            ep = np.exp(-0.25j * tau * (mu2 + 2.0 * lam))
            em = np.exp(-0.25j * tau * (mu2 - 2.0 * lam))
            self.phases = (ep, em)
            self.m11[...] = ((lam - chi) * ep + (lam + chi) * em) / (2.0 * lam)
            self.m22[...] = ((lam + chi) * ep + (lam - chi) * em) / (2.0 * lam)
            self.m12 = omega * (ep - em) / (4.0 * lam)
            # rows of Q are the +-lambda eigenvectors; the off-diagonal
            # entries are rewritten via omega/2 = sgn(omega) sqrt(lam^2-chi^2)
            # so nothing divides by lam -+ chi
            sp = np.sqrt((lam + chi) / (2.0 * lam))
            sm = np.sqrt((lam - chi) / (2.0 * lam))
            sgn = np.sign(omega)
            self.q = np.stack([
                np.stack([sm, sgn * sp], axis=0),
                np.stack([-sp, sgn * sm], axis=0),
            ], axis=0)
        else:
            self.lam = np.abs(chi)
            ep = np.exp(-0.25j * tau * (mu2 - 2.0 * chi))
            em = np.exp(-0.25j * tau * (mu2 + 2.0 * chi))
            self.phases = (ep, em)
            self.m11[...] = ep
            self.m22[...] = em
            self.m12 = None
            self.q = None

    def apply(self, c: np.ndarray) -> np.ndarray:
        """Advance stacked spectral coefficients by tau/2 of the linear block.

        The table is scale free: `c` comes from `Grid.forward` and goes back
        through `Grid.inverse`.  Returns a new array and never writes into
        `c`, on both the coupled and the omega = 0 branch, so a caller may
        keep `c` and advance it again.
        """
        out = self.diag * c
        if self.m12 is None:
            return out
        out += self.m12 * c[::-1]
        return out


def build_mode_propagators(grid: Grid, params: Params, tau: float) -> ModePropagator:
    """Propagator table over all Fourier modes for one (grid, params, tau)."""
    return ModePropagator(grid, params, tau)


def _nonlinear_phase(psi: np.ndarray, d: Discretization,
                     dt: float) -> np.ndarray:
    """Exact trap/nonlinear phase flow over dt of stacked psi, in place.

    The densities are invariant under the flow.  cos/sin run on the first
    `d.potential_rows` rows of p = V + beta rho and broadcast over both
    components.  Under equal interactions that is one row: V1 = V2 and the
    rows of beta are equal, so the rows of p are the same bits and row 0
    gives the two-row phase exactly, at half the cos/sin cost.  Row 0 is
    sliced from the two-row `potential`; a one-row product of its own can
    round differently.
    """
    p = d.potential(psi)[:d.potential_rows]
    p *= -dt
    # e^{ip} as cos + i sin: the same values as np.exp(1j*p), computed faster
    rot = np.empty(p.shape, dtype=np.complex128)
    np.cos(p, out=rot.real)
    np.sin(p, out=rot.imag)
    psi *= rot
    return psi


def _strang_step(psi: Spinor, half, core) -> Spinor:
    """One unfused Strang step: spectral `half`, pointwise `core`, `half`."""
    g = psi.grid
    a = core(g.inverse(half(g.forward(psi.psi)), overwrite=True))
    a = g.inverse(half(g.forward(a, overwrite=True)), overwrite=True)
    return Spinor.from_stacked(g, a)


def tsfp_step(psi: Spinor, params: Params, tau: float) -> Spinor:
    """One lab-frame Strang step: spectral half, nonlinear phase, spectral half."""
    if params.frame != LAB:
        raise ValueError("tsfp_step runs in the lab frame")
    return _strang_step(psi, *_splitting(psi.grid, params, tau))


def box_step(psi: Spinor, params: Params, tau: float) -> Spinor:
    """One tilde-frame Strang step on a sine grid (box truncation)."""
    if params.frame != TILDE:
        raise ValueError("box_step runs in the tilde frame")
    return _strang_step(psi, *_splitting(psi.grid, params, tau))


@dataclass
class TrajectorySeries:
    """Time-indexed observable records plus optional field snapshots.

    final_state holds the state at the last completed step (the last good
    state when the run aborted on non-finite values) and final_time its
    time, which after an abort can lie past the last record.
    """

    times: np.ndarray
    records: list
    snapshots: list = field(default_factory=list)
    aborted: bool = False
    final_state: Spinor | None = None
    final_time: float = 0.0

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    @property
    def xc(self) -> np.ndarray:
        return np.stack([r.xc for r in self.records])

    @property
    def momentum(self) -> np.ndarray:
        return np.stack([r.momentum for r in self.records])


def _splitting(grid: Grid, params: Params, tau: float):
    """(half, core) maps of one Strang step, TSFP or box by frame.

    A step is inverse(half(forward(core(inverse(half(c)))))): `half`
    advances stacked spectral coefficients by half a step of the spectral
    block and returns a new array; `core` is the pointwise part, applied in
    place to physical samples.  The `half` of 2*tau is a whole step.
    """
    d = discretization(grid, params)
    d.check_dynamics()
    if params.frame == LAB:
        half = build_mode_propagators(grid, params, tau)
        return half.apply, lambda a: _nonlinear_phase(a, d, tau)
    return _box_splitting(d, tau)


def _box_splitting(d: Discretization, tau: float):
    """(half, core) maps of one tilde-frame box step; `d` is not checked.

    `half` multiplies by the kinetic/detuning phases e^{-i (tau/2) symbol}.
    `core` is phase/2, the exact Raman rotation, phase/2.  The rows of `off`
    carry the -i sin(omega*tau/2) e^{-+2ik0x} off-diagonal factors; the
    per-node mixing matrix is unitary, so |psi1|^2 + |psi2|^2 is preserved
    at every node.
    """
    half = partial(np.multiply, np.exp((-1j * (0.5 * tau)) * d.symbol))
    angle = 0.5 * d.params.omega * tau
    cos_half = float(np.cos(angle))
    off = -1j * np.sin(angle) * np.stack((np.conj(d.phase), d.phase))

    def core(a):
        a = _nonlinear_phase(a, d, 0.5 * tau)
        r = cos_half * a
        r += off * a[::-1]
        return _nonlinear_phase(r, d, 0.5 * tau)

    return half, core


def evolve(psi0: Spinor, params: Params, options: EvolveOptions,
           observer=None) -> TrajectorySeries:
    """Step from t=0 to t_end, recording observables every record_every steps.

    The stepper is picked from the frame/basis: lab frame on a Fourier grid
    uses TSFP; tilde frame on a sine grid uses the box splitting.  Adjacent
    spectral half-steps are fused (see the module docstring).  Non-finite
    values abort the run; the series keeps the records up to the last good
    state and is flagged `aborted`.
    """
    g = psi0.grid
    half, core = _splitting(g, params, options.tau)
    full = _splitting(g, params, 2.0 * options.tau)[0]

    def close(m):
        return Spinor.from_stacked(g, g.inverse(half(m), overwrite=True))

    times = [0.0]
    records = [observables(psi0, params)]
    snapshots = []
    if options.snapshot_every:
        snapshots.append((0.0, psi0.copy()))
    if observer is not None:
        observer(0.0, psi0, records[0])

    last_good, t = psi0, 0.0
    # modes of the last good step, trailing half-step not applied; the last
    # step always closes, so only an abort between closing points finds it
    pending = None
    aborted = False
    n_steps = options.steps
    c = half(g.forward(psi0.psi))
    for step in range(1, n_steps + 1):
        m = g.forward(core(g.inverse(c, overwrite=True)), overwrite=True)
        # the complex sum is finite exactly when its real part, sum |m|^2, is
        if not math.isfinite(np.vdot(m, m).real):
            aborted = True
            break
        t = step * options.tau
        record_now = step % options.record_every == 0 or step == n_steps
        snapshot_now = options.snapshot_every and (
            step % options.snapshot_every == 0 or step == n_steps)
        if record_now or snapshot_now:
            last_good, pending = close(m), None
        else:
            pending = m
        if record_now:
            rec = observables(last_good, params)
            times.append(t)
            records.append(rec)
            if observer is not None:
                observer(t, last_good, rec)
        if snapshot_now:
            snapshots.append((t, last_good.copy()))
        c = full(m)
    if pending is not None:
        last_good = close(pending)

    # t is the time of the last good step: an abort breaks before setting it
    return TrajectorySeries(
        times=np.array(times), records=records, snapshots=snapshots,
        aborted=aborted, final_state=last_good, final_time=t,
    )
