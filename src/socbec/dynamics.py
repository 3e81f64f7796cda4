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

Tilde frame / box potential: three-part splitting on a sine (Dirichlet) grid
- kinetic/detuning half (diagonal in sine space), trap/nonlinear phase half,
exact Raman rotation over the full step, then the halves in reverse.  The
rotation solves i dt psi1 = (omega/2) e^{-2ik0x} psi2 (and conjugate) exactly:

    R(tau) = cos(omega*tau/2) I - i sin(omega*tau/2) [[0, e^{-2ik0x}],
                                                      [e^{2ik0x}, 0]],

which preserves the pointwise total density.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid
from .model import LAB, TILDE, Params, Spinor, abs2, discretization, observables


def step_count(tau: float, t_end: float) -> int:
    """Number of fixed steps tau that reach t_end exactly.

    Raises ValueError unless tau > 0, t_end >= 0 and t_end is an integer
    multiple of tau (to 1e-9 relative).
    """
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
        self.grid = grid
        self.tau = float(tau)
        self.key = (params.k0, params.omega, params.delta)
        mu2 = disc.mu2
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

        The table is scale free: `c` comes from `Grid.to_modes` and goes back
        through `Grid.from_modes`.  Writes into `c` when omega = 0.
        """
        if self.m12 is None:
            c *= self.diag
            return c
        out = self.diag * c
        out += self.m12 * c[::-1]
        return out


def build_mode_propagators(grid: Grid, params: Params, tau: float) -> ModePropagator:
    """Propagator table over all Fourier modes for one (grid, params, tau)."""
    return ModePropagator(grid, params, tau)


def _nonlinear_phase(psi: np.ndarray, v1, v2, beta: np.ndarray,
                     dt: float) -> np.ndarray:
    """Exact trap/nonlinear phase flow over dt of stacked psi, in place.

    The densities are invariant under the flow.
    """
    p = np.tensordot(beta, abs2(psi), 1)
    p[0] += v1
    p[1] += v2
    p *= -dt
    # e^{ip} as cos + i sin: the same values as np.exp(1j*p), computed faster
    rot = np.empty(p.shape, dtype=np.complex128)
    np.cos(p, out=rot.real)
    np.sin(p, out=rot.imag)
    psi *= rot
    return psi


def tsfp_step(psi: Spinor, params: Params, propagators: ModePropagator,
              tau: float) -> Spinor:
    """One Strang step: spectral half, full nonlinear phase, spectral half."""
    if propagators.grid != psi.grid:
        raise ValueError("propagator table was built for a different grid")
    if propagators.tau != tau:
        raise ValueError(
            f"propagator table was built for tau={propagators.tau}, got {tau}"
        )
    if propagators.key != (params.k0, params.omega, params.delta):
        raise ValueError("propagator table was built for different params")
    g = psi.grid
    d = discretization(g, params)
    a = g.from_modes(propagators.apply(g.to_modes(psi.psi)), overwrite=True)
    a = _nonlinear_phase(a, d.v[0], d.v[1], d.beta, tau)
    a = g.from_modes(propagators.apply(g.to_modes(a, overwrite=True)),
                     overwrite=True)
    return Spinor.from_stacked(g, a)


@dataclass
class BoxRotation:
    """Exact Raman rotation cache for the tilde-frame splitting.

    r12/r21 carry the -i sin(omega*tau/2) e^{-+2ik0x} off-diagonal factors
    (the rows of the stacked `off` table); the per-node mixing matrix is
    unitary, so |psi1|^2 + |psi2|^2 is preserved at every node.
    """

    grid: Grid
    tau: float
    key: tuple
    cos_half: float
    r12: np.ndarray
    r21: np.ndarray
    phase: np.ndarray = field(repr=False, default=None)
    off: np.ndarray = field(repr=False, default=None)

    def rotate(self, psi: np.ndarray) -> np.ndarray:
        """Rotated copy of a stacked (2, *shape) spinor array."""
        out = self.cos_half * psi
        out += self.off * psi[::-1]
        return out

    def apply(self, psi1, psi2):
        out = self.rotate(np.stack((psi1, psi2)))
        return out[0], out[1]

    def t_matrices(self) -> np.ndarray:
        """Unitary diagonalizer T(x) of the coupling, shape (2,2)+grid.shape."""
        ones = np.ones(self.grid.shape)
        p = self.phase  # e^{-2ik0x}
        s = 1.0 / np.sqrt(2.0)
        return np.stack([
            np.stack([s * ones, s * p], axis=0),
            np.stack([-s * ones, s * p], axis=0),
        ], axis=0)


def build_box_rotation(grid: Grid, params: Params, tau: float) -> BoxRotation:
    phase = np.conj(discretization(grid, params).phase)
    half = 0.5 * params.omega * tau
    off = -1j * np.sin(half) * np.stack((phase, np.conj(phase)))
    return BoxRotation(
        grid=grid, tau=float(tau), key=(params.k0, params.omega),
        cos_half=float(np.cos(half)), r12=off[0], r21=off[1],
        phase=phase, off=off,
    )


def _tilde_kinetic_phases(grid: Grid, params: Params, dt: float) -> np.ndarray:
    """Stacked diagonal spectral phases of the tilde kinetic/detuning flow.

    Scale free, like every multiplier between `Grid.to_modes` and
    `Grid.from_modes`; unpacks as (e1, e2).
    """
    return np.exp((-1j * dt) * discretization(grid, params).symbol)


def _tilde_strang_step(psi: Spinor, params: Params, tau: float,
                       rotation: BoxRotation, kin_phases, v1, v2) -> Spinor:
    """kinetic/2, phase/2, rotation, phase/2, kinetic/2 on any basis."""
    g = psi.grid
    beta = params.beta_matrix()
    c = g.to_modes(psi.psi)
    c *= kin_phases
    a = g.from_modes(c, overwrite=True)
    a = _nonlinear_phase(a, v1, v2, beta, 0.5 * tau)
    a = rotation.rotate(a)
    a = _nonlinear_phase(a, v1, v2, beta, 0.5 * tau)
    c = g.to_modes(a, overwrite=True)
    c *= kin_phases
    return Spinor.from_stacked(g, g.from_modes(c, overwrite=True))


def box_step(psi: Spinor, params: Params, tau: float,
             rotation: BoxRotation | None = None) -> Spinor:
    """One tilde-frame Strang step on a sine grid (box truncation)."""
    if params.frame != TILDE:
        raise ValueError("box_step runs in the tilde frame")
    g = psi.grid
    d = discretization(g, params)
    d.check_dynamics()
    if rotation is None:
        rotation = build_box_rotation(g, params, tau)
    elif rotation.grid != g or rotation.tau != tau or \
            rotation.key != (params.k0, params.omega):
        raise ValueError("rotation cache does not match this step")
    kin = _tilde_kinetic_phases(g, params, 0.5 * tau)
    return _tilde_strang_step(psi, params, tau, rotation, kin, d.v[0], d.v[1])


@dataclass
class TrajectorySeries:
    """Time-indexed observable records plus optional field snapshots.

    final_state holds the state at the last completed step (the last good
    state when the run aborted on non-finite values).
    """

    times: np.ndarray
    records: list
    snapshots: list = field(default_factory=list)
    aborted: bool = False
    final_state: Spinor | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    @property
    def xc(self) -> np.ndarray:
        return np.stack([r.xc for r in self.records])

    @property
    def momentum(self) -> np.ndarray:
        return np.stack([r.momentum for r in self.records])


def evolve(psi0: Spinor, params: Params, options: EvolveOptions,
           observer=None) -> TrajectorySeries:
    """Step from t=0 to t_end, recording observables every record_every steps.

    The stepper is picked from the frame/basis: lab frame on a Fourier grid
    uses TSFP; tilde frame on a sine grid uses the box splitting.  Non-finite
    values abort the run; the series keeps the records up to the last good
    state and is flagged `aborted`.
    """
    g = psi0.grid
    disc = discretization(g, params)
    disc.check_dynamics()
    if params.frame == LAB:
        prop = build_mode_propagators(g, params, options.tau)

        def stepper(s):
            return tsfp_step(s, params, prop, options.tau)
    else:
        rot = build_box_rotation(g, params, options.tau)
        kin = _tilde_kinetic_phases(g, params, 0.5 * options.tau)

        def stepper(s):
            return _tilde_strang_step(s, params, options.tau, rot, kin,
                                      disc.v[0], disc.v[1])

    times = [0.0]
    records = [observables(psi0, params)]
    snapshots = []
    if options.snapshot_every:
        snapshots.append((0.0, psi0.copy()))
    if observer is not None:
        observer(0.0, psi0, records[0])

    last_good = psi0
    aborted = False
    n_steps = options.steps
    for step in range(1, n_steps + 1):
        psi = stepper(last_good)
        t = step * options.tau
        if not np.isfinite(np.vdot(psi.psi, psi.psi)):
            aborted = True
            break
        last_good = psi
        record_now = step % options.record_every == 0 or step == n_steps
        if record_now:
            rec = observables(psi, params)
            times.append(t)
            records.append(rec)
            if observer is not None:
                observer(t, psi, rec)
        if options.snapshot_every and (step % options.snapshot_every == 0
                                       or step == n_steps):
            snapshots.append((t, psi.copy()))

    return TrajectorySeries(
        times=np.array(times), records=records, snapshots=snapshots,
        aborted=aborted, final_state=last_good,
    )
