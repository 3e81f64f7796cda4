"""Model parameters, spinor fields, potentials, gauge maps, and observable
functionals for the two-component spin-orbit-coupled condensate.

The governing equations couple two complex fields through a spin-orbit term
i*k0*dx (opposite signs per component), a Rabi/Raman coupling omega/2, a
detuning +-delta/2, and cubic cross/self interactions beta_jl.  Every
functional has a lab-frame and a tilde-frame (gauge-transformed) realization
selected by `Params.frame`: the tilde frame trades the first-derivative
spin-orbit term for an oscillatory exp(+-2i*k0*x) factor on the Raman term.

`discretization(grid, params)` returns the one cached `Discretization` of a
(grid, params) pair: its fields, spectral symbols, frame/basis rules,
resolution warnings and the one copy of the discrete operator (energy, H psi,
the eigen residual, V + beta*rho), read by the functionals and the solvers.
On a Fourier x axis the lab-frame spin-orbit term sits in the diagonal
symbol; on a sine x axis the lab operator is the tilde operator conjugated
by the gauge map G = diag(e^{ik0x}, e^{-ik0x}), shifted by -k0^2/2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .grid import FOURIER, SINE, Grid

HARMONIC = "harmonic"
BOX = "box"
FREE = "free"

LAB = "lab"
TILDE = "tilde"

_GAMMA_NAMES = ("gamma_x", "gamma_y", "gamma_z")
_FLOAT_FIELDS = ("k0", "omega", "delta", "beta11", "beta12",
                 "beta22") + _GAMMA_NAMES


@dataclass(frozen=True)
class Params:
    """Physical coefficients of the coupled equations (dimensionless units).

    beta21 = beta12 is enforced by construction: only beta12 is stored.
    """

    k0: float = 0.0
    omega: float = 0.0
    delta: float = 0.0
    beta11: float = 0.0
    beta12: float = 0.0
    beta22: float = 0.0
    gamma_x: float = 1.0
    gamma_y: float = 1.0
    gamma_z: float = 1.0
    potential: str = HARMONIC
    frame: str = LAB

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.potential not in (HARMONIC, BOX, FREE):
            raise ValueError(f"unknown potential {self.potential!r}")
        if self.frame not in (LAB, TILDE):
            raise ValueError(f"unknown frame {self.frame!r}")

    @property
    def beta21(self) -> float:
        return self.beta12

    def beta_matrix(self) -> np.ndarray:
        return np.array([[self.beta11, self.beta12], [self.beta12, self.beta22]])

    def gammas(self, dim: int):
        return tuple(getattr(self, _GAMMA_NAMES[i]) for i in range(dim))

    def with_(self, **kw) -> "Params":
        return replace(self, **kw)


class Spinor:
    """Pair of complex fields sampled on a shared grid.

    The pair is held as one stacked (2, *grid.shape) array `psi`; psi1 and
    psi2 are views of its rows.  Code that hands a Spinor out never writes
    into its array afterwards.
    """

    def __init__(self, grid: Grid, psi1: np.ndarray, psi2: np.ndarray):
        psi1 = np.asarray(psi1)
        psi2 = np.asarray(psi2)
        if psi1.shape != grid.shape or psi2.shape != grid.shape:
            raise ValueError(
                f"component shapes {psi1.shape}, {psi2.shape} do not match "
                f"grid shape {grid.shape}"
            )
        self.grid = grid
        self.psi = np.stack((psi1, psi2)).astype(np.complex128, copy=False)

    @classmethod
    def from_stacked(cls, grid: Grid, psi: np.ndarray) -> "Spinor":
        """Wrap a stacked (2, *grid.shape) complex array without copying."""
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.shape != (2,) + grid.shape:
            raise ValueError(
                f"stacked spinor shape {psi.shape} does not match "
                f"(2,) + grid shape {grid.shape}"
            )
        out = cls.__new__(cls)
        out.grid = grid
        out.psi = psi
        return out

    @property
    def psi1(self) -> np.ndarray:
        return self.psi[0]

    @property
    def psi2(self) -> np.ndarray:
        return self.psi[1]

    def copy(self) -> "Spinor":
        return Spinor.from_stacked(self.grid, self.psi.copy())

    def density(self) -> np.ndarray:
        rho = abs2(self.psi)
        return rho[0] + rho[1]

    def norm_sq(self) -> float:
        return self.grid.quadrature(self.density())

    def normalized(self) -> "Spinor":
        s = np.sqrt(self.norm_sq())
        if s == 0.0:
            raise ValueError("cannot normalize a zero spinor")
        return Spinor.from_stacked(self.grid, self.psi / s)

    def component_masses(self):
        n1, n2 = abs2(self.psi).reshape(2, -1).sum(axis=1) * self.grid.cell_volume
        return float(n1), float(n2)


def abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 elementwise."""
    return a.real**2 + a.imag**2


@dataclass
class Observables:
    """One-time-slice record of the conserved and diagnostic quantities."""

    mass: float
    mass1: float
    mass2: float
    delta_n: float
    energy: float
    chem_mu: float
    xc: np.ndarray
    momentum: np.ndarray
    raman_overlap: float


@dataclass(frozen=True)
class BandParams:
    """Rescaled coefficients of the semiclassical two-band symbol."""

    k_inf: float
    omega_inf: float
    delta_inf: float


class Discretization:
    """Fields, spectral symbols and validity rules of one (grid, params) pair.

    Built once per pair by `discretization` and shared by every solve, step
    and functional on it: nothing changes after construction and the arrays
    are read-only.  Per-solve state (shifts, denominators) belongs to the
    solver.

    Attributes (stacked ones have shape (2, *grid.shape)):
        v          stacked trap fields (V1, V2)
        phase      e^{2ik0x}, the tilde-frame Raman factor
        coupling   R with H_raman psi = R * psi[::-1]: omega/2 in the lab
                   frame, stacked omega/2 * (e^{-2ik0x}, e^{2ik0x}) in the
                   tilde frame
        mu_x       the x wavenumber over the mode grid
        symbol     stacked diagonal symbol of the constant-coefficient block:
                   |mu|^2/2 -+ k0*mu_x (lab frame, Fourier x axis) +- delta/2,
                   minus k0^2/2 where `gauge` is set
        energy_weight  mode_weight * symbol, so the quadratic part of the
                   energy is sum(energy_weight * |forward(G^-1 psi)|^2)
        gauge      stacked G = (e^{ik0x}, e^{-ik0x}) in the lab frame with
                   k0 != 0 on a sine x axis, where the spectral block acts on
                   G^-1 psi (the tilde-frame field); None elsewhere (G = 1)
        potential_rows  1 when the two rows of `potential` agree bit for bit,
                   else 2.  V1 = V2 always (one trap is added to both rows),
                   so the rows agree exactly when beta11 = beta12 = beta22:
                   both rows of beta are then equal and `np.dot` computes
                   them with the same arithmetic
        warnings   resolution warnings
    """

    def __init__(self, grid: Grid, params: Params):
        if params.potential == BOX and not grid.is_sine:
            raise ValueError("box potential requires a sine-basis (Dirichlet) grid")
        self.grid = grid
        self.params = params
        self.beta = params.beta_matrix()
        equal = params.beta11 == params.beta12 == params.beta22
        self.potential_rows = 1 if equal else 2
        self.v = np.zeros((2,) + grid.shape)
        if params.potential == HARMONIC:
            gammas = params.gammas(grid.dim)
            if any(g <= 0 for g in gammas):
                raise ValueError(
                    f"harmonic potential needs positive trap frequencies, got {gammas}"
                )
            for i, g in enumerate(gammas):
                self.v += 0.5 * g**2 * grid.coordinate(i) ** 2
        x = grid.coordinate(0)
        self.phase = np.exp(2j * params.k0 * x)
        if params.frame == TILDE:
            self.coupling = 0.5 * params.omega * np.stack(
                (np.conj(self.phase), self.phase))
        else:
            self.coupling = 0.5 * params.omega
        self.mu_x = grid.mu(0) * np.ones(grid.shape)
        x_fourier = grid.axes[0].basis == FOURIER
        spin_orbit = params.frame == LAB and params.k0 != 0.0
        so = params.k0 * self.mu_x if spin_orbit and x_fourier else 0.0
        self.gauge, shift = None, 0.0
        if spin_orbit and not x_fourier:
            self.gauge = np.stack((np.exp(1j * params.k0 * x),
                                   np.exp(-1j * params.k0 * x)))
            shift = 0.5 * params.k0**2
        self.symbol = np.stack((0.5 * grid.mu2 - so + 0.5 * params.delta - shift,
                                0.5 * grid.mu2 + so - 0.5 * params.delta - shift))
        self.energy_weight = grid.mode_weight * self.symbol
        for arr in (self.v, self.phase, self.coupling, self.mu_x, self.symbol,
                    self.energy_weight, self.gauge):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        self.warnings = self._resolution_warnings()

    def _resolution_warnings(self):
        # k_max is pi/h on a Fourier axis and pi*(n-1)/L on a sine axis
        p = self.params
        k_max = float(np.abs(self.grid.wavenumbers[0]).max())
        if (p.frame == TILDE and self.grid.axes[0].basis == SINE
                and 2.0 * abs(p.k0) > k_max):
            return (f"under-resolved spin-orbit scale: 2|k0| = {2 * abs(p.k0):g} "
                    f"exceeds the largest x wavenumber {k_max:.6g} of the grid; "
                    "the e^(2ik0x) Raman factor aliases",)
        if p.frame == LAB and abs(p.k0) >= k_max:
            return (f"under-resolved spin-orbit scale: |k0| = {abs(p.k0):g} "
                    f"reaches the largest x wavenumber {k_max:.6g} of the grid",)
        return ()

    def check_flow(self):
        """Raise ValueError unless the gradient flow can run on this pair."""
        p = self.params
        if p.frame == TILDE:
            if p.potential != BOX:
                raise ValueError("the tilde-frame flow requires the box potential")
        elif p.potential == BOX:
            if p.k0 != 0.0:
                raise ValueError(
                    "lab-frame gradient flow with a box potential is only "
                    "valid at k0 = 0; use besp_solve in the tilde frame"
                )
        elif not self.grid.is_fourier:
            raise ValueError(
                f"{p.potential} potential flow requires a Fourier grid"
            )

    def check_dynamics(self):
        """Raise ValueError unless a splitting stepper exists for this pair."""
        if self.params.frame == LAB and not self.grid.is_fourier:
            raise ValueError("lab-frame dynamics (TSFP) requires a Fourier grid")
        if self.params.frame == TILDE and not self.grid.is_sine:
            raise ValueError("tilde-frame evolution runs on a sine grid")

    def overlap(self, psi: np.ndarray) -> float:
        """Re int psi1 conj(psi2), times e^{2ik0x} in the tilde frame."""
        p1 = self.phase * psi[0] if self.params.frame == TILDE else psi[0]
        return self.grid.cell_volume * float(np.vdot(psi[1], p1).real)

    def potential(self, psi: np.ndarray) -> np.ndarray:
        """Stacked pointwise potential V + beta @ |psi|^2 (a new array)."""
        p = np.dot(self.beta, abs2(psi).reshape(2, -1)).reshape(psi.shape)
        p += self.v
        return p

    def ungauged(self, psi: np.ndarray) -> np.ndarray:
        """G^-1 psi, the field the spectral block acts on (psi if no gauge)."""
        return psi if self.gauge is None else np.conj(self.gauge) * psi

    def energy_parts(self, psi: np.ndarray, modes2: np.ndarray | None = None):
        """(energy, quartic integral) of stacked psi.

        The kinetic, diagonal spin-orbit and detuning terms are the Parseval
        sum over modes2 = |forward(G^-1 psi)|^2, built here unless the
        caller already has it.
        """
        if modes2 is None:
            modes2 = abs2(self.grid.forward(self.ungauged(psi)))
        rho = abs2(psi)
        cv = self.grid.cell_volume
        beta_rho = np.dot(self.beta, rho.reshape(2, -1))
        quartic = 0.5 * cv * float(np.vdot(rho, beta_rho))
        val = float(np.vdot(self.energy_weight, modes2))
        val += cv * float(np.vdot(self.v, rho))
        val += quartic + self.params.omega * self.overlap(psi)
        return val, quartic

    def hamiltonian(self, psi: np.ndarray,
                    modes: np.ndarray | None = None) -> np.ndarray:
        """H(psi) psi of stacked psi, the Euler-Lagrange operator of the energy.

        `modes` is forward(G^-1 psi) when the caller already has it; it is
        overwritten.
        """
        c = self.grid.forward(self.ungauged(psi)) if modes is None else modes
        c *= self.symbol
        h = self.grid.inverse(c, overwrite=True)
        if self.gauge is not None:
            h *= self.gauge
        h += self.potential(psi) * psi
        h += self.coupling * psi[::-1]
        return h

    def eigen_residual(self, psi: np.ndarray, mu: float | None = None) -> float:
        """Discrete L2 norm of H(psi)psi - mu*psi; mu defaults to E + quartic.

        One transform pair: the forward transform of G^-1 psi serves the
        energy and H psi.
        """
        c = self.grid.forward(self.ungauged(psi))
        if mu is None:
            e, quartic = self.energy_parts(psi, abs2(c))
            mu = e + quartic
        r = self.hamiltonian(psi, c)
        r -= mu * psi
        return float(np.sqrt(self.grid.cell_volume * np.vdot(r, r).real))


@functools.lru_cache(maxsize=4)
def discretization(grid: Grid, params: Params) -> Discretization:
    """The shared `Discretization` of (grid, params), built on first use.

    Raises ValueError when the potential cannot live on the grid.
    """
    return Discretization(grid, params)


def potential_field(params: Params, grid: Grid):
    """Per-component trap fields (V1, V2) on the grid (read-only arrays).

    The box potential is encoded by the Dirichlet (sine) basis with V = 0
    inside, so requesting it on a Fourier grid is an error.
    """
    v = discretization(grid, params).v
    return v[0], v[1]


def energy(phi: Spinor, params: Params) -> float:
    """Energy functional in the frame selected by params.frame."""
    return discretization(phi.grid, params).energy_parts(phi.psi)[0]


def energy_variant(phi: Spinor, params: Params, variant: str) -> float:
    """Reduced energy functionals used by the limit studies.

    - "no_so":          lab energy with the spin-orbit derivative term dropped
                        (the k0 = 0 functional).
    - "tilde_no_raman": tilde-frame energy without the Raman term; does not
                        depend on omega or k0.
    - "large_omega":    limiting functional of the strong-Raman regime,
                        evaluated on the first component alone:
                        int 1/2|grad phi|^2 + V |phi|^2
                            + (b11+b22+2*b12)/4 |phi|^4 (one trap V for both),
                        the energy of (phi1, 0) under reduced couplings.
    """
    if variant == "no_so":
        return energy(phi, params.with_(k0=0.0, frame=LAB))
    if variant == "tilde_no_raman":
        return energy(phi, params.with_(omega=0.0, frame=TILDE))
    if variant == "large_omega":
        bsum = 0.5 * (params.beta11 + params.beta22 + 2.0 * params.beta12)
        reduced = params.with_(k0=0.0, omega=0.0, delta=0.0, beta11=bsum,
                               beta12=0.0, beta22=0.0, frame=LAB)
        pair = Spinor(phi.grid, phi.psi1, np.zeros_like(phi.psi1))
        return energy(pair, reduced)
    raise ValueError(f"unknown energy variant {variant!r}")


def chemical_potential(phi: Spinor, params: Params) -> float:
    """Lagrange multiplier of the norm constraint: E plus the quartic integral."""
    e, quartic = discretization(phi.grid, params).energy_parts(phi.psi)
    return e + quartic


def raman_overlap(phi: Spinor, params: Params) -> float:
    """Re int psi1 conj(psi2) (lab) or Re int e^{2ik0x} psi1 conj(psi2) (tilde)."""
    return discretization(phi.grid, params).overlap(phi.psi)


def observables(phi: Spinor, params: Params) -> Observables:
    """All one-slice observables: masses, energy, mu, x_c, momentum, overlap.

    One forward transform of G^-1 psi serves the energy and the Fourier-axis
    momenta (Parseval); a sine axis takes its momentum of G^-1 psi through
    `Grid.deriv`, and the gauge adds k0*(N1 - N2) to the x momentum.
    """
    g = phi.grid
    d = discretization(g, params)
    psi = phi.psi
    psi_t = d.ungauged(psi)
    modes2 = abs2(g.forward(psi_t))
    e, quartic = d.energy_parts(psi, modes2)
    n1, n2 = phi.component_masses()
    total = phi.density()
    xc = np.array([g.quadrature(g.coordinate(i) * total) for i in range(g.dim)])
    mode_total = modes2[0] + modes2[1]
    mom = np.zeros(g.dim)
    for i, a in enumerate(g.axes):
        if a.basis == FOURIER:
            mom[i] = g.mode_weight * float((g.mu(i) * mode_total).sum())
        else:
            mom[i] = g.quadrature(np.imag(np.conj(psi_t) * g.deriv(psi_t, i)).sum(axis=0))
    if d.gauge is not None:
        mom[0] += params.k0 * (n1 - n2)
    return Observables(
        mass=n1 + n2,
        mass1=n1,
        mass2=n2,
        delta_n=n1 - n2,
        energy=e,
        chem_mu=e + quartic,
        xc=xc,
        momentum=mom,
        raman_overlap=d.overlap(psi),
    )


def apply_hamiltonian(phi: Spinor, params: Params) -> Spinor:
    """Euler-Lagrange operator H(phi) applied to phi in the active frame."""
    h = discretization(phi.grid, params).hamiltonian(phi.psi)
    return Spinor.from_stacked(phi.grid, h)


def eigen_residual(phi: Spinor, params: Params, mu: float | None = None) -> float:
    """Discrete L2 norm of H(phi)phi - mu*phi (mu defaults to chemical_potential)."""
    return discretization(phi.grid, params).eigen_residual(phi.psi, mu)


def gauge_transform(phi: Spinor, params: Params, direction: str) -> Spinor:
    """Multiply by e^{-+ik0 x} / e^{+-ik0 x}: 'to_tilde' or 'to_lab'."""
    x = phi.grid.coordinate(0)
    if direction == "to_tilde":
        f1, f2 = np.exp(-1j * params.k0 * x), np.exp(1j * params.k0 * x)
    elif direction == "to_lab":
        f1, f2 = np.exp(1j * params.k0 * x), np.exp(-1j * params.k0 * x)
    else:
        raise ValueError(f"unknown gauge direction {direction!r}")
    return Spinor(phi.grid, f1 * phi.psi1, f2 * phi.psi2)


def reduce_dimension(g11: float, g12: float, g22: float,
                     gamma_y: float, gamma_z: float, target_d: int):
    """3D interaction constants -> effective beta_jl in target dimension."""
    if target_d == 3:
        factor = 1.0
    elif target_d == 2:
        factor = np.sqrt(gamma_z / (2.0 * np.pi))
    elif target_d == 1:
        factor = np.sqrt(gamma_y * gamma_z) / (2.0 * np.pi)
    else:
        raise ValueError(f"target dimension must be 1, 2 or 3, got {target_d}")
    return factor * g11, factor * g12, factor * g22


@dataclass(frozen=True)
class Nondimensionalized:
    """Dimensionless parameters plus the scales used to produce them."""

    params: Params
    g11: float
    g12: float
    g22: float
    x_s: float
    t_s: float
    omega0: float


def nondimensionalize(mass: float, omega_x: float, omega_y: float, omega_z: float,
                      a11: float, a12: float, a22: float, n_atoms: float,
                      k0_raman: float, detuning: float, rabi: float,
                      hbar: float = 1.054571817e-34) -> Nondimensionalized:
    """Convert physical trap/scattering inputs to dimensionless Params.

    Scales: omega0 = min trap frequency, t_s = 1/omega0, x_s = sqrt(hbar/(m*omega0)).
    Returned Params carry the 3D couplings beta_jl = g_jl = 4*pi*N*a_jl/x_s;
    apply `reduce_dimension` for quasi-2D/1D geometries.
    """
    if mass <= 0:
        raise ValueError("particle mass must be positive")
    if min(omega_x, omega_y, omega_z) <= 0:
        raise ValueError("trap frequencies must be positive")
    if n_atoms <= 0:
        raise ValueError("atom number must be positive")
    omega0 = min(omega_x, omega_y, omega_z)
    t_s = 1.0 / omega0
    x_s = np.sqrt(hbar / (mass * omega0))
    g11 = 4.0 * np.pi * n_atoms * a11 / x_s
    g12 = 4.0 * np.pi * n_atoms * a12 / x_s
    g22 = 4.0 * np.pi * n_atoms * a22 / x_s
    params = Params(
        k0=k0_raman * x_s / 2.0,
        omega=rabi / omega0,
        delta=detuning / omega0,
        beta11=g11,
        beta12=g12,
        beta22=g22,
        gamma_x=omega_x / omega0,
        gamma_y=omega_y / omega0,
        gamma_z=omega_z / omega0,
    )
    return Nondimensionalized(params, g11, g12, g22, float(x_s), t_s, omega0)


def uniqueness_indicator(params: Params, grid: Grid):
    """Indicator field I(x) = (V1-V2+delta)^2 + (b11-b12)^2 + (b12-b22)^2.

    Returns (field, flag); flag is True when I is not identically zero, the
    condition under which the omega = 0 ground state is unique up to phase.
    """
    v1, v2 = potential_field(params, grid)
    field = (
        (v1 - v2 + params.delta) ** 2
        + (params.beta11 - params.beta12) ** 2
        + (params.beta12 - params.beta22) ** 2
    )
    return field, bool(np.any(field != 0.0))


def band_eigenvalues(xi, band: BandParams, v1: float, v2: float):
    """Semiclassical band symbol eigenvalues at phase-space point (x, xi).

    lambda_{1,2} = |xi|^2/2 + (V1+V2)/2
                   +- 0.5*sqrt((V1-V2+2*k_inf*xi_1+delta_inf)^2 + omega_inf^2),
    returned as (lambda1, lambda2) with lambda1 >= lambda2.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    base = 0.5 * np.sum(xi**2) + 0.5 * (v1 + v2)
    gap = v1 - v2 + 2.0 * band.k_inf * xi[0] + band.delta_inf
    half = 0.5 * np.hypot(gap, band.omega_inf)
    return float(base + half), float(base - half)


def existence_conditions(params: Params, dim: int, c_b: float | None = None):
    """Ground-state existence warnings from the interaction matrix.

    Implements the known sufficient (existence) and violation (non-existence)
    conditions per dimension.  The 2D thresholds need the best Sobolev
    constant, which has no closed form here: they are checked only when the
    caller supplies `c_b`.  Returns a list of warning strings (empty = no
    condition violated / nothing checkable failed).
    """
    b11, b12, b22 = params.beta11, params.beta12, params.beta22
    warnings = []
    if dim == 1:
        return warnings
    if dim == 3:
        nonneg = b11 >= 0 and b12 >= 0 and b22 >= 0
        spd = b11 >= 0 and b22 >= 0 and b11 * b22 >= b12**2
        if b11 < 0 or b22 < 0 or (b12 < 0 and b12**2 > b11 * b22):
            warnings.append(
                "no 3D ground state exists for this interaction matrix "
                f"(beta = {b11}, {b12}, {b22})"
            )
        elif not (nonneg or spd):
            warnings.append(
                "3D existence not guaranteed: interaction matrix is neither "
                "nonnegative nor semi-positive definite"
            )
        return warnings
    if dim == 2:
        if c_b is None:
            return warnings
        if b11 < -c_b or b22 < -c_b:
            warnings.append(
                f"no 2D ground state: a self-interaction is below -C_b = {-c_b}"
            )
        elif b12 < -c_b - np.sqrt(max(c_b + b11, 0.0) * max(c_b + b22, 0.0)):
            warnings.append(
                "no 2D ground state: cross interaction below the C_b threshold"
            )
        return warnings
    raise ValueError(f"dimension must be 1, 2 or 3, got {dim}")
