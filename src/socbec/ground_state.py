"""Ground states by gradient flow with discrete normalization.

The flow evolves a spinor in fictitious time with a backward-Euler
semi-implicit step followed by joint renormalization of the pair.  The
implicit block holds the constant-coefficient part (Laplacian, spin-orbit
derivative, +-delta/2, a stabilization shift, and an adaptive
chemical-potential shift); trap, nonlinearity and Raman coupling are
evaluated at the previous iterate.  Every MU_UPDATE_EVERY iterations one
refresh derives the step and both shifts from the running iterate.

A solve converges when the discrete L2 eigen residual ||H(psi)psi - mu psi||
(mu = E + quartic) is below `tol` (the residual stop of Antoine, Levitt &
Tang 2017), the flow's only stop test.  It tests each iterate as soon as
it is refreshed: the refresh returns the next step's modes and reads the
iterate's residual off them (see `_Flow.refresh`), so the test costs no
transform beyond the step's own.  A value below `tol` is confirmed once
with `Discretization.eigen_residual`; a solve that ends otherwise (merged,
out of iterations or failed) computes that exact residual once at the end.
The returned energy and mu are the last refresh's when it ran at the
returned iterate, else computed once at the end.
`GroundStateResult.residual` is the eigen residual of the returned state,
converged or not; `converged` is `residual < tol`.

Two entry points share the machinery: `gfdn_solve` runs the lab-frame flow
on Fourier grids (harmonic or free potentials), and `besp_solve` runs the
gauge-transformed flow on sine (Dirichlet) grids for box potentials, where
the spin-orbit derivative is traded for explicit e^{+-2ik0 x} factors on the
Raman coupling.

Every solve takes one path: `solve_ground_state` -> `multi_start` ->
`gfdn_solve` or `besp_solve` (picked by `params.frame`) -> `_solve`.
`GfdnOptions.init` is the only way to pass a start, a `Spinor` included.
Only `solve_ground_state` reads init = "auto" (multi-start over
`default_starts`); the solvers reject it.

`multi_start` runs its starts in order and stops each once it coincides
with the converged best so far (see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import Grid, check_integer
from .model import (
    LAB,
    TILDE,
    Discretization,
    Params,
    Spinor,
    abs2,
    discretization,
    gauge_transform,
    raman_overlap,
    uniqueness_indicator,
)
from .states import base_profile, build_initial_state, single_component

MU_UPDATE_EVERY = 10  # iterations between refreshes of the step and shifts
MERGE_DISTANCE = 1e-2  # phase-aligned distance at which two starts coincide


@dataclass
class GfdnOptions:
    """Gradient-flow controls.

    init takes any spec of `states.build_initial_state` (a `Spinor`
    included) or "auto" (see the module docstring).  tau is the smallest
    step the flow takes: `_Flow.refresh` derives the step and the
    stabilization and chemical-potential shifts from the running iterate.
    tol bounds the eigen residual of a converged result.
    """

    tau: float = 0.01
    tol: float = 1e-7
    max_iters: int = 500_000
    init: object = "gaussian_pair"

    def __post_init__(self):
        for name in ("tau", "tol"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
        check_integer("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class GroundStateResult:
    """A solve's returned state.

    residual is the discrete L2 eigen residual ||H(phi)phi - mu phi|| of
    `phi`, the one `model.eigen_residual` gives; converged means it is
    below the options' tol.
    """

    phi: Spinor
    energy: float
    mu: float
    iterations: int
    residual: float
    converged: bool
    warnings: list = field(default_factory=list)


def lab_view(result: GroundStateResult, params: Params):
    """Lab-frame companion of a tilde-frame result: (spinor, lab energy)."""
    if params.frame == LAB:
        return result.phi, result.energy
    phi_lab = gauge_transform(result.phi, params, "to_lab")
    return phi_lab, result.energy - 0.5 * params.k0**2


class _Flow:
    """Per-solve shifts and backward-Euler tables on a shared discretization.

    The flow works on stacked (2, *shape) arrays.  `Grid.forward` and
    `Grid.inverse` are an exact inverse pair, so the denominators need no
    transform scale factor.  `refresh` is the one step and shift policy:
    every MU_UPDATE_EVERY iterations it derives the step tau (at least the
    options' tau), the stabilization shift alpha and the chemical-potential
    shift mu_hat = E + quartic from the iterate; `guard_floor`, read off the
    lowest mode of `Discretization.symbol`, keeps every backward-Euler
    denominator >= 1.  Constant shifts cancel at the fixed point, so none of
    this changes the converged state.  Each refresh keeps the iterate's
    energy and mu_hat in `energy` and `mu`, records the largest energy rise
    between refreshes in `energy_rise`, reads the iterate's eigen residual
    into `residual` and returns the next step's modes, which the caller
    passes on as `step(psi, modes)`; the flow holds no iterate.
    `_step_modes` computes |psi|^2, tau*beta@|psi|^2 and the Raman term in
    work buffers built per flow, which `refresh` borrows as scratch;
    `inv_den`, `lin` and `tau_coupling` (shaped as `Discretization.coupling`)
    are tables the flow owns: built once, then refilled in place.  The flow
    runs only where the discretization has no gauge (`check_flow`), so the
    spectral block acts on psi itself.
    """

    def __init__(self, disc: Discretization, tau: float):
        disc.check_flow()
        self.disc = disc
        self.tau_min = tau
        self.inv_den = self.lin = None  # built on the first refresh
        self.tau_coupling = np.empty_like(disc.coupling)
        self.set_tau(tau)
        self.symbol_min = float(disc.symbol.min())
        self.energy = np.inf  # no refresh yet
        self.energy_rise = 0.0
        self.mu = self.residual = None  # of the last refreshed iterate
        shape = (2,) + disc.grid.shape
        self._rho = np.empty(shape)
        self._tau_beta_rho = np.empty(shape)
        self._raman = np.empty(shape, dtype=np.complex128)

    def guard_floor(self, mu_hat: float) -> float:
        """Least shift alpha with every denominator
        1 + tau*(alpha - mu_hat + symbol) >= 1; the lowest mode's is 1."""
        return mu_hat - self.symbol_min

    def refresh(self, psi: np.ndarray, it: int = 0) -> np.ndarray | None:
        """Step and shift refresh after iteration `it` (0: set-up on the start).

        Runs at multiples of MU_UPDATE_EVERY and returns the modes of the
        step from psi, None between refreshes; floor is `guard_floor(mu_hat)`.

        Residual: with the tables set at psi (mu_hat = E + quartic), the
        next step's modes c = F(u)*inv_den give F(H psi - mu_hat psi) =
        (F(psi) - c)/(tau*inv_den), of norm sqrt(mode_weight*sum|.|^2) by
        Parseval.  F(psi) is the energy's transform, so `residual` costs no
        transform beyond c's, which is returned for the next `step`.  At the
        converged benchmark states, where F(psi) - c cancels, it matches
        `Discretization.eigen_residual` to 2e-9 to 3e-8 relative.

        Step: the linearized explicit term of a node (along psi the
        derivative of beta*rho*psi is 3*beta*rho) is at most
        U_lin = max(V + 3*beta*rho) + |omega|/2.  Where U_lin > floor, tau
        becomes max(tau_min, 1/(U_lin - floor)): with the shift at floor,
        every explicit factor 1 + tau*(floor - W), W <= U_lin, stays >= 0.

        Shift: with u = max(V + beta*rho), the explicit part of a node is at
        most U = u + |omega|/2, and every mode's symbol is at least
        mu_hat - floor.  The frozen-coefficient amplification
        (1 + tau*(alpha - U)) / (1 + tau*(alpha - mu_hat + symbol)) stays at
        or above -1 exactly when alpha >= (U + floor)/2 - 1/tau, and a
        smaller alpha contracts the low modes faster, so alpha is that
        bound.  The `min` with u/2 (the tau-independent shift of the
        stabilized BESP scheme, Bao, Chern & Lim 2006) keeps alpha from
        ever rising above it, so large tau steps as before; the applied
        shift is max(alpha, floor).  A raised tau puts alpha below floor
        (U <= U_lin), so a raised step always runs at the floor.
        """
        if it % MU_UPDATE_EVERY:
            return None
        d = self.disc
        modes = d.grid.forward(psi)
        e, quartic = d.energy_parts(psi, abs2(modes))
        self.energy_rise = max(self.energy_rise, e - self.energy)
        self.energy = e
        self.mu = mu_hat = e + quartic
        floor = self.guard_floor(mu_hat)
        pot = d.potential(psi)
        half_omega = 0.5 * abs(d.params.omega)
        u = float(pot.max())
        pot *= 3.0  # then 3*pot - 2*V, with the step's buffer for 2*V
        pot -= np.multiply(d.v, 2.0, out=self._rho)
        u_lin = float(pot.max()) + half_omega
        del pot  # freed before c is computed
        tau = self.tau_min
        if u_lin > floor:
            tau = max(tau, 1.0 / (u_lin - floor))
        self.set_tau(tau)
        self.alpha = min(0.5 * u, 0.5 * (u + half_omega + floor) - 1.0 / tau)
        self.set_shifts(max(self.alpha, floor), mu_hat)
        c = self._step_modes(psi)
        modes -= c
        modes /= self.inv_den  # then by tau, on the norm
        self.residual = math.sqrt(d.grid.mode_weight
                                  * float(np.vdot(modes, modes).real)) / tau
        return c

    def set_tau(self, tau: float):
        self.tau = tau
        self.tau_beta = tau * self.disc.beta
        np.multiply(tau, self.disc.coupling, out=self.tau_coupling)

    def set_shifts(self, alpha: float, mu_hat: float):
        tau = self.tau
        # inv_den = 1/(1 + tau*(symbol + (alpha - mu_hat))) and
        # lin = 1 + tau*(alpha - V), in place after the first refresh
        self.inv_den = den = np.add(self.disc.symbol, alpha - mu_hat,
                                    out=self.inv_den)
        den *= tau
        den += 1.0
        np.divide(1.0, den, out=den)
        self.lin = lin = np.subtract(alpha, self.disc.v, out=self.lin)
        lin *= tau
        lin += 1.0

    def _step_modes(self, psi: np.ndarray) -> np.ndarray:
        """c = F(u)*inv_den, the unnormalized modes of the step from psi."""
        rho, tbr = self._rho, self._tau_beta_rho
        # rho = |psi|^2, then tbr = lin - tau*beta@rho, all in the buffers
        np.square(psi.real, out=rho)
        rho += np.square(psi.imag, out=tbr)
        np.dot(self.tau_beta, rho.reshape(2, -1), out=tbr.reshape(2, -1))
        u = np.subtract(self.lin, tbr, out=tbr) * psi
        u -= np.multiply(self.tau_coupling, psi[::-1], out=self._raman)
        c = self.disc.grid.forward(u, overwrite=True)
        c *= self.inv_den
        return c

    def step(self, psi: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
        """One backward-Euler step plus joint renormalization (new array).

        `c` is the step's modes when the caller has them, as `refresh(psi)`
        returns them with the tables it sets; the step overwrites it.
        Without `c` it computes them with `_step_modes(psi)`.
        """
        if c is None:
            c = self._step_modes(psi)
        g = self.disc.grid
        out = g.inverse(c, overwrite=True)
        norm_sq = g.cell_volume * float(np.vdot(out, out).real)
        if not math.isfinite(norm_sq):
            raise FloatingPointError(
                "gradient flow produced non-finite values (tau too large?)"
            )
        if norm_sq == 0.0:
            raise ValueError("cannot normalize a zero spinor")
        # numpy divides a complex array by a real scalar by multiplying with
        # its reciprocal, so this gives the bits of `/=` (up to the sign of
        # an exact -0 entry) without the complex division
        out *= 1.0 / math.sqrt(norm_sq)
        return out


def gfdn_step(phi: Spinor, params: Params, options: GfdnOptions) -> Spinor:
    """Single gradient-flow step with discrete normalization.

    Self-contained form of the solver's inner iteration: the step (raised
    above options.tau as in the solver) and the stabilization and
    chemical-potential shifts are computed from `phi` itself.
    """
    flow = _Flow(discretization(phi.grid, params), options.tau)
    return Spinor.from_stacked(phi.grid, flow.step(phi.psi, flow.refresh(phi.psi)))


def _gap(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Phase-aligned L2 distance of two unit-norm stacked spinors.

    One inner product; it serves the merge test and the small-k0 rate
    diagnostic.  sqrt(2 - 2|<a, b>|) loses relative precision as the distance
    shrinks: at the rate study's distances (3e-3 to 2e-2) it matches
    sqrt(h)*||a - e^{i theta} b|| to 4e-12 relative.
    """
    overlap = grid.cell_volume * abs(np.vdot(a, b))
    return float(np.sqrt(max(2.0 - 2.0 * overlap, 0.0)))


def _solve(params: Params, grid: Grid, options: GfdnOptions,
           merge_into: np.ndarray | None = None) -> GroundStateResult:
    disc = discretization(grid, params)
    flow = _Flow(disc, options.tau)
    psi = build_initial_state(options.init, grid, params).psi
    c = flow.refresh(psi)  # the next step's modes, None off the schedule
    residual = None  # eigen residual of psi, once certified
    gap = np.inf  # to merge_into, at the last refresh that tested it
    iterations = 0
    warnings = list(disc.warnings)
    try:
        for it in range(1, options.max_iters + 1):
            psi, iterations = flow.step(psi, c), it
            c = flow.refresh(psi, it)
            if c is None:
                continue
            if flow.residual < options.tol:
                c = None  # freed for the exact pass
                exact = disc.eigen_residual(psi, flow.mu)
                if exact < options.tol:
                    residual = exact
                    break
            if merge_into is not None:
                gap = _gap(grid, merge_into, psi)
                if gap < MERGE_DISTANCE:
                    break
    except FloatingPointError as exc:  # psi predates the failed step
        warnings.append(str(exc))
    energy_rise, e, mu = flow.energy_rise, flow.energy, flow.mu
    flow = c = None  # freed, they add nothing to the exact pass's peak
    if iterations % MU_UPDATE_EVERY:  # psi ends between refreshes
        e, quartic = disc.energy_parts(psi)
        mu = e + quartic
    if residual is None:  # merged, out of iterations or failed
        residual = disc.eigen_residual(psi, mu)
    converged = residual < options.tol

    if gap < MERGE_DISTANCE:
        warnings.append(
            f"stopped after {iterations} iterations at phase-aligned "
            f"distance {gap:.2e} < {MERGE_DISTANCE:g} from the given state"
        )
    elif not converged:
        warnings.append(
            f"gradient flow did not reach tol={options.tol:g} within "
            f"{iterations} iterations (eigen residual {residual:.3e})"
        )
    if energy_rise > 1e-10:
        warnings.append(
            "energy increased between shift refreshes by up to "
            f"{energy_rise:.3e}; tau may be too large"
        )
    if params.omega == 0.0:
        _, distinct = uniqueness_indicator(params, grid)
        if not distinct:
            warnings.append(
                "omega = 0 with identically zero asymmetry indicator: the "
                "ground state is not unique (any component split of the "
                "scalar profile has equal energy)"
            )

    return GroundStateResult(
        phi=Spinor.from_stacked(grid, psi), energy=e, mu=mu, iterations=iterations,
        residual=residual, converged=converged, warnings=warnings,
    )


def gfdn_solve(params: Params, grid: Grid, options: GfdnOptions | None = None,
               merge_into: np.ndarray | None = None) -> GroundStateResult:
    """Lab-frame ground state on a Fourier grid (harmonic/free potentials).

    Box potentials are rejected unless k0 = 0, where the lab and tilde frames
    coincide and the flow runs on the sine grid directly.  Given a stacked
    unit-norm `merge_into`, the flow stops, not converged, at the first
    chemical-potential refresh within MERGE_DISTANCE of it.
    """
    options = options or GfdnOptions()
    if params.frame != LAB:
        raise ValueError("gfdn_solve runs the lab-frame flow; got tilde params")
    return _solve(params, grid, options, merge_into)


def besp_solve(params: Params, grid: Grid, options: GfdnOptions | None = None,
               merge_into: np.ndarray | None = None) -> GroundStateResult:
    """Tilde-frame ground state on a sine (Dirichlet) grid for box potentials.

    The result is reported in the tilde frame; `lab_view` supplies the
    gauge-transformed companion state and the lab energy E = E_tilde - k0^2/2.
    `merge_into` stops the flow as in `gfdn_solve`.
    """
    options = options or GfdnOptions()
    if params.frame != TILDE:
        raise ValueError("besp_solve requires tilde-frame params")
    return _solve(params, grid, options, merge_into)


def default_starts(params: Params, grid: Grid, singles: bool = False):
    """Pair/opposite initial data ordered by the sgn(-omega) sign preference.

    The single-component seeds follow at omega = 0 or when `singles` is set:
    once the drive between the components degenerates, the mass split
    relaxes only algebraically from a mixed start.
    """
    if params.omega == 0.0:
        starts = ["gaussian_pair"]
    elif params.omega < 0.0:
        starts = ["gaussian_pair", "gaussian_opposite"]
    else:
        starts = ["gaussian_opposite", "gaussian_pair"]
    if singles or params.omega == 0.0:
        profile = base_profile(grid, params)
        starts += [single_component(grid, profile, 2),
                   single_component(grid, profile, 1)]
    return starts


def multi_start(params: Params, grid: Grid, options: GfdnOptions | None = None,
                starts=None) -> GroundStateResult:
    """Run the flow from several initial states; keep the lowest energy.

    Converged runs win over non-converged ones; among equals the lower energy
    is kept.  Two states coincide when their phase-aligned distance
    d = sqrt(2 - 2 h |<a, b>|) (h the cell volume) is below MERGE_DISTANCE.
    The starts run in list order, each given the converged best so far as
    `merge_into`, so a start stops, unconverged, at the first
    chemical-potential refresh where it coincides with that state.  A run
    that coincides with a converged best is a duplicate, warns "merged into
    start k" and never replaces it, so each cluster keeps its earliest
    start.  The test here also catches a start that stops without the
    flow's own merge test: one certified at a refresh (the residual test
    runs first) or one that ends between refreshes.
    """
    options = options or GfdnOptions()
    if starts is None:
        starts = default_starts(params, grid)
    if not starts:
        raise ValueError("multi_start needs at least one initial state")
    # resolved per call, so a wrapper set on the module sees every start
    solve = besp_solve if params.frame == TILDE else gfdn_solve
    best, k = None, 0  # the best run so far and its index
    for i, init in enumerate(starts):
        target = best.phi.psi if best is not None and best.converged else None
        res = solve(params, grid, replace(options, init=init),
                    merge_into=target)
        if (target is not None
                and _gap(grid, res.phi.psi, target) < MERGE_DISTANCE):
            res.warnings.append(f"merged into start {k}")
        elif best is None or ((res.converged, -res.energy)
                              > (best.converged, -best.energy)):
            best, k = res, i
    if len(starts) > 1:
        best.warnings = best.warnings + [f"selected from {len(starts)} starts"]
    return best


def solve_ground_state(params: Params, grid: Grid,
                       options: GfdnOptions | None = None) -> GroundStateResult:
    """CLI driver: `multi_start` over [init], or `default_starts` if "auto"."""
    options = options or GfdnOptions()
    starts = None if options.init == "auto" else [options.init]
    return multi_start(params, grid, options, starts)


@dataclass
class LimitStudyResult:
    kind: str
    values: list
    diagnostics: dict
    results: list
    slope: float | None = None
    intercept: float | None = None
    fitted_c0: float | None = None


_RATE_KINDS = ("rate_small_k0", "rate_large_k0", "energy_competition")


def _l2(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(grid.quadrature(np.abs(f) ** 2)))


def _density_distance(grid: Grid, a: Spinor, b: Spinor) -> float:
    return (_l2(grid, np.abs(a.psi1) - np.abs(b.psi1))
            + _l2(grid, np.abs(a.psi2) - np.abs(b.psi2)))


def _symmetrized_reference(params: Params, grid: Grid,
                           options: GfdnOptions) -> np.ndarray:
    """Minimizer profile of the strong-Raman limiting functional.

    Minimizing E_s over fields of squared norm 1/2 is equivalent to a
    single-component ground state with coupling (b11+b22+2b12)/4 at unit norm,
    scaled by 1/sqrt(2).
    """
    beta_eff = 0.25 * (params.beta11 + params.beta22 + 2.0 * params.beta12)
    single = params.with_(k0=0.0, omega=0.0, delta=0.0,
                          beta11=beta_eff, beta12=0.0, beta22=0.0)
    init = single_component(grid, base_profile(grid, single), 1)
    res = multi_start(single, grid, options, [init])
    return np.abs(res.phi.psi1) / np.sqrt(2.0)


SWEPT_PARAMETER = {
    "large_k0": "k0", "large_omega": "omega", "large_delta": "delta",
    "rate_small_k0": "k0", "rate_large_k0": "k0",
    "energy_competition": "omega",
}


def check_study(kind: str, params: Params, values):
    """Raise ValueError unless `limit_study` can run this sweep.

    Besides the sweep's own rules, every swept parameter set must admit the
    gradient flow on its discretization (checked by the caller per grid).
    """
    if kind not in SWEPT_PARAMETER:
        raise ValueError(f"unknown limit study kind {kind!r}")
    if not values:
        raise ValueError("empty sweep")
    if len(set(values)) != len(values):
        # repeats would rerun one solve and overwrite its state file
        raise ValueError("repeated sweep values")
    if kind in _RATE_KINDS and len(values) < 3:
        raise ValueError(f"{kind} needs at least 3 sweep values for a fit")
    if kind in ("rate_small_k0", "rate_large_k0") and min(values) <= 0:
        # the fits take log(k0) and 1/sqrt(k0)
        raise ValueError(f"{kind} needs positive k0 values")
    if kind == "energy_competition" and params.k0 == 0.0:
        raise ValueError("energy_competition needs k0 != 0")


def limit_study(kind: str, params: Params, grid: Grid, values,
                options: GfdnOptions | None = None) -> LimitStudyResult:
    """Parameter-sweep drivers for the asymptotic ground-state regimes.

    kind selects the swept parameter and the diagnostic:
      - "large_k0":      sweep k0; |omega * Raman overlap| (the overlaps of
                         a state and its gauge image agree) and density
                         distance to the no-Raman reference.
      - "large_omega":   sweep omega; component-density asymmetry and distance
                         to the symmetrized strong-Raman minimizer.
      - "large_delta":   sweep delta; first-component mass.
      - "rate_small_k0": sweep small k0; log-log slope of the density distance
                         to the k0 = 0 reference against k0.
      - "rate_large_k0": sweep large k0; slope against 1/sqrt(k0).
      - "energy_competition": sweep omega at fixed k0; fits
                         E_g + k0^2/2 ~ -C0 * omega^2/k0^2, with E_g the
                         lab energy of `lab_view` (in the tilde frame, the
                         excess is the tilde energy).
    Each sweep point warm-starts from the previous point's result, whether
    or not that point converged.
    """
    options = options or GfdnOptions()
    values = [float(v) for v in values]
    check_study(kind, params, values)

    diagnostics: dict = {}
    results = []
    slope = intercept = fitted_c0 = None

    def best(p, singles=False, warm=None):
        starts = ([warm] if warm is not None else []) + default_starts(
            p, grid, singles)
        return multi_start(p, grid, options, starts)

    def sweep(param_name, singles=False):
        prev = None
        for v in values:
            p = params.with_(**{param_name: v})
            res = best(p, singles=singles, warm=prev)
            results.append(res)
            prev = res.phi
        return [params.with_(**{param_name: v}) for v in values]

    if kind == "large_k0":
        swept = sweep("k0", singles=True)
        ref = best(params.with_(k0=values[0], omega=0.0))
        diagnostics["raman_coupling_abs"] = [
            abs(p.omega * raman_overlap(r.phi, p))
            for p, r in zip(swept, results)
        ]
        diagnostics["dist_to_no_raman"] = [
            _density_distance(grid, r.phi, ref.phi) for r in results
        ]
    elif kind == "large_omega":
        sweep("omega")
        ref_profile = _symmetrized_reference(params, grid, options)
        diagnostics["component_asymmetry"] = [
            _l2(grid, np.abs(r.phi.psi1) - np.abs(r.phi.psi2)) for r in results
        ]
        diagnostics["dist_to_symmetrized"] = [
            _l2(grid, np.abs(r.phi.psi1) - ref_profile)
            + _l2(grid, np.abs(r.phi.psi2) - ref_profile)
            for r in results
        ]
    elif kind == "large_delta":
        sweep("delta")
        diagnostics["first_component_norm"] = [
            _l2(grid, r.phi.psi1) for r in results
        ]
    elif kind == "rate_small_k0":
        sweep("k0")
        ref = best(params.with_(k0=0.0))
        errs = [_density_distance(grid, r.phi, ref.phi) for r in results]
        diagnostics["dist_to_k0_zero"] = errs
        # companion diagnostic: phase-sensitive distance (global phase
        # optimized out); the leading O(k0) response is a pure phase, so this
        # scales one order slower than the modulus distance
        diagnostics["state_dist_to_k0_zero"] = [
            _gap(grid, r.phi.psi, ref.phi.psi) for r in results
        ]
        slope, intercept = np.polyfit(np.log(values), np.log(errs), 1)
        slope, intercept = float(slope), float(intercept)
    elif kind == "rate_large_k0":
        sweep("k0")
        ref = best(params.with_(k0=0.0, omega=0.0))
        errs = [_density_distance(grid, r.phi, ref.phi) for r in results]
        diagnostics["dist_to_no_raman"] = errs
        slope, intercept = np.polyfit(np.log(1.0 / np.sqrt(values)),
                                      np.log(errs), 1)
        slope, intercept = float(slope), float(intercept)
    elif kind == "energy_competition":
        sweep("omega")
        # the sweep keeps frame and k0, all that lab_view reads of params
        excess = [lab_view(r, params)[1] + 0.5 * params.k0**2 for r in results]
        diagnostics["energy_excess"] = excess
        w = np.array(values) ** 2 / params.k0**2
        fitted_c0 = float(-np.dot(w, excess) / np.dot(w, w))

    diagnostics["energy"] = [r.energy for r in results]
    diagnostics["converged"] = [r.converged for r in results]
    return LimitStudyResult(
        kind=kind, values=values, diagnostics=diagnostics, results=results,
        slope=slope, intercept=intercept, fitted_c0=fitted_c0,
    )
