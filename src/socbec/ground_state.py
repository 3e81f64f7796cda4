"""Ground states by gradient flow with discrete normalization.

The flow evolves a spinor in fictitious time with a backward-Euler
semi-implicit step followed by joint renormalization of the pair.  The
implicit block holds the constant-coefficient part (Laplacian, spin-orbit
derivative, +-delta/2, a stabilization shift, and an adaptive
chemical-potential shift); trap, nonlinearity and Raman coupling are
evaluated at the previous iterate.  The chemical-potential shift is updated
from the running iterate so the converged state solves the discrete
nonlinear eigenproblem to the stopping tolerance independently of the
fictitious time step.

Two entry points share the machinery: `gfdn_solve` runs the lab-frame flow
on Fourier grids (harmonic or free potentials), and `besp_solve` runs the
gauge-transformed flow on sine (Dirichlet) grids for box potentials, where
the spin-orbit derivative is traded for explicit e^{+-2ik0 x} factors on the
Raman coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import Grid
from .model import (
    LAB,
    TILDE,
    Discretization,
    Params,
    Spinor,
    abs2,
    chemical_potential,
    discretization,
    energy,
    gauge_transform,
    raman_overlap,
    uniqueness_indicator,
)
from .states import base_profile, build_initial_state, single_component

LARGE_OMEGA_TAU = 1e-3  # fallback fictitious step for |omega| >= 100
MU_UPDATE_EVERY = 10  # iterations between chemical-potential shift refreshes
SHIFT_UPDATE_EVERY = 50  # iterations between automatic stabilization refreshes


@dataclass
class GfdnOptions:
    """Gradient-flow controls.

    init accepts the specs understood by `states.build_initial_state`, or
    "auto" (multi-start over the default pair/opposite initial data).
    stabilization_shift of None selects the running estimate
    0.5*max(V + beta*density); a positivity guard keeping the backward-Euler
    denominators positive is always applied on top (constant shifts cancel at
    the fixed point, so neither changes the converged state).
    """

    tau: float = 0.01
    tol: float = 1e-7
    max_iters: int = 500_000
    init: object = "gaussian_pair"
    stabilization_shift: float | None = None
    record_every: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.record_every < 0:
            raise ValueError("record_every must be >= 0")
        if self.stabilization_shift is not None and self.stabilization_shift < 0:
            raise ValueError("stabilization shift must be >= 0")


@dataclass
class GroundStateResult:
    phi: Spinor
    energy: float
    mu: float
    iterations: int
    residual: float
    frame: str
    converged: bool
    warnings: list = field(default_factory=list)
    history: dict = field(default_factory=dict)


def lab_view(result: GroundStateResult, params: Params):
    """Lab-frame companion of a tilde-frame result: (spinor, lab energy)."""
    if result.frame == LAB:
        return result.phi, result.energy
    phi_lab = gauge_transform(result.phi, params, "to_lab")
    return phi_lab, result.energy - 0.5 * params.k0**2


def effective_tau(options: GfdnOptions, params: Params) -> float:
    """Default tau, tightened for strong Raman coupling."""
    if abs(params.omega) >= 100.0 and options.tau > LARGE_OMEGA_TAU:
        return LARGE_OMEGA_TAU
    return options.tau


class _Flow:
    """Per-solve shifts and backward-Euler tables on a shared discretization.

    The flow works on stacked (2, *shape) arrays.  `Grid.to_modes` and
    `Grid.from_modes` are an exact inverse pair, so the denominators need no
    transform scale factor.
    """

    def __init__(self, disc: Discretization, tau: float):
        disc.check_flow()
        self.disc = disc
        self.tau = tau
        self.tau_beta = tau * disc.beta
        self.tau_coupling = tau * disc.coupling
        self.inv_den = None
        self.lin = None

    def guard_floor(self, mu_hat: float) -> float:
        # keeps every backward-Euler denominator >= 1
        p = self.disc.params
        floor = mu_hat + 0.5 * abs(p.delta)
        if p.frame == LAB:
            floor += 0.5 * p.k0**2
        return floor

    def auto_alpha(self, psi: np.ndarray) -> float:
        d = self.disc
        return 0.5 * float((d.v + d.mean_field(abs2(psi))).max())

    def set_shifts(self, alpha: float, mu_hat: float):
        tau = self.tau
        self.inv_den = 1.0 / (1.0 + tau * (self.disc.symbol + (alpha - mu_hat)))
        self.lin = 1.0 + tau * (alpha - self.disc.v)

    def step(self, psi: np.ndarray) -> np.ndarray:
        """One backward-Euler step plus joint renormalization (new array)."""
        g = self.disc.grid
        u = (self.lin - np.tensordot(self.tau_beta, abs2(psi), 1)) * psi
        u -= self.tau_coupling * psi[::-1]
        c = g.to_modes(u, overwrite=True)
        c *= self.inv_den
        out = g.from_modes(c, overwrite=True)
        norm_sq = g.cell_volume * np.vdot(out, out).real
        if not np.isfinite(norm_sq):
            raise FloatingPointError(
                "gradient flow produced non-finite values (tau too large?)"
            )
        if norm_sq == 0.0:
            raise ValueError("cannot normalize a zero spinor")
        out /= np.sqrt(norm_sq)
        return out


def gfdn_step(phi: Spinor, params: Params, options: GfdnOptions) -> Spinor:
    """Single gradient-flow step with discrete normalization.

    Self-contained form of the solver's inner iteration: the stabilization
    and chemical-potential shifts are computed from `phi` itself.
    """
    flow = _Flow(discretization(phi.grid, params), options.tau)
    alpha_base = (options.stabilization_shift
                  if options.stabilization_shift is not None
                  else flow.auto_alpha(phi.psi))
    mu_hat = chemical_potential(phi, params)
    flow.set_shifts(max(alpha_base, flow.guard_floor(mu_hat)), mu_hat)
    return Spinor.from_stacked(phi.grid, flow.step(phi.psi))


def _solve(params: Params, grid: Grid, options: GfdnOptions,
           phi0: Spinor | None = None) -> GroundStateResult:
    tau = effective_tau(options, params)
    disc = discretization(grid, params)
    flow = _Flow(disc, tau)
    if phi0 is None:
        init = options.init if options.init != "auto" else "gaussian_pair"
        phi = build_initial_state(init, grid, params)
    else:
        phi = phi0.normalized()

    mu_hat = chemical_potential(phi, params)
    alpha_base = (options.stabilization_shift
                  if options.stabilization_shift is not None
                  else flow.auto_alpha(phi.psi))
    flow.set_shifts(max(alpha_base, flow.guard_floor(mu_hat)), mu_hat)

    history_iters, history_energy, history_residual = [], [], []
    psi = phi.psi
    residual = np.inf
    converged = False
    iterations = 0
    warnings = list(disc.warnings)
    try:
        for it in range(1, options.max_iters + 1):
            new = flow.step(psi)
            diff = float(np.abs(new - psi).max()) / tau
            psi = new
            iterations = it
            residual = diff
            refresh_mu = it % MU_UPDATE_EVERY == 0
            refresh_alpha = (options.stabilization_shift is None
                             and it % SHIFT_UPDATE_EVERY == 0)
            if refresh_mu or refresh_alpha:
                if refresh_mu:
                    mu_hat = chemical_potential(Spinor.from_stacked(grid, psi),
                                                params)
                if refresh_alpha:
                    alpha_base = flow.auto_alpha(psi)
                flow.set_shifts(max(alpha_base, flow.guard_floor(mu_hat)), mu_hat)
            if options.record_every and it % options.record_every == 0:
                history_iters.append(it)
                history_energy.append(energy(Spinor.from_stacked(grid, psi),
                                             params))
                history_residual.append(diff)
            if diff < options.tol:
                converged = True
                break
    except FloatingPointError as exc:
        warnings.append(str(exc))
    phi = Spinor.from_stacked(grid, psi)

    if not converged:
        warnings.append(
            f"gradient flow did not reach tol={options.tol:g} within "
            f"{iterations} iterations (residual {residual:.3e})"
        )
    if history_energy:
        increases = np.diff(history_energy)
        if np.any(increases > 1e-10):
            warnings.append(
                "energy increased along recorded iterates by up to "
                f"{increases.max():.3e}; tau may be too large"
            )
    if params.omega == 0.0:
        _, distinct = uniqueness_indicator(params, grid)
        if not distinct:
            warnings.append(
                "omega = 0 with identically zero asymmetry indicator: the "
                "ground state is not unique (any component split of the "
                "scalar profile has equal energy)"
            )

    e = energy(phi, params)
    mu = chemical_potential(phi, params)
    history = {}
    if history_iters:
        history = {
            "iterations": np.array(history_iters),
            "energy": np.array(history_energy),
            "residual": np.array(history_residual),
        }
    return GroundStateResult(
        phi=phi, energy=e, mu=mu, iterations=iterations, residual=residual,
        frame=params.frame, converged=converged, warnings=warnings,
        history=history,
    )


def gfdn_solve(params: Params, grid: Grid, options: GfdnOptions | None = None,
               phi0: Spinor | None = None) -> GroundStateResult:
    """Lab-frame ground state on a Fourier grid (harmonic/free potentials).

    Box potentials are rejected unless k0 = 0, where the lab and tilde frames
    coincide and the flow runs on the sine grid directly.
    """
    options = options or GfdnOptions()
    if params.frame != LAB:
        raise ValueError("gfdn_solve runs the lab-frame flow; got tilde params")
    return _solve(params, grid, options, phi0)


def besp_solve(params: Params, grid: Grid, options: GfdnOptions | None = None,
               phi0: Spinor | None = None) -> GroundStateResult:
    """Tilde-frame ground state on a sine (Dirichlet) grid for box potentials.

    The result is reported in the tilde frame; `lab_view` supplies the
    gauge-transformed companion state and the lab energy E = E_tilde - k0^2/2.
    """
    options = options or GfdnOptions()
    if params.frame != TILDE:
        raise ValueError("besp_solve requires tilde-frame params")
    return _solve(params, grid, options, phi0)


def _dispatch(params: Params, grid: Grid, options: GfdnOptions,
              phi0: Spinor | None = None) -> GroundStateResult:
    if params.frame == TILDE:
        return besp_solve(params, grid, options, phi0)
    return gfdn_solve(params, grid, options, phi0)


def default_starts(params: Params):
    """Pair/opposite initial data ordered by the sgn(-omega) sign preference."""
    if params.omega == 0.0:
        return ["gaussian_pair"]
    if params.omega < 0.0:
        return ["gaussian_pair", "gaussian_opposite"]
    return ["gaussian_opposite", "gaussian_pair"]


def multi_start(params: Params, grid: Grid, options: GfdnOptions | None = None,
                starts=None, threads: int = 1) -> GroundStateResult:
    """Run the flow from several initial states; keep the lowest energy.

    Converged runs win over non-converged ones; among equals the lower energy
    is kept.  With threads > 1 the independent starts fan out across a thread
    pool; the selection rule is applied after all complete, so the result
    does not depend on the worker count.
    """
    options = options or GfdnOptions()
    if starts is None:
        starts = default_starts(params)
    if not starts:
        raise ValueError("multi_start needs at least one initial state")
    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(
                lambda init: _dispatch(params, grid, replace(options, init=init)),
                starts,
            ))
    else:
        runs = [_dispatch(params, grid, replace(options, init=init))
                for init in starts]
    best = runs[0]
    for res in runs[1:]:
        if (res.converged, -res.energy) > (best.converged, -best.energy):
            best = res
    if len(starts) > 1:
        best.warnings = best.warnings + [f"selected from {len(starts)} starts"]
    return best


def solve_ground_state(params: Params, grid: Grid,
                       options: GfdnOptions | None = None,
                       threads: int = 1) -> GroundStateResult:
    """Dispatcher used by the CLI: multi-start when init='auto', else single.

    At omega = 0 the auto starts include single-component seeds: the mass
    split between decoupled components relaxes only algebraically from a
    mixed start when the component energies degenerate.
    """
    options = options or GfdnOptions()
    if options.init == "auto":
        starts = default_starts(params)
        if params.omega == 0.0:
            profile = base_profile(grid, params)
            starts = starts + [single_component(grid, profile, 2),
                               single_component(grid, profile, 1)]
        return multi_start(params, grid, options, starts, threads=threads)
    return _dispatch(params, grid, options)


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


def _aligned_distance(grid: Grid, a: Spinor, b: Spinor) -> float:
    """L2 distance of the full spinors with the global phase optimized out."""
    overlap = grid.quadrature(np.conj(b.psi1) * a.psi1
                              + np.conj(b.psi2) * a.psi2)
    phase = 1.0 if overlap == 0 else overlap / abs(overlap)
    return np.sqrt(
        grid.quadrature(np.abs(a.psi1 - phase * b.psi1) ** 2
                        + np.abs(a.psi2 - phase * b.psi2) ** 2)
    )


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
    res = _solve(single, grid, options, phi0=init)
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
                options: GfdnOptions | None = None,
                threads: int = 1) -> LimitStudyResult:
    """Parameter-sweep drivers for the asymptotic ground-state regimes.

    kind selects the swept parameter and the diagnostic:
      - "large_k0":      sweep k0; |omega * tilde Raman overlap| and density
                         distance to the no-Raman reference.
      - "large_omega":   sweep omega; component-density asymmetry and distance
                         to the symmetrized strong-Raman minimizer.
      - "large_delta":   sweep delta; first-component mass.
      - "rate_small_k0": sweep small k0; log-log slope of the density distance
                         to the k0 = 0 reference against k0.
      - "rate_large_k0": sweep large k0; slope against 1/sqrt(k0).
      - "energy_competition": sweep omega at fixed k0; fits
                         E_g + k0^2/2 ~ -C0 * omega^2/k0^2.
    Each sweep point warm-starts from the previous converged state.
    """
    options = options or GfdnOptions()
    values = [float(v) for v in values]
    check_study(kind, params, values)

    diagnostics: dict = {}
    results = []
    slope = intercept = fitted_c0 = None

    def singles(p):
        profile = base_profile(grid, p)
        return [single_component(grid, profile, 2),
                single_component(grid, profile, 1)]

    def best(p, extra_singles=False, phi0=None):
        # warm start first, then the sign-preference pair starts; the
        # single-component seeds matter when a component drains (the mass
        # split relaxes only algebraically once the drive degenerates)
        starts = ([phi0] if phi0 is not None else []) + default_starts(p)
        if extra_singles or p.omega == 0.0:
            starts = starts + singles(p)
        return multi_start(p, grid, options, starts, threads=threads)

    def sweep(param_name, extra_singles=False):
        prev = None
        for v in values:
            p = params.with_(**{param_name: v})
            res = best(p, extra_singles=extra_singles, phi0=prev)
            results.append(res)
            prev = res.phi
        return [params.with_(**{param_name: v}) for v in values]

    if kind == "large_k0":
        swept = sweep("k0", extra_singles=True)
        ref = best(params.with_(k0=values[0], omega=0.0))
        diagnostics["raman_coupling_abs"] = [
            abs(p.omega * _tilde_overlap(r.phi, p))
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
            _aligned_distance(grid, r.phi, ref.phi) for r in results
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
        excess = [r.energy + 0.5 * params.k0**2 for r in results]
        diagnostics["energy_excess"] = excess
        w = np.array(values) ** 2 / params.k0**2
        fitted_c0 = float(-np.dot(w, excess) / np.dot(w, w))

    diagnostics["energy"] = [r.energy for r in results]
    diagnostics["converged"] = [r.converged for r in results]
    return LimitStudyResult(
        kind=kind, values=values, diagnostics=diagnostics, results=results,
        slope=slope, intercept=intercept, fitted_c0=fitted_c0,
    )


def _tilde_overlap(phi: Spinor, params: Params) -> float:
    """Tilde-frame Raman overlap of a result in its native frame."""
    if params.frame == TILDE:
        return raman_overlap(phi, params)
    tilde = gauge_transform(phi, params, "to_tilde")
    return raman_overlap(tilde, params.with_(frame=TILDE))
