"""Initial-state constructors shared by the solvers and the CLI runner."""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .model import BOX, HARMONIC, Params, Spinor

# named (1/sqrt 2)(g, +-g) starts: g is the potential's base profile or the
# sine profile; "plane_wave:<k>" adds the e^{+-ikx} spin-orbit phases
INIT_SPECS = ("gaussian_pair", "gaussian_opposite", "sine_pair", "sine_opposite")
PLANE_WAVE = "plane_wave:"


def gaussian_profile(grid: Grid, center=None, widths=None) -> np.ndarray:
    """Unit-norm product Gaussian; width defaults to 1 on every axis."""
    if center is None:
        center = [0.0] * grid.dim
    if widths is None:
        widths = [1.0] * grid.dim
    if np.isscalar(widths):
        widths = [float(widths)] * grid.dim
    f = np.ones(grid.shape)
    for i in range(grid.dim):
        x = grid.coordinate(i)
        f = f * np.exp(-((x - center[i]) ** 2) / (2.0 * widths[i] ** 2))
    return f / np.sqrt(grid.quadrature(f**2))


def trap_profile(grid: Grid, params: Params) -> np.ndarray:
    """Gaussian matched to the harmonic trap widths 1/sqrt(gamma)."""
    gammas = params.gammas(grid.dim)
    widths = [1.0 / np.sqrt(g) if g > 0 else 1.0 for g in gammas]
    return gaussian_profile(grid, widths=widths)


def sine_profile(grid: Grid) -> np.ndarray:
    """Unit-norm product of the lowest Dirichlet modes sin(pi (x-lo)/L)."""
    f = np.ones(grid.shape)
    for i, a in enumerate(grid.axes):
        x = grid.coordinate(i)
        f = f * np.sin(np.pi * (x - a.lo) / a.length)
    return f / np.sqrt(grid.quadrature(f**2))


def base_profile(grid: Grid, params: Params) -> np.ndarray:
    """Default single-field profile for the configured potential."""
    if params.potential == BOX or grid.is_sine:
        return sine_profile(grid)
    if params.potential == HARMONIC:
        return trap_profile(grid, params)
    return gaussian_profile(grid)


def pair_state(grid: Grid, profile: np.ndarray, sign: float = 1.0) -> Spinor:
    """(1/sqrt 2)(g, sign*g)."""
    s = np.sqrt(2.0)
    return Spinor(grid, profile / s, sign * profile / s)


def plane_wave_pair(grid: Grid, profile: np.ndarray, k: float) -> Spinor:
    """(1/sqrt 2)(e^{ikx} g, e^{-ikx} g): seeds the spin-orbit phase structure."""
    x = grid.coordinate(0)
    s = np.sqrt(2.0)
    return Spinor(grid, np.exp(1j * k * x) * profile / s,
                  np.exp(-1j * k * x) * profile / s)


def single_component(grid: Grid, profile: np.ndarray, component: int = 1) -> Spinor:
    zero = np.zeros(grid.shape)
    if component == 1:
        return Spinor(grid, profile, zero)
    if component == 2:
        return Spinor(grid, zero, profile)
    raise ValueError(f"component must be 1 or 2, got {component}")


def build_initial_state(init, grid: Grid, params: Params) -> Spinor:
    """Resolve a GfdnOptions.init spec to a normalized Spinor.

    Accepts a Spinor (user supplied), a "plane_wave:<k>" string, or one of
    INIT_SPECS.
    """
    if isinstance(init, Spinor):
        if init.grid != grid:
            raise ValueError("user-supplied initial state is on a different grid")
        return init.normalized()
    if isinstance(init, str) and init.startswith(PLANE_WAVE):
        return plane_wave_pair(grid, base_profile(grid, params),
                               float(init[len(PLANE_WAVE):]))
    if init in INIT_SPECS:
        profile = (sine_profile(grid) if init.startswith("sine")
                   else base_profile(grid, params))
        return pair_state(grid, profile, -1.0 if init.endswith("opposite") else 1.0)
    raise ValueError(f"unknown initial-state spec {init!r}")
