"""Tensor-product spectral grids with Fourier (periodic) and sine (homogeneous
Dirichlet) bases.

Conventions
-----------
Fourier axis on [lo, hi) with n nodes x_j = lo + j*h, h = (hi-lo)/n:
    f_j = sum_k c_k exp(i*mu_k*(x_j - lo)),  mu_k = 2*pi*k/(hi-lo),
    k = -n/2 .. n/2-1 stored in FFT order.  forward carries 1/n, inverse
    carries no factor, so a pure mode exp(i*mu_k*(x-lo)) has unit coefficient.

Sine axis on (lo, hi) with n-1 interior nodes x_j = lo + j*h, j = 1..n-1:
    f_j = sum_k c_k sin(mu_k*(x_j - lo)),  mu_k = pi*k/(hi-lo), k = 1..n-1.

Parseval: quadrature(|f|^2) = W * sum_k |c_k|^2 with per-axis weight
(hi-lo) for Fourier and (hi-lo)/2 for sine; W is the product over axes
(`Grid.parseval_weight`).

Stacked arrays and folded scale factors
---------------------------------------
The solvers keep a spinor as one (2, *shape) array and transform it with a
single whole-array call over the trailing spatial axes: `Grid.to_modes`
(fftn over Fourier axes, type-I dstn over sine axes, no scale factor) and
`Grid.from_modes`, its exact inverse (ifftn/idstn, which carry 1/n and
1/(2n) per axis).  Because the pair is an exact inverse, a spectral
multiplier needs no scale factor: the 1/n of `forward` and the n (Fourier)
or 1/2 (sine) of `inverse` cancel out of every flow denominator, propagator
table and kinetic phase.  They survive only in Parseval sums, folded into
`Grid.mode_weight = W / N^2` (N the product of the per-axis n):
    quadrature(|f|^2) = mode_weight * sum |to_modes(f)|^2.
`forward`/`inverse` are the same transforms with the 1/N and N restored.

On an all-sine grid whose every axis has n <= DENSE_SINE_MAX_N, the pair
skips scipy and applies the type-I DST as a dense matrix per axis,
S[k, j] = 2 sin(pi (k+1)(j+1) / n), with S / (2n) as the exact inverse
(S^2 = 2n I).  Each axis is one real matrix product over the float64 view
of the complex array.  At the box grids the solvers use (n = 64, 63 nodes)
that is about twice as fast as dstn/idstn, which pay per-call and per-axis
overhead; the O(n) cost per sample loses to the FFT's O(log n) past about
n = 96, so larger and mixed grids keep fftn/dstn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _fft

FOURIER = "fourier"
SINE = "sine"

# largest sine-axis n that takes the dense DST-I path: the measured 2D
# crossover (dense wins below 96^2, ties there, loses to dstn from 128^2)
DENSE_SINE_MAX_N = 96


@dataclass(frozen=True)
class Axis:
    """One spatial axis: domain [lo, hi], n grid intervals, spectral basis."""

    lo: float
    hi: float
    n: int
    basis: str = FOURIER

    def __post_init__(self):
        if self.basis not in (FOURIER, SINE):
            raise ValueError(f"unknown basis {self.basis!r}")
        if not np.isfinite(self.lo) or not np.isfinite(self.hi):
            raise ValueError("axis bounds must be finite")
        if self.hi <= self.lo:
            raise ValueError(f"axis needs hi > lo, got [{self.lo}, {self.hi}]")
        if self.n < 4:
            raise ValueError(f"axis needs n >= 4, got n={self.n}")
        if self.basis == FOURIER and self.n % 2 != 0:
            raise ValueError(f"Fourier axis needs even n, got n={self.n}")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def size(self) -> int:
        """Number of stored samples along this axis (interior only for sine)."""
        return self.n if self.basis == FOURIER else self.n - 1

    def nodes(self) -> np.ndarray:
        j = np.arange(self.n) if self.basis == FOURIER else np.arange(1, self.n)
        return self.lo + j * self.h

    def wavenumbers(self) -> np.ndarray:
        if self.basis == FOURIER:
            # FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1
            return 2.0 * np.pi * _fft.fftfreq(self.n, d=self.h)
        return np.pi * np.arange(1, self.n) / self.length

    @property
    def parseval_weight(self) -> float:
        return self.length if self.basis == FOURIER else 0.5 * self.length


class Grid:
    """Tensor product of 1-3 axes with transforms, quadrature, derivatives."""

    def __init__(self, axes):
        axes = tuple(axes)
        if not 1 <= len(axes) <= 3:
            raise ValueError(f"grid supports 1-3 axes, got {len(axes)}")
        if not all(isinstance(a, Axis) for a in axes):
            raise TypeError("grid axes must be Axis instances")
        self.axes = axes
        self.dim = len(axes)
        self.shape = tuple(a.size for a in axes)
        self.spacing = tuple(a.h for a in axes)
        self.cell_volume = float(np.prod(self.spacing))

    def __eq__(self, other):
        return isinstance(other, Grid) and self.axes == other.axes

    def __hash__(self):
        return hash(self.axes)

    def __repr__(self):
        spec = ", ".join(
            f"[{a.lo}, {a.hi}] n={a.n} {a.basis}" for a in self.axes
        )
        return f"Grid({spec})"

    @property
    def is_fourier(self) -> bool:
        return all(a.basis == FOURIER for a in self.axes)

    @property
    def is_sine(self) -> bool:
        return all(a.basis == SINE for a in self.axes)

    @cached_property
    def nodes(self):
        """Per-axis 1D node arrays."""
        return tuple(a.nodes() for a in self.axes)

    @cached_property
    def wavenumbers(self):
        """Per-axis 1D spectral multiplier arrays (mu_k)."""
        return tuple(a.wavenumbers() for a in self.axes)

    def coordinate(self, axis: int) -> np.ndarray:
        """Coordinate of `axis` broadcast over the full grid shape."""
        return self._along(self.nodes[axis], axis) * np.ones(self.shape)

    def _along(self, arr: np.ndarray, axis: int) -> np.ndarray:
        shp = [1] * self.dim
        shp[axis] = len(arr)
        return arr.reshape(shp)

    def mu(self, axis: int) -> np.ndarray:
        """Wavenumbers of `axis` shaped for broadcasting over coefficients."""
        return self._along(self.wavenumbers[axis], axis)

    @cached_property
    def mu2(self) -> np.ndarray:
        """|mu|^2 = sum of squared per-axis wavenumbers on the mode grid."""
        out = np.zeros(self.shape)
        for i in range(self.dim):
            out = out + self.mu(i) ** 2
        return out

    @property
    def parseval_weight(self) -> float:
        return float(np.prod([a.parseval_weight for a in self.axes]))

    @cached_property
    def mode_weight(self) -> float:
        """Parseval weight of unscaled `to_modes` coefficients: W / N^2."""
        return self.parseval_weight / self._n_prod**2

    @cached_property
    def _n_prod(self) -> float:
        return float(np.prod([a.n for a in self.axes]))

    @cached_property
    def _dense_sine(self):
        """Per-axis DST-I matrices (all S, all S / 2n) on a small all-sine
        grid, else None."""
        if not self.is_sine or max(a.n for a in self.axes) > DENSE_SINE_MAX_N:
            return None
        return tuple(zip(*(_dst1_pair(a.n) for a in self.axes)))

    def _check_shape(self, field: np.ndarray):
        if field.shape != self.shape:
            raise ValueError(
                f"field shape {field.shape} does not match grid shape {self.shape}"
            )

    def _spatial_axes(self, arr: np.ndarray, basis: str):
        lead = arr.ndim - self.dim
        return tuple(lead + i for i, a in enumerate(self.axes) if a.basis == basis)

    def to_modes(self, arr: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Unscaled whole-array transform over the trailing `dim` axes.

        Leading axes (such as the component axis of a stacked spinor) are
        batch axes.  `overwrite` lets the transform reuse `arr`'s storage.
        """
        if self._dense_sine is not None:
            return _apply_per_axis(arr, self._dense_sine[0])
        out = arr
        fourier = self._spatial_axes(arr, FOURIER)
        sine = self._spatial_axes(arr, SINE)
        if fourier:
            out = _fft.fftn(out, axes=fourier, overwrite_x=overwrite)
            overwrite = True
        if sine:
            out = _fft.dstn(out, type=1, axes=sine, overwrite_x=overwrite)
        return out

    def from_modes(self, arr: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Exact inverse of `to_modes` (same batch-axis convention)."""
        if self._dense_sine is not None:
            return _apply_per_axis(arr, self._dense_sine[1])
        out = arr
        fourier = self._spatial_axes(arr, FOURIER)
        sine = self._spatial_axes(arr, SINE)
        if sine:
            out = _fft.idstn(out, type=1, axes=sine, overwrite_x=overwrite)
            overwrite = True
        if fourier:
            out = _fft.ifftn(out, axes=fourier, overwrite_x=overwrite)
        return out

    def forward(self, field: np.ndarray) -> np.ndarray:
        """Physical samples -> spectral coefficients (1/n on each Fourier axis)."""
        field = np.asarray(field)
        self._check_shape(field)
        out = self.to_modes(field.astype(np.complex128), overwrite=True)
        out /= self._n_prod
        return out

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Spectral coefficients -> physical samples."""
        coeffs = np.asarray(coeffs)
        self._check_shape(coeffs)
        out = self.from_modes(coeffs.astype(np.complex128), overwrite=True)
        out *= self._n_prod
        return out

    def deriv(self, field: np.ndarray, axis: int) -> np.ndarray:
        """Spectral first derivative along spatial `axis`.

        `field` has the grid shape, or carries leading batch axes in front of
        it (a stacked spinor).
        """
        field = np.asarray(field)
        if field.shape[field.ndim - self.dim:] != self.shape:
            raise ValueError(
                f"field shape {field.shape} does not match grid shape {self.shape}"
            )
        a = self.axes[axis]
        ax = field.ndim - self.dim + axis
        mu = self.wavenumbers[axis].reshape((-1,) + (1,) * (self.dim - 1 - axis))
        if a.basis == FOURIER:
            c = _fft.fft(field.astype(np.complex128), axis=ax)
            c *= 1j * mu
            return _fft.ifft(c, axis=ax, overwrite_x=True)
        # sine series differentiates into a cosine series; evaluate it at the
        # interior nodes through a DCT-I padded with the two boundary zeros
        c = _fft.dst(field.astype(np.complex128), type=1, axis=ax) / a.n
        c *= mu
        pad = [(0, 0)] * field.ndim
        pad[ax] = (1, 1)
        padded = np.pad(c, pad)
        cos_vals = _fft.dct(padded, type=1, axis=ax, overwrite_x=True) / 2.0
        sl = [slice(None)] * field.ndim
        sl[ax] = slice(1, a.n)
        return cos_vals[tuple(sl)]

    def laplacian(self, field: np.ndarray) -> np.ndarray:
        """Spectral Laplacian (all axes)."""
        return self.inverse(-self.mu2 * self.forward(field))

    def quadrature(self, samples: np.ndarray):
        """h^d * sum(samples); sine axes sum interior nodes only."""
        samples = np.asarray(samples)
        self._check_shape(samples)
        total = samples.sum() * self.cell_volume
        if np.iscomplexobj(samples):
            return complex(total)
        return float(total)


def _dst1_pair(n: int):
    """Read-only DST-I matrix S of an n-interval sine axis and its inverse."""
    k = np.arange(1, n)
    # reduce k*j mod 2n in integers so the sine argument stays in [0, 2pi)
    s = 2.0 * np.sin(np.pi * (np.outer(k, k) % (2 * n)) / n)
    s_inv = s / (2 * n)
    s.flags.writeable = False
    s_inv.flags.writeable = False
    return s, s_inv


def _apply_per_axis(arr: np.ndarray, mats) -> np.ndarray:
    """Apply symmetric mats[i] along the i-th of the trailing len(mats) axes.

    Each pass moves the last axis to the front of the trailing ones, so after
    len(mats) passes the axes are back in order.  A complex array is
    multiplied through its float64 view, one real product instead of a
    complex one.  Never writes into `arr`.
    """
    out = np.asarray(arr, dtype=np.complex128 if np.iscomplexobj(arr)
                     else np.float64)
    lead = out.ndim - len(mats)
    for mat in reversed(mats):
        t = np.ascontiguousarray(np.moveaxis(out, -1, lead))
        flat = t.view(np.float64).reshape(t.shape[:lead + 1] + (-1,))
        out = np.matmul(mat, flat).view(t.dtype).reshape(t.shape)
    return out


def make_grid(axes) -> Grid:
    """Build a Grid from Axis specs, validating the Axis invariants."""
    return Grid(axes)
