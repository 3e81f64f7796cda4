"""Tensor-product spectral grids with Fourier (periodic) and sine (homogeneous
Dirichlet) bases.

Conventions
-----------
Fourier axis on [lo, hi) with n nodes x_j = lo + j*h, h = (hi-lo)/n:
    f_j = (1/n) sum_k c_k exp(i*mu_k*(x_j - lo)),  mu_k = 2*pi*k/(hi-lo),
    k = -n/2 .. n/2-1 stored in FFT order.

Sine axis on (lo, hi) with n-1 interior nodes x_j = lo + j*h, j = 1..n-1:
    f_j = (1/n) sum_k c_k sin(mu_k*(x_j - lo)),  mu_k = pi*k/(hi-lo),
    k = 1..n-1.

One transform pair
------------------
`Grid.forward` (fftn over Fourier axes, type-I dstn over sine axes) is
unscaled, and `Grid.inverse` (ifftn/idstn, which carry 1/n and 1/(2n) per
axis) is its exact inverse, so a pure mode has coefficient n on its axis
and N on the grid (N the product of the per-axis n).  Both run over the
trailing `dim` axes of an array whose trailing shape is the grid shape;
leading axes are batch axes, so the solvers transform a stacked (2, *shape)
spinor with one whole-array call.  Because the pair is an exact inverse, a
spectral multiplier needs no scale factor: none appears in any flow
denominator, propagator table or kinetic phase.  The scale survives only in
Parseval sums, as `Grid.mode_weight = W / N^2`, W the product of the
per-axis weights (hi-lo) for Fourier and (hi-lo)/2 for sine:
    quadrature(|f|^2) = mode_weight * sum |forward(f)|^2.

On an all-sine grid whose every axis has n <= DENSE_SINE_MAX_N, the pair
skips scipy and applies the type-I DST as a dense matrix per axis,
S[k, j] = 2 sin(pi (k+1)(j+1) / n), with S / (2n) as the exact inverse
(S^2 = 2n I).  Each axis is one real matrix product over the float64 view
of the complex array.  At the box grids the solvers use (n = 64, 63 nodes)
that is about twice as fast as dstn/idstn, which pay per-call and per-axis
overhead; the O(n) cost per sample loses to the FFT's O(log n) past about
n = 96, so larger and mixed grids keep fftn/dstn.

Transform plans
---------------
Which array axes a transform runs over depends only on the grid and the
shape of the array.  `Grid._plan(shape)` checks the trailing shape and
works out the (Fourier axes, sine axes) pair and the dense-sine transpose
order once per array shape and keeps them, so a call does no per-call axis
bookkeeping or shape check.

Every transform calls one of scipy's pocketfft kernels directly, with the
arguments scipy's wrappers end in (no scaling forward, 1/N inverse, one
worker), so the results are scipy's bits: fftn/ifftn is
c2c(x, axes, forward, 0 or 2, out, 1), dstn/idstn is
dst(x, 1, axes, 0 or 2, out, 1), and `deriv`'s sine path is dst then dct,
type 1 with inorm 0.  On the small arrays of a 1D flow step scipy's
dispatch and argument checks cost more than the kernel (a (2, 128) `fft`
takes about 8 us through scipy, 3 us direct).

The transforms have one field type, complex128, that of every spinor the
solvers build.  `forward`, `inverse` and `deriv` cast to it once on entry
(a no-op for complex128, views and strides included), so a real field
transforms as its complex128 cast.  dst/dct take it in one call, as its
float64 view with re/im on a trailing axis of length 2.

The kernels come from scipy's `pypocketfft` extension, loaded from its file
in scipy's install directory, so `scipy.fft` is never imported: its package
init loads scipy's array-API layer, numpy.f2py included, and made
`import socbec` take 0.54 s instead of 0.17 s (medians of 15 fresh
interpreters on a shared 2-vCPU Xeon host).  Nor is the `scipy` package:
`importlib.util.find_spec` names its directory without running its init,
which cost 1.4 MB of peak RSS and 10-15 ms.  The module keeps scipy's
dotted name, so it is the very module `scipy.fft` uses if something else
imports that.  There is no fallback: without scipy `import socbec` fails
with ModuleNotFoundError, and without the file with an ImportError naming
the scipy version and the directory searched.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import operator
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _load_pocketfft(directory):
    """scipy's pypocketfft extension module, loaded from its file in
    `directory` without importing the `scipy.fft` package around it.

    The module name must end in `pypocketfft`, the name of the extension's
    init function; it is scipy's own dotted name.
    """
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "pypocketfft" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(
                "scipy.fft._pocketfft.pypocketfft", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from importlib.metadata import version  # 1.7 MB, so only on failure
    raise ImportError(f"scipy {version('scipy')} has no pypocketfft "
                      f"extension module in {directory}")


_scipy = importlib.util.find_spec("scipy")
if _scipy is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
_pocketfft = _load_pocketfft(os.path.join(
    _scipy.submodule_search_locations[0], "fft", "_pocketfft"))
_pocketfft_c2c = _pocketfft.c2c


def _free_one_mapped_block():
    """Allocate and free one 1 MiB array without touching its pages.

    On a 64-interval box a stacked spinor is 127,008 bytes, just under
    glibc's initial 128 KiB mmap threshold, so the solvers' per-step
    temporaries come from the top of the heap.  Freeing them leaves more
    than the initial 128 KiB trim threshold free there, so without this
    every flow step gives pages back to the kernel and faults them in again
    (5-8 minor faults a step, 5-8% of a box solve), as does every step of
    a box `evolve` (about 50 a step on a 64-interval 2D box).  glibc raises
    both thresholds the first time it frees a block it had mmapped, to the
    block's size and twice that; this does so once, as importing scipy.fft
    does as a side effect.  Under other allocators it is one short-lived
    allocation.
    """
    np.empty(1 << 17)


_free_one_mapped_block()

FOURIER = "fourier"
SINE = "sine"

# largest sine-axis n that takes the dense DST-I path: the measured 2D
# crossover (dense wins below 96^2, ties there, loses to dstn from 128^2)
DENSE_SINE_MAX_N = 96


def check_integer(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is an integer."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        check_integer("n", self.n)
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
            # FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1, times 1/(n h) as
            # fftfreq computes it, without importing numpy.fft (+0.43 MB)
            k = np.arange(self.n)
            k[self.n // 2:] -= self.n
            return 2.0 * np.pi * (k * (1.0 / (self.n * self.h)))
        return np.pi * np.arange(1, self.n) / self.length


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
        self._plans = {}

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

    @cached_property
    def mode_weight(self) -> float:
        """Parseval weight of `forward` coefficients: W / N^2."""
        w = np.prod([a.length if a.basis == FOURIER else 0.5 * a.length
                     for a in self.axes])
        return float(w) / float(np.prod([a.n for a in self.axes]))**2

    @cached_property
    def _dense_sine(self):
        """Per-axis DST-I matrices (all S, all S / 2n) on a small all-sine
        grid, else None."""
        if not self.is_sine or max(a.n for a in self.axes) > DENSE_SINE_MAX_N:
            return None
        return tuple(zip(*(_dst1_pair(a.n) for a in self.axes)))

    def _check_shape(self, shape, batch: bool = False):
        """`shape` must be the grid shape, or end in it when `batch`."""
        if (shape[len(shape) - self.dim:] if batch else shape) != self.shape:
            raise ValueError(
                f"field shape {shape} does not match grid shape {self.shape}"
            )

    def _plan(self, shape):
        """(Fourier axes, sine axes, dense-pass transpose order) of an array of
        `shape`, checked and worked out on the first call per shape."""
        plan = self._plans.get(shape)
        if plan is None:
            self._check_shape(shape, batch=True)
            ndim = len(shape)
            lead = ndim - self.dim
            plan = tuple(
                tuple(lead + i for i, a in enumerate(self.axes) if a.basis == b)
                for b in (FOURIER, SINE)
            ) + ((*range(lead), ndim - 1, *range(lead, ndim - 1)),)
            self._plans[shape] = plan
        return plan

    def forward(self, arr: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Unscaled transform over the trailing `dim` axes.

        Leading axes (such as the component axis of a stacked spinor) are
        batch axes.  `overwrite` lets the transform reuse `arr`'s storage.
        """
        arr = np.asarray(arr, dtype=np.complex128)
        fourier, sine, order = self._plan(arr.shape)
        if self._dense_sine is not None:
            return _apply_per_axis(arr, self._dense_sine[0], order)
        out = arr
        if fourier:
            out = _c2c(out, fourier, True, overwrite)
            overwrite = True
        if sine:
            out = _r2r(_pocketfft.dst, out, sine, 0, overwrite)
        return out

    def inverse(self, arr: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Exact inverse of `forward` (same batch-axis convention)."""
        arr = np.asarray(arr, dtype=np.complex128)
        fourier, sine, order = self._plan(arr.shape)
        if self._dense_sine is not None:
            return _apply_per_axis(arr, self._dense_sine[1], order)
        out = arr
        if sine:
            out = _r2r(_pocketfft.dst, out, sine, 2, overwrite)
            overwrite = True
        if fourier:
            out = _c2c(out, fourier, False, overwrite)
        return out

    def deriv(self, field: np.ndarray, axis: int) -> np.ndarray:
        """Spectral first derivative along spatial `axis`.

        `field` has the grid shape, or carries leading batch axes in front of
        it (a stacked spinor).
        """
        field = np.array(field, dtype=np.complex128)
        self._check_shape(field.shape, batch=True)
        a = self.axes[axis]
        ax = field.ndim - self.dim + axis
        mu = self.wavenumbers[axis].reshape((-1,) + (1,) * (self.dim - 1 - axis))
        if a.basis == FOURIER:
            c = _c2c(field, (ax,), True, True)
            c *= 1j * mu
            return _c2c(c, (ax,), False, True)
        # sine series differentiates into a cosine series; evaluate it at the
        # interior nodes through a DCT-I padded with the two boundary zeros
        c = _r2r(_pocketfft.dst, field, (ax,), 0, True) / a.n
        c *= mu
        pad = [(0, 0)] * field.ndim
        pad[ax] = (1, 1)
        padded = np.pad(c, pad)
        cos_vals = _r2r(_pocketfft.dct, padded, (ax,), 0, True) / 2.0
        sl = [slice(None)] * field.ndim
        sl[ax] = slice(1, a.n)
        return cos_vals[tuple(sl)]

    def laplacian(self, field: np.ndarray) -> np.ndarray:
        """Spectral Laplacian (all axes)."""
        return self.inverse(-self.mu2 * self.forward(field), overwrite=True)

    def quadrature(self, samples: np.ndarray):
        """h^d * sum(samples) as a Python float or complex; sine axes sum
        interior nodes only."""
        samples = np.asarray(samples)
        self._check_shape(samples.shape)
        return (samples.sum() * self.cell_volume).item()


def _dst1_pair(n: int):
    """Read-only DST-I matrix S of an n-interval sine axis and its inverse."""
    k = np.arange(1, n)
    # reduce k*j mod 2n in integers so the sine argument stays in [0, 2pi)
    s = 2.0 * np.sin(np.pi * (np.outer(k, k) % (2 * n)) / n)
    s_inv = s / (2 * n)
    s.flags.writeable = False
    s_inv.flags.writeable = False
    return s, s_inv


def _c2c(arr, axes, forward: bool, overwrite: bool):
    """fftn (`forward`) or ifftn of complex128 `arr` over `axes` as one
    pocketfft kernel call; `overwrite` writes the result into `arr`."""
    out = arr if overwrite else None
    return _pocketfft_c2c(arr, axes, forward, 0 if forward else 2, out, 1)


def _r2r(kernel, arr, axes, inorm: int, overwrite: bool):
    """Type-I `kernel` (pocketfft's dst or dct) of complex128 `arr` over
    `axes`, called as scipy's dstn/idstn/dst/dct call it; `overwrite` writes
    into `arr`.  re/im go in as a trailing float64 axis of length 2, so one
    call transforms both."""
    x = arr[..., None].view(np.float64)
    out = kernel(x, 1, axes, inorm, x if overwrite else None, 1)
    return out.view(np.complex128)[..., 0]


def _apply_per_axis(arr: np.ndarray, mats, order) -> np.ndarray:
    """Apply symmetric mats[i] along the i-th of the trailing len(mats) axes
    of complex128 `arr`.

    Each pass transposes by `order`, which moves the last axis to the front
    of the trailing ones, so after len(mats) passes the axes are back in
    order.  The array is multiplied through its float64 view, one real
    product instead of a complex one.  Never writes into `arr`.
    """
    lead = arr.ndim - len(mats)
    for mat in reversed(mats):
        t = np.ascontiguousarray(arr.transpose(order))
        flat = t.view(np.float64).reshape(t.shape[:lead + 1] + (-1,))
        arr = np.matmul(mat, flat).view(t.dtype).reshape(t.shape)
    return arr


def make_grid(axes) -> Grid:
    """Build a Grid from Axis specs, validating the Axis invariants."""
    return Grid(axes)
