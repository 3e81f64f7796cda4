"""Binary state checkpoints.

Layout (all little-endian):
    magic   b"SOCB"
    version u32
    dim     u32
    per axis: lo f64, hi f64, n u32, basis u8 (0 Fourier, 1 sine)
    params: k0, omega, delta, beta11, beta12, beta22,
            gamma_x, gamma_y, gamma_z as f64;
            potential u8 (0 harmonic, 1 box, 2 free); frame u8 (0 lab, 1 tilde)
    time f64, iteration u64
    fields: psi1 then psi2 as (re, im) f64 pairs in row-major node order.

Round trips are bit exact.  Loads fail only with CheckpointError, without
returning partial state: on magic/version mismatch, a truncated payload, an
invalid axis or parameter set, or non-finite numbers.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import FOURIER, SINE, Axis, Grid
from .model import BOX, FREE, HARMONIC, LAB, TILDE, Params, Spinor

MAGIC = b"SOCB"
VERSION = 1

_BASIS_CODE = {FOURIER: 0, SINE: 1}
_BASIS_NAME = {v: k for k, v in _BASIS_CODE.items()}
_POTENTIAL_CODE = {HARMONIC: 0, BOX: 1, FREE: 2}
_POTENTIAL_NAME = {v: k for k, v in _POTENTIAL_CODE.items()}
_FRAME_CODE = {LAB: 0, TILDE: 1}
_FRAME_NAME = {v: k for k, v in _FRAME_CODE.items()}


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    spinor: Spinor
    params: Params
    time: float
    iteration: int


def write_atomic(path, data: bytes) -> None:
    """Replace `path` with `data` through a temp file in the same directory.

    A write that fails partway leaves the previous file intact and removes
    the temp file; readers never see a half-written artifact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, spinor: Spinor, params: Params,
                    time: float = 0.0, iteration: int = 0) -> None:
    g = spinor.grid
    parts = [MAGIC, struct.pack("<II", VERSION, g.dim)]
    for a in g.axes:
        parts.append(struct.pack("<ddIB", a.lo, a.hi, a.n, _BASIS_CODE[a.basis]))
    parts.append(struct.pack(
        "<9dBB",
        params.k0, params.omega, params.delta,
        params.beta11, params.beta12, params.beta22,
        params.gamma_x, params.gamma_y, params.gamma_z,
        _POTENTIAL_CODE[params.potential], _FRAME_CODE[params.frame],
    ))
    parts.append(struct.pack("<dQ", time, iteration))
    parts.append(np.ascontiguousarray(spinor.psi, dtype="<c16").tobytes())
    write_atomic(path, b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(raw):
            raise CheckpointError(f"truncated checkpoint {path}")
        vals = struct.unpack_from(fmt, raw, off)
        off += size
        return vals

    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    off = 4
    version, dim = take("<II")
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (expected {VERSION})"
        )
    if not 1 <= dim <= 3:
        raise CheckpointError(f"invalid checkpoint dimension {dim}")
    axes = []
    for _ in range(dim):
        lo, hi, n, code = take("<ddIB")
        if code not in _BASIS_NAME:
            raise CheckpointError(f"invalid basis code {code}")
        try:
            axes.append(Axis(lo, hi, n, _BASIS_NAME[code]))
        except ValueError as exc:
            raise CheckpointError(f"invalid checkpoint axis: {exc}") from None
    grid = Grid(axes)
    vals = take("<9dBB")
    if vals[9] not in _POTENTIAL_NAME or vals[10] not in _FRAME_NAME:
        raise CheckpointError("invalid potential/frame code")
    if not np.all(np.isfinite(vals[:9])):
        raise CheckpointError("non-finite checkpoint parameters")
    try:
        params = Params(
            k0=vals[0], omega=vals[1], delta=vals[2],
            beta11=vals[3], beta12=vals[4], beta22=vals[5],
            gamma_x=vals[6], gamma_y=vals[7], gamma_z=vals[8],
            potential=_POTENTIAL_NAME[vals[9]], frame=_FRAME_NAME[vals[10]],
        )
    except ValueError as exc:
        raise CheckpointError(f"invalid checkpoint parameters: {exc}") from None
    time, iteration = take("<dQ")
    if not np.isfinite(time):
        raise CheckpointError("non-finite checkpoint time")
    count = math.prod(grid.shape)  # exact: corrupt sizes must not wrap
    expected = 2 * count * 16
    if len(raw) - off != expected:
        raise CheckpointError(
            f"checkpoint payload is {len(raw) - off} bytes, expected {expected}"
        )
    data = np.frombuffer(raw, dtype="<c16", count=2 * count, offset=off)
    if not np.all(np.isfinite(data)):
        raise CheckpointError(f"checkpoint {path} holds non-finite field values")
    psi = data.reshape((2,) + grid.shape).astype(np.complex128)
    return Checkpoint(Spinor.from_stacked(grid, psi), params, time, int(iteration))
