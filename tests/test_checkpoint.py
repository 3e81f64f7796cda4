import errno
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from socbec import (
    Axis,
    CheckpointError,
    Params,
    Spinor,
    load_checkpoint,
    make_grid,
    save_checkpoint,
)
from socbec import checkpoint


def sample_state(seed=0):
    g = make_grid([Axis(-4.0, 4.0, 16), Axis(-1.0, 1.0, 8, "sine")])
    rng = np.random.default_rng(seed)
    f1 = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    f2 = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    p = Params(k0=1.5, omega=-3.0, delta=0.25, beta11=2.0, beta12=1.0,
               beta22=0.5, gamma_x=1.0, gamma_y=2.0, potential="harmonic",
               frame="tilde")
    return Spinor(g, f1, f2), p


def test_round_trip_bit_exact(tmp_path):
    phi, p = sample_state()
    path = tmp_path / "state.socb"
    save_checkpoint(path, phi, p, time=1.25, iteration=42)
    chk = load_checkpoint(path)
    assert np.array_equal(chk.spinor.psi1, phi.psi1)
    assert np.array_equal(chk.spinor.psi2, phi.psi2)
    assert chk.spinor.grid == phi.grid
    assert chk.params == p
    assert chk.time == 1.25 and chk.iteration == 42


def test_truncated_payload_rejected(tmp_path):
    phi, p = sample_state()
    path = tmp_path / "state.socb"
    save_checkpoint(path, phi, p)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.socb"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path):
    phi, p = sample_state()
    path = tmp_path / "state.socb"
    save_checkpoint(path, phi, p)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    phi, p = sample_state()
    path = tmp_path / "state.socb"
    save_checkpoint(path, phi, p)
    path.write_bytes(path.read_bytes() + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


class _DiskFullAfterHalf:
    """File wrapper whose write stores half the bytes, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    phi, p = sample_state()
    path = tmp_path / "state.socb"
    save_checkpoint(path, phi, p)
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open",
                        lambda *a, **k: _DiskFullAfterHalf(open(*a, **k)),
                        raising=False)
    other, _ = sample_state(seed=1)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, other, p, time=1.0)
    assert path.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["state.socb"]


def test_grid_compare_after_load(tmp_path):
    phi, p = sample_state()
    path = tmp_path / "state.socb"
    save_checkpoint(path, phi, p)
    chk = load_checkpoint(path)
    other = make_grid([Axis(-4.0, 4.0, 16)])
    assert chk.spinor.grid != other


# Header offsets of `sample_state`'s checkpoint: magic and version/dim take
# 12 bytes, each axis record 21 (lo f64, hi f64, n u32, basis u8), then nine
# f64 parameters from byte 54; the fields start at byte 144.
AXIS0_LO, AXIS0_N, AXIS1_N = 12, 28, 49
K0_OFFSET, PAYLOAD_OFFSET = 54, 144


@pytest.mark.parametrize("fmt, offset, value", [
    ("<I", AXIS0_N, 15),                 # odd n on the Fourier axis
    ("<I", AXIS1_N, 2),                  # n < 4 on the sine axis
    ("<d", AXIS0_LO, float("nan")),      # non-finite bound
    ("<d", AXIS0_LO, 10.0),              # hi <= lo
    ("<d", K0_OFFSET, float("inf")),     # non-finite parameter
    ("<d", PAYLOAD_OFFSET, float("nan")),  # non-finite field value
])
def test_invalid_contents_raise_checkpoint_error(tmp_path, fmt, offset, value):
    phi, p = sample_state()
    path = tmp_path / "state.socb"
    save_checkpoint(path, phi, p)
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_corrupted_bytes_load_or_raise_checkpoint_error(tmp_path, data):
    phi, p = sample_state()
    path = tmp_path / "state.socb"
    save_checkpoint(path, phi, p)
    raw = bytearray(path.read_bytes())
    for _ in range(data.draw(st.integers(1, 4))):
        raw[data.draw(st.integers(0, PAYLOAD_OFFSET + 16))] = data.draw(
            st.integers(0, 255))
    path.write_bytes(bytes(raw))
    try:
        chk = load_checkpoint(path)
    except CheckpointError:
        return
    assert np.all(np.isfinite(chk.spinor.psi))


def test_header_whose_size_overflows_int64_is_rejected(tmp_path):
    # 2^21 * 2^21 * 2^22 = 2^64 samples: a 64-bit count wraps to 0, which
    # an empty payload would match
    raw = b"SOCB" + struct.pack("<II", 1, 3)
    for n in (2**21, 2**21, 2**22):
        raw += struct.pack("<ddIB", -1.0, 1.0, n, 0)
    raw += struct.pack("<9dBB", *([0.0] * 6 + [1.0] * 3), 0, 0)
    raw += struct.pack("<dQ", 0.0, 0)
    path = tmp_path / "huge.socb"
    path.write_bytes(raw)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
