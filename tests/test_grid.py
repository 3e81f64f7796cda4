import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import fft as sfft

from socbec import Axis, Grid, make_grid
from socbec.config import parse_config
from socbec.grid import _load_pocketfft
from socbec.runner import run

ROOT = Path(__file__).parent.parent


def test_fourier_axis_nodes_and_wavenumbers():
    g = make_grid([Axis(-16.0, 16.0, 128, "fourier")])
    assert g.spacing[0] == pytest.approx(0.25)
    x = g.nodes[0]
    assert x[0] == -16.0 and x[-1] == pytest.approx(16.0 - 0.25)
    mu = np.sort(g.wavenumbers[0])
    expected = np.sort(2.0 * np.pi * np.arange(-64, 64) / 32.0)
    np.testing.assert_allclose(mu, expected, atol=1e-14)


@pytest.mark.parametrize("n", [4, 8, 64, 128, 256])
def test_fourier_wavenumbers_are_scipys_fftfreq_bits(n):
    a = Axis(-3.0, 5.0, n)
    assert np.array_equal(a.wavenumbers(),
                          2.0 * np.pi * sfft.fftfreq(n, d=a.h))


def test_sine_axis_nodes_and_wavenumbers():
    g = make_grid([Axis(-1.0, 1.0, 128, "sine")])
    x = g.nodes[0]
    j = np.arange(1, 128)
    np.testing.assert_allclose(x, -1.0 + j / 64.0, atol=1e-15)
    np.testing.assert_allclose(g.wavenumbers[0], np.pi * j / 2.0, atol=1e-13)


@pytest.mark.parametrize("axis_kwargs", [
    dict(lo=0.0, hi=0.0, n=64),                  # degenerate domain
    dict(lo=0.0, hi=1.0, n=65),                  # odd n on Fourier
    dict(lo=0.0, hi=1.0, n=2),                   # too few nodes
    dict(lo=1.0, hi=-1.0, n=64),                 # reversed bounds
    dict(lo=0.0, hi=1.0, n=64, basis="cosine"),  # unknown basis
])
def test_axis_validation(axis_kwargs):
    with pytest.raises(ValueError):
        Axis(**axis_kwargs)


def test_grid_needs_one_to_three_axes():
    a = Axis(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid([])
    with pytest.raises(ValueError):
        Grid([a, a, a, a])


def test_forward_picks_out_single_fourier_mode():
    g = make_grid([Axis(-2.0, 2.0, 16)])
    x = g.coordinate(0)
    mu3 = g.wavenumbers[0][3]
    # the unscaled forward gives a pure mode the coefficient N = n
    c = g.forward(np.exp(1j * mu3 * (x + 2.0))) / 16
    expected = np.zeros(16)
    expected[3] = 1.0
    np.testing.assert_allclose(c, expected, atol=1e-14)


def test_forward_picks_out_single_sine_mode():
    g = make_grid([Axis(-1.0, 1.0, 16, "sine")])
    x = g.coordinate(0)
    c = g.forward(np.sin(np.pi * (x + 1.0) / 2.0)) / 16
    expected = np.zeros(15)
    expected[0] = 1.0
    np.testing.assert_allclose(c, expected, atol=1e-14)


@pytest.mark.parametrize("axes", [
    [Axis(-8.0, 8.0, 64)],
    [Axis(-1.0, 1.0, 64, "sine")],
    [Axis(-4.0, 4.0, 16), Axis(-2.0, 2.0, 32)],
    [Axis(-1.0, 1.0, 16, "sine"), Axis(0.0, 2.0, 16, "sine")],
    [Axis(-4.0, 4.0, 16), Axis(-1.0, 1.0, 16, "sine")],
])
def test_transform_round_trip(axes):
    g = make_grid(axes)
    rng = np.random.default_rng(7)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    np.testing.assert_allclose(g.inverse(g.forward(f)), f, atol=1e-12)


PAIR_GRIDS = {
    "fourier": [Axis(-16.0, 16.0, 128)],
    "dense_sine": [Axis(-1.0, 1.0, 16, "sine"), Axis(-1.0, 2.0, 12, "sine")],
    "large_sine": [Axis(-1.0, 1.0, 130, "sine")],
    "mixed": [Axis(-4.0, 4.0, 16), Axis(-1.0, 1.0, 16, "sine")],
}


@pytest.mark.parametrize("name", PAIR_GRIDS)
def test_transform_pair_takes_leading_batch_axes(name):
    g = make_grid(PAIR_GRIDS[name])
    rng = np.random.default_rng(5)
    f = rng.normal(size=(3, 2) + g.shape) + 1j * rng.normal(size=(3, 2) + g.shape)
    c = g.forward(f)
    assert c.shape == f.shape
    for i in range(3):
        for j in range(2):
            np.testing.assert_allclose(c[i, j], g.forward(f[i, j]),
                                       rtol=0, atol=1e-12)
    np.testing.assert_allclose(g.inverse(c), f, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", PAIR_GRIDS)
def test_transform_pair_rejects_a_wrong_trailing_shape(name):
    g = make_grid(PAIR_GRIDS[name])
    wrong = g.shape[:-1] + (g.shape[-1] + 1,)
    for shape in (wrong, (2,) + wrong, g.shape[1:], g.shape + (2,)):
        if not shape:
            continue
        for transform in (g.forward, g.inverse):
            with pytest.raises(ValueError, match="does not match grid shape"):
                transform(np.ones(shape, dtype=complex))


def test_quadrature_constant_and_gaussian():
    g = make_grid([Axis(-16.0, 16.0, 128)])
    assert g.quadrature(np.ones(g.shape)) == pytest.approx(32.0)
    x = g.coordinate(0)
    val = g.quadrature(np.pi**-0.5 * np.exp(-(x**2)))
    assert abs(val - 1.0) <= 1e-12
    # Python scalars, complex only for complex samples
    assert type(val) is float
    assert type(g.quadrature(np.ones(g.shape, dtype=np.float32))) is float
    assert g.quadrature((1 + 2j) * np.ones(g.shape)) == 32.0 + 64.0j
    assert type(g.quadrature((1 + 2j) * np.ones(g.shape))) is complex


def test_quadrature_shape_mismatch():
    g = make_grid([Axis(-1.0, 1.0, 16), Axis(-1.0, 1.0, 16)])
    with pytest.raises(ValueError):
        g.quadrature(np.ones(16))


@pytest.mark.parametrize("basis", ["fourier", "sine"])
def test_parseval(basis):
    n = 64
    g = make_grid([Axis(-3.0, 5.0, n, basis)])
    rng = np.random.default_rng(11)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    lhs = g.quadrature(np.abs(f) ** 2)
    rhs = g.mode_weight * np.sum(np.abs(g.forward(f)) ** 2)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_spectral_derivative_fourier():
    g = make_grid([Axis(-8.0, 8.0, 64)])
    x = g.coordinate(0)
    for k in (1, 5, 17):
        mu = g.wavenumbers[0][k]
        f = np.exp(1j * mu * (x + 8.0))
        np.testing.assert_allclose(g.deriv(f, 0), 1j * mu * f, atol=1e-10)


def test_spectral_derivative_sine():
    g = make_grid([Axis(-1.0, 3.0, 32, "sine")])
    x = g.coordinate(0)
    mu2 = g.wavenumbers[0][1]
    f = np.sin(mu2 * (x + 1.0))
    np.testing.assert_allclose(g.deriv(f, 0), mu2 * np.cos(mu2 * (x + 1.0)),
                               atol=1e-10)


def test_laplacian_matches_second_derivative():
    g = make_grid([Axis(-8.0, 8.0, 64)])
    x = g.coordinate(0)
    f = np.exp(-(x**2) / 2.0)
    np.testing.assert_allclose(g.laplacian(f), (x**2 - 1.0) * f, atol=1e-9)


def test_transforms_deterministic():
    g = make_grid([Axis(-4.0, 4.0, 32), Axis(-4.0, 4.0, 32)])
    rng = np.random.default_rng(3)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    a = g.forward(f)
    b = g.forward(f)
    assert np.array_equal(a, b)


def test_3d_round_trip_and_parseval():
    g = make_grid([Axis(-4.0, 4.0, 8), Axis(-2.0, 2.0, 8),
                   Axis(-1.0, 1.0, 8, "sine")])
    rng = np.random.default_rng(13)
    f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    np.testing.assert_allclose(g.inverse(g.forward(f)), f, atol=1e-12)
    lhs = g.quadrature(np.abs(f) ** 2)
    rhs = g.mode_weight * np.sum(np.abs(g.forward(f)) ** 2)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_3d_quadrature_gaussian():
    g = make_grid([Axis(-8.0, 8.0, 32)] * 3)
    r2 = sum(g.coordinate(i) ** 2 for i in range(3))
    val = g.quadrature(np.pi**-1.5 * np.exp(-r2))
    assert abs(val - 1.0) <= 1e-12


# ---- complex128 is the only field type the solvers transform ----------------

TRAFFIC_CONFIGS = {
    "fourier_ground_state": """
[run]
mode = ground_state
[grid]
x = -16, 16, 64
[params]
omega = -2
beta11 = 1
beta12 = 0.5
beta22 = 1
[gfdn]
init = gaussian_pair
""",
    # the only `deriv` caller: observables' momentum on a sine axis
    "box_ground_state": """
[run]
mode = ground_state
[grid]
x = -1, 1, 32, sine
[params]
potential = box
k0 = 3
omega = 20
beta11 = 10
beta12 = 9
beta22 = 9
[gfdn]
init = sine_opposite
""",
    "box_limit_study": """
[run]
mode = limit_study
[grid]
x = -1, 1, 32, sine
[params]
potential = box
k0 = 3
omega = 20
beta11 = 10
beta12 = 9
beta22 = 9
[gfdn]
max_iters = 200
[sweep]
kind = large_delta
values = 10, 40
""",
    "com_compare": """
[run]
mode = com_compare
[grid]
x = -16, 16, 64
[params]
omega = 20
k0 = 1
beta11 = 10
beta12 = 10
beta22 = 10
[gfdn]
init = gaussian_pair
[evolve]
tau = 1e-3
t_end = 0.1
record_every = 20
[initial]
kind = shifted_ground_state
offset = 1.0
""",
}


def test_solvers_transform_only_complex128(tmp_path, monkeypatch):
    seen = {}

    def recording(name):
        method = getattr(Grid, name)

        def wrapper(self, arr, *args, **kwargs):
            seen.setdefault(name, set()).add(getattr(arr, "dtype", type(arr)))
            return method(self, arr, *args, **kwargs)
        return wrapper

    for name in ("forward", "inverse", "deriv"):
        monkeypatch.setattr(Grid, name, recording(name))
    for name, text in TRAFFIC_CONFIGS.items():
        assert run(parse_config(text), out_dir=tmp_path / name) == 0, name
    assert seen == {name: {np.dtype(np.complex128)}
                    for name in ("forward", "inverse", "deriv")}


# ---- the pocketfft kernels, loaded without scipy.fft ----------------------------

def run_python(*args):
    """Run a fresh interpreter on the source tree; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_socbec_leaves_scipy_fft_unloaded():
    run_python("-c", "import socbec, sys; "
                     "assert 'scipy.fft' not in sys.modules, 'scipy.fft'; "
                     "assert 'scipy' not in sys.modules, 'scipy'; "
                     "assert 'hashlib' not in sys.modules, 'hashlib'")


def test_fourier_grid_leaves_numpy_fft_unloaded():
    # numpy loads numpy.fft on first use; the wavenumbers build the FFT
    # order themselves
    run_python("-c", "import sys\n"
                     "from socbec import Axis, make_grid\n"
                     "g = make_grid([Axis(-8.0, 8.0, 64), Axis(-1.0, 1.0, 16)])\n"
                     "assert g.wavenumbers[0][32] < 0 < g.mu2[1, 1]\n"
                     "assert 'numpy.fft' not in sys.modules")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_validate_run_leaves_scipy_fft_unloaded(tmp_path, command):
    # -X importtime logs every module the run imports, lazy imports included;
    # any scipy module means scipy's package init ran, and hashlib or
    # _hashlib means OpenSSL was loaded for the config digest
    args = ["configs/ground_state_1d.cfg"]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    proc = run_python("-X", "importtime", "-m", "socbec", command, *args)
    if command == "validate":
        assert "ok" in proc.stdout
    else:
        assert (tmp_path / "out" / "run_manifest.txt").exists()
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "socbec.grid" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
    assert "hashlib" not in imported and "_hashlib" not in imported


LOAD_ORDER_SCRIPT = """
import hashlib, sys
import numpy as np
if sys.argv[1] == "scipy_first":
    import scipy.fft
from socbec import Axis, make_grid
g = make_grid([Axis(-1.0, 1.0, 24, "sine"), Axis(-2.0, 2.0, 16)])
rng = np.random.default_rng(3)
a = rng.normal(size=(2,) + g.shape) + 1j * rng.normal(size=(2,) + g.shape)

def digest():
    h = hashlib.sha256()
    for out in (g.forward(a), g.inverse(a), g.deriv(a, 0), g.deriv(a, 1)):
        h.update(out.tobytes())
    return h.hexdigest()

print(digest())
import scipy.fft
import socbec.grid
# one extension module, whichever side imported it first
assert sys.modules["scipy.fft._pocketfft.pypocketfft"] is socbec.grid._pocketfft
print(digest())
"""


def test_transform_bits_do_not_depend_on_import_order():
    digests = set()
    for order in ("scipy_first", "socbec_first"):
        digests.update(run_python("-c", LOAD_ORDER_SCRIPT, order).stdout.split())
    assert len(digests) == 1


BOX_FLOW_FAULTS_SCRIPT = """
import resource
from socbec import Axis, GfdnOptions, Params, besp_solve, make_grid
g = make_grid([Axis(-1.0, 1.0, 64, "sine")] * 2)
p = Params(k0=10.0, omega=50.0, beta11=10.0, beta12=9.0, beta22=9.0,
           potential="box", frame="tilde")
besp_solve(p, g, GfdnOptions(init="gaussian_opposite", max_iters=5))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
besp_solve(p, g, GfdnOptions(init="gaussian_opposite", max_iters=400))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


BOX_EVOLVE_FAULTS_SCRIPT = """
import resource
from socbec import (Axis, EvolveOptions, Params, Spinor, evolve, make_grid,
                    sine_profile)
g = make_grid([Axis(-1.0, 1.0, 64, "sine")] * 2)
p = Params(k0=10.0, omega=50.0, beta11=10.0, beta12=9.0, beta22=9.0,
           potential="box", frame="tilde")
f = sine_profile(g)
psi0 = Spinor(g, f, f).normalized()
evolve(psi0, p, EvolveOptions(tau=1e-4, t_end=5e-4))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evolve(psi0, p, EvolveOptions(tau=1e-4, t_end=0.04, record_every=400))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc's adaptive malloc thresholds")
def test_box_flow_steps_do_not_fault_heap_pages_back_in():
    # a 64-interval box's temporaries sit just under glibc's initial mmap
    # threshold; at its initial trim threshold each flow step faulted about
    # 5 pages back in (about 2,000 over these 400 steps) and each box
    # evolve step about 50 (about 21,000 over its 400)
    for script in (BOX_FLOW_FAULTS_SCRIPT, BOX_EVOLVE_FAULTS_SCRIPT):
        assert int(run_python("-c", script).stdout) < 400


def test_import_socbec_without_scipy_is_an_import_error():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.modules['scipy'] = None; "
                               "import socbec"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "ModuleNotFoundError: No module named 'scipy'" in proc.stderr


def test_missing_kernel_names_the_scipy_version_and_directory(tmp_path):
    with pytest.raises(ImportError) as err:
        _load_pocketfft(tmp_path)
    assert f"scipy {scipy.__version__}" in str(err.value)
    assert str(tmp_path) in str(err.value)
