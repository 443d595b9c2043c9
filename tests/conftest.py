import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def random_field(seed: int, n: int, kmax: int = None, amplitude: float = 1.0):
    """Real band-limited field from seeded random Fourier modes."""
    rng = np.random.default_rng(seed)
    kmax = kmax if kmax is not None else n // 4
    coeffs = np.zeros((n, n), complex)
    ks = np.fft.fftfreq(n, 1.0 / n).astype(int)
    for ix, kx in enumerate(ks):
        for iy, ky in enumerate(ks):
            if abs(kx) <= kmax and abs(ky) <= kmax:
                coeffs[ix, iy] = rng.standard_normal() + 1j * rng.standard_normal()
    f = np.real(np.fft.ifft2(coeffs)) * n ** 2
    peak = np.max(np.abs(f))
    return f * (amplitude / peak) if peak > 0 else f


@pytest.fixture(scope="session")
def grid32():
    from vbgk.grid import Grid

    return Grid(32)


@pytest.fixture(scope="session")
def grid16():
    from vbgk.grid import Grid

    return Grid(16)


@pytest.fixture(scope="session")
def params_default():
    from vbgk.model import make_params

    return make_params(0.1, 1.0, 2.0, 0.01, 1.0)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped.

    A run on file or zero data forks its reference process and must reap it
    on every path, so that no process outlives a CLI command.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process " + ("running" if pid == 0 else "unreaped"))
