"""Every sampler runs on the real half-spectrum transform pair: with numpy's
full complex FFTs made to raise, the field samplers, both product branches,
the viscosity composition and the hypothesis and extrema checks still run.
"""

import numpy as np
import pytest

from kolmosim.cutoffs import CutoffProfile, InitialBounds, nu_bar
from kolmosim.diagnostics import extrema_monitor
from kolmosim.estimates import RandomFieldSpec, admissible_state
from kolmosim.spectral import SpectralField, spectral_product
from kolmosim.system import hypothesis_violations

WIDE = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)


@pytest.fixture
def no_complex_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full complex FFT called")

    for name in ("fftn", "ifftn", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, refuse)


def test_samplers_avoid_complex_ffts(no_complex_fft):
    spec = RandomFieldSpec(dim=2, cutoff=5, rho=2.0, seed=2)
    state = admissible_state(spec, WIDE)
    f = state.omega
    g = f * (1.0 + 0.5j)
    assert g.realness_residual() > 1e-3

    back = SpectralField.from_grid(g.physical(points=12), f.cutoff)
    assert np.max(np.abs(back.coeffs - g.coeffs)) <= 1e-13 * np.max(np.abs(g.coeffs))
    for a, b in ((f, state.b), (g, f)):
        exact = spectral_product(a, b, mode="exact")
        approx = spectral_product(a, b, mode="oversampled")
        assert np.max(np.abs(approx.coeffs - exact.coeffs)) <= 1e-12 * exact.hs_norm(0.0)
    profile = CutoffProfile(WIDE)
    assert nu_bar(state.b, f, 0.0, 36, profile).realness_residual() <= 1e-12
    assert hypothesis_violations(state, 2.0) == []
    assert extrema_monitor(state, profile, grid=36).passed
