"""Every sampler runs on the real half-spectrum transform pair, without
numpy's FFTs: with numpy's complex and real FFTs made to raise, the field
samplers, the product, the viscosity composition, the hypothesis and
extrema checks and the estimate lab's entry points still run.
"""

import numpy as np
import pytest

from kolmosim.cutoffs import CutoffProfile, InitialBounds, nu_bar
from kolmosim.diagnostics import extrema_monitor
from kolmosim.estimates import (RandomFieldSpec, admissible_state, commutator,
                                field_lp, verify_commutator_estimate,
                                verify_composition_estimate,
                                verify_interpolation_inequality,
                                verify_product_estimate)
from kolmosim.spectral import SpectralField, VectorSpectralField, spectral_product
from kolmosim.system import hypothesis_violations
from oracles import direct_convolution

WIDE = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)


@pytest.fixture
def no_numpy_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy FFT called")

    for name in ("fftn", "ifftn", "fft", "ifft", "rfftn", "irfftn", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)


def test_samplers_avoid_complex_ffts(no_numpy_fft):
    spec = RandomFieldSpec(dim=2, cutoff=5, rho=2.0, seed=2)
    state = admissible_state(spec, WIDE)
    f = state.omega

    back = SpectralField.from_grid(f.real_samples(12), f.cutoff)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))
    assert state.v.real_samples(12).shape == (2, 12, 12)
    exact = direct_convolution(f, state.b, f.cutoff)
    approx = spectral_product(f, state.b)
    assert np.max(np.abs(approx.coeffs - exact.coeffs)) <= 1e-12 * exact.hs_norm(0.0)
    profile = CutoffProfile(WIDE)
    assert nu_bar(state.b, f, 0.0, 36, profile).realness_residual() <= 1e-12
    assert hypothesis_violations(state, 2.0) == []
    assert extrema_monitor(state, profile, grid=36).passed


def test_estimate_lab_avoids_complex_ffts(no_numpy_fft):
    spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=3)
    rng = spec.rng(0)
    f, g = spec.draw(rng), spec.draw(rng)
    assert commutator(f, g, 1.5).hs_norm(0.0) > 0.0
    assert field_lp(f, 3.0) > 0.0
    assert field_lp(VectorSpectralField((f, g)), np.inf) > 0.0
    for report in (verify_commutator_estimate(spec, 2.0, samples=2),
                   verify_product_estimate(spec, 2.0, samples=2),
                   verify_composition_estimate(spec, 2.0, samples=2),
                   verify_interpolation_inequality(spec, 2.0, samples=2)):
        assert report.samples == 2 and np.all(np.isfinite(report.ratios))
