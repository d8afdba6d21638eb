"""Estimate-lab checks: partition algebra, commutator oracles, decomposition
identity and support selection, campaign reproducibility, and the
perturbation-growth probe.

Frozen references were computed from the closed-form single-mode formulas
before being pinned here.
"""

import math

import numpy as np
import pytest

from kolmosim.cutoffs import CutoffProfile, InitialBounds
from kolmosim.estimates import (PartitionOfUnity, RandomFieldSpec,
                                admissible_state, attach_stability,
                                commutator, commutator_decomposition,
                                field_lp, perturbation,
                                smooth_map_derivative_bound, uniqueness_probe,
                                verify_commutator_estimate,
                                verify_composition_estimate,
                                verify_interpolation_inequality,
                                verify_product_estimate)
from kolmosim.integrators import IntegratorConfig
from kolmosim.spectral import (SpectralField, VectorSpectralField,
                               fast_grid_size, lp_norm)
from kolmosim.system import ModelParams

WIDE = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)

# sqrt(1 + 36 pi^2) - sqrt(1 + 16 pi^2), the single-mode commutator amplitude
# for s = 1, xi0 = (1,0), eta0 = (2,0).
COMMUTATOR_AMP = 6.269966550007176
# 2 pi / ((0.5 (1+4pi^2)^2)^(1/4) (0.5 (1+4pi^2)^3)^(1/4)), the cosine
# interpolation ratio at d = 2, s = 2, theta = 1/2.
COS_INTERP_RATIO = 0.08702929350228393


class TestRandomFieldSpec:
    def test_reproducible_and_symmetric(self):
        spec = RandomFieldSpec(dim=2, cutoff=6, rho=2.0, seed=3)
        f1 = spec.draw(spec.rng(5))
        f2 = spec.draw(spec.rng(5))
        assert np.array_equal(f1.coeffs, f2.coeffs)
        assert f1.realness_residual() < 1e-15
        other = spec.draw(spec.rng(6))
        assert not np.array_equal(f1.coeffs, other.coeffs)

    def test_decay_scaling(self):
        rough = RandomFieldSpec(dim=2, cutoff=12, rho=0.0, seed=1)
        smooth = RandomFieldSpec(dim=2, cutoff=12, rho=4.0, seed=1)
        fr = rough.draw(rough.rng(0))
        fs = smooth.draw(smooth.rng(0))
        # High-band to low-band energy ratio must drop with rho.
        geo = fr.geometry
        hi = geo.k_sq > 36
        lo = geo.ball & (geo.k_sq <= 36)

        def band_ratio(f):
            return (np.sum(np.abs(f.coeffs[hi]) ** 2)
                    / np.sum(np.abs(f.coeffs[lo]) ** 2))

        assert band_ratio(fs) < 0.01 * band_ratio(fr)

    def test_admissible_state_contained_in_bounds(self):
        spec = RandomFieldSpec(dim=2, cutoff=8, rho=2.5, seed=11)
        state = admissible_state(spec, WIDE, index=2)
        state.validate()
        # Containment must hold on grids the construction never saw.
        for pts in (64, 301):
            w = state.omega.physical(points=pts).real
            b = state.b.physical(points=pts).real
            assert np.min(w) >= WIDE.omega_min0
            assert np.max(w) <= WIDE.omega_max0
            assert np.min(b) >= WIDE.b_min0
        # And the mapped range should still come close to the target band.
        span = WIDE.omega_max0 - WIDE.omega_min0
        assert np.min(w) <= WIDE.omega_min0 + 0.2 * span
        assert np.max(w) >= WIDE.omega_max0 - 0.2 * span
        assert state.v.div_residual() < 1e-13


class TestPartitionOfUnity:
    def test_sums_to_one_on_fine_grid(self):
        part = PartitionOfUnity()
        u = np.linspace(0.0, 100.0, 100_000)
        total = part.phi1(u) + part.phi2(u) + part.phi3(u)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_ranges_and_supports(self):
        part = PartitionOfUnity()
        u = np.linspace(0.0, 120.0, 50_000)
        for phi in part.parts():
            vals = phi(u)
            assert np.all(vals >= -1e-15) and np.all(vals <= 1.0 + 1e-15)
        assert np.all(part.phi1(u[u >= 1 / 9]) == 0.0)
        assert np.all(part.phi2(u[u <= 1 / 10]) == 0.0)
        assert np.all(part.phi2(u[u >= 10.0]) == 0.0)
        assert np.all(part.phi3(u[u <= 9.0]) == 0.0)
        plateau = u[(u >= 1 / 9) & (u <= 9.0)]
        assert np.allclose(part.phi2(plateau), 1.0, atol=1e-15)


def random_pair(seed, cutoff=5, dim=2, rho=1.5):
    spec = RandomFieldSpec(dim=dim, cutoff=cutoff, rho=rho, seed=seed)
    rng = spec.rng(0)
    return spec.draw(rng), spec.draw(rng)


class TestCommutator:
    def test_constant_f_vanishes(self):
        f = SpectralField.from_modes(2, 4, {(0, 0): 3.7})
        g, _ = random_pair(1, cutoff=4)
        out = commutator(f, g, 1.5)
        assert np.max(np.abs(out.coeffs)) < 1e-12

    def test_s_zero_vanishes(self):
        f, g = random_pair(2)
        out = commutator(f, g, 0.0)
        assert np.max(np.abs(out.coeffs)) < 1e-13

    def test_single_mode_oracle(self):
        f = SpectralField.from_modes(2, 3, {(1, 0): 1.0})
        g = SpectralField.from_modes(2, 3, {(2, 0): 1.0})
        out = commutator(f, g, 1.0)
        assert out.mode((3, 0)) == pytest.approx(COMMUTATOR_AMP, abs=1e-10)
        rest = out.coeffs.copy()
        rest[out.cutoff - 1 + 3, out.cutoff - 1] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_product_modes_agree(self):
        f, g = random_pair(3, cutoff=5)
        a = commutator(f, g, 1.5, product_mode="exact")
        b = commutator(f, g, 1.5, product_mode="oversampled")
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-11


class TestCommutatorDecomposition:
    def test_parts_sum_to_commutator(self):
        for s in (0.5, 1.5, 2.0):
            f, g = random_pair(int(s * 10), cutoff=4)
            parts = commutator_decomposition(f, g, s)
            total = parts[0] + parts[1] + parts[2]
            ref = commutator(f, g, s)
            err = np.max(np.abs(total.coeffs - ref.coeffs))
            scale = max(np.max(np.abs(ref.coeffs)), 1e-300)
            assert err <= 1e-10 * scale

    def test_constant_f_all_parts_zero(self):
        f = SpectralField.from_modes(2, 4, {(0, 0): 2.0})
        _, g = random_pair(5, cutoff=4)
        for part in commutator_decomposition(f, g, 1.0):
            assert np.max(np.abs(part.coeffs)) < 1e-12

    def test_support_selection(self):
        # (1+|xi|^2)/(1+|eta|^2) = 2/5 lies inside the comparable band.
        f = SpectralField.from_modes(2, 4, {(1, 0): 1.0})
        g = SpectralField.from_modes(2, 4, {(2, 0): 1.0})
        s1, s2, s3 = commutator_decomposition(f, g, 1.0)
        assert np.max(np.abs(s1.coeffs)) == 0.0
        assert np.max(np.abs(s3.coeffs)) == 0.0
        ref = commutator(f, g, 1.0)
        assert np.allclose(s2.coeffs, ref.coeffs, atol=1e-12)

    def test_high_ratio_selects_third_part(self):
        # (1+10)/(1+0) = 11 > 10: only the high-frequency part fires.
        f = SpectralField.from_modes(2, 4, {(3, 1): 1.0})
        g = SpectralField.from_modes(2, 4, {(0, 0): 1.0})
        s1, s2, s3 = commutator_decomposition(f, g, 2.0)
        assert np.max(np.abs(s1.coeffs)) == 0.0
        assert np.max(np.abs(s2.coeffs)) == 0.0
        assert np.max(np.abs(s3.coeffs)) > 0.0

    def test_low_ratio_selects_first_part(self):
        # (1+1)/(1+20) = 2/21 < 1/10: only the low-frequency part fires.
        f = SpectralField.from_modes(2, 5, {(0, 1): 1.0})
        g = SpectralField.from_modes(2, 5, {(4, 2): 1.0})
        s1, s2, s3 = commutator_decomposition(f, g, 2.0)
        assert np.max(np.abs(s2.coeffs)) == 0.0
        assert np.max(np.abs(s3.coeffs)) == 0.0
        assert np.max(np.abs(s1.coeffs)) > 0.0

    def test_pair_budget_guard(self):
        f, g = random_pair(6, cutoff=4)
        with pytest.raises(ValueError):
            commutator_decomposition(f, g, 1.0, max_pairs=10)


class TestGridNorms:
    def test_cosine_norms(self):
        f = SpectralField.from_modes(2, 2, {(1, 0): 0.5, (-1, 0): 0.5})
        assert field_lp(f, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert field_lp(f, np.inf) == pytest.approx(1.0, rel=1e-12)

    def test_vector_magnitude(self):
        f = SpectralField.from_modes(2, 2, {(0, 0): 3.0})
        g = SpectralField.from_modes(2, 2, {(0, 0): 4.0})
        v = VectorSpectralField((f, g))
        assert field_lp(v, np.inf) == pytest.approx(5.0, rel=1e-12)
        assert field_lp(v, 2.0) == pytest.approx(5.0, rel=1e-12)

    def test_half_spectrum_matches_complex_samples(self):
        """field_lp samples through the half spectrum; the norms equal those
        of the complex samples' real parts, also for fields that are not real
        (scalar, and a vector with one non-real component)."""
        for n in (8, 16):
            pts = fast_grid_size(4 * (2 * n - 1))
            spec = RandomFieldSpec(dim=2, cutoff=n, rho=1.5, seed=n)
            f = spec.draw(spec.rng(0))
            c = f.coeffs.copy()
            c[n, n - 1] += 0.3 + 0.2j                   # breaks realness
            nonreal = SpectralField(2, n, c)
            v = VectorSpectralField((f, spec.draw(spec.rng(1)))).leray_project()
            for p in (2.0, 3.0, np.inf):
                for g in (f, nonreal):
                    ref = lp_norm(g.physical(points=pts).real, p)
                    assert field_lp(g, p) == pytest.approx(ref, rel=1e-13)
                for w in (v, f.gradient(), VectorSpectralField((nonreal, f))):
                    mag = np.sqrt(sum(c.physical(points=pts).real ** 2
                                      for c in w.components))
                    assert field_lp(w, p) == pytest.approx(lp_norm(mag, p), rel=1e-13)


class TestCampaigns:
    def test_commutator_campaign_reproducible(self):
        spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=9)
        r1 = verify_commutator_estimate(spec, 2.0, samples=12)
        r2 = verify_commutator_estimate(spec, 2.0, samples=12)
        assert r1.ratios == r2.ratios
        assert r1.max_ratio > 0.0 and math.isfinite(r1.max_ratio)
        assert r1.skipped == 0
        assert r1.samples == 12

    def test_commutator_exponent_validation(self):
        spec = RandomFieldSpec(dim=2, cutoff=4)
        with pytest.raises(ValueError):
            verify_commutator_estimate(spec, 2.0, p=2.0, p1=2.0, p2=2.0,
                                       samples=2)
        with pytest.raises(ValueError):
            verify_commutator_estimate(spec, -1.0, samples=2)

    def test_product_campaign_and_stability(self):
        spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=13)
        r4 = verify_product_estimate(spec, 2.0, samples=10)
        r8 = verify_product_estimate(spec.with_cutoff(8), 2.0, samples=10)
        report = attach_stability(r4, r8)
        assert report.stability["factor"] == r8.max_ratio / r4.max_ratio
        assert all(math.isfinite(r) for r in r4.ratios)

    def test_product_with_constant_factor_reduces(self):
        # g = 1: lhs = |J^s f|_2 while rhs adds |f|_inf, so ratio < 1.
        spec = RandomFieldSpec(dim=2, cutoff=5, rho=2.0, seed=21)
        f = spec.draw(spec.rng(0))
        one = SpectralField.from_modes(2, 5, {(0, 0): 1.0})
        from kolmosim.spectral import spectral_product
        fg = spectral_product(f, one, mode="oversampled", out_cutoff=9)
        lhs = field_lp(fg.bessel(2.0), 2.0)
        rhs = (field_lp(f.bessel(2.0), 2.0) * field_lp(one, np.inf)
               + field_lp(f, np.inf) * field_lp(one.bessel(2.0), 2.0))
        assert lhs / rhs < 1.0

    def test_composition_identity_ratio_below_one(self):
        spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=5)
        report = verify_composition_estimate(spec, 2.0, g_name="identity",
                                             samples=8)
        assert all(r <= 1.0 + 1e-9 for r in report.ratios)

    def test_composition_sin_campaign(self):
        spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=6)
        report = verify_composition_estimate(spec, 2.0, g_name="sin",
                                             samples=8)
        assert report.max_ratio > 0.0 and math.isfinite(report.max_ratio)
        assert report.skipped == 0

    def test_composition_unknown_map_rejected(self):
        spec = RandomFieldSpec(dim=2, cutoff=4)
        with pytest.raises(ValueError):
            verify_composition_estimate(spec, 2.0, g_name="exp", samples=2)

    def test_derivative_bounds(self):
        # sin: all derivatives bounded by 1.
        assert smooth_map_derivative_bound("sin", 3, 2.0) == pytest.approx(1.0, abs=1e-12)
        # square: G' = 2y has sup 2R on [-R, R]; G'' = 2.
        assert smooth_map_derivative_bound("square", 2, 3.0) == pytest.approx(6.0, abs=1e-12)
        # rational: G'(0) = 1 is the global maximum of |G'|.
        assert smooth_map_derivative_bound("rational", 1, 4.0) == pytest.approx(1.0, abs=1e-9)

    def test_interpolation_single_mode_oracle(self):
        f = SpectralField.from_modes(2, 2, {(1, 0): 0.5, (-1, 0): 0.5})
        lhs = field_lp(f.gradient(), np.inf)
        assert lhs == pytest.approx(2 * math.pi, rel=1e-12)
        theta = 0.5
        rhs = f.hs_norm(2.0) ** theta * f.hs_norm(3.0) ** (1 - theta)
        assert lhs / rhs == pytest.approx(COS_INTERP_RATIO, rel=1e-10)

    def test_interpolation_campaign_branches(self):
        spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=8)
        on_branch = verify_interpolation_inequality(spec, 2.0, samples=8)
        above = verify_interpolation_inequality(spec, 2.5, samples=8)
        assert on_branch.meta["theta"] == 0.5
        assert above.meta["theta"] is None
        assert all(math.isfinite(r) for r in on_branch.ratios + above.ratios)
        with pytest.raises(ValueError):
            verify_interpolation_inequality(spec, 1.0, samples=2)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=30)
        monkeypatch.setenv("KOLMO_THREADS", "1")
        serial = verify_product_estimate(spec, 2.0, samples=8)
        monkeypatch.setenv("KOLMO_THREADS", "4")
        threaded = verify_product_estimate(spec, 2.0, samples=8)
        assert serial.ratios == threaded.ratios


class TestUniquenessProbe:
    def make_setup(self, cutoff=4):
        spec = RandomFieldSpec(dim=2, cutoff=cutoff, rho=2.5, seed=40)
        state = admissible_state(spec, WIDE, index=0, v_scale=0.1)
        params = ModelParams(alpha=1.0, s=2.0, bounds=WIDE, oversample=2)
        profile = CutoffProfile(WIDE)
        config = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.05,
                                  monitor_every=10)
        return state, params, profile, config

    def test_zero_perturbation_bit_identical(self):
        state, params, profile, config = self.make_setup()
        report = uniqueness_probe(state, 0.0, params, profile, config)
        assert np.all(report.e == 0.0)
        assert report.g_fit == 0.0 and report.g_envelope == 0.0
        assert not report.partial

    def test_perturbation_normalization(self):
        state, *_ = self.make_setup()
        delta = perturbation(state, 1e-4, seed=2)
        e0 = (delta.v.hs_norm_sq(0.0) + delta.omega.hs_norm_sq(0.0)
              + delta.b.hs_norm_sq(0.0))
        assert e0 == pytest.approx(1e-8, rel=1e-12)
        assert delta.v.div_residual() < 1e-12

    def test_quadratic_amplitude_scaling(self):
        state, params, profile, config = self.make_setup()
        big = uniqueness_probe(state, 1e-6, params, profile, config)
        small = uniqueness_probe(state, 5e-7, params, profile, config)
        assert not big.partial and not small.partial
        assert np.array_equal(big.times, small.times)
        ratio = big.e[-1] / small.e[-1]
        assert ratio == pytest.approx(4.0, rel=0.05)
        assert math.isfinite(big.g_envelope)
        # The fitted envelope dominates every sample by construction.
        grow = big.e[0] * np.exp(big.g_envelope * (big.times - big.times[0]))
        assert np.all(big.e <= grow * (1.0 + 1e-9))