"""Core spectral checks: norms, operators, products, symmetries.

Frozen expected values were computed from the closed-form definitions
(independent of the library code) before being pinned here.
"""

import numpy as np
import pytest

from kolmosim.spectral import (
    SpectralField,
    VectorSpectralField,
    fast_grid_size,
    grid_to_coefficients,
    lp_norm,
    spectral_product,
)


def sample_complex_field(dim, cutoff, rho=1.5, seed=0):
    """Test-local generator: decaying random amplitudes, not a real field."""
    rng = np.random.default_rng(seed)
    side = 2 * cutoff - 1
    raw = rng.normal(size=(side,) * dim) + 1j * rng.normal(size=(side,) * dim)
    k = np.indices((side,) * dim) - (cutoff - 1)
    amp = (1.0 + np.sqrt(np.sum(k ** 2, axis=0))) ** (-rho)
    return SpectralField(dim, cutoff, raw * amp)


def sample_real_field(dim, cutoff, rho=1.5, seed=0):
    """The same amplitudes, conjugate-symmetrized (the ball is symmetric)."""
    c = sample_complex_field(dim, cutoff, rho, seed).coeffs
    return SpectralField(dim, cutoff, 0.5 * (c + np.conj(np.flip(c))))


def rel_diff(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


class TestNormsAndOperators:
    def test_bessel_single_mode(self):
        """J^2 scales the |k| = 1 mode by 1 + 4 pi^2 exactly."""
        f = SpectralField.from_modes(2, 4, {(1, 0): 1.0})
        g = f.bessel(2.0)
        assert g.mode((1, 0)) == pytest.approx(40.47841760435743, rel=1e-15)

    def test_bessel_inverts(self):
        f = sample_real_field(2, 6, seed=3)
        g = f.bessel(1.7).bessel(-1.7)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-13

    def test_hs_norm_cosine(self):
        """cos(2 pi x1) has H^0 norm sqrt(1/2) and H^1 norm sqrt((1+4pi^2)/2)."""
        f = SpectralField.from_modes(2, 4, {(1, 0): 0.5, (-1, 0): 0.5})
        assert f.hs_norm(0.0) == pytest.approx(0.7071067811865476, rel=1e-14)
        assert f.hs_norm(1.0) == pytest.approx(4.49880081823798, rel=1e-14)

    def test_gradient_norm_identity(self):
        """||grad f||_{H^s}^2 = ||f||_{H^{s+1}}^2 - ||f||_{H^s}^2, exactly."""
        for seed in range(25):
            f = sample_real_field(2, 8, seed=seed)
            for s in (0.0, 1.0, 2.5):
                lhs = f.gradient().hs_norm_sq(s)
                rhs = f.hs_norm_sq(s + 1.0) - f.hs_norm_sq(s)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-30)

    def test_parseval(self):
        f = sample_real_field(2, 7, seed=11)
        grid = f.physical()
        quad = float(np.mean(np.abs(grid) ** 2))
        assert quad == pytest.approx(f.hs_norm_sq(0.0), rel=1e-12)

    def test_derivative_single_mode(self):
        f = SpectralField.from_modes(2, 3, {(1, 0): 1.0})
        assert f.diff(0).mode((1, 0)) == pytest.approx(2j * np.pi, rel=1e-15)
        assert f.diff(1).mode((1, 0)) == 0.0

    def test_laplacian_is_divergence_of_gradient(self):
        f = sample_real_field(2, 6, seed=5)
        g = f.gradient().divergence()
        assert np.max(np.abs(g.coeffs - f.laplacian().coeffs)) < 1e-10

    def test_projection_euclidean_ball(self):
        """|k| < n is a Euclidean ball: (3,3) dies at n = 4, (3,0) survives."""
        f = SpectralField.from_modes(2, 5, {(3, 3): 1.0, (3, 0): 1.0})
        g = f.project(4)
        assert g.mode((3, 0)) == 1.0
        assert g.mode((3, 3)) == 0.0

    def test_projection_idempotent_and_commutes(self):
        f = sample_real_field(2, 9, seed=2)
        p = f.project(5)
        assert np.max(np.abs(p.project(5).coeffs - p.coeffs)) == 0.0
        a = f.diff(0).project(5)
        b = f.project(5).diff(0)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12
        a = f.bessel(1.5).project(5)
        b = f.project(5).bessel(1.5)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_projection_pad_roundtrip(self):
        f = sample_real_field(2, 5, seed=7)
        back = f.project(9).project(5)
        assert np.max(np.abs(back.coeffs - f.coeffs)) == 0.0

    def test_grid_roundtrip(self):
        f = sample_real_field(2, 6, seed=9)
        g = SpectralField.from_grid(f.physical(), f.cutoff)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-13

    def test_real_halfspectrum_path_matches_complex(self):
        """The rfft fast path agrees with the full complex transforms."""
        from kolmosim.spectral import coefficients_to_real_grid, real_grid_to_coefficients
        for pts in (11, 12, 16, 25):
            f = sample_real_field(2, 6, seed=40 + pts)
            a = f.physical(points=pts)
            b = coefficients_to_real_grid(f.coeffs, 6, 2, pts)
            assert np.max(np.abs(a.imag)) < 1e-13
            assert np.max(np.abs(a.real - b)) < 1e-13
            back = real_grid_to_coefficients(b, 6, 2)
            assert np.max(np.abs(back - f.coeffs)) < 1e-13

    def test_realness_machinery(self):
        f = sample_real_field(2, 6, seed=1)
        assert f.realness_residual() < 1e-14
        assert np.max(np.abs(f.physical(2).imag)) < 1e-13
        mirrored = f.conj_mirror()
        assert np.max(np.abs(mirrored.coeffs - f.coeffs)) < 1e-14
        # break the symmetry at mode (1,0) only, then symmetrize back
        c = f.coeffs.copy()
        c[6, 5] += 0.3
        broken = SpectralField(2, 6, c)
        assert broken.realness_residual() > 1e-3
        assert broken.symmetrized().realness_residual() < 1e-14


class TestRealSamples:
    def test_scalar_matches_physical_real(self):
        """Half-spectrum samples equal the real part of the complex samples,
        for a non-real field too."""
        for n in (8, 16):
            for f in (sample_real_field(2, n, seed=n), sample_complex_field(2, n, seed=n)):
                for pts in (2 * n - 1, fast_grid_size(4 * (2 * n - 1))):
                    ref = f.physical(points=pts).real
                    assert rel_diff(f.real_samples(pts), ref) <= 1e-13
        f = sample_real_field(3, 4, seed=5)
        assert rel_diff(f.real_samples(12), f.physical(points=12).real) <= 1e-13

    def test_vector_matches_physical_real(self):
        """One batched transform, component by component; the component axis
        is not mirrored."""
        for n in (8, 16):
            pts = fast_grid_size(4 * (2 * n - 1))
            v = VectorSpectralField(tuple(sample_real_field(2, n, seed=10 * n + a)
                                          for a in range(2)))
            for w in (v, v.leray_project(), sample_real_field(2, n, seed=n).gradient()):
                out = w.real_samples(pts)
                assert out.shape == (2, pts, pts)
                assert rel_diff(out, w.physical(points=pts).real) <= 1e-13


class TestProducts:
    def test_single_mode_product(self):
        f = SpectralField.from_modes(2, 4, {(1, 0): 2.0})
        g = SpectralField.from_modes(2, 4, {(0, 1): 3.0})
        h = spectral_product(f, g, mode="exact")
        assert h.mode((1, 1)) == pytest.approx(6.0, rel=1e-15)
        assert h.hs_norm(0.0) == pytest.approx(6.0, rel=1e-14)

    def test_product_truncates_outside_ball(self):
        f = SpectralField.from_modes(2, 2, {(1, 0): 1.0})
        h = spectral_product(f, f, mode="exact")
        assert np.max(np.abs(h.coeffs)) == 0.0

    def test_exact_matches_nested_loop_oracle(self):
        """Direct convolution against a literal python triple loop at n = 3."""
        f = sample_real_field(2, 3, seed=21)
        g = sample_real_field(2, 3, seed=22)
        out = {}
        kf, cf = f.modes_and_coefficients()
        kg, cg = g.modes_and_coefficients()
        for (k1, c1) in zip(kf, cf):
            for (k2, c2) in zip(kg, cg):
                k = (int(k1[0] + k2[0]), int(k1[1] + k2[1]))
                if k[0] ** 2 + k[1] ** 2 < 9:
                    out[k] = out.get(k, 0.0) + c1 * c2
        h = spectral_product(f, g, mode="exact")
        for k, v in out.items():
            assert h.mode(k) == pytest.approx(v, abs=1e-14)
        assert h.hs_norm(0.0) == pytest.approx(
            np.sqrt(sum(abs(v) ** 2 for v in out.values())), rel=1e-13)

    def test_exact_equals_oversampled_for_quadratics(self):
        for seed in range(8):
            f = sample_real_field(2, 6, seed=100 + seed)
            g = sample_real_field(2, 6, seed=200 + seed)
            a = spectral_product(f, g, mode="exact")
            b = spectral_product(f, g, mode="oversampled", oversample=2)
            c = spectral_product(f, g, mode="oversampled", oversample=4)
            scale = max(a.hs_norm(0.0), 1e-30)
            assert np.max(np.abs(a.coeffs - b.coeffs)) / scale < 1e-12
            assert np.max(np.abs(a.coeffs - c.coeffs)) / scale < 1e-12

    def test_real_branch_matches_complex_transforms(self):
        """Real operands take the half-spectrum transforms; the result equals
        the product of the complex samples, transformed back."""
        for n in (8, 16):
            f = sample_real_field(2, n, seed=300 + n)
            g = sample_real_field(2, n, seed=400 + n)
            pts = 2 * (2 * n - 1)
            m = 2 * n - 1
            ref = grid_to_coefficients(f.physical(points=pts) * g.physical(points=pts), m, 2)
            out = spectral_product(f, g, mode="oversampled", out_cutoff=m)
            assert rel_diff(out.coeffs, ref) <= 1e-13

    def test_nonreal_branch_matches_exact(self):
        """Non-real operands keep the complex transforms; the product of their
        real parts would not match the convolution."""
        f = sample_complex_field(2, 6, seed=51)
        g = sample_complex_field(2, 6, seed=52)
        assert f.realness_residual() > 1e-3
        a = spectral_product(f, g, mode="exact")
        b = spectral_product(f, g, mode="oversampled", oversample=2)
        assert np.max(np.abs(a.coeffs - b.coeffs)) / a.hs_norm(0.0) < 1e-12

    def test_undersampled_grid_aliases(self):
        """oversample = 1 folds the tail back in; the modes must disagree."""
        f = sample_real_field(2, 6, seed=31)
        a = spectral_product(f, f, mode="exact")
        b = spectral_product(f, f, mode="oversampled", oversample=1)
        assert np.max(np.abs(a.coeffs - b.coeffs)) / a.hs_norm(0.0) > 1e-6


class TestVectorFields:
    def test_leray_projection(self):
        for seed in range(10):
            comps = tuple(sample_real_field(2, 8, seed=1000 + 10 * seed + a) for a in range(2))
            v = VectorSpectralField(comps)
            w = v.leray_project()
            assert w.div_residual() < 1e-12
            again = w.leray_project()
            for a in range(2):
                assert np.max(np.abs(again.components[a].coeffs - w.components[a].coeffs)) < 1e-13
            assert w.realness_residual() < 1e-12

    def test_div_residual_flags_gradients(self):
        f = sample_real_field(2, 8, seed=4)
        grad = f.gradient()
        assert grad.div_residual() > 1e-2

    def test_vector_norm_sums_components(self):
        f = sample_real_field(2, 5, seed=6)
        g = sample_real_field(2, 5, seed=7)
        v = VectorSpectralField((f, g))
        assert v.hs_norm_sq(1.2) == pytest.approx(f.hs_norm_sq(1.2) + g.hs_norm_sq(1.2), rel=1e-14)


class TestGridNorms:
    def test_lp_norms_of_cosine(self):
        """L^2 = sqrt(1/2), L^4 = (3/8)^(1/4), L^inf = 1 for cos(2 pi x1)."""
        f = SpectralField.from_modes(2, 2, {(1, 0): 0.5, (-1, 0): 0.5})
        grid = f.physical(oversample=64).real
        assert lp_norm(grid, 2) == pytest.approx(0.7071067811865476, rel=1e-6)
        assert lp_norm(grid, 4) == pytest.approx(0.375 ** 0.25, rel=1e-6)
        assert lp_norm(grid, np.inf) == pytest.approx(1.0, rel=1e-9)
