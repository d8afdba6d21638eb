"""Core spectral checks: norms, operators, products, symmetries.

Frozen expected values were computed from the closed-form definitions
(independent of the library code) before being pinned here.
"""

import numpy as np
import pytest

from kolmosim.spectral import (
    FOUR_PI_SQ,
    SpectralField,
    VectorSpectralField,
    _geometry,
    coefficients_to_real_grid,
    conj_flip,
    fast_grid_size,
    half_to_cube,
    lp_norm,
    real_grid_to_coefficients,
    real_half,
    realness_residual,
    spectral_product,
)
from kolmosim.storage import _field_records
from oracles import (cube_div_residual, cube_leray, cube_to_half, direct_convolution,
                     symmetrize, trigonometric_sum)


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
        grid = f.real_samples(13)
        quad = float(np.mean(np.abs(grid) ** 2))
        assert quad == pytest.approx(f.hs_norm_sq(0.0), rel=1e-12)

    def test_derivative_single_mode(self):
        f = SpectralField.from_modes(2, 3, {(1, 0): 1.0})
        assert f.diff(0).mode((1, 0)) == pytest.approx(2j * np.pi, rel=1e-15)
        assert f.diff(1).mode((1, 0)) == 0.0

    def test_laplacian_is_divergence_of_gradient(self):
        f = sample_real_field(2, 6, seed=5)
        g = f.gradient().divergence()
        laplacian = f.coeffs * (-FOUR_PI_SQ * _geometry(2, 6).k_sq)
        assert np.max(np.abs(g.coeffs - laplacian)) < 1e-10

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

    def test_cubes_from_outside_are_masked(self):
        """A cube from outside the package is masked to the ball: the
        constructor zeroes nonzero corners, a projection to a smaller cutoff
        zeroes the corners it brings in, and a scalar product keeps
        0 * inf off the ball at 0."""
        ball = _geometry(2, 4).ball
        f = SpectralField(2, 4, np.ones((7, 7)))
        assert np.all(f.coeffs[~ball] == 0.0) and np.all(f.coeffs[ball] == 1.0)
        assert np.array_equal(SpectralField(2, 6, np.ones((11, 11))).project(4).coeffs, f.coeffs)
        with np.errstate(invalid="ignore"):
            assert np.all((f * np.inf).coeffs[~ball] == 0.0)

    def test_bessel_keeps_zero_corners_where_their_weights_overflow(self):
        """At d = 2, n = 16 and s = 150 the corners' Bessel weights overflow
        and the ball's do not; J^s f stays finite, and zero off the ball."""
        f = sample_real_field(2, 16, seed=5)
        with np.errstate(over="ignore"):
            g = f.bessel(150.0)
        assert np.all(np.isfinite(g.coeffs))
        assert np.all(g.coeffs[~_geometry(2, 16).ball] == 0.0)

    def test_projection_pad_roundtrip(self):
        f = sample_real_field(2, 5, seed=7)
        back = f.project(9).project(5)
        assert np.max(np.abs(back.coeffs - f.coeffs)) == 0.0

    def test_grid_roundtrip(self):
        f = sample_real_field(2, 6, seed=9)
        g = SpectralField.from_grid(f.real_samples(11), f.cutoff)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-13

    def test_from_grid_refuses_complex_samples(self):
        grid = sample_real_field(2, 6, seed=9).real_samples(11)
        with pytest.raises(ValueError, match="real samples"):
            SpectralField.from_grid(grid.astype(complex), 6)

    def test_from_grid_refuses_unequal_axes(self):
        """12 x 16 samples of cos 2 pi (x - y) would read mode (-1, 1) as
        ~0 with every axis sized by the last; the square grid reads 0.5."""
        def samples(*shape):
            x, y = np.meshgrid(*(np.arange(m) / m for m in shape), indexing="ij")
            return np.cos(2 * np.pi * (x - y))

        assert SpectralField.from_grid(samples(12, 12), 4).mode((-1, 1)) == pytest.approx(0.5)
        with pytest.raises(ValueError, match=r"equal axes, got shape \(12, 16\)"):
            SpectralField.from_grid(samples(12, 16), 4)

    def test_real_halfspectrum_path_matches_complex(self):
        """The rfft transform pair agrees with the complex literal sum."""
        from kolmosim.spectral import coefficients_to_real_grid
        for pts in (11, 12, 16, 25):
            f = sample_real_field(2, 6, seed=40 + pts)
            a = trigonometric_sum(f, pts)
            b = coefficients_to_real_grid(cube_to_half(f.coeffs, 2), 6, 2, pts)
            assert np.max(np.abs(a.imag)) < 1e-13
            assert np.max(np.abs(a.real - b)) < 1e-13
            back = half_to_cube(real_grid_to_coefficients(b, 6, 2), 2, 6)
            assert np.max(np.abs(back - f.coeffs)) < 1e-13

    def test_realness_machinery(self):
        f = sample_real_field(2, 6, seed=1)
        assert f.realness_residual() < 1e-14
        assert np.max(np.abs(trigonometric_sum(f, 22).imag)) < 1e-13
        mirrored = SpectralField(2, 6, conj_flip(f.coeffs, 2))
        assert np.max(np.abs(mirrored.coeffs - f.coeffs)) < 1e-14
        # break the symmetry at mode (1,0) only, then symmetrize back
        c = f.coeffs.copy()
        c[6, 5] += 0.3
        broken = SpectralField(2, 6, c)
        assert broken.realness_residual() > 1e-3
        assert broken.symmetrized().realness_residual() < 1e-14

    def test_real_grids_give_exactly_hermitian_coefficients(self):
        """Each mirror pair is read from one bin, the k_last = 0 plane
        included, so c(-k) = conj(c(k)) holds bit for bit."""
        rng = np.random.default_rng(7)
        for dim, n, pts in ((2, 8, 30), (2, 16, 64), (3, 5, 18)):
            f = SpectralField.from_grid(rng.standard_normal((pts,) * dim), n)
            assert f.realness_residual() == 0.0


class TestRealSamples:
    def test_scalar_matches_physical_real(self):
        """Half-spectrum samples equal the real part of the literal sum, for
        a non-real field too."""
        for n in (8, 16):
            for f in (sample_real_field(2, n, seed=n), sample_complex_field(2, n, seed=n)):
                for pts in (2 * n - 1, fast_grid_size(4 * (2 * n - 1))):
                    ref = trigonometric_sum(f, pts).real
                    assert rel_diff(f.real_samples(pts), ref) <= 1e-13
        f = sample_real_field(3, 4, seed=5)
        assert rel_diff(f.real_samples(12), trigonometric_sum(f, 12).real) <= 1e-13

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
                ref = np.stack([trigonometric_sum(c, pts).real for c in w.components])
                assert rel_diff(out, ref) <= 1e-13


def numpy_fft_samples(cube, cutoff, dim, points):
    """Samples of a conjugate-symmetric cube through numpy's irfftn: each
    mode with k_last >= 0 in its bin k mod points."""
    geo = _geometry(dim, cutoff)
    spec = np.zeros((points,) * (dim - 1) + (points // 2 + 1,), dtype=complex)
    keep = geo.ball & (geo.k[-1] >= 0)
    spec[tuple(ka[keep] % points for ka in geo.k)] = cube[keep]
    return np.fft.irfftn(spec, s=(points,) * dim, axes=tuple(range(dim)), norm="forward")


def numpy_fft_coefficients(grid, cutoff, dim):
    """The centered cube of real samples through numpy's rfftn; modes with
    k_last < 0 are the conjugates of their mirrors' bins."""
    geo, points = _geometry(dim, cutoff), grid.shape[-1]
    spec = np.fft.rfftn(grid, norm="forward")
    upper = geo.k[-1] >= 0
    k = np.where(upper, geo.k, -geo.k)
    vals = spec[tuple(ka % points for ka in k)]
    return np.where(geo.ball, np.where(upper, vals, np.conj(vals)), 0.0)


class TestRealPass:
    """The last axis's real pass is a product with a cached matrix; the
    complex axes stay on scipy's FFT."""

    @pytest.mark.parametrize("dim, cutoff, points, fields", [(2, 6, 24, 210), (3, 3, 8, 12)])
    def test_stack_equals_each_fields_own_transform(self, dim, cutoff, points, fields):
        # 210 fields of 24 lines: flattened into one product, the stack
        # would be 5040 rows, where BLAS may round a row differently
        rng = np.random.default_rng(dim)
        geo = _geometry(dim, cutoff)
        raw = rng.normal(size=(fields,) + geo.k_sq.shape) + 1j * rng.normal(
            size=(fields,) + geo.k_sq.shape)
        halves = cube_to_half(symmetrize(np.where(geo.ball, raw, 0.0), dim), dim)
        grids = coefficients_to_real_grid(halves, cutoff, dim, points)
        assert all(np.array_equal(g, coefficients_to_real_grid(c, cutoff, dim, points))
                   for g, c in zip(grids, halves))
        samples = rng.normal(size=(fields,) + (points,) * dim)
        coeffs = real_grid_to_coefficients(samples, cutoff, dim)
        assert all(np.array_equal(c, real_grid_to_coefficients(g, cutoff, dim))
                   for c, g in zip(coeffs, samples))

    @pytest.mark.parametrize("points", [11, 24, 60, 64, 125])
    def test_agrees_with_numpy_fft(self, points):
        cutoff = 6                                       # 11 = 2n - 1
        f = sample_real_field(2, cutoff, seed=points)
        grid = coefficients_to_real_grid(cube_to_half(f.coeffs, 2), cutoff, 2, points)
        ref = numpy_fft_samples(f.coeffs, cutoff, 2, points)
        assert rel_diff(grid, ref) <= 1e-14
        samples = np.random.default_rng(points).normal(size=(points, points))
        ref = numpy_fft_coefficients(samples, cutoff, 2)
        assert rel_diff(half_to_cube(real_grid_to_coefficients(samples, cutoff, 2), 2, cutoff),
                        ref) <= 1e-14

    @pytest.mark.parametrize("points", [11, 24, 60, 64, 125])
    def test_constant_lines_have_no_higher_modes(self, points):
        # every line along the last axis constant: only k_last = 0 survives,
        # exactly, also where rfft leaves roundoff (at 125 points); the
        # complex pass may leave roundoff within that plane
        cutoff = 6
        geo = _geometry(2, cutoff)
        rows = np.random.default_rng(points).normal(size=(points, 1)) + 3.0
        for grid in (np.broadcast_to(rows, (points, points)), np.full((points, points), 2.5)):
            c = half_to_cube(real_grid_to_coefficients(grid, cutoff, 2), 2, cutoff)
            assert np.all(c[geo.k[-1] != 0] == 0.0)

    @pytest.mark.parametrize("dim, cutoff, points", [(2, 13, 101), (2, 19, 149), (3, 13, 101)])
    def test_mean_coefficient_is_exactly_real(self, dim, cutoff, points):
        # scipy takes these sizes' complex passes by Bluestein's algorithm,
        # which rounded imag(c_0) off zero (by up to 4e-18)
        grid = np.random.default_rng(points).normal(size=(points,) * dim)
        c = real_grid_to_coefficients(grid, cutoff, dim)
        assert c[_geometry(dim, cutoff).origin].imag == 0.0
        assert _geometry(dim, cutoff).half_weight[_geometry(dim, cutoff).origin] == 1.0

    def test_shift_in_place_only_when_asked(self):
        grid = sample_real_field(2, 6, seed=3).real_samples(24)
        kept = grid.copy()
        copied = real_grid_to_coefficients(grid, 6, 2)
        assert np.array_equal(grid, kept)
        assert np.array_equal(real_grid_to_coefficients(grid, 6, 2, overwrite=True), copied)
        assert np.array_equal(grid, kept - kept[:, :1])


class TestHalfLayout:
    @pytest.mark.parametrize("dim, cutoff", [(2, 1), (2, 2), (2, 5), (2, 16), (3, 1),
                                             (3, 3), (3, 6)])
    def test_cube_half_cube_round_trip_is_exact(self, dim, cutoff):
        """A stack of real fields keeps one mode of each mirror pair, and
        k = 0, and gets every bit back."""
        rng = np.random.default_rng(10 * dim + cutoff)
        geo = _geometry(dim, cutoff)
        raw = rng.normal(size=(3,) + geo.k_sq.shape) + 1j * rng.normal(size=(3,) + geo.k_sq.shape)
        cube = symmetrize(np.where(geo.ball, raw, 0.0), dim)
        half = cube_to_half(cube, dim)
        assert half.shape == (3, (int(geo.ball.sum()) + 1) // 2)
        assert np.array_equal(half_to_cube(half, dim, cutoff), cube)
        assert np.array_equal(cube_to_half(half_to_cube(half, dim, cutoff), dim), half)
        assert np.array_equal(real_half(half_to_cube(half, dim, cutoff), dim), half)

    def test_expanded_cube_is_exactly_real(self):
        # any half with a real k = 0 coefficient expands to a real field
        for dim, cutoff in ((2, 16), (3, 4)):
            rng = np.random.default_rng(dim)
            weight = _geometry(dim, cutoff).half_weight
            half = rng.normal(size=(2, weight.size)) + 1j * rng.normal(size=(2, weight.size))
            half[:, weight == 1.0] = 0.75
            cube = half_to_cube(half, dim, cutoff)
            assert realness_residual(cube, dim) == 0.0
        assert _geometry(2, 16).half.size == 397


ORACLE_SIZES = [(2, 4, 7), (2, 4, 8), (3, 3, 5), (3, 3, 6)]     # (d, n, points)


class TestTrigonometricSumOracle:
    @pytest.mark.parametrize("dim,n,pts", ORACLE_SIZES)
    def test_physical_matches_literal_sum(self, dim, n, pts):
        """real_samples of real fields, scalar and vector, equal the literal
        sum, whose imaginary part vanishes."""
        f = sample_real_field(dim, n, seed=pts)
        ref = trigonometric_sum(f, pts)
        assert np.max(np.abs(ref.imag)) <= 1e-13 * np.max(np.abs(ref.real))
        assert rel_diff(f.real_samples(pts), ref.real) <= 1e-13
        v = VectorSpectralField(tuple(sample_real_field(dim, n, seed=10 * pts + a)
                                      for a in range(dim)))
        ref = np.stack([trigonometric_sum(c, pts).real for c in v.components])
        assert rel_diff(v.real_samples(pts), ref) <= 1e-13


class TestProducts:
    def test_single_mode_product(self):
        """2 cos(2 pi x1) * 3 cos(2 pi x2) = 1.5 on each of the modes (+-1, +-1)."""
        f = SpectralField.from_modes(2, 4, {(1, 0): 1.0, (-1, 0): 1.0})
        g = SpectralField.from_modes(2, 4, {(0, 1): 1.5, (0, -1): 1.5})
        h = spectral_product(f, g)
        for k in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert h.mode(k) == pytest.approx(1.5, rel=1e-14)
        assert h.hs_norm(0.0) == pytest.approx(3.0, rel=1e-14)

    def test_product_truncates_outside_ball(self):
        """cos(2 pi x1) sin(2 pi x1) = sin(4 pi x1) / 2 lies outside |k| < 2."""
        f = SpectralField.from_modes(2, 2, {(1, 0): 0.5, (-1, 0): 0.5})
        g = SpectralField.from_modes(2, 2, {(1, 0): -0.5j, (-1, 0): 0.5j})
        h = spectral_product(f, g)
        assert np.max(np.abs(h.coeffs)) < 1e-16

    def test_refuses_nonreal_operand(self):
        f = sample_real_field(2, 6, seed=50)
        g = sample_complex_field(2, 6, seed=51)
        assert g.realness_residual() > 1e-3
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="real fields"):
                spectral_product(a, b)

    def test_exact_matches_nested_loop_oracle(self):
        """The product against a literal python double loop at n = 3."""
        f = sample_real_field(2, 3, seed=21)
        g = sample_real_field(2, 3, seed=22)
        out = {}
        kf, cf = _field_records(f)
        kg, cg = _field_records(g)
        for (k1, c1) in zip(kf, cf):
            for (k2, c2) in zip(kg, cg):
                k = (int(k1[0] + k2[0]), int(k1[1] + k2[1]))
                if k[0] ** 2 + k[1] ** 2 < 9:
                    out[k] = out.get(k, 0.0) + c1 * c2
        h = spectral_product(f, g)
        for k, v in out.items():
            assert h.mode(k) == pytest.approx(v, abs=1e-14)
        assert h.hs_norm(0.0) == pytest.approx(
            np.sqrt(sum(abs(v) ** 2 for v in out.values())), rel=1e-13)

    def test_exact_equals_oversampled_for_quadratics(self):
        # the product grid, product_points(6) = 24 per axis (2(2n-1) = 22 is
        # not a fast size), and the finer 44 = 4(2n-1)
        for seed in range(8):
            f = sample_real_field(2, 6, seed=100 + seed)
            g = sample_real_field(2, 6, seed=200 + seed)
            a = direct_convolution(f, g, 6)
            b = spectral_product(f, g)
            c = SpectralField.from_grid(f.real_samples(44) * g.real_samples(44), 6)
            scale = max(a.hs_norm(0.0), 1e-30)
            assert np.max(np.abs(a.coeffs - b.coeffs)) / scale < 1e-12
            assert np.max(np.abs(a.coeffs - c.coeffs)) / scale < 1e-12

    def test_real_branch_matches_complex_transforms(self):
        """The half-spectrum product equals the product of the literal sums'
        samples, transformed back."""
        for n in (8, 16):
            f = sample_real_field(2, n, seed=300 + n)
            g = sample_real_field(2, n, seed=400 + n)
            pts = 2 * (2 * n - 1)
            m = 2 * n - 1
            grid = trigonometric_sum(f, pts).real * trigonometric_sum(g, pts).real
            ref = half_to_cube(real_grid_to_coefficients(grid, m, 2), 2, m)
            out = spectral_product(f, g, out_cutoff=m)
            assert rel_diff(out.coeffs, ref) <= 1e-13

    def test_undersampled_grid_aliases(self):
        """The product on the 2n-1 grid folds the tail back in; the modes must
        disagree."""
        f = sample_real_field(2, 6, seed=31)
        a = direct_convolution(f, f, 6)
        b = SpectralField.from_grid(f.real_samples(11) ** 2, 6)
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

    @pytest.mark.parametrize("dim, cutoff", [(2, 8), (3, 4)])
    def test_half_layout_matches_the_cube_formula(self, dim, cutoff):
        """leray_project and div_residual run on the canonical half; on real
        fields they equal the cube formula at every mode, mirrors included."""
        for seed in range(3):
            v = VectorSpectralField(tuple(sample_real_field(dim, cutoff, seed=20 * seed + a)
                                          for a in range(dim)))
            for w in (v, v.leray_project()):
                assert w.div_residual() == cube_div_residual(w.stack(), dim, cutoff)
            assert np.array_equal(v.leray_project().stack(), cube_leray(v.stack(), dim, cutoff))

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
        grid = f.real_samples(64 * 3)
        assert lp_norm(grid, 2) == pytest.approx(0.7071067811865476, rel=1e-6)
        assert lp_norm(grid, 4) == pytest.approx(0.375 ** 0.25, rel=1e-6)
        assert lp_norm(grid, np.inf) == pytest.approx(1.0, rel=1e-9)

    def test_fast_grid_size_is_smallest_five_smooth(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1
        expected, nxt = [], 4096
        while not smooth(nxt):
            nxt += 1
        for m in range(4096, 0, -1):       # the smallest 5-smooth number >= m
            if smooth(m):
                nxt = m
            expected.append(nxt)
        assert [fast_grid_size(m) for m in range(1, 4097)] == expected[::-1]
