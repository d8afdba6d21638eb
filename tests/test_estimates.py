"""Estimate-lab checks: partition algebra, commutator oracles, decomposition
identity and support selection, campaign reproducibility, and the
perturbation-growth probe.

Frozen references were computed from the closed-form single-mode formulas
before being pinned here.
"""

import math
import sys
import threading

import numpy as np
import pytest

from kolmosim import estimates, spectral
from kolmosim.cutoffs import CutoffProfile, InitialBounds
from kolmosim.estimates import (PartitionOfUnity, RandomFieldSpec,
                                admissible_state, attach_stability,
                                commutator, commutator_decomposition,
                                decomposition_residual, field_lp,
                                perturbation,
                                smooth_map_derivative_bound, uniqueness_probe,
                                verify_commutator_estimate,
                                verify_composition_estimate,
                                verify_interpolation_inequality,
                                verify_product_estimate)
from kolmosim.integrators import IntegratorConfig
from kolmosim.spectral import (SpectralField, VectorSpectralField, _geometry,
                               coefficients_to_real_grid, fast_grid_size, half_to_cube,
                               lp_norm, product_points, real_half, spectral_product,
                               spectral_products)
from kolmosim.system import ModelParams, triple_sq
from oracles import (add_at_decomposition, all_components_admissible_state,
                     commutator_sample, composition_sample, direct_convolution,
                     interpolation_sample, magnitude_first_sup, product_sample,
                     trigonometric_sum, two_call_draws)

WIDE = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)

# sqrt(1 + 36 pi^2) - sqrt(1 + 16 pi^2), the single-mode commutator amplitude
# for s = 1, xi0 = (1,0), eta0 = (2,0).
COMMUTATOR_AMP = 6.269966550007176
# sqrt(1 + 4 pi^2) - sqrt(1 + 16 pi^2), the amplitude for s = 1, xi0 = (-1,0),
# eta0 = (2,0).
COMMUTATOR_AMP_LOW = -6.243831425949187
# 2 pi / ((0.5 (1+4pi^2)^2)^(1/4) (0.5 (1+4pi^2)^3)^(1/4)), the cosine
# interpolation ratio at d = 2, s = 2, theta = 1/2.
COS_INTERP_RATIO = 0.08702929350228393


class TestRandomFieldSpec:
    def test_rejects_one_dimensional_torus(self):
        with pytest.raises(ValueError, match="dim >= 2"):
            RandomFieldSpec(dim=1, cutoff=4)

    def test_reproducible_and_symmetric(self):
        spec = RandomFieldSpec(dim=2, cutoff=6, rho=2.0, seed=3)
        f1 = spec.draw(spec.rng(5))
        f2 = spec.draw(spec.rng(5))
        assert np.array_equal(f1.coeffs, f2.coeffs)
        assert f1.realness_residual() < 1e-15
        other = spec.draw(spec.rng(6))
        assert not np.array_equal(f1.coeffs, other.coeffs)

    def test_stacked_draws_are_the_public_draws(self):
        """draws' halves expand, bit for bit, to the fields each sample's
        own stream gives through draw."""
        for n in (4, 8, 16):
            spec = RandomFieldSpec(dim=2, cutoff=n, rho=1.5, seed=n)
            indices = [0, 3, 7]
            halves = spec.draws(indices, 2)
            assert halves.shape == (3, 2, _geometry(2, n).half.size)
            for j, i in enumerate(indices):
                rng = spec.rng(i)
                for a in range(2):
                    assert np.array_equal(half_to_cube(halves[j, a], 2, n),
                                          spec.draw(rng).coeffs)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_refuses_a_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an int >= 0"):
            RandomFieldSpec(dim=2, cutoff=4, seed=seed)

    @pytest.mark.parametrize("dim, cutoff", [(2, 4), (2, 16), (3, 3)])
    def test_draws_are_the_two_call_normals(self, dim, cutoff):
        """draws fills each sample's fields in one normal call, from its
        stream's memoized start; its halves equal those of each field's
        rng.normal(...) + 1j * rng.normal(...), for ordered indices and for
        repeated, unordered ones, and draws interleaved with draw on a held
        generator, or with another spec's draws, change neither."""
        spec = RandomFieldSpec(dim=dim, cutoff=cutoff, rho=1.5, seed=7)
        other = RandomFieldSpec(dim=dim, cutoff=cutoff, rho=1.5, seed=8)
        for indices in ([0, 2, 5], [5, 0, 5, 2, 2]):
            expected = two_call_draws(spec, indices, 3)
            assert np.array_equal(spec.draws(indices, 3), expected)
            held = spec.rng(indices[0])
            first = spec.draw(held)
            assert np.array_equal(spec.draws(indices[::-1], 3), expected[::-1])
            other.draws(indices, 2)
            second = spec.draw(held)
            for j, i in enumerate(indices):
                assert np.array_equal(spec.draws([i], 3)[0], expected[j])
                spec.draw(spec.rng(i))
            assert np.array_equal(half_to_cube(expected[0, 0], dim, cutoff), first.coeffs)
            assert np.array_equal(half_to_cube(expected[0, 1], dim, cutoff), second.coeffs)

    def test_threads_draw_their_own_streams(self):
        """Threads drawing different specs at once, two of them on streams
        another thread draws too, each get the halves a serial call gives:
        each thread restores states into its own generator.  More threads
        than cores, switching every microsecond."""
        specs = [RandomFieldSpec(dim=2, cutoff=n, rho=1.5, seed=seed)
                 for n in (16, 8) for seed in (21, 22)]
        indices = range(100)
        serial = [spec.draws(indices, 2) for spec in specs]
        got = [None] * len(specs)
        start = threading.Barrier(len(specs))

        def work(j):
            start.wait()
            got[j] = np.stack([specs[j].draws([i], 2)[0] for i in indices])

        threads = [threading.Thread(target=work, args=(j,)) for j in range(len(specs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for j in range(len(specs)):
            assert np.array_equal(got[j], serial[j])

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
            w = state.omega.real_samples(pts)
            b = state.b.real_samples(pts)
            assert np.min(w) >= WIDE.omega_min0
            assert np.max(w) <= WIDE.omega_max0
            assert np.min(b) >= WIDE.b_min0
        # And the mapped range should still come close to the target band.
        span = WIDE.omega_max0 - WIDE.omega_min0
        assert np.min(w) <= WIDE.omega_min0 + 0.2 * span
        assert np.max(w) >= WIDE.omega_max0 - 0.2 * span
        assert state.v.div_residual() < 1e-13

    @pytest.mark.parametrize("dim, cutoff", [(2, 16), (3, 8)])
    def test_admissible_state_matches_the_all_components_gradient(self, dim, cutoff):
        # summing the squared gradient components one grid at a time
        # changes no bit of the datum
        spec = RandomFieldSpec(dim=dim, cutoff=cutoff, rho=2.5, seed=4)
        got = admissible_state(spec, WIDE, index=1, v_scale=0.2)
        want = all_components_admissible_state(spec, WIDE, index=1, v_scale=0.2)
        for a, b in zip((*got.v.components, got.omega, got.b),
                        (*want.v.components, want.omega, want.b)):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_admissible_state_of_a_constant_draw(self):
        """At rho = 1000 every mode but the mean is below 1e-30 on the grid:
        omega is the band's midpoint and b its floor, exactly."""
        spec = RandomFieldSpec(dim=2, cutoff=4, rho=1000.0, seed=0)
        state = admissible_state(spec, WIDE)
        for field, value in ((state.omega, 0.5 * (WIDE.omega_min0 + WIDE.omega_max0)),
                             (state.b, WIDE.b_min0)):
            assert field.mode((0, 0)) == value
            assert np.count_nonzero(field.coeffs) == 1


class TestPartitionOfUnity:
    def test_sums_to_one_on_fine_grid(self):
        part = PartitionOfUnity()
        u = np.linspace(0.0, 100.0, 100_000)
        phi1, phi2, phi3 = part.split(u)
        total = phi1 + phi2 + phi3
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_ranges_and_supports(self):
        part = PartitionOfUnity()
        u = np.linspace(0.0, 120.0, 50_000)
        for vals in part.split(u):
            assert np.all(vals >= -1e-15) and np.all(vals <= 1.0 + 1e-15)
        assert np.all(part.split(u[u >= 1 / 9])[0] == 0.0)
        assert np.all(part.phi2(u[u <= 1 / 10]) == 0.0)
        assert np.all(part.phi2(u[u >= 10.0]) == 0.0)
        assert np.all(part.split(u[u <= 9.0])[2] == 0.0)
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
        """f = cos 2 pi x1, g = cos 4 pi x1: each mode pair (xi, eta) puts
        (J^1(xi+eta) - J^1(eta)) / 4 on xi + eta, and nothing else."""
        f = SpectralField.from_modes(2, 3, {(1, 0): 0.5, (-1, 0): 0.5})
        g = SpectralField.from_modes(2, 3, {(2, 0): 0.5, (-2, 0): 0.5})
        out = commutator(f, g, 1.0)
        rest = out.coeffs.copy()
        for k, amp in (((3, 0), COMMUTATOR_AMP), ((-3, 0), COMMUTATOR_AMP),
                       ((1, 0), COMMUTATOR_AMP_LOW), ((-1, 0), COMMUTATOR_AMP_LOW)):
            assert 4.0 * out.mode(k) == pytest.approx(amp, abs=1e-10)
            rest[out.cutoff - 1 + k[0], out.cutoff - 1] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_product_modes_agree(self):
        """The commutator's grid products equal the literal convolution."""
        f, g = random_pair(3, cutoff=5)
        a = (direct_convolution(f, g, 9).bessel(1.5)
             - direct_convolution(f, g.bessel(1.5), 9))
        b = commutator(f, g, 1.5)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-11

    def test_one_transform_pair_matches_two_products(self):
        """The batched transform pair equals the two-spectral_product form."""
        for n in (4, 8, 16):
            f, g = random_pair(n, cutoff=n, rho=2.0)
            m = 2 * n - 1
            ref = (spectral_product(f, g, out_cutoff=m).bessel(2.0)
                   - spectral_product(f, g.bessel(2.0), out_cutoff=m))
            out = commutator(f, g, 2.0)
            assert out.cutoff == m
            scale = np.max(np.abs(ref.coeffs))
            assert np.max(np.abs(out.coeffs - ref.coeffs)) <= 1e-14 * scale

    def test_refuses_non_real_operand(self):
        f, g = random_pair(7, cutoff=4)
        c = g.coeffs.copy()
        c[4, 3] += 0.3j                                  # breaks realness
        nonreal = SpectralField(2, 4, c)
        for pair in ((f, nonreal), (nonreal, f)):
            with pytest.raises(ValueError, match="real fields"):
                commutator(*pair, 1.5)
            with pytest.raises(ValueError, match="real fields"):
                spectral_product(*pair)


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
        # (1+|xi|^2)/(1+|eta|^2) = 2/5 lies inside the comparable band for
        # every pair of f = cos 2 pi x1 and g = cos 4 pi x1.
        f = SpectralField.from_modes(2, 4, {(1, 0): 0.5, (-1, 0): 0.5})
        g = SpectralField.from_modes(2, 4, {(2, 0): 0.5, (-2, 0): 0.5})
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

    def test_one_phi2_evaluation_bit_identical(self, monkeypatch):
        """Building phi1 and phi3 from one phi2 evaluation changes no bit
        against evaluating the three bumps separately."""

        class ThreePhi(PartitionOfUnity):
            def split(self, u):
                u = np.asarray(u, dtype=float)
                return (np.where(u < self.lo_top, 1.0 - self.phi2(u), 0.0),
                        self.phi2(u),
                        np.where(u > self.hi_top, 1.0 - self.phi2(u), 0.0))

        for s in (0.5, 1.5, 2.0):
            f, g = random_pair(int(s * 10) + 1, cutoff=5)
            one = commutator_decomposition(f, g, s)
            # the symbol tables are cached per (dim, cutoff, s): rebuild them
            # with the separate bumps, and drop them after
            estimates._decomposition_tables.cache_clear()
            with monkeypatch.context() as patch:
                patch.setattr(estimates, "PartitionOfUnity", ThreePhi)
                three = commutator_decomposition(f, g, s)
                estimates._decomposition_tables.cache_clear()
            for a, b in zip(one, three):
                assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("dim, cutoff, s", [(2, 3, 0.5), (2, 4, 1.5), (2, 5, 2.0),
                                                (3, 3, 1.5)])
    def test_parts_equal_the_add_at_oracle(self, dim, cutoff, s):
        """Summing only the pairs that land in the doubled ball, by
        np.bincount, gives the parts of np.add.at over all pairs and a mask,
        and each part is exactly 0 off the doubled ball."""
        f, g = random_pair(10 * cutoff + dim, cutoff=cutoff, dim=dim)
        off_ball = ~_geometry(dim, 2 * cutoff - 1).ball
        for part, ref in zip(commutator_decomposition(f, g, s), add_at_decomposition(f, g, s)):
            assert np.array_equal(part.coeffs, ref.coeffs)
            assert np.all(part.coeffs[off_ball] == 0.0)

    def test_residual_takes_no_mask(self, monkeypatch):
        """The fields of decomposition_residual are built on the ball, so
        none of them is masked with np.where; the public constructor is."""
        f, g = random_pair(12, cutoff=4)
        expected = decomposition_residual(f, g, 1.5)     # builds the cached tables
        calls = []
        where = np.where

        def counted(*args, **kwargs):
            calls.append(len(args))
            return where(*args, **kwargs)

        monkeypatch.setattr(np, "where", counted)
        assert decomposition_residual(f, g, 1.5) == expected
        assert calls == []
        SpectralField(2, 4, f.coeffs)
        assert calls == [3]

    def test_residual(self):
        """decomposition_residual is criterion 08's L2 relative residual, and
        absolute where the commutator vanishes."""
        f, g = random_pair(9, cutoff=4)
        ref = commutator(f, g, 1.5)
        total = sum(commutator_decomposition(f, g, 1.5),
                    SpectralField.zeros(2, ref.cutoff))
        expected = (total - ref).hs_norm(0.0) / ref.hs_norm(0.0)
        assert decomposition_residual(f, g, 1.5) == expected <= 1e-10
        assert decomposition_residual(f, SpectralField.zeros(2, 4), 1.5) == 0.0

    def test_pair_budget_guard(self, monkeypatch):
        f, g = random_pair(6, cutoff=4)
        monkeypatch.setattr(estimates, "_MAX_PAIRS", 10)
        with pytest.raises(ValueError):
            commutator_decomposition(f, g, 1.0)


class TestFastGrids:
    @pytest.mark.parametrize("n", [4, 16])
    def test_products_and_commutators_match_the_convolution(self, n):
        """At n = 4 and 16, 2(2n-1) = 14 and 62 are not fast sizes; the
        product grid is the next fast size, and the stacked products and
        commutators on it equal the literal convolution to 1e-13."""
        points = product_points(n)
        assert 2 * (2 * n - 1) < points == fast_grid_size(points)
        m = 2 * n - 1
        halves = RandomFieldSpec(dim=2, cutoff=n, rho=1.5, seed=n).draws(range(2), 2)
        products = spectral_products(halves, n, 2, m)
        commutators = estimates._commutators(halves[:, 0], halves[:, 1], 1.5, n, 2)
        for pair, fg_half, comm_half in zip(halves, products, commutators):
            f, g = (SpectralField.from_half(h, 2, n) for h in pair)
            fg = direct_convolution(f, g, m)
            comm = fg.bessel(1.5) - direct_convolution(f, g.bessel(1.5), m)
            for got, ref in ((fg_half, fg), (comm_half, comm)):
                err = np.max(np.abs(half_to_cube(got, 2, m) - ref.coeffs))
                assert err <= 1e-13 * ref.hs_norm(0.0)

    def test_lab_transforms_run_on_fast_grids(self, monkeypatch):
        """Every grid the four campaigns and the decomposition residual
        transform has a fast size per axis."""
        points = []
        for module in (spectral, estimates):
            def inverse(coeffs, cutoff, dim, n_points, *args, _call=module.coefficients_to_real_grid,
                        **kwargs):
                points.append(n_points)
                return _call(coeffs, cutoff, dim, n_points, *args, **kwargs)

            def forward(grid, *args, _call=module.real_grid_to_coefficients, **kwargs):
                points.append(grid.shape[-1])
                return _call(grid, *args, **kwargs)

            monkeypatch.setattr(module, "coefficients_to_real_grid", inverse)
            monkeypatch.setattr(module, "real_grid_to_coefficients", forward)
        for n in (4, 8, 16):
            spec = RandomFieldSpec(dim=2, cutoff=n, rho=2.0, seed=n)
            verify_commutator_estimate(spec, 1.5, samples=2)
            verify_commutator_estimate(spec, 1.5, (3.0, 6.0, 6.0, np.inf, 3.0), samples=2)
            verify_product_estimate(spec, 1.5, samples=2)
            verify_composition_estimate(spec, 1.5, samples=2)
            verify_interpolation_inequality(spec, 1.5, samples=2)
        for n in (4, 5):
            decomposition_residual(*random_pair(n, cutoff=n), 1.5)
        assert {15, 30, 64} <= set(points)
        assert all(p == fast_grid_size(p) for p in points), sorted(set(points))


class TestGridNorms:
    def test_cosine_norms(self):
        f = SpectralField.from_modes(2, 2, {(1, 0): 0.5, (-1, 0): 0.5})
        assert field_lp(f, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert field_lp(f, np.inf) == pytest.approx(1.0, rel=1e-12)
        # p = 1 is the 12-point quadrature of |cos|: (2 + sqrt 3) / 6
        assert field_lp(f, 1.0) == pytest.approx((2.0 + math.sqrt(3.0)) / 6.0, rel=1e-12)

    def test_vector_magnitude(self):
        f = SpectralField.from_modes(2, 2, {(0, 0): 3.0})
        g = SpectralField.from_modes(2, 2, {(0, 0): 4.0})
        v = VectorSpectralField((f, g))
        assert field_lp(v, np.inf) == pytest.approx(5.0, rel=1e-12)
        assert field_lp(v, 2.0) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.5, -1.0, math.nan, -math.inf])
    def test_refuses_exponents_outside_one_to_inf(self, p):
        f = SpectralField.from_modes(2, 2, {(1, 0): 0.5, (-1, 0): 0.5})
        with pytest.raises(ValueError, match="p must lie in"):
            field_lp(f, p)

    def test_half_spectrum_matches_complex_samples(self):
        """field_lp samples through the half spectrum; the norms equal those
        of the literal sum's real part, also for fields that are not real
        (scalar, and a vector with one non-real component)."""
        for n in (8, 16):
            pts = fast_grid_size(4 * (2 * n - 1))
            spec = RandomFieldSpec(dim=2, cutoff=n, rho=1.5, seed=n)
            f = spec.draw(spec.rng(0))
            c = f.coeffs.copy()
            c[n, n - 1] += 0.3 + 0.2j                   # breaks realness
            nonreal = SpectralField(2, n, c)
            v = VectorSpectralField((f, spec.draw(spec.rng(1)))).leray_project()
            scalars = [(g, trigonometric_sum(g, pts).real) for g in (f, nonreal)]
            vectors = [(w, np.sqrt(sum(trigonometric_sum(c, pts).real ** 2
                                       for c in w.components)))
                       for w in (v, f.gradient(), VectorSpectralField((nonreal, f)))]
            for p in (2.0, 3.0, np.inf):
                for g, ref in scalars + vectors:
                    assert field_lp(g, p) == pytest.approx(lp_norm(ref, p), rel=1e-13)

    def test_batched_norms_equal_one_field_calls(self):
        """The campaigns' norms (`_lp_norms`) sample every p != 2 operand in
        one transform, and each norm is bit for bit the one-field
        sampling's, as field_lp's are."""
        spec = RandomFieldSpec(dim=2, cutoff=6, rho=2.0, seed=4)
        f, g = spec.draw(spec.rng(0)), spec.draw(spec.rng(1))
        pts = fast_grid_size(4 * (2 * 6 - 1))
        fields = (f.gradient(), g.bessel(1.0), g, f.bessel(2.0), f)
        ps = (np.inf, 2.0, np.inf, 3.0, 2.0)
        expected = []
        for h, p in zip(fields, ps):
            if p == 2:
                expected.append(field_lp(h, p))
            elif isinstance(h, VectorSpectralField):
                expected.append(lp_norm(np.sqrt(np.sum(h.real_samples(pts) ** 2, axis=0)), p))
            else:
                expected.append(lp_norm(h.real_samples(pts), p))
        operands = [real_half(h.stack() if isinstance(h, VectorSpectralField) else h.coeffs[None],
                              2)[None] for h in fields]
        assert [float(x[0]) for x in estimates._lp_norms(operands, ps, 6, 2)] == expected
        assert [field_lp(h, p) for h, p in zip(fields, ps)] == expected

    def test_sup_norms_equal_the_magnitude_first_oracle(self):
        """p = inf takes the max before the magnitude; the norms equal (==)
        those of the magnitude first, for scalar and vector operands, and
        NaN where a sample's grid holds NaN."""
        n = 6
        halves = RandomFieldSpec(dim=2, cutoff=n, seed=11).draws(range(4), 2)
        halves[2, 1, 5] = np.nan                 # sample 2's g: NaN at every grid point
        grad = _geometry(2, n).half_grad
        for operand in (halves[:, :1], halves[:, 1:], halves[:, :1] * grad, halves):
            got = estimates._lp_norms([operand], (np.inf,), n, 2)[0]
            expected = magnitude_first_sup(coefficients_to_real_grid(operand, n, 2,
                                                                     fast_grid_size(4 * 11)))
            np.testing.assert_array_equal(got, expected)
            assert np.isnan(got[2]) == np.isnan(operand[2]).any()
        grids = np.random.default_rng(0).normal(size=(3, 8, 8))
        grids[1, 3, 4] = np.nan
        grids[2, 0, 0] = -10.0
        np.testing.assert_array_equal(estimates._sup_abs(grids, 2),
                                      magnitude_first_sup(grids[:, None]))

    @pytest.mark.parametrize("dim, cutoff", [(2, 6), (3, 3)])
    def test_parseval_norm_is_triple_sq(self, dim, cutoff):
        """The campaigns' p = 2 norms are the square root of triple_sq at
        s = 0, bit for bit, on scalar and vector operands."""
        halves = RandomFieldSpec(dim=dim, cutoff=cutoff, seed=5).draws(range(4), dim)
        for operand in (halves[:, :1], halves):
            got = estimates._lp_norms([operand], (2.0,), cutoff, dim)[0]
            assert np.array_equal(got, np.sqrt(triple_sq(operand, 0.0, dim, cutoff)))

    def test_campaign_samples_take_one_sup_norm_transform(self, monkeypatch):
        calls = []
        sample = estimates.coefficients_to_real_grid

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return sample(*args, **kwargs)

        monkeypatch.setattr(estimates, "coefficients_to_real_grid", counted)
        spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=5)
        verify_commutator_estimate(spec, 2.0, samples=1)
        assert calls == [3, 3]               # f, g, J^s g; then grad f and g
        calls.clear()
        verify_product_estimate(spec, 2.0, samples=1)
        assert calls == [2]                  # g and f

    def test_l2_samples_no_grid(self, monkeypatch):
        """L2 comes from the coefficients (Parseval), never from a grid."""
        def refuse(*args, **kwargs):
            raise AssertionError("field_lp(p=2) sampled a grid")

        monkeypatch.setattr(spectral, "coefficients_to_real_grid", refuse)
        monkeypatch.setattr(estimates, "coefficients_to_real_grid", refuse)
        f, g = random_pair(10, cutoff=6)
        assert field_lp(f, 2.0) == pytest.approx(f.hs_norm(0.0), rel=1e-14)
        for s in (1.5, 2.0, 3.0):
            assert field_lp(f.bessel(s), 2.0) == pytest.approx(f.hs_norm(s), rel=1e-14)
        v = VectorSpectralField((f, g))
        assert field_lp(v, 2.0) == pytest.approx(v.hs_norm(0.0), rel=1e-14)


class TestCampaigns:
    def test_commutator_campaign_reproducible(self):
        spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=9)
        r1 = verify_commutator_estimate(spec, 2.0, samples=12)
        r2 = verify_commutator_estimate(spec, 2.0, samples=12)
        assert r1.ratios == r2.ratios
        assert r1.max_ratio > 0.0 and math.isfinite(r1.max_ratio)
        assert r1.skipped == 0
        assert r1.samples == 12

    def test_campaigns_refuse_empty_sample(self):
        spec = RandomFieldSpec(dim=2, cutoff=4)
        for campaign in (verify_commutator_estimate, verify_product_estimate,
                         verify_composition_estimate,
                         verify_interpolation_inequality):
            for samples in (0, -1):
                with pytest.raises(ValueError, match="at least 1 sample"):
                    campaign(spec, 2.0, samples=samples)

    def test_commutator_exponent_validation(self):
        spec = RandomFieldSpec(dim=2, cutoff=4)
        with pytest.raises(ValueError):
            verify_commutator_estimate(spec, 2.0, (2.0, 2.0, 2.0, np.inf, 2.0),
                                       samples=2)
        with pytest.raises(ValueError):
            verify_commutator_estimate(spec, -1.0, samples=2)

    @pytest.mark.parametrize("campaign, exponents", [
        (verify_product_estimate, (0.5, 1.0, 1.0, 1.0, 1.0)),
        (verify_product_estimate, (-1.0, -2.0, -2.0, -2.0, -2.0)),
        (verify_product_estimate, (2.0, 2.0, np.nan, np.inf, 2.0)),
        (verify_product_estimate, (np.inf, np.inf, np.inf, np.inf, np.inf)),    # p = inf
        (verify_product_estimate, (2.0, np.inf, 2.0, np.inf, 2.0)),             # p1 = inf
        (verify_product_estimate, (2.0, 2.0, 2.0, np.inf, 2.0)),                # 1/2 != 1
        (verify_product_estimate, (2.0, 2.0, np.inf, np.inf)),
        (verify_commutator_estimate, (np.inf, np.inf, np.inf, np.inf, np.inf)),  # p = inf
        (verify_commutator_estimate, (2.0, 2.0, np.inf, np.inf, 2.0)),          # p2 = inf
        (verify_commutator_estimate, (2.0, np.inf, 2.0, 2.0, np.inf)),          # p4 = inf
        (verify_commutator_estimate, (2.0, 1.0, 2.0, np.inf, 2.0)),
        (verify_commutator_estimate, (2.0, np.inf, 2.0, np.nan, 2.0)),
        (verify_commutator_estimate, (np.nan, np.inf, 2.0, np.inf, 2.0)),
        (verify_commutator_estimate, (3.0, 6.0, 6.0, np.inf, 2.0)),             # 1/3 != 1/2
    ])
    def test_holder_campaigns_refuse_bad_exponents(self, monkeypatch, campaign, exponents):
        """One rule for both campaigns, checked before any draw: exponents in
        (1, inf], the left side's and J^s side's finite, both pairs Holder."""
        def no_draw(*args):
            raise AssertionError("drew before checking the exponents")

        monkeypatch.setattr(RandomFieldSpec, "draws", no_draw)
        name = "commutator" if campaign is verify_commutator_estimate else "product"
        with pytest.raises(ValueError, match=f"^{name}: exponents"):
            campaign(RandomFieldSpec(dim=2, cutoff=4), 2.0, exponents, samples=2)

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
        fg = spectral_product(f, one, out_cutoff=9)
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

    def test_derivative_table_not_below_dense_grid(self):
        """The tabulated bound never reads below the 20001-point grid max
        over [-r, r] by more than 1e-6 relative."""
        radii = np.concatenate((np.linspace(0.1, 10.0, 40),
                                np.random.default_rng(0).uniform(0.1, 10.0, 20)))
        for name, derivs in estimates._SMOOTH_MAPS.items():
            for order in range(1, len(derivs)):
                for r in radii:
                    y = np.linspace(-r, r, 20001)
                    dense = max(float(np.max(np.abs(derivs[j](y))))
                                for j in range(1, order + 1))
                    bound = smooth_map_derivative_bound(name, order, r)
                    assert bound >= dense * (1.0 - 1e-6), (name, order, r)

    def test_derivative_table_lookup_independent_of_growth(self, monkeypatch):
        monkeypatch.setattr(estimates, "_DERIVATIVE_TABLES", {})
        before = [smooth_map_derivative_bound("rational", 4, r)
                  for r in (0.05, 0.3, 0.7)]
        assert len(estimates._DERIVATIVE_TABLES[("rational", 4)]) == 2 ** 12 + 1
        smooth_map_derivative_bound("rational", 4, 9.0)   # grows to extent 16
        assert len(estimates._DERIVATIVE_TABLES[("rational", 4)]) == 2 ** 16 + 1
        after = [smooth_map_derivative_bound("rational", 4, r)
                 for r in (0.05, 0.3, 0.7)]
        assert before == after

    def test_derivative_bound_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="not tabulated"):
            smooth_map_derivative_bound("sin", 6, 1.0)
        with pytest.raises(ValueError, match="not tabulated"):
            smooth_map_derivative_bound("sin", 0, 1.0)
        for r in (-1.0, 2000.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="radius"):
                smooth_map_derivative_bound("sin", 2, r)

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

    def test_interleaved_cutoffs_share_no_cached_state(self, monkeypatch):
        """Campaigns at n = 8, then 16, then 8 again in one process: the
        damping and derivative-table caches must not carry state from one
        cutoff to the next."""
        monkeypatch.setattr(estimates, "_DERIVATIVE_TABLES", {})
        estimates._damping.cache_clear()
        spec = RandomFieldSpec(dim=2, cutoff=8, rho=0.5, seed=30)

        def campaigns(sp):
            reports = [fn(sp, 2.0, samples=6) for fn in (
                verify_commutator_estimate, verify_product_estimate,
                verify_interpolation_inequality)]
            return reports + [verify_composition_estimate(sp, 2.0, g_name=name,
                                                          samples=6)
                              for name in sorted(estimates._SMOOTH_MAPS)]

        first = campaigns(spec)
        extent = len(estimates._DERIVATIVE_TABLES[("rational", 3)])
        campaigns(spec.with_cutoff(16))
        # the rougher n = 16 fields have larger sup norms: the table grew
        assert len(estimates._DERIVATIVE_TABLES[("rational", 3)]) > extent
        again = campaigns(spec)
        assert first == again


def expected_report(pairs):
    """ratios, lhs, rhs and skipped of per-sample (lhs, rhs) pairs, as a
    campaign reports them."""
    kept = [(a, b) for a, b in pairs if b > 0.0]
    return ([a / b for a, b in kept], [a for a, _ in kept], [b for _, b in kept],
            len(pairs) - len(kept))


# each campaign, its per-sample oracle, and their shared arguments
STACKED_CAMPAIGNS = (
    (verify_commutator_estimate, commutator_sample, dict()),
    (verify_commutator_estimate, commutator_sample,
     dict(exponents=(3.0, 6.0, 6.0, 6.0, 6.0))),
    (verify_product_estimate, product_sample, dict()),
    (verify_product_estimate, product_sample,
     dict(exponents=(3.0, 6.0, 6.0, 6.0, 6.0))),
    (verify_composition_estimate, composition_sample, dict(g_name="sin")),
    (verify_composition_estimate, composition_sample, dict(g_name="rational")),
    (verify_interpolation_inequality, interpolation_sample, dict()),
)


class TestStackedCampaigns:
    @pytest.mark.parametrize("budget", [1, None, 2 ** 40],
                             ids=["one-per-stack", "default", "one-stack"])
    def test_stacked_equals_per_sample(self, monkeypatch, budget):
        """Every campaign reports exactly (==) what evaluating its samples one
        at a time on field objects gives, at 1, 7 and 10 samples (at n = 8
        the default stacks hold 3, 4, 9 or 4 samples), with stacks of one
        sample, of the default budget, and of all samples."""
        if budget is not None:
            monkeypatch.setattr(estimates, "_STACK_BYTES", budget)
        spec = RandomFieldSpec(dim=2, cutoff=8, rho=1.5, seed=17)
        for campaign, oracle, kwargs in STACKED_CAMPAIGNS:
            per_sample = [oracle(spec, i, 2.0, **kwargs) for i in range(10)]
            for samples in (1, 7, 10):
                report = campaign(spec, 2.0, samples=samples, **kwargs)
                got = (report.ratios, report.lhs, report.rhs, report.skipped)
                assert got == expected_report(per_sample[:samples]), (campaign, kwargs)
                assert report.samples == samples

    def test_campaigns_evaluate_the_fields_they_are_given(self, monkeypatch):
        """A campaign is an evaluator of given fields: the one it passes to
        _collect, called on spec.draws(range(lo, hi), count), gives exactly
        (==) the report's lhs and rhs of samples lo..hi-1."""
        spec = RandomFieldSpec(dim=2, cutoff=8, rho=1.5, seed=17)
        for campaign, _, kwargs in STACKED_CAMPAIGNS:
            report = campaign(spec, 2.0, samples=7, **kwargs)
            assert report.skipped == 0
            seen = []
            with monkeypatch.context() as patch:
                patch.setattr(estimates, "_collect", lambda *args: seen.append(args))
                campaign(spec, 2.0, samples=7, **kwargs)
            (_, _, samples, count, _, evaluate, _), = seen
            assert samples == 7
            for lo, hi in ((0, 7), (3, 7), (5, 6)):
                got = evaluate(spec.draws(range(lo, hi), count))
                assert got == (report.lhs[lo:hi], report.rhs[lo:hi]), (campaign, kwargs)

    def test_one_stack_takes_one_transform_per_operand_group(self, monkeypatch):
        calls = []
        sample = estimates.coefficients_to_real_grid

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return sample(*args, **kwargs)

        monkeypatch.setattr(estimates, "coefficients_to_real_grid", counted)
        monkeypatch.setattr(estimates, "_STACK_BYTES", 2 ** 40)
        spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=5)
        verify_commutator_estimate(spec, 2.0, samples=7)
        assert calls == [21, 21]             # f, g, J^s g; grad f and g
        calls.clear()
        verify_interpolation_inequality(spec, 2.0, samples=7)
        assert calls == [14]                 # grad f

    def test_no_layout_round_trip(self, monkeypatch):
        """The criterion-09 campaigns run on canonical halves from the draw
        to the last norm: no call converts layouts or measures realness."""
        calls = []
        for module in (estimates, spectral):
            for name in {"symmetrize", "cube_to_half", "half_to_cube",
                         "realness_residual"} & set(vars(module)):
                def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        spec = RandomFieldSpec(dim=2, cutoff=8, rho=2.0, seed=0)
        for campaign in (verify_commutator_estimate, verify_product_estimate,
                         verify_composition_estimate, verify_interpolation_inequality):
            campaign(spec, 2.0, samples=5)
        assert calls == []
        commutator(spec.draw(spec.rng(0)), spec.draw(spec.rng(1)), 2.0)    # the counter counts
        assert calls

    def test_stacks_respect_the_grid_budget(self, monkeypatch):
        """No campaign transform returns more grid bytes than the stack
        budget, unless one sample's grid alone exceeds it."""
        returned = []

        def wrap(module):
            sample = module.coefficients_to_real_grid

            def measured(*args, **kwargs):
                out = sample(*args, **kwargs)
                returned.append(out.nbytes)
                return out
            monkeypatch.setattr(module, "coefficients_to_real_grid", measured)

        wrap(estimates)
        wrap(spectral)
        for n in (8, 16):
            spec = RandomFieldSpec(dim=2, cutoff=n, rho=2.0, seed=2)
            for campaign, _, kwargs in STACKED_CAMPAIGNS:
                returned.clear()
                campaign(spec, 2.0, samples=1, **kwargs)
                bound = max(estimates._STACK_BYTES, max(returned))
                returned.clear()
                campaign(spec, 2.0, samples=9, **kwargs)
                assert max(returned) <= bound, (n, campaign, kwargs)


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
    def test_rk45_samples_share_times(self, monkeypatch):
        # with separate step controllers the two runs sampled different
        # times, so e mixed the distance with the time shift
        runs = []
        lockstep = estimates.integrate_lockstep

        def keep_runs(*args, **kwargs):
            runs.extend(lockstep(*args, **kwargs))
            return runs

        monkeypatch.setattr(estimates, "integrate_lockstep", keep_runs)
        state, params, profile, _ = self.make_setup()
        config = IntegratorConfig(method="rk45", dt=1e-3, abs_tol=1e-7,
                                  rel_tol=1e-7, t_end=0.02, monitor_every=5)
        report = uniqueness_probe(state, 1e-6, params, profile, config)
        base, pert = runs
        assert len(base.states) > 2 and not report.partial
        assert np.array_equal(base.times, pert.times)
        assert np.array_equal(report.times, base.times)
