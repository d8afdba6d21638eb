"""Envelope profiles and viscosity cutoffs: plateaus, monotonicity,
derivative-bound scaling, and the pointwise viscosity floor."""

import numpy as np
import pytest

from kolmosim import cutoffs
from kolmosim.cutoffs import (
    CutoffProfile,
    InitialBounds,
    nu_bar,
    nu_bar_grid,
    phi_b,
    psi_omega,
    smooth_step,
    time_profiles,
)
from kolmosim.spectral import SpectralField
from oracles import measure_derivative_constant


BOUNDS = InitialBounds(b_min0=1.0, omega_min0=0.5, omega_max0=2.0, alpha=1.0)
PROFILE = CutoffProfile(bounds=BOUNDS)


class TestTimeProfiles:
    def test_initial_instant(self):
        vals = time_profiles(BOUNDS, 0.0)
        assert vals == (1.0, 0.5, 2.0, 0.125)

    def test_omega_lower_closed_form(self):
        """alpha=1, omega_min0=1, t=1: the comparison ODE w' = -w^2 gives 1/2."""
        b = InitialBounds(b_min0=1.0, omega_min0=1.0, omega_max0=2.0, alpha=1.0)
        assert time_profiles(b, 1.0).omega_lower == pytest.approx(0.5, rel=1e-15)

    def test_b_lower_closed_form(self):
        """alpha=1, omega_max0=2, b_min0=1, t=1: b' = -b*omega_upper gives 1/3."""
        b = InitialBounds(b_min0=1.0, omega_min0=0.5, omega_max0=2.0, alpha=1.0)
        assert time_profiles(b, 1.0).b_lower == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_profiles_nonincreasing_and_ordered(self):
        ts = np.linspace(0.0, 20.0, 300)
        rows = np.array([time_profiles(BOUNDS, t) for t in ts])
        assert np.all(np.diff(rows, axis=0) <= 1e-15)
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            time_profiles(BOUNDS, -0.1)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            InitialBounds(b_min0=0.0, omega_min0=0.5, omega_max0=2.0, alpha=1.0)
        with pytest.raises(ValueError):
            InitialBounds(b_min0=1.0, omega_min0=3.0, omega_max0=2.0, alpha=1.0)


class TestSmoothStep:
    def test_endpoints_and_monotone(self):
        u = np.linspace(-1.0, 2.0, 3001)
        s = smooth_step(u)
        assert s[0] == 0.0 and s[-1] == 1.0
        assert smooth_step(0.5) == pytest.approx(0.5, abs=1e-14)
        assert np.all(np.diff(s) >= 0.0)
        assert np.all((s >= 0.0) & (s <= 1.0))


class TestCutoffShapes:
    def test_phi_pieces(self):
        for t in (0.0, 1.0, 10.0):
            b_lo = time_profiles(BOUNDS, t).b_lower
            assert phi_b(0.0, t, PROFILE) == pytest.approx(b_lo / 2, rel=1e-14)
            assert phi_b(b_lo, t, PROFILE) == pytest.approx(b_lo, rel=1e-14)
            assert phi_b(10 * b_lo, t, PROFILE) == pytest.approx(10 * b_lo, rel=1e-14)

    def test_psi_pieces(self):
        for t in (0.0, 1.0, 10.0):
            vals = time_profiles(BOUNDS, t)
            w_lo, w_hi = vals.omega_lower, vals.omega_upper
            assert psi_omega(0.0, t, PROFILE) == pytest.approx(w_lo / 2, rel=1e-14)
            for x in np.linspace(w_lo, w_hi, 7):
                assert psi_omega(x, t, PROFILE) == pytest.approx(x, rel=1e-14)
            assert psi_omega(3 * w_hi, t, PROFILE) == pytest.approx(2 * w_hi, rel=1e-14)

    def test_cutoffs_nondecreasing(self):
        for t in (0.0, 1.0, 10.0):
            vals = time_profiles(BOUNDS, t)
            xs = np.linspace(0.0, 4.0 * vals.omega_upper + 1.0, 10_000)
            assert np.all(np.diff(phi_b(xs, t, PROFILE)) >= -1e-12)
            assert np.all(np.diff(psi_omega(xs, t, PROFILE)) >= -1e-12)

    def test_derivative_constant_recorded_and_stable(self):
        """c0 is measured (not assumed); the scaling construction keeps the
        per-time constants within a narrow band across t."""
        c0 = measure_derivative_constant(PROFILE, 3)
        assert np.isfinite(c0) and c0 >= 1.0
        per_t = [measure_derivative_constant(PROFILE, 3, t_values=(t,))
                 for t in (0.0, 1.0, 10.0)]
        assert max(per_t) <= c0 + 1e-12
        assert max(per_t) / min(per_t) < 1.1


class TestNuBar:
    def test_constant_fields_identity_band(self):
        b = SpectralField.from_modes(2, 4, {(0, 0): 1.5})
        w = SpectralField.from_modes(2, 4, {(0, 0): 1.0})
        f = nu_bar(b, w, 0.0, 16, PROFILE)
        assert f.mode((0, 0)) == pytest.approx(1.5, rel=1e-13)
        off_center = f.coeffs.copy()
        off_center[3, 3] = 0.0
        assert np.max(np.abs(off_center)) < 1e-13

    def test_zero_b_hits_lower_plateau(self):
        b = SpectralField.zeros(2, 4)
        w = SpectralField.from_modes(2, 4, {(0, 0): 1.0})
        f = nu_bar(b, w, 0.0, 16, PROFILE)
        assert f.mode((0, 0)) == pytest.approx(0.5, rel=1e-13)  # (b_lower/2)/1

    def test_viscosity_floor_on_rough_fields(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            b_grid = rng.normal(scale=3.0, size=(32, 32))
            w_grid = rng.normal(scale=3.0, size=(32, 32))
            t = float(rng.uniform(0.0, 5.0))
            nu_lo = time_profiles(BOUNDS, t).nu_lower
            grid = nu_bar_grid(b_grid, w_grid, t, PROFILE)
            assert np.min(grid) >= nu_lo - 1e-15

    def test_grid_is_the_band_masked_composition(self, monkeypatch):
        """nu_bar_grid builds only the cutoff pieces its samples reach; bit
        for bit it is phi_b(b) / psi_omega(w), which builds them all."""
        rng = np.random.default_rng(7)
        t = 0.3
        vals = time_profiles(BOUNDS, t)
        b_lo, w_lo, w_hi = vals.b_lower, vals.omega_lower, vals.omega_upper
        u = lambda: rng.random(64)
        # plateau, ramp, identity for b; plateau, ramp up, identity, ramp
        # down, plateau for omega
        b_pieces = [0.5 * b_lo * u(), 0.5 * b_lo * (1.0 + u()), b_lo * (1.0 + 3.0 * u())]
        w_pieces = [0.5 * w_lo * u(), 0.5 * w_lo * (1.0 + u()),
                    w_lo + (w_hi - w_lo) * u(), w_hi * (1.0 + u()), 2.0 * w_hi * (1.0 + u())]
        b_id, w_id = b_pieces[2], w_pieces[2]
        b_id[:2] = b_lo                                # band ends are identity
        w_id[:2] = w_lo, w_hi
        grids = [(b, w_id) for b in b_pieces] + [(b_id, w) for w in w_pieces]
        mixed = (rng.permutation(np.concatenate(b_pieces + b_pieces[:2])),
                 rng.permutation(np.concatenate(w_pieces)))
        grids.append(mixed)
        for bad in (np.nan, np.inf, -np.inf):
            for at in (0, 1):
                pair = [b_id.copy(), w_id.copy()]
                pair[at][5] = bad
                grids.append(tuple(pair))
        grids.append((np.where(u() < 0.2, np.nan, b_id), np.where(u() < 0.2, np.nan, w_id)))
        grids.append((np.where(u() < 0.2, np.nan, mixed[0][:64]),
                      np.where(u() < 0.2, np.nan, mixed[1][:64])))
        for b, w in grids:
            expected = phi_b(b, t, PROFILE) / psi_omega(w, t, PROFILE)
            got = nu_bar_grid(b.reshape(8, -1), w.reshape(8, -1), t, PROFILE)
            assert np.array_equal(got.ravel(), expected, equal_nan=True)

        def refuse(u):
            raise AssertionError("smooth_step called inside the identity bands")

        monkeypatch.setattr(cutoffs, "smooth_step", refuse)
        assert np.array_equal(nu_bar_grid(b_id, w_id, t, PROFILE), b_id / w_id)
