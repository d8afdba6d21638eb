"""Galerkin right-hand side: closed-form cases, pressure oracle, structure.

The Taylor-Green pressure and the perturbed-diffusion coefficients were
derived by hand from the definitions before being frozen here.
"""

import dataclasses
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from kolmosim import system
from kolmosim.cutoffs import CutoffProfile, InitialBounds, nu_bar_grid
from kolmosim.diagnostics import nu_bar_aliasing
from kolmosim.spectral import (REAL_TOL, SpectralField, VectorSpectralField, _geometry,
                               _half_bins, _real_pass, coefficients_to_real_grid,
                               leray_coefficients, real_half)
from kolmosim.system import (
    ModelParams,
    SimState,
    _deform_map,
    _in_map,
    _momentum_map,
    _out_map,
    _pair_layout,
    hypothesis_violations,
    member_rhs,
    pack,
    rhs,
    state_problems,
    triple_sq,
)
from oracles import (cube_to_half, cube_triple_sq, flux_divergences, symmetrize,
                     velocity_force)

BOUNDS = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)
PROFILE = CutoffProfile(bounds=BOUNDS)
PARAMS = ModelParams(alpha=1.0, s=2.0, bounds=BOUNDS, oversample=4)


def constant_state(dim, cutoff, w0=1.0, b0=1.0):
    v = VectorSpectralField.zeros(dim, cutoff)
    w = SpectralField.from_modes(dim, cutoff, {(0,) * dim: w0})
    b = SpectralField.from_modes(dim, cutoff, {(0,) * dim: b0})
    return SimState(v, w, b, t=0.0)


def divergence_free_random_state(seed, dim=2, cutoff=8, rho=2.0):
    rng = np.random.default_rng(seed)
    side = 2 * cutoff - 1
    k = np.indices((side,) * dim) - (cutoff - 1)
    amp = (1.0 + np.sqrt(np.sum(k ** 2, axis=0))) ** (-rho)

    def field(scale=1.0, shift=0.0):
        raw = rng.normal(size=(side,) * dim) + 1j * rng.normal(size=(side,) * dim)
        c = raw * amp * scale
        c = 0.5 * (c + np.conj(np.flip(c)))
        c[(cutoff - 1,) * dim] = shift
        return SpectralField(dim, cutoff, c)

    v = VectorSpectralField(tuple(field(0.3) for _ in range(dim))).leray_project()
    w = field(0.05, shift=1.0)   # stays well inside [0.5, 2]
    b = field(0.05, shift=1.0)   # stays well above 0.5
    return SimState(v, w, b, t=0.0)


def taylor_green_state(cutoff=4, pts=32):
    x = np.arange(pts) / pts
    xx, yy = np.meshgrid(x, x, indexing="ij")
    u = np.cos(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
    w = -np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    v = VectorSpectralField((SpectralField.from_grid(u, cutoff),
                             SpectralField.from_grid(w, cutoff)))
    omega = SpectralField.from_modes(2, cutoff, {(0, 0): 1.0})
    b = SpectralField.from_modes(2, cutoff, {(0, 0): 1.0})
    return SimState(v, omega, b, t=0.0)


def pressure_gradient(state):
    """grad p: the force -P_n(v.grad v) + div P_n(nubar Dv) (the oracle's)
    minus the kernel's dv, its Leray projection."""
    return velocity_force(state, PARAMS, PROFILE) - rhs(state, PARAMS, PROFILE)[0]


class TestConstantFields:
    def test_reaction_terms_only(self):
        """v=0 and constants: dv = 0, dw = -alpha*w0^2, db = -b0*w0."""
        state = constant_state(2, 4, w0=1.0, b0=1.0)
        dv, dw, db = rhs(state, PARAMS, PROFILE)
        assert dv.hs_norm(0.0) < 1e-13
        assert dw.mode((0, 0)) == pytest.approx(-1.0, abs=1e-13)
        assert db.mode((0, 0)) == pytest.approx(-1.0, abs=1e-13)
        dw_rest = dw.coeffs.copy(); dw_rest[3, 3] = 0.0
        db_rest = db.coeffs.copy(); db_rest[3, 3] = 0.0
        assert np.max(np.abs(dw_rest)) < 1e-13
        assert np.max(np.abs(db_rest)) < 1e-13

    def test_reaction_scaling_in_alpha(self):
        state = constant_state(2, 4, w0=1.5, b0=2.0)
        params = ModelParams(alpha=2.0, s=2.0, bounds=dataclasses.replace(BOUNDS, alpha=2.0),
                             oversample=4)
        _, dw, db = rhs(state, params, PROFILE)
        assert dw.mode((0, 0)) == pytest.approx(-2.0 * 1.5 ** 2, rel=1e-13)
        assert db.mode((0, 0)) == pytest.approx(-2.0 * 1.5, rel=1e-13)


class TestPerturbedDiffusion:
    def test_single_mode_diffusion_coefficients(self):
        """b = 1 + eps*cos(2 pi x1), omega = 1, v = 0, nubar = b exactly.

        Hand-derived: db^(1,0) = -(4 pi^2 + 1) eps/2, db^(2,0) = -2 pi^2 eps^2,
        db^(0,0) = -1, dw^(0,0) = -1.
        """
        eps = 0.1
        b = SpectralField.from_modes(2, 4, {(0, 0): 1.0, (1, 0): eps / 2, (-1, 0): eps / 2})
        state = SimState(VectorSpectralField.zeros(2, 4),
                         SpectralField.from_modes(2, 4, {(0, 0): 1.0}), b)
        dv, dw, db = rhs(state, PARAMS, PROFILE)
        assert dv.hs_norm(0.0) < 1e-12
        assert dw.mode((0, 0)) == pytest.approx(-1.0, abs=1e-12)
        assert db.mode((0, 0)) == pytest.approx(-1.0, abs=1e-12)
        assert db.mode((1, 0)) == pytest.approx(-(4 * np.pi ** 2 + 1) * eps / 2, rel=1e-12)
        assert db.mode((2, 0)) == pytest.approx(-2 * np.pi ** 2 * eps ** 2, rel=1e-11)


class TestTaylorGreen:
    def test_pressure_matches_hand_derivation(self):
        """p = -(cos(4 pi x1) + cos(4 pi x2))/4 for the Taylor-Green vortex."""
        state = taylor_green_state()
        grad_p = pressure_gradient(state)
        pts = 32
        x = np.arange(pts) / pts
        xx, yy = np.meshgrid(x, x, indexing="ij")
        expected = VectorSpectralField((
            SpectralField.from_grid(np.pi * np.sin(4 * np.pi * xx), 4),
            SpectralField.from_grid(np.pi * np.sin(4 * np.pi * yy), 4)))
        diff = grad_p - expected
        assert diff.hs_norm(0.0) < 1e-12

    def test_velocity_rhs_is_laplacian_eigenmode(self):
        """With nubar = 1 the Taylor-Green advection is a pure gradient, so
        dv = (1/2)*2*lap(v)/2 ... i.e. dv = -4 pi^2 v exactly."""
        state = taylor_green_state()
        dv, dw, db = rhs(state, PARAMS, PROFILE)
        expected = state.v * (-4 * np.pi ** 2)
        diff = dv - expected
        assert diff.hs_norm(0.0) < 1e-11
        # production: |Dv|^2 = 8 pi^2 sin^2 sin^2 has mean 2 pi^2; db mean = -1 + 2 pi^2
        assert db.mode((0, 0)) == pytest.approx(2 * np.pi ** 2 - 1.0, rel=1e-12)

    def test_zero_velocity_gives_zero_pressure(self):
        state = constant_state(2, 4)
        grad_p = pressure_gradient(state)
        assert grad_p.hs_norm(0.0) < 1e-14

    def test_single_mode_orthogonal_velocity_zero_pressure(self):
        """v = a sin(2 pi k.x) with a.k = 0: advection vanishes, pressure zero."""
        pts = 32
        x = np.arange(pts) / pts
        xx, yy = np.meshgrid(x, x, indexing="ij")
        wave = np.sin(2 * np.pi * (xx + 2 * yy))
        a = np.array([2.0, -1.0])  # orthogonal to k = (1, 2)
        v = VectorSpectralField((
            SpectralField.from_grid(a[0] * wave, 4),
            SpectralField.from_grid(a[1] * wave, 4)))
        state = SimState(v, SpectralField.from_modes(2, 4, {(0, 0): 1.0}),
                         SpectralField.from_modes(2, 4, {(0, 0): 1.0}))
        grad_p = pressure_gradient(state)
        assert grad_p.hs_norm(0.0) < 1e-12


class TestStructure:
    def test_rhs_velocity_divergence_free(self):
        for seed in range(5):
            state = divergence_free_random_state(seed)
            dv, _, _ = rhs(state, PARAMS, PROFILE)
            assert dv.div_residual() < 1e-12

    def test_rhs_preserves_realness(self):
        for seed in range(5):
            state = divergence_free_random_state(seed + 50)
            dv, dw, db = rhs(state, PARAMS, PROFILE)
            assert max(f.realness_residual() for f in dv.components) < 1e-12
            assert dw.realness_residual() < 1e-12
            assert db.realness_residual() < 1e-12

    def test_rhs_takes_the_real_part(self):
        # a state off conjugate symmetry within REAL_TOL, which the state
        # check lets through, gives the right-hand side and the aliasing
        # indicator of its real part, bit for bit
        rng = np.random.default_rng(60)
        y = pack(divergence_free_random_state(60))
        y += 1e-14 * np.abs(y).max(axis=(1, 2), keepdims=True) * (
            rng.normal(size=y.shape) + 1j * rng.normal(size=y.shape))
        near = [SpectralField(2, 8, c) for c in y]
        real = [SpectralField(2, 8, symmetrize(c, 2)) for c in y]
        near, real = (SimState(VectorSpectralField(tuple(fs[:2])), fs[2], fs[3])
                      for fs in (near, real))
        assert 1e-14 < near.realness_residual() <= REAL_TOL
        assert real.realness_residual() == 0.0
        assert np.array_equal(pack(SimState(*rhs(near, PARAMS, PROFILE))),
                              pack(SimState(*rhs(real, PARAMS, PROFILE))))
        assert np.array_equal(nu_bar_aliasing([near], PARAMS, PROFILE),
                              nu_bar_aliasing([real], PARAMS, PROFILE))

    def test_leray_equivalence_with_pressure(self):
        """Projecting the advective-diffusive force equals subtracting grad p:
        the kernel's dv is the Leray projection of the oracle's force."""
        for seed in range(5):
            state = divergence_free_random_state(seed + 100)
            force = velocity_force(state, PARAMS, PROFILE)
            diff = force.leray_project() - (force - pressure_gradient(state))
            scale = max(force.hs_norm(0.0), 1e-30)
            assert diff.hs_norm(0.0) / scale < 1e-10

    def test_omega_mean_decreases(self):
        """d/dt of the omega mean is -alpha * mean(omega^2) <= 0."""
        for seed in range(5):
            state = divergence_free_random_state(seed + 200)
            _, dw, _ = rhs(state, PARAMS, PROFILE)
            assert dw.mode((0, 0)).real < 0.0
            assert abs(dw.mode((0, 0)).imag) < 1e-12

    def test_transport_consistency_across_cutoffs(self):
        """Padding to n' >= 2n-1 leaves the right-hand side exact when every
        term is a polynomial: with omega constant nubar = b, so each term has
        degree <= 3, which both quadrature grids resolve."""
        for seed, n in ((1, 4), (2, 5), (3, 6)):
            state = divergence_free_random_state(seed + 300, cutoff=n)
            state.omega = SpectralField.from_modes(2, n, {(0, 0): 1.0})
            big = SimState(state.v.project(2 * n - 1),
                           state.omega.project(2 * n - 1),
                           state.b.project(2 * n - 1), state.t)
            small = rhs(state, PARAMS, PROFILE)
            large = rhs(big, PARAMS, PROFILE)
            pairs = list(zip(small[0].components, large[0].components)) + [
                (small[1], large[1]), (small[2], large[2])]
            for sm, lg in pairs:
                diff = lg.project(n) - sm
                scale = max(sm.hs_norm(0.0), 1e-30)
                assert diff.hs_norm(0.0) / scale < 1e-11


class TestHypotheses:
    def test_valid_state_passes(self):
        state = divergence_free_random_state(7)
        assert hypothesis_violations(state, s=2.0) == []

    def test_low_regularity_flagged(self):
        state = divergence_free_random_state(8)
        problems = hypothesis_violations(state, s=1.0)
        assert any("s =" in p for p in problems)

    def test_negative_omega_flagged(self):
        state = divergence_free_random_state(9)
        bad = SimState(state.v, state.omega * 1.0 - SpectralField.from_modes(
            2, 8, {(0, 0): 5.0}), state.b)
        problems = hypothesis_violations(bad, s=2.0)
        assert any("omega_0" in p for p in problems)

    @pytest.mark.parametrize("b0", [0.0, -0.5])
    def test_non_positive_b_flagged(self, b0):
        problems = hypothesis_violations(constant_state(2, 4, b0=b0), s=2.0)
        assert problems == [f"min b_0 = {b0:.3e} <= 0"]

    def test_non_finite_coefficients_flagged(self):
        state = divergence_free_random_state(10)
        state.omega.coeffs[7, 8] = np.nan
        problems = hypothesis_violations(state, s=2.0)
        assert any("non-finite" in p for p in problems)

    def test_positivity_sampled_on_the_monitor_grid(self, monkeypatch):
        points = []
        monkeypatch.setattr(system, "grid_extrema",
                            lambda state, n: points.append(n) or (1.0, 1.0, 1.0))
        hypothesis_violations(divergence_free_random_state(11, cutoff=16), s=2.0)
        assert points == [125]

    def test_params_refuse_bounds_of_another_alpha(self):
        # the reaction term reads params.alpha and the envelopes bounds.alpha:
        # two values would describe two models
        with pytest.raises(ValueError, match="alpha 1.0 differs from bounds.alpha 3.0"):
            ModelParams(alpha=1.0, s=2.0, bounds=dataclasses.replace(BOUNDS, alpha=3.0),
                        oversample=4)


def in_new_thread(fn):
    """fn() run on a thread of its own, so on freshly built kernel buffers."""
    out = []
    th = threading.Thread(target=lambda: out.append(fn()))
    th.start()
    th.join(timeout=60)
    assert not th.is_alive()
    return out[0]


def cached_buffers():
    """This thread's kernel workspace of its last call: its size and its arrays."""
    ws = system._local.ws
    return ws.size, [buf for buf in vars(ws).values() if isinstance(buf, np.ndarray)]


class TestWorkspace:
    def test_result_survives_later_calls(self):
        a = cube_to_half(pack(divergence_free_random_state(41)), 2)[None]
        b = cube_to_half(pack(divergence_free_random_state(42)), 2)[None]
        first = member_rhs(a, 8, 0.0, PARAMS, PROFILE)[0]
        kept = first.copy()
        member_rhs(b, 8, 0.1, PARAMS, PROFILE)
        member_rhs(b, 8, 0.2, PARAMS, PROFILE)
        assert np.array_equal(first, kept)
        size, buffers = cached_buffers()
        assert size == (2, 8, PARAMS.grid_points(8), 1)
        assert not any(np.shares_memory(first, buf) for buf in buffers)

    def test_reused_workspace_matches_fresh(self):
        # this thread's buffers, dirty from the calls before, against a new
        # thread's freshly built ones
        member_rhs(cube_to_half(pack(divergence_free_random_state(42)), 2)[None], 8, 0.3,
                   PARAMS, PROFILE)
        for seed in (43, 44):
            y = cube_to_half(pack(divergence_free_random_state(seed)), 2)[None]
            assert np.array_equal(
                member_rhs(y, 8, 0.05, PARAMS, PROFILE)[0],
                in_new_thread(lambda: member_rhs(y, 8, 0.05, PARAMS, PROFILE)[0]))

    def test_call_at_another_size_replaces_the_buffers(self):
        y = cube_to_half(pack(divergence_free_random_state(45)), 2)[None]
        first = member_rhs(y, 8, 0.05, PARAMS, PROFILE)[0]
        _, old = cached_buffers()
        member_rhs(cube_to_half(pack(divergence_free_random_state(46, cutoff=6)), 2)[None], 6,
                   0.05, PARAMS, PROFILE)
        size, new = cached_buffers()
        assert size == (2, 6, PARAMS.grid_points(6), 1)
        assert not any(np.shares_memory(a, b) for a in old for b in new)
        assert np.array_equal(member_rhs(y, 8, 0.05, PARAMS, PROFILE)[0], first)

    def test_another_grid_size_replaces_the_plan(self):
        # one plan per thread: a call on the grid above, at one stack,
        # frees the plan and builds its own, and the call back rebuilds
        y = cube_to_half(pack(divergence_free_random_state(49)), 2)[None]
        built = []
        for oversample in (2, 3, 2):
            params = dataclasses.replace(PARAMS, oversample=oversample)
            member_rhs(y, 8, 0.05, params, PROFILE)
            built.append(weakref.ref(system._local.ws))
            assert system._local.ws.size == (2, 8, params.grid_points(8), 1)
        assert [ws() is None for ws in built] == [True, True, False]

    def test_old_buffers_are_freed_before_new_ones_are_built(self, monkeypatch):
        # two workspaces alive at once would raise the peak memory of every
        # size switch by the old workspace's size
        member_rhs(cube_to_half(pack(divergence_free_random_state(47)), 2)[None], 8, 0.05,
                   PARAMS, PROFILE)
        old = weakref.ref(system._local.ws)
        alive = []
        init = system.RhsWorkspace.__init__

        def spy(self, *args):
            alive.append(old() is not None)
            init(self, *args)

        monkeypatch.setattr(system.RhsWorkspace, "__init__", spy)
        member_rhs(cube_to_half(pack(divergence_free_random_state(48, cutoff=6)), 2)[None], 6,
                   0.05, PARAMS, PROFILE)
        assert alive == [False]

    def test_plan_keeps_only_what_the_size_fixes(self):
        # each call of the sequence, on this thread's plan, against a fresh
        # thread's: after another alpha, another profile, another grid
        # (oversample 2 -> 3 -> 2) and another member count (2 -> 1 -> 2)
        ys = cube_to_half(np.stack([pack(divergence_free_random_state(80 + i, cutoff=6))
                                    for i in range(2)]), 2)
        base = dataclasses.replace(PARAMS, oversample=2)
        alpha = ModelParams(alpha=2.0, s=2.0, bounds=dataclasses.replace(BOUNDS, alpha=2.0),
                            oversample=2)
        # samples below b_lower and outside [omega_lower, omega_upper]
        narrow = CutoffProfile(InitialBounds(b_min0=1.1, omega_min0=1.0, omega_max0=1.0,
                                             alpha=1.0))
        calls = [(ys, base, PROFILE), (ys, alpha, PROFILE), (ys, base, narrow),
                 (ys, base, PROFILE), (ys, dataclasses.replace(base, oversample=3), PROFILE),
                 (ys, base, PROFILE), (ys[:1], base, PROFILE), (ys, base, PROFILE)]
        results = []
        for y, params, profile in calls:
            got = member_rhs(y, 6, 0.05, params, profile)
            fresh = in_new_thread(lambda: member_rhs(y, 6, 0.05, params, profile))
            assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
            results.append(got[0])
        # the calls read alpha and the profile
        assert not np.array_equal(results[1], results[0])
        assert not np.array_equal(results[2], results[0])

    def test_flux_divergences_match_the_loop(self):
        # the batched contraction against the explicit sum over flux rows
        for dim, cutoff in ((2, 5), (3, 3)):
            rng = np.random.default_rng(dim)
            m = dim * (dim + 1) // 2
            c = rng.normal(size=(m + 2 * dim,) + (2 * cutoff - 1,) * dim) + 0j
            grad = _geometry(dim, cutoff).grad
            pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
            vec = np.zeros((dim,) + c.shape[1:], dtype=complex)
            for p, (i, j) in enumerate(pairs):
                vec[i] += grad[j] * c[p]
                if i != j:
                    vec[j] += grad[i] * c[p]
            w = sum(grad[a] * c[m + a] for a in range(dim))
            b = sum(grad[a] * c[m + dim + a] for a in range(dim))
            got = flux_divergences(cube_to_half(c, dim), dim, cutoff)
            assert np.array_equal(got, cube_to_half(np.concatenate([vec, [w, b]]), dim))



class TestSpectralMaps:
    @pytest.mark.parametrize("dim, cutoff", [(2, 5), (3, 3)])
    def test_maps_match_the_explicit_steps(self, dim, cutoff):
        # the in-map against D_ij and the gradients built by loop; the
        # out-map against divergences, Leray projection and reaction rows,
        # on member stacks of one and of three
        grad = _geometry(dim, cutoff).half_grad
        nh, m = grad.shape[1], dim * (dim + 1) // 2
        pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
        rng = np.random.default_rng(dim)

        def rel(got, expected):          # the worst row's relative difference
            axes = tuple(range(1, got.ndim))
            return np.max(np.max(np.abs(got - expected), axis=axes)
                          / np.max(np.abs(expected), axis=axes))

        def draw(shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for members in (1, 3):
            y = draw((dim + 2, members, nh))
            expected = np.stack([0.5 * (grad[j] * y[i] + grad[i] * y[j]) for i, j in pairs]
                                + [grad[a] * y[dim + s] for s in (0, 1) for a in range(dim)])
            got = np.empty(expected.shape, dtype=complex)
            _in_map(y[:dim], y[dim:, None], (_deform_map(dim, cutoff)[..., None, :],
                                             grad[:, None]),
                    out=(got[:m], got[m:].reshape((2, dim, members, nh))),
                    prod=np.empty((m, dim, members, nh), dtype=complex))
            assert rel(got, expected) <= 1e-14

            # the kernel's flux rows: -M, -F_w, -F_b, then the reaction rows
            coef = draw((m + 2 * dim + 2, members, nh))
            div = flux_divergences(coef, dim, cutoff)
            dv = leray_coefficients(np.moveaxis(div[:dim], 0, -2), dim, cutoff)
            expected = np.concatenate([np.moveaxis(dv, -2, 0), div[dim:] + coef[-2:]])
            got = np.empty(expected.shape, dtype=complex)
            _out_map((coef[:m], coef[m:m + 2 * dim].reshape((2, dim, members, nh)), coef[-2:]),
                     (_momentum_map(dim, cutoff)[..., None, :], grad[:, None]), out=got,
                     momentum=np.empty((dim, m, members, nh), dtype=complex),
                     scalar=np.empty((2, dim, members, nh), dtype=complex))
            assert rel(got, expected) <= 1e-14

    @pytest.mark.parametrize("dim, cutoff", [(2, 5), (3, 3)])
    def test_cached_tables_are_read_only(self, dim, cutoff):
        points = PARAMS.grid_points(cutoff)
        tables = [_deform_map(dim, cutoff), _momentum_map(dim, cutoff), _pair_layout(dim),
                  *_half_bins(dim, cutoff, points), *_real_pass(cutoff, points)]
        assert not any(table.flags.writeable for table in tables)


class TestMemberStacks:
    def test_rows_equal_one_state_calls(self):
        # one batched call per stage is only a saving if every member's row
        # is exactly what its own call would give
        for dim, cutoff, members in ((2, 8, 3), (3, 3, 2)):
            ys = np.stack([pack(divergence_free_random_state(50 + i, dim=dim, cutoff=cutoff))
                           for i in range(members)])
            hs = cube_to_half(ys, dim)
            stack, nu = member_rhs(hs, cutoff, 0.05, PARAMS, PROFILE)
            assert stack.shape == hs.shape
            assert nu.shape == (members, PARAMS.grid_points(cutoff) ** dim)
            for h, row, samples in zip(hs, stack, nu):
                solo, solo_nu = member_rhs(h[None], cutoff, 0.05, PARAMS, PROFILE)
                assert np.array_equal(row, solo[0])
                assert np.array_equal(samples, solo_nu[0])

    def test_nubar_samples_are_the_quadrature_grid_values(self):
        # the integrator's reference viscosity is the midrange of these
        ys = np.stack([pack(divergence_free_random_state(60 + i)) for i in range(2)])
        hs = cube_to_half(ys, 2)
        _, nu = member_rhs(hs, 8, 0.05, PARAMS, PROFILE)
        for h, samples in zip(hs, nu):
            w, b = coefficients_to_real_grid(h[2:], 8, 2, PARAMS.grid_points(8))
            expected = nu_bar_grid(b, w, 0.05, PROFILE).ravel()
            assert np.ptp(expected) > 0.1
            assert np.allclose(samples, expected, rtol=1e-13, atol=0.0)


# One d=3, n=8 kernel call and one d=2, n=16, oversample 4 transform pair,
# written to stdout as raw bytes.
_BLAS_RUN = """
import sys
import numpy as np
from kolmosim.cutoffs import CutoffProfile, InitialBounds
from kolmosim.estimates import RandomFieldSpec, admissible_state
from kolmosim.spectral import coefficients_to_real_grid, real_grid_to_coefficients, real_half
from kolmosim.system import ModelParams, member_rhs, pack
bounds = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)
params = ModelParams(alpha=1.0, s=2.0, bounds=bounds, oversample=4)
y = pack(admissible_state(RandomFieldSpec(dim=3, cutoff=8, rho=2.0, seed=1), bounds))
out, nu = member_rhs(real_half(y, 3)[None], 8, 0.05, params, CutoffProfile(bounds))
y = pack(admissible_state(RandomFieldSpec(dim=2, cutoff=16, rho=2.0, seed=2), bounds))
grid = coefficients_to_real_grid(real_half(y, 2), 16, 2, params.grid_points(16))
for arr in (out, nu, grid, real_grid_to_coefficients(grid, 16, 2)):
    sys.stdout.buffer.write(arr.tobytes())
"""


def test_results_do_not_depend_on_blas_threads():
    # the real pass is a BLAS product; one and two BLAS threads must give
    # the same bits
    src = os.path.dirname(os.path.dirname(system.__file__))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        runs.append(subprocess.run([sys.executable, "-c", _BLAS_RUN], env=env,
                                   capture_output=True, check=True, timeout=60).stdout)
    assert len(runs[0]) > 0 and runs[0] == runs[1]


class TestStateChecks:
    @pytest.mark.parametrize("defect, problem", [
        (None, None),
        ("t = -1", "negative time t = -1.0"),
        ("t = inf", "non-finite time t = inf"),
        ("t = nan", "non-finite time t = nan"),
        ("nan", "non-finite coefficients"),
        ("gradient", "div v != 0: residual"),
        ("asymmetric", "coefficients not conjugate-symmetric: residual"),
    ])
    def test_state_problems_and_validate(self, defect, problem):
        state = divergence_free_random_state(12)
        if defect and defect.startswith("t = "):
            state.t = float(defect[4:])
        elif defect == "nan":
            state.b.coeffs[7, 9] = np.nan
        elif defect == "gradient":
            state.v.components[0].coeffs[6, 7] += 0.25     # v_1 += cos(2 pi x_1) / 2
            state.v.components[0].coeffs[8, 7] += 0.25
        elif defect == "asymmetric":
            state.omega.coeffs[7, 9] += 0.1j
        problems = state_problems(state)
        if problem is None:
            assert problems == []
            state.validate()
        else:
            assert len(problems) == 1 and problems[0].startswith(problem)
            with pytest.raises(ValueError, match=problem):
                state.validate()

    @pytest.mark.parametrize("row", [1, 2, 3])      # v_2, omega, b: not the first field
    def test_nan_coefficient_makes_realness_residual_nan(self, row):
        state = divergence_free_random_state(13)
        field = state.fields()[row]
        field.coeffs[7, 9] = np.nan
        assert np.isnan(field.realness_residual())
        if row < state.dim:
            assert np.isnan(state.v.realness_residual())
        assert np.isnan(state.realness_residual())
        with pytest.raises(ValueError, match="non-finite coefficients"):
            state.validate()

    @pytest.mark.parametrize("dim, cutoff", [(2, 4), (2, 16), (3, 5)])
    def test_triple_norm_is_the_guards(self, dim, cutoff):
        """SimState.triple_norm_sq is triple_sq of the stack of the states'
        real halves, the blow-up guard's sum, bit for bit."""
        states = [divergence_free_random_state(seed, dim=dim, cutoff=cutoff)
                  for seed in range(3)]
        guard = triple_sq(real_half(np.stack([pack(st) for st in states]), dim), 2.0, dim,
                          cutoff)
        assert [st.triple_norm_sq(2.0) for st in states] == guard.tolist()

    @pytest.mark.parametrize("dim, cutoff", [(2, 4), (2, 16), (3, 5)])
    @pytest.mark.parametrize("s", [0.0, 2.0, 3.0])
    def test_triple_sq_on_halves_is_the_cube_sum(self, dim, cutoff, s):
        """On real stacks the half's weighted sum equals the cube formula
        (`oracles.cube_triple_sq`) to roundoff."""
        cubes = np.stack([pack(divergence_free_random_state(seed, dim=dim, cutoff=cutoff))
                          for seed in range(3)])
        got = triple_sq(real_half(cubes, dim), s, dim, cutoff)
        ref = cube_triple_sq(cubes, s)
        assert np.all(ref > 0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-14
