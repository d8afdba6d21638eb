"""Integrator checks: hand-computed RK4 oracle, closed-form decay targets,
observed convergence order, structural drift over long runs, determinism,
and the guard/abort paths."""

import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kolmosim import cli, integrators
from kolmosim.cutoffs import CutoffProfile, InitialBounds
from kolmosim.estimates import RandomFieldSpec, admissible_state
from kolmosim.integrators import IntegratorConfig, fix_up, integrate, integrate_lockstep
from kolmosim.spectral import (FOUR_PI_SQ, SpectralField, VectorSpectralField, _geometry,
                               div_residual, half_to_cube, real_half)
from kolmosim.storage import RunConfig, load_snapshot, save_snapshot
from kolmosim.system import ModelParams, SimState, member_rhs, pack
from oracles import cube_to_half, symmetrize

TIGHT = InitialBounds(b_min0=1.0, omega_min0=1.0, omega_max0=1.0, alpha=1.0)
WIDE = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)


def constant_state(dim=2, cutoff=4, w0=1.0, b0=1.0, t=0.0):
    v = VectorSpectralField.zeros(dim, cutoff)
    w = SpectralField.from_modes(dim, cutoff, {(0,) * dim: w0})
    b = SpectralField.from_modes(dim, cutoff, {(0,) * dim: b0})
    return SimState(v, w, b, t=t)


def make_params(alpha=1.0, s=2.0, bounds=TIGHT, oversample=2):
    return ModelParams(alpha=alpha, s=s, bounds=bounds, oversample=oversample)


def scalar_rk4(f, y, t, h):
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


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
    w = field(0.05, shift=1.0)
    b = field(0.05, shift=1.0)
    return SimState(v, w, b, t=0.0)


class TestRK4Oracle:
    def test_single_step_matches_scalar_rk4(self):
        # On a constant state the omega equation reduces to w' = -w^2.
        out = integrate(constant_state(), IntegratorConfig(method="rk4", dt=0.1, t_end=0.1),
                        make_params(), CutoffProfile(TIGHT)).final
        expected = scalar_rk4(lambda t, y: -y ** 2, 1.0, 0.0, 0.1)
        got = out.omega.mean().real
        assert abs(got - expected) < 1e-13
        assert abs(got - 0.909090) < 1e-5        # vs exact 1/1.1 = 0.909091

    def test_scalar_oracle_value(self):
        # Reference computed separately in exact rational arithmetic:
        # 22341824995300628959 / 24576000000000000000.
        expected = scalar_rk4(lambda t, y: -y ** 2, 1.0, 0.0, 0.1)
        assert abs(expected - 0.9090911863322196) < 1e-15

    def test_step_is_the_textbook_sum(self):
        # the in-place step against arr + (h/6)(k1 + 2 k2 + 2 k3 + k4) with
        # fresh temporaries, on a two-member stack; arr is left as it was
        params, profile = make_params(bounds=WIDE), CutoffProfile(WIDE)
        arr = real_half(np.stack([pack(divergence_free_random_state(70 + i, cutoff=6))
                                  for i in range(2)]), 2)
        datum = arr.copy()
        t, h = 0.01, 1.25e-4

        def f(tau, y):
            return member_rhs(y, 6, tau, params, profile)[0]

        k1 = f(t, arr)
        k2 = f(t + 0.5 * h, arr + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, arr + 0.5 * h * k2)
        k4 = f(t + h, arr + h * k3)
        expected = arr + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = integrators.rk4_step(arr, 6, t, h, params, profile)
        assert np.array_equal(got, expected)
        assert np.array_equal(arr, datum)


class TestClosedFormDecay:
    def test_rk45_hits_closed_forms(self):
        # From (v, w, b) = (0, 1, 1) with alpha = 1: w(t) = b(t) = 1/(1+t).
        config = IntegratorConfig(method="rk45", abs_tol=1e-10, rel_tol=1e-10,
                                  t_end=1.0)
        traj = integrate(constant_state(), config, make_params(),
                         CutoffProfile(TIGHT))
        assert traj.status == "completed"
        final = traj.final
        assert abs(final.t - 1.0) < 1e-12
        assert abs(final.omega.mean().real - 0.5) <= 1e-8
        assert abs(final.b.mean().real - 0.5) <= 1e-8
        assert final.v.hs_norm_sq(0.0) < 1e-20

    def test_rk4_matches_ode_solution(self):
        config = IntegratorConfig(method="rk4", dt=1e-3, t_end=1.0)
        traj = integrate(constant_state(), config, make_params(),
                         CutoffProfile(TIGHT))
        assert abs(traj.final.omega.mean().real - 0.5) < 1e-10


class TestConvergenceOrder:
    def test_rk4_observed_order(self):
        # cutoff 2 keeps dt = 1e-2 inside the diffusion stability bound, so
        # the error is purely the time discretization of the reaction ODE.
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            config = IntegratorConfig(method="rk4", dt=dt, t_end=0.5)
            traj = integrate(constant_state(cutoff=2), config, make_params(),
                             CutoffProfile(TIGHT))
            errs.append(abs(traj.final.omega.mean().real - 1.0 / 1.5))
        p1 = np.log2(errs[0] / errs[1])
        p2 = np.log2(errs[1] / errs[2])
        assert 3.7 <= p1 <= 4.3
        assert 3.7 <= p2 <= 4.3


class TestStructuralDrift:
    def test_thousand_step_drift(self):
        state = divergence_free_random_state(7, dim=2, cutoff=16)
        dt = 5e-5
        config = IntegratorConfig(method="rk4", dt=dt, t_end=1000 * dt,
                                  monitor_every=250)
        traj = integrate(state, config, make_params(bounds=WIDE),
                         CutoffProfile(WIDE))
        assert traj.status == "completed"
        assert traj.steps == 1000 and traj.evaluations == 4000
        assert traj.final.div_residual() <= 1e-9
        assert traj.final.realness_residual() <= 1e-11

    def test_states_are_exactly_conjugate_symmetric(self):
        # a datum off symmetry by roundoff (as a snapshot may be) is stepped
        # from its real part; from there every state is exactly Hermitian
        state = divergence_free_random_state(17, dim=2, cutoff=6)
        state.omega.coeffs[5, 6] += 1e-13
        for method in ("rk4", "rk45"):
            config = IntegratorConfig(method=method, dt=1e-3, t_end=0.01,
                                      monitor_every=1)
            traj = integrate(state, config, make_params(bounds=WIDE),
                             CutoffProfile(WIDE))
            assert traj.status == "completed"
            assert [st.realness_residual() for st in traj.states[1:]] == \
                [0.0] * (len(traj.states) - 1)

    def test_determinism_fixed_dt(self):
        state = divergence_free_random_state(11, dim=2, cutoff=8)
        config = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.02)
        runs = [integrate(state, config, make_params(bounds=WIDE),
                          CutoffProfile(WIDE)) for _ in range(2)]
        assert np.array_equal(pack(runs[0].final), pack(runs[1].final))


class TestDegenerateCases:
    def test_zero_t_end_returns_initial_only(self):
        config = IntegratorConfig(method="rk45", t_end=0.0)
        traj = integrate(constant_state(), config, make_params(),
                         CutoffProfile(TIGHT))
        assert len(traj.states) == 1
        assert traj.states[0].t == 0.0
        assert traj.steps == 0

    def test_single_mode_layout(self):
        # cutoff 1 keeps only the mean mode; the system IS the scalar ODE.
        out = integrate(constant_state(cutoff=1),
                        IntegratorConfig(method="rk4", dt=0.1, t_end=0.1), make_params(),
                        CutoffProfile(TIGHT)).final
        expected = scalar_rk4(lambda t, y: -y ** 2, 1.0, 0.0, 0.1)
        assert abs(out.omega.mean().real - expected) < 1e-14

    def test_zero_state_is_stationary(self):
        # All fields zero: every advective, diffusive and reaction term
        # vanishes, and the cutoffs keep nubar finite, so nothing moves.
        state = SimState(VectorSpectralField.zeros(2, 4),
                         SpectralField.zeros(2, 4), SpectralField.zeros(2, 4))
        config = IntegratorConfig(method="rk4", dt=1e-2, t_end=0.1)
        traj = integrate(state, config, make_params(), CutoffProfile(TIGHT))
        final = traj.final
        assert abs(final.t - 0.1) < 1e-12
        assert np.max(np.abs(pack(final))) == 0.0

    def test_blowup_guard_trips(self):
        state = divergence_free_random_state(3, dim=2, cutoff=8)
        config = IntegratorConfig(method="rk4", dt=1e-4, t_end=1.0,
                                  monitor_every=1, blowup_factor=1e-6)
        traj = integrate(state, config, make_params(bounds=WIDE),
                         CutoffProfile(WIDE))
        assert traj.status == "aborted-blowup"
        assert "guard" in traj.message
        assert traj.final.t < 1.0

    def test_non_positive_blowup_factor_refused(self):
        # a guard at or below zero would abort every run at its first sample
        for factor in (0.0, -1.0):
            with pytest.raises(ValueError, match="blowup_factor"):
                IntegratorConfig(blowup_factor=factor)

    def test_unstable_step_reports_failure(self):
        state = divergence_free_random_state(5, dim=2, cutoff=16)
        config = IntegratorConfig(method="rk4", dt=0.5, t_end=50.0,
                                  monitor_every=1_000_000)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(state, config, make_params(bounds=WIDE),
                             CutoffProfile(WIDE))
        assert traj.status == "failed-nonfinite"
        assert np.all(np.isfinite(pack(traj.final)))

    def test_divergence_emits_no_warnings(self):
        # the stages run with floating-point warnings silenced: a diverging
        # run is reported by its status, not by a flood of RuntimeWarnings
        state = divergence_free_random_state(5, dim=2, cutoff=16)
        config = IntegratorConfig(method="rk4", dt=0.5, t_end=50.0,
                                  monitor_every=1_000_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(state, config, make_params(bounds=WIDE),
                             CutoffProfile(WIDE))
        assert traj.status == "failed-nonfinite"
        assert "non-finite" in traj.message
        assert np.all(np.isfinite(pack(traj.final)))

    def test_nonfinite_exit_keeps_the_last_finite_state(self, tmp_path):
        # the diverging datum's first step is finite, its second is not: the
        # state of the first is the run's final sample, and the hook (which
        # writes it here, as simulate does) sees it
        state = divergence_free_random_state(5, dim=2, cutoff=16)
        config = IntegratorConfig(method="rk4", dt=0.5, t_end=50.0,
                                  monitor_every=1_000_000)
        paths = []

        def save(member, st):
            paths.append(str(tmp_path / f"snapshot_{len(paths)}.kolm"))
            save_snapshot(st, paths[-1])

        traj = integrate(state, config, make_params(bounds=WIDE), CutoffProfile(WIDE),
                         on_sample=save)
        assert traj.status == "failed-nonfinite" and traj.steps == 1
        assert "at t = 1, h = 0.5" in traj.message
        assert [st.t for st in traj.states] == [0.0, 0.5]
        assert np.all(np.isfinite(pack(traj.final)))
        on_disk = load_snapshot(paths[-1])
        assert len(paths) == 2 and on_disk.t == 0.5
        assert np.array_equal(pack(on_disk), pack(traj.final))

    def test_step_size_underflow_keeps_the_last_accepted_state(self, monkeypatch):
        # every stage past t = 0.002 is non-finite, so rk45 shrinks its step
        # to the floor there; the last accepted state is the final sample
        kernel = integrators.rhs

        def failing_rhs(ys, cutoff, t, *args):
            f, nu = kernel(ys, cutoff, t, *args)
            return (f * np.nan if t > 0.002 else f), nu

        monkeypatch.setattr(integrators, "rhs", failing_rhs)
        seen = []
        config = IntegratorConfig(method="rk45", dt=1e-3, t_end=0.01, monitor_every=100)
        traj = integrate(divergence_free_random_state(86, cutoff=6), config,
                         make_params(bounds=WIDE), CutoffProfile(WIDE),
                         on_sample=lambda m, st: seen.append(st))
        assert traj.status == "failed-nonfinite" and "underflow" in traj.message
        assert len(traj.states) == 2 and seen == traj.states
        assert traj.final.t == pytest.approx(0.002) and traj.final.t <= 0.002
        assert np.all(np.isfinite(pack(traj.final)))

    def test_step_size_underflow_after_rejected_steps(self):
        # no step meets a tolerance of 1e-300: h 0.9 / r would fall below
        # the floor at once, so every retry takes the 0.2 shrink, and the
        # 13th reaches the floor from dt = 1e-3
        config = IntegratorConfig(method="rk45", dt=1e-3, abs_tol=1e-300, rel_tol=1e-300,
                                  t_end=0.01, monitor_every=100)
        traj = integrate(divergence_free_random_state(86, cutoff=6), config,
                         make_params(bounds=WIDE), CutoffProfile(WIDE))
        assert (traj.status, traj.message) == ("failed-stepsize",
                                               "step size underflow at t = 0, h = 1e-12")
        assert (traj.steps, traj.rejected, len(traj.states)) == (0, 13, 1)

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_max_steps_exhausted(self, monkeypatch, method):
        # a run that takes MAX_STEPS accepted steps short of t_end fails
        # with a status of its own, keeping its last state as final sample
        monkeypatch.setattr(integrators, "MAX_STEPS", 3)
        config = IntegratorConfig(method=method, dt=1e-3, t_end=0.01, monitor_every=2)
        traj = integrate(divergence_free_random_state(86, cutoff=6), config,
                         make_params(bounds=WIDE), CutoffProfile(WIDE))
        assert (traj.status, traj.message) == ("failed-maxsteps", "3 steps exhausted")
        assert traj.steps == 3 and len(traj.states) == 3
        assert traj.final.t < 0.01 and np.all(np.isfinite(pack(traj.final)))


class TestIntegratingFactor:
    def test_single_b_mode_decays_at_the_exact_rate(self):
        # On criterion 02's background (v, w, b) = (0, 1, 1) with WIDE bounds
        # nubar = b/w = 1, so a small b mode at k obeys
        # beta' = -4 pi^2 |k|^2 beta - w beta, i.e. eps e^{-4 pi^2 |k|^2 t}/(1+t);
        # its eps^2 products land on k = 0 and on 2k, outside the ball.
        eps, k, n, t_end = 1e-6, (3, 6), 8, 0.005
        state = constant_state(cutoff=n)
        state.b = SpectralField.from_modes(2, n, {(0, 0): 1.0, k: eps, (-3, -6): eps})
        config = IntegratorConfig(method="rk45", dt=1e-3, abs_tol=1e-12, rel_tol=1e-8,
                                  t_end=t_end)
        traj = integrate(state, config, make_params(bounds=WIDE), CutoffProfile(WIDE))
        assert traj.status == "completed"
        exact = eps * np.exp(-FOUR_PI_SQ * 45 * t_end) / (1.0 + t_end)
        got = traj.final.b.coeffs[n - 1 + k[0], n - 1 + k[1]]
        assert abs(got - exact) <= 1e-8 * exact
        # the explicit stability limit 2.9 / lambda_max would need 3.3 steps
        lam_max = FOUR_PI_SQ * (n - 1) ** 2
        assert traj.steps < t_end * lam_max / 2.9

    def test_rates_are_the_kernel_response_at_unit_viscosity(self):
        # On the same background small modes of v, w and b decay at their
        # rows' rates, half on the velocity rows, plus the linearized
        # reactions -2 w and -w of the omega and b rows
        eps, n = 1e-7, 6
        kv, kw, kb = (1, 2), (2, -1), (0, 3)

        def mode(k, amp):
            return SpectralField.from_modes(2, n, {k: amp, tuple(-a for a in k): amp})

        state = constant_state(cutoff=n)
        state.v = VectorSpectralField((mode(kv, -2 * eps), mode(kv, eps)))   # k . v = 0
        state.omega = state.omega + mode(kw, eps)
        state.b = state.b + mode(kb, eps)
        y = pack(state)
        f = half_to_cube(integrators.rhs(cube_to_half(y, 2)[None], n, 0.0, make_params(bounds=WIDE),
                                         CutoffProfile(WIDE))[0][0], 2, n)
        rates = half_to_cube(integrators._diffusion_rates(2, n)[integrators._rate_class(2)],
                             2, n).real
        for row, k, reaction in ((0, kv, 0.0), (1, kv, 0.0), (2, kw, -2.0), (3, kb, -1.0)):
            at = (row, n - 1 + k[0], n - 1 + k[1])
            assert f[at].real / y[at].real == pytest.approx(rates[at] + reaction, rel=1e-6)
        assert rates[0, n - 1 + kv[0], n - 1 + kv[1]] == -0.5 * FOUR_PI_SQ * 5


class TestErrorNorm:
    def test_rms_runs_over_the_ball(self):
        # the cube's corners outside the ball hold no unknowns: averaging
        # them in would scale the ratio by sqrt(ball/cube), 0.91 at d=2,
        # n=16 and 0.82 at d=3, n=6
        # the loop reads it from canonical halves, each pair {k, -k} counted
        # twice and k = 0 once: on a conjugate-symmetric error of any
        # magnitudes it is the ball RMS of the expanded cube
        rng = np.random.default_rng(5)
        for dim, cutoff in ((2, 16), (3, 6)):
            geo = _geometry(dim, cutoff)
            ball = geo.ball
            err = np.zeros((dim + 2,) + ball.shape, dtype=complex)
            y = np.zeros_like(err)
            err[:, ball] = 3e-8 * np.exp(2j * np.pi * rng.random((dim + 2, ball.sum())))
            y[:, ball] = 2.0
            y_half = cube_to_half(y, dim)
            ratio = integrators._error_ratio(cube_to_half(err, dim), y_half, 0.5 * y_half,
                                             1e-8, 1e-8, geo.half_weight)
            assert ratio == pytest.approx(1.0, rel=1e-12)   # |err| / (1e-8 + 2e-8)
            sym = symmetrize(err * rng.random(err.shape), dim)
            cube_rms = np.sqrt(np.mean((np.abs(sym[:, ball]) / 3e-8) ** 2))
            ratio = integrators._error_ratio(cube_to_half(sym, dim), y_half, 0.5 * y_half,
                                             1e-8, 1e-8, geo.half_weight)
            assert 0.3 < cube_rms < 0.9
            assert ratio == pytest.approx(cube_rms, rel=1e-12)


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        # an exactly real state comes back from its real part's half with
        # the same pack, bit for bit; on a stack of cubes that are not real
        # real_half is cube_to_half(symmetrize(c)) bit for bit
        rng = np.random.default_rng(12)
        for dim, cutoff in ((2, 6), (3, 4)):
            state = divergence_free_random_state(9, dim=dim, cutoff=cutoff)
            arr = pack(state)
            assert state.realness_residual() == 0.0
            back = SimState.from_half(real_half(arr, dim), dim, cutoff, state.t)
            assert np.array_equal(pack(back), arr) and back.t == state.t
            cubes = arr + rng.normal(size=arr.shape) + 1j * rng.normal(size=arr.shape)
            half = real_half(cubes, dim)
            assert half.flags.c_contiguous
            assert np.array_equal(half, cube_to_half(symmetrize(cubes, dim), dim))
            assert not np.array_equal(half, cube_to_half(cubes, dim))

    def test_projection_helper_matches_field_method(self):
        state = divergence_free_random_state(13, dim=2, cutoff=6)
        arr = pack(state)
        arr[0] += 0.01 * arr[1]        # break the divergence-free property
        stack, reprojected = fix_up(cube_to_half(arr, 2)[None], 2, 6)
        projected = half_to_cube(stack[0], 2, 6)
        v = VectorSpectralField(tuple(SpectralField(2, 6, arr[i].copy())
                                      for i in range(2))).leray_project()
        expected = np.stack([c.coeffs for c in v.components])
        assert reprojected.tolist() == [True]
        assert np.allclose(projected[:2], expected, atol=1e-14)
        assert div_residual(stack[0, :2], 2, 6) < 1e-13


class TestStepControl:
    def test_shrink_without_history_assumes_order_five(self):
        for ratio in (1.5, 9.09, 1e6):       # 1e6 hits the 0.2 floor
            assert integrators._shrink(0.01, ratio, None) == \
                0.01 * max(0.2, 0.9 * ratio ** -0.2)

    def test_shrink_follows_a_first_order_error(self):
        # halving h halved the ratio: the error scales like h, so 0.9 / r
        assert integrators._shrink(0.01, 1.5, (0.02, 3.0)) == pytest.approx(0.006, rel=1e-12)
        assert integrators._shrink(0.01, 9.0, (0.02, 18.0)) == pytest.approx(0.002, rel=1e-12)

    def test_shrink_clamps_the_order_at_five(self):
        # an h^7 pair is taken as order 5
        assert integrators._shrink(0.01, 1.5, (0.02, 1.5 * 2 ** 7)) == \
            pytest.approx(integrators._shrink(0.01, 1.5, None), rel=1e-12)

    def test_shrink_keeps_order_five_when_the_ratio_did_not_fall(self):
        for r_prev in (1.5, 1.2):
            assert integrators._shrink(0.01, 1.5, (0.02, r_prev)) == \
                integrators._shrink(0.01, 1.5, None)

    @staticmethod
    def scripted_run(monkeypatch, ratios, steps):
        """The sample times of an rk45 run from dt = 1e-3 whose attempts see
        the error ratios scripted, stopped after that many accepted steps."""
        script = iter(ratios)
        monkeypatch.setattr(integrators, "_error_ratio", lambda *args: next(script))
        monkeypatch.setattr(integrators, "MAX_STEPS", steps)
        config = IntegratorConfig(method="rk45", dt=1e-3, t_end=1.0, monitor_every=1)
        traj = integrate(divergence_free_random_state(86, cutoff=6), config,
                         make_params(bounds=WIDE), CutoffProfile(WIDE))
        assert traj.status == "failed-maxsteps" and traj.steps == steps
        assert traj.rejected == len(ratios) - steps
        return [st.t for st in traj.states]

    def test_datum_rejection_retries_at_order_one(self, monkeypatch):
        # r = 1e3 at the datum: h 0.9 / r, where the 0.2 floor would give 0.2h
        times = self.scripted_run(monkeypatch, [1e3, 0.5], 1)
        assert times == [0.0, 1e-3 * 0.9 / 1e3]

    def test_datum_retry_below_the_floor_shrinks(self, monkeypatch):
        # r = 1e12 at the datum: h 0.9 / r is below MIN_DT, so the retry is
        # the floored shrink, 0.2h, and the run goes on
        times = self.scripted_run(monkeypatch, [1e12, 0.5], 1)
        assert times == [0.0, integrators._shrink(1e-3, 1e12, None)] == [0.0, 2e-4]

    def test_rough_datum_at_tight_tolerance_completes(self):
        # rho = 1.2 on 64^2: at 1e-12 the first try reads r = 5.8e9, whose
        # order-1 retry would be 1.5e-13, below MIN_DT
        config = RunConfig()
        for key, value in (("rho", 1.2), ("v_scale", 0.5), ("seed", 1), ("oversample", 2),
                           ("abs_tol", 1e-12), ("rel_tol", 1e-12), ("t_end", 1e-3)):
            config[key] = value
        run = config.validate()
        traj = integrate(cli.initial_state(config), run.integrator, run.model,
                         CutoffProfile(run.bounds))
        assert traj.status == "completed" and traj.final.t == pytest.approx(1e-3)

    def test_later_rejection_shrinks(self, monkeypatch):
        times = self.scripted_run(monkeypatch, [0.5, 2.0, 0.5], 2)
        h = 1e-3 * 0.9 * 0.5 ** -0.2          # grown at order 5, then rejected
        assert times[1] == 1e-3
        assert times[2] - times[1] == pytest.approx(integrators._shrink(h, 2.0, None),
                                                    rel=1e-9)

    def test_growth_after_a_retry_follows_the_observed_order(self, monkeypatch):
        times = self.scripted_run(monkeypatch, [1e3, 0.5, 0.5], 2)
        h = 1e-3 * 0.9 / 1e3
        q = integrators._observed_order(h, 0.5, (1e-3, 1e3))
        assert 1.0 < q < 1.1
        assert times[1] == h
        assert times[2] - times[1] == pytest.approx(h * 0.9 * 0.5 ** (-1 / q), rel=1e-9)

    def test_plain_growth_is_order_five(self, monkeypatch):
        # 0.9 r^(-1/5): 1.03 at r = 0.5, 2.26 at r = 0.01, capped at 5 for 1e-9
        times = self.scripted_run(monkeypatch, [0.5, 0.01, 1e-9, 0.5], 4)
        steps = np.diff(times)
        assert steps[0] == 1e-3
        assert steps[1:] == pytest.approx(1e-3 * 0.9 * 0.5 ** -0.2 * np.array(
            [1.0, 0.9 * 0.01 ** -0.2, 0.9 * 0.01 ** -0.2 * 5.0]), rel=1e-9)

    def test_envelope_datum_finds_its_first_step_in_few_tries(self):
        # criterion 03's datum: at t = 0 the error falls only like h^1.1, so
        # from dt = 1e-3 the order-5 shrink alone would reject 7 attempts;
        # the datum's order-1 retry meets the tolerance at the first
        spec = RandomFieldSpec(dim=2, cutoff=16, rho=2.5, seed=0)
        state = admissible_state(spec, WIDE, index=0, v_scale=0.2)
        config = IntegratorConfig(method="rk45", dt=1e-3, abs_tol=1e-7, rel_tol=1e-7,
                                  t_end=0.005, monitor_every=20)
        traj = integrate(state, config, make_params(bounds=WIDE), CutoffProfile(WIDE))
        assert traj.status == "completed" and traj.final.t == pytest.approx(0.005)
        assert (traj.steps, traj.rejected, traj.evaluations) == (10, 1, 67)


class TestStageReuse:
    def test_fsal_stage_survives_the_mirror_average(self, monkeypatch):
        # fix_up runs after every accepted step; with no Leray re-projection
        # it leaves the state, and so the FSAL stage, as they are: each
        # accepted or rejected RK45 step costs six RHS evaluations, and the
        # first step adds one for its k1.
        calls, projections = [0], [0]
        kernel = integrators.rhs
        fix = integrators.fix_up

        def counting_rhs(*args, **kwargs):
            calls[0] += 1
            return kernel(*args, **kwargs)

        def counting_fix_up(*args):
            stack, reprojected = fix(*args)
            projections[0] += int(reprojected.any())
            return stack, reprojected

        monkeypatch.setattr(integrators, "rhs", counting_rhs)
        monkeypatch.setattr(integrators, "fix_up", counting_fix_up)
        state = divergence_free_random_state(21, dim=2, cutoff=6)
        config = IntegratorConfig(method="rk45", dt=0.05, abs_tol=1e-7,
                                  rel_tol=1e-7, t_end=0.02)
        traj = integrate(state, config, make_params(bounds=WIDE), CutoffProfile(WIDE))
        assert traj.status == "completed"
        assert traj.rejected >= 1 and projections[0] == 0
        assert calls[0] == 6 * (traj.steps + traj.rejected) + 1
        assert traj.evaluations == calls[0]

    def test_concurrent_integrations_match_serial(self):
        # Each thread keeps its own kernel buffers, so two threads at
        # different sizes reproduce the serial runs bit for bit.
        assert_threads_match_serial([(divergence_free_random_state(31, dim=2, cutoff=6), 2),
                                     (divergence_free_random_state(32, dim=2, cutoff=8), 3)])

    def test_concurrent_integrations_of_one_size_match_serial(self):
        # the same size in both threads: buffers cached per size but shared
        # between threads would be overwritten by the other thread's stages
        assert_threads_match_serial([(divergence_free_random_state(33, dim=2, cutoff=8), 2),
                                     (divergence_free_random_state(34, dim=2, cutoff=8), 2)])


class TestHalfLayout:
    def test_rk45_expands_to_the_cube_once_per_sample(self, monkeypatch):
        # the loop carries canonical halves, and its blow-up guard reads
        # them: it expands each member to cubes only for the states it
        # samples after the datum, which it keeps as given
        calls = [0]
        expand = SimState.from_half

        def counting_from_half(cls, *args):
            calls[0] += 1
            return expand(*args)

        monkeypatch.setattr(SimState, "from_half", classmethod(counting_from_half))
        config = IntegratorConfig(method="rk45", dt=1e-3, abs_tol=1e-7, rel_tol=1e-7,
                                  t_end=0.01, monitor_every=2)
        states = [divergence_free_random_state(81, cutoff=6), constant_state(cutoff=6)]
        runs = integrate_lockstep(states, config, make_params(bounds=WIDE), CutoffProfile(WIDE))
        assert [r.status for r in runs] == ["completed", "completed"]
        assert runs[0].steps >= 4 and len(runs[0].states) == len(runs[1].states) >= 3
        assert calls[0] == 2 * (len(runs[0].states) - 1)


def assert_threads_match_serial(runs):
    """Integrations of (state, oversample) run on one thread each reproduce
    their serial runs bit for bit."""
    config = IntegratorConfig(method="rk45", dt=1e-3, t_end=0.01)

    def run(state, oversample):
        traj = integrate(state, config, make_params(bounds=WIDE, oversample=oversample),
                         CutoffProfile(WIDE))
        return pack(traj.final)

    serial = [run(*args) for args in runs]
    threaded = [None] * len(runs)

    def worker(i):
        threaded[i] = run(*runs[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(runs))]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
        assert not th.is_alive()
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def drifting_state(seed, dim=2, cutoff=6):
    """A state whose velocity has a small gradient part, so the first fix-up
    re-projects it."""
    arr = pack(divergence_free_random_state(seed, dim=dim, cutoff=cutoff))
    arr[0] += 1e-6 * arr[1]
    return SimState.from_half(real_half(arr, dim), dim, cutoff, 0.0)


def assert_same_run(got, solo):
    assert (got.status, got.message, got.steps, got.rejected) == \
        (solo.status, solo.message, solo.steps, solo.rejected)
    assert len(got.states) == len(solo.states)
    for a, b in zip(got.states, solo.states):
        assert a.t == b.t
        assert np.array_equal(pack(a), pack(b))


class TestLockstep:
    def test_rk4_members_match_solo_runs(self):
        # d=2 with one member whose drift triggers the re-projection, and a
        # small d=3 pair: every member is bit-identical to its solo run
        config = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.01, monitor_every=3)
        params = make_params(bounds=WIDE)
        cases = [[divergence_free_random_state(61, cutoff=6), drifting_state(62),
                  constant_state(cutoff=6)],
                 [divergence_free_random_state(63, dim=3, cutoff=3),
                  divergence_free_random_state(64, dim=3, cutoff=3)]]
        for states in cases:
            solo = [integrate(st, config, params, CutoffProfile(WIDE)) for st in states]
            runs = integrate_lockstep(states, config, params, CutoffProfile(WIDE))
            for got, ref in zip(runs, solo):
                assert got.status == "completed" and got.steps == 10
                assert_same_run(got, ref)

    def test_identical_members_stay_identical(self):
        # the uniqueness probe's zero perturbation: two copies of one state
        # in one stack must give the same bits at every sample, so e stays
        # exactly 0 (20 probe-size rk4 steps)
        state = admissible_state(RandomFieldSpec(dim=2, cutoff=6, rho=2.5, seed=0), WIDE,
                                 index=0, v_scale=0.25)
        config = IntegratorConfig(method="rk4", dt=1.25e-4, t_end=20 * 1.25e-4,
                                  monitor_every=5)
        runs = integrate_lockstep([state, state], config, make_params(bounds=WIDE),
                                  CutoffProfile(WIDE))
        assert [(r.status, r.steps) for r in runs] == [("completed", 20)] * 2
        assert len(runs[0].states) == 5
        for a, b in zip(runs[0].states, runs[1].states):
            assert a.t == b.t and np.array_equal(pack(a), pack(b))

    def test_drifting_member_is_reprojected(self, monkeypatch):
        # the re-projection decision is per member: one row, once
        rows = []
        fix = integrators.fix_up

        def recording_fix_up(*args):
            stack, reprojected = fix(*args)
            if reprojected.any():
                rows.append(int(reprojected.sum()))
            return stack, reprojected

        monkeypatch.setattr(integrators, "fix_up", recording_fix_up)
        config = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.003)
        integrate_lockstep([divergence_free_random_state(61, cutoff=6), drifting_state(62)],
                           config, make_params(bounds=WIDE), CutoffProfile(WIDE))
        assert rows == [1]

    def test_nonfinite_member_leaves_with_its_solo_run(self):
        diverging = divergence_free_random_state(5, dim=2, cutoff=16)
        steady = constant_state(cutoff=16)
        config = IntegratorConfig(method="rk4", dt=0.5, t_end=5.0, monitor_every=2)
        params = make_params(bounds=WIDE)
        solo = [integrate(st, config, params, CutoffProfile(WIDE))
                for st in (diverging, steady)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = integrate_lockstep([diverging, steady], config, params, CutoffProfile(WIDE))
        assert runs[0].status == "failed-nonfinite" and runs[1].status == "completed"
        assert "h = 0.5" in runs[0].message
        for got, ref in zip(runs, solo):
            assert_same_run(got, ref)

    def test_guard_trip_leaves_with_its_solo_run(self):
        # X/(2 X0 + 1) stays near 0.4 for the constant state and falls from
        # 0.5 to about 0.14 by t = 1e-3 for the random one, so a factor of 0.3
        # aborts only the constant state, at its first sample
        tripping = constant_state(cutoff=8)
        steady = divergence_free_random_state(3, dim=2, cutoff=8)
        config = IntegratorConfig(method="rk4", dt=1e-4, t_end=0.002,
                                  monitor_every=10, blowup_factor=0.3)
        params = make_params(bounds=WIDE)
        solo = [integrate(st, config, params, CutoffProfile(WIDE))
                for st in (tripping, steady)]
        runs = integrate_lockstep([tripping, steady], config, params, CutoffProfile(WIDE))
        assert runs[0].status == "aborted-blowup" and runs[0].steps == 10
        assert runs[1].status == "completed" and runs[1].steps == 20
        for got, ref in zip(runs, solo):
            assert_same_run(got, ref)

    def test_rk45_members_share_steps(self):
        # the shared step follows the largest error ratio: the constant
        # state's is always the smaller one, so the random state's run is
        # its solo run, and the constant state samples at the same times
        states = [constant_state(cutoff=6), divergence_free_random_state(71, cutoff=6)]
        config = IntegratorConfig(method="rk45", dt=1e-3, abs_tol=1e-7, rel_tol=1e-7,
                                  t_end=0.01, monitor_every=2)
        params = make_params(bounds=WIDE)
        runs = integrate_lockstep(states, config, params, CutoffProfile(WIDE))
        assert [r.status for r in runs] == ["completed", "completed"]
        assert runs[0].steps == runs[1].steps and runs[0].rejected == runs[1].rejected
        assert np.array_equal(runs[0].times, runs[1].times)
        assert abs(runs[0].final.t - 0.01) < 1e-12
        assert_same_run(runs[1], integrate(states[1], config, params, CutoffProfile(WIDE)))

    def test_members_of_other_layouts_refused(self):
        config = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.002)
        later = divergence_free_random_state(73, cutoff=6)
        later.t = 0.001
        for other in (divergence_free_random_state(74, cutoff=5), later):
            with pytest.raises(ValueError, match="share"):
                integrate_lockstep([divergence_free_random_state(75, cutoff=6), other],
                                   config, make_params(bounds=WIDE), CutoffProfile(WIDE))


class TestSampleHook:
    @staticmethod
    def recorder(seen):
        def on_sample(member, state):
            seen.append((member, state))
        return on_sample

    def test_hook_changes_no_number_of_the_run(self):
        # rk4, rk45 (with rejections) and a two-member lockstep: the same
        # states, steps, rejected steps and evaluations with and without the
        # hook, and the hook sees each member's states in order
        params = make_params(bounds=WIDE)
        rk4 = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.01, monitor_every=3)
        rk45 = IntegratorConfig(method="rk45", dt=0.05, abs_tol=1e-7, rel_tol=1e-7,
                                t_end=0.01, monitor_every=2)
        cases = [(rk4, [divergence_free_random_state(81, cutoff=6)]),
                 (rk45, [divergence_free_random_state(82, cutoff=6)]),
                 (rk4, [drifting_state(83), constant_state(cutoff=6)])]
        for config, states in cases:
            plain = integrate_lockstep(states, config, params, CutoffProfile(WIDE))
            seen = []
            hooked = integrate_lockstep(states, config, params, CutoffProfile(WIDE),
                                        on_sample=self.recorder(seen))
            for member, (got, ref) in enumerate(zip(hooked, plain)):
                assert got.status == "completed"
                assert (got.steps, got.rejected, got.evaluations) == \
                    (ref.steps, ref.rejected, ref.evaluations)
                assert_same_run(got, ref)
                mine = [st for m, st in seen if m == member]
                assert [id(st) for st in mine] == [id(st) for st in got.states]
            assert (hooked[0].rejected >= 1) == (config is rk45)

    def test_datum_is_sampled_before_the_first_kernel_call(self, monkeypatch):
        events = []
        kernel = integrators.rhs

        def recording_rhs(*args, **kwargs):
            events.append("rhs")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(integrators, "rhs", recording_rhs)
        state = divergence_free_random_state(84, cutoff=6)
        for method in ("rk4", "rk45"):
            events.clear()
            config = IntegratorConfig(method=method, dt=1e-3, t_end=0.002, monitor_every=1)
            integrate(state, config, make_params(bounds=WIDE), CutoffProfile(WIDE),
                      on_sample=lambda m, st: events.append(("sample", st.t)))
            assert events[0] == ("sample", 0.0) and events[1] == "rhs"
            assert [e for e in events if e != "rhs"] == \
                [("sample", 0.0), ("sample", 0.001), ("sample", 0.002)]
        # with nothing to step, the datum is still sampled, and a message ends it
        events.clear()
        config = IntegratorConfig(method="rk4", dt=1e-3, t_end=0.0)
        traj = integrate(state, config, make_params(bounds=WIDE), CutoffProfile(WIDE),
                         on_sample=lambda m, st: events.append(st.t) or "stop")
        assert events == [0.0]
        assert (traj.status, traj.message, traj.steps, len(traj.states)) == \
            ("aborted-monitor", "stop", 0, 1)

    def test_hook_stop_leaves_with_its_solo_prefix(self):
        # the hook stops member 0 at its second sample (t = 1e-3); member 1
        # runs on to its full solo run
        stopped = divergence_free_random_state(85, dim=2, cutoff=8)
        steady = divergence_free_random_state(3, dim=2, cutoff=8)
        config = IntegratorConfig(method="rk4", dt=1e-4, t_end=0.002, monitor_every=10)
        params = make_params(bounds=WIDE)
        solo = [integrate(st, config, params, CutoffProfile(WIDE))
                for st in (stopped, steady)]
        counts = [0, 0]

        def stop_member_0_at_its_second_sample(member, state):
            counts[member] += 1
            return "enough" if member == 0 and counts[0] == 2 else None

        runs = integrate_lockstep([stopped, steady], config, params, CutoffProfile(WIDE),
                                  on_sample=stop_member_0_at_its_second_sample)
        assert counts == [2, 3]
        assert (runs[0].status, runs[0].message, runs[0].steps) == ("aborted-monitor",
                                                                    "enough", 10)
        assert runs[0].evaluations == 40 and len(runs[0].states) == 2
        for got, ref in zip(runs[0].states, solo[0].states):
            assert got.t == ref.t and np.array_equal(pack(got), pack(ref))
        assert runs[1].status == "completed" and runs[1].steps == 20
        assert_same_run(runs[1], solo[1])

    def test_hook_stop_at_the_datum_leaves_before_the_first_step(self):
        # member 0 is stopped at its datum with t_end still ahead; member 1
        # runs its full solo run
        stopped = divergence_free_random_state(85, dim=2, cutoff=8)
        steady = divergence_free_random_state(3, dim=2, cutoff=8)
        config = IntegratorConfig(method="rk4", dt=1e-4, t_end=0.002, monitor_every=5)
        params = make_params(bounds=WIDE)
        runs = integrate_lockstep([stopped, steady], config, params, CutoffProfile(WIDE),
                                  on_sample=lambda m, st: "stop" if m == 0 else None)
        assert (runs[0].status, runs[0].message, runs[0].steps) == ("aborted-monitor",
                                                                    "stop", 0)
        assert len(runs[0].states) == 1 and np.array_equal(pack(runs[0].final), pack(stopped))
        assert runs[1].status == "completed" and len(runs[1].states) == 5
        assert_same_run(runs[1], integrate(steady, config, params, CutoffProfile(WIDE)))

    def test_guard_trip_takes_precedence_over_the_hook(self):
        # test_guard_trip_leaves_with_its_solo_run's constant state trips the
        # guard at its first sample; a hook stopping it there too is
        # still called, but the member leaves as aborted-blowup
        config = IntegratorConfig(method="rk4", dt=1e-4, t_end=0.002,
                                  monitor_every=10, blowup_factor=0.3)
        seen = []
        traj = integrate(constant_state(cutoff=8), config, make_params(bounds=WIDE),
                         CutoffProfile(WIDE),
                         on_sample=lambda m, st: seen.append(st.t) or
                         (None if st.t == 0.0 else "stop"))
        assert len(seen) == 2 and traj.status == "aborted-blowup" and traj.steps == 10


class TestOneGrid:
    """Every kernel call of a run is on the quadrature grid of its params."""

    @pytest.mark.parametrize("method, dt, t_end, oversample, members", [
        ("rk4", 1e-5, 1e-4, 3, 1), ("rk45", 1e-3, 1e-3, 2, 1), ("rk45", 1e-3, 1e-3, 3, 1),
        ("rk45", 1e-3, 1e-3, 3, 2)])
    def test_fixed_grid_runs_call_one_size(self, monkeypatch, method, dt, t_end, oversample,
                                           members):
        # members sharing one step make one call per shared stage
        calls = []
        kernel = integrators.rhs

        def recording_rhs(ys, cutoff, t, params, *args):
            calls.append((params.oversample, len(ys)))
            return kernel(ys, cutoff, t, params, *args)

        monkeypatch.setattr(integrators, "rhs", recording_rhs)
        config = RunConfig()
        run = config.validate()
        states = [cli.initial_state(config), constant_state(cutoff=16)][:members]
        runs = integrate_lockstep(states, IntegratorConfig(method=method, dt=dt, t_end=t_end),
                                  replace(run.model, oversample=oversample),
                                  CutoffProfile(run.bounds))
        assert all(r.status == "completed" and r.evaluations == len(calls) for r in runs)
        assert set(calls) == {(oversample, members)}
