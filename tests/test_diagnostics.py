"""Diagnostics: frozen exponent values, existence-time closed forms against
bisection, norm-ceiling and envelope monitors on short trajectories, and the
nubar aliasing indicator that judges the quadrature grid."""

import dataclasses
import math

import numpy as np
import pytest

from kolmosim import cli, diagnostics
from kolmosim.cutoffs import CutoffProfile, InitialBounds
from kolmosim.diagnostics import (ConstantModel, beta_exponent,
                                  beta_formula_extended, energy_balance,
                                  existence_time, extrema_monitor,
                                  nu_bar_aliasing, p_k, uniform_bound)
from kolmosim.integrators import IntegratorConfig, integrate
from kolmosim.spectral import SpectralField, VectorSpectralField
from kolmosim.storage import RunConfig
from kolmosim.system import ModelParams, SimState, pack

WIDE = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)


def constant_state(dim=2, cutoff=4, w0=1.0, b0=1.0):
    v = VectorSpectralField.zeros(dim, cutoff)
    w = SpectralField.from_modes(dim, cutoff, {(0,) * dim: w0})
    b = SpectralField.from_modes(dim, cutoff, {(0,) * dim: b0})
    return SimState(v, w, b, t=0.0)


class TestBetaExponent:
    def test_frozen_values(self):
        assert beta_exponent(2.0, 2) == 15.0
        assert beta_exponent(2.0, 3) == 29.0
        assert beta_exponent(3.0, 2) == 10.0

    def test_rejects_subcritical(self):
        with pytest.raises(ValueError):
            beta_exponent(1.0, 2)
        with pytest.raises(ValueError):
            beta_exponent(1.5, 3)

    def test_continuous_and_decreasing_per_piece(self):
        # On each interval where ceil(s) is constant the exponent reduces to
        # 2*(2m+3)/(s - d/2) + 1, smooth and strictly decreasing.  For d = 3
        # the branch (1.5, 2.5] crosses s = 2 where ceil steps up, so the
        # check runs piecewise.
        pieces = [(2, 1.0 + 1e-3, 2.0, 2), (3, 1.5 + 1e-3, 2.0, 2),
                  (3, 2.0 + 1e-6, 2.5, 3)]
        for d, s_lo, s_hi, m in pieces:
            s_grid = np.linspace(s_lo, s_hi, 300)
            vals = np.array([beta_exponent(s, d) for s in s_grid])
            assert np.all(vals > 1.0)
            assert np.all(np.diff(vals) < 0)
            expected = 2.0 * (2 * m + 3) / (s_grid - d / 2) + 1.0
            assert np.allclose(vals, expected, rtol=1e-12)

    def test_extension_flag(self):
        assert not beta_formula_extended(2.0, 2)
        assert beta_formula_extended(2.5, 2)
        assert not beta_formula_extended(2.5, 3)


class TestExistenceTime:
    def test_frozen_examples(self):
        assert existence_time(0.0, 2.0, ConstantModel(1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)
        assert existence_time(0.0, 2.0, ConstantModel(2.0, 0.0)) == pytest.approx(0.25, abs=1e-12)

    def test_monotone_decreasing_in_x0(self):
        cm = ConstantModel(1.0, 0.0)
        ts = [existence_time(x0, 2.0, cm) for x0 in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_log_branch(self):
        # gamma = -1: T = exp(budget/((beta-1)*c)) - 1.
        t = existence_time(0.0, 2.0, ConstantModel(1.0, -1.0))
        assert t == pytest.approx(math.expm1(0.5), rel=1e-12)

    def test_unreachable_budget_returns_inf(self):
        # gamma = -2: the integral is bounded by c, so a large budget is
        # never spent.  budget/(beta-1) = 0.5 with c = 0.25 cannot be met.
        assert existence_time(0.0, 2.0, ConstantModel(0.25, -2.0)) == math.inf

    def test_closed_form_matches_bisection_randomized(self):
        # existence_time raises if its internal bisection disagrees beyond
        # 1e-10, so agreement is checked by calling it on random tuples.
        rng = np.random.default_rng(42)
        for _ in range(100):
            x0 = rng.uniform(0.0, 10.0)
            beta = rng.uniform(1.1, 30.0)
            c = rng.uniform(0.05, 20.0)
            gamma = rng.uniform(-1.5, 2.0)
            t = existence_time(x0, beta, ConstantModel(c, gamma))
            assert t > 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            existence_time(0.0, 1.0, ConstantModel(1.0, 0.0))
        with pytest.raises(ValueError):
            existence_time(-1.0, 2.0, ConstantModel(1.0, 0.0))
        for x0 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                existence_time(x0, 2.0, ConstantModel(1.0, 0.0))
        with pytest.raises(ValueError):
            ConstantModel(0.0, 0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_refused(self, beta):
        # NaN passed a beta <= 1 test and its NaN T read as "never spent"
        with pytest.raises(ValueError, match="beta must be finite and > 1"):
            existence_time(0.0, beta, ConstantModel(1.0, 0.0))


class TestNormPolynomials:
    def test_uniform_bound_values(self):
        assert uniform_bound(0.0) == 1.0
        assert uniform_bound(3.0) == 7.0

    def test_p_k_monotone_in_k(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(0.0, 50.0, size=20):
            ks = np.sort(rng.uniform(0.0, 40.0, size=6))
            vals = [p_k(x, k) for k in ks]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_p_k_closed_form(self):
        assert p_k(3.0, 2.0) == pytest.approx(4.0, abs=1e-14)
        assert p_k(0.0, 7.0) == pytest.approx(1.0, abs=1e-14)


def short_trajectory(w0=1.0, b0=1.0, t_end=0.5, samples=10):
    bounds = InitialBounds(b_min0=b0, omega_min0=w0, omega_max0=w0, alpha=1.0)
    params = ModelParams(alpha=1.0, s=2.0, bounds=bounds, oversample=2)
    profile = CutoffProfile(bounds)
    n_steps = samples * 5
    config = IntegratorConfig(method="rk4", dt=t_end / n_steps, t_end=t_end,
                              monitor_every=5)
    # cutoff 2 keeps dt inside the diffusion stability bound at this step.
    state = constant_state(cutoff=2, w0=w0, b0=b0)
    return integrate(state, config, params, profile), profile


class TestEnergyBalance:
    def test_decaying_constant_fields(self):
        traj, profile = short_trajectory()
        nu_lower = lambda t: profile.values(t).nu_lower
        reports, c_hat = energy_balance(traj, 2.0, nu_lower, 15.0,
                                        ConstantModel(1.0, 0.0))
        assert len(reports) == len(traj.states)
        # Norms decay, gradient terms vanish: lhs < 0 away from roundoff.
        assert all(r.lhs < 1e-10 for r in reports)
        assert all(r.satisfied for r in reports)
        assert c_hat <= 1e-10
        # Constant fields carry no gradient energy.
        assert all(abs(r.hs1_triple_sq) < 1e-20 for r in reports)
        for r in reports:
            assert r.rhs_bound == pytest.approx(
                p_k(r.triple_sq, 30.0), rel=1e-12)

    def test_zero_state(self):
        state = SimState(VectorSpectralField.zeros(2, 4),
                         SpectralField.zeros(2, 4), SpectralField.zeros(2, 4))
        traj_like = type("T", (), {"states": [state, state, state]})()
        # Fake times: identical states at three instants.
        for i, st in enumerate(traj_like.states):
            traj_like.states[i] = st.copy()
            traj_like.states[i].t = 0.1 * i
        reports, c_hat = energy_balance(traj_like, 2.0, lambda t: 0.25, 2.0,
                                        ConstantModel(1.0, 0.0))
        assert all(r.lhs == pytest.approx(0.0, abs=1e-15) for r in reports)
        assert all(r.satisfied for r in reports)
        assert c_hat == 0.0

    def test_growing_trajectory_fits_positive_constant(self):
        # Synthetic growth: constant omega stepped upward, so lhs = dX/dt > 0
        # (no gradient energy) and the fitted constant is the analytic
        # max over samples of the difference quotients over (1+X)^beta.
        omegas = [1.0, 1.2, 1.5, 1.9]
        times = [0.0, 0.1, 0.2, 0.3]
        states = []
        for w, t in zip(omegas, times):
            st = constant_state(cutoff=2, w0=w, b0=1.0)
            st.t = t
            states.append(st)
        traj_like = type("T", (), {"states": states})()
        beta = 2.0
        reports, c_hat = energy_balance(traj_like, 2.0, lambda t: 0.25, beta,
                                        ConstantModel(1.0, 0.0))
        xs = np.array([w * w + 1.0 for w in omegas])
        dxdt = np.gradient(xs, np.array(times))
        expected = float(np.max(dxdt / (1.0 + xs) ** beta))
        assert c_hat == pytest.approx(expected, rel=1e-12)
        assert c_hat > 0.0

    def test_requires_three_samples(self):
        traj, _ = short_trajectory(samples=10)
        short = type("T", (), {"states": traj.states[:2]})()
        with pytest.raises(ValueError):
            energy_balance(short, 2.0, lambda t: 0.25, 2.0,
                           ConstantModel(1.0, 0.0))


class TestExtremaMonitor:
    def test_constant_admissible_data_passes(self):
        state = constant_state(w0=1.0, b0=1.0)
        profile = CutoffProfile(InitialBounds(b_min0=1.0, omega_min0=1.0,
                                              omega_max0=1.0, alpha=1.0))
        rep = extrema_monitor(state, profile, grid=32)
        assert rep.passed
        assert rep.min_omega == pytest.approx(1.0, abs=1e-12)
        assert rep.max_omega == pytest.approx(1.0, abs=1e-12)
        assert rep.min_b == pytest.approx(1.0, abs=1e-12)

    def test_sharp_envelope_tracking(self):
        # omega0 = omega_min0 = omega_max0: the comparison ODE is exact, so
        # the simulated minimum tracks omega_lower(t) to 1e-6.
        traj, profile = short_trajectory(w0=0.7, b0=1.3, t_end=0.4, samples=8)
        for state in traj.states:
            rep = extrema_monitor(state, profile, grid=16)
            assert rep.passed
            env = profile.values(state.t)
            assert rep.min_omega == pytest.approx(env.omega_lower, abs=1e-6)
            assert rep.min_b == pytest.approx(env.b_lower, abs=1e-6)

    def test_out_of_band_detected(self):
        state = constant_state(w0=0.3, b0=1.0)     # below omega_min0 = 0.5
        rep = extrema_monitor(state, CutoffProfile(WIDE), grid=16)
        assert not rep.passed
        assert (rep.min_omega, rep.passed) == (pytest.approx(0.3), False)


class TestTrajectoryCeiling:
    def test_uniform_bound_holds_on_trajectory(self):
        rng = np.random.default_rng(17)
        side = 2 * 8 - 1
        k = np.indices((side, side)) - 7
        amp = (1.0 + np.sqrt(np.sum(k ** 2, axis=0))) ** -3.0

        def rand_field(scale, shift):
            raw = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            c = raw * amp * scale
            c = 0.5 * (c + np.conj(np.flip(c)))
            c[7, 7] = shift
            return SpectralField(2, 8, c)

        v = VectorSpectralField((rand_field(0.2, 0.0),
                                 rand_field(0.2, 0.0))).leray_project()
        state = SimState(v, rand_field(0.03, 1.0), rand_field(0.03, 1.0), 0.0)
        params = ModelParams(alpha=1.0, s=2.0, bounds=WIDE, oversample=2)
        config = IntegratorConfig(method="rk4", dt=2e-4, t_end=0.1,
                                  monitor_every=50)
        traj = integrate(state, config, params, CutoffProfile(WIDE))
        assert traj.status == "completed"
        ceiling = uniform_bound(state.triple_norm_sq(2.0))
        assert all(st.triple_norm_sq(2.0) <= ceiling for st in traj.states)


class TestNuBarAliasing:
    @staticmethod
    def default_run():
        """The default simulate datum, its run to t_end 0.001 and its objects."""
        config = RunConfig()
        config["t_end"] = 0.001
        run = config.validate()
        state, profile = cli.initial_state(config), CutoffProfile(run.bounds)
        return state, integrate(state, run.integrator, run.model, profile), run, profile

    def test_default_oversample_ends_within_rel_tol(self):
        # the default datum's extrema sit on the envelope bounds at t = 0,
        # where the cutoffs act and nubar aliases most; that is a transient:
        # at the final sample the aliasing is below rel_tol / 10, and the
        # final state lies within rel_tol / 10 of the run one grid up
        state, traj, run, profile = self.default_run()
        finer = integrate(state, run.integrator,
                          dataclasses.replace(run.model, oversample=run.model.oversample + 1),
                          profile)
        tol = run.integrator.rel_tol
        assert traj.status == finer.status == "completed"
        assert nu_bar_aliasing([state], run.model, profile)[0] > tol
        assert nu_bar_aliasing([traj.final], run.model, profile)[0] <= tol / 10
        final, reference = pack(traj.final), pack(finer.final)
        assert np.max(np.abs(final - reference)) <= tol / 10 * np.max(np.abs(reference))

    def test_an_rk45_final_sample_costs_one_call(self, monkeypatch):
        # the run keeps its final sample's right-hand side, so the indicator
        # takes one kernel call, one grid up, for the two-call value
        _, traj, run, profile = self.default_run()
        calls = []
        kernel = diagnostics.member_rhs

        def counting_rhs(ys, cutoff, t, params, *args):
            calls.append(params.oversample)
            return kernel(ys, cutoff, t, params, *args)

        monkeypatch.setattr(diagnostics, "member_rhs", counting_rhs)
        got = nu_bar_aliasing([traj.final], run.model, profile, [traj.rhs[-1]])
        assert calls == [run.model.oversample + 1]
        monkeypatch.undo()
        assert got.tolist() == nu_bar_aliasing([traj.final], run.model, profile).tolist()

    def test_an_rk4_sample_costs_two_calls(self, monkeypatch):
        # an rk4 run keeps no right-hand side, so each sample's value takes a
        # call on its own grid and one on the grid above, in that order
        config = RunConfig()
        for key, value in (("method", "rk4"), ("dt", 1e-5), ("t_end", 5e-5),
                           ("monitor_every", 1)):
            config[key] = value
        run = config.validate()
        profile = CutoffProfile(run.bounds)
        traj = integrate(cli.initial_state(config), run.integrator, run.model, profile)
        assert traj.status == "completed" and len(traj.states) == 6
        assert all(f is None for f in traj.rhs)
        calls = []
        kernel = diagnostics.member_rhs

        def counting_rhs(ys, cutoff, t, params, *args):
            calls.append(params.oversample)
            return kernel(ys, cutoff, t, params, *args)

        monkeypatch.setattr(diagnostics, "member_rhs", counting_rhs)
        got = nu_bar_aliasing(traj.states, run.model, profile, traj.rhs)
        own = run.model.oversample
        assert calls == [own, own + 1] * len(traj.states)
        assert got.tolist() == nu_bar_aliasing(traj.states, run.model, profile).tolist()

    def test_kept_rhs_gives_the_same_values(self):
        # the kept right-hand sides replace the first call of each sample
        # bit for bit
        state = cli.initial_state(RunConfig())
        params = ModelParams(alpha=1.0, s=2.0, bounds=WIDE, oversample=2)
        config = IntegratorConfig(t_end=2e-4, monitor_every=2)
        traj = integrate(state, config, params, CutoffProfile(WIDE))
        assert all(f is not None for f in traj.rhs)
        assert np.array_equal(
            nu_bar_aliasing(traj.states, params, CutoffProfile(WIDE), traj.rhs),
            nu_bar_aliasing(traj.states, params, CutoffProfile(WIDE)))

    def test_constant_viscosity_does_not_alias(self):
        # constant omega and b make nubar constant: nothing is left for
        # the finer grid to resolve
        states = [constant_state(w0=1.5, b0=1.0), constant_state(w0=0.8, b0=0.7)]
        params = ModelParams(alpha=1.0, s=2.0, bounds=WIDE, oversample=2)
        got = nu_bar_aliasing(states, params, CutoffProfile(WIDE))
        assert got.shape == (2,)
        assert np.all(got <= 1e-15)
