"""Explicit Runge-Kutta advancement of the coefficient ODE system.

Two schemes: classical fixed-step RK4 and an embedded Dormand-Prince 5(4)
pair with PI step control.  After accepted steps the integrator re-enforces
the structural invariants (conjugate symmetry by averaging with the mirror,
divergence re-projection when drift exceeds a threshold) and runs the
blow-up guard against the a-priori norm ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .cutoffs import CutoffProfile
from .spectral import _geometry, div_residual, leray_coefficients, symmetrize
# the packed kernel under the name the loop calls: one call, one RHS evaluation
from .system import ModelParams, RhsWorkspace, SimState, pack, unpack
from .system import packed_rhs as rhs

# Dormand-Prince 5(4) tableau (FSAL)
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


@dataclass
class IntegratorConfig:
    method: str = "rk45"
    dt: float = 1e-3                # fixed step (rk4) or initial step (rk45)
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    t_end: float = 1.0
    reproject_every: int = 1
    monitor_every: int = 10
    max_steps: int = 2_000_000
    min_dt: float = 1e-12
    blowup_factor: float = 10.0
    div_drift_tol: float = 1e-11

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.dt <= 0 or self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("dt and tolerances must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")
        if self.reproject_every < 1 or self.monitor_every < 1:
            raise ValueError("cadences must be >= 1")


@dataclass
class Trajectory:
    states: List[SimState]
    status: str = "completed"        # completed | aborted-blowup | failed-nonfinite
    message: str = ""
    steps: int = 0
    rejected: int = 0

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def final(self) -> SimState:
        return self.states[-1]


class _PackedSystem:
    """rhs on packed coefficient stacks, plus the structural fix-ups.  Owns the
    kernel's workspace for the integration it is built for."""

    def __init__(self, dim: int, cutoff: int, params: ModelParams, profile: CutoffProfile):
        self.dim = dim
        self.cutoff = cutoff
        self.params = params
        self.profile = profile
        self.workspace = RhsWorkspace(dim, cutoff, params.grid_points(cutoff))

    def rhs(self, arr: np.ndarray, t: float) -> np.ndarray:
        return rhs(arr, t, self.params, self.profile, workspace=self.workspace)

    def div_residual(self, arr: np.ndarray) -> float:
        return div_residual(arr[:self.dim], self.dim, self.cutoff)

    def project_divergence(self, arr: np.ndarray) -> np.ndarray:
        out = arr.copy()
        out[:self.dim] = leray_coefficients(arr[:self.dim], self.dim, self.cutoff)
        return out

    def fix_up(self, arr: np.ndarray, div_tol: float):
        """Average with the conjugate mirror; re-project when div v drifts past
        div_tol.  Returns the new stack and whether it was re-projected."""
        arr = symmetrize(arr, self.dim)
        reproject = self.div_residual(arr) > div_tol
        return (self.project_divergence(arr) if reproject else arr), reproject

    def triple_sq(self, arr: np.ndarray, s: float) -> float:
        w = _geometry(self.dim, self.cutoff).bessel_weight(s)
        return float(np.sum(w * np.abs(arr) ** 2))


def rk4_step(system: _PackedSystem, arr: np.ndarray, t: float, h: float) -> np.ndarray:
    k1 = system.rhs(arr, t)
    k2 = system.rhs(arr + 0.5 * h * k1, t + 0.5 * h)
    k3 = system.rhs(arr + 0.5 * h * k2, t + 0.5 * h)
    k4 = system.rhs(arr + h * k3, t + h)
    return arr + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(state: SimState, h: float, params: ModelParams,
         profile: CutoffProfile) -> SimState:
    """Single classical RK4 step with the structural fix-ups applied."""
    if h <= 0:
        raise ValueError("step size must be positive")
    system = _PackedSystem(state.dim, state.cutoff, params, profile)
    arr = rk4_step(system, pack(state), state.t, h)
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError("non-finite coefficients after step")
    return unpack(system.fix_up(arr, IntegratorConfig.div_drift_tol)[0],
                  state.dim, state.cutoff, state.t + h)


def _error_ratio(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                 abs_tol: float, rel_tol: float) -> float:
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((np.abs(err) / scale) ** 2)))


def integrate(state0: SimState, config: IntegratorConfig, params: ModelParams,
              profile: CutoffProfile, norm_s: Optional[float] = None) -> Trajectory:
    """Advance to config.t_end, sampling every monitor_every accepted steps.

    norm_s is the Sobolev index used by the blow-up guard (defaults to
    params.s); the guard aborts when the triple norm squared exceeds
    blowup_factor * (2*X0 + 1).
    """
    s = params.s if norm_s is None else norm_s
    system = _PackedSystem(state0.dim, state0.cutoff, params, profile)
    y = pack(state0)
    t = float(state0.t)
    traj = Trajectory(states=[state0.copy()])
    if config.t_end <= t:
        return traj

    x0 = system.triple_sq(y, s)
    ceiling = config.blowup_factor * (2.0 * x0 + 1.0)
    h = config.dt
    k1 = None                      # FSAL cache for rk45
    steps = 0

    while t < config.t_end - 1e-14 and steps < config.max_steps:
        h = min(h, config.t_end - t)
        if config.method == "rk4":
            y_new = rk4_step(system, y, t, h)
            if not np.all(np.isfinite(y_new)):
                traj.status = "failed-nonfinite"
                traj.message = f"non-finite coefficients at t = {t + h:.6g}"
                break
            accepted = True
            h_next = config.dt
            k1 = None
        else:
            if k1 is None:
                k1 = system.rhs(y, t)
            ks = [k1]
            bad = False
            for i in range(1, 7):
                yi = y + h * sum(a * k for a, k in zip(_DP_A[i], ks))
                if not np.all(np.isfinite(yi)):
                    bad = True
                    break
                ks.append(system.rhs(yi, t + _DP_C[i] * h))
            if bad or not np.all(np.isfinite(ks[-1])):
                traj.rejected += 1
                h *= 0.2
                k1 = ks[0]
                if h < config.min_dt:
                    traj.status = "failed-nonfinite"
                    traj.message = f"step size underflow at t = {t:.6g}"
                    break
                continue
            y_new = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
            err = h * sum((b5 - b4) * k
                          for (b5, b4), k in zip(zip(_DP_B5, _DP_B4), ks))
            ratio = _error_ratio(err, y, y_new, config.abs_tol, config.rel_tol)
            if ratio > 1.0:
                traj.rejected += 1
                h = max(h * max(0.2, 0.9 * ratio ** (-0.2)), config.min_dt)
                if h <= config.min_dt:
                    traj.status = "failed-nonfinite"
                    traj.message = f"step size underflow at t = {t:.6g}"
                    break
                continue
            accepted = True
            h_next = h * min(5.0, max(0.2, 0.9 * ratio ** (-0.2) if ratio > 0 else 5.0))
            k1 = ks[6]             # FSAL: last stage is f(t+h, y_new)

        t = t + h
        steps += 1
        y = y_new
        if steps % config.reproject_every == 0:
            y, reprojected = system.fix_up(y, config.div_drift_tol)
            if reprojected:        # the mirror average alone moves y by roundoff
                k1 = None          # and keeps the FSAL stage; a projection does not
        h = h_next

        at_end = t >= config.t_end - 1e-14
        if steps % config.monitor_every == 0 or at_end:
            x_now = system.triple_sq(y, s)
            if not np.isfinite(x_now) or x_now > ceiling:
                traj.states.append(unpack(y, state0.dim, state0.cutoff, t))
                traj.status = "aborted-blowup"
                traj.message = (f"triple norm^2 {x_now:.6g} exceeded guard "
                                f"{ceiling:.6g} at t = {t:.6g}")
                break
            traj.states.append(unpack(y, state0.dim, state0.cutoff, t))

    traj.steps = steps
    if traj.status == "completed" and t < config.t_end - 1e-14:
        traj.status = "failed-nonfinite"
        traj.message = traj.message or "max_steps exhausted"
    return traj
