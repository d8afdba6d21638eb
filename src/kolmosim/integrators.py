"""Runge-Kutta advancement of the coefficient ODE system.

Two schemes: classical fixed-step RK4 and an embedded Dormand-Prince 5(4)
pair, its step set from the embedded error estimate, in Lawson's
integrating-factor form (Lawson 1967, SIAM J. Numer. Anal. 4:372).  After
each accepted step the integrator re-projects the velocity when its
divergence has drifted past a threshold, and runs the blow-up guard against
the a-priori norm ceiling.  Conjugate symmetry needs no fix-up: the run
starts from the data's real parts and carries one mode of each mirror pair,
whose mirror is its conjugate whenever a state is expanded to the cube.

rk45 splits each member's right-hand side F into a diagonal linear part
L = -nu_ref 4 pi^2 |k|^2 (half that on the velocity rows, whose flux is nubar
times the symmetric gradient) and the rest N = F - L y, and applies the
exact exponential of L between stage times:

    Y_i   = E(c_i h) y + h sum_j a_ij E((c_i - c_j) h) N_j,   E(t) = exp(t L)
    y_new = E(h) y + h sum_j b_j E((1 - c_j) h) N_j

with the embedded error estimate weighted by the same E((1 - c_j) h).  So
the constant-viscosity part of div(nubar grad) costs no stability limit; only
the spread of nubar around nu_ref is stepped explicitly.  nu_ref is each
member's midrange of its nubar grid at the step's start, which the kernel
returns with every right-hand side.  The FSAL stage is kept as the full
F(y_new), and the next step subtracts its own L from it: a diagonal
correction, no extra kernel call.  The factors are real arrays, formed once
per attempted (h, nu_ref): L has two rate classes, the velocity rows and
the scalar rows, so each E(c h) is exponentiated once per (member, class)
and expanded to the rows by index.  On the velocity rows of one mode L is a
multiple of the identity, so it commutes with the Leray projection and the
stages stay divergence-free.

The rk45 step-size controller is elementary (Hairer, Norsett & Wanner,
Solving ODEs I, II.4).  A step is accepted when the error ratio r (the RMS
of the embedded error over the tolerance scale, over the ball's modes of
every row) is at most 1.  The order q of the error is observed between an
attempt and the last rejected one at the same t: log(r_prev / r) /
log(h_prev / h), clamped to [1, 5], and 5 when there is none or the ratio
did not fall.  A rejection shrinks h by 0.9 r^(-1/q), floored at 0.2; an
accepted step sets the next step to h 0.9 r^(-1/q), capped at 5h and
floored at 0.2h.  At the start of a run the explicitly stepped spread of
nubar makes the error fall only like h^1.1 on the stiff high modes (order
reduction: Hairer & Wanner, Solving ODEs II, IV.15), so the run's first
rejection, at the datum with no step accepted, assumes order 1: it retries
at h 0.9 / r, with no floor, which meets the tolerance whenever the error
is at least first order in h.  Where that retry would fall below MIN_DT, it
takes the floored shrink instead, so no run ends on its first try.  The
accepted retry then grows by the order it observed.  A non-finite stage
shrinks h by 0.2.

`integrate_lockstep` advances several states of one layout together: the
loop carries a leading member axis, and each RK stage is one kernel call
(`system.member_rhs`) for every member.  The loop runs on the canonical
half (one mode of each mirror pair {k, -k}, and k = 0), 2.4x fewer numbers
than the cube at d = 2, n = 16: it takes the data's real parts there once
(`system.halves`), and expands to cubes (`SimState.from_half`) only
for the states it samples; the blow-up guard reads the halves it steps.
Stage algebra, integrating factors and fix-ups act on each mode alone (the
fix-up's Leray projection and divergence residual take halves, like every
operation below the field algebra), so on the half they give the cube
layout's numbers bit for bit; the error ratio counts each pair's mode twice
and k = 0 once, the cube's ball RMS up to roundoff.  The kernel owns its
grid-sized buffers (`system._workspace`), so a run reuses them at every
stage, and a member leaving the run resizes them once.  Fix-ups, guard and
samples stay per member; a member that fails or aborts leaves the run with
its own status, message and states, and the others go on.  `integrate` is
the one-member case.  The stages run with floating-point warnings silenced,
so a diverging run ends as a clean `failed-nonfinite`.

Every kernel call of a run is on the quadrature grid of `params`, from the
datum to t_end.  Each sample keeps, beside its state, its right-hand side on
the half (rk45's FSAL stage; None for rk4 and for a sample right after a
re-projection that the run never evaluated), which
`diagnostics.nu_bar_aliasing` reuses.  A member that fails keeps its
last finite state, at the last accepted step, as its final sample.  Its
status names the cause: failed-nonfinite for a non-finite rk4 step, or an
rk45 step that shrank below MIN_DT because its last attempt went
non-finite; failed-stepsize for an rk45 step that shrank to MIN_DT through
error-ratio rejections; failed-maxsteps when MAX_STEPS accepted steps did
not reach t_end.

An optional `on_sample(member, state)` hook sees each sample the moment the
loop takes it, the datum first: a caller can write it out at once and check
it, and a message it returns ends that member as `aborted-monitor` at that
sample, through the same exit as the guard.  The loop keeps every sample in
its trajectory either way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .cutoffs import CutoffProfile
from .spectral import FOUR_PI_SQ, _geometry, div_residual, leray_coefficients
# the member-stack kernel under the module-global name the loop looks up at
# each call: one call per stage, for every member of the stack
from .system import ModelParams, SimState, halves, triple_sq
from .system import member_rhs as rhs

MAX_STEPS = 2_000_000          # accepted steps before a run is failed
MIN_DT = 1e-12                 # rk45 step-size floor
DIV_DRIFT_TOL = 1e-11          # div v residual above which a fix-up re-projects

# Dormand-Prince 5(4) tableau (FSAL)
_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
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
# the gaps c_i - c_j (j <= i) at which the integrating factor is applied;
# the last stage is the update, so 1 - c_j is among them.  _IF_AT[i][j] is
# the position of c_i - c_j among them (c_0 = 0, so _IF_AT[i][0] is c_i's)
_IF_GAPS = sorted({ci - cj for i, ci in enumerate(_DP_C) for cj in _DP_C[:i + 1]})
_IF_AT = [[_IF_GAPS.index(ci - cj) for cj in _DP_C[:i + 1]] for i, ci in enumerate(_DP_C)]

# on_sample(member, state): None to go on, or why the member stops
SampleHook = Callable[[int, SimState], Optional[str]]


@dataclass
class IntegratorConfig:
    method: str = "rk45"
    dt: float = 1e-3                # fixed step (rk4) or initial step (rk45)
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    t_end: float = 1.0
    monitor_every: int = 10
    blowup_factor: float = 10.0

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        for key in ("dt", "abs_tol", "rel_tol", "blowup_factor"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite and positive, got {getattr(self, key)!r}")
        if not 0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if self.monitor_every < 1:
            raise ValueError("monitor_every must be >= 1")


@dataclass
class Trajectory:
    states: List[SimState]
    # completed | aborted-blowup | aborted-monitor | failed-nonfinite |
    # failed-stepsize | failed-maxsteps (see the module docstring)
    status: str = "completed"
    message: str = ""
    steps: int = 0
    rejected: int = 0
    evaluations: int = 0             # kernel calls of the run's stages
    # one entry per state: its right-hand side on the canonical half (rk45's
    # FSAL stage; None for rk4 and where the run never evaluated it)
    rhs: List[Optional[np.ndarray]] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def final(self) -> SimState:
        return self.states[-1]

    def sample(self, state: SimState, rhs: Optional[np.ndarray] = None):
        self.states.append(state)
        self.rhs.append(rhs)


def fix_up(stack: np.ndarray, dim: int, cutoff: int):
    """Re-project the velocity of the members of a (members, d+2, n_half)
    stack whose div v drifted past DIV_DRIFT_TOL.  Returns the stack (a new
    one if any member was re-projected) and which members were."""
    reproject = div_residual(stack[:, :dim], dim, cutoff) > DIV_DRIFT_TOL
    if reproject.any():
        stack = stack.copy()
        stack[reproject, :dim] = leray_coefficients(stack[reproject, :dim], dim, cutoff)
    return stack, reproject


def rk4_step(arr: np.ndarray, cutoff: int, t: float, h: float, params: ModelParams,
             profile: CutoffProfile) -> np.ndarray:
    """arr + (h/6)(k1 + 2 k2 + 2 k3 + k4), bit for bit, without temporaries:
    the stage arguments share one buffer, and the sum gathers in k1, the
    kernel's fresh result (so the kernel must not keep its results)."""
    stage = np.empty_like(arr)
    k1 = rhs(arr, cutoff, t, params, profile)[0]
    np.add(arr, np.multiply(0.5 * h, k1, out=stage), out=stage)
    k2 = rhs(stage, cutoff, t + 0.5 * h, params, profile)[0]
    np.add(arr, np.multiply(0.5 * h, k2, out=stage), out=stage)
    k3 = rhs(stage, cutoff, t + 0.5 * h, params, profile)[0]
    np.add(arr, np.multiply(h, k3, out=stage), out=stage)
    k4 = rhs(stage, cutoff, t + h, params, profile)[0]
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= h / 6.0
    k1 += arr
    return k1


@functools.lru_cache(maxsize=None)
def _diffusion_rates(dim: int, cutoff: int) -> np.ndarray:
    """The linear rates at unit viscosity on the canonical half, one row per
    rate class: the velocity rows' -2 pi^2 |k|^2 (the flux takes nubar times
    the symmetric gradient, whose divergence is Laplacian/2 when div v = 0),
    then the omega and b rows' -4 pi^2 |k|^2.  _rate_class maps rows to them."""
    geo = _geometry(dim, cutoff)
    rates = -FOUR_PI_SQ * geo.k_sq.ravel()[geo.half] * np.ones((2, 1))
    rates[0] *= 0.5
    rates.setflags(write=False)
    return rates


def _rate_class(dim: int) -> List[int]:
    """The _diffusion_rates row of each state row: v_1..v_d, omega, b."""
    return [0] * dim + [1, 1]


def _midrange(nu: np.ndarray) -> np.ndarray:
    """Each member's reference viscosity: the midrange of its nubar samples."""
    return 0.5 * (nu.min(axis=1) + nu.max(axis=1))


def _error_ratio(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                 abs_tol: float, rel_tol: float, weight: np.ndarray) -> float:
    """RMS of err / (abs_tol + rel_tol max(|y0|, |y1|)) over the ball's modes
    of every row of one packed state (the cube's corners are not unknowns),
    read from the canonical half rows of conjugate-symmetric stacks: weight
    counts the ball modes each half mode stands for, 2 for a pair {k, -k}
    and 1 for k = 0."""
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    sq = (np.abs(err) / scale) ** 2
    return float(np.sqrt(np.sum(weight * sq) / (len(err) * np.sum(weight))))


def _observed_order(h: float, ratio: float, previous: Optional[Tuple[float, float]]) -> float:
    """The order q of an error that scales like h^q, observed between an
    attempt h at error ratio ratio > 0 and previous, the (h, ratio) of the
    last rejected attempt at the same t, or None: clamped to [1, 5], and 5
    without an earlier attempt or when the ratio did not fall."""
    if previous is None or previous[1] <= ratio:
        return 5.0
    h_prev, r_prev = previous
    return min(5.0, max(1.0, math.log(r_prev / ratio) / math.log(h_prev / h)))


def _shrink(h: float, ratio: float, previous: Optional[Tuple[float, float]]) -> float:
    """The step to retry with after a step h was rejected at error ratio
    ratio > 1, previous as for _observed_order: h 0.9 r^(-1/q), floored at
    0.2h, with q the observed order."""
    return h * max(0.2, 0.9 * ratio ** (-1.0 / _observed_order(h, ratio, previous)))


def _leave(traj: Trajectory, status: str, message: str, steps: int, rejected: int,
           evaluations: int):
    traj.status, traj.message = status, message
    traj.steps, traj.rejected, traj.evaluations = steps, rejected, evaluations


def _survivors(keep: np.ndarray, live: List[int], *stacks):
    """live and the rows of each stack (None stays None) where keep holds."""
    return ([member for member, k in zip(live, keep) if k],
            *(None if a is None else a[keep] for a in stacks))


def _sampled(trajs: List[Trajectory], live: List[int], ok: np.ndarray,
             on_sample: Optional[SampleHook], steps: int, rejected: int,
             evaluations: int) -> np.ndarray:
    """Hand each live member's newest state to on_sample; ok, with False where
    the hook stopped a member that the guard had not (it leaves with status
    aborted-monitor and the hook's message)."""
    if on_sample is None:
        return ok
    for i, member in enumerate(live):
        message = on_sample(member, trajs[member].states[-1])
        if message is not None and ok[i]:
            ok[i] = False
            _leave(trajs[member], "aborted-monitor", message, steps, rejected, evaluations)
    return ok


def _keep_last_finite(traj: Trajectory, member: int, half: np.ndarray,
                      f: Optional[np.ndarray], dim: int, cutoff: int, t: float,
                      on_sample: Optional[SampleHook]):
    """A failing member's last finite state, the canonical half at t, as its
    final sample unless its newest sample is at t already; on_sample sees it,
    and the member's status stands whatever the hook returns."""
    if traj.final.t < t:
        traj.sample(SimState.from_half(half, dim, cutoff, t), f)
        if on_sample is not None:
            on_sample(member, traj.final)


def integrate(state0: SimState, config: IntegratorConfig, params: ModelParams,
              profile: CutoffProfile, on_sample: Optional[SampleHook] = None) -> Trajectory:
    """Advance to config.t_end, sampling every monitor_every accepted steps:
    the one-member case of integrate_lockstep."""
    return integrate_lockstep([state0], config, params, profile, on_sample)[0]


def integrate_lockstep(states0: List[SimState], config: IntegratorConfig,
                       params: ModelParams, profile: CutoffProfile,
                       on_sample: Optional[SampleHook] = None) -> List[Trajectory]:
    """Advance states of one layout and start time together to config.t_end,
    one kernel call per stage for all of them; one trajectory per state.

    Each member has its own re-projection decision, blow-up guard (against
    blowup_factor (2 X0 + 1), X0 its datum's real part's triple norm^2 at
    params.s) and samples.  A member that goes non-finite or trips the
    guard leaves with its own status, message and states; the others go on.
    A member that fails (a failed-* status) keeps its last finite state, at
    the last accepted step's t, as its final sample.
    on_sample(member, state), when given, is called for every state appended
    to a trajectory, in order: sample 0 (the datum) before the first kernel
    call, also when t_end <= t.  It returns None to go on, or a message that
    ends the member with status aborted-monitor (a guard trip or failure at
    the same sample takes precedence).  It changes no number of the run.
    Fixed-step rk4 members, failed and aborted ones included, are
    bit-identical to their solo integrate runs.  rk45 members share one
    step, controlled by the largest member error ratio, so their samples have
    equal times: a non-finite stage in any member rejects the shared step, a
    step-size underflow fails every member still running, and a
    re-projection of any member drops the shared FSAL stage.  The stages run
    with floating-point warnings silenced: a non-finite member is reported
    by its status.
    """
    if not states0:
        raise ValueError("need at least one state")
    dim, cutoff, t = states0[0].dim, states0[0].cutoff, float(states0[0].t)
    if any((st.dim, st.cutoff, float(st.t)) != (dim, cutoff, t) for st in states0):
        raise ValueError("lockstep states must share dim, cutoff and start time")
    trajs = [Trajectory(states=[]) for _ in states0]
    for traj, st in zip(trajs, states0):
        traj.sample(st.copy())
    live = list(range(len(states0)))          # members still stepping, in row order
    ok = _sampled(trajs, live, np.ones(len(live), dtype=bool), on_sample, 0, 0, 0)
    if config.t_end <= t:
        return trajs

    # the loop keeps conjugate symmetry exactly, so it starts from the data's
    # real parts (on conjugate-symmetric data this changes no bit) and
    # carries their canonical halves
    y = halves(states0)
    ceiling = config.blowup_factor * (2.0 * triple_sq(y, params.s, dim, cutoff) + 1.0)
    if not ok.all():
        live, y, ceiling = _survivors(ok, live, y, ceiling)
    h = config.dt
    k1 = nu_ref = None             # rk45's FSAL stage F(t, y) and reference viscosities
    rates, classes, gaps = _diffusion_rates(dim, cutoff), _rate_class(dim), np.array(_IF_GAPS)
    weight = _geometry(dim, cutoff).half_weight
    steps = rejected = evaluations = 0
    previous = None                # rk45's last rejected (h, ratio) at this t
    stopped = None                 # (status, message) of the members still running, stopped early

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live and t < config.t_end - 1e-14 and steps < MAX_STEPS:
            h = min(h, config.t_end - t)
            if config.method == "rk4":
                y_new = rk4_step(y, cutoff, t, h, params, profile)
                evaluations += 4
                finite = np.isfinite(y_new).all(axis=tuple(range(1, y_new.ndim)))
                if not finite.all():
                    for i in np.flatnonzero(~finite):
                        _leave(trajs[live[i]], "failed-nonfinite",
                               f"non-finite coefficients at t = {t + h:.6g}, h = {h:.3g}",
                               steps, rejected, evaluations)
                        _keep_last_finite(trajs[live[i]], live[i], y[i], None, dim, cutoff,
                                          t, on_sample)
                    live, y_new, ceiling = _survivors(finite, live, y_new, ceiling)
                    if not live:
                        break
                h_next = config.dt
                k1 = None
            else:
                if k1 is None:
                    k1, nu = rhs(y, cutoff, t, params, profile)
                    evaluations += 1
                    nu_ref = _midrange(nu)
                    for i, member in enumerate(live):     # a sample at t gets its f
                        if trajs[member].final.t == t:
                            trajs[member].rhs[-1] = k1[i]
                lin = nu_ref[:, None, None] * rates          # per (member, rate class)
                # E(c h) of every gap c, in _IF_GAPS order, in one exp call
                ef = np.exp(np.multiply.outer(gaps * h, lin))[:, :, classes]
                lin = lin[:, classes]
                ns = [k1 - lin * y]     # the full F is kept: N depends on this step's L
                for i in range(1, 7):
                    at = _IF_AT[i]
                    yi = ef[at[0]] * y + h * sum(a * ef[g] * nj for a, g, nj
                                                 in zip(_DP_A[i], at, ns) if a)
                    if not np.all(np.isfinite(yi)):
                        break
                    fi, nu = rhs(yi, cutoff, t + _DP_C[i] * h, params, profile)
                    evaluations += 1
                    ns.append(fi - lin * yi)
                if len(ns) < 7 or not np.all(np.isfinite(fi)):
                    rejected += 1
                    h *= 0.2
                    if not h >= MIN_DT:
                        stopped = ("failed-nonfinite",
                                   f"step size underflow at t = {t:.6g}, h = {h:.3g}")
                        break
                    continue
                y_new = yi             # the last stage is the update
                err = h * sum((b5 - b4) * ef[g] * nj for b5, b4, g, nj
                              in zip(_DP_B5, _DP_B4, _IF_AT[6], ns) if b5 != b4)
                ratio = max(_error_ratio(*rows, config.abs_tol, config.rel_tol, weight)
                            for rows in zip(err, y, y_new))
                if ratio > 1.0:
                    rejected += 1
                    # the run's first rejection, at the datum, assumes order 1:
                    # the error falls like h^1.1 there (module docstring),
                    # unless that retry would fall below MIN_DT
                    retry = (h * 0.9 / ratio
                             if steps == 0 and previous is None and h * 0.9 / ratio >= MIN_DT
                             else _shrink(h, ratio, previous))
                    h, previous = max(retry, MIN_DT), (h, ratio)
                    if h <= MIN_DT:
                        stopped = ("failed-stepsize",
                                   f"step size underflow at t = {t:.6g}, h = {h:.3g}")
                        break
                    continue
                grow = (0.9 * ratio ** (-1.0 / _observed_order(h, ratio, previous))
                        if ratio > 0 else 5.0)
                h_next = h * min(5.0, max(0.2, grow))
                k1, nu_ref = fi, _midrange(nu)    # FSAL: last stage is F(t+h, y_new)
                previous = None

            t = t + h
            steps += 1
            y = y_new
            y, reprojected = fix_up(y, dim, cutoff)
            if reprojected.any():      # a projection moves y off the FSAL stage's point
                k1 = None
            h = h_next

            if steps % config.monitor_every == 0 or t >= config.t_end - 1e-14:
                x_now = triple_sq(y, params.s, dim, cutoff)
                ok = x_now <= ceiling
                for i, member in enumerate(live):
                    trajs[member].sample(SimState.from_half(y[i], dim, cutoff, t),
                                         None if k1 is None else k1[i])
                    if not ok[i]:
                        _leave(trajs[member], "aborted-blowup",
                               f"triple norm^2 {x_now[i]:.6g} exceeded guard "
                               f"{ceiling[i]:.6g} at t = {t:.6g}", steps, rejected,
                               evaluations)
                ok = _sampled(trajs, live, ok, on_sample, steps, rejected, evaluations)
                if not ok.all():
                    live, y, k1, nu_ref, ceiling = _survivors(ok, live, y, k1, nu_ref, ceiling)

    for i, member in enumerate(live):
        traj = trajs[member]
        traj.steps, traj.rejected, traj.evaluations = steps, rejected, evaluations
        if stopped or t < config.t_end - 1e-14:
            traj.status, traj.message = stopped or ("failed-maxsteps",
                                                    f"{MAX_STEPS} steps exhausted")
            _keep_last_finite(traj, member, y[i], None if k1 is None else k1[i], dim, cutoff,
                              t, on_sample)
    return trajs
