"""Quantities the local-existence argument tracks: the norm-growth exponent
beta(s), the guaranteed existence time and uniform norm ceiling, per-sample
energy-inequality residuals over a trajectory, pointwise extrema checks
against the comparison-ODE envelopes, and the quadrature grid's aliasing of
the composed viscosity nubar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .cutoffs import CutoffProfile
from .system import ModelParams, SimState, grid_extrema, halves, member_rhs, rhs_gap, triple_sq


@dataclass(frozen=True)
class ConstantModel:
    """Time-dependent constant C(t) = c_tilde * (1+t)^gamma."""

    c_tilde: float
    gamma: float = 0.0

    def __post_init__(self):
        if not 0 < self.c_tilde < math.inf:
            raise ValueError(f"c_tilde must be finite and positive, got {self.c_tilde!r}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")


def beta_exponent(s: float, d: int) -> float:
    """Norm-growth exponent beta(s) > 1 for d/2 < s.

    The closed form is stated for d/2 < s <= d/2 + 1; above that range the
    same expression is evaluated literally (a conservative choice, see
    beta_formula_extended).
    """
    if s <= d / 2:
        raise ValueError(f"need s > d/2: s={s}, d={d}")
    gap = s - d / 2
    return 0.5 * max(4.0, (2 * math.ceil(s) + 3 + 0.5 * gap) * 4.0 / gap)


def beta_formula_extended(s: float, d: int) -> bool:
    """True when s lies above the range the beta formula was derived for."""
    return s > d / 2 + 1


def uniform_bound(initial_triple_sq: float) -> float:
    """Ceiling 2*X0 + 1 for the squared triple norm on [0, T]."""
    return 2.0 * initial_triple_sq + 1.0


def p_k(triple_sq, k: float):
    """Norm polynomial P_k = (1 + triple_sq)^(k/2)."""
    return (1.0 + np.asarray(triple_sq, dtype=float)) ** (k / 2.0)


def _budget(initial_triple_sq: float, beta: float) -> float:
    return (1.0 - 2.0 ** (1.0 - beta)) * (1.0 + initial_triple_sq) ** (1.0 - beta)


def _growth_integral(t: float, cmodel: ConstantModel) -> float:
    """Closed form of the accumulated constant int_0^t c(1+tau)^gamma dtau."""
    if cmodel.gamma == -1.0:
        return cmodel.c_tilde * math.log1p(t)
    g1 = cmodel.gamma + 1.0
    return cmodel.c_tilde * ((1.0 + t) ** g1 - 1.0) / g1


def existence_time(initial_triple_sq: float, beta: float,
                   cmodel: ConstantModel) -> float:
    """Largest T with (beta-1) * int_0^T c(1+tau)^gamma dtau equal to the
    budget (1 - 2^(1-beta)) * (1 + X0)^(1-beta).

    Solved in closed form, then cross-checked against a bisection root of the
    same balance equation; the two must agree to 1e-10.  Returns math.inf
    when gamma < -1 and the bounded integral never spends the budget.
    """
    if not 1.0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 1, got {beta!r}")
    if not 0.0 <= initial_triple_sq < math.inf:
        raise ValueError(f"initial_triple_sq must be finite and >= 0: {initial_triple_sq!r}")
    target = _budget(initial_triple_sq, beta) / (beta - 1.0)

    if cmodel.gamma == -1.0:
        t_closed = math.expm1(target / cmodel.c_tilde)
    else:
        g1 = cmodel.gamma + 1.0
        x = g1 * target / cmodel.c_tilde
        if x <= -1.0:
            return math.inf
        # expm1/log1p keep tiny positive T (large beta, large X0) from
        # rounding to zero.
        t_closed = math.expm1(math.log1p(x) / g1)
        if not math.isfinite(t_closed):
            return math.inf

    # Independent root bracket + bisection on the residual.
    def residual(t):
        return _growth_integral(t, cmodel) - target

    hi = max(t_closed, 1e-6)
    for _ in range(200):
        if residual(hi) > 0:
            break
        hi *= 2.0
    else:
        return math.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    t_bisect = 0.5 * (lo + hi)
    if abs(t_bisect - t_closed) > 1e-10 * max(1.0, abs(t_closed)):
        raise RuntimeError(
            f"closed form {t_closed!r} and bisection {t_bisect!r} disagree")
    return t_closed


@dataclass
class EnergyReport:
    """Per-sample energy-inequality data."""

    t: float
    triple_sq: float
    hs1_triple_sq: float
    lhs: float
    rhs_bound: float

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs_bound


def energy_balance(trajectory, s: float, nu_lower: Callable[[float], float],
                   beta: float, cmodel: ConstantModel) -> Tuple[List[EnergyReport], float]:
    """Evaluate the integrated energy inequality along a trajectory.

    lhs(t) = d/dt (1 + triple_sq) + nu_lower(t) * hs1_triple_sq, norms of
    the states' real parts, with the time derivative taken by centered
    differences over the sample times (one-sided at the ends).  Returns the
    per-sample reports plus the smallest empirical c_hat with lhs <= c_hat *
    (1+t)^gamma * P_{2 beta} everywhere.
    """
    states = trajectory.states
    if len(states) < 3:
        raise ValueError("need at least 3 trajectory samples")
    times = np.array([st.t for st in states])
    d, n = states[0].dim, states[0].cutoff
    stack = halves(states)
    triple = triple_sq(stack, s, d, n)
    hs1 = triple_sq(stack, s + 1.0, d, n) - triple
    d_dt = np.gradient(1.0 + triple, times)
    nu = np.array([nu_lower(t) for t in times])
    lhs = d_dt + nu * hs1
    shape = (1.0 + times) ** cmodel.gamma * p_k(triple, 2.0 * beta)
    rhs = cmodel.c_tilde * shape
    c_hat = max(0.0, float(np.max(lhs / shape)))

    reports = [EnergyReport(t=float(times[i]), triple_sq=float(triple[i]),
                            hs1_triple_sq=float(hs1[i]), lhs=float(lhs[i]),
                            rhs_bound=float(rhs[i]))
               for i in range(len(states))]
    return reports, c_hat


@dataclass(frozen=True)
class ExtremaReport:
    min_omega: float
    max_omega: float
    min_b: float
    passed: bool
    margins: Tuple[float, float, float]


def extrema_monitor(state: SimState, profile: CutoffProfile, grid: int,
                    eps_tol: float = 1e-6) -> ExtremaReport:
    """Check grid extrema of omega and b against the envelope values at
    state.t, with relative slack eps_tol for quadrature and time-stepping
    error."""
    min_w, max_w, min_b = grid_extrema(state, grid)
    env = profile.values(state.t)
    lo_w = env.omega_lower * (1.0 - eps_tol)
    hi_w = env.omega_upper * (1.0 + eps_tol)
    lo_b = env.b_lower * (1.0 - eps_tol)
    passed = (min_w >= lo_w) and (max_w <= hi_w) and (min_b >= lo_b)
    return ExtremaReport(min_w, max_w, min_b, passed,
                         margins=(min_w - lo_w, hi_w - max_w, min_b - lo_b))


def nu_bar_aliasing(states: Sequence[SimState], params: ModelParams,
                    profile: CutoffProfile,
                    rhs: Optional[Sequence[Optional[np.ndarray]]] = None) -> np.ndarray:
    """Each state's max|f - f_fine| / max|f_fine| (`rhs_gap`), with f its real
    part's right-hand side on the quadrature grid of `params` and f_fine on
    the grid one oversample up.

    The quadratic fluxes are exact on either grid, so the difference is the
    quadrature error of nubar = Phi(b)/Psi(omega).  Each state costs two
    kernel calls, or one where `rhs` holds its f on the half, as a
    trajectory keeps it (`Trajectory.rhs`; None where the run never
    evaluated it).
    """
    out = np.empty(len(states))
    finer = replace(params, oversample=params.oversample + 1)
    for i, st in enumerate(states):
        y = halves([st])
        f = (member_rhs(y, st.cutoff, st.t, params, profile)[0] if rhs is None or rhs[i] is None
             else rhs[i][None])
        out[i] = rhs_gap(f, member_rhs(y, st.cutoff, st.t, finer, profile)[0])[0]
    return out
