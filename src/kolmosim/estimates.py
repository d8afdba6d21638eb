"""Randomized campaigns that exercise the fractional-Sobolev inequalities the
well-posedness argument rests on: commutator, product, composition and
interpolation bounds, the three-part commutator symbol decomposition, and a
two-trajectory probe of the Gronwall uniqueness mechanism.

Each campaign draws reproducible random trigonometric polynomials, evaluates
both sides of one inequality per sample, and reports the ratio statistics.
A bounded max ratio that is stable when the cutoff doubles is the empirical
surrogate for a constant independent of the fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cutoffs import CutoffProfile, smooth_step
from .integrators import IntegratorConfig, integrate, pack
from .spectral import (FOUR_PI_SQ, SpectralField, VectorSpectralField,
                       _geometry, fast_grid_size, lp_norm,
                       real_grid_to_coefficients, spectral_product, symmetrize)
from .system import ModelParams, SimState


# -- random field plumbing ---------------------------------------------------------


@dataclass(frozen=True)
class RandomFieldSpec:
    """Reproducible random trigonometric polynomials: unit-normal complex
    amplitudes damped by (1+|k|)^(-rho), conjugate-symmetrized."""

    dim: int = 2
    cutoff: int = 8
    rho: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.cutoff < 1 or self.rho < 0:
            raise ValueError("need dim >= 1, cutoff >= 1, rho >= 0")

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, index))

    def draw(self, rng: np.random.Generator, scale: float = 1.0,
             shift: float = 0.0) -> SpectralField:
        geo = _geometry(self.dim, self.cutoff)
        shape = geo.k_sq.shape
        amp = (1.0 + np.sqrt(geo.k_sq)) ** (-self.rho)
        c = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * amp * scale
        c = symmetrize(c, self.dim)
        c[(self.cutoff - 1,) * self.dim] = shift
        return SpectralField(self.dim, self.cutoff, c)

    def with_cutoff(self, cutoff: int) -> "RandomFieldSpec":
        return replace(self, cutoff=cutoff)


def admissible_state(spec: RandomFieldSpec, bounds, index: int = 0,
                     v_scale: float = 0.25) -> SimState:
    """Random initial state satisfying the model hypotheses by construction.

    omega is affinely mapped so its grid extrema hit [omega_min0, omega_max0]
    exactly; b is shifted so its grid minimum sits at b_min0; v is a
    Leray-projected random field (divergence-free).  Affine maps preserve the
    band limit, so admissibility survives exactly in coefficient space.
    """
    rng = spec.rng(index)
    v = VectorSpectralField(
        tuple(spec.draw(rng, scale=v_scale) for _ in range(spec.dim))
    ).leray_project()

    def mapped(lo: float, hi: Optional[float]) -> SpectralField:
        f = spec.draw(rng, scale=1.0)
        fine = fast_grid_size(16 * spec.cutoff)
        g = f.physical(points=fine).real
        # Continuum extrema can exceed the fine-grid extrema by at most
        # |grad f|_inf times the farthest node distance; the grid sup of the
        # gradient (doubled for safety) stands in for |grad f|_inf, so the
        # enlarged interval is mapped and containment holds pointwise.
        grad_mag = np.sqrt(sum(np.abs(f.diff(a).physical(points=fine)) ** 2
                               for a in range(spec.dim)))
        slack = float(np.max(grad_mag)) * math.sqrt(spec.dim) / fine
        g_lo = float(np.min(g)) - slack
        g_hi = float(np.max(g)) + slack
        if g_hi - g_lo < 1e-30:
            value = lo if hi is None else 0.5 * (lo + hi)
            return SpectralField.from_modes(spec.dim, spec.cutoff,
                                            {(0,) * spec.dim: value})
        if hi is None:                       # floor only: shift min onto lo
            a, b = 1.0, lo - g_lo
        else:                                # map enlarged range onto [lo, hi]
            a = (hi - lo) / (g_hi - g_lo)
            b = lo - a * g_lo
        out = f * a
        out.coeffs[(spec.cutoff - 1,) * spec.dim] += b
        return out

    omega = mapped(bounds.omega_min0, bounds.omega_max0)
    b = mapped(bounds.b_min0, None)
    return SimState(v, omega, b, t=0.0)


# -- reports -----------------------------------------------------------------------


@dataclass
class EstimateReport:
    name: str
    samples: int
    lhs: List[float]
    rhs: List[float]
    ratios: List[float]
    max_ratio: float
    median_ratio: float
    skipped: int
    meta: Dict
    stability: Optional[Dict] = None

    @classmethod
    def from_pairs(cls, name: str, pairs: Sequence[Tuple[float, float]],
                   skipped: int, meta: Dict) -> "EstimateReport":
        lhs = [a for a, _ in pairs]
        rhs = [b for _, b in pairs]
        ratios = [a / b for a, b in pairs]
        if any(not math.isfinite(r) for r in ratios):
            raise FloatingPointError(f"{name}: non-finite ratio encountered")
        return cls(name=name, samples=len(pairs) + skipped, lhs=lhs, rhs=rhs,
                   ratios=ratios,
                   max_ratio=max(ratios) if ratios else 0.0,
                   median_ratio=float(np.median(ratios)) if ratios else 0.0,
                   skipped=skipped, meta=meta)


def attach_stability(report: EstimateReport, doubled: EstimateReport) -> EstimateReport:
    lo = max(report.max_ratio, 1e-300)
    report.stability = {
        "cutoffs": (report.meta["cutoff"], doubled.meta["cutoff"]),
        "max_ratios": (report.max_ratio, doubled.max_ratio),
        "factor": doubled.max_ratio / lo,
    }
    return report


# -- grid norms --------------------------------------------------------------------


def field_lp(f, p: float, oversample: int = 4) -> float:
    """L^p norm of the field's real part by torus quadrature, sampled through
    the half spectrum; vectors use the Euclidean magnitude."""
    pts = fast_grid_size(oversample * (2 * f.cutoff - 1))
    grid = f.real_samples(pts)
    if isinstance(f, VectorSpectralField):
        grid = np.sqrt(np.sum(grid ** 2, axis=0))
    return lp_norm(grid, p)


def _check_holder(p, parts):
    def inv(q):
        return 0.0 if math.isinf(q) else 1.0 / q
    for pair in parts:
        if abs(inv(p) - sum(inv(q) for q in pair)) > 1e-12:
            raise ValueError(f"Holder exponents inconsistent: 1/{p} vs {pair}")


# -- commutator and its decomposition ----------------------------------------------


def commutator(f: SpectralField, g: SpectralField, s: float,
               product_mode: str = "oversampled") -> SpectralField:
    """[J^s, f] g = J^s(fg) - f J^s g, exact on the doubled ball 2n-1.

    Products of two cutoff-n fields live inside cutoff 2n-1, so computing
    there loses nothing; the oversampled grid product is alias-free for
    these quadratics and equals the direct convolution to roundoff.
    """
    if (f.dim, f.cutoff) != (g.dim, g.cutoff):
        raise ValueError("operands must share layout")
    m = 2 * f.cutoff - 1
    fg = spectral_product(f, g, mode=product_mode, out_cutoff=m)
    f_jsg = spectral_product(f, g.bessel(s), mode=product_mode, out_cutoff=m)
    return fg.bessel(s) - f_jsg


@dataclass(frozen=True)
class PartitionOfUnity:
    """Three smooth bump functions on [0, inf) summing to one, splitting the
    frequency-ratio axis into low, comparable, and high regimes."""

    lo_edge: float = 1.0 / 10.0
    lo_top: float = 1.0 / 9.0
    hi_top: float = 9.0
    hi_edge: float = 10.0

    def phi2(self, u):
        u = np.asarray(u, dtype=float)
        rise = smooth_step((u - self.lo_edge) / (self.lo_top - self.lo_edge))
        fall = smooth_step((self.hi_edge - u) / (self.hi_edge - self.hi_top))
        return np.where(u < 1.0, rise, fall)

    def phi1(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < self.lo_top, 1.0 - self.phi2(u), 0.0)

    def phi3(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u > self.hi_top, 1.0 - self.phi2(u), 0.0)

    def parts(self):
        return (self.phi1, self.phi2, self.phi3)


def commutator_decomposition(f: SpectralField, g: SpectralField, s: float,
                             partition: Optional[PartitionOfUnity] = None,
                             max_pairs: int = 20_000_000):
    """Exact bilinear symbol sums sigma_j(D)(f, g) over all mode pairs.

    sigma_j(xi, eta) = ((1+4pi^2|xi+eta|^2)^(s/2) - (1+4pi^2|eta|^2)^(s/2))
                       * Phi_j((1+|xi|^2) / (1+|eta|^2)),
    scattered onto the doubled ball.  The three parts sum to the commutator.
    """
    if (f.dim, f.cutoff) != (g.dim, g.cutoff):
        raise ValueError("operands must share layout")
    partition = partition or PartitionOfUnity()
    d, n = f.dim, f.cutoff
    geo = _geometry(d, n)
    ball = geo.ball
    xi = geo.k[:, ball].T.astype(np.int64)         # (m, d)
    eta = xi
    fa = f.coeffs[ball]
    ga = g.coeffs[ball]
    m = xi.shape[0]
    if m * m > max_pairs:
        raise ValueError(f"cutoff too large for the exact double sum "
                         f"({m * m} mode pairs > {max_pairs})")

    xi_sq = np.sum(xi ** 2, axis=1).astype(float)
    pair_sq = np.sum((xi[:, None, :] + eta[None, :, :]) ** 2, axis=2).astype(float)
    bessel_diff = ((1.0 + FOUR_PI_SQ * pair_sq) ** (s / 2.0)
                   - (1.0 + FOUR_PI_SQ * xi_sq[None, :]) ** (s / 2.0))
    ratio = (1.0 + xi_sq[:, None]) / (1.0 + xi_sq[None, :])
    weight = bessel_diff * fa[:, None] * ga[None, :]

    out_cutoff = 2 * n - 1
    side = 2 * out_cutoff - 1
    offsets = tuple((xi[:, a, None] + eta[None, :, a]) + (out_cutoff - 1)
                    for a in range(d))
    flat = np.ravel_multi_index(offsets, (side,) * d).ravel()

    fields = []
    for phi in partition.parts():
        acc = np.zeros(side ** d, dtype=complex)
        np.add.at(acc, flat, (weight * phi(ratio)).ravel())
        fields.append(SpectralField(d, out_cutoff, acc.reshape((side,) * d)))
    return tuple(fields)


# -- inequality campaigns ----------------------------------------------------------


def verify_commutator_estimate(spec: RandomFieldSpec, s: float, p: float = 2.0,
                               p1: float = np.inf, p2: float = 2.0,
                               p3: float = np.inf, p4: float = 2.0,
                               samples: int = 200) -> EstimateReport:
    """ratio = |[J^s,f]g|_p / (|grad f|_p1 |J^(s-1)g|_p2 + |g|_p3 |J^s f|_p4).

    The gradient-side exponents p1, p3 may be infinite; p, p2, p4 must stay
    in (1, inf)."""
    if s <= 0:
        raise ValueError("commutator estimate needs s > 0")
    for q in (p, p2, p4):
        if not (1.0 < q < math.inf):
            raise ValueError("p, p2, p4 must lie in (1, inf)")
    for q in (p1, p3):
        if not (1.0 < q):
            raise ValueError("p1, p3 must lie in (1, inf]")
    _check_holder(p, [(p1, p2), (p3, p4)])

    def one(i: int):
        rng = spec.rng(i)
        f = spec.draw(rng)
        g = spec.draw(rng)
        lhs = field_lp(commutator(f, g, s), p)
        rhs = (field_lp(f.gradient(), p1) * field_lp(g.bessel(s - 1.0), p2)
               + field_lp(g, p3) * field_lp(f.bessel(s), p4))
        return lhs, rhs

    return _collect("commutator", spec, one, samples,
                    dict(s=s, exponents=(p, p1, p2, p3, p4)))


def verify_product_estimate(spec: RandomFieldSpec, s: float,
                            exponents: Tuple[float, ...] = (2.0, 2.0, np.inf, np.inf, 2.0),
                            samples: int = 200) -> EstimateReport:
    """ratio = |J^s(fg)|_p / (|J^s f|_p1 |g|_q1 + |f|_p2 |J^s g|_q2)."""
    p, p1, q1, p2, q2 = exponents
    _check_holder(p, [(p1, q1), (p2, q2)])
    m_for = lambda f: 2 * f.cutoff - 1

    def one(i: int):
        rng = spec.rng(i)
        f = spec.draw(rng)
        g = spec.draw(rng)
        fg = spectral_product(f, g, mode="oversampled", out_cutoff=m_for(f))
        lhs = field_lp(fg.bessel(s), p)
        rhs = (field_lp(f.bessel(s), p1) * field_lp(g, q1)
               + field_lp(f, p2) * field_lp(g.bessel(s), q2))
        return lhs, rhs

    return _collect("product", spec, one, samples,
                    dict(s=s, exponents=exponents))


_SMOOTH_MAPS: Dict[str, List[Callable]] = {
    # name -> [G, G', G'', ...]; all satisfy G(0) = 0.
    "identity": [lambda y: y, lambda y: np.ones_like(y)] + [
        (lambda y: np.zeros_like(y))] * 4,
    "sin": [np.sin, np.cos, lambda y: -np.sin(y), lambda y: -np.cos(y),
            np.sin, np.cos],
    "square": [lambda y: y ** 2, lambda y: 2.0 * y,
               lambda y: np.full_like(y, 2.0)] + [
        (lambda y: np.zeros_like(y))] * 3,
    # x/(1+x^2) and its derivatives, worked out by hand.
    "rational": [
        lambda y: y / (1.0 + y ** 2),
        lambda y: (1.0 - y ** 2) / (1.0 + y ** 2) ** 2,
        lambda y: 2.0 * y * (y ** 2 - 3.0) / (1.0 + y ** 2) ** 3,
        lambda y: -6.0 * (y ** 4 - 6.0 * y ** 2 + 1.0) / (1.0 + y ** 2) ** 4,
        lambda y: 24.0 * y * (y ** 4 - 10.0 * y ** 2 + 5.0) / (1.0 + y ** 2) ** 5,
    ],
}


def smooth_map_derivative_bound(name: str, order: int, radius: float,
                                points: int = 20001) -> float:
    """max over 1 <= j <= order of sup_{|y| <= radius} |G^(j)(y)|."""
    derivs = _SMOOTH_MAPS[name]
    if order >= len(derivs):
        raise ValueError(f"{name}: derivative order {order} not tabulated")
    y = np.linspace(-radius, radius, points)
    return max(float(np.max(np.abs(derivs[j](y)))) for j in range(1, order + 1))


def verify_composition_estimate(spec: RandomFieldSpec, s: float,
                                g_name: str = "sin",
                                samples: int = 100) -> EstimateReport:
    """ratio = |G(f)|_Hs / (|G'|_C^ceil(s) (1+|f|_inf)^ceil(s) |f|_Hs).

    G(f) is evaluated on the 4x-oversampled grid and read back at twice the
    input band, the alias-safe window for these decaying spectra.
    """
    if g_name not in _SMOOTH_MAPS:
        raise ValueError(f"unknown smooth map {g_name!r}; "
                         f"choose from {sorted(_SMOOTH_MAPS)}")
    ceil_s = math.ceil(s)

    def one(i: int):
        rng = spec.rng(i)
        f = spec.draw(rng)
        pts = fast_grid_size(4 * (2 * f.cutoff - 1))
        grid = f.real_samples(pts)
        f_inf = float(np.max(np.abs(grid)))
        if f_inf == 0.0:
            return 0.0, 0.0                       # skipped: 0/0
        gf = _SMOOTH_MAPS[g_name][0](grid)
        out_cutoff = 2 * f.cutoff - 1
        gf_field = SpectralField(f.dim, out_cutoff,
                                 real_grid_to_coefficients(gf, out_cutoff, f.dim))
        lhs = gf_field.hs_norm(s)
        g_bound = smooth_map_derivative_bound(g_name, ceil_s + 1, f_inf)
        rhs = g_bound * (1.0 + f_inf) ** ceil_s * f.hs_norm(s)
        return lhs, rhs

    return _collect(f"composition[{g_name}]", spec, one, samples, dict(s=s, G=g_name))


def verify_interpolation_inequality(spec: RandomFieldSpec, s: float,
                                    samples: int = 100) -> EstimateReport:
    """ratio = |grad f|_inf / (|f|_Hs^theta |f|_H(s+1)^(1-theta)) on the
    d/2 < s <= d/2+1 branch with theta = (s - d/2)/2; above that branch the
    denominator is |f|_Hs alone."""
    d = spec.dim
    if s <= d / 2:
        raise ValueError("need s > d/2")
    on_branch = s <= d / 2 + 1.0
    theta = 0.5 * (s - d / 2) if on_branch else None

    def one(i: int):
        rng = spec.rng(i)
        f = spec.draw(rng)
        lhs = field_lp(f.gradient(), np.inf)
        hs = f.hs_norm(s)
        if hs == 0.0:
            return 0.0, 0.0
        if on_branch:
            rhs = hs ** theta * f.hs_norm(s + 1.0) ** (1.0 - theta)
        else:
            rhs = hs
        return lhs, rhs

    return _collect("interpolation", spec, one, samples,
                    dict(s=s, theta=theta, boundary=s == d / 2 + 1.0))


def _collect(name: str, spec: RandomFieldSpec, one: Callable[[int], tuple],
             samples: int, extra_meta: Dict) -> EstimateReport:
    results = [one(i) for i in range(samples)]
    pairs = [(l, r) for l, r in results if r > 0.0]
    skipped = len(results) - len(pairs)
    meta = dict(dim=spec.dim, cutoff=spec.cutoff, rho=spec.rho,
                seed=spec.seed, **extra_meta)
    return EstimateReport.from_pairs(name, pairs, skipped, meta)


# -- uniqueness probe --------------------------------------------------------------


@dataclass
class GrowthReport:
    times: np.ndarray
    e: np.ndarray                    # squared L2 distance per sample
    amplitude: float
    status_base: str
    status_pert: str
    partial: bool
    g_fit: float                     # least-squares slope of log e(t)
    g_envelope: float                # smallest G with e(t) <= e(0) exp(G t)


def perturbation(state: SimState, amplitude: float, seed: int = 0) -> SimState:
    """Smooth random perturbation scaled so the initial squared L2 distance
    is exactly amplitude^2; the velocity part stays divergence-free and all
    parts are mean-free."""
    spec = RandomFieldSpec(dim=state.dim, cutoff=state.cutoff, rho=2.0, seed=seed)
    rng = spec.rng(0)
    dv = VectorSpectralField(
        tuple(spec.draw(rng) for _ in range(state.dim))).leray_project()
    dw = spec.draw(rng)
    db = spec.draw(rng)
    e_raw = dv.hs_norm_sq(0.0) + dw.hs_norm_sq(0.0) + db.hs_norm_sq(0.0)
    if amplitude == 0.0 or e_raw == 0.0:
        z = VectorSpectralField.zeros(state.dim, state.cutoff)
        zf = SpectralField.zeros(state.dim, state.cutoff)
        return SimState(z, zf, zf.copy(), state.t)
    c = amplitude / math.sqrt(e_raw)
    return SimState(dv * c, dw * c, db * c, state.t)


def uniqueness_probe(state0: SimState, amplitude: float, params: ModelParams,
                     profile: CutoffProfile, config: IntegratorConfig,
                     seed: int = 0) -> GrowthReport:
    """Integrate state0 and state0 + delta, track the squared L2 distance
    e(t), and fit exponential growth.  In the linear regime e scales with
    amplitude^2, the Gronwall mechanism behind uniqueness."""
    delta = perturbation(state0, amplitude, seed)
    pert0 = SimState(state0.v + delta.v, state0.omega + delta.omega,
                     state0.b + delta.b, state0.t)
    base = integrate(state0, config, params, profile)
    pert = integrate(pert0, config, params, profile)
    n_common = min(len(base.states), len(pert.states))
    partial = (base.status != "completed" or pert.status != "completed"
               or len(base.states) != len(pert.states))
    times = np.array([base.states[i].t for i in range(n_common)])
    e = np.array([float(np.sum(np.abs(pack(base.states[i])
                                      - pack(pert.states[i])) ** 2))
                  for i in range(n_common)])

    g_fit = 0.0
    g_env = 0.0
    positive = e > 0.0
    if np.sum(positive) >= 2 and e[0] > 0.0:
        log_e = np.log(e[positive])
        g_fit = float(np.polyfit(times[positive], log_e, 1)[0])
        later = positive & (times > times[0])
        if np.any(later):
            g_env = float(np.max((np.log(e[later]) - np.log(e[0]))
                                 / (times[later] - times[0])))
    return GrowthReport(times=times, e=e, amplitude=amplitude,
                        status_base=base.status, status_pert=pert.status,
                        partial=partial, g_fit=g_fit, g_envelope=g_env)
