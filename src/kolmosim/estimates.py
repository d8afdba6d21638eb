"""Randomized campaigns that exercise the fractional-Sobolev inequalities the
well-posedness argument rests on: commutator, product, composition and
interpolation bounds, the three-part commutator symbol decomposition, and a
two-trajectory probe of the Gronwall uniqueness mechanism.

Each campaign draws reproducible random trigonometric polynomials, evaluates
both sides of one inequality per sample, and reports the ratio statistics.
A bounded max ratio that is stable when the cutoff doubles is the empirical
surrogate for a constant independent of the fields.  The commutator and
product campaigns check their exponents by one rule and share one evaluator.

L^2 and H^s norms are exact: they are read from the coefficients (Parseval)
and sample no grid.  Other L^p norms are quadratures on an oversampled grid,
and sup norms are grid maxima, lower bounds of the continuum sup, taken
before the magnitude (max(max g, -min g), the sqrt of the largest sum of
squares), which is the same value.  Products and commutators are sampled on
`product_points`, a fast size at least 2(2n-1).  The smooth maps'
derivative bounds are looked up in tables built once per (map, order), and
the decomposition's symbol tables once per (dim, cutoff, s), on the mode
pairs that land in the doubled ball.

A campaign evaluates given fields in stacks: as many samples as fit their
largest quadrature grid in _STACK_BYTES (256 KiB), at least one.  `_collect`
draws each stack, sample i from its own stream, as canonical halves,
(samples, fields, n_half).  Each stream is generated once per process:
the longest prefix of unit normals drawn from it so far is memoized, a
longer request extends it, and a sample's fields are copied from it.  In
the evaluator each operand group takes one transform call per stack: the
commutator's f, g and J^s g, its products, the grid norms of one
inequality's side (`_lp_norms`).  A half can only describe a real field,
so the stacked helpers convert no layout and check nothing.  The public
one-field functions (`commutator`, `field_lp`) are their one-sample case,
and every value is bit for bit the one-sample evaluation's.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cutoffs import CutoffProfile, smooth_step
from .integrators import IntegratorConfig, integrate_lockstep
from .spectral import (FOUR_PI_SQ, SpectralField, VectorSpectralField, _geometry,
                       checked_real_half, coefficients_to_real_grid, fast_grid_size,
                       leray_coefficients, lp_norm, product_points, real_grid_to_coefficients,
                       real_half, spectral_product, spectral_products)
from .system import ModelParams, SimState, halves, monitor_grid, triple_sq

_MAX_PAIRS = 20_000_000    # mode pairs of the ball the exact decomposition sums at most

# -- random field plumbing ---------------------------------------------------------


@dataclass(frozen=True)
class RandomFieldSpec:
    """Reproducible random trigonometric polynomials: unit-normal complex
    amplitudes damped by (1+|k|)^(-rho), conjugate-symmetrized.

    Sample i draws its fields from its own stream, default_rng((seed, i)):
    its unit normals give each field's real parts and then its imaginary
    parts, field after field.  `draw` takes one field from a held generator;
    `draws` copies all of a sample's fields from the stream's memoized
    prefix, so each stream is generated once per process (`_StreamMemo`)."""

    dim: int = 2
    cutoff: int = 8
    rho: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2 or self.cutoff < 1:
            raise ValueError("need dim >= 2, cutoff >= 1")
        if not 0.0 <= self.rho < math.inf:
            raise ValueError(f"rho must be finite and >= 0, got {self.rho!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")

    def rng(self, index: int) -> np.random.Generator:
        """A fresh generator on sample `index`'s stream, default_rng((seed, index))."""
        return np.random.default_rng(self._stream(index))

    def _stream(self, index: int) -> Tuple[int, int]:
        """Sample `index`'s stream key (seed, index); the index must be an int
        >= 0, bool refused (True would read stream 1)."""
        if (isinstance(index, bool) or not isinstance(index, numbers.Integral)
                or index < 0):
            raise ValueError(f"index must be an int >= 0, got {index!r}")
        return self.seed, int(index)

    def draw(self, rng: np.random.Generator, scale: float = 1.0) -> SpectralField:
        """The next field of `rng`'s stream, from one normal call."""
        half = self._halves(rng.standard_normal((1, 2, (2 * self.cutoff - 1) ** self.dim)), scale)
        return SpectralField.from_half(half[0], self.dim, self.cutoff)

    def draws(self, indices: Sequence[int], count: int) -> np.ndarray:
        """(len(indices), count, n_half): the canonical halves of the first
        `count` fields sample i draws from rng(i), bit for bit those of draw.
        Each sample copies its count * 2 * (2n-1)^d unit normals from its
        stream's memoized prefix (`_STREAMS`)."""
        cube = (2 * self.cutoff - 1) ** self.dim
        normals = np.empty((len(indices), count * 2 * cube))
        for index, out in zip(indices, normals):
            out[:] = _STREAMS.prefix(self._stream(index), out.size)
        return self._halves(normals.reshape(len(indices), count, 2, cube))

    def _halves(self, normals: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """The mean-free real parts' canonical halves of a (..., fields, 2,
        cube size) stack of unit normals N, times d = (1+|k|)^(-rho) scale.
        A stream's normals fill field j's real parts [j, 0] and then its
        imaginary parts [j, 1], the values of rng.normal(...) + 1j *
        rng.normal(...)."""
        geo = _geometry(self.dim, self.cutoff)
        damping = _damping(self.dim, self.cutoff, float(self.rho))
        cubes = np.empty(normals.shape[:-2] + geo.k_sq.shape, dtype=complex)
        flat = cubes.reshape(normals.shape[:-2] + normals.shape[-1:])
        np.multiply(normals[..., 0, :], damping, out=flat.real)
        np.multiply(normals[..., 1, :], damping, out=flat.imag)
        if scale != 1.0:
            cubes *= scale
        half = real_half(cubes, self.dim)
        half[..., geo.origin] = 0.0
        return half

    def with_cutoff(self, cutoff: int) -> "RandomFieldSpec":
        return replace(self, cutoff=cutoff)


# Bytes of unit normals the stream memo keeps.  8 MiB holds every stream of
# `kolmosim verify`'s default 200-sample campaigns at n = 8 and their 2n = 16
# rerun (200 streams x 2 fields x 2 x 31^2 normals, 6.2 MB), and criterion
# 09's set the same way; a longer stream is drawn without being kept.
_STREAM_BYTES = 8 * 1024 * 1024


class _StreamMemo:
    """For each (seed, index) stream, default_rng((seed, index)), the longest
    prefix of unit normals drawn from it so far (read-only float64) and the
    PCG64 state after it.  A longer request restores that state into a
    generator of its own and draws only the missing normals: standard_normal
    drawn in pieces is the same sequence as one call.  The prefixes' bytes
    stay within _STREAM_BYTES, the least recently used stream evicted first.
    A lock guards the table; threads never share a generator."""

    def __init__(self):
        self._lock = threading.Lock()
        self._kept = OrderedDict()        # (seed, index) -> (prefix, state after it)
        self.nbytes = 0

    def prefix(self, key: Tuple[int, int], size: int) -> np.ndarray:
        """The stream's first `size` unit normals, read-only."""
        with self._lock:
            entry = self._kept.get(key)
            if entry is not None:
                self._kept.move_to_end(key)
                if entry[0].size >= size:
                    return entry[0][:size]
        gen = np.random.default_rng(key)
        head = np.empty(0)
        if entry is not None:               # skip what the memo holds
            head, state = entry
            gen.bit_generator.state = state
        prefix = np.concatenate((head, gen.standard_normal(size - head.size)))
        prefix.setflags(write=False)
        if prefix.nbytes <= _STREAM_BYTES:
            self._keep(key, prefix, gen.bit_generator.state)
        return prefix

    def _keep(self, key: Tuple[int, int], prefix: np.ndarray, state: dict) -> None:
        with self._lock:
            old = self._kept.get(key)
            if old is not None:
                if old[0].size >= prefix.size:      # another thread got further
                    return
                self.nbytes -= old[0].nbytes
            self._kept[key] = prefix, state
            self._kept.move_to_end(key)
            self.nbytes += prefix.nbytes
            while self.nbytes > _STREAM_BYTES:
                _, (evicted, _) = self._kept.popitem(last=False)
                self.nbytes -= evicted.nbytes


_STREAMS = _StreamMemo()


@functools.lru_cache(maxsize=None)
def _damping(dim: int, cutoff: int, rho: float) -> np.ndarray:
    """(1+|k|)^(-rho) on the flat cube, built once per (dim, cutoff, rho)."""
    amp = ((1.0 + np.sqrt(_geometry(dim, cutoff).k_sq)) ** (-rho)).ravel()
    amp.setflags(write=False)
    return amp


def _squared_samples(f: SpectralField, points: int) -> np.ndarray:
    """The squares of the field's real samples on the points^d grid, in
    place of the samples."""
    samples = f.real_samples(points)
    return np.square(samples, out=samples)


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
        g = f.real_samples(fine)
        g_min, g_max = float(np.min(g)), float(np.max(g))
        del g
        # Continuum extrema can exceed the fine-grid extrema by at most
        # |grad f|_inf times the farthest node distance; the grid sup of the
        # gradient (doubled for safety) stands in for |grad f|_inf, so the
        # enlarged interval is mapped and containment holds pointwise.  The
        # squared components are summed one grid at a time.
        first, *rest = f.gradient().components
        grad_sq = _squared_samples(first, fine)
        for component in rest:
            grad_sq += _squared_samples(component, fine)
        slack = math.sqrt(float(np.max(grad_sq))) * math.sqrt(spec.dim) / fine
        g_lo = g_min - slack
        g_hi = g_max + slack
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


def attach_stability(report: EstimateReport, doubled: EstimateReport) -> EstimateReport:
    lo = max(report.max_ratio, 1e-300)
    report.stability = {
        "cutoffs": (report.meta["cutoff"], doubled.meta["cutoff"]),
        "max_ratios": (report.max_ratio, doubled.max_ratio),
        "factor": doubled.max_ratio / lo,
    }
    return report


# -- norms -------------------------------------------------------------------------


def field_lp(f, p: float) -> float:
    """L^p norm of the field's real part; vectors use the Euclidean magnitude.

    p = 2 is exact by Parseval, sqrt(sum |c|^2) over the real part's
    coefficients (and the components of a vector), and samples no grid.
    Other p use torus quadrature on the fast_grid_size(4(2n-1)) grid through
    the half spectrum; p = inf is the grid maximum, a lower bound.  It is
    the one-sample case of `_lp_norms`.  p must lie in [1, inf]: below 1 the
    quadrature is no norm.
    """
    if not 1.0 <= p <= math.inf:        # NaN included
        raise ValueError(f"field_lp: p must lie in [1, inf], got {p!r}")
    cube = f.stack() if isinstance(f, VectorSpectralField) else f.coeffs[None]
    return float(_lp_norms([real_half(cube, f.dim)[None]], (p,), f.cutoff, f.dim)[0][0])


def _lp_norms(operands: Sequence[np.ndarray], ps: Sequence[float], cutoff: int,
              dim: int) -> List[np.ndarray]:
    """field_lp on stacks of samples.  Operand j is a (samples, rows, n_half)
    stack of canonical halves, a scalar field per sample (rows = 1) or a
    vector's components (rows = dim, normed by the Euclidean magnitude); its
    norms at ps[j] come back as an array of one value per sample, each bit
    for bit the one-sample call's.  p = 2 is `triple_sq` at s = 0 (Parseval);
    the operands with p != 2 share one transform call."""
    gridded = [c for c, p in zip(operands, ps) if p != 2]
    if gridded:
        stack = np.concatenate(gridded, axis=1)
        grids = coefficients_to_real_grid(stack.reshape(-1, stack.shape[-1]), cutoff, dim,
                                          monitor_grid(cutoff))
        grids = grids.reshape(stack.shape[:2] + grids.shape[1:])
    norms = []
    row = 0
    for c, p in zip(operands, ps):
        if p == 2:
            norms.append(np.sqrt(triple_sq(c, 0.0, dim, cutoff)))
        else:       # the call's own output, overwritten in place
            norms.append(_grid_norms(grids[:, row:row + c.shape[1]], p, dim))
            row += c.shape[1]
    return norms


def _grid_norms(grid: np.ndarray, p: float, dim: int) -> np.ndarray:
    """The L^p norms of a (samples, rows) + grid stack (overwritten), of |g|
    for one row and of the Euclidean magnitude for several.  A sup norm
    takes the max first: _sup_abs for one row, and for several the sqrt of
    the largest sum of squares (sqrt is monotone), the same values."""
    if grid.shape[1] == 1:
        if math.isinf(p):
            return _sup_abs(grid[:, 0], dim)
        mags = np.abs(grid[:, 0], out=grid[:, 0])
    else:
        mags = np.sum(np.square(grid, out=grid), axis=1)
        if math.isinf(p):
            return np.sqrt(np.max(mags, axis=tuple(range(1, dim + 1))))
        np.sqrt(mags, out=mags)
    # one mean per sample: a mean over the stack could sum in another order
    return np.array([lp_norm(m, p) for m in mags])


def _sup_abs(grids: np.ndarray, dim: int) -> np.ndarray:
    """max |g| over each grid of a stack (the trailing dim axes) without a
    magnitude pass: max(max g, -min g), the same value, NaN included."""
    axes = tuple(range(-dim, 0))
    return np.maximum(np.max(grids, axis=axes), -np.min(grids, axis=axes))


def _bessel(half: np.ndarray, s: float, cutoff: int, dim: int) -> np.ndarray:
    """J^s of a stack of canonical halves: SpectralField.bessel's weights
    (1 + 4 pi^2 |k|^2)^(s/2), read at the half's modes."""
    return half * _geometry(dim, cutoff).half_bessel_weight(s / 2.0)


def _check_exponents(name: str, exponents: Sequence[float], finite: Sequence[int]) -> None:
    """Both Holder campaigns' rule for (p, a1, b1, a2, b2): each in (1, inf], NaN
    refused, finite at `finite`, 1/a + 1/b = 1/p for both pairs within 1e-12."""
    if len(exponents) != 5 or not all(1.0 < q and (q < math.inf or i not in finite)
                                       for i, q in enumerate(exponents)):
        raise ValueError(f"{name}: exponents {exponents!r} must be five in (1, inf], "
                         f"finite at positions {tuple(finite)}")
    p, a1, b1, a2, b2 = (1.0 / q for q in exponents)
    if max(abs(p - (a1 + b1)), abs(p - (a2 + b2))) > 1e-12:
        raise ValueError(f"{name}: exponents {exponents!r} break 1/a + 1/b = 1/p")


# -- commutator and its decomposition ----------------------------------------------


def commutator(f: SpectralField, g: SpectralField, s: float) -> SpectralField:
    """[J^s, f] g = J^s(fg) - f J^s g of real fields, exact on the doubled ball
    2n-1: the one-sample case of `_commutators`.  As `spectral_product` does,
    it refuses an operand, f, g or J^s g, that is not real (`checked_real_half`)."""
    if (f.dim, f.cutoff) != (g.dim, g.cutoff):
        raise ValueError("operands must share layout")
    d, n, m = f.dim, f.cutoff, 2 * f.cutoff - 1
    f_half, g_half, _ = checked_real_half(np.stack((f.coeffs, g.coeffs, g.bessel(s).coeffs)),
                                          d, "commutator")
    return SpectralField.from_half(_commutators(f_half, g_half, s, n, d), d, m)


def _commutators(f: np.ndarray, g: np.ndarray, s: float, cutoff: int,
                 dim: int) -> np.ndarray:
    """[J^s, f] g of stacks of canonical halves (batch + (n_half,)), as the
    halves of the doubled ball 2n-1, inside which products of two cutoff-n
    fields live.  The stack's f, g and J^s g are sampled in one inverse
    transform call on the product grid (`product_points`, a fast size at
    least 2(2n-1)), where f g and f J^s g are alias-free, and all products
    come back in one forward call; each result equals the convolution to
    roundoff and is bit for bit its one-sample call's."""
    m = 2 * cutoff - 1
    trio = np.stack((f, g, _bessel(g, s, cutoff, dim)), axis=-2)
    grids = coefficients_to_real_grid(trio.reshape(-1, trio.shape[-1]), cutoff, dim,
                                      product_points(cutoff))
    grids = grids.reshape((-1, 3) + grids.shape[1:])          # (samples, f g J^s g) + grid
    products = real_grid_to_coefficients(grids[:, 1:] * grids[:, :1], m, dim)
    return (_bessel(products[:, 0], s, m, dim) - products[:, 1]).reshape(f.shape[:-1] + (-1,))


class PartitionOfUnity:
    """Three smooth bump functions on [0, inf) summing to one, splitting the
    frequency-ratio axis into low, comparable, and high regimes."""

    lo_edge = 1.0 / 10.0
    lo_top = 1.0 / 9.0
    hi_top = 9.0
    hi_edge = 10.0

    def phi2(self, u):
        u = np.asarray(u, dtype=float)
        rise = smooth_step((u - self.lo_edge) / (self.lo_top - self.lo_edge))
        fall = smooth_step((self.hi_edge - u) / (self.hi_edge - self.hi_top))
        return np.where(u < 1.0, rise, fall)

    def split(self, u):
        """(phi1(u), phi2(u), phi3(u)): phi1 = 1 - phi2 below lo_top and
        phi3 = 1 - phi2 above hi_top, from one evaluation of phi2."""
        u = np.asarray(u, dtype=float)
        mid = self.phi2(u)
        rest = 1.0 - mid
        return (np.where(u < self.lo_top, rest, 0.0), mid,
                np.where(u > self.hi_top, rest, 0.0))


def commutator_decomposition(f: SpectralField, g: SpectralField, s: float):
    """Exact bilinear symbol sums sigma_j(D)(f, g) over all mode pairs.

    sigma_j(xi, eta) = ((1+4pi^2|xi+eta|^2)^(s/2) - (1+4pi^2|eta|^2)^(s/2))
                       * Phi_j((1+|xi|^2) / (1+|eta|^2)),
    summed onto the doubled ball, Phi_j the default PartitionOfUnity's.
    The three parts sum to the commutator.  Only the pairs with |xi+eta| <
    2n-1 are summed, in their row-major order, each part's real and
    imaginary halves by one np.bincount; the cubes are zero off the ball by
    construction, so they take no mask.
    """
    if (f.dim, f.cutoff) != (g.dim, g.cutoff):
        raise ValueError("operands must share layout")
    d, n = f.dim, f.cutoff
    ball = _geometry(d, n).ball
    m = int(np.count_nonzero(ball))
    if m * m > _MAX_PAIRS:
        raise ValueError(f"cutoff too large for the exact double sum "
                         f"({m * m} mode pairs > {_MAX_PAIRS})")
    flat, at_f, at_g, bessel_diff, phis = _decomposition_tables(d, n, s)
    weight = bessel_diff * f.coeffs.take(at_f) * g.coeffs.take(at_g)

    out_cutoff = 2 * n - 1
    side = 2 * out_cutoff - 1
    fields = []
    for phi in phis:
        part = weight * phi
        acc = np.empty(side ** d, dtype=complex)
        acc.real = np.bincount(flat, part.real, side ** d)
        acc.imag = np.bincount(flat, part.imag, side ** d)
        fields.append(SpectralField._on_ball(d, out_cutoff, acc.reshape((side,) * d)))
    return tuple(fields)


@functools.lru_cache(maxsize=3)
def _decomposition_tables(dim: int, cutoff: int, s: float):
    """What commutator_decomposition needs besides the coefficients, built
    once per (dim, cutoff, s), read-only, for the mode pairs (xi, eta) of
    the ball whose sum lands in the doubled ball, in row-major order: the
    sum's flat index on the doubled ball's cube, xi's and eta's flat indices
    on the ball's cube, the symbol's Bessel difference, and its three
    partition weights, each computed on all pairs and then selected.  The
    three most recent keys are kept (the three s of criterion 08), 56 bytes
    per kept pair each."""
    geo = _geometry(dim, cutoff)
    xi = geo.k[:, geo.ball].T.astype(np.int64)     # (m, d)
    eta = xi
    xi_sq = np.sum(xi ** 2, axis=1).astype(float)
    pair_sq = np.sum((xi[:, None, :] + eta[None, :, :]) ** 2, axis=2).astype(float)
    bessel_diff = ((1.0 + FOUR_PI_SQ * pair_sq) ** (s / 2.0)
                   - (1.0 + FOUR_PI_SQ * xi_sq[None, :]) ** (s / 2.0))
    ratio = (1.0 + xi_sq[:, None]) / (1.0 + xi_sq[None, :])
    out_cutoff = 2 * cutoff - 1
    offsets = tuple((xi[:, a, None] + eta[None, :, a]) + (out_cutoff - 1)
                    for a in range(dim))
    flat = np.ravel_multi_index(offsets, (2 * out_cutoff - 1,) * dim)
    kept = pair_sq < out_cutoff * out_cutoff
    at_f, at_g = (np.flatnonzero(geo.ball)[i] for i in np.nonzero(kept))
    tables = (flat[kept], at_f, at_g, bessel_diff[kept])
    phis = tuple(phi[kept] for phi in PartitionOfUnity().split(ratio))
    for arr in tables + phis:
        arr.setflags(write=False)
    return tables + (phis,)


def decomposition_residual(f: SpectralField, g: SpectralField, s: float) -> float:
    """L^2 distance between the sum of the three decomposition parts and the
    commutator, relative to the commutator's L^2 norm (criterion 08).  Where
    the commutator vanishes the residual is absolute: 0.0 if the distance is
    at most 1e-12, inf otherwise."""
    ref = commutator(f, g, s)
    total = sum(commutator_decomposition(f, g, s),
                SpectralField.zeros(f.dim, ref.cutoff))
    err = (total - ref).hs_norm(0.0)
    scale = ref.hs_norm(0.0)
    if scale == 0.0:
        return 0.0 if err <= 1e-12 else math.inf
    return err / scale


# -- inequality campaigns ----------------------------------------------------------


def verify_commutator_estimate(spec: RandomFieldSpec, s: float,
                               exponents: Tuple[float, ...] = (2.0, np.inf, 2.0, np.inf, 2.0),
                               samples: int = 200) -> EstimateReport:
    """ratio = |[J^s,f]g|_p / (|grad f|_p1 |J^(s-1)g|_p2 + |g|_p3 |J^s f|_p4) at
    s > 0, exponents (p, p1, p2, p3, p4) under `_check_exponents`, p, p2, p4 finite."""
    if s <= 0:
        raise ValueError("commutator estimate needs s > 0")
    _check_exponents("commutator", exponents, (0, 2, 4))
    d, n = spec.dim, spec.cutoff
    grad = _geometry(d, n).half_grad
    return _holder("commutator", spec, s, exponents, samples, product_fields=3, rows=(d, 1, 1, 1),
                   doubled=lambda pairs: _commutators(pairs[:, 0], pairs[:, 1], s, n, d),
                   operands=lambda f, g: [f * grad, _bessel(g, s - 1.0, n, d), g,
                                          _bessel(f, s, n, d)])


def verify_product_estimate(spec: RandomFieldSpec, s: float,
                            exponents: Tuple[float, ...] = (2.0, 2.0, np.inf, np.inf, 2.0),
                            samples: int = 200) -> EstimateReport:
    """ratio = |J^s(fg)|_p / (|J^s f|_p1 |g|_q1 + |f|_p2 |J^s g|_q2), exponents
    (p, p1, q1, p2, q2) under `_check_exponents`, p, p1, q2 finite."""
    _check_exponents("product", exponents, (0, 1, 4))
    d, n = spec.dim, spec.cutoff
    m = 2 * n - 1
    return _holder("product", spec, s, exponents, samples, product_fields=2, rows=(1, 1, 1, 1),
                   doubled=lambda pairs: _bessel(spectral_products(pairs, n, d, m), s, m, d),
                   operands=lambda f, g: [_bessel(f, s, n, d), g, f, _bessel(g, s, n, d)])


def _holder(name: str, spec: RandomFieldSpec, s: float, exponents: Tuple[float, ...],
            samples: int, *, product_fields: int, rows: Tuple[int, ...], doubled: Callable,
            operands: Callable) -> EstimateReport:
    """Both Holder campaigns: lhs = |doubled(pairs)|_p on the doubled ball, rhs
    = a b + c e, the norms at exponents[1:] of the four operands(f, g), whose
    `rows` off L^2 share the norm grid with product_fields on the product grid."""
    p, *qs = exponents
    d, n = spec.dim, spec.cutoff
    m = 2 * n - 1

    def evaluate(pairs):
        lhs = _lp_norms([doubled(pairs)[:, None]], (p,), m, d)[0].tolist()
        f, g = pairs[:, :1], pairs[:, 1:]
        a, b, c, e = (x.tolist() for x in _lp_norms(operands(f, g), qs, n, d))
        return lhs, [w * x + y * z for w, x, y, z in zip(a, b, c, e)]

    grids = [(product_points(n), product_fields),
             (monitor_grid(n), sum(r for r, q in zip(rows, qs) if q != 2)),
             (monitor_grid(m), int(p != 2))]
    return _collect(name, spec, samples, 2, grids, evaluate, dict(s=s, exponents=exponents))


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


_TABLE_STEP = 2.0 ** -12           # node spacing of the derivative tables
_TABLE_MAX_EXTENT = 2.0 ** 10      # largest radius a table grows to
_DERIVATIVE_TABLES: Dict[Tuple[str, int], np.ndarray] = {}


def _abs_derivatives(name: str, order: int, y: np.ndarray) -> np.ndarray:
    """max over 1 <= j <= order of |G^(j)(y)|, pointwise."""
    derivs = _SMOOTH_MAPS[name]
    out = np.abs(derivs[1](y))
    for j in range(2, order + 1):
        np.maximum(out, np.abs(derivs[j](y)), out=out)
    return out


def smooth_map_derivative_bound(name: str, order: int, radius: float) -> float:
    """max over 1 <= j <= order of sup_{|y| <= radius} |G^(j)(y)|.

    Every |G^(j)| here is even, so the sup is over [0, radius]: the larger of
    the exact value at the radius and a table's running maximum at the last
    node i * 2^-12 <= radius.  One table per (map, order), rebuilt at doubled
    extent when a larger radius arrives; node i's entry does not depend on
    the extent, so no lookup depends on the radii asked before.  An interior
    peak between nodes is read low by at most 2^-27 sup|G^(j+2)| (under 2e-7
    relative for these maps at radii in [0.1, 10]).  The radius must lie in
    [0, 1024].
    """
    if not 1 <= order < len(_SMOOTH_MAPS[name]):
        raise ValueError(f"{name}: derivative order {order} not tabulated")
    if not 0.0 <= radius <= _TABLE_MAX_EXTENT:
        raise ValueError(f"radius {radius!r} outside [0, {_TABLE_MAX_EXTENT:g}]")
    table = _DERIVATIVE_TABLES.get((name, order))
    if table is None or (len(table) - 1) * _TABLE_STEP < radius:
        extent = 1.0
        while extent < radius:
            extent *= 2.0
        y = np.arange(int(extent / _TABLE_STEP) + 1) * _TABLE_STEP
        table = np.maximum.accumulate(_abs_derivatives(name, order, y))
        _DERIVATIVE_TABLES[(name, order)] = table
    at_radius = _abs_derivatives(name, order, np.array([radius]))[0]
    return float(max(table[int(radius / _TABLE_STEP)], at_radius))


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
    d, n = spec.dim, spec.cutoff
    m = 2 * n - 1
    points = monitor_grid(n)

    def evaluate(fields):
        f = fields[:, 0]
        grids = coefficients_to_real_grid(f, n, d, points)
        f_inf = _sup_abs(grids, d).tolist()
        grids = _SMOOTH_MAPS[g_name][0](grids)     # f's samples freed before the forward
        gf = real_grid_to_coefficients(grids, m, d, overwrite=True)
        hs_f = _lp_norms([_bessel(f, s, n, d)[:, None]], (2.0,), n, d)[0].tolist()
        rhs = [0.0 if r == 0.0                    # skipped: 0/0
               else smooth_map_derivative_bound(g_name, math.ceil(s) + 1, r)
               * (1.0 + r) ** math.ceil(s) * hs for r, hs in zip(f_inf, hs_f)]
        return _lp_norms([_bessel(gf, s, m, d)[:, None]], (2.0,), m, d)[0].tolist(), rhs

    return _collect(f"composition[{g_name}]", spec, samples, 1, [(points, 1)], evaluate,
                    dict(s=s, G=g_name))


def verify_interpolation_inequality(spec: RandomFieldSpec, s: float,
                                    samples: int = 100) -> EstimateReport:
    """ratio = |grad f|_inf / (|f|_Hs^theta |f|_H(s+1)^(1-theta)) on the
    d/2 < s <= d/2+1 branch with theta = (s - d/2)/2; above that branch the
    denominator is |f|_Hs alone."""
    d, n = spec.dim, spec.cutoff
    if s <= d / 2:
        raise ValueError("need s > d/2")
    on_branch = s <= d / 2 + 1.0
    theta = 0.5 * (s - d / 2) if on_branch else None
    grad = _geometry(d, n).half_grad

    def evaluate(fields):
        f = fields[:, 0]
        lhs = _lp_norms([f[:, None] * grad], (np.inf,), n, d)[0]
        hs, hs_up = (x.tolist() for x in _lp_norms(
            [_bessel(f, s, n, d)[:, None], _bessel(f, s + 1.0, n, d)[:, None]], (2.0, 2.0), n, d))
        rhs = [0.0 if a == 0.0 else a ** theta * b ** (1.0 - theta) if on_branch else a
               for a, b in zip(hs, hs_up)]
        return lhs.tolist(), rhs

    return _collect("interpolation", spec, samples, 1, [(monitor_grid(n), d)], evaluate,
                    dict(s=s, theta=theta, boundary=s == d / 2 + 1.0))


# Quadrature grid bytes one stack of samples may hold.  Larger stacks save
# little more and cost memory: at 1 MiB a campaign pass faulted in ~30k fresh
# heap pages, against none at this size.
_STACK_BYTES = 256 * 1024


def _collect(name: str, spec: RandomFieldSpec, samples: int, count: int,
             grids: Sequence[Tuple[int, int]],
             evaluate: Callable[[np.ndarray], Tuple[List[float], List[float]]],
             meta: Dict) -> EstimateReport:
    """Draw samples 0..samples-1 in stacks (the one place a campaign draws),
    evaluate them and report their ratios.

    `grids` lists the (points per axis, fields) of each grid one sample
    needs; a stack holds as many samples as fit their largest grid in
    _STACK_BYTES, and at least one.  `evaluate(spec.draws(range(lo, hi),
    count))` returns the lhs and rhs of samples lo..hi-1.  A sample whose rhs
    is 0 is skipped; one whose lhs, rhs or ratio is not finite raises
    ValueError, as does a non-finite s (meta["s"]) before any draw.
    """
    if samples < 1:
        raise ValueError(f"{name}: need at least 1 sample, got {samples}")
    if not math.isfinite(meta["s"]):
        raise ValueError(f"{name}: s must be finite, got {meta['s']!r}")
    largest = max(8 * fields * points ** spec.dim for points, fields in grids)   # float64
    size = max(1, _STACK_BYTES // largest)
    lhs, rhs = [], []
    for lo in range(0, samples, size):
        a, b = evaluate(spec.draws(range(lo, min(lo + size, samples)), count))
        lhs += a
        rhs += b
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        if not (math.isfinite(a) and math.isfinite(b) and (b == 0.0 or math.isfinite(a / b))):
            raise ValueError(f"{name}: sample {i} has lhs {a!r} and rhs {b!r}: not finite")
    kept = [(a, b) for a, b in zip(lhs, rhs) if b != 0.0]
    ratios = [a / b for a, b in kept]
    return EstimateReport(
        name=name, samples=samples, lhs=[a for a, _ in kept], rhs=[b for _, b in kept],
        ratios=ratios, max_ratio=max(ratios, default=0.0),
        median_ratio=float(np.median(ratios)) if ratios else 0.0, skipped=samples - len(kept),
        meta=dict(dim=spec.dim, cutoff=spec.cutoff, rho=spec.rho, seed=spec.seed, **meta))


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
    d, n = state.dim, state.cutoff
    half = RandomFieldSpec(dim=d, cutoff=n, rho=2.0, seed=seed).draws([0], d + 2)
    half[:, :d] = leray_coefficients(half[:, :d], d, n)
    e_raw = float(triple_sq(half, 0.0, d, n)[0])
    c = 0.0 if amplitude == 0.0 or e_raw == 0.0 else amplitude / math.sqrt(e_raw)
    return SimState.from_half(c * half[0], d, n, state.t)


def uniqueness_probe(state0: SimState, amplitude: float, params: ModelParams,
                     profile: CutoffProfile, config: IntegratorConfig,
                     seed: int = 0) -> GrowthReport:
    """Integrate state0 and state0 + delta in lockstep, track the squared L2
    distance e(t), and fit exponential growth.  In the linear regime e scales
    with amplitude^2, the Gronwall mechanism behind uniqueness.  Both runs
    take the same steps, so e compares states at equal times (rk45 included),
    and with rk4 each run is bit-identical to its solo integration."""
    delta = perturbation(state0, amplitude, seed)
    pert0 = SimState(state0.v + delta.v, state0.omega + delta.omega,
                     state0.b + delta.b, state0.t)
    base, pert = integrate_lockstep([state0, pert0], config, params, profile)
    partial = (base.status != "completed" or pert.status != "completed"
               or len(base.states) != len(pert.states))
    k = min(len(base.states), len(pert.states))      # the samples both runs took
    times = base.times[:k]
    e = triple_sq(halves(base.states[:k]) - halves(pert.states[:k]), 0.0, state0.dim,
                  state0.cutoff)

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
