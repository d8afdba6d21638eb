"""Time-dependent comparison bounds and the smooth cutoff functions that
regularize the turbulent viscosity.

The lower/upper envelopes solve the comparison ODEs w' = -alpha*w^2 and
b' = -b*omega_upper; the cutoffs Phi (for b) and Psi (for omega) are C-infinity
monotone piecewise blends built from the classical exp(-1/u) step, so every
finite derivative-bound requirement is met by one construction.  The
kernel composes nubar on its quadrature grid (`nu_bar_grid`); `nu_bar` is
the same composition on field objects, through their real parts' halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral import (SpectralField, coefficients_to_real_grid, real_grid_to_coefficients,
                       real_half)


@dataclass(frozen=True)
class InitialBounds:
    """Pointwise bounds of the admissible initial data."""

    b_min0: float
    omega_min0: float
    omega_max0: float
    alpha: float

    def __post_init__(self):
        if not 0 < self.omega_min0 <= self.omega_max0 < math.inf:
            raise ValueError("hypothesis violated: need 0 < omega_min0 <= omega_max0 < inf")
        if not 0 < self.b_min0 < math.inf:
            raise ValueError("hypothesis violated: need 0 < b_min0 < inf")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha!r}")


class ProfileValues(NamedTuple):
    b_lower: float
    omega_lower: float
    omega_upper: float
    nu_lower: float


def time_profiles(bounds: InitialBounds, t: float) -> ProfileValues:
    """Envelope values (b_lower, omega_lower, omega_upper, nu_lower) at time t.

    omega_lower(t) = omega_min0 / (1 + alpha*omega_min0*t)
    omega_upper(t) = omega_max0 / (1 + alpha*omega_max0*t)
    b_lower(t)     = b_min0 * (1 + alpha*omega_max0*t)^(-1/alpha)
    nu_lower(t)    = b_lower(t) / (4 * omega_upper(t))
    """
    if t < 0:
        raise ValueError("profiles defined for t >= 0 only")
    a = bounds.alpha
    w_lo = bounds.omega_min0 / (1.0 + a * bounds.omega_min0 * t)
    w_hi = bounds.omega_max0 / (1.0 + a * bounds.omega_max0 * t)
    b_lo = bounds.b_min0 * (1.0 + a * bounds.omega_max0 * t) ** (-1.0 / a)
    nu_lo = 0.25 * b_lo / w_hi
    return ProfileValues(b_lo, w_lo, w_hi, nu_lo)


def smooth_step(u):
    """C-infinity monotone step: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    out = np.where(u >= 1.0, 1.0, 0.0)
    mid = ~((u <= 0.0) | (u >= 1.0))       # exponentials only here (NaN stays NaN)
    u_mid = u[mid]
    with np.errstate(over="ignore"):       # -1/u overflows for subnormal u
        lo = np.exp(-1.0 / u_mid)
    hi = np.exp(-1.0 / (1.0 - u_mid))
    out[mid] = lo / (lo + hi)
    return out


@dataclass(frozen=True)
class CutoffProfile:
    """Immutable cutoff construction for one run.  The exp-bump
    construction is C-infinity, so it takes no smoothness order."""

    bounds: InitialBounds

    def values(self, t: float) -> ProfileValues:
        return time_profiles(self.bounds, t)


def _ramp_up(out: np.ndarray, x: np.ndarray, c: float) -> None:
    """On c <= x < 2c blend the plateau c into the identity, (1-s) c + s x
    with s = smooth_step((x-c)/c); only those points are evaluated."""
    band = (x >= c) & (x < 2.0 * c)
    xb = x[band]
    s = smooth_step((xb - c) / c)
    out[band] = (1.0 - s) * c + s * xb


def _phi(x: np.ndarray, b_lo: float, lo: float) -> np.ndarray:
    """Phi on samples x whose minimum is lo (NaN if x holds a NaN, -inf to
    build every piece): plateau b_lo/2, ramp, identity from b_lo on.  With no
    sample below b_lo it is x itself, not a copy."""
    if lo >= b_lo:
        return x
    out = np.where(x < 0.5 * b_lo, 0.5 * b_lo, x)
    _ramp_up(out, x, 0.5 * b_lo)
    return out


def _psi(x: np.ndarray, w_lo: float, w_hi: float, lo: float, hi: float) -> np.ndarray:
    """Psi on samples x with minimum lo and maximum hi (NaN if x holds a
    NaN, -inf and inf to build every piece): plateau w_lo/2, ramp, identity on
    [w_lo, w_hi], ramp, plateau 2 w_hi.  A side's plateau and ramp are built
    only when a sample lies beyond that end of the identity band; with none
    it is x itself, not a copy."""
    out = x
    if not lo >= w_lo:
        out = np.where(x < 0.5 * w_lo, 0.5 * w_lo, x)
        _ramp_up(out, x, 0.5 * w_lo)
    if not hi <= w_hi:
        out = np.where(x <= w_hi, out, 2.0 * w_hi)
        band = (x > w_hi) & (x < 2.0 * w_hi)       # identity down to the upper plateau
        xb = x[band]
        s = smooth_step((xb - w_hi) / w_hi)
        out[band] = (1.0 - s) * xb + s * (2.0 * w_hi)
    return out


def phi_b(x, t: float, profile: CutoffProfile):
    """Cutoff for b: plateau b_lower/2 below, identity above b_lower."""
    b_lo = time_profiles(profile.bounds, t).b_lower
    out = _phi(np.asarray(x, dtype=float), b_lo, -np.inf)
    return out if out.ndim else float(out)


def psi_omega(x, t: float, profile: CutoffProfile):
    """Cutoff for omega: plateaus omega_lower/2 and 2*omega_upper, identity band between."""
    vals = time_profiles(profile.bounds, t)
    out = _psi(np.asarray(x, dtype=float), vals.omega_lower, vals.omega_upper,
               -np.inf, np.inf)
    return out if out.ndim else float(out)


def nu_bar_grid(b_grid: np.ndarray, omega_grid: np.ndarray, t: float,
                profile: CutoffProfile) -> np.ndarray:
    """Pointwise regularized viscosity Phi_t(b)/Psi_t(omega) on a physical grid.

    It reads min b, min omega and max omega first (the ufuncs' own
    reductions, without numpy's Python wrappers) and builds the pieces of
    the cutoffs that samples can fall in, so with every sample in the
    identity bands it is one divide, b/omega; bit for bit the composition
    phi_b(b) / psi_omega(omega), NaN samples included.
    """
    vals = time_profiles(profile.bounds, t)
    b = np.asarray(b_grid, dtype=float)
    w = np.asarray(omega_grid, dtype=float)
    return (_phi(b, vals.b_lower, np.minimum.reduce(b, axis=None))
            / _psi(w, vals.omega_lower, vals.omega_upper, np.minimum.reduce(w, axis=None),
                   np.maximum.reduce(w, axis=None)))


def nu_bar(b_n: SpectralField, omega_n: SpectralField, t: float, n_grid: int,
           profile: CutoffProfile) -> SpectralField:
    """Regularized viscosity as a truncated spectral field.

    n_grid is the number of physical points per axis used for the composition
    quadrature; it must resolve the fields (n_grid >= 2*cutoff-1).
    """
    if (b_n.dim, b_n.cutoff) != (omega_n.dim, omega_n.cutoff):
        raise ValueError("fields must share layout")
    d, n = b_n.dim, b_n.cutoff
    pair = real_half(np.stack((b_n.coeffs, omega_n.coeffs)), d)
    b_grid, w_grid = coefficients_to_real_grid(pair, n, d, n_grid)
    grid = nu_bar_grid(b_grid, w_grid, t, profile)
    return SpectralField.from_half(real_grid_to_coefficients(grid, n, d), d, n)
