"""Literal oracles for the spectral transforms and products: term-by-term
sums over modes, independent of the FFT paths they check; and the estimate
campaigns' samples evaluated one at a time on field objects, through the
public one-field functions, which the stacked campaigns must match bit for
bit."""

import math

import numpy as np

from kolmosim.estimates import (_SMOOTH_MAPS, commutator, field_lp,
                                smooth_map_derivative_bound)
from kolmosim.spectral import (SpectralField, _geometry, fast_grid_size,
                               real_grid_to_coefficients, spectral_product)


def trigonometric_sum(f, points):
    """sum_k c_k exp(2 pi i k.x) on the grid x_j = j/points, term by term."""
    x = np.indices((points,) * f.dim) / points
    out = np.zeros((points,) * f.dim, dtype=complex)
    for k, c in zip(*f.modes_and_coefficients()):
        out += c * np.exp(2j * np.pi * np.tensordot(k, x, axes=1))
    return out


def direct_convolution(f, g, out_cutoff):
    """P_m(f g) as the literal convolution sum over mode pairs, for fields
    that need not be real."""
    kf, cf = f.modes_and_coefficients()
    kg, cg = g.modes_and_coefficients()
    geo = _geometry(f.dim, out_cutoff)
    out = np.zeros((geo.side,) * f.dim, dtype=complex)
    limit_sq = out_cutoff * out_cutoff
    block = max(1, 2_000_000 // max(len(kg), 1))
    for lo in range(0, len(kf), block):
        ks = kf[lo:lo + block, None, :] + kg[None, :, :]
        prods = cf[lo:lo + block, None] * cg[None, :]
        keep = np.sum(ks.astype(np.int64) ** 2, axis=-1) < limit_sq
        idx = ks[keep] + (out_cutoff - 1)
        np.add.at(out, tuple(idx.T), prods[keep])
    return SpectralField(f.dim, out_cutoff, out)


# -- the estimate campaigns one sample at a time ------------------------------------


def commutator_sample(spec, i, s, p=2.0, p1=np.inf, p2=2.0, p3=np.inf, p4=2.0):
    """(lhs, rhs) of commutator campaign sample i, from field objects."""
    rng = spec.rng(i)
    f, g = spec.draw(rng), spec.draw(rng)
    lhs = field_lp(commutator(f, g, s), p)
    return lhs, (field_lp(f.gradient(), p1) * field_lp(g.bessel(s - 1.0), p2)
                 + field_lp(g, p3) * field_lp(f.bessel(s), p4))


def product_sample(spec, i, s, exponents=(2.0, 2.0, np.inf, np.inf, 2.0)):
    """(lhs, rhs) of product campaign sample i, from field objects."""
    p, p1, q1, p2, q2 = exponents
    rng = spec.rng(i)
    f, g = spec.draw(rng), spec.draw(rng)
    fg = spectral_product(f, g, out_cutoff=2 * f.cutoff - 1)
    return field_lp(fg.bessel(s), p), (field_lp(f.bessel(s), p1) * field_lp(g, q1)
                                       + field_lp(f, p2) * field_lp(g.bessel(s), q2))


def composition_sample(spec, i, s, g_name="sin"):
    """(lhs, rhs) of composition campaign sample i; (0, 0) where f = 0."""
    f = spec.draw(spec.rng(i))
    grid = f.real_samples(fast_grid_size(4 * (2 * f.cutoff - 1)))
    f_inf = float(np.max(np.abs(grid)))
    if f_inf == 0.0:
        return 0.0, 0.0
    m = 2 * f.cutoff - 1
    gf = SpectralField(f.dim, m, real_grid_to_coefficients(_SMOOTH_MAPS[g_name][0](grid), m, f.dim))
    bound = smooth_map_derivative_bound(g_name, math.ceil(s) + 1, f_inf)
    return gf.hs_norm(s), bound * (1.0 + f_inf) ** math.ceil(s) * f.hs_norm(s)


def interpolation_sample(spec, i, s):
    """(lhs, rhs) of interpolation campaign sample i; (0, 0) where f = 0."""
    f = spec.draw(spec.rng(i))
    hs = f.hs_norm(s)
    if hs == 0.0:
        return 0.0, 0.0
    lhs = field_lp(f.gradient(), np.inf)
    if s > f.dim / 2 + 1.0:
        return lhs, hs
    theta = 0.5 * (s - f.dim / 2)
    return lhs, hs ** theta * f.hs_norm(s + 1.0) ** (1.0 - theta)
