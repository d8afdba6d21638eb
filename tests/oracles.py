"""Literal oracles for the spectral transforms and products: term-by-term
sums over modes, independent of the FFT paths they check."""

import numpy as np

from kolmosim.spectral import SpectralField, _geometry


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
