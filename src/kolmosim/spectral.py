"""Spectral fields on the d-dimensional unit torus [0,1)^d.

A field is stored by its Fourier coefficients on the integer modes k with
Euclidean norm |k| < n (the "cutoff"), laid out densely on the centered cube
{-(n-1),...,n-1}^d.  The basis is e_k(x) = exp(2*pi*i k.x), so an array of
coefficients c represents f(x) = sum_k c[k] e_k(x).

Conventions kept throughout the package:
  * Bessel weights carry the 4*pi^2 factor: J^s multiplies by
    (1 + 4*pi^2 |k|^2)^(s/2).
  * d/dx_i multiplies by 2*pi*i*k_i.
  * Physical grids are uniform with N points per axis at x_j = j/N.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

import scipy.fft as _fft      # in-place complex passes (overwrite_x)

FOUR_PI_SQ = 4.0 * np.pi ** 2
_TINY = 1e-300
REAL_TOL = 1e-12      # realness residual up to which coefficients count as a real field


class _ModeGeometry:
    """Precomputed mode bookkeeping for one (dim, cutoff) pair."""

    def __init__(self, dim: int, cutoff: int):
        if dim < 2:
            raise ValueError("torus dimension must be >= 2")
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        self.dim = dim
        self.cutoff = cutoff
        side = 2 * cutoff - 1
        self.side = side
        self.k = np.indices((side,) * dim) - (cutoff - 1)
        self.k_sq = np.sum(self.k.astype(np.int64) ** 2, axis=0)
        self.ball = self.k_sq < cutoff * cutoff
        # C-order iteration of the centered cube is lexicographic in k.
        self.ball_index = np.nonzero(self.ball)
        self.ball_k = np.stack([ax[self.ball_index] for ax in self.k], axis=-1)
        self.grad = 2j * np.pi * self.k                  # d/dx_a multiplies by row a
        self.leray_denom = np.where(self.k_sq == 0, 1, self.k_sq)
        self.upper = np.flatnonzero(self.k[-1] >= 0)    # flat indices with k_last >= 0
        self._weights: Dict[float, np.ndarray] = {}

    def bessel_weight(self, s: float) -> np.ndarray:
        """(1 + 4 pi^2 |k|^2)^s on the cube (note: exponent s, not s/2)."""
        s = float(s)
        w = self._weights.get(s)
        if w is None:
            w = (1.0 + FOUR_PI_SQ * self.k_sq) ** s
            self._weights[s] = w
        return w


@functools.lru_cache(maxsize=None)
def _geometry(dim: int, cutoff: int) -> _ModeGeometry:
    return _ModeGeometry(dim, cutoff)


@functools.lru_cache(maxsize=None)
def _fft_bins(dim: int, cutoff: int, points: int) -> np.ndarray:
    """Flat FFT bin of each centered-cube mode on a points^dim grid, built once
    per size."""
    if points < 2 * cutoff - 1:
        raise ValueError("grid too coarse for the mode cube")
    k = _geometry(dim, cutoff).k.reshape(dim, -1)
    bins = np.ravel_multi_index(tuple(k % points), (points,) * dim)
    bins.setflags(write=False)                # shared by every caller
    return bins


@functools.lru_cache(maxsize=None)
def _half_bins(dim: int, cutoff: int, points: int, upper: bool = False):
    """Index (one array per axis) of each centered-cube mode in the first
    `cutoff` columns of an rfftn half spectrum on a points^dim grid, built once
    per size.  A mode with k_last < 0 has no bin of its own and is given the
    bin of -k, which holds conj(c(k)) for real samples; upper=True keeps only
    the modes with k_last >= 0."""
    if points < 2 * cutoff - 1:
        raise ValueError("grid too coarse for the mode cube")
    geo = _geometry(dim, cutoff)
    k = geo.k.reshape(dim, -1)
    k = np.where(k[-1] >= 0, k, -k) % points
    if upper:
        k = k[:, geo.upper]
    k.setflags(write=False)
    return tuple(k)


def embed_coefficients(coeffs: np.ndarray, cutoff: int, dim: int, points: int) -> np.ndarray:
    """Place centered-cube coefficients into an FFT-layout cube of side `points`.

    Only the trailing dim axes are embedded; leading axes are a batch.
    """
    batch = coeffs.shape[:-dim]
    out = np.zeros(batch + (points ** dim,), dtype=complex)
    out[..., _fft_bins(dim, cutoff, points)] = coeffs.reshape(batch + (-1,))
    return out.reshape(batch + (points,) * dim)


def extract_coefficients(fft_cube: np.ndarray, cutoff: int, dim: int) -> np.ndarray:
    """Inverse of embed_coefficients for the trailing dim axes."""
    batch = fft_cube.shape[:-dim]
    flat = fft_cube.reshape(batch + (-1,))[..., _fft_bins(dim, cutoff, fft_cube.shape[-1])]
    return flat.reshape(batch + (2 * cutoff - 1,) * dim)


def coefficients_to_grid(coeffs: np.ndarray, cutoff: int, dim: int, points: int) -> np.ndarray:
    """Evaluate the trigonometric sum on the uniform grid x_j = j/points."""
    axes = tuple(range(-dim, 0))
    return np.fft.ifftn(embed_coefficients(coeffs, cutoff, dim, points), axes=axes, norm="forward")


def grid_to_coefficients(grid: np.ndarray, cutoff: int, dim: int) -> np.ndarray:
    """Trapezoid-free spectral quadrature: exact for band-limited grids."""
    axes = tuple(range(-dim, 0))
    cube = np.fft.fftn(grid, axes=axes, norm="forward")
    out = extract_coefficients(cube, cutoff, dim)
    return out * _geometry(dim, cutoff).ball


def coefficients_to_real_grid(coeffs: np.ndarray, cutoff: int, dim: int,
                              points: int, out: np.ndarray | None = None,
                              half: np.ndarray | None = None) -> np.ndarray:
    """Real samples of conjugate-symmetric coefficients (half-spectrum path).

    Requires c(-k) = conj(c(k)); any asymmetric part is silently discarded,
    so callers must hold the realness invariant.  Only the first `cutoff`
    columns of the half spectrum can be nonzero, so the complex passes run on
    those alone and the real pass pads the rest with zeros.  `out` (the grid
    stack) and `half` (complex, batch + (points,)*(dim-1) + (cutoff,),
    overwritten) are optional buffers for callers that repeat the transform.
    """
    upper = _geometry(dim, cutoff).upper          # the modes rfftn keeps
    batch = coeffs.shape[:-dim]
    if half is None:
        half = np.zeros(batch + (points,) * (dim - 1) + (cutoff,), dtype=complex)
    else:
        half.fill(0.0)
    half[(Ellipsis,) + _half_bins(dim, cutoff, points, upper=True)] = \
        coeffs.reshape(batch + (-1,))[..., upper]
    half = _fft.ifftn(half, axes=tuple(range(-dim, -1)), norm="forward", overwrite_x=True)
    return np.fft.irfft(half, n=points, axis=-1, norm="forward", out=out)


def real_grid_to_coefficients(grid: np.ndarray, cutoff: int, dim: int,
                              half: np.ndarray | None = None) -> np.ndarray:
    """Centered-cube coefficients of real grid samples via the half-spectrum.

    The complex passes run only on the first `cutoff` columns, the ones that
    hold modes.  `half` is an optional buffer of the real pass's output shape
    (overwritten).
    """
    geo = _geometry(dim, cutoff)
    half = np.fft.rfft(grid, axis=-1, norm="forward", out=half)
    cols = _fft.fftn(half[..., :cutoff], axes=tuple(range(-dim, -1)), norm="forward",
                     overwrite_x=True)
    vals = cols[(Ellipsis,) + _half_bins(dim, cutoff, grid.shape[-1])]
    vals = vals.reshape(grid.shape[:-dim] + geo.k_sq.shape)
    np.conjugate(vals, out=vals, where=geo.k[-1] < 0)
    vals[..., ~geo.ball] = 0.0
    return vals


def conj_flip(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """conj(c(-k)) on the trailing dim axes; leading axes are a batch and are
    not flipped.  Fixed points are the coefficients of real fields."""
    return np.conj(np.flip(coeffs, axis=tuple(range(-dim, 0))))


def symmetrize(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """(c(k) + conj(c(-k))) / 2: the coefficients of the field's real part."""
    return 0.5 * (coeffs + conj_flip(coeffs, dim))


def leray_coefficients(stack: np.ndarray, dim: int, cutoff: int) -> np.ndarray:
    """Leray projection of a (dim, side^dim) velocity stack:
    c(k) -= k (k.c(k)) / |k|^2 for k != 0."""
    geo = _geometry(dim, cutoff)
    k_dot = sum(geo.k[a] * stack[a] for a in range(dim))
    return stack - geo.k * k_dot / geo.leray_denom


def div_residual(stack: np.ndarray, dim: int, cutoff: int) -> float:
    """max_k |k . c(k)| of a (dim, side^dim) velocity stack, relative to its
    largest coefficient magnitude."""
    geo = _geometry(dim, cutoff)
    acc = sum(geo.k[a] * stack[a] for a in range(dim))
    scale = max(float(np.max(np.abs(stack))), _TINY)
    return float(np.max(np.abs(acc))) / scale


@dataclass
class SpectralField:
    """Scalar field with coefficients supported on the Euclidean mode ball."""

    dim: int
    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        geo = _geometry(self.dim, self.cutoff)
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (geo.side,) * self.dim:
            raise ValueError(f"expected coefficient cube of side {geo.side}, got {c.shape}")
        self.coeffs = np.where(geo.ball, c, 0.0)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, cutoff: int) -> "SpectralField":
        side = 2 * cutoff - 1
        return cls(dim, cutoff, np.zeros((side,) * dim, dtype=complex))

    @classmethod
    def from_modes(cls, dim: int, cutoff: int, modes: Dict[tuple, complex]) -> "SpectralField":
        """Build from a sparse {wavevector: amplitude} map."""
        side = 2 * cutoff - 1
        c = np.zeros((side,) * dim, dtype=complex)
        for k, amp in modes.items():
            if len(k) != dim:
                raise ValueError("wavevector dimension mismatch")
            if sum(int(ki) ** 2 for ki in k) >= cutoff * cutoff:
                raise ValueError(f"mode {k} outside |k| < {cutoff}")
            c[tuple(int(ki) + cutoff - 1 for ki in k)] = amp
        return cls(dim, cutoff, c)

    @classmethod
    def from_grid(cls, grid: np.ndarray, cutoff: int) -> "SpectralField":
        dim = grid.ndim
        return cls(dim, cutoff, grid_to_coefficients(grid, cutoff, dim))

    # -- bookkeeping ---------------------------------------------------------

    @property
    def geometry(self) -> _ModeGeometry:
        return _geometry(self.dim, self.cutoff)

    def copy(self) -> "SpectralField":
        return SpectralField(self.dim, self.cutoff, self.coeffs.copy())

    def mode(self, k) -> complex:
        geo = self.geometry
        idx = tuple(int(ki) + self.cutoff - 1 for ki in k)
        return complex(self.coeffs[idx])

    def modes_and_coefficients(self):
        """All ball modes (lexicographic) with their coefficients."""
        geo = self.geometry
        return geo.ball_k, self.coeffs[geo.ball_index]

    # -- algebra -------------------------------------------------------------

    def _binary(self, other: "SpectralField", op) -> "SpectralField":
        if not isinstance(other, SpectralField):
            return NotImplemented
        if (self.dim, self.cutoff) != (other.dim, other.cutoff):
            raise ValueError("field layouts differ")
        return SpectralField(self.dim, self.cutoff, op(self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return SpectralField(self.dim, self.cutoff, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.dim, self.cutoff, -self.coeffs)

    # -- operators ------------------------------------------------------------

    def project(self, new_cutoff: int) -> "SpectralField":
        """Galerkin projection P_m: keep modes with |k| < new_cutoff."""
        if new_cutoff == self.cutoff:
            return SpectralField(self.dim, self.cutoff, self.coeffs.copy())
        old_side = 2 * self.cutoff - 1
        new_side = 2 * new_cutoff - 1
        if new_cutoff < self.cutoff:
            lo = self.cutoff - new_cutoff
            sl = (slice(lo, lo + new_side),) * self.dim
            return SpectralField(self.dim, new_cutoff, self.coeffs[sl])
        pad = new_cutoff - self.cutoff
        c = np.zeros((new_side,) * self.dim, dtype=complex)
        sl = (slice(pad, pad + old_side),) * self.dim
        c[sl] = self.coeffs
        return SpectralField(self.dim, new_cutoff, c)

    def bessel(self, s: float) -> "SpectralField":
        """J^s f: multiply coefficients by (1 + 4 pi^2 |k|^2)^(s/2)."""
        w = self.geometry.bessel_weight(s / 2.0)
        return SpectralField(self.dim, self.cutoff, self.coeffs * w)

    def diff(self, axis: int) -> "SpectralField":
        """Partial derivative along one coordinate."""
        k = self.geometry.k[axis]
        return SpectralField(self.dim, self.cutoff, self.coeffs * (2j * np.pi * k))

    def gradient(self) -> "VectorSpectralField":
        return VectorSpectralField(tuple(self.diff(a) for a in range(self.dim)))

    def laplacian(self) -> "SpectralField":
        k_sq = self.geometry.k_sq
        return SpectralField(self.dim, self.cutoff, self.coeffs * (-FOUR_PI_SQ * k_sq))

    # -- norms and symmetries ---------------------------------------------------

    def hs_norm_sq(self, s: float) -> float:
        w = self.geometry.bessel_weight(float(s))
        return float(np.sum(w * np.abs(self.coeffs) ** 2))

    def hs_norm(self, s: float) -> float:
        return float(np.sqrt(self.hs_norm_sq(s)))

    def mean(self) -> complex:
        return self.mode((0,) * self.dim)

    def conj_mirror(self) -> "SpectralField":
        """Field with coefficients conj(c(-k)); fixed points are real fields."""
        return SpectralField(self.dim, self.cutoff, conj_flip(self.coeffs, self.dim))

    def realness_residual(self) -> float:
        scale = max(float(np.max(np.abs(self.coeffs))), _TINY)
        dev = np.max(np.abs(self.coeffs - conj_flip(self.coeffs, self.dim)))
        return float(dev) / scale

    def symmetrized(self) -> "SpectralField":
        return SpectralField(self.dim, self.cutoff, symmetrize(self.coeffs, self.dim))

    # -- physical space -----------------------------------------------------------

    def grid_points(self, oversample: int = 1) -> int:
        return oversample * (2 * self.cutoff - 1)

    def physical(self, oversample: int = 1, points: int | None = None) -> np.ndarray:
        """Complex samples on the uniform grid (real fields: imag ~ roundoff)."""
        n_pts = points if points is not None else self.grid_points(oversample)
        return coefficients_to_grid(self.coeffs, self.cutoff, self.dim, n_pts)

    def real_samples(self, points: int) -> np.ndarray:
        """physical(points=points).real through the half spectrum: samples of
        the field's real part, at about half the cost."""
        return coefficients_to_real_grid(symmetrize(self.coeffs, self.dim),
                                         self.cutoff, self.dim, points)


@dataclass
class VectorSpectralField:
    """d scalar fields sharing one mode layout, e.g. a velocity."""

    components: Tuple[SpectralField, ...]

    def __post_init__(self):
        dims = {(f.dim, f.cutoff) for f in self.components}
        if len(dims) != 1:
            raise ValueError("components must share dim and cutoff")
        if len(self.components) != self.components[0].dim:
            raise ValueError("need one component per space dimension")

    @classmethod
    def zeros(cls, dim: int, cutoff: int) -> "VectorSpectralField":
        return cls(tuple(SpectralField.zeros(dim, cutoff) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def cutoff(self) -> int:
        return self.components[0].cutoff

    def __add__(self, other):
        return VectorSpectralField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return VectorSpectralField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar):
        return VectorSpectralField(tuple(f * scalar for f in self.components))

    __rmul__ = __mul__

    def copy(self) -> "VectorSpectralField":
        return VectorSpectralField(tuple(f.copy() for f in self.components))

    def project(self, new_cutoff: int) -> "VectorSpectralField":
        return VectorSpectralField(tuple(f.project(new_cutoff) for f in self.components))

    def divergence(self) -> SpectralField:
        out = self.components[0].diff(0)
        for a in range(1, self.dim):
            out = out + self.components[a].diff(a)
        return out

    def stack(self) -> np.ndarray:
        return np.stack([f.coeffs for f in self.components])

    def div_residual(self) -> float:
        """max_k |k . c(k)| relative to the largest coefficient magnitude."""
        return div_residual(self.stack(), self.dim, self.cutoff)

    def leray_project(self) -> "VectorSpectralField":
        """Remove the gradient part: c(k) -= k (k.c(k)) / |k|^2 for k != 0."""
        out = leray_coefficients(self.stack(), self.dim, self.cutoff)
        return VectorSpectralField(tuple(SpectralField(self.dim, self.cutoff, c) for c in out))

    def hs_norm_sq(self, s: float) -> float:
        return float(sum(f.hs_norm_sq(s) for f in self.components))

    def hs_norm(self, s: float) -> float:
        return float(np.sqrt(self.hs_norm_sq(s)))

    def realness_residual(self) -> float:
        return max(f.realness_residual() for f in self.components)

    def physical(self, oversample: int = 1, points: int | None = None) -> np.ndarray:
        return np.stack([f.physical(oversample, points) for f in self.components])

    def real_samples(self, points: int) -> np.ndarray:
        """physical(points=points).real, all components in one half-spectrum
        transform."""
        return coefficients_to_real_grid(symmetrize(self.stack(), self.dim),
                                         self.cutoff, self.dim, points)


# -- products ---------------------------------------------------------------------


def _direct_convolution(f: SpectralField, g: SpectralField, out_cutoff: int) -> SpectralField:
    """Literal convolution sum over mode pairs; the oracle-grade path."""
    kf, cf = f.modes_and_coefficients()
    kg, cg = g.modes_and_coefficients()
    geo = _geometry(f.dim, out_cutoff)
    out = np.zeros((geo.side,) * f.dim, dtype=complex)
    limit_sq = out_cutoff * out_cutoff
    block = max(1, 2_000_000 // max(len(kg), 1))
    for lo in range(0, len(kf), block):
        kfb = kf[lo:lo + block]
        cfb = cf[lo:lo + block]
        ks = kfb[:, None, :] + kg[None, :, :]
        prods = cfb[:, None] * cg[None, :]
        keep = np.sum(ks.astype(np.int64) ** 2, axis=-1) < limit_sq
        idx = ks[keep] + (out_cutoff - 1)
        np.add.at(out, tuple(idx.T), prods[keep])
    return SpectralField(f.dim, out_cutoff, out)


def spectral_product(f: SpectralField, g: SpectralField, mode: str = "exact",
                     oversample: int = 2, out_cutoff: int | None = None) -> SpectralField:
    """Projected pointwise product P_m(f g).

    mode "exact": full convolution truncated to the output ball, computed by
    a direct sum over mode pairs.  mode "oversampled": multiply samples on a
    grid of oversample*(2n-1) points per axis and transform back; alias-free
    for quadratics once oversample >= 2.  Real operands (realness residual
    at most REAL_TOL) go through the half-spectrum transforms, both in one
    batched call; others keep the complex transforms.
    """
    if (f.dim, f.cutoff) != (g.dim, g.cutoff):
        raise ValueError("operands must share layout")
    n_out = out_cutoff if out_cutoff is not None else f.cutoff
    if mode == "exact":
        return _direct_convolution(f, g, n_out)
    if mode == "oversampled":
        pts = oversample * (2 * f.cutoff - 1)
        if max(f.realness_residual(), g.realness_residual()) <= REAL_TOL:
            pair = symmetrize(np.stack((f.coeffs, g.coeffs)), f.dim)
            grids = coefficients_to_real_grid(pair, f.cutoff, f.dim, pts)
            coeffs = real_grid_to_coefficients(grids[0] * grids[1], n_out, f.dim)
        else:
            grid = f.physical(points=pts) * g.physical(points=pts)
            coeffs = grid_to_coefficients(grid, n_out, f.dim)
        return SpectralField(f.dim, n_out, coeffs)
    raise ValueError(f"unknown product mode: {mode}")


# -- grid quadrature norms -----------------------------------------------------------


def fast_grid_size(minimum: int) -> int:
    """Smallest 2^a 3^b 5^c >= minimum; FFT-friendly sizes for quadrature grids."""
    best = 1
    while best < minimum:
        best *= 2
    p5 = 1
    while p5 < best:
        p3 = p5
        while p3 < best:
            p2 = p3
            while p2 < minimum:
                p2 *= 2
            best = min(best, p2)
            p3 *= 3
        p5 *= 5
    return best


def lp_norm(grid: np.ndarray, p: float) -> float:
    """L^p norm of grid samples on the unit torus (uniform quadrature)."""
    mags = np.abs(grid)
    if np.isinf(p):
        return float(np.max(mags))
    return float(np.mean(mags ** p) ** (1.0 / p))
