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

Fields are real: c(-k) = conj(c(k)).  So one mode of each mirror pair
{k, -k} determines the other, and the canonical half (the ball's modes whose
last nonzero component is positive, and k = 0) holds every real field's
degrees of freedom, 397 modes against the cube's 961 at d = 2, n = 16.
The half is the only layout below the field algebra: the time-stepping loop,
the transform pair, `leray_coefficients`, `div_residual`,
`spectral_products`, `system.triple_sq` and the estimate lab's stacks take
canonical halves, and the cube holders (`SpectralField`,
`VectorSpectralField`, and `system.SimState`) hold cubes, masked to the
ball only where a cube may come from outside the package (the
`SpectralField` constructor; see `SpectralField._on_ball`).  This module alone
crosses between them: `real_half` takes cubes to the half of their real
part, (c(k) + conj(c(-k))) / 2, and the `from_half` constructors expand
halves to cubes.  There is one transform pair, on the real half spectrum:
`coefficients_to_real_grid` samples canonical halves and
`real_grid_to_coefficients` takes real samples back to them (k = 0 exactly
real).  Only the first `cutoff` bins of the last axis can hold a mode, so
the pair runs its complex passes on those columns alone, scipy's 1-D FFT
once per leading axis, and the last axis's real pass as a product with a
matrix cached per (cutoff, points) (`_real_pass`), one BLAS call per 2-D
slice; numpy's FFTs are not used.  The half's bins are flat indices over
the whole batch, cached per size and batch count.  `real_samples` samples
a field's real part, `from_grid` takes real samples only, and
`spectral_product` refuses a field that is not real (`checked_real_half`);
its form on stacks of halves checks nothing.
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
        self.grad = 2j * np.pi * self.k                  # d/dx_a multiplies by row a
        # the modes whose last nonzero component is negative: one of each
        # mirror pair {k, -k}, k = 0 excluded
        lower = np.zeros(self.k_sq.shape, dtype=bool)
        for ka in self.k:
            lower = np.where(ka != 0, ka < 0, lower)
        # the canonical half, as flat cube indices in lexicographic order; in
        # C order the mirror -k of flat index f is size - 1 - f
        self.half = np.flatnonzero(self.ball & ~lower)
        self.mirror = self.k_sq.size - 1 - self.half
        self.origin = int(np.searchsorted(self.half, self.k_sq.size // 2))   # k = 0's position
        # the ball modes each one stands for: k = 0 is its own mirror
        self.half_weight = np.where(self.half == self.k_sq.size // 2, 1.0, 2.0)
        self.half_k = self.k.reshape(dim, -1)[:, self.half]
        self.half_grad = self.grad.reshape(dim, -1)[:, self.half]
        half_sq = self.k_sq.ravel()[self.half]
        self.half_denom = np.where(half_sq == 0, 1, half_sq)     # |k|^2, 0 read as 1
        self._weights: Dict[float, np.ndarray] = {}
        self._half_weights: Dict[float, np.ndarray] = {}
        self._half_sq_weights: Dict[float, np.ndarray] = {}

    def bessel_weight(self, s: float) -> np.ndarray:
        """(1 + 4 pi^2 |k|^2)^s on the ball and 0 off it (note: exponent s,
        not s/2), so a weighted cube stays zero off the ball even where the
        corners' weights overflow."""
        if float(s) not in self._weights:
            self._weights[float(s)] = np.where(self.ball,
                                               (1.0 + FOUR_PI_SQ * self.k_sq) ** float(s), 0.0)
        return self._weights[float(s)]

    def half_bessel_weight(self, s: float) -> np.ndarray:
        """bessel_weight(s) at the canonical half's modes."""
        if float(s) not in self._half_weights:
            self._half_weights[float(s)] = self.bessel_weight(s).ravel()[self.half]
        return self._half_weights[float(s)]

    def half_sq_weight(self, s: float) -> np.ndarray:
        """half_weight * half_bessel_weight(s): the weight of a half mode's
        |c|^2 in a squared H^s norm (`system.triple_sq`)."""
        if float(s) not in self._half_sq_weights:
            self._half_sq_weights[float(s)] = self.half_weight * self.half_bessel_weight(s)
        return self._half_sq_weights[float(s)]


@functools.lru_cache(maxsize=None)
def _geometry(dim: int, cutoff: int) -> _ModeGeometry:
    return _ModeGeometry(dim, cutoff)


@functools.lru_cache(maxsize=None)
def _half_bins(dim: int, cutoff: int, points: int):
    """Where the canonical half lives in the first `cutoff` columns of an
    rfftn half spectrum on a points^dim grid, built once per size: each
    mode's bin k mod points (a flat index into those columns), then the
    half's positions of its modes on the k_last = 0 plane (k = 0 excepted)
    and the bins of their mirrors -k, which that plane holds too."""
    if points < 2 * cutoff - 1:
        raise ValueError("grid too coarse for the mode cube")
    geo = _geometry(dim, cutoff)
    shape = (points,) * (dim - 1) + (cutoff,)
    plane = np.flatnonzero((geo.half_k[-1] == 0) & geo.half_k.any(axis=0))
    bins = np.ravel_multi_index(tuple(geo.half_k % points), shape)
    mirrors = np.ravel_multi_index(tuple(-geo.half_k[:, plane] % points), shape)
    for arr in (bins, plane, mirrors):
        arr.setflags(write=False)
    return bins, plane, mirrors


def real_half(cubes: np.ndarray, dim: int) -> np.ndarray:
    """The canonical half of the real part (c(k) + conj(c(-k))) / 2 of a
    stack of centered cubes: batch + (side,)*dim -> batch + (n_half,), a new
    C-ordered array, so contractions over a row axis read contiguous modes."""
    geo = _geometry(dim, (cubes.shape[-1] + 1) // 2)
    flat = cubes.reshape(cubes.shape[:-dim] + (-1,))
    return 0.5 * (flat.take(geo.half, axis=-1) + np.conj(flat.take(geo.mirror, axis=-1)))


def half_to_cube(half: np.ndarray, dim: int, cutoff: int) -> np.ndarray:
    """The centered cubes of a stack of canonical halves: each mirror -k holds
    conj(c(k)) and the modes outside the ball hold 0, so the result is
    exactly conjugate-symmetric."""
    geo = _geometry(dim, cutoff)
    batch = half.shape[:-1]
    cube = np.zeros(batch + (geo.k_sq.size,), dtype=complex)
    cube[..., geo.mirror] = np.conj(half)    # k = 0 is rewritten next
    cube[..., geo.half] = half
    return cube.reshape(batch + geo.k_sq.shape)


@functools.lru_cache(maxsize=None)
def _real_pass(cutoff: int, points: int):
    """The last axis's real pass as two read-only matrices, built once per
    (cutoff, points) from the phases 2 pi (k x mod N) / N, k < cutoff:

      INV (2 cutoff, points): rows 2k, 2k+1 are w_k cos and -w_k sin, w_0 = 1
          and w_k = 2, so interleaved (re, im) bins times INV are the samples
          irfft gives (bin 0's imaginary part is dropped, as irfft does);
      FWD (points, 2 cutoff): columns 2k, 2k+1 are cos / N and -sin / N, so
          samples times FWD are the first `cutoff` bins of rfft(norm="forward"),
          interleaved.

    points >= 2 cutoff - 1 keeps the Nyquist bin out of reach.  The stacks
    are multiplied as they are: numpy's matmul makes one BLAS call per 2-D
    slice, each slice the same shape, so a field's result does not depend on
    the fields beside it.  Flattened into one tall product it could: BLAS
    may round a row differently at another row count."""
    phase = (2.0 * np.pi / points) * (np.outer(np.arange(cutoff), np.arange(points)) % points)
    cos, sin = np.cos(phase), np.sin(phase)
    inv = np.stack((cos, -sin), axis=1)
    inv[1:] *= 2.0
    inv[0, 1] = 0.0
    fwd = np.stack((cos.T, -sin.T), axis=-1) / points
    inv, fwd = inv.reshape(2 * cutoff, points), fwd.reshape(points, 2 * cutoff)
    for arr in (inv, fwd):
        arr.setflags(write=False)
    return inv, fwd


@functools.lru_cache(maxsize=64)
def _batch_bins(dim: int, cutoff: int, points: int, count: int):
    """_half_bins for a batch of `count` halves, as flat indices over the
    whole batch, built once per (dim, cutoff, points, count): each mode's
    bin, then the plane modes' positions in the batch's halves and their
    mirrors' bins, so the scatter is one index per side."""
    bins, plane, mirrors = _half_bins(dim, cutoff, points)
    columns = points ** (dim - 1) * cutoff
    rows = np.arange(count)[:, None]
    out = ((rows * columns + bins).ravel(), (rows * len(bins) + plane).ravel(),
           (rows * columns + mirrors).ravel())
    for arr in out:
        arr.setflags(write=False)
    return out


def coefficients_to_real_grid(coeffs: np.ndarray, cutoff: int, dim: int,
                              points: int, out: np.ndarray | None = None,
                              half: np.ndarray | None = None) -> np.ndarray:
    """Real samples of a stack of canonical halves, batch + (n_half,), each
    standing for the real field whose mirror modes are its conjugates.

    The half's modes go straight into their bins, the k_last = 0 plane's
    mirrors as conjugates; only the first `cutoff` columns of the half
    spectrum can be nonzero, so the complex passes (scipy) run on those
    alone, and the real pass is a product of those columns with a cached
    matrix (`_real_pass`); every field's samples are bit for bit its own
    transform's.  `out` (the grid
    stack) and `half` (complex and contiguous, batch + (points,)*(dim-1) +
    (cutoff,), overwritten) are optional buffers for repeated transforms.
    """
    batch = coeffs.shape[:-1]
    bins, plane, mirrors = _batch_bins(dim, cutoff, points, coeffs.size // coeffs.shape[-1])
    if half is None:
        half = np.zeros(batch + (points,) * (dim - 1) + (cutoff,), dtype=complex)
    else:
        half.fill(0.0)
    flat = half.reshape(-1)                     # a view: `half` is contiguous
    values = coeffs.reshape(-1)
    flat[bins] = values
    flat[mirrors] = np.conj(values[plane])
    for axis in range(-dim, -1):
        half = _fft.ifft(half, axis=axis, norm="forward", overwrite_x=True)
    return np.matmul(half.view(float), _real_pass(cutoff, points)[0], out=out)


def real_grid_to_coefficients(grid: np.ndarray, cutoff: int, dim: int,
                              half: np.ndarray | None = None,
                              overwrite: bool = False,
                              out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of real grid samples via the half-spectrum, as canonical
    halves: the canonical half's bins, batch + (n_half,).

    The real pass is a product with a cached matrix (`_real_pass`) that
    yields only the first `cutoff` bins, the ones that hold modes; the
    complex passes (scipy) run on those, and every field's coefficients are
    bit for bit its own transform's.  Each line is shifted by its first
    sample before the product and the shift is added back to bin 0, so a
    constant line gives exactly 0 at k >= 1.  overwrite=True shifts `grid`
    in place (its samples are then lost); otherwise the shift makes one
    grid-sized copy.  `half` (complex and contiguous, the real pass's output
    shape batch + (points,)*(dim-1) + (cutoff,)) and `out` (batch +
    (n_half,)) are optional buffers (overwritten).
    """
    first = grid[..., :1].copy()
    if overwrite:
        grid -= first
    else:
        grid = grid - first
    spec = np.matmul(grid, _real_pass(cutoff, grid.shape[-1])[1],
                     out=None if half is None else half.view(float)).view(complex)
    spec[..., 0] += first[..., 0]
    for axis in range(-dim, -1):
        spec = _fft.fft(spec, axis=axis, norm="forward", overwrite_x=True)
    # the indices are in range; mode="clip" lets take write `out` unbuffered
    coef = spec.reshape(spec.shape[:-dim] + (-1,)).take(
        _half_bins(dim, cutoff, grid.shape[-1])[0], axis=-1, out=out, mode="clip")
    coef[..., _geometry(dim, cutoff).origin].imag = 0.0   # Bluestein sizes leave roundoff
    return coef


def conj_flip(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """conj(c(-k)) on the trailing dim axes; leading axes are a batch and are
    not flipped.  Fixed points are the coefficients of real fields."""
    return np.conj(coeffs[(Ellipsis,) + (slice(None, None, -1),) * dim])


def realness_residual(coeffs: np.ndarray, dim: int) -> float:
    """Largest max_k |c(k) - conj(c(-k))| / max_k |c(k)| over the fields of a
    stack (each field the trailing dim axes); NaN if any coefficient is NaN."""
    axes = tuple(range(-dim, 0))
    dev = np.max(np.abs(coeffs - conj_flip(coeffs, dim)), axis=axes)
    scale = np.maximum(np.max(np.abs(coeffs), axis=axes), _TINY)
    return float(np.max(dev / scale))


def checked_real_half(cubes: np.ndarray, dim: int, caller: str) -> np.ndarray:
    """real_half of a stack of real fields' cubes; ValueError naming `caller`
    if its realness residual exceeds REAL_TOL."""
    residual = realness_residual(cubes, dim)
    if not residual <= REAL_TOL:
        raise ValueError(f"{caller} takes real fields: realness residual {residual:.3e}")
    return real_half(cubes, dim)


def leray_coefficients(stack: np.ndarray, dim: int, cutoff: int) -> np.ndarray:
    """Leray projection of a (..., dim, n_half) stack of velocity halves;
    leading axes are a batch: c(k) -= k (k.c(k)) / |k|^2 for k != 0, the
    terms of k.c(k) summed in component order."""
    geo = _geometry(dim, cutoff)
    k_dot = (geo.half_k * stack).sum(axis=-2)[..., None, :]
    return stack - geo.half_k * k_dot / geo.half_denom


def div_residual(stack: np.ndarray, dim: int, cutoff: int):
    """max_k |k . c(k)| of a (..., dim, n_half) stack of velocity halves,
    relative to its largest coefficient magnitude: a float for one stack,
    an array of one value per batch index otherwise.  It is the value of the
    conjugate-symmetric cube the half stands for."""
    acc = np.abs((_geometry(dim, cutoff).half_k * stack).sum(axis=-2)).max(axis=-1)
    res = acc / np.maximum(np.abs(stack).max(axis=(-2, -1)), _TINY)
    return float(res) if np.ndim(res) == 0 else res


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
    def _on_ball(cls, dim: int, cutoff: int, coeffs: np.ndarray) -> "SpectralField":
        """The field of a complex cube that is already zero off the ball: a
        cube the package built on the ball, or an operation of such cubes
        that keeps the zeros (+, -, negation, and the weights of J^s and
        d/dx, the first zero off the ball and the second finite).  It is taken as it is, without a copy or the mask; a cube
        from outside the package goes through the constructor."""
        field = object.__new__(cls)
        field.dim, field.cutoff, field.coeffs = dim, cutoff, coeffs
        return field

    @classmethod
    def zeros(cls, dim: int, cutoff: int) -> "SpectralField":
        side = 2 * cutoff - 1
        return cls._on_ball(dim, cutoff, np.zeros((side,) * dim, dtype=complex))

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
        """The field of real samples on a uniform grid of equal axes (exact if band-limited)."""
        if np.iscomplexobj(grid):
            raise ValueError("from_grid takes real samples, got a complex grid")
        if len(set(grid.shape)) != 1:
            raise ValueError(f"from_grid takes a grid with equal axes, got shape {grid.shape}")
        return cls.from_half(real_grid_to_coefficients(grid, cutoff, grid.ndim), grid.ndim,
                             cutoff)

    @classmethod
    def from_half(cls, half: np.ndarray, dim: int, cutoff: int) -> "SpectralField":
        """The real field of a canonical half (n_half,)."""
        return cls._on_ball(dim, cutoff, half_to_cube(half, dim, cutoff))

    # -- bookkeeping ---------------------------------------------------------

    @property
    def geometry(self) -> _ModeGeometry:
        return _geometry(self.dim, self.cutoff)

    def copy(self) -> "SpectralField":
        return SpectralField._on_ball(self.dim, self.cutoff, self.coeffs.copy())

    def mode(self, k) -> complex:
        idx = tuple(int(ki) + self.cutoff - 1 for ki in k)
        return complex(self.coeffs[idx])

    # -- algebra -------------------------------------------------------------

    def _binary(self, other: "SpectralField", op) -> "SpectralField":
        if not isinstance(other, SpectralField):
            return NotImplemented
        if (self.dim, self.cutoff) != (other.dim, other.cutoff):
            raise ValueError("field layouts differ")
        return SpectralField._on_ball(self.dim, self.cutoff, op(self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):      # masked: 0 * inf off the ball would be NaN
        return SpectralField(self.dim, self.cutoff, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField._on_ball(self.dim, self.cutoff, -self.coeffs)

    # -- operators ------------------------------------------------------------

    def project(self, new_cutoff: int) -> "SpectralField":
        """Galerkin projection P_m: keep modes with |k| < new_cutoff."""
        if new_cutoff == self.cutoff:
            return self.copy()
        old_side = 2 * self.cutoff - 1
        new_side = 2 * new_cutoff - 1
        if new_cutoff < self.cutoff:         # masked: the slice's corners are off the ball
            lo = self.cutoff - new_cutoff
            sl = (slice(lo, lo + new_side),) * self.dim
            return SpectralField(self.dim, new_cutoff, self.coeffs[sl])
        pad = new_cutoff - self.cutoff
        c = np.zeros((new_side,) * self.dim, dtype=complex)
        sl = (slice(pad, pad + old_side),) * self.dim
        c[sl] = self.coeffs
        return SpectralField._on_ball(self.dim, new_cutoff, c)

    def bessel(self, s: float) -> "SpectralField":
        """J^s f: multiply coefficients by (1 + 4 pi^2 |k|^2)^(s/2)."""
        w = self.geometry.bessel_weight(s / 2.0)
        return SpectralField._on_ball(self.dim, self.cutoff, self.coeffs * w)

    def diff(self, axis: int) -> "SpectralField":
        """Partial derivative along one coordinate."""
        k = self.geometry.k[axis]
        return SpectralField._on_ball(self.dim, self.cutoff, self.coeffs * (2j * np.pi * k))

    def gradient(self) -> "VectorSpectralField":
        return VectorSpectralField(tuple(self.diff(a) for a in range(self.dim)))

    # -- norms and symmetries ---------------------------------------------------

    def hs_norm_sq(self, s: float) -> float:
        w = self.geometry.bessel_weight(float(s))
        return float(np.sum(w * np.abs(self.coeffs) ** 2))

    def hs_norm(self, s: float) -> float:
        return float(np.sqrt(self.hs_norm_sq(s)))

    def mean(self) -> complex:
        return self.mode((0,) * self.dim)

    def realness_residual(self) -> float:
        return realness_residual(self.coeffs, self.dim)

    def symmetrized(self) -> "SpectralField":
        return SpectralField.from_half(real_half(self.coeffs, self.dim), self.dim, self.cutoff)

    # -- physical space -----------------------------------------------------------

    def real_samples(self, points: int) -> np.ndarray:
        """Samples of the field's real part on the uniform points^d grid."""
        return coefficients_to_real_grid(real_half(self.coeffs, self.dim), self.cutoff,
                                         self.dim, points)


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

    @classmethod
    def from_half(cls, halves: np.ndarray, dim: int, cutoff: int) -> "VectorSpectralField":
        """The real vector field of its components' canonical halves (dim, n_half)."""
        return cls(tuple(SpectralField._on_ball(dim, cutoff, c)
                         for c in half_to_cube(halves, dim, cutoff)))

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
        """max_k |k . c(k)| of the real part, relative to its largest
        coefficient magnitude."""
        return div_residual(real_half(self.stack(), self.dim), self.dim, self.cutoff)

    def leray_project(self) -> "VectorSpectralField":
        """Remove the real part's gradient part: c(k) -= k (k.c(k)) / |k|^2
        for k != 0."""
        d, n = self.dim, self.cutoff
        return VectorSpectralField.from_half(
            leray_coefficients(real_half(self.stack(), d), d, n), d, n)

    def hs_norm_sq(self, s: float) -> float:
        return float(sum(f.hs_norm_sq(s) for f in self.components))

    def hs_norm(self, s: float) -> float:
        return float(np.sqrt(self.hs_norm_sq(s)))

    def realness_residual(self) -> float:
        return realness_residual(self.stack(), self.dim)

    def real_samples(self, points: int) -> np.ndarray:
        """Samples of every component's real part, (dim,) + (points,)*dim,
        in one half-spectrum transform."""
        return coefficients_to_real_grid(real_half(self.stack(), self.dim), self.cutoff,
                                         self.dim, points)


# -- products ---------------------------------------------------------------------


def spectral_product(f: SpectralField, g: SpectralField,
                     out_cutoff: int | None = None) -> SpectralField:
    """Projected pointwise product P_m(f g) of two real fields, m = out_cutoff
    (default: the operands' cutoff n): the one-pair case of
    `spectral_products`.  An operand whose realness residual exceeds
    REAL_TOL (or is NaN) raises ValueError.
    """
    if (f.dim, f.cutoff) != (g.dim, g.cutoff):
        raise ValueError("operands must share layout")
    n_out = out_cutoff if out_cutoff is not None else f.cutoff
    pair = checked_real_half(np.stack((f.coeffs, g.coeffs)), f.dim, "spectral_product")
    return SpectralField.from_half(spectral_products(pair, f.cutoff, f.dim, n_out), f.dim, n_out)


def spectral_products(pairs: np.ndarray, cutoff: int, dim: int, out_cutoff: int) -> np.ndarray:
    """P_m(f g), m = out_cutoff, of a stack of real field pairs as canonical
    halves: pairs is batch + (2, n_half), the result batch + m's n_half.

    Both operands are sampled on the product grid (`product_points`), where
    the quadratic is alias-free, multiplied, and transformed back.  The
    whole stack takes one inverse and one forward transform call, and each
    product is bit for bit its one-pair call's.
    """
    grids = coefficients_to_real_grid(pairs, cutoff, dim, product_points(cutoff))
    grids = grids.reshape((-1, 2) + grids.shape[-dim:])
    products = real_grid_to_coefficients(grids[:, 0] * grids[:, 1], out_cutoff, dim)
    return products.reshape(pairs.shape[:-2] + (-1,))


# -- grid quadrature norms -----------------------------------------------------------


def fast_grid_size(minimum: int) -> int:
    """Smallest 2^a 3^b 5^c >= minimum: the quadrature grids' sizes, fast for
    the complex axes' FFTs (the real axis is a matrix product, whose cost
    grows with the size itself)."""
    return _fft.next_fast_len(minimum, real=True)


def product_points(cutoff: int) -> int:
    """Points per axis of the grid on which the product of two cutoff-n
    fields is sampled: fast_grid_size(2(2n-1)), at least the 4n-3 that keep
    its modes |k_a| <= 2n-2 free of aliases (64 at n = 16, not 62 = 2 * 31,
    whose radix-31 pass is slow)."""
    return fast_grid_size(2 * (2 * cutoff - 1))


def lp_norm(grid: np.ndarray, p: float) -> float:
    """L^p norm of grid samples on the unit torus (uniform quadrature)."""
    mags = np.abs(grid)
    if np.isinf(p):
        return float(np.max(mags))
    return float(np.mean(mags ** p) ** (1.0 / p))
