"""Right-hand side of the truncated coefficient ODE system.

State is (v, omega, b) at one Galerkin cutoff n.  The evolution is

    dv = -P_n(v.grad v) + div P_n(nubar Dv) - grad p
    dw = -P_n(v.grad w) + div P_n(nubar grad w) - alpha P_n(w^2)
    db = -P_n(v.grad b) + div P_n(nubar grad b) - P_n(b w) + P_n(nubar |Dv|^2)

with Dv the symmetric gradient and p solving -lap p = div[P_n(v.grad v)
- div P_n(nubar Dv)] with zero mean, which makes dv exactly divergence-free.

Quadratic products are evaluated on an oversampled grid (alias-free for
oversample >= 2); only the composed viscosity nubar = Phi(b)/Psi(omega) is a
genuine quadrature, whose residual the oversampling controls.

The time-stepping loop works on packed stacks (v_1..v_d, omega, b) of
centered-cube coefficients (`pack`/`unpack`) through `packed_rhs`; `rhs`,
`pressure_gradient`, `advective_diffusive_force` and `transport_terms` are
field-level views of the same kernel.

The kernel's grid-sized arrays live in an `RhsWorkspace`.  Each integration
owns one (the integrator's `_PackedSystem` builds it for its size) and passes
it to every call; a call without one, such as the field-level views and
`integrators.step`, builds a throwaway one.  There is no shared cache, so
threads never share a workspace.  `packed_rhs` always returns a new array,
never a view of the workspace, so results held across calls (the RK stages)
stay valid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .cutoffs import CutoffProfile, InitialBounds, nu_bar_grid
from .spectral import (
    REAL_TOL,
    SpectralField,
    VectorSpectralField,
    _geometry,
    coefficients_to_real_grid,
    fast_grid_size,
    leray_coefficients,
    real_grid_to_coefficients,
)


@dataclass
class ModelParams:
    alpha: float
    s: float
    bounds: InitialBounds
    oversample: int = 4

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.oversample < 2:
            raise ValueError("oversample must be >= 2 (alias-free quadratics)")

    def grid_points(self, cutoff: int) -> int:
        """Points per axis of the quadrature grid at this cutoff."""
        return fast_grid_size(self.oversample * (2 * cutoff - 1))

    def check_dimension(self, dim: int):
        if self.s <= dim / 2:
            raise ValueError(f"need s > d/2: s={self.s}, d={dim}")


@dataclass
class SimState:
    v: VectorSpectralField
    omega: SpectralField
    b: SpectralField
    t: float = 0.0

    def __post_init__(self):
        layouts = {(self.v.dim, self.v.cutoff),
                   (self.omega.dim, self.omega.cutoff),
                   (self.b.dim, self.b.cutoff)}
        if len(layouts) != 1:
            raise ValueError("v, omega, b must share dim and cutoff")

    @property
    def dim(self) -> int:
        return self.omega.dim

    @property
    def cutoff(self) -> int:
        return self.omega.cutoff

    def copy(self) -> "SimState":
        return SimState(self.v.copy(), self.omega.copy(), self.b.copy(), self.t)

    def fields(self):
        return list(self.v.components) + [self.omega, self.b]

    def triple_norm_sq(self, s: float) -> float:
        return self.v.hs_norm_sq(s) + self.omega.hs_norm_sq(s) + self.b.hs_norm_sq(s)

    def realness_residual(self) -> float:
        return max(f.realness_residual() for f in self.fields())

    def div_residual(self) -> float:
        return self.v.div_residual()

    def validate(self, div_tol: float = 1e-10, real_tol: float = REAL_TOL):
        if self.t < 0:
            raise ValueError("state time must be >= 0")
        if self.div_residual() > div_tol:
            raise ValueError(f"velocity not divergence-free: residual {self.div_residual():.3e}")
        if self.realness_residual() > real_tol:
            raise ValueError(f"coefficients not conjugate-symmetric: "
                             f"residual {self.realness_residual():.3e}")


def hypothesis_violations(state: SimState, s: float, grid_oversample: int = 4):
    """Checkable local-existence hypotheses; returns problem descriptions."""
    problems = []
    if state.dim < 2:
        problems.append(f"dimension d = {state.dim} < 2")
    if s <= state.dim / 2:
        problems.append(f"regularity s = {s} <= d/2 = {state.dim / 2}")
    if state.div_residual() > 1e-10:
        problems.append(f"div v0 != 0 (residual {state.div_residual():.3e})")
    pts = grid_oversample * (2 * state.cutoff - 1)
    w_min = float(np.min(state.omega.physical(points=pts).real))
    b_min = float(np.min(state.b.physical(points=pts).real))
    if w_min <= 0:
        problems.append(f"min omega_0 = {w_min:.3e} <= 0")
    if b_min <= 0:
        problems.append(f"min b_0 = {b_min:.3e} <= 0")
    return problems


def pack(state: SimState) -> np.ndarray:
    return np.stack([f.coeffs for f in state.fields()])


def unpack(arr: np.ndarray, dim: int, cutoff: int, t: float) -> SimState:
    v = VectorSpectralField(tuple(SpectralField(dim, cutoff, arr[i].copy())
                                  for i in range(dim)))
    return SimState(v, SpectralField(dim, cutoff, arr[dim].copy()),
                    SpectralField(dim, cutoff, arr[dim + 1].copy()), t)


@functools.lru_cache(maxsize=None)
def _upper_pairs(dim: int):
    """(i, j) with i <= j: the independent entries of a symmetric tensor."""
    return tuple((i, j) for i in range(dim) for j in range(i, dim))


@functools.lru_cache(maxsize=None)
def _pair_layout(dim: int):
    """Index arrays of the pairs' i and j, each pair's weight in the
    contraction D:D (1 on the diagonal, 2 off it), and the flux rows whose
    divergences _flux_divergences takes: row i of the symmetric tensor, then
    the two vector fluxes."""
    pairs = _upper_pairs(dim)
    m = len(pairs)
    pi, pj = (np.array(ix) for ix in zip(*pairs))
    weight = np.where(pi == pj, 1.0, 2.0).reshape((m,) + (1,) * dim)
    row = {}
    for p, (i, j) in enumerate(pairs):
        row[i, j] = row[j, i] = p
    div_rows = np.array([[row[i, j] for j in range(dim)] for i in range(dim)]
                        + [[m + j for j in range(dim)], [m + dim + j for j in range(dim)]])
    for arr in (pi, pj, weight, div_rows):
        arr.setflags(write=False)             # shared by every caller
    return pi, pj, weight, div_rows


def _advective_fluxes(g: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """v_i v_j (i <= j), v w, v b from grids whose first rows are v, omega, b,
    into the first rows of `out`.  With div v = 0 their divergences are
    v.grad v, v.grad w and v.grad b."""
    pairs = _upper_pairs(dim)
    m = len(pairs)
    if out is None:
        out = np.empty((m + 2 * dim,) + g.shape[1:])
    for p, (i, j) in enumerate(pairs):
        np.multiply(g[i], g[j], out=out[p])
    np.multiply(g[:dim], g[dim:dim + 2, None], out=out[m:m + 2 * dim].reshape((2,) + g[:dim].shape))
    return out


def _flux_divergences(c: np.ndarray, dim: int, cutoff: int) -> np.ndarray:
    """Divergences of fluxes laid out as _advective_fluxes writes them: the
    symmetric tensor's rows (d rows of a vector), then the two vector fluxes
    (one scalar each)."""
    rows = _pair_layout(dim)[3]
    return np.sum(c[rows] * _geometry(dim, cutoff).grad, axis=1)


def _shared(*specs):
    """Arrays of the given (shape, dtype) in one buffer, for stages of a call
    that never hold data at the same time."""
    nbytes = [int(np.prod(shape)) * np.dtype(dtype).itemsize for shape, dtype in specs]
    raw = np.empty(max(nbytes), dtype=np.uint8)
    return [raw[:size].view(dtype).reshape(shape)
            for (shape, dtype), size in zip(specs, nbytes)]


class RhsWorkspace:
    """The grid-sized arrays of packed_rhs at one (dim, cutoff, points).

    Allocated anew, these arrays cost every call about 5 MB of freshly
    page-faulted memory at d=2, n=16, oversample 4.  Every call overwrites
    them; they hold nothing between calls.  Two pairs share memory (2.8 MB in
    all at that size): the inverse transform's half spectrum is dead before
    the fluxes are written, and the grids are dead before the forward
    transform's half spectrum is.
    """

    def __init__(self, dim: int, cutoff: int, points: int):
        self.size = (dim, cutoff, points)
        m = len(_upper_pairs(dim))
        grids, fluxes = 3 * dim + 2 + m, 2 * dim + m + 3
        cube = (points,) * dim
        self.coeffs = np.empty((grids,) + (2 * cutoff - 1,) * dim, dtype=complex)
        self.half_in, self.flux = _shared(((grids,) + cube[:-1] + (cutoff,), complex),
                                          ((fluxes,) + cube, float))
        self.grids, self.half_out = _shared(
            ((grids,) + cube, float),
            ((fluxes,) + cube[:-1] + (points // 2 + 1,), complex))


def packed_rhs(y: np.ndarray, t: float, params: ModelParams, profile: CutoffProfile,
               project: bool = True, workspace: RhsWorkspace | None = None) -> np.ndarray:
    """Right-hand side on a packed stack y = (v_1..v_d, omega, b).

    Flux form: with M_ij = v_i v_j - nubar D_ij, F_w = v w - nubar grad w
    and F_b = v b - nubar grad b,

        dv = -Leray(div P_n M)
        dw = -div P_n F_w - alpha P_n(w^2)
        db = -div P_n F_b - P_n(b w) + P_n(nubar |Dv|^2).

    This is the advective form exactly, because div v = 0 and the quadratics
    are alias-free at oversample >= 2.  D_ij is formed on the spectral side;
    a 2-D RHS takes 11 inverse and 10 forward transforms.  project=False
    leaves the velocity rows as the force -P_n(v.grad v) + div P_n(nubar Dv)
    before the pressure correction.  `workspace` holds the grid-sized arrays
    (built for this call when None); the result is always a new array.
    """
    d = y.shape[0] - 2
    n = (y.shape[-1] + 1) // 2
    points = params.grid_points(n)
    ws = RhsWorkspace(d, n, points) if workspace is None else workspace
    if ws.size != (d, n, points):
        raise ValueError(f"workspace built for {ws.size}, not {(d, n, points)}")
    mult = _geometry(d, n).grad
    pi, pj, weight, _ = _pair_layout(d)
    m = len(pi)
    # spectral rows: v, omega, b, then the gradients the viscous fluxes need,
    # in the flux layout: D_ij (i <= j), grad omega, grad b.  States hold the
    # realness invariant, so the half-spectrum path applies.
    c = ws.coeffs
    c[:d + 2] = y
    deform = c[d + 2:d + 2 + m]
    np.multiply(mult[pj], y[pi], out=deform)
    deform += mult[pi] * y[pj]
    deform *= 0.5
    np.multiply(mult, y[d:d + 2, None], out=c[d + 2 + m:].reshape((2,) + mult.shape))
    g = coefficients_to_real_grid(c, n, d, points, out=ws.grids, half=ws.half_in)
    w_g, b_g = g[d], g[d + 1]
    nu_g = nu_bar_grid(b_g, w_g, t, profile)
    flux = ws.flux
    # nubar |Dv|^2 first: the momentum rows hold the squares D_ij^2 until
    # the fluxes overwrite them, and the gradient rows are scaled in place
    def_sq = np.square(g[d + 2:d + 2 + m], out=flux[:m])
    def_sq *= weight
    np.sum(def_sq, axis=0, out=flux[-1])
    flux[-1] *= nu_g
    _advective_fluxes(g, d, out=flux)
    viscous = g[d + 2:]
    viscous *= nu_g
    flux[:-3] -= viscous
    np.multiply(w_g, w_g, out=flux[-3])
    np.multiply(b_g, w_g, out=flux[-2])
    coef = real_grid_to_coefficients(flux, n, d, half=ws.half_out)

    div = _flux_divergences(coef, d, n)
    out = np.empty_like(y)
    out[:d] = leray_coefficients(-div[:d], d, n) if project else -div[:d]
    out[d] = -div[d] - params.alpha * coef[-3]
    out[d + 1] = -div[d + 1] - coef[-2] + coef[-1]
    return out


def _vector(stack: np.ndarray, dim: int, cutoff: int) -> VectorSpectralField:
    return VectorSpectralField(tuple(SpectralField(dim, cutoff, c) for c in stack))


def pressure_gradient(state: SimState, params: ModelParams,
                      profile: CutoffProfile) -> VectorSpectralField:
    """grad p with -lap p = div[P_n(v.grad v) - div P_n(nubar Dv)], zero mean."""
    d, n = state.dim, state.cutoff
    force = packed_rhs(pack(state), state.t, params, profile, project=False)[:d]
    return _vector(force - leray_coefficients(force, d, n), d, n)


def rhs(state: SimState, params: ModelParams,
        profile: CutoffProfile) -> Tuple[VectorSpectralField, SpectralField, SpectralField]:
    out = unpack(packed_rhs(pack(state), state.t, params, profile),
                 state.dim, state.cutoff, state.t)
    return out.v, out.omega, out.b


def advective_diffusive_force(state: SimState, params: ModelParams,
                              profile: CutoffProfile) -> VectorSpectralField:
    """-P_n(v.grad v) + div P_n(nubar Dv), before pressure correction."""
    force = packed_rhs(pack(state), state.t, params, profile, project=False)
    return _vector(force[:state.dim], state.dim, state.cutoff)


def leray_project(f: VectorSpectralField) -> VectorSpectralField:
    """Modewise removal of the gradient part (cross-check for the pressure path)."""
    return f.leray_project()


def transport_terms(state: SimState, oversample: int = 4):
    """Truncated advection products (P_n(v.grad v), P_n(v.grad w), P_n(v.grad b)).

    Exposed separately so the exact-convolution consistency of the quadratic
    terms across cutoffs can be checked in isolation.  They are the
    divergences of the kernel's advective fluxes, so v must be
    divergence-free, as every state of the system is.
    """
    d, n = state.dim, state.cutoff
    g = coefficients_to_real_grid(pack(state), n, d,
                                  fast_grid_size(oversample * (2 * n - 1)))
    div = _flux_divergences(real_grid_to_coefficients(_advective_fluxes(g, d), n, d), d, n)
    return _vector(div[:d], d, n), SpectralField(d, n, div[d]), SpectralField(d, n, div[d + 1])
