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

A state packs into (v_1..v_d, omega, b) rows of centered-cube coefficients
(`pack`).  The kernel works on member stacks of the canonical halves of
their real parts, the one layout below the field algebra, which states enter
through `halves` alone and leave through `SimState.from_half`: a leading
member axis over packed states, (members, d+2, n_half), which a one-member
stack keeps too, through `member_rhs`, one call per RK stage for every member.  The kernel has one output, the Leray-projected
right-hand side, and one layout inside, rows then members.  The kernel's
spectral side is two linear maps per mode on the half, built once per size:
the in-map takes the state rows to D_ij, grad omega and grad b (`_in_map`),
and the out-map takes the flux coefficients to the right-hand side,
divergences, Leray projection and reactions included (`_out_map`).  The
transform pair scatters the half straight into its half-spectrum bins and
gathers only the half's bins back.  Members share t, the parameters and the
profile; each member's row equals its one-state result bit for bit, and
expanded to the cube (`SimState.from_half`) the result is the cube layout's
right-hand side.  With the stack it returns each member's nubar samples on
the quadrature grid, from which the integrator takes its reference
viscosity.  `rhs` is the one-state case on field objects, the state's real
part in and cubes out, without the nubar samples.  `rhs_gap` compares two
of the kernel's outputs member by member (the aliasing indicator).

The kernel's plan for a size lives in an `RhsWorkspace`, which the kernel
owns.  It binds what the size (dim, cutoff, grid points, members) fixes:
the grid-sized arrays, their views (state rows, grid rows, flux and
reaction rows), and the maps' tables with the member axis inserted.  A
call reads only what it is given: the stack, t, params.alpha and the
profile.  A call at the (dim, cutoff, oversample, members) this thread
called at last takes its plan at once: it neither recomputes the grid
size nor looks up the maps' tables.
Each thread keeps one plan, for the size it called at last, and every
caller (integrations, `rhs`, the aliasing indicator) reuses it.  A call at
another size frees it before building its own, so a lockstep run that
loses a member rebuilds on its next call.  A thread keeps its plan until
then or until it exits.
Threads never share buffers.  The kernel always returns a new array, never
a view of the workspace, so results held across calls (the RK stages) stay
valid.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import List, Sequence, Tuple

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
    real_half,
    realness_residual,
)


@dataclass
class ModelParams:
    """The model's constants and its quadrature grid: oversample times the
    2n - 1 modes per axis, rounded up to a fast FFT size.  A run steps on
    that grid from start to end (`integrators`)."""

    alpha: float
    s: float
    bounds: InitialBounds
    oversample: int

    def __post_init__(self):
        if self.bounds.alpha != self.alpha:
            # the kernel's reaction reads alpha, the envelopes bounds.alpha,
            # which InitialBounds checks
            raise ValueError(f"alpha {self.alpha!r} differs from bounds.alpha "
                             f"{self.bounds.alpha!r}")
        if self.oversample < 2:
            raise ValueError("oversample must be >= 2 (alias-free quadratics)")

    def grid_points(self, cutoff: int) -> int:
        """Points per axis of the quadrature grid at this cutoff."""
        return fast_grid_size(self.oversample * (2 * cutoff - 1))


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

    @classmethod
    def from_half(cls, half: np.ndarray, dim: int, cutoff: int, t: float) -> "SimState":
        """The state of the canonical halves of its packed rows, (d+2, n_half)."""
        return cls(VectorSpectralField.from_half(half[:dim], dim, cutoff),
                   SpectralField.from_half(half[dim], dim, cutoff),
                   SpectralField.from_half(half[dim + 1], dim, cutoff), t)

    def copy(self) -> "SimState":
        return SimState(self.v.copy(), self.omega.copy(), self.b.copy(), self.t)

    def project(self, cutoff: int) -> "SimState":
        """The Galerkin projection (or zero-padded embedding) at another cutoff."""
        return SimState(self.v.project(cutoff), self.omega.project(cutoff),
                        self.b.project(cutoff), self.t)

    def fields(self):
        return list(self.v.components) + [self.omega, self.b]

    def triple_norm_sq(self, s: float) -> float:
        """The squared H^s x H^s x H^s triple norm of the state's real part."""
        return float(triple_sq(halves([self]), s, self.dim, self.cutoff)[0])

    def realness_residual(self) -> float:
        return realness_residual(pack(self), self.dim)

    def div_residual(self) -> float:
        return self.v.div_residual()

    def validate(self):
        """Raise ValueError with the first of state_problems(self)."""
        problems = state_problems(self)
        if problems:
            raise ValueError(problems[0])


def state_problems(state: SimState) -> List[str]:
    """Why a state is no datum of the system: t not finite and >= 0, non-finite
    coefficients, div v != 0 (residual > 1e-10), realness residual > REAL_TOL."""
    problems = []
    if not np.isfinite(state.t):
        problems.append(f"non-finite time t = {state.t!r}")
    elif state.t < 0:
        problems.append(f"negative time t = {state.t!r}")
    y = pack(state)
    if not np.all(np.isfinite(y)):
        return problems + ["non-finite coefficients"]    # every residual is NaN
    if state.div_residual() > 1e-10:
        problems.append(f"div v != 0: residual {state.div_residual():.3e}")
    if realness_residual(y, state.dim) > REAL_TOL:
        problems.append(f"coefficients not conjugate-symmetric: "
                        f"residual {realness_residual(y, state.dim):.3e}")
    return problems


def triple_sq(halves: np.ndarray, s: float, dim: int, cutoff: int) -> np.ndarray:
    """Squared H^s norm, summed over the rows, of the real fields of each
    member of a (members, rows, n_half) stack of canonical halves: with rows
    (v_1..v_d, omega, b) the H^s x H^s x H^s triple norm."""
    w = _geometry(dim, cutoff).half_sq_weight(s)
    return np.sum((w * np.abs(halves) ** 2).reshape(len(halves), -1), axis=1)


def monitor_grid(cutoff: int) -> int:
    """Points per axis of the extrema monitor's grid at this cutoff, the
    fast size at least 4(2n-1); the lab's L^p norms and the Taylor-Green
    datum sample on it too."""
    return fast_grid_size(4 * (2 * cutoff - 1))


def grid_extrema(state: SimState, points: int) -> Tuple[float, float, float]:
    """(min omega, max omega, min b) of the real samples of omega and b on a
    points^d grid, both fields in one half-spectrum transform."""
    pair = real_half(np.stack((state.omega.coeffs, state.b.coeffs)), state.dim)
    w, b = coefficients_to_real_grid(pair, state.cutoff, state.dim, points)
    return float(np.min(w)), float(np.max(w)), float(np.min(b))


def hypothesis_violations(state: SimState, s: float) -> List[str]:
    """state_problems, then the checkable local-existence hypotheses: s > d/2
    and omega, b > 0 on the extrema monitor's grid (`monitor_grid`)."""
    problems = state_problems(state)
    if not s > state.dim / 2:
        problems.append(f"regularity s = {s} <= d/2 = {state.dim / 2}")
    w_min, _, b_min = grid_extrema(state, monitor_grid(state.cutoff))
    if w_min <= 0:
        problems.append(f"min omega_0 = {w_min:.3e} <= 0")
    if b_min <= 0:
        problems.append(f"min b_0 = {b_min:.3e} <= 0")
    return problems


def pack(state: SimState) -> np.ndarray:
    return np.stack([f.coeffs for f in state.fields()])


def halves(states: Sequence[SimState]) -> np.ndarray:
    """(len(states), d+2, n_half): the canonical halves of the states' real parts."""
    return real_half(np.stack([pack(st) for st in states]), states[0].dim)


@functools.lru_cache(maxsize=None)
def _upper_pairs(dim: int):
    """(i, j) with i <= j: the independent entries of a symmetric tensor."""
    return tuple((i, j) for i in range(dim) for j in range(i, dim))


@functools.lru_cache(maxsize=None)
def _pair_layout(dim: int) -> np.ndarray:
    """Each pair's weight in the contraction D:D: 1 on the diagonal, 2 off it."""
    weight = np.array([1.0 if i == j else 2.0 for i, j in _upper_pairs(dim)])
    weight.setflags(write=False)              # shared by every caller
    return weight


def _advective_fluxes(pairs, v: np.ndarray, wb: np.ndarray, out: np.ndarray) -> None:
    """v_i v_j (i <= j) into the targets of `pairs`, (v_i, v_j, target)
    views of the grids in _upper_pairs order, then v w and v b into out,
    (2,) + v.shape, from the velocity grids v and wb = (omega, b) with an
    axis inserted second.  With div v = 0 their divergences are v.grad v,
    v.grad w and v.grad b."""
    for a, b, target in pairs:
        np.multiply(a, b, out=target)
    np.multiply(v, wb, out=out)


@functools.lru_cache(maxsize=None)
def _deform_map(dim: int, cutoff: int) -> np.ndarray:
    """(m, d, n_half), read-only: D_ij = sum_a table[p, a] v_a at each mode
    of the canonical half, p = (i, j) in _upper_pairs order."""
    grad = _geometry(dim, cutoff).half_grad
    table = np.zeros((len(_upper_pairs(dim)), dim) + grad.shape[1:], dtype=complex)
    for p, (i, j) in enumerate(_upper_pairs(dim)):
        table[p, i] += 0.5 * grad[j]
        table[p, j] += 0.5 * grad[i]
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _momentum_map(dim: int, cutoff: int) -> np.ndarray:
    """(d, m, n_half), read-only: (Leray div M)_i = sum_p table[i, p] M_p at
    each mode for a symmetric tensor in _upper_pairs rows.  The divergence
    is the deformation's transpose with each off-diagonal pair counted
    twice."""
    div = _deform_map(dim, cutoff).swapaxes(0, 1) * _pair_layout(dim)[:, None]
    div = np.moveaxis(leray_coefficients(np.moveaxis(div, 0, -2), dim, cutoff), -2, 0)
    div.setflags(write=False)
    return div


def _in_map(v: np.ndarray, wb: np.ndarray, tables, out, prod: np.ndarray) -> None:
    """The rows D_ij (i <= j), then grad omega and grad b, of the state rows
    v = (v_1..v_d) and wb = (omega, b) with an axis inserted second, each
    row batch + (n_half,), into out = (deformation rows (m,) + ..., gradient
    rows (2, d) + ...).  tables = (_deform_map, half_grad) with the batch
    axes inserted; prod is the buffer of the deformation's product,
    (m, d) + v.shape[1:]."""
    deform, grad = tables
    np.add.reduce(np.multiply(deform, v, out=prod), axis=1, out=out[0])
    np.multiply(grad, wb, out=out[1])


def _out_map(coef, tables, out: np.ndarray, momentum: np.ndarray,
             scalar: np.ndarray) -> None:
    """The right-hand side rows from the coefficients of member_rhs's flux
    rows, coef = (-M, (-F_w, -F_b) shaped (2, d) + ..., the reactions R_w =
    -alpha w^2 and R_b = nubar |Dv|^2 - b w), into out: dv = P div(-M) with
    P the Leray projection, dw = div(-F_w) + R_w and db = div(-F_b) + R_b.
    tables = (_momentum_map, half_grad) with the batch axes inserted;
    momentum and scalar are the buffers of the products, (d, m) and (2, d)
    + batch + (n_half,)."""
    div_m, grad = tables
    m_rows, s_rows, reactions = coef
    d = len(grad)
    np.add.reduce(np.multiply(div_m, m_rows, out=momentum), axis=1, out=out[:d])
    np.add.reduce(np.multiply(grad, s_rows, out=scalar), axis=1, out=out[d:])
    out[d:] += reactions


def _shared(*specs):
    """Arrays of the given (shape, dtype) in one buffer, for stages of a call
    that never hold data at the same time."""
    nbytes = [int(np.prod(shape)) * np.dtype(dtype).itemsize for shape, dtype in specs]
    raw = np.empty(max(nbytes), dtype=np.uint8)
    return [raw[:size].view(dtype).reshape(shape)
            for (shape, dtype), size in zip(specs, nbytes)]


class RhsWorkspace:
    """The kernel's plan for stacks of `members` states at one (dim, cutoff,
    points): the grid-sized arrays member_rhs writes, and everything about
    the size that it would otherwise look up or rebuild at every call.

    Allocated anew, the arrays would cost every call about 2.1 MB per
    member of freshly page-faulted memory at d=2, n=16, oversample 3 (96^2
    grids).  Every call overwrites them; they hold nothing between calls.
    `rows` is the spectral side: the state's rows and the in-map's rows on
    the canonical half, then the flux coefficients the out-map reads.  Two
    groups share memory (1.5 MB per member in all at that size): the
    inverse transform's half spectrum is dead before the fluxes are written,
    and those before the out-map's products (`momentum`, `scalar`); the
    in-map's product (`deform`) is dead before the grids are written, and
    the grids before the forward transform's output.  Both half spectra
    hold only the first `cutoff` bins of the last axis, the ones the
    transforms' real pass reads or writes.  Rows lead and members follow,
    (rows, members) + modes or grid, so one row of every member is one
    contiguous block; a one-member stack keeps its member axis.

    Bound once per size beside them: the views of those arrays that the
    kernel reads and writes (the state's rows, the grids of w and b, of the
    deformation and of the viscous rows, the pair products' targets, the
    flux and reaction rows, and the flux coefficients as the out-map reads
    them); the in-map's and out-map's tables with the member axis inserted
    (`in_tables`, `out_tables`: views of the tables every size at this
    (dim, cutoff) shares, kept in tuples); and the contraction's pair
    weights shaped for the grids (a copy of their own).  Each call reads
    only what it is given: the stack, t, params.alpha and the profile.
    """

    def __init__(self, dim: int, cutoff: int, points: int, members: int):
        self.size = (dim, cutoff, points, members)
        m = len(_upper_pairs(dim))
        grids, fluxes = (3 * dim + 2 + m, members), (2 * dim + m + 2, members)
        cube = (points,) * dim
        modes = (members,) + _geometry(dim, cutoff).half.shape
        self.rows = np.empty(grids + modes[-1:], dtype=complex)
        self.half_in, self.flux, self.momentum, self.scalar = _shared(
            (grids + cube[:-1] + (cutoff,), complex), (fluxes + cube, float),
            ((dim, m) + modes, complex), ((2, dim) + modes, complex))
        self.deform, self.grids, self.half_out = _shared(
            ((m, dim) + modes, complex), (grids + cube, float),
            (fluxes + cube[:-1] + (cutoff,), complex))
        # the spectral rows: v, omega, b, then the in-map's rows; the flux
        # coefficients overwrite them from the top
        c, g, flux = self.rows, self.grids, self.flux
        self.y, self.y_v, self.y_wb = c[:dim + 2], c[:dim], c[dim:dim + 2, None]
        self.in_rows = (c[dim + 2:dim + 2 + m], c[dim + 2 + m:].reshape((2, dim) + modes))
        self.coef = coef = c[:len(flux)]
        self.out_rows = (coef[:m], coef[m:m + 2 * dim].reshape((2, dim) + modes), coef[-2:])
        member = (Ellipsis, None, slice(None))
        grad = _geometry(dim, cutoff).half_grad[member]
        self.in_tables = (_deform_map(dim, cutoff)[member], grad)
        self.out_tables = (_momentum_map(dim, cutoff)[member], grad)
        # the grid rows and the flux rows
        self.w, self.b = g[dim], g[dim + 1]
        self.v, self.wb = g[:dim], g[dim:dim + 2, None]
        self.deform_grids, self.viscous = g[dim + 2:dim + 2 + m], g[dim + 2:]
        self.pair_weight = _pair_layout(dim).reshape((m,) + (1,) * (g.ndim - 1)).copy()
        self.pairs = tuple((g[i], g[j], flux[p]) for p, (i, j) in enumerate(_upper_pairs(dim)))
        self.def_sq, self.fluxes = flux[:m], flux[:-2]
        self.scalar_fluxes = flux[m:m + 2 * dim].reshape((2, dim, members) + cube)
        self.reaction_w, self.reaction_b = flux[-2], flux[-1]


_local = threading.local()


def _workspace(dim: int, cutoff: int, params: ModelParams, members: int) -> RhsWorkspace:
    """This thread's plan for (dim, cutoff, params.oversample, members).  A
    call at the size this thread called at last takes it at once; a call at
    another size frees the thread's plan before building its own."""
    key = (dim, cutoff, params.oversample, members)
    if getattr(_local, "key", None) == key:
        return _local.ws
    size = (dim, cutoff, params.grid_points(cutoff), members)
    ws = getattr(_local, "ws", None)
    if ws is None or ws.size != size:
        _local.key = _local.ws = ws = None      # free the old buffers first
        ws = RhsWorkspace(*size)
    _local.key, _local.ws = key, ws
    return ws


def member_rhs(ys: np.ndarray, cutoff: int, t: float, params: ModelParams,
               profile: CutoffProfile) -> Tuple[np.ndarray, np.ndarray]:
    """Right-hand side of every member of a stack ys shaped (members, d+2,
    n_half), each member the canonical half of a packed state (v_1..v_d,
    omega, b) at this cutoff and time t.

    Flux form: with M_ij = v_i v_j - nubar D_ij, F_w = v w - nubar grad w
    and F_b = v b - nubar grad b,

        dv = -Leray(div P_n M)
        dw = -div P_n F_w - alpha P_n(w^2)
        db = -div P_n F_b - P_n(b w) + P_n(nubar |Dv|^2).

    This is the advective form exactly, because div v = 0 and the quadratics
    are alias-free at oversample >= 2.  The in-map forms D_ij and the
    gradients on the spectral side; the grid side forms the negated fluxes
    and the reactions -alpha w^2 and nubar |Dv|^2 - b w; the out-map takes
    their coefficients to the rows above, Leray projection included.  A 2-D
    RHS takes 11 inverse and 9 forward transforms per member, batched over
    the members in one call each, whose real passes are matrix products
    (`spectral._real_pass`).  The forward transform shifts the flux grids
    in place, as they are dead after it.  Each member's row equals its
    one-state call bit for bit.  The grid-sized arrays, their views and the
    maps' tables are this thread's cached plan for the size
    (`RhsWorkspace`); the result is always a new array.

    Returns the stack of right-hand sides, on the canonical half, and each
    member's nubar on the quadrature grid, flattened to (members, points^d)
    (a new array too), from whose extremes the integrator takes its
    reference viscosity.
    """
    members, d = ys.shape[0], ys.shape[1] - 2
    ws = _workspace(d, cutoff, params, members)
    # every row holds every member (the workspace layout)
    ws.y[...] = ys.swapaxes(0, 1)
    _in_map(ws.y_v, ws.y_wb, ws.in_tables, out=ws.in_rows, prod=ws.deform)
    coefficients_to_real_grid(ws.rows, cutoff, d, ws.size[2], out=ws.grids, half=ws.half_in)
    w_g, b_g = ws.w, ws.b
    nu_g = nu_bar_grid(b_g, w_g, t, profile)
    # the negated fluxes -M, -F_w, -F_b, then the reactions -alpha w^2 and
    # nubar |Dv|^2 - b w; nubar |Dv|^2 first: the momentum rows hold the
    # squares D_ij^2 until the fluxes overwrite them, and the gradient rows
    # are scaled in place
    def_sq, r_w, r_b = ws.def_sq, ws.reaction_w, ws.reaction_b
    np.square(ws.deform_grids, out=def_sq)
    def_sq *= ws.pair_weight
    np.add.reduce(def_sq, axis=0, out=r_b)
    r_b *= nu_g
    np.multiply(b_g, w_g, out=r_w)
    r_b -= r_w
    np.square(w_g, out=r_w)
    r_w *= -params.alpha
    _advective_fluxes(ws.pairs, ws.v, ws.wb, out=ws.scalar_fluxes)
    viscous = ws.viscous
    viscous *= nu_g
    np.subtract(viscous, ws.fluxes, out=ws.fluxes)
    real_grid_to_coefficients(ws.flux, cutoff, d, half=ws.half_out, overwrite=True,
                              out=ws.coef)
    out = np.empty_like(ys)
    _out_map(ws.out_rows, ws.out_tables, out=out.swapaxes(0, 1), momentum=ws.momentum,
             scalar=ws.scalar)
    return out, nu_g.reshape(members, -1)


def rhs_gap(f: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """max|f - fine| / max|fine| of each member of two right-hand-side stacks
    (members, ...), and the bare max|f - fine| where fine is zero."""
    axes = tuple(range(1, f.ndim))
    err, scale = np.max(np.abs(f - fine), axis=axes), np.max(np.abs(fine), axis=axes)
    return np.where(scale > 0, err / np.where(scale > 0, scale, 1.0), err)


def rhs(state: SimState, params: ModelParams,
        profile: CutoffProfile) -> Tuple[VectorSpectralField, SpectralField, SpectralField]:
    """The right-hand side (dv, dw, db) of the state's real part:
    member_rhs's one-member case, from and back to the cube."""
    half = member_rhs(halves([state]), state.cutoff, state.t, params, profile)[0][0]
    out = SimState.from_half(half, state.dim, state.cutoff, state.t)
    return out.v, out.omega, out.b
