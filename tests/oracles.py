"""Literal oracles for the spectral transforms and products: term-by-term
sums over modes, independent of the FFT paths they check; the real part,
the half's gather, the Leray projection, divergence residual and triple
norm by the cube formula, the kernel's flux divergences row by row, and its
velocity force before the pressure correction on field objects; the cutoffs'
derivative constant measured by finite differences; the estimate
campaigns' samples evaluated one at a time on field objects, through the
public one-field functions, which the stacked campaigns must match bit for
bit; and the lab's draws, sup norms and decomposition parts by the formulas
its faster paths replaced: two-call complex normals, the magnitude before
the maximum, and np.add.at over every mode pair with the ball's mask; and
the admissible datum with its gradient sampled in all components at once."""

import math

import numpy as np

from kolmosim.cutoffs import nu_bar_grid, phi_b, psi_omega, time_profiles
from kolmosim.estimates import (_SMOOTH_MAPS, PartitionOfUnity, commutator, field_lp,
                                smooth_map_derivative_bound)
from kolmosim.spectral import (FOUR_PI_SQ, SpectralField, VectorSpectralField, _geometry,
                               conj_flip, fast_grid_size, real_grid_to_coefficients,
                               spectral_product)
from kolmosim.storage import _field_records
from kolmosim.system import SimState


def trigonometric_sum(f, points):
    """sum_k c_k exp(2 pi i k.x) on the grid x_j = j/points, term by term."""
    x = np.indices((points,) * f.dim) / points
    out = np.zeros((points,) * f.dim, dtype=complex)
    for k, c in zip(*_field_records(f)):
        out += c * np.exp(2j * np.pi * np.tensordot(k, x, axes=1))
    return out


def direct_convolution(f, g, out_cutoff):
    """P_m(f g) as the literal convolution sum over mode pairs, for fields
    that need not be real."""
    kf, cf = _field_records(f)
    kg, cg = _field_records(g)
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


# -- the cube formulas the half layout replaced -----------------------------------


def symmetrize(coeffs, dim):
    """(c(k) + conj(c(-k))) / 2 on the trailing dim axes: the cube of the
    field's real part, which spectral.real_half gathers on the half."""
    return 0.5 * (coeffs + conj_flip(coeffs, dim))


def cube_to_half(stack, dim):
    """The canonical half's modes of a stack of centered cubes, gathered as
    they are: spectral.real_half of a conjugate-symmetric cube, and of any
    other cube the half without taking its real part."""
    geo = _geometry(dim, (stack.shape[-1] + 1) // 2)
    return np.take(stack.reshape(stack.shape[:-dim] + (-1,)), geo.half, axis=-1)


def cube_leray(stack, dim, cutoff):
    """Leray projection of a (dim,) + cube velocity stack, every mode of the
    cube on its own: c(k) -= k (k.c(k)) / |k|^2 for k != 0."""
    geo = _geometry(dim, cutoff)
    k_dot = (geo.k * stack).sum(axis=0)
    return stack - geo.k * k_dot / np.where(geo.k_sq == 0, 1, geo.k_sq)


def cube_div_residual(stack, dim, cutoff):
    """max_k |k . c(k)| over the cube of a (dim,) + cube velocity stack,
    relative to its largest coefficient magnitude."""
    k_dot = (_geometry(dim, cutoff).k * stack).sum(axis=0)
    return float(np.abs(k_dot).max() / max(np.abs(stack).max(), 1e-300))


def cube_triple_sq(stack, s):
    """Squared H^s norm, summed over the rows, of each member of a (members,
    rows) + cube stack: (1 + 4 pi^2 |k|^2)^s |c(k)|^2 over every mode of the
    cube, which system.triple_sq sums on the half."""
    w = _geometry(stack.ndim - 2, (stack.shape[-1] + 1) // 2).bessel_weight(s)
    return np.sum((w * np.abs(stack) ** 2).reshape(len(stack), -1), axis=1)


def flux_divergences(c, dim, cutoff):
    """Divergences of flux rows laid out as the kernel writes them, on
    canonical halves: the symmetric tensor's rows (d rows of a vector), then
    the two vector fluxes (one scalar each).  Axes between the row axis and
    the mode axis are a batch."""
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    m = len(pairs)
    row = {}
    for p, (i, j) in enumerate(pairs):
        row[i, j] = row[j, i] = p
    rows = np.array([[row[i, j] for j in range(dim)] for i in range(dim)]
                    + [[m + j for j in range(dim)], [m + dim + j for j in range(dim)]])
    grad = _geometry(dim, cutoff).half_grad
    grad = grad.reshape(grad.shape[:1] + (1,) * (c.ndim - 2) + grad.shape[1:])
    return np.sum(c[rows] * grad, axis=1)


def velocity_force(state, params, profile):
    """-P_n(v.grad v) + div P_n(nubar Dv) of a real state, the kernel's dv
    before its Leray projection: the flux v_i v_j - nubar D_ij sampled on
    the quadrature grid component by component, and its divergence taken
    with SpectralField.diff."""
    d, n, pts = state.dim, state.cutoff, params.grid_points(state.cutoff)
    v = state.v.components
    nu = nu_bar_grid(state.b.real_samples(pts), state.omega.real_samples(pts), state.t,
                     profile)
    force = []
    for i in range(d):
        out = SpectralField.zeros(d, n)
        for j in range(d):
            deform = 0.5 * (v[i].diff(j).real_samples(pts) + v[j].diff(i).real_samples(pts))
            flux = nu * deform - v[i].real_samples(pts) * v[j].real_samples(pts)
            out = out + SpectralField.from_grid(flux, n).diff(j)
        force.append(out)
    return VectorSpectralField(tuple(force))


# -- the cutoffs' derivative constant ----------------------------------------------


def _max_derivatives(fn, lo: float, hi: float, order: int, points: int = 4001):
    """sup |f^(k)| for k = 1..order by repeated second-order differencing."""
    xs = np.linspace(lo, hi, points)
    ys = fn(xs)
    sups = []
    for _ in range(order):
        ys = np.gradient(ys, xs)
        sups.append(float(np.max(np.abs(ys))))
    return sups


def measure_derivative_constant(profile, order: int, t_values=(0.0, 1.0, 10.0)) -> float:
    """Empirical c0 with |Phi^(k)| <= c0*b_lower^(1-k), |Psi^(k)| <=
    c0*omega_lower^(1-k), k = 1..order, over the sampled times."""
    c0 = 0.0
    for t in t_values:
        vals = time_profiles(profile.bounds, t)
        b_lo, w_lo, w_hi = vals.b_lower, vals.omega_lower, vals.omega_upper
        sups = _max_derivatives(lambda x: phi_b(x, t, profile), 0.0, 2.0 * b_lo, order)
        for k, sup in enumerate(sups, start=1):
            c0 = max(c0, sup * b_lo ** (k - 1))
        sups = _max_derivatives(lambda x: psi_omega(x, t, profile), 0.0, 3.0 * w_hi, order)
        for k, sup in enumerate(sups, start=1):
            c0 = max(c0, sup * w_lo ** (k - 1))
    return c0


# -- the estimate campaigns one sample at a time ------------------------------------


def commutator_sample(spec, i, s, exponents=(2.0, np.inf, 2.0, np.inf, 2.0)):
    """(lhs, rhs) of commutator campaign sample i, from field objects."""
    p, p1, p2, p3, p4 = exponents
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
    gf = SpectralField.from_half(
        real_grid_to_coefficients(_SMOOTH_MAPS[g_name][0](grid), m, f.dim), f.dim, m)
    bound = smooth_map_derivative_bound(g_name, math.ceil(s) + 1, f_inf)
    return (field_lp(gf.bessel(s), 2.0),
            bound * (1.0 + f_inf) ** math.ceil(s) * field_lp(f.bessel(s), 2.0))


def interpolation_sample(spec, i, s):
    """(lhs, rhs) of interpolation campaign sample i; (0, 0) where f = 0."""
    f = spec.draw(spec.rng(i))
    hs = field_lp(f.bessel(s), 2.0)
    if hs == 0.0:
        return 0.0, 0.0
    lhs = field_lp(f.gradient(), np.inf)
    if s > f.dim / 2 + 1.0:
        return lhs, hs
    theta = 0.5 * (s - f.dim / 2)
    return lhs, hs ** theta * field_lp(f.bessel(s + 1.0), 2.0) ** (1.0 - theta)


# -- the lab's draws, sup norms and decomposition by their first formulas ------------


def two_call_draws(spec, indices, count):
    """RandomFieldSpec.draws from each field's two-call complex normals
    rng.normal(...) + 1j * rng.normal(...), damped by (1+|k|)^(-rho) on the
    cube, with the real part and the half taken by the cube formulas."""
    geo = _geometry(spec.dim, spec.cutoff)
    damping = (1.0 + np.sqrt(geo.k_sq)) ** (-float(spec.rho))
    cubes = []
    for i in indices:
        rng = spec.rng(i)
        for _ in range(count):
            normals = rng.normal(size=geo.k_sq.size) + 1j * rng.normal(size=geo.k_sq.size)
            cubes.append(symmetrize(normals.reshape(geo.k_sq.shape) * damping, spec.dim))
    halves = cube_to_half(np.stack(cubes), spec.dim).reshape(len(indices), count, -1)
    halves[..., geo.origin] = 0.0
    return halves


def magnitude_first_sup(grids):
    """Sup norms of a (samples, rows) + grid stack: each point's magnitude,
    |g| for one row and the Euclidean magnitude of several, then the max."""
    if grids.shape[1] > 1:
        mags = np.sqrt(np.sum(np.square(grids), axis=1))
    else:
        mags = np.abs(grids[:, 0])
    return np.max(mags, axis=tuple(range(1, mags.ndim)))


def add_at_decomposition(f, g, s):
    """The three commutator decomposition parts over all mode pairs of the
    ball, scattered with np.add.at onto the doubled ball's cube and masked
    by the SpectralField constructor."""
    d, n = f.dim, f.cutoff
    geo = _geometry(d, n)
    xi = geo.k[:, geo.ball].T.astype(np.int64)
    xi_sq = np.sum(xi ** 2, axis=1).astype(float)
    pair_sq = np.sum((xi[:, None, :] + xi[None, :, :]) ** 2, axis=2).astype(float)
    bessel_diff = ((1.0 + FOUR_PI_SQ * pair_sq) ** (s / 2.0)
                   - (1.0 + FOUR_PI_SQ * xi_sq[None, :]) ** (s / 2.0))
    phis = PartitionOfUnity().split((1.0 + xi_sq[:, None]) / (1.0 + xi_sq[None, :]))
    m = 2 * n - 1
    side = 2 * m - 1
    flat = np.ravel_multi_index(tuple(xi[:, a, None] + xi[None, :, a] + (m - 1)
                                      for a in range(d)), (side,) * d).ravel()
    weight = bessel_diff * f.coeffs[geo.ball][:, None] * g.coeffs[geo.ball][None, :]
    parts = []
    for phi in phis:
        acc = np.zeros(side ** d, dtype=complex)
        np.add.at(acc, flat, (weight * phi).ravel())
        parts.append(SpectralField(d, m, acc.reshape((side,) * d)))
    return tuple(parts)


def all_components_admissible_state(spec, bounds, index=0, v_scale=0.25):
    """estimates.admissible_state with |grad f| sampled from every gradient
    component's grid at once, and the field's samples kept meanwhile."""
    rng = spec.rng(index)
    v = VectorSpectralField(
        tuple(spec.draw(rng, scale=v_scale) for _ in range(spec.dim))).leray_project()

    def mapped(lo, hi):
        f = spec.draw(rng, scale=1.0)
        fine = fast_grid_size(16 * spec.cutoff)
        g = f.real_samples(fine)
        grad_mag = np.sqrt(np.sum(f.gradient().real_samples(fine) ** 2, axis=0))
        slack = float(np.max(grad_mag)) * math.sqrt(spec.dim) / fine
        g_lo = float(np.min(g)) - slack
        g_hi = float(np.max(g)) + slack
        if g_hi - g_lo < 1e-30:
            value = lo if hi is None else 0.5 * (lo + hi)
            return SpectralField.from_modes(spec.dim, spec.cutoff, {(0,) * spec.dim: value})
        if hi is None:
            a, b = 1.0, lo - g_lo
        else:
            a = (hi - lo) / (g_hi - g_lo)
            b = lo - a * g_lo
        out = f * a
        out.coeffs[(spec.cutoff - 1,) * spec.dim] += b
        return out

    omega = mapped(bounds.omega_min0, bounds.omega_max0)
    b = mapped(bounds.b_min0, None)
    return SimState(v, omega, b, t=0.0)
