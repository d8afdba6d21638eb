"""Data shared by the test modules: the low-viscosity bounds LOW_NU and a
rough admissible datum for them, which the acceptance gate refines and the
command line's aliasing warning flags at oversample 2."""

import numpy as np

from kolmosim.cutoffs import InitialBounds
from kolmosim.estimates import RandomFieldSpec
from kolmosim.spectral import VectorSpectralField
from kolmosim.system import SimState, hypothesis_violations

LOW_NU = InitialBounds(b_min0=0.004, omega_min0=2.5, omega_max0=3.5, alpha=1.0)


def low_viscosity_datum(seed):
    """Rough admissible datum (d = 2, n = 8, admissible at s = 2) with
    nu_bar ~ 1.5e-3, so Galerkin truncation differences survive to t = 0.25
    instead of being diffused away."""
    spec = RandomFieldSpec(dim=2, cutoff=8, rho=1.5, seed=seed)
    rng = spec.rng(0)
    center = (spec.cutoff - 1,) * 2
    v = VectorSpectralField(tuple(spec.draw(rng) for _ in range(2)))
    v = v.leray_project()
    sup = max(float(np.max(np.abs(c.real_samples(64))))
              for c in v.components)
    v = v * (0.3 / sup)
    f = spec.draw(rng)
    omega = f * (0.5 / float(np.max(np.abs(f.real_samples(64)))))
    omega.coeffs[center] += 3.0
    g = spec.draw(rng)
    b = g * (0.001 / float(np.max(np.abs(g.real_samples(64)))))
    b.coeffs[center] += 0.005
    state = SimState(v, omega, b, 0.0)
    assert not hypothesis_violations(state, 2.0)
    return state
