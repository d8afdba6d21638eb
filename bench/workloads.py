"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed and runs in passes.
A pass is the unit whose wall time is reported: one integrate call
(envelope), one uniqueness-probe call (probe), one ``kolmosim simulate``
invocation (simulate), or the criterion-09 campaign set plus the
decomposition identity (campaign).  ``prepare`` makes a pass's input outside
the timed region, ``run`` is timed, ``check`` verifies the output against the
acceptance criteria's own conditions, again outside the timed region.

The RK45 step count is set by stability, i.e. by the datum's largest
viscosity, and varies by about 14% between random data (RandomFieldSpec seeds
0-23, horizon 0.005).  So that the pass cost measures the code, not the
draw, the two RK45 workloads start every pass from one fixed datum
(criterion 03's seed 0; the default ``simulate`` datum) moved by a seeded
symmetry of the torus: a grid-commensurate translation, an axis permutation
and reflections.  The
coefficients differ from seed to seed, the work does not.  The fixed-step
probe and the fixed-sample campaigns draw their data from the seed directly,
because their work does not depend on the data.

Package functions are called through their modules (``estimates.X``, not an
imported name), so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import sys
import tempfile
import time
from typing import List

import numpy as np

from kolmosim import cli, estimates, integrators, spectral, storage
from kolmosim.cutoffs import CutoffProfile, InitialBounds
from kolmosim.diagnostics import (ConstantModel, beta_exponent, existence_time,
                                  extrema_monitor, uniform_bound)
from kolmosim.estimates import RandomFieldSpec, admissible_state
from kolmosim.integrators import IntegratorConfig
from kolmosim.spectral import (SpectralField, VectorSpectralField,
                               fast_grid_size)
from kolmosim.system import ModelParams, SimState, hypothesis_violations

from tracing import CAMPAIGN_FUNCTIONS

WIDE = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)
S_RUN = 2.0


def symmetric_image(state: SimState, rng: np.random.Generator,
                    period: int) -> SimState:
    """state moved by a random signed axis permutation R and a translation by
    a multiple of 1/period: f -> f(R x - a), v -> R^T v(R x - a).

    Norms, extrema, divergence and realness are preserved exactly; with
    `period` equal to the solver's grid size the grid values are permuted, so
    the integration does the same work on every image.
    """
    d, n = state.dim, state.cutoff
    geo = spectral._geometry(d, n)
    perm = rng.permutation(d)
    signs = rng.choice((-1, 1), size=d)
    shift = rng.integers(0, period, size=d)
    source = tuple(signs[i] * geo.k[perm[i]] + (n - 1) for i in range(d))
    phase = np.exp(-2j * np.pi * sum(geo.k[a] * shift[a] for a in range(d))
                   / period)

    def move(f: SpectralField, sign: int = 1) -> SpectralField:
        return SpectralField(d, n, sign * f.coeffs[source] * phase)

    v = [None] * d
    for j in range(d):                     # w_{p(j)} = s_j v_j(R x - a)
        v[perm[j]] = move(state.v.components[j], int(signs[j]))
    return SimState(VectorSpectralField(tuple(v)), move(state.omega),
                    move(state.b), state.t)


def _require_admissible(state: SimState) -> None:
    problems = hypothesis_violations(state, S_RUN)
    if problems:
        raise ValueError("benchmark datum not admissible: " + "; ".join(problems))
    state.validate()


class Workload:
    name = ""
    trace_passes = 1          # passes in a traced run (fixed, so counts repeat)
    ops_per_pass = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Everything before the first solver or lab call; repeatable."""
        raise NotImplementedError

    def prepare(self, i: int):
        return i

    def run(self, item):
        """Timed; returns (result, process CPU time when the first output
        existed, or None when the output is the return value)."""
        raise NotImplementedError

    def check(self, i: int, item, result) -> List[str]:
        raise NotImplementedError


class Envelope(Workload):
    name = "envelope"
    horizon = 0.005           # 1/50 of the certified T = 0.25

    def setup(self):
        spec = RandomFieldSpec(dim=2, cutoff=16, rho=2.5, seed=0)
        self.base = admissible_state(spec, WIDE, index=0, v_scale=0.2)
        _require_admissible(self.base)
        # criterion 03 calibrates the constant model so that T(X0) = 0.25
        self.x0 = self.base.triple_norm_sq(S_RUN)
        beta = beta_exponent(S_RUN, 2)
        budget = (1.0 - 2.0 ** (1.0 - beta)) * (1.0 + self.x0) ** (1.0 - beta)
        cmodel = ConstantModel(budget / ((beta - 1.0) * 0.25), 0.0)
        self.t_exist = existence_time(self.x0, beta, cmodel)
        self.profile = CutoffProfile(WIDE)
        self.params = ModelParams(alpha=1.0, s=S_RUN, bounds=WIDE, oversample=2)
        self.config = IntegratorConfig(method="rk45", dt=1e-3, abs_tol=1e-7,
                                       rel_tol=1e-7, t_end=self.horizon,
                                       monitor_every=20)
        self.period = fast_grid_size(self.params.oversample * 31)
        self.monitor_grid = fast_grid_size(4 * 31)

    def prepare(self, i):
        return symmetric_image(self.base, np.random.default_rng((self.seed, i)),
                               self.period)

    def run(self, state):
        return integrators.integrate(state, self.config, self.params,
                                     self.profile), None

    def check(self, i, state, traj):
        bad = []
        if abs(self.t_exist - 0.25) > 1e-12 * 0.25:
            bad.append(f"certified T = {self.t_exist!r}, expected 0.25")
        if traj.status != "completed":
            bad.append(f"status {traj.status}: {traj.message}")
        if abs(traj.final.t - self.horizon) > 1e-12:
            bad.append(f"ended at t = {traj.final.t!r}")
        ceiling = uniform_bound(self.x0)
        for st in traj.states:
            if not extrema_monitor(st, self.profile, self.monitor_grid,
                                   eps_tol=1e-6).passed:
                bad.append(f"extrema left the envelope at t = {st.t!r}")
            if st.div_residual() > 1e-10 or st.realness_residual() > 1e-12:
                bad.append(f"structure residual at t = {st.t!r}")
            if not st.triple_norm_sq(S_RUN) <= ceiling:
                bad.append(f"triple norm above 2*X0+1 at t = {st.t!r}")
        return bad


class Probe(Workload):
    name = "probe"
    amplitudes = (1e-6, 5e-7, 0.0)
    trace_passes = 3          # one amplitude set: 6 integrations today

    def setup(self):
        spec = RandomFieldSpec(dim=2, cutoff=6, rho=2.5, seed=self.seed)
        self.state = admissible_state(spec, WIDE, index=0, v_scale=0.25)
        _require_admissible(self.state)
        self.params = ModelParams(alpha=1.0, s=S_RUN, bounds=WIDE, oversample=2)
        self.profile = CutoffProfile(WIDE)
        self.config = IntegratorConfig(method="rk4", dt=1.25e-4, t_end=0.025,
                                       monitor_every=400)
        self.previous = {}

    def prepare(self, i):
        return self.amplitudes[i % 3]

    def run(self, amplitude):
        return estimates.uniqueness_probe(self.state, amplitude, self.params,
                                          self.profile, self.config,
                                          seed=self.seed), None

    def check(self, i, amplitude, report):
        bad = []
        if report.status_base != "completed" or report.status_pert != "completed":
            bad.append(f"status {report.status_base}/{report.status_pert}")
        if report.partial or abs(report.times[-1] - self.config.t_end) > 1e-12:
            bad.append("partial trajectory pair")
        if amplitude == 0.0 and not all(x == 0.0 for x in report.e):
            bad.append("zero perturbation did not stay exactly zero")
        self.previous[amplitude] = report
        if amplitude == 5e-7 and 1e-6 in self.previous:
            ratio = self.previous[1e-6].e[-1] / report.e[-1]
            if not abs(ratio - 4.0) <= 0.05 * 4.0:
                bad.append(f"e ratio {ratio!r} outside 4 +- 5%")
        return bad


class Simulate(Workload):
    name = "simulate"
    horizon = 0.001

    def setup(self):
        self.config = storage.RunConfig()          # the CLI defaults
        self.base = cli.initial_state(self.config)
        _require_admissible(self.base)
        n, over = self.config["n"], self.config["oversample"]
        self.period = fast_grid_size(over * (2 * n - 1))

    def prepare(self, i):
        datum = os.path.join(self.workdir, "datum.kolm")
        state = symmetric_image(self.base,
                                np.random.default_rng((self.seed, i)),
                                self.period)
        storage.save_snapshot(state, datum)
        out = tempfile.mkdtemp(prefix="simulate-", dir=self.workdir)
        return out, datum

    def run(self, item):
        out, datum = item
        argv = ["simulate", "--set", f"directory={out}",
                "--set", "kind=snapshot", "--set", f"snapshot={datum}",
                "--set", f"t_end={self.horizon!r}"]
        # stamp the process CPU time when the first snapshot is on disk; if
        # the binding is gone, the pass's end stands in for it
        save = getattr(cli, "save_snapshot", None)
        first = []

        def save_and_stamp(*args, **kwargs):
            save(*args, **kwargs)
            if not first:
                first.append(time.process_time())

        if save is not None:
            cli.save_snapshot = save_and_stamp
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
        finally:
            if save is not None:
                cli.save_snapshot = save
        return code, (first or [None])[0]

    def check(self, i, item, code):
        out, _ = item
        bad = []
        try:
            if code != 0:
                return [f"exit code {code}"]
            with open(os.path.join(out, "summary.txt")) as fh:
                summary = dict(line.split(" = ", 1) for line in fh.read().splitlines())
            rows = storage.read_diagnostics_csv(os.path.join(out, "diagnostics.csv"))
            samples = int(summary["samples"])
            if len(rows) != samples:
                bad.append(f"{len(rows)} CSV rows for {samples} samples")
            last = storage.load_snapshot(
                os.path.join(out, f"snapshot_{samples - 1:06d}.kolm"))
            if last.triple_norm_sq(self.config["s"]) != float(summary["final_triple_sq"]):
                bad.append("last snapshot disagrees with summary.txt")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return bad


class Campaign(Workload):
    name = "campaign"
    samples = 100
    decomposition_pairs = 50
    ops_per_pass = 5

    def setup(self):
        self.spec = RandomFieldSpec(dim=2, cutoff=8, rho=2.0, seed=self.seed)
        self.spec.draw(self.spec.rng(0))
        self.spec.with_cutoff(16).draw(self.spec.rng(0))
        self.pairs_spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=self.seed)

    def _campaign(self, name, spec):
        fn = getattr(estimates, CAMPAIGN_FUNCTIONS[name])
        return fn(spec, S_RUN, samples=self.samples)

    def _decomposition_residual(self):
        worst = 0.0
        for i in range(self.decomposition_pairs):
            rng = self.pairs_spec.rng(i)
            f, g = self.pairs_spec.draw(rng), self.pairs_spec.draw(rng)
            for s in (0.5, 1.5, 2.0):
                ref = estimates.commutator(f, g, s)
                total = sum(estimates.commutator_decomposition(f, g, s),
                            SpectralField.zeros(2, ref.cutoff))
                scale = ref.hs_norm(0.0)
                err = (total - ref).hs_norm(0.0)
                if scale == 0.0:               # criterion 08: absolute 1e-12
                    worst = max(worst, 0.0 if err <= 1e-12 else math.inf)
                else:
                    worst = max(worst, err / scale)
        return worst

    def run(self, _):
        first = None
        reports = {}
        for name in CAMPAIGN_FUNCTIONS:
            low = self._campaign(name, self.spec)
            high = self._campaign(name, self.spec.with_cutoff(16))
            reports[name] = estimates.attach_stability(low, high), high
            if first is None:
                first = time.process_time()
        return (reports, self._decomposition_residual()), first

    def check(self, i, _, result):
        reports, residual = result
        bad = []
        for name, (low, high) in reports.items():
            if not (np.all(np.isfinite(low.ratios)) and np.all(np.isfinite(high.ratios))):
                bad.append(f"{name}: non-finite ratio")
            if not low.samples == high.samples == self.samples:
                bad.append(f"{name}: {low.samples}/{high.samples} samples")
            if not high.max_ratio <= 2.0 * low.max_ratio:
                bad.append(f"{name}: n16 max ratio {high.max_ratio!r} > 2 x "
                           f"n8 max ratio {low.max_ratio!r}")
        if not residual <= 1e-10:
            bad.append(f"decomposition residual {residual!r}")
        return bad


WORKLOADS = {w.name: w for w in (Envelope, Probe, Simulate, Campaign)}
