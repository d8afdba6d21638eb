"""Command-line front end: run simulations, print existence-time
certificates, drive estimate campaigns, inspect snapshots, and compare
refinement levels.

`simulate` writes config.txt, then each snapshot the moment the integrator
takes the sample (through its on_sample hook), and checks that sample's
omega/b extrema against their envelopes: the run stops at the first sample
that leaves them; a run that fails keeps its last finite state as its last
snapshot.  The diagnostics CSV, the nubar aliasing indicator and
summary.txt follow the run.  A run killed outright (SIGKILL) leaves the
output directory's lock file behind; it must be deleted by hand.

Exit codes: 0 success, 1 usage/config/I-O error, 2 monitor abort.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import List, Optional, Tuple

import numpy as np

from .cutoffs import CutoffProfile, InitialBounds
from .diagnostics import (ConstantModel, ExtremaReport, beta_exponent,
                          beta_formula_extended, energy_balance, existence_time,
                          extrema_monitor, nu_bar_aliasing, uniform_bound)
from .estimates import (RandomFieldSpec, admissible_state, attach_stability,
                        decomposition_residual, verify_commutator_estimate,
                        verify_composition_estimate,
                        verify_interpolation_inequality,
                        verify_product_estimate)
from .integrators import Trajectory, integrate
from .spectral import SpectralField, VectorSpectralField
from .storage import (OutputLock, RunConfig, RunObjects, SnapshotError,
                      load_config, load_snapshot, print_config, save_snapshot,
                      write_diagnostics_csv)
from .system import SimState, halves, hypothesis_violations, monitor_grid, triple_sq

USAGE_ERROR, MONITOR_ABORT = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> _Parser:
    parser = _Parser(prog="kolmosim",
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="run configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")

    p_sim = sub.add_parser("simulate", help="advance a run and write artifacts")
    add_config(p_sim)

    p_cert = sub.add_parser("existence-time", help="print the T certificate")
    add_config(p_cert)
    p_cert.add_argument("--beta", type=float, default=None,
                        help="override the exponent beta")
    p_cert.add_argument("--out", default=None, help="also write certificate CSV")

    p_ver = sub.add_parser("verify", help="run an estimate campaign")
    p_ver.add_argument("name", help="commutator | product | composition | "
                                    "interpolation | decomposition")
    p_ver.add_argument("--samples", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--dim", type=int, default=2)
    p_ver.add_argument("--cutoff", type=int, default=8)
    p_ver.add_argument("--rho", type=float, default=2.0)
    p_ver.add_argument("--s", type=float, default=2.0)
    p_ver.add_argument("--smooth-map", default="sin",
                       help="composition nonlinearity name")
    p_ver.add_argument("--out", default=None, help="report file path")

    p_norms = sub.add_parser("norms", help="print norms of a snapshot")
    p_norms.add_argument("snapshot")
    p_norms.add_argument("--s", type=float, default=2.0)

    p_conv = sub.add_parser("convergence",
                            help="integrate at n and 2n, report the H^s' gap")
    add_config(p_conv)
    p_conv.add_argument("--s-prime", type=float, default=1.0)
    return parser


def _load_run_config(args) -> Tuple[RunConfig, RunObjects]:
    """The configuration and the objects it describes, every key checked."""
    config = load_config(args.config) if args.config else RunConfig()
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        config[key.strip()] = value.strip()
    return config, config.validate()


def _taylor_green(cutoff: int, bounds: InitialBounds, scale: float) -> SimState:
    pts = monitor_grid(cutoff)
    x = np.arange(pts) / pts
    xx, yy = np.meshgrid(x, x, indexing="ij")
    u = scale * np.cos(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
    w = -scale * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    v = VectorSpectralField((SpectralField.from_grid(u, cutoff),
                             SpectralField.from_grid(w, cutoff)))
    omega0 = 0.5 * (bounds.omega_min0 + bounds.omega_max0)
    omega = SpectralField.from_modes(2, cutoff, {(0, 0): omega0})
    b = SpectralField.from_modes(2, cutoff, {(0, 0): bounds.b_min0})
    return SimState(v, omega, b, t=0.0)


def _datum(config: RunConfig) -> SimState:
    d, n = config["d"], config["n"]
    bounds = config.validate().bounds
    kind = config["kind"]
    if kind == "random":
        spec = RandomFieldSpec(dim=d, cutoff=n, rho=config["rho"],
                               seed=config["seed"])
        return admissible_state(spec, bounds, index=0,
                                v_scale=config["v_scale"])
    if kind == "preset":
        name = config["preset"]
        if name == "constant":
            omega0 = 0.5 * (bounds.omega_min0 + bounds.omega_max0)
            v = VectorSpectralField.zeros(d, n)
            omega = SpectralField.from_modes(d, n, {(0,) * d: omega0})
            b = SpectralField.from_modes(d, n, {(0,) * d: bounds.b_min0})
            return SimState(v, omega, b, t=0.0)
        if name == "taylor-green":
            if d != 2:
                raise ValueError("taylor-green preset is two-dimensional")
            return _taylor_green(n, bounds, config["v_scale"])
        raise ValueError(f"unknown preset {name!r}")
    state = load_snapshot(config["snapshot"], expect_dim=d)   # validate() left "snapshot"
    return state if state.cutoff == n else state.project(n)


def initial_state(config: RunConfig) -> SimState:
    """The configured initial datum; ValueError when it violates a hypothesis."""
    state = _datum(config)
    problems = hypothesis_violations(state, config["s"])
    if problems:
        raise ValueError("hypothesis violated: " + "; ".join(problems))
    return state


def _diagnostics_rows(traj: Trajectory, extrema: List[ExtremaReport], config: RunConfig,
                      cm: ConstantModel, profile: CutoffProfile) -> List[dict]:
    """Per-sample CSV rows, with each sample's extrema report as the run
    took it."""
    s = config["s"]
    beta = beta_exponent(s, config["d"])
    states = traj.states
    if len(states) >= 3:
        reports, _ = energy_balance(traj, s,
                                    lambda t: profile.values(t).nu_lower,
                                    beta, cm)
        lhs = [r.lhs for r in reports]
        rhs = [r.rhs_bound for r in reports]
    else:
        lhs = [math.nan] * len(states)
        rhs = [math.nan] * len(states)
    return [{
        "t": st.t,
        "hs_v": st.v.hs_norm(s),
        "hs_omega": st.omega.hs_norm(s),
        "hs_b": st.b.hs_norm(s),
        "triple_sq": st.triple_norm_sq(s),
        "min_omega": mon.min_omega,
        "max_omega": mon.max_omega,
        "min_b": mon.min_b,
        "nu_min": profile.values(st.t).nu_lower,
        "energy_lhs": lhs[i],
        "energy_rhs_bound": rhs[i],
        "div_residual": st.div_residual(),
        "realness_residual": st.realness_residual(),
    } for i, (st, mon) in enumerate(zip(states, extrema))]


def cmd_simulate(args) -> int:
    config, run = _load_run_config(args)
    state = initial_state(config)
    profile = CutoffProfile(run.bounds)
    out_dir = config["directory"]
    grid = monitor_grid(state.cutoff)
    extrema: List[ExtremaReport] = []

    def on_sample(_, st: SimState) -> Optional[str]:
        # each sample is on disk before the run goes on; the first one that
        # leaves the omega/b envelopes ends the run there
        save_snapshot(st, os.path.join(out_dir, f"snapshot_{len(extrema):06d}.kolm"))
        extrema.append(extrema_monitor(st, profile, grid=grid))
        return None if extrema[-1].passed else f"extrema monitor failed at t = {st.t:.6g}"

    with OutputLock(out_dir):
        with open(os.path.join(out_dir, "config.txt"), "w") as fh:
            fh.write(print_config(config))
        traj = integrate(state, run.integrator, run.model, profile, on_sample=on_sample)
        rows = _diagnostics_rows(traj, extrema, config, run.constants, profile)
        write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), rows)
        # after the outputs the run itself needs, and not counted as its RHS
        # evaluations: the final sample's nubar quadrature error, from the
        # right-hand side the run kept.  The datum's aliasing is a transient
        # that diffusion damps; data that need a finer grid still alias at
        # the end, so a run that never left its datum does not warn
        aliasing = float(nu_bar_aliasing([traj.final], run.model, profile, [traj.rhs[-1]])[0])
        points = run.model.grid_points(state.cutoff)
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write(f"status = {traj.status}\n")
            fh.write(f"steps = {traj.steps}\n")
            fh.write(f"rejected = {traj.rejected}\n")
            fh.write(f"rhs_evaluations = {traj.evaluations}\n")
            fh.write(f"grid_points = {points}\n")
            fh.write(f"nu_bar_aliasing = {aliasing!r}\n")
            fh.write(f"samples = {len(traj.states)}\n")
            fh.write(f"final_t = {traj.final.t!r}\n")
            fh.write(f"final_triple_sq = {traj.final.triple_norm_sq(config['s'])!r}\n")
            if traj.message:
                fh.write(f"message = {traj.message}\n")

    if traj.final.t > state.t and aliasing > run.integrator.rel_tol:
        print(f"warning: nu_bar aliasing {aliasing:.3g} at the final sample ({points}-point "
              f"grid) exceeds rel_tol = {run.integrator.rel_tol!r}; raise oversample",
              file=sys.stderr)
    if traj.status == "aborted-monitor":
        print(traj.message, file=sys.stderr)
        return MONITOR_ABORT
    if traj.status != "completed":
        print(f"monitor abort: {traj.status}: {traj.message}", file=sys.stderr)
        return MONITOR_ABORT
    print(f"completed: {len(traj.states)} samples in {out_dir}")
    return 0


def cmd_existence_time(args) -> int:
    config, run = _load_run_config(args)
    state = initial_state(config)
    s, d = config["s"], config["d"]
    x0 = state.triple_norm_sq(s)
    beta = args.beta if args.beta is not None else beta_exponent(s, d)
    t_exist = existence_time(x0, beta, run.constants)
    ceiling = uniform_bound(x0)
    print(f"X0 = {x0!r}")
    print(f"beta = {beta!r}" + ("  (formula extended beyond s = d/2+1)"
                                if args.beta is None and beta_formula_extended(s, d)
                                else ""))
    print(f"T = {t_exist!r}")
    print(f"uniform_bound = {ceiling!r}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["X0", "beta", "T", "uniform_bound",
                             "c_tilde", "gamma"])
            writer.writerow([repr(v) for v in
                             (x0, beta, t_exist, ceiling,
                              config["c_tilde"], config["gamma"])])
    return 0


def _report_text(report) -> str:
    lines = [f"inequality = {report.name}",
             f"samples = {report.samples}",
             f"skipped = {report.skipped}",
             f"max_ratio = {report.max_ratio!r}",
             f"median_ratio = {report.median_ratio!r}"]
    if report.stability:
        st = report.stability
        lines.append(f"stability_cutoffs = {st['cutoffs'][0]} {st['cutoffs'][1]}")
        lines.append(f"stability_max_ratios = {st['max_ratios'][0]!r} "
                     f"{st['max_ratios'][1]!r}")
        lines.append(f"stability_factor = {st['factor']!r}")
    lines.append("ratios:")
    lines.extend(repr(r) for r in report.ratios)
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    spec = RandomFieldSpec(dim=args.dim, cutoff=args.cutoff, rho=args.rho,
                           seed=args.seed)
    name = args.name
    if name == "decomposition":
        if args.samples < 1:
            raise ValueError(f"decomposition: need at least 1 sample, got {args.samples}")
        worst = 0.0
        for pair in spec.draws(range(args.samples), 2):
            f, g = (SpectralField.from_half(half, spec.dim, spec.cutoff) for half in pair)
            for s in (0.5, 1.5, 2.0):
                worst = max(worst, decomposition_residual(f, g, s))
        print(f"decomposition identity residual = {worst!r} over "
              f"{args.samples} pairs")
        ok = worst <= 1e-10
        print("pass" if ok else "FAIL")
        return 0 if ok else USAGE_ERROR

    campaigns = {
        "commutator": lambda sp: verify_commutator_estimate(
            sp, args.s, samples=args.samples),
        "product": lambda sp: verify_product_estimate(
            sp, args.s, samples=args.samples),
        "composition": lambda sp: verify_composition_estimate(
            sp, args.s, g_name=args.smooth_map, samples=args.samples),
        "interpolation": lambda sp: verify_interpolation_inequality(
            sp, args.s, samples=args.samples),
    }
    if name not in campaigns:
        print(f"error: unknown inequality {name!r}; choose from "
              f"{sorted(campaigns) + ['decomposition']}", file=sys.stderr)
        return USAGE_ERROR
    report = campaigns[name](spec)
    doubled = campaigns[name](spec.with_cutoff(2 * spec.cutoff))
    attach_stability(report, doubled)
    text = _report_text(report)
    out = args.out or f"report_{name}.txt"
    with open(out, "w") as fh:
        fh.write(text)
    print(text, end="")
    print(f"written to {out}")
    return 0


def cmd_norms(args) -> int:
    state = load_snapshot(args.snapshot)
    s = args.s
    print(f"t = {state.t!r}")
    print(f"dim = {state.dim}  cutoff = {state.cutoff}")
    print(f"hs_v = {state.v.hs_norm(s)!r}")
    print(f"hs_omega = {state.omega.hs_norm(s)!r}")
    print(f"hs_b = {state.b.hs_norm(s)!r}")
    print(f"triple_sq = {state.triple_norm_sq(s)!r}")
    print(f"div_residual = {state.div_residual()!r}")
    print(f"realness_residual = {state.realness_residual()!r}")
    return 0


def refinement_gap(config: RunConfig, s_prime: float) -> float:
    """H^s' distance at t_end between the run at n and the run at 2n from
    the same (projected) initial data."""
    run = config.validate()
    state_lo = initial_state(config)
    state_hi = state_lo.project(2 * config["n"])
    profile = CutoffProfile(run.bounds)
    traj_lo = integrate(state_lo, run.integrator, run.model, profile)
    traj_hi = integrate(state_hi, run.integrator, run.model, profile)
    if traj_lo.status != "completed" or traj_hi.status != "completed":
        raise RuntimeError(f"refinement runs did not complete: "
                           f"{traj_lo.status}, {traj_hi.status}")
    gap = halves([traj_lo.final.project(2 * config["n"])]) - halves([traj_hi.final])
    return math.sqrt(triple_sq(gap, s_prime, config["d"], 2 * config["n"])[0])


def cmd_convergence(args) -> int:
    config, _ = _load_run_config(args)
    if args.s_prime >= config["s"]:
        print("error: s' must be below s", file=sys.stderr)
        return USAGE_ERROR
    gap = refinement_gap(config, args.s_prime)
    print(f"n = {config['n']}  2n = {2 * config['n']}  t_end = {config['t_end']!r}")
    print(f"hs_prime_gap = {gap!r}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for name, value in vars(args).items():      # no float flag takes inf or nan
        if isinstance(value, float) and not math.isfinite(value):
            print(f"error: --{name.replace('_', '-')} must be finite, got {value!r}",
                  file=sys.stderr)
            return USAGE_ERROR
    handlers = {
        "simulate": cmd_simulate,
        "existence-time": cmd_existence_time,
        "verify": cmd_verify,
        "norms": cmd_norms,
        "convergence": cmd_convergence,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError, OSError, SnapshotError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
