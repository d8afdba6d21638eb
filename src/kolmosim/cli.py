"""Command-line front end: run simulations, print existence-time
certificates, drive estimate campaigns, inspect snapshots, and compare
refinement levels.

Exit codes: 0 success, 1 usage/config/I-O error, 2 monitor abort.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import List, Optional

import numpy as np

from .cutoffs import CutoffProfile, InitialBounds
from .diagnostics import (ConstantModel, beta_exponent, beta_formula_extended,
                          energy_balance, existence_time, extrema_monitor,
                          uniform_bound)
from .estimates import (RandomFieldSpec, admissible_state, attach_stability,
                        commutator, commutator_decomposition,
                        verify_commutator_estimate,
                        verify_composition_estimate,
                        verify_interpolation_inequality,
                        verify_product_estimate)
from .integrators import IntegratorConfig, Trajectory, integrate
from .spectral import SpectralField, VectorSpectralField, fast_grid_size
from .storage import (OutputLock, RunConfig, SnapshotError, load_config,
                      load_snapshot, print_config, save_snapshot,
                      write_diagnostics_csv)
from .system import ModelParams, SimState, hypothesis_violations

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


def _load_run_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        config[key.strip()] = value.strip()
    config.validate()
    return config


def _bounds(config: RunConfig) -> InitialBounds:
    return InitialBounds(b_min0=config["b_min0"],
                         omega_min0=config["omega_min0"],
                         omega_max0=config["omega_max0"],
                         alpha=config["alpha"])


def _integrator_config(config: RunConfig) -> IntegratorConfig:
    return IntegratorConfig(method=config["method"], dt=config["dt"],
                            abs_tol=config["abs_tol"],
                            rel_tol=config["rel_tol"], t_end=config["t_end"],
                            reproject_every=config["reproject_every"],
                            monitor_every=config["monitor_every"],
                            blowup_factor=config["blowup_factor"])


def _taylor_green(cutoff: int, bounds: InitialBounds, scale: float) -> SimState:
    pts = fast_grid_size(4 * (2 * cutoff - 1))
    x = np.arange(pts) / pts
    xx, yy = np.meshgrid(x, x, indexing="ij")
    u = scale * np.cos(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
    w = -scale * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    v = VectorSpectralField((SpectralField.from_grid(u.astype(complex), cutoff),
                             SpectralField.from_grid(w.astype(complex), cutoff)))
    omega0 = 0.5 * (bounds.omega_min0 + bounds.omega_max0)
    omega = SpectralField.from_modes(2, cutoff, {(0, 0): omega0})
    b = SpectralField.from_modes(2, cutoff, {(0, 0): bounds.b_min0})
    return SimState(v, omega, b, t=0.0)


def initial_state(config: RunConfig) -> SimState:
    d, n = config["d"], config["n"]
    bounds = _bounds(config)
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
    if kind == "snapshot":
        state = load_snapshot(config["snapshot"], expect_dim=d)
        if state.cutoff != n:
            state = SimState(state.v.project(n), state.omega.project(n),
                             state.b.project(n), state.t)
        return state
    raise ValueError(f"unknown initial-data kind {kind!r}")


def _check_hypotheses(state: SimState, config: RunConfig) -> None:
    problems = hypothesis_violations(state, config["s"])
    if problems:
        raise ValueError("hypothesis violated: " + "; ".join(problems))


def _model(config: RunConfig) -> ModelParams:
    return ModelParams(alpha=config["alpha"], s=config["s"],
                       bounds=_bounds(config), oversample=config["oversample"])


def _diagnostics_rows(traj: Trajectory, config: RunConfig,
                      profile: CutoffProfile):
    """Per-sample CSV rows plus the first time (or None) at which the
    omega/b extrema left their envelopes."""
    s = config["s"]
    cm = ConstantModel(config["c_tilde"], config["gamma"])
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
    rows, first_violation = [], None
    for i, st in enumerate(states):
        mon = extrema_monitor(st, profile,
                              grid=fast_grid_size(4 * (2 * st.cutoff - 1)))
        if not mon.passed and first_violation is None:
            first_violation = st.t
        rows.append({
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
        })
    return rows, first_violation


def cmd_simulate(args) -> int:
    config = _load_run_config(args)
    state = initial_state(config)
    _check_hypotheses(state, config)
    profile = CutoffProfile(_bounds(config))
    out_dir = config["directory"]
    with OutputLock(out_dir):
        traj = integrate(state, _integrator_config(config), _model(config), profile)
        with open(os.path.join(out_dir, "config.txt"), "w") as fh:
            fh.write(print_config(config))
        for i, st in enumerate(traj.states):
            save_snapshot(st, os.path.join(out_dir, f"snapshot_{i:06d}.kolm"))
        rows, first_violation = _diagnostics_rows(traj, config, profile)
        write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), rows)
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write(f"status = {traj.status}\n")
            fh.write(f"steps = {traj.steps}\n")
            fh.write(f"samples = {len(traj.states)}\n")
            fh.write(f"final_t = {traj.final.t!r}\n")
            fh.write(f"final_triple_sq = {traj.final.triple_norm_sq(config['s'])!r}\n")
            if traj.message:
                fh.write(f"message = {traj.message}\n")

    if traj.status != "completed":
        print(f"monitor abort: {traj.status}: {traj.message}", file=sys.stderr)
        return MONITOR_ABORT
    if first_violation is not None:
        print(f"extrema monitor failed at t = {first_violation:.6g}",
              file=sys.stderr)
        return MONITOR_ABORT
    print(f"completed: {len(traj.states)} samples in {out_dir}")
    return 0


def cmd_existence_time(args) -> int:
    config = _load_run_config(args)
    state = initial_state(config)
    _check_hypotheses(state, config)
    s, d = config["s"], config["d"]
    x0 = state.triple_norm_sq(s)
    beta = args.beta if args.beta is not None else beta_exponent(s, d)
    cm = ConstantModel(config["c_tilde"], config["gamma"])
    t_exist = existence_time(x0, beta, cm)
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
        worst = 0.0
        for i in range(args.samples):
            rng = spec.rng(i)
            f = spec.draw(rng)
            g = spec.draw(rng)
            for s in (0.5, 1.5, 2.0):
                parts = commutator_decomposition(f, g, s)
                total = parts[0] + parts[1] + parts[2]
                ref = commutator(f, g, s)
                scale = max(float(np.max(np.abs(ref.coeffs))), 1e-300)
                worst = max(worst, float(np.max(np.abs(
                    total.coeffs - ref.coeffs))) / scale)
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
    state_lo = initial_state(config)
    hi_config = RunConfig(dict(config.values))
    hi_config["n"] = 2 * config["n"]
    state_hi = SimState(state_lo.v.project(2 * config["n"]),
                        state_lo.omega.project(2 * config["n"]),
                        state_lo.b.project(2 * config["n"]), state_lo.t)
    profile = CutoffProfile(_bounds(config))
    traj_lo = integrate(state_lo, _integrator_config(config), _model(config),
                        profile)
    traj_hi = integrate(state_hi, _integrator_config(hi_config),
                        _model(hi_config), profile)
    if traj_lo.status != "completed" or traj_hi.status != "completed":
        raise RuntimeError(f"refinement runs did not complete: "
                           f"{traj_lo.status}, {traj_hi.status}")
    lo, hi = traj_lo.final, traj_hi.final
    lo_up = SimState(lo.v.project(hi.cutoff), lo.omega.project(hi.cutoff),
                     lo.b.project(hi.cutoff), lo.t)
    diff_sq = sum((a - b).hs_norm_sq(s_prime)
                  for a, b in zip(lo_up.fields(), hi.fields()))
    return math.sqrt(diff_sq)


def cmd_convergence(args) -> int:
    config = _load_run_config(args)
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
