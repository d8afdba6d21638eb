"""End-to-end command-line behavior, driven in process through main()."""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from kolmosim import cli, integrators
from kolmosim.cli import main
from kolmosim.cutoffs import InitialBounds
from kolmosim.diagnostics import nu_bar_aliasing
from kolmosim.estimates import RandomFieldSpec, admissible_state
from kolmosim.spectral import SpectralField, VectorSpectralField
from kolmosim.storage import (load_snapshot, parse_config, print_config,
                              read_diagnostics_csv, save_snapshot)
from kolmosim.system import SimState
from datums import LOW_NU, low_viscosity_datum


def run(*argv):
    return main(list(argv))


def sim_args(directory, **overrides):
    base = {"kind": "preset", "preset": "constant", "n": 4, "method": "rk4",
            "dt": 0.001, "t_end": 0.05, "monitor_every": 10,
            "directory": directory}
    base.update(overrides)
    argv = ["simulate"]
    for key, value in base.items():
        argv += ["--set", f"{key}={value}"]
    return argv


# -- simulate -----------------------------------------------------------------------


def test_simulate_constant_preset_artifacts(tmp_path):
    out = str(tmp_path / "run")
    assert run(*sim_args(out)) == 0
    names = sorted(os.listdir(out))
    assert "config.txt" in names and "diagnostics.csv" in names
    assert "summary.txt" in names
    snaps = [n for n in names if n.endswith(".kolm")]
    assert len(snaps) == 6  # 50 steps sampled every 10, plus t = 0
    # config.txt is in canonical form
    text = open(os.path.join(out, "config.txt")).read()
    assert print_config(parse_config(text)) == text
    assert "status = completed" in open(os.path.join(out, "summary.txt")).read()


def test_simulate_reads_a_config_file_and_set_overrides_it(tmp_path):
    out = str(tmp_path / "run")
    path = tmp_path / "run.cfg"
    path.write_text("[model]\nn = 4\n[initial]\nkind = preset\npreset = constant\n"
                    "[integrator]\nmethod = rk4\ndt = 0.001\nt_end = 0.05\nmonitor_every = 10\n")
    assert run("simulate", "--config", str(path), "--set", f"directory={out}",
               "--set", "t_end=0.02") == 0
    written = parse_config(open(os.path.join(out, "config.txt")).read())
    assert (written["method"], written["dt"], written["monitor_every"]) == ("rk4", 0.001, 10)
    assert (written["kind"], written["preset"], written["n"]) == ("preset", "constant", 4)
    assert written["t_end"] == 0.02
    assert len([n for n in os.listdir(out) if n.endswith(".kolm")]) == 3


def test_simulate_constant_matches_closed_form(tmp_path):
    out = str(tmp_path / "run")
    assert run(*sim_args(out)) == 0
    rows = read_diagnostics_csv(os.path.join(out, "diagnostics.csv"))
    w0, b0, alpha = 1.25, 0.5, 1.0  # band midpoint and floor of the defaults
    for row in rows:
        t = row["t"]
        w_exact = w0 / (1 + alpha * w0 * t)
        b_exact = b0 * (1 + alpha * w0 * t) ** (-1 / alpha)
        assert abs(row["min_omega"] - w_exact) < 1e-8
        assert abs(row["max_omega"] - w_exact) < 1e-8
        assert abs(row["min_b"] - b_exact) < 1e-8
        assert row["hs_v"] == 0.0
        assert row["div_residual"] <= 1e-12
        assert row["realness_residual"] <= 1e-12


def test_simulate_snapshots_reload(tmp_path):
    out = str(tmp_path / "run")
    assert run(*sim_args(out)) == 0
    state = load_snapshot(os.path.join(out, "snapshot_000005.kolm"))
    assert state.t == pytest.approx(0.05, abs=1e-15)
    rows = read_diagnostics_csv(os.path.join(out, "diagnostics.csv"))
    assert state.triple_norm_sq(2.0) == pytest.approx(rows[-1]["triple_sq"],
                                                      rel=1e-12)


def test_simulate_subcritical_regularity_rejected(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(*sim_args(out, s=1.0)) == 1
    err = capsys.readouterr().err
    assert "hypothesis violated" in err and "s > d/2" in err
    assert not os.path.exists(out)  # refused before any artifact was written


@pytest.mark.parametrize("key, value", [("dt", -1), ("method", "rk3"),
                                        ("oversample", 1), ("monitor_every", 0),
                                        ("blowup_factor", -1), ("n", 2.5), ("seed", "x"),
                                        ("dt", "fast")])
def test_simulate_bad_setting_refused_before_output(tmp_path, capsys, key, value):
    # each of these is checked by the object that uses it (IntegratorConfig,
    # ModelParams), which the configuration builds before the output lock,
    # or does not parse as its key's type; either way the error names the key
    out = str(tmp_path / "run")
    assert run(*sim_args(out, **{key: value})) == 1
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not os.path.exists(out)


def test_simulate_negative_omega_snapshot_rejected(tmp_path, capsys):
    # An initial datum violating omega_0 > 0 arrives via a snapshot file and
    # must be named in the rejection.
    n = 4
    v = VectorSpectralField.zeros(2, n)
    omega = SpectralField.from_modes(2, n, {(0, 0): -0.5})
    b = SpectralField.from_modes(2, n, {(0, 0): 1.0})
    bad = str(tmp_path / "bad.kolm")
    save_snapshot(SimState(v, omega, b, 0.0), bad)
    out = str(tmp_path / "run")
    rc = run(*sim_args(out, kind="snapshot", snapshot=bad))
    assert rc == 1
    assert "min omega_0" in capsys.readouterr().err


def nan_snapshot(tmp_path):
    """An admissible state with one NaN coefficient in omega."""
    spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=0)
    bounds = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)
    state = admissible_state(spec, bounds)
    state.omega.coeffs[3, 4] = np.nan
    path = str(tmp_path / "nan.kolm")
    save_snapshot(state, path)
    return path


def test_simulate_non_finite_snapshot_refused_before_output(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(*sim_args(out, kind="snapshot", snapshot=nan_snapshot(tmp_path))) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def past_snapshot(tmp_path):
    """An admissible state at t = -1, before the profiles' start."""
    spec = RandomFieldSpec(dim=2, cutoff=4, rho=2.0, seed=0)
    bounds = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)
    state = admissible_state(spec, bounds)
    path = str(tmp_path / "past.kolm")
    save_snapshot(SimState(state.v, state.omega, state.b, -1.0), path)
    return path


def test_simulate_negative_time_snapshot_refused_before_output(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(*sim_args(out, kind="snapshot", snapshot=past_snapshot(tmp_path))) == 1
    assert "negative time t = -1.0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_simulate_snapshot_initial_data_roundtrip(tmp_path):
    out1 = str(tmp_path / "a")
    assert run(*sim_args(out1, t_end=0.02)) == 0
    final = os.path.join(out1, "snapshot_000002.kolm")
    out2 = str(tmp_path / "b")
    rc = run(*sim_args(out2, kind="snapshot", snapshot=final, t_end=0.04))
    assert rc == 0
    rows = read_diagnostics_csv(os.path.join(out2, "diagnostics.csv"))
    assert rows[0]["t"] == pytest.approx(0.02, abs=1e-14)
    # restart continues the same decay law from the stored time
    w0, t = 1.25, rows[-1]["t"]
    assert rows[-1]["min_omega"] == pytest.approx(w0 / (1 + w0 * t), abs=1e-7)


def test_simulate_blowup_guard_exits_2(tmp_path, capsys):
    # A ceiling far below X0 must trip on the first monitor check.
    out = str(tmp_path / "run")
    rc = run(*sim_args(out, kind="random", n=4, blowup_factor=1e-6,
                       method="rk45", v_scale=0.2))
    assert rc == 2
    assert "guard" in capsys.readouterr().err
    assert "aborted-blowup" in open(os.path.join(out, "summary.txt")).read()


def test_simulate_locked_directory_refused(tmp_path, capsys):
    out = str(tmp_path / "run")
    os.makedirs(out)
    open(os.path.join(out, ".kolmosim-lock"), "w").write("123")
    assert run(*sim_args(out)) == 1
    assert "owned by another" in capsys.readouterr().err


def test_simulate_lock_taken_before_integrating(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("integrated into a locked directory")

    monkeypatch.setattr(cli, "integrate", must_not_run)
    out = str(tmp_path / "run")
    os.makedirs(out)
    open(os.path.join(out, ".kolmosim-lock"), "w").write("123")
    assert run(*sim_args(out)) == 1
    assert "owned by another" in capsys.readouterr().err


def test_simulate_writes_the_datum_before_the_first_step(tmp_path, monkeypatch):
    # the first artifact is on disk before the run's first kernel call
    seen = []
    kernel = integrators.rhs
    out = str(tmp_path / "run")

    def recording_rhs(*args, **kwargs):
        if not seen:
            seen.append(sorted(os.listdir(out)))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(integrators, "rhs", recording_rhs)
    assert run(*sim_args(out)) == 0
    assert seen == [[".kolmosim-lock", "config.txt", "snapshot_000000.kolm"]]


def test_simulate_failed_write_keeps_the_samples_so_far(tmp_path, monkeypatch, capsys):
    calls = []
    save = cli.save_snapshot

    def failing_third_save(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 3:
            raise OSError("no space left on device")
        save(*args, **kwargs)

    monkeypatch.setattr(cli, "save_snapshot", failing_third_save)
    out = str(tmp_path / "run")
    assert run(*sim_args(out)) == 1
    assert "no space left" in capsys.readouterr().err
    assert sorted(n for n in os.listdir(out) if n.endswith(".kolm")) == \
        ["snapshot_000000.kolm", "snapshot_000001.kolm"]
    for i, t in enumerate((0.0, 0.01)):
        state = load_snapshot(os.path.join(out, f"snapshot_{i:06d}.kolm"))
        assert state.t == pytest.approx(t, abs=1e-15)
    assert not os.path.exists(os.path.join(out, ".kolmosim-lock"))


def test_simulate_killed_run_keeps_loadable_snapshots(tmp_path, capsys):
    # a SIGKILL mid-run: every snapshot on disk loads, the stale lock refuses
    # the directory until it is deleted by hand, and then a run retakes it
    out = str(tmp_path / "run")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = sim_args(out, kind="random", n=8, dt=1e-4, t_end=1.0, monitor_every=1)
    proc = subprocess.Popen([sys.executable, "-m", "kolmosim.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 2.5
        while not os.path.exists(os.path.join(out, "snapshot_000001.kolm")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.wait()
    snaps = sorted(n for n in os.listdir(out) if n.endswith(".kolm"))
    assert snaps[:2] == ["snapshot_000000.kolm", "snapshot_000001.kolm"]
    for name in snaps:
        load_snapshot(os.path.join(out, name))
    assert run(*sim_args(out)) == 1
    err = capsys.readouterr().err
    assert "owned by another" in err and "by hand" in err
    os.remove(os.path.join(out, ".kolmosim-lock"))
    assert run(*sim_args(out, t_end=0.01)) == 0


def test_simulate_stops_at_the_first_extrema_violation(tmp_path, monkeypatch, capsys):
    # from its third sample on, every sample fails the envelope check: the
    # run ends there, with 3 snapshots and fewer kernel calls than in full
    def summary(out):
        with open(os.path.join(out, "summary.txt")) as fh:
            return dict(line.split(" = ", 1) for line in fh.read().splitlines())

    full = str(tmp_path / "full")
    assert run(*sim_args(full)) == 0
    calls = []
    monitor = cli.extrema_monitor

    def failing_from_the_third(*args, **kwargs):
        calls.append(1)
        report = monitor(*args, **kwargs)
        return report if len(calls) < 3 else replace(report, passed=False)

    monkeypatch.setattr(cli, "extrema_monitor", failing_from_the_third)
    out = str(tmp_path / "run")
    capsys.readouterr()
    assert run(*sim_args(out)) == 2
    assert "extrema monitor failed at t = 0.02" in capsys.readouterr().err.splitlines()
    assert sorted(n for n in os.listdir(out) if n.endswith(".kolm")) == \
        [f"snapshot_{i:06d}.kolm" for i in range(3)]
    got = summary(out)
    assert got["status"] == "aborted-monitor" and got["samples"] == "3"
    assert int(got["rhs_evaluations"]) < int(summary(full)["rhs_evaluations"])
    assert len(read_diagnostics_csv(os.path.join(out, "diagnostics.csv"))) == 3


def test_simulate_taylor_green_divergence_free(tmp_path):
    out = str(tmp_path / "run")
    rc = run(*sim_args(out, preset="taylor-green", v_scale=0.1, t_end=0.01,
                       method="rk45"))
    assert rc == 0
    rows = read_diagnostics_csv(os.path.join(out, "diagnostics.csv"))
    assert rows[0]["hs_v"] > 0.0
    assert all(row["div_residual"] <= 1e-9 for row in rows)


def test_simulate_summary_reports_rejected_steps(tmp_path, monkeypatch):
    # a first step of 0.05 is too long for the tolerance, so the run
    # rejects steps, and the summary says how many next to the accepted ones,
    # then how many kernel calls the run made
    runs = []
    integrate = cli.integrate

    def recording_integrate(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "integrate", recording_integrate)
    out = str(tmp_path / "run")
    assert run(*sim_args(out, kind="random", n=4, seed=9, method="rk45", dt=0.05,
                         t_end=0.01)) == 0
    with open(os.path.join(out, "summary.txt")) as fh:
        summary = dict(line.split(" = ", 1) for line in fh.read().splitlines())
    traj, = runs
    assert traj.rejected >= 1
    assert (int(summary["steps"]), int(summary["rejected"])) == (traj.steps, traj.rejected)
    assert int(summary["rhs_evaluations"]) == traj.evaluations > 6 * traj.steps


def test_simulate_summary_reports_grid_and_aliasing(tmp_path, monkeypatch, capsys):
    # the summary names the quadrature grid and the final sample's nubar
    # aliasing, whose kernel call is not one of the run's evaluations.  The
    # refinement trio's datum at n = 8 still aliases 2.7e-8 at t = 0.05 on
    # 30^2, above rel_tol (the default 1e-8): the run warns once and still
    # exits 0.  On 45^2 it aliases 1.5e-12 and does not warn
    runs = []
    integrate = cli.integrate

    def recording_integrate(*args, **kwargs):
        runs.append((args, integrate(*args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(cli, "integrate", recording_integrate)
    datum = str(tmp_path / "low_nu.kolm")
    save_snapshot(low_viscosity_datum(5), datum)
    for oversample, points, warned in ((2, 30, 1), (3, 45, 0)):
        out = str(tmp_path / f"run{oversample}")
        assert run(*sim_args(out, kind="snapshot", snapshot=datum, n=8, method="rk45",
                             t_end=0.05, omega_min0=LOW_NU.omega_min0,
                             omega_max0=LOW_NU.omega_max0, b_min0=LOW_NU.b_min0,
                             oversample=oversample)) == 0
        with open(os.path.join(out, "summary.txt")) as fh:
            summary = dict(line.split(" = ", 1) for line in fh.read().splitlines())
        args, traj = runs.pop()
        _, _, params, profile = args
        assert int(summary["grid_points"]) == params.grid_points(8) == points
        assert int(summary["rhs_evaluations"]) == traj.evaluations
        assert "grid_schedule" not in summary and "grid_checks" not in summary
        aliasing = float(summary["nu_bar_aliasing"])
        assert aliasing == nu_bar_aliasing([traj.final], params, profile)[0]
        assert (aliasing > 1e-8) == (oversample == 2)
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == warned


def test_default_simulate_steps_on_one_grid(tmp_path, monkeypatch, capsys):
    # the default datum (n = 16, oversample 2) steps on 64^2 from the datum
    # to t_end; its final sample aliases far below rel_tol, so the run does
    # not warn, and the summary names no grid schedule
    calls = []
    kernel = integrators.rhs

    def recording_rhs(ys, cutoff, t, params, *args):
        calls.append(params.oversample)
        return kernel(ys, cutoff, t, params, *args)

    monkeypatch.setattr(integrators, "rhs", recording_rhs)
    out = str(tmp_path / "run")
    assert run("simulate", "--set", "t_end=0.001", "--set", f"directory={out}") == 0
    with open(os.path.join(out, "summary.txt")) as fh:
        summary = dict(line.split(" = ", 1) for line in fh.read().splitlines())
    assert int(summary["grid_points"]) == 64
    assert set(calls) == {2} and len(calls) == int(summary["rhs_evaluations"])
    assert "grid_schedule" not in summary and "grid_checks" not in summary
    assert float(summary["nu_bar_aliasing"]) <= 1e-8 / 10
    assert "warning:" not in capsys.readouterr().err


def test_simulate_nonfinite_abort_writes_the_last_finite_state(tmp_path, capsys):
    # rk4 at dt = 0.5 diverges in its second step: the first step's state
    # is the last snapshot, and the summary's final sample
    out = str(tmp_path / "run")
    assert run(*sim_args(out, kind="random", n=4, seed=9, dt=0.5, t_end=50.0,
                         monitor_every=1_000_000)) == 2
    assert "failed-nonfinite" in capsys.readouterr().err
    with open(os.path.join(out, "summary.txt")) as fh:
        summary = dict(line.split(" = ", 1) for line in fh.read().splitlines())
    assert (summary["status"], summary["samples"], summary["final_t"]) == \
        ("failed-nonfinite", "2", "0.5")
    last = load_snapshot(os.path.join(out, "snapshot_000001.kolm"))
    assert last.t == 0.5 and np.all(np.isfinite(last.omega.coeffs))
    assert float(summary["final_triple_sq"]) == last.triple_norm_sq(2.0)


def test_simulate_without_aliasing_does_not_warn(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(*sim_args(out)) == 0
    with open(os.path.join(out, "summary.txt")) as fh:
        summary = dict(line.split(" = ", 1) for line in fh.read().splitlines())
    assert float(summary["nu_bar_aliasing"]) <= 1e-15     # constant nubar: roundoff
    assert "warning:" not in capsys.readouterr().err


def test_run_stopped_at_its_datum_does_not_warn(tmp_path, capsys):
    # tolerances no step can meet end the default run at t = 0; its final
    # sample is the datum, whose aliasing (1.6e-5 on 64^2) is a transient
    # the grid did not fail on
    out = str(tmp_path / "run")
    assert run("simulate", "--set", "abs_tol=1e-300", "--set", "rel_tol=1e-300",
               "--set", f"directory={out}") == 2
    with open(os.path.join(out, "summary.txt")) as fh:
        summary = dict(line.split(" = ", 1) for line in fh.read().splitlines())
    assert (summary["status"], summary["final_t"]) == ("failed-stepsize", "0.0")
    assert float(summary["nu_bar_aliasing"]) > 1e-6
    assert "raise oversample" not in capsys.readouterr().err


def test_simulate_random_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert run(*sim_args(out, kind="random", n=4, seed=9, t_end=0.01)) == 0
        outs.append(read_diagnostics_csv(os.path.join(out, "diagnostics.csv")))
    assert len(outs[0]) == len(outs[1])
    for ra, rb in zip(outs[0], outs[1]):
        for key in ra:  # bitwise equal, nan-aware (short runs skip energy)
            assert np.array_equal(ra[key], rb[key], equal_nan=True)


# -- existence-time -----------------------------------------------------------------


def test_existence_time_certificate(tmp_path, capsys):
    cert = str(tmp_path / "cert.csv")
    rc = run("existence-time", "--set", "kind=preset", "--set",
             "preset=constant", "--set", "n=4", "--out", cert)
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    got = dict(line.split(" = ") for line in lines)
    assert float(got["X0"]) == pytest.approx(1.8125, abs=1e-12)
    assert float(got["beta"]) == 15.0
    assert float(got["T"]) > 0.0
    assert float(got["uniform_bound"]) == pytest.approx(4.625, abs=1e-12)
    header, values = [line.split(",") for line in open(cert).read().splitlines()]
    record = dict(zip(header, values))
    assert float(record["T"]) == float(got["T"])
    assert float(record["beta"]) == 15.0


def test_existence_time_beta_override_and_inf(tmp_path, capsys):
    cert = str(tmp_path / "cert.csv")
    rc = run("existence-time", "--set", "kind=preset", "--set",
             "preset=constant", "--set", "n=4", "--set", "gamma=-2",
             "--set", "c_tilde=0.0001", "--beta", "2.0", "--out", cert)
    assert rc == 0
    out = capsys.readouterr().out
    assert "T = inf" in out
    header, values = [line.split(",") for line in open(cert).read().splitlines()]
    record = dict(zip(header, values))
    assert math.isinf(float(record["T"]))


def test_existence_time_non_finite_snapshot_refused(tmp_path, capsys):
    rc = run("existence-time", "--set", "kind=snapshot",
             "--set", f"snapshot={nan_snapshot(tmp_path)}", "--set", "n=4")
    assert rc == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "non-finite" in captured.err
    assert "X0" not in captured.out and "T =" not in captured.out


def test_existence_time_negative_time_snapshot_refused(tmp_path, capsys):
    cert = str(tmp_path / "cert.csv")
    rc = run("existence-time", "--set", "kind=snapshot",
             "--set", f"snapshot={past_snapshot(tmp_path)}", "--set", "n=4",
             "--out", cert)
    assert rc == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "negative time" in captured.err
    assert "X0" not in captured.out and "T =" not in captured.out
    assert not os.path.exists(cert)


# -- verify -------------------------------------------------------------------------


def test_verify_unknown_inequality(capsys):
    assert run("verify", "no-such-thing") == 1
    assert "unknown inequality" in capsys.readouterr().err


def test_verify_interpolation_deterministic(tmp_path, capsys):
    texts = []
    for name in ("r1.txt", "r2.txt"):
        out = str(tmp_path / name)
        rc = run("verify", "interpolation", "--samples", "5", "--cutoff", "4",
                 "--out", out)
        assert rc == 0
        texts.append(open(out).read())
    capsys.readouterr()
    assert texts[0] == texts[1]
    assert "inequality = interpolation" in texts[0]
    assert "stability_factor" in texts[0]


def test_verify_decomposition_passes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run("verify", "decomposition", "--samples", "2", "--cutoff", "4")
    assert rc == 0
    assert "pass" in capsys.readouterr().out


def test_verify_decomposition_pairs_are_the_drawn_pairs(tmp_path, capsys, monkeypatch):
    """The pairs `verify decomposition` takes from draws are, bit for bit,
    each sample's two fields from a fresh rng(i) and draw."""
    monkeypatch.chdir(tmp_path)
    seen = []

    def residual(f, g, s):
        seen.append((f.coeffs, g.coeffs))
        return 0.0

    monkeypatch.setattr(cli, "decomposition_residual", residual)
    assert run("verify", "decomposition", "--samples", "3", "--cutoff", "4",
               "--rho", "1.5", "--seed", "4") == 0
    spec = RandomFieldSpec(dim=2, cutoff=4, rho=1.5, seed=4)
    assert len(seen) == 3 * 3
    for i in range(3):
        rng = spec.rng(i)
        f, g = spec.draw(rng), spec.draw(rng)
        for got_f, got_g in seen[3 * i:3 * i + 3]:
            assert np.array_equal(got_f, f.coeffs) and np.array_equal(got_g, g.coeffs)
    capsys.readouterr()


@pytest.mark.parametrize("name", ["decomposition", "commutator"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_refuses_empty_campaign(tmp_path, capsys, monkeypatch, name, samples):
    monkeypatch.chdir(tmp_path)
    assert run("verify", name, "--samples", samples, "--cutoff", "4") == 1
    captured = capsys.readouterr()
    assert "at least 1 sample" in captured.err
    assert "pass" not in captured.out
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, named", [
    (["verify", "interpolation", "--s", "nan"], "s must be finite"),
    (["verify", "product", "--s", "inf"], "s must be finite"),
    (["verify", "commutator", "--s", "nan"], "s must be finite"),
    (["verify", "composition", "--s=-inf"], "s must be finite"),
    (["verify", "product", "--rho", "nan"], "rho must be finite"),
    (["verify", "decomposition", "--rho", "inf"], "rho must be finite"),
    (["verify", "product", "--s", "400"], "product: sample 0 has lhs inf"),    # J^s overflows
    (sim_args("run", kind="random", rho="nan"), "rho must be finite"),
    (sim_args("run", dt="inf"), "dt must be finite"),
    (sim_args("run", t_end="nan"), "t_end must be finite"),
    (sim_args("run", t_end="inf"), "t_end must be finite"),
    (sim_args("run", abs_tol="nan"), "abs_tol must be finite"),
    (sim_args("run", rel_tol="inf"), "rel_tol must be finite"),
    (sim_args("run", blowup_factor="nan"), "blowup_factor must be finite"),
    (sim_args("run", c_tilde="nan"), "c_tilde must be finite"),
    (sim_args("run", gamma="nan"), "gamma must be finite"),
    (sim_args("run", alpha="nan"), "alpha must be finite"),
    (sim_args("run", s="nan"), "finite s > d/2"),
    (sim_args("run", s="inf"), "finite s > d/2"),
    (sim_args("run", kind="random", v_scale="inf"), "v_scale must be finite"),
    (["existence-time", "--beta", "nan"], "--beta must be finite"),
    (["existence-time", "--beta", "inf"], "--beta must be finite"),
    (["norms", "snapshot.kolm", "--s", "nan"], "--s must be finite"),
    (["convergence", "--s-prime", "nan"], "--s-prime must be finite"),
], ids=["interpolation-s-nan", "product-s-inf", "commutator-s-nan", "composition-s-minus-inf",
        "product-rho-nan", "decomposition-rho-inf", "product-overflow", "simulate-rho-nan",
        "simulate-dt-inf", "simulate-t_end-nan", "simulate-t_end-inf", "simulate-abs_tol-nan",
        "simulate-rel_tol-inf", "simulate-blowup_factor-nan", "simulate-c_tilde-nan",
        "simulate-gamma-nan", "simulate-alpha-nan", "simulate-s-nan", "simulate-s-inf",
        "simulate-v_scale-inf", "existence-time-beta-nan", "existence-time-beta-inf",
        "norms-s-nan", "convergence-s-prime-nan"])
def test_refuses_non_finite_input(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "verify":
        argv = argv + ["--samples", "3", "--cutoff", "4"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(argv) == cli.USAGE_ERROR
    assert named in capsys.readouterr().err
    assert os.listdir(tmp_path) == []              # no report, no run directory


@pytest.mark.parametrize("argv", [
    ["verify", "commutator", "--seed", "-1", "--samples", "3", "--cutoff", "4"],
    sim_args("run", kind="random", seed="-1"),
], ids=["verify", "simulate"])
def test_refuses_negative_seed(tmp_path, capsys, monkeypatch, argv):
    """A negative seed is refused when the spec is built, before any draw or output."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.USAGE_ERROR
    assert "error: seed must be an int >= 0, got -1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_refuses_nan_step_promptly(tmp_path):
    # rk45 with dt = nan retried its rejected step forever: in a process of
    # its own, so that a hang fails the test instead of stalling the suite
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = sim_args("run", method="rk45", dt="nan", t_end=0.01)
    proc = subprocess.run([sys.executable, "-m", "kolmosim.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.USAGE_ERROR
    assert "dt must be finite" in proc.stderr
    assert os.listdir(tmp_path) == []


def test_verify_report_file_written(tmp_path):
    out = str(tmp_path / "report.txt")
    rc = run("verify", "product", "--samples", "4", "--cutoff", "4",
             "--out", out)
    assert rc == 0
    text = open(out).read()
    assert "max_ratio" in text and text.count("\n") > 8


# -- norms and convergence ----------------------------------------------------------


def test_norms_matches_library(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(*sim_args(out, t_end=0.01)) == 0
    snap = os.path.join(out, "snapshot_000001.kolm")
    assert run("norms", snap, "--s", "2.0") == 0
    got = dict(line.split(" = ", 1) for line in
               capsys.readouterr().out.splitlines() if " = " in line)
    state = load_snapshot(snap)
    assert float(got["hs_omega"]) == state.omega.hs_norm(2.0)
    assert float(got["triple_sq"]) == state.triple_norm_sq(2.0)


def test_norms_missing_file(capsys):
    assert run("norms", "/nonexistent/path.kolm") == 1
    assert "error" in capsys.readouterr().err


def test_convergence_reports_gap(capsys):
    rc = run("convergence", "--set", "kind=random", "--set", "n=4",
             "--set", "t_end=0.02", "--set", "v_scale=0.1",
             "--s-prime", "1.0")
    assert rc == 0
    out = capsys.readouterr().out
    got = dict(line.split(" = ", 1) for line in out.splitlines()
               if " = " in line)
    gap = float(got["hs_prime_gap"])
    assert 0.0 < gap < 0.1


def test_convergence_refuses_negative_omega_snapshot(tmp_path, capsys, monkeypatch):
    omega = SpectralField.from_modes(2, 4, {(0, 0): -0.5})
    b = SpectralField.from_modes(2, 4, {(0, 0): 1.0})
    bad = str(tmp_path / "bad.kolm")
    save_snapshot(SimState(VectorSpectralField.zeros(2, 4), omega, b, 0.0), bad)
    monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("integrated"))
    rc = run("convergence", "--set", "kind=snapshot", "--set", f"snapshot={bad}",
             "--set", "n=4", "--set", "t_end=0.02")
    assert rc == 1
    captured = capsys.readouterr()
    assert "min omega_0" in captured.err and "hs_prime_gap" not in captured.out


def test_convergence_requires_lower_s_prime(capsys):
    rc = run("convergence", "--set", "n=4", "--s-prime", "2.0")
    assert rc == 1
    assert "below s" in capsys.readouterr().err


# -- argument handling --------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert run() == 1
    assert run("simulate", "--set", "malformed") == 1
    assert "KEY=VALUE" in capsys.readouterr().err
    assert run("simulate", "--set", "bogus_key=1") == 1


def test_help_exits_0(capsys):
    assert run("--help") == 0
    assert "simulate" in capsys.readouterr().out
