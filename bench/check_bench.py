"""Tests of the benchmark itself (not collected by the package's test run):

    PYTHONPATH=src python3 -m pytest -q bench/check_bench.py
"""

import json
import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins threads, puts src/ on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from kolmosim import cli, cutoffs, estimates, integrators, spectral, system  # noqa: E402
from kolmosim.cutoffs import CutoffProfile  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

REPEATED_COUNTS = ("system.rhs_calls", "integrators.steps", "integrators.rejected",
                   "spectral.inv_grids", "spectral.fwd_grids",
                   "estimates.probe_integrations")


def test_self_time_is_span_minus_direct_children():
    spans = [("root", 0.0, 10.0, -1, 1),
             ("child", 1.0, 4.0, 0, 1),
             ("grandchild", 2.0, 3.5, 1, 1),
             ("child", 5.0, 6.0, 0, 1),
             ("other_thread", 0.0, 2.0, -1, 2)]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0, 2.0])


def test_tracer_nests_spans_and_restores_bindings():
    toy = types.ModuleType("toy")
    toy.inner = lambda x: x + 1
    toy.outer = lambda x: toy.inner(x) * 2
    originals = (toy.inner, toy.outer)
    tracer = tracing.Tracer()
    tracer.wrap(toy, "inner", "inner")
    tracer.wrap(toy, "outer", "outer")
    tracer.wrap(toy, "absent", "absent")
    assert toy.outer(1) == 4
    tracer.remove()
    assert (toy.inner, toy.outer) == originals
    assert tracer.missing == ["toy.absent"]
    assert [(name, parent) for name, _, _, parent, _ in tracer.spans] == [
        ("outer", -1), ("inner", 0)]
    summary = tracing.SpanSummary(tracer)
    assert summary.calls == {"outer": 1, "inner": 1}
    assert summary.own["outer"] == pytest.approx(
        summary.total["outer"] - summary.total["inner"])


def test_metric_of_uncalled_entry_point_is_missing_not_zero():
    tracer = tracing.Tracer()
    tracer.spans.append(("system.rhs", 0.0, 1.0, -1, 1))
    metrics = tracing.span_metrics(tracer)
    assert metrics["system.rhs_calls"] == (1.0, "count")
    assert metrics["cutoffs.nu_bar_calls"][0] == tracing.MISSING
    assert metrics["storage.snapshot_writes"][0] == tracing.MISSING


def _bindings():
    """Every module-level name of the package, and SpectralField's methods."""
    out = {(module.__name__, name): value
           for module in (cli, cutoffs, estimates, integrators, spectral, system)
           for name, value in vars(module).items()}
    out.update({("SpectralField", name): value
                for name, value in vars(spectral.SpectralField).items()})
    return out


class SmallEnvelope(workloads.Envelope):
    horizon = 0.002


class SmallProbe(workloads.Probe):
    def setup(self):
        super().setup()
        self.config.t_end = 0.0025


@pytest.fixture
def small_sweep(monkeypatch):
    monkeypatch.setattr(run, "SWEEP", ((2, 4),))


@pytest.mark.parametrize("kind", [SmallEnvelope, SmallProbe])
def test_traced_runs_repeat_counts_and_remove_wrappers(kind, small_sweep, tmp_path):
    before = _bindings()
    results = []
    for _ in range(2):
        tally = run.Tally()
        metrics = run.traced(kind(3, str(tmp_path)), tally, seed=3)
        assert tally.failed == 0 and tally.attempted > 0
        assert _bindings() == before
        results.append(metrics)
    for name in REPEATED_COUNTS:
        assert results[0][name] == results[1][name], name
    assert results[0]["system.rhs_calls"][0] > 0
    if kind is SmallProbe:
        assert results[0]["estimates.probe_integrations"][0] == 6


def test_symmetric_image_does_the_same_work():
    spec = estimates.RandomFieldSpec(dim=2, cutoff=6, rho=2.5, seed=4)
    state = estimates.admissible_state(spec, workloads.WIDE, index=0, v_scale=0.25)
    params = system.ModelParams(alpha=1.0, s=2.0, bounds=workloads.WIDE, oversample=2)
    profile = CutoffProfile(workloads.WIDE)
    period = spectral.fast_grid_size(2 * 11)
    rng = np.random.default_rng(7)
    image = workloads.symmetric_image(state, rng, period)
    image.validate()
    assert image.triple_norm_sq(2.0) == pytest.approx(state.triple_norm_sq(2.0), rel=1e-13)
    assert not np.allclose(image.omega.coeffs, state.omega.coeffs)
    # the right-hand side commutes with the symmetry
    dv, dw, db = system.rhs(state, params, profile)
    moved = workloads.symmetric_image(
        system.SimState(dv, dw, db, 0.0), np.random.default_rng(7), period)
    idv, idw, idb = system.rhs(image, params, profile)
    scale = np.max(np.abs(dw.coeffs))
    assert np.max(np.abs(idw.coeffs - moved.omega.coeffs)) <= 1e-12 * scale
    for a, b in zip(idv.components, moved.v.components):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * scale


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    produced = {name: unit for name, (unit, _) in tracing.SPAN_METRICS.items()}
    produced.update({f"system.rhs_ms.d{d}n{n}": "ms" for d, n in run.SWEEP})
    produced.update(run.PROCESS_METRICS)
    assert listed == produced
