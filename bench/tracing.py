"""Span tracing of kolmosim's layers from outside the package.

The tracer replaces a function where the *calling* module binds it (for
example ``system.coefficients_to_real_grid``, which ``system._assemble`` looks
up in its own module globals), records one span per call and restores the
original binding on ``remove()``.  No source file of the package changes.

A span is ``(name, start, end, parent, thread)``; ``parent`` is the index of
the span that was open on the same thread when the call began, or -1.  Spans
are kept in memory and written out by the caller at the end of a run.  A
layer's self time is its span's duration minus the durations of its direct
children (children nest inside their parent on one thread, so the sum of
child durations is exactly the part of the interval they cover).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Span = Tuple[str, float, float, int, int]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def grid_count(arr: np.ndarray, dim: int) -> int:
    """Batch depth of a stack of d-dimensional arrays (1 for a single one)."""
    return int(np.prod(arr.shape[:-dim], dtype=np.int64))


class Tracer:
    """Records spans and counters at wrapped layer boundaries."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []       # bindings that could not be wrapped
        self._installed: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def call(self, name: str, fn: Callable, args, kwargs,
             after: Optional[Callable] = None):
        """Run fn inside a span; ``after(tracer, args, kwargs, result)`` records
        counters derived from the call."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1,
                               threading.get_ident()))
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            _, _, _, parent, thread = self.spans[index]
            self.spans[index] = (name, start, end, parent, thread)
        if after is not None:
            after(self, args, kwargs, result)
        return result

    # -- installing --------------------------------------------------------------

    def _replace(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._installed.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Replace owner.attr by a spanning wrapper named `name`."""
        def make(original):
            def wrapper(*args, **kwargs):
                return self.call(name, original, args, kwargs, after)
            return wrapper
        self._replace(owner, attr, make)

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Replace owner.attr by a wrapper that only counts calls."""
        def make(original):
            def wrapper(*args, **kwargs):
                self.add(key)
                return original(*args, **kwargs)
            return wrapper
        self._replace(owner, attr, make)

    def remove(self) -> None:
        """Restore every wrapped binding, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans, one JSON list per line, then the counters."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "missing": self.missing}) + "\n")


# -- the package's layer boundaries ------------------------------------------------


def _inverse_done(tracer, args, kwargs, result):
    dim = args[2] if len(args) > 2 else kwargs["dim"]
    tracer.add("spectral.inv_grids", grid_count(result, dim))
    tracer.add("spectral.fft_bytes", result.nbytes)


def _forward_done(tracer, args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    dim = args[2] if len(args) > 2 else kwargs["dim"]
    tracer.add("spectral.fwd_grids", grid_count(grid, dim))
    tracer.add("spectral.fft_bytes", grid.nbytes)


def _integrate_done(tracer, args, kwargs, traj):
    tracer.add("integrators.steps", traj.steps)
    tracer.add("integrators.rejected", traj.rejected)


def _snapshot_done(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("storage.snapshot_bytes", os.path.getsize(path))


CAMPAIGN_FUNCTIONS = {
    "commutator": "verify_commutator_estimate",
    "product": "verify_product_estimate",
    "composition": "verify_composition_estimate",
    "interpolation": "verify_interpolation_inequality",
}


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from kolmosim import cli, cutoffs, estimates, integrators, spectral, system

    for owner, attr in ((system, "coefficients_to_real_grid"),
                        (spectral, "coefficients_to_grid")):
        tracer.wrap(owner, attr, "spectral.inv", _inverse_done)
    for owner, attr in ((system, "real_grid_to_coefficients"),
                        (spectral, "grid_to_coefficients"),
                        (cutoffs, "grid_to_coefficients"),
                        (estimates, "grid_to_coefficients")):
        tracer.wrap(owner, attr, "spectral.fwd", _forward_done)
    tracer.count_calls(spectral.SpectralField, "__post_init__",
                       "spectral.field_objs")
    tracer.wrap(system, "nu_bar_grid", "cutoffs.nu_bar")
    tracer.wrap(cutoffs, "smooth_step", "cutoffs.smooth_step")
    tracer.wrap(estimates, "smooth_step", "cutoffs.smooth_step")
    tracer.wrap(integrators, "rhs", "system.rhs")
    tracer.wrap(integrators, "integrate", "integrators.integrate",
                _integrate_done)
    tracer.wrap(estimates, "integrate", "estimates.integrate", _integrate_done)
    tracer.wrap(cli, "integrate", "cli.integrate", _integrate_done)
    for name in CAMPAIGN_FUNCTIONS:
        tracer.wrap(estimates, CAMPAIGN_FUNCTIONS[name],
                    f"estimates.campaign.{name}")
    tracer.wrap(estimates, "commutator_decomposition",
                "estimates.decomposition")
    tracer.wrap(estimates, "field_lp", "estimates.field_lp")
    tracer.wrap(estimates, "spectral_product", "estimates.product")
    tracer.wrap(cli, "energy_balance", "diagnostics.energy_balance")
    tracer.wrap(cli, "extrema_monitor", "diagnostics.extrema")
    tracer.wrap(cli, "save_snapshot", "storage.save_snapshot", _snapshot_done)
    tracer.wrap(cli, "write_diagnostics_csv", "storage.write_csv")
    tracer.wrap(cli, "main", "cli.main")
    return tracer


# -- per-layer metrics ---------------------------------------------------------------

MISSING = -1.0      # value of a layer metric whose entry point was never called

INTEGRATE_SPANS = ("integrators.integrate", "estimates.integrate",
                   "cli.integrate")


class SpanSummary:
    """Call counts, total and self durations per span name."""

    def __init__(self, tracer: Tracer):
        self.counts = dict(tracer.counts)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        spans = tracer.spans
        for span, own in zip(spans, self_times(spans)):
            name, start, end = span[0], span[1], span[2]
            self.calls[name] += 1
            self.total[name] += end - start
            self.own[name] += own
        # cli.post_s: what a simulate invocation does after integrate returns
        self.post = 0.0
        last_integrate_end: Dict[int, float] = {}
        for name, _, end, parent, _ in spans:
            if name == "cli.integrate" and parent >= 0:
                last_integrate_end[parent] = end
        for i, (name, start, end, _, _) in enumerate(spans):
            if name == "cli.main":
                self.post += end - last_integrate_end.get(i, start)

    def called(self, *names: str) -> bool:
        return any(self.calls.get(n, 0) for n in names)


def _if_called(names, value):
    return lambda s: value(s) if s.called(*names) else MISSING


def _calls(name):
    return _if_called((name,), lambda s: s.calls[name])


def _seconds(*names):
    return _if_called(names, lambda s: sum(s.total[n] for n in names))


def _self_seconds(*names):
    return _if_called(names, lambda s: sum(s.own[n] for n in names))


def _counted(span_names, key, scale=1.0):
    return _if_called(span_names, lambda s: s.counts.get(key, 0.0) * scale)


def _accept_ratio(s):
    steps = s.counts.get("integrators.steps", 0.0)
    tried = steps + s.counts.get("integrators.rejected", 0.0)
    return steps / tried if tried else MISSING


# name -> (unit, value from the span summary); BENCHMARK.json lists the same
# names with the same units, followed by the sweep, process and trace metrics.
SPAN_METRICS = {
    "spectral.inv_calls": ("count", _calls("spectral.inv")),
    "spectral.inv_grids": ("count", _counted(("spectral.inv",), "spectral.inv_grids")),
    "spectral.fwd_calls": ("count", _calls("spectral.fwd")),
    "spectral.fwd_grids": ("count", _counted(("spectral.fwd",), "spectral.fwd_grids")),
    "spectral.inv_s": ("s", _seconds("spectral.inv")),
    "spectral.fwd_s": ("s", _seconds("spectral.fwd")),
    "spectral.fft_mb": ("MB", _counted(("spectral.inv", "spectral.fwd"),
                                       "spectral.fft_bytes", 1e-6)),
    "spectral.field_objs": ("count", lambda s: s.counts.get("spectral.field_objs", MISSING)),
    "cutoffs.nu_bar_calls": ("count", _calls("cutoffs.nu_bar")),
    "cutoffs.nu_bar_s": ("s", _seconds("cutoffs.nu_bar")),
    "cutoffs.smooth_step_s": ("s", _seconds("cutoffs.smooth_step")),
    "system.rhs_calls": ("count", _calls("system.rhs")),
    "system.rhs_s": ("s", _seconds("system.rhs")),
    "system.rhs_self_s": ("s", _self_seconds("system.rhs")),
    "integrators.steps": ("count", _counted(INTEGRATE_SPANS, "integrators.steps")),
    "integrators.rejected": ("count", _counted(INTEGRATE_SPANS, "integrators.rejected")),
    "integrators.accept_ratio": ("ratio", _if_called(INTEGRATE_SPANS, _accept_ratio)),
    "integrators.self_s": ("s", _self_seconds(*INTEGRATE_SPANS)),
    "estimates.probe_integrations": ("count", _calls("estimates.integrate")),
    **{f"estimates.campaign_s.{name}": ("s", _seconds(f"estimates.campaign.{name}"))
       for name in CAMPAIGN_FUNCTIONS},
    "estimates.decomposition_s": ("s", _seconds("estimates.decomposition")),
    "estimates.field_lp_s": ("s", _seconds("estimates.field_lp")),
    "estimates.product_s": ("s", _seconds("estimates.product")),
    "diagnostics.energy_balance_s": ("s", _seconds("diagnostics.energy_balance")),
    "diagnostics.extrema_s": ("s", _seconds("diagnostics.extrema")),
    "storage.snapshot_writes": ("count", _calls("storage.save_snapshot")),
    "storage.snapshot_mb": ("MB", _counted(("storage.save_snapshot",),
                                           "storage.snapshot_bytes", 1e-6)),
    "storage.write_s": ("s", _seconds("storage.save_snapshot", "storage.write_csv")),
    "cli.integrate_s": ("s", _seconds("cli.integrate")),
    "cli.post_s": ("s", _if_called(("cli.main",), lambda s: s.post)),
}


def span_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Every span-derived layer metric as name -> (value, unit)."""
    summary = SpanSummary(tracer)
    return {name: (float(value(summary)), unit)
            for name, (unit, value) in SPAN_METRICS.items()}
