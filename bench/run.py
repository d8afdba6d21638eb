"""kolmosim benchmark: one workload per invocation, run from the repository
root.

    python3 bench/run.py --workload envelope --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it repeats passes of the workload for ``--seconds`` and
reports the end-to-end metrics: pass_cost, setup_s, peak_rss_mb and
first_output_cost.  A cost is a pass's process CPU time divided by the CPU
time of a fixed numpy/scipy reference job run next to it, so that it does not
move with the speed of a shared machine; the median CPU and wall times of a
pass are printed too.  With ``--trace 1`` it runs a fixed number of passes
twice, untraced and then traced, and reports the per-layer metrics, the
isolated ``system.rhs`` size sweep and the tracing overhead; the spans go to
``.bench_out/``.  Every pass's output is checked.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
# Pin the load before numpy starts: single-threaded BLAS, and at most two
# campaign threads (never more than the machine has).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["KOLMO_THREADS"] = str(min(2, NPROC))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np
import scipy
import scipy.fft

# every package module is imported here, so the import time is read once
import kolmosim
from kolmosim import cli, diagnostics, estimates, integrators, spectral, storage, system  # noqa: F401

if not os.path.abspath(kolmosim.__file__).startswith(os.path.join(ROOT, "src")):
    sys.exit(f"kolmosim imported from {kolmosim.__file__}, not from this checkout")

from kolmosim.cutoffs import CutoffProfile

import tracing
from workloads import WORKLOADS, WIDE, S_RUN

SETUP_REPEATS = 5
MIN_PASSES = 3
OUT_DIR = os.path.join(ROOT, ".bench_out")
SWEEP = ((2, 16), (2, 32), (3, 8), (3, 16))
END_TO_END = ("pass_cost", "setup_s", "peak_rss_mb", "first_output_cost")
PROCESS_METRICS = {"process.user_s": "s", "process.sys_s": "s",
                   "process.minflt": "count", "process.cpu_util": "ratio",
                   "trace.overhead_s": "s"}


def environment() -> dict:
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "kolmo_threads": int(os.environ["KOLMO_THREADS"])}


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ops: int, problems) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.messages.extend(problems[:3])


def run_pass(workload, i: int, tally: Tally):
    """One checked pass; returns (CPU seconds, wall seconds, CPU seconds to
    the first output), or None when the pass raised."""
    item = workload.prepare(i)
    wall_started = time.perf_counter()
    started = time.process_time()
    try:
        result, first = workload.run(item)
    except Exception as exc:                      # a failed pass, not a crash
        tally.record(workload.ops_per_pass, [f"pass {i}: {exc!r}"])
        return None
    cpu = time.process_time() - started
    wall = time.perf_counter() - wall_started
    try:
        problems = workload.check(i, item, result)
    except Exception as exc:                      # unreadable output
        problems = [f"pass {i} check: {exc!r}"]
    tally.record(workload.ops_per_pass, problems)
    return cpu, wall, cpu if first is None else first - started


def timed_setup(workload) -> float:
    """CPU seconds of interpreter start and imports (read once) plus the
    median of repeated set-ups from cold caches."""
    imports = time.process_time()
    times = []
    for _ in range(SETUP_REPEATS):
        spectral._geometry.cache_clear()
        started = time.process_time()
        workload.setup()
        times.append(time.process_time() - started)
    return imports + statistics.median(times)


_REFERENCE_GRIDS = np.random.default_rng(0).normal(size=(4, 64, 64))


def reference_kernel() -> float:
    """CPU seconds of a fixed numpy/scipy job shaped like the package's inner
    loops: batched real FFTs of 64^2 grids, pointwise exp/where, stacking,
    call-overhead-bound transforms of 24^2 grids and a complex FFT.  It calls
    no kolmosim code, so its time tracks only the machine's speed.  Its
    arrays are small, so it does not raise any workload's peak memory."""
    x = _REFERENCE_GRIDS
    started = time.process_time()
    for _ in range(100):
        y = scipy.fft.irfftn(scipy.fft.rfftn(x, axes=(-2, -1)) * 0.5,
                             s=x.shape[-2:], axes=(-2, -1))
        z = np.where(y > 0, np.exp(-1.0 / np.maximum(np.abs(y), 1e-3)), 0.0)
        np.stack([z[i] * y[j] for i in range(4) for j in range(4)]).sum()
        for small in x[:, :24, :24]:
            scipy.fft.irfft2(scipy.fft.rfft2(small) * 0.5, s=small.shape).sum()
        np.abs(np.fft.ifft2(x[0] + 1j * x[1])).max()
    return time.process_time() - started


def end_to_end(workload, seconds: float, tally: Tally) -> dict:
    setup_s = timed_setup(workload)
    reference, passes = [], []
    started = time.perf_counter()
    i = 0
    while (time.perf_counter() - started < seconds
           or (len(passes) < MIN_PASSES and time.perf_counter() - started < 6 * seconds)):
        reference.append(reference_kernel())
        measured = run_pass(workload, i, tally)
        if measured is not None:
            passes.append((i, *measured))
        i += 1
    reference.append(reference_kernel())
    if not passes:
        return {}
    # each pass is priced against the reference runs just before and after it
    scale = {i: 0.5 * (reference[i] + reference[i + 1]) for i, *_ in passes}
    print(f"passes = {i} ({len(passes)} completed)")
    print(f"cpu_s = {statistics.median(p[1] for p in passes):.6g} s, "
          f"wall_s = {statistics.median(p[2] for p in passes):.6g} s, "
          f"reference_s = {statistics.median(reference):.6g} s "
          "(medians per pass, not gated)")
    return {
        "pass_cost": (statistics.median(cpu / scale[i] for i, cpu, _, _ in passes), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "first_output_cost": (statistics.median(first / scale[i] for i, _, _, first in passes), "ref"),
    }


def sweep_datum(d: int, n: int):
    """Smooth admissible state built without a fine grid (cheap in 3-D):
    omega in [1.05, 1.45] and b in [0.8, 1.2] by the coefficient-sum bound."""
    spec = estimates.RandomFieldSpec(dim=d, cutoff=n, rho=2.5, seed=0)
    rng = spec.rng(0)
    v = spectral.VectorSpectralField(tuple(spec.draw(rng, scale=0.2)
                                           for _ in range(d))).leray_project()

    def around(mean):
        f = spec.draw(rng)
        f = f * (0.2 / float(np.sum(np.abs(f.coeffs))))
        f.coeffs[(n - 1,) * d] += mean
        return f

    return system.SimState(v, around(1.25), around(1.0), 0.0)


def rhs_sweep() -> dict:
    """Median CPU milliseconds of one isolated system.rhs call at each size."""
    profile = CutoffProfile(WIDE)
    params = system.ModelParams(alpha=1.0, s=S_RUN, bounds=WIDE, oversample=2)
    out = {}
    for d, n in SWEEP:
        state = sweep_datum(d, n)
        system.rhs(state, params, profile)            # warm caches
        times = []
        started = time.perf_counter()
        while len(times) < 3 or time.perf_counter() - started < 0.3:
            t0 = time.process_time()
            system.rhs(state, params, profile)
            times.append(time.process_time() - t0)
        out[f"system.rhs_ms.d{d}n{n}"] = (1e3 * statistics.median(times), "ms")
    return out


def traced(workload, tally: Tally, seed: int) -> dict:
    timed_setup(workload)
    passes = range(workload.trace_passes)
    untraced = sum((run_pass(workload, i, tally) or (0.0,))[0] for i in passes)

    tracer = tracing.install(tracing.Tracer())
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    try:
        traced_cpu = sum((run_pass(workload, i, tally) or (0.0,))[0] for i in passes)
    finally:
        tracer.remove()
    elapsed = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer.missing:
        print(f"could not wrap: {', '.join(tracer.missing)}", file=sys.stderr)

    user = after.ru_utime - before.ru_utime
    sys_s = after.ru_stime - before.ru_stime
    process = {
        "process.user_s": user,
        "process.sys_s": sys_s,
        "process.minflt": float(after.ru_minflt - before.ru_minflt),
        "process.cpu_util": (user + sys_s) / elapsed,
        "trace.overhead_s": (traced_cpu - untraced) / len(passes),
    }
    metrics = tracing.span_metrics(tracer)
    metrics.update(rhs_sweep())
    metrics.update({name: (value, PROCESS_METRICS[name])
                    for name, value in process.items()})
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics = traced(workload, tally, args.seed)
        else:
            metrics = end_to_end(workload, args.seconds, tally)

    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    print(f"workload {args.workload}: {why[args.workload]}")
    for message in tally.messages:
        print(f"FAILED: {message}")
    print(f"fail_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        shown = "missing (never called)" if value == tracing.MISSING else f"{value:.6g} {unit}"
        print(f"{name} = {shown}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
