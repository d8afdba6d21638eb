"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads envelope probe --seeds 0-9 \
        --trace 0 --out .bench_out/summary.json

Runs ``bench/run.py`` once per (workload, seed), one at a time, and reports
for every metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (interquartile distance over the median).  A run whose last
line is not a result, or whose outputs were wrong, is listed under
``failures``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="0-9", type=seed_range)
    parser.add_argument("--seconds", default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = args.seconds or str(json.load(fh)["run_seconds"])

    report = {"seconds": float(seconds), "trace": args.trace, "workloads": {},
              "failures": []}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join("bench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", seconds, "--trace", str(args.trace)]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - started
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                report["failures"].append({"workload": workload, "seed": seed,
                                           "code": proc.returncode,
                                           "tail": (proc.stdout + proc.stderr)[-2000:]})
                continue
            result["seed"], result["elapsed_s"] = seed, elapsed
            runs.append(result)
            print(f"{workload} seed {seed}: {elapsed:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        names = runs[0]["metrics"] if runs else {}
        report["workloads"][workload] = {
            "runs": len(runs),
            "elapsed_s": summarise([r["elapsed_s"] for r in runs]) if runs else None,
            "metrics": {name: dict(unit=runs[0]["metrics"][name]["unit"],
                                   **summarise([r["metrics"][name]["value"] for r in runs]))
                        for name in names},
        }
        if args.trace == 0:
            for name, m in report["workloads"][workload]["metrics"].items():
                print(f"  {workload} {name}: median {m['median']:.4g} "
                      f"spread {m['spread']:.3f}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
