"""Measure each workload's run-to-run spread and record it next to its bound.

Usage, from the repository root::

    python3 perfbench/calibrate.py [--seeds 10] [--first-seed 1]

Runs ``perfbench/run.py`` once per seed and workload (``--trace 0``, the
``run_seconds`` of ``BENCHMARK.json``), cycling through the workloads
for each seed so a slow spell of the host is shared among them.  For
every end-to-end metric it takes the distance between the first and
third quartile of the values, as a share of their median.  A spread at
or above its bound means the bound asserts nothing; a spread above a
third of it is flagged as thin margin.  Results, with the provenance of
the host they were measured on, are appended to the workload's list of
calibration sets in ``perfbench/calibration.json``: the spread of one
set moves with the host's load, so every set stays on record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.run import benchmark  # noqa: E402

OUT = os.path.join(HERE, "calibration.json")


def run_once(workload: str, seed: int, seconds: int):
    """(result JSON, host provenance) of one run."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {out.returncode}:\n"
            f"{out.stdout[-2000:]}{out.stderr[-2000:]}"
        )
    lines = out.stdout.strip().splitlines()
    host = next(json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("provenance:"))
    return json.loads(lines[-1]), host


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    try:
        with open(OUT) as fh:
            calibration = json.load(fh)
    except FileNotFoundError:
        calibration = {}
    ok = True
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    runs = {w: [] for w in workloads}
    walls = {w: [] for w in workloads}
    hosts = {}
    for seed in seeds:
        for workload in workloads:
            t0 = time.perf_counter()
            result, hosts[workload] = run_once(workload, seed, seconds)
            runs[workload].append(result)
            walls[workload].append(time.perf_counter() - t0)
            print(f"{workload} seed {seed}: {walls[workload][-1]:.1f}s wall, "
                  f"correct={result['correct']}", flush=True)
    for workload in workloads:
        entry = {
            "seeds": seeds,
            "run_seconds": seconds,
            "wall_s_median": statistics.median(walls[workload]),
            "all_correct": all(r["correct"] for r in runs[workload]),
            "host": hosts[workload],
            "metrics": {},
        }
        ok &= entry["all_correct"]
        print(workload)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            s = spread(values)
            entry["metrics"][name] = {
                "median": statistics.median(values),
                "spread": s,
                "bound": bound,
                "values": values,
            }
            flag = ("OVER BOUND" if s >= bound
                    else "thin margin" if s > bound / 3 else "")
            ok &= s < bound
            print(f"  {name:<24} median {statistics.median(values):>14.6g} "
                  f"spread {s:8.4f} bound {bound:5.2f} {flag}")
        calibration.setdefault(workload, []).append(entry)
    with open(OUT, "w") as fh:
        json.dump(calibration, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
