"""Run one benchmark workload (or all four) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload HE-map --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off.  Host
times (``setup_s``, ``job_s``, ``map_s``) are wall times divided by the
host's slowdown around them (``perfbench/hostspeed.py``): seconds on a
quiet host.  The jobs' own wall times are printed beside them.
``--trace 1`` repeats the run with every layer entry point wrapped (see
``perfbench/layers.py``) and reports the per-layer metrics, a per-layer
table, and the tracing overhead; the simulated metrics of the traced
jobs must equal those of the untraced ones.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it give host provenance and tables.
With ``--workload all`` the metric names carry the workload as a prefix,
and ``peak_rss_mb`` is the peak of the whole process so far.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Modules whose import is part of set-up time, measured in a fresh
#: interpreter so the benchmark's own imports do not hide it.
IMPORTS = (
    "import repro.apps, repro.framework.pipeline, repro.core.mapper, "
    "repro.hardware.presets, repro.noc.fastsim"
)
IMPORT_REPS = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return statistics.mean(values) if values else float("nan")


def time_import() -> float:
    """Median time of importing the program in a fresh interpreter,
    divided by the host's slowdown around each import."""
    from perfbench.hostspeed import timed

    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPS):
        _, wall, slow = timed(subprocess.run,
                              [sys.executable, "-c", IMPORTS],
                              env=env, check=True, timeout=120)
        times.append(wall / slow)
    return _median(times)


def provenance() -> dict:
    """Host facts without which the numbers cannot be compared.

    The engine each job used, with the thread count of its batch
    kernel, is added per workload by :func:`main`.
    """
    import numpy as np

    from repro.noc._ckernel import load_kernel, openmp_enabled

    lib = load_kernel()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "ckernel_loaded": lib is not None,
        "openmp": bool(lib is not None and openmp_enabled(lib)),
        "REPRO_NOC_THREADS": os.environ.get("REPRO_NOC_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def benchmark() -> dict:
    """``BENCHMARK.json``: workloads, metrics with units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def job_count(workload, seconds: float, run_seconds: int) -> int:
    """Jobs in one run: ``workload.jobs`` scaled from the benchmark's
    ``run_seconds`` to ``--seconds``, never a time budget."""
    return max(1, round(workload.jobs * seconds / run_seconds))


def run_phase(workload, seed: int, jobs: int, recorder=None) -> dict:
    """Set up ``setup_reps`` times, then run ``jobs`` timed jobs.

    Every time is divided by the host's slowdown around it (see
    ``perfbench/hostspeed.py``); ``wall_times`` keeps the jobs' own
    wall times.  Checks run outside the timed region (and outside the
    trace).
    """
    from perfbench.hostspeed import timed
    from perfbench.layers import JOB, SETUP
    from perfbench.workloads import Outcome

    setup_times, setup_map_times = [], []
    for _ in range(workload.setup_reps):
        s, wall, slow = timed(workload.setup, seed)
        setup_times.append(wall / slow)
        if s.mappings:
            setup_map_times.append(
                sum(m.wall_time_s for m in s.mappings.values()) / slow)
    if recorder is not None:
        recorder.phase = JOB
    job_times, wall_times, map_times, outcomes = [], [], [], []
    for index in range(jobs):
        try:
            result, wall, slow = timed(workload.job, s, seed, index)
        except Exception as exc:  # a crashed job is a failed job
            outcomes.append(Outcome([f"job raised {exc!r}"], {}, "?"))
            continue
        job_times.append(wall / slow)
        wall_times.append(wall)
        if recorder is not None:
            recorder.active = False
        try:
            outcomes.append(workload.check(s, result))
        except Exception as exc:  # a crashed check is a failed job
            outcomes.append(Outcome([f"check raised {exc!r}"], {}, "?"))
        finally:
            if recorder is not None:
                recorder.active = True
        if hasattr(result, "mapping"):
            map_times.append(result.mapping.wall_time_s / slow)
        del result
    if recorder is not None:
        recorder.phase = SETUP
    return {
        "setup_times": setup_times,
        "job_times": job_times,
        "wall_times": wall_times,
        # map_snn's own wall clock (MappingResult.wall_time_s): its whole
        # body but the final spike/synapse/packet recount of a few ms.
        # HE-faults maps only in set-up; its map_s is the time of one
        # set-up's mappings together.
        "map_times": map_times or setup_map_times,
        "outcomes": outcomes,
    }


def quality_means(outcomes) -> dict:
    from perfbench.workloads import QUALITY

    good = [o.quality for o in outcomes if o.quality]
    return {
        name: (sum(q[name] for q in good) / len(good) if good
               else float("nan"))
        for name in QUALITY
    }


def end_to_end(phase: dict, import_s: float) -> dict:
    outcomes = phase["outcomes"]
    failed = sum(1 for o in outcomes if o.failures)
    values = {
        "setup_s": import_s + _median(phase["setup_times"]),
        "job_s": _median(phase["job_times"]),
        "map_s": _median(phase["map_times"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "jobs_ok_frac": 1.0 - failed / len(outcomes),
    }
    values.update(quality_means(outcomes))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float) -> dict:
    from perfbench.layers import Recorder, install, layer_metrics, layer_table
    from perfbench.workloads import WORKLOADS

    bench = benchmark()
    workload = WORKLOADS[name]
    jobs = job_count(workload, seconds, bench["run_seconds"])
    plain = run_phase(workload, seed, jobs)
    values = end_to_end(plain, import_s)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    outcomes = list(plain["outcomes"])
    lines = [f"== {name}: {jobs} jobs, seed {seed}, "
             f"{workload.setup_reps} set-ups"]
    lines += [f"  {k:<24} {v:>16.6f} {units[k]}" for k, v in values.items()]
    lines.append(f"  {'jobs_failed_frac':<24} "
                 f"{1.0 - values['jobs_ok_frac']:>16.6f} frac")
    for key in ("job_times", "wall_times"):
        times = sorted(plain[key])
        n = len(times)
        tail = ""
        if n >= 20:
            # The highest percentile with at least ten jobs beyond it.
            pct = 100 * (n - 10) // n
            tail = f", p{pct} {times[n * pct // 100 - 1]:.4f}"
        if times:
            lines.append(
                f"  {'job_s' if key == 'job_times' else 'job wall'} "
                f"min {times[0]:.4f}, median {_median(times):.4f}{tail}, "
                f"max {times[-1]:.4f} s over {n} jobs")
    engines = sorted({o.engine for o in outcomes})
    metrics = {k: (v, units[k]) for k, v in values.items()}

    if trace:
        recorder = install(Recorder())
        try:
            traced = run_phase(workload, seed, jobs, recorder)
        finally:
            recorder.restore()
        outcomes += traced["outcomes"]
        for a, b in zip(plain["outcomes"], traced["outcomes"]):
            if a.quality != b.quality:
                b.failures.append("traced run changed the simulated metrics")
        overhead = _median(traced["job_times"]) / values["job_s"] - 1.0
        layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        per_layer = layer_metrics(recorder, jobs, workload.setup_reps,
                                  overhead)
        metrics = {k: (v, layer_units[k]) for k, v in per_layer.items()}
        lines.append(layer_table(recorder, jobs, workload.setup_reps,
                                 _mean(traced["wall_times"])))
        lines += [f"  {k:<32} {v:>16.6f} {layer_units[k]}"
                  for k, v in per_layer.items()]
    failures = [f for o in outcomes for f in o.failures]
    lines += [f"  FAILED: {f}" for f in failures[:20]]
    return {
        "lines": lines,
        "engines": engines,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no program source at {SRC}; run from a repository checkout")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    sys.path[:0] = [SRC, ROOT]
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        _fail(f"unknown workload {unknown[0]!r}; "
              f"choose from {', '.join(WORKLOADS)} or all")

    # Compile (or load) the NoC kernel before anything is timed.
    host = provenance()
    import_s = time_import()
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), import_s)
        host.setdefault("engines", {})[name] = results[name]["engines"]
    print("provenance: " + json.dumps(host, sort_keys=True))
    for r in results.values():
        print("\n".join(r["lines"]))

    prefix = len(names) > 1
    metrics = {}
    for name, r in results.items():
        for key, (value, unit) in r["metrics"].items():
            metrics[f"{name}.{key}" if prefix else key] = {
                "value": value, "unit": unit,
            }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    # A failed output check is reported through "correct", not the exit
    # code: the exit code says whether a result was printed at all.
    return 0


if __name__ == "__main__":
    sys.exit(main())
