"""Outside-in layer tracing: wrappers around each layer's public entry points.

The program is not modified.  :func:`install` replaces each entry point
*at the name the caller looks up* (a module attribute or a class
attribute) with a wrapper that times the call on a frame stack, and
:func:`Recorder.restore` puts the originals back.  A frame's self time
is its duration minus the time of the wrapped calls nested inside it.
A layer's busy time counts only its outermost frames, so a layer that
calls itself (``build_injections`` -> ``build_injections_batch``) is
not counted twice.

Per-layer counters (rows scored, packets simulated, ...) are computed in
hooks that run after the timed call.  The hook time is charged to the
recorder's own overhead, not to the enclosing frame, so self times stay
those of the program; the whole cost of tracing shows up as
``trace.overhead_frac`` instead.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

SETUP, JOB = "setup", "job"


class LayerStats:
    """Accumulated time and counters of one layer in one phase."""

    __slots__ = ("busy_s", "self_s", "calls", "counts")

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.self_s = 0.0
        self.calls = 0
        self.counts: Dict[str, float] = defaultdict(float)


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


class Recorder:
    """Frame stack plus per-(phase, layer) statistics.

    Only the thread that created the recorder is traced; the workloads
    run their Python code on one thread (the compiled NoC kernel's
    OpenMP threads never call back into Python).
    """

    def __init__(self) -> None:
        self.phase = SETUP
        self.active = True
        self.stats: Dict[str, Dict[str, LayerStats]] = {
            SETUP: defaultdict(LayerStats),
            JOB: defaultdict(LayerStats),
        }
        self.overhead_s = 0.0
        self._stack: List[_Frame] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._thread = threading.get_ident()
        self._patches: list = []
        # Per-optimize state for the swarm counters (see install()).
        self.swarm: Optional[dict] = None

    def call(self, layer: str, fn: Callable, args, kwargs,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None):
        if not self.active or threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        outermost = self._open[layer] == 0
        ctx = before(args, kwargs) if (before and outermost) else None
        parent = self._stack[-1] if self._stack else None
        frame = _Frame()
        self._stack.append(frame)
        self._open[layer] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._open[layer] -= 1
            stats = self.stats[self.phase][layer]
            stats.self_s += (t1 - t0) - frame.child_s
            if outermost:
                stats.busy_s += t1 - t0
                stats.calls += 1
        if after is not None and outermost:
            after(stats, ctx, args, kwargs, result)
        t2 = time.perf_counter()
        self.overhead_s += t2 - t1
        if parent is not None:
            parent.child_s += t2 - t0
        return result

    def patch(self, owner, attr: str, layer: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (a module or class attribute) as ``layer``."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(layer, original, args, kwargs, before, after)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- counter hooks ----------------------------------------------------------


def _schedule_packets(stats, ctx, args, kwargs, result) -> None:
    schedules = result if isinstance(result, list) else [result]
    stats.counts["schedules"] += len(schedules)
    stats.counts["packets"] += sum(s.n_packets for s in schedules)


def _simulated_packets(stats, ctx, args, kwargs, result) -> None:
    results = result if isinstance(result, list) else [result]
    stats.counts["schedules"] += len(results)
    stats.counts["packets"] += sum(r.n_injected for r in results)


def _faulted_fabric(stats, ctx, args, kwargs, result) -> None:
    stats.counts["fabrics"] += 1


def _engine_built(stats, ctx, args, kwargs, result) -> None:
    stats.counts["engines"] += 1


def install(recorder: Recorder) -> Recorder:
    """Wrap every layer entry point the workloads reach."""
    import repro.apps
    import repro.core.mapper as mapper
    import repro.core.pso as pso
    import repro.framework.pipeline as pipeline
    import repro.metrics.report as report
    import repro.noc.traffic as traffic
    from repro.core.fitness import InterconnectFitness
    from repro.hardware.architecture import Architecture
    from repro.noc.fastsim import FastInterconnect
    from repro.noc.interconnect import Interconnect

    def swarm_begin(args, kwargs):
        recorder.swarm = {"seen": set(), "first": None}
        return recorder.swarm

    def swarm_end(stats, ctx, args, kwargs, result) -> None:
        recorder.swarm = None
        history = np.asarray(result.history, dtype=np.float64)
        first = ctx["first"] if ctx["first"] is not None else history[0]
        previous = np.concatenate([[first], history[:-1]])
        stats.counts["evals"] += result.n_evaluations
        stats.counts["iterations"] += history.size
        stats.counts["improvements"] += int((history < previous).sum())
        stats.counts["runs"] += 1
        if result.best_fitness > 0:
            stats.counts["gain_sum"] += first / result.best_fitness

    def rows_scored(stats, ctx, args, kwargs, result) -> None:
        rows = np.atleast_2d(np.asarray(args[1]))
        stats.counts["rows"] += rows.shape[0]
        swarm = recorder.swarm
        if swarm is None:
            return
        if swarm["first"] is None:
            swarm["first"] = float(np.min(result))
        seen = swarm["seen"]
        for row in np.ascontiguousarray(rows):
            key = hashlib.blake2b(row.tobytes(), digest_size=16).digest()
            if key in seen:
                stats.counts["dups"] += 1
            else:
                seen.add(key)

    def rows_repaired(stats, ctx, args, kwargs, result) -> None:
        before = np.asarray(args[0])
        stats.counts["rows"] += before.shape[0]
        stats.counts["repaired"] += int((result != before).any(axis=1).sum())

    recorder.patch(repro.apps, "build_application", "apps.build")
    recorder.patch(Architecture, "build_topology", "hardware.topology")
    recorder.patch(pipeline, "run_pipeline", "framework.pipeline")
    recorder.patch(pipeline, "run_fault_campaign", "framework.pipeline")
    recorder.patch(pipeline, "map_snn", "core.mapper")
    recorder.patch(mapper, "map_snn", "core.mapper")
    recorder.patch(mapper, "pacman_partition", "core.baselines.warm_start")
    recorder.patch(mapper, "greedy_partition", "core.baselines.warm_start")
    recorder.patch(mapper, "place_clusters", "core.placement.place")
    recorder.patch(pso.BinaryPSO, "optimize", "core.pso.optimize",
                   before=swarm_begin, after=swarm_end)
    recorder.patch(InterconnectFitness, "evaluate_batch", "core.fitness.eval",
                   after=rows_scored)
    recorder.patch(pso, "repair_batch", "core.partition.repair",
                   after=rows_repaired)
    recorder.patch(traffic, "build_injections_batch", "noc.traffic.build",
                   after=_schedule_packets)
    recorder.patch(pipeline, "build_injections", "noc.traffic.build",
                   after=_schedule_packets)
    recorder.patch(pipeline, "build_interconnect", "noc.build_interconnect")
    recorder.patch(FastInterconnect, "__init__", "noc.fastsim.engine_build",
                   after=_engine_built)
    recorder.patch(FastInterconnect, "simulate", "noc.fastsim.simulate",
                   after=_simulated_packets)
    recorder.patch(FastInterconnect, "simulate_many", "noc.fastsim.simulate",
                   after=_simulated_packets)
    recorder.patch(Interconnect, "simulate", "noc.interconnect.simulate",
                   after=_simulated_packets)
    recorder.patch(pipeline, "inject_random_faults", "noc.faults.inject",
                   after=_faulted_fabric)
    recorder.patch(pipeline, "build_report", "metrics.report")
    recorder.patch(report, "isi_distortion_mean", "metrics.isi")
    recorder.patch(report, "isi_distortion_worst", "metrics.isi")
    recorder.patch(report, "disorder_fraction", "metrics.disorder")
    return recorder


# -- per-layer metrics ------------------------------------------------------


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, jobs: int, setups: int,
                  overhead_frac: float) -> Dict[str, float]:
    """The ``per_layer`` metrics of ``BENCHMARK.json``, per job."""
    job = recorder.stats[JOB]
    setup = recorder.stats[SETUP]
    fit = job["core.fitness.eval"]
    swarm = job["core.pso.optimize"]
    repair = job["core.partition.repair"]
    build = job["noc.traffic.build"]
    fast = job["noc.fastsim.simulate"]
    engines = job["noc.fastsim.engine_build"]
    faults = job["noc.faults.inject"]
    ref = job["noc.interconnect.simulate"]
    return {
        "core.fitness.eval_s": fit.busy_s / jobs,
        "core.fitness.rows": fit.counts["rows"] / jobs,
        "core.fitness.us_per_row": _div(fit.busy_s * 1e6, fit.counts["rows"]),
        "core.fitness.dup_frac": _div(fit.counts["dups"], fit.counts["rows"]),
        "core.pso.optimize_s": swarm.busy_s / jobs,
        "core.pso.self_s": swarm.self_s / jobs,
        "core.pso.evals": swarm.counts["evals"] / jobs,
        "core.pso.improve_frac": _div(
            swarm.counts["improvements"], swarm.counts["iterations"]
        ),
        "core.pso.history_gain": _div(
            swarm.counts["gain_sum"], swarm.counts["runs"]
        ),
        "core.partition.repair_s": repair.busy_s / jobs,
        "core.partition.repaired_frac": _div(
            repair.counts["repaired"], repair.counts["rows"]
        ),
        "core.baselines.warm_start_s":
            job["core.baselines.warm_start"].busy_s / jobs,
        "core.placement.place_s": job["core.placement.place"].busy_s / jobs,
        "noc.traffic.build_s": build.busy_s / jobs,
        "noc.traffic.calls": build.calls / jobs,
        "noc.traffic.packets": build.counts["packets"] / jobs,
        "noc.traffic.us_per_packet": _div(
            build.busy_s * 1e6, build.counts["packets"]
        ),
        "noc.fastsim.simulate_s": fast.busy_s / jobs,
        "noc.fastsim.schedules": fast.counts["schedules"] / jobs,
        "noc.fastsim.packets": fast.counts["packets"] / jobs,
        "noc.fastsim.ns_per_packet": _div(
            fast.busy_s * 1e9, fast.counts["packets"]
        ),
        "noc.fastsim.engine_build_s": engines.busy_s / jobs,
        "noc.fastsim.engines": engines.counts["engines"] / jobs,
        "noc.faults.inject_s": faults.busy_s / jobs,
        "noc.faults.fabrics": faults.counts["fabrics"] / jobs,
        "noc.interconnect.simulate_s": ref.busy_s / jobs,
        "noc.interconnect.packets": ref.counts["packets"] / jobs,
        "noc.interconnect.ns_per_packet": _div(
            ref.busy_s * 1e9, ref.counts["packets"]
        ),
        "metrics.report_s": job["metrics.report"].busy_s / jobs,
        "metrics.isi_s": job["metrics.isi"].busy_s / jobs,
        "metrics.disorder_s": job["metrics.disorder"].busy_s / jobs,
        "apps.build_s": setup["apps.build"].busy_s / setups,
        "hardware.topology_s": setup["hardware.topology"].busy_s / setups,
        "framework.pipeline.self_s":
            job["framework.pipeline"].self_s / jobs,
        "trace.overhead_frac": overhead_frac,
    }


def layer_table(recorder: Recorder, jobs: int, setups: int,
                job_s: float) -> str:
    """Busy time, self time, share of ``job_s`` (the mean wall time of
    a traced job, as the busy times are wall times too) and counts, per
    layer."""
    lines = [
        f"{'phase':<6} {'layer':<28} {'busy ms':>10} {'self ms':>10} "
        f"{'% job':>7} {'calls':>8}  counts (per job)"
    ]
    for phase, per in ((SETUP, setups), (JOB, jobs)):
        rows = sorted(
            ((k, v) for k, v in recorder.stats[phase].items() if v.calls),
            key=lambda kv: -kv[1].busy_s,
        )
        for name, st in rows:
            counts = ", ".join(
                f"{k}={v / per:.6g}" for k, v in sorted(st.counts.items())
            )
            share = (
                f"{100.0 * st.busy_s / per / job_s:6.1f}%"
                if phase == JOB and job_s > 0 else "      -"
            )
            lines.append(
                f"{phase:<6} {name:<28} {1e3 * st.busy_s / per:10.3f} "
                f"{1e3 * st.self_s / per:10.3f} {share} "
                f"{st.calls / per:8.4g}  {counts}"
            )
    lines.append(
        f"(busy/self: ms per {SETUP} repetition or per {JOB}; "
        f"{setups} set-ups, {jobs} jobs; tracing hooks "
        f"{1e3 * recorder.overhead_s / max(jobs, 1):.3f} ms per job)"
    )
    return "\n".join(lines)
