"""The four benchmark workloads: set-up, one timed job, and output checks.

Inputs come from the workload seed alone.  The app graph of each
workload is fixed (``GRAPH_SEED``, the CLI's default ``--seed``): across
graph seeds the simulated quality metrics move far more than any bound
could absorb (digit_recognition's mean latency spans 13 to 47 cycles),
so the graph is part of the workload's definition, like a dataset.  The
workload seed derives every per-job mapper seed and every campaign seed.

A run is a fixed number of jobs, never a time budget, so every simulated
metric is an exact function of (seed, job count).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.apps
import repro.core.mapper as mapper
import repro.framework.pipeline as pipeline
from repro.core.partition import is_feasible
from repro.core.pso import PSOConfig
from repro.hardware.presets import architecture_for, custom
from repro.metrics.report import build_report
from repro.noc.fastsim import FastInterconnect, build_interconnect
from repro.noc.faults import inject_random_faults
from repro.noc.interconnect import NocConfig
from repro.noc.traffic import build_injections

GRAPH_SEED = 1

#: Simulated quality metrics each job contributes (mean over jobs).
QUALITY = (
    "global_packets",
    "global_spikes",
    "latency_mean_cycles",
    "latency_max_cycles",
    "energy_uj",
    "isi_distortion_cycles",
    "disorder_pct",
    "survival_rate",
    "p95_latency_overhead",
)


def derive(seed: int, *path: int) -> int:
    """A 32-bit child seed of ``seed`` along ``path``.

    Each job's seed depends only on its index, never on which jobs ran
    before it.
    """
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Setup:
    graph: object
    architecture: object
    topology: object
    mappings: Dict[str, object] = field(default_factory=dict)
    #: Healthy-fabric checks and quality of HE-faults' mappings, which
    #: every job of a run shares (computed once, at the first check).
    healthy: Optional[tuple] = None
    faulty_replayed: bool = False


@dataclass
class Outcome:
    """What one job produced, after its checks ran."""

    failures: List[str]
    quality: Dict[str, float]
    engine: str


def _engine_name(engine) -> str:
    """The engine's class, its kernel and its batch kernel's threads."""
    if isinstance(engine, FastInterconnect):
        kernel = "ckernel" if getattr(engine, "_ck", None) else "python"
        return (f"FastInterconnect/{kernel} "
                f"(batch threads {engine.batch_threads()})")
    return type(engine).__name__


def _record_tuples(stats):
    return sorted(
        (r.uid, r.src_neuron, r.src_node, r.dst_node, r.injected_cycle,
         r.delivered_cycle, r.hops)
        for r in stats.deliveries
    )


def _stats_differ(a, b) -> List[str]:
    """Fields in which two NocStats of one schedule disagree."""
    fields = []
    for name in ("n_injected", "n_expected_deliveries", "cycles_run",
                 "peak_buffer_occupancy", "undelivered_count"):
        if getattr(a, name) != getattr(b, name):
            fields.append(name)
    if a.link_loads != b.link_loads:
        fields.append("link_loads")
    if _record_tuples(a) != _record_tuples(b):
        fields.append("deliveries")
    return fields


def _check_delivery(stats, schedule, healthy: bool, what: str) -> List[str]:
    """delivered + undelivered == injected, and 0 undelivered if healthy."""
    out = []
    expected = int(schedule.destination_counts().sum())
    if stats.n_injected != schedule.n_packets:
        out.append(f"{what}: {stats.n_injected} injected, schedule has "
                   f"{schedule.n_packets} packets")
    if stats.delivered_count + stats.undelivered_count != expected:
        out.append(f"{what}: delivered {stats.delivered_count} + undelivered "
                   f"{stats.undelivered_count} != {expected} injected")
    if healthy and stats.undelivered_count:
        out.append(f"{what}: {stats.undelivered_count} undelivered on a "
                   "healthy fabric")
    return out


def _check_other_engine(topology, schedule, config, stats, what) -> List[str]:
    """Re-simulate on the engine the job did not use; stats must match."""
    other = "reference" if config.backend == "fast" else "fast"
    engine = build_interconnect(
        topology, config=dataclasses.replace(config, backend=other)
    )
    diff = _stats_differ(stats, engine.simulate(schedule))
    return [f"{what}: {config.backend} vs {other} engine differ in "
            f"{', '.join(diff)}"] if diff else []


def _check_mapping(graph, arch, mapping) -> List[str]:
    """Feasible partition; spike/packet split recounted from the graph."""
    out = []
    a = np.asarray(mapping.assignment)
    if not is_feasible(a, arch.n_crossbars, arch.neurons_per_crossbar):
        out.append("partition is not feasible")
        return out
    cross = a[graph.src] != a[graph.dst]
    total = float(graph.traffic.sum())
    global_spikes = float(graph.traffic[cross].sum())
    if not math.isclose(mapping.local_spikes + mapping.global_spikes, total,
                        rel_tol=1e-9):
        out.append(f"local {mapping.local_spikes} + global "
                   f"{mapping.global_spikes} != total traffic {total}")
    if not math.isclose(mapping.global_spikes, global_spikes, rel_tol=1e-9):
        out.append(f"global spikes {mapping.global_spikes} != recount "
                   f"{global_spikes}")
    # One AER packet per spike per distinct remote crossbar of its neuron.
    spikes = np.zeros(graph.n_neurons)
    spikes[graph.src] = graph.traffic
    pairs = np.unique(graph.src[cross] * arch.n_crossbars + a[graph.dst[cross]])
    packets = float(spikes[pairs // arch.n_crossbars].sum())
    if not math.isclose(mapping.extras["packets"], packets, rel_tol=1e-9):
        out.append(f"global packets {mapping.extras['packets']} != recount "
                   f"{packets}")
    return out


def _quality(mapping, report) -> Dict[str, float]:
    """The simulated metrics one mapping and its NoC report give."""
    return {
        "global_packets": float(mapping.extras["packets"]),
        "global_spikes": float(mapping.global_spikes),
        "latency_mean_cycles": report.mean_latency_cycles,
        "latency_max_cycles": float(report.max_latency_cycles),
        "energy_uj": report.total_energy_pj / 1e6,
        "isi_distortion_cycles": report.isi_distortion_cycles,
        "disorder_pct": report.disorder_percent,
    }


# -- the mapping workloads ----------------------------------------------------


@dataclass(frozen=True)
class MapWorkload:
    """``repro map`` defaults on one app: one job = one ``run_pipeline``."""

    name: str
    app: str
    objective: str
    particles: int
    iterations: int
    jobs: int
    setup_reps: int = 3

    def setup(self, seed: int) -> Setup:
        graph = repro.apps.build_application(self.app, seed=GRAPH_SEED)
        capacity = max(16, -(-graph.n_neurons // 6))
        arch = architecture_for(
            graph.n_neurons, neurons_per_crossbar=capacity,
            interconnect="tree", cycles_per_ms=10.0, name="cli-auto",
        )
        return Setup(graph, arch, arch.build_topology())

    def job(self, s: Setup, seed: int, index: int):
        return pipeline.run_pipeline(
            s.graph, s.architecture, method="pso",
            seed=derive(seed, index),
            pso_config=PSOConfig(n_particles=self.particles,
                                 n_iterations=self.iterations),
            noc_config=NocConfig(),
            objective=self.objective,
        )

    def check(self, s: Setup, result) -> Outcome:
        failures = _check_mapping(s.graph, s.architecture, result.mapping)
        stats, schedule = result.noc_stats, result.schedule
        config = NocConfig()
        failures += _check_delivery(stats, schedule, True, "final schedule")
        failures += _check_other_engine(result.topology, schedule, config,
                                        stats, "final schedule")
        quality = dict(
            _quality(result.mapping, result.report),
            # A healthy fabric: survival is full delivery, and latency
            # has no faulted draw to be compared with, so its overhead
            # is 1 by definition.
            survival_rate=float(stats.undelivered_count == 0),
            p95_latency_overhead=1.0,
        )
        engine = "final " + _engine_name(
            build_interconnect(result.topology, config=config))
        if self.objective == "noc":
            # The fitness scores the swarm on a fast-backend engine of
            # the same fabric, whatever the final report's backend.
            in_loop = build_interconnect(
                result.topology, config=NocConfig(backend="fast"))
            engine += ", in-loop " + _engine_name(in_loop)
        return Outcome(failures, quality, engine)


# -- the fault-campaign workload ---------------------------------------------


@dataclass(frozen=True)
class FaultWorkload:
    """``run_fault_campaign`` on heartbeat over a 4x4 mesh.

    Set-up maps the graph twice with one PSO seed, without and with
    spare capacity; each job replays a fresh set of seeded fault draws
    against both mappings.
    """

    name: str = "HE-faults"
    app: str = "heartbeat"
    levels: tuple = (1, 2, 4)
    draws: int = 32
    spare: float = 0.15
    jobs: int = 11
    # Set-up is short and holds all of this workload's mapping time.
    setup_reps: int = 9
    noc: NocConfig = NocConfig(backend="fast")

    def setup(self, seed: int) -> Setup:
        graph = repro.apps.build_application(self.app, seed=GRAPH_SEED)
        arch = custom(16, 8, interconnect="mesh", name="faults-4x4")
        s = Setup(graph, arch, arch.build_topology())
        pso = PSOConfig(n_particles=30, n_iterations=20)
        for label, spare in (("baseline", 0.0), ("fault-aware", self.spare)):
            s.mappings[label] = mapper.map_snn(
                graph, arch, method="pso", seed=derive(seed, 0),
                pso_config=pso, noc_config=self.noc, spare_capacity=spare,
            )
        return s

    def job(self, s: Setup, seed: int, index: int):
        return pipeline.run_fault_campaign(
            s.graph, s.architecture, mappings=s.mappings,
            fault_levels=self.levels, draws=self.draws,
            campaign_seed=derive(seed, 1, index), noc_config=self.noc,
        )

    def _check_healthy(self, s: Setup) -> tuple:
        """Mapping checks, healthy-fabric stats and quality, once a run."""
        failures: List[str] = []
        stats_of = {}
        for label, mapping in s.mappings.items():
            failures += [f"{label}: {f}" for f in
                         _check_mapping(s.graph, s.architecture, mapping)]
            schedule = build_injections(
                s.graph, mapping.assignment, s.topology,
                cycles_per_ms=s.architecture.cycles_per_ms,
            )
            stats = build_interconnect(s.topology, config=self.noc).simulate(
                schedule)
            stats_of[label] = stats
            what = f"{label} healthy"
            failures += _check_delivery(stats, schedule, True, what)
            failures += _check_other_engine(s.topology, schedule, self.noc,
                                            stats, what)
        mapping = s.mappings["fault-aware"]
        report = build_report(s.graph.name, mapping, stats_of["fault-aware"],
                              s.architecture, s.topology)
        return failures, stats_of, _quality(mapping, report)

    def check(self, s: Setup, summary) -> Outcome:
        if s.healthy is None:
            s.healthy = self._check_healthy(s)
        healthy_failures, stats_of, healthy_quality = s.healthy
        failures = list(healthy_failures)
        for label, stats in stats_of.items():
            if summary.healthy[label].mean_latency_cycles != \
                    stats.mean_latency():
                failures.append(f"{label}: campaign baseline latency "
                                "differs from the healthy replay")
        for draw in summary.draws:
            expected = stats_of[draw.mapping].n_expected_deliveries
            if draw.delivered_packets + draw.undelivered_packets != expected:
                failures.append(
                    f"{draw.mapping} level {draw.level} draw {draw.draw}: "
                    f"delivered + undelivered != {expected} injected")
        # This job's first draw at the deepest level, replayed on the
        # campaign's engine; the first job of a run also replays it on
        # the reference engine (about 2 s a replay, so once a run).
        deepest = max(self.levels)
        draw = next(d for d in summary.draws
                    if d.mapping == "fault-aware" and d.level == deepest)
        topology, _ = inject_random_faults(s.topology, deepest,
                                           seed=draw.fault_seed)
        schedule = build_injections(
            s.graph, s.mappings["fault-aware"].assignment, topology,
            cycles_per_ms=s.architecture.cycles_per_ms,
        )
        engine = build_interconnect(topology, config=self.noc)
        stats = engine.simulate(schedule)
        what = f"fault-aware level {deepest} draw 0"
        failures += _check_delivery(stats, schedule, False, what)
        if not s.faulty_replayed:
            failures += _check_other_engine(topology, schedule, self.noc,
                                            stats, what)
            s.faulty_replayed = True
        if stats.mean_latency() != draw.mean_latency_cycles:
            failures.append(f"{what}: campaign latency differs from replay")
        level = summary.level_stats("fault-aware", deepest)
        quality = dict(
            healthy_quality,
            survival_rate=level.survival_rate,
            p95_latency_overhead=level.p95_latency_overhead,
        )
        return Outcome(failures, quality, _engine_name(engine))


# Job counts are those of a run of BENCHMARK.json's run_seconds (15 s):
# 10-25 s of jobs on a 2-core host.  Odd counts make the median one job.
# A job's time divided by the host's slowdown around it still reads
# +-15% on the long jobs (the host changes within them), so every
# workload runs at least three jobs and the median drops the outliers;
# HD-noc, whose normalised times scatter most, runs five.  HE-map runs
# 40: heartbeat's disorder_pct moves by half between mapper seeds, and
# the mean of 40 keeps its spread small.
WORKLOADS = {
    "HE-map": MapWorkload("HE-map", "heartbeat", "packets", 100, 50, 40),
    "HD-map": MapWorkload("HD-map", "digit_recognition", "packets", 100, 50,
                          3),
    "HD-noc": MapWorkload("HD-noc", "digit_recognition", "noc", 20, 10, 5),
    "HE-faults": FaultWorkload(),
}

