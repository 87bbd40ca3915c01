"""Tests of the benchmark itself: tracing neutrality, seeding, layout.

The workloads run here with fewer fault draws and one set-up
repetition, so the whole file takes seconds; the code paths
(wrappers, checks, seed derivation) are the benchmark's own.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.run import benchmark, run_phase  # noqa: E402
from perfbench.layers import Recorder, install, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SMALL = {
    # The full swarm: a shorter one never beats its warm start on
    # heartbeat, which would make the mapping seed-independent.
    "HE-map": dataclasses.replace(WORKLOADS["HE-map"], setup_reps=1),
    "HE-faults": dataclasses.replace(
        WORKLOADS["HE-faults"], draws=4, setup_reps=1
    ),
}


def qualities(phase):
    return [o.quality for o in phase["outcomes"]]


def assert_clean(phase):
    failures = [f for o in phase["outcomes"] for f in o.failures]
    assert failures == []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reproduces_untraced_metrics(name):
    workload = SMALL[name]
    plain = run_phase(workload, seed=3, jobs=2)
    recorder = install(Recorder())
    try:
        traced = run_phase(workload, seed=3, jobs=2, recorder=recorder)
    finally:
        recorder.restore()
    assert_clean(plain)
    assert_clean(traced)
    assert qualities(traced) == qualities(plain)
    metrics = layer_metrics(recorder, jobs=2, setups=1, overhead_frac=0.0)
    assert list(metrics) == [m["name"] for m in benchmark()["per_layer"]]
    assert metrics["framework.pipeline.self_s"] > 0
    assert metrics["apps.build_s"] > 0


def test_wrappers_are_removed_after_restore():
    import repro.framework.pipeline as pipeline
    from repro.noc.fastsim import FastInterconnect

    before = (pipeline.run_pipeline, FastInterconnect.simulate_many)
    install(Recorder()).restore()
    assert (pipeline.run_pipeline, FastInterconnect.simulate_many) == before


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_metrics_other_seed_other_metrics(name):
    workload = SMALL[name]
    first = run_phase(workload, seed=5, jobs=2)
    again = run_phase(workload, seed=5, jobs=2)
    other = run_phase(workload, seed=6, jobs=2)
    for phase in (first, again, other):
        assert_clean(phase)
    assert qualities(again) == qualities(first)
    assert qualities(other) != qualities(first)


def test_timed_returns_the_call_and_a_positive_slowdown():
    from perfbench.hostspeed import timed

    out, wall, slow = timed(sorted, [3, 1, 2], reverse=True)
    assert out == [3, 2, 1]
    assert wall >= 0
    # Within an order of magnitude of the quiet host in either direction.
    assert 0.1 < slow < 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "HE-map",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
