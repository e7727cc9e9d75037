"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``
(the repository's own test run collects only ``tests/``).
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.load_program()
import clock  # noqa: E402
import spans  # noqa: E402

SPEC = run.spec()
PINS = json.loads(run.PINS.read_text())

TINY = {
    "paper-suite": workloads.PaperSuite(instructions=3000),
    "tenant-mix": workloads.TenantMix(jobs=12),
    "repeat-mix": workloads.RepeatMix(jobs=40, source_jobs=20),
}

#: The layers each workload exists to drive (README.md, layer table).
DRIVES = {
    "paper-suite": {
        "uarch.trace",
        "perf.fastpath",
        "perf.session",
        "core.simcache.sim_key",
        "core.simcache.sim_store",
        "core.simcache.sim_load",
    },
    "tenant-mix": {
        "workloads.datagen",
        "workloads.run",
        "mapreduce.execute",
        "hive.execute",
        "cluster.run_job",
        "cluster.scheduler.submit",
        "cluster.scheduler.report",
        "perf.clusterpath.run",
        "core.simcache.mix_key",
        "core.simcache.mix_store",
        "core.simcache.mix_load",
        "cluster.tenancy",
    },
    "repeat-mix": {
        "cluster.scheduler.submit",
        "cluster.scheduler.report",
        "perf.clusterpath.run",
        "core.simcache.mix_key",
        "core.simcache.mix_store",
        "core.simcache.mix_load",
        "cluster.tenancy",
        "recipes.generate",
    },
}

_traced: dict = {}


def traced(name: str) -> run.Measurement:
    if name not in _traced:
        _traced[name] = run.measure(TINY[name], seed=5, seconds=0, trace=True, pins=None)
    return _traced[name]


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric


def test_every_layer_is_driven_by_some_workload():
    assert set().union(*DRIVES.values()) == set(spans.LAYERS)
    assert set(DRIVES) == {w["name"] for w in SPEC["workloads"]} == set(workloads.standard())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_leaves_outputs_identical(name):
    m = traced(name)
    plain, instrumented = m.passes
    assert plain.error is None and instrumented.error is None
    assert instrumented.digests == plain.digests
    assert instrumented.whole == plain.whole
    assert m.failed == 0 and m.attempted == 2 * TINY[name].ops(TINY[name].setup(5))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_shows_every_layer_it_drives(name):
    m = traced(name)
    seen = set(m.tracer.calls()) | set(m.setup_tracer.calls())
    assert DRIVES[name] <= seen
    assert set(m.layers) == {metric["name"] for metric in SPEC["per_layer"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    m = run.measure(TINY[name], seed=5, seconds=0, trace=False, pins=None)
    assert m.failed == 0
    assert set(m.e2e) == {metric["name"] for metric in SPEC["end_to_end"]}
    assert all(value > 0 for value in m.e2e.values())


def test_fastest_sums_each_parts_minimum_at_reference_speed():
    ref = clock.REFERENCE_LOOP_S
    samples = [{"a": (2.0, ref), "b": (1.0, 2 * ref)}, {"a": (3.0, ref), "b": (0.8, ref)}]
    assert clock.fastest(samples) == pytest.approx(2.0 + 0.5)
    assert clock.fastest(samples, correct=False) == pytest.approx(2.0 + 0.8)


def test_stopwatch_brackets_every_part_with_the_reference_loop():
    watch = clock.Stopwatch()
    for name in "abc":
        with watch.part(name):
            pass
    parts = watch.close()
    assert list(parts) == ["a", "b", "c"]
    assert all(seconds >= 0 and loop > 0 for seconds, loop in parts.values())
    plain = clock.Stopwatch(calibrate=False)
    with plain.part("a"):
        pass
    assert plain.close()["a"][1] is None


@pytest.mark.parametrize("name", ["tenant-mix", "repeat-mix"])
def test_seed_changes_arrivals_but_not_the_work(name):
    mix = TINY[name]
    first, again, other = mix.setup(1), mix.setup(1), mix.setup(2)
    assert first == again

    def arrivals(traces):
        return [[j.arrival_s for j in trace.jobs] for trace in traces]

    def work(traces):
        return [sorted((j.workload, j.scale, j.user, j.pool) for j in t.jobs) for t in traces]

    assert arrivals(first) != arrivals(other)
    assert work(first) == work(other)


@pytest.mark.parametrize("name", sorted(PINS))
def test_canary_reproduces_pinned_digests(name):
    errors: list = []
    workload = workloads.standard()[name]
    attempted, failed = run.check_canary(workload, PINS[name], errors)
    assert attempted > 0 and failed == 0, errors


def test_a_changed_digest_fails_the_run():
    workload = workloads.standard()["tenant-mix"]
    pins = copy.deepcopy(PINS["tenant-mix"])
    op = sorted(pins["canary"]["ops"])[0]
    pins["canary"]["ops"][op] = "0" * 20
    errors: list = []
    attempted, failed = run.check_canary(workload, pins, errors)
    assert failed == 1 and errors
    pins["canary"]["whole"] = "0" * 20
    assert run.check_canary(workload, pins, [])[1] == attempted


def test_a_change_after_the_first_trace_batch_fails_the_run():
    from repro.uarch.trace import SyntheticTrace

    workload = workloads.standard()["paper-suite"]
    original = SyntheticTrace.iter_batches

    def perturbed(self, *args, **kwargs):
        for index, batch in enumerate(original(self, *args, **kwargs)):
            if index == 1:
                batch.kernel[0] = not batch.kernel[0]
            yield batch

    with mock.patch.object(SyntheticTrace, "iter_batches", perturbed):
        attempted, failed = run.check_canary(workload, PINS["paper-suite"], [])
    assert failed == attempted
