"""Layer-attributed benchmark of the simulator's own host time.

Run from the repository root::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off; times are corrected for the host's speed (see clock.py).  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics (self time per layer from span nesting,
counts taken at the same boundaries, coverage and tracing overhead); it
writes the spans to ``.perfbench-out/`` as Chrome trace-event JSON.

Every run checks its outputs: each operation (suite entry or trace job)
must complete, its warm and traced outputs must equal its cold output,
seed-independent outputs must match ``pinned.json``, and the workload at
``CANARY_SEED`` must reproduce its pinned digests.  The last line of standard
output is one JSON object; the exit code is 1 if any check failed.
``--write-pins`` recomputes ``pinned.json`` after a deliberate change to
simulated results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import clock
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pinned.json"
TMP = ROOT / ".perfbench-tmp"
OUT = ROOT / ".perfbench-out"

#: Fresh interpreters that import the program and build the seeded
#: inputs; ``setup_s`` is the median of their wall times.
SETUP_REPEATS = 5
#: Passes repeat until ``--seconds`` have gone by, and at least this often.
MIN_PASSES = 3
#: Warm executions repeat within a pass until they add up to this long.
MIN_WARM_S = 0.5
#: The seed of the canary run, whose digests ``pinned.json`` holds.
CANARY_SEED = 0


def load_program():
    """Import the program from this checkout's ``src`` and the workloads.

    ``REPRO_*`` variables are dropped first: they can disable or relocate
    the caches, and every run must measure the same configuration.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    import workloads

    # Lazy imports and the code-version digests are paid here, not in the
    # timed body.
    import repro.perf.clusterpath  # noqa: F401
    import repro.perf.fastpath  # noqa: F401
    from repro.core.simcache import cluster_code_version, code_version
    from repro.workloads import all_workloads

    all_workloads()
    code_version()
    cluster_code_version()
    return workloads


_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.load_program().standard()[sys.argv[2]].setup(int(sys.argv[3]))"
)


def setup_seconds(name: str, seed: int) -> float:
    """Median time from process start to the start of the timed body, at
    the reference loop's speed (see clock.py)."""
    watch = clock.Stopwatch()
    for repeat in range(SETUP_REPEATS):
        with watch.part(str(repeat)):
            subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, str(HERE), name, str(seed)],
                cwd=ROOT,
                check=True,
            )
    return statistics.median(clock.corrected(*part) for part in watch.close().values())


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Pass:
    """One cold execution plus its warm repetitions, on a fresh cache root."""

    cold_s: float = 0.0
    warm_s: list[float] = field(default_factory=list)
    #: Stopwatch parts of the cold execution, and of each warm one
    cold_parts: dict = field(default_factory=dict)
    warm_parts: list[dict] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    whole: str | None = None
    output_keys: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    store_bytes: dict = field(default_factory=dict)
    failed: set = field(default_factory=set)
    error: str | None = None


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(workload, state, warm_runs: int | None = None, tracer=None,
             calibrate: bool = False) -> Pass:
    """Cold then warm on one fresh cache root.  With *tracer*, the whole
    pass runs instrumented; with *calibrate*, the reference loop runs
    between timed parts.  ``warm_runs=None`` repeats the warm run until
    ``MIN_WARM_S`` of it is measured."""
    TMP.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(dir=TMP))
    result = Pass()
    traced = spans.instrument(tracer) if tracer is not None else contextlib.nullcontext()
    try:
        with traced:
            # Each timed execution starts from a collected heap, so the
            # garbage left by earlier ones is not charged to it.
            gc.collect()
            start = time.perf_counter()
            watch = clock.Stopwatch(calibrate)
            cold = workload.run(state, root, watch)
            result.cold_parts = watch.close()
            result.cold_s = time.perf_counter() - start
            result.store_bytes = {
                kind: _tree_bytes(root / kind) for kind in ("sim", "mix") if (root / kind).exists()
            }
            warm = []
            while len(warm) < (warm_runs or 1) or (
                warm_runs is None and sum(result.warm_s) < MIN_WARM_S
            ):
                gc.collect()
                start = time.perf_counter()
                watch = clock.Stopwatch(calibrate)
                warm.append(workload.run(state, root, watch))
                result.warm_parts.append(watch.close())
                result.warm_s.append(time.perf_counter() - start)
        result.digests, result.whole = workload.digests(cold)
        result.output_keys = workload.output_keys(cold)
        result.stats = workload.cache_stats(cold)
        for out in warm:
            per_op, whole = workload.digests(out)
            result.failed |= mismatched(result.digests, per_op, whole != result.whole)
            for name, value in workload.cache_stats(out).items():
                result.stats[name] += value
        result.failed |= {op for op, value in result.digests.items() if value is None}
    except Exception:
        result.error = traceback.format_exc()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return result


def mismatched(expected: dict, actual: dict, whole_differs: bool) -> set:
    """Operations whose digest differs (all of them if the whole does)."""
    if whole_differs or set(expected) != set(actual):
        return set(expected) | set(actual)
    return {op for op in expected if expected[op] != actual[op]}


@dataclass
class Measurement:
    workload: str
    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    passes: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    tracer: object = None
    setup_tracer: object = None


def check_pass(workload, state, p: Pass, reference: Pass | None, pins: dict | None) -> set:
    """Failed operation ids of one pass: raised, incomplete, warm differs
    from cold, differs from the reference pass, or a pinned output differs."""
    ops = workload.ops(state)
    if p.error is not None:
        return set(range(ops))
    failed = set(p.failed)
    if reference is not None and reference.error is None:
        failed |= mismatched(reference.digests, p.digests, p.whole != reference.whole)
    pinned = (pins or {}).get("outputs")
    if pinned is not None:
        for op, (key, value) in p.output_keys.items():
            if pinned.get(key) != value:
                failed.add(op)
    return failed


def check_canary(workload, pins: dict | None, errors: list) -> tuple[int, int]:
    """Attempted and failed operations of the workload at ``CANARY_SEED``
    against its pinned digests (none with ``pins=None``, which the
    self-tests use at tiny sizes)."""
    if pins is None:
        return 0, 0
    state = workload.setup(CANARY_SEED)
    ops = workload.ops(state)
    if "canary" not in pins:
        errors.append(f"{workload.name}: no pinned canary digests in {PINS.name}")
        return ops, ops
    p = run_pass(workload, state, warm_runs=1)
    if p.error is not None:
        errors.append(p.error)
        return ops, ops
    expected = pins["canary"]
    failed = p.failed | mismatched(expected["ops"], p.digests, p.whole != expected["whole"])
    if failed:
        errors.append(f"{workload.name}: canary digests differ from {PINS.name} for {sorted(failed)}")
    return ops, len(failed)


def measure(workload, seed: int, seconds: float, trace: bool, pins: dict | None,
            setup_s: float | None = None) -> Measurement:
    """Set up, run the timed passes, check every output, build metrics.
    Without *setup_s*, the in-process set-up time stands in for it."""
    m = Measurement(workload.name)
    start = time.perf_counter()
    state = workload.setup(seed)
    if setup_s is None:
        setup_s = time.perf_counter() - start
    ops = workload.ops(state)

    if trace:
        plain = run_pass(workload, state)
        m.setup_tracer = spans.Tracer()
        workload.setup(seed, m.setup_tracer.span)
        m.tracer = spans.Tracer()
        traced = run_pass(workload, state, warm_runs=len(plain.warm_s), tracer=m.tracer)
        m.passes = [plain, traced]
    else:
        started = time.perf_counter()
        while len(m.passes) < MIN_PASSES or time.perf_counter() - started < seconds:
            m.passes.append(run_pass(workload, state, calibrate=True))

    for p in m.passes:
        if p.error is not None:
            m.errors.append(p.error)
        failed = check_pass(workload, state, p, m.passes[0] if p is not m.passes[0] else None, pins)
        m.attempted += ops
        m.failed += len(failed)
    attempted, failed = check_canary(workload, pins, m.errors)
    m.attempted += attempted
    m.failed += failed

    good = [p for p in m.passes if p.error is None] or m.passes
    cold_parts = [p.cold_parts for p in good]
    warm_parts = [parts for p in good for parts in p.warm_parts]
    wall = clock.fastest(cold_parts)
    warm = clock.fastest(warm_parts)
    m.e2e = {
        "setup_s": setup_s,
        "wall_s": wall,
        "warm_s": warm,
        "ops_per_s": ops / wall if wall > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    m.extra = {
        "host_wall_s": clock.fastest(cold_parts, correct=False),
        "host_warm_s": clock.fastest(warm_parts, correct=False),
        "uops_per_s": workload.uops(state) / wall if wall > 0 else 0.0,
        "failed_frac": m.failed / m.attempted,
    }
    if trace:
        m.layers = layer_metrics(m)
    return m


def layer_metrics(m: Measurement) -> dict:
    plain, traced = m.passes
    self_s = m.tracer.self_times()
    calls = m.tracer.calls()
    setup_self = m.setup_tracer.self_times()
    counts = dict(m.tracer.counts)
    counts.update(traced.stats)
    traced_wall = traced.cold_s + sum(traced.warm_s)
    plain_wall = plain.cold_s + sum(plain.warm_s)
    # run_mix encloses a whole mix, so its self time is whatever no inner
    # layer claims: it is reported, but does not count as covered.
    covered = sum(v for name, v in self_s.items() if name != spans.CATCH_ALL)
    out = {}
    for name, (self_metric, calls_metric) in spans.LAYERS.items():
        source = setup_self if name == "recipes.generate" else self_s
        out[self_metric] = source.get(name, 0.0)
        if calls_metric:
            out[calls_metric] = calls.get(name, 0)
    uops = counts.get("uarch.trace.uops", 0)
    trace_jobs = counts.get("cluster.tenancy.trace_jobs", 0)
    hive_calls = calls.get("hive.execute", 0)
    out.update(
        {
            "uarch.trace.uops": uops,
            "perf.fastpath.ns_per_uop": self_s.get("perf.fastpath", 0.0) * 1e9 / uops if uops else 0.0,
            "core.simcache.sim_store_bytes": traced.store_bytes.get("sim", 0),
            "core.simcache.sim_hits": counts.get("core.simcache.sim_hits", 0),
            "core.simcache.sim_misses": counts.get("core.simcache.sim_misses", 0),
            "workloads.shadow_reuse": (
                1 - calls.get("workloads.run", 0) / trace_jobs if trace_jobs else 0.0
            ),
            "mapreduce.map_input_records": counts.get("mapreduce.map_input_records", 0),
            "mapreduce.shuffle_bytes": counts.get("mapreduce.shuffle_bytes", 0),
            "hive.cache_hit_rate": counts.get("hive.cached", 0) / hive_calls if hive_calls else 0.0,
            "perf.clusterpath.tasks": counts.get("perf.clusterpath.tasks", 0),
            "perf.clusterpath.sim_makespan_s": counts.get("perf.clusterpath.sim_makespan_s", 0.0),
            "core.simcache.mix_store_bytes": traced.store_bytes.get("mix", 0),
            "core.simcache.mix_hits": counts.get("core.simcache.mix_hits", 0),
            "core.simcache.mix_misses": counts.get("core.simcache.mix_misses", 0),
            "trace.coverage": covered / traced_wall if traced_wall else 0.0,
            "trace.overhead": traced_wall / plain_wall - 1 if plain_wall else 0.0,
        }
    )
    return out


def _metric_block(values: dict, declared: list) -> dict:
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {', '.join(missing)}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def report(m: Measurement, trace: bool, declared: dict, seed: int) -> dict:
    """Print the human-readable tables; return the result object."""
    print(f"workload {m.workload}: {len(m.passes)} pass(es), "
          f"{m.attempted} operation(s), {m.failed} failed")
    if trace:
        metrics = _metric_block(m.layers, declared["per_layer"])
        traced_wall = m.passes[1].cold_s + sum(m.passes[1].warm_s)
        print(f"{'layer':<34s}{'self_s':>10s}{'share':>8s}{'calls':>9s}")
        self_s = m.tracer.self_times()
        calls = m.tracer.calls()
        for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"{name:<34s}{seconds:>10.3f}{seconds / traced_wall:>8.1%}{calls[name]:>9d}")
        for name, entry in metrics.items():
            print(f"  {name:<40s}{entry['value']:>16.6g} {entry['unit']}")
        OUT.mkdir(exist_ok=True)
        events = m.setup_tracer.chrome_trace() + m.tracer.chrome_trace()
        path = OUT / f"trace-{m.workload}-seed{seed}.json"
        path.write_text(json.dumps({"traceEvents": events}))
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = _metric_block(m.e2e, declared["end_to_end"])
        for name, entry in metrics.items():
            print(f"  {name:<14s}{entry['value']:>16.6g} {entry['unit']}")
        rate, unit = (
            ("uops_per_s", "uops/s") if m.extra["uops_per_s"] else ("jobs_per_s", "jobs/s")
        )
        value = m.extra["uops_per_s"] or m.e2e["ops_per_s"]
        print(f"  {rate:<14s}{value:>16.6g} {unit}")
        for name in ("host_wall_s", "host_warm_s"):
            print(f"  {name:<14s}{m.extra[name]:>16.6g} s, uncorrected")
        print(f"  {'failed_frac':<14s}{m.extra['failed_frac']:>16.6g} 1")
    for error in m.errors:
        print(error, file=sys.stderr)
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }


def write_pins(workloads) -> None:
    """Record the digests at ``CANARY_SEED`` and the seed-independent
    output digests."""
    pins = {}
    for name, workload in workloads.standard().items():
        p = run_pass(workload, workload.setup(CANARY_SEED), warm_runs=1)
        if p.error is not None:
            raise SystemExit(p.error)
        entry = {"canary": {"ops": p.digests, "whole": p.whole}}
        if p.output_keys:
            entry["outputs"] = dict(sorted(p.output_keys.values()))
        pins[name] = entry
        print(f"pinned {name}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    status = 0
    rows = []
    for entry in spec()["workloads"]:
        command = [sys.executable, str(Path(__file__)), "--workload", entry["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        status = max(status, child.returncode)
        lines = child.stdout.strip().splitlines()
        if child.returncode == 0 and lines:
            rows.append((entry["name"], json.loads(lines[-1])))
    print("\nsummary")
    for name, result in rows:
        values = ", ".join(
            f"{metric}={v['value']:.4g} {v['unit']}"
            for metric, v in result["metrics"].items()
            if not args.trace or metric.startswith("trace.")
        )
        print(f"  {name}: {values}; failed {result['failed']}/{result['attempted']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    declared = spec()
    if args.workload == "all" and not args.write_pins:
        return run_all(args)
    workloads = load_program()
    if args.write_pins:
        write_pins(workloads)
        return 0
    chosen = workloads.standard().get(args.workload)
    if chosen is None:
        parser.error(f"unknown workload {args.workload!r}")
    pins = json.loads(PINS.read_text()).get(args.workload, {}) if PINS.exists() else {}
    try:
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
        m = measure(chosen, args.seed, args.seconds, bool(args.trace), pins, setup_s)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    result = report(m, bool(args.trace), declared, args.seed)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
