"""The benchmark's three workloads, driven through the program's public API.

Each workload has the same shape:

* ``setup(seed, tracer)`` builds the inputs from the seed (untimed part of
  the run, reported as ``setup_s``);
* ``run(state, root, watch)`` is one execution through the program's
  on-disk caches under *root*.  On an empty root it is the cold path;
  called again on the same root it is the warm path.  It times its parts
  on *watch*, a :class:`clock.Stopwatch`;
* ``digests(result)`` gives one digest per operation (a suite entry or a
  trace job; ``None`` if it did not complete) and one for the whole
  output, so cold, warm and traced executions can be compared and
  checked against ``pinned.json``;
* ``output_keys(result)`` gives the digests of outputs that do not depend
  on the seed, so every seed's outputs can be checked against
  ``pinned.json`` too.

``run.py`` also runs every workload at one fixed seed and checks all its
digests against ``pinned.json``: a change that alters any simulated
statistic fails that check, whatever seed the run was given.

README.md explains why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random

from repro.cluster import tenancy
from repro.cluster.scheduler import FairScheduler
from repro.core.characterize import characterize_suite
from repro.core.simcache import MixCache, SimCache, mix_outcome_payload
from repro.core.suite import DCBench, SuiteEntry
from repro.recipes import fit_recipe, generate_from_recipe


def digest(value) -> str:
    """Short stable digest of a JSON-shaped value (floats kept exact)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def canonical(value):
    """A JSON-shaped form of a job output: dicts become key-sorted pairs
    (keys may be ints or tuples), tuples become lists, floats their repr."""
    if isinstance(value, dict):
        pairs = [[canonical(k), canonical(v)] for k, v in value.items()]
        return ["dict", sorted(pairs, key=lambda pair: json.dumps(pair[0]))]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return ["float", repr(value)]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return ["repr", repr(value)]


def _no_span(_name):
    return contextlib.nullcontext()


# -- paper-suite ---------------------------------------------------------------


@dataclasses.dataclass
class _SeededEntry(SuiteEntry):
    """A suite entry whose trace is drawn from the benchmark's seed."""

    trace_seed: int = 0

    def trace_spec(self, instructions: int, seed: int | None = None):
        return self.impl.trace_spec(instructions, seed=self.trace_seed)


def _entry_seed(seed: int, name: str) -> int:
    return int(hashlib.sha256(f"{seed}:{name}".encode()).hexdigest()[:8], 16)


class PaperSuite:
    """``characterize_suite`` over every DCBench entry, serial, fast
    engine, through a :class:`SimCache`: the Figures 3-12 dataset.  The
    default size spans two trace batches per entry, so the core loop's
    state is carried across a batch boundary."""

    name = "paper-suite"

    def __init__(self, instructions: int = 10_000):
        self.instructions = instructions

    def setup(self, seed: int, span=_no_span):
        suite = DCBench(
            [
                _SeededEntry(e.name, e.group, e.impl, trace_seed=_entry_seed(seed, e.name))
                for e in DCBench.default()
            ]
        )
        return suite, self.instructions

    def run(self, state, root, watch):
        """One ``characterize_suite`` call per entry, each timed on its own."""
        suite, instructions = state
        cache = SimCache(root=root, enabled=True)
        results = []
        for entry in suite:
            with watch.part(entry.name):
                results += characterize_suite(
                    DCBench([entry]), instructions=instructions, scale=8, engine="fast",
                    cache=cache,
                )
        return results, cache

    def ops(self, state) -> int:
        return len(state[0])

    def uops(self, state) -> int:
        suite, instructions = state
        return len(suite) * instructions

    def digests(self, result):
        characterizations, _cache = result
        per_op = {
            c.name: digest(dataclasses.asdict(c.result)) for c in characterizations
        }
        return per_op, digest(sorted(per_op.items()))

    def output_keys(self, result) -> dict:
        """Seed-independent output digests to pin: none, every trace is seeded."""
        return {}

    def cache_stats(self, result) -> dict:
        cache = result[1]
        return {"core.simcache.sim_hits": cache.hits, "core.simcache.sim_misses": cache.misses}


# -- multi-tenant mixes ---------------------------------------------------------


def reseed(trace, seed: int, part: int = 0):
    """The same jobs in a seed-drawn arrival order with fresh Poisson gaps.

    Only arrival order and times depend on the seed; the multiset of
    (workload, scale, user, pool) submissions is fixed, so every seed does
    the same amount of shadow and dispatch work (a fresh ``generate_trace``
    per seed swings the run time by 2x through its heavy-tailed sizes).
    """
    rng = random.Random(f"perfbench:{seed}:{part}")
    jobs = list(trace.jobs)
    rng.shuffle(jobs)
    clock = 0.0
    arrived = []
    for index, job in enumerate(jobs):
        clock += rng.expovariate(trace.arrival_rate_per_s)
        arrived.append(dataclasses.replace(job, index=index, arrival_s=round(clock, 6)))
    return tenancy.WorkloadTrace(tuple(arrived), seed, trace.arrival_rate_per_s)


def _output_key(trace_job) -> str:
    return f"{trace_job.workload}@{trace_job.scale!r}"


class _Mix:
    """``run_mix`` of a trace, fast engine, Fair scheduler with the
    default pools, through a :class:`MixCache`.

    The base trace is cut into ``parts`` runs of consecutive jobs, each
    played as its own mix on its own cluster and timed on its own.
    """

    slaves = 16
    parts = 1

    def base_trace(self, span):
        raise NotImplementedError

    def setup(self, seed: int, span=_no_span):
        base = self.base_trace(span)
        size = -(-len(base.jobs) // self.parts)
        return tuple(
            reseed(
                tenancy.WorkloadTrace(base.jobs[start:start + size], base.seed,
                                      base.arrival_rate_per_s),
                seed,
                part,
            )
            for part, start in enumerate(range(0, len(base.jobs), size))
        )

    def run(self, traces, root, watch):
        """One ``run_mix`` call per part, each timed on its own."""
        cache = MixCache(root=root, enabled=True)
        mixes = []
        for part, trace in enumerate(traces):
            with watch.part(f"mix{part}"):
                mixes.append(
                    tenancy.run_mix(
                        trace,
                        FairScheduler(pools=tenancy.default_pools(trace)),
                        num_slaves=self.slaves,
                        engine="fast",
                        mix_cache=cache,
                    )
                )
        return mixes, cache

    def ops(self, traces) -> int:
        return sum(len(trace.jobs) for trace in traces)

    def uops(self, traces) -> int:
        return 0

    def _output_digests(self, mix) -> dict[int, str]:
        # Identical trace jobs share one output object: digest it once.
        by_object: dict[int, str] = {}
        for output in mix.outputs.values():
            if id(output) not in by_object:
                by_object[id(output)] = digest(canonical(output))
        return {index: by_object[id(output)] for index, output in mix.outputs.items()}

    def digests(self, result):
        mixes, _cache = result
        per_op, payloads = {}, []
        for part, mix in enumerate(mixes):
            payload = mix_outcome_payload(mix.outcome)
            payloads.append(payload)
            rows = {row[0]: row for row in payload["reports"]}
            outputs = self._output_digests(mix)
            for report in mix.reports:
                index = report.trace_job.index
                stages = [rows.get(job_id) for job_id in report.job_ids]
                completed = all(row is not None and row[9] == "completed" for row in stages)
                per_op[f"p{part}t{index:04d}"] = (
                    digest([outputs[index], stages, report.ideal_s]) if completed else None
                )
        return per_op, digest(payloads)

    def output_keys(self, result) -> dict:
        """Per-job output digests keyed by (workload, scale), which the
        seed does not change: ``{op: (key, digest)}``."""
        mixes, _cache = result
        keys = {}
        for part, mix in enumerate(mixes):
            outputs = self._output_digests(mix)
            for r in mix.reports:
                index = r.trace_job.index
                keys[f"p{part}t{index:04d}"] = (_output_key(r.trace_job), outputs[index])
        return keys

    def cache_stats(self, result) -> dict:
        cache = result[1]
        return {"core.simcache.mix_hits": cache.hits, "core.simcache.mix_misses": cache.misses}


class TenantMix(_Mix):
    """A heavy-tailed day of traffic, as four clusters of 16 slaves each
    see it: every job is distinct, so solo shadows dominate and reuse is
    bypassed."""

    name = "tenant-mix"
    parts = 4

    def __init__(self, jobs: int = 24):
        self.jobs = jobs

    def base_trace(self, span):
        return tenancy.generate_trace(seed=0, num_jobs=self.jobs)


class RepeatMix(_Mix):
    """500 jobs from a recipe whose users resubmit exact repeats 98% of
    the time, on 32 slaves: submission, dispatch and the mix cache."""

    name = "repeat-mix"
    slaves = 32
    exact_repeat_rate = 0.98

    def __init__(self, jobs: int = 500, source_jobs: int = 25):
        self.jobs = jobs
        self.source_jobs = source_jobs

    def base_trace(self, span):
        source = tenancy.generate_trace(seed=0, num_jobs=self.source_jobs)
        with span("recipes.generate"):
            recipe = fit_recipe(source)
            recipe = dataclasses.replace(
                recipe,
                users=tuple(
                    dataclasses.replace(
                        user, exact_repeat_rate=self.exact_repeat_rate, varied_repeat_rate=0.0
                    )
                    for user in recipe.users
                ),
            )
            return generate_from_recipe(recipe, self.jobs, seed=0)


def standard() -> dict:
    """The workloads BENCHMARK.json names, at their measured sizes."""
    return {w.name: w for w in (PaperSuite(), TenantMix(), RepeatMix())}
