"""Persistent content-addressed store for simulation and mix results.

Characterization work is heavily repetitive: the same (TraceSpec,
MachineConfig, warmup) triples are simulated over and over across figure
benchmarks, CLI invocations and CI jobs, and the same multi-tenant mixes
are replayed through :func:`~repro.cluster.tenancy.run_mix`.  Both are
fully deterministic, so this module memoises them in one on-disk store
with two namespaces:

* ``sim`` holds simulation results
  (:class:`~repro.uarch.pipeline.SimulationResult`), keyed by every
  field of the trace spec and machine config, the warmup override and
  :func:`code_version` (a digest of the timing-model source);
* ``mix`` holds whole mix outcomes
  (:class:`~repro.cluster.scheduler.MixOutcome`), keyed by the submitted
  trace, the scheduler's :meth:`describe` fingerprint, the fault plan,
  the cluster geometry/topology/device state, the observability mode,
  the run engine and :func:`cluster_code_version` (a digest of every
  cluster-layer source module).

Every key also folds in :data:`SCHEMA_VERSION`, so a change to the entry
format makes old entries unreachable, as a source change does through
the code versions.  The engine class (fast vs reference, for μops and
for dispatch alike) is deliberately *not* keyed: the engines are
bit-identical by contract (see ``repro.perf.fastpath`` and
``repro.perf.clusterpath``), so their results are interchangeable.  Hits
are bit-identical to cold runs — ``tests/core/test_simcache.py``
round-trips both namespaces and compares every field.

Layout: one file per entry at ``<root>/<ns>/<key[:2]>/<key>.json`` (the
two-level fan-out keeps directories small).  The first line is the hex
SHA-256 of the key's bytes followed by the body's bytes; the rest of the
file is the body, the value's compact JSON.  A read returns a miss,
never a wrong answer, when the file is missing or unreadable, when its
digest line does not match (a truncated file, a flipped byte that still
parses, an entry copied under another key), or when the body does not
decode to the namespace's value.  The handles count each of these as a
miss, and the cold run rewrites the entry.  Writes are atomic
(``os.replace`` of a same-directory temp file) so concurrent workers and
interrupted runs can never publish a torn file.

Escape hatches: ``REPRO_SIM_CACHE=0`` (or ``--no-sim-cache`` on the CLI
and pytest runs) and ``REPRO_MIX_CACHE=0`` (or ``--no-mix-cache``)
disable one namespace each; ``REPRO_CACHE_DIR`` relocates the root;
:func:`clear` and :func:`clear_mix` empty one namespace each.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import shutil
import tempfile
from pathlib import Path

from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import Core, SimulationResult
from repro.uarch.trace import SyntheticTrace, TraceSpec

#: Bump when the on-disk entry format (not the simulated values) changes.
SCHEMA_VERSION = 2

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Modules whose source bytes define the simulated counter values.  Any
#: edit to one of these produces a new code version and a cold cache.
_VERSIONED_MODULES = (
    "repro.uarch.isa",
    "repro.uarch.config",
    "repro.uarch.trace",
    "repro.uarch.caches",
    "repro.uarch.tlb",
    "repro.uarch.branch",
    "repro.uarch.frontend",
    "repro.uarch.backend",
    "repro.uarch.pipeline",
    "repro.perf.fastpath",
)

#: Modules whose source bytes define a mix's outcome.  Any edit to one of
#: these produces a new cluster code version and a cold mix cache.
_CLUSTER_VERSIONED_MODULES = (
    "repro.cluster.attempts",
    "repro.cluster.cluster",
    "repro.cluster.disk",
    "repro.cluster.eventbus",
    "repro.cluster.faults",
    "repro.cluster.hdfs",
    "repro.cluster.journal",
    "repro.cluster.network",
    "repro.cluster.node",
    "repro.cluster.scheduler",
    "repro.cluster.tenancy",
    "repro.cluster.topology",
    "repro.perf.clusterpath",
    "repro.perf.procfs",
)

_code_version: str | None = None
_cluster_code_version: str | None = None


def _source_digest(module_names) -> str:
    digest = hashlib.sha256()
    for module_name in module_names:
        module = importlib.import_module(module_name)
        path = getattr(module, "__file__", None)
        digest.update(module_name.encode())
        if path and os.path.exists(path):
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def code_version() -> str:
    """Digest of the timing-model source files (cached per process)."""
    global _code_version
    if _code_version is None:
        _code_version = _source_digest(_VERSIONED_MODULES)
    return _code_version


def cluster_code_version() -> str:
    """Digest of the cluster-layer source files (cached per process)."""
    global _cluster_code_version
    if _cluster_code_version is None:
        _cluster_code_version = _source_digest(_CLUSTER_VERSIONED_MODULES)
    return _cluster_code_version


def _env_flag(name: str, default: bool = True) -> bool:
    value = os.environ.get(name)
    if value is None:
        return default
    return value.strip().lower() not in {"0", "false", "off", "no", ""}


def cache_enabled(default: bool = True) -> bool:
    """Honour the ``REPRO_SIM_CACHE`` escape hatch (0/false/off disable)."""
    return _env_flag("REPRO_SIM_CACHE", default)


def mix_cache_enabled(default: bool = True) -> bool:
    """Honour the ``REPRO_MIX_CACHE`` escape hatch (0/false/off disable)."""
    return _env_flag("REPRO_MIX_CACHE", default)


def cache_dir(root: str | os.PathLike | None = None) -> Path:
    """Resolve the cache root (arg > ``REPRO_CACHE_DIR`` > default)."""
    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
    return Path(root)


# -- the store: one verified reader and writer for every namespace ---------


def _content_key(code: str, fields: dict) -> str:
    payload = {"schema": SCHEMA_VERSION, "code": code, **fields}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _path(ns: str, key: str, root) -> Path:
    return cache_dir(root) / ns / key[:2] / f"{key}.json"


def _entry_digest(key: str, body: bytes) -> bytes:
    digest = hashlib.sha256(key.encode())
    digest.update(body)
    return digest.hexdigest().encode()


def _write(ns: str, key: str, root, payload) -> None:
    """Persist *payload* under *key* atomically (tmp file + rename)."""
    path = _path(ns, key, root)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = json.dumps(payload, separators=(",", ":")).encode()
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            # Two writes, so the multi-MB body is not copied into a
            # joined buffer.
            handle.write(_entry_digest(key, body) + b"\n")
            handle.write(body)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read(ns: str, key: str, root, decode):
    """``decode(payload)`` of the entry under *key*, or None when it is
    missing, fails its digest line or does not decode."""
    try:
        # One bulk binary read beats json.load's incremental text
        # decoding; mix entries run to tens of megabytes.
        with open(_path(ns, key, root), "rb") as handle:
            digest = handle.readline().rstrip(b"\n")
            body = handle.read()
    except OSError:
        return None
    if digest != _entry_digest(key, body):
        return None
    try:
        return decode(json.loads(body))
    except (ValueError, KeyError, IndexError, TypeError):
        return None


def _clear(ns: str, root) -> int:
    ns_root = cache_dir(root) / ns
    if not ns_root.exists():
        return 0
    count = sum(1 for _ in ns_root.rglob("*.json"))
    shutil.rmtree(ns_root)
    return count


# -- the sim namespace (uarch layer) ----------------------------------------


def sim_cache_key(
    spec: TraceSpec,
    machine: MachineConfig,
    warmup: int | None = None,
) -> str:
    """Stable content hash for one simulation's inputs.

    Every field of the spec and machine participates, so *any* change —
    instruction budget, a cache geometry, the predictor kind, a region
    footprint — produces a different key.  The digest also folds in the
    code version and schema version.
    """
    return _content_key(
        code_version(),
        {
            "warmup": warmup,
            "spec": dataclasses.asdict(spec),
            "machine": dataclasses.asdict(machine),
        },
    )


def load_result(key: str, root: str | os.PathLike | None = None) -> SimulationResult | None:
    """Fetch a cached result by key, or None on a miss or a damaged entry."""
    return _read("sim", key, root, lambda data: SimulationResult(**data))


def store_result(
    key: str, result: SimulationResult, root: str | os.PathLike | None = None
) -> None:
    """Persist *result* under *key* atomically (tmp file + rename)."""
    _write("sim", key, root, dataclasses.asdict(result))


def clear(root: str | os.PathLike | None = None) -> int:
    """Explicit invalidation: delete every cached simulation result;
    return the count."""
    return _clear("sim", root)


# -- the mix namespace (cluster layer) --------------------------------------


def _cluster_fingerprint(cluster) -> dict:
    """Everything about the cluster that can change a mix's outcome.

    Device *state* (slot frees, busy-until times, the clock) is included
    alongside geometry, so a warm hit is legal even for clusters that
    are not pristine — reuse with different prior wear simply misses.
    """
    network = cluster.network
    return {
        "block_size": cluster.hdfs.block_size,
        "replication": cluster.hdfs.replication,
        "bytes_per_checksum": cluster.hdfs.bytes_per_checksum,
        "locality_wait_s": cluster.locality_wait_s,
        "rack_locality_wait_s": cluster.rack_locality_wait_s,
        "journaling": cluster.journal is not None,
        "clock": cluster.clock,
        "topology": (
            [list(pair) for pair in cluster.topology.assignments]
            if cluster.topology is not None
            else None
        ),
        "network": [
            network.latency_s,
            network.fabric_bandwidth,
            network.core_bandwidth,
            network.fabric_busy_until,
            network.core_busy_until,
            sorted(network.uplink_busy_until.items()),
        ],
        "slaves": [
            [
                node.name,
                node.map_slots,
                node.reduce_slots,
                node.cpu_speed,
                node.slow_factor,
                node.disk.read_bw,
                node.disk.write_bw,
                node.disk.seek_s,
                node.nic.bandwidth,
                list(node.map_slot_free),
                list(node.reduce_slot_free),
                node.disk.busy_until,
                node.disk._pending_write_bytes,
                node.nic.tx_busy_until,
                node.nic.rx_busy_until,
            ]
            for node in cluster.slaves
        ],
    }


def _submissions_fingerprint(jobs) -> list:
    """The submitted trace: job identity, arrival, dependency edges and
    every task's resource demands, in submission (seq) order."""
    subs = []
    for job in jobs:
        work = job.work
        subs.append(
            [
                job.job_id,
                work.name,
                job.user,
                job.pool,
                job.arrival_s,
                job.depends_on.job_id if job.depends_on is not None else None,
                [
                    [
                        m.input_bytes,
                        m.cpu_seconds,
                        m.output_bytes,
                        list(m.preferred_nodes),
                        list(m.split) if m.split is not None else None,
                    ]
                    for m in work.maps
                ],
                [
                    [r.shuffle_bytes, r.cpu_seconds, r.output_bytes]
                    for r in work.reduces
                ],
            ]
        )
    return subs


def mix_cache_key(multi, run_engine: str = "events") -> str:
    """Stable content hash for one mix execution's inputs.

    *multi* is a fully-submitted :class:`MultiJobCluster` (either
    dispatch engine — the fast path is bit-identical by contract, so the
    engine class is deliberately not part of the key).  The run engine
    ("events" vs "legacy") **is** keyed: it decides whether the outcome
    carries an event log.  So is the observability mode, which decides
    which per-node rates a timeline reports.
    """
    return _content_key(
        cluster_code_version(),
        {
            "run_engine": run_engine,
            "observability": multi.observability,
            "scheduler": multi.scheduler.describe(),
            "plan": dataclasses.asdict(multi.plan) if multi.plan is not None else None,
            "cluster": _cluster_fingerprint(multi.cluster),
            "jobs": _submissions_fingerprint(multi.jobs),
        },
    )


def _timeline_to_payload(timeline) -> list | None:
    if timeline is None:
        return None
    return [
        timeline.job_name,
        timeline.start_s,
        timeline.map_phase_end_s,
        timeline.end_s,
        timeline.map_tasks,
        timeline.reduce_tasks,
        sorted(timeline.disk_writes_per_second.items()),
        timeline.network_bytes,
        timeline.maps_node_local,
        timeline.maps_rack_local,
        timeline.maps_off_rack,
        sorted(timeline.node_racks.items()),
    ]


def _timeline_from_payload(data):
    if data is None:
        return None
    from repro.cluster.cluster import JobTimeline

    return JobTimeline(
        job_name=data[0],
        start_s=data[1],
        map_phase_end_s=data[2],
        end_s=data[3],
        map_tasks=data[4],
        reduce_tasks=data[5],
        disk_writes_per_second={name: rate for name, rate in data[6]},
        network_bytes=data[7],
        maps_node_local=data[8],
        maps_rack_local=data[9],
        maps_off_rack=data[10],
        node_racks={name: rack for name, rack in data[11]},
    )


def mix_outcome_payload(outcome) -> dict:
    """Compact list-based serialization — ``dataclasses.asdict`` walks
    every nested field generically and is far too slow at 100k reports.

    Also the canonical *comparison form* for bit-identity checks: every
    outcome field is represented, dicts are key-normalized, and
    :class:`Event` rows carry all fields (the dataclass's own ``__eq__``
    compares only ``(priority, seq)``)."""
    return {
        "scheduler": outcome.scheduler,
        "end_s": outcome.end_s,
        "preemptions": outcome.preemptions,
        "preemption_wasted_s": outcome.preemption_wasted_s,
        "fenced_attempts": outcome.fenced_attempts,
        "failed_jobs": list(outcome.failed_jobs),
        "cancelled_jobs": list(outcome.cancelled_jobs),
        "reports": [
            [
                r.job_id,
                r.name,
                r.user,
                r.pool,
                r.arrival_s,
                r.first_launch_s,
                r.finished_s,
                r.preempted,
                _timeline_to_payload(r.timeline),
                r.status,
            ]
            for r in outcome.reports
        ],
        "task_intervals": [
            [iv.kind, iv.job_id, iv.node, iv.start_s, iv.end_s]
            for iv in outcome.task_intervals
        ],
        "fault_accounting": (
            dataclasses.asdict(outcome.fault_accounting)
            if outcome.fault_accounting is not None
            else None
        ),
        "events": [
            [e.priority, e.seq, e.type, e.time_s, e.payload]
            for e in outcome.events
        ],
    }


def _mix_outcome_from_payload(data):
    from repro.cluster.eventbus import Event
    from repro.cluster.scheduler import (
        JobReport,
        MixFaultAccounting,
        MixOutcome,
        TaskInterval,
    )

    accounting = data["fault_accounting"]
    if accounting is not None:
        accounting = MixFaultAccounting(
            nodes_crashed=tuple(accounting["nodes_crashed"]),
            partition_windows=accounting["partition_windows"],
            limping_nodes=tuple(accounting["limping_nodes"]),
            killed_attempts=accounting["killed_attempts"],
            zombies_fenced=accounting["zombies_fenced"],
            maps_reexecuted=accounting["maps_reexecuted"],
            reduces_reexecuted=accounting["reduces_reexecuted"],
            wasted_task_seconds=accounting["wasted_task_seconds"],
            speculative_attempts=accounting["speculative_attempts"],
            speculative_wins=accounting["speculative_wins"],
            speculative_losers_fenced=accounting["speculative_losers_fenced"],
            stragglers_detected=tuple(accounting["stragglers_detected"]),
        )
    return MixOutcome(
        scheduler=data["scheduler"],
        reports=[
            JobReport(
                job_id=r[0],
                name=r[1],
                user=r[2],
                pool=r[3],
                arrival_s=r[4],
                first_launch_s=r[5],
                finished_s=r[6],
                preempted=r[7],
                timeline=_timeline_from_payload(r[8]),
                status=r[9],
            )
            for r in data["reports"]
        ],
        end_s=data["end_s"],
        preemptions=data["preemptions"],
        preemption_wasted_s=data["preemption_wasted_s"],
        task_intervals=[
            TaskInterval(
                kind=iv[0], job_id=iv[1], node=iv[2], start_s=iv[3], end_s=iv[4]
            )
            for iv in data["task_intervals"]
        ],
        fault_accounting=accounting,
        fenced_attempts=data["fenced_attempts"],
        failed_jobs=tuple(data["failed_jobs"]),
        cancelled_jobs=tuple(data["cancelled_jobs"]),
        events=tuple(
            Event(
                priority=e[0], seq=e[1], type=e[2], time_s=e[3], payload=e[4]
            )
            for e in data["events"]
        ),
    )


def load_mix(key: str, root: str | os.PathLike | None = None):
    """Fetch a cached mix outcome by key, or None on a miss or a damaged entry."""
    return _read("mix", key, root, _mix_outcome_from_payload)


def store_mix(key: str, outcome, root: str | os.PathLike | None = None) -> None:
    """Persist *outcome* under *key* atomically (tmp file + rename)."""
    _write("mix", key, root, mix_outcome_payload(outcome))


def clear_mix(root: str | os.PathLike | None = None) -> int:
    """Delete every cached mix outcome; return the count."""
    return _clear("mix", root)


# -- handles with hit/miss accounting ---------------------------------------


class _Handle:
    """One handle on a namespace, with hit/miss accounting.  A subclass
    sets ``_env_enabled`` to its namespace's escape hatch, consulted
    when ``enabled`` is not given."""

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        enabled: bool | None = None,
    ) -> None:
        self.root = cache_dir(root)
        self.enabled = self._env_enabled() if enabled is None else enabled
        self.hits = 0
        self.misses = 0

    def _memoise(self, key, load, store, compute):
        """``load(key())`` on a hit; otherwise ``compute()``, stored under
        the key.  A damaged entry loads as None and counts as a miss."""
        entry = None
        if self.enabled:
            entry = key()
            cached = load(entry, self.root)
            if cached is not None:
                self.hits += 1
                return cached
        self.misses += 1
        value = compute()
        if entry is not None:
            store(entry, value, self.root)
        return value

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SimCache(_Handle):
    """``simulate`` is the memoised twin of building a ``Core`` and
    running a trace: on a hit the stored result is returned without
    simulating; on a miss the chosen engine runs and the result is
    persisted.  Both paths return bit-identical values.
    """

    _env_enabled = staticmethod(cache_enabled)

    def simulate(
        self,
        spec: TraceSpec,
        machine: MachineConfig,
        warmup: int | None = None,
        engine: str = "fast",
    ) -> SimulationResult:
        def run() -> SimulationResult:
            if engine == "fast":
                from repro.perf.fastpath import run_fast

                return run_fast(Core(machine), SyntheticTrace(spec), warmup=warmup)
            return Core(machine).run(SyntheticTrace(spec), warmup=warmup)

        # The key/load/store functions are looked up as module globals
        # at call time, so instrumentation that patches them sees every
        # call.
        return self._memoise(
            lambda: sim_cache_key(spec, machine, warmup), load_result, store_result, run
        )


class MixCache(_Handle):
    """``run`` is the memoised twin of :meth:`MultiJobCluster.run`: on a
    hit the stored outcome is returned without dispatching a single
    task; on a miss the mix runs and the outcome is persisted.  Both
    paths return bit-identical values (``tests/core/test_simcache.py``
    round-trips every field).
    """

    _env_enabled = staticmethod(mix_cache_enabled)

    def run(self, multi, engine: str = "events"):
        return self._memoise(
            lambda: mix_cache_key(multi, run_engine=engine),
            load_mix,
            store_mix,
            lambda: multi.run(engine=engine),
        )
