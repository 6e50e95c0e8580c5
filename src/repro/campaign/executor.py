"""Process-parallel campaign executor.

A :class:`CampaignExecutor` runs a list of :class:`~repro.campaign.jobs.Job`
cells and returns their :class:`~repro.engine.results.RunResult`\\ s in the
order the jobs were given, regardless of how many worker processes computed
them.  With ``jobs=1`` every cell runs in-process (the deterministic serial
path); with ``jobs>1`` missing cells fan out over a ``multiprocessing``
pool.  Because traces are generated deterministically from their seed and
the simulator itself is deterministic, both paths produce bitwise-identical
results.

Every cell is resolved to its cache key and payload by
:func:`resolve_cell`, and cells sharing a key are simulated once.  When a
:class:`~repro.campaign.cache.ResultCache` is attached, cached cells are
served from disk and only the missing cells are simulated; each one is
written back as soon as it finishes, so a repeated (or interrupted and
restarted) campaign simulates only what is still missing.

Worker processes rebuild each trace from its (spec, seed) rather than
receiving it pickled: a trace is orders of magnitude bigger than its spec
and regenerating it is far cheaper than one simulation.  The *resolved*
spec object is shipped (not the workload name) so that scenarios or
presets registered at runtime in the parent also work under spawn-based
``multiprocessing``, where workers re-import the registries from scratch.
The serial path instead memoizes traces per (workload, seed) across the
executor's lifetime, so a figure's many configurations share one trace
build.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import (Dict, Iterator, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from ..config import SystemConfig
from ..engine.results import RunResult
from ..engine.simulator import simulate
from ..engine.system import validate_engine
from ..obs.recorder import Recorder, active
from ..trace.trace import MultiThreadedTrace
from ..workloads.registry import build_trace, resolve_spec
from .cache import CacheStats, ResultCache, cache_key
from .jobs import Job
from .registry import DEFAULT_REGISTRY, ConfigRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..experiments.common import ExperimentSettings

#: (config, scaled workload/scenario spec, seed, warmup_fraction, engine)
#: -- everything a worker needs to simulate one cell, all cheaply picklable.
_CellPayload = Tuple[SystemConfig, object, int, float, str]


def resolve_cell(job: Job, settings: "ExperimentSettings",
                 registry: ConfigRegistry,
                 engine: str) -> Tuple[str, _CellPayload]:
    """The cell's persistent cache key and its simulation payload.

    ``settings`` are the cell's own settings, already scaled to its core
    count; ``registry`` is the (possibly overlaid) configuration registry
    that names ``job.config_name``.  This is the one place a cell is
    resolved: the pool executor and the work-queue drainer both call it,
    so a store drained by queue workers serves a later campaign entirely
    from cache.
    """
    config = registry.make(job.config_name, settings)
    spec = resolve_spec(job.workload, settings.ops_per_thread)
    key = cache_key(config, spec, job.seed, settings.warmup_fraction)
    return key, (config, spec, job.seed, settings.warmup_fraction, engine)


def _simulate_cell(payload: _CellPayload) -> RunResult:
    """Worker entry point: build the trace and simulate one cell."""
    config, spec, seed, warmup_fraction, engine = payload
    trace = build_trace(spec, num_threads=config.num_cores, seed=seed)
    return simulate(config, trace, warmup_fraction=warmup_fraction,
                    engine=engine)


def _simulate_cell_timed(item: Tuple[str, _CellPayload]):
    """Pool entry point: one keyed cell, with its wall-clock span.

    Returns ``(key, result, start, end, pid)``: the key pairs results
    arriving in completion order with their cells, and the epoch
    timestamps and worker pid place the job on the campaign's wall-clock
    tracks when a recorder is attached.
    """
    key, payload = item
    start = time.time()
    result = _simulate_cell(payload)
    return key, result, start, time.time(), os.getpid()


@dataclass
class CampaignReport:
    """What one :meth:`CampaignExecutor.run` call actually did."""

    total: int = 0
    simulated: int = 0
    cache_hits: int = 0
    #: duplicate cells folded into one simulation.
    deduplicated: int = 0
    #: cache tallies accumulated by this run (``None`` without a cache).
    cache_stats: Optional[CacheStats] = None

    def describe(self, cache: Optional[ResultCache] = None) -> str:
        """One-line human summary (shared by the CLI and scripts)."""
        where = "no cache" if cache is None else cache.describe()
        line = f"{self.simulated} simulated, {self.cache_hits} cache hits ({where})"
        if self.cache_stats is not None:
            line += f", {self.cache_stats.stores} stored"
        return line

    def merge(self, other: "CampaignReport") -> None:
        """Fold another report's tallies into this one (plan summaries)."""
        self.total += other.total
        self.simulated += other.simulated
        self.cache_hits += other.cache_hits
        self.deduplicated += other.deduplicated
        if other.cache_stats is not None:
            self.cache_stats = other.cache_stats if self.cache_stats is None \
                else self.cache_stats.plus(other.cache_stats)


class CampaignExecutor:
    """Fans (config, workload, seed) cells out over worker processes."""

    def __init__(self, settings: "ExperimentSettings", jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 registry: Optional[ConfigRegistry] = None,
                 engine: str = "fast",
                 recorder: Optional[Recorder] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.settings = settings
        self.jobs = jobs
        self.cache = cache
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        #: campaign-level observability: per-job wall-clock spans and
        #: cache tallies.  ``None`` (the default) records nothing;
        #: simulations themselves always run without an engine recorder
        #: here, so their results never depend on telemetry.
        self.recorder = active(recorder)
        #: worker pid -> small campaign tid, for stable trace tracks.
        self._worker_tids: Dict[int, int] = {}
        #: execution kernel for missing cells.  All engines produce
        #: byte-identical results, so cache keys and entries are
        #: engine-independent.
        self.engine = validate_engine(engine)
        self.last_report = CampaignReport()
        self._traces: Dict[Tuple[str, int, int], MultiThreadedTrace] = {}

    # -- building blocks ----------------------------------------------------

    def trace_for(self, workload: str, seed: int,
                  num_threads: Optional[int] = None) -> MultiThreadedTrace:
        """Build (or reuse) the trace for one (workload, seed) cell.

        ``num_threads`` defaults to the settings' core count; a registered
        configuration that overrides ``num_cores`` (a geometry variant)
        gets its own memo entry, so the serial path builds exactly the
        trace a pool worker would rebuild from the shipped config.
        Memoized for the executor's lifetime: the in-process serial path
        shares one trace across every configuration that replays it, as do
        repeated campaigns through the same executor.
        """
        if num_threads is None:
            num_threads = self.settings.num_cores
        key = (workload, seed, num_threads)
        if key not in self._traces:
            self._traces[key] = build_trace(
                workload, num_threads=num_threads,
                ops_per_thread=self.settings.ops_per_thread, seed=seed)
        return self._traces[key]

    def resolve(self, job: Job) -> Tuple[str, _CellPayload]:
        """``(cache key, payload)`` of one cell (see :func:`resolve_cell`)."""
        return resolve_cell(job, self.settings, self.registry, self.engine)

    # -- execution -----------------------------------------------------------

    def _worker_tid(self, pid: int) -> int:
        """A small, stable campaign-track id for a worker process."""
        tid = self._worker_tids.get(pid)
        if tid is None:
            tid = self._worker_tids[pid] = len(self._worker_tids) + 1
        return tid

    def _job_args(self, job: Job, pid: int) -> Dict[str, object]:
        return {"config": job.config_name, "workload": job.workload,
                "seed": job.seed, "engine": self.engine, "worker": pid}

    def run(self, jobs: Sequence[Job]) -> List[RunResult]:
        """Run ``jobs``; returns results in the same order as the input.

        Jobs are folded by cache key, so a repeated job and an alias (a
        differently named configuration that builds the same machine) are
        simulated once.  Each simulated cell is stored as soon as it
        finishes: an interrupted campaign keeps every completed cell.
        """
        jobs = list(jobs)
        rec = self.recorder
        cache_before = self.cache.stats if self.cache is not None else None

        keys: Dict[Job, str] = {}
        #: key -> (first job with that key, its payload), in input order.
        cells: Dict[str, Tuple[Job, _CellPayload]] = {}
        for job in jobs:
            if job not in keys:
                key, payload = self.resolve(job)
                keys[job] = key
                cells.setdefault(key, (job, payload))
        report = CampaignReport(total=len(jobs),
                                deduplicated=len(jobs) - len(cells))

        results: Dict[str, RunResult] = {}
        missing: List[str] = []
        for key in cells:
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[key] = cached
                report.cache_hits += 1
            else:
                missing.append(key)

        report.simulated = len(missing)
        for key, result in self._simulate(missing, cells):
            results[key] = result
            if self.cache is not None:
                self.cache.put(key, result)

        if self.cache is not None:
            report.cache_stats = self.cache.stats.since(cache_before)
        if rec is not None:
            rec.count("campaign.jobs", report.total)
            rec.count("campaign.simulated", report.simulated)
            rec.count("campaign.cache_hits", report.cache_hits)
            rec.count("campaign.deduplicated", report.deduplicated)
            if report.cache_stats is not None:
                label = self.cache.describe()
                rec.count(f"cache.{label}.hits", report.cache_stats.hits)
                rec.count(f"cache.{label}.misses", report.cache_stats.misses)
                rec.count(f"cache.{label}.stores", report.cache_stats.stores)
        self.last_report = report
        return [results[keys[job]] for job in jobs]

    def _simulate(self, missing: Sequence[str],
                  cells: Dict[str, Tuple[Job, _CellPayload]]
                  ) -> Iterator[Tuple[str, RunResult]]:
        """Simulate the ``missing`` keys; yields each as it finishes.

        Serially in-process (in ``missing`` order, sharing memoized
        traces) with one worker, otherwise over a process pool in
        completion order.
        """
        rec = self.recorder
        workers = min(self.jobs, len(missing))
        if workers > 1:
            with multiprocessing.Pool(processes=workers) as pool:
                for key, result, start, end, pid in pool.imap_unordered(
                        _simulate_cell_timed,
                        [(key, cells[key][1]) for key in missing]):
                    if rec is not None:
                        rec.wall_span(self._worker_tid(pid), "job", start,
                                      end, self._job_args(cells[key][0], pid))
                    yield key, result
            return
        for key in missing:
            job, (config, _, seed, warmup_fraction, engine) = cells[key]
            trace = self.trace_for(job.workload, seed,
                                   num_threads=config.num_cores)
            start = time.time() if rec is not None else 0.0
            result = simulate(config, trace, warmup_fraction=warmup_fraction,
                              engine=engine)
            if rec is not None:
                rec.wall_span(0, "job", start, time.time(),
                              self._job_args(job, os.getpid()))
            yield key, result
