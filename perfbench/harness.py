"""Pieces shared by the benchmark process and its child processes.

Every function drives the program through its public entry points:
``repro.api.compile_study_plan`` (via :mod:`plan`), ``execute_plan``,
``open_cache`` and ``simulate``, and ``QueueWorker.drain``.  The batch
engine is never selected and ``repro.bench`` is never imported.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Sequence

import plan as bench_plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Median seconds of one :func:`calibrate` call on the machine the bounds
#: were set on (a 2-vCPU VM, Python 3.11).  Every end-to-end host time is
#: scaled to this speed; see :func:`speed_factor`.
REFERENCE_CALIBRATION_S = 0.0021
#: Calibration samples taken after each set-up.
SETUP_SAMPLES = 21


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop is the benchmark's own code, so no change to the program can
    move it: only the host's speed can.  On a shared host that speed
    drifts by 10-20% within a minute, so the benchmark samples it between
    cells and passes, outside every timed region.
    """
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(10_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def speed_factor(samples: Sequence[float]) -> float:
    """Scale from host seconds measured now to reference-speed seconds."""
    return REFERENCE_CALIBRATION_S / median(samples)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return repro


def set_up(seed: int, cache_url: str):
    """Import the program, register studies, compile the plan, open a cache.

    Returns ``(seconds, plan, cache)``; the seconds are the set-up time,
    scaled to the reference speed.
    """
    start = time.perf_counter()
    import_program()
    from repro.api import open_cache

    compiled = bench_plan.build_plan(seed)
    cache = open_cache(cache_url)
    seconds = time.perf_counter() - start
    factor = speed_factor([calibrate() for _ in range(SETUP_SAMPLES)])
    return seconds * factor, compiled, cache


def execute(compiled, cache):
    """One pass of the plan: serial execution, then every study's result."""
    from repro.api import execute_plan

    execution = execute_plan(compiled.specs, compiled.settings, jobs=1,
                             cache=cache)
    execution.results()
    return execution


def check_cells(execution, compiled, digests: Dict[str, str]) -> int:
    """Number of unique cells whose result differs from its digest."""
    mismatches = 0
    for cell in compiled.unique_cells:
        result = execution.runner.runner_for(cell.num_cores).run(
            cell.config_name, cell.workload, cell.seed)
        if bench_plan.digest(result) != digests.get(
                bench_plan.cell_label(cell)):
            mismatches += 1
    return mismatches


def timed(fn, *args):
    """``(seconds, result)`` of one call, after a full collection."""
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB, of this process or its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def simulated_metrics(tracer) -> Dict[str, float]:
    """End-to-end figures of the simulate calls a (cell-level) tracer saw.

    Times are scaled to the reference speed by the tracer's speed samples.
    """
    factor = speed_factor(tracer.speed)
    metrics = {f"kind_s.{kind}": tracer.kind_s(kind) * factor
               for kind in bench_plan.KINDS}
    sim_s = sum(metrics.values())
    metrics["trace_build_s"] = tracer.layer_self("trace") * factor
    metrics["sim_ops_per_s"] = tracer.counts["ops"] / sim_s if sim_s else 0.0
    return metrics
