#!/usr/bin/env python3
"""The repository benchmark: what reproducing the paper's evaluation costs.

All ten registered studies compile into one plan (see :mod:`plan`), and
each workload runs that plan a different way:

``studies-cold``
    serially into an empty directory cache, then every study's result
    object -- what a reproduction costs;
``studies-warm``
    the same plan against a cache filled during set-up, pass after pass,
    each pass with a fresh runner so every cell is a cache read;
``queue-drain``
    two ``QueueWorker`` processes drain the plan through one fresh sqlite
    file, as two ``repro worker`` processes would.

Every pass checks each unique cell's ``RunResult`` against the reference
digests in ``digests.json``; a mismatch, a cell lost from the cache, and
on queue-drain a cell simulated by more than one worker, each count as a
failed operation.  With ``--trace 1`` the run measures an untraced pass,
then a traced one (see :mod:`tracer`), and reports per-layer figures.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload studies-cold --seed 3 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object; BENCHMARK.json
describes every metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import harness
import plan as bench_plan
from harness import median, percentile, timed
from tracer import LAYERS, SIMULATOR_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
WORK = harness.ROOT / ".perfbench"

WORKLOADS = ("studies-cold", "studies-warm", "queue-drain")
QUEUE_WORKERS = 2
#: Set-up is measured this many times in fresh interpreters, plus once in
#: this process; the median is reported.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class Run:
    """One benchmark run: its set-up, passes and operation tallies."""

    def __init__(self, args, seed: int, work: Path) -> None:
        self.args = args
        self.seed = seed
        self.work = work
        self.digests = bench_plan.load_digests(seed)
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.lost = 0
        self.duplicates = 0
        self.setup_s = 0.0
        self.compiled = None
        self.cache = None

    # -- set-up ----------------------------------------------------------------

    def set_up(self, cache_url: str) -> None:
        seconds, self.compiled, self.cache = harness.set_up(self.seed,
                                                            cache_url)
        probes = 0 if self.args.trace else SETUP_PROBES
        samples = [seconds] + [self.child("setup", cache_url)["setup_s"]
                               for _ in range(probes)]
        self.setup_s = median(samples)

    def child_command(self, mode: str, cache_url: str, *extra: str):
        return [sys.executable, str(HERE / "child.py"), mode,
                "--seed", str(self.seed), "--cache", cache_url, *extra]

    def child(self, mode: str, cache_url: str) -> dict:
        proc = subprocess.run(self.child_command(mode, cache_url),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=harness.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"child {mode} failed:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # -- checks ------------------------------------------------------------------

    def check(self, execution, simulated_ok: bool = True) -> None:
        """Compare every unique cell with its digest; tally the outcome."""
        cells = len(self.compiled.unique_cells)
        mismatches = harness.check_cells(execution, self.compiled,
                                         self.digests)
        self.attempted += cells
        self.mismatches += mismatches
        self.failed += mismatches
        if not simulated_ok:
            # A cell the cache should have served was simulated instead.
            lost = execution.report.simulated
            self.lost += lost
            self.failed += lost

    # -- passes ------------------------------------------------------------------

    def cold_pass(self, index: int, detail: bool):
        from repro.api import open_cache

        cache = self.cache if index == 0 \
            else open_cache(f"dir://{self.work}/cold-{index}")
        with Tracer(detail=detail) as tracer:
            wall, execution = timed(harness.execute, self.compiled, cache)
        self.check(execution)
        shutil.rmtree(self.work / f"cold-{index}", ignore_errors=True)
        return wall - tracer.speed_s, tracer, None

    def warm_pass(self, speed: List[float]) -> float:
        """One pass over the warm cache; appends a speed sample taken first."""
        speed.append(harness.calibrate())
        wall, execution = timed(harness.execute, self.compiled, self.cache)
        self.check(execution, simulated_ok=False)
        return wall

    def drain_pass(self, index: int, detail: bool):
        """Two worker processes drain the plan into a fresh sqlite file."""
        from repro.api import open_cache

        url = f"sqlite://{self.work}/queue-{index}.sqlite"
        command = self.child_command("worker", url, "--trace",
                                     str(int(detail)))
        procs = [subprocess.Popen(command + ["--worker-id", f"bench-{w}"],
                                  stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  cwd=harness.ROOT)
                 for w in range(QUEUE_WORKERS)]
        try:
            for proc in procs:
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("queue worker failed to start:\n"
                                       + proc.communicate()[1][-4000:])
            for proc in procs:
                proc.stdin.write("go\n")
                proc.stdin.flush()
            outputs = []
            for proc in procs:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
                if proc.returncode != 0:
                    raise RuntimeError(f"queue worker failed:\n{err[-4000:]}")
                outputs.append(json.loads(out.strip().splitlines()[-1]))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        tracer = Tracer(detail=detail)
        for out in outputs:
            tracer.merge(out["tracer"])
        # Each worker spent speed_s / QUEUE_WORKERS (on average) calibrating.
        wall = max(o["end"] for o in outputs) \
            - min(o["start"] for o in outputs) - tracer.speed_s / QUEUE_WORKERS
        duplicates = len(tracer.put_keys) - len(set(tracer.put_keys))
        self.duplicates += duplicates
        self.failed += duplicates
        # Read the drained store back through a fresh runner: a lost cell
        # is simulated here (and counted), every stored body is checked.
        self.check(harness.execute(self.compiled, open_cache(url)),
                   simulated_ok=False)
        queue = {
            "claims": sum(o["report"]["simulated"] for o in outputs),
            "lease_waits": sum(o["report"]["lease_waits"] for o in outputs),
            "duplicates": duplicates,
            "imbalance_s": max(o["end"] for o in outputs)
            - min(o["end"] for o in outputs),
            "busy_s": sum(o["end"] - o["start"] for o in outputs),
        }
        return wall, tracer, queue


# -- per-layer figures ------------------------------------------------------------

_PROCESS_OP = ("ConventionalController.process_op",)
_SPEC_PROCESS_OP = ("InvisiFenceSelective.process_op",
                    "InvisiFenceContinuous.process_op",
                    "ASOController.process_op")
_MEMORY_SYSTEM = tuple(f"MemorySystem.{name}" for name in (
    "access", "load_hit_time", "store_hit_time", "is_write_hit", "contains"))


def layer_metrics(tracer: Tracer, passes: int, busy_s: float,
                  overhead: float, pass_p90_ms: float,
                  queue=None) -> Dict[str, float]:
    """Per-layer figures of ``passes`` traced passes, per pass.

    ``busy_s`` is the traced process-seconds of those passes: the pass
    wall time, or the summed drain time of the queue workers.
    """
    n = passes
    calls, counts = tracer.calls, tracer.counts
    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self(layer) / n
    for layer in SIMULATOR_LAYERS:
        for kind in bench_plan.KINDS:
            m[f"{layer}.self_s.{kind}"] = tracer.layer_self(layer, kind) / n

    def ratio(num, den, empty=0.0):
        return num / den if den else empty

    ids = tracer.trace_ids
    m["trace.builds"] = len(ids) / n
    m["trace.useful_ratio"] = ratio(len(set(ids)), len(ids), 1.0)
    ops = counts["ops"]
    m["engine.events"] = counts["events"] / n
    m["engine.events_per_op"] = ratio(counts["events"], ops)
    conventional = tracer.calls_of(*_PROCESS_OP)
    speculative = tracer.calls_of(*_SPEC_PROCESS_OP)
    processed = conventional + speculative
    steps = calls["StepEvent.fire"]
    m["cpu.steps"] = steps / n
    m["cpu.ops_per_step"] = ratio(processed, steps)
    m["cpu.replay_ratio"] = ratio(processed - ops, processed)
    m["consistency.process_op_calls"] = conventional / n
    m["consistency.sb_drain.cycles"] = counts["sb_drain"] / n
    m["consistency.sb_full.cycles"] = counts["sb_full"] / n
    m["core.process_op_calls"] = speculative / n
    for name in ("speculations", "commits", "aborts"):
        m[f"core.{name}"] = counts[name] / n
    m["core.commit_ratio"] = ratio(counts["commits"], counts["speculations"])
    m["core.violation.cycles"] = counts["violation"] / n
    m["coherence.calls"] = tracer.calls_of(*_MEMORY_SYSTEM) / n
    for name in ("l1_hits", "l1_misses", "transactions", "invalidations",
                 "conflicts"):
        m[f"coherence.{name}"] = counts[f"coherence.{name}"] / n
    m["memory.lookups"] = calls["CacheArray.lookup"] / n
    m["memory.installs"] = calls["CacheArray.install"] / n
    m["memory.flash_ops"] = tracer.calls_of(
        "CacheArray.flash_clear_spec_bits",
        "CacheArray.flash_invalidate_spec_written") / n
    m["interconnect.traversals"] = calls["LatencyModel.traverse"] / n
    for name, span in (("key", "cache_key"), ("get", "ResultCache.get"),
                       ("put", "ResultCache.put")):
        m[f"campaign.{name}_ms.p50"] = median(tracer.durations[span]) * 1e3
    m["pass_ms.p90"] = pass_p90_ms
    m["campaign.cells_simulated"] = counts["cells"] / n
    m["campaign.useful_ratio"] = ratio(len(set(tracer.put_keys)),
                                       counts["cells"], 1.0)
    queue = queue or {}
    for name in ("claims", "lease_waits", "duplicates", "imbalance_s"):
        m[f"campaign.queue.{name}"] = queue.get(name, 0) / n
    m["studies.compile_s"] = tracer.total_s["compile_plan"] / n
    m["studies.results_s"] = tracer.total_s["PlanExecution.results"] / n
    m["tracing.overhead_frac"] = overhead
    m["tracing.outside_s"] = (busy_s - tracer.root_s) / n
    return m


def traced_metrics(run: Run, tracer: Tracer, passes: int, busy_s: float,
                   overhead: float, walls: List[float],
                   queue=None) -> Dict[str, float]:
    """Write the traced passes' spans out; return their per-layer figures."""
    data = {
        "spans": [{"name": s[0], "layer": s[1], "start": s[2], "end": s[3],
                   "depth": s[4]} for s in tracer.spans],
        "self_s": [[layer, kind, seconds]
                   for (layer, kind), seconds in sorted(
                       tracer.self_s.items(), key=str)],
        "calls": dict(sorted(tracer.calls.items())),
        "total_s": dict(sorted(tracer.total_s.items())),
    }
    name = f"trace-{run.args.workload}-seed{run.args.seed}.json"
    (WORK / name).write_text(json.dumps(data), encoding="utf-8")
    return layer_metrics(tracer, passes, busy_s, overhead,
                         percentile(walls, 90) * 1e3, queue)


# -- workloads -------------------------------------------------------------------

def untraced_passes(run: Run, one_pass):
    """Passes until ``--seconds`` have passed (one with ``--trace 1``).

    Returns the pass walls in host seconds, the same scaled to the
    reference speed by the speed samples taken between the pass's cells,
    and each pass's simulate-call figures.
    """
    raw: List[float] = []
    walls: List[float] = []
    figures: List[Dict[str, float]] = []
    deadline = time.perf_counter() + run.args.seconds
    while not raw or (time.perf_counter() < deadline and not run.args.trace):
        wall, tracer, _ = one_pass(len(raw), detail=False)
        raw.append(wall)
        walls.append(wall * harness.speed_factor(tracer.speed))
        figures.append(harness.simulated_metrics(tracer))
    return raw, walls, figures


def timed_metrics(walls: List[float], figures: List[Dict[str, float]],
                  rss_mb: float) -> Dict[str, float]:
    """End-to-end figures: medians over the passes, mean pass as wall_s."""
    metrics = {name: median([f[name] for f in figures]) for name in figures[0]}
    metrics.update({"wall_s": sum(walls) / len(walls),
                    "pass_ms.p50": median(walls) * 1e3,
                    "peak_rss_mb": rss_mb})
    return metrics


def studies_cold(run: Run) -> Dict[str, float]:
    run.set_up(f"dir://{run.work}/cold-0")
    raw, walls, figures = untraced_passes(run, run.cold_pass)
    if run.args.trace:
        wall, tracer, _ = run.cold_pass(len(raw), detail=True)
        return traced_metrics(run, tracer, 1, wall, wall / raw[0] - 1, raw)
    return timed_metrics(walls, figures, harness.peak_rss_mb())


def studies_warm(run: Run) -> Dict[str, float]:
    url = f"dir://{run.work}/warm"
    run.set_up(url)
    filled = run.child("plan", url)
    # The fill makes two serial passes, so the warm passes get half of
    # --seconds to keep a run about as long as a studies-cold run; with
    # --trace 1 that half is split between untraced and traced passes.
    window = run.args.seconds / 4 if run.args.trace else run.args.seconds / 2
    raw: List[float] = []
    speed: List[float] = []
    deadline = time.perf_counter() + window
    while not raw or time.perf_counter() < deadline:
        raw.append(run.warm_pass(speed))
    if run.args.trace:
        traced: List[float] = []
        deadline = time.perf_counter() + window
        with Tracer(detail=True) as tracer:
            while not traced or time.perf_counter() < deadline:
                traced.append(run.warm_pass([]))
        return traced_metrics(run, tracer, len(traced), sum(traced),
                              median(traced) / median(raw) - 1, raw)
    # The passes simulate nothing: the simulate-call figures are the fill's.
    figures = []
    for state in filled["passes"]:
        tracer = Tracer(detail=False)
        tracer.merge(state)
        figures.append(harness.simulated_metrics(tracer))
    factor = harness.speed_factor(speed)
    return timed_metrics([wall * factor for wall in raw], figures,
                         harness.peak_rss_mb())


def queue_drain(run: Run) -> Dict[str, float]:
    run.set_up(f"sqlite://{run.work}/queue-0.sqlite")
    raw, walls, figures = untraced_passes(run, run.drain_pass)
    if run.args.trace:
        wall, tracer, queue = run.drain_pass(len(raw), detail=True)
        return traced_metrics(run, tracer, 1, queue["busy_s"],
                              wall / raw[0] - 1, raw, queue)
    return timed_metrics(walls, figures,
                         max(harness.peak_rss_mb(),
                             harness.peak_rss_mb(children=True)))


WORKLOAD_RUNS = {"studies-cold": studies_cold, "studies-warm": studies_warm,
                 "queue-drain": queue_drain}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=bench_plan.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seed = bench_plan.plan_seed(args.seed)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        run = Run(args, seed, work)
        metrics = WORKLOAD_RUNS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        units = metric_units("per_layer")
    else:
        units = metric_units("end_to_end")
        metrics["setup_s"] = run.setup_s
    print(f"workload {args.workload}, seed argument {args.seed}, "
          f"plan seed {seed}, {len(run.compiled.unique_cells)} unique cells")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed {run.failed} of {run.attempted} cell checks: "
          f"{run.mismatches} digest mismatches, {run.lost} lost, "
          f"{run.duplicates} simulated twice")
    print(json.dumps({
        "correct": run.mismatches == 0 and run.lost == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
