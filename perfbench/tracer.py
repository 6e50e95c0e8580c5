"""Layer attribution by wrapping the program's public functions.

The program is not modified.  A :class:`Tracer` replaces public
functions and methods of each layer with timing wrappers for the
duration of a ``with`` block, and restores them on exit.  Every wrapped
call is a span; a layer's *self time* is the time inside its spans minus
the time inside the spans they contain, so the self times of all layers
add up exactly to the time covered by outermost spans.

Two depths exist:

``detail=False`` (the timed runs)
    only cell-level calls are wrapped -- plan compilation and execution,
    the campaign executor, cache calls, trace builds and each cell's
    simulate call -- a few hundred calls per plan, which is what splits
    the end-to-end time by controller kind and trace build.

``detail=True`` (the traced run)
    additionally wraps the simulator's hot paths: the engine's calls into
    a core (``StepEvent.fire``) and into controller callbacks, the store
    buffer, every controller's ``process_op``/``at_trace_end``/
    ``on_external_conflict``, the memory system's access paths, the
    ``CacheArray`` and the ``LatencyModel``.  Each cell is simulated
    through the public ``repro.api.simulate`` with a ``TraceRecorder``,
    whose counters are kept and the recorder dropped.

Attribution rules:

* Controller helpers in ``consistency/base.py`` are not wrapped, so their
  time is charged to the controller that calls them: the conventional
  controllers' to ``consistency``, the InvisiFence and ASO controllers'
  to ``core``.
* Controller callbacks fired by the event queue (commit checks, deferred
  aborts) are charged to the layer whose source defines the callback.
* Cache-set and block helpers that are not ``CacheArray`` methods, and
  the L2 and directory models, are charged to their caller (``coherence``).
* Generator methods (``CacheArray.blocks``) are not wrapped: their body
  runs while the caller iterates, so it is charged to the caller.

Spans at cell level and above are kept in memory as records and written
out at the end of a run; spans below cell level, millions per plan, are
aggregated in place into per-(layer, controller kind) self times and
per-name call counts.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

#: Package (directory under ``repro/``) -> layer.
LAYER_OF_PACKAGE = {
    "trace": "trace", "workloads": "trace", "scenarios": "trace",
    "engine": "engine", "cpu": "cpu", "consistency": "consistency",
    "core": "core", "aso": "core", "coherence": "coherence",
    "memory": "memory", "interconnect": "interconnect",
    "campaign": "campaign", "studies": "studies", "experiments": "studies",
}
LAYERS = ("trace", "engine", "cpu", "consistency", "core", "coherence",
          "memory", "interconnect", "campaign", "studies")
SIMULATOR_LAYERS = ("engine", "cpu", "consistency", "core", "coherence",
                    "memory", "interconnect")

#: Span names whose per-call durations are kept (for medians).
_TIMED_CALLS = ("cache_key", "ResultCache.get", "ResultCache.put")

#: Counters taken from each cell's TraceRecorder.
RECORDER_COUNTERS = ("coherence.l1_hits", "coherence.l1_misses",
                     "coherence.transactions", "coherence.invalidations",
                     "coherence.conflicts")

_MISSING = object()


def _layer_of_file(path: str) -> str:
    parts = Path(path).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 2 < len(parts):
            return LAYER_OF_PACKAGE.get(parts[index + 1], "engine")
    return "engine"


def _public_methods(cls) -> List[str]:
    """Public plain methods of ``cls`` defined in the program's sources."""
    names = []
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro."):
            continue
        for name, value in vars(klass).items():
            if name.startswith("_") or name in names:
                continue
            if inspect.isfunction(value) \
                    and not inspect.isgeneratorfunction(value):
                names.append(name)
    return names


class Tracer:
    """Wraps layer entry points while active and aggregates their spans."""

    def __init__(self, detail: bool) -> None:
        self.detail = detail
        #: controller kind of the cell being simulated (None outside cells).
        self.kind: Optional[str] = None
        #: (layer, kind) -> self seconds.
        self.self_s: Dict[tuple, float] = defaultdict(float)
        #: span name -> total seconds (inclusive) and call count.
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: Dict[str, List[float]] = {n: [] for n in _TIMED_CALLS}
        #: cell-level and coarser spans: (name, layer, start, end, depth).
        self.spans: List[tuple] = []
        #: seconds covered by outermost spans.
        self.root_s = 0.0
        #: counts from RunResults and recorders, summed over cells.
        self.counts: Counter = Counter()
        #: cache keys written, in order (exactly-once accounting).
        self.put_keys: List[str] = []
        #: identities of the traces built, in order.
        self.trace_ids: List[tuple] = []
        #: host speed samples taken before each cell (timed runs only) and
        #: the seconds they took, which the caller takes out of pass times.
        self.speed: List[float] = []
        self.speed_s = 0.0
        self._stack: List[float] = []
        self._patches: List[tuple] = []

    # -- the span wrapper ----------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, keep: bool):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        durations = self.durations.get(name)
        spans = self.spans

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer, tracer.kind] += elapsed - stack.pop()
                total_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.root_s += elapsed
                if durations is not None:
                    durations.append(elapsed)
                if keep:
                    spans.append((name, layer, start, start + elapsed,
                                  len(stack)))

        span.__wrapped__ = fn
        return span

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, attr: str, layer: str, keep: bool = False):
        fn = getattr(cls, attr)
        fn = getattr(fn, "__wrapped__", fn)
        self._set(cls, attr,
                  self._wrap(fn, f"{cls.__name__}.{attr}", layer, keep))

    def _wrap_function(self, module: str, attr: str, layer: str,
                       inner=None) -> None:
        """Wrap a function in every program module that bound it by name.

        ``inner``, when given, decorates the function inside the span.
        """
        fn = getattr(sys.modules[module], attr)
        span = self._wrap(inner(fn) if inner else fn, attr, layer, keep=True)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and mod is not None and vars(mod).get(attr) is fn:
                self._set(mod, attr, span)

    # -- cells -----------------------------------------------------------------

    def _cell_simulate(self):
        """The campaign's per-cell simulate call, via the public simulate."""
        from repro.api import simulate
        from repro.obs.recorder import TraceRecorder

        from harness import calibrate
        from plan import controller_kind

        tracer = self
        timed = self._wrap(simulate, "simulate", "engine", keep=True)

        def cell(config, trace, **options):
            if not tracer.detail:
                start = time.perf_counter()
                tracer.speed.append(calibrate())
                tracer.speed_s += time.perf_counter() - start
            options["recorder"] = TraceRecorder() if tracer.detail else None
            tracer.kind = controller_kind(config)
            try:
                result = timed(config, trace, **options)
            finally:
                kind, tracer.kind = tracer.kind, None
            tracer._note_cell(trace, result, options["recorder"])
            return result

        return cell

    def _note_cell(self, trace, result, rec) -> None:
        counts = self.counts
        counts["cells"] += 1
        counts["ops"] += trace.total_ops()
        counts["events"] += result.events_processed
        total = result.aggregate()
        for name in ("speculations", "commits", "aborts", "sb_drain",
                     "sb_full", "violation"):
            counts[name] += getattr(total, name)
        if rec is not None:
            for name in RECORDER_COUNTERS:
                counts[name] += rec.counters.get(name, 0)

    def _note_put(self, fn):
        keys = self.put_keys

        def put(cache, key, result):
            keys.append(key)
            return fn(cache, key, result)

        return put

    def _note_build(self, fn):
        ids = self.trace_ids

        def build_trace(name_or_spec, num_threads, ops_per_thread=None,
                        seed=0):
            ids.append((getattr(name_or_spec, "name", name_or_spec),
                        num_threads, ops_per_thread, seed))
            return fn(name_or_spec, num_threads,
                      ops_per_thread=ops_per_thread, seed=seed)

        return build_trace

    def _wrap_callbacks(self) -> None:
        """Controller callbacks fired by the event queue, by defining layer."""
        from repro.engine.events import CallbackEvent

        tracer = self
        layers: Dict[object, object] = {}

        def fire(event, now):
            callback = event.callback
            code = getattr(callback, "__code__", None) \
                or callback.__func__.__code__
            span = layers.get(code)
            if span is None:
                layer = _layer_of_file(code.co_filename)
                span = layers[code] = tracer._wrap(
                    lambda cb, t: cb(t), f"callback.{layer}", layer,
                    keep=False)
            span(callback, now)

        self._set(CallbackEvent, "fire", fire)

    # -- activation --------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import repro.api
        import repro.campaign.executor as executor
        from repro.campaign.cache import ResultCache
        from repro.campaign.executor import CampaignExecutor
        from repro.campaign.queue import QueueWorker
        from repro.studies.plan import StudyPlan
        from repro.trace.trace import Trace

        self._set(ResultCache, "put", self._note_put(ResultCache.put))
        self._wrap_function("repro.workloads.registry", "build_trace",
                            "trace", inner=self._note_build)
        self._wrap_method(Trace, "compiled", "trace")
        self._wrap_function("repro.campaign.cache", "cache_key", "campaign")
        for attr in ("get", "put", "contains", "try_claim"):
            self._wrap_method(ResultCache, attr, "campaign", keep=True)
        self._wrap_method(CampaignExecutor, "run", "campaign", keep=True)
        self._wrap_method(QueueWorker, "drain", "campaign", keep=True)
        self._wrap_function("repro.studies.plan", "compile_plan", "studies")
        self._wrap_method(StudyPlan, "execute", "studies", keep=True)
        self._wrap_method(repro.api.PlanExecution, "results", "studies",
                          keep=True)
        self._set(executor, "simulate", self._cell_simulate())
        if self.detail:
            self._wrap_simulator()
        return self

    def _wrap_simulator(self) -> None:
        from repro.aso.controller import ASOController
        from repro.coherence.memory_system import MemorySystem
        from repro.consistency.conventional import ConventionalController
        from repro.core.continuous import InvisiFenceContinuous
        from repro.core.selective import InvisiFenceSelective
        from repro.cpu.core import Core
        from repro.cpu.store_buffer import (
            CoalescingStoreBuffer,
            FIFOStoreBuffer,
            StoreBufferBase,
        )
        from repro.engine.events import StepEvent
        from repro.engine.simulator import Simulator
        from repro.interconnect.latency import LatencyModel
        from repro.memory.cache import CacheArray

        self._wrap_method(Simulator, "run", "engine")
        self._wrap_method(StepEvent, "fire", "cpu")
        self._wrap_method(Core, "rollback", "cpu")
        self._wrap_callbacks()
        for cls in (StoreBufferBase, FIFOStoreBuffer, CoalescingStoreBuffer):
            for attr in _public_methods(cls):
                if attr in vars(cls):
                    self._wrap_method(cls, attr, "cpu")
        for cls, layer in ((ConventionalController, "consistency"),
                           (InvisiFenceSelective, "core"),
                           (InvisiFenceContinuous, "core"),
                           (ASOController, "core")):
            for attr in ("process_op", "at_trace_end", "on_external_conflict"):
                self._wrap_method(cls, attr, layer)
        for attr in ("access", "load_hit_time", "store_hit_time",
                     "is_write_hit", "contains"):
            self._wrap_method(MemorySystem, attr, "coherence")
        for attr in _public_methods(CacheArray):
            self._wrap_method(CacheArray, attr, "memory")
        for attr in _public_methods(LatencyModel):
            self._wrap_method(LatencyModel, attr, "interconnect")

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading out -------------------------------------------------------------

    def layer_self(self, layer: str, kind=_MISSING) -> float:
        """Self seconds of ``layer``, for one controller kind or all."""
        return sum(seconds for (name, k), seconds in self.self_s.items()
                   if name == layer and (kind is _MISSING or k == kind))

    def kind_s(self, kind: str) -> float:
        """Seconds inside cells of ``kind``, trace compilation excluded."""
        return sum(seconds for (layer, k), seconds in self.self_s.items()
                   if k == kind and layer != "trace")

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[name] for name in names)

    def state(self) -> dict:
        """Plain-data aggregates (merged across worker processes)."""
        return {
            "self_s": [[layer, kind, seconds]
                       for (layer, kind), seconds in self.self_s.items()],
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "durations": self.durations,
            "root_s": self.root_s,
            "counts": dict(self.counts),
            "put_keys": self.put_keys,
            "trace_ids": [list(ident) for ident in self.trace_ids],
            "spans": self.spans,
            "speed": self.speed,
            "speed_s": self.speed_s,
        }

    def merge(self, state: dict) -> None:
        for layer, kind, seconds in state["self_s"]:
            self.self_s[layer, kind] += seconds
        for name, seconds in state["total_s"].items():
            self.total_s[name] += seconds
        self.calls.update(state["calls"])
        for name, values in state["durations"].items():
            self.durations.setdefault(name, []).extend(values)
        self.root_s += state["root_s"]
        self.counts.update(state["counts"])
        self.put_keys.extend(state["put_keys"])
        self.trace_ids.extend(tuple(ident) for ident in state["trace_ids"])
        self.spans.extend(tuple(span) for span in state["spans"])
        self.speed.extend(state["speed"])
        self.speed_s += state["speed_s"]
