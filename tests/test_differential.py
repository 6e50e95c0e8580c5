"""Differential equivalence: the two engines must agree byte for byte.

The whole-stack kernel refactor (compiled traces, batched steps, typed
events, allocation-free coherence hit path) is gated by one guarantee:
``simulate(..., engine="fast")`` and ``simulate(..., engine="reference")``
produce *byte-identical* ``RunResult`` JSON -- every counter, every
per-phase breakdown, every events-processed count.  This suite asserts it
across every built-in workload preset, every registered scenario (at 2
and 4 cores), and the four controller kinds, every ordering model on every workload,
plus warmup, single-core and rollback-heavy corners, and that campaign
cache keys/entries are engine-independent.
"""

import pytest

from repro.campaign import Job, ResultCache
from repro.campaign.cache import cache_key
from repro.campaign.executor import CampaignExecutor
from repro.engine.simulator import simulate
from repro.engine.system import build_system
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSettings, make_config
from repro.scenarios.registry import scenario_names
from repro.workloads.presets import workload_names
from repro.workloads.registry import build_trace, resolve_spec

#: one configuration per controller kind (conventional / selective /
#: continuous speculation / ASO).
CONTROLLER_CONFIGS = ("sc", "invisi_sc", "invisi_cont", "aso_sc")

#: the weaker ordering models, conventional and selectively speculative:
#: their store buffers drain under different rules than SC's.
MODEL_CONFIGS = ("tso", "rmo", "invisi_tso", "invisi_rmo")

_CORES = 2
_OPS = 300

ALL_WORKLOADS = tuple(workload_names()) + tuple(scenario_names())


def _settings(ops: int = _OPS, warmup: float = 0.0) -> ExperimentSettings:
    return ExperimentSettings(num_cores=_CORES, ops_per_thread=ops,
                              seeds=(3,), warmup_fraction=warmup)


def _run_both(config, trace, warmup: float = 0.0):
    fast = simulate(config, trace, warmup_fraction=warmup, engine="fast")
    ref = simulate(config, trace, warmup_fraction=warmup, engine="reference")
    return fast, ref


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=20, seed=1)
        config = make_config("sc", _settings())
        with pytest.raises(ConfigurationError):
            build_system(config, trace, engine="turbo")

    def test_unknown_engine_message_names_the_valid_kinds(self):
        """The error must tell the user what *is* accepted."""
        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=20, seed=1)
        config = make_config("sc", _settings())
        for entry_point in (
                lambda: simulate(config, trace, engine="turbo"),
                lambda: build_system(config, trace, engine="turbo")):
            with pytest.raises(ConfigurationError) as excinfo:
                entry_point()
            message = str(excinfo.value)
            assert "turbo" in message
            assert "fast|reference" in message

    def test_simulate_rejects_unknown_engine_before_building(self):
        """Validation is eager: no partially wired system, no simulation."""
        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=20, seed=1)
        config = make_config("sc", _settings())
        with pytest.raises(ConfigurationError):
            simulate(config, trace, engine="FAST")  # names are exact

    def test_executor_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(_settings(), engine="turbo")

    def test_fast_engine_batches_and_reference_does_not(self):
        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=20, seed=1)
        config = make_config("sc", _settings())
        fast_system = build_system(config, trace, engine="fast")
        ref_system = build_system(config, trace, engine="reference")
        assert all(core.batching for core in fast_system.cores)
        assert not any(core.batching for core in ref_system.cores)
        assert fast_system.memory.fast
        assert not ref_system.memory.fast


#: (workload, cores): every preset and scenario at the suite's two cores,
#: plus every scenario -- the contended corner: phase-spliced storms,
#: handoffs, migratory sharing -- at four cores.
IDENTITY_CELLS = ([pytest.param(w, _CORES, id=w) for w in ALL_WORKLOADS]
                  + [pytest.param(w, 4, id=f"{w}-4c")
                     for w in scenario_names()])


@pytest.mark.parametrize("config_name", CONTROLLER_CONFIGS)
@pytest.mark.parametrize("workload,cores", IDENTITY_CELLS)
class TestByteIdenticalResults:
    def test_run_results_byte_identical(self, config_name, workload, cores):
        """Every preset and scenario, every controller kind."""
        trace = build_trace(workload, num_threads=cores,
                            ops_per_thread=_OPS, seed=3)
        settings = ExperimentSettings(num_cores=cores, ops_per_thread=_OPS,
                                      seeds=(3,), warmup_fraction=0.0)
        config = make_config(config_name, settings)
        fast, ref = _run_both(config, trace)
        assert fast.to_json() == ref.to_json()


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
@pytest.mark.parametrize("config_name", MODEL_CONFIGS)
class TestOrderingModelsByteIdentical:
    def test_run_results_byte_identical(self, config_name, workload):
        """TSO / RMO, with and without speculation, on every workload."""
        trace = build_trace(workload, num_threads=_CORES,
                            ops_per_thread=_OPS, seed=3)
        config = make_config(config_name, _settings())
        fast, ref = _run_both(config, trace)
        assert fast.to_json() == ref.to_json()


@pytest.mark.parametrize("config_name", CONTROLLER_CONFIGS + MODEL_CONFIGS)
class TestEquivalenceCorners:
    def test_with_warmup_fraction(self, config_name):
        """Warmup resets counters mid-run; both paths must agree."""
        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=7)
        config = make_config(config_name, _settings(warmup=0.25))
        fast, ref = _run_both(config, trace, warmup=0.25)
        assert fast.to_json() == ref.to_json()

    def test_contended_scenario_with_warmup(self, config_name):
        """Rollback-heavy false sharing exercises abort/replay batching."""
        trace = build_trace("false-sharing-storm", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=11)
        config = make_config(config_name, _settings(warmup=0.2))
        fast, ref = _run_both(config, trace, warmup=0.2)
        assert fast.to_json() == ref.to_json()

    def test_multiple_seeds(self, config_name):
        config = make_config(config_name, _settings())
        for seed in (1, 2, 5):
            trace = build_trace("ocean", num_threads=_CORES,
                                ops_per_thread=200, seed=seed)
            fast, ref = _run_both(config, trace)
            assert fast.to_json() == ref.to_json()

    def test_single_core(self, config_name):
        """A single core never sees remote coherence traffic."""
        settings = ExperimentSettings(num_cores=1, ops_per_thread=600,
                                      seeds=(3,), warmup_fraction=0.0)
        trace = build_trace("barnes", num_threads=1,
                            ops_per_thread=600, seed=3)
        config = make_config(config_name, settings)
        fast, ref = _run_both(config, trace)
        assert fast.to_json() == ref.to_json()


class TestSharerInvalidation:
    def test_mid_run_directory_invalidation_of_spinning_sharer(self):
        """A remote store invalidates a line another core keeps hitting.

        Core 0 takes line 0 SHARED and then spins on it; core 1 wakes
        later, reads the line and stores to it, so the directory
        invalidates core 0's copy mid-run and core 0's next load misses.
        The fast hit path must see the downgrade exactly when the
        reference kernel does.
        """
        from repro.obs.recorder import TraceRecorder
        from repro.trace.ops import compute, load, store
        from repro.trace.trace import MultiThreadedTrace, Trace

        spin = [load(0), compute(1)] * 120
        # The intruder reads the line first so both cores hold it SHARED
        # (a lone reader is tracked as an EXCLUSIVE owner, whose recall
        # is a different directory path); its store then fans out a true
        # sharer invalidation to the spinning core.
        intruder = ([compute(40)] * 3 + [load(0)] + [compute(40)] * 3
                    + [store(0)] + [compute(1)] * 20)
        trace = MultiThreadedTrace(
            [Trace(spin), Trace(intruder + [compute(1)] *
                                (len(spin) - len(intruder)))],
            name="sharer-invalidation")
        settings = ExperimentSettings(num_cores=2,
                                      ops_per_thread=len(spin),
                                      seeds=(3,), warmup_fraction=0.0)
        config = make_config("sc", settings)
        recorder = TraceRecorder()
        fast = simulate(config, trace, engine="fast", recorder=recorder)
        ref = simulate(config, trace, engine="reference")
        assert fast.to_json() == ref.to_json()
        # Vacuous unless the directory really invalidated the sharer.
        assert recorder.counters["coherence.invalidations"] > 0


@pytest.mark.parametrize("config_name", ("sc", "rmo"))
class TestRaggedThreads:
    def test_ragged_length_threads(self, config_name):
        """Threads of different lengths: cores retire while others run."""
        from repro.trace.trace import MultiThreadedTrace

        rows = [build_trace("apache", num_threads=_CORES,
                            ops_per_thread=ops, seed=5)[i]
                for i, ops in enumerate((60, 300))]
        trace = MultiThreadedTrace(rows, name="ragged")
        config = make_config(config_name, _settings())
        fast, ref = _run_both(config, trace)
        assert fast.to_json() == ref.to_json()


class TestSpeculativeCountersMatch:
    def test_aborts_and_commits_identical_under_contention(self):
        """The equivalence covers speculation activity, not just runtime."""
        trace = build_trace("false-sharing-storm", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=13)
        config = make_config("invisi_cont", _settings())
        fast, ref = _run_both(config, trace)
        fast_total, ref_total = fast.aggregate(), ref.aggregate()
        assert fast_total.aborts == ref_total.aborts
        assert fast_total.commits == ref_total.commits
        assert fast_total.replayed_ops == ref_total.replayed_ops
        assert fast_total.aborts > 0, "scenario expected to cause rollbacks"


class TestCacheKeyStability:
    def test_cache_key_is_engine_independent(self):
        """The engine is an implementation detail, never a cache dimension."""
        settings = _settings()
        config = make_config("invisi_sc", settings)
        spec = resolve_spec("apache", _OPS)
        key = cache_key(config, spec, seed=3,
                        warmup_fraction=settings.warmup_fraction)
        assert key == cache_key(config, spec, seed=3,
                                warmup_fraction=settings.warmup_fraction)

    def test_cached_entry_bytes_match_reference_result(self, tmp_path):
        """A cache warmed by the fast path serves byte-identical results."""
        settings = _settings()
        cache = ResultCache(tmp_path / "cache")
        executor = CampaignExecutor(settings, jobs=1, cache=cache)
        job = Job("invisi_sc", "apache", 3)
        (fast_result,) = executor.run([job])

        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=3)
        ref = simulate(make_config("invisi_sc", settings), trace,
                       warmup_fraction=settings.warmup_fraction,
                       engine="reference")
        key, _ = executor.resolve(job)
        stored = cache.path_for(key).read_text(
            encoding="utf-8")
        assert fast_result.to_json() == ref.to_json()
        # On-disk cache bytes equal what a reference-path run would store.
        assert stored == ref.to_json()


class TestCampaignEngineIndependence:
    def test_reference_warmed_cache_serves_fast_engine(self, tmp_path):
        """Entries written under reference are hits for fast, bytes equal."""
        settings = _settings()
        cache = ResultCache(tmp_path / "cache")
        ref_exec = CampaignExecutor(settings, jobs=1, cache=cache,
                                    engine="reference")
        jobs = [Job("sc", "apache", 3), Job("sc", "barnes", 3),
                Job("invisi_sc", "apache", 3)]
        ref_results = ref_exec.run(jobs)
        assert ref_exec.last_report.simulated == len(jobs)

        fast_exec = CampaignExecutor(settings, jobs=1, cache=cache,
                                     engine="fast")
        fast_results = fast_exec.run(jobs)
        assert fast_exec.last_report.simulated == 0
        assert fast_exec.last_report.cache_hits == len(jobs)
        for a, b in zip(ref_results, fast_results):
            assert a.to_json() == b.to_json()

    def test_serial_reference_campaign_matches_fast_campaign(self):
        settings = _settings()
        jobs = [Job(c, w, 3) for c in ("sc", "tso")
                for w in ("apache", "ocean")]
        ref = CampaignExecutor(settings, engine="reference").run(jobs)
        fast = CampaignExecutor(settings, engine="fast").run(jobs)
        assert len(ref) == len(fast) == len(jobs)
        for a, b in zip(ref, fast):
            assert a.to_json() == b.to_json()


@pytest.mark.parametrize("config_name", CONTROLLER_CONFIGS)
class TestQueuedInterconnectEquivalence:
    """The opt-in contended interconnect preserves engine equivalence.

    Both kernels issue coherence transactions in the same order, so the
    stateful per-link queues resolve identically; this pins that property
    (and that the contention default stays "none" for every registered
    configuration, which is what keeps the rest of this suite meaningful).
    """

    def test_byte_identical_under_queued_contention(self, config_name):
        from repro.config import resolved_interconnect

        trace = build_trace("false-sharing-storm", num_threads=4,
                            ops_per_thread=_OPS, seed=5)
        base = make_config(config_name, ExperimentSettings(
            num_cores=4, ops_per_thread=_OPS, seeds=(5,),
            warmup_fraction=0.0))
        config = base.replace(interconnect=resolved_interconnect(
            4, hop_latency=base.interconnect.hop_latency,
            contention="queued", link_bandwidth=2))
        fast, ref = _run_both(config, trace)
        assert fast.to_json() == ref.to_json()

    def test_registered_configs_default_contention_free(self, config_name):
        config = make_config(config_name, _settings())
        assert config.interconnect.contention == "none"


@pytest.mark.parametrize("engine", ("fast", "reference"))
@pytest.mark.parametrize("config_name", CONTROLLER_CONFIGS)
class TestTelemetryInvariance:
    """Recording telemetry must never change what is simulated.

    Recorders only observe -- they never schedule events or advance
    clocks -- so a run with a live :class:`TraceRecorder` attached must be
    byte-identical to the same run with telemetry off, on every engine and
    controller kind.  The contended scenario is the interesting case: the
    abort/rollback hooks sit on the exact paths speculation exercises.
    """

    def test_traced_run_byte_identical_to_untraced(self, engine, config_name):
        from repro.obs import TraceRecorder

        trace = build_trace("false-sharing-storm", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=3)
        config = make_config(config_name, _settings(warmup=0.2))
        plain = simulate(config, trace, warmup_fraction=0.2, engine=engine)
        recorder = TraceRecorder()
        traced = simulate(config, trace, warmup_fraction=0.2, engine=engine,
                          recorder=recorder)
        assert plain.to_json() == traced.to_json()
        # The recorder saw the run: at minimum the end-of-run gauges.
        assert recorder.counters

    def test_null_recorder_byte_identical_to_off(self, engine, config_name):
        """The disabled recorder is normalized away at build time."""
        from repro.obs import NullRecorder

        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=7)
        config = make_config(config_name, _settings())
        plain = simulate(config, trace, engine=engine)
        nulled = simulate(config, trace, engine=engine,
                          recorder=NullRecorder())
        assert plain.to_json() == nulled.to_json()
