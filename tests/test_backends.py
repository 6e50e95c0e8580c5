"""Backend conformance, lease claiming, kernel-hash invalidation.

One parameterized suite runs every :class:`CacheBackend` implementation
through the same contract (round-trip, stats, leases), then backend-
specific tests pin the concurrent-writer safety of the sqlite file, the
URL grammar, the kernel-source invalidation scoping, the byte-identity
of a study drained by racing workers versus a serial run, and recovery
from a worker process killed mid-cell or mid-write.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import compile_study_plan, execute_plan, open_cache
from repro.campaign import (
    CampaignExecutor,
    CacheStats,
    DirectoryBackend,
    QueueWorker,
    ResultCache,
    SqliteBackend,
    backend_from_url,
    cache_key,
    expand_jobs,
)
from repro.campaign.versions import (
    SOURCE_GROUPS,
    clear_fingerprint_cache,
    group_fingerprint,
    groups_for,
    kernel_versions,
)
from repro.engine.results import RunResult
from repro.engine.simulator import simulate
from repro.errors import ConfigurationError, ReproError
from repro.experiments.common import ExperimentSettings, make_config
from repro.workloads.registry import build_trace, resolve_spec

SETTINGS = ExperimentSettings.quick(num_cores=2, ops_per_thread=200,
                                    workloads=("apache",))

#: distinct content-hash-shaped keys.
KEYS = ["%08x%s" % (n, "ab" * 28) for n in range(9)]


@pytest.fixture(scope="module")
def tiny_result():
    trace = build_trace("apache", num_threads=2, ops_per_thread=150, seed=7)
    return simulate(make_config("sc", SETTINGS), trace, warmup_fraction=0.2)


def _dir_backend(tmp):
    return DirectoryBackend(tmp / "store")


def _sqlite_backend(tmp):
    return SqliteBackend(tmp / "store.sqlite")


BACKENDS = {"dir": _dir_backend, "sqlite": _sqlite_backend}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    return BACKENDS[request.param](tmp_path)


class TestBackendConformance:
    """Every backend satisfies the same storage + lease contract."""

    def test_round_trip(self, backend, tiny_result):
        key = KEYS[0]
        assert backend.get(key) is None
        assert not backend.contains(key)
        backend.put(key, tiny_result)
        assert backend.contains(key)
        loaded = backend.get(key)
        assert loaded is not None
        assert loaded.to_dict() == tiny_result.to_dict()
        assert len(backend) == 1

    def test_stats_tally_hits_misses_stores(self, backend, tiny_result):
        cache = ResultCache(backend=backend)
        cache.get(KEYS[0])
        cache.put(KEYS[0], tiny_result)
        cache.get(KEYS[0])
        cache.get(KEYS[1])
        assert cache.stats == CacheStats(hits=1, misses=2, stores=1)

    def test_label_names_scheme_and_location(self, backend):
        # recorder counters are named cache.<label>.{hits,misses,stores}.
        scheme, _, location = backend.label.partition(":")
        assert scheme in BACKENDS
        assert location.startswith(str(backend.root if scheme == "dir"
                                       else backend.path))

    def test_clear_removes_everything(self, backend, tiny_result):
        for key in KEYS[:3]:
            backend.put(key, tiny_result)
        assert backend.clear() == 3
        assert len(backend) == 0
        assert backend.get(KEYS[0]) is None

    def test_lease_claim_and_contention(self, backend):
        key = KEYS[2]
        assert backend.try_claim(key, "w1", ttl=60.0) == "new"
        assert backend.lease_owner(key) == "w1"
        # a live peer's lease cannot be taken...
        assert backend.try_claim(key, "w2", ttl=60.0) is None
        # ...but the holder may refresh its own claim.
        assert backend.try_claim(key, "w1", ttl=60.0) == "new"

    def test_expired_lease_is_taken_over(self, backend):
        key = KEYS[3]
        assert backend.try_claim(key, "crashed", ttl=0.0) == "new"
        assert backend.lease_owner(key) is None  # already expired
        assert backend.try_claim(key, "w2", ttl=60.0) == "expired"
        assert backend.lease_owner(key) == "w2"

    def test_put_clears_the_lease(self, backend, tiny_result):
        key = KEYS[4]
        backend.try_claim(key, "w1", ttl=60.0)
        backend.put(key, tiny_result)
        assert backend.lease_owner(key) is None
        assert backend.try_claim(key, "w2", ttl=60.0) == "done"

    def test_claim_on_a_stored_key_is_done(self, backend, tiny_result):
        key = KEYS[6]
        backend.put(key, tiny_result)
        assert backend.try_claim(key, "w1", ttl=60.0) == "done"
        # the claim left no lease behind.
        assert backend.lease_owner(key) is None

    def test_release(self, backend):
        key = KEYS[5]
        backend.try_claim(key, "w1", ttl=60.0)
        backend.release(key, "other")  # not the holder: no-op
        assert backend.lease_owner(key) == "w1"
        backend.release(key, "w1")
        assert backend.lease_owner(key) is None


class TestDirectoryBackend:
    def test_layout_matches_legacy_result_cache(self, tmp_path, tiny_result):
        """The dir backend reads/writes the exact pre-backend file layout."""
        legacy = ResultCache(tmp_path / "cache")
        legacy.put(KEYS[0], tiny_result)
        assert legacy.path_for(KEYS[0]).is_file()
        reopened = DirectoryBackend(tmp_path / "cache")
        assert reopened.get(KEYS[0]).to_dict() == tiny_result.to_dict()

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_result):
        backend = DirectoryBackend(tmp_path / "cache")
        backend.put(KEYS[0], tiny_result)
        backend.path_for(KEYS[0]).write_text("{not json", encoding="utf-8")
        cache = ResultCache(backend=backend)
        assert cache.get(KEYS[0]) is None
        assert cache.stats.misses == 1

    def test_stale_lease_on_a_stored_key_is_done(self, tmp_path,
                                                 tiny_result):
        # a put that stopped between writing the entry and dropping its
        # lease: the takeover sees the entry and drops its own lease.
        backend = DirectoryBackend(tmp_path / "store")
        key = KEYS[7]
        assert backend.try_claim(key, "crashed", ttl=0.0) == "new"
        backend.path_for(key).write_text(tiny_result.to_json(),
                                         encoding="utf-8")
        assert backend.try_claim(key, "w2", ttl=60.0) == "done"
        assert not backend._lease_path(key).exists()


def _sqlite_writer(args):
    path, text, start = args
    cache = ResultCache(backend=SqliteBackend(path))
    result = RunResult.from_json(text)
    for n in range(start, start + 10):
        cache.put("%064x" % n, result)
    cache.put("f" * 64, result)  # every writer races on this one
    return cache.stats.stores


class TestSqliteBackend:
    def test_concurrent_writer_processes(self, tmp_path, tiny_result):
        """Four processes writing one sqlite file: no corruption, no loss."""
        path = tmp_path / "shared.sqlite"
        text = tiny_result.to_json()
        with multiprocessing.Pool(4) as pool:
            stores = pool.map(_sqlite_writer,
                              [(path, text, n * 10) for n in range(4)])
        assert stores == [11, 11, 11, 11]
        backend = SqliteBackend(path)
        assert len(backend) == 41  # 4 x 10 distinct + 1 contended
        assert backend.get("f" * 64).to_dict() == tiny_result.to_dict()
        for n in range(40):
            assert backend.contains("%064x" % n)

    def test_survives_reopen(self, tmp_path, tiny_result):
        path = tmp_path / "c.sqlite"
        SqliteBackend(path).put(KEYS[0], tiny_result)
        reopened = SqliteBackend(path)
        assert reopened.get(KEYS[0]).to_dict() == tiny_result.to_dict()


class TestBackendUrls:
    def test_bare_path_is_a_directory_backend(self, tmp_path):
        backend = backend_from_url(tmp_path / "cache")
        assert isinstance(backend, DirectoryBackend)
        assert backend.root == tmp_path / "cache"

    def test_dir_url(self, tmp_path):
        backend = backend_from_url(f"dir://{tmp_path}/cache")
        assert isinstance(backend, DirectoryBackend)

    def test_sqlite_url(self, tmp_path):
        backend = backend_from_url(f"sqlite://{tmp_path}/c.sqlite")
        assert isinstance(backend, SqliteBackend)

    def test_bad_urls_rejected(self, tmp_path):
        for url in ("redis://somewhere/cache",
                    f"dir://{tmp_path}/c?mode=fast",
                    "dir://"):
            with pytest.raises(ConfigurationError):
                backend_from_url(url)

    @pytest.mark.parametrize("scheme", ["dir", "sqlite"])
    def test_shards_parameter_is_unknown(self, tmp_path, scheme):
        url = f"{scheme}://{tmp_path}/c?shards=2"
        with pytest.raises(ConfigurationError, match="unknown parameter shards"):
            backend_from_url(url)


@pytest.fixture()
def scoped_groups(tmp_path, monkeypatch):
    """Repoint two source groups at temp files; restore + decache after."""
    base = tmp_path / "base_src.py"
    selective = tmp_path / "selective_src.py"
    base.write_text("BASE = 1\n", encoding="utf-8")
    selective.write_text("SELECTIVE = 1\n", encoding="utf-8")
    monkeypatch.setitem(SOURCE_GROUPS, "base", (base,))
    monkeypatch.setitem(SOURCE_GROUPS, "selective", (selective,))
    clear_fingerprint_cache()
    yield base, selective
    clear_fingerprint_cache()


class TestKernelVersionInvalidation:
    def test_groups_for_scopes_by_mode_and_spec(self):
        sc = make_config("sc", SETTINGS)
        invisi = make_config("invisi_sc", SETTINGS)
        workload = resolve_spec("apache", SETTINGS.ops_per_thread)
        scenario = resolve_spec("false-sharing-storm",
                                SETTINGS.ops_per_thread)
        assert groups_for(sc, workload) == ("base",)
        assert groups_for(invisi, workload) == ("base", "selective")
        assert groups_for(sc, scenario) == ("base", "scenarios")

    def test_kernel_versions_in_cache_key(self):
        sc = make_config("sc", SETTINGS)
        spec = resolve_spec("apache", SETTINGS.ops_per_thread)
        versions = kernel_versions(sc, spec)
        assert set(versions) == {"base"}
        assert cache_key(sc, spec, 1, 0.2) == \
            cache_key(sc, spec, 1, 0.2, versions=versions)
        assert cache_key(sc, spec, 1, 0.2) != \
            cache_key(sc, spec, 1, 0.2, versions={"base": "0" * 16})

    def test_editing_a_group_changes_only_dependent_keys(self, scoped_groups):
        base, selective = scoped_groups
        sc = make_config("sc", SETTINGS)
        invisi = make_config("invisi_sc", SETTINGS)
        spec = resolve_spec("apache", SETTINGS.ops_per_thread)
        sc_key = cache_key(sc, spec, 1, 0.2)
        invisi_key = cache_key(invisi, spec, 1, 0.2)

        # touch the selective controller: baseline keys survive.
        selective.write_text("SELECTIVE = 2\n", encoding="utf-8")
        clear_fingerprint_cache()
        assert cache_key(sc, spec, 1, 0.2) == sc_key
        assert cache_key(invisi, spec, 1, 0.2) != invisi_key

        # touch the shared substrate: every key changes.
        base.write_text("BASE = 2\n", encoding="utf-8")
        clear_fingerprint_cache()
        assert cache_key(sc, spec, 1, 0.2) != sc_key

    def test_refactor_only_resimulates_affected_cells(self, scoped_groups,
                                                      tmp_path):
        _, selective = scoped_groups
        cache_url = str(tmp_path / "cache")
        jobs = expand_jobs(("sc", "invisi_sc"), ("apache",), (1,))

        executor = CampaignExecutor(SETTINGS, cache=open_cache(cache_url))
        executor.run(jobs)
        assert executor.last_report.simulated == 2

        # unchanged sources: a fresh campaign is fully cache-served.
        executor = CampaignExecutor(SETTINGS, cache=open_cache(cache_url))
        executor.run(jobs)
        assert executor.last_report.cache_hits == 2

        # a selective-controller edit cold-starts only the invisi cell.
        selective.write_text("SELECTIVE = 3\n", encoding="utf-8")
        clear_fingerprint_cache()
        executor = CampaignExecutor(SETTINGS, cache=open_cache(cache_url))
        executor.run(jobs)
        assert executor.last_report.cache_hits == 1
        assert executor.last_report.simulated == 1

    def test_fingerprint_stable_within_process(self):
        assert group_fingerprint("base") == group_fingerprint("base")
        assert len(group_fingerprint("base")) == 16


def _drain(plan, url, worker_id, reports):
    cache = open_cache(url)  # each thread gets its own connection
    worker = QueueWorker(plan, cache, worker_id=worker_id,
                         poll_interval=0.01, max_wait=60.0)
    reports[worker_id] = worker.drain()


def _race(plan, url, worker_ids):
    """Drain ``plan`` into ``url`` with one thread per worker id."""
    reports = {}
    threads = [threading.Thread(target=_drain,
                                args=(plan, url, wid, reports))
               for wid in worker_ids]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(reports) == sorted(worker_ids)  # none of them raised
    return reports


#: the plan the race tests drain: figure8 at 2 cores, 12 cells.
RACE_SETTINGS = ExperimentSettings.quick(num_cores=2, ops_per_thread=200,
                                         workloads=("apache", "barnes"))


def _entries(url):
    """Key -> stored body of every entry in the store ``url`` names."""
    backend = backend_from_url(url)
    if isinstance(backend, SqliteBackend):
        return dict(backend._connect().execute(
            "SELECT key, body FROM entries"))
    return {path.stem: path.read_text(encoding="utf-8")
            for path in backend.root.glob("*.json")}


#: the plan the crash tests drain: figure1 at 2 cores, apache only.
CRASH_SETTINGS = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                          workloads=("apache",))

#: a worker process draining figure1 at CRASH_SETTINGS into argv[1],
#: after the patch that SIGKILLs it mid-cell.
CRASH_CHILD = """
import os
import signal
import sys

import repro.campaign.queue as queue
from repro import compile_study_plan, open_cache
from repro.experiments.common import ExperimentSettings

{patch}

settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                    workloads=("apache",))
plan = compile_study_plan("figure1", settings)
queue.QueueWorker(plan, open_cache(sys.argv[1]), worker_id="doomed",
                  lease_ttl=1.0).drain()
"""

#: dies on its third simulation, holding that cell's lease.
KILL_ON_THIRD_CELL = """
real_simulate = queue._simulate_cell
calls = []


def dying_simulate(payload):
    calls.append(payload)
    if len(calls) == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_simulate(payload)


queue._simulate_cell = dying_simulate
"""

#: dies while renaming its first entry into place: a torn write.
KILL_ON_ENTRY_RENAME = """
real_replace = os.replace


def dying_replace(src, dst, *args, **kwargs):
    if ".json.tmp" in os.path.basename(src):
        os.kill(os.getpid(), signal.SIGKILL)
    return real_replace(src, dst, *args, **kwargs)


os.replace = dying_replace
"""


def _run_crashing_worker(patch, url):
    """Run the doomed worker in a child interpreter; it must die of -9."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CRASH_CHILD.format(patch=patch), url],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == -9, proc.stderr[-4000:]


def _rescue(plan, url):
    """A peer worker finishes the plan; returns its report."""
    worker = QueueWorker(plan, open_cache(url), worker_id="peer",
                         poll_interval=0.02, max_wait=30.0)
    return worker.drain()


def _study_table(plan, cache):
    from repro import run_study

    runner = plan.runner(cache=cache)
    plan.execute(runner)
    spec = plan.specs[0]
    result = run_study(spec, plan.settings, study_runner=runner)
    return [{"name": t.name, "columns": list(t.columns), "rows": t.rows}
            for t in spec.tabulate(result)]


class TestDistributedDrain:
    def test_two_workers_match_serial_byte_for_byte(self, tmp_path):
        plan = compile_study_plan("figure8", RACE_SETTINGS)

        serial_url = f"sqlite://{tmp_path}/serial.sqlite"
        serial_table = _study_table(plan, open_cache(serial_url))

        shared_url = f"sqlite://{tmp_path}/shared.sqlite"
        reports = _race(plan, shared_url, ("w1", "w2"))

        # the plan was fully drained, each distinct key simulated once.
        total = sum(r.simulated for r in reports.values())
        assert total == len(QueueWorker(plan, open_cache(shared_url))._cells())

        # cache entries are byte-identical to the serial run's.
        assert _entries(shared_url) == _entries(serial_url)

        # and a study run over the drained store simulates nothing while
        # producing the identical table.
        drained_cache = open_cache(shared_url)
        drained_table = _study_table(plan, drained_cache)
        assert json.dumps(drained_table, sort_keys=True) == \
            json.dumps(serial_table, sort_keys=True)
        assert drained_cache.stats.misses == 0

    @pytest.mark.parametrize("attempt", range(5))
    @pytest.mark.parametrize("scheme", ["dir", "sqlite"])
    def test_two_worker_race_is_exactly_once(self, scheme, attempt, tmp_path):
        plan = compile_study_plan("figure8", RACE_SETTINGS)
        serial_url = f"{scheme}://{tmp_path}/serial"
        execute_plan("figure8", RACE_SETTINGS, cache=serial_url)

        shared_url = f"{scheme}://{tmp_path}/shared"
        reports = _race(plan, shared_url, ("w1", "w2"))
        total = sum(r.simulated for r in reports.values())
        assert total == len(QueueWorker(plan, open_cache(shared_url))._cells())
        assert _entries(shared_url) == _entries(serial_url)

    @pytest.mark.parametrize("scheme", ["dir", "sqlite"])
    def test_more_workers_than_cores_switching_fast(self, scheme, tmp_path):
        plan = compile_study_plan("figure8", RACE_SETTINGS)
        url = f"{scheme}://{tmp_path}/shared"
        workers = [f"w{n}" for n in range((os.cpu_count() or 1) + 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = _race(plan, url, workers)
        finally:
            sys.setswitchinterval(interval)
        total = sum(r.simulated for r in reports.values())
        assert total == len(QueueWorker(plan, open_cache(url))._cells())

    def test_worker_killed_mid_cell_sqlite(self, tmp_path):
        plan = compile_study_plan("figure1", CRASH_SETTINGS)
        url = f"sqlite://{tmp_path}/q.sqlite"
        _run_crashing_worker(KILL_ON_THIRD_CELL, url)
        # two cells finished; the third is leased to a dead worker.
        assert len(open_cache(url)) == 2

        report = _rescue(plan, url)
        assert report.reissued == 1
        assert report.simulated == len(QueueWorker(plan, open_cache(url))._cells()) - 2
        serial_url = f"sqlite://{tmp_path}/serial.sqlite"
        execute_plan("figure1", CRASH_SETTINGS, cache=serial_url)
        assert _entries(url) == _entries(serial_url)

    def test_worker_killed_mid_write_directory(self, tmp_path):
        plan = compile_study_plan("figure1", CRASH_SETTINGS)
        url = f"dir://{tmp_path}/store"
        _run_crashing_worker(KILL_ON_ENTRY_RENAME, url)
        # a torn write: the entry's tempfile and its lease, no entry.
        (stray,) = (tmp_path / "store").glob("*.json.tmp*")
        key = stray.name.split(".")[0]
        cache = open_cache(url)
        assert len(cache) == 0
        assert not cache.contains(key)
        assert cache.backend._read_lease(key)["owner"] == "doomed"

        report = _rescue(plan, url)
        assert report.reissued == 1
        assert report.simulated == len(QueueWorker(plan, open_cache(url))._cells())
        assert stray.exists() and len(cache) == report.simulated
        serial_url = f"dir://{tmp_path}/serial"
        execute_plan("figure1", CRASH_SETTINGS, cache=serial_url)
        assert _entries(url) == _entries(serial_url)

    def test_crashed_workers_cells_are_reissued(self, tmp_path, tiny_result):
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                            workloads=("apache",))
        plan = compile_study_plan("figure1", settings)
        url = f"sqlite://{tmp_path}/q.sqlite"
        cache = open_cache(url)

        # a "crashed" worker claimed every cell with an already-expired
        # TTL and never finished.
        stale = QueueWorker(plan, cache, worker_id="crashed",
                            lease_ttl=60.0)
        for key in stale._cells():
            assert cache.try_claim(key, "crashed", ttl=0.0) is not None

        worker = QueueWorker(plan, open_cache(url), worker_id="rescuer",
                             poll_interval=0.01, max_wait=60.0)
        report = worker.drain()
        assert report.simulated == len(stale._cells())
        assert report.reissued == len(stale._cells())

    def test_stuck_peer_lease_times_out(self, tmp_path):
        settings = ExperimentSettings.quick(num_cores=2, ops_per_thread=150,
                                            workloads=("apache",))
        plan = compile_study_plan("figure1", settings)
        url = f"sqlite://{tmp_path}/q.sqlite"
        cache = open_cache(url)
        probe = QueueWorker(plan, cache, worker_id="probe")
        key = next(iter(probe._cells()))
        # a live peer holds one cell and never finishes it.
        assert cache.try_claim(key, "wedged", ttl=3600.0) == "new"

        worker = QueueWorker(plan, open_cache(url), worker_id="w1",
                             poll_interval=0.01, max_wait=0.2)
        with pytest.raises(ReproError, match="wedged"):
            worker.drain()
        # everything not held was still completed.
        assert worker.last_report.simulated == len(probe._cells()) - 1
