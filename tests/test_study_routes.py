"""Every study survives every execution route exactly once, byte for byte.

Each registered study is computed through four routes -- the serial
executor into sqlite, a two-process pool into a directory, and two
cooperating :class:`QueueWorker` threads into sqlite and into a
directory.  Whatever the route, the cells are simulated exactly once in
total, a rerun over the filled store simulates nothing, and the study's
JSON and CSV artifacts are byte-identical to a serial run into a
directory cache.
"""

import threading

import pytest

from repro import compile_study_plan, open_cache, run_study
from repro.campaign import QueueWorker
from repro.experiments.common import ExperimentSettings
from repro.experiments.scaling import scaling_study
from repro.studies.registry import DEFAULT_STUDY_REGISTRY

SETTINGS = ExperimentSettings.quick(num_cores=2, ops_per_thread=200,
                                    workloads=("apache",))

#: the scaling sweep narrowed to two small machines; every other study
#: runs its full grid at SETTINGS.
STUDIES = {spec.name: scaling_study(core_counts=(2, 4))
           if spec.name == "scaling" else spec
           for spec in DEFAULT_STUDY_REGISTRY.specs()}

ROUTES = ("serial-sqlite", "pool-dir", "queue-sqlite", "queue-dir")


def _url(route, tmp_path):
    if route.endswith("sqlite"):
        return f"sqlite://{tmp_path}/store.sqlite"
    return f"dir://{tmp_path}/store"


def _queue_drain(plan, url):
    """Two worker threads drain ``plan``; returns their simulated counts."""
    reports = {}

    def drain(worker_id):
        worker = QueueWorker(plan, open_cache(url), worker_id=worker_id,
                             poll_interval=0.01, max_wait=60.0)
        reports[worker_id] = worker.drain()

    threads = [threading.Thread(target=drain, args=(wid,))
               for wid in ("w1", "w2")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(reports) == ["w1", "w2"]  # neither worker raised
    return [report.simulated for report in reports.values()]


def _fill(route, plan, url):
    """Run ``plan`` into ``url`` by ``route``; returns simulated counts."""
    if route.startswith("queue"):
        return _queue_drain(plan, url)
    jobs = 2 if route.startswith("pool") else 1
    return [plan.execute(plan.runner(jobs=jobs, cache=open_cache(url))).simulated]


def _artifacts(spec, url, out_dir):
    """Rerun the study over ``url``; returns (simulated, JSON, CSV bytes)."""
    plan = compile_study_plan([spec], SETTINGS)
    runner = plan.runner(cache=open_cache(url))
    simulated = plan.execute(runner).simulated
    run_study(spec, SETTINGS, study_runner=runner, out_dir=out_dir)
    return (simulated, (out_dir / f"{spec.name}.json").read_bytes(),
            (out_dir / f"{spec.name}.csv").read_bytes())


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Per-study artifacts of a serial run into a directory cache."""
    memo = {}

    def artifacts(name):
        if name not in memo:
            tmp = tmp_path_factory.mktemp(f"golden-{name}")
            memo[name] = _artifacts(STUDIES[name], f"dir://{tmp}/store",
                                    tmp / "out")[1:]
        return memo[name]

    return artifacts


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_route_is_exactly_once_and_byte_identical(name, route, golden,
                                                        tmp_path):
    spec = STUDIES[name]
    plan = compile_study_plan([spec], SETTINGS)
    url = _url(route, tmp_path)

    counts = _fill(route, plan, url)
    assert sum(counts) == len(QueueWorker(plan, open_cache(url))._cells())

    simulated, json_bytes, csv_bytes = _artifacts(spec, url, tmp_path / "out")
    assert simulated == 0
    assert (json_bytes, csv_bytes) == golden(name)
