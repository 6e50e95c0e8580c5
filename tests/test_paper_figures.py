"""The paper's figures and sensitivity studies keep their qualitative shape.

Each test regenerates one evaluation figure (Figures 1 and 8-12) or one
sensitivity study (store-buffer capacity, Section 6.1; commit-on-violate
timeout, Section 6.6) at a fixed scale and checks the claims the paper
draws from it.  All tests share one module-scoped
:class:`ExperimentRunner`, so configurations that appear in several
figures (the conventional SC baseline, for one) are simulated once.
"""

import pytest

from repro.experiments.ablation import run_cov_timeout_ablation, run_store_buffer_ablation
from repro.experiments.common import ExperimentRunner, ExperimentSettings
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.figure11 import run_figure11
from repro.experiments.figure12 import run_figure12
from repro.workloads.presets import workload_names

NUM_CORES = 8
OPS_PER_THREAD = 4000
SEEDS = (1,)
WORKLOADS = tuple(workload_names())


@pytest.fixture(scope="module")
def settings() -> ExperimentSettings:
    return ExperimentSettings(num_cores=NUM_CORES, ops_per_thread=OPS_PER_THREAD,
                              seeds=SEEDS, workloads=WORKLOADS)


@pytest.fixture(scope="module")
def runner(settings) -> ExperimentRunner:
    return ExperimentRunner(settings)


def test_figure1(settings, runner):
    result = run_figure1(settings, runner)

    # Qualitative shape (paper Figure 1): ordering stalls shrink as the
    # consistency model is relaxed, and the synchronisation-heavy web
    # workloads stall far more under RMO than the scientific codes.
    for workload in settings.workloads:
        sc = result.total(workload, "sc")
        tso = result.total(workload, "tso")
        rmo = result.total(workload, "rmo")
        assert sc > tso, f"{workload}: SC should stall more than TSO"
        assert tso >= rmo * 0.9, f"{workload}: TSO should stall at least as much as RMO"
        assert sc > 5.0, f"{workload}: SC ordering stalls should be significant"
    assert result.total("apache", "rmo") > result.total("barnes", "rmo")
    assert result.total("apache", "rmo") > result.total("ocean", "rmo")
    # Scientific workloads show only a few percent of ordering stalls under RMO.
    assert result.total("barnes", "rmo") < 10.0
    assert result.total("ocean", "rmo") < 10.0


def test_figure8(settings, runner):
    result = run_figure8(settings, runner)

    # Qualitative shape (paper Section 6.2/6.3): relaxing the model helps,
    # and every InvisiFence-Selective variant at least matches conventional
    # RMO, with Invisi_rmo the best configuration on average.
    assert result.average_speedup("tso") > 1.05
    assert result.average_speedup("rmo") >= result.average_speedup("tso")
    assert result.average_speedup("invisi_sc") >= result.average_speedup("rmo") * 0.98
    assert result.average_speedup("invisi_rmo") >= result.average_speedup("invisi_sc") * 0.99
    assert result.average_speedup("invisi_rmo") >= result.average_speedup("rmo")

    for workload in settings.workloads:
        speedups = result.speedups[workload]
        assert speedups["sc"] == 1.0
        # InvisiFence never loses badly to the conventional implementation of
        # the same model (performance-transparent ordering).
        assert speedups["invisi_sc"] >= 0.95
        assert speedups["invisi_rmo"] >= speedups["rmo"] * 0.95


def test_figure9(settings, runner):
    result = run_figure9(settings, runner)

    for workload in settings.workloads:
        # The baseline bar is 100% by construction.
        assert abs(result.total(workload, "sc") - 100.0) < 1e-6
        # Conventional relaxed models shorten the bar.
        assert result.total(workload, "rmo") <= result.total(workload, "tso") * 1.02
        assert result.total(workload, "tso") <= 100.0 + 1e-6
        # InvisiFence removes nearly all SB-full / SB-drain time relative to
        # the conventional implementation of the same model.
        for invisi, conventional in (("invisi_sc", "sc"), ("invisi_tso", "tso"),
                                     ("invisi_rmo", "rmo")):
            inv = result.breakdowns[workload][invisi]
            conv = result.breakdowns[workload][conventional]
            inv_stalls = inv["sb_full"] + inv["sb_drain"]
            conv_stalls = conv["sb_full"] + conv["sb_drain"]
            assert inv_stalls <= max(1.0, 0.5 * conv_stalls), (workload, invisi)
            # The violation component stays small for selective speculation.
            assert inv["violation"] <= 12.0, (workload, invisi)
        # And the InvisiFence bar is never taller than the conventional bar.
        assert result.total(workload, "invisi_rmo") <= result.total(workload, "rmo") * 1.02


def test_figure10(settings, runner):
    result = run_figure10(settings, runner)

    # Qualitative shape (paper Figure 10 / Figure 4): the weaker the enforced
    # model, the less time InvisiFence-Selective spends speculating.
    assert result.average("invisi_rmo") < result.average("invisi_tso") + 1.0
    assert result.average("invisi_tso") <= result.average("invisi_sc") + 1.0
    assert result.average("invisi_sc") > result.average("invisi_rmo")

    for workload in settings.workloads:
        values = result.speculation_pct[workload]
        for config, pct in values.items():
            assert 0.0 <= pct <= 100.0, (workload, config)
        assert values["invisi_rmo"] <= values["invisi_sc"] + 1.0

    # The scientific workloads barely speculate when enforcing RMO.
    assert result.speculation_pct["barnes"]["invisi_rmo"] < 20.0
    assert result.speculation_pct["dss-db2"]["invisi_rmo"] < 20.0


def test_figure11(settings, runner):
    result = run_figure11(settings, runner)

    # Qualitative shape (paper Section 6.4): the three configurations are
    # close -- ASO and InvisiFence-Selective both eliminate essentially all
    # ordering stalls; ASO's periodic checkpoints give it at most a small
    # edge over single-checkpoint InvisiFence, and a second checkpoint closes
    # that gap.
    aso = result.average_total("aso_sc")
    one = result.average_total("invisi_sc")
    two = result.average_total("invisi_sc_2ckpt")
    assert abs(aso - 100.0) < 1e-6
    assert one < 125.0, "single-checkpoint InvisiFence should be close to ASO"
    assert two <= one + 2.0, "a second checkpoint should not hurt"

    for workload in settings.workloads:
        values = result.breakdowns[workload]
        for config in ("aso_sc", "invisi_sc", "invisi_sc_2ckpt"):
            stalls = values[config]["sb_full"] + values[config]["sb_drain"]
            # All three are store-wait-free designs.
            assert stalls < 20.0, (workload, config)


def test_figure12(settings, runner):
    result = run_figure12(settings, runner)

    cont = result.average_total("invisi_cont")
    cov = result.average_total("invisi_cont_cov")
    invisi_rmo = result.average_total("invisi_rmo")

    # Qualitative shape (paper Sections 6.5/6.6):
    # * continuous speculation beats conventional SC on average,
    assert cont < 100.0
    # * but it pays a violation penalty that commit-on-violate removes,
    cont_violation = sum(result.violation_cycles(w, "invisi_cont")
                         for w in settings.workloads)
    cov_violation = sum(result.violation_cycles(w, "invisi_cont_cov")
                        for w in settings.workloads)
    assert cont_violation > 0.0
    assert cov_violation < 0.5 * cont_violation
    assert cov <= cont
    # * and selective speculation enforcing RMO remains the best or tied-best
    #   InvisiFence configuration.
    assert invisi_rmo <= cont + 1.0
    assert invisi_rmo <= cov + 6.0

    for workload in settings.workloads:
        assert abs(result.total(workload, "sc") - 100.0) < 1e-6
        assert result.total(workload, "invisi_cont_cov") <= result.total(workload, "invisi_cont") + 2.0


def test_store_buffer_capacity_ablation(settings, runner):
    result = run_store_buffer_ablation(settings, workload="apache", runner=runner,
                                       sizes=(1, 2, 4, 8, 32))

    relative = result.relative_runtime()
    # A one-entry buffer is clearly insufficient; eight entries perform within
    # a few percent of the largest buffer in the sweep (the paper's claim --
    # our synthetic apache carries a somewhat higher store-miss rate, so the
    # tolerance is a little wider than the paper's "close to unbounded").
    assert relative[1] > relative[8] + 0.10
    assert relative[8] <= 1.10
    assert result.smallest_sufficient_capacity(tolerance=0.10) <= 8
    # Capacity pressure shows up as SB-full cycles for the tiny buffer.
    assert result.sb_full[1] >= result.sb_full[32]


def test_cov_timeout_ablation(settings, runner):
    result = run_cov_timeout_ablation(settings, workload="apache", runner=runner,
                                      timeouts=(0, 250, 4000, 16000))

    # The abort-immediately baseline discards work; a 4000-cycle deferral
    # window removes most violation cycles (Section 6.6), and growing it
    # further changes little.
    aborts_baseline, _, violation_baseline = result.outcomes[0]
    _, cov_commits_4k, violation_4k = result.outcomes[4000]
    assert violation_4k <= violation_baseline
    assert cov_commits_4k > 0
    assert result.cycles[4000] <= result.cycles[0] * 1.02
    assert abs(result.cycles[16000] - result.cycles[4000]) <= 0.1 * result.cycles[4000]
