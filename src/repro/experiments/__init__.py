"""Experiment drivers: one module per figure of the paper's evaluation.

Each ``run_figureN`` function builds the workload traces, runs the required
machine configurations through the simulator, and returns a result object
whose ``format()`` method prints the same rows/series the paper's figure
plots.  ``ExperimentSettings`` controls the scale (cores, trace length,
seeds); the defaults reproduce the full 16-core setup, while
``ExperimentSettings.quick()`` is used by the test-suite and smoke runs.
"""

# Import order fixes the study registry's presentation order: figures,
# ablations, then the scaling and scenario studies.
from .common import CONFIG_NAMES, ExperimentSettings, ExperimentRunner, make_config
from .figure1 import Figure1Result, run_figure1
from .figure8 import Figure8Result, run_figure8
from .figure9 import Figure9Result, run_figure9
from .figure10 import Figure10Result, run_figure10
from .figure11 import Figure11Result, run_figure11
from .figure12 import Figure12Result, run_figure12
from .ablation import (
    CovTimeoutAblationResult,
    StoreBufferAblationResult,
    cov_timeout_study,
    run_cov_timeout_ablation,
    run_store_buffer_ablation,
    store_buffer_study,
)
from .scaling import (
    SCALING_CONFIGS,
    SCALING_CORE_COUNTS,
    SCALING_SCENARIOS,
    ScalingResult,
    run_scaling,
    scaling_study,
)
from .scenarios import (
    SCENARIO_CONFIGS,
    ScenarioFigureResult,
    run_scenarios,
    scenario_study,
)
from .tables import (
    figure2_table,
    figure4_table,
    figure5_table,
    figure6_table,
    figure7_table,
)

__all__ = [
    "ExperimentSettings",
    "ExperimentRunner",
    "CONFIG_NAMES",
    "make_config",
    "StoreBufferAblationResult",
    "run_store_buffer_ablation",
    "CovTimeoutAblationResult",
    "run_cov_timeout_ablation",
    "Figure1Result",
    "run_figure1",
    "Figure8Result",
    "run_figure8",
    "Figure9Result",
    "run_figure9",
    "Figure10Result",
    "run_figure10",
    "Figure11Result",
    "run_figure11",
    "Figure12Result",
    "run_figure12",
    "SCENARIO_CONFIGS",
    "ScenarioFigureResult",
    "run_scenarios",
    "SCALING_CONFIGS",
    "SCALING_CORE_COUNTS",
    "SCALING_SCENARIOS",
    "ScalingResult",
    "run_scaling",
    "scaling_study",
    "scenario_study",
    "store_buffer_study",
    "cov_timeout_study",
    "figure2_table",
    "figure4_table",
    "figure5_table",
    "figure6_table",
    "figure7_table",
]
