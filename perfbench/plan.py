"""The measured plan: every registered study at one small, fixed scale.

All ten registered studies go into one deduplicated plan at 4 cores,
2000 operations per thread, the ``apache`` workload and one generator
seed; the scaling study is narrowed to 4, 8 and 16 cores.  Everything
else is ``ExperimentSettings``' default, so the modelled caches warm
during the first 20% of each trace and statistics start after that.

Nothing here imports :mod:`repro` at module load: the benchmark times
that import as part of its set-up.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

NUM_CORES = 4
OPS_PER_THREAD = 2000
WORKLOADS = ("apache",)
SCALING_CORES = (4, 8, 16)
DEFAULT_SEED = 3

#: Plan seeds whose reference digests are recorded in ``digests.json``.
#: ``--seed`` is folded into this range, so any integer selects a plan
#: whose outputs can be checked.
RECORDED_SEEDS = tuple(range(1, 11))

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Controller kinds the end-to-end time is split by.  ASO is a selective
#: checkpointing design (one plan cell), so it is charged to "selective".
KINDS = ("conventional", "selective", "continuous")
_KIND_OF_MODE = {"none": "conventional", "selective": "selective",
                 "aso": "selective", "continuous": "continuous"}


def plan_seed(seed: int) -> int:
    """The generator seed the plan uses for benchmark argument ``seed``."""
    return RECORDED_SEEDS[(seed - RECORDED_SEEDS[0]) % len(RECORDED_SEEDS)]


def settings(seed: int):
    """``ExperimentSettings`` for the plan at generator seed ``seed``."""
    from repro.experiments.common import ExperimentSettings

    return ExperimentSettings(num_cores=NUM_CORES,
                              ops_per_thread=OPS_PER_THREAD,
                              workloads=WORKLOADS, seeds=(seed,))


def study_specs():
    """Every registered study, the scaling sweep narrowed to SCALING_CORES."""
    import repro.experiments  # noqa: F401  (importing registers the studies)
    from repro.experiments.scaling import scaling_study
    from repro.studies.registry import DEFAULT_STUDY_REGISTRY

    return [scaling_study(core_counts=SCALING_CORES)
            if spec.name == "scaling" else spec
            for spec in DEFAULT_STUDY_REGISTRY.specs()]


def build_plan(seed: int):
    """The compiled plan, through the public ``compile_study_plan``."""
    from repro.api import compile_study_plan

    return compile_study_plan(study_specs(), settings(seed))


def controller_kind(config) -> str:
    return _KIND_OF_MODE[config.speculation.mode.value]


def cell_label(cell) -> str:
    return f"{cell.config_name}/{cell.workload}/{cell.num_cores}c"


def digest(result) -> str:
    """SHA-256 of a ``RunResult``'s canonical JSON form."""
    return hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()


def load_digests(seed: int) -> Dict[str, str]:
    """Recorded reference digests for plan seed ``seed``, by cell label."""
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return recorded["seeds"][str(seed)]
