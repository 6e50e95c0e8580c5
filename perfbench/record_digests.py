"""Record the reference digests every benchmark run checks against.

Each unique cell of the plan is simulated once with the reference
(one-event-per-op) engine through the public ``simulate``, and the
SHA-256 of its ``RunResult`` JSON is stored in ``digests.json`` under
the plan seed.  The fast engine is proven byte-identical to the
reference engine, so a run whose output differs from these digests has
changed the simulated results.

Usage, from the repository root (takes about half a minute per seed)::

    python3 perfbench/record_digests.py [--seeds 1 2 ...]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import harness
import plan as bench_plan


def record(seed: int) -> dict:
    harness.import_program()
    from repro.api import simulate

    plan = bench_plan.build_plan(seed)
    registry = plan.registry()
    digests = {}
    for cell in plan.unique_cells:
        scaled = dataclasses.replace(plan.settings, num_cores=cell.num_cores)
        config = registry.make(cell.config_name, scaled)
        result = simulate(config, cell.workload,
                          warmup_fraction=scaled.warmup_fraction,
                          engine="reference", cores=cell.num_cores,
                          ops=scaled.ops_per_thread, seed=cell.seed)
        digests[bench_plan.cell_label(cell)] = bench_plan.digest(result)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(bench_plan.RECORDED_SEEDS))
    args = parser.parse_args(argv)
    path = bench_plan.DIGESTS_PATH
    recorded = json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else {}
    recorded.update({
        "engine": "reference",
        "num_cores": bench_plan.NUM_CORES,
        "ops_per_thread": bench_plan.OPS_PER_THREAD,
        "workloads": list(bench_plan.WORKLOADS),
        "scaling_cores": list(bench_plan.SCALING_CORES),
    })
    seeds = recorded.setdefault("seeds", {})
    for seed in args.seeds:
        seeds[str(seed)] = record(seed)
        seeds = dict(sorted(seeds.items(), key=lambda item: int(item[0])))
        recorded["seeds"] = seeds
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"seed {seed}: {len(seeds[str(seed)])} cells", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
