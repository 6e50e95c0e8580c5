"""The benchmark needs neither the batch tier nor ``repro.bench``.

Both are slated for deletion; these tests make sure that deleting them
cannot break the benchmark.  The run test blocks the modules in every
interpreter the benchmark starts (through a ``sitecustomize`` module on
``PYTHONPATH``) and runs the queue-drain workload, which starts set-up
probes and queue workers and reads the drained cache back through the
plan runner.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

FORBIDDEN = ("repro.bench", "repro.engine.batch")

# The program's campaign executor imports ``simulate_batch`` when it is
# loaded, so the batch package itself is replaced by a stub that fails on
# use; the batch engine modules (imported only for engine="batch") and
# repro.bench are blocked outright.
SITECUSTOMIZE = '''
import sys
import types


def _refuse(*args, **kwargs):
    raise AssertionError("the benchmark used the batch tier")


for _name in ("repro.engine.batch", "repro.engine.batch.lanes"):
    _stub = types.ModuleType(_name)
    _stub.simulate_batch = _refuse
    sys.modules[_name] = _stub
for _name in ("repro.engine.batch.core", "repro.engine.batch.epochs",
              "repro.engine.batch.profile",
              "repro.bench", "repro.bench.harness"):
    sys.modules.setdefault(_name, None)
'''


def _sources():
    return sorted(BENCH.rglob("*.py"))


def test_sources_never_name_the_batch_tier():
    for path in _sources():
        if path.parent.name == "tests":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.keyword) and node.arg == "engine":
                assert not (isinstance(node.value, ast.Constant)
                            and node.value.value == "batch"), path
                continue
            else:
                continue
            for name in names:
                assert not name.startswith(FORBIDDEN), (path, name)


def test_runs_with_batch_tier_and_bench_blocked(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE,
                                               encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    blocked = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'src'); import repro; "
         "assert sys.modules['repro.bench'] is None; "
         "assert not hasattr(sys.modules['repro.engine.batch'], '__path__')"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert blocked.returncode == 0, blocked.stderr[-4000:]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "queue-drain",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 60
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
