"""The benchmark's worker runs every workload against the library in ``src``.

``bench/run.py`` reads the traced batch that ``bench/worker.py`` reports: it
needs every task to pass its gate and, on ore-heisenberg, the share of
radius-6 task time spent in ``exactla.nullspace_basis``, which the worker
only records when the library calls that function by the name the tracer
wraps. One traced batch per workload keeps that contract in tier-1.
"""

import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

WORKLOADS = ("regularity-z2", "ore-heisenberg", "tower-quotients", "folner-profile")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_batch_passes_its_gate(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--batch", "0", "--trace"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    events = [json.loads(line[len("BENCH "):]) for line in proc.stdout.splitlines()
              if line.startswith("BENCH ")]
    (result,) = [e for e in events if e["event"] == "result"]
    tasks = result["tasks"]
    assert tasks
    assert [t.get("reason") for t in tasks if not t["ok"]] == []
    radius6 = [t["facts"] for t in tasks if t["facts"].get("class") == "radius6"]
    assert all("nullspace_self_share" in facts for facts in radius6)
    if workload == "ore-heisenberg":
        assert radius6
