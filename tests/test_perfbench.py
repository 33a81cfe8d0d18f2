"""The benchmark's accuracy gate on the n=4 form of each workload: a pass
checks its errors against perfbench/reference.json (rtol 1e-6) and its
weak-symmetry drift against 1e-10, in a fresh process."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_smoke_pass_ok(name):
    spec = WORKLOADS.smoke_spec(WORKLOADS.WORKLOADS[name])
    proc = subprocess.run([sys.executable, str(PERFBENCH / "passrun.py"), json.dumps(spec)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["ok"] is True, result["failures"]
