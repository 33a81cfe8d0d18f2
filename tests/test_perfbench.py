"""The benchmark's accuracy gate on the n=4 form of each workload: a pass
checks its errors against perfbench/reference.json (rtol 1e-6) and its
weak-symmetry drift against 1e-10, in a fresh process.  A traced pass must
also see every stage that the benchmark's counts come from."""

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


def _smoke_pass(name, *flags):
    spec = WORKLOADS.smoke_spec(WORKLOADS.WORKLOADS[name])
    proc = subprocess.run([sys.executable, str(PERFBENCH / "passrun.py"), json.dumps(spec),
                           *flags], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["ok"] is True, result["failures"]
    return spec, result


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_smoke_pass_ok(name):
    _smoke_pass(name)


# The traced counts of each workload's n=4 pass.  eg2 (k=2, CN) factors the
# static saddle LU and the step LU, the same 96 x 96 complement on the
# unknowns of the 16 boundary edges of the one 4 x 4 cell (of the 624
# stress and rotation unknowns) at two shifts, dense; eg3 (k=3, RadauIIA) has
# zero initial data and one complex step LU, 128 x 128 (of 1,152).  A CN step
# calls the body load and the boundary load once, a RadauIIA step each of
# them at both stages.
_EG2_N4 = {"assembly.matrix_nnz": 26_400, "statics.lu_nnz": 9_312, "statics.dim": 96,
           "dynamics.lu_nnz": 9_312, "dynamics.dim": 96}
N4_COUNTS = {
    "eg2-cn-converge": {**_EG2_N4, "dynamics.steps": 4, "assembly.load_calls": 8},
    "eg2-cn-fine-dt": {**_EG2_N4, "dynamics.steps": 1024, "assembly.load_calls": 2048},
    "eg3-radau-converge": {"assembly.matrix_nnz": 79_744, "dynamics.lu_nnz": 16_512,
                           "dynamics.dim": 128, "dynamics.steps": 4,
                           "assembly.load_calls": 16},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_traced_smoke_pass_counts_every_stage(name):
    # a stage hidden from the tracer would drop its counts from the report;
    # only eg2 has nonzero initial data, so only eg2 factors the static saddle
    _, result = _smoke_pass(name, "--trace")
    (mesh,) = result["trace"]["meshes"]
    assert mesh["counts"] == N4_COUNTS[name]
