"""One benchmark pass in a fresh process, printed as one JSON line.

A pass imports ``mixedelast`` from the checkout's ``src``, builds the
workload's case with ``builtin_case`` and runs ``run_case`` on each of its
meshes (what ``mixedelast converge`` does through ``convergence_study``),
then checks the result.  A fresh process per pass makes ``ru_maxrss`` the
pass's own peak memory.

    python3 perfbench/passrun.py SPEC_JSON [--trace] [--setup-only]
    python3 perfbench/passrun.py --record > perfbench/reference.json

``--record`` recomputes the reference errors of every workload and of its
n=4 smoke form; the committed file was recorded from the package as it was
when the benchmark was added.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, pass_key, smoke_spec

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

# Tighter than the 3-digit CSV, looser than roundoff from a reordered
# factorization.
ERROR_RTOL = 1e-6
CONSTRAINT_MAX = 1e-10  # max_constraint_rel is ~1e-17 when C alpha is conserved


def import_package():
    """Import ``mixedelast.verification`` from the checkout, never elsewhere."""
    if not (SRC / "mixedelast" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mixedelast package under {SRC}")
    sys.path.insert(0, str(SRC))
    from mixedelast import verification
    if SRC.resolve() not in Path(verification.__file__).resolve().parents:
        raise ImportError(f"mixedelast imported from {verification.__file__}, not {SRC}")
    return verification


def check(spec: dict, meshes: list, reference: dict) -> list:
    """Failures of a pass: non-finite output, constraint drift, or an error
    off its reference by more than ERROR_RTOL."""
    failures = []
    for m in meshes:
        key = pass_key(spec, m["n"])
        if not m["finite"]:
            failures.append(f"{key}: non-finite output")
        if not m["max_constraint_rel"] <= CONSTRAINT_MAX:
            failures.append(f"{key}: max_constraint_rel {m['max_constraint_rel']:.3e}")
        ref = reference.get(key)
        if ref is None:
            failures.append(f"{key}: no reference errors")
            continue
        for f, err in m["errors"].items():
            if not abs(err - ref[f]) <= ERROR_RTOL * abs(ref[f]):
                failures.append(f"{key}: error {f} = {err!r}, reference {ref[f]!r}")
    return failures


def _finite(errors: dict, traj) -> bool:
    import numpy as np
    st = traj.final_state
    arrays = (st.alpha, st.beta, st.gamma, st.u, traj.energies, traj.constraint_norms)
    return (all(math.isfinite(e) for e in errors.values())
            and all(bool(np.isfinite(a).all()) for a in arrays))


def run_pass(spec: dict, reference: dict, trace: bool = False,
             setup_only: bool = False) -> dict:
    """Set up and (unless ``setup_only``) run and check one pass."""
    t0 = time.perf_counter()
    tracer = Tracer() if trace else None
    span = tracer.span if trace else (lambda _: contextlib.nullcontext())
    with span("other.import"):
        verification = import_package()
        import numpy, scipy, sympy  # already loaded by the package; for their versions
    installed = tracer.installed(verification) if trace else contextlib.nullcontext()
    with installed:
        kwargs = {} if spec["alpha"] is None else {"alpha": spec["alpha"]}
        case = verification.builtin_case(spec["case"], **kwargs)
        setup_s = time.perf_counter() - t0
        meshes = []
        for n in [] if setup_only else spec["n_list"]:
            if trace:
                tracer.mesh = n
            errors, traj, _ = verification.run_case(case, spec["k"], spec["scheme"],
                                                    n, spec["dt"])
            meshes.append({"n": n, "errors": errors, "finite": _finite(errors, traj),
                           "max_constraint_rel": traj.max_constraint_rel})
        if trace:
            tracer.mesh = None
        with span("other.check"):
            failures = [] if setup_only else check(spec, meshes, reference)
    wall_s = time.perf_counter() - t0
    return {
        "ok": not failures,
        "failures": failures,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meshes": meshes,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "sympy": sympy.__version__},
        "trace": tracer.summary(wall_s) if trace else None,
    }


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def record() -> dict:
    """Reference errors of every workload mesh and of each n=4 smoke pass."""
    reference = {}
    for spec in WORKLOADS.values():
        for s in (spec, smoke_spec(spec)):
            result = run_pass(s, {})
            for m in result["meshes"]:
                if not (m["finite"] and m["max_constraint_rel"] <= CONSTRAINT_MAX):
                    raise RuntimeError(f"refusing to record {pass_key(s, m['n'])}")
                reference[pass_key(s, m["n"])] = m["errors"]
    return dict(sorted(reference.items()))


def main(argv: list) -> int:
    if argv == ["--record"]:
        print(json.dumps(record(), indent=1))
        return 0
    spec = json.loads(argv[0])
    try:
        result = run_pass(spec, load_reference(), trace="--trace" in argv,
                          setup_only="--setup-only" in argv)
    except Exception as exc:  # a raising pass is a failed pass, reported as such
        traceback.print_exc()
        result = {"ok": False, "failures": [f"raised {exc!r}"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
