"""Solver benchmark: time to a verified convergence table, end to end and by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload (see workloads.py) is a closed loop: one client, one pass at
a time, every pass a fresh process running perfbench/passrun.py on the
checkout's ``src`` with BLAS pinned to one thread.  Passes start until the
next one would end after ``--seconds``, but at least a fixed minimum runs.
The seed only shuffles the order of passes (and of workloads for ``all``);
the inputs are deterministic.  Every pass is checked against reference
errors; a failed pass is counted, never used as a timing sample.

``--trace 0`` reports the end-to-end metrics with tracing off: ``wall_s``
(import and case construction to checked errors), ``setup_s`` (import plus
``builtin_case``, also sampled by set-up-only probes) and ``peak_rss_mb``,
each the median over the run, and ``failed_frac``.  ``--trace 1`` runs
traced passes (spans.py) for the per-layer metrics and untraced passes
beside them for the tracing overhead.  Human-readable lines and a detailed
``report`` line come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, command_line

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BUDGET_S = 170.0  # one workload's run, passes and timeouts included
ACCOUNTING_TOL = 0.05  # untraced share of a traced pass

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "verification.case_s": "s", "mesh.build_s": "s", "spaces.build_s": "s",
    "assembly.matrices_s": "s", "assembly.matrix_nnz": "count",
    "statics.initial_s": "s", "statics.lu_nnz": "count", "statics.dim": "count",
    "dynamics.factor_s": "s", "dynamics.lu_nnz": "count", "dynamics.dim": "count",
    "dynamics.step_ms": "ms", "dynamics.step_ms_hi": "ms", "dynamics.step_self_ms": "ms",
    "dynamics.steps": "count", "assembly.load_ms": "ms", "assembly.load_calls": "count",
    "verification.error_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.other_s": "s",
}
# per-layer time metric -> layer whose self time (summed over meshes) it is
LAYER_TIMES = {
    "verification.case_s": "verification.case", "mesh.build_s": "mesh.build",
    "spaces.build_s": "spaces.build", "assembly.matrices_s": "assembly.matrices",
    "statics.initial_s": "statics.initial", "dynamics.factor_s": "dynamics.factor",
    "verification.error_s": "verification.error",
}
FINEST_COUNTS = ("assembly.matrix_nnz", "statics.lu_nnz", "statics.dim",
                 "dynamics.lu_nnz", "dynamics.dim")
TOTAL_COUNTS = ("dynamics.steps", "assembly.load_calls")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: list, p: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def describe(values: list) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    for p in PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = percentile(values, p)
            break
    return out


def high(values: list) -> float:
    d = describe(values)
    return next((v for k, v in d.items() if k.startswith("p")), d["median"])


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def run_child(spec: dict, kind: str, timeout: float) -> dict:
    """One pass ("pass", "traced") or set-up probe ("setup") in a fresh process."""
    cmd = [sys.executable, str(HERE / "passrun.py"), json.dumps(spec)]
    cmd += {"pass": [], "traced": ["--trace"], "setup": ["--setup-only"]}[kind]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"kind": kind, "ok": False, "failures": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"kind": kind, "ok": False,
                "failures": [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]}
    return {"kind": kind, **json.loads(lines[-1])}


def run_workload(spec: dict, seconds: float, trace: bool, rng: random.Random) -> list:
    """Closed loop of fresh-process passes for ``seconds``; returns their records."""
    # minimum per run; set-up probes give setup_s five samples for its median
    todo = ["traced", "traced", "pass"] if trace else ["pass"] * 2 + ["setup"] * 3
    rng.shuffle(todo)
    extra = itertools.cycle(["traced", "pass"] if trace else ["pass"])
    start = time.monotonic()
    took: dict[str, float] = {}
    records = []
    while True:
        elapsed = time.monotonic() - start
        if todo:
            kind = todo.pop()
        else:
            kind = next(extra)
            if elapsed + took[kind] > min(seconds, BUDGET_S):
                break
        t = time.monotonic()
        records.append(run_child(spec, kind, max(1.0, BUDGET_S - elapsed)))
        took[kind] = time.monotonic() - t
    return records


def layer_metrics(trace: dict) -> dict:
    """One traced pass's layer times and counts (step metrics are pooled later)."""
    layers, meshes = trace["layers"], trace["meshes"]
    out = {m: layers.get(layer, 0.0) for m, layer in LAYER_TIMES.items()}
    out["trace.other_s"] = trace["other_s"]
    out.update({c: meshes[-1]["counts"].get(c, 0) for c in FINEST_COUNTS})
    for c in TOTAL_COUNTS:
        out[c] = sum(m["counts"].get(c, 0) for m in meshes)
    return out


def summarize(name: str, spec: dict, records: list, trace: bool) -> dict:
    """Metrics, correctness and the detailed report of one workload's run."""
    errors = [f"{r['kind']} failed: {f}" for r in records if not r["ok"]
              for f in r["failures"]]
    ok = [r for r in records if r["ok"]]
    plain = [r for r in ok if r["kind"] == "pass"]
    traced = [r for r in ok if r["kind"] == "traced"]
    samples = {"wall_s": [r["wall_s"] for r in plain],
               "setup_s": [r["setup_s"] for r in ok if r["kind"] != "traced"],
               "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
    detail = {"workload": name, "command": command_line(spec), "spec": spec,
              "attempted": len(records), "failed": len(records) - len(ok),
              "failed_frac": (len(records) - len(ok)) / len(records),
              "end_to_end": {m: {**describe(v), "samples": v} for m, v in samples.items() if v}}
    metrics = {}
    if not trace:
        if not plain:
            errors.append("no untraced pass succeeded")
        for m, unit in END_TO_END.items():
            metrics[m] = {"value": statistics.median(samples[m]) if samples[m] else None,
                          "unit": unit}
    else:
        if not (traced and plain):
            errors.append("need at least one traced and one untraced pass")
        counts = [[m["counts"] for m in r["trace"]["meshes"]] for r in traced]
        if any(c != counts[0] for c in counts):
            errors.append(f"counts differ between passes (non-deterministic run): {counts}")
        for r in traced:
            gap = r["trace"]["gap_s"]
            if abs(gap) > ACCOUNTING_TOL * r["wall_s"]:
                errors.append(f"spans leave {gap:.3f} s of a {r['wall_s']:.3f} s pass untraced")
        values = {}
        if traced and plain:
            per_pass = [layer_metrics(r["trace"]) for r in traced]
            # counts are equal across passes (checked above); times take the median
            values = {m: statistics.median(p[m] for p in per_pass) if m.endswith("_s")
                      else per_pass[0][m] for m in per_pass[0]}
            steps = {k: [x for r in traced for x in r["trace"]["finest_steps"][k]]
                     for k in ("step_ms", "load_ms", "step_self_ms")}
            values.update({
                "dynamics.step_ms": statistics.median(steps["step_ms"]),
                "dynamics.step_ms_hi": high(steps["step_ms"]),
                "dynamics.step_self_ms": statistics.median(steps["step_self_ms"]),
                "assembly.load_ms": statistics.median(steps["load_ms"]),
                "trace.wall_s": statistics.median(r["wall_s"] for r in traced),
            })
            values["trace.overhead_s"] = (values["trace.wall_s"]
                                          - statistics.median(samples["wall_s"]))
            detail["finest_steps"] = {k: describe(v) for k, v in steps.items()}
            detail["layers_s"] = {k: statistics.median(r["trace"]["layers"].get(k, 0.0)
                                                      for r in traced)
                                  for k in sorted({k for r in traced for k in r["trace"]["layers"]})}
            detail["gap_s"] = [r["trace"]["gap_s"] for r in traced]
            detail["meshes"] = traced[0]["trace"]["meshes"]
        metrics = {m: {"value": values.get(m), "unit": unit} for m, unit in PER_LAYER.items()}
    detail["errors"] = errors
    return {"correct": not errors, "attempted": len(records),
            "failed": len(records) - len(ok), "metrics": metrics, "detail": detail}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(seed: int, records: list) -> dict:
    versions = next((r["versions"] for r in records if "versions" in r), {})
    return {"commit": git_commit(), **versions, "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {var: BLAS_THREADS for var in THREAD_VARS},
            "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
            "seed": seed}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mixedelast" / "__init__.py").is_file():
        print(f"benchmark: no mixedelast source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    results, records = {}, []
    for name in names:
        recs = run_workload(WORKLOADS[name], args.seconds, bool(args.trace), rng)
        records += recs
        results[name] = summarize(name, WORKLOADS[name], recs, bool(args.trace))

    for name, res in results.items():
        d = res["detail"]
        print(f"== {name}: {d['command']}")
        for m, v in res["metrics"].items():
            stats = d["end_to_end"].get(m, {})
            extra = ", ".join(f"{k} {_fmt(x)}" for k, x in stats.items()
                              if k not in ("median", "samples"))
            print(f"  {m} = {_fmt(v['value'])} {v['unit']}" + (f"  ({extra})" if extra else ""))
        print(f"  failed_frac = {d['failed_frac']:.6g} fraction"
              f"  ({d['failed']} of {d['attempted']} runs failed)")
        for e in d["errors"][:5]:
            print(f"  ERROR {e}")
        if len(d["errors"]) > 5:
            print(f"  ... {len(d['errors']) - 5} more errors in the report line")
    report = {"meta": metadata(args.seed, records),
              "workloads": {n: r["detail"] for n, r in results.items()}}
    print("report " + json.dumps(report))

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
