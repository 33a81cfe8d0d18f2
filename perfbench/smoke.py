"""Smoke test of the benchmark on the n=4 form of each workload.

    python3 perfbench/smoke.py

Runs the minimum closed loop of one workload untraced and of every workload
traced, and checks that every metric BENCHMARK.json names is emitted with
its unit and a value, that counts repeat and the spans account for each
traced pass, and that a deliberately wrong reference error fails the pass
and counts in ``failed_frac``.  Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import random
import sys

import passrun
import run
from workloads import WORKLOADS, pass_key, smoke_spec


def declared_metrics() -> tuple[dict, dict]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def check_metrics(label: str, result: dict, expected: dict) -> list:
    problems = [] if result["correct"] else [f"{label}: {result['detail']['errors']}"]
    if set(result["metrics"]) != set(expected):
        problems.append(f"{label}: metrics {sorted(result['metrics'])}, "
                        f"expected {sorted(expected)}")
    for name, unit in expected.items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
            problems.append(f"{label}: {name} should carry a value in {unit}, got {got}")
    return problems


def wrong_reference_fails() -> list:
    spec = smoke_spec(WORKLOADS["eg2-cn-converge"])
    wrong = copy.deepcopy(passrun.load_reference())
    wrong[pass_key(spec, 4)]["sigma"] *= 1.0 + 1e-5
    result = {"kind": "pass", **passrun.run_pass(spec, wrong)}
    summary = run.summarize("wrong-reference", spec, [result], trace=False)
    if result["ok"] or summary["correct"] or summary["detail"]["failed_frac"] != 1.0:
        return [f"a wrong reference did not fail the pass: {result['failures']}"]
    return []


def main() -> int:
    end_to_end, per_layer = declared_metrics()
    problems = []
    if end_to_end != run.END_TO_END or per_layer != run.PER_LAYER:
        problems.append("BENCHMARK.json and run.py name different metrics or units")
    rng = random.Random(0)
    # end-to-end metrics are the same for every workload; per-layer ones
    # depend on its stages, so each workload is traced
    runs = [("eg2-cn-converge", False, end_to_end)]
    runs += [(name, True, per_layer) for name in WORKLOADS]
    for name, trace, expected in runs:
        small = smoke_spec(WORKLOADS[name])
        records = run.run_workload(small, 0, trace, rng)
        result = run.summarize(name, small, records, trace)
        problems += check_metrics(f"{name} trace={int(trace)}", result, expected)
        print(f"{name} trace={int(trace)}: {len(records)} passes, correct={result['correct']}")
    problems += wrong_reference_fails()
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
