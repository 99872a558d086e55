#!/usr/bin/env python3
"""Self-test of the repo benchmark at toy size; finishes in seconds.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json, at a toy fleet and scale:
  * two untraced runs and one traced run complete and pass their checks;
  * each prints exactly the result keys and the metric names and units
    BENCHMARK.json declares (end_to_end untraced, per_layer traced);
  * output digests and deterministic counter vectors repeat exactly across
    every iteration of both runs, traced or not.
Exits non-zero on the first failure.
"""

import json
import sys

import run as bench

SEED = bench.DEFAULT_SEED


def expect(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_schema(result, declared, label):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
           f"{label}: {result['failed']} of {result['attempted']} failed")
    names = {m["name"]: m["unit"] for m in declared}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(printed == names, f"{label}: metrics {sorted(set(printed) ^ set(names))} "
                             "differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        expect(isinstance(metric["value"], (int, float)),
               f"{label}: {name} is not a number")


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bench.build()
    for workload in (w["name"] for w in spec["workloads"]):
        iterations = []
        for attempt in range(2):
            result, _, its = bench.run(workload, SEED, 0, 0, toy=True)
            check_schema(result, spec["end_to_end"], f"{workload} run {attempt}")
            iterations += its
        result, _, its = bench.run(workload, SEED, 0, 1, toy=True)
        check_schema(result, spec["per_layer"], f"{workload} traced")
        iterations += its
        for key in ("output_sha256", "counters_sha256"):
            seen = {d[key] for d in iterations}
            expect(len(seen) == 1, f"{workload}: {key} differs across runs: {seen}")
        print(f"selftest: {workload} ok ({len(iterations)} iterations, output "
              f"{iterations[0]['output_sha256'][:12]}, counters "
              f"{iterations[0]['counters_sha256'][:12]})")
    print("selftest: ok")


if __name__ == "__main__":
    main()
