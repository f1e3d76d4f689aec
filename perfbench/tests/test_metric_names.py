#!/usr/bin/env python3
"""Checks that the workloads and metrics rfbench prints match BENCHMARK.json.

Usage: test_metric_names.py PATH/TO/rfbench PATH/TO/BENCHMARK.json
"""

import json
import subprocess
import sys


def main():
    binary, benchmark_json = sys.argv[1], sys.argv[2]
    printed = json.loads(subprocess.run([binary, "--list-metrics"], check=True,
                                        capture_output=True, text=True).stdout)
    with open(benchmark_json) as f:
        declared = json.load(f)
    failures = []
    declared_workloads = {w["name"] for w in declared["workloads"]}
    for name in sorted(declared_workloads - set(printed["workloads"])):
        failures.append(f"workload {name} declared but not runnable")
    for name in sorted(set(printed["workloads"]) - declared_workloads):
        failures.append(f"workload {name} runnable but not declared")
    for group in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in declared[group]}
        got = {m["name"]: m["unit"] for m in printed[group]}
        if len(got) != len(printed[group]):
            failures.append(f"{group}: duplicate names printed")
        for name in sorted(want.keys() - got.keys()):
            failures.append(f"{group}: {name} declared but not printed")
        for name in sorted(got.keys() - want.keys()):
            failures.append(f"{group}: {name} printed but not declared")
        for name in sorted(want.keys() & got.keys()):
            if want[name] != got[name]:
                failures.append(f"{group}: {name} unit {got[name]} != {want[name]}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
