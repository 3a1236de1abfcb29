#!/usr/bin/env python3
"""Short-mode self-test of the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/selftest.py

Runs a tiny seeded load of each of the three workloads, untraced and
traced (`BENCHMARK.json` lists the two whose figures are steady enough
to gate on; `cold_apps` runs the same way), and checks that each run
prints every metric by name with its unit (the nine end-to-end metrics
in the report, the contract's metrics in the final JSON line) and that
the correctness checks pass.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["cold_apps", "warm_reuse", "large_program"]

# The end-to-end metrics the report prints for every workload, with
# their units (`root_cause_top1_share` is measured on cold_apps only and
# printed as n/a elsewhere).
REPORTED = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "cpu_ms_per_job": "ms",
    "failed_share": "ratio",
    "wrong_reports": "count",
    "root_cause_top1_share": "ratio",
    "rss_peak_mb": "MiB",
    "setup_s": "s",
}


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", "1",
        "--trace", str(trace),
        "--smoke",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def check_result(workload, trace, stdout, expected):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correctness checks failed: {lines[-1]}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{workload} trace={trace}: metrics {sorted(metrics)} != {sorted(expected)}")
    for name, unit in expected.items():
        value = metrics[name]
        if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
            fail(f"{workload} trace={trace}: {name} printed as {value}, expected unit {unit}")
    return "\n".join(lines[:-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in WORKLOADS:
        report = check_result(workload, 0, run(workload, 0), end_to_end)
        for name, unit in REPORTED.items():
            pattern = rf"^\s+{re.escape(name)}\s+(\S+)\s+{re.escape(unit)}\b"
            match = re.search(pattern, report, re.MULTILINE)
            if not match:
                fail(f"{workload}: report does not print {name} in {unit}:\n{report}")
        if not re.search(r"^\s+wrong_reports\s+0\.0+\s", report, re.MULTILINE):
            fail(f"{workload}: wrong_reports is not 0:\n{report}")
        check_result(workload, 1, run(workload, 1), per_layer)
        print(f"selftest: {workload} ok")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
