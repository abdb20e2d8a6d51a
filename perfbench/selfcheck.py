"""Check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json untraced and traced for one second.
Each run must exit 0 with ``correct`` true: run.py fails a run whose metric
names differ from BENCHMARK.json, and a traced run compares its traced calls
bit for bit with the untraced ones.  Last, it runs the harness from a
directory holding only BENCHMARK.json and perfbench/, where it must fail
without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            print(f"ran {label}", flush=True)
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, workloads[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        problems.append("without the program the harness must fail without a result")
    for problem in problems:
        print(f"selfcheck failed: {problem}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
