"""Fast self-test of the benchmark harness (about two minutes; not part of tier-1).

    python3 perfbench/selftest.py

Runs every workload of run.py (those BENCHMARK.json gates and evolve-2d) at
reduced length, untraced once and traced twice with the same seed, and
checks that:
  * each result line names exactly the metrics of BENCHMARK.json, each with
    its unit and a finite value, and the run is correct with no failures;
  * the report line before it carries failed_frac with a unit;
  * counts (every per-layer metric that is not a time or a ratio of times)
    are identical between the two traced processes;
  * trace.coverage is at least 0.9;
  * without the package sources next to it, the benchmark exits nonzero
    and prints no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import OUT, ROOT, VARYING_UNITS, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "1"


def bench(cwd: Path, workload: str, seed: int, trace: int):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def check_result(label: str, lines: list, expected: list, problems: list) -> dict:
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    if not report.get("failed_frac", {}).get("unit"):
        problems.append(f"{label}: report lacks failed_frac with a unit")
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in expected]:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for spec in expected:
        got = metrics.get(spec["name"], {})
        if got.get("unit") != spec["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{label}: {spec['name']} printed as {got}")
    return metrics


def main() -> int:
    problems = []
    unknown = {w["name"] for w in SPEC["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {unknown}")
    for workload in WORKLOADS:
        code, lines, err = bench(ROOT, workload, 0, 0)
        if code != 0:
            problems.append(f"{workload}: exit {code}\n{err}")
            continue
        check_result(f"{workload} trace 0", lines, SPEC["end_to_end"], problems)
        traced = []
        for _ in range(2):
            code, lines, err = bench(ROOT, workload, 0, 1)
            if code != 0:
                problems.append(f"{workload} trace 1: exit {code}\n{err}")
                break
            traced.append(check_result(f"{workload} trace 1", lines,
                                       SPEC["per_layer"], problems))
        if len(traced) == 2:
            for spec in SPEC["per_layer"]:
                name = spec["name"]
                if spec["unit"] not in VARYING_UNITS and \
                        traced[0][name]["value"] != traced[1][name]["value"]:
                    problems.append(f"{workload}: count {name} differs: "
                                    f"{traced[0][name]} vs {traced[1][name]}")
            if traced[0]["trace.coverage"]["value"] < 0.9:
                problems.append(f"{workload}: trace.coverage below 0.9")

    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench(bare, SPEC["workloads"][0]["name"], 0, 0)
        if code == 0 or any(line.startswith("{") for line in lines):
            problems.append("without sources: expected a nonzero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
