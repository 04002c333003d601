"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that
  * an untraced run prints all six end-to-end metrics with a unit, its
    result line holds exactly the end-to-end metrics of BENCHMARK.json
    with their units, and every operation passes its check;
  * a traced run's result line holds exactly the per-layer metrics of
    BENCHMARK.json with their units;
  * a run with the workload's deliberate defect injected (--fault) reports
    failed operations and correct = false, so the output checks bite;
and that the benchmark exits nonzero, printing no result, in a copy that
holds only BENCHMARK.json and this directory (no program to import).
Exits 1 on the first failed assertion.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_battery", "dense_grid", "channel_sweep", "sample_stream")
SIX = ("setup_s", "op_p50_s", "op_tail_s", "items_per_s", "fail_ratio", "peak_rss_mb")


def run(workload: str, *extra, cwd=ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--profile", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        proc, lines = run(workload, "--trace", "0")
        expect(proc.returncode == 0, f"{workload}: exit {proc.returncode}: {proc.stderr}")
        result = json.loads(lines[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{workload}: result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"{workload}: clean run not correct: {lines[-1]}")
        for name in SIX:
            printed = [l.split() for l in lines[:-1] if l.split()[:1] == [name]]
            expect(len(printed) == 1 and len(printed[0]) >= 3,
                   f"{workload}: {name} not printed with a value and a unit")
        expect({k: v["unit"] for k, v in result["metrics"].items()} == end_to_end,
               f"{workload}: end-to-end metrics differ from BENCHMARK.json")

        proc, lines = run(workload, "--trace", "1")
        result = json.loads(lines[-1])
        expect(proc.returncode == 0 and result["correct"], f"{workload}: traced run failed")
        expect({k: v["unit"] for k, v in result["metrics"].items()} == per_layer,
               f"{workload}: per-layer metrics differ from BENCHMARK.json")

        proc, lines = run(workload, "--trace", "0", "--fault")
        result = json.loads(lines[-1])
        fail_ratio = [l.split() for l in lines if l.startswith("fail_ratio")][0][1]
        expect(result["failed"] > 0 and not result["correct"] and float(fail_ratio) > 0,
               f"{workload}: injected defect not caught: {lines[-1]}")
        print(f"ok  {workload}: metrics printed, traced run complete, "
              f"defect caught in {result['failed']} of {result['attempted']} ops")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, lines = run("verify_battery", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not any(l.startswith("{") for l in lines),
           "a copy without the program must exit nonzero and print no result")
    print("ok  no program to import: exit", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
