"""Check that the deterministic counters repeat exactly across two traced runs.

    python3 perfbench/steady.py

Runs `run.py --trace 1` twice with seed 1 for every workload of
BENCHMARK.json and compares the counters that later changes may cite as
counts, plus the accuracy digits of the traced pass.
Exits 1 if any differs, if a run is not correct, or if the two runs used
different mpmath backends.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTERS = ["kz.a_evals", "kz.transport_paths", "kz.series_calls",
            "hecke.products_calls", "rings.demazure_x_calls",
            "scalars.cyclotomic_inverse_calls"]


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    values = {k: result["metrics"][k]["value"] for k in COUNTERS}
    values["accuracy_digits"] = record["accuracy_digits"]
    return {"backend": record["mpmath_backend"], "correct": result["correct"],
            "values": values}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = (traced_run(workload) for _ in range(2))
        same = first == second
        steady = steady and same and first["correct"]
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} "
              f"{json.dumps(first['values'])}")
        if not same:
            print(f"  second run: {json.dumps(second)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
