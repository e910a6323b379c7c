"""Smoke check of the benchmark itself.

Usage (from the repository root): python3 perfbench/smoke.py

Runs every workload at minimum size (n_rep = 2, no time budget) with and
without tracing and checks that each run is correct and prints exactly the
metrics, with the units, that BENCHMARK.json names; that the layers
predicted idle report zero calls; and that in a directory holding only
BENCHMARK.json and perfbench/ the benchmark exits non-zero without a
result.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
IDLE = {("structure", "bits.fwht.calls"), ("engine", "free_energy.cavity_logz_by_count.calls")}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--n-rep", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            out = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if out.returncode != 0:
                problems.append(f"{where}: exit code {out.returncode}\n{out.stderr[-2000:]}")
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: not correct\n{out.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                diff = sorted(set(got.items()) ^ set(want[trace].items()))
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {diff}")
            for w, name in IDLE:
                if w == workload and trace and res["metrics"][name]["value"] != 0:
                    problems.append(f"{where}: {name} should be 0")
            print(f"{where}: {len(got)} metrics, {res['attempted']} operations", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = _run(bare, bench["workloads"][0]["name"], 0)
        if out.returncode == 0 or out.stdout.strip():
            problems.append("bare directory: expected a non-zero exit and no result")
    finally:
        shutil.rmtree(bare)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for p in problems:
        print(f"PROBLEM {p}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
