"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

Usage (from the repository root):

    python3 perfbench/spread.py OUT.json

Runs ``perfbench/run.py --trace 0`` once per seed (1-10) and workload of
BENCHMARK.json (workloads interleaved within a seed), for each of two sets,
and writes every result plus, per set, workload and metric: the median,
the quartiles from ``statistics.quantiles(values, n=4)``, the spread
(Q3 - Q1) / median, and how far the second set's median moved from the
first set's, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)
SETS = 2


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out")
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    runs = []
    for set_no in range(SETS):
        for seed in SEEDS:
            for workload in names:
                out = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                    capture_output=True, text=True, timeout=300)
                lines = out.stdout.strip().splitlines()
                res = json.loads(lines[-1])
                record = json.loads(lines[-2])["run_record"]
                runs.append({"set": set_no, "workload": workload, "seed": seed, "result": res,
                             "run_s": record["run_s"], "timed_walls_s": record["timed_walls_s"],
                             "setup_walls_s": record["setup_walls_s"]})
                print(set_no, workload, seed, res["correct"], f"{record['run_s']:.1f}s",
                      {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
    summary = {}
    for workload in names:
        for m in bench["end_to_end"]:
            first = None
            for set_no in range(SETS):
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                        if r["workload"] == workload and r["set"] == set_no]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                row = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                       "bound": m["bound"]}
                if first is None:
                    first = med
                else:
                    worse = (med - first) if m["better"] == "lower" else (first - med)
                    row["worse_than_first_set"] = worse / first
                summary.setdefault(workload, {}).setdefault(m["name"], []).append(row)
                print(f"set {set_no} {workload:9s} {m['name']:15s} median {med:.6g} "
                      f"spread {row['spread']:.4f} bound {m['bound']}"
                      + (f" worse-than-set-0 {row['worse_than_first_set']:+.4f}"
                         if "worse_than_first_set" in row else ""))
    Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
