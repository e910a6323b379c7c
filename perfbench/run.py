"""coupledsk benchmark: three workloads through the real CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload engine|gibbs|structure --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` a run alternates set-up passes (the workload's
subcommands at n_rep = 2) and timed passes (full n_rep), each subcommand a
fresh ``python -m coupledsk.cli`` process, until ``--seconds`` have passed
and at least three of each have run.  It prints the end-to-end metrics:
medians over passes.  With ``--trace 1`` it runs one reference pass the
same way, then in-process passes under the tracer (see ``tracer.py``), and
prints the per-layer metrics.  Every run checks exit codes, byte-identity of
the reports across passes, and oracle spot-checks (``oracle.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (machine, versions, BLAS pin, threads, seed, commit).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# Pinned before numpy is imported here or in any child: compute threads stay
# at or below --threads.  Default OpenBLAS threading under the fork pool is a
# known, unmeasured defect (README.md).
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_N_REP = 2
SOFT_LIMIT_S = 110.0  # no new pass starts after this
HARD_LIMIT_S = 170.0  # any child still running is killed (the run must end by 180 s)
ESTIMATES_PER_ROW = {"interp.csv": 3, "overlap_resolved.csv": 0}


class Run:
    """Operation accounting and child-process handling for one benchmark run."""

    def __init__(self, workdir: Path, start: float):
        self.workdir = workdir
        self.start = start
        self.attempted = 0
        self.failures: list[str] = []
        self.verdicts_failed = 0  # exit code 1: a statistical check said no
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        self._serial = 0

    def op(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")

    def fresh_dir(self, kind: str) -> Path:
        self._serial += 1
        path = self.workdir / f"{self._serial:03d}-{kind}"
        path.mkdir(parents=True)
        return path

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, int, str, bool]:
        """Run a child to completion: exit code, wall seconds, max RSS in KiB
        (its own or any reaped descendant's, such as pool workers), stderr,
        and whether it was killed for running past the hard limit."""
        killed = []

        def kill():  # the whole process group: pool workers go with their parent
            killed.append(True)
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(self.start + HARD_LIMIT_S - time.perf_counter(), 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss, log.read_text(errors="replace"), bool(killed)


def read_reports(out: Path) -> dict[str, bytes]:
    """Every report file, the manifest without its timestamp line."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if b'"timestamp":' not in line)
        files[str(path.relative_to(out))] = data
    return files


def _exit_problem(code, stderr: str = "", killed: bool = False) -> str | None:
    if killed:
        return "killed at the run's time limit"
    if code == "exception" or "Traceback (most recent call last)" in stderr:
        return "uncaught exception"
    if isinstance(code, int) and code < 0:
        return f"killed by signal {-code}"
    if code not in (0, 1):
        return f"exit code {code}"
    return None


def _report_problem(reports, reference) -> str | None:
    if reference is None or reports == reference:
        return None
    differ = sorted(k for k in set(reports) | set(reference) if reports.get(k) != reference.get(k))
    return f"reports differ from the reference pass in {differ}"


def subprocess_pass(run: Run, wl: workloads.Workload, reference: dict | None, kind: str) -> dict:
    """Each subcommand as a fresh CLI process at the workload's --threads."""
    pass_dir = run.fresh_dir(kind)
    rss, reports = [], {}
    t0 = time.perf_counter()
    for inv in wl.invocations:
        out = pass_dir / inv.label
        argv = [sys.executable, "-m", "coupledsk.cli", inv.command, "--config", str(inv.config),
                "--threads", str(wl.threads), "--out", str(out)]
        code, _, maxrss, stderr, killed = run.spawn(argv, pass_dir / f"{inv.label}.stderr")
        reports[inv.label] = read_reports(out) if out.is_dir() else {}
        problem = _exit_problem(code, stderr, killed) or _report_problem(
            reports[inv.label], (reference or {}).get(inv.label))
        run.op(f"{kind} {inv.label}", problem and f"{problem}\n{stderr[-2000:]}")
        run.verdicts_failed += code == 1
        rss.append(maxrss)
    wall = time.perf_counter() - t0
    shutil.rmtree(pass_dir)
    return {"wall": wall, "rss_kib": max(rss), "reports": reports}


def inproc_pass(run: Run, wl: workloads.Workload, reference: dict, mode: str, threads: int) -> dict:
    """Every subcommand through cli.main in one traced child process."""
    pass_dir = run.fresh_dir(f"inproc-{mode}-t{threads}")
    plan = {
        "mode": mode, "threads": threads,
        "invocations": [[i.label, i.command, str(i.config), str(pass_dir / i.label)]
                        for i in wl.invocations],
        "dump": str(pass_dir / "spans.json"),
    }
    (pass_dir / "plan.json").write_text(json.dumps(plan))
    code, _, _, stderr, killed = run.spawn(
        [sys.executable, str(HERE / "inproc.py"), str(pass_dir / "plan.json")],
        pass_dir / "inproc.stderr")
    dump = None
    if code == 0 and not killed:
        with open(plan["dump"]) as fh:
            dump = json.load(fh)
    for inv in wl.invocations:
        out = pass_dir / inv.label
        if dump is None:
            problem = f"traced pass died: {_exit_problem(code, stderr, killed) or code}"
        else:
            problem = _exit_problem(dump["codes"].get(inv.label, "missing")) or _report_problem(
                read_reports(out) if out.is_dir() else {}, reference.get(inv.label))
            problem = problem and f"{problem}\n{dump['errors'].get(inv.label, '')[-2000:]}"
            run.verdicts_failed += dump["codes"].get(inv.label) == 1
        run.op(f"in-process {mode} t{threads} {inv.label}",
               problem and f"{problem}\n{stderr[-2000:]}")
    shutil.rmtree(pass_dir)
    return dump or {"wall_s": 0.0, "names": [], "spans": [], "counters": {}, "distinct": {},
                    "missing": [], "codes": {}, "errors": {}}


def estimates_reported(reports: dict) -> int:
    """Monte Carlo estimates a pass reports: one per CSV row (three per
    interp.csv row: phi, finite difference, Gibbs), none in the table dumps."""
    total = 0
    for files in reports.values():
        for name, data in files.items():
            if name.endswith(".csv"):
                rows = max(len(data.decode().splitlines()) - 1, 0)
                total += rows * ESTIMATES_PER_ROW.get(Path(name).name, 1)
    return total


def run_oracles(run: Run, name: str, wl, reports) -> float:
    worst = 0.0
    try:
        checks = oracle.CHECKS[name](wl, reports)
    except Exception:  # a crashing oracle is a failed check, reported with its traceback
        run.op(f"oracle {name}", f"raised\n{traceback.format_exc()}")
        return float("inf")
    for what, gap in checks:
        worst = max(worst, gap)
        run.op(f"oracle {what}", None if gap <= oracle.TOL else f"gap {gap:.3e} > {oracle.TOL:g}")
    return worst


def timed_runs(run: Run, wl, setup_wl, seconds: float) -> tuple[dict, dict]:
    setups, timed = [], []
    ref_setup = ref_timed = None
    while True:
        elapsed = time.perf_counter() - run.start
        done = len(setups) >= MIN_PASSES and len(timed) >= MIN_PASSES and elapsed >= seconds
        if done or (elapsed > SOFT_LIMIT_S and setups and timed):
            break
        s = subprocess_pass(run, setup_wl, ref_setup, "setup")
        ref_setup = ref_setup or s["reports"]
        setups.append(s)
        t = subprocess_pass(run, wl, ref_timed, "timed")
        ref_timed = ref_timed or t["reports"]
        timed.append(t)
    n_rep_estimates = wl.n_rep * estimates_reported(ref_timed)
    metrics = {
        "wall_s": (statistics.median(t["wall"] for t in timed), "s"),
        "replicas_per_s": (statistics.median(n_rep_estimates / t["wall"] for t in timed), "1/s"),
        "setup_s": (statistics.median(s["wall"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(t["rss_kib"] / 1024.0 for t in timed), "MiB"),
    }
    record = {"timed_passes": len(timed), "setup_passes": len(setups),
              "timed_walls_s": [t["wall"] for t in timed],
              "setup_walls_s": [s["wall"] for s in setups],
              "replica_evaluations_per_pass": n_rep_estimates}
    return metrics, {"record": record, "reports": ref_timed}


def traced_runs(run: Run, wl) -> tuple[dict, dict]:
    ref = subprocess_pass(run, wl, None, "reference")
    # Two of each, alternating; the faster of each pair is the less disturbed
    # one.  The baseline records only the handful of pmap spans, so its wall
    # is the untraced one.
    bases, fulls = [], []
    for _ in range(2):
        bases.append(inproc_pass(run, wl, ref["reports"], "pmap", 1))
        fulls.append(inproc_pass(run, wl, ref["reports"], "full", 1))
    base = min(bases, key=lambda d: d["wall_s"])
    full = min(fulls, key=lambda d: d["wall_s"])
    metrics = tracer.summarize(full, workloads.LABELS)
    metrics["trace.overhead_s"] = (full["wall_s"] - base["wall_s"], "s")
    metrics["trace.unattributed_s"] = (full["wall_s"] - tracer.top_level_s(full), "s")
    speedup = 0.0
    if wl.threads > 1:
        t2 = inproc_pass(run, wl, ref["reports"], "pmap", wl.threads)
        pmap_t1 = tracer.span_table(base).get("parallel.pmap", {}).get("total_s", 0.0)
        pmap_t2 = tracer.span_table(t2).get("parallel.pmap", {}).get("total_s", 0.0)
        speedup = pmap_t1 / pmap_t2 if pmap_t2 > 0 else 0.0
    metrics["parallel.pmap.speedup_t2"] = (speedup, "ratio")
    record = {"traced_wall_s": full["wall_s"], "baseline_wall_s": base["wall_s"],
              "spans": len(full["spans"]), "targets_missing": full["missing"],
              "computed_metrics": list(tracer.COMPUTED),
              "speedup_t2": "measured" if wl.threads > 1 else "not measured (no pool here)"}
    return metrics, {"record": record, "reports": ref["reports"]}


def run_record(wl: workloads.Workload, seed: int) -> dict:
    import numpy as np
    import scipy

    rec = {
        "workload": wl.name, "seed": seed, "threads": wl.threads, "n_rep": wl.n_rep,
        "nproc": os.cpu_count(), "cpu_model": None, "caches": [],
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "openblas": None, "blas_pin": BLAS_PIN,
        "commit": "unavailable: the checkout is not a git repository",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            rec["caches"].append("L{} {} {}".format(*((idx / f).read_text().strip()
                                                      for f in ("level", "type", "size"))))
    except OSError:
        pass
    try:
        rec["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True)
            rec["commit"] = out.stdout.strip() or None
    return rec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-rep", type=int, default=None,
                        help="replica count of the timed passes (smoke check only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coupledsk" / "cli.py").is_file():
        print(f"error: no coupledsk sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(workdir, start)
    try:
        wl = workloads.generate(args.workload, args.seed, workdir / "inputs", n_rep=args.n_rep)
        setup_wl = workloads.generate(args.workload, args.seed, workdir / "inputs-setup",
                                      n_rep=SETUP_N_REP)
        # compiles the package's bytecode once, so no timed process pays for it
        code, _, _, stderr, _ = run.spawn([sys.executable, "-c", "import coupledsk.cli"],
                                          workdir / "warmup.stderr")
        if code != 0:
            print(f"error: coupledsk does not import:\n{stderr}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, extra = traced_runs(run, wl)
        else:
            metrics, extra = timed_runs(run, wl, setup_wl, args.seconds)
        worst = run_oracles(run, args.workload, wl, extra["reports"])
        if args.trace:
            metrics["oracle.max_rel_err"] = (worst, "ratio")
        else:
            metrics["success_rate"] = (1.0 - len(run.failures) / run.attempted, "ratio")
        record = run_record(wl, args.seed)
        record.update(extra["record"], verdicts_failed=run.verdicts_failed,
                      failures=len(run.failures), run_s=time.perf_counter() - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
