"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, for one second
of timed passes each, and checks that
  * the last line is BENCHMARK.json's result object, correct, with exactly
    BENCHMARK.json's metrics for the mode and their units;
  * the printed table names every end-to-end metric the workload reports,
    with its unit, and every per-layer metric when traced;
  * the correctness checks ran on every invocation;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 1 with the list of problems when any check fails.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

import catalog

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
COMMON = ("setup_s", "wall_s", "work_per_s", "peak_rss_mb", "failed_frac")
# the end-to-end metrics each workload reports
REPORTED = {
    "fit-synthetic": COMMON + ("train_steps_per_s", "rejection_auc"),
    "contamination-bench": COMMON + ("fits_per_s", "train_steps_per_s",
                                     "fit_ms_p50", "fit_ms_tail",
                                     "rejection_auc"),
    "dynamics-branch": COMMON + ("equilibria_per_s", "solve_ms_p50",
                                 "solve_ms_tail"),
    "csv-bulk": COMMON + ("rows_per_s", "train_steps_per_s",
                          "rejection_auc"),
}


def run(cwd, workload, trace, results):
    return subprocess.run(
        [sys.executable, str(pathlib.Path("perfbench") / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny", "--results", str(results)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload, trace, results, metrics, bench):
    problems = []
    proc = run(ROOT, workload, trace, results)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(line)}")
    if not (line["correct"] and line["failed"] == 0 and line["attempted"]):
        problems.append(f"{where}: not correct: {proc.stdout}")
    listed = bench["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} != {expected}")
    names = (REPORTED[workload] if not trace
             else [m["name"] for m in bench["per_layer"]])
    table = {ln.split()[0]: ln.split() for ln in lines[1:-1]
             if ln.startswith("  ")}
    for name in names:
        row = table.get(name)
        if row is None or row[2] != metrics[name]["unit"]:
            problems.append(f"{where}: table lacks {name} "
                            f"[{metrics[name]['unit']}]")
    with open(results / f"{workload}.s7.t{trace}.json",
              encoding="utf-8") as fh:
        saved = json.load(fh)
    if not 0 < saved["checks_run"] == saved["invocations"]:
        problems.append(f"{where}: checks ran on {saved['checks_run']} of "
                        f"{saved['invocations']} invocations")
    return problems


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: no program, so no result."""
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = pathlib.Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "fit-synthetic", 0, bare / "results")
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout!r}"]
    return []


def main():
    metrics, bench = catalog.load(ROOT / "BENCHMARK.json")
    (HERE / "out").mkdir(exist_ok=True)
    problems = check_bare_directory()
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for workload in REPORTED:
            for trace in (0, 1):
                found = check_run(workload, trace, pathlib.Path(tmp),
                                  metrics, bench)
                print(f"{workload} trace {trace}: "
                      f"{'ok' if not found else 'FAILED'}", flush=True)
                problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
