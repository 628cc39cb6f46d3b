"""gcpnet benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--results DIR] [--tiny]

Run from the root of a checkout.  The run starts one long-lived worker
process (worker.py) that drives `gcpnet.cli.main` through a warm-up pass
and timed passes of the workload, and times set-up in fresh interpreters
between the passes.  It prints a table of every metric with its unit,
saves the full result (metrics, notes, failures, machine block) as JSON
under --results, and prints as its last line the result object of
BENCHMARK.json's format: the end_to_end metrics with --trace 0, the
per_layer metrics with --trace 1.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import catalog
import workloads

HERE = pathlib.Path(__file__).resolve().parent
# every run must end within 180 s; the worker stops starting passes early
# enough to leave room for its last pass and the result
TIME_LIMIT_S = 170.0
# single-threaded BLAS: the worker is one client, and thread start-up noise
# on tiny matrices would only blur the timings
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root):
    env = dict(os.environ)
    # dynamics reads GCP_QUAD_NODES for its default node count; a stray
    # value would silently change the dynamics-branch workload
    removed = env.pop("GCP_QUAD_NODES", None)
    env["PYTHONPATH"] = str(root / "src")
    for key in BLAS_THREAD_VARS:
        env[key] = "1"
    return env, removed


def run_worker(args, env, root, work, budget):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(work), "--budget", f"{budget:.1f}"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, env=env, cwd=root)
    try:
        code = proc.wait(timeout=budget + 5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time limit")
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    with open(work / "worker.json", encoding="utf-8") as fh:
        return json.load(fh)


def print_table(result, metrics_info):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  passes {len(result['passes'])} "
          f"after 1 warm-up  operations {result['attempted']}  "
          f"failed {result['failed']}")
    for name, value in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:40s} {value:>16.6g} {metrics_info[name]['unit']:8s}"
              f" {note}")
    m = result["machine"]
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, blas {m['blas']}, "
          + ", ".join(f"{k}={v}" for k, v in m["env"].items())
          + f" (GCP_QUAD_NODES removed: {m['gcp_quad_nodes_removed']})")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", default=None,
                        help="directory for the full result JSON "
                             "(default perfbench/out/results)")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    started = time.perf_counter()
    root = pathlib.Path.cwd()
    if not (root / "src" / "gcpnet" / "cli.py").is_file():
        print("error: run from the root of a gcpnet checkout "
              "(src/gcpnet/cli.py not found)", file=sys.stderr)
        return 2
    metrics_info, bench = catalog.load(root / "BENCHMARK.json")

    env, removed = child_env(root)
    work = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        budget = TIME_LIMIT_S - (time.perf_counter() - started)
        worker = run_worker(args, env, root, work, budget)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(worker["metrics"])
    notes = dict(worker["notes"])
    if not args.trace:
        metrics["failed_frac"] = worker["failed"] / worker["attempted"]
    worker["machine"]["gcp_quad_nodes_removed"] = removed is not None
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, **worker, "metrics": metrics, "notes": notes}
    print_table(result, metrics_info)

    results = (pathlib.Path(args.results) if args.results
               else HERE / "out" / "results")
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}.s{args.seed}.t{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    listed = bench["per_layer" if args.trace else "end_to_end"]
    line = {"correct": worker["failed"] == 0,
            "attempted": worker["attempted"], "failed": worker["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in listed}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
