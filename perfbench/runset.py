"""Run workloads over several seeds into one result set, then summarize.

    python3 perfbench/runset.py --out DIR [--seeds 1-10]
        [--workloads a,b] [--trace 0|1] [--seconds N]

Each run is `run.py` invoked exactly as BENCHMARK.json's command, one after
another, so the set holds one result JSON per workload and seed.  The
summary printed at the end is `compare.py DIR`: every metric of every
workload with its unit, median and quartiles.  Defaults: BENCHMARK.json's
workloads and run_seconds, seeds 1-10, no tracing.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import time

import compare

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    for workload in workloads:
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace),
                 "--results", args.out],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            last = (proc.stdout.strip().splitlines() or [""])[-1]
            print(f"{workload} seed {seed}: exit {proc.returncode} in "
                  f"{time.perf_counter() - start:.1f} s  {last[:160]}",
                  flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
    return compare.main([args.out])


if __name__ == "__main__":
    sys.exit(main())
