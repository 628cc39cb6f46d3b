"""The long-lived worker process of one benchmark run.

Started by run.py with PYTHONPATH pointing at the checkout's src/, it
imports the program once, runs one warm-up pass and then timed passes of
one workload back to back (a closed loop with one client), checks every
pass's artifacts outside the timed region, and writes worker.json (and,
when traced, spans.jsonl) into its output directory.  Untraced, it also
times set-up in fresh interpreters, spread over the timed window between
passes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --out DIR --budget SECONDS [--tiny]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

clock = time.perf_counter
START = clock()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gcpnet.cli as cli  # noqa: E402
import gcpnet.special as special  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# set-up as a user pays it on every command: a fresh interpreter imports
# the CLI and builds the first A(alpha) table
SETUP_CODE = ("import gcpnet.cli\n"
              "from gcpnet.special import alpha_table\n"
              "alpha_table()\n")
# the samples are spread evenly over the timed window, so that their median
# sees the same stretch of the host's speed as the passes do
SETUP_SAMPLES = 9


class SetupError(RuntimeError):
    """A set-up interpreter failed."""


def time_setup():
    """Wall time of one fresh interpreter running SETUP_CODE."""
    start = clock()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                          capture_output=True, text=True, timeout=60)
    elapsed = clock() - start
    if proc.returncode != 0:
        raise SetupError(f"set-up interpreter failed:\n{proc.stderr}")
    return elapsed


def machine():
    """The machine and environment block every result carries."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "env": {key: os.environ.get(key, "unset") for key in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "GCP_QUAD_NODES")},
    }


def tree_digest(path):
    """sha256 over every file's relative name and bytes, plus the size."""
    digest, size = hashlib.sha256(), 0
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        data = file.read_bytes()
        digest.update(str(file.relative_to(path)).encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            break
    return float(np.percentile(values, pct)), pct, n


class Run:
    def __init__(self, args):
        self.args = args
        self.out = pathlib.Path(args.out)
        self.workload = workloads.WORKLOADS[args.workload](args.seed,
                                                           args.tiny)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.checks_run = 0
        self.invocations = 0
        self.digests = {}
        self.spans = []
        self.setup = []

    def run_pass(self, steps, pass_dir, recorder, label, warm=False):
        """Time each CLI invocation, then check its artifacts untimed.

        Each invocation is one operation, and so is each solve; an
        invocation fails on a non-zero exit, a traceback, a failed check or
        artifacts that differ from the first timed pass."""
        wall = 0.0
        recorder.install()
        try:
            codes = []
            for step, argv in steps:
                sink = io.StringIO()
                start = clock()
                try:
                    with contextlib.redirect_stdout(sink):
                        code = cli.main(argv)
                except Exception as exc:  # a traceback is a failed operation
                    code = f"{type(exc).__name__}: {exc}"
                wall += clock() - start
                codes.append(code)
        finally:
            recorder.uninstall()
        digests, size = {}, 0
        for (step, _), code in zip(steps, codes):
            path = pass_dir / step
            failures = [f"exit {code}"] if code != 0 else []
            if not failures:
                try:
                    failures = self.workload.check(step, path, warm)
                    self.checks_run += 1
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    failures = [f"check raised {type(exc).__name__}: {exc}"]
            digests[step], step_size = tree_digest(path)
            size += step_size
            if not warm:
                if digests[step] != self.digests.setdefault(step,
                                                            digests[step]):
                    failures.append("artifacts differ from the first timed "
                                    "pass of the same seed")
            self.invocations += 1
            self.attempted += 1
            self.failed += bool(failures)
            self.failures += [f"{label} {step}: {msg}" for msg in failures]
        summary = tracing.work_summary(recorder.spans)
        self.attempted += len(summary["solve_ms"])
        self.failed += summary["solve_errors"]
        if summary["solve_errors"]:
            self.failures.append(f"{label}: {summary['solve_errors']} solves "
                                 "raised")
        return wall, summary, size

    def main(self):
        args, wl = self.args, self.workload
        wl.prepare(self.out / "input")
        build = tracing.traced_build() if args.trace else None

        warm_dir = self.out / "warm-up"
        self.warmup_wall, _, _ = self.run_pass(
            wl.warmup(warm_dir), warm_dir, tracing.Recorder(full=False),
            "warm-up", warm=True)

        passes = []
        timed_start = clock()
        while True:
            k = len(passes)
            traced = bool(args.trace) and k % 2 == 0
            recorder = tracing.Recorder(full=traced)
            pass_dir = self.out / f"pass{k}"
            wall, summary, size = self.run_pass(wl.steps(pass_dir), pass_dir,
                                                recorder, f"pass {k}")
            row = {"wall_s": wall, "traced": traced,
                   "work": wl.work(summary), **summary}
            quality = wl.quality(pass_dir)
            if traced:
                row["layers"] = tracing.layer_metrics(
                    recorder.spans, recorder.counts(), wall, wl.jobs, size,
                    build)
                self.spans += [dict(span, **{"pass": k})
                               for span in recorder.spans]
            passes.append(row)
            if not args.trace:
                while (len(self.setup) < SETUP_SAMPLES
                       and clock() - timed_start
                       >= len(self.setup) * args.seconds / SETUP_SAMPLES):
                    self.setup.append(time_setup())
            elapsed = clock() - timed_start
            spent = clock() - START
            if len(passes) >= 2 and elapsed >= args.seconds:
                break
            if spent + 1.5 * (wall + self.setup_reserve()) > args.budget:
                break
        while not args.trace and len(self.setup) < SETUP_SAMPLES:
            self.setup.append(time_setup())
        return passes, quality

    def setup_reserve(self):
        """Time the set-up samples still due will take."""
        if self.args.trace:
            return 0.0
        return ((SETUP_SAMPLES - len(self.setup))
                * max(self.setup, default=1.0))

    def metrics(self, passes, quality):
        wl = self.workload
        walls = [p["wall_s"] for p in passes]
        out = {}
        if self.args.trace:
            traced = [p["layers"] for p in passes if p["traced"]]
            for key in traced[0]:
                out[key] = statistics.median(t[key] for t in traced)
            plain = [p["wall_s"] for p in passes if not p["traced"]]
            traced_walls = [p["wall_s"] for p in passes if p["traced"]]
            out["trace.overhead_frac"] = (
                statistics.median(traced_walls) / statistics.median(plain)
                - 1.0 if plain else 0.0)
            return out, {}

        # time averages over the window, not medians of passes: the host's
        # speed flips between two levels every few seconds, and a median
        # of passes lands on one level or the other
        def rate(key):
            return sum(p[key] for p in passes) / sum(walls)

        out["wall_s"] = sum(walls) / len(walls)
        notes = {"wall_s": f"mean of {len(walls)} passes; warm-up "
                           f"{self.warmup_wall:.3f} s"}
        out["setup_s"] = statistics.median(self.setup)
        notes["setup_s"] = (f"median of {len(self.setup)} fresh "
                            "interpreters: "
                            + ", ".join(f"{s:.3f}" for s in self.setup))
        out["work_per_s"] = rate("work")
        out[wl.work_name] = out["work_per_s"]
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
        for report in wl.reports:
            if report == "train_steps_per_s":
                out[report] = rate("steps")
            elif report == "rejection_auc":
                out[report] = quality
            else:
                samples = [ms for p in passes for ms in p[report]]
                out[f"{report}_p50"] = statistics.median(samples)
                value, pct, n = tail(samples)
                out[f"{report}_tail"] = value
                notes[f"{report}_tail"] = f"p{pct:g} of {n} samples"
        return out, notes


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    special.alpha_table()
    run = Run(args)
    try:
        passes, quality = run.main()
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, notes = run.metrics(passes, quality)
    result = {
        "metrics": metrics, "notes": notes,
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures, "checks_run": run.checks_run,
        "invocations": run.invocations,
        "passes": [{k: v for k, v in p.items() if k != "layers"}
                   for p in passes],
        "machine": machine(),
    }
    # artifacts are deleted only after the timed passes, so that no pass
    # is timed while the file system frees the previous pass's blocks
    for path in run.out.iterdir():
        shutil.rmtree(path)
    with open(run.out / "worker.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if run.spans:
        with open(run.out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in run.spans:
                fh.write(json.dumps(span) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
