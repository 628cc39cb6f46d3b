"""The four benchmark workloads: inputs from the seed, CLI invocations,
correctness checks and the unit of work each one reports.

A workload's pass is a list of (step, argv) invocations of
`gcpnet.cli.main`; step names are the output subdirectories.  Checks read
only the artifacts a step wrote and values the benchmark derives from the
seed itself, and they run outside the timed region.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

CERT_TOL = 1e-9
# criterion 3's epsilon grid: the certified branch, then the deep end
BRANCH_EPS = ("0.04", "0.02", "0.01", "0.005")
DEEP_EPS = ("4e-4", "2e-4", "1e-4", "5e-5", "2.5e-5", "1.25e-5")
OUTLIER_FAMILIES = (
    ("gauss-5-1", ["--gaussian-outliers", "5,1"]),
    ("gauss-3-4", ["--gaussian-outliers", "3,4"]),
    ("uniform-m4-16", ["--uniform-outliers=-4,16"]),
)


def _rng(seed, stream):
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _rng_legacy(seed):
    """The generator gcpnet.data seeds from a plain integer."""
    return np.random.Generator(np.random.PCG64(seed))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _row_hashes(features):
    rows = np.ascontiguousarray(features, dtype=float)
    return [hashlib.sha256(row.tobytes()).hexdigest()[:16] for row in rows]


def _predictions(path):
    header, body = _read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    return ([row[col["x_hash"]] for row in body],
            np.array([float(row[col["mean"]]) for row in body]),
            np.array([float(row[col["v_p"]]) for row in body]))


def _auc(mean, variance, targets):
    """Area under the variance-ordered rejection curve, from its definition:
    reject the largest variance first (ties by index), RMSE of the rest,
    trapezoid area over 1/(N-1)."""
    n = len(mean)
    order = np.lexsort((np.arange(n), -variance))
    sq = (mean - targets)[order] ** 2
    kept_sq = np.cumsum(sq[::-1])[::-1]
    curve = np.sqrt(kept_sq / (n - np.arange(n)))
    return float(np.trapezoid(curve) / (n - 1))


class Workload:
    """One workload at one seed; `tiny` shrinks it for the smoke test."""

    name = ""
    work_name = ""      # the throughput metric this workload reports
    reports = ()        # further workload-specific end-to-end metrics
    jobs = 1

    def __init__(self, seed, tiny):
        self.seed = seed % 2**31
        self.tiny = tiny

    def prepare(self, input_dir):
        """Write generated input files (untimed, once per run)."""

    def warmup(self, out):
        return self.steps(out)

    def steps(self, out):
        raise NotImplementedError

    def check(self, step, path, warm):
        """Failure messages for one step's artifacts; empty when correct."""
        return []

    def work(self, summary):
        raise NotImplementedError

    def quality(self, out):
        return None


class FitSynthetic(Workload):
    name = "fit-synthetic"
    work_name = "train_steps_per_s"
    reports = ("rejection_auc",)
    test_n = 200

    def _argv(self, out, epochs):
        argv = ["train", "synthetic", "--preset", "synthetic",
                "--seed", str(self.seed), "--out", str(out / "train")]
        return argv + ["--epochs", str(epochs)] if epochs else argv

    def warmup(self, out):
        # a warm-up at full length would double the run; 20 epochs run the
        # same code, including prediction and every artifact write
        return [("train", self._argv(out, 20))]

    def steps(self, out):
        return [("train", self._argv(out, 60 if self.tiny else None))]

    def check(self, step, path, warm):
        hashes, mean, v_p = _predictions(path / "predictions.csv")
        # the CLI draws the synthetic test inputs from seed + 1 first
        x = _rng_legacy(self.seed + 1).uniform(-1.0, 1.0, size=self.test_n)
        if hashes != _row_hashes(x.reshape(-1, 1)):
            return ["predictions.csv rows do not match the regenerated "
                    "test inputs"]
        if warm:
            return []
        failures = []
        rmse = float(np.sqrt(np.mean((mean - np.sin(3.0 * x)) ** 2)))
        if not rmse < 0.15:
            failures.append(f"criterion 6: mean rmse {rmse:.4f} >= 0.15")
        pearson = float(np.corrcoef(np.sqrt(v_p), 0.5 * np.cos(x) ** 4)[0, 1])
        if not pearson > 0.8:
            failures.append(f"criterion 6: std pearson {pearson:.4f} <= 0.8")
        return failures

    def work(self, summary):
        return summary["steps"]

    def quality(self, out):
        return _read_json(out / "train" / "metrics.json")["auc"]


class ContaminationBench(Workload):
    name = "contamination-bench"
    work_name = "fits_per_s"
    reports = ("train_steps_per_s", "fit_ms", "rejection_auc")
    jobs = min(2, os.cpu_count() or 1)

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.reference = None

    def _argv(self, out, jobs):
        if self.tiny:
            size = ["--fractions", "0,0.1", "--members", "2", "--epochs", "2"]
        else:
            size = ["--fractions", "0,0.1,0.2", "--members", "3",
                    "--epochs", "10"]
        return (["bench", "synthetic", "--repeats", "2", "--ensemble"] + size
                + ["--jobs", str(jobs), "--seed", str(self.seed),
                   "--out", str(out / "bench")])

    def warmup(self, out):
        # the serial run both warms up and is the reference every timed
        # --jobs pass must match byte for byte
        return [("bench", self._argv(out, 1))]

    def steps(self, out):
        return [("bench", self._argv(out, self.jobs))]

    def check(self, step, path, warm):
        raw = (path / "bench.csv").read_bytes()
        header, body = _read_csv(path / "bench.csv")
        expected = (2 if self.tiny else 3) * 2 * 4
        failures = []
        if len(body) != expected:
            failures.append(f"bench.csv has {len(body)} rows, expected "
                            f"{expected}")
        values = [float(v) for row in body for v in row[4:6]]
        if not all(math.isfinite(v) and v > 0 for v in values):
            failures.append("bench.csv has a non-finite or non-positive "
                            "rmse or auc")
        if warm:
            self.reference = raw
        elif raw != self.reference:
            failures.append(f"bench.csv with --jobs {self.jobs} differs from "
                            "the --jobs 1 run of the same seed")
        return failures

    def work(self, summary):
        return summary["fits"]

    def quality(self, out):
        header, body = _read_csv(out / "bench" / "bench.csv")
        col = {name: i for i, name in enumerate(header)}
        aucs = [float(row[col["auc"]]) for row in body
                if row[col["model"]] == "gcp"]
        return sum(aucs) / len(aucs)


class DynamicsBranch(Workload):
    name = "dynamics-branch"
    work_name = "equilibria_per_s"
    reports = ("solve_ms",)

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        rng = _rng(self.seed, 3)
        # cold solves near criterion 3's first branch point and an escape
        # start near its eps = 0 start, jittered by the seed
        self.cold_eps = [float(0.04 * 1.2 ** u) for u in rng.uniform(-1, 1, 3)]
        u_m, u_b = rng.uniform(-1, 1, 2).tolist()
        self.escape_state = (1.2 * (1.0 + 0.1 * u_m), 1.0, 1.0,
                             1.5e7 * (1.0 + 0.2 * u_b))

    def steps(self, out):
        grid = BRANCH_EPS if self.tiny else BRANCH_EPS + DEEP_EPS
        steps = []
        for family, flags in OUTLIER_FAMILIES:
            steps.append((f"sweep-{family}",
                          ["dynamics", "sweep", "--eps", ",".join(grid)]
                          + flags + ["--out", str(out / f"sweep-{family}")]))
        for (family, flags), eps in zip(OUTLIER_FAMILIES, self.cold_eps):
            steps.append((f"equilibrium-{family}",
                          ["dynamics", "equilibrium", "--epsilon", repr(eps)]
                          + flags
                          + ["--out", str(out / f"equilibrium-{family}")]))
        steps.append(("escape",
                      ["dynamics", "simulate", "--epsilon", "0",
                       "--state", ",".join(map(repr, self.escape_state)),
                       "--t-end", "5e6", "--escape-bound", "1e3",
                       "--out", str(out / "escape")]))
        return steps

    def check(self, step, path, warm):
        if step.startswith("sweep-"):
            header, body = _read_csv(path / "sweep.csv")
            col = {name: i for i, name in enumerate(header)}
            failures = [f"sweep eps {row[0]}: residual {row[col['residual']]} "
                        f"at doubled nodes is not below {CERT_TOL}"
                        for row in body
                        if not float(row[col["residual"]]) < CERT_TOL]
            # criterion 3(b): eps*alpha approaches its limit monotonically
            gaps = [abs(float(row[col["eps_alpha_ratio"]]) - 1.0)
                    for row in body[:len(BRANCH_EPS)]]
            if not all(a > b for a, b in zip(gaps, gaps[1:])):
                failures.append(f"eps*alpha gaps do not shrink: {gaps}")
            return failures
        if step.startswith("equilibrium-"):
            eq = _read_json(path / "equilibrium.json")
            if not (eq["converged"] and max(eq["residuals"]) < CERT_TOL):
                return [f"equilibrium not certified: {eq['residuals']}"]
            return []
        if not _read_json(path / "manifest.json")["escaped"]:
            return ["escape run did not report escaped"]
        return []

    def work(self, summary):
        return summary["equilibria"]


class CsvBulk(Workload):
    name = "csv-bulk"
    work_name = "rows_per_s"
    reports = ("train_steps_per_s", "rejection_auc")
    train_fraction = 0.1

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.rows = 3000 if tiny else 50_000
        self.path = None

    def _data(self):
        rng = _rng(self.seed, 4)
        x = rng.uniform(-1.0, 1.0, size=(self.rows, 8))
        noise = (0.1 + 0.3 * np.abs(x[:, 5])) * rng.normal(size=self.rows)
        y = (np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2] + x[:, 3] ** 2
             - 0.3 * x[:, 4] + noise)
        wild = rng.random(self.rows) < 0.05
        y = np.where(wild, rng.uniform(-10.0, 10.0, size=self.rows), y)
        return x, y

    def prepare(self, input_dir):
        input_dir.mkdir(parents=True, exist_ok=True)
        self.path = input_dir / "bulk.csv"
        x, y = self._data()
        with open(self.path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(8)] + ["y"])
            for row in np.column_stack([x, y]).tolist():
                writer.writerow([repr(v) for v in row])
        # the CLI splits with a permutation seeded by --seed; the test rows
        # are the ones past the training cut
        n_train = int(math.floor(self.train_fraction * self.rows))
        test = _rng_legacy(self.seed).permutation(self.rows)[n_train:]
        self.test_x, self.test_y = x[test], y[test]

    def steps(self, out):
        return [("train", ["train", str(self.path), "--preset", "kin8nm-gcp",
                           "--epochs", "2",
                           "--train-fraction", repr(self.train_fraction),
                           "--seed", str(self.seed),
                           "--out", str(out / "train")])]

    def check(self, step, path, warm):
        hashes, mean, v_p = _predictions(path / "predictions.csv")
        if len(hashes) != len(self.test_y):
            return [f"{len(hashes)} prediction rows for "
                    f"{len(self.test_y)} test samples"]
        failures = []
        if hashes != _row_hashes(self.test_x):
            failures.append("prediction rows do not match the test samples")
        if not np.all(np.isfinite(v_p) & (v_p > 0)):
            failures.append("v_p is not finite and positive everywhere")
        stored = _read_json(path / "metrics.json")["auc"]
        recomputed = _auc(mean, v_p, self.test_y)
        if not abs(stored - recomputed) <= 1e-12 * abs(recomputed):
            failures.append(f"metrics.json auc {stored!r} != {recomputed!r} "
                            "recomputed from predictions.csv")
        return failures

    def work(self, summary):
        return len(self.test_y)

    def quality(self, out):
        return _read_json(out / "train" / "metrics.json")["auc"]


WORKLOADS = {cls.name: cls for cls in
             (FitSynthetic, ContaminationBench, DynamicsBranch, CsvBulk)}
