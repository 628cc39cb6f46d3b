"""The standard-library line-coverage script runs and reports the package."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_linecov_reports_the_modules_a_test_file_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "linecov.py"),
         str(ROOT / "tests" / "test_metrics.py"), "-q", "-p",
         "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = {line.split(":")[0]: line for line in done.stdout.splitlines()
              if line.startswith("gcpnet/")}
    metrics = report["gcpnet/metrics.py"]
    run, total = (int(word) for word in metrics.split()[1:4:2])
    assert 0 < run <= total
    # the metrics tests never import the dynamics laboratory
    assert report["gcpnet/dynamics.py"].split()[1] == "0"
