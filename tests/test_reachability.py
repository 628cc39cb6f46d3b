"""Every function and method in src/gcpnet is run by some command.

One child process imports tests/linecov.py and traces, from before it
imports gcpnet, the command runs of linecov.commands(): every golden
invocation, the portable uniform sweep and escape run, `solve-a --alpha`
and `train` on a CSV file.  A function none of whose lines ran fails the
test unless ALLOWED names it with its reason, and an allowed function that
did run, or is gone, fails it too: its entry is stale.  Code that only
tests run belongs in tests/.  The same report, per module, comes from

    PYTHONPATH=src python tests/linecov.py --commands
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

ERROR_PATH = "error path"
# ROADMAP item 7 gives the inverse problem and the correction law a command
ITEM_7 = "waits for item 7"
ALLOWED = {
    "net.MlpHead.finite_heads": ERROR_PATH,
    "net._blamed_column": ERROR_PATH,
    "special.TrainingDiverged.__init__": ERROR_PATH,
    "special.TrainingDiverged.__reduce__": ERROR_PATH,
    "dynamics.InverseReport.power_ratios": ITEM_7,
    "dynamics.InverseReport.ratios": ITEM_7,
    "dynamics._inverse_residual": ITEM_7,
    "dynamics.solve_mean_root": ITEM_7,
    "dynamics.verify_mean_exponential": ITEM_7,
    "dynamics.verify_variance_correction": ITEM_7,
    "gcp.correction_constants": ITEM_7,
    "gcp.corrected_variance": ITEM_7,
    "special.gauss_weighted_integral": ITEM_7,
    "special.log_gap_slope": ITEM_7,
}

CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:]
import linecov
code, hits = linecov.trace_commands()
print(json.dumps({"exit": code, "unrun": linecov.unrun_functions(hits)}))
"""


def test_every_function_is_run_by_a_command():
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "tests"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["exit"] == 0, done.stderr
    unrun = set(report["unrun"])
    assert sorted(unrun - set(ALLOWED)) == [], "run by no command"
    assert sorted(set(ALLOWED) - unrun) == [], "allowed but run or gone"
