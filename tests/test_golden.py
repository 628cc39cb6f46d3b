"""Golden SHA-256 digests of the artifacts of small, deterministic commands.

Every file a listed invocation writes, manifest included, must hash to the
value in tests/golden/digests.json.  The digests depend on floating-point
results, so the file also records the numpy, scipy and BLAS versions it was
made with; a mismatch names them.  A change that moves numbers on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest
import scipy

from gcpnet import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "digests.json"

TRAIN = ["train", "synthetic", "--epochs", "5"]

# name -> argv without --out
INVOCATIONS = {
    "train": TRAIN,
    "train-baseline": TRAIN + ["--baseline"],
    "train-ensemble": TRAIN + ["--ensemble", "--members", "2"],
    "train-dropout": TRAIN + ["--dropout", "0.2"],
    "bench": ["bench", "synthetic", "--fractions", "0,0.1", "--repeats", "1",
              "--epochs", "5"],
    "solve-a": ["solve-a", "--grid", "0.01:100:9"],
    "dynamics-equilibrium": ["dynamics", "equilibrium", "--epsilon", "0.04"],
    "dynamics-sweep": ["dynamics", "sweep", "--eps", "0.04,0.02,0.01"],
    "dynamics-field": ["dynamics", "field", "--epsilon", "0.04",
                       "--alpha-range", "0.5:50:4",
                       "--sigma-range", "0.5:50:4"],
    "dynamics-simulate": ["dynamics", "simulate", "--epsilon", "0.05",
                          "--t-end", "20"],
}


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '?')}"}


def run_digests(name, root):
    out = pathlib.Path(root) / name
    code = cli.main(INVOCATIONS[name] + ["--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def load_golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_artifacts_match_golden_digests(name, tmp_path, capsys):
    golden = load_golden()
    want, got = golden["digests"][name], run_digests(name, tmp_path)
    capsys.readouterr()
    if got != want:
        changed = sorted(f for f in set(got) | set(want)
                         if got.get(f) != want.get(f))
        note = ""
        if golden["versions"] != versions():
            note = (f"; digests were made with {golden['versions']}, this "
                    f"run has {versions()}")
        pytest.fail(f"{name}: artifacts {changed} differ from "
                    f"{GOLDEN.name}{note}")


def test_golden_file_covers_every_invocation():
    assert sorted(load_golden()["digests"]) == sorted(INVOCATIONS)


def main(root):
    doc = {"versions": versions(),
           "invocations": INVOCATIONS,
           "digests": {n: run_digests(n, root) for n in INVOCATIONS}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
