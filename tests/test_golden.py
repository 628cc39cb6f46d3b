"""Golden SHA-256 digests of the artifacts of small, deterministic commands.

Every file a listed invocation writes, manifest included, must hash to the
value in tests/golden/digests.json, and every JSON file among them must be
strict JSON, without NaN or Infinity.  The digests depend on floating-point
results, so the file also records the numpy, scipy and BLAS versions it was
made with; a mismatch names them.  A change that moves numbers on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each invocation/file whose digest moved, and says so in
CHANGES.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy

from gcpnet import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "digests.json"

TRAIN = ["train", "synthetic", "--epochs", "5"]
BENCH = ["bench", "synthetic", "--fractions", "0,0.1", "--repeats", "1",
         "--epochs", "5"]

# name -> argv without --out
INVOCATIONS = {
    "train": TRAIN,
    "train-baseline": TRAIN + ["--baseline"],
    "train-ensemble": TRAIN + ["--ensemble", "--members", "2"],
    "train-dropout": TRAIN + ["--dropout", "0.2"],
    "bench": BENCH,
    "bench-ensemble": BENCH + ["--ensemble", "--members", "2"],
    "solve-a": ["solve-a", "--grid", "0.01:100:9"],
    "dynamics-equilibrium": ["dynamics", "equilibrium", "--epsilon", "0.04"],
    "dynamics-sweep": ["dynamics", "sweep", "--eps", "0.04,0.02,0.01"],
    "dynamics-field": ["dynamics", "field", "--epsilon", "0.04",
                       "--alpha-range", "0.5:50:4",
                       "--sigma-range", "0.5:50:4"],
    "dynamics-simulate": ["dynamics", "simulate", "--epsilon", "0.05",
                          "--t-end", "20"],
}


# every dynamics command, run in-process and in child processes that force
# other OpenBLAS kernels: no dynamics artifact may depend on the kernel
PORTABLE = {
    "sweep-gaussian": INVOCATIONS["dynamics-sweep"],
    "sweep-uniform": INVOCATIONS["dynamics-sweep"]
    + ["--uniform-outliers=-4,16"],
    "equilibrium": INVOCATIONS["dynamics-equilibrium"],
    "field": INVOCATIONS["dynamics-field"],
    "simulate": INVOCATIONS["dynamics-simulate"],
    "escape": ["dynamics", "simulate", "--epsilon", "0",
               "--state", "1.2,1,1,1.5e7", "--t-end", "5e6",
               "--escape-bound", "1e3"],
}
# OpenBLAS's AVX2 and SSE3 kernels.  Only the BLAS kernel varies: numpy's
# own SIMD loops stay this host's, and those do move dynamics bytes (numpy's
# AVX-512 log1p differs from its AVX2 one in the last bit; ROADMAP item 1)
OTHER_KERNELS = ("Haswell", "Prescott")
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import test_golden
with contextlib.redirect_stdout(io.StringIO()):
    digests = test_golden.portable_digests(sys.argv[2])
print(json.dumps(digests))
"""


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '?')}"}


def artifact_digests(argv, out):
    """Digest of every file that `argv` writes into the directory out."""
    code = cli.main(argv + ["--out", str(out)])
    assert code == 0, f"{argv} exited {code}"
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def run_digests(name, root):
    return artifact_digests(INVOCATIONS[name], pathlib.Path(root) / name)


def portable_digests(root):
    return {name: artifact_digests(argv, pathlib.Path(root) / name)
            for name, argv in PORTABLE.items()}


def moved_files(got, want):
    """Names of the files whose digest differs between two digest maps."""
    return sorted(f for f in set(got) | set(want) if got.get(f) != want.get(f))


def load_golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def strict_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_artifacts_match_golden_digests(name, tmp_path, capsys):
    golden = load_golden()
    want, got = golden["digests"][name], run_digests(name, tmp_path)
    capsys.readouterr()
    # every JSON artifact is strict JSON: no NaN or Infinity
    for path in (tmp_path / name).glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"),
                   parse_constant=strict_constant)
    if got != want:
        changed = moved_files(got, want)
        note = ""
        if golden["versions"] != versions():
            note = (f"; digests were made with {golden['versions']}, this "
                    f"run has {versions()}")
        pytest.fail(f"{name}: artifacts {changed} differ from "
                    f"{GOLDEN.name}{note}")


def test_golden_file_covers_every_invocation():
    assert sorted(load_golden()["digests"]) == sorted(INVOCATIONS)


def test_regenerator_reports_moved_digests(tmp_path, monkeypatch):
    golden = tmp_path / "digests.json"
    golden.write_text(json.dumps({"digests": {
        "a": {"x.csv": "1", "gone.txt": "2"}, "b": {"y.csv": "3"}}}))
    fresh = {"a": {"x.csv": "1", "new.txt": "4"}, "b": {"y.csv": "5"}}
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(module, "INVOCATIONS", dict.fromkeys(fresh))
    monkeypatch.setattr(module, "run_digests", lambda name, root: fresh[name])
    assert main(tmp_path) == ["a/gone.txt", "a/new.txt", "b/y.csv"]
    assert json.loads(golden.read_text())["digests"] == fresh


def test_dynamics_artifacts_do_not_depend_on_the_blas_kernel(tmp_path,
                                                             capsys):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = {kernel: subprocess.Popen(
        [sys.executable, "-c", CHILD, str(pathlib.Path(__file__).parent),
         str(tmp_path / kernel)],
        env={**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path},
        stdout=subprocess.PIPE, text=True) for kernel in OTHER_KERNELS}
    try:
        want = portable_digests(tmp_path / "in-process")
        outs = {kernel: child.communicate(timeout=60)[0]
                for kernel, child in children.items()}
    finally:
        for child in children.values():
            child.kill()
            child.wait()
    capsys.readouterr()
    for kernel, child in children.items():
        assert child.returncode == 0, kernel
        got = json.loads(outs[kernel])
        assert got == want, (kernel, {name: moved_files(got[name], want[name])
                                      for name in want
                                      if got[name] != want[name]})


def leaf_commands(parser, prefix=()):
    """Command paths such as ("dynamics", "sweep") that the parser accepts."""
    subs = [action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in leaf_commands(sub, prefix + (name,))]


def test_every_command_has_an_invocation():
    leaves = leaf_commands(cli._build_parser())
    covered = {leaf for leaf in leaves for argv in INVOCATIONS.values()
               if tuple(argv[:len(leaf)]) == leaf}
    assert len(leaves) > 1 and covered == set(leaves)


def main(root):
    """Rewrite the golden file; return the "invocation/file" entries whose
    digest differs from the file it overwrites."""
    old = load_golden()["digests"] if GOLDEN.exists() else {}
    digests = {n: run_digests(n, root) for n in INVOCATIONS}
    doc = {"versions": versions(), "invocations": INVOCATIONS,
           "digests": digests}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return [f"{name}/{f}" for name in sorted(digests)
            for f in moved_files(digests[name], old.get(name, {}))]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        moved = main(tmp)
    print("\n".join(f"moved: {entry}" for entry in moved)
          or "no digest moved")
