"""Pinned values of the dynamics layer: the equilibrium branch of criterion
3's epsilon grid for three outlier families, three cold equilibrium solves,
the zero-contamination escape run and one settle run.

tests/golden/dynamics.json holds the values and the relative tolerance they
are compared at.  Step and iteration counts must match exactly.  A change
that moves dynamics numbers on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_dynamics.py

and says so in CHANGES.md; a change that only makes the code faster must
pass it unchanged.
"""

import json
import pathlib

import pytest

from gcpnet import dynamics as dyn
from gcpnet.gcp import GcpParams

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "dynamics.json"

RTOL = 1e-9
RULE = ("values are compared at relative tolerance rtol and counts exactly; "
        "a change that moves dynamics numbers on purpose regenerates this "
        "file with `PYTHONPATH=src python tests/test_golden_dynamics.py` "
        "and says so in CHANGES.md")

# criterion 3's grid: the certified branch, then the deep end
SWEEP_EPS = (0.04, 0.02, 0.01, 0.005,
             4e-4, 2e-4, 1e-4, 5e-5, 2.5e-5, 1.25e-5)
FAMILIES = {
    "gauss-5-1": ("gaussian", 5.0, 1.0),
    "gauss-3-4": ("gaussian", 3.0, 4.0),
    "uniform-m4-16": ("uniform", -4.0, 16.0),
}
COLD_EPS = {"gauss-5-1": 0.035, "gauss-3-4": 0.04, "uniform-m4-16": 0.045}


def _run_record(traj):
    return {"state": [float(traj.m[-1]), float(traj.nu[-1]),
                      float(traj.alpha[-1]), float(traj.beta[-1])],
            "t": float(traj.t[-1]), "steps": len(traj.t),
            "settled": traj.settled, "escaped": traj.escaped,
            "truncated": traj.truncated}


def compute():
    sweeps = {
        name: [[eps, eq.m, eq.alpha, eq.sigma]
               for eps, eq in dyn.equilibrium_sweep(SWEEP_EPS, outlier=outlier)]
        for name, outlier in FAMILIES.items()}
    cold = {}
    for name, outlier in FAMILIES.items():
        eq = dyn.equilibrium(dyn.ContaminationSpec(
            epsilon=COLD_EPS[name], outlier=outlier))
        cold[name] = {"epsilon": COLD_EPS[name],
                      "root": [eq.m, eq.alpha, eq.sigma],
                      "iterations": eq.iterations}
    escape = dyn.integrate(
        GcpParams(m=1.2, nu=1.0, alpha=1.0, beta=1.5e7),
        dyn.ContaminationSpec(epsilon=0.0), t_end=5e6, escape_bound=1e3)
    settle = dyn.integrate(
        GcpParams(m=0.3, nu=1.0, alpha=1.2, beta=0.6),
        dyn.ContaminationSpec(epsilon=0.1), t_end=600.0, settle_tol=1e-8)
    return {"sweeps": sweeps, "cold": cold, "escape": _run_record(escape),
            "settle": _run_record(settle)}


def _mismatches(got, want, path=""):
    """Paths where got and want differ beyond RTOL (exactly for ints and
    booleans)."""
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k],
                                                     f"{path}/{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        ok = abs(got - want) <= RTOL * abs(want)
    else:
        ok = got == want
    return [] if ok else [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def computed():
    return compute()


def load_golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_states_its_rule():
    golden = load_golden()
    assert golden["rtol"] == RTOL and golden["rule"] == RULE


@pytest.mark.parametrize("section", ["sweeps", "cold", "escape", "settle"])
def test_dynamics_values_match_golden(section, computed):
    bad = _mismatches(computed[section], load_golden()["values"][section],
                      section)
    assert not bad, "\n".join(bad[:10])


def main():
    doc = {"rule": RULE, "rtol": RTOL, "values": compute()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    main()
