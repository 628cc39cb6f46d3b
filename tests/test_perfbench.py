"""The benchmark's tracer (perfbench/tracing.py) looks gcpnet's functions
and methods up by name when it installs.  Installing it here makes a
refactor that renames or drops one of those names fail in this suite, not
only in a benchmark run."""

import importlib.util
import json
import pathlib

import numpy as np

from gcpnet import cli, dynamics, net

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_tracer_installs_counts_and_uninstalls():
    # the tracer patches forward, backward and adam_step on MlpHead; both
    # network classes must reach them there, not through overrides
    tracing = load_tracing()
    originals = (net.train, net.MlpHead.adam_step, dynamics.fgh)
    recorder = tracing.Recorder(full=True).install()
    x = np.linspace(-1.0, 1.0, 8).reshape(-1, 1)
    config = net.TrainConfig(epochs=1, batch_size=4)
    try:
        assert net.train is not originals[0]
        model = net.GcpNetwork(1, hidden=3, rng=np.random.default_rng(0))
        net.train(model, x, np.sin(x[:, 0]), config)
        gcp_counts = recorder.counts()
        baseline = net.GaussianNet(1, hidden=3, rng=np.random.default_rng(1))
        net.train(baseline, x, np.sin(x[:, 0]), config)
        baseline.predict_arrays(x)
    finally:
        recorder.uninstall()
    assert (net.train, net.MlpHead.adam_step, dynamics.fgh) == originals
    counts = recorder.counts()
    # one fused forward, loss, backward and Adam update per batch, two
    # batches per fit; the second fit's losses are GaussianNet's
    for name in ("net.forward", "net.loss", "net.backward", "net.adam"):
        assert gcp_counts[name][0] == 2
        assert counts[name][0] == 4
    assert counts["net.forward.predict"][0] == 1
    assert [s["steps"] for s in recorder.spans
            if s["name"] == "net.train"] == [2, 2]
    assert [s["rows"] for s in recorder.spans
            if s["name"] == "net.predict"] == [8]


def test_bench_ensemble_fits_each_network_once(tmp_path, capsys):
    # one cell: the two members, of which the first is also the gcp
    # network, and the baseline
    tracing = load_tracing()
    recorder = tracing.Recorder(full=True).install()
    try:
        code = cli.main(["bench", "synthetic", "--fractions", "0.1",
                         "--repeats", "1", "--ensemble", "--members", "2",
                         "--epochs", "1", "--n", "40", "--test-n", "20",
                         "--out", str(tmp_path)])
    finally:
        recorder.uninstall()
    capsys.readouterr()
    assert code == 0
    assert [s["name"] for s in recorder.spans].count("net.train") == 3


def test_cold_equilibrium_is_one_newton_solve():
    tracing = load_tracing()
    recorder = tracing.Recorder(full=True).install()
    try:
        eq = dynamics.equilibrium(dynamics.ContaminationSpec(epsilon=0.04))
    finally:
        recorder.uninstall()
    assert eq.converged
    names = [s["name"] for s in recorder.spans]
    assert names.count("dynamics.newton_equilibrium") == 1
    assert names.count("dynamics.integrate") == 0
    assert not any(s.get("fallback") for s in recorder.spans)
    counts = recorder.counts()
    assert counts["dynamics.asymptotic_guess"][0] == 1
    assert "dynamics.integrate.fgh" not in counts


def test_tracer_counts_every_flow_evaluation_of_a_simulate(tmp_path, capsys):
    # a count of 0 means integrate reached fgh by a name the tracer does
    # not patch
    tracing = load_tracing()
    recorder = tracing.Recorder(full=True).install()
    try:
        code = cli.main(["dynamics", "simulate", "--epsilon", "0.1",
                         "--t-end", "20", "--out", str(tmp_path)])
    finally:
        recorder.uninstall()
    capsys.readouterr()
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["evaluations"] > 0
    assert (recorder.counts()["dynamics.integrate.fgh"][0]
            == manifest["evaluations"])
