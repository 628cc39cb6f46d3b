"""Spans and counters recorded around gcpnet's public calls.

The benchmark never edits the program.  A Recorder replaces module
attributes and class methods with timing wrappers for the length of one
pass and puts the originals back afterwards.  Coarse calls (one per fit,
solve, prediction, file or phase) become spans with a parent id.  The
per-step methods of the training loop and the per-evaluation integrals
only add to a call count and a busy time, because a span per call would
cost more than many of the calls.

Two levels exist.  The probe, installed on every untraced pass, wraps
only `cli.main`, `net.train` and `dynamics.newton_equilibrium`: two clock
reads per fit or solve, which the end-to-end fit and solve latencies need.
The full tracer wraps every boundary listed in `_SPANS` and `_COUNTERS`.
"""

import functools
import itertools
import threading
import time

import numpy as np

import gcpnet.cli as cli
import gcpnet.data as data
import gcpnet.dynamics as dynamics
import gcpnet.gcp as gcp
import gcpnet.metrics as metrics
import gcpnet.net as net
import gcpnet.special as special

clock = time.perf_counter


# every caller in gcpnet passes these arguments positionally
def _train_steps(args, kwargs, result):
    config, n = args[3], len(args[1])
    return {"steps": config.epochs * -(-n // config.batch_size)}


def _newton_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _cells(args, kwargs, result):
    return {"cells": int(result.features.size + result.targets.size)}


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(args[1])[0])}


def _samples(args, kwargs, result):
    return {"samples": int(np.size(args[0]))}


def _gap_many(args, kwargs, result):
    table, arr = args[0], np.asarray(args[1], dtype=float)
    outside = (arr < table.alphas[0]) | (arr > table.alphas[-1])
    return {"alphas": int(arr.size), "outside": int(np.count_nonzero(outside))}


# (span name, owner, attribute, attrs from (args, kwargs, result))
_PROBE_SPANS = [
    ("cli.main", cli, "main", None),
    ("net.train", net, "train", _train_steps),
    ("dynamics.newton_equilibrium", dynamics, "newton_equilibrium",
     _newton_attrs),
]

_SPANS = _PROBE_SPANS + [
    ("data.load_csv", data, "load_csv", _cells),
    ("data.generate_synthetic", data, "generate_synthetic", None),
    ("data.split", data, "split", None),
    ("data.contaminate", data, "contaminate", None),
    ("data.normalize", data, "normalize", None),
    ("data.apply_normalization", data, "apply_normalization", None),
    ("net.train_ensemble", net, "train_ensemble", None),
    ("net.predict", net, "prognostic_arrays", _rows),
    ("net.predict", net, "ensemble_prognostic_arrays", _rows),
    ("net.predict", net.GaussianNet, "predict_arrays", _rows),
    ("net.save_checkpoint", net, "save_checkpoint", None),
    ("special.gap_many", special.AlphaTable, "gap_many", _gap_many),
    ("metrics.rejection_curve", metrics, "rejection_curve", _samples),
    ("metrics.write_curve_csv", metrics, "write_curve_csv", None),
    ("dynamics.integrate", dynamics, "integrate", None),
    ("dynamics.equilibrium", dynamics, "equilibrium", None),
    ("dynamics.equilibrium_sweep", dynamics, "equilibrium_sweep", None),
]

# (counter name, owners that look the name up, attribute)
_COUNTERS = [
    ("net.forward", [net.MlpHead], "forward"),
    ("net.backward", [net.MlpHead], "backward"),
    ("net.adam", [net.MlpHead], "adam_step"),
    ("net.loss", [net.GcpNetwork], "loss_and_head_grads"),
    ("net.loss", [net.GaussianNet], "loss_and_head_grads"),
    # net imports nll_terms_arrays by name, so it is wrapped where net looks
    # it up; the same holds for solve_A in every module that imports it
    ("gcp.nll_terms", [net], "nll_terms_arrays"),
    ("special.solve_A", [special, dynamics, gcp, cli], "solve_A"),
    ("dynamics.fgh", [dynamics], "fgh"),
    ("dynamics.solve_mean_root", [dynamics], "solve_mean_root"),
    ("dynamics.asymptotic_guess", [dynamics], "asymptotic_guess"),
]


class _ThreadState(threading.local):
    def __init__(self, registry, lock):
        self.stack = []
        self.counts = {}
        self.train_depth = 0
        self.integrate_depth = 0
        self.newton = []
        with lock:
            registry.append(self.counts)


class Recorder:
    """Installs the wrappers, keeps spans and counts in memory.

    Counts live in one dict per thread, because `bench --jobs` trains on a
    thread pool and a shared `+=` is not atomic.
    """

    def __init__(self, full):
        self.full = full
        self.spans = []
        self.root = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._thread_counts = []
        self._tls = _ThreadState(self._thread_counts, self._lock)
        self._patches = []

    def install(self):
        for name, owner, attr, attrs in (_SPANS if self.full else _PROBE_SPANS):
            self._patch([owner], attr, self._span(name, getattr(owner, attr),
                                                  attrs))
        if self.full:
            for name, owners, attr in _COUNTERS:
                self._patch(owners, attr,
                            self._counter(name, getattr(owners[0], attr)))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def counts(self):
        """Merged {name: [calls, busy_s]} over every thread seen so far."""
        merged = {}
        with self._lock:
            tables = list(self._thread_counts)
        for table in tables:
            for key, (calls, busy) in table.items():
                acc = merged.setdefault(key, [0, 0.0])
                acc[0] += calls
                acc[1] += busy
        return merged

    def _patch(self, owners, attr, wrapper):
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _span(self, name, fn, attrs):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = rec._tls
            span = {"id": next(rec._ids),
                    "parent": st.stack[-1] if st.stack else rec.root,
                    "name": name, "thread": threading.get_ident()}
            if name == "cli.main":
                rec.root = span["id"]
            elif name == "net.train":
                st.train_depth += 1
            elif name == "dynamics.integrate":
                st.integrate_depth += 1
            elif name == "dynamics.newton_equilibrium":
                st.newton.append(span)
            st.stack.append(span["id"])
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            else:
                if attrs is not None:
                    span["end"] = clock()
                    span.update(attrs(args, kwargs, result))
                return result
            finally:
                span.setdefault("end", clock())
                st.stack.pop()
                if name == "cli.main":
                    rec.root = None
                elif name == "net.train":
                    st.train_depth -= 1
                elif name == "dynamics.integrate":
                    st.integrate_depth -= 1
                elif name == "dynamics.newton_equilibrium":
                    st.newton.pop()
                rec.spans.append(span)

        return wrapper

    def _counter(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                st = rec._tls
                key = name
                if name == "net.forward" and not st.train_depth:
                    key = "net.forward.predict"
                elif name == "dynamics.fgh" and st.integrate_depth:
                    _bump(st.counts, "dynamics.integrate.fgh", busy)
                elif name == "dynamics.solve_mean_root" and st.newton:
                    st.newton[-1]["fallback"] = True
                _bump(st.counts, key, busy)

        return wrapper


def _bump(counts, key, busy):
    acc = counts.get(key)
    if acc is None:
        acc = counts[key] = [0, 0.0]
    acc[0] += 1
    acc[1] += busy


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _union_length(intervals):
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def work_summary(spans):
    """Fits, optimizer steps, solves and their latencies from one pass."""
    fits = [s for s in spans if s["name"] == "net.train"]
    solves = [s for s in spans if s["name"] == "dynamics.newton_equilibrium"]
    return {
        "fits": sum("error" not in s for s in fits),
        "steps": sum(s.get("steps", 0) for s in fits if "error" not in s),
        "fit_ms": [1e3 * (s["end"] - s["start"]) for s in fits],
        "equilibria": sum("error" not in s for s in solves),
        "solve_ms": [1e3 * (s["end"] - s["start"]) for s in solves],
        "solve_errors": sum("error" in s for s in solves),
    }


def layer_metrics(spans, counts, wall, jobs, artifact_bytes, build):
    """Per-layer numbers of one traced pass.

    `build` holds the traced AlphaTable build of this worker: its wall time
    and the solve_A calls it made, which join the pass's own solve_A calls
    in the per-call mean so that the mean exists on every workload.
    """
    by_id = {s["id"]: s for s in spans}

    def layer(span):
        return span["name"].split(".")[0]

    def outermost(span):
        parent = by_id.get(span["parent"])
        return parent is None or layer(parent) != layer(span)

    def busy(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def layer_busy(prefix):
        return sum(s["end"] - s["start"] for s in spans
                   if layer(s) == prefix and outermost(s))

    def count(name):
        return counts.get(name, [0, 0.0])

    steps = sum(s.get("steps", 0) for s in spans if s["name"] == "net.train")
    train_busy = busy("net.train")
    per_step = {key: count(key)[1] for key in
                ("net.forward", "net.loss", "net.backward", "net.adam")}
    predicts = [s for s in spans if s["name"] == "net.predict"
                and by_id.get(s["parent"], {}).get("name") != "net.predict"]
    predict_rows = sum(s["rows"] for s in predicts)
    predict_busy = sum(s["end"] - s["start"] for s in predicts)
    gaps = [s for s in spans if s["name"] == "special.gap_many"]
    alphas = sum(s["alphas"] for s in gaps)
    solves = [s for s in spans if s["name"] == "dynamics.newton_equilibrium"]
    equilibria = sum("error" not in s for s in solves)
    loads = [s for s in spans if s["name"] == "data.load_csv"]
    curves = [s for s in spans if s["name"] == "metrics.rejection_curve"]
    fgh_calls, fgh_busy = count("dynamics.fgh")
    solve_a_calls, solve_a_busy = count("special.solve_A")
    nll_calls, nll_busy = count("gcp.nll_terms")

    cli_self = 0.0
    for main in (s for s in spans if s["name"] == "cli.main"):
        children = [(max(c["start"], main["start"]), min(c["end"], main["end"]))
                    for c in spans if c["parent"] == main["id"]]
        cli_self += (main["end"] - main["start"]) - _union_length(
            [iv for iv in children if iv[1] > iv[0]])

    return {
        "net.steps": steps,
        "net.train.busy_s": train_busy,
        "net.forward.us_per_step": _ratio(per_step["net.forward"], steps, 1e6),
        "net.loss.us_per_step": _ratio(per_step["net.loss"], steps, 1e6),
        "net.backward.us_per_step": _ratio(per_step["net.backward"], steps, 1e6),
        "net.adam.us_per_step": _ratio(per_step["net.adam"], steps, 1e6),
        "net.train.self_us_per_step": _ratio(
            train_busy - sum(per_step.values()), steps, 1e6),
        "net.predict.us_per_krow": _ratio(predict_busy, predict_rows, 1e9),
        "net.save_checkpoint.busy_s": busy("net.save_checkpoint"),
        "net.busy_share": _ratio(layer_busy("net"), wall),
        "gcp.nll_terms.calls": nll_calls,
        "gcp.nll_terms.us_per_call": _ratio(nll_busy, nll_calls, 1e6),
        "special.alpha_table.build_s": build["build_s"],
        "special.solve_A.calls": solve_a_calls,
        "special.solve_A.us_per_call": _ratio(
            solve_a_busy + build["solve_A_busy_s"],
            solve_a_calls + build["solve_A_calls"], 1e6),
        "special.gap_many.us_per_kalpha": _ratio(
            sum(s["end"] - s["start"] for s in gaps), alphas, 1e9),
        "special.gap_many.out_of_table_frac": _ratio(
            sum(s["outside"] for s in gaps), alphas),
        "dynamics.fgh.calls": fgh_calls,
        "dynamics.fgh.us_per_call": _ratio(fgh_busy, fgh_calls, 1e6),
        "dynamics.fgh.calls_per_equilibrium": _ratio(fgh_calls, equilibria),
        "dynamics.integrate.busy_s": busy("dynamics.integrate"),
        "dynamics.integrate.fgh_calls": count("dynamics.integrate.fgh")[0],
        "dynamics.newton.calls": len(solves),
        "dynamics.newton.iterations": sum(s.get("iterations", 0)
                                          for s in solves),
        "dynamics.newton.busy_s": busy("dynamics.newton_equilibrium"),
        "dynamics.fallback_frac": _ratio(
            sum(bool(s.get("fallback")) for s in solves), len(solves)),
        "dynamics.restart_frac": _ratio(
            count("dynamics.asymptotic_guess")[0], len(solves)),
        "dynamics.busy_share": _ratio(layer_busy("dynamics"), wall),
        "data.load_csv.busy_s": busy("data.load_csv"),
        "data.load_csv.cells_per_s": _ratio(
            sum(s["cells"] for s in loads), busy("data.load_csv")),
        "data.prepare.busy_s": layer_busy("data"),
        "metrics.rejection_curve.us_per_ksample": _ratio(
            busy("metrics.rejection_curve"),
            sum(s["samples"] for s in curves), 1e9),
        "metrics.write_curve_csv.busy_s": busy("metrics.write_curve_csv"),
        "cli.self_s": cli_self,
        "cli.artifact_bytes": artifact_bytes,
        "cli.bench.busy_share": _ratio(train_busy, jobs * wall),
    }


def traced_build():
    """Time one AlphaTable build with solve_A counted (the shared table of
    the process is left alone)."""
    rec = Recorder(full=True).install()
    try:
        start = clock()
        special.AlphaTable.build()
        build_s = clock() - start
    finally:
        rec.uninstall()
    calls, busy = rec.counts().get("special.solve_A", [0, 0.0])
    return {"build_s": build_s, "solve_A_calls": calls, "solve_A_busy_s": busy}
