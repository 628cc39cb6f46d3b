"""Every metric the benchmark reports, with unit, direction and bound.

BENCHMARK.json lists the metrics every workload reports (end_to_end for
untraced runs, per_layer for traced ones).  The workload-specific
end-to-end metrics exist on some workloads only, so they cannot sit in
that list, whose metrics every workload must report; they are defined
here and travel in the saved results and the printed table.
"""

import json

# name: (unit, better, bound as a share of the parent's median)
WORKLOAD_METRICS = {
    # timings share wall_s's bound; tails, with fewer samples, the widest
    "train_steps_per_s": ("1/s", "higher", 0.24),
    "fits_per_s": ("1/s", "higher", 0.24),
    "fit_ms_p50": ("ms", "lower", 0.24),
    "fit_ms_tail": ("ms", "lower", 0.25),
    "equilibria_per_s": ("1/s", "higher", 0.24),
    "solve_ms_p50": ("ms", "lower", 0.24),
    "solve_ms_tail": ("ms", "lower", 0.25),
    "rows_per_s": ("1/s", "higher", 0.24),
    # deterministic per seed: any real change in accuracy shows
    "rejection_auc": ("rmse", "lower", 0.01),
    "failed_frac": ("frac", "lower", 0.0),
}


def load(path):
    """{name: {"unit", "better", "bound", "trace"}} for every metric."""
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    out = {}
    for entry in bench["end_to_end"]:
        out[entry["name"]] = dict(entry, trace=0)
    for name, (unit, better, bound) in WORKLOAD_METRICS.items():
        out[name] = {"name": name, "unit": unit, "better": better,
                     "bound": bound, "trace": 0}
    for entry in bench["per_layer"]:
        out[entry["name"]] = dict(entry, bound=None, trace=1)
    return out, bench
