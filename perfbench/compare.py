"""Summarize one result set, or compare two, metric by metric.

    python3 perfbench/compare.py SET            # medians and quartiles
    python3 perfbench/compare.py BASE CHANGE    # plus a verdict per metric

A result set is a directory of the JSON files run.py saves (one per
workload, seed and trace setting).  For each workload and metric the
table gives each side's median and quartiles over its runs, as
`statistics.quantiles(values, n=4)` computes them, and the spread: the
distance between the quartiles as a share of the median.

Verdicts follow the pairs rule, pairing runs by seed (or by order when
the seeds differ):
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than BASE's own
              quartile distance;
  regressed   the change's median is worse than BASE's by more than the
              metric's bound;
  unresolved  a side's spread is wider than the bound, unless every run
              of the change reads better than every run of BASE;
  unchanged   otherwise: within the bound on steady figures, or equal
              in every pair.
Per-layer metrics have no bound; their verdict is "exact" when every
pair reads the same (a count that repeats exactly), else "-".
"""

import json
import pathlib
import statistics
import sys

import catalog

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_set(path):
    """{(workload, trace): {seed: result}} from a result directory."""
    runs = {}
    for file in sorted(pathlib.Path(path).glob("*.json")):
        with open(file, encoding="utf-8") as fh:
            result = json.load(fh)
        runs.setdefault((result["workload"], result["trace"]), {})[
            result["seed"]] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(info, base, change, pairs):
    """Label one metric on one workload; base and change are run values."""
    equal = bool(pairs) and all(b == c for b, c in pairs)
    if info["bound"] is None:
        return "exact" if equal else "-"
    if equal:
        return "unchanged"  # deterministic values, e.g. rejection_auc
    bound = info["bound"]
    sign = 1.0 if info["better"] == "higher" else -1.0
    b1, b_med, b3 = quartiles(base)
    c_med = quartiles(change)[1]
    gain = sign * (c_med - b_med)
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if wins >= 0.9 * len(pairs) and gain > b3 - b1 and gain > 0:
        return "improved"
    if -gain > bound * abs(b_med):
        return "regressed"
    every_better = all(sign * (c - b) > 0 for c in change for b in base)
    if max(spread(base), spread(change)) > bound and not every_better:
        return "unresolved"
    return "unchanged"


def fmt(value):
    return f"{value:.5g}"


def describe(values):
    q1, q2, q3 = quartiles(values)
    return f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}]"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics, _ = catalog.load(ROOT / "BENCHMARK.json")
    sets = [load_set(path) for path in argv]
    keys = sorted(set(sets[0]) | (set(sets[1]) if len(sets) == 2 else set()))
    labels = {}
    for workload, trace in keys:
        sides = [s.get((workload, trace), {}) for s in sets]
        if not all(sides):
            print(f"\n{workload} trace {trace}: missing from one set")
            continue
        counts = "  vs  ".join(
            f"{len(side)} runs, {sum(r['failed'] > 0 for r in side.values())}"
            " with failures" for side in sides)
        print(f"\n{workload} (trace {trace}): {counts}")
        names = [n for n, info in metrics.items() if info["trace"] == trace
                 and all(n in r["metrics"] for side in sides
                         for r in side.values())]
        for name in names:
            info = metrics[name]
            values = [[side[seed]["metrics"][name] for seed in sorted(side)]
                      for side in sides]
            row = (f"  {name:38s} {info['unit']:6s} "
                   + "  ".join(f"{describe(v):32s}" for v in values))
            bound = info["bound"]
            row += " spread " + "/".join(f"{spread(v):.3f}" for v in values)
            if bound is not None:
                row += f" (bound {bound})"
            if len(sides) == 2:
                common = sorted(set(sides[0]) & set(sides[1]))
                pairs = ([(sides[0][s]["metrics"][name],
                           sides[1][s]["metrics"][name]) for s in common]
                         if common else list(zip(*values)))
                label = verdict(info, values[0], values[1], pairs)
                labels[label] = labels.get(label, 0) + 1
                row += f"  {label}"
            print(row)
    if labels:
        print("\nverdicts: " + ", ".join(f"{k} {v}"
                                         for k, v in sorted(labels.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
