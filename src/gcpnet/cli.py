"""Command-line front end: root solving, training, dynamics, benchmarks.

Every command is deterministic under a fixed --seed, and every command
that writes files also writes a manifest.json echoing the fully resolved
configuration, so a run can be reproduced from its output directory
alone.  Exit codes: 0 success, 2 usage error, 3 numeric failure,
4 precondition refusal.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import math
import pathlib
import sys

import numpy as np

from . import data as dat
from . import metrics as met
from .special import (ConditionError, NonConvergenceError, NumericError,
                      TrainingDiverged, a_equation_residual, solve_A)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PRECONDITION = 4


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Malformed or out-of-domain flag value.  Raised by a flag's type,
    argparse prints it after the flag's name."""


class Domain:
    """A setting's allowed values, declared once: as an argparse type it
    parses a flag's text, and `check` takes a --config JSON value.  NaN
    fails every domain, and so does infinity, which none includes."""

    # phrase -> (type, lo, whether lo is allowed, hi); hi never is
    BOUNDS = {**{f"at least {k}": (int, k, True, math.inf) for k in range(3)},
              "positive and finite": (float, 0.0, False, math.inf),
              "finite": (float, -math.inf, False, math.inf),
              "in [0, 1)": (float, 0.0, True, 1.0),
              "in (0, 1)": (float, 0.0, False, 1.0)}

    def __init__(self, name, phrase, default=None, help=None):
        self.name, self.phrase, self.default = name, phrase, default
        self.kind, self.lo, self.closed, self.hi = self.BOUNDS[phrase]
        self.help = (f"{help}; " if help else "") + (
            f"{'integer' if self.kind is int else 'number'} {phrase}"
            + ("" if default is None else f" (default {default})"))

    def __call__(self, text):
        """argparse type: the flag's text as the domain's type, checked."""
        with contextlib.suppress(ValueError):
            text = self.kind(text)
        return self.check(text)

    def check(self, value):
        """`value`, or a UsageError naming the setting; a float setting
        takes a JSON integer, widened, an integer one only an integer."""
        if type(value) is int and self.kind is float:
            with contextlib.suppress(OverflowError):
                value = float(value)
        typed = type(value) is self.kind
        if typed and (self.lo < value or self.closed and value == self.lo) \
                and value < self.hi:
            return value
        what = (self.phrase if typed
                else "an integer" if self.kind is int else "a number")
        raise UsageError(f"{self.name} must be {what}, got {value!r}")


class Numbers:
    """A comma list of numbers as an argparse type: one per item of the
    tuple `items`, a Domain or the name of a field that the library type
    the command builds checks; or, for one Domain, any number of them."""

    default = None

    def __init__(self, name, items, distinct=False):
        self.name, self.items, self.distinct = name, items, distinct
        if isinstance(items, Domain):
            self.help = (f"numbers each {items.phrase}"
                         + ", none twice" * distinct)
        else:
            self.help = f"{len(items)} numbers " + ", ".join(
                i if isinstance(i, str) else f"{i.name} {i.phrase}"
                for i in items)
        self.help += ", comma-separated"

    def __call__(self, text):
        try:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            values = []
        items = (self.items if isinstance(self.items, tuple)
                 else (self.items,) * max(len(values), 1))
        if len(values) != len(items) or (
                self.distinct and len(set(values)) < len(values)):
            raise UsageError(f"{self.name} must be {self.help}, "
                             f"got {text!r}")
        return [value if isinstance(item, str) else item.check(value)
                for item, value in zip(items, values)]


# per-dataset (learning_rate, dropout, epochs, batch_size); ensembles
# reuse them unchanged
PRESETS = {name: dict(zip(("learning_rate", "dropout", "epochs",
                           "batch_size"), values))
           for name, values in {"boston-gcp": (1e-4, 0.3, 700, 5),
                                "concrete-gcp": (1e-4, 0.1, 1000, 5),
                                "power-gcp": (5e-5, 0.0, 150, 10),
                                "yacht-gcp": (1e-3, 0.1, 1000, 5),
                                "kin8nm-gcp": (7e-4, 0.0, 250, 10),
                                "synthetic": (1e-3, 0.0, 1000, 20)}.items()}

# every value-taking flag whose domain no library type declares -> that
# domain.  The entries with a default are train's and bench's settings,
# which a --preset or --config may also set; the flag's value lands under
# the setting's name
FLAGS = {
    "--lr": Domain("learning_rate", "positive and finite", 1e-3),
    "--dropout": Domain("dropout", "in [0, 1)", 0.0),
    "--epochs": Domain("epochs", "at least 1", 100),
    "--batch-size": Domain("batch_size", "at least 1", 20),
    "--hidden": Domain("hidden", "at least 1", 50, "hidden units per head"),
    "--seed": Domain("seed", "at least 0", 0),
    "--n": Domain("n", "at least 2", 400, "synthetic training-set size"),
    "--test-n": Domain("test_n", "at least 2", 200, "synthetic test-set size"),
    "--train-fraction": Domain("train_fraction", "in (0, 1)", 0.95,
                               "share of CSV rows used for training"),
    "--contamination": Domain("contamination", "in [0, 1)", 0.0, "share "
                              "of training targets replaced after the split"),
    "--outlier-prob": Domain("outlier_prob", "in [0, 1)", 0.05,
                             "synthetic generator's own outlier share"),
    "--members": Domain("members", "at least 1", 5, "ensemble size"),
    "--fractions": Numbers("fractions", Domain("fractions", "in [0, 1)"),
                           distinct=True),
    "--repeats": Domain("repeats", "at least 1"),
    "--jobs": Domain("jobs", "at least 1", help="recorded in "
                     "manifest.json; cells run serially"),
    "--alpha": Domain("alpha", "positive and finite"),
    "--nodes": Domain("nodes", "at least 2", help="quadrature nodes override"),
    "--gaussian-outliers": Numbers("gaussian_outliers", ("m_o", "v_o")),
    "--uniform-outliers": Numbers("uniform_outliers", ("lo", "hi")),
    "--state": Numbers("state", ("m", "nu", "alpha", "beta")),
    "--t-end": Domain("t_end", "positive and finite"),
    "--settle-tol": Domain("settle_tol", "positive and finite"),
    "--escape-bound": Domain("escape_bound", "positive and finite"),
    "--guess": Numbers("guess", (Domain("m", "finite"),
                                 Domain("alpha", "positive and finite"),
                                 Domain("sigma", "positive and finite"))),
    "--eps": Numbers("eps", Domain("eps", "in [0, 1)")),
}

TRAIN_SETTINGS = {d.name: d for d in FLAGS.values() if d.default is not None}
TRAIN_DEFAULTS = {name: d.default for name, d in TRAIN_SETTINGS.items()}


def _cell(value):
    """CSV cell formatting; float repr round-trips exactly."""
    if isinstance(value, (int, np.integer, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def _write_csv(path, header, rows):
    """The header and rows as CSV in the file at `path`, or on stdout, one
    newline-terminated line each, when `path` is None."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        writer = (csv.writer(fh, lineterminator="\n") if path is None
                  else csv.writer(fh))
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_out(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out, command, payload, outputs):
    doc = {"command": command, "outputs": sorted(outputs)}
    doc.update(payload)
    _write_json(out / "manifest.json", doc)


GRID = "lo:hi:n with finite 0 < lo < hi and integer n >= 1"


def _parse_range(text, name):
    """lo:hi:n syntax for a geometric grid of positive values; range flags
    keep their text, which manifests record."""
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        lo = hi = n = 0
    if n < 1 or not 0.0 < lo < hi < math.inf:
        raise UsageError(f"{name} must be {GRID}, got {text!r}")
    return np.geomspace(lo, hi, n)


def _contamination_spec(args, epsilon):
    # every dynamics command builds its mixture here first, and the
    # mixture's type is the one domain of its flags.  dynamics is imported
    # by its commands only, to keep the others' start-up short
    from . import dynamics as dyn

    outlier = (("uniform", *args.uniform_outliers)
               if args.uniform_outliers is not None
               else ("gaussian", *args.gaussian_outliers))
    try:
        return dyn.ContaminationSpec(epsilon, args.m_g, args.v_g, outlier,
                                     args.nodes or dyn.DYNAMICS_NODES_DEFAULT)
    except ConditionError as exc:
        # malformed mixture parameters are a flag problem, not a refusal
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# solve-a


def cmd_solve_a(args):
    alphas = ([args.alpha] if args.alpha is not None
              else _parse_range(args.grid, "--grid"))
    rows = []
    for alpha in map(float, alphas):
        value = solve_A(alpha)
        approx = alpha / (alpha + 1.5)
        rows.append((alpha, value, approx, value - approx,
                     a_equation_residual(alpha, value)))
    header = ("alpha", "a_value", "approx", "deviation", "residual")
    _write_csv(None, header, rows)
    if args.out:
        out = _ensure_out(args)
        _write_csv(out / "solve_a.csv", header, rows)
        _manifest(out, "solve-a",
                  {"alpha": args.alpha, "grid": args.grid},
                  ["solve_a.csv"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _resolve_train_config(args):
    resolved = dict(TRAIN_DEFAULTS)
    if args.command == "bench":
        # --fractions is bench's contamination, so the generator's own
        # outliers are off unless asked for
        resolved["outlier_prob"] = 0.0
    if args.preset is not None:
        resolved.update(PRESETS[args.preset])
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read --config as JSON: {exc}")
        if not isinstance(overrides, dict):
            raise UsageError("--config must hold a JSON object")
        unknown = set(overrides) - set(resolved)
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)}")
        try:
            resolved.update((key, TRAIN_SETTINGS[key].check(value))
                            for key, value in overrides.items())
        except UsageError as exc:
            raise UsageError(f"--config: {exc}")
    resolved.update((key, getattr(args, key)) for key in TRAIN_DEFAULTS
                    if getattr(args, key) is not None)
    return resolved


def _prepare_splits(source, resolved):
    """Split, contaminate (training side only), and normalize a data source.

    Returns (train_normalized, test_normalized, test_original)."""
    seed = resolved["seed"]
    if source == "synthetic":
        train_raw = dat.generate_synthetic(dat.SyntheticSpec(
            n=resolved["n"], outlier_prob=resolved["outlier_prob"],
            seed=seed))
        test_raw = dat.generate_synthetic(dat.SyntheticSpec(
            n=resolved["test_n"], outlier_prob=0.0, seed=seed + 1))
    else:
        full = dat.load_csv(source)
        train_raw, test_raw = dat.split(full, resolved["train_fraction"],
                                        seed=seed)
        if train_raw.n < 2:
            raise UsageError(
                f"train_fraction {resolved['train_fraction']!r} leaves "
                f"{train_raw.n} of {full.n} rows for training; "
                f"normalization needs two")
    if resolved["contamination"] > 0.0:
        train_raw = dat.contaminate(train_raw, resolved["contamination"],
                                    seed=seed)
    train_norm = dat.normalize(train_raw)
    if test_raw.n < 2:
        raise UsageError(
            f"train_fraction {resolved['train_fraction']!r} leaves "
            f"{test_raw.n} of {train_raw.n + test_raw.n} rows for testing; "
            f"the rejection curve needs two")
    test_norm = dat.apply_normalization(test_raw, train_norm.normalization)
    return train_norm, test_norm, test_raw


def _fit_model(train_norm, resolved, model_kind):
    # net, and scipy.special with it, is imported by train and bench only,
    # to keep the other commands' start-up short
    from . import net

    cfg = net.TrainConfig(learning_rate=resolved["learning_rate"],
                          epochs=resolved["epochs"],
                          batch_size=resolved["batch_size"],
                          seed=resolved["seed"])
    fit_args = (train_norm.dim, train_norm.features, train_norm.targets, cfg)
    hidden, dropout = resolved["hidden"], resolved["dropout"]
    if model_kind == "ensemble":
        ensemble, _ = net.train_ensemble(
            *fit_args, n_members=resolved["members"], hidden=hidden,
            dropout=dropout)
        return ensemble
    cls = net.GaussianNet if model_kind == "baseline" else net.GcpNetwork
    return net.fit(cls, *fit_args, hidden, dropout)[0]


# the outputs are checked below, so numpy's overflow warnings would only
# come before the typed error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _predict_original_scale(model, model_kind, test_norm, stats):
    """Per-sample (mean, v_p, v_st, alpha) mapped back to the target scale;
    a non-finite mean or v_p (v_st may be inf) is a NumericError."""
    from . import net

    x = test_norm.features
    if model_kind == "baseline":
        mean_n, var_n = model.predict_arrays(x)
        v_p_n, v_st_n = var_n, var_n
        alpha = np.full(len(mean_n), math.nan)
    elif model_kind == "ensemble":
        mean_n, v_p_n, v_st_n, alpha = net.ensemble_prognostic_arrays(model, x)
    else:
        mean_n, v_p_n, v_st_n, alpha = net.prognostic_arrays(model, x)
    mean, v_p = stats.inverse_mean_variance(mean_n, v_p_n)
    _, v_st = stats.inverse_mean_variance(mean_n, v_st_n)
    if not (np.isfinite(mean).all() and np.isfinite(v_p).all()):
        raise NumericError("non-finite mean or v_p at prediction")
    return mean, v_p, v_st, alpha


def _feature_hashes(features):
    rows = np.ascontiguousarray(features, dtype=float)
    return [hashlib.sha256(row.tobytes()).hexdigest()[:16] for row in rows]


def cmd_train(args):
    from . import net

    resolved = _resolve_train_config(args)
    model_kind = ("ensemble" if args.ensemble
                  else "baseline" if args.baseline else "gcp")
    train_norm, test_norm, test_raw = _prepare_splits(args.data, resolved)
    model = _fit_model(train_norm, resolved, model_kind)
    stats = train_norm.normalization
    mean, v_p, v_st, alpha = _predict_original_scale(
        model, model_kind, test_norm, stats)
    curve = met.rejection_curve(mean, v_p, test_raw.targets)

    out = _ensure_out(args)
    net.save_checkpoint(out / "checkpoint.json", model,
                        extra={"normalization": stats.to_json(),
                               "model": model_kind})
    _write_json(out / "metrics.json", met.curve_summary(curve))
    met.write_curve_csv(curve, out / "rejection.csv")
    pred_rows = list(zip(_feature_hashes(test_raw.features),
                         mean, v_p, v_st, alpha))
    _write_csv(out / "predictions.csv",
               ("x_hash", "mean", "v_p", "v_st", "alpha"), pred_rows)
    _manifest(out, "train",
              {"source": args.data, "model": model_kind, "config": resolved},
              ["checkpoint.json", "metrics.json", "rejection.csv",
               "predictions.csv"])
    print(f"rmse {curve.rmse_at_n[0]:.6f}  auc {curve.auc:.6f}  "
          f"n {len(mean)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dynamics


def cmd_dynamics_simulate(args):
    from . import dynamics as dyn

    spec = _contamination_spec(args, args.epsilon)
    if spec.epsilon > 0.0 and dyn.indicators(spec).c_go <= 0.0:
        print("warning: outlier indicator c_go <= 0; the trajectory may "
              "not settle at a finite equilibrium", file=sys.stderr)
    if args.state is not None:
        # a non-finite or non-positive field is a usage error (exit 2)
        state = dyn.GcpParams(*args.state)
    else:
        state = dyn.default_state(spec)
    traj = dyn.integrate(state, spec, t_end=args.t_end,
                         settle_tol=args.settle_tol,
                         escape_bound=args.escape_bound)
    out = _ensure_out(args)
    rows = zip(traj.t, traj.m, traj.nu, traj.alpha, traj.beta, traj.sigma)
    _write_csv(out / "trajectory.csv",
               ("t", "m", "nu", "alpha", "beta", "sigma"), rows)
    _manifest(out, "dynamics simulate",
              {"spec": dataclasses.asdict(spec), "t_end": args.t_end,
               "settle_tol": args.settle_tol,
               "escape_bound": args.escape_bound,
               "state": [state.m, state.nu, state.alpha, state.beta],
               "settled": traj.settled, "escaped": traj.escaped,
               "truncated": traj.truncated, "evaluations": traj.evaluations,
               "rejected": traj.rejected},
              ["trajectory.csv"])
    print(f"steps {len(traj.t)}  settled {traj.settled}  "
          f"escaped {traj.escaped}")
    return EXIT_OK


def cmd_dynamics_equilibrium(args):
    from . import dynamics as dyn

    spec = _contamination_spec(args, args.epsilon)
    payload = dataclasses.asdict(dyn.equilibrium(spec, guess=args.guess))
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        out = _ensure_out(args)
        _write_json(out / "equilibrium.json", payload)
        _manifest(out, "dynamics equilibrium",
                  {"spec": dataclasses.asdict(spec), "guess": args.guess},
                  ["equilibrium.json"])
    return EXIT_OK


def cmd_dynamics_sweep(args):
    from . import dynamics as dyn

    spec0 = _contamination_spec(args, max(args.eps))
    ind = dyn.check_condition(spec0)
    if min(args.eps) <= 0.0:
        raise ConditionError("epsilon must be positive: without "
                             "contamination there is no finite "
                             "equilibrium branch")
    m_o = dyn.outlier_moments(spec0)["mean"]
    alpha_limit = 3.0 * spec0.v_g**2 / ind.c_go
    mixture = dataclasses.asdict(spec0)
    del mixture["epsilon"]
    pairs = dyn.equilibrium_sweep(args.eps, **mixture)
    rows = []
    for eps, eq in pairs:
        mean_scale = eps * (m_o - spec0.m_g)
        mean_ratio = ((eq.m - spec0.m_g) / mean_scale
                      if mean_scale != 0.0 else math.nan)
        rows.append((eps, eq.m, eq.alpha, eq.sigma, ind.c_go, ind.d_go,
                     eq.max_residual, eps * eq.alpha / alpha_limit,
                     mean_ratio, eq.step_bound, eq.iterations))
    header = ("epsilon", "m_eq", "alpha_eq", "sigma_eq", "c_go", "d_go",
              "residual", "eps_alpha_ratio", "mean_ratio", "step_bound",
              "iterations")
    out = _ensure_out(args)
    _write_csv(out / "sweep.csv", header, rows)
    _manifest(out, "dynamics sweep",
              {"spec": dataclasses.asdict(spec0), "eps": args.eps,
               "alpha_limit": alpha_limit},
              ["sweep.csv"])
    _write_csv(None, header, rows)
    return EXIT_OK


def cmd_dynamics_field(args):
    from . import dynamics as dyn

    spec = _contamination_spec(args, args.epsilon)
    alphas = _parse_range(args.alpha_range, "--alpha-range")
    sigmas = _parse_range(args.sigma_range, "--sigma-range")
    rows = dyn.field_grid(alphas, sigmas, spec, m=args.m)
    out = _ensure_out(args)
    _write_csv(out / "field.csv", ("alpha", "sigma", "dalpha", "dsigma"), rows)
    _manifest(out, "dynamics field",
              {"spec": dataclasses.asdict(spec), "m": args.m,
               "alpha_range": args.alpha_range,
               "sigma_range": args.sigma_range},
              ["field.csv"])
    print(f"wrote {len(rows)} field rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


# model kind -> bench.csv names of its rankings by v_p, then by v_st
BENCH_MODELS = {"gcp": ("gcp", "gcp_st"), "baseline": ("baseline",),
                "ensemble": ("ens_gcp",)}


def _bench_job(source, resolved, fraction, job_seed, with_ensemble):
    """One cell's (name, rmse, auc) rows.  The GCP networks are fitted once,
    as an ensemble of one member without `with_ensemble`: its first
    member, the lone network of the seed, is also the `gcp` model."""
    job = dict(resolved, seed=job_seed, contamination=fraction,
               members=resolved["members"] if with_ensemble else 1)
    train_norm, test_norm, test_raw = _prepare_splits(source, job)
    ensemble = _fit_model(train_norm, job, "ensemble")
    models = {"gcp": ensemble[0],
              "baseline": _fit_model(train_norm, job, "baseline")}
    if with_ensemble:
        models["ensemble"] = ensemble
    results = []
    for kind, model in models.items():
        mean, *variances, _ = _predict_original_scale(
            model, kind, test_norm, train_norm.normalization)
        for name, variance in zip(BENCH_MODELS[kind], variances):
            curve = met.rejection_curve(mean, variance, test_raw.targets)
            results.append((name, curve.rmse_at_n[0], curve.auc))
    return results


def cmd_bench(args):
    resolved = _resolve_train_config(args)
    fractions, repeats = args.fractions, args.repeats
    long_rows = []
    for fi, fraction in enumerate(fractions):
        for rep in range(repeats):
            job_seed = int(np.random.SeedSequence(
                entropy=resolved["seed"],
                spawn_key=(fi * repeats + rep,)).generate_state(1)[0])
            long_rows.extend(
                (fraction, rep, job_seed, model, rmse_v, auc_v)
                for model, rmse_v, auc_v in _bench_job(
                    args.data, resolved, fraction, job_seed, args.ensemble))

    summary_rows = []
    models = sorted({row[3] for row in long_rows})
    for fraction in fractions:
        for model in models:
            picks = [row for row in long_rows
                     if row[0] == fraction and row[3] == model]
            rmses = np.array([row[4] for row in picks])
            aucs = np.array([row[5] for row in picks])
            k = len(picks)

            def stderr(v):
                return float(np.std(v, ddof=1) / math.sqrt(k)) if k > 1 else 0.0

            summary_rows.append((fraction, model, float(rmses.mean()),
                                 stderr(rmses), float(aucs.mean()),
                                 stderr(aucs), k))

    out = _ensure_out(args)
    _write_csv(out / "bench.csv",
               ("fraction", "repeat", "seed", "model", "rmse", "auc"),
               long_rows)
    _write_csv(out / "summary.csv",
               ("fraction", "model", "rmse_mean", "rmse_stderr", "auc_mean",
                "auc_stderr", "repeats"), summary_rows)
    _manifest(out, "bench",
              {"source": args.data, "fractions": fractions,
               "repeats": repeats, "ensemble": bool(args.ensemble),
               "config": resolved, "jobs": args.jobs},
              ["bench.csv", "summary.csv"])
    print("fraction model rmse auc")
    for fraction, model, rm, _, auc, _, _ in summary_rows:
        print(f"{fraction:g} {model} {rm:.4f} {auc:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add(sub, flag, **kwargs):
    """`flag`, with its domain in FLAGS as type and --help text."""
    domain = FLAGS[flag]
    sub.add_argument(flag, type=domain, dest=domain.name, help=domain.help,
                     **kwargs)


def _add_train_flags(sub):
    sub.add_argument("data", help="'synthetic' or a CSV path with the "
                     "target in the last column")
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="named hyperparameter bundle")
    sub.add_argument("--config", help="JSON file overriding resolved "
                     "settings, each in its flag's domain")
    for flag, domain in FLAGS.items():
        if domain.default is not None:
            _add(sub, flag)
    sub.add_argument("--out", required=True, help="output directory")


def _add_mixture_flags(sub, with_epsilon=True):
    if with_epsilon:
        sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--m-g", type=float, default=0.0, dest="m_g")
    sub.add_argument("--v-g", type=float, default=1.0, dest="v_g")
    _add(sub, "--gaussian-outliers", default="5,1")
    _add(sub, "--uniform-outliers")
    _add(sub, "--nodes")


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argparse tree, built once: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="gcpnet",
        description="Robust regression with normal-gamma belief networks "
                    "and their training-dynamics laboratory.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve-a", help="solve the variance-gap "
                            "equation for A(alpha)")
    which = solve.add_mutually_exclusive_group(required=True)
    _add(which, "--alpha")
    which.add_argument("--grid", help=GRID)
    solve.add_argument("--out")
    solve.set_defaults(func=cmd_solve_a)

    train = subs.add_parser("train", help="fit a network and write "
                            "checkpoint, metrics, and prediction artifacts")
    _add_train_flags(train)
    group = train.add_mutually_exclusive_group()
    group.add_argument("--ensemble", action="store_true",
                       help="train an ensemble of members")
    group.add_argument("--baseline", action="store_true",
                       help="train the Gaussian-NLL baseline instead")
    train.set_defaults(func=cmd_train)

    dynamics = subs.add_parser("dynamics", help="training-dynamics flow "
                               "tools")
    dsubs = dynamics.add_subparsers(dest="subcommand", required=True)

    sim = dsubs.add_parser("simulate", help="integrate the flow and write "
                           "the trajectory")
    _add_mixture_flags(sim)
    _add(sim, "--state")
    _add(sim, "--t-end", default=200.0)
    _add(sim, "--settle-tol")
    _add(sim, "--escape-bound")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_dynamics_simulate)

    eq = dsubs.add_parser("equilibrium", help="certify a finite rest point")
    _add_mixture_flags(eq)
    _add(eq, "--guess")
    eq.add_argument("--out")
    eq.set_defaults(func=cmd_dynamics_equilibrium)

    sweep = dsubs.add_parser("sweep", help="equilibrium branch over an "
                             "epsilon grid with asymptotic ratios")
    _add_mixture_flags(sweep, with_epsilon=False)
    _add(sweep, "--eps", required=True)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_dynamics_sweep)

    field = dsubs.add_parser("field", help="alpha-sigma vector field on a "
                             "grid")
    _add_mixture_flags(field)
    field.add_argument("--m", type=float, default=None,
                       help="mean coordinate (defaults to m_g)")
    field.add_argument("--alpha-range", default="0.5:50:12", help=GRID)
    field.add_argument("--sigma-range", default="0.5:50:12", help=GRID)
    field.add_argument("--out", required=True)
    field.set_defaults(func=cmd_dynamics_field)

    bench = subs.add_parser("bench", help="contamination-fraction benchmark "
                            "over repeated splits")
    _add_train_flags(bench)
    _add(bench, "--fractions", default="0,0.05,0.10,0.15,0.20")
    _add(bench, "--repeats", default=3)
    bench.add_argument("--ensemble", action="store_true",
                       help="also run the ensemble variant")
    _add(bench, "--jobs", default=1)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NonConvergenceError, NumericError, TrainingDiverged) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
