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


class UsageError(ValueError):
    """Malformed or out-of-domain flag value detected after parsing."""


# per-dataset training settings; ensembles reuse them with half dropout
PRESETS = {
    "boston-gcp": {"learning_rate": 1e-4, "dropout": 0.3, "epochs": 700,
                   "batch_size": 5},
    "concrete-gcp": {"learning_rate": 1e-4, "dropout": 0.1, "epochs": 1000,
                     "batch_size": 5},
    "power-gcp": {"learning_rate": 5e-5, "dropout": 0.0, "epochs": 150,
                  "batch_size": 10},
    "yacht-gcp": {"learning_rate": 1e-3, "dropout": 0.1, "epochs": 1000,
                  "batch_size": 5},
    "kin8nm-gcp": {"learning_rate": 7e-4, "dropout": 0.0, "epochs": 250,
                   "batch_size": 10},
    "synthetic": {"learning_rate": 1e-3, "dropout": 0.0, "epochs": 1000,
                  "batch_size": 20},
}

TRAIN_DEFAULTS = {
    "learning_rate": 1e-3, "dropout": 0.0, "epochs": 100, "batch_size": 20,
    "hidden": 50, "seed": 0, "n": 400, "test_n": 200, "train_fraction": 0.95,
    "contamination": 0.0, "outlier_prob": 0.05, "members": 5,
}

# setting -> (flag, help); each flag parses with its default's type
TRAIN_FLAGS = {
    "learning_rate": ("--lr", None),
    "dropout": ("--dropout", None),
    "epochs": ("--epochs", None),
    "batch_size": ("--batch-size", None),
    "hidden": ("--hidden", None),
    "seed": ("--seed", None),
    "n": ("--n", "synthetic training-set size"),
    "test_n": ("--test-n", "synthetic test-set size"),
    "train_fraction": ("--train-fraction", None),
    "contamination": ("--contamination", "fraction of training targets "
                      "replaced by wild draws after splitting"),
    "outlier_prob": ("--outlier-prob", "synthetic generator's own outlier "
                     "probability"),
    "members": ("--members", "ensemble size"),
}


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


def _parse_floats(text, name, count=None):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{name} expects comma-separated numbers, got {text!r}")
    if not values:
        raise UsageError(f"{name} is empty")
    if count is not None and len(values) != count:
        raise UsageError(f"{name} expects {count} numbers, got {len(values)}")
    return values


def _parse_range(text, name):
    """lo:hi:n syntax for a geometric grid of positive values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{name} expects lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"{name} expects lo:hi:n, got {text!r}")
    if n < 1 or not 0.0 < lo < hi < math.inf:
        raise UsageError(f"{name} needs finite 0 < lo < hi and n >= 1")
    return np.geomspace(lo, hi, n)


def _contamination_spec(args, epsilon):
    # every dynamics command builds its mixture here first; uniform
    # outliers get half the nodes, so fewer than 2 leaves them none.
    # dynamics is imported by its commands only, to keep the others'
    # start-up short
    from . import dynamics as dyn

    if args.nodes is not None and args.nodes < 2:
        raise UsageError(f"--nodes must be at least 2, got {args.nodes}")
    if args.uniform_outliers is not None:
        lo, hi = _parse_floats(args.uniform_outliers, "--uniform-outliers", 2)
        outlier = ("uniform", lo, hi)
    else:
        m_o, v_o = _parse_floats(args.gaussian_outliers, "--gaussian-outliers", 2)
        outlier = ("gaussian", m_o, v_o)
    try:
        return dyn.ContaminationSpec(epsilon=epsilon, m_g=args.m_g,
                                     v_g=args.v_g, outlier=outlier)
    except ConditionError as exc:
        # malformed mixture parameters are a flag problem, not a refusal
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# solve-a


def cmd_solve_a(args):
    if (args.alpha is None) == (args.grid is None):
        raise UsageError("provide exactly one of --alpha or --grid")
    if args.alpha is not None:
        alphas = [args.alpha]
    else:
        alphas = list(_parse_range(args.grid, "--grid"))
    rows = []
    for alpha in map(float, alphas):
        # solve_A's ValueError on a non-positive alpha is a usage error
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


def _typed_override(key, value):
    """A --config value checked against the type of its default: integer
    settings take JSON integers, the others take finite numbers."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(TRAIN_DEFAULTS[key], int):
        if numeric and isinstance(value, int):
            return value
        raise UsageError(f"config key {key!r} expects an integer, "
                         f"got {value!r}")
    if numeric and math.isfinite(value):
        return float(value)
    raise UsageError(f"config key {key!r} expects a finite number, "
                     f"got {value!r}")


def _resolve_train_config(args):
    resolved = dict(TRAIN_DEFAULTS)
    if args.command == "bench":
        # --fractions is bench's contamination, so the generator's own
        # outliers are off unless asked for
        resolved["outlier_prob"] = 0.0
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise UsageError(f"unknown preset {args.preset!r}; choose from "
                             f"{sorted(PRESETS)}")
        resolved.update(PRESETS[args.preset])
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read --config file: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"--config is not valid JSON: {exc}")
        if not isinstance(overrides, dict):
            raise UsageError("--config must hold a JSON object")
        unknown = set(overrides) - set(resolved)
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)}")
        resolved.update((key, _typed_override(key, value))
                        for key, value in overrides.items())
    resolved.update((key, getattr(args, key)) for key in TRAIN_DEFAULTS
                    if getattr(args, key) is not None)
    if not 0.0 <= resolved["contamination"] < 1.0:
        raise UsageError("contamination must lie in [0, 1)")
    if resolved["members"] < 1:
        raise UsageError("members must be at least 1")
    if resolved["hidden"] < 1:
        raise UsageError("hidden must be at least 1")
    if not 0.0 <= resolved["dropout"] < 1.0:
        raise UsageError("dropout must lie in [0, 1)")
    if not 0.0 < resolved["train_fraction"] < 1.0:
        raise UsageError("train_fraction must lie in (0, 1)")
    if not 0.0 < resolved["learning_rate"] < math.inf:
        raise UsageError("learning_rate must be positive and finite")
    if resolved["seed"] < 0:
        raise UsageError("seed must be at least 0")
    if resolved["n"] < 2:
        raise UsageError("n must be at least 2: normalization needs two "
                         "training rows")
    if resolved["test_n"] < 2:
        raise UsageError("test_n must be at least 2: the rejection curve "
                         "needs two test samples")
    return resolved


def _prepare_splits(source, resolved):
    """Split, contaminate (training side only), and normalize a data source.

    Returns (train_normalized, test_normalized, test_original)."""
    seed = int(resolved["seed"])
    if source == "synthetic":
        train_raw = dat.generate_synthetic(dat.SyntheticSpec(
            n=int(resolved["n"]), outlier_prob=resolved["outlier_prob"],
            seed=seed))
        test_raw = dat.generate_synthetic(dat.SyntheticSpec(
            n=int(resolved["test_n"]), outlier_prob=0.0, seed=seed + 1))
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
                          epochs=int(resolved["epochs"]),
                          batch_size=int(resolved["batch_size"]),
                          seed=int(resolved["seed"]))
    x, y = train_norm.features, train_norm.targets
    hidden = int(resolved["hidden"])
    dropout = float(resolved["dropout"])
    if model_kind == "ensemble":
        ensemble, _ = net.train_ensemble(
            train_norm.dim, x, y, cfg, n_members=int(resolved["members"]),
            hidden=hidden, dropout=dropout)
        return ensemble
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    cls = net.GaussianNet if model_kind == "baseline" else net.GcpNetwork
    model = cls(train_norm.dim, hidden=hidden, dropout=dropout, rng=rng)
    net.train(model, x, y, cfg)
    return model


def _predict_original_scale(model, model_kind, test_norm, stats):
    """Per-sample (mean, v_p, v_st, alpha) mapped back to the target scale."""
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

    for flag, value in (("--t-end", args.t_end),
                        ("--settle-tol", args.settle_tol),
                        ("--escape-bound", args.escape_bound)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise UsageError(f"{flag} must be positive and finite, got {value}")
    spec = _contamination_spec(args, args.epsilon)
    if spec.epsilon > 0.0 and dyn.indicators(spec).c_go <= 0.0:
        print("warning: outlier indicator c_go <= 0; the trajectory may "
              "not settle at a finite equilibrium", file=sys.stderr)
    if args.state is not None:
        # a non-finite or non-positive field is a usage error (exit 2)
        state = dyn.GcpParams(*_parse_floats(args.state, "--state", 4))
    else:
        state = dyn.default_state(spec)
    traj = dyn.integrate(state, spec, t_end=args.t_end, nodes=args.nodes,
                         settle_tol=args.settle_tol,
                         escape_bound=args.escape_bound)
    out = _ensure_out(args)
    rows = zip(traj.t, traj.m, traj.nu, traj.alpha, traj.beta, traj.sigma)
    _write_csv(out / "trajectory.csv",
               ("t", "m", "nu", "alpha", "beta", "sigma"), rows)
    _manifest(out, "dynamics simulate",
              {"spec": dataclasses.asdict(spec), "t_end": args.t_end,
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
    guess = None
    if args.guess is not None:
        guess = tuple(_parse_floats(args.guess, "--guess", 3))
        m, alpha, sigma = guess
        if not (math.isfinite(m) and 0.0 < alpha < math.inf
                and 0.0 < sigma < math.inf):
            raise UsageError(f"--guess needs a finite m and positive, finite "
                             f"alpha and sigma, got {args.guess!r}")
    payload = dataclasses.asdict(dyn.equilibrium(spec, guess=guess,
                                                 nodes=args.nodes))
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

    eps_values = _parse_floats(args.eps, "--eps")
    for eps in eps_values:
        if not 0.0 <= eps < 1.0:
            raise UsageError(f"--eps values must lie in [0, 1), got {eps}")
    spec0 = _contamination_spec(args, max(eps_values))
    ind = dyn.check_condition(spec0)
    if min(eps_values) <= 0.0:
        raise ConditionError("epsilon must be positive: without "
                             "contamination there is no finite "
                             "equilibrium branch")
    m_o = dyn.outlier_moments(spec0)["mean"]
    alpha_limit = 3.0 * spec0.v_g**2 / ind.c_go
    pairs = dyn.equilibrium_sweep(eps_values, m_g=args.m_g, v_g=args.v_g,
                                  outlier=spec0.outlier, nodes=args.nodes)
    rows = []
    for eps, eq in pairs:
        mean_scale = eps * (m_o - spec0.m_g)
        mean_ratio = ((eq.m - spec0.m_g) / mean_scale
                      if mean_scale != 0.0 else math.nan)
        rows.append((eps, eq.m, eq.alpha, eq.sigma, ind.c_go, ind.d_go,
                     eq.max_residual, eps * eq.alpha / alpha_limit,
                     mean_ratio, eq.step_bound))
    header = ("epsilon", "m_eq", "alpha_eq", "sigma_eq", "c_go", "d_go",
              "residual", "eps_alpha_ratio", "mean_ratio", "step_bound")
    out = _ensure_out(args)
    _write_csv(out / "sweep.csv", header, rows)
    _manifest(out, "dynamics sweep",
              {"spec": dataclasses.asdict(spec0), "eps": eps_values,
               "alpha_limit": alpha_limit},
              ["sweep.csv"])
    _write_csv(None, header, rows)
    return EXIT_OK


def cmd_dynamics_field(args):
    from . import dynamics as dyn

    spec = _contamination_spec(args, args.epsilon)
    alphas = _parse_range(args.alpha_range, "--alpha-range")
    sigmas = _parse_range(args.sigma_range, "--sigma-range")
    rows = dyn.field_grid(alphas, sigmas, spec, m=args.m, nodes=args.nodes)
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
    job = dict(resolved)
    job["seed"] = job_seed
    job["contamination"] = fraction
    train_norm, test_norm, test_raw = _prepare_splits(source, job)
    results = []
    for kind, names in BENCH_MODELS.items():
        if kind == "ensemble" and not with_ensemble:
            continue
        model = _fit_model(train_norm, job, kind)
        mean, *variances, _ = _predict_original_scale(
            model, kind, test_norm, train_norm.normalization)
        for name, variance in zip(names, variances):
            curve = met.rejection_curve(mean, variance, test_raw.targets)
            results.append((name, curve.rmse_at_n[0], curve.auc))
    return results


def cmd_bench(args):
    resolved = _resolve_train_config(args)
    fractions = _parse_floats(args.fractions, "--fractions")
    for i, f in enumerate(fractions):
        if not 0.0 <= f < 1.0:
            raise UsageError(f"contamination fraction must lie in [0, 1), "
                             f"got {f}")
        if f in fractions[:i]:
            raise UsageError(f"--fractions lists {f} twice")
    repeats = args.repeats
    if repeats < 1:
        raise UsageError("--repeats must be at least 1")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    long_rows = []
    for fi, fraction in enumerate(fractions):
        for rep in range(repeats):
            job_seed = int(np.random.SeedSequence(
                entropy=int(resolved["seed"]),
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


def _add_train_flags(sub):
    sub.add_argument("data", help="'synthetic' or a CSV path with the "
                     "target in the last column")
    sub.add_argument("--preset", default=None, help="named hyperparameter "
                     f"bundle: {', '.join(sorted(PRESETS))}")
    sub.add_argument("--config", default=None,
                     help="JSON file overriding resolved settings")
    for key, (flag, text) in TRAIN_FLAGS.items():
        sub.add_argument(flag, type=type(TRAIN_DEFAULTS[key]), default=None,
                         dest=key, metavar=flag[2:].replace("-", "_").upper(),
                         help=text)
    sub.add_argument("--out", required=True, help="output directory")


def _add_mixture_flags(sub, with_epsilon=True):
    if with_epsilon:
        sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--m-g", type=float, default=0.0, dest="m_g")
    sub.add_argument("--v-g", type=float, default=1.0, dest="v_g")
    sub.add_argument("--gaussian-outliers", default="5,1",
                     dest="gaussian_outliers", help="m_o,v_o")
    sub.add_argument("--uniform-outliers", default=None,
                     dest="uniform_outliers", help="lo,hi")
    sub.add_argument("--nodes", type=int, default=None,
                     help="quadrature nodes override")


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argparse tree, built once: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="gcpnet",
        description="Robust regression with normal-gamma belief networks "
                    "and their training-dynamics laboratory.")
    subs = parser.add_subparsers(dest="command")

    solve = subs.add_parser("solve-a", help="solve the variance-gap "
                            "equation for A(alpha)")
    solve.add_argument("--alpha", type=float, default=None)
    solve.add_argument("--grid", default=None, help="lo:hi:n")
    solve.add_argument("--out", default=None)
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
    dsubs = dynamics.add_subparsers(dest="subcommand")

    sim = dsubs.add_parser("simulate", help="integrate the flow and write "
                           "the trajectory")
    _add_mixture_flags(sim)
    sim.add_argument("--state", default=None, help="m,nu,alpha,beta start")
    sim.add_argument("--t-end", type=float, default=200.0, dest="t_end")
    sim.add_argument("--settle-tol", type=float, default=None,
                     dest="settle_tol")
    sim.add_argument("--escape-bound", type=float, default=None,
                     dest="escape_bound")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_dynamics_simulate)

    eq = dsubs.add_parser("equilibrium", help="certify a finite rest point")
    _add_mixture_flags(eq)
    eq.add_argument("--guess", default=None, help="m,alpha,sigma start")
    eq.add_argument("--out", default=None)
    eq.set_defaults(func=cmd_dynamics_equilibrium)

    sweep = dsubs.add_parser("sweep", help="equilibrium branch over an "
                             "epsilon grid with asymptotic ratios")
    _add_mixture_flags(sweep, with_epsilon=False)
    sweep.add_argument("--eps", required=True,
                       help="comma-separated epsilon grid")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_dynamics_sweep)

    field = dsubs.add_parser("field", help="alpha-sigma vector field on a "
                             "grid")
    _add_mixture_flags(field)
    field.add_argument("--m", type=float, default=None,
                       help="mean coordinate (defaults to m_g)")
    field.add_argument("--alpha-range", default="0.5:50:12",
                       dest="alpha_range")
    field.add_argument("--sigma-range", default="0.5:50:12",
                       dest="sigma_range")
    field.add_argument("--out", required=True)
    field.set_defaults(func=cmd_dynamics_field)

    bench = subs.add_parser("bench", help="contamination-fraction benchmark "
                            "over repeated splits")
    _add_train_flags(bench)
    bench.add_argument("--fractions", default="0,0.05,0.10,0.15,0.20")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--ensemble", action="store_true",
                       help="also run the ensemble variant")
    bench.add_argument("--jobs", type=int, default=1,
                       help="at least 1 and recorded in manifest.json; "
                       "cells run serially, because training holds the "
                       "GIL and a thread pool only made them slower")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
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
