"""Command line interface: simulate, train, eval, gradcheck.

One executable covers the full pipeline: generate trajectories, train
single runs or seed matrices, evaluate checkpoints into reports, and verify
every analytic gradient.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every command is
deterministic given its flags and seeds, and every output directory carries
a manifest holding the exact configuration that produced it.

``--config FILE`` (train only) reads a JSON object whose keys mirror the
flag names one to one; explicit flags override file values, file values
override built-in defaults.  The default output root comes from the
``WHITENET_OUT`` environment variable when no ``--out`` is given.
"""

import argparse
import os
import sys
import time

import numpy as np

from . import gradcheck as gradcheck_mod
from .datasets import (
    DESK_WINDOW,
    RegimeSpec,
    csv_export,
    desk_regimes,
    read_json,
    regime_trajectories,
    write_json,
)
from .errors import (
    ConfigError,
    CsvParseError,
    DivergenceError,
    DomainError,
    ShapeError,
    StateError,
)
from .evaluation import aggregate, emit, emit_comparison, evaluate
from .nn import load_checkpoint
from .simulators import SYSTEMS, default_params
from .training import (
    CHECKPOINT_FILE,
    TrainConfig,
    lam_tag,
    load_run,
    prepare_data,
    run_matrix,
)

_ARCHS = ("dense", "rnn", "lstm")
_LOSSES = ("mse", "mse+ljb")


class UsageError(Exception):
    """A flag value that argparse cannot catch (unknown name, bad combo)."""


def _out_root(explicit, fallback):
    if explicit:
        return explicit
    env = os.environ.get("WHITENET_OUT")
    return env if env else fallback


# ---------------------------------------------------------------------------
# simulate

# Defaults of the regime flags that only some systems read: the double
# pendulum is unactuated and varies its initial angles instead.
_REGIME_DEFAULTS = {"amplitude": 0.5, "hold": 5,
                    "init_jitter": RegimeSpec.init_jitter}


def cmd_simulate(args):
    if args.system not in SYSTEMS:
        raise UsageError(
            f"unknown system {args.system!r}; expected one of {', '.join(SYSTEMS)}")
    given = {key: getattr(args, key) for key in _REGIME_DEFAULTS
             if getattr(args, key) is not None}
    unread = (("amplitude", "hold") if args.system == "double_pendulum"
              else ("init_jitter",))
    for key in unread:
        if key in given:
            raise UsageError(f"--{key.replace('_', '-')} does nothing for "
                             f"--system {args.system}")
    try:
        spec = RegimeSpec(n_traj=args.n_traj, steps=args.steps,
                          noise_sigma=args.noise, seed=args.seed,
                          **{**_REGIME_DEFAULTS, **given})
    except DomainError as exc:
        raise UsageError(str(exc))
    out_dir = _out_root(args.out, "trajectories")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, traj in enumerate(regime_trajectories(args.system, spec)):
        path = os.path.join(out_dir, f"{args.system}_seed{args.seed}_traj{i}.csv")
        csv_export(traj, path)
        paths.append(path)
        print(f"wrote {path} ({traj.states.shape[0]} steps)")
    manifest = {
        "command": "simulate",
        "system": args.system,
        "regime": spec.__dict__,
        "params": default_params(args.system).__dict__,
        "files": [os.path.basename(p) for p in paths],
    }
    write_json(manifest,
               os.path.join(out_dir, f"{args.system}_seed{args.seed}_manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# train

# The flags (and --config keys) that set a TrainConfig field, and the field
# each sets; their types and defaults are TrainConfig's own.
_TRAIN_FIELDS = {
    "lr": "lr0",
    "batch": "batch",
    "epochs": "max_epochs",
    "plateau_patience": "plateau_patience",
    "lr_factor": "lr_factor",
    "early_stop_patience": "early_stop_patience",
    "lam": "lam",
    "lags": "lags",
    "l2": "l2",
    "dropout": "dropout",
    "grad_clip": "grad_clip",
}

_TRAIN_DEFAULTS = {
    "system": "pendulum",
    "arch": "dense",
    "loss": "mse+ljb",
    "lb": DESK_WINDOW,
    "lf": DESK_WINDOW,
    "data_seed": 0,
    "seeds": [0],
    "jobs": 1,
    "out": None,
    **{flag: getattr(TrainConfig, name) for flag, name in _TRAIN_FIELDS.items()},
}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _expected_type(key, value):
    """What a --config ``value`` for ``key`` should be, if its JSON type is
    wrong: the type of the key's default, where any number fits a float."""
    default = _TRAIN_DEFAULTS[key]
    if isinstance(default, list):
        if not (isinstance(value, list) and all(map(_is_int, value))):
            return "a list of integers"
    elif isinstance(default, int):
        if not _is_int(value):
            return "an integer"
    elif isinstance(default, float):
        if not (_is_int(value) or isinstance(value, float)):
            return "a number"
    elif not (isinstance(value, str) or (value is None and default is None)):
        return "a string"
    return None


def _merge_train_config(args):
    """Built-in defaults, overridden by --config file, overridden by flags."""
    merged = dict(_TRAIN_DEFAULTS)
    if args.config:
        try:
            doc = read_json(args.config)
        except ConfigError as exc:
            raise UsageError(str(exc))
        if not isinstance(doc, dict):
            raise UsageError(f"{args.config} must hold a JSON object")
        unknown = sorted(set(doc) - set(_TRAIN_DEFAULTS))
        if unknown:
            raise UsageError(
                f"unknown config keys: {', '.join(unknown)}")
        for key, value in sorted(doc.items()):
            expected = _expected_type(key, value)
            if expected:
                raise UsageError(
                    f"config key {key!r} must be {expected}, got {value!r}")
        merged.update(doc)
    for key in _TRAIN_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def cmd_train(args):
    cfg = _merge_train_config(args)
    if cfg["system"] not in SYSTEMS:
        raise UsageError(
            f"unknown system {cfg['system']!r}; expected one of {', '.join(SYSTEMS)}")
    if cfg["arch"] not in _ARCHS:
        raise UsageError(
            f"unknown model {cfg['arch']!r}; expected one of {', '.join(_ARCHS)}")
    if cfg["loss"] not in _LOSSES:
        raise UsageError(
            f"unknown loss {cfg['loss']!r}; expected one of {', '.join(_LOSSES)}")
    if cfg["loss"] == "mse":
        if args.lam is not None and args.lam != 0.0:
            raise UsageError("--lambda requires --loss mse+ljb")
        lam = cfg["lam"] = 0.0
    else:
        lam = cfg["lam"] = float(cfg["lam"])
    seeds = cfg["seeds"]
    if not seeds:
        raise UsageError("no seeds to train: the seed list is empty")
    negative = [s for s in seeds if s < 0]
    if negative:
        # a seed keys a random stream, and keys are non-negative
        raise UsageError(
            f"seeds must be >= 0, got {', '.join(map(str, negative))}")
    if cfg["data_seed"] < 0:
        raise UsageError(f"--data-seed must be >= 0, got {cfg['data_seed']}")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        # two runs of one seed would write the same run directory
        raise UsageError(
            f"seed(s) {', '.join(map(str, repeated))} given more than once")
    jobs = cfg["jobs"]
    if jobs < 1:
        raise UsageError(f"--jobs must be an integer >= 1, got {jobs!r}")
    for key in ("lb", "lf", "lags"):
        if cfg[key] < 1:
            raise UsageError(f"--{key} must be >= 1, got {cfg[key]}")
    if cfg["lf"] <= cfg["lags"]:
        # eval reports Ljung-Box Q at the run's lags, whatever the loss
        raise UsageError(
            f"--lf {cfg['lf']} must exceed --lags {cfg['lags']}: the "
            f"whiteness statistic needs more residual steps than lags")
    steps = min(spec.steps for spec in desk_regimes(cfg["system"]))
    if cfg["lb"] + cfg["lf"] > steps:
        raise UsageError(
            f"--lb + --lf = {cfg['lb'] + cfg['lf']} exceeds the {steps} "
            f"steps of a {cfg['system']} trajectory")
    try:
        base = TrainConfig(**{name: cfg[flag]
                              for flag, name in _TRAIN_FIELDS.items()})
    except ConfigError as exc:
        raise UsageError(str(exc))
    out_dir = _out_root(cfg["out"], "runs")
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    records = run_matrix(
        systems=[cfg["system"]], archs=[cfg["arch"]], lams=[lam], seeds=seeds,
        cfg_base=base, lb=cfg["lb"], lf=cfg["lf"], data_seed=cfg["data_seed"],
        out_dir=out_dir, jobs=jobs)
    elapsed = time.perf_counter() - start
    manifest = dict(cfg, command="train")
    manifest.pop("out")   # self-referential; keeps artifacts portable
    write_json(manifest, os.path.join(
        out_dir, f"{cfg['system']}_{cfg['arch']}_lam{lam_tag(lam)}_matrix.json"))
    failed = 0
    for rec in records:
        name = rec.config["run_name"]
        if rec.ok:
            print(f"{name}: best val {rec.best_val_loss:.6g} at epoch "
                  f"{rec.best_epoch} ({rec.epochs_run} epochs)")
        else:
            failed += 1
            print(f"{name}: FAILED ({rec.error})")
    print(f"{len(records) - failed}/{len(records)} runs trained in "
          f"{elapsed:.1f}s, output under {out_dir}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# eval

def _config_id(config):
    tag = f"{config['system']}_{config['arch']}_lam{lam_tag(config['lam'])}"
    if config["train"].get("dropout", 0.0) > 0.0:
        tag += "_drop"
    return tag


def _data_key(config):
    """What a run's eval data depends on: runs with equal keys share it."""
    return (config["system"], config["lb"], config["lf"], config["data_seed"])


def _eval_one_dir(run_dir, record, data_cache, lags_override):
    """Reports (interp, extrap) for one run directory and its ``record``.

    ``data_cache`` maps a data key to the (interp, extrap) datasets, built
    here on the key's first run.  The train split is never kept: eval does
    not read it.
    """
    config = record["config"]
    ckpt_path = os.path.join(run_dir, CHECKPOINT_FILE)
    if record.get("error"):
        raise StateError(
            f"{run_dir} holds a failed run ({record['error']}); nothing to eval")
    if not os.path.exists(ckpt_path):
        raise StateError(f"missing checkpoint {ckpt_path}")
    model, _ = load_checkpoint(ckpt_path)
    key = _data_key(config)
    if key not in data_cache:
        data = prepare_data(config["system"], lb=config["lb"],
                            lf=config["lf"], data_seed=config["data_seed"])
        data_cache[key] = (("interp", data["val"]),
                           ("extrap", data["extrap"]))
        del data    # and with it the train split, before any evaluation
    lags = (lags_override if lags_override is not None
            else config["train"]["lags"])
    cid = _config_id(config)
    run_id = os.path.basename(os.path.normpath(run_dir))
    reports = {}
    for name, ds in data_cache[key]:
        reports[name] = evaluate(model, ds, lags=lags, run_id=run_id,
                                 dataset_id=name, config_id=cid)
    return reports


def cmd_eval(args):
    if args.lags is not None and args.lags < 1:
        raise UsageError(f"--lags must be >= 1, got {args.lags}")
    if args.acf_csv and len(args.run_dirs) > 1:
        raise UsageError("--acf-csv names one file: give a single run dir")
    seen = {}
    for run_dir in args.run_dirs:
        # a shell glob over a train output also matches its matrix JSON
        if os.path.exists(run_dir) and not os.path.isdir(run_dir):
            raise UsageError(f"{run_dir} is not a run directory")
        # one run given twice would count twice in an aggregate
        real = os.path.realpath(run_dir)
        if real in seen:
            raise UsageError(
                f"{run_dir} and {seen[real]} are the same run directory")
        seen[real] = run_dir
    records = [load_run(run_dir) for run_dir in args.run_dirs]
    for run_dir, record in zip(args.run_dirs, records):
        lf = record["config"]["lf"]
        if args.lags is not None and args.lags >= lf:
            raise UsageError(f"--lags {args.lags} must be below the "
                             f"lookforward {lf} of {run_dir}")
    # each data key's datasets are freed after the last run dir that reads
    # them, so run dirs grouped by system hold one system's data at a time
    keys = [_data_key(record["config"]) for record in records]
    data_cache = {}
    by_config = {}
    for i, run_dir in enumerate(args.run_dirs):
        reports = _eval_one_dir(run_dir, records[i], data_cache, args.lags)
        if keys[i] not in keys[i + 1:]:
            del data_cache[keys[i]]
        out_dir = _out_root(args.out, run_dir)
        os.makedirs(out_dir, exist_ok=True)
        prefix = ""
        if out_dir != run_dir:
            prefix = os.path.basename(os.path.normpath(run_dir)) + "_"
        for name, rep in reports.items():
            emit(rep, "markdown", os.path.join(out_dir, f"{prefix}report_{name}.md"))
            emit(rep, "json", os.path.join(out_dir, f"{prefix}report_{name}.json"))
            acf_path = os.path.join(out_dir, f"{prefix}acf_{name}.csv")
            if args.acf_csv:
                acf_path = args.acf_csv if name == "interp" else \
                    f"{os.path.splitext(args.acf_csv)[0]}_{name}.csv"
            emit(rep, "csv", acf_path)
            print(f"{rep.run_id} {name}: rmse {np.max(rep.rmse):.4g} (worst "
                  f"channel), sum|ac| {np.max(rep.sum_ac):.4g}, "
                  f"p {np.min(rep.p_value):.3g}")
            by_config.setdefault((rep.config_id, name), []).append(rep)
    if args.aggregate:
        agg_dir = _out_root(args.out, os.path.dirname(
            os.path.normpath(args.run_dirs[0])) or ".")
        os.makedirs(agg_dir, exist_ok=True)
        by_dataset = {}
        for (cid, name), reps in sorted(by_config.items()):
            agg = aggregate(reps)
            base = os.path.join(agg_dir, f"aggregate_{cid}_{name}")
            emit(agg, "markdown", base + ".md")
            write_json(agg.to_dict(), base + ".json")
            print(f"aggregated {cid} {name} over {agg.n_seeds} runs")
            by_dataset.setdefault(name, []).append(agg)
        for name, aggs in sorted(by_dataset.items()):
            if len(aggs) > 1:
                path = os.path.join(agg_dir, f"comparison_{name}.md")
                emit_comparison(aggs, path)
                print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck

def cmd_gradcheck(args):
    try:
        results = gradcheck_mod.run_suites(components=args.component,
                                           n_instances=args.instances,
                                           tol=args.tol, seed=args.seed)
    except ConfigError as exc:
        raise UsageError(str(exc))
    for res in results:
        print(res.line())
    bad = [res for res in results if not res.ok]
    if bad:
        print(f"{len(bad)}/{len(results)} component(s) FAILED")
        return 1
    print(f"all {len(results)} component(s) passed at tol {args.tol:g}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _seed_list(text):
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="whitenet",
        description="System identification with residual-whitening losses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate trajectory CSV files")
    p.add_argument("--system", required=True)
    p.add_argument("--amplitude", type=float, help="default 0.5; actuated only")
    p.add_argument("--hold", type=int, help="default 5; actuated only")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--n-traj", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-jitter", type=float,
                   help="default 0.1; double_pendulum only")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train one run or a seed matrix")
    p.add_argument("--config", default=None,
                   help="JSON file whose keys mirror these flags")
    p.add_argument("--system", default=None)
    p.add_argument("--model", "--arch", dest="arch", default=None)
    p.add_argument("--loss", default=None, choices=_LOSSES)
    p.add_argument("--lb", type=int, default=None)
    p.add_argument("--lf", type=int, default=None)
    p.add_argument("--data-seed", type=int, default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seed", dest="seeds", type=lambda s: [int(s)],
                       default=None)
    group.add_argument("--seeds", dest="seeds", type=_seed_list, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="train up to N seeds at once as one stacked model "
                        "(default 1: one at a time); memory grows with N: "
                        "a stack holds N copies of every activation")
    for key, name in _TRAIN_FIELDS.items():
        flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, type=type(getattr(TrainConfig, name)))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate run directories into reports")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--lags", type=int, default=None)
    p.add_argument("--acf-csv", default=None,
                   help="explicit path for per-lag plot data (single run dir)")
    p.add_argument("--aggregate", action="store_true",
                   help="also aggregate across run dirs, grouped by config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--component", action="append", default=None,
                   help="run only this suite (repeatable)")
    p.add_argument("--instances", type=int,
                   default=gradcheck_mod.DEFAULT_INSTANCES)
    p.add_argument("--tol", type=float, default=gradcheck_mod.DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, CsvParseError, DivergenceError, DomainError,
            OSError, ShapeError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
