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
import json
import os
import sys
import time

import numpy as np

from . import gradcheck as gradcheck_mod
from .datasets import RegimeSpec, csv_export, regime_trajectories, write_json
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
from .training import TrainConfig, lam_tag, load_run, prepare_data, run_matrix

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

def cmd_simulate(args):
    if args.system not in SYSTEMS:
        raise UsageError(
            f"unknown system {args.system!r}; expected one of {', '.join(SYSTEMS)}")
    try:
        spec = RegimeSpec(amplitude=args.amplitude, hold=args.hold,
                          n_traj=args.n_traj, steps=args.steps,
                          noise_sigma=args.noise, seed=args.seed,
                          init_jitter=args.init_jitter)
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

_TRAIN_DEFAULTS = {
    "system": "pendulum",
    "arch": "dense",
    "loss": "mse+ljb",
    "lam": 1.0,
    "lags": 5,
    "lb": 10,
    "lf": 10,
    "data_seed": 0,
    "seeds": [0],
    "jobs": 1,
    "lr": 0.01,
    "batch": 128,
    "epochs": 200,
    "plateau_patience": 10,
    "lr_factor": 0.5,
    "early_stop_patience": 30,
    "l2": 0.001,
    "dropout": 0.1,
    "grad_clip": 5.0,
    "out": None,
}


def _merge_train_config(args):
    """Built-in defaults, overridden by --config file, overridden by flags."""
    merged = dict(_TRAIN_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        unknown = sorted(set(doc) - set(_TRAIN_DEFAULTS))
        if unknown:
            raise UsageError(
                f"unknown config keys: {', '.join(unknown)}")
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
        lam = 0.0
    else:
        lam = float(cfg["lam"])
    seeds = [int(s) for s in cfg["seeds"]]
    jobs = cfg["jobs"]
    if not isinstance(jobs, int) or jobs < 1:
        raise UsageError(f"--jobs must be an integer >= 1, got {jobs!r}")
    try:
        base = TrainConfig(
            lr0=cfg["lr"], batch=cfg["batch"], max_epochs=cfg["epochs"],
            plateau_patience=cfg["plateau_patience"],
            lr_factor=cfg["lr_factor"],
            early_stop_patience=cfg["early_stop_patience"],
            lam=lam, lags=cfg["lags"], l2=cfg["l2"], dropout=cfg["dropout"],
            grad_clip=cfg["grad_clip"])
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
    manifest = dict(cfg)
    manifest.pop("out", None)   # self-referential; keeps artifacts portable
    manifest.update({"command": "train", "lam": lam, "seeds": seeds})
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


def _eval_one_dir(run_dir, data_cache, lags_override=None):
    """Reports (interp, extrap) for one run directory; datasets cached."""
    record = load_run(run_dir)
    config = record["config"]
    ckpt_path = os.path.join(run_dir, "checkpoint.json")
    if record.get("error"):
        raise StateError(
            f"{run_dir} holds a failed run ({record['error']}); nothing to eval")
    if not os.path.exists(ckpt_path):
        raise StateError(f"missing checkpoint {ckpt_path}")
    model, _ = load_checkpoint(ckpt_path)
    key = (config["system"], config["lb"], config["lf"], config["data_seed"])
    if key not in data_cache:
        data_cache[key] = prepare_data(config["system"], lb=config["lb"],
                                       lf=config["lf"],
                                       data_seed=config["data_seed"])
    data = data_cache[key]
    lags = lags_override if lags_override else config["train"]["lags"]
    cid = _config_id(config)
    run_id = os.path.basename(os.path.normpath(run_dir))
    reports = {}
    for name, ds in (("interp", data["val"]), ("extrap", data["extrap"])):
        reports[name] = evaluate(model, ds, lags=lags, run_id=run_id,
                                 dataset_id=name, config_id=cid)
    return reports


def cmd_eval(args):
    for run_dir in args.run_dirs:
        # a shell glob over a train output also matches its matrix JSON
        if os.path.exists(run_dir) and not os.path.isdir(run_dir):
            raise UsageError(f"{run_dir} is not a run directory")
    data_cache = {}
    by_config = {}
    for run_dir in args.run_dirs:
        reports = _eval_one_dir(run_dir, data_cache, args.lags)
        out_dir = _out_root(args.out, run_dir)
        os.makedirs(out_dir, exist_ok=True)
        prefix = ""
        if out_dir != run_dir:
            prefix = os.path.basename(os.path.normpath(run_dir)) + "_"
        for name, rep in reports.items():
            emit(rep, "markdown", os.path.join(out_dir, f"{prefix}report_{name}.md"))
            emit(rep, "json", os.path.join(out_dir, f"{prefix}report_{name}.json"))
            acf_path = os.path.join(out_dir, f"{prefix}acf_{name}.csv")
            if args.acf_csv and len(args.run_dirs) == 1:
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
    components = args.component if args.component else None
    if components:
        bad = sorted(set(components) - set(gradcheck_mod.ALL_COMPONENTS))
        if bad:
            raise UsageError(
                f"unknown component(s): {', '.join(bad)}; expected "
                f"{', '.join(gradcheck_mod.ALL_COMPONENTS)}")
    results = gradcheck_mod.run_suites(components=components,
                                       n_instances=args.instances,
                                       tol=args.tol, seed=args.seed)
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
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--hold", type=int, default=5)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--n-traj", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-jitter", type=float, default=0.1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train one run or a seed matrix")
    p.add_argument("--config", default=None,
                   help="JSON file whose keys mirror these flags")
    p.add_argument("--system", default=None)
    p.add_argument("--model", "--arch", dest="arch", default=None)
    p.add_argument("--loss", default=None, choices=_LOSSES)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lags", type=int, default=None)
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
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--plateau-patience", type=int, default=None)
    p.add_argument("--lr-factor", type=float, default=None)
    p.add_argument("--early-stop-patience", type=int, default=None)
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--grad-clip", type=float, default=None)
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
