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
import inspect
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np

from . import gradcheck as gradcheck_mod
from .datasets import (
    JSON_KIND,
    RegimeSpec,
    csv_export,
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
from .nn import build_specs, load_checkpoint
from .simulators import SYSTEMS, default_params
from .training import (
    CHECKPOINT_FILE,
    TrainConfig,
    lam_tag,
    load_run,
    prepare_data,
    run_matrix,
)

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

# lb, lf, data_seed and jobs are run_matrix arguments of the same name, and
# their defaults are run_matrix's own.
_MATRIX_FLAGS = ("lb", "lf", "data_seed", "jobs")

_TRAIN_DEFAULTS = {
    "system": "pendulum",
    "arch": "dense",
    "loss": "mse+ljb",
    "seeds": [0],
    "out": None,
    **{flag: inspect.signature(run_matrix).parameters[flag].default
       for flag in _MATRIX_FLAGS},
    **{flag: getattr(TrainConfig, name) for flag, name in _TRAIN_FIELDS.items()},
}


# The flag of each TrainConfig field and run_matrix argument that one sets;
# their ConfigErrors name the flag instead, but "seed(s)" and "seed list" stay
_FLAG_OF = {name: "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            for key, name in [*_TRAIN_FIELDS.items(), ("seeds", "seed"),
                              *((k, k) for k in (*_MATRIX_FLAGS, "seeds"))]}
_FLAG_WORD = re.compile(r"\b(%s)\b(?!\(| list)" % "|".join(_FLAG_OF))


# What each --config key holds: its default's kind (seeds are integers, and
# out is a path or null); any key may be left out
_CONFIG_KEYS = {key: f"{kind} or missing" for key, kind in dict(
    {key: JSON_KIND.get(type(value)) for key, value in _TRAIN_DEFAULTS.items()},
    seeds="list of integers", out="string or null").items()}


def _given_train_config(args):
    """The --config file's values, overridden by the flags given."""
    given = {}
    if args.config:
        try:
            given = read_json(args.config, _CONFIG_KEYS, closed="config")
        except ConfigError as exc:
            raise UsageError(str(exc))
    for key in _TRAIN_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            given[key] = value
    return given


def cmd_train(args):
    given = _given_train_config(args)
    cfg = {**_TRAIN_DEFAULTS, **given}
    if cfg["loss"] not in _LOSSES:
        raise UsageError(
            f"unknown loss {cfg['loss']!r}; expected one of {', '.join(_LOSSES)}")
    if cfg["loss"] == "mse":
        # from the file or the flag, a lambda the loss would drop is refused
        if given.get("lam", 0.0) != 0.0:
            raise UsageError("--lambda requires --loss mse+ljb")
        lam = cfg["lam"] = 0.0
    else:
        lam = cfg["lam"] = float(cfg["lam"])
    out_dir = _out_root(cfg["out"], "runs")
    start = time.perf_counter()
    try:
        records = run_matrix(
            systems=[cfg["system"]], archs=[cfg["arch"]], lams=[lam],
            seeds=cfg["seeds"], cfg_base=TrainConfig(**{
                name: cfg[flag] for flag, name in _TRAIN_FIELDS.items()}),
            lb=cfg["lb"], lf=cfg["lf"], data_seed=cfg["data_seed"],
            out_dir=out_dir, jobs=cfg["jobs"])
    except ConfigError as exc:
        # both refuse their arguments before anything is made
        raise UsageError(_FLAG_WORD.sub(lambda m: _FLAG_OF[m[0]], str(exc)))
    elapsed = time.perf_counter() - start
    manifest = dict(cfg, command="train")
    manifest.pop("out")   # self-referential; keeps artifacts portable
    write_json(manifest, os.path.join(
        out_dir, f"{cfg['system']}_{cfg['arch']}_lam{lam_tag(lam)}_matrix.json"))
    failed = 0
    for rec in records:
        name = rec.config.run_name
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
    tag = f"{config.system}_{config.arch}_lam{lam_tag(config.train.lam)}"
    if config.train.dropout > 0.0:
        tag += "_drop"
    return tag


def _data_key(config):
    """What a run's eval data depends on: runs with equal keys share it."""
    return (config.system, config.lb, config.lf, config.data_seed)


def _report_place(out, run_dir):
    """Where eval writes ``run_dir``'s reports: the directory, and the
    prefix of their file names, the run's name unless that directory is
    the run dir itself."""
    out_dir = _out_root(out, run_dir)
    if out_dir == run_dir:
        return out_dir, ""
    return out_dir, os.path.basename(os.path.normpath(run_dir)) + "_"


def _eval_one_dir(run_dir, record, data_cache, lags_override):
    """Reports (interp, extrap) for one run directory and its ``record``.

    ``data_cache`` maps a data key to the (interp, extrap) datasets, built
    here on the key's first run.  The train split is never kept: eval does
    not read it.  The model is the one the record's config builds, and its
    checkpoint must hold exactly that model.
    """
    config = record.config
    key = _data_key(config)
    if key not in data_cache:
        data = prepare_data(config.system, lb=config.lb, lf=config.lf,
                            data_seed=config.data_seed)
        data_cache[key] = (("interp", data["val"]),
                           ("extrap", data["extrap"]))
        del data    # and with it the train split, before any evaluation
    ds = data_cache[key][0][1]
    specs, seq_shape = build_specs(config.arch, config.lb, ds.d_in, config.lf,
                                   ds.d_out, dropout=config.train.dropout)
    model, _ = load_checkpoint(os.path.join(run_dir, CHECKPOINT_FILE), specs,
                               seq_shape)
    lags = config.train.lags if lags_override is None else lags_override
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
    # the checks that need no data come first, for every run dir
    for run_dir, record in zip(args.run_dirs, records):
        lf = record.config.lf
        if args.lags is not None and args.lags >= lf:
            raise UsageError(f"--lags {args.lags} must be below the "
                             f"lookforward {lf} of {run_dir}")
        if not record.ok:
            raise StateError(f"{run_dir} holds a failed run "
                             f"({record.error}); nothing to eval")
        ckpt_path = os.path.join(run_dir, CHECKPOINT_FILE)
        if not os.path.exists(ckpt_path):
            raise StateError(f"missing checkpoint {ckpt_path}")
    # then the pairs: two run dirs whose reports would overwrite each other,
    # and two runs --aggregate would pool that differ in more than the seed
    places, pools = {}, {}
    for run_dir, record in zip(args.run_dirs, records):
        out_dir, prefix = _report_place(args.out, run_dir)
        other = places.setdefault((os.path.realpath(out_dir), prefix), run_dir)
        if other != run_dir:
            raise UsageError(
                f"{other} and {run_dir} would write their reports to the "
                f"same files, {os.path.join(out_dir, prefix)}report_*")
        config = record.config
        cid = _config_id(config)
        pooled = replace(config, run_name="",
                         train=replace(config.train, seed=0))
        other, first = pools.setdefault(cid, (run_dir, pooled))
        if args.aggregate and pooled != first:
            raise UsageError(
                f"--aggregate would pool {other} and {run_dir} as {cid}, "
                f"but their configs differ in more than the seed")
    # each data key's datasets are freed after the last run dir that reads
    # them, so run dirs grouped by system hold one system's data at a time.
    # Every checkpoint is loaded, and every report formed and found finite,
    # before any file is written, so a bad run dir leaves no reports behind.
    keys = [_data_key(record.config) for record in records]
    data_cache = {}
    reports_by_dir = []
    with np.errstate(all="ignore"):   # an overflow shows as a non-finite report
        for i, run_dir in enumerate(args.run_dirs):
            reports = _eval_one_dir(run_dir, records[i], data_cache,
                                    args.lags)
            if keys[i] not in keys[i + 1:]:
                del data_cache[keys[i]]
            for name, rep in reports.items():
                if not all(np.isfinite(value).all() for value in
                           vars(rep).values()
                           if isinstance(value, (float, np.ndarray))):
                    raise DomainError(f"{run_dir}: its {name} report is not "
                                      f"finite; the model overflows")
            reports_by_dir.append(reports)
    by_config = {}
    for run_dir, reports in zip(args.run_dirs, reports_by_dir):
        out_dir, prefix = _report_place(args.out, run_dir)
        os.makedirs(out_dir, exist_ok=True)
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
    p.add_argument("--amplitude", type=float, help=(
        f"default {_REGIME_DEFAULTS['amplitude']}; actuated only"))
    p.add_argument("--hold", type=int, help=(
        f"default {_REGIME_DEFAULTS['hold']}; actuated only"))
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--n-traj", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-jitter", type=float, help=(
        f"default {_REGIME_DEFAULTS['init_jitter']}; double_pendulum only"))
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
                        f"(default {_TRAIN_DEFAULTS['jobs']}); memory grows "
                        "with N: a stack holds N copies of every activation")
    for key, name in _TRAIN_FIELDS.items():
        p.add_argument(_FLAG_OF[name], dest=key,
                       type=type(getattr(TrainConfig, name)))
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
