"""Mini-batch training: Adam, plateau LR halving, early stopping, best-val
checkpointing, and the multi-seed run matrix.

The loop is deliberately plain.  Every source of randomness is a child stream
of the run seed (model init, epoch shuffles, dropout masks), so a run repeated
with identical flags is bit-identical end to end: same parameter trajectory,
same traces, same checkpoint bytes.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .datasets import (
    build_regime,
    dataset_manifest,
    desk_regimes,
    normalize_fit_apply,
    split,
    write_manifest,
)
from .errors import ConfigError, DivergenceError, ShapeError
from .losses import LossConfig, composite_loss, composite_value
from .nn import build_specs, init_model, save_checkpoint
from .numerics import RngState

# child-stream tags, so the independent consumers never share a stream
_STREAM_MODEL_INIT = 303
_STREAM_SHUFFLE = 101
_STREAM_DROPOUT = 202
_STREAM_SPLIT = 404

PLATEAU_THRESHOLD = 1e-6   # absolute val-loss improvement that counts


@dataclass
class TrainConfig:
    """Knobs for one fit; desk-scale defaults (batch 128, 200 epochs)."""

    lr0: float = 0.01
    batch: int = 128
    max_epochs: int = 200
    plateau_patience: int = 10
    lr_factor: float = 0.5
    early_stop_patience: int = 30
    lam: float = 1.0
    lags: int = 5
    l2: float = 0.001
    dropout: float = 0.1
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if self.batch < 1 or self.max_epochs < 1:
            raise ConfigError("batch and max_epochs must be >= 1")
        if self.plateau_patience < 1 or self.early_stop_patience < 1:
            raise ConfigError("patiences must be >= 1")
        if self.early_stop_patience < self.plateau_patience:
            raise ConfigError(
                "early_stop_patience must be >= plateau_patience so halving "
                "can fire before the run stops")
        if not 0.0 < self.lr_factor < 1.0:
            raise ConfigError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.lam < 0 or self.l2 < 0:
            raise ConfigError("lam and l2 must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be > 0, got {self.grad_clip}")

    def loss_config(self):
        return LossConfig(lam=self.lam, lags=self.lags)


class AdamState:
    """First/second moment buffers and step counter for a parameter list."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params):
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.step = 0


def _is_bias(param):
    return param.name.endswith(".b")


def adam_step(params, adam, lr, l2=0.0, grad_clip=0.0):
    """One bias-corrected Adam update, in place.

    ``grad_clip > 0`` rescales the whole gradient to that global norm first;
    ``l2 > 0`` then adds classic weight decay (l2 * w) to every non-bias
    gradient before the moment updates, i.e. decay is coupled through Adam.
    """
    if grad_clip > 0.0:
        total = 0.0
        for p in params:
            total += float(np.sum(p.grad * p.grad))
        total = np.sqrt(total)
        if total > grad_clip:
            scale = grad_clip / total
            for p in params:
                p.grad *= scale
    adam.step += 1
    t = adam.step
    bc1 = 1.0 - AdamState.beta1 ** t
    bc2 = 1.0 - AdamState.beta2 ** t
    for i, p in enumerate(params):
        g = p.grad
        if l2 > 0.0 and not _is_bias(p):
            g = g + l2 * p.value
        m = adam.m[i]
        v = adam.v[i]
        m *= AdamState.beta1
        m += (1.0 - AdamState.beta1) * g
        v *= AdamState.beta2
        v += (1.0 - AdamState.beta2) * (g * g)
        p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + AdamState.eps)


@dataclass
class RunRecord:
    """Everything one fit produced (or the error that ended it)."""

    config: dict
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    lr_trace: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    epochs_run: int = 0
    wall_time: float = 0.0
    checkpoint_path: str = None
    error: str = None
    model: object = None    # in-memory handle, never serialized

    @property
    def ok(self):
        return self.error is None

    def to_dict(self):
        # wall_time stays off disk: run artifacts must be byte-identical
        # across repeated invocations with the same flags.
        doc = {k: v for k, v in self.__dict__.items()
               if k not in ("model", "wall_time")}
        doc["format_version"] = 1
        return doc


def dataset_loss(model, ds, loss_cfg, chunk=2048):
    """Composite loss of the model over a whole dataset, eval mode, exact.

    Chunked row-wise; both loss terms are means over rows, so the weighted
    combination equals the single-pass value.  Uses the value-only path of
    the loss, which builds no gradient arrays.
    """
    model.set_mode("eval")
    total = 0.0
    for start in range(0, ds.n, chunk):
        xb = ds.inputs[start:start + chunk]
        yb = ds.targets[start:start + chunk]
        pred, _ = model.forward(xb)
        total += composite_value(pred, yb, loss_cfg,
                                 n_channels=ds.d_out) * xb.shape[0]
    return total / ds.n


def fit(model, train, val, cfg, checkpoint_dir=None, run_name="run"):
    """Train ``model`` on ``train``, selecting by ``val`` composite loss.

    Validation selection uses the training objective itself: the composite
    loss with the configured lambda, which reduces to plain MSE when
    lambda = 0, so baseline runs are selected by MSE and whitened runs by
    their own criterion.
    """
    if train.inputs.shape[1] != val.inputs.shape[1] or \
            train.targets.shape[1] != val.targets.shape[1]:
        raise ShapeError("train and val datasets disagree on widths")
    head_width = model.head.spec.out_dim
    if head_width != train.targets.shape[1]:
        raise ShapeError(
            f"model head width {head_width} != target width "
            f"{train.targets.shape[1]}")
    loss_cfg = cfg.loss_config()
    shuffle_rng = RngState(cfg.seed).child(_STREAM_SHUFFLE)
    dropout_rng = RngState(cfg.seed).child(_STREAM_DROPOUT)
    adam = AdamState(model.params)
    lr = cfg.lr0
    n = train.n
    batch = min(cfg.batch, n)
    n_batches = n // batch   # tail smaller than batch is dropped

    record = RunRecord(config={"train": asdict(cfg), "run_name": run_name})
    best_params = [p.value.copy() for p in model.params]
    best_val = float("inf")        # exact running min, owns the checkpoint
    patience_ref = float("inf")    # improvements smaller than the threshold
    best_epoch = -1                # do not reset the patience counters
    since_improve_stop = 0
    since_improve_lr = 0
    started = time.perf_counter()

    for epoch in range(cfg.max_epochs):
        perm = shuffle_rng.permutation(n)
        model.set_mode("train")
        epoch_loss = 0.0
        for b in range(n_batches):
            idx = perm[b * batch:(b + 1) * batch]
            xb = train.inputs[idx]
            yb = train.targets[idx]
            pred, cache = model.forward(xb, rng=dropout_rng)
            # a diverging fit overflows here; the non-finite loss is
            # reported below as DivergenceError, not as RuntimeWarnings
            with np.errstate(over="ignore", invalid="ignore"):
                loss, dloss = composite_loss(pred, yb, loss_cfg,
                                             n_channels=train.d_out)
            if not np.isfinite(loss):
                raise DivergenceError(epoch, "composite")
            model.zero_grads()
            model.backward(cache, dloss)
            adam_step(model.params, adam, lr, l2=cfg.l2,
                      grad_clip=cfg.grad_clip)
            epoch_loss += loss
        record.train_losses.append(epoch_loss / n_batches)
        with np.errstate(over="ignore", invalid="ignore"):
            val_loss = dataset_loss(model, val, loss_cfg)
        if not np.isfinite(val_loss):
            raise DivergenceError(epoch, "validation composite")
        record.val_losses.append(val_loss)
        record.lr_trace.append(lr)
        record.epochs_run = epoch + 1

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            for buf, p in zip(best_params, model.params):
                buf[...] = p.value
        if val_loss < patience_ref - PLATEAU_THRESHOLD:
            patience_ref = val_loss
            since_improve_stop = 0
            since_improve_lr = 0
        else:
            since_improve_stop += 1
            since_improve_lr += 1
        if since_improve_stop >= cfg.early_stop_patience:
            break
        if since_improve_lr >= cfg.plateau_patience:
            lr *= cfg.lr_factor
            since_improve_lr = 0

    for p, buf in zip(model.params, best_params):
        p.value[...] = buf
    model.set_mode("eval")
    record.best_epoch = best_epoch
    record.best_val_loss = best_val
    record.wall_time = time.perf_counter() - started
    record.model = model
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        path = os.path.join(checkpoint_dir, f"{run_name}.json")
        save_checkpoint(model, path, seed=cfg.seed, epoch=best_epoch,
                        best_val_loss=best_val)
        record.checkpoint_path = path
    return record


# ---------------------------------------------------------------------------
# Data preparation and the seed matrix.

def prepare_data(system, lb=10, lf=10, data_seed=0, regimes=None,
                 val_fraction=1.0 / 6.0, params=None):
    """Interpolation train/val plus extrapolation set, normalized, manifests.

    Returns a dict with keys train, val, extrap, stats, manifests.  The split
    and normalization depend only on ``data_seed``, so every run in a matrix
    sees the same data.
    """
    if regimes is None:
        interp_spec, extrap_spec = desk_regimes(system, data_seed)
    else:
        interp_spec, extrap_spec = regimes
    interp = build_regime(system, interp_spec, lb=lb, lf=lf, params=params)
    extrap = build_regime(system, extrap_spec, lb=lb, lf=lf, params=params)
    train, val = split(interp, (1.0 - val_fraction, val_fraction),
                       RngState(data_seed).child(_STREAM_SPLIT))
    (train, val, extrap), stats = normalize_fit_apply(train, val, extrap)
    manifests = {name: dataset_manifest(ds, stats)
                 for name, ds in (("train", train), ("val", val),
                                  ("extrap", extrap))}
    return {"train": train, "val": val, "extrap": extrap, "stats": stats,
            "manifests": manifests}


def run_name_for(system, arch, lam, seed):
    lam_tag = f"{lam:g}".replace(".", "p")
    return f"{system}_{arch}_lam{lam_tag}_seed{seed}"


def _one_run(system, arch, lam, seed, data, cfg_base, lb, lf, out_dir,
             data_seed=0):
    cfg = replace(cfg_base, lam=lam, seed=seed)
    name = run_name_for(system, arch, lam, seed)
    run_dir = None
    if out_dir is not None:
        run_dir = os.path.join(out_dir, name)
        os.makedirs(run_dir, exist_ok=True)
    try:
        train = data["train"]
        specs, seq_shape = build_specs(arch, lb, train.d_in, lf, train.d_out,
                                       dropout=cfg.dropout)
        model = init_model(specs, RngState(seed).child(_STREAM_MODEL_INIT),
                           seq_shape=seq_shape)
        record = fit(model, train, data["val"], cfg,
                     checkpoint_dir=run_dir, run_name="checkpoint")
        record.config["run_name"] = name
    except DivergenceError as exc:
        record = RunRecord(config={"train": asdict(cfg), "run_name": name},
                           error=str(exc))
    except Exception as exc:   # a failed run is a record, not a crash
        record = RunRecord(config={"train": asdict(cfg), "run_name": name},
                           error=f"{type(exc).__name__}: {exc}")
    record.config.update({"system": system, "arch": arch, "lam": lam,
                          "seed": seed, "lb": lb, "lf": lf,
                          "data_seed": data_seed})
    if run_dir is not None:
        save_run(record, run_dir, data["manifests"])
    return record


def run_matrix(systems, archs, lams, seeds, cfg_base=None, lb=10, lf=10,
               data_seed=0, regimes_by_system=None, out_dir=None, jobs=1):
    """Cross-product of systems x architectures x lambdas x seeds.

    Datasets are built once per system and shared read-only across runs.
    Failures (divergence included) become error records; the matrix finishes.
    Results come back in job order, so equal inputs give equal outputs, and
    with ``out_dir`` set every run leaves a manifest + checkpoint directory.
    """
    cfg_base = TrainConfig() if cfg_base is None else cfg_base
    data_by_system = {}
    for system in systems:
        regimes = None
        if regimes_by_system is not None:
            regimes = regimes_by_system.get(system)
        data_by_system[system] = prepare_data(system, lb=lb, lf=lf,
                                              data_seed=data_seed,
                                              regimes=regimes)
    job_args = [(system, arch, lam, seed, data_by_system[system],
                 cfg_base, lb, lf, out_dir, data_seed)
                for system in systems
                for arch in archs
                for lam in lams
                for seed in seeds]
    if jobs <= 1:
        return [_one_run(*args) for args in job_args]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_one_run, *args) for args in job_args]
        return [f.result() for f in futures]


def save_run(record, run_dir, dataset_manifests=None):
    """Persist a run's record (and dataset manifests) as JSON + CSV trace."""
    os.makedirs(run_dir, exist_ok=True)
    doc = record.to_dict()
    if doc.get("checkpoint_path"):
        # relative to the run dir, so artifacts are path-independent
        doc["checkpoint_path"] = os.path.basename(doc["checkpoint_path"])
    if dataset_manifests is not None:
        doc["datasets"] = dataset_manifests
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(run_dir, "losses.csv"), "w") as fh:
        fh.write("epoch,train_loss,val_loss,lr\n")
        for e, (tr, vl, lr) in enumerate(zip(record.train_losses,
                                             record.val_losses,
                                             record.lr_trace)):
            fh.write(f"{e},{tr:.17g},{vl:.17g},{lr:.17g}\n")


def load_run(run_dir):
    with open(os.path.join(run_dir, "record.json")) as fh:
        return json.load(fh)
