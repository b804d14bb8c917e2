"""Mini-batch training: Adam, plateau LR halving, early stopping, best-val
checkpointing, and the multi-seed run matrix.

The loop is deliberately plain.  Every source of randomness is a child stream
of the run seed (model init, epoch shuffles, dropout masks), so a run repeated
with identical flags is bit-identical end to end: same parameter trajectory,
same traces, same checkpoint bytes.

The run matrix trains the seeds of each (system, arch, lambda) group
together, up to ``jobs`` at a time, as one stacked model: the members'
parameters sit on a leading axis, and every layer, the loss and Adam run all
members in one call each.  At desk scale each numpy call is small, so its
Python overhead is what a fit spends most of its time on, and a stack of S
members pays it once instead of S times.  Each member keeps its own streams,
schedule and stopping point, and its slice of every operation goes through
the same floating-point operations as a fit of that seed alone.  So a run's
record and checkpoint do not depend on ``jobs``.
"""

import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .datasets import (
    DESK_WINDOW,
    build_regime,
    dataset_manifest,
    desk_regimes,
    normalize_apply,
    normalize_fit_apply,
    open_atomic,
    read_json,
    split,
    write_json,
)
from .errors import ConfigError, DivergenceError, ShapeError
from .losses import LossConfig, composite_loss, composite_value
from .nn import Model, build_specs, save_checkpoint, stack_models
from .numerics import RngState

# child-stream tags, so the independent consumers never share a stream
_STREAM_MODEL_INIT = 303
_STREAM_SHUFFLE = 101
_STREAM_DROPOUT = 202
_STREAM_SPLIT = 404

PLATEAU_THRESHOLD = 1e-6   # absolute val-loss improvement that counts
CHECKPOINT_FILE = "checkpoint.json"   # a checkpoint's name in its directory
_VAL_FRACTION = 1.0 / 6.0   # of the interpolation windows (1000 of 6000)


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
        if self.lags < 1:
            raise ConfigError(f"lags must be >= 1, got {self.lags}")
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

    Parameters of a stacked model carry one member per index of their
    leading axis.  Each member then has its own clip norm, and ``lr`` may be
    an array with one rate per member.
    """
    if grad_clip > 0.0:
        total = 0.0
        for p in params:
            total += (p.grad * p.grad).sum(axis=(-2, -1))
        total = np.sqrt(total)
        if (total > grad_clip).any():
            # grad_clip / total where total > grad_clip, else exactly 1
            scale = (grad_clip / np.fmax(total, grad_clip))[..., None, None]
            for p in params:
                p.grad *= scale
    adam.step += 1
    t = adam.step
    bc1 = 1.0 - AdamState.beta1 ** t
    bc2 = 1.0 - AdamState.beta2 ** t
    lr = np.asarray(lr)[..., None, None]
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
    best_val_loss: float = None   # None until a validation epoch finishes
    epochs_run: int = 0
    checkpoint_path: str = None
    error: str = None
    model: object = None    # in-memory handle, never serialized

    @property
    def ok(self):
        return self.error is None

    def to_dict(self):
        doc = {k: v for k, v in self.__dict__.items() if k != "model"}
        doc["format_version"] = 1
        return doc


def dataset_loss(model, ds, loss_cfg, chunk=2048):
    """Composite loss of the model over a whole dataset, eval mode, exact.

    Chunked row-wise; both loss terms are means over rows, so the weighted
    combination equals the single-pass value.  The chunks fix the loss's
    bits; the forward inside a chunk runs in :meth:`Model.predict`'s smaller
    row blocks, which give the same bits.  Forward only: ``predict`` builds
    no backward cache, and the value-only path of the loss builds no
    gradient arrays.  A stacked model runs every chunk through all its
    members and gives one loss per member.
    """
    total = 0.0
    for start in range(0, ds.n, chunk):
        xb, yb = ds.batch(slice(start, start + chunk))
        pred = model.predict(xb)
        total += composite_value(pred, yb, loss_cfg,
                                 n_channels=ds.d_out) * xb.shape[0]
    return total / ds.n


class _Member:
    """One fit's own state in a stack: its streams, its learning-rate and
    patience schedule, and its best weights."""

    def __init__(self, model, cfg, checkpoint_dir):
        self.model = model
        self.cfg = cfg
        self.checkpoint_dir = checkpoint_dir
        self.shuffle_rng = RngState(cfg.seed).child(_STREAM_SHUFFLE)
        self.dropout_rng = RngState(cfg.seed).child(_STREAM_DROPOUT)
        self.lr = cfg.lr0
        self.record = RunRecord(config={"train": asdict(cfg)})
        self.best_params = [p.value.copy() for p in model.params]
        self.best_val = float("inf")      # exact running min, owns checkpoint
        self.patience_ref = float("inf")  # improvements below the threshold
        self.best_epoch = -1              # do not reset the patience counters
        self.since_improve_stop = 0
        self.since_improve_lr = 0
        self.result = None   # the finished RunRecord, or the error ending it

    def end_epoch(self, epoch, train_loss, val_loss, values):
        """Book one epoch, given the member's current weights ``values``.

        Returns True when the member stops here; ``result`` is then set.
        """
        cfg = self.cfg
        record = self.record
        record.train_losses.append(train_loss)
        if not np.isfinite(val_loss):
            self.result = DivergenceError(epoch, "validation composite")
            return True
        record.val_losses.append(val_loss)
        record.lr_trace.append(self.lr)
        record.epochs_run = epoch + 1
        if val_loss < self.best_val:
            self.best_val = val_loss
            self.best_epoch = epoch
            for buf, value in zip(self.best_params, values):
                buf[...] = value
        if val_loss < self.patience_ref - PLATEAU_THRESHOLD:
            self.patience_ref = val_loss
            self.since_improve_stop = 0
            self.since_improve_lr = 0
        else:
            self.since_improve_stop += 1
            self.since_improve_lr += 1
        if self.since_improve_stop >= cfg.early_stop_patience:
            self.finish()
            return True
        if self.since_improve_lr >= cfg.plateau_patience:
            self.lr *= cfg.lr_factor
            self.since_improve_lr = 0
        return False

    def finish(self):
        """Put the best weights back into the member's model; checkpoint it."""
        model = self.model
        record = self.record
        for p, buf in zip(model.params, self.best_params):
            p.value[...] = buf
        model.set_mode("eval")
        record.best_epoch = self.best_epoch
        record.best_val_loss = self.best_val
        record.model = model
        if self.checkpoint_dir is not None:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
            path = os.path.join(self.checkpoint_dir, CHECKPOINT_FILE)
            save_checkpoint(model, path, seed=self.cfg.seed,
                            epoch=self.best_epoch, best_val_loss=self.best_val)
            record.checkpoint_path = path
        self.result = record


def _keep_members(model, adam, keep):
    """Shrink a stacked model and its Adam moments to the members ``keep``."""
    for i, p in enumerate(model.params):
        p.value, p.grad = p.value[keep], p.grad[keep]
        adam.m[i], adam.v[i] = adam.m[i][keep], adam.v[i][keep]


def fit(model, train, val, cfg, checkpoint_dir=None):
    """Train ``model`` on ``train``, selecting by ``val`` composite loss.

    Validation selection uses the training objective itself: the composite
    loss with the configured lambda, which reduces to plain MSE when
    lambda = 0, so baseline runs are selected by MSE and whitened runs by
    their own criterion.
    """
    (result,) = fit_stack([model], train, val, [cfg], [checkpoint_dir])
    if isinstance(result, Exception):
        raise result
    return result


def fit_stack(models, train, val, cfgs, checkpoint_dirs=None):
    """Train models of one architecture together, as one stacked model.

    ``cfgs`` holds one config per model and they may differ only in their
    seeds.  Each member keeps its own shuffle and dropout streams, clip
    norm, learning rate, plateau and early-stop counters and best weights,
    so its record and checkpoint are bit for bit those of :func:`fit` on
    that model alone.  Every member takes the same number of Adam steps, so
    the bias corrections are shared.  A member that stops early or diverges
    leaves the stack, and the others train on.

    Returns one entry per model: its RunRecord, or the DivergenceError that
    ended it.  One model trains as it is, with its 2-D parameters.
    """
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ConfigError("the fits of a stack may differ only in their seeds")
    out_width = train.lf * train.d_out
    if (train.lb * train.d_in, out_width) != (val.lb * val.d_in,
                                              val.lf * val.d_out):
        raise ShapeError("train and val datasets disagree on widths")
    for model in models:
        head_width = model.head.spec.out_dim
        if head_width != out_width:
            raise ShapeError(
                f"model head width {head_width} != target width {out_width}")
    loss_cfg = cfg.loss_config()
    n = train.n
    batch = min(cfg.batch, n)
    n_batches = n // batch   # tail smaller than batch is dropped
    active = [_Member(model, c, checkpoint_dir)
              for model, c, checkpoint_dir in zip(
                  models, cfgs, checkpoint_dirs or [None] * len(models))]
    members = list(active)
    stacked = len(models) > 1
    net = stack_models(models) if stacked else models[0]
    adam = AdamState(net.params)

    def per_member(values):
        # a stacked model takes one entry per member, a single model its own
        return values if stacked else values[0]

    def step(cache, dloss):
        net.zero_grads()
        net.backward(cache, dloss)
        adam_step(net.params, adam, per_member([m.lr for m in active]),
                  l2=cfg.l2, grad_clip=cfg.grad_clip)

    for epoch in range(cfg.max_epochs):
        perms = [m.shuffle_rng.permutation(n) for m in active]
        net.set_mode("train")
        epoch_loss = np.zeros(len(active))
        for b in range(n_batches):
            rows = per_member([p[b * batch:(b + 1) * batch] for p in perms])
            rngs = per_member([m.dropout_rng for m in active])
            xb, yb = train.batch(rows)
            pred, cache = net.forward(xb, rng=rngs)
            # a diverging fit overflows here; the non-finite loss is
            # reported below as DivergenceError, not as RuntimeWarnings
            with np.errstate(over="ignore", invalid="ignore"):
                loss, dloss = composite_loss(pred, yb, loss_cfg,
                                             n_channels=train.d_out)
            ok = np.isfinite(loss)
            if ok.all():
                step(cache, dloss)
                epoch_loss += loss
                continue
            ok = np.atleast_1d(ok)
            for i in np.flatnonzero(~ok):
                active[i].result = DivergenceError(epoch, "composite")
            keep = np.flatnonzero(ok)
            if not keep.size:
                active = []
                break
            # the diverged members take this step with the others, quietly,
            # and then leave the stack
            with np.errstate(all="ignore"):
                step(cache, dloss)
            active = [active[i] for i in keep]
            perms = [perms[i] for i in keep]
            epoch_loss = (epoch_loss + loss)[keep]
            _keep_members(net, adam, keep)
        if not active:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            val_loss = np.atleast_1d(dataset_loss(net, val, loss_cfg))
        keep = [i for i, m in enumerate(active) if not m.end_epoch(
            epoch, float(epoch_loss[i] / n_batches), float(val_loss[i]),
            [p.value[i] if stacked else p.value for p in net.params])]
        if len(keep) < len(active):
            active = [active[i] for i in keep]
            if not active:
                break
            _keep_members(net, adam, keep)

    for member in active:
        member.finish()
    return [m.result for m in members]


# ---------------------------------------------------------------------------
# Data preparation and the seed matrix.

def prepare_data(system, lb=DESK_WINDOW, lf=DESK_WINDOW, data_seed=0,
                 regimes=None):
    """Interpolation train/val plus extrapolation set, normalized, manifests.

    Returns a dict with keys train, val, extrap, stats, manifests.  The split
    and normalization depend only on ``data_seed``, so every run in a matrix
    sees the same data.

    No window is copied.  Train and val are row indices over the
    interpolation regime's series, and extrap over its own series, so the
    three hold about a tenth of the bytes of their windows as matrices.
    The stats are fit on the train inputs, gathered once; the shared series
    is normalized in place, and only then is the extrapolation regime built
    and normalized in place with the same stats.  That gather is the peak.
    """
    if regimes is None:
        interp_spec, extrap_spec = desk_regimes(system, data_seed)
    else:
        interp_spec, extrap_spec = regimes
    train, val = split(build_regime(system, interp_spec, lb=lb, lf=lf),
                       (1.0 - _VAL_FRACTION, _VAL_FRACTION),
                       RngState(data_seed).child(_STREAM_SPLIT))
    (train, val), stats = normalize_fit_apply(train, val)
    extrap = build_regime(system, extrap_spec, lb=lb, lf=lf)
    normalize_apply(stats, extrap)
    manifests = {name: dataset_manifest(ds, stats)
                 for name, ds in (("train", train), ("val", val),
                                  ("extrap", extrap))}
    return {"train": train, "val": val, "extrap": extrap, "stats": stats,
            "manifests": manifests}


def lam_tag(lam):
    """Lambda as it appears in file and run names: 0.02 -> 0p02."""
    return f"{lam:g}".replace(".", "p")


def run_name_for(system, arch, lam, seed):
    return f"{system}_{arch}_lam{lam_tag(lam)}_seed{seed}"


def _run_group(system, arch, lam, seeds, data, cfg_base, lb, lf, out_dir,
               data_seed):
    """Fit the given seeds of one (system, arch, lambda) cell as one stack."""
    cfgs = [replace(cfg_base, lam=lam, seed=seed) for seed in seeds]
    names = [run_name_for(system, arch, lam, seed) for seed in seeds]
    run_dirs = [None] * len(seeds)
    if out_dir is not None:
        run_dirs = [os.path.join(out_dir, name) for name in names]
        for run_dir in run_dirs:
            os.makedirs(run_dir, exist_ok=True)
    train = data["train"]
    try:
        specs, seq_shape = build_specs(arch, lb, train.d_in, lf, train.d_out,
                                       dropout=cfg_base.dropout)
        models = [Model(specs, RngState(seed).child(_STREAM_MODEL_INIT),
                        seq_shape=seq_shape) for seed in seeds]
        if len(models) == 1:
            # one seed trains through fit: perfbench's tracer times fits
            # by that name
            try:
                results = [fit(models[0], train, data["val"], cfgs[0],
                               checkpoint_dir=run_dirs[0])]
            except DivergenceError as exc:
                results = [exc]
        else:
            results = fit_stack(models, train, data["val"], cfgs,
                                checkpoint_dirs=run_dirs)
    except Exception as exc:   # a failed run is a record, not a crash
        results = [exc] * len(seeds)
    records = []
    for cfg, name, run_dir, result in zip(cfgs, names, run_dirs, results):
        if isinstance(result, DivergenceError):
            record = RunRecord(config={"train": asdict(cfg)}, error=str(result))
        elif isinstance(result, Exception):
            record = RunRecord(config={"train": asdict(cfg)},
                               error=f"{type(result).__name__}: {result}")
        else:
            record = result
        record.config.update({"run_name": name, "system": system, "arch": arch,
                              "lam": lam, "seed": cfg.seed, "lb": lb, "lf": lf,
                              "data_seed": data_seed})
        if run_dir is not None:
            save_run(record, run_dir, data["manifests"])
        records.append(record)
    return records


def run_matrix(systems, archs, lams, seeds, cfg_base=None, lb=DESK_WINDOW,
               lf=DESK_WINDOW, data_seed=0, regimes_by_system=None,
               out_dir=None, jobs=1):
    """Cross-product of systems x architectures x lambdas x seeds.

    Datasets are built once per system and shared read-only across runs.
    Only the train and val sets and the manifests are kept: the
    extrapolation set is dropped before the first fit, since training never
    reads it.  The sets are windows of the regime's series, and each batch
    and validation chunk gathers its windows afresh.  The seeds of each
    (system, arch, lambda) cell train ``jobs`` at a time as one stacked
    model (see :func:`fit_stack`); ``jobs=1`` fits them one by one.  Each
    run's record and checkpoint are the same bits either way.  A stack
    holds ``jobs`` copies of every activation, so memory grows with
    ``jobs``; validation runs forward only, in 256-row blocks, and adds
    their activations but no backward cache.  Failures (divergence
    included) become error records; the matrix finishes.
    Results come back in job order, so equal inputs give equal outputs, and
    with ``out_dir`` set every run leaves a manifest + checkpoint directory.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    cfg_base = TrainConfig() if cfg_base is None else cfg_base
    data_by_system = {}
    for system in systems:
        regimes = None
        if regimes_by_system is not None:
            regimes = regimes_by_system.get(system)
        data = prepare_data(system, lb=lb, lf=lf, data_seed=data_seed,
                            regimes=regimes)
        # training never reads the extrapolation set; its manifest stays
        del data["extrap"]
        data_by_system[system] = data
    records = []
    for system in systems:
        for arch in archs:
            for lam in lams:
                for start in range(0, len(seeds), jobs):
                    records += _run_group(
                        system, arch, lam, seeds[start:start + jobs],
                        data_by_system[system], cfg_base, lb, lf, out_dir,
                        data_seed)
    return records


def save_run(record, run_dir, dataset_manifests):
    """Persist a run's record and dataset manifests as JSON + CSV trace."""
    os.makedirs(run_dir, exist_ok=True)
    doc = record.to_dict()
    if doc.get("checkpoint_path"):
        # relative to the run dir, so artifacts are path-independent
        doc["checkpoint_path"] = os.path.basename(doc["checkpoint_path"])
    doc["datasets"] = dataset_manifests
    write_json(doc, os.path.join(run_dir, "record.json"))
    with open_atomic(os.path.join(run_dir, "losses.csv")) as fh:
        fh.write("epoch,train_loss,val_loss,lr\n")
        for e, (tr, vl, lr) in enumerate(zip(record.train_losses,
                                             record.val_losses,
                                             record.lr_trace)):
            fh.write(f"{e},{tr:.17g},{vl:.17g},{lr:.17g}\n")


def load_run(run_dir):
    return read_json(os.path.join(run_dir, "record.json"))
