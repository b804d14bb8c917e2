import json
import os
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from whitenet import training
from whitenet.datasets import (
    TARGET_CONVENTION,
    NormalizationStats,
    RegimeSpec,
    WindowedDataset,
    build_regime,
    dataset_manifest,
    desk_regimes,
    normalize_apply,
    regime_trajectories,
    split,
)
from whitenet.errors import ConfigError, DivergenceError, ShapeError
from whitenet.nn import DenseSpec, Model, Parameter
from whitenet.numerics import RngState
from whitenet.training import (
    _STREAM_SPLIT,
    AdamState,
    RunRecord,
    TrainConfig,
    adam_step,
    dataset_loss,
    fit,
    fit_stack,
    load_run,
    prepare_data,
    run_matrix,
    run_name_for,
    save_run,
)


def _linear_data(n=400, d_in=6, d_out=3, seed=0):
    rng = RngState(seed)
    x = rng.normal(size=(n, d_in))
    w = rng.normal(size=(d_in, d_out))
    y = x @ w
    names_in = tuple(f"i{j}" for j in range(d_in // 3))
    names_out = tuple(f"o{j}" for j in range(d_out))
    cut = int(0.8 * n)
    train = WindowedDataset(x[:cut], y[:cut], 3, 1, names_in, names_out)
    val = WindowedDataset(x[cut:], y[cut:], 3, 1, names_in, names_out)
    return train, val


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(early_stop_patience=5, plateau_patience=10)
    with pytest.raises(ConfigError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_factor=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lam=-1.0)
    for lags in (0, -2):
        with pytest.raises(ConfigError, match="lags must be >= 1"):
            TrainConfig(lags=lags)
    cfg = TrainConfig()
    assert cfg.loss_config().lam == cfg.lam


def test_adam_hand_value():
    p = Parameter("x.W", np.array([[0.0]]), np.array([[1.0]]))
    adam_step([p], AdamState([p]), 0.001)
    assert abs(p.value[0, 0] + 0.001) < 1e-9


def test_adam_zero_grad_is_noop():
    p = Parameter("x.W", np.array([[1.5]]), np.array([[0.0]]))
    adam_step([p], AdamState([p]), 0.01)
    assert p.value[0, 0] == 1.5


def test_adam_deterministic():
    def run():
        p = Parameter("x.W", np.zeros((2, 2)), np.zeros((2, 2)))
        st = AdamState([p])
        vals = []
        for i in range(5):
            p.grad[...] = (i + 1) * 0.1
            adam_step([p], st, 0.01)
            vals.append(p.value.copy())
        return vals
    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_adam_l2_shrinks_weights_not_biases():
    w = Parameter("l.W", np.array([[2.0]]), np.zeros((1, 1)))
    b = Parameter("l.b", np.array([[2.0]]), np.zeros((1, 1)))
    st = AdamState([w, b])
    prev = abs(w.value[0, 0])
    for _ in range(10):
        w.grad[...] = 0.0
        b.grad[...] = 0.0
        adam_step([w, b], st, 0.01, l2=0.001)
        cur = abs(w.value[0, 0])
        assert cur < prev   # strict decrease under pure decay
        prev = cur
    assert b.value[0, 0] == 2.0


def test_adam_global_norm_clip():
    a = Parameter("a.W", np.zeros((1, 1)), np.array([[8.0]]))
    c = Parameter("c.W", np.zeros((1, 1)), np.array([[6.0]]))
    adam_step([a, c], AdamState([a, c]), 0.0, grad_clip=5.0)
    assert abs(a.grad[0, 0] - 4.0) < 1e-12
    assert abs(c.grad[0, 0] - 3.0) < 1e-12


def test_fit_linear_convergence_oracle():
    train, val = _linear_data()
    model = Model([DenseSpec(6, 3, "linear")], RngState(1))
    cfg = TrainConfig(lam=0.0, l2=0.0, dropout=0.0, max_epochs=200,
                      batch=64, seed=3)
    rec = fit(model, train, val, cfg)
    assert rec.best_val_loss < 1e-6
    assert rec.best_epoch >= 0
    assert rec.ok


def test_fit_lr_schedule_contract():
    train, val = _linear_data()
    model = Model([DenseSpec(6, 3, "linear")], RngState(1))
    cfg = TrainConfig(lam=0.0, l2=0.0, dropout=0.0, max_epochs=200,
                      batch=64, seed=3)
    rec = fit(model, train, val, cfg)
    trace = rec.lr_trace
    assert trace[0] == cfg.lr0
    assert all(a >= b for a, b in zip(trace, trace[1:]))
    for a, b in zip(trace, trace[1:]):
        assert b == a or b == a * cfg.lr_factor


def test_fit_early_stopping_patience():
    train, val = _linear_data()
    model = Model([DenseSpec(6, 3, "linear")], RngState(1))
    cfg = TrainConfig(lam=0.0, l2=0.0, dropout=0.0, max_epochs=200,
                      batch=64, seed=3)
    rec = fit(model, train, val, cfg)
    # converged problem: the run stops well before the epoch budget
    assert rec.epochs_run < cfg.max_epochs
    assert rec.epochs_run >= rec.best_epoch + 1
    # best val is the exact min of the trace
    assert rec.best_val_loss == min(rec.val_losses)
    assert rec.val_losses[rec.best_epoch] == rec.best_val_loss


def test_fit_is_bit_reproducible():
    train, val = _linear_data()
    outs = []
    for _ in range(2):
        model = Model([DenseSpec(6, 3, "linear"), ], RngState(7))
        rec = fit(model, train, val,
                  TrainConfig(lam=0.0, max_epochs=15, seed=5, dropout=0.0))
        outs.append((rec, [p.value.copy() for p in model.params]))
    (r1, p1), (r2, p2) = outs
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_fit_restores_best_parameters():
    train, val = _linear_data()
    model = Model([DenseSpec(6, 3, "linear")], RngState(2))
    cfg = TrainConfig(lam=0.0, l2=0.0, dropout=0.0, max_epochs=60,
                      batch=64, seed=4)
    rec = fit(model, train, val, cfg)
    restored = dataset_loss(model, val, cfg.loss_config())
    assert abs(restored - rec.best_val_loss) < 1e-12


def test_fit_width_mismatch_raises():
    train, val = _linear_data()
    model = Model([DenseSpec(6, 5, "linear")], RngState(1))  # wrong head width
    with pytest.raises(ShapeError):
        fit(model, train, val, TrainConfig(dropout=0.0))


@pytest.mark.filterwarnings("ignore:overflow")
def test_fit_divergence_error_names_epoch():
    train, val = _linear_data()
    model = Model([DenseSpec(6, 3, "linear")], RngState(1))
    cfg = TrainConfig(lam=0.0, lr0=1e200, l2=0.0, dropout=0.0,
                      max_epochs=50, batch=64, seed=3, grad_clip=1e30)
    with pytest.raises(DivergenceError) as exc:
        fit(model, train, val, cfg)
    assert exc.value.epoch >= 0


def test_fit_checkpoint_written(tmp_path):
    train, val = _linear_data()
    model = Model([DenseSpec(6, 3, "linear")], RngState(1))
    rec = fit(model, train, val,
              TrainConfig(lam=0.0, max_epochs=5, seed=1, dropout=0.0),
              checkpoint_dir=str(tmp_path))
    assert rec.checkpoint_path == str(tmp_path / "checkpoint.json")
    from whitenet.nn import load_checkpoint
    loaded, doc = load_checkpoint(rec.checkpoint_path)
    assert doc["best_val_loss"] == rec.best_val_loss
    for a, b in zip(model.params, loaded.params):
        assert np.array_equal(a.value, b.value)


TINY_REGIMES = (RegimeSpec(amplitude=0.5, hold=5, n_traj=2, steps=40,
                           noise_sigma=0.01, seed=0),
                RegimeSpec(amplitude=2.0, hold=5, n_traj=2, steps=40,
                           noise_sigma=0.01, seed=11))


def test_prepare_data_shapes_and_determinism():
    a = prepare_data("pendulum", data_seed=1, regimes=TINY_REGIMES)
    b = prepare_data("pendulum", data_seed=1, regimes=TINY_REGIMES)
    total = 2 * (40 - 19)
    assert a["train"].n + a["val"].n == total
    assert a["extrap"].n == total
    assert np.array_equal(a["train"].inputs, b["train"].inputs)
    assert np.array_equal(a["extrap"].targets, b["extrap"].targets)
    assert a["manifests"]["train"]["normalization"]["mean"] == \
        a["stats"].mean.tolist()


def _tiny_cfg(**kw):
    base = dict(max_epochs=2, batch=16, dropout=0.0, l2=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_run_matrix_counts_and_determinism(tmp_path):
    args = dict(systems=["pendulum"], archs=["dense", "rnn"],
                lams=[0.0, 1.0], seeds=[1, 2], cfg_base=_tiny_cfg(),
                lb=10, lf=10, data_seed=0,
                regimes_by_system={"pendulum": TINY_REGIMES})
    records = run_matrix(**args)
    assert len(records) == 8
    assert all(rec.ok for rec in records)
    again = run_matrix(**args)
    for a, b in zip(records, again):
        assert a.val_losses == b.val_losses
        assert a.config["arch"] == b.config["arch"]


@pytest.mark.filterwarnings("ignore:overflow")
def test_run_matrix_records_failures_and_continues():
    for jobs in (1, 2):
        records = run_matrix(
            systems=["pendulum"], archs=["dense"], lams=[0.0], seeds=[1, 2],
            cfg_base=_tiny_cfg(lr0=1e200, grad_clip=1e30), lb=10, lf=10,
            regimes_by_system={"pendulum": TINY_REGIMES}, jobs=jobs)
        assert len(records) == 2
        assert all(not rec.ok for rec in records)
        assert all("diverged" in rec.error for rec in records)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_run_matrix_parallel_matches_serial(tmp_path):
    # Each seed of a stack gets the bits of its serial fit.  With these
    # patiences the seeds stop at different epochs, so members leave the
    # stack mid-run, and 3 seeds at jobs=2 end with a stack of one.
    cfg = _tiny_cfg(max_epochs=30, dropout=0.1, plateau_patience=2,
                    early_stop_patience=3)
    for arch in ("dense", "rnn", "lstm"):
        runs = {}
        for jobs in (1, 3, 2):
            out = tmp_path / f"{arch}_jobs{jobs}"
            runs[jobs] = out, run_matrix(
                systems=["pendulum"], archs=[arch], lams=[0.0, 1.0],
                seeds=[1, 2, 3], cfg_base=cfg, lb=10, lf=10,
                regimes_by_system={"pendulum": TINY_REGIMES},
                out_dir=str(out), jobs=jobs)
        out1, serial = runs[1]
        assert all(rec.ok for rec in serial)
        stops = [{rec.epochs_run for rec in serial[i:i + 3]} for i in (0, 3)]
        assert any(len(group) > 1 for group in stops), (arch, stops)
        for jobs in (3, 2):
            out, stacked = runs[jobs]
            assert _files(out) == _files(out1)
            for a, b in zip(serial, stacked):
                da, db = a.to_dict(), b.to_dict()
                assert os.path.dirname(da.pop("checkpoint_path")) == str(
                    out1 / a.config["run_name"])
                db.pop("checkpoint_path")
                assert da == db
                for p, q in zip(a.model.params, b.model.params):
                    assert _same_bits(p.value, q.value)


def _stack_data():
    train, val = _linear_data()
    return train, val, TrainConfig(lam=0.0, l2=0.001, dropout=0.0,
                                   max_epochs=40, batch=64, lr0=0.05,
                                   grad_clip=0.5, plateau_patience=3,
                                   early_stop_patience=5)


def test_fit_stack_matches_fits_and_drops_diverged_member():
    train, val, cfg = _stack_data()
    cfgs = [replace(cfg, seed=s) for s in (4, 5, 6)]

    def models():
        out = [Model([DenseSpec(6, 3, "linear")], RngState(s)) for s in (1, 2, 3)]
        out[1].head.w.value *= 1e300   # overflows on its first batch
        return out

    stacked = fit_stack(models(), train, val, cfgs)
    serial = models()
    for model, c, got in zip(serial, cfgs, stacked):
        try:
            want = fit(model, train, val, c)
        except DivergenceError as exc:
            assert isinstance(got, DivergenceError)
            assert str(got) == str(exc)
            continue
        assert want.to_dict() == got.to_dict()
        for p, q in zip(want.model.params, got.model.params):
            assert _same_bits(p.value, q.value)
    assert isinstance(stacked[1], DivergenceError)
    assert stacked[0].epochs_run != stacked[2].epochs_run


def test_fit_stack_configs_may_differ_only_in_seed():
    train, val, cfg = _stack_data()
    models = [Model([DenseSpec(6, 3, "linear")], RngState(s)) for s in (1, 2)]
    with pytest.raises(ConfigError):
        fit_stack(models, train, val, [cfg, replace(cfg, lr0=0.1)])


def test_adam_step_stacked_matches_members():
    rng = RngState(21)
    values = rng.normal(size=(3, 4, 5))
    grads = rng.normal(size=(3, 4, 5)) * np.array([10.0, 0.01, 1.0])[:, None, None]
    bias = rng.normal(size=(3, 1, 5))
    lrs = [0.01, 0.02, 0.005]
    # members 0 and 2 are clipped to norm 1, member 1 is not
    stacked = [Parameter("l.W", values.copy(), grads.copy()),
               Parameter("l.b", bias.copy(), np.full((3, 1, 5), 0.01))]
    adam = AdamState(stacked)
    adam_step(stacked, adam, np.array(lrs), l2=0.001, grad_clip=1.0)
    for s in range(3):
        member = [Parameter("l.W", values[s].copy(), grads[s].copy()),
                  Parameter("l.b", bias[s].copy(), np.full((1, 5), 0.01))]
        adam_step(member, AdamState(member), lrs[s], l2=0.001, grad_clip=1.0)
        for p, q in zip(member, stacked):
            assert _same_bits(p.value, q.value[s])
            assert _same_bits(p.grad, q.grad[s])


@pytest.mark.parametrize("system", ["pendulum", "backlash", "double_pendulum"])
def test_prepare_data_peak_stays_near_what_it_keeps(system):
    # the interp regime once split and copies made to normalize pushed the
    # peak to 2.4x the windows returned.  A first call also allocates what
    # it keeps for later calls, and whether it came first depended on the
    # tests before this one, so a small call is made first.
    prepare_data(system, regimes=TINY_REGIMES)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        data = prepare_data(system)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the bytes of the windows the splits stand for, as (n, width) matrices
    windowed = sum(ds.n * (ds.lb * ds.d_in + ds.lf * ds.d_out) * 8
                   for ds in (data[name] for name in ("train", "val", "extrap")))
    # a regime windowed into one allocation, not its parts and then their
    # copy, brought pendulum from 1.46x to 1.27x; normalizing the splits
    # before the extrap regime is built brought all three systems from
    # 1.25-1.30x to 1.11-1.13x; windows as views of each regime's series,
    # not copies, to 0.54-0.64x, where fit_stats' gathered train inputs and
    # their deviations are the peak
    assert peak <= 0.75 * windowed, (peak, windowed)


def test_prepare_data_splits_are_views_of_one_series():
    data = prepare_data("pendulum", data_seed=1, regimes=TINY_REGIMES)
    train, val, extrap = data["train"], data["val"], data["extrap"]
    # a split that copied its windows would hold storage of its own
    assert np.shares_memory(train.input_storage, val.input_storage)
    assert np.shares_memory(train.target_storage, val.target_storage)
    for ds in (train, val):
        assert not np.shares_memory(ds.input_storage, extrap.input_storage)
        assert not np.shares_memory(ds.target_storage, extrap.target_storage)
    # the series hold each step once, fewer values than the windows
    assert train.input_storage.size < (train.n + val.n) * train.lb * train.d_in


def test_a_stacked_batch_is_the_rows_of_the_plain_windows():
    sets, _, _ = _prepare_data_reference("pendulum", 0)
    train = prepare_data("pendulum")["train"]
    rows = np.stack([RngState(s).permutation(train.n)[:128] for s in (1, 2)])
    inputs, targets = train.batch(rows)
    assert inputs.shape == (2, 128, train.lb * train.d_in)
    assert _same_bits(inputs, sets["train"].inputs[rows])
    assert _same_bits(targets, sets["train"].targets[rows])


def test_storage_that_splits_share_is_normalized_once():
    regime = build_regime("pendulum", TINY_REGIMES[0])
    raw = regime.input_storage.copy()
    train, val = split(regime, (0.5, 0.5), RngState(3))
    stats = NormalizationStats([1.0, -2.0, 0.5, 3.0], [2.0, 4.0, 0.25, 8.0])
    normalize_apply(stats, train, val, train)
    assert _same_bits(train.input_storage, (raw - stats.mean) / stats.std)
    assert val.input_storage is train.input_storage


def test_prepare_data_normalizes_extrap_with_the_train_stats():
    data = prepare_data("pendulum", data_seed=1, regimes=TINY_REGIMES)
    raw = build_regime("pendulum", TINY_REGIMES[1])
    stats = data["stats"]
    want = ((raw.inputs.reshape(-1, raw.d_in) - stats.mean)
            / stats.std).reshape(raw.n, -1)
    assert _same_bits(data["extrap"].inputs, want)
    assert _same_bits(data["extrap"].targets, raw.targets)
    # the stats are the train split's, not the extrap regime's own
    assert not _same_bits(stats.mean, raw.inputs.reshape(
        -1, raw.d_in).mean(axis=0))


def _regime_by_stacking(system, spec, lb, lf):
    """A regime built the plain way: each trajectory cut into its windows,
    then all the parts stacked into a new array."""
    inputs, targets = [], []
    for traj in regime_trajectories(system, spec):
        n = traj.states.shape[0] - lb - lf + 1
        full = np.hstack([traj.states, traj.actions])
        in_idx = np.arange(lb)[None, :] + np.arange(n)[:, None]
        tgt_idx = np.arange(lf)[None, :] + lb + np.arange(n)[:, None]
        inputs.append(full[in_idx].reshape(n, lb * full.shape[1]))
        targets.append(traj.states[tgt_idx].reshape(
            n, lf * traj.states.shape[1]))
    meta = {"dt": traj.dt, "system": system, "regime": asdict(spec),
            "lb": lb, "lf": lf, "target_convention": TARGET_CONVENTION}
    return WindowedDataset(np.vstack(inputs), np.vstack(targets), lb, lf,
                           traj.state_names + traj.action_names,
                           traj.state_names, meta=meta)


def _prepare_data_reference(system, data_seed):
    """prepare_data built the plain way: stacked regimes, normalized out of
    place with numpy's own mean and std."""
    interp, extrap = desk_regimes(system, data_seed)
    train, val = split(_regime_by_stacking(system, interp, 10, 10),
                       (1.0 - 1.0 / 6.0, 1.0 / 6.0),
                       RngState(data_seed).child(_STREAM_SPLIT))
    sets = {"train": train, "val": val,
            "extrap": _regime_by_stacking(system, extrap, 10, 10)}
    view = train.inputs.reshape(-1, train.d_in)
    stats = NormalizationStats(view.mean(axis=0),
                               np.maximum(view.std(axis=0), 1e-8))
    for name, ds in sets.items():
        normed = ((ds.inputs.reshape(-1, ds.d_in) - stats.mean)
                  / stats.std).reshape(ds.n, -1)
        sets[name] = WindowedDataset(normed, ds.targets, ds.lb, ds.lf,
                                     ds.input_names, ds.target_names, ds.meta)
    manifests = {name: dataset_manifest(ds, stats)
                 for name, ds in sets.items()}
    return sets, stats, manifests


@pytest.mark.parametrize("data_seed", [0, 1])
@pytest.mark.parametrize("system", ["pendulum", "backlash", "double_pendulum"])
def test_prepare_data_keeps_the_bits_of_stacked_window_parts(system,
                                                             data_seed):
    sets, stats, manifests = _prepare_data_reference(system, data_seed)
    data = prepare_data(system, data_seed=data_seed)
    for name, want in sets.items():
        assert _same_bits(data[name].inputs, want.inputs), name
        assert _same_bits(data[name].targets, want.targets), name
    assert _same_bits(data["stats"].mean, stats.mean)
    assert _same_bits(data["stats"].std, stats.std)
    assert json.dumps(data["manifests"]) == json.dumps(manifests)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_matrix_fits_without_the_extrap_set(monkeypatch, jobs):
    built = []     # a weakref to every extrap set prepare_data made
    fits = []      # for each fit: whether each of those sets was freed
    real_prepare, real_fit_stack = training.prepare_data, training.fit_stack

    def prepare_data(system, **kwargs):
        data = real_prepare(system, **kwargs)
        built.append(weakref.ref(data["extrap"]))
        return data

    def fit_stack(*args, **kwargs):
        fits.append([ref() is None for ref in built])
        return real_fit_stack(*args, **kwargs)

    monkeypatch.setattr(training, "prepare_data", prepare_data)
    monkeypatch.setattr(training, "fit_stack", fit_stack)
    records = run_matrix(systems=["pendulum", "backlash"], archs=["dense"],
                         lams=[0.0], seeds=[1, 2], cfg_base=_tiny_cfg(),
                         regimes_by_system={"pendulum": TINY_REGIMES,
                                            "backlash": TINY_REGIMES},
                         jobs=jobs)
    assert all(rec.ok for rec in records)
    assert len(built) == 2
    assert fits == [[True, True]] * (4 // jobs)


def test_save_and_load_run(tmp_path):
    record = RunRecord(config={"arch": "dense"}, train_losses=[1.0, 0.5],
                       val_losses=[0.9, 0.6], lr_trace=[0.01, 0.01],
                       best_epoch=1, best_val_loss=0.6, epochs_run=2)
    save_run(record, str(tmp_path), {"train": {"n": 10}})
    doc = load_run(str(tmp_path))
    assert doc["best_val_loss"] == 0.6
    assert doc["datasets"]["train"]["n"] == 10
    losses = (tmp_path / "losses.csv").read_text().splitlines()
    assert losses[0] == "epoch,train_loss,val_loss,lr"
    assert len(losses) == 3


def test_run_name_stable():
    assert run_name_for("pendulum", "lstm", 1.0, 3) == "pendulum_lstm_lam1_seed3"
    assert run_name_for("backlash", "dense", 0.5, 1) == "backlash_dense_lam0p5_seed1"
