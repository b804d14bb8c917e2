import json
import tracemalloc

import numpy as np
import pytest

from conftest import fd_grad, rel_err
from whitenet.datasets import WindowedDataset
from whitenet.errors import ConfigError, DomainError, ShapeError, StateError
from whitenet.evaluation import predict
from whitenet.nn import (
    Dense,
    DenseSpec,
    Dropout,
    DropoutSpec,
    LayerContext,
    LstmCell,
    LstmSpec,
    Model,
    RnnCell,
    RnnSpec,
    _sigmoid,
    build_specs,
    load_checkpoint,
    save_checkpoint,
    spec_to_dict,
    stack_models,
)
from whitenet.numerics import RngState


def _param_fd_worst(model, x, target):
    """Worst relative error between backprop and FD over sampled weights."""
    def loss_of():
        out, _ = model.forward(x)
        return 0.5 * float(np.sum((out - target) ** 2))

    out, cache = model.forward(x)
    model.zero_grads()
    model.backward(cache, out - target)
    worst = 0.0
    for p in model.params:
        flat = p.value.ravel()
        gflat = p.grad.ravel()
        idxs = np.linspace(0, flat.size - 1, min(10, flat.size)).astype(int)
        for i in idxs:
            h = 1e-5
            old = flat[i]
            flat[i] = old + h
            fp = loss_of()
            flat[i] = old - h
            fm = loss_of()
            flat[i] = old
            num = (fp - fm) / (2.0 * h)
            worst = max(worst, rel_err(num, gflat[i]))
    return worst


@pytest.mark.parametrize("arch", ["dense", "rnn", "lstm"])
def test_param_gradients_match_fd(arch):
    rng = RngState(7)
    specs, seq_shape = build_specs(arch, 4, 3, 2, 2, hidden=5)
    model = Model(specs, rng, seq_shape=seq_shape)
    model.set_mode("eval")
    x = RngState(8).normal(size=(6, 12))
    target = RngState(9).normal(size=(6, 4))
    assert _param_fd_worst(model, x, target) < 1e-5


@pytest.mark.parametrize("activation", ["tanh", "relu", "linear"])
def test_dense_activations_gradient(activation):
    rng = RngState(17)
    specs = [DenseSpec(6, 5, activation), DenseSpec(5, 3, "linear")]
    model = Model(specs, rng)
    x = RngState(18).normal(size=(7, 6)) + 0.05  # keep relu off its kink
    target = RngState(19).normal(size=(7, 3))
    assert _param_fd_worst(model, x, target) < 1e-5


def test_input_gradient_matches_fd():
    rng = RngState(3)
    specs, seq_shape = build_specs("lstm", 4, 3, 2, 2, hidden=5)
    model = Model(specs, rng, seq_shape=seq_shape)
    model.set_mode("eval")
    x = RngState(11).normal(size=(5, 12))
    target = RngState(12).normal(size=(5, 4))
    out, cache = model.forward(x)
    model.zero_grads()
    dx = model.backward(cache, out - target)

    def loss_at(xv):
        out2, _ = model.forward(xv)
        return 0.5 * float(np.sum((out2 - target) ** 2))

    num = fd_grad(loss_at, x)
    assert rel_err(dx, num) < 1e-5


def test_dense_hand_gradient():
    # single linear unit: loss = (w*x + b - t)^2 / ... use sum form by hand
    layer = Dense(DenseSpec(1, 1, "linear"), "L", None)
    layer.w.value[...] = 2.0
    x = np.array([[3.0]])
    out, cache = layer.forward(x, _ctx())
    assert out[0, 0] == 6.0
    dx = layer.backward(cache, np.array([[1.0]]))
    assert layer.w.grad[0, 0] == 3.0
    assert layer.b.grad[0, 0] == 1.0
    assert dx[0, 0] == 2.0


def test_init_scale_and_zero_biases():
    rng = RngState(100)
    specs, seq_shape = build_specs("rnn", 10, 3, 10, 3, hidden=24)
    model = Model(specs, rng, seq_shape=seq_shape)
    cell = model.layers[0]
    assert np.max(np.abs(cell.wx.value)) <= 1.0 / np.sqrt(3)
    assert np.max(np.abs(cell.wh.value)) <= 1.0 / np.sqrt(24)
    assert np.array_equal(cell.b.value, np.zeros((1, 24)))
    assert np.any(cell.wx.value != 0.0)


def test_param_count_lstm():
    specs, seq_shape = build_specs("lstm", 4, 3, 2, 2, hidden=24)
    model = Model(specs, RngState(1), seq_shape=seq_shape)
    assert sum(p.value.size for p in model.params) == 4 * (3 * 24 + 24 * 24 + 24) + (24 * 4 + 4)


def _sigmoid_reference(z):
    """Masked two-branch logistic: ``_sigmoid`` must match it bit for bit."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _lstm_reference(wx, wh, b, x, dout):
    """Reference LSTM: one sigmoid call per gate and an ``hstack`` of the four
    gate gradients per step.  Returns ``(hs, dx, gwx, gwh, gb, zs)``, where
    ``zs`` holds every step's pre-activations."""
    batch, steps, _ = x.shape
    hid = wh.shape[0]
    h = np.zeros((batch, hid))
    c = np.zeros((batch, hid))
    hs = np.zeros((batch, steps, hid))
    gates, cells, zs = [], [], []
    for t in range(steps):
        z = x[:, t, :] @ wx + h @ wh + b
        i = _sigmoid_reference(z[:, :hid])
        f = _sigmoid_reference(z[:, hid:2 * hid])
        o = _sigmoid_reference(z[:, 2 * hid:3 * hid])
        g = np.tanh(z[:, 3 * hid:])
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[:, t, :] = h
        gates.append((i, f, o, g))
        cells.append(c)
        zs.append(z)
    gwx, gwh, gb = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)
    dx = np.zeros_like(x)
    dh_carry = np.zeros((batch, hid))
    dc_carry = np.zeros((batch, hid))
    for t in range(steps - 1, -1, -1):
        i, f, o, g = gates[t]
        c = cells[t]
        prev_c = cells[t - 1] if t > 0 else np.zeros((batch, hid))
        prev_h = hs[:, t - 1, :] if t > 0 else np.zeros((batch, hid))
        dh = dout[:, t, :] + dh_carry
        tanh_c = np.tanh(c)
        dc = dc_carry + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        df = dc * prev_c
        do = dh * tanh_c
        dg = dc * i
        dz = np.hstack((
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            do * o * (1.0 - o),
            dg * (1.0 - g * g),
        ))
        gwx += x[:, t, :].T @ dz
        gwh += prev_h.T @ dz
        gb += dz.sum(axis=0, keepdims=True)
        dx[:, t, :] = dz @ wx.T
        dh_carry = dz @ wh.T
        dc_carry = dc * f
    return hs, dx, gwx, gwh, gb, np.stack(zs)


def test_sigmoid_matches_reference_exactly():
    z = np.array([[0.0, -0.0, 30.0, -30.0, 800.0, -800.0, 1e-300, -1e-300,
                   np.inf, -np.inf, np.nan, -np.nan]])
    z = np.vstack((z, RngState(4).normal(size=(3, 12)) * 40.0))
    with np.errstate(invalid="ignore"):
        got, want = _sigmoid(z), _sigmoid_reference(z)
    # compare bit patterns: signed zeros and NaN payloads must match too
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# (batch, steps, d_in, hidden, weight scale, bias pattern)
_LSTM_CASES = [
    (1, 10, 3, 24, 1.0, None),
    (128, 10, 3, 1, 1.0, None),
    (128, 10, 3, 24, 1.0, None),
    (128, 10, 3, 24, 1000.0, None),
    (32, 6, 2, 5, 0.0, (0.0, 30.0, -30.0, 800.0, -800.0)),
    (16, 5, 2, 5, 0.01, (30.0, -30.0, 800.0, -800.0)),
]


@pytest.mark.parametrize("batch,steps,d_in,hid,scale,bias", _LSTM_CASES)
def test_lstm_matches_reference_exactly(batch, steps, d_in, hid, scale, bias):
    cell = LstmCell(LstmSpec(d_in, hid), "L", RngState(batch + hid))
    cell.wx.value *= scale
    cell.wh.value *= scale
    if bias is not None:
        cell.b.value[...] = np.resize(bias, 4 * hid)
    x = RngState(1).normal(size=(batch, steps, d_in))
    dout = RngState(2).normal(size=(batch, steps, hid))
    hs_ref, dx_ref, gwx, gwh, gb, zs = _lstm_reference(
        cell.wx.value, cell.wh.value, cell.b.value, x, dout)
    hs, cache = cell.forward(x, _ctx())
    dx = cell.backward(cache, dout)
    assert np.array_equal(hs, hs_ref)
    assert np.array_equal(dx, dx_ref)
    assert np.array_equal(cell.wx.grad, gwx)
    assert np.array_equal(cell.wh.grad, gwh)
    assert np.array_equal(cell.b.grad, gb)
    if scale == 0.0:
        assert np.any(zs == 0.0)
    if bias is not None or scale > 1.0:
        # both sigmoid branches, saturated (|z| ~ 30) and exp-underflowing
        # (|z| > 745) pre-activations are exercised
        for lo, hi in ((29.0, 31.0), (-31.0, -29.0), (745.0, np.inf),
                       (-np.inf, -745.0)):
            assert np.any((zs >= lo) & (zs <= hi))

def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _ctx(mode="eval", rng=None):
    return LayerContext(mode, rng, keep_cache=True)


# (layer class, spec, one member's input shape)
_STACK_LAYERS = [
    (Dense, DenseSpec(12, 7, "tanh"), (128, 12)),
    (Dense, DenseSpec(12, 7, "relu"), (5, 12)),
    (Dense, DenseSpec(24, 30, "linear"), (2048, 24)),
    (RnnCell, RnnSpec(3, 24), (128, 10, 3)),
    (RnnCell, RnnSpec(1, 5), (7, 4, 1)),
    (LstmCell, LstmSpec(3, 24), (128, 10, 3)),
    (LstmCell, LstmSpec(2, 5), (1, 6, 2)),
]


@pytest.mark.parametrize("cls,spec,shape", _STACK_LAYERS)
def test_stacked_layer_matches_members_exactly(cls, spec, shape):
    members = [cls(spec, "L", RngState(20 + s)) for s in range(3)]
    stacked = cls(spec, "L", None)
    for p, *qs in zip(stacked.params, *(m.params for m in members)):
        p.value = np.stack([q.value for q in qs])
        p.grad = np.zeros_like(p.value)
    x = RngState(1).normal(size=(3,) + shape)
    out, cache = stacked.forward(x, _ctx())
    dout = RngState(2).normal(size=out.shape)
    dx = stacked.backward(cache, dout)
    # a shared input runs through every member's weights
    shared, _ = stacked.forward(x[0], _ctx())
    for s, member in enumerate(members):
        m_out, m_cache = member.forward(x[s], _ctx())
        assert _same_bits(out[s], m_out)
        assert _same_bits(dx[s], member.backward(m_cache, dout[s]))
        for p, q in zip(stacked.params, member.params):
            assert _same_bits(p.grad[s], q.grad)
        assert _same_bits(shared[s], member.forward(x[0], _ctx())[0])


def test_stacked_dropout_draws_each_member_from_its_own_stream():
    layer = Dropout(DropoutSpec(0.3), "d", None)
    x = RngState(3).normal(size=(2, 6, 5))
    out, mask = layer.forward(x, _ctx("train", [RngState(7), RngState(8)]))
    for s, seed in enumerate((7, 8)):
        m_out, m_mask = layer.forward(x[s], _ctx("train", RngState(seed)))
        assert _same_bits(out[s], m_out)
        assert _same_bits(mask[s], m_mask)


@pytest.mark.parametrize("arch", ["dense", "rnn", "lstm"])
def test_stacked_model_matches_members_exactly(arch):
    specs, seq_shape = build_specs(arch, 4, 3, 2, 2, hidden=5, dropout=0.2)
    members = [Model(specs, RngState(30 + s), seq_shape) for s in range(3)]
    stacked = stack_models(members)
    x = RngState(4).normal(size=(3, 9, 12))
    dout = RngState(5).normal(size=(3, 9, 4))
    stacked.set_mode("train")
    out, cache = stacked.forward(x, rng=[RngState(40 + s) for s in range(3)])
    dx = stacked.backward(cache, dout)
    for s, member in enumerate(members):
        member.set_mode("train")
        m_out, m_cache = member.forward(x[s], rng=RngState(40 + s))
        assert _same_bits(out[s], m_out)
        assert _same_bits(dx[s], member.backward(m_cache, dout[s]))
        for p, q in zip(stacked.params, member.params):
            assert p.name == q.name
            assert _same_bits(p.value[s], q.value)
            assert _same_bits(p.grad[s], q.grad)


def test_dropout_train_statistics():
    model = Model(build_specs("dense", 4, 3, 2, 2, hidden=8, dropout=0.3)[0],
                  RngState(5))
    model.set_mode("train")
    x = np.ones((3000, 12))
    out, _ = model.layers[0].forward(
        x, _ctx("train", RngState(9)))
    dropped = float((out == 0.0).mean())
    assert abs(dropped - 0.3) < 0.02
    survivors = out[out != 0.0]
    assert np.allclose(survivors, 1.0 / 0.7)


def test_dropout_eval_is_identity():
    model = Model(build_specs("dense", 4, 3, 2, 2, dropout=0.5)[0], RngState(5))
    model.set_mode("eval")
    x = RngState(6).normal(size=(4, 12))
    out1, _ = model.forward(x)
    out2, _ = model.forward(x)
    assert np.array_equal(out1, out2)


def test_dropout_train_needs_rng():
    model = Model(build_specs("dense", 4, 3, 2, 2, dropout=0.5)[0], RngState(5))
    model.set_mode("train")
    with pytest.raises(StateError):
        model.forward(np.zeros((2, 12)))


def test_dropout_fixed_mask_gradient():
    # with the mask held fixed, dropout backward is elementwise multiply
    layer = Dropout(DropoutSpec(0.4), "d", None)
    ctx = _ctx("train", RngState(2))
    x = RngState(3).normal(size=(5, 6))
    out, mask = layer.forward(x, ctx)
    assert np.array_equal(out, x * mask)
    dout = RngState(4).normal(size=(5, 6))
    assert np.array_equal(layer.backward(mask, dout), dout * mask)


def test_forward_shape_checks():
    model = Model([DenseSpec(4, 3), DenseSpec(3, 2, "linear")], RngState(0))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        model.forward(np.zeros(4))


def test_stale_cache_rejected():
    model = Model(build_specs("dense", 4, 3, 2, 2)[0], RngState(1))
    x = np.zeros((2, 12))
    out, cache = model.forward(x)
    model.forward(x)
    with pytest.raises(StateError):
        model.backward(cache, out)


def test_predict_makes_an_earlier_cache_stale():
    specs, seq_shape = build_specs("lstm", 4, 3, 2, 2, hidden=5)
    model = Model(specs, RngState(1), seq_shape=seq_shape)
    x = RngState(2).normal(size=(3, 12))
    out, cache = model.forward(x)
    model.predict(x)
    with pytest.raises(StateError):
        model.backward(cache, out)


@pytest.mark.parametrize("arch", ["dense", "rnn", "lstm"])
def test_predict_matches_eval_forward_exactly(arch):
    # dropout=0.2 puts an eval-mode (identity) dropout layer in front
    specs, seq_shape = build_specs(arch, 4, 3, 2, 2, hidden=5, dropout=0.2)
    members = [Model(specs, RngState(50 + s), seq_shape) for s in range(3)]
    stacked = stack_models(members)
    x = RngState(6).normal(size=(3, 9, 12))
    for model, inputs in ((members[0], x[0]),   # a single model
                          (stacked, x),         # a stack, one input per member
                          (stacked, x[0])):     # a stack sharing one input
        model.set_mode("eval")
        want, _ = model.forward(inputs)
        assert _same_bits(model.predict(inputs), want)


@pytest.mark.parametrize("arch", ["dense", "rnn", "lstm"])
def test_predict_in_row_blocks_matches_one_forward(arch):
    # row counts around predict's 256-row blocks: a lone row, the block
    # edges, and 1-row tails that join the block before them
    specs, seq_shape = build_specs(arch, 10, 3, 10, 3)
    members = [Model(specs, RngState(60 + s), seq_shape) for s in range(2)]
    stacked = stack_models(members)
    for n in (1, 2, 255, 256, 257, 511, 512, 513, 1025, 2049):
        x = RngState(n).normal(size=(2, n, 30))
        for model, inputs in ((members[0], x[0]),   # a single model
                              (stacked, x),         # a stack, one input each
                              (stacked, x[0])):     # a stack sharing one input
            model.set_mode("eval")
            want, _ = model.forward(inputs)
            assert _same_bits(model.predict(inputs), want), (n, inputs.shape)


@pytest.mark.parametrize("batch", [3, 5])
@pytest.mark.parametrize("arch", ["dense", "rnn"])
def test_stacked_train_forward_needs_the_member_axis(arch, batch):
    # on a shared input each member's dropout mask is drawn at the input's
    # own shape: at batch 3 (one row per member) every row got another
    # member's mask, at batch 5 the masks did not broadcast
    specs, seq_shape = build_specs(arch, 4, 3, 2, 2, hidden=5, dropout=0.5)
    stacked = stack_models([Model(specs, RngState(70 + s), seq_shape)
                            for s in range(3)])
    rngs = [RngState(80 + s) for s in range(3)]
    x = RngState(9).normal(size=(batch, 12))
    stacked.set_mode("train")
    with pytest.raises(ShapeError, match="one input per member"):
        stacked.forward(x, rng=rngs)
    with pytest.raises(ShapeError, match="one input per member"):
        stacked.forward(np.stack([x] * 2), rng=rngs)
    out, _ = stacked.forward(np.stack([x] * 3), rng=rngs)
    assert out.shape == (3, batch, 4)
    stacked.set_mode("eval")          # eval still shares a plain input
    shared, _ = stacked.forward(x)
    assert _same_bits(shared, stacked.predict(np.stack([x] * 3)))


def _peak_bytes(func):
    """Peak traced allocation while ``func()`` runs, above what was live
    before it; what ``func`` returns is still live at the end."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = func()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak - base


def _desk_lstm():
    specs, seq_shape = build_specs("lstm", 10, 3, 10, 3)   # hidden 24
    model = Model(specs, RngState(3), seq_shape=seq_shape)
    model.set_mode("eval")
    return model


def test_predict_peak_memory_is_under_half_of_forward():
    model = _desk_lstm()
    x = RngState(4).normal(size=(2048, 30))
    forward_peak = _peak_bytes(lambda: model.forward(x))
    predict_peak = _peak_bytes(lambda: model.predict(x))
    assert predict_peak < 0.5 * forward_peak, (predict_peak, forward_peak)


def test_chunked_predict_peaks_below_one_forward_chunk():
    model = _desk_lstm()
    rows = 3 * 2048
    ds = WindowedDataset(inputs=RngState(5).normal(size=(rows, 30)),
                         targets=np.zeros((rows, 30)), lb=10, lf=10,
                         input_names=("a", "b", "c"),
                         target_names=("a", "b", "c"))
    forward_peak = _peak_bytes(lambda: model.forward(ds.inputs[:2048]))
    predict_peak = _peak_bytes(lambda: predict(model, ds))
    assert predict_peak < forward_peak, (predict_peak, forward_peak)


def test_foreign_cache_rejected():
    m1 = Model(build_specs("dense", 4, 3, 2, 2)[0], RngState(1))
    m2 = Model(build_specs("dense", 4, 3, 2, 2)[0], RngState(1))
    x = np.zeros((2, 12))
    out, cache = m1.forward(x)
    with pytest.raises(StateError):
        m2.backward(cache, out)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    specs, seq_shape = build_specs("rnn", 4, 3, 2, 2, hidden=6, dropout=0.1)
    model = Model(specs, RngState(42), seq_shape=seq_shape)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, seed=42, epoch=5, best_val_loss=0.125)
    loaded, doc = load_checkpoint(path, specs, seq_shape)
    assert doc["seed"] == 42
    assert doc["epoch"] == 5
    for a, b in zip(model.params, loaded.params):
        assert a.name == b.name
        assert np.array_equal(a.value, b.value)
    x = RngState(2).normal(size=(3, 12))
    model.set_mode("eval")
    loaded.set_mode("eval")
    assert np.array_equal(model.forward(x)[0], loaded.forward(x)[0])


def test_checkpoint_must_hold_the_model_it_is_loaded_as(tmp_path):
    # the first entry that differs is named with both values, as JSON
    specs, seq_shape = build_specs("rnn", 4, 3, 2, 2, hidden=6, dropout=0.1)
    path = tmp_path / "ckpt.json"
    save_checkpoint(Model(specs, RngState(1), seq_shape), path)
    rnn = '{"hidden": 6, "in_dim": 3, "kind": "rnn"}'
    head = ('{"activation": "linear", "in_dim": 6, "kind": "dense", '
            '"out_dim": 4}')
    for expected, message in [
        (build_specs("rnn", 4, 3, 2, 2, hidden=7, dropout=0.1),
         f'layer_specs[1] is {rnn}, but the run\'s config builds '
         '{"hidden": 7, "in_dim": 3, "kind": "rnn"}'),
        (build_specs("lstm", 4, 3, 2, 2, hidden=6, dropout=0.1),
         f'layer_specs[1] is {rnn}, but the run\'s config builds '
         '{"hidden": 6, "in_dim": 3, "kind": "lstm"}'),
        (build_specs("rnn", 4, 3, 2, 2, hidden=6),
         'layer_specs[0] is {"kind": "dropout", "rate": 0.1}, but the '
         f'run\'s config builds {rnn}'),
        ((specs + [DenseSpec(4, 4, "linear")], seq_shape),
         'layer_specs[3] is no layer, but the run\'s config builds '
         '{"activation": "linear", "in_dim": 4, "kind": "dense", '
         '"out_dim": 4}'),
        ((specs[:2], seq_shape),
         f'layer_specs[2] is {head}, but the run\'s config builds no layer'),
        (build_specs("rnn", 5, 3, 2, 2, hidden=6, dropout=0.1),
         "seq_shape is [4, 3], but the run's config builds [5, 3]"),
    ]:
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path, *expected)
        assert str(exc.value) == f"{path}: {message}"
    # equal as JSON values: a float width is not the integer one
    doc = json.loads(path.read_text())
    doc["layer_specs"][1]["hidden"] = 6.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError,
                       match=r'layer_specs\[1\] is .*"hidden": 6.0'):
        load_checkpoint(path, specs, seq_shape)
    # a stored rnn stack with a dense layer inserted at index 1
    specs, seq_shape = build_specs("rnn", 3, 2, 2, 1, hidden=8)
    save_checkpoint(Model(specs, RngState(0), seq_shape), path)
    doc = json.loads(path.read_text())
    doc["layer_specs"].insert(1, spec_to_dict(DenseSpec(8, 8)))
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(path, specs, seq_shape)
    assert str(exc.value) == (
        f'{path}: layer_specs[1] is {{"activation": "tanh", "in_dim": 8, '
        f'"kind": "dense", "out_dim": 8}}, but the run\'s config builds '
        f'{{"activation": "linear", "in_dim": 8, "kind": "dense", '
        f'"out_dim": 2}}')


def test_checkpoint_refuses_a_non_finite_value(tmp_path):
    specs, seq_shape = build_specs("dense", 4, 3, 2, 2, hidden=6)
    model = Model(specs, RngState(42), seq_shape=seq_shape)
    path = tmp_path / "ckpt.json"
    with pytest.raises(DomainError, match="ckpt.json"):
        save_checkpoint(model, path, best_val_loss=float("inf"))
    assert not list(tmp_path.iterdir())


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 999}))
    with pytest.raises(ConfigError, match="unsupported format_version 999"):
        load_checkpoint(path, *build_specs("dense", 4, 3, 2, 2))


def test_build_specs_desk_defaults():
    specs, seq_shape = build_specs("dense", 10, 4, 10, 3)
    assert seq_shape is None
    assert [s.kind for s in specs] == ["dense", "dense", "dense"]
    assert specs[0].in_dim == 40 and specs[0].out_dim == 32
    assert specs[-1].out_dim == 30 and specs[-1].activation == "linear"
    specs, seq_shape = build_specs("lstm", 10, 4, 10, 3, dropout=0.1)
    assert seq_shape == (10, 4)
    assert specs[0].kind == "dropout"
    assert specs[1].hidden == 24
    with pytest.raises(ConfigError):
        build_specs("transformer", 10, 4, 10, 3)
