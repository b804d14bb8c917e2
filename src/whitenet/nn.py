"""Small sequence models (dense / vanilla RNN / LSTM) with exact
layer-by-layer reverse-mode gradients, written directly in numpy.

A :class:`Model` is an ordered stack of hidden layers plus a linear ``head``
producing the flat ``(batch, lookforward * d_out)`` prediction.  The hidden
layers are dense layers or recurrent cells, never both, with optional
dropout among them; ``seq_shape`` tells the two apart.  Dense stacks consume
the flat ``(batch, lookback * d_in)`` window.  Recurrent stacks reshape it
once to ``(batch, lookback, d_in)`` and unroll over time, after which the
head maps the final hidden state to all lookforward outputs at once.

Layers act on the last axes only, so any leading axes pass through.
:func:`stack_models` uses that: it puts several models' parameters on a
leading member axis, ``(members, in, out)``, and the stacked model trains
them together on ``(members, batch, width)`` inputs.  In eval mode a plain
2-D input is shared by every member.  A single model keeps its 2-D
parameters.

``forward`` returns a :class:`ForwardCache` holding every intermediate the
backward pass needs; ``backward`` must be fed the cache of the immediately
preceding forward on the same model instance.  Gradients accumulate into
``Parameter.grad`` buffers, zeroed by the caller per batch.  ``predict`` is
the eval-mode forward for callers that never run backward: it returns the
outputs only, and the LSTM keeps none of its per-step gates and cells, the
bulk of the cache.  It gives the same bits as ``forward``.

Layers take a :class:`LayerContext`: the mode, the dropout streams and
whether to keep what backward needs.

Inner products here are plain BLAS-backed numpy matmuls, over whole
batches and, in a stacked model, every member at once.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import check_json, fields_schema, read_json, write_json
from .errors import ConfigError, ShapeError, StateError

CHECKPOINT_FORMAT_VERSION = 1

# Rows per block of Model.predict.  A desk LSTM block holds every step's
# hidden state, rows x lookback x hidden floats (0.5 MB at 256 rows, 10
# steps, hidden 24), and each step's temporaries of rows x 4*hidden floats
# (0.2 MB), per member of a stack.  That fits a 2 MiB L2 cache with room
# to spare, and keeps a validation pass small beside the fit it checks.
_PREDICT_ROWS = 256


@dataclass
class Parameter:
    name: str
    value: np.ndarray
    grad: np.ndarray


def _make_param(name, shape, rng, limit):
    if rng is None or limit == 0.0:
        value = np.zeros(shape)
    else:
        value = rng.uniform(size=shape, low=-limit, high=limit)
    return Parameter(name, value, np.zeros(shape))


# ---------------------------------------------------------------------------
# Layer specs (the serializable description) and layer implementations.

@dataclass
class DenseSpec:
    in_dim: int
    out_dim: int
    activation: str = "tanh"
    kind: str = "dense"


@dataclass
class RnnSpec:
    in_dim: int
    hidden: int
    kind: str = "rnn"


@dataclass
class LstmSpec:
    in_dim: int
    hidden: int
    kind: str = "lstm"


@dataclass
class DropoutSpec:
    rate: float
    kind: str = "dropout"


_SPEC_KINDS = {"dense": DenseSpec, "rnn": RnnSpec, "lstm": LstmSpec, "dropout": DropoutSpec}


def spec_to_dict(spec):
    return dict(spec.__dict__)


def spec_from_dict(d):
    """The layer spec ``d`` describes.  A missing, unknown or mistyped key
    raises :class:`ConfigError` naming it."""
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise ConfigError(f"unknown layer kind {kind!r}")
    check_json(d, fields_schema(_SPEC_KINDS[kind]), f"{kind} layer",
               closed="layer")
    return _SPEC_KINDS[kind](**d)


_ACTIVATIONS = ("tanh", "relu", "linear")


class Dense:
    """Affine map with tanh/relu/linear activation over the last axis."""

    def __init__(self, spec, name, rng):
        if spec.in_dim <= 0 or spec.out_dim <= 0:
            raise ShapeError(f"dense dims must be positive, got {spec}")
        if spec.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {spec.activation!r}")
        self.spec = spec
        limit = 1.0 / np.sqrt(spec.in_dim)
        self.w = _make_param(f"{name}.W", (spec.in_dim, spec.out_dim), rng, limit)
        self.b = _make_param(f"{name}.b", (1, spec.out_dim), rng, 0.0)

    @property
    def params(self):
        return [self.w, self.b]

    def forward(self, x, ctx):
        if x.ndim < 2 or x.shape[-1] != self.spec.in_dim:
            raise ShapeError(
                f"dense layer expects (batch, {self.spec.in_dim}), got {x.shape}")
        z = x @ self.w.value + self.b.value
        act = self.spec.activation
        if act == "tanh":
            out = np.tanh(z)
            cache = (x, out)
        elif act == "relu":
            out = np.maximum(z, 0.0)
            cache = (x, z)
        else:
            out = z
            cache = (x, None)
        return out, cache

    def backward(self, cache, dout):
        x, saved = cache
        act = self.spec.activation
        if act == "tanh":
            dz = dout * (1.0 - saved * saved)
        elif act == "relu":
            dz = dout * (saved > 0.0)
        else:
            dz = dout
        self.w.grad += x.swapaxes(-1, -2) @ dz
        self.b.grad += dz.sum(axis=-2, keepdims=True)
        return dz @ self.w.value.swapaxes(-1, -2)


class RnnCell:
    """tanh RNN unrolled over the full window; returns all hidden states."""

    def __init__(self, spec, name, rng):
        if spec.in_dim <= 0 or spec.hidden <= 0:
            raise ShapeError(f"rnn dims must be positive, got {spec}")
        self.spec = spec
        self.wx = _make_param(f"{name}.Wx", (spec.in_dim, spec.hidden), rng,
                              1.0 / np.sqrt(spec.in_dim))
        self.wh = _make_param(f"{name}.Wh", (spec.hidden, spec.hidden), rng,
                              1.0 / np.sqrt(spec.hidden))
        self.b = _make_param(f"{name}.b", (1, spec.hidden), rng, 0.0)

    @property
    def params(self):
        return [self.wx, self.wh, self.b]

    def forward(self, x, ctx):
        if x.ndim < 3 or x.shape[-1] != self.spec.in_dim:
            raise ShapeError(
                f"rnn cell expects (batch, T, {self.spec.in_dim}), got {x.shape}")
        steps = x.shape[-2]
        h = np.zeros(_row_shape(x, self.wx.value) + (self.spec.hidden,))
        hs = np.zeros(h.shape[:-1] + (steps, self.spec.hidden))
        for t in range(steps):
            h = np.tanh(x[..., t, :] @ self.wx.value + h @ self.wh.value
                        + self.b.value)
            hs[..., t, :] = h
        return hs, (x, hs)

    def backward(self, cache, dout):
        x, hs = cache
        steps = x.shape[-2]
        dx = np.zeros(dout.shape[:-2] + x.shape[-2:])
        zeros = np.zeros(hs.shape[:-2] + (self.spec.hidden,))
        dh_carry = zeros
        for t in range(steps - 1, -1, -1):
            dh = dout[..., t, :] + dh_carry
            dz = dh * (1.0 - hs[..., t, :] ** 2)
            prev_h = hs[..., t - 1, :] if t > 0 else zeros
            self.wx.grad += x[..., t, :].swapaxes(-1, -2) @ dz
            self.wh.grad += prev_h.swapaxes(-1, -2) @ dz
            self.b.grad += dz.sum(axis=-2, keepdims=True)
            dx[..., t, :] = dz @ self.wx.value.swapaxes(-1, -2)
            dh_carry = dz @ self.wh.value.swapaxes(-1, -2)
        return dx


def _row_shape(x, w):
    """Leading shape of a recurrent layer's output rows: the ``(..., batch)``
    axes of ``x`` broadcast against the member axes of the weights ``w``, so
    a shared input runs through every member of a stack."""
    return np.broadcast_shapes(x.shape[:-2], w.shape[:-2] + (1,))


def _sigmoid(z):
    """Logistic function without a branch: bit for bit ``1/(1+exp(-z))`` for
    z >= 0 and ``exp(z)/(1+exp(z))`` below, so ``exp`` never overflows.

    Works in place where that is exact: each full-size temporary saved
    keeps more of a step's working set in cache.
    """
    m = np.negative(z)
    np.minimum(z, m, out=m)        # -|z|; a NaN z itself (first of two NaNs)
    e = np.exp(m)
    del m
    out = np.maximum(e, z >= 0)    # 1 where z >= 0, as e <= 1; e elsewhere
    e += 1.0
    out /= e
    return out


class LstmCell:
    """Standard LSTM (gate order i, f, o, g) unrolled over the window.

    One sigmoid call per step covers the i/f/o block.  Backward forms each
    gate gradient as ``((dc * g) * i) * (1 - i)`` and so on, factor by factor,
    so the results match a per-gate implementation bit for bit.  The
    per-step gates and cells that backward reads are kept only when the
    context asks for the cache: they are most of a forward's memory.
    """

    def __init__(self, spec, name, rng):
        if spec.in_dim <= 0 or spec.hidden <= 0:
            raise ShapeError(f"lstm dims must be positive, got {spec}")
        self.spec = spec
        hid = spec.hidden
        self.wx = _make_param(f"{name}.Wx", (spec.in_dim, 4 * hid), rng,
                              1.0 / np.sqrt(spec.in_dim))
        self.wh = _make_param(f"{name}.Wh", (hid, 4 * hid), rng, 1.0 / np.sqrt(hid))
        self.b = _make_param(f"{name}.b", (1, 4 * hid), rng, 0.0)

    @property
    def params(self):
        return [self.wx, self.wh, self.b]

    def forward(self, x, ctx):
        if x.ndim < 3 or x.shape[-1] != self.spec.in_dim:
            raise ShapeError(
                f"lstm cell expects (batch, T, {self.spec.in_dim}), got {x.shape}")
        steps = x.shape[-2]
        hid = self.spec.hidden
        h = np.zeros(_row_shape(x, self.wx.value) + (hid,))
        c = np.zeros(h.shape)
        hs = np.zeros(h.shape[:-1] + (steps, hid))
        gates = []
        cells = []
        for t in range(steps):
            z = x[..., t, :] @ self.wx.value + h @ self.wh.value + self.b.value
            ifo = _sigmoid(z[..., :3 * hid])
            i, f, o = ifo[..., :hid], ifo[..., hid:2 * hid], ifo[..., 2 * hid:]
            g = np.tanh(z[..., 3 * hid:])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[..., t, :] = h
            if ctx.keep_cache:
                gates.append((ifo, g))
                cells.append(c)
        return hs, (x, hs, gates, cells) if ctx.keep_cache else None

    def backward(self, cache, dout):
        x, hs, gates, cells = cache
        steps = x.shape[-2]
        hid = self.spec.hidden
        dx = np.zeros(dout.shape[:-2] + x.shape[-2:])
        zeros = np.zeros(hs.shape[:-2] + (hid,))
        dh_carry = dc_carry = zeros
        # Gate pre-activation gradients, one block per gate (i, f, o, g);
        # the first three share the sigmoid derivative and are scaled together.
        dz = np.empty(zeros.shape[:-1] + (4 * hid,))
        dz_ifo = dz[..., :3 * hid]
        for t in range(steps - 1, -1, -1):
            ifo, g = gates[t]
            i, f, o = ifo[..., :hid], ifo[..., hid:2 * hid], ifo[..., 2 * hid:]
            c = cells[t]
            prev_c = cells[t - 1] if t > 0 else zeros
            prev_h = hs[..., t - 1, :] if t > 0 else zeros
            dh = dout[..., t, :] + dh_carry
            tanh_c = np.tanh(c)
            dc = dc_carry + dh * o * (1.0 - tanh_c * tanh_c)
            np.multiply(dc, g, out=dz[..., :hid])
            np.multiply(dc, prev_c, out=dz[..., hid:2 * hid])
            np.multiply(dh, tanh_c, out=dz[..., 2 * hid:3 * hid])
            dz_ifo *= ifo
            dz_ifo *= 1.0 - ifo
            np.multiply(dc, i, out=dz[..., 3 * hid:])
            dz[..., 3 * hid:] *= 1.0 - g * g
            self.wx.grad += x[..., t, :].swapaxes(-1, -2) @ dz
            self.wh.grad += prev_h.swapaxes(-1, -2) @ dz
            self.b.grad += dz.sum(axis=-2, keepdims=True)
            dx[..., t, :] = dz @ self.wx.value.swapaxes(-1, -2)
            dh_carry = dz @ self.wh.value.swapaxes(-1, -2)
            dc_carry = dc * f
        return dx


class Dropout:
    """Inverted dropout: train mode zeroes a ``rate`` fraction and rescales
    survivors by 1/(1-rate); eval mode is the exact identity.

    A stacked model passes one stream per member, and each member's mask is
    drawn from its own stream."""

    def __init__(self, spec, name, rng):
        if not 0.0 <= spec.rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {spec.rate}")
        self.spec = spec

    @property
    def params(self):
        return []

    def forward(self, x, ctx):
        if ctx.mode != "train" or self.spec.rate == 0.0:
            return x, None
        if ctx.rng is None:
            raise StateError("train-mode dropout needs an rng")
        if isinstance(ctx.rng, (list, tuple)):
            u = np.stack([rng.uniform(size=x.shape[1:]) for rng in ctx.rng])
        else:
            u = ctx.rng.uniform(size=x.shape)
        keep = 1.0 - self.spec.rate
        mask = (u >= self.spec.rate) / keep
        return x * mask, mask

    def backward(self, cache, dout):
        if cache is None:
            return dout
        return dout * cache


_LAYER_CLASSES = {"dense": Dense, "rnn": RnnCell, "lstm": LstmCell, "dropout": Dropout}


# ---------------------------------------------------------------------------
# Model: hidden stack + linear head over flat windows.

@dataclass
class LayerContext:
    """What a layer forward needs besides its input: the mode (train or
    eval), the dropout stream(s), and whether to keep the cache backward
    reads.  Only the LSTM reads ``keep_cache``: its per-step gates and cells
    are the one cache that outgrows the layer's input and output."""

    mode: str
    rng: object
    keep_cache: bool


class ForwardCache:
    """Per-layer intermediates from one forward pass, bound to that pass."""

    def __init__(self, model, token, entries, head_cache):
        self.model_id = id(model)
        self.token = token
        self.entries = entries          # one cache per hidden layer
        self.head_cache = head_cache


class Model:
    """Layer stack with a linear head; see module docstring for wiring.

    The hidden layers are one family: dense layers when ``seq_shape`` is
    None, recurrent cells when it is ``(lookback, d_in)``, in either case
    with dropout layers anywhere among them.  Any other stack raises
    :class:`ConfigError`.

    Weights are drawn uniform in +-1/sqrt(fan-in) from ``rng`` (all zero when
    ``rng`` is None, as a checkpoint load fills them); biases start at zero.
    """

    def __init__(self, specs, rng, seq_shape=None):
        if not specs:
            raise ConfigError("model needs at least a head layer spec")
        *hidden_specs, head_spec = specs
        if not isinstance(head_spec, DenseSpec):
            raise ConfigError("the final layer spec (the head) must be dense")
        self.layers = [_LAYER_CLASSES[spec.kind](spec, f"layer{idx}", rng)
                       for idx, spec in enumerate(hidden_specs)]
        self.head = Dense(head_spec, "head", rng)
        self.seq_shape = tuple(seq_shape) if seq_shape is not None else None
        self.mode = "eval"
        self._forward_token = 0
        self._check_wiring()

    def _check_wiring(self):
        weighted = [l for l in self.layers if not isinstance(l, Dropout)]
        cells = sum(isinstance(l, (RnnCell, LstmCell)) for l in weighted)
        if 0 < cells < len(weighted):
            raise ConfigError("a stack holds dense layers or recurrent cells, "
                              "not both")
        if bool(cells) != (self.seq_shape is not None):
            raise ConfigError("recurrent cells need seq_shape=(lookback, d_in), "
                              "and only they take it")
        width = None if self.seq_shape is None else self.seq_shape[1]
        for layer in weighted + [self.head]:
            if width is not None and layer.spec.in_dim != width:
                raise ShapeError(
                    f"layer {layer.params[0].name} expects in_dim "
                    f"{layer.spec.in_dim}, stack provides {width}")
            width = layer.spec.out_dim if isinstance(layer, Dense) else layer.spec.hidden

    # -- parameters ---------------------------------------------------------

    @property
    def params(self):
        return [p for layer in self.layers + [self.head] for p in layer.params]

    def zero_grads(self):
        for p in self.params:
            p.grad[...] = 0.0

    def set_mode(self, mode):
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be train or eval, got {mode!r}")
        self.mode = mode

    # -- forward / backward -------------------------------------------------

    def forward(self, inputs, rng=None):
        """Run the stack on flat ``(batch, lookback * d_in)`` inputs.

        A stacked model takes ``(members, batch, ...)`` inputs, or, in eval
        mode, plain 2-D ones that every member shares.  Returns ``(outputs,
        cache)``; in train mode dropout masks are drawn from ``rng``, one
        stream per member for a stacked model, and each member's mask is
        sized to its own input, so train mode needs the member axis.
        """
        x = np.asarray(inputs, dtype=np.float64)
        members = self.head.w.value.shape[:-2]
        if self.mode == "train" and members and x.shape[:-2] != members:
            raise ShapeError(
                f"train mode needs one input per member, on leading axes "
                f"{members}; got inputs of shape {x.shape}")
        out, entries, head_cache = self._run(
            x, LayerContext(self.mode, rng, keep_cache=True))
        return out, ForwardCache(self, self._forward_token, entries,
                                 head_cache)

    def predict(self, inputs):
        """Outputs of an eval-mode ``forward`` on ``inputs``, bit for bit,
        without building the backward cache.

        Runs in blocks of ``_PREDICT_ROWS`` (256) rows, so a recurrent
        block's unrolled steps and each step's temporaries stay cache-sized
        however many rows come in, and concatenates the blocks along the
        rows axis.  A product's rows do not depend on how many rows it has,
        except that OpenBLAS takes another path for a single row; so a
        1-row tail joins the block before it.  It counts as a forward: a
        cache taken before it is stale.
        """
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim < 2:
            raise ShapeError(f"inputs must be 2-D, got ndim={x.ndim}")
        ctx = LayerContext("eval", None, keep_cache=False)
        n = x.shape[-2]
        edges = list(range(_PREDICT_ROWS, n, _PREDICT_ROWS))
        if edges and n - edges[-1] == 1:
            edges.pop()
        return np.concatenate([self._run(block, ctx)[0]
                               for block in np.split(x, edges, axis=-2)],
                              axis=-2)

    def _run(self, inputs, ctx):
        """The layer forwards under ``ctx``; returns ``(outputs, entries,
        head_cache)``, with no entries unless ``ctx.keep_cache``.

        A recurrent stack reshapes the flat window to ``(lookback, d_in)``
        steps before its first layer and hands the last step to the head.
        """
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim < 2:
            raise ShapeError(f"inputs must be 2-D, got ndim={x.ndim}")
        if self.seq_shape is not None:
            lb, d_in = self.seq_shape
            if x.shape[-1] != lb * d_in:
                raise ShapeError(f"input width {x.shape[-1]} != "
                                 f"lookback*d_in {lb * d_in}")
            x = x.reshape(x.shape[:-1] + (lb, d_in))
        entries = []
        for layer in self.layers:
            x, layer_cache = layer.forward(x, ctx)
            if ctx.keep_cache:
                entries.append(layer_cache)
        if self.seq_shape is not None:
            x = x[..., -1, :]
        out, head_cache = self.head.forward(x, ctx)
        self._forward_token += 1
        return out, entries, head_cache

    def backward(self, cache, grad_out):
        """Accumulate parameter gradients of ``outputs . grad_out``.

        ``cache`` must come from the immediately preceding ``forward`` on this
        model instance.  Returns the gradient of the flat inputs.
        """
        if not isinstance(cache, ForwardCache) or cache.model_id != id(self):
            raise StateError("cache does not belong to this model")
        if cache.token != self._forward_token:
            raise StateError("stale cache: model ran forward again since")
        grad_out = np.asarray(grad_out, dtype=np.float64)
        dx = self.head.backward(cache.head_cache, grad_out)
        if self.seq_shape is not None:
            last = dx
            dx = np.zeros(last.shape[:-1] + (self.seq_shape[0], last.shape[-1]))
            dx[..., -1, :] = last
        for layer, layer_cache in zip(reversed(self.layers),
                                      reversed(cache.entries)):
            dx = layer.backward(layer_cache, dx)
        if self.seq_shape is not None:
            dx = dx.reshape(dx.shape[:-2] + (-1,))
        return dx


def stack_models(models):
    """One model whose parameters hold the members' on a new leading axis.

    The members must share their layer specs.  The stack trains as one
    model: every layer runs its members' products as one batched matmul, and
    each member's slice goes through the same floating-point operations as
    the member alone.
    """
    first = models[0]
    stacked = Model([layer.spec for layer in first.layers + [first.head]], None,
                    first.seq_shape)
    for p, *members in zip(stacked.params, *(m.params for m in models)):
        p.value = np.stack([q.value for q in members])
        p.grad = np.zeros_like(p.value)
    return stacked


ARCHS = ("dense", "rnn", "lstm")   # the architectures build_specs knows


def build_specs(arch, lb, d_in, lf, d_out, hidden=None, dropout=0.0):
    """Standard stacks used by the CLI and experiments.

    ``arch`` is one of dense / rnn / lstm.  Desk-scale defaults: dense uses 2
    tanh hidden layers of width 32, recurrent models one cell of hidden size
    24.  ``dropout > 0`` prepends an input-dropout layer.
    """
    if arch == "dense":
        hidden = 32 if hidden is None else hidden
        specs = [DenseSpec(lb * d_in, hidden), DenseSpec(hidden, hidden)]
        seq_shape = None
    elif arch in ("rnn", "lstm"):
        hidden = 24 if hidden is None else hidden
        cell = RnnSpec if arch == "rnn" else LstmSpec
        specs = [cell(d_in, hidden)]
        seq_shape = (lb, d_in)
    else:
        raise ConfigError(f"unknown architecture {arch!r}")
    specs.append(DenseSpec(hidden, lf * d_out, "linear"))
    if dropout > 0.0:
        specs.insert(0, DropoutSpec(dropout))
    return specs, seq_shape


# ---------------------------------------------------------------------------
# Checkpoints: JSON, bit-exact round trip (floats serialized via repr).

def save_checkpoint(model, path, seed=None, epoch=0, best_val_loss=None):
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_specs": [spec_to_dict(l.spec) for l in model.layers + [model.head]],
        "seq_shape": list(model.seq_shape) if model.seq_shape else None,
        "seed": seed,
        "epoch": epoch,
        "best_val_loss": best_val_loss,
        "parameters": {p.name: p.value.tolist() for p in model.params},
    }
    write_json(doc, path, sort_keys=False)


# The keys of a checkpoint that load_checkpoint reads
_CHECKPOINT_KEYS = {"layer_specs": "list of objects",
                    "seq_shape": "list of integers or null",
                    "parameters": "object"}


def load_checkpoint(path):
    """Rebuild the model from a checkpoint file; returns (model, doc).

    Contents that do not describe a model (another format_version, a
    missing, unknown or mistyped key, or a parameter that is not a numeric
    array) raise :class:`ConfigError` naming the file and the key; layer
    widths below 1 or that do not chain, and a parameter of the wrong
    shape, raise :class:`ShapeError` naming the file.
    """
    doc = read_json(path, _CHECKPOINT_KEYS, version=CHECKPOINT_FORMAT_VERSION)
    specs, seq_shape = doc["layer_specs"], doc["seq_shape"]
    if seq_shape is not None and len(seq_shape) != 2:
        raise ConfigError(f"{path}: seq_shape must be null or two integers, "
                          f"got {seq_shape!r}")
    try:
        model = Model([spec_from_dict(d) for d in specs], rng=None,
                      seq_shape=seq_shape)
    except (ConfigError, ShapeError) as exc:
        raise type(exc)(f"{path}: layer_specs: {exc}") from None
    params = doc["parameters"]
    for p in model.params:
        if p.name not in params:
            raise ConfigError(f"{path}: parameters has no {p.name!r}")
        try:
            stored = np.asarray(params[p.name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: parameter {p.name!r} is not a numeric "
                              f"array: {exc}") from None
        if stored.shape != p.value.shape:
            raise ShapeError(
                f"{path}: parameter {p.name!r} has shape {stored.shape}, "
                f"model expects {p.value.shape}")
        p.value[...] = stored
    return model, doc
