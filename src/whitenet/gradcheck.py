"""Central finite-difference verification of every analytic gradient.

Each suite draws many small random instances of one component (a layer type
or a loss), compares its analytic gradient against central differences, and
keeps the worst relative error seen.  Components are resolved through their
modules at call time, so a patched-in wrong gradient is caught instead of a
stale function reference passing silently.

Finite differencing takes one batched call per checked tensor in every
suite: every perturbation of the tensor, one entry raised or lowered by h,
becomes a member of a stack, and the stack runs through the stacked layers
or the loss at once (every loss takes leading member axes).  Each member
goes through the same floating-point operations as the perturbed tensor
alone, so every difference is bit for bit that of a loop over entries.

The sizes are deliberately tiny (widths and windows of a handful of
elements): a tensor of n entries makes a stack of 2n members, and small
instances probe the same code paths as large ones.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import losses, nn
from .errors import ConfigError
from .numerics import RngState

DEFAULT_TOL = 1e-4
DEFAULT_INSTANCES = 100
_FD_STEP = 1e-5


@dataclass
class SuiteResult:
    component: str
    instances: int
    worst: float
    tol: float
    seconds: float

    @property
    def ok(self):
        return self.worst < self.tol

    def line(self):
        mark = "pass" if self.ok else "FAIL"
        return (f"{mark}  {self.component:<9s} worst rel err "
                f"{self.worst:.3e} over {self.instances} instances "
                f"(tol {self.tol:g}, {self.seconds:.2f}s)")


def _randint(rng, lo, hi):
    """Uniform integer in [lo, hi] drawn from the package rng."""
    u = float(rng.uniform(size=(1,))[0])
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _fd(arr, values, h=_FD_STEP):
    """Central differences of a scalar objective with respect to ``arr``.

    ``values`` takes a ``(2n, *arr.shape)`` stack, n = ``arr.size``, whose
    member k is ``arr`` with entry k raised by ``h`` and member n + k the same
    entry lowered, and returns the objective of each member.  ``arr`` itself
    is never modified.
    """
    n = arr.size
    stack = np.repeat(arr.reshape(1, n), 2 * n, axis=0)
    entry = np.arange(n)
    stack[entry, entry] += h
    stack[n + entry, entry] -= h
    f = np.asarray(values(stack.reshape((2 * n,) + arr.shape)))
    return ((f[:n] - f[n:]) / (2.0 * h)).reshape(arr.shape)


def _summed(out, weight):
    """Per member ``sum(out * weight)``, for an ``out`` with a member axis."""
    return (out * weight).reshape(len(out), -1).sum(axis=1)


def _worst_rel(analytic, numeric, floor=1e-7):
    num = np.abs(analytic - numeric)
    den = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(num / den)) if num.size else 0.0


# ---------------------------------------------------------------------------
# Loss suites.  Objective is the loss value itself; the analytic gradient
# comes straight from the (value, grad) pair each loss returns.

def _suite_mse(rng, n_instances):
    worst = 0.0
    for _ in range(n_instances):
        b = _randint(rng, 1, 4)
        w = _randint(rng, 1, 6)
        pred = rng.normal(size=(b, w))
        target = rng.normal(size=(b, w))
        _, grad = losses.mse(pred, target)
        fd = _fd(pred, lambda s: losses.mse(s, target)[0])
        worst = max(worst, _worst_rel(grad, fd))
    return worst, n_instances


def _suite_ljb(rng, n_instances):
    worst = 0.0
    for _ in range(n_instances):
        lags = _randint(rng, 1, 4)
        n = _randint(rng, lags + 2, 16)
        b = _randint(rng, 1, 3)
        r = rng.normal(size=(b, n))
        cfg = losses.LossConfig(lags=lags)
        _, grad = losses.ljb_loss(r, cfg)
        fd = _fd(r, lambda s: losses.ljb_loss(s, cfg)[0])
        worst = max(worst, _worst_rel(grad, fd))
    return worst, n_instances


def _suite_composite(rng, n_instances):
    worst = 0.0
    lams = (0.0, 0.3, 1.0, 2.5)
    for i in range(n_instances):
        lags = _randint(rng, 1, 3)
        lf = _randint(rng, lags + 2, 10)
        d = _randint(rng, 1, 3)
        b = _randint(rng, 1, 3)
        pred = rng.normal(size=(b, lf * d))
        target = rng.normal(size=(b, lf * d))
        cfg = losses.LossConfig(lam=lams[i % len(lams)], lags=lags)
        _, grad = losses.composite_loss(pred, target, cfg, n_channels=d)
        fd = _fd(pred, lambda s: losses.composite_loss(s, target, cfg,
                                                       n_channels=d)[0])
        worst = max(worst, _worst_rel(grad, fd))
    return worst, n_instances


def _suite_ljb2d(rng, n_instances):
    worst = 0.0
    for _ in range(n_instances):
        lags = _randint(rng, 1, 2)
        h = _randint(rng, lags + 2, 7)
        w = _randint(rng, lags + 2, 7)
        img = rng.normal(size=(h, w))
        cfg = losses.LossConfig(two_d_lags=lags)
        _, grad = losses.ljb_loss_2d(img, cfg)
        fd = _fd(img, lambda s: losses.ljb_loss_2d(s, cfg)[0])
        worst = max(worst, _worst_rel(grad, fd))
    return worst, n_instances


# ---------------------------------------------------------------------------
# Layer suites.  Objective is sum(output * c) for a fixed random cotangent c,
# whose analytic gradient is layer.backward(cache, c) plus the parameter
# grads the call accumulates.

def _twin(layer, j, stack):
    """A copy of ``layer`` whose parameters carry the member axis of
    ``stack``: parameter ``j`` is the stack, the others repeat per member."""
    twin = type(layer)(layer.spec, "g", None)
    for i, (p, q) in enumerate(zip(twin.params, layer.params)):
        p.value = stack if i == j else np.repeat(q.value[None], len(stack),
                                                 axis=0)
    return twin


def _layer_check(layer, x, ctx, cotangent):
    _, cache = layer.forward(x, ctx)
    for p in layer.params:
        p.grad[...] = 0.0
    dx = layer.backward(cache, cotangent)
    fd = _fd(x, lambda s: _summed(layer.forward(s, ctx)[0], cotangent))
    worst = _worst_rel(dx, fd)
    for j, p in enumerate(layer.params):
        fd = _fd(p.value, lambda s: _summed(
            _twin(layer, j, s).forward(x, ctx)[0], cotangent))
        worst = max(worst, _worst_rel(p.grad, fd))
    return worst


def _suite_dense(rng, n_instances):
    ctx = nn.LayerContext("eval", None, keep_cache=True)
    worst = 0.0
    total = 0
    for act in ("tanh", "relu", "linear"):
        for _ in range(n_instances):
            d_in = _randint(rng, 1, 5)
            d_out = _randint(rng, 1, 5)
            b = _randint(rng, 1, 4)
            layer = nn.Dense(nn.DenseSpec(d_in, d_out, act), "g", rng)
            x = rng.uniform(size=(b, d_in), low=-1.5, high=1.5)
            if act == "relu":
                # Keep pre-activations away from the kink: central
                # differences are exact for piecewise-linear maps only when
                # no perturbation crosses zero.
                for _ in range(100):
                    z = x @ layer.w.value + layer.b.value
                    if np.min(np.abs(z)) > 1e-3:
                        break
                    x = rng.uniform(size=(b, d_in), low=-1.5, high=1.5)
            c = rng.normal(size=(b, d_out))
            worst = max(worst, _layer_check(layer, x, ctx, c))
            total += 1
    return worst, total


def _recurrent_suite(cls, spec_cls):
    def suite(rng, n_instances):
        ctx = nn.LayerContext("eval", None, keep_cache=True)
        worst = 0.0
        for _ in range(n_instances):
            d_in = _randint(rng, 1, 3)
            hid = _randint(rng, 2, 4)
            steps = _randint(rng, 2, 4)
            b = _randint(rng, 1, 3)
            layer = cls(spec_cls(d_in, hid), "g", rng)
            x = rng.normal(size=(b, steps, d_in))
            c = rng.normal(size=(b, steps, hid))
            worst = max(worst, _layer_check(layer, x, ctx, c))
        return worst, n_instances
    return suite


def _suite_dropout(rng, n_instances):
    worst = 0.0
    for _ in range(n_instances):
        b = _randint(rng, 1, 4)
        w = _randint(rng, 2, 6)
        rate = (0.1, 0.3, 0.5)[_randint(rng, 0, 2)]
        layer = nn.Dropout(nn.DropoutSpec(rate), "g", None)
        x = rng.normal(size=(b, w))
        ctx = nn.LayerContext("train", rng, keep_cache=True)
        out, mask = layer.forward(x, ctx)
        c = rng.normal(size=out.shape)
        dx = layer.backward(mask, c)
        # Fixed-mask objective: the mask captured above is held constant.
        fd = _fd(x, lambda s: _summed(s * mask, c))
        worst = max(worst, _worst_rel(dx, fd))
    return worst, n_instances


# A suite's place in this order sets its stream, child 7000 + index of the
# seed, so the order is part of every gradcheck result.
_SUITES = {
    "dense": _suite_dense,
    "rnn": _recurrent_suite(nn.RnnCell, nn.RnnSpec),
    "lstm": _recurrent_suite(nn.LstmCell, nn.LstmSpec),
    "dropout": _suite_dropout,
    "mse": _suite_mse,
    "ljb": _suite_ljb,
    "composite": _suite_composite,
    "ljb2d": _suite_ljb2d,
}
ALL_COMPONENTS = tuple(_SUITES)


def run_suites(components=None, n_instances=DEFAULT_INSTANCES,
               tol=DEFAULT_TOL, seed=0):
    """Run the named suites (all by default); returns a SuiteResult list."""
    if n_instances < 1:
        raise ConfigError(
            f"gradcheck needs at least 1 instance, got {n_instances}")
    if not 0.0 < tol < float("inf"):
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    names = tuple(components) if components else ALL_COMPONENTS
    bad = sorted(set(names) - set(_SUITES))
    if bad:
        raise ConfigError(
            f"unknown component(s): {', '.join(bad)}; "
            f"expected {', '.join(ALL_COMPONENTS)}")
    results = []
    for name in names:
        rng = RngState(seed).child(7000 + ALL_COMPONENTS.index(name))
        start = time.perf_counter()
        worst, total = _SUITES[name](rng, n_instances)
        results.append(SuiteResult(
            component=name, instances=total, worst=worst, tol=tol,
            seconds=time.perf_counter() - start))
    return results
