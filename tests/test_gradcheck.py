"""Gradient-suite harness tests, including the wrong-gradient negative controls."""

import time

import numpy as np
import pytest

from conftest import fd_grad
from whitenet import gradcheck, losses, nn
from whitenet.errors import ConfigError
from whitenet.gradcheck import ALL_COMPONENTS, run_suites


def test_all_suites_pass_within_budget():
    start = time.perf_counter()
    results = run_suites()
    elapsed = time.perf_counter() - start
    assert [r.component for r in results] == list(ALL_COMPONENTS)
    for res in results:
        assert res.ok, res.line()
        assert res.worst < 1e-4
        assert res.instances >= 100
    assert elapsed < 60.0


def test_unknown_component_rejected():
    with pytest.raises(ConfigError):
        run_suites(["not_a_layer"])


@pytest.mark.parametrize("n", [0, -3])
def test_fewer_than_one_instance_rejected(n):
    # a suite over no instances would pass without checking anything
    with pytest.raises(ConfigError, match="at least 1 instance"):
        run_suites(n_instances=n)


def test_suites_deterministic():
    a = run_suites(["mse", "ljb"], n_instances=10, seed=5)
    b = run_suites(["mse", "ljb"], n_instances=10, seed=5)
    assert [r.worst for r in a] == [r.worst for r in b]


def test_wrong_loss_gradient_is_caught(monkeypatch):
    real = losses.mse

    def crooked(pred, target):
        value, grad = real(pred, target)
        return value, grad * 1.01

    monkeypatch.setattr(losses, "mse", crooked)
    results = run_suites(["mse"], n_instances=5)
    assert not results[0].ok


def test_wrong_layer_gradient_is_caught(monkeypatch):
    real = nn.RnnCell.backward

    def crooked(self, cache, dout):
        dx = real(self, cache, dout)
        self.b.grad *= 2.0
        return dx

    monkeypatch.setattr(nn.RnnCell, "backward", crooked)
    results = run_suites(["rnn"], n_instances=5)
    assert not results[0].ok


@pytest.mark.parametrize("component",
                         ["lstm", "dense", "composite", "ljb", "ljb2d"])
def test_each_analytic_gradient_kind_is_caught(monkeypatch, component):
    # a parameter gradient, an input gradient and loss gradients, each 1% off
    if component == "lstm":
        real = nn.LstmCell.backward

        def crooked(self, cache, dout):
            dx = real(self, cache, dout)
            self.wx.grad *= 1.01
            return dx

        monkeypatch.setattr(nn.LstmCell, "backward", crooked)
    elif component == "dense":
        real = nn.Dense.backward
        monkeypatch.setattr(nn.Dense, "backward",
                            lambda self, cache, dout:
                            real(self, cache, dout) * 1.01)
    else:
        name = {"composite": "composite_loss", "ljb": "ljb_loss",
                "ljb2d": "ljb_loss_2d"}[component]
        real = getattr(losses, name)

        def crooked(*args, **kwargs):
            value, grad = real(*args, **kwargs)
            return value, grad * 1.01

        monkeypatch.setattr(losses, name, crooked)
    results = run_suites([component], n_instances=5)
    assert not results[0].ok


def test_fd_leaves_its_input_unchanged():
    arr = np.random.default_rng(0).normal(size=(3, 4))
    before = arr.copy()
    fd = gradcheck._fd(arr, lambda s: (s * s).sum(axis=(1, 2)))
    assert np.array_equal(arr.view(np.uint64), before.view(np.uint64))
    assert np.allclose(fd, 2.0 * arr)

    def failing(stack):
        raise FloatingPointError("objective failed part-way")

    with pytest.raises(FloatingPointError):
        gradcheck._fd(arr, failing)
    assert np.array_equal(arr.view(np.uint64), before.view(np.uint64))


def _spy_objectives(monkeypatch, component, pending):
    """Queue, for each array a suite is about to difference, the array and
    its objective as a function of that array alone, written as a per-entry
    loop would evaluate it."""
    if component in ("dense", "rnn", "lstm"):
        real = gradcheck._layer_check

        def layer_check(layer, x, ctx, c):
            def objective(inputs):
                return float(np.sum(layer.forward(inputs, ctx)[0] * c))

            # a parameter is perturbed in place, and the layer reads it
            pending.append((x, objective))
            pending.extend((p.value, lambda v: objective(x))
                           for p in layer.params)
            return real(layer, x, ctx, c)

        monkeypatch.setattr(gradcheck, "_layer_check", layer_check)
    elif component == "dropout":
        real_forward, real_backward = nn.Dropout.forward, nn.Dropout.backward
        seen = {}

        def forward(self, x, ctx):
            out, mask = real_forward(self, x, ctx)
            seen.update(x=x, mask=mask)
            return out, mask

        def backward(self, mask, c):
            x = seen["x"]
            pending.append((x, lambda v: float(np.sum(v * mask * c))))
            return real_backward(self, mask, c)

        monkeypatch.setattr(nn.Dropout, "forward", forward)
        monkeypatch.setattr(nn.Dropout, "backward", backward)
    else:
        name = {"mse": "mse", "ljb": "ljb_loss", "composite": "composite_loss",
                "ljb2d": "ljb_loss_2d"}[component]
        real = getattr(losses, name)

        def loss(arr, *args, **kwargs):
            if not pending.inside_fd:    # the analytic call, not an FD member
                pending.append(
                    (arr, lambda v: real(v, *args, **kwargs)[0]))
            return real(arr, *args, **kwargs)

        monkeypatch.setattr(losses, name, loss)


class _Pending(list):
    """The queue ``_spy_objectives`` fills, and whether an ``_fd`` call is
    running, during which loss calls are FD members, not analytic calls."""

    inside_fd = False


@pytest.mark.parametrize("component", ALL_COMPONENTS)
def test_batched_fd_matches_the_element_loop_bit_for_bit(monkeypatch,
                                                          component):
    pending = _Pending()
    _spy_objectives(monkeypatch, component, pending)
    real_fd = gradcheck._fd
    checked = []

    def fd(arr, values, h=gradcheck._FD_STEP):
        assert h == 1e-5
        pending.inside_fd = True
        try:
            batched = real_fd(arr, values, h)
        finally:
            pending.inside_fd = False
        ref_arr, objective = pending.pop(0)
        assert ref_arr is arr
        reference = fd_grad(objective, arr, h=h)
        assert np.array_equal(batched.view(np.uint64),
                              reference.view(np.uint64))
        checked.append(arr.size)
        return batched

    monkeypatch.setattr(gradcheck, "_fd", fd)
    results = run_suites([component], n_instances=10)
    assert results[0].ok
    assert not pending
    per_instance = 4 if component in ("rnn", "lstm") else \
        3 if component == "dense" else 1
    assert len(checked) == results[0].instances * per_instance
