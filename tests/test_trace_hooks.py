"""Every name the benchmark's tracer hooks resolves in the package, and
its model extractors read real models.

``perfbench/tracer.py`` wraps module globals and ``Model`` methods by name,
and a hook whose name is gone is dropped, with its metrics, only at traced
run time.  This reads the tracer's ``HOOKS`` list and checks each
``(module, attribute path)`` here instead, so a refactor that renames or
deletes a traced name fails the fast tier.  The tracer also swallows the
errors of its attribute extractors, which would leave the per-layer ``nn``
metrics at zero; so the extractors run here on a real forward and backward,
and on the spans of a traced one-seed fit of each architecture.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from test_training import TINY_REGIMES
from whitenet.nn import ARCHS, Model, build_specs
from whitenet.numerics import RngState
from whitenet.training import TrainConfig, run_matrix

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    hooks = _tracer().HOOKS
    assert hooks
    missing = []
    for module_name, path, _, _ in hooks:
        owner = importlib.import_module(f"whitenet.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"whitenet.{module_name}.{path}")
    assert not missing, missing


@pytest.mark.parametrize("arch", ["dense", "rnn", "lstm"])
def test_model_extractors_read_a_real_pass(arch):
    tracer = _tracer()
    specs, seq_shape = build_specs(arch, 10, 3, 10, 2, dropout=0.1)
    model = Model(specs, RngState(1), seq_shape)
    model.set_mode("train")
    batch = 7
    x = RngState(2).normal(size=(batch, 30))
    result = model.forward(x, rng=RngState(3))
    grad_in = model.backward(result[1], np.ones_like(result[0]))
    assert tracer.model_shape_attrs(model)[0] == arch
    fwd = tracer._forward_attrs((model, x), {}, result)
    bwd = tracer._backward_attrs((model, result[1], result[0]), {}, grad_in)
    for attrs in (fwd, bwd):
        assert attrs["arch"] == arch
        assert attrs["flop_per_row"] > 0
        assert attrs["rows"] == batch
    assert fwd["mode"] == "train"


def test_a_traced_fit_reads_its_arch_and_batch_rows():
    # The benchmark's per-arch training metrics and nn.achieved_gflops.*
    # read the arch off each fit, forward and backward span, and the rows
    # off axis 0 of each forward's output and backward's input gradient.
    # One seed that trained without a `fit` span would zero the per-arch
    # metrics, and a stack of one would read rows = 1 off its member axis;
    # neither fails a traced run.
    tracer = _tracer().Tracer()
    batch = 16
    cfg = TrainConfig(max_epochs=1, batch=batch, dropout=0.1)
    tracer.install()
    try:
        for arch in ARCHS:
            run_matrix(["pendulum"], [arch], [1.0], [1], cfg_base=cfg,
                       lb=10, lf=10, regimes_by_system={"pendulum": TINY_REGIMES})
    finally:
        tracer.uninstall()
    assert not tracer.missing
    spans = tracer.spans

    def fit_of(span):
        while span[1] != -1:
            span = spans[span[1]]
            if span[2] == "training.fit":
                return span
        return None

    fits = [span for span in spans if span[2] == "training.fit"]
    assert [span[5]["arch"] for span in fits] == list(ARCHS)
    passes = [span for span in spans if span[2] == "nn.backward" or (
        span[2] == "nn.forward" and span[5]["mode"] == "train")]
    assert {span[2] for span in passes} == {"nn.forward", "nn.backward"}
    for span in passes:
        assert span[5]["rows"] == batch
        assert span[5]["arch"] == fit_of(span)[5]["arch"]
    steps = [span for span in spans if span[2] == "training.adam_step"]
    assert steps and all(fit_of(span) is not None for span in steps)
