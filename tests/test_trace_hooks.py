"""Every name the benchmark's tracer hooks resolves in the package, and
its model extractors read real models.

``perfbench/tracer.py`` wraps module globals and ``Model`` methods by name,
and a hook whose name is gone is dropped, with its metrics, only at traced
run time.  This reads the tracer's ``HOOKS`` list and checks each
``(module, attribute path)`` here instead, so a refactor that renames or
deletes a traced name fails the fast tier.  The tracer also swallows the
errors of its attribute extractors, which would leave the per-layer ``nn``
metrics at zero; so the extractors run here on a real forward and backward.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from whitenet.nn import Model, build_specs
from whitenet.numerics import RngState

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
