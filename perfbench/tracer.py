"""Span tracing for the benchmark, installed from outside the package.

The tracer wraps public names that whitenet's layers call one another
through (module globals and ``Model`` methods), records one span per call
with its parent, and keeps every span in memory until the run writes them
out.  Nothing in ``src/`` knows about it.  Hooks are installed for the traced
phase only and removed afterwards, so the untraced phase runs the program
unchanged.

Tracing assumes a single thread: the parent of a span is the innermost span
still open, so traced runs use ``--jobs 1``.
"""

import functools
import importlib
import json
import os
import time


def model_shape_attrs(model):
    """Architecture name and computed GEMM FLOPs per input row of a Model.

    Forward FLOPs count 2*m*k*n per matrix product from the layer specs;
    the backward pass does two products per forward product (parameter
    gradient and input gradient), so it costs twice the forward count.
    """
    arch = "dense"
    per_row = 0
    steps = model.seq_shape[0] if model.seq_shape else 1
    for layer in list(model.layers) + [model.head]:
        spec = layer.spec
        kind = getattr(spec, "kind", "")
        if kind == "dense":
            per_row += 2 * spec.in_dim * spec.out_dim
        elif kind in ("rnn", "lstm"):
            arch = kind
            gates = 4 if kind == "lstm" else 1
            per_row += steps * 2 * gates * spec.hidden * (spec.in_dim + spec.hidden)
    return arch, per_row


def _model_attrs(args, kwargs, result):
    model = args[0]
    arch, per_row = model_shape_attrs(model)
    return {"arch": arch, "flop_per_row": per_row}


def _forward_attrs(args, kwargs, result):
    attrs = _model_attrs(args, kwargs, result)
    attrs["mode"] = args[0].mode
    attrs["rows"] = int(result[0].shape[0])
    return attrs


def _backward_attrs(args, kwargs, result):
    attrs = _model_attrs(args, kwargs, result)
    attrs["rows"] = int(result.shape[0])
    return attrs


def _simulate_attrs(args, kwargs, result):
    return {"steps": int(result.states.shape[0])}


def _windows_attrs(args, kwargs, result):
    return {"windows": int(result.n)}


def _checkpoint_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return None


def _suite_attrs(args, kwargs, result):
    return {"suites": [[r.component, r.seconds] for r in result]}


# (module under whitenet, attribute path, span name, attribute extractor).
# The span name's first part is the layer the time is charged to.
HOOKS = (
    ("cli", "prepare_data", "training.prepare_data", None),
    ("training", "prepare_data", "training.prepare_data", None),
    ("training", "build_regime", "datasets.build_regime", _windows_attrs),
    ("training", "split", "datasets.split", None),
    ("training", "normalize_fit_apply", "datasets.normalize", None),
    ("training", "dataset_manifest", "datasets.manifest", None),
    ("datasets", "simulate", "simulators.simulate", _simulate_attrs),
    ("training", "fit", "training.fit", _model_attrs),
    ("training", "composite_loss", "losses.composite", None),
    ("training", "adam_step", "training.adam_step", None),
    ("training", "dataset_loss", "training.dataset_loss", _model_attrs),
    ("training", "save_run", "training.save_run", None),
    ("training", "save_checkpoint", "nn.save_checkpoint", _checkpoint_attrs),
    ("cli", "load_checkpoint", "nn.load_checkpoint", None),
    ("nn", "Model.forward", "nn.forward", _forward_attrs),
    ("nn", "Model.backward", "nn.backward", _backward_attrs),
    ("nn", "Dense.forward", "nn.layer_forward", None),
    ("nn", "Dense.backward", "nn.layer_backward", None),
    ("nn", "RnnCell.forward", "nn.layer_forward", None),
    ("nn", "RnnCell.backward", "nn.layer_backward", None),
    ("nn", "LstmCell.forward", "nn.layer_forward", None),
    ("nn", "LstmCell.backward", "nn.layer_backward", None),
    ("losses", "mse", "losses.mse", None),
    ("losses", "ljb_loss", "losses.ljb", None),
    ("losses", "composite_loss", "losses.composite", None),
    ("losses", "ljb_loss_2d", "losses.ljb2d", None),
    ("cli", "_eval_one_dir", "cli.eval_dir", None),
    ("cli", "evaluate", "evaluation.evaluate", _model_attrs),
    ("evaluation", "predict", "evaluation.predict", None),
    ("evaluation", "ljb_statistic", "losses.ljb_statistic", None),
    ("cli", "emit", "evaluation.emit", None),
    ("cli", "aggregate", "evaluation.aggregate", None),
    ("gradcheck", "run_suites", "gradcheck.run_suites", _suite_attrs),
)


class Tracer:
    """In-memory span recorder.

    A span is ``[id, parent_id, name, start, end, attrs]`` with times from
    ``time.perf_counter``; ``parent_id`` is -1 for a root span.
    """

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._undo = []

    def _open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else -1,
                name, time.perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def call(self, name, func, *args, **kwargs):
        """Run ``func`` inside a span named ``name``."""
        span = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, func, name, attrs_fn):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs_fn is not None:
                try:
                    span[5] = attrs_fn(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass   # a changed signature loses attributes, not the run
            return result

        return traced

    def install(self):
        """Wrap every hook that exists; record the ones that do not."""
        self.missing = []
        for module_name, path, name, attrs_fn in HOOKS:
            try:
                owner = importlib.import_module(f"whitenet.{module_name}")
            except ImportError:
                owner = None
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(original, name, attrs_fn))
            self._undo.append((owner, attr, original))

    def missing_spans(self):
        """Span names none of whose hooks could be installed."""
        hooks = {}
        for module_name, path, name, _ in HOOKS:
            hooks.setdefault(name, []).append(f"{module_name}.{path}")
        return {name for name, paths in hooks.items()
                if all(p in self.missing for p in paths)}

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"missing_hooks": self.missing,
                       "fields": ["id", "parent", "name", "start", "end", "attrs"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")
