"""Every name the benchmark's tracer hooks resolves in the package.

``perfbench/tracer.py`` wraps module globals and ``Model`` methods by name,
and a hook whose name is gone is dropped, with its metrics, only at traced
run time.  This reads the tracer's ``HOOKS`` list and checks each
``(module, attribute path)`` here instead, so a refactor that renames or
deletes a traced name fails the fast tier.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


def test_every_traced_name_resolves():
    hooks = _hooks()
    assert hooks
    missing = []
    for module_name, path, _, _ in hooks:
        owner = importlib.import_module(f"whitenet.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"whitenet.{module_name}.{path}")
    assert not missing, missing
