"""Seeded mutations of a run's artifacts, checked at their loaders.

One one-epoch run is trained.  Then every key of its ``record.json``, and
every top-level and layer-spec key of its ``checkpoint.json``, is rewritten
nine ways: deleted, or set to "x", -1, 0, 10**6, 0.5, null, [] or {}.  The
loader must give back what the file describes or raise a typed error that
names the file; any other exception, or any warning, is a failure.  Each
check reads a small file and builds no data, so the whole table runs in
about a second.  No size flag is swept: the run is trained once, at its
smallest.
"""

import json
import warnings

import pytest

from whitenet.cli import main
from whitenet.errors import ConfigError, ShapeError
from whitenet.nn import Model, load_checkpoint
from whitenet.training import RunRecord, load_run

_DELETE = object()
_VALUES = (_DELETE, "x", -1, 0, 10**6, 0.5, None, [], {})


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    assert main(["train", "--system", "pendulum", "--model", "dense",
                 "--epochs", "1", "--batch", "256", "--seed", "1",
                 "--out", str(out)]) == 0
    return out / "pendulum_dense_lam1_seed1"


def _key_paths(doc, prefix=()):
    """The path of every key of ``doc`` and of the objects within it; lists
    are not entered."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _mutations(path, key_paths, load, errors):
    """Rewrite the file at ``path`` at each key path in each way, and call
    ``load`` on each.  Returns every case that broke the contract."""
    text = path.read_text()
    broken = []
    for key_path in key_paths:
        for value in _VALUES:
            doc = json.loads(text)
            *parents, key = key_path
            target = doc
            for parent in parents:
                target = target[parent]
            if value is _DELETE:
                del target[key]
            else:
                target[key] = value
            path.write_text(json.dumps(doc))
            case = (key_path, "deleted" if value is _DELETE else value)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    load()
            except errors as exc:
                if not str(exc).startswith(f"{path}: "):
                    broken.append((case, f"does not name the file: {exc}"))
            except Exception as exc:
                broken.append((case, f"{type(exc).__name__}: {exc}"))
    path.write_text(text)
    return broken


def test_every_record_key_mutation_loads_or_is_refused_naming_the_file(
        run_dir):
    path = run_dir / "record.json"
    key_paths = list(_key_paths(json.loads(path.read_text())))
    assert ("config", "train", "lags") in key_paths
    assert ("datasets", "val", "normalization", "mean") in key_paths

    def load():
        assert isinstance(load_run(str(run_dir)), RunRecord)

    assert _mutations(path, key_paths, load, ConfigError) == []


def test_every_checkpoint_key_mutation_loads_or_is_refused_naming_the_file(
        run_dir):
    path = run_dir / "checkpoint.json"
    doc = json.loads(path.read_text())
    # the parameters key itself, but none of its arrays
    key_paths = [(key,) for key in doc] + [
        ("layer_specs", i, key)
        for i, spec in enumerate(doc["layer_specs"]) for key in spec]
    assert {spec["kind"] for spec in doc["layer_specs"]} == {"dropout",
                                                            "dense"}

    def load():
        assert isinstance(load_checkpoint(path)[0], Model)

    assert _mutations(path, key_paths, load, (ConfigError, ShapeError)) == []
