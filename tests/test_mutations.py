"""Seeded mutations of a run's artifacts, checked at their loaders.

One one-epoch run is trained for each of two architectures, dense and
rnn.  Then every key of each run's ``record.json``, and every top-level and
layer-spec key of its ``checkpoint.json`` (the rnn's ``seq_shape`` and its
cell's ``hidden`` among them), is rewritten nine ways: deleted, or set to
"x", -1, 0, 10**6, 0.5, null, [] or {}.  The loader must give back what the
file describes or raise a typed error that names the file; any other
exception, or any warning, is a failure.  A checkpoint is loaded as the
model its run's record builds, so a claimed width is refused before
anything is allocated at it.  Each check reads a small file and builds no
data, so the whole table runs in a few seconds.  No size flag is swept:
each run is trained once, at its smallest.
"""

import json
import shutil
import warnings

import pytest

from whitenet.cli import main
from whitenet.errors import ConfigError, ShapeError
from whitenet.nn import Model, build_specs, load_checkpoint
from whitenet.training import RunRecord, load_run

_DELETE = object()
_VALUES = (_DELETE, "x", -1, 0, 10**6, 0.5, None, [], {})


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A one-epoch pendulum run dir of each of dense and rnn, each with the
    specs and seq_shape that its record's config builds."""
    out = tmp_path_factory.mktemp("runs")
    runs = []
    for arch in ("dense", "rnn"):
        assert main(["train", "--system", "pendulum", "--model", arch,
                     "--epochs", "1", "--batch", "256", "--seed", "1",
                     "--out", str(out)]) == 0
        run_dir = out / f"pendulum_{arch}_lam1_seed1"
        config = load_run(str(run_dir)).config
        val = json.loads((run_dir / "record.json").read_text())[
            "datasets"]["val"]
        runs.append((run_dir, build_specs(
            arch, config.lb, len(val["input_names"]), config.lf,
            len(val["target_names"]), dropout=config.train.dropout)))
    return runs


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
        runs):
    for run_dir, _ in runs:
        path = run_dir / "record.json"
        key_paths = list(_key_paths(json.loads(path.read_text())))
        assert ("config", "train", "lags") in key_paths
        assert ("datasets", "val", "normalization", "mean") in key_paths

        def load():
            assert isinstance(load_run(str(run_dir)), RunRecord)

        assert _mutations(path, key_paths, load, ConfigError) == []


def test_every_checkpoint_key_mutation_loads_or_is_refused_naming_the_file(
        runs):
    kinds = []
    for run_dir, (specs, seq_shape) in runs:
        path = run_dir / "checkpoint.json"
        doc = json.loads(path.read_text())
        # the parameters key itself, but none of its arrays
        key_paths = [(key,) for key in doc] + [
            ("layer_specs", i, key)
            for i, spec in enumerate(doc["layer_specs"]) for key in spec]
        kinds.append([spec["kind"] for spec in doc["layer_specs"]])

        def load():
            assert isinstance(load_checkpoint(path, specs, seq_shape)[0],
                              Model)

        assert _mutations(path, key_paths, load,
                          (ConfigError, ShapeError)) == []
    assert kinds == [["dropout", "dense", "dense", "dense"],
                     ["dropout", "rnn", "dense"]]


def test_eval_of_an_rnn_checkpoint_claiming_hidden_1e6_exits_1(
        runs, tmp_path, capsys):
    # the cell's claimed width was allocated before it was checked: a
    # MemoryError traceback for 7.28 TiB.  The checkpoint is now compared
    # with the model the record builds first, so no memory limit is needed
    run_dir = tmp_path / "run"
    shutil.copytree(runs[1][0], run_dir)
    path = run_dir / "checkpoint.json"
    doc = json.loads(path.read_text())
    assert doc["layer_specs"][1]["kind"] == "rnn"
    doc["layer_specs"][1]["hidden"] = 10**6
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: layer_specs[1] is ")
    assert '"hidden": 1000000' in err and "Traceback" not in err
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "checkpoint.json", "losses.csv", "record.json"]
