"""End-to-end command line tests: contracts, exit codes, determinism."""

import filecmp
import inspect
import json
import os
import re
import weakref

import numpy as np
import pytest

from whitenet import cli, losses, training
from whitenet.cli import main
from whitenet.datasets import csv_ingest
from whitenet.evaluation import load_report

FAST_TRAIN = ["--epochs", "2", "--batch", "256"]


def _train(out, *extra):
    argv = ["train", "--system", "pendulum", "--model", "dense",
            "--out", str(out)] + FAST_TRAIN + list(extra)
    return main(argv)


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_csv_and_manifest(tmp_path):
    assert main(["simulate", "--system", "pendulum", "--amplitude", "0.5",
                 "--steps", "60", "--seed", "1", "--out", str(tmp_path)]) == 0
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == 1
    traj = csv_ingest(csvs[0])
    assert traj.states.shape == (60, 3)
    assert traj.actions.shape == (60, 1)
    manifest = json.loads((tmp_path / "pendulum_seed1_manifest.json").read_text())
    assert manifest["system"] == "pendulum"
    assert manifest["regime"]["amplitude"] == 0.5
    assert manifest["files"] == [os.path.basename(csvs[0])]


def test_simulate_unknown_system_is_usage_error(tmp_path, capsys):
    assert main(["simulate", "--system", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown system" in capsys.readouterr().err


@pytest.mark.parametrize("system, flag, value", [
    ("pendulum", "--init-jitter", "5"),
    ("backlash", "--init-jitter", "0.1"),
    ("double_pendulum", "--amplitude", "2"),
    ("double_pendulum", "--hold", "3"),
])
def test_simulate_flag_the_system_ignores_is_usage_error(tmp_path, capsys,
                                                         system, flag, value):
    out = tmp_path / "sim"
    assert main(["simulate", "--system", system, flag, value, "--steps", "20",
                 "--out", str(out)]) == 2
    assert f"{flag} does nothing for --system {system}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_flags_the_system_reads_are_recorded(tmp_path):
    for system, flag, key, value in (
            ("double_pendulum", "--init-jitter", "init_jitter", 0.5),
            ("backlash", "--amplitude", "amplitude", 2.0),
            ("pendulum", "--hold", "hold", 3)):
        assert main(["simulate", "--system", system, flag, str(value),
                     "--steps", "20", "--out", str(tmp_path)]) == 0
        manifest = json.loads(
            (tmp_path / f"{system}_seed0_manifest.json").read_text())
        assert manifest["regime"][key] == value
    # omitted flags keep the defaults, whatever the system reads
    assert manifest["regime"]["amplitude"] == 0.5
    assert manifest["regime"]["init_jitter"] == 0.1


def test_simulate_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["simulate", "--system", "backlash", "--steps", "50",
                     "--seed", "7", "--out", str(tmp_path / sub)]) == 0
    a = (tmp_path / "a" / "backlash_seed7_traj0.csv").read_bytes()
    b = (tmp_path / "b" / "backlash_seed7_traj0.csv").read_bytes()
    assert a == b


def test_simulate_multiple_trajectories(tmp_path):
    assert main(["simulate", "--system", "double_pendulum", "--steps", "40",
                 "--n-traj", "3", "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.csv"))) == 3


# ---------------------------------------------------------------------------
# train

def test_train_writes_run_dir(tmp_path):
    assert _train(tmp_path, "--seed", "1") == 0
    run_dir = tmp_path / "pendulum_dense_lam1_seed1"
    for name in ("checkpoint.json", "record.json", "losses.csv"):
        assert (run_dir / name).exists()
    record = json.loads((run_dir / "record.json").read_text())
    assert record["error"] is None
    assert record["config"]["system"] == "pendulum"
    assert record["config"]["train"]["max_epochs"] == 2
    assert len(record["val_losses"]) == record["epochs_run"]
    assert (tmp_path / "pendulum_dense_lam1_matrix.json").exists()


def test_train_prints_the_matrix_time_once(tmp_path, capsys):
    # a stack's seeds finish together: one wall time for the whole matrix
    assert _train(tmp_path, "--seeds", "1,2,3", "--jobs", "3") == 0
    out = capsys.readouterr().out
    assert len(re.findall(r"\d+\.\ds\b", out)) == 1
    assert re.search(r"^3/3 runs trained in \d+\.\ds, ", out, re.M)


def test_train_seed_list_makes_subdirectories(tmp_path):
    assert _train(tmp_path, "--seeds", "1,2,3", "--epochs", "1") == 0
    dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
    assert dirs == [f"pendulum_dense_lam1_seed{s}" for s in (1, 2, 3)]


def test_train_loss_mse_equals_lambda_zero(tmp_path):
    assert _train(tmp_path / "a", "--loss", "mse", "--seed", "4") == 0
    assert _train(tmp_path / "b", "--loss", "mse+ljb", "--lambda", "0",
                  "--seed", "4") == 0
    ck = "pendulum_dense_lam0_seed4/checkpoint.json"
    assert (tmp_path / "a" / ck).read_bytes() == (tmp_path / "b" / ck).read_bytes()


def test_train_repeat_is_bit_identical(tmp_path):
    for sub in ("a", "b"):
        assert _train(tmp_path / sub, "--seed", "2") == 0
    run = "pendulum_dense_lam1_seed2"
    cmp = filecmp.dircmp(tmp_path / "a" / run, tmp_path / "b" / run)
    assert not cmp.diff_files and not cmp.left_only and not cmp.right_only
    for name in cmp.common_files:
        assert (tmp_path / "a" / run / name).read_bytes() == \
            (tmp_path / "b" / run / name).read_bytes()


def test_train_usage_errors(tmp_path, capsys):
    assert main(["train", "--system", "bogus", "--out", str(tmp_path)]) == 2
    assert main(["train", "--model", "gru", "--out", str(tmp_path)]) == 2
    assert main(["train", "--loss", "mse", "--lambda", "1.0",
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_train_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch": 64, "seeds": [5]}))
    assert main(["train", "--system", "pendulum", "--model", "dense",
                 "--config", str(cfg), "--epochs", "2",
                 "--out", str(tmp_path)]) == 0
    record = json.loads(
        (tmp_path / "pendulum_dense_lam1_seed5" / "record.json").read_text())
    assert record["config"]["train"]["max_epochs"] == 2   # flag beats file
    assert record["config"]["train"]["batch"] == 64       # file beats default


def test_train_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epohcs": 1}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_train_rejects_jobs_below_one(tmp_path, capsys):
    assert _train(tmp_path, "--jobs", "0") == 2
    assert _train(tmp_path, "--jobs", "-2") == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 0}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("--jobs must be") == 3
    assert not any(p.is_dir() for p in tmp_path.iterdir())


@pytest.fixture
def no_data(monkeypatch):
    """Fail any data build: a usage error must come before it."""
    def prepare_data(*args, **kwargs):
        raise AssertionError("data was built")

    monkeypatch.setattr(training, "prepare_data", prepare_data)


@pytest.mark.parametrize("flags, message", [
    (["--seeds", ""], "seed list is empty"),
    (["--seeds", "1,1", "--jobs", "2"], "seed(s) 1 given more than once"),
    (["--seeds", "3,1,3,1,2"], "seed(s) 1, 3 given more than once"),
    (["--lags", "0"], "--lags must be >= 1, got 0"),
    (["--lf", "5", "--lags", "5"], "--lf 5 must exceed --lags 5"),
    (["--loss", "mse+ljb", "--lf", "4", "--lags", "6"],
     "--lf 4 must exceed --lags 6"),
    # trained and exited 0, but eval of the run exited 1
    (["--loss", "mse", "--lf", "5", "--lags", "5"],
     "--lf 5 must exceed --lags 5: the whiteness statistic"),
    # wrote a failed run dir, or created --out, and exited 1
    (["--seeds", "2,-1"], "seeds must be >= 0, got -1"),
    (["--lb", "0"], "--lb must be >= 1, got 0"),
    (["--lf", "0"], "--lf must be >= 1, got 0"),
    # crashed with a traceback from the random stream
    (["--data-seed", "-1"], "--data-seed must be >= 0, got -1"),
    # created --out, then exited 1: no window fits a 519-step trajectory
    (["--lb", "300", "--lf", "300"],
     "--lb + --lf = 600 exceeds the 519 steps of a pendulum trajectory"),
])
def test_train_seeds_and_windows_are_checked_first(tmp_path, capsys,
                                                   no_data, flags, message):
    # at the parent each of these trained nothing or trained a seed twice
    # and exited 0, or built the data and failed every run with exit 1
    assert _train(tmp_path, *flags) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_train_defaults_are_train_configs(tmp_path, monkeypatch):
    # each hyperparameter flag, and the TrainConfig field it sets
    fields = {"lr": "lr0", "batch": "batch", "epochs": "max_epochs",
              "plateau_patience": "plateau_patience", "lr_factor": "lr_factor",
              "early_stop_patience": "early_stop_patience", "lam": "lam",
              "lags": "lags", "l2": "l2", "dropout": "dropout",
              "grad_clip": "grad_clip"}
    bases = []

    def run_matrix(**kwargs):
        bases.append(kwargs["cfg_base"])
        return []

    monkeypatch.setattr(cli, "run_matrix", run_matrix)
    assert main(["train", "--out", str(tmp_path)]) == 0
    manifest = json.loads(
        (tmp_path / "pendulum_dense_lam1_matrix.json").read_text())
    default = training.TrainConfig()
    assert bases == [default]
    assert {flag: manifest[flag] for flag in fields} == \
        {flag: getattr(default, name) for flag, name in fields.items()}
    # the flags that are run_matrix arguments default to run_matrix's own
    params = inspect.signature(training.run_matrix).parameters
    for flag in ("lb", "lf", "data_seed", "jobs"):
        assert manifest[flag] == params[flag].default, flag


def test_train_config_empty_seed_list(tmp_path, capsys, no_data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": []}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "seed list is empty" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("doc, message", [
    # a string of digits was iterated into seeds 1 and 2
    ({"seeds": "12"}, "'seeds' must be a list of integers, got '12'"),
    ({"seeds": [1, "2"]}, "'seeds' must be a list of integers"),
    # a string lr died on an uncaught TypeError
    ({"lr": "0.1"}, "'lr' must be a number, got '0.1'"),
    ({"epochs": 2.5}, "'epochs' must be an integer, got 2.5"),
    ({"batch": True}, "'batch' must be an integer, got True"),
    ({"system": 1}, "'system' must be a string, got 1"),
    ([1, 2], "must hold a JSON object"),
])
def test_train_config_values_are_type_checked(tmp_path, capsys, no_data,
                                              doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_train_config_numbers_and_null_out_are_accepted(tmp_path):
    # an integer fits a float key, and "out": null falls back to --out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lr": 1, "lam": 1, "epochs": 1, "out": None,
                               "seeds": [4]}))
    assert main(["train", "--config", str(cfg), "--batch", "256",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pendulum_dense_lam1_seed4" / "record.json").exists()


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergence_exits_1_with_record(tmp_path):
    code = _train(tmp_path, "--seed", "1", "--lr", "1e200",
                  "--grad-clip", "1e300")
    assert code == 1
    record = json.loads(
        (tmp_path / "pendulum_dense_lam1_seed1" / "record.json").read_text())
    assert "diverged" in record["error"]


def test_train_divergence_warns_nothing(tmp_path):
    # the overflow to inf/NaN surfaces as DivergenceError, not as numpy noise
    code = _train(tmp_path, "--seed", "1", "--lr", "1e200",
                  "--grad-clip", "1e300")
    assert code == 1
    record = json.loads(
        (tmp_path / "pendulum_dense_lam1_seed1" / "record.json").read_text())
    assert "diverged" in record["error"]


def test_failed_run_record_is_strict_json(tmp_path):
    # a failed run finished no validation epoch: best_val_loss is null,
    # where it was Infinity, which strict JSON parsers reject
    code = _train(tmp_path, "--seed", "1", "--lr", "1e200",
                  "--grad-clip", "1e300")
    assert code == 1

    def no_constants(name):
        raise AssertionError(f"record.json holds {name}")

    record = json.loads(
        (tmp_path / "pendulum_dense_lam1_seed1" / "record.json").read_text(),
        parse_constant=no_constants)
    assert "diverged" in record["error"]
    assert record["best_val_loss"] is None


# ---------------------------------------------------------------------------
# eval

def test_eval_emits_reports(tmp_path):
    assert _train(tmp_path, "--seed", "1") == 0
    run_dir = tmp_path / "pendulum_dense_lam1_seed1"
    assert main(["eval", str(run_dir)]) == 0
    for name in ("interp", "extrap"):
        assert (run_dir / f"report_{name}.md").exists()
        assert (run_dir / f"acf_{name}.csv").exists()
        rep = load_report(run_dir / f"report_{name}.json")
        assert np.all(np.isfinite(rep.rmse))
        assert rep.channels == ("cos_theta", "sin_theta", "omega")
        assert rep.dataset_id == name


def test_eval_acf_csv_flag(tmp_path):
    assert _train(tmp_path, "--seed", "1") == 0
    run_dir = tmp_path / "pendulum_dense_lam1_seed1"
    target = tmp_path / "plot.csv"
    assert main(["eval", str(run_dir), "--acf-csv", str(target)]) == 0
    assert target.exists()
    assert (tmp_path / "plot_extrap.csv").exists()


def test_eval_acf_csv_with_many_run_dirs_is_usage_error(tmp_path, capsys):
    # one --acf-csv path cannot hold every run's data: the flag is refused,
    # not dropped, and nothing is evaluated
    assert _train(tmp_path, "--seeds", "1,2", "--epochs", "1") == 0
    capsys.readouterr()
    runs = [str(tmp_path / f"pendulum_dense_lam1_seed{s}") for s in (1, 2)]
    target = tmp_path / "plot.csv"
    assert main(["eval", *runs, "--acf-csv", str(target)]) == 2
    assert "--acf-csv names one file" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/report_*"))
    assert not list(tmp_path.glob("**/*acf*.csv"))
    assert not target.exists()


def test_eval_missing_checkpoint_exits_1(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "nonexistent")]) == 1
    assert _train(tmp_path, "--seed", "1") == 0
    run_dir = tmp_path / "pendulum_dense_lam1_seed1"
    (run_dir / "checkpoint.json").unlink()
    assert main(["eval", str(run_dir)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["failed", "no-checkpoint"])
def test_eval_checks_every_run_dir_before_writing_reports(tmp_path, capsys,
                                                          bad):
    # every run dir is checked first: eval used to write the good run dir's
    # reports, then reach the bad one and exit 1
    assert _train(tmp_path / "good", "--seed", "1", "--epochs", "1") == 0
    good = tmp_path / "good" / "pendulum_dense_lam1_seed1"
    if bad == "failed":
        assert _train(tmp_path / "bad", "--seed", "1", "--lr", "1e200",
                      "--grad-clip", "1e300") == 1
        bad_dir = tmp_path / "bad" / "pendulum_dense_lam1_seed1"
        message = f"{bad_dir} holds a failed run"
    else:
        assert _train(tmp_path / "bad", "--seed", "1", "--epochs", "1") == 0
        bad_dir = tmp_path / "bad" / "pendulum_dense_lam1_seed1"
        (bad_dir / "checkpoint.json").unlink()
        message = f"missing checkpoint {bad_dir / 'checkpoint.json'}"
    capsys.readouterr()
    out = tmp_path / "reports"
    assert main(["eval", str(good), str(bad_dir), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("**/report_*"))


def test_eval_rejects_a_file_among_run_dirs(tmp_path, capsys):
    # `whitenet eval OUT/*` also matches the matrix JSON that train writes
    assert _train(tmp_path, "--seeds", "1,2", "--epochs", "1") == 0
    capsys.readouterr()
    runs = sorted(str(p) for p in tmp_path.iterdir() if p.is_dir())
    matrix = tmp_path / "pendulum_dense_lam1_matrix.json"
    assert matrix.is_file()
    # the file comes last: it is rejected before any run dir is evaluated
    assert main(["eval", *runs, str(matrix)]) == 2
    err = capsys.readouterr().err
    assert f"{matrix} is not a run directory" in err
    assert not list(tmp_path.glob("*/report_*"))


def test_eval_rejects_one_run_dir_given_twice(tmp_path, capsys):
    # at the parent `eval RUN RUN/ --aggregate` aggregated one run as two
    assert _train(tmp_path, "--seed", "1", "--epochs", "1") == 0
    run_dir = tmp_path / "pendulum_dense_lam1_seed1"
    capsys.readouterr()
    out = tmp_path / "reports"
    assert main(["eval", str(run_dir), f"{run_dir}/", "--aggregate",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{run_dir}/ and {run_dir} are the same run directory" in err
    assert not out.exists()


@pytest.mark.parametrize("fname", ["record.json", "checkpoint.json"])
def test_eval_truncated_json_exits_1_naming_the_file(tmp_path, capsys, fname):
    # an interrupted write leaves a file cut short; it was a traceback
    assert _train(tmp_path, "--seed", "1", "--epochs", "1") == 0
    path = tmp_path / "pendulum_dense_lam1_seed1" / fname
    path.write_bytes(path.read_bytes()[:100])
    capsys.readouterr()
    assert main(["eval", str(path.parent)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path} is not valid JSON")


def test_eval_nan_in_checkpoint_exits_1_and_writes_nothing(tmp_path, capsys):
    # json reads NaN by default; eval then wrote the markdown report and
    # failed on the JSON one, leaving a partial report set
    assert _train(tmp_path, "--seed", "1", "--epochs", "1") == 0
    path = tmp_path / "pendulum_dense_lam1_seed1" / "checkpoint.json"
    doc = json.loads(path.read_text())
    first = next(iter(doc["parameters"].values()))
    first[0][0] = float("nan")
    path.write_text(json.dumps(doc))   # json writes the token NaN
    capsys.readouterr()
    out = tmp_path / "reports"
    assert main(["eval", str(path.parent), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not valid JSON")
    assert "checkpoint.json" in err
    assert not out.exists()


def test_eval_holds_one_systems_data_at_a_time(tmp_path, monkeypatch):
    for system in ("pendulum", "backlash"):
        assert main(["train", "--system", system, "--model", "dense",
                     "--seeds", "1,2", "--out", str(tmp_path)] + FAST_TRAIN) == 0
    runs = sorted(str(p) for p in tmp_path.iterdir() if p.is_dir())
    built = []     # (system, weakref) for every dataset prepare_data made
    real_prepare, real_evaluate = cli.prepare_data, cli.evaluate

    def prepare_data(system, **kwargs):
        data = real_prepare(system, **kwargs)
        built.extend((system, weakref.ref(data[name]))
                     for name in ("train", "val", "extrap"))
        return data

    def evaluate(model, ds, **kwargs):
        live = [system for system, ref in built if ref() is not None]
        # this system's val and extrap: no train split, no other system
        assert len(live) == 2 and len(set(live)) == 1, live
        return real_evaluate(model, ds, **kwargs)

    monkeypatch.setattr(cli, "prepare_data", prepare_data)
    monkeypatch.setattr(cli, "evaluate", evaluate)
    assert main(["eval", *runs, "--aggregate",
                 "--out", str(tmp_path / "reports")]) == 0
    assert [system for system, _ in built[::3]] == ["backlash", "pendulum"]
    assert all(ref() is None for _, ref in built)


@pytest.mark.parametrize("lfs, lags, message", [
    pytest.param([10], "0", "--lags must be >= 1, got 0", id="0"),
    pytest.param([10], "-1", "--lags must be >= 1, got -1", id="-1"),
    # the first run's reports were written, then evaluate raised: exit 1
    pytest.param([12, 10], "11", "--lags 11 must be below the lookforward 10",
                 id="at-or-above-a-runs-lf"),
])
def test_eval_lags_below_one_is_usage_error(tmp_path, capsys, lfs, lags,
                                            message):
    runs = []
    for i, lf in enumerate(lfs):
        assert _train(tmp_path / str(i), "--seed", "1", "--epochs", "1",
                      "--lf", str(lf)) == 0
        runs.append(str(tmp_path / str(i) / "pendulum_dense_lam1_seed1"))
    capsys.readouterr()
    assert main(["eval", *runs, "--lags", lags]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("**/report_*"))
    assert not list(tmp_path.glob("**/acf_*"))


def test_eval_reads_each_record_once(tmp_path, monkeypatch):
    assert _train(tmp_path, "--seeds", "1,2", "--epochs", "1") == 0
    runs = sorted(str(p) for p in tmp_path.iterdir() if p.is_dir())
    reads = []
    real_load_run = cli.load_run

    def load_run(run_dir):
        reads.append(run_dir)
        return real_load_run(run_dir)

    monkeypatch.setattr(cli, "load_run", load_run)
    assert main(["eval", *runs, "--aggregate",
                 "--out", str(tmp_path / "reports")]) == 0
    assert sorted(reads) == runs


def test_eval_aggregate_over_seeds(tmp_path):
    assert _train(tmp_path, "--seeds", "1,2", "--epochs", "1") == 0
    dirs = [str(tmp_path / f"pendulum_dense_lam1_seed{s}") for s in (1, 2)]
    out = tmp_path / "reports"
    assert main(["eval", *dirs, "--aggregate", "--out", str(out)]) == 0
    agg_md = out / "aggregate_pendulum_dense_lam1_drop_interp.md"
    assert agg_md.exists()
    assert "2 seeds" in agg_md.read_text()
    doc = json.loads(
        (out / "aggregate_pendulum_dense_lam1_drop_extrap.json").read_text())
    assert doc["n_seeds"] == 2
    assert len(doc["run_ids"]) == 2


def test_eval_reports_are_deterministic(tmp_path):
    assert _train(tmp_path, "--seed", "1", "--epochs", "1") == 0
    run_dir = tmp_path / "pendulum_dense_lam1_seed1"
    assert main(["eval", str(run_dir), "--out", str(tmp_path / "r1")]) == 0
    assert main(["eval", str(run_dir), "--out", str(tmp_path / "r2")]) == 0
    name = "pendulum_dense_lam1_seed1_report_interp.json"
    assert (tmp_path / "r1" / name).read_bytes() == \
        (tmp_path / "r2" / name).read_bytes()


# ---------------------------------------------------------------------------
# gradcheck / misc

def test_gradcheck_command_passes():
    assert main(["gradcheck", "--component", "mse", "--component", "dropout",
                 "--instances", "5"]) == 0


def test_gradcheck_unknown_component(capsys):
    assert main(["gradcheck", "--component", "softmax"]) == 2
    assert "unknown component" in capsys.readouterr().err


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_gradcheck_instances_below_one_is_usage_error(capsys, instances):
    assert main(["gradcheck", "--instances", instances]) == 2
    captured = capsys.readouterr()
    assert "at least 1 instance" in captured.err
    assert "pass" not in captured.out
    assert main(["gradcheck", "--component", "mse",
                 "--instances", instances]) == 2
    capsys.readouterr()


def test_gradcheck_wrong_gradient_exits_nonzero(monkeypatch):
    real = losses.mse
    monkeypatch.setattr(
        losses, "mse",
        lambda p, t: (real(p, t)[0], real(p, t)[1] + 0.01))
    assert main(["gradcheck", "--component", "mse", "--instances", "3"]) == 1


def test_bench_is_unknown_command(capsys):
    assert main(["bench"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_out_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("WHITENET_OUT", str(tmp_path / "envroot"))
    assert main(["simulate", "--system", "pendulum", "--steps", "30"]) == 0
    assert len(list((tmp_path / "envroot").glob("*.csv"))) == 1


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
