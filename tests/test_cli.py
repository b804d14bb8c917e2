"""End-to-end command line tests: contracts, exit codes, determinism."""

import filecmp
import json
import os
import re

import numpy as np
import pytest

from whitenet import cli, losses
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


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergence_exits_1_with_record(tmp_path):
    code = _train(tmp_path, "--seed", "1", "--lr", "1e200",
                  "--grad-clip", "1e300")
    assert code == 1
    record = json.loads(
        (tmp_path / "pendulum_dense_lam1_seed1" / "record.json").read_text())
    assert "diverged" in record["error"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_warns_nothing(tmp_path):
    # the overflow to inf/NaN surfaces as DivergenceError, not as numpy noise
    code = _train(tmp_path, "--seed", "1", "--lr", "1e200",
                  "--grad-clip", "1e300")
    assert code == 1
    record = json.loads(
        (tmp_path / "pendulum_dense_lam1_seed1" / "record.json").read_text())
    assert "diverged" in record["error"]


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


def test_eval_missing_checkpoint_exits_1(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "nonexistent")]) == 1
    assert _train(tmp_path, "--seed", "1") == 0
    run_dir = tmp_path / "pendulum_dense_lam1_seed1"
    (run_dir / "checkpoint.json").unlink()
    assert main(["eval", str(run_dir)]) == 1
    capsys.readouterr()


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
# gradcheck / bench / misc

def test_gradcheck_command_passes():
    assert main(["gradcheck", "--component", "mse", "--component", "dropout",
                 "--instances", "5"]) == 0


def test_gradcheck_unknown_component(capsys):
    assert main(["gradcheck", "--component", "softmax"]) == 2
    assert "unknown component" in capsys.readouterr().err


def test_gradcheck_wrong_gradient_exits_nonzero(monkeypatch):
    real = losses.mse
    monkeypatch.setattr(
        losses, "mse",
        lambda p, t: (real(p, t)[0], real(p, t)[1] + 0.01))
    assert main(["gradcheck", "--component", "mse", "--instances", "3"]) == 1


def test_bench_runs():
    assert main(["bench", "--rows", "16", "--n", "24", "--steps", "60",
                 "--reps", "1"]) == 0


_BENCH_SMALL = ["bench", "--rows", "16", "--n", "24", "--steps", "60", "--reps", "1"]


def test_bench_without_numba_prints_no_speedup(monkeypatch, capsys):
    monkeypatch.setattr(cli, "NUMBA_ENABLED", False)
    assert main(_BENCH_SMALL) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [r.split()[0] for r in rows] == ["ljb2d_value_grad", "dp_rollout"]
    for row in rows:
        assert row.split()[-1] == "n/a"
        assert len(re.findall(r"\d+\.\d+ms", row)) == 1
        assert not re.search(r"\d+\.\dx", row)


def test_bench_with_numba_prints_speedup(monkeypatch, capsys):
    monkeypatch.setattr(cli, "NUMBA_ENABLED", True)
    assert main(_BENCH_SMALL) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 2
    for row in rows:
        assert re.fullmatch(r"\S+\s+\d+\.\d+ms\s+\d+\.\d+ms\s+\d+\.\dx", row)


def test_out_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("WHITENET_OUT", str(tmp_path / "envroot"))
    assert main(["simulate", "--system", "pendulum", "--steps", "30"]) == 0
    assert len(list((tmp_path / "envroot").glob("*.csv"))) == 1


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
