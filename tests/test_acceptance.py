"""Acceptance suite: one printed pass/fail line per criterion.

The training-dependent criteria run real desk-scale matrices, so this module
is the slow part of the test run (roughly five minutes on a small CPU box).
Every run is seeded; results are deterministic for a given build.  The lines
are echoed again in the terminal summary by the conftest hook.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import record_criterion
from whitenet import gradcheck
from whitenet.cli import main
from whitenet.evaluation import aggregate, chi2_upper_tail, emit_comparison, evaluate
from whitenet.losses import LossConfig, ljb_statistic
from whitenet.numerics import RngState
from whitenet.simulators import (
    BacklashMotorParams,
    DoublePendulumParams,
    PendulumParams,
    double_pendulum_energy,
    step_backlash_motor,
    step_double_pendulum,
    step_pendulum,
)
from whitenet.training import TrainConfig, prepare_data, run_matrix

pytestmark = pytest.mark.acceptance

SEEDS = [1, 2, 3, 4, 5]
CFG = TrainConfig(max_epochs=200, dropout=0.0, lr0=0.02)
# Whitening weights found during bring-up: strong enough to whiten residuals,
# weak enough to keep the interpolation-RMSE inflation inside the stated caps.
PENDULUM_LAM = {"dense": 0.02, "rnn": 0.015}
BACKLASH_LAM = 0.01


def _mean_metric(arm, dsname, metric):
    return np.mean([getattr(rep[dsname], metric) for rep in arm], axis=0)


def _ratio(ljb_arm, base_arm, dsname, metric):
    return _mean_metric(ljb_arm, dsname, metric) / _mean_metric(base_arm, dsname, metric)


def _margin(margins):
    """Line text for the tightest of the named margins, each the relative
    distance of a value to its cap; negative once a value is past it."""
    name = min(margins, key=margins.get)
    return f"margin {100.0 * margins[name]:.1f}% on {name}"


def _state_margins(ratios, channels, cap):
    """Relative margins of per-state ratios under ``cap``, per arch and state."""
    return {f"{arch} {ch}": (cap - r) / cap
            for arch, per_state in ratios.items()
            for ch, r in zip(channels, per_state)}


def _eval_arm(records, data):
    for rec in records:
        assert rec.error is None, f"run {rec.config.run_name} failed: {rec.error}"
    return [
        {
            "interp": evaluate(rec.model, data["val"], lags=5),
            "extrap": evaluate(rec.model, data["extrap"], lags=5),
        }
        for rec in records
    ]


@pytest.fixture(scope="module")
def pendulum_matrix():
    """Criterion 4 matrix: dense + RNN, MSE vs MSE+LJB, five seeds each."""
    t0 = time.perf_counter()
    data = prepare_data("pendulum")
    out = {}
    for arch, lam in PENDULUM_LAM.items():
        recs = run_matrix(["pendulum"], [arch], [0.0, lam], SEEDS, cfg_base=CFG,
                          jobs=len(SEEDS))
        by_lam = {}
        for rec in recs:
            by_lam.setdefault(rec.config.train.lam, []).append(rec)
        out[arch] = {
            "base": _eval_arm(by_lam[0.0], data),
            "ljb": _eval_arm(by_lam[lam], data),
        }
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def double_pendulum_runs():
    """Criterion 5 pair: LSTM baseline vs strong whitening, one seed."""
    data = prepare_data("double_pendulum")
    recs = run_matrix(["double_pendulum"], ["lstm"], [0.0, 1.0], [1], cfg_base=CFG)
    reports = {}
    for rec in recs:
        assert rec.error is None, rec.error
        reports[rec.config.train.lam] = evaluate(rec.model, data["val"], lags=5)
    return reports


@pytest.fixture(scope="module")
def backlash_arms():
    """Criteria 6-7 arms: baseline / LJB-only / dropout-only / dropout+LJB."""
    data = prepare_data("backlash")
    arms = {
        "baseline": (0.0, 0.0),
        "ljb_only": (BACKLASH_LAM, 0.0),
        "dropout_only": (0.0, 0.1),
        "dropout_ljb": (BACKLASH_LAM, 0.1),
    }
    out = {}
    for name, (lam, dropout) in arms.items():
        cfg = replace(CFG, dropout=dropout)
        recs = run_matrix(["backlash"], ["rnn"], [lam], SEEDS, cfg_base=cfg,
                          jobs=len(SEEDS))
        for rec in recs:
            assert rec.error is None, rec.error
        out[name] = [
            evaluate(rec.model, data["extrap"], lags=5, run_id=f"{name}_seed{rec.config.train.seed}",
                     dataset_id="backlash_extrap", config_id=f"backlash_rnn_{name}")
            for rec in recs
        ]
    return out


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    results = gradcheck.run_suites()
    elapsed = time.perf_counter() - t0
    worst = max(res.worst for res in results)
    enough = all(res.instances >= 100 for res in results)
    ok = all(res.ok for res in results) and enough and elapsed < 60.0
    assert record_criterion(
        1, ok,
        f"{len(results)} components, worst rel err {worst:.3e} (tol 1e-4), "
        f"min instances {min(res.instances for res in results)}, {elapsed:.1f}s (< 60s)")


def test_criterion_2_whiteness_calibration():
    # white rows: Q is asymptotically chi-square with `lags` degrees of
    # freedom (Ljung & Box 1978, Biometrika 65(2)), so its mean is ~lags
    rows = RngState(2026).normal(size=(2000, 1000))
    stat, _ = ljb_statistic(rows, LossConfig(lags=5))
    tail = chi2_upper_tail(11.07, 5)
    ok = 4.5 <= stat <= 5.5 and abs(tail - 0.05) <= 0.002
    assert record_criterion(
        2, ok,
        f"mean LJB statistic {stat:.4f} in [4.5, 5.5]; "
        f"chi2_upper_tail(11.07, 5) = {tail:.6f} (0.05 +/- 0.002)")


def test_criterion_3_closed_forms():
    tiny = LossConfig(lags=5, epsilon=1e-300)
    alt = np.array([[1.0, -1.0] * 5])
    stat, _ = ljb_statistic(alt, tiny)
    n = 10
    const = np.full((1, n), 3.0)
    _, rho = ljb_statistic(const, tiny)
    expect = np.array([(n - k) / n for k in range(1, 6)])
    rho_err = float(np.max(np.abs(rho - expect)))
    ok = abs(stat - 42.0) < 1e-9 and rho_err < 1e-12
    assert record_criterion(
        3, ok,
        f"alternating-row statistic {stat:.12f} (42 +/- 1e-9); "
        f"constant-row rho error {rho_err:.2e} (< 1e-12)")


def test_criterion_4a_interpolation_whiteness(pendulum_matrix):
    ratios = {arch: _ratio(pendulum_matrix[arch]["ljb"], pendulum_matrix[arch]["base"],
                           "interp", "sum_ac")
              for arch in PENDULUM_LAM}
    ok = all(np.all(r <= 0.3) for r in ratios.values())
    channels = pendulum_matrix["dense"]["base"][0]["interp"].channels
    assert record_criterion(
        "4a", ok,
        "interp sum-AC ratio per state (cap 0.3): " + "; ".join(
            f"{arch} {np.round(r, 3).tolist()}" for arch, r in ratios.items())
        + "; " + _margin(_state_margins(ratios, channels, 0.3)))


def test_criterion_4b_extrapolation_rmse(pendulum_matrix):
    ratios = {arch: _ratio(pendulum_matrix[arch]["ljb"], pendulum_matrix[arch]["base"],
                           "extrap", "rmse")
              for arch in PENDULUM_LAM}
    ok = all(np.all(r < 1.0) for r in ratios.values())
    channels = pendulum_matrix["dense"]["base"][0]["extrap"].channels
    assert record_criterion(
        "4b", ok,
        "extrap RMSE ratio per state (cap < 1): " + "; ".join(
            f"{arch} {np.round(r, 3).tolist()}" for arch, r in ratios.items())
        + "; " + _margin(_state_margins(ratios, channels, 1.0)))


def test_criterion_4c_interpolation_rmse_and_runtime(pendulum_matrix):
    ratios = {arch: _ratio(pendulum_matrix[arch]["ljb"], pendulum_matrix[arch]["base"],
                           "interp", "rmse")
              for arch in PENDULUM_LAM}
    elapsed = pendulum_matrix["elapsed"]
    ok = all(np.all(r <= 3.0) for r in ratios.values()) and elapsed < 1800.0
    channels = pendulum_matrix["dense"]["base"][0]["interp"].channels
    assert record_criterion(
        "4c", ok,
        "interp RMSE ratio per state (cap 3x): " + "; ".join(
            f"{arch} {np.round(r, 3).tolist()}" for arch, r in ratios.items())
        + "; " + _margin(_state_margins(ratios, channels, 3.0))
        + f"; matrix runtime {elapsed:.0f}s (< 1800s)")


def test_criterion_5_hidden_dynamics_recovery(double_pendulum_runs):
    base = double_pendulum_runs[0.0]
    ljb = double_pendulum_runs[1.0]
    threshold = 2.0 * base.band_mean
    base_max = float(np.max(np.abs(base.acf)))
    ljb_max = float(np.max(np.abs(ljb.acf)))
    ok = base_max > threshold and ljb_max <= 0.1
    assert record_criterion(
        5, ok,
        f"baseline max|rho| {base_max:.4f} > 2x band {threshold:.4f}; "
        f"LJB max|rho| over lags 1..5 {ljb_max:.4f} (<= 0.1); " + _margin({
            "baseline max|rho|": (base_max - threshold) / threshold,
            "LJB max|rho|": (0.1 - ljb_max) / 0.1}))


def test_criterion_6_frequency_extrapolation(backlash_arms):
    base_rmse = np.mean([r.rmse for r in backlash_arms["baseline"]], axis=0)
    base_sac = np.mean([r.sum_ac for r in backlash_arms["baseline"]], axis=0)
    ljb_rmse = np.mean([r.rmse for r in backlash_arms["ljb_only"]], axis=0)
    ljb_sac = np.mean([r.sum_ac for r in backlash_arms["ljb_only"]], axis=0)
    rmse_ratio = ljb_rmse / base_rmse
    sac_ratio = ljb_sac / base_sac
    ok = bool(np.all(rmse_ratio < 1.0) and np.all(sac_ratio < 1.0))
    channels = backlash_arms["baseline"][0].channels
    assert record_criterion(
        6, ok,
        f"hold-extrapolation, {len(SEEDS)} seeds: RMSE ratio "
        f"{np.round(rmse_ratio, 3).tolist()}, sum-AC ratio "
        f"{np.round(sac_ratio, 3).tolist()} (both < 1 per state); "
        + _margin(_state_margins({"RMSE": rmse_ratio, "sum-AC": sac_ratio},
                                 channels, 1.0)))


def test_criterion_7_regularizer_interaction(backlash_arms, tmp_path):
    totals = {name: float(np.mean([np.sum(r.sum_ac) for r in reps]))
              for name, reps in backlash_arms.items()}
    floor = min(totals["dropout_only"], totals["ljb_only"])
    ratio = totals["dropout_ljb"] / floor
    table = tmp_path / "regularizer_comparison.md"
    emit_comparison([aggregate(backlash_arms[name]) for name in
                     ("baseline", "dropout_only", "ljb_only", "dropout_ljb")],
                    str(table))
    recorded = table.is_file() and table.stat().st_size > 0
    ok = ratio <= 1.1 and recorded
    assert record_criterion(
        7, ok,
        f"extrap total sum-AC: dropout-only {totals['dropout_only']:.3f}, "
        f"LJB-only {totals['ljb_only']:.3f}, combo {totals['dropout_ljb']:.3f}; "
        f"combo/min {ratio:.3f} (<= 1.1), "
        f"{_margin({'combo/min': (1.1 - ratio) / 1.1})}; "
        f"comparison table emitted")


def test_criterion_8_physics():
    dp = DoublePendulumParams()  # dt = 0.01
    state = (math.pi / 2, 0.0, math.pi / 2, 0.0)
    e0 = double_pendulum_energy(state, dp)
    worst = 0.0
    for _ in range(10_000):
        state = step_double_pendulum(state, dp)
        worst = max(worst, abs(double_pendulum_energy(state, dp) - e0))
    drift = worst / e0

    pp = PendulumParams()
    upright_exact = step_pendulum((0.0, 0.0), 0.0, pp) == (0.0, 0.0)
    th, om = step_pendulum((math.pi, 0.0), 0.0, pp)
    hanging_err = max(abs(th - math.pi), abs(om))

    bp = BacklashMotorParams()
    beta = bp.deadzone_halfwidth
    bstate = (0.0, 0.0, 0.0)
    worst_gap = 0.0
    for u in RngState(8).uniform(size=1_000_000, low=-3.0, high=3.0):
        bstate = step_backlash_motor(bstate, u, bp)
        worst_gap = max(worst_gap, abs(bstate[0] - bstate[1]))

    ok = (drift < 1e-3 and upright_exact and hanging_err < 1e-12
          and worst_gap <= beta + 1e-9)
    assert record_criterion(
        8, ok,
        f"energy drift {drift:.2e} over 1e4 RK4 steps (< 1e-3); pendulum fixed "
        f"points exact (hanging err {hanging_err:.1e}, limited by float pi); "
        f"backlash gap max {worst_gap:.6f} <= beta {beta} over 1e6 steps")


def test_criterion_9_reproducibility(tmp_path):
    flags = ["train", "--system", "pendulum", "--arch", "dense",
             "--loss", "mse+ljb", "--lambda", "0.02", "--epochs", "5",
             "--seed", "3"]
    roots = []
    for name in ("first", "second"):
        root = tmp_path / name
        assert main(flags + ["--out", str(root)]) == 0
        roots.append(root)

    def snapshot(root):
        files = {}
        for dirpath, _, names in os.walk(root):
            for fname in names:
                full = os.path.join(dirpath, fname)
                files[os.path.relpath(full, root)] = open(full, "rb").read()
        return files

    first, second = snapshot(roots[0]), snapshot(roots[1])
    same_names = sorted(first) == sorted(second)
    same_bytes = same_names and all(first[k] == second[k] for k in first)
    ok = same_names and same_bytes and len(first) > 0
    assert record_criterion(
        9, ok,
        f"repeated train invocation: {len(first)} artifacts byte-identical "
        f"(checkpoints, records, manifests)")
