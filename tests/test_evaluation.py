"""Diagnostics tests: chi-square tail, report math, aggregation, emission."""

import json
import math
import re

import numpy as np
import pytest

from test_losses import _acf_reference
from whitenet.datasets import WindowedDataset
from whitenet.errors import ConfigError, DomainError, ShapeError
from whitenet.evaluation import (EvalReport, aggregate, chi2_upper_tail, emit,
                                 emit_comparison, evaluate, load_report,
                                 predict)
from whitenet.losses import LossConfig, ljb_statistic
from whitenet.nn import DenseSpec, Model
from whitenet.numerics import RngState


# ---------------------------------------------------------------------------
# chi-square upper tail

def test_chi2_at_zero_is_one():
    assert chi2_upper_tail(0.0, 5) == 1.0
    assert chi2_upper_tail(0.0, 1) == 1.0


def test_chi2_dof2_closed_form():
    # Q(x, 2) = exp(-x/2), so the median sits exactly at 2 ln 2.
    assert abs(chi2_upper_tail(2.0 * math.log(2.0), 2) - 0.5) < 1e-12
    for x in (0.1, 1.0, 3.7, 10.0, 40.0):
        assert abs(chi2_upper_tail(x, 2) - math.exp(-0.5 * x)) < 1e-12


def test_chi2_critical_value_dof5():
    # The 5% critical value of chi2 with 5 dof is 11.07 to two decimals.
    assert abs(chi2_upper_tail(11.07, 5) - 0.05) < 0.002


def test_chi2_matches_scipy_grid():
    stats = pytest.importorskip("scipy.stats")
    for dof in (1, 2, 3, 5, 10, 50):
        for x in (0.01, 0.5, 1.0, 3.0, 1.0 * dof, 2.0 * dof, 5.0 * dof):
            ours = chi2_upper_tail(x, dof)
            ref = float(stats.chi2.sf(x, dof))
            assert abs(ours - ref) < 1e-8, (x, dof, ours, ref)


def test_chi2_monotone_in_x():
    xs = np.linspace(0.0, 40.0, 200)
    vals = [chi2_upper_tail(float(x), 5) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_chi2_extreme_tail_stays_in_range():
    p = chi2_upper_tail(500.0, 2)
    assert 0.0 <= p <= 1e-50


def test_chi2_domain_guards():
    with pytest.raises(DomainError):
        chi2_upper_tail(1.0, 0)
    with pytest.raises(DomainError):
        chi2_upper_tail(-1.0, 5)


# ---------------------------------------------------------------------------
# evaluate

def _const_model(in_width, out_width, value=0.0):
    model = Model([DenseSpec(in_width, out_width, activation="linear")],
                  RngState(0))
    for p in model.params:
        p.value[...] = 0.0
    model.head.b.value[...] = value
    return model


def _make_ds(targets, lb, lf, d_out, d_in=1):
    n = targets.shape[0]
    names = tuple(f"c{i}" for i in range(d_out))
    in_names = tuple(f"x{i}" for i in range(d_in))
    return WindowedDataset(inputs=np.zeros((n, lb * d_in)), targets=targets,
                           lb=lb, lf=lf, input_names=in_names,
                           target_names=names)


def test_evaluate_zero_residual():
    ds = _make_ds(np.zeros((6, 12)), lb=3, lf=12, d_out=1)
    rep = evaluate(_const_model(3, 12), ds, lags=5)
    assert np.all(rep.rmse == 0.0)
    assert np.all(rep.std == 0.0)
    assert np.all(rep.sum_ac == 0.0)
    assert np.all(rep.ljb == 0.0)
    assert np.all(rep.p_value == 1.0)
    assert rep.mse_value == 0.0


def test_evaluate_channel_layout_and_acf():
    # Step-major targets: channel 0 constant, channel 1 alternating.  The
    # residual autocorrelation of each must land on its closed form.
    lf, d = 8, 2
    row = np.zeros(lf * d)
    row[0::d] = 1.0
    row[1::d] = np.where(np.arange(lf) % 2 == 0, 1.0, -1.0)
    targets = np.tile(row, (4, 1))
    rep = evaluate(_const_model(2, lf * d), _make_ds(targets, 1, lf, d, d_in=2),
                   lags=5)
    for k in range(1, 6):
        # The epsilon guard in the denominator shifts values by ~1e-9 here.
        expect = (lf - k) / lf
        assert abs(rep.acf[0, k - 1] - expect) < 1e-8
        sign = -1.0 if k % 2 else 1.0
        assert abs(rep.acf[1, k - 1] - sign * expect) < 1e-8
    assert np.all(rep.rmse == 1.0)


def test_evaluate_matches_reference_statistics():
    rng = np.random.default_rng(7)
    lf, d = 9, 3
    targets = rng.normal(size=(20, lf * d))
    ds = _make_ds(targets, lb=2, lf=lf, d_out=d, d_in=2)
    rep = evaluate(_const_model(4, lf * d), ds, lags=4)
    for m in range(d):
        rm = targets[:, m::d]
        assert abs(rep.rmse[m] - math.sqrt(np.mean(rm * rm))) < 1e-14
        assert abs(rep.std[m] - np.std(rm)) < 1e-14
        ref_acf = _acf_reference(np.ascontiguousarray(rm), 4)
        assert np.allclose(rep.acf[m], ref_acf, atol=1e-14)
        assert abs(rep.sum_ac[m] - np.sum(np.abs(ref_acf))) < 1e-13
        assert abs(rep.sum_ac_sq[m] - np.sum(ref_acf ** 2)) < 1e-13
        assert rep.p_value[m] == chi2_upper_tail(rep.ljb[m], 4)
    assert abs(rep.mse_value - np.mean(targets * targets)) < 1e-13
    assert rep.lags == 4
    assert rep.n_samples == 20
    assert rep.channels == ("c0", "c1", "c2")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_evaluate_one_statistic_call_matches_per_channel_calls(d):
    # every channel's statistic comes from one stacked call; each must be
    # bit for bit a one-channel call on that channel's residual windows
    rng = np.random.default_rng(17 + d)
    lf, lags = 14, 11
    targets = rng.normal(size=(37, lf * d))
    model = Model([DenseSpec(4, lf * d, activation="tanh")], RngState(d))
    ds = _make_ds(targets, lb=2, lf=lf, d_out=d, d_in=2)
    rep = evaluate(model, ds, lags=lags)
    resid = targets - predict(model, ds)
    cfg = LossConfig(lags=lags)
    for m in range(d):
        ljb, acf = ljb_statistic(np.ascontiguousarray(resid[:, m::d]), cfg)
        assert rep.ljb[m] == ljb
        assert np.array_equal(rep.acf[m].view(np.uint64), acf.view(np.uint64))
        assert rep.sum_ac[m] == np.sum(np.abs(acf))
        assert rep.sum_ac_sq[m] == np.sum(acf * acf)


def test_evaluate_white_noise_is_calibrated():
    rng = np.random.default_rng(11)
    lf, n = 50, 400
    targets = rng.normal(size=(n, lf))
    ds = _make_ds(targets, lb=2, lf=lf, d_out=1, d_in=2)
    rep = evaluate(_const_model(4, lf), ds, lags=5)
    # Batch-averaged stat concentrates near its dof; p near the bulk.
    assert 4.0 < rep.ljb[0] < 6.2
    assert 0.2 < rep.p_value[0] < 0.75
    assert rep.sum_ac[0] < 0.15
    assert abs(rep.band_window - 1.96 / math.sqrt(lf)) < 1e-15
    assert abs(rep.band_mean - 1.96 / math.sqrt(lf * n)) < 1e-15
    assert np.all(np.abs(rep.acf[0]) < 4.0 * rep.band_mean)


def test_evaluate_deterministic():
    rng = np.random.default_rng(3)
    targets = rng.normal(size=(12, 10))
    ds = _make_ds(targets, lb=2, lf=10, d_out=1, d_in=2)
    model = Model([DenseSpec(4, 10, activation="linear")], RngState(9))
    a = evaluate(model, ds, lags=5)
    b = evaluate(model, ds, lags=5)
    for name in ("rmse", "std", "acf", "sum_ac", "ljb", "p_value"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_evaluate_guards():
    ds = _make_ds(np.zeros((5, 10)), lb=2, lf=10, d_out=1, d_in=2)
    with pytest.raises(ShapeError):
        evaluate(_const_model(4, 7), ds, lags=5)
    short = _make_ds(np.zeros((5, 4)), lb=2, lf=4, d_out=1, d_in=2)
    with pytest.raises(DomainError):
        evaluate(_const_model(4, 4), short, lags=5)


def test_predict_chunking_matches_single_pass():
    # 1025 rows: Model.predict's row blocks of 512, with the 1-row tail
    # folded into the last block
    rng = np.random.default_rng(5)
    inputs = rng.normal(size=(1025, 4))
    ds = WindowedDataset(inputs=inputs, targets=np.zeros((1025, 6)), lb=2,
                         lf=3, input_names=("a", "b"), target_names=("u", "v"))
    model = Model([DenseSpec(4, 8), DenseSpec(8, 6, activation="linear")],
                  RngState(2))
    model.set_mode("eval")
    whole, _ = model.forward(inputs)
    chunked = predict(model, ds)
    assert np.array_equal(whole, chunked)


# ---------------------------------------------------------------------------
# aggregation

def _report(run_id, rmse, dataset_id="interp", config_id="cfg"):
    d, lags = 2, 3
    rm = np.full(d, rmse)
    acf = np.full((d, lags), 0.1 * rmse)
    return EvalReport(
        config_id=config_id, run_id=run_id, dataset_id=dataset_id,
        channels=("c0", "c1"), lags=lags, n_samples=10, lf=8,
        rmse=rm, std=rm.copy(), acf=acf,
        sum_ac=np.abs(acf).sum(axis=1), sum_ac_sq=(acf ** 2).sum(axis=1),
        ljb=np.full(d, 2.0 * rmse), p_value=np.full(d, 0.5),
        band_window=1.96 / math.sqrt(8), band_mean=1.96 / math.sqrt(80),
        mse_value=rmse ** 2)


def test_aggregate_single_report():
    rep = _report("s0", 0.25)
    agg = aggregate([rep])
    assert agg.n_seeds == 1
    assert np.array_equal(agg.mean["rmse"], rep.rmse)
    assert np.all(agg.std["rmse"] == 0.0)
    assert agg.run_ids == ["s0"]


def test_aggregate_mean_and_std():
    agg = aggregate([_report("s0", 0.1), _report("s1", 0.3)])
    assert agg.n_seeds == 2
    assert np.allclose(agg.mean["rmse"], 0.2)
    assert np.allclose(agg.std["rmse"], 0.1)
    assert np.allclose(agg.mean["ljb"], 0.4)
    assert agg.channels == ("c0", "c1")


def test_aggregate_rejects_mixed_or_empty():
    with pytest.raises(DomainError):
        aggregate([])
    with pytest.raises(DomainError):
        aggregate([_report("s0", 0.1), _report("s1", 0.1, dataset_id="extrap")])
    with pytest.raises(DomainError):
        aggregate([_report("s0", 0.1), _report("s1", 0.1, config_id="other")])


# ---------------------------------------------------------------------------
# emission

def test_emit_markdown_single(tmp_path):
    path = tmp_path / "rep.md"
    emit(_report("s0", 0.5), "markdown", path)
    text = path.read_text()
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    assert len(lines) == 2 + 2  # header + separator + one row per channel
    assert "c0" in text and "c1" in text
    assert "ACF bands" in text


def test_emit_markdown_aggregate(tmp_path):
    path = tmp_path / "agg.md"
    emit(aggregate([_report("s0", 0.1), _report("s1", 0.3)]), "markdown", path)
    text = path.read_text()
    assert "2 seeds" in text
    assert "+/-" in text


def test_emit_acf_csv(tmp_path):
    path = tmp_path / "acf.csv"
    rep = _report("s0", 0.5)
    emit(rep, "csv", path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "channel,lag,value,band"
    assert len(rows) == 1 + 2 * 3  # channels * lags
    lags_seen = sorted(int(r.split(",")[1]) for r in rows[1:] if r.startswith("c0"))
    assert lags_seen == [1, 2, 3]
    band = float(rows[1].split(",")[3])
    assert abs(band - rep.band_mean) < 1e-15


def test_emit_json_round_trip(tmp_path):
    path = tmp_path / "rep.json"
    rep = _report("s0", 0.37)
    emit(rep, "json", path)
    back = load_report(path)
    for name in ("rmse", "std", "acf", "sum_ac", "sum_ac_sq", "ljb", "p_value"):
        assert np.array_equal(getattr(back, name), getattr(rep, name))
    assert back.channels == rep.channels
    assert back.run_id == rep.run_id
    assert back.band_mean == rep.band_mean


def test_report_version_guard(tmp_path):
    path = tmp_path / "rep.json"
    emit(_report("s0", 0.1), "json", path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_report(path)


def _drop_rmse(doc):
    del doc["rmse"]


def _fractional_lags(doc):
    doc["lags"] = 2.5


def _channels_as_text(doc):
    doc["channels"] = "c0,c1"


@pytest.mark.parametrize("spoil, key", [
    (_drop_rmse, "rmse"),              # was a KeyError traceback
    (_fractional_lags, "lags"),        # was read as lags 2.5
    (_channels_as_text, "channels"),   # was read as five channels
])
def test_spoiled_report_is_a_config_error_naming_file_and_key(tmp_path,
                                                              spoil, key):
    path = tmp_path / "rep.json"
    emit(_report("s0", 0.1), "json", path)
    doc = json.loads(path.read_text())
    spoil(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError,
                       match=re.escape(f"{path}: {key!r} ")):
        load_report(path)


def test_truncated_report_is_a_config_error_naming_the_file(tmp_path):
    path = tmp_path / "rep.json"
    emit(_report("s0", 0.1), "json", path)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ConfigError, match=f"{path} is not valid JSON"):
        load_report(path)


def test_emit_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        emit(_report("s0", 0.1), "yaml", tmp_path / "x")


def test_emit_comparison(tmp_path):
    path = tmp_path / "cmp.md"
    a = aggregate([_report("s0", 0.1), _report("s1", 0.3)])
    b = aggregate([_report("s0", 0.2, config_id="alt"),
                   _report("s1", 0.4, config_id="alt")])
    emit_comparison([a, b], path)
    text = path.read_text()
    rows = [ln for ln in text.splitlines() if ln.startswith("| ")]
    assert len(rows) == 1 + 2  # header + one row per config
    assert "cfg" in text and "alt" in text
    with pytest.raises(DomainError):
        emit_comparison([], tmp_path / "empty.md")
