import json
import os
from dataclasses import replace

import numpy as np
import pytest

from whitenet import simulators
from whitenet.datasets import (
    NormalizationStats,
    RegimeSpec,
    WindowedDataset,
    build_regime,
    csv_export,
    csv_ingest,
    dataset_manifest,
    desk_regimes,
    fit_stats,
    normalize_fit_apply,
    open_atomic,
    regime_trajectories,
    split,
    window,
    write_json,
)
from whitenet.errors import ConfigError, CsvParseError, DomainError, ShapeError
from whitenet.numerics import RngState
from whitenet.simulators import Trajectory


def _ramp_traj(steps, d=2, d_u=1, dt=0.05):
    """States count upward so window indices are directly visible."""
    states = np.arange(steps, dtype=float)[:, None] + np.arange(d) * 1000.0
    actions = -np.arange(steps, dtype=float)[:, None] * np.ones(d_u)
    return Trajectory(states, actions, dt,
                      tuple(f"s{i}" for i in range(d)),
                      tuple(f"u{i}" for i in range(d_u)))


def test_window_counts():
    assert window(_ramp_traj(30), 10, 10).n == 11
    assert window(_ramp_traj(20), 10, 10).n == 1
    with pytest.raises(DomainError):
        window(_ramp_traj(19), 10, 10)


def test_window_layout_step_major():
    ds = window(_ramp_traj(8, d=2, d_u=1), 3, 2)
    assert ds.input_names == ("s0", "s1", "u0")
    assert ds.target_names == ("s0", "s1")
    # sample 0 input: steps 0,1,2 of (s0, s1, u0)
    assert np.array_equal(ds.inputs[0],
                          [0, 1000, 0, 1, 1001, -1, 2, 1002, -2])
    # sample 0 target: steps 3,4 of (s0, s1)
    assert np.array_equal(ds.targets[0], [3, 1003, 4, 1004])
    # channel slice convention: column = step * width + channel
    assert np.array_equal(ds.targets[0][0::2], [3, 4])


def test_window_target_follows_input_by_one_step():
    ds = window(_ramp_traj(15, d=1, d_u=0), 4, 3)
    for i in range(ds.n):
        last_in = ds.inputs[i][-1]
        first_tgt = ds.targets[i][0]
        assert first_tgt == last_in + 1.0


def test_build_regime_deterministic_and_counts():
    spec = RegimeSpec(amplitude=0.5, hold=5, n_traj=3, steps=40,
                      noise_sigma=0.01, seed=7)
    a = build_regime("pendulum", spec, lb=10, lf=10)
    b = build_regime("pendulum", spec, lb=10, lf=10)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert a.n == 3 * (40 - 10 - 10 + 1)
    assert a.input_names == ("cos_theta", "sin_theta", "omega", "u")
    assert a.meta["system"] == "pendulum"
    assert a.meta["regime"]["seed"] == 7


def test_build_regime_trajectories_differ():
    spec = RegimeSpec(amplitude=0.5, hold=5, n_traj=2, steps=25,
                      noise_sigma=0.0, seed=1)
    ds = build_regime("pendulum", spec, lb=10, lf=10)
    n_per = 25 - 19
    first, second = ds.inputs[:n_per], ds.inputs[n_per:]
    assert not np.array_equal(first, second)


def test_build_regime_double_pendulum_jitters_inits():
    spec = RegimeSpec(amplitude=1.0, hold=1, n_traj=2, steps=30,
                      noise_sigma=0.0, seed=3, init_jitter=0.1)
    ds = build_regime("double_pendulum", spec, lb=10, lf=10)
    assert ds.input_names == ("theta1", "omega1", "alpha1")
    n_per = 30 - 19
    assert not np.array_equal(ds.inputs[:n_per], ds.inputs[n_per:])
    # jitter perturbs angles only; every trajectory still starts at rest
    assert ds.inputs[0][1] != ds.inputs[n_per][1] or \
        ds.inputs[0][0] != ds.inputs[n_per][0]


def test_double_pendulum_regimes_start_from_the_documented_state(monkeypatch):
    start = (0.3, 0.0, -0.7, 0.0)
    monkeypatch.setattr(simulators, "DOUBLE_PENDULUM_INIT", start)
    for spec in desk_regimes("double_pendulum"):
        # noise off and a short rollout: only the recorded start matters here
        spec = replace(spec, noise_sigma=0.0, steps=2)
        for traj in regime_trajectories("double_pendulum", spec):
            theta1, omega1, _ = traj.states[0]
            assert abs(theta1 - start[0]) <= spec.init_jitter
            assert omega1 == 0.0


def test_regime_spec_validation():
    with pytest.raises(DomainError):
        RegimeSpec(amplitude=0.0, hold=1, n_traj=1, steps=10)
    with pytest.raises(DomainError):
        RegimeSpec(amplitude=1.0, hold=0, n_traj=1, steps=10)
    with pytest.raises(DomainError):
        RegimeSpec(amplitude=1.0, hold=1, n_traj=1, steps=10, noise_sigma=-1)


def test_split_sizes_and_determinism():
    ds = window(_ramp_traj(29), 10, 10)  # N = 10
    train, val = split(ds, (0.8, 0.2), RngState(5))
    assert (train.n, val.n) == (8, 2)
    train2, val2 = split(ds, (0.8, 0.2), RngState(5))
    assert np.array_equal(train.inputs, train2.inputs)
    assert np.array_equal(val.inputs, val2.inputs)


def test_split_disjoint_exhaustive():
    ds = window(_ramp_traj(40, d=1, d_u=0), 5, 5)
    train, val = split(ds, (0.7, 0.3), RngState(1))
    seen = np.concatenate([train.inputs[:, 0], val.inputs[:, 0]])
    assert sorted(seen) == sorted(ds.inputs[:, 0])
    assert len(set(train.inputs[:, 0])) == train.n
    assert not set(train.inputs[:, 0]) & set(val.inputs[:, 0])


def test_split_edge_fractions():
    ds = window(_ramp_traj(29), 10, 10)
    train, val = split(ds, (1.0, 0.0), RngState(2))
    assert (train.n, val.n) == (10, 0)
    with pytest.raises(DomainError):
        split(ds, (0.5, 0.4), RngState(2))


def test_normalize_fit_apply_contract():
    rng = RngState(9)
    inputs = rng.normal(size=(50, 12)) * 3.0 + 5.0
    raw = inputs.copy()
    ds = WindowedDataset(inputs, np.zeros((50, 4)), 4, 2,
                         ("a", "b", "c"), ("a", "b"))
    (normed,), stats = normalize_fit_apply(ds)
    view = normed.inputs.reshape(-1, 3)
    assert np.max(np.abs(view.mean(axis=0))) < 1e-9
    assert np.max(np.abs(view.std(axis=0) - 1.0)) < 1e-6
    # the returned stats are the ones applied
    assert np.allclose(view * stats.std + stats.mean, raw.reshape(-1, 3))
    # targets untouched
    assert np.array_equal(normed.targets, ds.targets)


def test_normalize_constant_channel_floors():
    inputs = np.ones((10, 6))
    ds = WindowedDataset(inputs, np.zeros((10, 2)), 3, 1, ("a", "b"), ("a", "b"))
    (normed,), stats = normalize_fit_apply(ds)
    assert np.array_equal(normed.inputs, np.zeros((10, 6)))
    assert np.all(stats.std == 1e-8)


def test_normalize_applies_train_stats_to_others():
    tr_inputs = np.zeros((20, 4)) + [[1.0, 10.0, 1.0, 10.0]]
    tr_inputs += RngState(3).normal(size=(20, 4))
    ex_inputs = tr_inputs * 4.0
    train = WindowedDataset(tr_inputs, np.zeros((20, 1)), 2, 1, ("a", "b"), ("a",))
    extrap = WindowedDataset(ex_inputs, np.zeros((20, 1)), 2, 1, ("a", "b"), ("a",))
    (ntr, nex), stats = normalize_fit_apply(train, extrap)
    # the wider-regime set escapes the unit band the train set is squeezed to
    assert np.max(np.abs(ntr.inputs)) < 4.0
    assert np.max(np.abs(nex.inputs)) > np.max(np.abs(ntr.inputs))


def test_normalize_empty_train_raises():
    ds = WindowedDataset(np.zeros((0, 4)), np.zeros((0, 1)), 2, 1,
                         ("a", "b"), ("a",))
    with pytest.raises(DomainError):
        normalize_fit_apply(ds)


def test_stats_frozen():
    stats = fit_stats(window(_ramp_traj(20), 5, 5))
    with pytest.raises(ValueError):
        stats.mean[0] = 99.0


def test_csv_round_trip(tmp_path):
    traj = _ramp_traj(7)
    traj.states[3, 1] = np.pi  # exercise full-precision float output
    path = tmp_path / "traj.csv"
    csv_export(traj, path)
    back = csv_ingest(path)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.actions, traj.actions)
    assert back.dt == traj.dt
    assert back.state_names == traj.state_names
    assert back.action_names == traj.action_names


def test_csv_export_takes_trajectories_only(tmp_path):
    for obj in (window(_ramp_traj(10), 3, 2), {"not": "exportable"}):
        with pytest.raises(ConfigError):
            csv_export(obj, tmp_path / "no.csv")


def test_csv_header_contract(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,s0,u0\n0,1,2\n0.1,2,3\n")
    with pytest.raises(CsvParseError) as exc:
        csv_ingest(path)
    assert "t" in str(exc.value)


def test_csv_bad_row_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,s0,u0\n0,1,2\n0.1,2\n")
    with pytest.raises(CsvParseError) as exc:
        csv_ingest(path)
    assert exc.value.line == 3


def test_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,s0,u0\n0,1,2\n0.1,oops,3\n")
    with pytest.raises(CsvParseError) as exc:
        csv_ingest(path)
    assert exc.value.line == 3


def test_csv_long_export_round_trips_its_dt(tmp_path):
    # exported times are fl(i * dt); their steps wander from dt in the last
    # bits, more so the longer the log
    traj = _ramp_traj(20000, dt=0.1)
    path = tmp_path / "long.csv"
    csv_export(traj, path)
    back = csv_ingest(path)
    assert back.dt == traj.dt
    assert np.array_equal(back.states, traj.states)


@pytest.mark.parametrize("times,bad_line", [
    (("0", "0.01", "0.5", "0.4"), 4),     # a jump, then a step backwards
    (("0", "0.01", "0.02", "0.02"), 5),   # a repeated time
    (("0.5", "0.4", "0.3", "0.2"), 3),    # decreasing from the start
])
def test_csv_non_uniform_time_names_line(tmp_path, times, bad_line):
    path = tmp_path / "t.csv"
    path.write_text("t,s0,u0\n" + "".join(f"{t},1,2\n" for t in times))
    with pytest.raises(CsvParseError) as exc:
        csv_ingest(path)
    assert exc.value.line == bad_line


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_csv_non_finite_cell_names_line(tmp_path, cell):
    path = tmp_path / "t.csv"
    path.write_text(f"t,s0,u0\n0,1,2\n0.1,2,3\n0.2,{cell},3\n0.3,4,5\n")
    with pytest.raises(CsvParseError) as exc:
        csv_ingest(path)
    assert exc.value.line == 4
    assert "s0" in str(exc.value)


def test_csv_real_data_windows_to_three_channels(tmp_path):
    # a hardware-style log: theta, omega, command
    rng = RngState(12)
    rows = ["t,theta,omega,u"]
    for i in range(40):
        rows.append(f"{i * 0.02},{rng.normal()},{rng.normal()},{rng.normal()}")
    path = tmp_path / "rig.csv"
    path.write_text("\n".join(rows) + "\n")
    traj = csv_ingest(path)
    assert traj.state_names == ("theta", "omega")
    assert traj.action_names == ("u",)
    ds = window(traj, 10, 10)
    assert ds.d_in == 3
    assert ds.inputs.shape == (21, 30)


def test_manifest_round_trip(tmp_path):
    spec = RegimeSpec(amplitude=0.5, hold=5, n_traj=2, steps=30, seed=4)
    ds = build_regime("pendulum", spec)
    (normed,), stats = normalize_fit_apply(ds)
    doc = dataset_manifest(normed, stats)
    path = tmp_path / "manifest.json"
    write_json(doc, path)
    back = json.loads(path.read_text())
    assert back == doc
    assert back["target_convention"] == "future states, raw units"
    assert back["meta"]["regime"]["amplitude"] == 0.5


@pytest.mark.parametrize("rows", [1, 7, 1000, 50000])
def test_fit_stats_is_numpys_mean_and_std_bit_for_bit(rows):
    # fit_stats forms the mean once and replays the rest of numpy's std; a
    # numpy that computes the variance another way fails here
    scale = np.tile([1e-3, 1.0, 50.0], 4)
    x = RngState(rows).normal(size=(rows, 3 * 4)) * scale + 7.0
    ds = WindowedDataset(x, np.zeros((rows, 1)), 4, 1, ("a", "b", "c"), ("a",))
    stats = fit_stats(ds)
    view = x.reshape(rows * 4, 3)
    assert stats.mean.view(np.uint64).tolist() == \
        view.mean(axis=0).view(np.uint64).tolist()
    assert stats.std.view(np.uint64).tolist() == \
        np.maximum(view.std(axis=0), 1e-8).view(np.uint64).tolist()


def _dir_names(path):
    return sorted(p.name for p in path.parent.iterdir())


@pytest.mark.parametrize("write", [
    lambda path: write_json({"a": [1.0, 2.5]}, path),
    lambda path: csv_export(_ramp_traj(5), path),
])
def test_a_write_cut_short_leaves_the_old_file(tmp_path, monkeypatch, write):
    (tmp_path / "ref").mkdir()
    write(tmp_path / "ref" / "artifact")
    (tmp_path / "out").mkdir()
    path = tmp_path / "out" / "artifact"
    path.write_text("old\n")
    real_fdopen = os.fdopen

    class Cut(Exception):
        pass

    def fdopen(fd, *args, **kwargs):
        fh = real_fdopen(fd, *args, **kwargs)
        real_write = fh.write

        def write_then_cut(text):
            real_write(text)   # part of the new bytes reach the temp file
            raise Cut

        fh.write = write_then_cut
        return fh

    monkeypatch.setattr(os, "fdopen", fdopen)
    with pytest.raises(Cut):
        write(path)
    assert path.read_text() == "old\n"
    assert _dir_names(path) == ["artifact"]    # no temp file left behind
    monkeypatch.undo()
    write(path)
    assert path.read_bytes() == (tmp_path / "ref" / "artifact").read_bytes()
    assert _dir_names(path) == ["artifact"]


def test_open_atomic_replaces_in_one_step_with_plain_permissions(tmp_path):
    path = tmp_path / "out.txt"
    plain = tmp_path / "plain.txt"
    with open(plain, "w") as fh:
        fh.write("x")
    with open_atomic(path) as fh:
        fh.write("new")
        (temp,) = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert temp.name.startswith(".out.txt.")
        assert not path.exists()
    assert path.read_text() == "new"
    assert path.stat().st_mode == plain.stat().st_mode
    assert _dir_names(path) == ["out.txt", "plain.txt"]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_write_json_refuses_non_finite_floats_naming_the_file(tmp_path, value):
    path = tmp_path / "record.json"
    write_json({"loss": 1.0}, path)
    with pytest.raises(DomainError, match="record.json"):
        write_json({"loss": value}, path)
    assert json.loads(path.read_text()) == {"loss": 1.0}
    assert _dir_names(path) == ["record.json"]
