"""The summary of tools/perf_pairs.py on canned perfbench results."""

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perf_pairs", os.path.join(ROOT, "tools", "perf_pairs.py"))
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

METRICS = [{"name": "wall_s", "better": "lower"},
           {"name": "items_per_s", "better": "higher"}]


def _result(wall, items, correct=True):
    return {"correct": correct,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "items_per_s": {"value": items, "unit": "1/s"}}}


def test_summary_medians_spread_ratio_and_wins():
    pairs = [(_result(w, i), _result(cw, ci)) for w, i, cw, ci in (
        (10.0, 100.0, 9.0, 110.0),
        (12.0, 90.0, 12.5, 95.0),
        (11.0, 80.0, 10.0, 70.0),
        (13.0, 95.0, 9.5, 105.0),
        (14.0, 85.0, 11.0, 99.0))]
    (wall, items) = perf_pairs.summarize(pairs, METRICS)
    name, p_med, spread, c_med, ratio, wins = wall
    assert (name, p_med, c_med, wins) == ("wall_s", 12.0, 10.0, 4)
    # parent quartiles 11 and 13 (inclusive method) around a median of 12
    assert spread == pytest.approx(2.0 / 12.0)
    assert ratio == pytest.approx(10.0 / 12.0)
    name, p_med, spread, c_med, ratio, wins = items
    assert (name, p_med, c_med, wins) == ("items_per_s", 90.0, 99.0, 4)
    assert spread == pytest.approx(10.0 / 90.0)
    table = perf_pairs.format_rows([wall, items], len(pairs))
    assert "4/5" in table and "16.7%" in table and "0.833" in table


def test_one_incorrect_run_fails_the_set():
    good = (_result(1.0, 1.0), _result(1.0, 1.0))
    assert perf_pairs.all_correct([good, good])
    assert not perf_pairs.all_correct(
        [good, (_result(1.0, 1.0), _result(1.0, 1.0, correct=False))])


def test_a_single_pair_has_no_spread():
    (row,) = perf_pairs.summarize([(_result(2.0, 1.0), _result(1.0, 1.0))],
                                  METRICS[:1])
    assert row[2] == 0.0 and row[5] == 1


@pytest.mark.parametrize("argv, seed", [([], "1"), (["--seed", "3"], "3")])
def test_seed_reaches_every_perfbench_run(tmp_path, monkeypatch, capsys,
                                          argv, seed):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": METRICS}))
    seeds = []

    def run(cmd, cwd, **kwargs):
        seeds.append(cmd[cmd.index("--seed") + 1])
        return subprocess.CompletedProcess(
            cmd, 0, stdout=json.dumps(_result(1.0, 1.0)) + "\n", stderr="")

    monkeypatch.setattr(perf_pairs.subprocess, "run", run)
    assert perf_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w",
                            "--pairs", "2", *argv]) == 0
    assert seeds == [seed] * 4
    assert f"seed {seed}" in capsys.readouterr().out
