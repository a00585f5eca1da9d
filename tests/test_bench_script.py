"""Verdicts of scripts/bench.py on hand-made parent/change runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_script", Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def runs(metric, parent, change):
    return [
        {"parent": {"metrics": {metric: p}}, "change": {"metrics": {metric: c}}}
        for p, c in zip(parent, change)
    ]


def test_clear_gain_on_a_lower_is_better_metric():
    m = bench.compare(WALL, runs("wall_s", [3.6, 3.8, 3.7, 3.9], [1.4, 1.3, 1.4, 1.5]))
    assert m["change_wins"] == 4
    assert m["gain"] and m["within_bound"] and m["resolved"]
    assert m["parent"]["median"] == pytest.approx(3.75)
    assert m["median_change_frac"] == pytest.approx(1.4 / 3.75 - 1.0)


def test_ties_count_for_neither_side():
    m = bench.compare(WALL, runs("wall_s", [2.0] * 10, [2.0] * 9 + [1.0]))
    assert m["change_wins"] == 1
    assert not m["gain"]
    assert m["within_bound"]


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [2.0] * 10
    assert bench.compare(WALL, runs("wall_s", parent, [1.0] * 9 + [3.0]))["gain"]
    assert not bench.compare(WALL, runs("wall_s", parent, [1.0] * 8 + [3.0] * 2))["gain"]


def test_gain_needs_more_than_the_parents_spread():
    # the change wins every pair, but by less than the parent's quartile spread
    m = bench.compare(WALL, runs("wall_s", [1.0, 1.2, 1.4, 1.6], [0.95, 1.15, 1.35, 1.55]))
    assert m["change_wins"] == 4
    assert not m["gain"]


def test_higher_is_better_metric_and_the_bound():
    worse = bench.compare(RATE, runs("frames_per_s", [100.0] * 4, [70.0] * 4))
    assert not worse["within_bound"] and worse["change_wins"] == 0
    slower = bench.compare(RATE, runs("frames_per_s", [100.0] * 4, [80.0] * 4))
    assert slower["within_bound"] and not slower["gain"]


def test_spread_wider_than_the_bound_is_unresolved():
    m = bench.compare(WALL, runs("wall_s", [1.0, 2.0, 3.0, 4.0], [2.5, 2.4, 2.6, 2.5]))
    assert not m["resolved"]


def test_change_snapshot_holds_the_working_tree_and_leaves_the_index(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    monkeypatch.setattr(bench, "ROOT", repo)
    bench.git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "kept.txt").write_text("committed\n")
    bench.git("add", "-A")
    bench.git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "base")
    (repo / "kept.txt").write_text("edited\n")
    (repo / "new.txt").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")

    tree = bench.snapshot()
    # edits after the snapshot do not reach the exported side
    (repo / "kept.txt").write_text("edited again\n")
    out = bench.export(tree, tmp_path / "change")

    assert (out / "kept.txt").read_text() == "edited\n"
    assert (out / "new.txt").read_text() == "untracked\n"
    assert not (out / "ignored.txt").exists()
    assert bench.git("diff", "--cached", "--name-only").stdout == b""
    assert bench.git("status", "--porcelain").stdout.decode().count("??") == 1
