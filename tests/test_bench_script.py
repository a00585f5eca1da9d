"""Verdicts of scripts/bench.py on hand-made parent/change runs."""

import importlib.util
import json
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


def test_pair_ratio_is_taken_within_each_pair():
    # both sides drift together: each side's spread is wide, the per-pair ratio is not
    m = bench.compare(WALL, runs("wall_s", [1.0, 2.0, 3.0, 4.0], [0.9, 1.8, 2.7, 3.6]))
    assert m["pair_ratio"]["values"] == pytest.approx([0.9] * 4)
    assert m["pair_ratio"]["median"] == pytest.approx(0.9)
    assert m["pair_ratio"]["q3"] - m["pair_ratio"]["q1"] == pytest.approx(0.0, abs=1e-12)
    # the verdicts still rest on each side's own spread
    assert m["change_wins"] == 4
    assert not m["gain"] and not m["resolved"] and m["within_bound"]


def test_pair_ratio_skips_pairs_whose_parent_reads_zero():
    m = bench.compare(WALL, runs("wall_s", [0.0, 2.0, 4.0], [1.0, 1.0, 3.0]))
    assert m["pair_ratio"]["values"] == pytest.approx([0.5, 0.75])
    assert bench.compare(WALL, runs("wall_s", [0.0, 2.0], [1.0, 1.0]))["pair_ratio"] is None


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


BENCHMARK = {"workloads": [{"name": "headline"}, {"name": "predict"}, {"name": "ingest"}]}


def test_every_workload_by_default():
    args = bench.parse_args(["--parent", "HEAD", "--out", "b.json"], BENCHMARK)
    assert args.workload == ["headline", "predict", "ingest"]


def test_workload_flag_repeats_and_keeps_the_benchmark_order():
    argv = ["--parent", "HEAD", "--out", "b.json", "--workload", "ingest", "--workload",
            "headline", "--workload", "ingest"]
    assert bench.parse_args(argv, BENCHMARK).workload == ["headline", "ingest"]


def test_unknown_workload_exits_non_zero_naming_the_valid_ones(capsys):
    with pytest.raises(SystemExit) as info:
        bench.parse_args(["--parent", "HEAD", "--out", "b.json", "--workload", "train"],
                         BENCHMARK)
    assert info.value.code != 0
    err = capsys.readouterr().err
    assert "'train'" in err
    assert all(f"'{name}'" in err for name in ("headline", "predict", "ingest"))


def test_record_names_the_workloads_it_covers(tmp_path, monkeypatch):
    ran = []

    def fake_run(checkout, workload, seed, seconds):
        ran.append((checkout.name, workload))
        return {"metrics": {m["name"]: 1.0 for m in bench.load_benchmark()["end_to_end"]},
                "attempted": 1, "failed": 0}

    monkeypatch.setattr(bench, "resolve", lambda rev: rev)
    monkeypatch.setattr(bench, "snapshot", lambda: "tree")
    monkeypatch.setattr(bench, "export", lambda tree, into: into)
    monkeypatch.setattr(bench, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", "p", "--out", str(out), "--workload", "ingest"]) == 0

    record = json.loads(out.read_text())
    assert record["workloads"] == ["ingest"]
    assert [r["workload"] for r in record["results"]] == ["ingest"]
    assert {workload for _, workload in ran} == {"ingest"}
    assert len(ran) == 2 * bench.PAIRS
