"""Smoke runs of the experiment scripts at one training epoch."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from occlukg.harness import CROSS_ENVIRONMENT_COMBOS

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), "--epochs", "1", *args],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_benchmark_prints_f1_and_writes_artifacts(tmp_path):
    out = run_script("run_benchmark.py", "--out", str(tmp_path))
    assert "experiment: Virtual->Virtual, horizon 30" in out
    assert re.search(r"^occluded-class precision [\d.]+ recall [\d.]+ F1 [\d.]+$", out, re.M)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["spec"]["training"]["max_epochs"] == 1
    assert (tmp_path / "predictions.jsonl").read_text().count("\n") == report["n_frames"]


def test_contrast_prints_both_runs_and_the_gap():
    out = run_script("run_contrast.py")
    assert re.search(r"^Virtual->Virtual +F1 ", out, re.M)
    assert re.search(r"^Real->Virtual +F1 ", out, re.M)
    assert re.search(r"^informative-minus-uninformative F1 gap: -?[\d.]+$", out, re.M)


def test_cross_environment_prints_the_table():
    lines = run_script("run_cross_environment.py").splitlines()
    assert lines[0].split() == ["Train", "Data", "F1", "Precision", "Recall"]
    assert [line.split()[0] for line in lines[1:7]] == [
        label for label, _, _ in CROSS_ENVIRONMENT_COMBOS
    ]
