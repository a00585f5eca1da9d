"""The trainer's quality gate in the benchmark's per-pass checks.

Run with: python -m pytest perfbench/tests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from passes import FINAL_LOSS_LIMIT, loss_failures  # noqa: E402


def test_a_loss_that_ends_at_or_below_the_limit_passes():
    for epochs, limit in FINAL_LOSS_LIMIT.items():
        assert loss_failures([1.39] * (epochs - 1) + [limit]) == []


def test_a_trainer_that_learns_less_fails_the_gate():
    # Relation gradients dropped: 1.167 after 6 epochs.
    assert len(loss_failures([1.39, 1.30, 1.19, 1.19, 1.20, 1.167])) == 1
    # Repeated rows dropped by the scatter: 1.397 after 2 epochs.
    assert len(loss_failures([1.39, 1.397])) == 2


def test_a_loss_that_does_not_fall_fails_at_any_epoch_count():
    assert loss_failures([1.0, 1.0, 1.0]) == ["training loss did not fall"]
    assert len(loss_failures([1.39, 1.40, 1.41, 1.43, 1.46, 1.49])) == 2
