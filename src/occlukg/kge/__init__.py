"""Knowledge-graph embedding: model, trainer, ranking, calibration."""

from .model import (
    CheckpointError,
    ComplexModel,
    init_embeddings,
    init_tables,
    load_checkpoint,
    save_checkpoint,
    score_batch,
    score_gradient,
    score_triple,
)
from .train import (
    AdamState,
    TrainingConfig,
    TrainingResult,
    adam_step,
    corrupt_batch,
    self_adversarial_loss,
    train,
)
from .ranking import RankingReport, evaluate_ranking
from .calibrate import CalibrationResult, calibrate, fit_platt, triple_probability

__all__ = [
    "AdamState",
    "CalibrationResult",
    "CheckpointError",
    "ComplexModel",
    "RankingReport",
    "TrainingConfig",
    "TrainingResult",
    "adam_step",
    "calibrate",
    "corrupt_batch",
    "evaluate_ranking",
    "fit_platt",
    "init_embeddings",
    "init_tables",
    "load_checkpoint",
    "save_checkpoint",
    "score_batch",
    "score_gradient",
    "score_triple",
    "self_adversarial_loss",
    "train",
    "triple_probability",
]
