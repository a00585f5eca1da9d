"""Experiment orchestration: split, train, calibrate, predict, score.

Scoring is one-vs-rest for the occluded class: a prediction counts as
positive iff it names PedestrianOccluded, so confusing the two
pedestrian-free/visible classes with each other never moves the
reported precision/recall/F1.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

from .bayes import DEFAULT_HORIZON, FramePrediction, predict_frame
from .kg import (
    PROTO_NO_PED,
    PROTO_OCCLUDED,
    PROTO_VISIBLE,
    ROAD_SCENE,
    FoldAssignment,
    SplitError,
    Triple,
    assign_folds,
    make_split,
)
from .kge.calibrate import CalibrationResult, calibrate
from .kge.train import TrainingConfig, train
from .scenes import Environment, RoadSceneDocument, SceneLabel

_PATTERN_SUBJECTS = (ROAD_SCENE, PROTO_OCCLUDED, PROTO_VISIBLE, PROTO_NO_PED)


@dataclass(frozen=True)
class ExperimentSpec:
    """One train/predict run: environment selection plus all knobs.

    Every run fits the trained model's probability map on the pattern
    grid of its training graph (see ``_calibration_sets``) before
    predicting; a grid without a negative keeps the identity map.
    """

    train_environments: tuple[Environment, ...]
    test_environments: tuple[Environment, ...]
    counts: Mapping[Environment, tuple[int, int]]
    horizon: int = DEFAULT_HORIZON
    training: TrainingConfig = TrainingConfig()
    seed: int = 0
    validation_ratio: float = 0.1
    # Not a field: the one naive-Bayes denominator, still read by perfbench.
    denominator: ClassVar[str] = "marginal"

    def __post_init__(self):
        object.__setattr__(self, "train_environments", tuple(self.train_environments))
        object.__setattr__(self, "test_environments", tuple(self.test_environments))
        if not self.train_environments:
            raise ValueError("no training environments")
        if not self.test_environments:
            raise ValueError("no test environments")
        for env in (*self.train_environments, *self.test_environments):
            if env not in self.counts:
                raise ValueError(f"no split counts for environment {env.value}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if not 0.0 <= self.validation_ratio < 1.0:
            raise ValueError("validation_ratio must lie in [0, 1)")

    def label(self) -> str:
        return f"{_env_set_label(self.train_environments)}->{_env_set_label(self.test_environments)}"

    def echo(self) -> dict:
        return {
            "train_environments": [e.value for e in self.train_environments],
            "test_environments": [e.value for e in self.test_environments],
            "counts": {
                env.value: list(self.counts[env])
                for env in sorted(self.counts, key=lambda e: e.value)
            },
            "horizon": self.horizon,
            "training": dataclasses.asdict(self.training),
            "seed": self.seed,
            "validation_ratio": self.validation_ratio,
        }


def _env_set_label(envs: Sequence[Environment]) -> str:
    unique = sorted({e.value for e in envs})
    return "Mixed" if len(unique) > 1 else unique[0]


def headline_spec(
    train_environments: tuple[Environment, ...] = (Environment.VIRTUAL,),
    *,
    fold_seed: int = 13,
    train_seed: int = 0,
    k: int = 32,
    epochs: int = 200,
    horizon: int = DEFAULT_HORIZON,
) -> ExperimentSpec:
    """The headline experiment, scored on held-out Virtual scenes.

    Trains on ``train_environments`` (Virtual->Virtual by default). There
    is no validation fold, so training runs all ``epochs``. The scripts
    in ``scripts/`` turn each keyword setting into an integer option of
    the same name, in this order and with this default.
    """
    return ExperimentSpec(
        train_environments=train_environments,
        test_environments=(Environment.VIRTUAL,),
        counts={Environment.REAL: (32, 8), Environment.VIRTUAL: (50, 9)},
        horizon=horizon,
        training=TrainingConfig(
            k=k,
            eta=15,
            learning_rate=0.05,
            batch_size=2048,
            max_epochs=epochs,
            check_every=1000,
            patience=5,
            seed=train_seed,
        ),
        seed=fold_seed,
        validation_ratio=0.0,
    )


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def add(self, predicted_positive: bool, actually_positive: bool) -> "ConfusionMatrix":
        return ConfusionMatrix(
            tp=self.tp + (predicted_positive and actually_positive),
            fp=self.fp + (predicted_positive and not actually_positive),
            fn=self.fn + (not predicted_positive and actually_positive),
            tn=self.tn + (not predicted_positive and not actually_positive),
        )

    def to_record(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}


@dataclass(frozen=True)
class CoreMetrics:
    precision: float
    recall: float
    f1: float


def compute_metrics(cm: ConfusionMatrix) -> CoreMetrics:
    """P, R, F1 with the zero rule: 0 whenever a denominator vanishes."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return CoreMetrics(precision=precision, recall=recall, f1=f1)


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    confusion: ConfusionMatrix
    per_environment: Mapping[str, dict]
    spec_echo: dict
    clamp_rate: float
    truncation_rate: float
    oov_item_rate: float
    calibration: dict
    n_frames: int

    def to_record(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion": self.confusion.to_record(),
            "per_environment": {k: dict(v) for k, v in sorted(self.per_environment.items())},
            "spec": self.spec_echo,
            "diagnostics": {
                "clamp_rate": self.clamp_rate,
                "truncation_rate": self.truncation_rate,
                "oov_item_rate": self.oov_item_rate,
            },
            "calibration": self.calibration,
            "n_frames": self.n_frames,
        }


def _calibration_sets(split) -> tuple[list[Triple], list[Triple]]:
    """Probability-map fitting sets for the class-pattern triple family.

    Posterior inference only ever scores triples whose subject is a
    class prototype or the shared root entity, so the sigmoid is fitted
    on exactly that family: pattern triples present in the training
    graph are the positives, and the absent cells of the same
    subject x relation x object grid are the negatives.  The absent
    cells are the decisive ones — they sit much closer to the positives
    than random corruptions do, which keeps the fitted slope gentle
    enough that score differences among high-scoring triples survive
    the mapping.  A cell is absent when it is neither a training nor a
    validation triple (the split holds nothing of the test fold).

    With two or more training labels the cell <prototype of A,
    contains, B> is always absent, so there is a negative.  With one
    label, RoadScene and that label's prototype carry the same pairs
    and the grid has no absent cell: the negatives come back empty.
    """
    known = split.all_known()
    # prototypes for classes absent from the train fold have no embedding
    subjects = tuple(s for s in _PATTERN_SUBJECTS if s in split.kg.entity_index)
    positives = [t for t in split.train if t.subject in subjects]
    objects_by_relation: dict[str, set[str]] = {}
    for t in positives:
        objects_by_relation.setdefault(t.relation, set()).add(t.object)
    negatives = [
        Triple(subject, relation, obj)
        for relation in sorted(objects_by_relation)
        for subject in subjects
        for obj in sorted(objects_by_relation[relation])
        if Triple(subject, relation, obj) not in known
    ]
    return positives, negatives


def run_experiment_with_predictions(
    corpus: Sequence[RoadSceneDocument], spec: ExperimentSpec
) -> tuple[MetricsReport, list[FramePrediction]]:
    """run_experiment, also returning every per-frame prediction."""
    folds = assign_folds(corpus, spec.counts, spec.seed, spec.validation_ratio)
    train_envs = set(spec.train_environments)
    test_envs = set(spec.test_environments)
    restricted = FoldAssignment(
        train=tuple(d for d in folds.train if d.context.environment in train_envs),
        validation=tuple(
            d for d in folds.validation if d.context.environment in train_envs
        ),
        test=tuple(d for d in folds.test if d.context.environment in test_envs),
    )
    if not restricted.train:
        raise SplitError("spec selects zero training scenes")
    if not restricted.test:
        raise SplitError("spec selects zero test scenes")

    split = make_split(restricted)
    result = train(split, spec.training)
    model = result.model

    positives, negatives = _calibration_sets(split)
    if negatives:
        cal = calibrate(model, positives, negatives)
    else:
        # one training label: its prototype wins every frame whatever the map
        cal = CalibrationResult(
            1.0, 0.0, warning=True,
            message="calibration grid has no negative; using identity map",
        )

    cm = ConfusionMatrix()
    env_cms: dict[str, ConfusionMatrix] = {}
    predictions: list[FramePrediction] = []
    clamped = 0
    reports_total = 0
    truncated = 0
    dropped_items = 0
    items_total = 0
    for doc in restricted.test:
        env = doc.context.environment.value
        env_cms.setdefault(env, ConfusionMatrix())
        for t in range(len(doc.frames)):
            pred = predict_frame(model, doc, t, horizon=spec.horizon)
            predictions.append(pred)
            is_pred = pred.predicted is SceneLabel.PEDESTRIAN_OCCLUDED
            is_true = pred.ground_truth is SceneLabel.PEDESTRIAN_OCCLUDED
            cm = cm.add(is_pred, is_true)
            env_cms[env] = env_cms[env].add(is_pred, is_true)
            clamped += sum(r.clamp_flagged for r in pred.reports)
            reports_total += len(pred.reports)
            truncated += pred.truncated
            dropped_items += len(pred.dropped_evidence)
            items_total += len(pred.evidence) + len(pred.dropped_evidence)

    core = compute_metrics(cm)
    per_env = {}
    for env, env_cm in sorted(env_cms.items()):
        env_core = compute_metrics(env_cm)
        per_env[env] = {
            "precision": env_core.precision,
            "recall": env_core.recall,
            "f1": env_core.f1,
            "confusion": env_cm.to_record(),
            "n_frames": env_cm.total,
        }
    n_frames = cm.total
    report = MetricsReport(
        precision=core.precision,
        recall=core.recall,
        f1=core.f1,
        confusion=cm,
        per_environment=per_env,
        spec_echo={"label": spec.label(), **spec.echo()},
        clamp_rate=clamped / reports_total if reports_total else 0.0,
        truncation_rate=truncated / n_frames if n_frames else 0.0,
        oov_item_rate=dropped_items / items_total if items_total else 0.0,
        calibration={"a": cal.a, "b": cal.b, "warning": cal.warning, "message": cal.message},
        n_frames=n_frames,
    )
    return report, predictions


def run_experiment(
    corpus: Sequence[RoadSceneDocument], spec: ExperimentSpec
) -> MetricsReport:
    """Split, train, calibrate, predict every test frame, score."""
    report, _ = run_experiment_with_predictions(corpus, spec)
    return report


CROSS_ENVIRONMENT_COMBOS: tuple[tuple[str, tuple[Environment, ...], tuple[Environment, ...]], ...] = (
    ("Real->Real", (Environment.REAL,), (Environment.REAL,)),
    ("Virtual->Virtual", (Environment.VIRTUAL,), (Environment.VIRTUAL,)),
    ("Mixed->Real", (Environment.REAL, Environment.VIRTUAL), (Environment.REAL,)),
    ("Mixed->Virtual", (Environment.REAL, Environment.VIRTUAL), (Environment.VIRTUAL,)),
    ("Real->Virtual", (Environment.REAL,), (Environment.VIRTUAL,)),
    ("Virtual->Real", (Environment.VIRTUAL,), (Environment.REAL,)),
)


def run_cross_environment(
    corpus: Sequence[RoadSceneDocument], base: ExperimentSpec
) -> dict[str, MetricsReport]:
    """All train/test environment combinations under one fold assignment.

    ``base`` fixes counts, seed and every training knob; only the
    environment selections vary, so each combination shares the same
    per-environment test scenes.
    """
    present = {d.context.environment for d in corpus}
    for env in (Environment.REAL, Environment.VIRTUAL):
        if env not in present:
            raise SplitError(f"corpus has no {env.value} scenes")
    out: dict[str, MetricsReport] = {}
    for label, train_envs, test_envs in CROSS_ENVIRONMENT_COMBOS:
        spec = dataclasses.replace(
            base, train_environments=train_envs, test_environments=test_envs
        )
        out[label] = run_experiment(corpus, spec)
    return out


def render_report(reports: Mapping[str, MetricsReport]) -> tuple[str, str]:
    """(text table, JSONL records) for a set of labelled reports.

    Text rows carry F1, precision and recall rounded to two decimals
    and single-space separated; the records keep full precision.
    """
    width = max([len("Train Data"), *(len(k) for k in reports)], default=len("Train Data"))
    lines = [f"{'Train Data':<{width}} F1 Precision Recall"]
    records = []
    for label, report in reports.items():
        lines.append(
            f"{label:<{width}} {report.f1:.2f} {report.precision:.2f} {report.recall:.2f}"
        )
        records.append(
            json.dumps({"train_data": label, **report.to_record()}, sort_keys=True)
        )
    text = "\n".join(lines) + "\n"
    jsonl = "\n".join(records) + "\n" if records else ""
    return text, jsonl
