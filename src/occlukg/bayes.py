"""Bayesian occlusion prediction over calibrated triple probabilities.

For a hypothesis h (the scene's pedestrian label) and frame evidence
e_1..e_n, the posterior follows P(h|e) = P(h) P(e|h) / P(e) with a
naive factorization across evidence items: every probability on the
right is the calibrated score of one knowledge-graph triple, the prior
and marginals against the generic RoadScene subject, the conditionals
against the hypothesis' class prototype. The factorization is a
modelling convenience, not a coherent joint distribution, so the raw
posterior can exceed 1 and is clamped (and flagged) for decisions.

``posterior`` (through ``_score``) is the one place that turns factors
into a prior, denominator, raw and clamped value, in both denominator
modes. A hypothesis whose prototype the model lacks scores 0 and cannot
win, and the mixture denominator sums only over the hypotheses whose
prototype is present.

Prediction reads the same few dozen triples on every frame, so they
are computed once per (model, calibration) and kept in one memo,
``model.memo()``. It holds one row per (relation, object, source)
evidence pair: its ``EvidenceItem``, whether the object is in the
model vocabulary (usable) or dropped, and its ``EvidenceFactor`` under
each hypothesis whose prototype is present. Each triple is checked
against the ontology when its row is built (a bad pair raises
ValueError from ``posterior``). Beside the rows, the memo holds each
hypothesis' prior under its index in HYPOTHESES, computed on first
use. ``predict_frame`` assembles a frame from those rows, decides the
label from the three clamped values, and then builds each report once.
A row is stored only when complete, so a failure is never cached.
Assigning a new ``model.calibration`` starts the memo afresh. After the
first prediction the model's four embedding tables are read-only, so
an in-place write raises instead of leaving stale probabilities behind;
``model.copy()`` gives writable tables and an empty memo.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .kg import ONTOLOGY, PROTOTYPE_FOR_LABEL, ROAD_SCENE, Triple, frame_evidence_pairs
from .kge.calibrate import triple_probability
from .kge.model import ComplexModel
from .scenes import RoadSceneDocument, SceneLabel

DEFAULT_HORIZON = 30

DENOMINATOR_MODES = ("marginal", "mixture")


@dataclass(frozen=True)
class Hypothesis:
    label: SceneLabel

    @property
    def prototype(self) -> str:
        return PROTOTYPE_FOR_LABEL[self.label]


# Decision tie order: prefer the safety-critical call.
HYPOTHESES = (
    Hypothesis(SceneLabel.PEDESTRIAN_OCCLUDED),
    Hypothesis(SceneLabel.PEDESTRIAN_NOT_OCCLUDED),
    Hypothesis(SceneLabel.NONE_PEDESTRIAN),
)


class EvidenceSource(str, Enum):
    CONTEXT = "Context"
    VEHICLE = "Vehicle"


@dataclass(frozen=True)
class EvidenceItem:
    relation: str
    object: str
    source: EvidenceSource


@dataclass(frozen=True)
class EvidenceFactor:
    item: EvidenceItem
    marginal: float
    conditional: float
    ratio: float


def _product(values) -> float:
    """Left-to-right product from 1.0, the one order every posterior uses."""
    return math.prod(values, start=1.0)


# What ``posterior`` and ``predict_frame`` read of HYPOTHESES on every
# frame, as plain strings: no property or enum descriptor per read.
_PROTOTYPES = tuple(h.prototype for h in HYPOTHESES)
_LABEL_VALUES = tuple(h.label.value for h in HYPOTHESES)


@dataclass(frozen=True)
class PosteriorReport:
    hypothesis: Hypothesis
    prior: float
    factors: tuple[EvidenceFactor, ...]
    denominator: float
    raw: float
    clamped: float
    clamp_flagged: bool
    denominator_mode: str
    predicted_label: Optional[SceneLabel] = None

    def recompute_raw(self) -> float:
        """Re-derive raw from recorded factors (exact in marginal mode)."""
        return self.prior * _product(f.conditional for f in self.factors) / self.denominator

    def to_record(self) -> dict:
        # ``_value_`` is the enum member's plain value attribute; reading
        # it skips the ``.value`` property, which is a Python-level call.
        return {
            "label": self.hypothesis.label._value_,
            "prior": self.prior,
            "denominator": self.denominator,
            "denominator_mode": self.denominator_mode,
            "raw": self.raw,
            "clamped": self.clamped,
            "clamp_flagged": self.clamp_flagged,
            "factors": [
                {
                    "relation": f.item.relation,
                    "object": f.item.object,
                    "source": f.item.source._value_,
                    "marginal": f.marginal,
                    "conditional": f.conditional,
                    "ratio": f.ratio,
                }
                for f in self.factors
            ],
        }


def _frame(doc: RoadSceneDocument, frame_index: int):
    if not 0 <= frame_index < len(doc.frames):
        raise IndexError(
            f"frame_index {frame_index} out of range for {len(doc.frames)} frames"
        )
    return doc.frames[frame_index]


def extract_evidence(doc: RoadSceneDocument, frame_index: int) -> list[EvidenceItem]:
    """Evidence items for one frame: context first, then vehicles by id."""
    return [
        EvidenceItem(relation=rel, object=obj, source=EvidenceSource(src))
        for rel, obj, src in frame_evidence_pairs(doc, _frame(doc, frame_index))
    ]


def _probability(model: ComplexModel, subject: str, relation: str, object: str) -> float:
    """triple_probability of a triple; ValueError if it fails the ontology check."""
    problem = ONTOLOGY.check(Triple(subject, relation, object))
    if problem:
        raise ValueError(f"triple fails ontology check: {problem}")
    return triple_probability(model, subject, relation, object)


def _prior(model: ComplexModel, memo: dict, i: int) -> float:
    """Calibrated probability of <RoadScene, contains, HYPOTHESES[i]'s label>, memoized under i."""
    p = memo.get(i)
    if p is None:
        p = memo[i] = _probability(model, ROAD_SCENE, "contains", _LABEL_VALUES[i])
    return p


class _Row:
    """The memo row of one (relation, object, source) evidence pair.

    ``factors`` holds the pair's factor under each of HYPOTHESES, None
    where the model lacks that prototype; a row whose object the model
    lacks is not usable and has no factors. Rows live in
    ``model.memo()``, stored by ``memo.setdefault`` only once built, so
    a pair that fails the ontology check raises on every use.
    """

    __slots__ = ("item", "usable", "factors")

    def __init__(self, model: ComplexModel, relation: str, object: str, source: str):
        self.item = EvidenceItem(relation, object, EvidenceSource(source))
        self.usable = object in model.entity_index
        self.factors = None
        if self.usable:
            marg = _probability(model, ROAD_SCENE, relation, object)
            factors = []
            for proto in _PROTOTYPES:
                if proto in model.entity_index:
                    cond = _probability(model, proto, relation, object)
                    factors.append(EvidenceFactor(self.item, marg, cond, cond / marg))
                else:
                    factors.append(None)
            self.factors = tuple(factors)


# (prior, factors, denominator, raw, clamped, clamp_flagged) of a
# hypothesis whose prototype the model lacks.
_ZERO_SCORE = (0.0, (), 1.0, 0.0, 0.0, False)


def _score(
    model: ComplexModel, memo: dict, i: int, rows: Sequence[_Row], denominator: str
) -> tuple:
    """PosteriorReport's (prior, factors, denominator, raw, clamped, clamp_flagged)
    for HYPOTHESES[i] over usable rows; see ``posterior``."""
    index = model.entity_index
    if _PROTOTYPES[i] not in index:
        return _ZERO_SCORE
    factors = tuple([row.factors[i] for row in rows])
    num = _product([f.conditional for f in factors])
    if denominator == "marginal":
        den = _product([f.marginal for f in factors])
    else:
        den = 0.0
        for j, proto in enumerate(_PROTOTYPES):
            if proto in index:
                den += _prior(model, memo, j) * _product(
                    [row.factors[j].conditional for row in rows]
                )
    p_h = _prior(model, memo, i)
    raw = p_h * num / den
    clamped = min(max(raw, 0.0), 1.0)
    return p_h, factors, den, raw, clamped, clamped != raw


def posterior(
    model: ComplexModel,
    h: Hypothesis,
    evidence: Sequence[EvidenceItem],
    denominator: str = "marginal",
) -> PosteriorReport:
    """P(h)·Π P(e_i|h) / D with D per the chosen denominator mode.

    "marginal": D = Π P(e_i) against the generic RoadScene subject
    (empty product = 1, so no evidence reproduces the prior exactly).
    "mixture": D = Σ_h' P(h')·Π P(e_i|h') over the hypotheses whose
    prototype the model has, which normalizes their posteriors to a
    proper distribution. Raw values above 1 (possible in marginal mode:
    the factors are calibrated scores, not a joint law) are clamped and
    flagged. If the model lacks h's prototype the report is all zero:
    prior 0, no factors, denominator 1. Every evidence object must be
    in the model vocabulary (``predict_frame`` drops those that are not).
    """
    if denominator not in DENOMINATOR_MODES:
        raise ValueError(f"denominator must be one of {DENOMINATOR_MODES}")
    memo = model.memo()
    rows = []
    for e in evidence:
        pair = (e.relation, e.object, e.source.value)
        row = memo.get(pair) or memo.setdefault(pair, _Row(model, *pair))
        if not row.usable:
            raise KeyError(e.object)
        rows.append(row)
    return PosteriorReport(h, *_score(model, memo, HYPOTHESES.index(h), rows, denominator),
                           denominator)


@dataclass(frozen=True)
class FramePrediction:
    scene_id: str
    frame_index: int
    frame_number: int
    horizon: int
    truncated: bool
    predicted: SceneLabel
    ground_truth: SceneLabel
    reports: tuple[PosteriorReport, ...]
    evidence: tuple[EvidenceItem, ...]
    dropped_evidence: tuple[EvidenceItem, ...] = ()

    def to_record(self) -> dict:
        return {
            "scene": self.scene_id,
            "frame_index": self.frame_index,
            "frame": self.frame_number,
            "horizon": self.horizon,
            "truncated": self.truncated,
            "predicted": self.predicted._value_,
            "ground_truth": self.ground_truth._value_,
            "dropped_evidence": [
                {"relation": e.relation, "object": e.object} for e in self.dropped_evidence
            ],
            "hypotheses": [r.to_record() for r in self.reports],
        }


def predictions_jsonl(preds: Iterable[FramePrediction]) -> str:
    """The text of predictions.jsonl: each prediction's record as sorted-key JSON, one per line."""
    return "".join(json.dumps(p.to_record(), sort_keys=True) + "\n" for p in preds)


def predict_frame(
    model: ComplexModel,
    doc: RoadSceneDocument,
    t: int,
    horizon: int = DEFAULT_HORIZON,
    denominator: str = "marginal",
) -> FramePrediction:
    """Predict the pedestrian label ``horizon`` frames past frame t.

    Evidence comes from frame t alone. The decision is the argmax of
    clamped posteriors over the three hypotheses, ties resolved in the
    fixed order Occluded > NotOccluded > None. Ground truth is read
    from frame min(t+horizon, last); running past the end sets the
    truncated flag. Evidence whose value entity is missing from the
    model vocabulary is dropped (and recorded) rather than scored.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if denominator not in DENOMINATOR_MODES:
        raise ValueError(f"denominator must be one of {DENOMINATOR_MODES}")
    memo = model.memo()
    usable: list[_Row] = []
    dropped: list[EvidenceItem] = []
    for pair in frame_evidence_pairs(doc, _frame(doc, t)):
        row = memo.get(pair) or memo.setdefault(pair, _Row(model, *pair))
        if row.usable:
            usable.append(row)
        else:
            dropped.append(row.item)
    scores = [_score(model, memo, i, usable, denominator) for i in range(len(HYPOTHESES))]
    best = max(range(len(scores)), key=lambda i: scores[i][4])  # first maximum
    predicted = HYPOTHESES[best].label
    last = len(doc.frames) - 1
    return FramePrediction(
        scene_id=doc.scene_id,
        frame_index=t,
        frame_number=doc.frames[t].frame_number,
        horizon=horizon,
        truncated=t + horizon > last,
        predicted=predicted,
        ground_truth=doc.frames[min(t + horizon, last)].pedestrians_scene,
        reports=tuple(PosteriorReport(h, *score, denominator, predicted)
                      for h, score in zip(HYPOTHESES, scores)),
        evidence=tuple(row.item for row in usable),
        dropped_evidence=tuple(dropped),
    )
