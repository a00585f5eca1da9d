"""Bayesian occlusion prediction over calibrated triple probabilities.

For a hypothesis h (the scene's pedestrian label) and frame evidence
e_1..e_n, the posterior follows P(h|e) = P(h) P(e|h) / P(e) with a
naive factorization across evidence items: every probability on the
right is the calibrated score of one knowledge-graph triple, the prior
and marginals against the generic RoadScene subject, the conditionals
against the hypothesis' class prototype. The factorization is a
modelling convenience, not a coherent joint distribution, so the raw
posterior can exceed 1 and is clamped (and flagged) for decisions.

``posterior`` is the one place that scores a hypothesis. One whose
prototype the model lacks scores 0 and cannot win, and the mixture
denominator sums only over the hypotheses whose prototype is present.

Prediction reads the same few dozen triples on every frame, so each
triple's probability is computed once per (model, calibration), checked
against the ontology on that first computation (a bad pair raises
ValueError from ``posterior``), and then read back from the model's
memo; assigning a new ``model.calibration`` starts the memo afresh.
After the first prediction the model's four embedding tables are
read-only, so an in-place write raises instead of leaving stale
probabilities behind; ``model.copy()`` gives writable tables and an
empty memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

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
        return {
            "label": self.hypothesis.label.value,
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
                    "source": f.item.source.value,
                    "marginal": f.marginal,
                    "conditional": f.conditional,
                    "ratio": f.ratio,
                }
                for f in self.factors
            ],
        }


def extract_evidence(doc: RoadSceneDocument, frame_index: int) -> list[EvidenceItem]:
    """Evidence items for one frame: context first, then vehicles by id."""
    if not 0 <= frame_index < len(doc.frames):
        raise IndexError(
            f"frame_index {frame_index} out of range for {len(doc.frames)} frames"
        )
    frame = doc.frames[frame_index]
    return [
        EvidenceItem(relation=rel, object=obj, source=EvidenceSource(src))
        for rel, obj, src in frame_evidence_pairs(doc, frame)
    ]


def _probability(model: ComplexModel, subject: str, relation: str, object: str) -> float:
    """triple_probability, ontology-checked and computed once per (model, calibration)."""
    memo = model.probability_memo()
    key = (subject, relation, object)
    p = memo.get(key)
    if p is None:
        problem = ONTOLOGY.check(Triple(subject, relation, object))
        if problem:
            raise ValueError(f"triple fails ontology check: {problem}")
        p = memo[key] = triple_probability(model, subject, relation, object)
    return p


def prior(model: ComplexModel, h: Hypothesis) -> float:
    """Calibrated probability of <RoadScene, contains, label>."""
    return _probability(model, ROAD_SCENE, "contains", h.label.value)


def evidence_marginal(model: ComplexModel, e: EvidenceItem) -> float:
    """Calibrated probability of <RoadScene, e.relation, e.object>."""
    return _probability(model, ROAD_SCENE, e.relation, e.object)


def evidence_conditional(model: ComplexModel, e: EvidenceItem, h: Hypothesis) -> float:
    """Calibrated probability of <h.prototype, e.relation, e.object>."""
    return _probability(model, h.prototype, e.relation, e.object)


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
    prior 0, no factors, denominator 1.
    """
    if denominator not in DENOMINATOR_MODES:
        raise ValueError(f"denominator must be one of {DENOMINATOR_MODES}")
    if h.prototype not in model.entity_index:
        return PosteriorReport(hypothesis=h, prior=0.0, factors=(), denominator=1.0, raw=0.0,
                               clamped=0.0, clamp_flagged=False, denominator_mode=denominator)
    factors = []
    for e in evidence:
        marg = evidence_marginal(model, e)
        cond = evidence_conditional(model, e, h)
        factors.append(EvidenceFactor(item=e, marginal=marg, conditional=cond, ratio=cond / marg))
    num = _product(f.conditional for f in factors)
    if denominator == "marginal":
        den = _product(f.marginal for f in factors)
    else:
        den = 0.0
        for other in HYPOTHESES:
            if other.prototype in model.entity_index:
                den += prior(model, other) * _product(
                    evidence_conditional(model, e, other) for e in evidence
                )
    p_h = prior(model, h)
    raw = p_h * num / den
    clamped = min(max(raw, 0.0), 1.0)
    return PosteriorReport(
        hypothesis=h,
        prior=p_h,
        factors=tuple(factors),
        denominator=den,
        raw=raw,
        clamped=clamped,
        clamp_flagged=clamped != raw,
        denominator_mode=denominator,
    )


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
            "predicted": self.predicted.value,
            "ground_truth": self.ground_truth.value,
            "dropped_evidence": [
                {"relation": e.relation, "object": e.object} for e in self.dropped_evidence
            ],
            "hypotheses": [r.to_record() for r in self.reports],
        }


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
    usable: list[EvidenceItem] = []
    dropped: list[EvidenceItem] = []
    for e in extract_evidence(doc, t):
        (usable if e.object in model.entity_index else dropped).append(e)
    reports = [posterior(model, h, usable, denominator=denominator) for h in HYPOTHESES]
    predicted = max(reports, key=lambda r: r.clamped).hypothesis.label  # first maximum
    last = len(doc.frames) - 1
    return FramePrediction(
        scene_id=doc.scene_id,
        frame_index=t,
        frame_number=doc.frames[t].frame_number,
        horizon=horizon,
        truncated=t + horizon > last,
        predicted=predicted,
        ground_truth=doc.frames[min(t + horizon, last)].pedestrians_scene,
        reports=tuple(replace(r, predicted_label=predicted) for r in reports),
        evidence=tuple(usable),
        dropped_evidence=tuple(dropped),
    )
