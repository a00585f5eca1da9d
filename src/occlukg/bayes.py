"""Bayesian occlusion prediction over calibrated triple probabilities.

For a hypothesis h (the scene's pedestrian label) and frame evidence
e_1..e_n, the posterior follows P(h|e) = P(h) P(e|h) / P(e) with a
naive factorization across evidence items: every probability on the
right is the calibrated score of one knowledge-graph triple, the prior
and marginals against the generic RoadScene subject, the conditionals
against the hypothesis' class prototype. The factorization is a
modelling convenience, not a coherent joint distribution, so the raw
posterior can exceed 1 and is clamped (and flagged) for decisions.

Prediction reads the same few dozen triples on every frame, so two
rules hold. Each triple's probability is computed once per (model,
calibration) and then read back from the model's memo; assigning a new
``model.calibration`` starts the memo afresh. After the first
prediction the model's four embedding tables are read-only, so an
in-place write raises instead of leaving stale probabilities behind;
``model.copy()`` gives writable tables and an empty memo.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    prototype: str

    def __post_init__(self):
        expected = PROTOTYPE_FOR_LABEL[self.label]
        if self.prototype != expected:
            raise ValueError(
                f"prototype for {self.label.value} must be {expected!r}, "
                f"got {self.prototype!r}"
            )

    @classmethod
    def for_label(cls, label: SceneLabel) -> "Hypothesis":
        return cls(label=label, prototype=PROTOTYPE_FOR_LABEL[label])


# Decision tie order: prefer the safety-critical call.
HYPOTHESES = (
    Hypothesis.for_label(SceneLabel.PEDESTRIAN_OCCLUDED),
    Hypothesis.for_label(SceneLabel.PEDESTRIAN_NOT_OCCLUDED),
    Hypothesis.for_label(SceneLabel.NONE_PEDESTRIAN),
)


class EvidenceSource(str, Enum):
    CONTEXT = "Context"
    VEHICLE = "Vehicle"


@dataclass(frozen=True)
class EvidenceItem:
    relation: str
    object: str
    source: EvidenceSource

    def __post_init__(self):
        # Prototype-subject form is exactly how the item will be scored.
        problem = ONTOLOGY.check(Triple(ROAD_SCENE, self.relation, self.object))
        if problem:
            raise ValueError(f"evidence item fails ontology check: {problem}")


@dataclass(frozen=True)
class EvidenceFactor:
    item: EvidenceItem
    marginal: float
    conditional: float
    ratio: float


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
    horizon: Optional[int] = None

    def recompute_raw(self) -> float:
        """Re-derive raw from recorded factors (exact in marginal mode)."""
        num = 1.0
        for f in self.factors:
            num = num * f.conditional
        return self.prior * num / self.denominator

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
    """triple_probability, computed once per (model, calibration) and then memoised."""
    memo = model.probability_memo()
    key = (subject, relation, object)
    p = memo.get(key)
    if p is None:
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


def _conditional_product(model: ComplexModel, h: Hypothesis, evidence) -> float:
    num = 1.0
    for e in evidence:
        num = num * evidence_conditional(model, e, h)
    return num


def posterior(
    model: ComplexModel,
    h: Hypothesis,
    evidence: Sequence[EvidenceItem],
    denominator: str = "marginal",
) -> PosteriorReport:
    """P(h)·Π P(e_i|h) / D with D per the chosen denominator mode.

    "marginal": D = Π P(e_i) against the generic RoadScene subject
    (empty product = 1, so no evidence reproduces the prior exactly).
    "mixture": D = Σ_h' P(h')·Π P(e_i|h'), which normalizes the three
    posteriors to a proper distribution. Raw values above 1 (possible
    in marginal mode: the factors are calibrated scores, not a joint
    law) are clamped and flagged.
    """
    if denominator not in DENOMINATOR_MODES:
        raise ValueError(f"denominator must be one of {DENOMINATOR_MODES}")
    factors = []
    for e in evidence:
        marg = evidence_marginal(model, e)
        cond = evidence_conditional(model, e, h)
        factors.append(EvidenceFactor(item=e, marginal=marg, conditional=cond, ratio=cond / marg))
    num = 1.0
    for f in factors:
        num = num * f.conditional
    if denominator == "marginal":
        den = 1.0
        for f in factors:
            den = den * f.marginal
    else:
        den = 0.0
        for other in HYPOTHESES:
            den += prior(model, other) * _conditional_product(model, other, evidence)
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
    model vocabulary is dropped (and recorded) rather than scored;
    hypotheses whose prototype is missing score 0 and cannot win.
    """
    if len(doc.frames) == 0:
        raise ValueError("document has no frames")
    if not 0 <= t < len(doc.frames):
        raise IndexError(f"frame index {t} out of range for {len(doc.frames)} frames")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    all_evidence = extract_evidence(doc, t)
    usable = [e for e in all_evidence if e.object in model.entity_index]
    dropped = [e for e in all_evidence if e.object not in model.entity_index]

    reports: list[PosteriorReport] = []
    best: Optional[tuple[float, Hypothesis]] = None
    target = min(t + horizon, len(doc.frames) - 1)
    truncated = t + horizon > len(doc.frames) - 1
    for h in HYPOTHESES:
        if h.prototype in model.entity_index:
            rep = posterior(model, h, usable, denominator=denominator)
        else:
            rep = PosteriorReport(
                hypothesis=h,
                prior=0.0,
                factors=(),
                denominator=1.0,
                raw=0.0,
                clamped=0.0,
                clamp_flagged=False,
                denominator_mode=denominator,
            )
        if best is None or rep.clamped > best[0]:
            best = (rep.clamped, h)
        reports.append(rep)
    predicted = best[1].label
    reports = [
        PosteriorReport(
            hypothesis=r.hypothesis,
            prior=r.prior,
            factors=r.factors,
            denominator=r.denominator,
            raw=r.raw,
            clamped=r.clamped,
            clamp_flagged=r.clamp_flagged,
            denominator_mode=r.denominator_mode,
            predicted_label=predicted,
            horizon=horizon,
        )
        for r in reports
    ]
    return FramePrediction(
        scene_id=doc.scene_id,
        frame_index=t,
        frame_number=doc.frames[t].frame_number,
        horizon=horizon,
        truncated=truncated,
        predicted=predicted,
        ground_truth=doc.frames[target].pedestrians_scene,
        reports=tuple(reports),
        evidence=tuple(usable),
        dropped_evidence=tuple(dropped),
    )
