"""Posterior inference: evidence extraction, Bayes combination, decisions."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import occlukg.bayes as bayes_module
from occlukg.bayes import (
    DENOMINATOR_MODES,
    HYPOTHESES,
    EvidenceItem,
    EvidenceSource,
    Hypothesis,
    extract_evidence,
    posterior,
    predict_frame,
)
from occlukg.kg import (
    PROTO_NO_PED,
    PROTO_OCCLUDED,
    PROTO_VISIBLE,
    PROTOTYPE_FOR_LABEL,
    ROAD_SCENE,
    build_linked_kg,
    frame_evidence_pairs,
)
from occlukg.kge.calibrate import triple_probability
from occlukg.kge.model import TABLES, init_embeddings
from occlukg.scenes import FrameAnnotation, RoadSceneDocument, SceneLabel, Surroundings

from conftest import make_context, model_with_scores


def logit(p):
    return math.log(p / (1.0 - p))


def occluded_hypothesis():
    return Hypothesis(SceneLabel.PEDESTRIAN_OCCLUDED)


def item(relation="hasSurroundings", object="Vegetation", source=EvidenceSource.CONTEXT):
    return EvidenceItem(relation=relation, object=object, source=source)


def probability_model(entries, priors=(0.3, 0.3, 0.3)):
    """Model whose calibrated probabilities hit the given values exactly.

    ``entries`` maps (subject, relation, object) -> probability; the
    class priors for the three hypotheses are planted as well, and so
    are the prototypes, so posterior never sees a missing prototype.
    """
    scores = {}
    for (s, r, o), p in entries.items():
        scores[(s, r, o)] = logit(p)
    for h, p in zip(HYPOTHESES, priors):
        scores.setdefault((ROAD_SCENE, "contains", h.label.value), logit(p))
        scores.setdefault((h.prototype, "contains", h.label.value), 0.0)
    return model_with_scores(scores)


class TestHypothesis:
    def test_for_label_prototypes(self):
        assert Hypothesis(SceneLabel.PEDESTRIAN_OCCLUDED).prototype == PROTO_OCCLUDED
        assert Hypothesis(SceneLabel.PEDESTRIAN_NOT_OCCLUDED).prototype == PROTO_VISIBLE
        assert Hypothesis(SceneLabel.NONE_PEDESTRIAN).prototype == PROTO_NO_PED

    def test_fixed_decision_order(self):
        assert [h.label for h in HYPOTHESES] == [
            SceneLabel.PEDESTRIAN_OCCLUDED,
            SceneLabel.PEDESTRIAN_NOT_OCCLUDED,
            SceneLabel.NONE_PEDESTRIAN,
        ]


class TestEvidenceItem:
    """posterior checks each triple it scores against the ontology."""

    @staticmethod
    def score(relation, object):
        model = probability_model({
            (ROAD_SCENE, relation, object): 0.4,
            (PROTO_OCCLUDED, relation, object): 0.6,
        })
        return posterior(model, occluded_hypothesis(), [item(relation=relation, object=object)])

    def test_valid_items(self):
        for relation, object in [("thereIs", "ZebraCrossing"), ("hasLanes", "LaneCount_3"),
                                 ("includes", "VehDecelerating"), ("hasBrakingLights", "On")]:
            assert self.score(relation, object).raw == pytest.approx(0.3 * 0.6 / 0.4, abs=1e-12)

    def test_rejects_ontology_violation(self):
        with pytest.raises(ValueError, match="ontology"):
            self.score("thereIs", "Vegetation")

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError, match="ontology"):
            self.score("surroundedBy", "Vegetation")


class TestExtractEvidence:
    def test_occluded_crossing_frame(self, occluded_crossing_doc):
        items = extract_evidence(occluded_crossing_doc, 0)
        assert items == [
            EvidenceItem("thereIs", "ZebraCrossing", EvidenceSource.CONTEXT),
            EvidenceItem("hasSurroundings", "Vegetation", EvidenceSource.CONTEXT),
            EvidenceItem("hasLanes", "LaneCount_2", EvidenceSource.CONTEXT),
            EvidenceItem("includes", "VehDecelerating", EvidenceSource.VEHICLE),
            EvidenceItem("hasBrakingLights", "On", EvidenceSource.VEHICLE),
            EvidenceItem("hasDistance", "NearToEgoVeh", EvidenceSource.VEHICLE),
            EvidenceItem("hasPosition", "FrontLeft", EvidenceSource.VEHICLE),
        ]

    def test_vehicle_free_frame_has_context_only(self, minimal_doc):
        items = extract_evidence(minimal_doc, 0)
        assert all(i.source is EvidenceSource.CONTEXT for i in items)
        assert [i.relation for i in items] == ["hasSurroundings", "hasLanes"]

    def test_out_of_range_frame(self, minimal_doc):
        with pytest.raises(IndexError, match="frame_index"):
            extract_evidence(minimal_doc, 5)


class TestPosteriorExactValues:
    def test_single_item_worked_example(self):
        # prior 0.3, conditional 0.8, marginal 0.4: posterior 0.3*0.8/0.4 = 0.6
        e = item()
        model = probability_model(
            {
                (ROAD_SCENE, "contains", "PedestrianOccluded"): 0.3,
                (PROTO_OCCLUDED, "hasSurroundings", "Vegetation"): 0.8,
                (ROAD_SCENE, "hasSurroundings", "Vegetation"): 0.4,
            }
        )
        rep = posterior(model, occluded_hypothesis(), [e])
        assert rep.prior == pytest.approx(0.3, abs=1e-12)
        assert rep.factors[0].conditional == pytest.approx(0.8, abs=1e-12)
        assert rep.factors[0].marginal == pytest.approx(0.4, abs=1e-12)
        assert rep.factors[0].ratio == pytest.approx(2.0, abs=1e-12)
        assert rep.raw == pytest.approx(0.6, abs=1e-12)
        assert rep.clamped == rep.raw
        assert not rep.clamp_flagged

    def test_raw_above_one_is_clamped_and_flagged(self):
        # prior 0.9 and one likelihood ratio of 2 push raw to 1.8
        e = item()
        model = probability_model(
            {
                (ROAD_SCENE, "contains", "PedestrianOccluded"): 0.9,
                (PROTO_OCCLUDED, "hasSurroundings", "Vegetation"): 0.8,
                (ROAD_SCENE, "hasSurroundings", "Vegetation"): 0.4,
            }
        )
        rep = posterior(model, occluded_hypothesis(), [e])
        assert rep.raw == pytest.approx(1.8, abs=1e-12)
        assert rep.clamped == 1.0
        assert rep.clamp_flagged

    def test_two_items_multiply(self):
        e1 = item()
        e2 = item(relation="thereIs", object="ZebraCrossing")
        model = probability_model(
            {
                (ROAD_SCENE, "contains", "PedestrianOccluded"): 0.5,
                (PROTO_OCCLUDED, "hasSurroundings", "Vegetation"): 0.6,
                (ROAD_SCENE, "hasSurroundings", "Vegetation"): 0.3,
                (PROTO_OCCLUDED, "thereIs", "ZebraCrossing"): 0.7,
                (ROAD_SCENE, "thereIs", "ZebraCrossing"): 0.35,
            }
        )
        rep = posterior(model, occluded_hypothesis(), [e1, e2])
        assert rep.raw == pytest.approx(0.5 * (0.6 / 0.3) * (0.7 / 0.35), abs=1e-9)

    def test_bad_denominator_mode(self):
        model = probability_model({})
        with pytest.raises(ValueError, match="denominator"):
            posterior(model, occluded_hypothesis(), [], denominator="joint")


class TestPosteriorInvariants:
    def test_empty_evidence_reproduces_prior_exactly(self):
        model = probability_model({}, priors=(0.37, 0.21, 0.42))
        for h in HYPOTHESES:
            rep = posterior(model, h, [])
            assert rep.raw == rep.prior  # bitwise: empty products are 1.0
            assert rep.denominator == 1.0
            assert rep.factors == ()

    def test_neutral_evidence_changes_nothing(self):
        # conditional == marginal for every item: ratios are all 1
        entries = {}
        items = []
        for i, (rel, obj) in enumerate(
            [("hasSurroundings", "Vegetation"), ("thereIs", "ZebraCrossing"),
             ("hasLanes", "LaneCount_4")]
        ):
            p = 0.2 + 0.2 * i
            entries[(ROAD_SCENE, rel, obj)] = p
            for proto in (PROTO_OCCLUDED, PROTO_VISIBLE, PROTO_NO_PED):
                entries[(proto, rel, obj)] = p
            items.append(item(relation=rel, object=obj))
        model = probability_model(entries, priors=(0.31, 0.44, 0.17))
        for h in HYPOTHESES:
            rep = posterior(model, h, items)
            assert abs(rep.raw - rep.prior) < 1e-9

    def test_posterior_monotone_in_likelihood_ratio(self):
        # same evidence slot, higher conditional => strictly larger posterior
        base = {
            (ROAD_SCENE, "contains", "PedestrianOccluded"): 0.4,
            (ROAD_SCENE, "hasSurroundings", "Vegetation"): 0.5,
        }
        raws = []
        for cond in (0.2, 0.4, 0.6, 0.8):
            model = probability_model(
                {**base, (PROTO_OCCLUDED, "hasSurroundings", "Vegetation"): cond}
            )
            raws.append(posterior(model, occluded_hypothesis(), [item()]).raw)
        assert raws == sorted(raws)
        assert len(set(raws)) == len(raws)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=0.95),
                st.floats(min_value=0.05, max_value=0.95),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.01, max_value=0.04),
    )
    def test_raising_one_conditional_raises_posterior(self, pr, pairs, slot, bump):
        rels = [("hasSurroundings", "Vegetation"), ("thereIs", "ZebraCrossing"),
                ("hasLanes", "LaneCount_2"), ("hasLanes", "LaneCount_5")]
        pairs = pairs[:4]
        slot = slot % len(pairs)
        entries = {(ROAD_SCENE, "contains", "PedestrianOccluded"): pr}
        items = []
        for (cond, marg), (rel, obj) in zip(pairs, rels):
            entries[(PROTO_OCCLUDED, rel, obj)] = cond
            entries[(ROAD_SCENE, rel, obj)] = marg
            items.append(item(relation=rel, object=obj))
        lo = posterior(probability_model(entries), occluded_hypothesis(), items).raw
        rel, obj = rels[slot]
        entries[(PROTO_OCCLUDED, rel, obj)] = pairs[slot][0] + bump
        hi = posterior(probability_model(entries), occluded_hypothesis(), items).raw
        assert hi > lo

    def test_argmax_invariant_under_common_scaling(self):
        # scaling every marginal by a common factor rescales all three
        # posteriors identically, so the decision cannot change
        rels = [("hasSurroundings", "Vegetation"), ("thereIs", "ZebraCrossing")]
        conds = {
            PROTO_OCCLUDED: (0.8, 0.3),
            PROTO_VISIBLE: (0.5, 0.5),
            PROTO_NO_PED: (0.2, 0.7),
        }

        def build(margs):
            entries = {}
            for proto, cs in conds.items():
                for (rel, obj), c in zip(rels, cs):
                    entries[(proto, rel, obj)] = c
            for (rel, obj), m in zip(rels, margs):
                entries[(ROAD_SCENE, rel, obj)] = m
            return probability_model(entries, priors=(0.3, 0.35, 0.35))

        items = [item(relation=r, object=o) for r, o in rels]

        def decide(model):
            reps = [posterior(model, h, items) for h in HYPOTHESES]
            assert not any(r.clamp_flagged for r in reps)  # invariance needs raw values
            return max(range(3), key=lambda i: (reps[i].clamped, -i))

        assert decide(build((0.4, 0.4))) == decide(build((0.8, 0.8)))
        assert decide(build((0.45, 0.3))) == decide(build((0.9, 0.6)))

    def test_report_recomputation_matches(self):
        model = probability_model(
            {
                (ROAD_SCENE, "contains", "PedestrianOccluded"): 0.3,
                (PROTO_OCCLUDED, "hasSurroundings", "Vegetation"): 0.8,
                (ROAD_SCENE, "hasSurroundings", "Vegetation"): 0.4,
                (PROTO_OCCLUDED, "thereIs", "ZebraCrossing"): 0.65,
                (ROAD_SCENE, "thereIs", "ZebraCrossing"): 0.5,
            }
        )
        rep = posterior(
            model,
            occluded_hypothesis(),
            [item(), item(relation="thereIs", object="ZebraCrossing")],
        )
        assert rep.recompute_raw() == rep.raw

    def test_mixture_mode_normalizes(self):
        entries = {}
        rng_pairs = [
            (PROTO_OCCLUDED, 0.7),
            (PROTO_VISIBLE, 0.4),
            (PROTO_NO_PED, 0.2),
        ]
        for proto, c in rng_pairs:
            entries[(proto, "hasSurroundings", "Vegetation")] = c
        entries[(ROAD_SCENE, "hasSurroundings", "Vegetation")] = 0.5
        model = probability_model(entries, priors=(0.3, 0.4, 0.3))
        reps = [posterior(model, h, [item()], denominator="mixture") for h in HYPOTHESES]
        assert sum(r.raw for r in reps) == pytest.approx(1.0, abs=1e-9)
        assert all(not r.clamp_flagged for r in reps)


def single_frame_doc(**kwargs):
    frame = FrameAnnotation(
        frame_number=0,
        pedestrians_scene=SceneLabel.NONE_PEDESTRIAN,
        pedestrians=(),
        vehicles=(),
    )
    return RoadSceneDocument(
        context=make_context(scene_id="scene-solo", **kwargs), frames=(frame,)
    )


class TestPredictFrame:
    @staticmethod
    def steering_model(favored, doc_items, priors=(0.3, 0.3, 0.3)):
        """Model whose evidence conditionals favor one prototype."""
        entries = {}
        for rel, obj in doc_items:
            entries[(ROAD_SCENE, rel, obj)] = 0.4
            for proto in (PROTO_OCCLUDED, PROTO_VISIBLE, PROTO_NO_PED):
                entries[(proto, rel, obj)] = 0.8 if proto == favored else 0.2
        return probability_model(entries, priors=priors)

    DOC_ITEMS = [("hasSurroundings", "Vegetation"), ("hasLanes", "LaneCount_2")]

    def doc(self):
        return single_frame_doc()

    def test_predicts_favored_class(self, visible_ped_doc):
        items = [(e.relation, e.object) for e in extract_evidence(visible_ped_doc, 0)]
        for favored, label in [
            (PROTO_OCCLUDED, SceneLabel.PEDESTRIAN_OCCLUDED),
            (PROTO_VISIBLE, SceneLabel.PEDESTRIAN_NOT_OCCLUDED),
            (PROTO_NO_PED, SceneLabel.NONE_PEDESTRIAN),
        ]:
            model = self.steering_model(favored, items)
            pred = predict_frame(model, visible_ped_doc, 0, horizon=0)
            assert pred.predicted is label

    def test_tie_prefers_occluded_then_visible(self):
        doc = self.doc()
        items = [("hasSurroundings", "Vegetation"), ("hasLanes", "LaneCount_2")]
        entries = {}
        for rel, obj in items:
            entries[(ROAD_SCENE, rel, obj)] = 0.4
            for proto in (PROTO_OCCLUDED, PROTO_VISIBLE, PROTO_NO_PED):
                entries[(proto, rel, obj)] = 0.4
        model = probability_model(entries, priors=(0.3, 0.3, 0.3))
        pred = predict_frame(model, doc, 0)
        assert pred.predicted is SceneLabel.PEDESTRIAN_OCCLUDED
        # break the occluded tie only: visible should now win
        for rel, obj in items:
            entries[(PROTO_OCCLUDED, rel, obj)] = 0.1
        model = probability_model(entries, priors=(0.3, 0.3, 0.3))
        pred = predict_frame(model, doc, 0)
        assert pred.predicted is SceneLabel.PEDESTRIAN_NOT_OCCLUDED

    def test_ground_truth_horizon(self, visible_ped_doc):
        model = self.steering_model(
            PROTO_VISIBLE, [(e.relation, e.object) for e in extract_evidence(visible_ped_doc, 0)]
        )
        pred = predict_frame(model, visible_ped_doc, 0, horizon=2)
        assert pred.ground_truth is visible_ped_doc.frames[2].pedestrians_scene
        assert not pred.truncated
        assert pred.horizon == 2
        assert pred.frame_index == 0
        assert pred.frame_number == visible_ped_doc.frames[0].frame_number

    def test_horizon_truncates_at_last_frame(self, visible_ped_doc):
        model = self.steering_model(
            PROTO_VISIBLE, [(e.relation, e.object) for e in extract_evidence(visible_ped_doc, 3)]
        )
        pred = predict_frame(model, visible_ped_doc, 3, horizon=30)
        assert pred.truncated
        assert pred.ground_truth is visible_ped_doc.frames[-1].pedestrians_scene

    def test_horizon_zero_reads_same_frame(self, visible_ped_doc):
        model = self.steering_model(
            PROTO_VISIBLE, [(e.relation, e.object) for e in extract_evidence(visible_ped_doc, 1)]
        )
        pred = predict_frame(model, visible_ped_doc, 1, horizon=0)
        assert pred.ground_truth is visible_ped_doc.frames[1].pedestrians_scene
        assert not pred.truncated

    def test_unknown_evidence_objects_dropped_and_recorded(self):
        doc = single_frame_doc(surroundings=Surroundings.CLEAR)
        # model vocabulary lacks "Clear": that item must be dropped
        model = self.steering_model(PROTO_NO_PED, [("hasLanes", "LaneCount_2")])
        pred = predict_frame(model, doc, 0)
        assert [e.object for e in pred.dropped_evidence] == ["Clear"]
        assert all(e.object != "Clear" for e in pred.evidence)

    def test_reports_carry_decision_and_horizon(self, visible_ped_doc):
        model = self.steering_model(
            PROTO_VISIBLE, [(e.relation, e.object) for e in extract_evidence(visible_ped_doc, 0)]
        )
        pred = predict_frame(model, visible_ped_doc, 0, horizon=5)
        assert len(pred.reports) == 3
        assert pred.horizon == 5
        for rep in pred.reports:
            assert rep.predicted_label is pred.predicted

    def test_missing_prototype_scores_zero_in_mixture_mode(self, visible_ped_doc):
        # a training fold without occluded scenes: neither the prototype
        # nor the label entity exists, so that hypothesis must score 0
        # and drop out of the mixture denominator instead of raising
        items = [(e.relation, e.object) for e in extract_evidence(visible_ped_doc, 0)]
        entries = {}
        for rel, obj in items:
            entries[(ROAD_SCENE, rel, obj)] = 0.4
            entries[(PROTO_VISIBLE, rel, obj)] = 0.7
            entries[(PROTO_NO_PED, rel, obj)] = 0.2
        entries[(ROAD_SCENE, "contains", SceneLabel.PEDESTRIAN_NOT_OCCLUDED.value)] = 0.45
        entries[(ROAD_SCENE, "contains", SceneLabel.NONE_PEDESTRIAN.value)] = 0.35
        model = model_with_scores({key: logit(p) for key, p in entries.items()})
        assert PROTO_OCCLUDED not in model.entity_index
        assert SceneLabel.PEDESTRIAN_OCCLUDED.value not in model.entity_index
        pred = predict_frame(model, visible_ped_doc, 0, denominator="mixture")
        missing, *present = pred.reports
        assert missing.hypothesis.label is SceneLabel.PEDESTRIAN_OCCLUDED
        assert missing.prior == 0.0 and missing.clamped == 0.0 and missing.factors == ()
        assert abs(sum(r.raw for r in present) - 1.0) < 1e-12
        assert pred.predicted is SceneLabel.PEDESTRIAN_NOT_OCCLUDED

    def test_bad_frame_index(self, visible_ped_doc):
        model = self.steering_model(PROTO_VISIBLE, self.DOC_ITEMS)
        with pytest.raises(IndexError):
            predict_frame(model, visible_ped_doc, 99)

    def test_negative_horizon(self, visible_ped_doc):
        model = self.steering_model(PROTO_VISIBLE, self.DOC_ITEMS)
        with pytest.raises(ValueError, match="horizon"):
            predict_frame(model, visible_ped_doc, 0, horizon=-1)

    def test_record_serialization_round_trips_labels(self, visible_ped_doc):
        model = self.steering_model(
            PROTO_VISIBLE, [(e.relation, e.object) for e in extract_evidence(visible_ped_doc, 0)]
        )
        record = predict_frame(model, visible_ped_doc, 0).to_record()
        assert record["predicted"] == SceneLabel.PEDESTRIAN_NOT_OCCLUDED.value
        assert record["scene"] == visible_ped_doc.scene_id
        assert len(record["hypotheses"]) == 3
        for h_rec in record["hypotheses"]:
            assert set(h_rec) >= {"label", "prior", "raw", "clamped", "factors"}


def graph_model(corpus, calibration=(1.3, -0.2)):
    """Untrained model over the corpus' linked graph, under a non-identity map."""
    model = init_embeddings(build_linked_kg(corpus), k=6, seed=3)
    model.calibration = calibration
    return model


def predict_all(model, corpus, denominator="marginal"):
    return [
        predict_frame(model, doc, t, denominator=denominator)
        for doc in corpus
        for t in range(len(doc.frames))
    ]


def recorded_probabilities(preds):
    """((subject, relation, object), value) for every probability the predictions record."""
    return report_probabilities([r for pred in preds for r in pred.reports])


def report_probabilities(reports):
    """((subject, relation, object), value) for every probability the reports record."""
    out = []
    for r in reports:
        out.append(((ROAD_SCENE, "contains", r.hypothesis.label.value), r.prior))
        for f in r.factors:
            out.append(((ROAD_SCENE, f.item.relation, f.item.object), f.marginal))
            out.append(((r.hypothesis.prototype, f.item.relation, f.item.object), f.conditional))
    return out


class TestProbabilityMemo:
    @pytest.mark.parametrize("denominator", DENOMINATOR_MODES)
    def test_recorded_probabilities_equal_triple_probability(self, tiny_corpus, denominator):
        model = graph_model(tiny_corpus)
        preds = predict_all(model, tiny_corpus, denominator)
        recorded = recorded_probabilities(preds)
        assert len(recorded) > len({key for key, _ in recorded})
        for (s, r, o), p in recorded:
            assert p == triple_probability(model, s, r, o)
        if denominator == "mixture":
            for pred in preds:
                den = 0.0
                for h in HYPOTHESES:
                    num = 1.0
                    for e in pred.evidence:
                        num = num * triple_probability(model, h.prototype, e.relation, e.object)
                    den += triple_probability(model, ROAD_SCENE, "contains", h.label.value) * num
                assert all(r.denominator == den for r in pred.reports)

    def test_new_calibration_reaches_the_next_prediction(self, tiny_corpus, visible_ped_doc):
        model = graph_model(tiny_corpus)
        before = predict_frame(model, visible_ped_doc, 0)
        model.calibration = (0.5, 0.7)
        after = predict_frame(model, visible_ped_doc, 0)
        assert after.to_record() != before.to_record()
        assert after.to_record() == predict_frame(model.copy(), visible_ped_doc, 0).to_record()
        for (s, r, o), p in recorded_probabilities([after]):
            assert p == triple_probability(model, s, r, o)

    @pytest.mark.parametrize("name", TABLES)
    def test_table_write_after_prediction_raises(self, tiny_corpus, visible_ped_doc, name):
        model = graph_model(tiny_corpus)
        getattr(model, name)[0, 0] += 0.5
        predict_frame(model, visible_ped_doc, 0)
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0, 0] += 0.5

    def test_copy_of_used_model_is_writable_and_independent(self, tiny_corpus, visible_ped_doc):
        model = graph_model(tiny_corpus)
        before = predict_frame(model, visible_ped_doc, 0).to_record()
        clone = model.copy()
        for name in TABLES:
            getattr(clone, name)[...] *= 2.0
        assert predict_frame(clone, visible_ped_doc, 0).to_record() != before
        assert predict_frame(model, visible_ped_doc, 0).to_record() == before

    def test_each_distinct_triple_is_scored_once(self, tiny_corpus, visible_ped_doc, monkeypatch):
        # mixture mode reads every present prior once per hypothesis, so it
        # is where a second scoring of a prior would show
        calls = []

        def counting(model, subject, relation, object):
            calls.append((subject, relation, object))
            return triple_probability(model, subject, relation, object)

        monkeypatch.setattr(bayes_module, "triple_probability", counting)
        for denominator in DENOMINATOR_MODES:
            for entry in ("predict_frame", "posterior"):
                model = graph_model(tiny_corpus)
                calls.clear()
                reports = []
                for attempt in range(2):  # a cold memo, then a warm one
                    for t in range(len(visible_ped_doc.frames)):
                        if entry == "predict_frame":
                            reports += predict_frame(model, visible_ped_doc, t,
                                                     denominator=denominator).reports
                        else:
                            evidence = [e for e in extract_evidence(visible_ped_doc, t)
                                        if e.object in model.entity_index]
                            reports += [posterior(model, h, evidence, denominator)
                                        for h in HYPOTHESES]
                queried = {key for key, _ in report_probabilities(reports)}
                assert len(calls) == len(queried), (denominator, entry)
                assert set(calls) == queried, (denominator, entry)


def left_to_right_product(values):
    out = 1.0
    for v in values:
        out = out * v
    return out


def oracle_record(model, doc, t, horizon, denominator):
    """predict_frame's record rebuilt from the evidence pairs and triple_probability alone."""
    frame = doc.frames[t]
    pairs = frame_evidence_pairs(doc, frame)
    usable = [(r, o, s) for r, o, s in pairs if o in model.entity_index]
    present = [h for h in HYPOTHESES if PROTOTYPE_FOR_LABEL[h.label] in model.entity_index]

    def prob(s, r, o):
        return triple_probability(model, s, r, o)

    def conditionals(h):
        return [prob(PROTOTYPE_FOR_LABEL[h.label], r, o) for r, o, _ in usable]

    def prior_of(h):
        return prob(ROAD_SCENE, "contains", h.label.value)

    mixture = 0.0
    for h in present:
        mixture += prior_of(h) * left_to_right_product(conditionals(h))
    hypotheses = []
    for h in HYPOTHESES:
        if h not in present:
            hypotheses.append({"label": h.label.value, "prior": 0.0, "denominator": 1.0,
                               "denominator_mode": denominator, "raw": 0.0, "clamped": 0.0,
                               "clamp_flagged": False, "factors": []})
            continue
        margs = [prob(ROAD_SCENE, r, o) for r, o, _ in usable]
        conds = conditionals(h)
        den = left_to_right_product(margs) if denominator == "marginal" else mixture
        raw = prior_of(h) * left_to_right_product(conds) / den
        clamped = min(max(raw, 0.0), 1.0)
        hypotheses.append({
            "label": h.label.value, "prior": prior_of(h), "denominator": den,
            "denominator_mode": denominator, "raw": raw, "clamped": clamped,
            "clamp_flagged": clamped != raw,
            "factors": [
                {"relation": r, "object": o, "source": s, "marginal": m, "conditional": c,
                 "ratio": c / m}
                for (r, o, s), m, c in zip(usable, margs, conds)
            ],
        })
    best = max(rec["clamped"] for rec in hypotheses)
    last = len(doc.frames) - 1
    return {
        "scene": doc.scene_id,
        "frame_index": t,
        "frame": frame.frame_number,
        "horizon": horizon,
        "truncated": t + horizon > last,
        "predicted": next(rec["label"] for rec in hypotheses if rec["clamped"] == best),
        "ground_truth": doc.frames[min(t + horizon, last)].pedestrians_scene.value,
        "dropped_evidence": [{"relation": r, "object": o}
                             for r, o, _ in pairs if o not in model.entity_index],
        "hypotheses": hypotheses,
    }


class TestRecordOracle:
    """The JSONL bytes of every prediction, pinned against an independent rebuild."""

    @pytest.mark.parametrize("denominator", DENOMINATOR_MODES)
    @pytest.mark.parametrize("graph", ["full", "occluded-only"])
    def test_record_bytes_equal_the_oracle(self, tiny_corpus, denominator, graph):
        # the occluded-only graph lacks two prototypes and several value
        # entities, so zero reports and dropped evidence are covered too
        model = graph_model(tiny_corpus if graph == "full" else tiny_corpus[1:2])
        dropped = zero_reports = 0
        for attempt in range(2):  # a cold memo, then a warm one
            for doc in tiny_corpus:
                for t in range(len(doc.frames)):
                    got = predict_frame(model, doc, t, horizon=1, denominator=denominator)
                    want = oracle_record(model, doc, t, 1, denominator)
                    assert json.dumps(got.to_record(), sort_keys=True) == json.dumps(
                        want, sort_keys=True
                    )
                    dropped += len(want["dropped_evidence"])
                    zero_reports += sum(not rec["factors"] for rec in want["hypotheses"])
        assert (dropped > 0 and zero_reports > 0) == (graph == "occluded-only")


class TestWarmMemo:
    """Each edge case holds on the first prediction and on every later one."""

    def test_unknown_object_dropped_on_every_prediction(self):
        doc = single_frame_doc(surroundings=Surroundings.CLEAR)
        model = TestPredictFrame.steering_model(PROTO_NO_PED, [("hasLanes", "LaneCount_2")])
        records = []
        for attempt in range(2):
            pred = predict_frame(model, doc, 0)
            assert [e.object for e in pred.dropped_evidence] == ["Clear"]
            assert [e.object for e in pred.evidence] == ["LaneCount_2"]
            records.append(pred.to_record())
        assert records[0] == records[1]

    def test_ontology_violation_raises_on_every_call(self):
        good = item(relation="thereIs", object="ZebraCrossing")
        bad = item(relation="thereIs", object="Vegetation")
        model = probability_model({
            (ROAD_SCENE, "thereIs", "ZebraCrossing"): 0.4,
            (PROTO_OCCLUDED, "thereIs", "ZebraCrossing"): 0.6,
            (ROAD_SCENE, "thereIs", "Vegetation"): 0.4,
            (PROTO_OCCLUDED, "thereIs", "Vegetation"): 0.6,
        })
        h = occluded_hypothesis()
        for attempt in range(2):
            with pytest.raises(ValueError, match="ontology"):
                posterior(model, h, [bad])
            with pytest.raises(ValueError, match="ontology"):
                posterior(model, h, [good, bad])
            assert posterior(model, h, [good]).raw == pytest.approx(0.3 * 0.6 / 0.4, abs=1e-12)

    def test_missing_prototype_stays_zero_on_every_prediction(self, visible_ped_doc):
        items = [(e.relation, e.object) for e in extract_evidence(visible_ped_doc, 0)]
        entries = {(ROAD_SCENE, "contains", SceneLabel.PEDESTRIAN_NOT_OCCLUDED.value): 0.45,
                   (ROAD_SCENE, "contains", SceneLabel.NONE_PEDESTRIAN.value): 0.35}
        for rel, obj in items:
            entries[(ROAD_SCENE, rel, obj)] = 0.4
            entries[(PROTO_VISIBLE, rel, obj)] = 0.7
            entries[(PROTO_NO_PED, rel, obj)] = 0.2
        model = model_with_scores({key: logit(p) for key, p in entries.items()})
        records = []
        for attempt in range(2):
            for denominator in DENOMINATOR_MODES:
                pred = predict_frame(model, visible_ped_doc, 0, denominator=denominator)
                missing, *present = pred.reports
                assert missing.prior == 0.0 and missing.raw == 0.0 and missing.factors == ()
                assert missing.denominator == 1.0
                if denominator == "mixture":
                    assert abs(sum(r.raw for r in present) - 1.0) < 1e-12
                records.append(pred.to_record())
        assert records[:2] == records[2:]
