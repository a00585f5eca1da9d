"""Knowledge-graph compilation, prototype linkage, splits, TSV format."""

import dataclasses
import re

import numpy as np
import pytest

from occlukg.kg import (
    ONTOLOGY,
    PROTO_OCCLUDED,
    PROTOTYPE_FOR_LABEL,
    ROAD_SCENE,
    VEHICLE_STATE_ENTITY,
    EntityKind,
    KgBuildError,
    KnowledgeGraph,
    SplitError,
    Triple,
    assign_folds,
    build_kg,
    build_linked_kg,
    class_level_triples,
    entity_kind,
    export_kg_tsv,
    frame_entity,
    frame_evidence_pairs,
    import_kg_tsv,
    kg_stats,
    lane_entity,
    link_prototypes,
    make_split,
    scene_entity,
    validation_count,
)
from occlukg.scenes import (
    Environment,
    FrameAnnotation,
    RoadSceneDocument,
    SceneLabel,
    VehicleState,
)
from occlukg.synth import default_config, generate_corpus

from conftest import make_context


class TestEntityKinds:
    def test_prefixed_ids(self):
        assert entity_kind("scene:abc") is EntityKind.SCENE
        assert entity_kind("frame:abc:3") is EntityKind.FRAME
        assert entity_kind("ped:abc:p0") is EntityKind.PEDESTRIAN
        assert entity_kind("veh:abc:0:v0") is EntityKind.VEHICLE_RECORD

    def test_value_vocabulary(self):
        assert entity_kind("ZebraCrossing") is EntityKind.ZEBRA
        assert entity_kind("VehDecelerating") is EntityKind.VEHICLE_STATE
        assert entity_kind("NearToEgoVeh") is EntityKind.DISTANCE
        assert entity_kind("LaneCount_3") is EntityKind.LANE_COUNT
        assert entity_kind("SceneWithOccludedPed") is EntityKind.SCENE_CLASS
        assert entity_kind("RoadScene") is EntityKind.SCENE_CLASS
        assert entity_kind("PedestrianOccluded") is EntityKind.PED_LABEL

    def test_unknown(self):
        assert entity_kind("mystery") is EntityKind.UNKNOWN

    def test_lane_entity_clamped_to_vocabulary(self):
        assert lane_entity(3) == "LaneCount_3"
        assert lane_entity(99) == "LaneCount_6"
        assert lane_entity(0) == "LaneCount_1"


class TestOntology:
    def test_valid_triple_passes(self):
        assert ONTOLOGY.check(Triple("scene:s", "thereIs", "ZebraCrossing")) is None

    def test_unknown_relation(self):
        problem = ONTOLOGY.check(Triple("scene:s", "flies", "ZebraCrossing"))
        assert problem is not None and "flies" in problem

    def test_domain_violation(self):
        problem = ONTOLOGY.check(Triple("ZebraCrossing", "thereIs", "ZebraCrossing"))
        assert problem is not None and "subject" in problem

    def test_range_violation(self):
        problem = ONTOLOGY.check(Triple("scene:s", "thereIs", "On"))
        assert problem is not None and "object" in problem

    def test_unknown_entities_pass_leniently(self):
        assert ONTOLOGY.check(Triple("foreign-a", "thereIs", "foreign-b")) is None


class TestBuildKg:
    def test_smallest_build(self, minimal_doc):
        kg = build_kg([minimal_doc])
        f_ent = frame_entity("scene-0001", 0)
        contains = [t for t in kg.triples if t.relation == "contains"]
        assert contains == [Triple(f_ent, "contains", "NonePedestrian")]
        assert not any(t.subject.startswith("veh:") for t in kg.triples)
        assert not any(t.relation in ("nextFrame", "prevFrame") for t in kg.triples)

    def test_occluded_crossing_scene(self, occluded_crossing_doc):
        kg = build_kg([occluded_crossing_doc])
        sid = occluded_crossing_doc.scene_id
        assert Triple(scene_entity(sid), "thereIs", "ZebraCrossing") in kg.triples
        assert Triple(frame_entity(sid, 0), "includes", "VehDecelerating") in kg.triples
        assert Triple(f"veh:{sid}:0:veh-0", "hasBrakingLights", "On") in kg.triples
        assert Triple(f"ped:{sid}:ped-0", "hasOcclusionLevel", "Full") in kg.triples

    def test_two_frame_chain_is_mutually_inverse(self, empty_road_doc):
        kg = build_kg([empty_road_doc])
        nexts = [t for t in kg.triples if t.relation == "nextFrame"]
        prevs = [t for t in kg.triples if t.relation == "prevFrame"]
        assert len(nexts) == 1 and len(prevs) == 1
        assert nexts[0].subject == prevs[0].object
        assert nexts[0].object == prevs[0].subject

    def test_frame_chain_is_simple_path_per_scene(self):
        corpus = generate_corpus(default_config(), seed=5)[:6]
        kg = build_kg(corpus)
        from collections import Counter

        next_out = Counter(t.subject for t in kg.triples if t.relation == "nextFrame")
        next_in = Counter(t.object for t in kg.triples if t.relation == "nextFrame")
        assert all(c == 1 for c in next_out.values())
        assert all(c == 1 for c in next_in.values())
        # prevFrame mirrors nextFrame edge for edge
        nexts = {(t.subject, t.object) for t in kg.triples if t.relation == "nextFrame"}
        prevs = {(t.object, t.subject) for t in kg.triples if t.relation == "prevFrame"}
        assert nexts == prevs

    def test_every_frame_has_exactly_one_label_triple(self, tiny_corpus):
        kg = build_kg(tiny_corpus)
        frames = [e for e in kg.entities if entity_kind(e) is EntityKind.FRAME]
        for f in frames:
            labels = [
                t for t in kg.triples if t.subject == f and t.relation == "contains"
            ]
            assert len(labels) == 1

    def test_duplicate_scene_id_rejected(self, minimal_doc):
        with pytest.raises(KgBuildError, match="scene-0001"):
            build_kg([minimal_doc, minimal_doc])

    def test_invalid_document_names_scene(self):
        bad = RoadSceneDocument(
            context=make_context(scene_id="scene-bad"),
            frames=(
                FrameAnnotation(
                    frame_number=0, pedestrians_scene=SceneLabel.PEDESTRIAN_OCCLUDED
                ),
            ),
        )
        with pytest.raises(KgBuildError, match="scene-bad"):
            build_kg([bad])

    def test_ontology_violation_rejected(self, monkeypatch, occluded_crossing_doc):
        # a braking-lights value in place of a vehicle state falls outside
        # the range of both includes and hasState
        for state in VehicleState:
            monkeypatch.setitem(VEHICLE_STATE_ENTITY, state, "On")
        with pytest.raises(KgBuildError, match="ontology check"):
            build_kg([occluded_crossing_doc])


class TestEvidencePairs:
    def test_occluded_crossing_items(self, occluded_crossing_doc):
        pairs = frame_evidence_pairs(occluded_crossing_doc, occluded_crossing_doc.frames[0])
        as_set = {(rel, obj) for rel, obj, _ in pairs}
        assert as_set == {
            ("thereIs", "ZebraCrossing"),
            ("hasSurroundings", "Vegetation"),
            ("hasLanes", "LaneCount_2"),
            ("includes", "VehDecelerating"),
            ("hasBrakingLights", "On"),
            ("hasDistance", "NearToEgoVeh"),
            ("hasPosition", "FrontLeft"),
        }

    def test_context_items_come_first(self, occluded_crossing_doc):
        pairs = frame_evidence_pairs(occluded_crossing_doc, occluded_crossing_doc.frames[0])
        sources = [src for _, _, src in pairs]
        first_vehicle = sources.index("Vehicle")
        assert all(s == "Context" for s in sources[:first_vehicle])
        assert all(s == "Vehicle" for s in sources[first_vehicle:])

    def test_pairs_match_a_rebuild_from_enum_values(self):
        # context, then each vehicle's four pairs in id order, first occurrence kept
        docs = generate_corpus(default_config(), seed=2)[:4]
        frames = [(doc, frame) for doc in docs for frame in doc.frames]
        assert any(len(frame.vehicles) > 1 for _, frame in frames)
        for doc, frame in frames:
            ctx = doc.context
            expected = [("thereIs", "ZebraCrossing", "Context")] if ctx.zebra_crossing else []
            expected += [
                ("hasSurroundings", ctx.surroundings.value, "Context"),
                ("hasLanes", lane_entity(ctx.lanes), "Context"),
            ]
            for v in sorted(frame.vehicles, key=lambda v: v.vehicle_id):
                for pair in (
                    ("includes", VEHICLE_STATE_ENTITY[v.state], "Vehicle"),
                    ("hasBrakingLights", v.braking_lights.value, "Vehicle"),
                    ("hasDistance", v.distance.value, "Vehicle"),
                    ("hasPosition", v.position.value, "Vehicle"),
                ):
                    if pair[:2] not in {e[:2] for e in expected}:
                        expected.append(pair)
            assert frame_evidence_pairs(doc, frame) == expected

    def test_minimal_frame_has_context_only(self, minimal_doc):
        pairs = frame_evidence_pairs(minimal_doc, minimal_doc.frames[0])
        assert pairs == [
            ("hasSurroundings", "Clear", "Context"),
            ("hasLanes", "LaneCount_2", "Context"),
        ]

    def test_identical_vehicles_deduplicate(self, occluded_crossing_doc):
        frame = occluded_crossing_doc.frames[0]
        doubled = FrameAnnotation(
            frame_number=frame.frame_number,
            pedestrians_scene=frame.pedestrians_scene,
            pedestrians=frame.pedestrians,
            vehicles=frame.vehicles * 2,
        )
        assert frame_evidence_pairs(occluded_crossing_doc, doubled) == frame_evidence_pairs(
            occluded_crossing_doc, frame
        )


class TestPrototypes:
    def test_single_member_class(self, occluded_crossing_doc):
        kg = build_linked_kg([occluded_crossing_doc])
        assert Triple(PROTO_OCCLUDED, "thereIs", "ZebraCrossing") in kg.triples
        assert Triple(PROTO_OCCLUDED, "contains", "PedestrianOccluded") in kg.triples
        assert Triple(ROAD_SCENE, "thereIs", "ZebraCrossing") in kg.triples

    def test_each_frame_links_to_its_class(self, tiny_corpus):
        kg = build_linked_kg(tiny_corpus)
        for doc in tiny_corpus:
            for frame in doc.frames:
                proto = PROTOTYPE_FOR_LABEL[frame.pedestrians_scene]
                f_ent = frame_entity(doc.scene_id, frame.frame_number)
                assert Triple(f_ent, "instanceOfSceneClass", proto) in kg.triples

    def test_identical_evidence_deduplicates(self, occluded_crossing_doc):
        # all three frames carry the same evidence; the prototype copy exists once
        kg = build_linked_kg([occluded_crossing_doc])
        matching = [
            t
            for t in kg.triples
            if t.subject == PROTO_OCCLUDED
            and t.relation == "thereIs"
            and t.object == "ZebraCrossing"
        ]
        assert len(matching) == 1

    def test_prototype_evidence_is_union_over_member_frames(self):
        corpus = generate_corpus(default_config(), seed=9)[:5]
        got = class_level_triples(corpus)
        expected = set()
        for doc in corpus:
            for frame in doc.frames:
                proto = PROTOTYPE_FOR_LABEL[frame.pedestrians_scene]
                expected.add(Triple(proto, "contains", frame.pedestrians_scene.value))
                expected.add(Triple(ROAD_SCENE, "contains", frame.pedestrians_scene.value))
                for rel, obj, _ in frame_evidence_pairs(doc, frame):
                    expected.add(Triple(proto, rel, obj))
                    expected.add(Triple(ROAD_SCENE, rel, obj))
        assert got == expected

    def test_linking_requires_frames_in_graph(self, minimal_doc, visible_ped_doc):
        kg = build_kg([minimal_doc])
        with pytest.raises(KgBuildError, match="missing"):
            link_prototypes(kg, [visible_ped_doc])

    def test_linking_requires_each_frames_label_triple(self, minimal_doc, visible_ped_doc):
        kg = build_kg([minimal_doc])
        unlabelled = KnowledgeGraph(
            triples=[t for t in kg.sorted_triples() if t.relation != "contains"]
        )
        f_ent = frame_entity("scene-0001", 0)
        assert f_ent in unlabelled.entity_index
        with pytest.raises(KgBuildError, match=f"frame '{f_ent}' lacks its pedestrians_scene"):
            link_prototypes(unlabelled, [minimal_doc, visible_ped_doc])
        # the first failing frame in corpus order decides which error is raised
        with pytest.raises(KgBuildError, match="frame entity 'frame:scene-visible:0' missing"):
            link_prototypes(unlabelled, [visible_ped_doc, minimal_doc])


class TestKnowledgeGraph:
    def test_unknown_relation_rejected(self):
        with pytest.raises(KgBuildError, match="gallops"):
            KnowledgeGraph(triples=frozenset({Triple("a", "gallops", "b")}))

    def test_entities_sorted_and_indexed(self, tiny_corpus):
        kg = build_kg(tiny_corpus)
        assert list(kg.entities) == sorted(kg.entities)
        assert all(kg.entities[i] == e for e, i in kg.entity_index.items())

    def test_construction_order_does_not_matter(self, tiny_corpus):
        a = build_kg(tiny_corpus)
        b = build_kg(tuple(reversed(tiny_corpus)))
        assert a.triples == b.triples
        assert a.entities == b.entities

    def test_index_array_round_trip(self, tiny_corpus):
        kg = build_kg(tiny_corpus)
        idx = kg.to_index_array()
        rebuilt = {
            Triple(kg.entities[s], kg.relations[r], kg.entities[o])
            for s, r, o in idx
        }
        assert rebuilt == set(kg.triples)

    def test_sorted_triples_order_by_subject_relation_object(self, tiny_corpus):
        kg = build_linked_kg(tiny_corpus)
        by_fields = sorted(kg.triples, key=lambda t: (t.subject, t.relation, t.object))
        assert kg.sorted_triples() == by_fields

    def test_triple_is_an_immutable_tuple(self):
        t = Triple("a", "thereIs", "b")
        assert t == ("a", "thereIs", "b")
        with pytest.raises(AttributeError):
            t.subject = "c"

    def test_empty_graph(self):
        kg = import_kg_tsv(b"")
        assert kg.entities == () and kg.relations == ()
        assert export_kg_tsv(kg) == b""
        idx = kg.to_index_array()
        assert idx.shape == (0, 3)
        assert idx.dtype == np.int64


class TestTsv:
    def test_round_trip(self, tiny_corpus):
        kg = build_linked_kg(tiny_corpus)
        again = import_kg_tsv(export_kg_tsv(kg))
        assert again.triples == kg.triples

    def test_export_is_sorted_text(self, minimal_doc):
        data = export_kg_tsv(build_kg([minimal_doc]))
        lines = data.decode().splitlines()
        assert lines == sorted(lines)
        assert data.endswith(b"\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(KgBuildError, match="line 2"):
            import_kg_tsv(b"a\tthereIs\tb\noops\n")

    def test_blank_lines_are_skipped_and_counted(self):
        kg = import_kg_tsv(b"\na\tthereIs\tb\r\n\n")
        assert kg.triples == {Triple("a", "thereIs", "b")}
        assert all(type(t) is Triple for t in kg.triples)
        with pytest.raises(KgBuildError, match="line 4: expected 3"):
            import_kg_tsv(b"\na\tthereIs\tb\n\na\tthereIs\tb\tc\n")

    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_ids_holding_other_line_breaks_round_trip(self, char):
        kg = KnowledgeGraph(triples=[(f"a{char}b", "thereIs", char), ("a", "thereIs", "b")])
        assert import_kg_tsv(export_kg_tsv(kg)) == kg

    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    def test_unwritable_field_names_its_triple(self, char):
        bad = (f"x{char}y", "thereIs", "b")
        kg = KnowledgeGraph(triples=[("a", "thereIs", "b"), bad])
        with pytest.raises(KgBuildError, match=re.escape(repr(bad))):
            export_kg_tsv(kg)

    def test_carriage_return_is_field_text_unless_it_ends_the_record(self):
        kg = import_kg_tsv(b"a\rb\tthereIs\tc\r\r\nd\tthereIs\te\r")
        assert kg.triples == {Triple("a\rb", "thereIs", "c\r"), Triple("d", "thereIs", "e\r")}

    def test_line_numbers_count_across_chunks(self):
        lines = [f"e{i}\tthereIs\tz".encode() for i in range(20_000)]
        good = b"\n".join(lines) + b"\n"
        assert len(good) > 4 * 65536
        assert import_kg_tsv(good.replace(b"\n", b"\r\n")) == import_kg_tsv(good)
        lines[15_000] = b"bad"
        with pytest.raises(KgBuildError, match="line 15001: expected 3"):
            import_kg_tsv(b"\r\n".join(lines))


class TestStats:
    def test_counts_on_handmade_scene(self, occluded_crossing_doc):
        stats = kg_stats(build_kg([occluded_crossing_doc]))
        # context: thereIs, hasSurroundings, hasLanes; 3 frames in a chain
        assert stats.per_relation["thereIs"] == 1
        assert stats.per_relation["hasSurroundings"] == 1
        assert stats.per_relation["hasLanes"] == 1
        assert stats.per_relation["contains"] == 3
        assert stats.per_relation["nextFrame"] == 2
        assert stats.per_relation["prevFrame"] == 2
        # scene->frame plus frame->vehicle-state per frame
        assert stats.per_relation["includes"] == 6
        # one persistent pedestrian, one occlusion level
        assert stats.per_relation["hasOcclusionLevel"] == 1
        # one vehicle per frame, distinct record entity each frame
        assert stats.per_relation["hasState"] == 3
        assert stats.frames_per_label == {"PedestrianOccluded": 3}

    def test_render_mentions_totals(self, tiny_corpus):
        stats = kg_stats(build_kg(tiny_corpus))
        text = stats.render()
        assert f"triples    {stats.n_triples}" in text


@pytest.fixture(scope="module")
def fold_corpus():
    return generate_corpus(default_config(), seed=3)


@pytest.fixture(scope="module")
def split_docs(fold_corpus):
    real = [d for d in fold_corpus if d.context.environment is Environment.REAL]
    virtual = [d for d in fold_corpus if d.context.environment is Environment.VIRTUAL]
    return tuple(real[:15] + virtual[:15])


class TestFolds:
    @pytest.fixture
    def corpus(self, fold_corpus):
        return fold_corpus

    def test_counts_honored(self, corpus):
        counts = {Environment.REAL: (32, 8), Environment.VIRTUAL: (50, 9)}
        folds = assign_folds(corpus, counts, seed=0)
        by_env = lambda docs, env: [d for d in docs if d.context.environment is env]
        assert len(by_env(folds.test, Environment.REAL)) == 8
        assert len(by_env(folds.test, Environment.VIRTUAL)) == 9
        # validation is carved out of the train allotment
        assert len(folds.train) + len(folds.validation) == 32 + 50

    def test_deterministic_under_seed(self, corpus):
        counts = {Environment.REAL: (10, 4), Environment.VIRTUAL: (10, 4)}
        a = assign_folds(corpus, counts, seed=7)
        b = assign_folds(corpus, counts, seed=7)
        assert a == b
        c = assign_folds(corpus, counts, seed=8)
        assert a != c

    def test_document_order_does_not_matter(self, corpus):
        counts = {Environment.REAL: (10, 4), Environment.VIRTUAL: (10, 4)}
        a = assign_folds(corpus, counts, seed=7)
        b = assign_folds(tuple(reversed(corpus)), counts, seed=7)
        assert a == b

    def test_folds_disjoint(self, corpus):
        counts = {Environment.REAL: (20, 6), Environment.VIRTUAL: (20, 6)}
        folds = assign_folds(corpus, counts, seed=1)
        ids = lambda docs: {d.scene_id for d in docs}
        assert not ids(folds.train) & ids(folds.test)
        assert not ids(folds.train) & ids(folds.validation)
        assert not ids(folds.validation) & ids(folds.test)

    def test_infeasible_counts_rejected(self, corpus):
        with pytest.raises(SplitError, match="Real"):
            assign_folds(corpus, {Environment.REAL: (100, 8)}, seed=0)

    def test_zero_validation_ratio(self, corpus):
        counts = {Environment.REAL: (10, 2)}
        folds = assign_folds(corpus, counts, seed=0, validation_ratio=0.0)
        assert folds.validation == ()
        assert len(folds.train) == 10


class TestValidationCount:
    @pytest.mark.parametrize(
        "ratio, n, expected",
        [(0.1, 50, 5), (0.1, 10, 1), (0.04, 10, 1), (0.99, 5, 4), (0.5, 2, 1),
         (0.1, 1, 0), (0.1, 0, 0), (0.0, 10, 0)],
    )
    def test_rounds_and_keeps_both_sides(self, ratio, n, expected):
        assert validation_count(ratio, n) == expected

    @pytest.mark.parametrize("ratio", [1.0, 1.5, -0.1])
    def test_rejects_ratio_outside_unit_interval(self, ratio):
        with pytest.raises(SplitError, match="validation_ratio"):
            validation_count(ratio, 10)


class TestSplit:
    @pytest.fixture
    def corpus(self, split_docs):
        return split_docs

    def test_validation_stays_in_train_vocabulary(self, corpus):
        counts = {Environment.REAL: (8, 3), Environment.VIRTUAL: (8, 3)}
        split = make_split(assign_folds(corpus, counts, seed=0))
        vocab = set(split.kg.entities)
        assert split.validation
        for t in split.validation:
            assert t.subject in vocab and t.object in vocab

    def test_train_triples_are_the_graph(self, corpus):
        counts = {Environment.REAL: (8, 3), Environment.VIRTUAL: (8, 3)}
        split = make_split(assign_folds(corpus, counts, seed=0))
        assert set(split.train) == set(split.kg.triples)

    def test_test_fold_is_never_read(self, corpus):
        counts = {Environment.REAL: (8, 3), Environment.VIRTUAL: (8, 3)}
        folds = assign_folds(corpus, counts, seed=0)
        assert folds.test
        assert make_split(folds) == make_split(dataclasses.replace(folds, test=()))

    def test_no_frame_entities_cross_folds(self, corpus):
        counts = {Environment.REAL: (8, 3), Environment.VIRTUAL: (8, 3)}
        folds = assign_folds(corpus, counts, seed=0)
        split = make_split(folds)
        held_out = (*folds.validation, *folds.test)
        assert held_out
        held_out_prefixes = tuple(f"frame:{d.scene_id}:" for d in held_out)
        for entity in split.kg.entities:
            assert not entity.startswith(held_out_prefixes)
