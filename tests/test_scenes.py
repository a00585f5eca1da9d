"""Scene documents: XML round-trips, schema rejection, labeling rules."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlukg.scenes import (
    BrakingLights,
    DistanceBucket,
    Environment,
    FrameAnnotation,
    OcclusionLevel,
    PedestrianRecord,
    RoadSceneDocument,
    SceneContext,
    SceneLabel,
    SceneParseError,
    SceneValidationError,
    Surroundings,
    VehiclePosition,
    VehicleRecord,
    VehicleState,
    parse_scene_xml,
    serialize_scene_xml,
    validate_document,
)
from occlukg.synth import asymmetric_corpus, default_config, generate_corpus, uninformative_config

MINIMAL_XML = b"""<?xml version='1.0' encoding='utf-8'?>
<roadScene id="scene-0001" environment="Real">
  <context zebraCrossing="false" lanes="2" surroundings="Clear"/>
  <frame number="0" pedestriansScene="NonePedestrian"/>
</roadScene>
"""


class TestParse:
    def test_minimal_document(self):
        doc = parse_scene_xml(MINIMAL_XML)
        assert doc.scene_id == "scene-0001"
        assert doc.context.environment is Environment.REAL
        assert doc.context.zebra_crossing is False
        assert doc.context.lanes == 2
        assert len(doc.frames) == 1
        assert doc.frames[0].pedestrians_scene is SceneLabel.NONE_PEDESTRIAN
        assert doc.frames[0].pedestrians == ()
        assert doc.frames[0].vehicles == ()

    def test_full_document_fields_echo_attributes(self):
        xml = b"""<roadScene id="s" environment="Virtual">
          <context zebraCrossing="true" lanes="3" surroundings="Vegetation"/>
          <frame number="0" pedestriansScene="PedestrianOccluded">
            <pedestrian id="p0" occlusion="Full" visibleFraction="0.1"/>
            <vehicle id="v0" state="Decelerating" brakingLights="On"
                     distance="NearToEgoVeh" position="FrontLeft"/>
          </frame>
        </roadScene>"""
        doc = parse_scene_xml(xml)
        assert doc.context.zebra_crossing is True
        assert doc.context.surroundings is Surroundings.VEGETATION
        frame = doc.frames[0]
        assert frame.pedestrians[0].occlusion is OcclusionLevel.FULL
        assert frame.pedestrians[0].visible_fraction == 0.1
        vehicle = frame.vehicles[0]
        assert vehicle.state is VehicleState.DECELERATING
        assert vehicle.braking_lights is BrakingLights.ON
        assert vehicle.distance is DistanceBucket.NEAR
        assert vehicle.position is VehiclePosition.FRONT_LEFT

    def test_malformed_xml_reports_line_and_column(self):
        with pytest.raises(SceneParseError, match=r"line \d+, column \d+"):
            parse_scene_xml(b"<roadScene id='x' environment='Real'>")

    def test_wrong_root_element(self):
        with pytest.raises(SceneValidationError, match="roadScene"):
            parse_scene_xml(b"<scene id='x' environment='Real'/>")

    def test_unknown_element_rejected_not_ignored(self):
        xml = MINIMAL_XML.replace(b"</roadScene>", b"<extra/></roadScene>")
        with pytest.raises(SceneValidationError, match="extra"):
            parse_scene_xml(xml)

    def test_unknown_attribute_rejected(self):
        xml = MINIMAL_XML.replace(b'number="0"', b'number="0" speed="3"')
        with pytest.raises(SceneValidationError, match="speed"):
            parse_scene_xml(xml)

    def test_unknown_enum_value_lists_alternatives(self):
        xml = MINIMAL_XML.replace(b'"NonePedestrian"', b'"Nobody"')
        with pytest.raises(SceneValidationError, match="Nobody"):
            parse_scene_xml(xml)

    def test_missing_context(self):
        xml = b"""<roadScene id="s" environment="Real">
          <frame number="0" pedestriansScene="NonePedestrian"/>
        </roadScene>"""
        with pytest.raises(SceneValidationError, match="context"):
            parse_scene_xml(xml)

    def test_frames_must_increase(self):
        xml = b"""<roadScene id="s" environment="Real">
          <context zebraCrossing="false" lanes="1" surroundings="Clear"/>
          <frame number="3" pedestriansScene="NonePedestrian"/>
          <frame number="1" pedestriansScene="NonePedestrian"/>
        </roadScene>"""
        with pytest.raises(SceneValidationError, match="strictly increasing"):
            parse_scene_xml(xml)

    def test_none_pedestrian_frame_with_pedestrian_rejected(self):
        xml = b"""<roadScene id="s" environment="Real">
          <context zebraCrossing="false" lanes="1" surroundings="Clear"/>
          <frame number="0" pedestriansScene="NonePedestrian">
            <pedestrian id="p" occlusion="None"/>
          </frame>
        </roadScene>"""
        with pytest.raises(SceneValidationError, match="NonePedestrian"):
            parse_scene_xml(xml)

    def test_occluded_frame_needs_occluded_record(self):
        xml = b"""<roadScene id="s" environment="Real">
          <context zebraCrossing="false" lanes="1" surroundings="Clear"/>
          <frame number="0" pedestriansScene="PedestrianOccluded">
            <pedestrian id="p" occlusion="None"/>
          </frame>
        </roadScene>"""
        with pytest.raises(SceneValidationError, match="PedestrianOccluded"):
            parse_scene_xml(xml)

    @pytest.mark.parametrize(
        "original, altered, element",
        [
            (b'surroundings="Vegetation"/>', b'surroundings="Vegetation"/>junk', "roadScene"),
            (b"</frame>", b"</frame>stray", "roadScene"),
            (b'visibleFraction="0.1"/>', b'visibleFraction="0.1"/>junk', "frame"),
            (b'position="FrontLeft"/>', b'position="FrontLeft"/>junk', "frame"),
        ],
        ids=["after-context", "after-frame", "between-frame-children", "before-frame-end"],
    )
    def test_text_after_a_child_rejected(self, original, altered, element):
        xml = b"""<roadScene id="s" environment="Virtual">
          <context zebraCrossing="true" lanes="3" surroundings="Vegetation"/>
          <frame number="0" pedestriansScene="PedestrianOccluded">
            <pedestrian id="p0" occlusion="Full" visibleFraction="0.1"/>
            <vehicle id="v0" state="Decelerating" brakingLights="On"
                     distance="NearToEgoVeh" position="FrontLeft"/>
          </frame>
        </roadScene>"""
        assert len(parse_scene_xml(xml).frames) == 1
        with pytest.raises(SceneValidationError, match=f"<{element}> must not contain text"):
            parse_scene_xml(xml.replace(original, altered))

    def test_text_before_the_first_child_rejected(self):
        xml = MINIMAL_XML.replace(b'environment="Real">', b'environment="Real">lead')
        with pytest.raises(SceneValidationError, match="<roadScene> must not contain text"):
            parse_scene_xml(xml)

    def test_case_sensitive_enum_spellings(self):
        xml = MINIMAL_XML.replace(b'environment="Real"', b'environment="real"')
        with pytest.raises(SceneValidationError):
            parse_scene_xml(xml)


class TestRoundTrip:
    def test_minimal(self, minimal_doc):
        assert parse_scene_xml(serialize_scene_xml(minimal_doc)) == minimal_doc

    def test_all_fixture_documents(self, tiny_corpus):
        for doc in tiny_corpus:
            assert parse_scene_xml(serialize_scene_xml(doc)) == doc

    def test_serialization_is_stable(self, occluded_crossing_doc):
        first = serialize_scene_xml(occluded_crossing_doc)
        second = serialize_scene_xml(parse_scene_xml(first))
        assert first == second

    def test_every_enum_value_round_trips(self):
        # one frame per (state, lights, distance, position) combination
        combos = [
            (s, b, d, p)
            for s in VehicleState
            for b in BrakingLights
            for d in DistanceBucket
            for p in VehiclePosition
        ]
        frames = []
        for n, (s, b, d, p) in enumerate(combos):
            frames.append(
                FrameAnnotation(
                    frame_number=n,
                    pedestrians_scene=SceneLabel.NONE_PEDESTRIAN,
                    vehicles=(
                        VehicleRecord(
                            vehicle_id=f"v{n}", state=s, braking_lights=b,
                            distance=d, position=p,
                        ),
                    ),
                )
            )
        doc = RoadSceneDocument(
            context=SceneContext(
                scene_id="scene-enums",
                environment=Environment.VIRTUAL,
                zebra_crossing=True,
                lanes=6,
                surroundings=Surroundings.VEGETATION,
            ),
            frames=tuple(frames),
        )
        assert parse_scene_xml(serialize_scene_xml(doc)) == doc


# --- strategy for whole documents ---------------------------------------

def _pedestrians_for(label, draw_ids):
    if label is SceneLabel.NONE_PEDESTRIAN:
        return st.just(())
    occlusions = (
        st.sampled_from([OcclusionLevel.PARTIAL, OcclusionLevel.FULL])
        if label is SceneLabel.PEDESTRIAN_OCCLUDED
        else st.just(OcclusionLevel.NONE)
    )
    record = st.builds(
        PedestrianRecord,
        pedestrian_id=draw_ids,
        occlusion=occlusions,
        visible_fraction=st.none(),
    )
    return st.lists(record, min_size=1, max_size=3).map(tuple)


def _frame(number, ids):
    vehicle = st.builds(
        VehicleRecord,
        vehicle_id=ids,
        state=st.sampled_from(VehicleState),
        braking_lights=st.sampled_from(BrakingLights),
        distance=st.sampled_from(DistanceBucket),
        position=st.sampled_from(VehiclePosition),
    )
    return st.sampled_from(SceneLabel).flatmap(
        lambda label: st.builds(
            FrameAnnotation,
            frame_number=st.just(number),
            pedestrians_scene=st.just(label),
            pedestrians=_pedestrians_for(label, ids),
            vehicles=st.lists(vehicle, max_size=3).map(tuple),
        )
    )


def _documents(scene_ids, ids):
    return st.builds(
        RoadSceneDocument,
        context=st.builds(
            SceneContext,
            scene_id=scene_ids,
            environment=st.sampled_from(Environment),
            zebra_crossing=st.booleans(),
            lanes=st.integers(min_value=1, max_value=6),
            surroundings=st.sampled_from(Surroundings),
        ),
        frames=st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.tuples(*[_frame(i, ids) for i in range(n)])
        ),
    )


documents = _documents(
    st.text(alphabet="abcdefgh-0123456789", min_size=1, max_size=16),
    st.text(alphabet="abcdef0123456789-", min_size=1, max_size=8),
)

# Free-text ids with every character ElementTree escapes in an attribute,
# and non-ASCII text; surrogates, control and unassigned code points are
# left out because XML cannot carry them.
_awkward_ids = st.text(
    alphabet=st.one_of(
        st.sampled_from('&<>"\r\n\t'),
        st.characters(blacklist_categories=("Cs", "Cc", "Cn")),
    ),
    min_size=1,
    max_size=12,
)
awkward_documents = _documents(_awkward_ids, _awkward_ids)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(documents)
    def test_parse_inverts_serialize(self, doc):
        assert parse_scene_xml(serialize_scene_xml(doc)) == doc


def reference_serialize(doc: RoadSceneDocument) -> bytes:
    """The ElementTree serializer that serialize_scene_xml must match byte for byte."""
    root = ET.Element(
        "roadScene",
        {"id": doc.context.scene_id, "environment": doc.context.environment.value},
    )
    ET.SubElement(
        root,
        "context",
        {
            "zebraCrossing": "true" if doc.context.zebra_crossing else "false",
            "lanes": str(doc.context.lanes),
            "surroundings": doc.context.surroundings.value,
        },
    )
    for frame in doc.frames:
        frame_elem = ET.SubElement(
            root,
            "frame",
            {
                "number": str(frame.frame_number),
                "pedestriansScene": frame.pedestrians_scene.value,
            },
        )
        for p in frame.pedestrians:
            attrs = {"id": p.pedestrian_id, "occlusion": p.occlusion.value}
            if p.visible_fraction is not None:
                attrs["visibleFraction"] = repr(p.visible_fraction)
            ET.SubElement(frame_elem, "pedestrian", attrs)
        for v in frame.vehicles:
            ET.SubElement(
                frame_elem,
                "vehicle",
                {
                    "id": v.vehicle_id,
                    "state": v.state.value,
                    "brakingLights": v.braking_lights.value,
                    "distance": v.distance.value,
                    "position": v.position.value,
                },
            )
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


class TestSerializerMatchesElementTree:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_corpus(default_config(), 0),
            lambda: generate_corpus(uninformative_config(), 1),
            lambda: asymmetric_corpus(2),
        ],
        ids=["default-0", "uninformative-1", "asymmetric-2"],
    )
    def test_generated_corpora(self, make):
        corpus = make()
        assert any(not (f.pedestrians or f.vehicles) for d in corpus for f in d.frames)
        for doc in corpus:
            assert serialize_scene_xml(doc) == reference_serialize(doc)

    def test_fixture_documents(self, tiny_corpus):
        for doc in tiny_corpus:
            assert serialize_scene_xml(doc) == reference_serialize(doc)

    @settings(max_examples=100, deadline=None)
    @given(awkward_documents)
    def test_free_text_ids(self, doc):
        data = serialize_scene_xml(doc)
        assert data == reference_serialize(doc)
        assert parse_scene_xml(data) == doc


class TestValidateDocument:
    def test_clean_document(self, minimal_doc):
        assert validate_document(minimal_doc) == []

    def test_occluded_frame_without_occluded_record(self):
        doc = RoadSceneDocument(
            context=SceneContext(
                scene_id="s", environment=Environment.REAL,
                zebra_crossing=False, lanes=1, surroundings=Surroundings.CLEAR,
            ),
            frames=(
                FrameAnnotation(
                    frame_number=0,
                    pedestrians_scene=SceneLabel.PEDESTRIAN_OCCLUDED,
                    pedestrians=(
                        PedestrianRecord(pedestrian_id="p", occlusion=OcclusionLevel.NONE),
                    ),
                ),
            ),
        )
        violations = validate_document(doc)
        assert len(violations) == 1
        assert "no occluded pedestrian" in violations[0]

    def test_visibility_contradicts_partial(self):
        doc = RoadSceneDocument(
            context=SceneContext(
                scene_id="s", environment=Environment.REAL,
                zebra_crossing=False, lanes=1, surroundings=Surroundings.CLEAR,
            ),
            frames=(
                FrameAnnotation(
                    frame_number=0,
                    pedestrians_scene=SceneLabel.PEDESTRIAN_OCCLUDED,
                    pedestrians=(
                        PedestrianRecord(
                            pedestrian_id="p",
                            occlusion=OcclusionLevel.PARTIAL,
                            visible_fraction=0.1,
                        ),
                    ),
                ),
            ),
        )
        violations = validate_document(doc)
        assert len(violations) == 1
        assert "0.1" in violations[0]

    def test_fraction_at_threshold_with_full_flagged(self):
        doc = RoadSceneDocument(
            context=SceneContext(
                scene_id="s", environment=Environment.REAL,
                zebra_crossing=False, lanes=1, surroundings=Surroundings.CLEAR,
            ),
            frames=(
                FrameAnnotation(
                    frame_number=0,
                    pedestrians_scene=SceneLabel.PEDESTRIAN_OCCLUDED,
                    pedestrians=(
                        PedestrianRecord(
                            pedestrian_id="p",
                            occlusion=OcclusionLevel.FULL,
                            visible_fraction=0.25,
                        ),
                    ),
                ),
            ),
        )
        assert len(validate_document(doc)) == 1


class TestConstruction:
    def test_empty_scene_id_rejected(self):
        with pytest.raises(ValueError):
            SceneContext(
                scene_id="", environment=Environment.REAL,
                zebra_crossing=False, lanes=1, surroundings=Surroundings.CLEAR,
            )

    def test_zero_lanes_rejected(self):
        with pytest.raises(ValueError):
            SceneContext(
                scene_id="s", environment=Environment.REAL,
                zebra_crossing=False, lanes=0, surroundings=Surroundings.CLEAR,
            )

    def test_document_needs_frames(self):
        with pytest.raises(ValueError):
            RoadSceneDocument(
                context=SceneContext(
                    scene_id="s", environment=Environment.REAL,
                    zebra_crossing=False, lanes=1, surroundings=Surroundings.CLEAR,
                ),
                frames=(),
            )

    def test_negative_frame_number_rejected(self):
        with pytest.raises(ValueError):
            FrameAnnotation(frame_number=-1, pedestrians_scene=SceneLabel.NONE_PEDESTRIAN)

    def test_visible_fraction_bounds(self):
        with pytest.raises(ValueError):
            PedestrianRecord(
                pedestrian_id="p", occlusion=OcclusionLevel.FULL, visible_fraction=1.2
            )
