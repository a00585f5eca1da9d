"""Scene documents: XML round-trips, schema rejection, labeling rules."""

import dataclasses
import enum
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


# Every element with every attribute, each spelled once, so that one
# byte replacement makes one defect.
CONTRACT_XML = b"""<roadScene id="s" environment="Virtual">
  <context zebraCrossing="true" lanes="3" surroundings="Vegetation"/>
  <frame number="0" pedestriansScene="PedestrianOccluded">
    <pedestrian id="p0" occlusion="Full" visibleFraction="0.1"/>
    <vehicle id="v0" state="Decelerating" brakingLights="On" distance="NearToEgoVeh" position="FrontLeft"/>
  </frame>
</roadScene>"""

_TEXT = "must not contain text content"
_CONTRACT_CASES = {
    # <roadScene>
    "roadScene-unknown-attribute": (
        [(b'<roadScene id="s"', b'<roadScene speed="3" id="s"')],
        "<roadScene> has unknown attribute(s): speed",
    ),
    "roadScene-missing-id": (
        [(b' id="s"', b"")],
        "<roadScene> missing required attribute 'id'",
    ),
    "roadScene-missing-environment": (
        [(b' environment="Virtual"', b"")],
        "<roadScene> missing required attribute 'environment'",
    ),
    "roadScene-unknown-value": (
        [(b'"Virtual"', b'"virtual"')],
        "<roadScene> attribute 'environment' has unknown value 'virtual' (allowed: Real, Virtual)",
    ),
    "roadScene-child": (
        [(b"</roadScene>", b"<extra/></roadScene>")],
        "<roadScene> contains unknown element <extra>",
    ),
    "roadScene-text": (
        [(b'environment="Virtual">', b'environment="Virtual">lead')],
        f"<roadScene> {_TEXT}",
    ),
    "roadScene-trailing-text": (
        [(b"</roadScene>", b"</roadScene>junk")],
        "malformed XML at line 7, column 12: junk after document element: line 7, column 12",
    ),
    # <context>
    "context-unknown-attribute": (
        [(b"<context zebraCrossing", b'<context speed="3" zebraCrossing')],
        "<context> has unknown attribute(s): speed",
    ),
    "context-unknown-attributes-sorted": (
        [(b"<context zebraCrossing", b'<context zz="1" aa="2" zebraCrossing')],
        "<context> has unknown attribute(s): aa, zz",
    ),
    "context-missing-zebraCrossing": (
        [(b' zebraCrossing="true"', b"")],
        "<context> missing required attribute 'zebraCrossing'",
    ),
    "context-missing-lanes": (
        [(b' lanes="3"', b"")],
        "<context> missing required attribute 'lanes'",
    ),
    "context-missing-surroundings": (
        [(b' surroundings="Vegetation"', b"")],
        "<context> missing required attribute 'surroundings'",
    ),
    "context-unknown-value": (
        [(b'"Vegetation"', b'"Trees"')],
        "<context> attribute 'surroundings' has unknown value 'Trees' "
        "(allowed: Vegetation, Clear)",
    ),
    "context-child": (
        [(b'"Vegetation"/>', b'"Vegetation"><x/></context>')],
        "<context> must not contain <x>",
    ),
    "context-text": (
        [(b'"Vegetation"/>', b'"Vegetation">junk</context>')],
        f"<context> {_TEXT}",
    ),
    "context-trailing-text": (
        [(b'"Vegetation"/>', b'"Vegetation"/>junk')],
        f"<roadScene> {_TEXT}",
    ),
    # <frame>
    "frame-unknown-attribute": (
        [(b"<frame number", b'<frame speed="3" number')],
        "<frame> has unknown attribute(s): speed",
    ),
    "frame-missing-number": (
        [(b' number="0"', b"")],
        "<frame> missing required attribute 'number'",
    ),
    "frame-missing-pedestriansScene": (
        [(b' pedestriansScene="PedestrianOccluded"', b"")],
        "<frame> missing required attribute 'pedestriansScene'",
    ),
    "frame-unknown-value": (
        [(b'"PedestrianOccluded"', b'"Nobody"')],
        "<frame> attribute 'pedestriansScene' has unknown value 'Nobody' "
        "(allowed: NonePedestrian, PedestrianOccluded, PedestrianNotOccluded)",
    ),
    "frame-child": (
        [(b"</frame>", b"<extra/></frame>")],
        "<frame> contains unknown element <extra>",
    ),
    "frame-text": (
        [(b'"PedestrianOccluded">', b'"PedestrianOccluded">lead')],
        f"<frame> {_TEXT}",
    ),
    "frame-trailing-text": (
        [(b"</frame>", b"</frame>stray")],
        f"<roadScene> {_TEXT}",
    ),
    # <pedestrian>
    "pedestrian-unknown-attribute": (
        [(b"<pedestrian id", b'<pedestrian speed="3" id')],
        "<pedestrian> has unknown attribute(s): speed",
    ),
    "pedestrian-missing-id": (
        [(b' id="p0"', b"")],
        "<pedestrian> missing required attribute 'id'",
    ),
    "pedestrian-missing-occlusion": (
        [(b' occlusion="Full"', b"")],
        "<pedestrian> missing required attribute 'occlusion'",
    ),
    "pedestrian-unknown-value": (
        [(b'"Full"', b'"full"')],
        "<pedestrian> attribute 'occlusion' has unknown value 'full' "
        "(allowed: None, Partial, Full)",
    ),
    "pedestrian-child": (
        [(b'"0.1"/>', b'"0.1"><x/></pedestrian>')],
        "<pedestrian> must not contain <x>",
    ),
    "pedestrian-text": (
        [(b'"0.1"/>', b'"0.1">junk</pedestrian>')],
        f"<pedestrian> {_TEXT}",
    ),
    "pedestrian-trailing-text": (
        [(b'"0.1"/>', b'"0.1"/>junk')],
        f"<frame> {_TEXT}",
    ),
    # <vehicle>
    "vehicle-unknown-attribute": (
        [(b"<vehicle id", b'<vehicle speed="3" id')],
        "<vehicle> has unknown attribute(s): speed",
    ),
    "vehicle-missing-id": (
        [(b' id="v0"', b"")],
        "<vehicle> missing required attribute 'id'",
    ),
    "vehicle-missing-state": (
        [(b' state="Decelerating"', b"")],
        "<vehicle> missing required attribute 'state'",
    ),
    "vehicle-missing-brakingLights": (
        [(b' brakingLights="On"', b"")],
        "<vehicle> missing required attribute 'brakingLights'",
    ),
    "vehicle-missing-distance": (
        [(b' distance="NearToEgoVeh"', b"")],
        "<vehicle> missing required attribute 'distance'",
    ),
    "vehicle-missing-position": (
        [(b' position="FrontLeft"', b"")],
        "<vehicle> missing required attribute 'position'",
    ),
    "vehicle-unknown-state": (
        [(b'"Decelerating"', b'"Braking"')],
        "<vehicle> attribute 'state' has unknown value 'Braking' "
        "(allowed: ContinuousMovement, Stopped, Accelerating, Decelerating)",
    ),
    "vehicle-unknown-brakingLights": (
        [(b'"On"', b'"on"')],
        "<vehicle> attribute 'brakingLights' has unknown value 'on' (allowed: On, Off)",
    ),
    "vehicle-unknown-distance": (
        [(b'"NearToEgoVeh"', b'"Near"')],
        "<vehicle> attribute 'distance' has unknown value 'Near' "
        "(allowed: NearToEgoVeh, MiddleDisToEgoVeh, FarToEgoVeh)",
    ),
    "vehicle-unknown-position": (
        [(b'"FrontLeft"', b'"Behind"')],
        "<vehicle> attribute 'position' has unknown value 'Behind' "
        "(allowed: Front, FrontLeft, FrontRight, Left, Right)",
    ),
    "vehicle-child": (
        [(b'"FrontLeft"/>', b'"FrontLeft"><x/></vehicle>')],
        "<vehicle> must not contain <x>",
    ),
    "vehicle-text": (
        [(b'"FrontLeft"/>', b'"FrontLeft">junk</vehicle>')],
        f"<vehicle> {_TEXT}",
    ),
    "vehicle-trailing-text": (
        [(b'"FrontLeft"/>', b'"FrontLeft"/>junk')],
        f"<frame> {_TEXT}",
    ),
    # values that are not enum members
    "number-not-an-integer": (
        [(b'number="0"', b'number="x"')],
        "<frame> attribute 'number' must be an integer, got 'x'",
    ),
    "number-decimal": (
        [(b'number="0"', b'number="1.5"')],
        "<frame> attribute 'number' must be an integer, got '1.5'",
    ),
    "number-negative": (
        [(b'number="0"', b'number="-1"')],
        "<frame> number must be >= 0, got -1",
    ),
    "lanes-not-an-integer": (
        [(b'lanes="3"', b'lanes="three"')],
        "<context> attribute 'lanes' must be an integer, got 'three'",
    ),
    "lanes-zero": (
        [(b'lanes="3"', b'lanes="0"')],
        "<context>: lanes must be >= 1, got 0",
    ),
    "zebraCrossing-not-a-bool": (
        [(b'zebraCrossing="true"', b'zebraCrossing="True"')],
        "<context> attribute 'zebraCrossing' must be 'true' or 'false', got 'True'",
    ),
    "empty-scene-id": (
        [(b'id="s"', b'id=""')],
        "<context>: scene_id must be non-empty",
    ),
    "visibleFraction-not-a-number": (
        [(b'"0.1"', b'"low"')],
        "<pedestrian> attribute 'visibleFraction' must be a number, got 'low'",
    ),
    "visibleFraction-above-one": (
        [(b'"0.1"', b'"1.5"')],
        "<pedestrian>: visible_fraction must be in [0, 1], got 1.5",
    ),
    "visibleFraction-nan": (
        [(b'"0.1"', b'"nan"')],
        "<pedestrian>: visible_fraction must be in [0, 1], got nan",
    ),
    # precedence: with two defects, the first in check order is reported
    "unknown-attribute-before-missing": (
        [(b' id="v0"', b' colour="red"')],
        "<vehicle> has unknown attribute(s): colour",
    ),
    "unknown-attribute-before-text": (
        [(b'"FrontLeft"/>', b'"FrontLeft" colour="red">junk</vehicle>')],
        "<vehicle> has unknown attribute(s): colour",
    ),
    "text-before-child": (
        [(b'"FrontLeft"/>', b'"FrontLeft">junk<x/></vehicle>')],
        f"<vehicle> {_TEXT}",
    ),
    "child-before-missing": (
        [(b' id="v0"', b""), (b'"FrontLeft"/>', b'"FrontLeft"><x/></vehicle>')],
        "<vehicle> must not contain <x>",
    ),
    "missing-id-before-unknown-state": (
        [(b' id="v0"', b""), (b'"Decelerating"', b'"Braking"')],
        "<vehicle> missing required attribute 'id'",
    ),
    "state-before-position": (
        [(b'"Decelerating"', b'"Braking"'), (b'"FrontLeft"', b'"Behind"')],
        "<vehicle> attribute 'state' has unknown value 'Braking' "
        "(allowed: ContinuousMovement, Stopped, Accelerating, Decelerating)",
    ),
    "brakingLights-before-missing-distance": (
        [(b'"On"', b'"on"'), (b' distance="NearToEgoVeh"', b"")],
        "<vehicle> attribute 'brakingLights' has unknown value 'on' (allowed: On, Off)",
    ),
    "bad-fraction-before-missing-id": (
        [(b' id="p0"', b""), (b'"0.1"', b'"low"')],
        "<pedestrian> attribute 'visibleFraction' must be a number, got 'low'",
    ),
    "missing-id-before-fraction-range": (
        [(b' id="p0"', b""), (b'"0.1"', b'"1.5"')],
        "<pedestrian> missing required attribute 'id'",
    ),
    "occlusion-before-fraction-range": (
        [(b'"Full"', b'"full"'), (b'"0.1"', b'"1.5"')],
        "<pedestrian> attribute 'occlusion' has unknown value 'full' "
        "(allowed: None, Partial, Full)",
    ),
    "frame-number-before-children": (
        [(b'number="0"', b'number="x"'), (b'"Decelerating"', b'"Braking"')],
        "<frame> attribute 'number' must be an integer, got 'x'",
    ),
    "frame-children-before-label": (
        [(b'"PedestrianOccluded"', b'"Nobody"'), (b'"Decelerating"', b'"Braking"')],
        "<vehicle> attribute 'state' has unknown value 'Braking' "
        "(allowed: ContinuousMovement, Stopped, Accelerating, Decelerating)",
    ),
    "pedestrian-before-vehicle": (
        [(b'"Full"', b'"full"'), (b'"Decelerating"', b'"Braking"')],
        "<pedestrian> attribute 'occlusion' has unknown value 'full' "
        "(allowed: None, Partial, Full)",
    ),
    "lanes-before-missing-id": (
        [(b' id="s"', b""), (b'lanes="3"', b'lanes="three"')],
        "<context> attribute 'lanes' must be an integer, got 'three'",
    ),
    "environment-before-zebraCrossing": (
        [(b'"Virtual"', b'"virtual"'), (b'zebraCrossing="true"', b'zebraCrossing="yes"')],
        "<roadScene> attribute 'environment' has unknown value 'virtual' (allowed: Real, Virtual)",
    ),
    "surroundings-before-lanes-range": (
        [(b'"Vegetation"', b'"Trees"'), (b'lanes="3"', b'lanes="0"')],
        "<context> attribute 'surroundings' has unknown value 'Trees' "
        "(allowed: Vegetation, Clear)",
    ),
    "context-before-frames": (
        [(b'"Vegetation"', b'"Trees"'), (b'"PedestrianOccluded"', b'"Nobody"')],
        "<context> attribute 'surroundings' has unknown value 'Trees' "
        "(allowed: Vegetation, Clear)",
    ),
    "structure-before-context": (
        [(b'"Vegetation"', b'"Trees"'), (b"</roadScene>", b"<extra/></roadScene>")],
        "<roadScene> contains unknown element <extra>",
    ),
    "first-frame-first": (
        [
            (b'"PedestrianOccluded"', b'"Nobody"'),
            (b"</frame>", b'</frame><frame number="1" pedestriansScene="Somebody"/>'),
        ],
        "<frame> attribute 'pedestriansScene' has unknown value 'Nobody' "
        "(allowed: NonePedestrian, PedestrianOccluded, PedestrianNotOccluded)",
    ),
}


class TestParserContract:
    """The exact text of each parse error, and which of two defects is reported."""

    def test_contract_document_parses(self):
        doc = parse_scene_xml(CONTRACT_XML)
        assert doc.frames[0].vehicles[0].position is VehiclePosition.FRONT_LEFT
        assert doc.frames[0].pedestrians[0].visible_fraction == 0.1

    @pytest.mark.parametrize("edits, message", _CONTRACT_CASES.values(), ids=_CONTRACT_CASES)
    def test_error_text(self, edits, message):
        xml = CONTRACT_XML
        for original, altered in edits:
            assert xml.count(original) == 1, original
            xml = xml.replace(original, altered)
        error = SceneParseError if message.startswith("malformed XML") else SceneValidationError
        with pytest.raises(error) as info:
            parse_scene_xml(xml)
        assert type(info.value) is error
        assert str(info.value) == message


_ENUMS = (
    Environment, Surroundings, SceneLabel, OcclusionLevel,
    VehicleState, BrakingLights, DistanceBucket, VehiclePosition,
)


def _document_with_every_member() -> RoadSceneDocument:
    """Each member of each enum the format carries appears at least once."""
    vehicles = tuple(
        VehicleRecord(
            vehicle_id=f"v{n}",
            state=list(VehicleState)[n % len(VehicleState)],
            braking_lights=list(BrakingLights)[n % len(BrakingLights)],
            distance=list(DistanceBucket)[n % len(DistanceBucket)],
            position=list(VehiclePosition)[n % len(VehiclePosition)],
        )
        for n in range(5)
    )
    return RoadSceneDocument(
        context=SceneContext(
            scene_id="scene-members", environment=Environment.REAL, zebra_crossing=False,
            lanes=2, surroundings=Surroundings.CLEAR,
        ),
        frames=(
            FrameAnnotation(0, SceneLabel.NONE_PEDESTRIAN, (), vehicles),
            FrameAnnotation(1, SceneLabel.PEDESTRIAN_NOT_OCCLUDED, (
                PedestrianRecord("p0", OcclusionLevel.NONE),
            )),
            FrameAnnotation(2, SceneLabel.PEDESTRIAN_OCCLUDED, (
                PedestrianRecord("p0", OcclusionLevel.PARTIAL, 0.5),
                PedestrianRecord("p1", OcclusionLevel.FULL, 0.0),
            )),
        ),
    )


class TestEnumResolution:
    def test_tables_map_every_value_to_its_member(self):
        from occlukg import scenes

        assert set(scenes._MEMBERS) == set(_ENUMS)
        for enum_cls, table in scenes._MEMBERS.items():
            assert list(table) == [m.value for m in enum_cls]
            # the parser's ``table.get(raw) or check`` needs every member truthy
            assert all(table.values())
            for member in enum_cls:
                assert table[member.value] is member

    @pytest.mark.parametrize("environment", list(Environment))
    @pytest.mark.parametrize("surroundings", list(Surroundings))
    def test_parsed_fields_are_the_members(self, environment, surroundings):
        doc = dataclasses.replace(
            _document_with_every_member(),
            context=SceneContext("s", environment, True, 4, surroundings),
        )
        parsed = parse_scene_xml(serialize_scene_xml(doc))
        assert parsed == doc
        assert parsed.context.environment is environment
        assert parsed.context.surroundings is surroundings
        pairs = [
            (a, b)
            for fa, fb in zip(parsed.frames, doc.frames)
            for a, b in [(fa.pedestrians_scene, fb.pedestrians_scene)]
            + [(pa.occlusion, pb.occlusion) for pa, pb in zip(fa.pedestrians, fb.pedestrians)]
            + [
                (getattr(va, name), getattr(vb, name))
                for va, vb in zip(fa.vehicles, fb.vehicles)
                for name in ("state", "braking_lights", "distance", "position")
            ]
        ]
        assert {type(b) for _, b in pairs} == set(_ENUMS) - {Environment, Surroundings}
        assert {b for _, b in pairs} == {
            m for cls in _ENUMS if cls not in (Environment, Surroundings) for m in cls
        }
        assert all(a is b for a, b in pairs)

    def test_parsing_calls_no_enum_class(self, tiny_corpus, monkeypatch):
        blobs = [serialize_scene_xml(d) for d in tiny_corpus]
        blobs.append(serialize_scene_xml(_document_with_every_member()))
        expected = [*tiny_corpus, _document_with_every_member()]

        def refuse(cls, *args, **kwargs):
            raise AssertionError(f"{cls.__name__} called")

        monkeypatch.setattr(enum.EnumMeta, "__call__", refuse)
        parsed = [parse_scene_xml(b) for b in blobs]
        monkeypatch.undo()
        assert parsed == expected


class TestRecords:
    @pytest.fixture
    def records(self, occluded_crossing_doc):
        frame = occluded_crossing_doc.frames[0]
        return {
            "context": occluded_crossing_doc.context,
            "pedestrian": frame.pedestrians[0],
            "vehicle": frame.vehicles[0],
            "frame": frame,
            "document": occluded_crossing_doc,
        }

    def test_records_have_no_instance_dict(self, records):
        for record in records.values():
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_records_are_frozen(self, records):
        for record in records.values():
            name = dataclasses.fields(record)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(record, name))

    def test_equality_and_hashing(self, records, occluded_crossing_doc):
        copy = parse_scene_xml(serialize_scene_xml(occluded_crossing_doc))
        assert copy == occluded_crossing_doc and copy is not occluded_crossing_doc
        assert hash(copy) == hash(occluded_crossing_doc)
        frame = copy.frames[0]
        twins = [copy.context, frame.pedestrians[0], frame.vehicles[0], frame, copy]
        for record, twin in zip(records.values(), twins):
            assert record == twin and hash(record) == hash(twin)
            assert record != dataclasses.replace(twin, **_changed(twin))
        assert len({*records.values(), *twins}) == len(records)

    def test_replace_builds_a_checked_copy(self, records):
        context = dataclasses.replace(records["context"], lanes=5)
        assert context.lanes == 5 and records["context"].lanes == 2
        assert dataclasses.replace(records["pedestrian"], visible_fraction=None).visible_fraction is None
        assert dataclasses.replace(
            records["vehicle"], braking_lights=BrakingLights.OFF
        ).braking_lights is BrakingLights.OFF
        frame = dataclasses.replace(records["frame"], vehicles=[])
        assert frame.vehicles == () and type(frame.vehicles) is tuple
        document = dataclasses.replace(records["document"], frames=list(records["document"].frames[:1]))
        assert document.frames == records["document"].frames[:1]
        with pytest.raises(ValueError, match="lanes must be >= 1"):
            dataclasses.replace(records["context"], lanes=0)
        with pytest.raises(ValueError, match="visible_fraction"):
            dataclasses.replace(records["pedestrian"], visible_fraction=2.0)
        with pytest.raises(ValueError, match="frame_number"):
            dataclasses.replace(records["frame"], frame_number=-1)
        with pytest.raises(ValueError, match="strictly increasing"):
            dataclasses.replace(records["document"], frames=records["document"].frames[::-1])


def _changed(record) -> dict:
    """One field of ``record`` set to another valid value."""
    if isinstance(record, SceneContext):
        return {"lanes": record.lanes + 1}
    if isinstance(record, PedestrianRecord):
        return {"pedestrian_id": record.pedestrian_id + "x"}
    if isinstance(record, VehicleRecord):
        return {"vehicle_id": record.vehicle_id + "x"}
    if isinstance(record, FrameAnnotation):
        return {"frame_number": record.frame_number + 100}
    return {"frames": record.frames[:1]}


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
