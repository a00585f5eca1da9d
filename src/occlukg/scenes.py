"""Annotated road-scene documents.

Domain types for one annotated road scene (scene-level context plus
per-frame pedestrian and vehicle records), the XML annotation format,
the occlusion-level labeling rule and the cross-field validator of the
labeling rules.

The XML format is strict: one ``<roadScene>`` root with a single
``<context>`` child followed by one or more ``<frame>`` elements.
Unknown elements or attributes are rejected, never ignored, and all
enum value spellings are case-sensitive.

ElementTree builds the tree; each element's attributes are then read in
one pass. An enum attribute resolves through a value-to-member table
built once from its enum, so parsing calls no enum class, and a
missing or unknown value falls through to a check that raises the
error naming it. The records are frozen, slotted dataclasses.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class Environment(str, Enum):
    REAL = "Real"
    VIRTUAL = "Virtual"


class Surroundings(str, Enum):
    VEGETATION = "Vegetation"
    CLEAR = "Clear"


class SceneLabel(str, Enum):
    """Per-frame pedestrian-scene label."""

    NONE_PEDESTRIAN = "NonePedestrian"
    PEDESTRIAN_OCCLUDED = "PedestrianOccluded"
    PEDESTRIAN_NOT_OCCLUDED = "PedestrianNotOccluded"


class OcclusionLevel(str, Enum):
    NONE = "None"
    PARTIAL = "Partial"
    FULL = "Full"


class VehicleState(str, Enum):
    CONTINUOUS_MOVEMENT = "ContinuousMovement"
    STOPPED = "Stopped"
    ACCELERATING = "Accelerating"
    DECELERATING = "Decelerating"


class BrakingLights(str, Enum):
    ON = "On"
    OFF = "Off"


class DistanceBucket(str, Enum):
    NEAR = "NearToEgoVeh"
    MIDDLE = "MiddleDisToEgoVeh"
    FAR = "FarToEgoVeh"


class VehiclePosition(str, Enum):
    FRONT = "Front"
    FRONT_LEFT = "FrontLeft"
    FRONT_RIGHT = "FrontRight"
    LEFT = "Left"
    RIGHT = "Right"


# Visibility below this fraction counts as full occlusion; exactly at the
# threshold is partial.
FULL_OCCLUSION_VISIBILITY_THRESHOLD = 0.25


class SceneParseError(ValueError):
    """Raised for malformed XML (carries line/column when available)."""


class SceneValidationError(ValueError):
    """Raised when XML is well-formed but violates the annotation schema."""


@dataclass(frozen=True, slots=True)
class SceneContext:
    """Scene-level labels, annotated once per road scene."""

    scene_id: str
    environment: Environment
    zebra_crossing: bool
    lanes: int
    surroundings: Surroundings

    def __post_init__(self):
        if not self.scene_id:
            raise ValueError("scene_id must be non-empty")
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")


@dataclass(frozen=True, slots=True)
class PedestrianRecord:
    pedestrian_id: str
    occlusion: OcclusionLevel
    visible_fraction: Optional[float] = None

    def __post_init__(self):
        vf = self.visible_fraction
        if vf is not None and not (0.0 <= vf <= 1.0):
            raise ValueError(f"visible_fraction must be in [0, 1], got {vf}")


@dataclass(frozen=True, slots=True)
class VehicleRecord:
    vehicle_id: str
    state: VehicleState
    braking_lights: BrakingLights
    distance: DistanceBucket
    position: VehiclePosition


@dataclass(frozen=True, slots=True)
class FrameAnnotation:
    frame_number: int
    pedestrians_scene: SceneLabel
    pedestrians: tuple[PedestrianRecord, ...] = ()
    vehicles: tuple[VehicleRecord, ...] = ()

    def __post_init__(self):
        if self.frame_number < 0:
            raise ValueError(f"frame_number must be >= 0, got {self.frame_number}")
        # Label/record consistency is deliberately not enforced here so that
        # validate_document can report it as a violation.
        object.__setattr__(self, "pedestrians", tuple(self.pedestrians))
        object.__setattr__(self, "vehicles", tuple(self.vehicles))


@dataclass(frozen=True, slots=True)
class RoadSceneDocument:
    context: SceneContext
    frames: tuple[FrameAnnotation, ...]

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.frames:
            raise ValueError("document must contain at least one frame")
        numbers = [f.frame_number for f in self.frames]
        if any(b <= a for a, b in zip(numbers, numbers[1:])):
            raise ValueError("frames not strictly increasing")

    @property
    def scene_id(self) -> str:
        return self.context.scene_id


def validate_document(doc: RoadSceneDocument) -> list[str]:
    """Cross-field consistency check. Returns violation descriptions, [] if clean."""
    violations: list[str] = []
    sid = doc.scene_id
    for frame in doc.frames:
        where = f"scene {sid!r} frame {frame.frame_number}"
        label = frame.pedestrians_scene
        occluded = [
            p
            for p in frame.pedestrians
            if p.occlusion in (OcclusionLevel.PARTIAL, OcclusionLevel.FULL)
        ]
        if label is SceneLabel.NONE_PEDESTRIAN and frame.pedestrians:
            violations.append(f"{where}: NonePedestrian frame lists pedestrians")
        if label is SceneLabel.PEDESTRIAN_OCCLUDED and not occluded:
            violations.append(
                f"{where}: PedestrianOccluded frame has no occluded pedestrian record"
            )
        for p in frame.pedestrians:
            vf = p.visible_fraction
            if vf is None:
                continue
            if vf < FULL_OCCLUSION_VISIBILITY_THRESHOLD and p.occlusion is OcclusionLevel.PARTIAL:
                violations.append(
                    f"{where}: pedestrian {p.pedestrian_id!r} visible_fraction {vf} "
                    f"below {FULL_OCCLUSION_VISIBILITY_THRESHOLD} but occlusion Partial"
                )
            if vf >= FULL_OCCLUSION_VISIBILITY_THRESHOLD and p.occlusion is OcclusionLevel.FULL:
                violations.append(
                    f"{where}: pedestrian {p.pedestrian_id!r} visible_fraction {vf} "
                    f"at or above {FULL_OCCLUSION_VISIBILITY_THRESHOLD} but occlusion Full"
                )
    return violations


# --- XML format ---------------------------------------------------------

_ROOT_ATTRS = {"id", "environment"}
_CONTEXT_ATTRS = {"zebraCrossing", "lanes", "surroundings"}
_FRAME_ATTRS = {"number", "pedestriansScene"}
_PEDESTRIAN_ATTRS = {"id", "occlusion", "visibleFraction"}
_VEHICLE_ATTRS = {"id", "state", "brakingLights", "distance", "position"}

# Value -> member of each enum the format carries, built once from the
# enum itself, so an attribute resolves by one dict lookup rather than a
# call of the enum class.
_MEMBERS = {
    enum_cls: {member._value_: member for member in enum_cls}
    for enum_cls in (
        Environment, Surroundings, SceneLabel, OcclusionLevel,
        VehicleState, BrakingLights, DistanceBucket, VehiclePosition,
    )
}
_ENVIRONMENTS = _MEMBERS[Environment]
_SURROUNDINGS = _MEMBERS[Surroundings]
_SCENE_LABELS = _MEMBERS[SceneLabel]
_OCCLUSIONS = _MEMBERS[OcclusionLevel]
_STATES = _MEMBERS[VehicleState]
_LIGHTS = _MEMBERS[BrakingLights]
_DISTANCES = _MEMBERS[DistanceBucket]
_POSITIONS = _MEMBERS[VehiclePosition]

# The element parsers below read each attribute with one lookup inline,
# ``table.get(attrib.get(name)) or _enum_attr(...)``: every member is a
# non-empty string, so only a missing or unknown value falls through to
# the check, which raises. The checks run in the order the lookups do,
# so the first defect in that order is the one reported.


def _enum_attr(elem: ET.Element, name: str, enum_cls, elem_name: str):
    raw = elem.get(name)
    if raw is None:
        raise SceneValidationError(f"<{elem_name}> missing required attribute {name!r}")
    members = _MEMBERS[enum_cls]
    if raw not in members:
        raise SceneValidationError(
            f"<{elem_name}> attribute {name!r} has unknown value {raw!r} "
            f"(allowed: {', '.join(members)})"
        )
    return members[raw]


def _required_attr(elem: ET.Element, name: str, elem_name: str) -> str:
    raw = elem.get(name)
    if raw is None:
        raise SceneValidationError(f"<{elem_name}> missing required attribute {name!r}")
    return raw


def _check_attrs(elem: ET.Element, allowed: set[str], elem_name: str) -> None:
    unknown = set(elem.attrib) - allowed
    if unknown:
        raise SceneValidationError(
            f"<{elem_name}> has unknown attribute(s): {', '.join(sorted(unknown))}"
        )


def _check_no_text(elem: ET.Element, elem_name: str) -> None:
    if elem.text and elem.text.strip():
        raise SceneValidationError(f"<{elem_name}> must not contain text content")


def _check_no_children(elem: ET.Element, elem_name: str) -> None:
    for child in elem:
        raise SceneValidationError(f"<{elem_name}> must not contain <{child.tag}>")


def _parse_bool(raw: str, name: str, elem_name: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise SceneValidationError(
        f"<{elem_name}> attribute {name!r} must be 'true' or 'false', got {raw!r}"
    )


def _parse_int(raw: str, name: str, elem_name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SceneValidationError(
            f"<{elem_name}> attribute {name!r} must be an integer, got {raw!r}"
        ) from None


def _parse_pedestrian(elem: ET.Element) -> PedestrianRecord:
    attrib = elem.attrib
    if not attrib.keys() <= _PEDESTRIAN_ATTRS:
        _check_attrs(elem, _PEDESTRIAN_ATTRS, "pedestrian")
    if elem.text:
        _check_no_text(elem, "pedestrian")
    if len(elem):
        _check_no_children(elem, "pedestrian")
    vf_raw = attrib.get("visibleFraction")
    vf = None
    if vf_raw is not None:
        try:
            vf = float(vf_raw)
        except ValueError:
            raise SceneValidationError(
                f"<pedestrian> attribute 'visibleFraction' must be a number, got {vf_raw!r}"
            ) from None
    try:
        return PedestrianRecord(
            attrib.get("id") or _required_attr(elem, "id", "pedestrian"),
            _OCCLUSIONS.get(attrib.get("occlusion"))
            or _enum_attr(elem, "occlusion", OcclusionLevel, "pedestrian"),
            vf,
        )
    except ValueError as exc:
        if isinstance(exc, SceneValidationError):
            raise
        raise SceneValidationError(f"<pedestrian>: {exc}") from None


def _parse_vehicle(elem: ET.Element) -> VehicleRecord:
    attrib = elem.attrib
    if not attrib.keys() <= _VEHICLE_ATTRS:
        _check_attrs(elem, _VEHICLE_ATTRS, "vehicle")
    if elem.text:
        _check_no_text(elem, "vehicle")
    if len(elem):
        _check_no_children(elem, "vehicle")
    get = attrib.get
    return VehicleRecord(
        get("id") or _required_attr(elem, "id", "vehicle"),
        _STATES.get(get("state")) or _enum_attr(elem, "state", VehicleState, "vehicle"),
        _LIGHTS.get(get("brakingLights"))
        or _enum_attr(elem, "brakingLights", BrakingLights, "vehicle"),
        _DISTANCES.get(get("distance"))
        or _enum_attr(elem, "distance", DistanceBucket, "vehicle"),
        _POSITIONS.get(get("position"))
        or _enum_attr(elem, "position", VehiclePosition, "vehicle"),
    )


def _parse_frame(elem: ET.Element) -> FrameAnnotation:
    attrib = elem.attrib
    if not attrib.keys() <= _FRAME_ATTRS:
        _check_attrs(elem, _FRAME_ATTRS, "frame")
    if elem.text:
        _check_no_text(elem, "frame")
    number = _parse_int(
        attrib.get("number") or _required_attr(elem, "number", "frame"), "number", "frame"
    )
    if number < 0:
        raise SceneValidationError(f"<frame> number must be >= 0, got {number}")
    pedestrians = []
    vehicles = []
    for child in elem:
        if (tail := child.tail) and tail.strip():
            raise SceneValidationError("<frame> must not contain text content")
        tag = child.tag
        if tag == "vehicle":
            vehicles.append(_parse_vehicle(child))
        elif tag == "pedestrian":
            pedestrians.append(_parse_pedestrian(child))
        else:
            raise SceneValidationError(f"<frame> contains unknown element <{tag}>")
    return FrameAnnotation(
        number,
        _SCENE_LABELS.get(attrib.get("pedestriansScene"))
        or _enum_attr(elem, "pedestriansScene", SceneLabel, "frame"),
        tuple(pedestrians),
        tuple(vehicles),
    )


def parse_scene_xml(data: bytes) -> RoadSceneDocument:
    """Parse one annotation document from XML bytes.

    Raises SceneParseError (with line/column) on malformed XML and
    SceneValidationError naming the offending element and rule on any
    schema violation, including unknown elements and label/record
    inconsistencies that the annotation rules forbid outright.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        raise SceneParseError(f"malformed XML at line {line}, column {column}: {exc.msg}") from None

    if root.tag != "roadScene":
        raise SceneValidationError(f"root element must be <roadScene>, got <{root.tag}>")
    root_attrib = root.attrib
    if not root_attrib.keys() <= _ROOT_ATTRS:
        _check_attrs(root, _ROOT_ATTRS, "roadScene")
    if root.text:
        _check_no_text(root, "roadScene")

    context_elem = None
    frame_elems = []
    for child in root:
        if (tail := child.tail) and tail.strip():
            raise SceneValidationError("<roadScene> must not contain text content")
        if child.tag == "context":
            if context_elem is not None:
                raise SceneValidationError("<roadScene> must contain exactly one <context>")
            context_elem = child
        elif child.tag == "frame":
            frame_elems.append(child)
        else:
            raise SceneValidationError(
                f"<roadScene> contains unknown element <{child.tag}>"
            )
    if context_elem is None:
        raise SceneValidationError("<roadScene> must contain a <context> element")
    if not frame_elems:
        raise SceneValidationError("<roadScene> must contain at least one <frame>")

    attrib = context_elem.attrib
    if not attrib.keys() <= _CONTEXT_ATTRS:
        _check_attrs(context_elem, _CONTEXT_ATTRS, "context")
    if context_elem.text:
        _check_no_text(context_elem, "context")
    if len(context_elem):
        _check_no_children(context_elem, "context")

    lanes = _parse_int(
        attrib.get("lanes") or _required_attr(context_elem, "lanes", "context"), "lanes", "context"
    )
    try:
        context = SceneContext(
            scene_id=root_attrib.get("id") or _required_attr(root, "id", "roadScene"),
            environment=_ENVIRONMENTS.get(root_attrib.get("environment"))
            or _enum_attr(root, "environment", Environment, "roadScene"),
            zebra_crossing=_parse_bool(
                attrib.get("zebraCrossing")
                or _required_attr(context_elem, "zebraCrossing", "context"),
                "zebraCrossing",
                "context",
            ),
            lanes=lanes,
            surroundings=_SURROUNDINGS.get(attrib.get("surroundings"))
            or _enum_attr(context_elem, "surroundings", Surroundings, "context"),
        )
    except ValueError as exc:
        if isinstance(exc, SceneValidationError):
            raise
        raise SceneValidationError(f"<context>: {exc}") from None

    frames = [_parse_frame(e) for e in frame_elems]
    try:
        doc = RoadSceneDocument(context=context, frames=tuple(frames))
    except ValueError as exc:
        raise SceneValidationError(str(exc)) from None

    # Label/record consistency that the format forbids outright; the
    # finer visibility-threshold rule stays a validate_document concern.
    for frame in doc.frames:
        label = frame.pedestrians_scene
        if label is SceneLabel.NONE_PEDESTRIAN and frame.pedestrians:
            raise SceneValidationError(
                f"<frame number={frame.frame_number}> is NonePedestrian but lists pedestrians"
            )
        if label is SceneLabel.PEDESTRIAN_OCCLUDED and not any(
            p.occlusion in (OcclusionLevel.PARTIAL, OcclusionLevel.FULL)
            for p in frame.pedestrians
        ):
            raise SceneValidationError(
                f"<frame number={frame.frame_number}> is PedestrianOccluded but has "
                "no occluded pedestrian record"
            )
    return doc


def _escape_attrib(text: str) -> str:
    """Attribute-value escaping, character for character as ElementTree writes it."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def serialize_scene_xml(doc: RoadSceneDocument) -> bytes:
    """Serialize a document to XML bytes. Inverse of parse_scene_xml.

    The bytes are those of ElementTree's ``tostring`` after
    ``indent(space="  ")``, with the declaration and a final newline:
    two-space indent, self-closing ``" />"`` tags and attributes in a
    fixed order. They are written directly, without building a tree.
    """
    ctx = doc.context
    out = [
        "<?xml version='1.0' encoding='utf-8'?>\n"
        f'<roadScene id="{_escape_attrib(ctx.scene_id)}" environment="{ctx.environment.value}">\n'
        f'  <context zebraCrossing="{"true" if ctx.zebra_crossing else "false"}" '
        f'lanes="{ctx.lanes}" surroundings="{ctx.surroundings.value}" />\n'
    ]
    for frame in doc.frames:
        head = (
            f'  <frame number="{frame.frame_number}" '
            f'pedestriansScene="{frame.pedestrians_scene.value}"'
        )
        if not (frame.pedestrians or frame.vehicles):
            out.append(head + " />\n")
            continue
        out.append(head + ">\n")
        for p in frame.pedestrians:
            # repr keeps the shortest decimal that round-trips exactly
            fraction = (
                "" if p.visible_fraction is None
                else f' visibleFraction="{p.visible_fraction!r}"'
            )
            out.append(
                f'    <pedestrian id="{_escape_attrib(p.pedestrian_id)}" '
                f'occlusion="{p.occlusion.value}"{fraction} />\n'
            )
        for v in frame.vehicles:
            out.append(
                f'    <vehicle id="{_escape_attrib(v.vehicle_id)}" state="{v.state.value}" '
                f'brakingLights="{v.braking_lights.value}" distance="{v.distance.value}" '
                f'position="{v.position.value}" />\n'
            )
        out.append("  </frame>\n")
    out.append("</roadScene>\n")
    # ElementTree's writer encodes with this handler too: a code point
    # UTF-8 cannot carry becomes a character reference.
    return "".join(out).encode("utf-8", "xmlcharrefreplace")
