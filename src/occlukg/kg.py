"""Knowledge-graph compilation from annotated road scenes.

Turns a corpus of RoadSceneDocument into a triple store over a fixed
road-scene ontology, materializes class-level prototype entities
(SceneWithOccludedPed / SceneWithVisiblePed / SceneWithNoPed plus a
generic RoadScene) whose embeddings the Bayesian predictor later
queries, and carves scene-level train/validation/test folds. The triple
split holds only the training graph and the validation triples: only
the predictor reads the test fold, so no test-scene label reaches
training or calibration.

A graph is stored as one sorted (n, 3) integer index array over its
sorted entity and relation vocabularies. Building, linking, the TSV
round trip and the statistics fill or read that array from flat string
columns; ``Triple`` objects are built only where a caller reads them
(``KnowledgeGraph.triples``, cached on first read, and
``sorted_triples``).

Entity id conventions:
  scene:<scene_id>            one per document
  frame:<scene_id>:<number>   one per frame
  ped:<scene_id>:<ped_id>     persistent per scene
  veh:<scene_id>:<number>:<vehicle_id>   per-frame vehicle record
Value entities (On, NearToEgoVeh, VehDecelerating, LaneCount_3, ...)
and the four prototypes are unprefixed and shared across scenes.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, cycle, islice, repeat
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .scenes import (
    BrakingLights,
    DistanceBucket,
    Environment,
    FrameAnnotation,
    RoadSceneDocument,
    SceneLabel,
    Surroundings,
    VehiclePosition,
    VehicleState,
    validate_document,
)


class KgBuildError(ValueError):
    """Raised when a corpus cannot be compiled into a knowledge graph."""


class SplitError(ValueError):
    """Raised when requested split counts are infeasible."""


# --- Ontology -----------------------------------------------------------

ROAD_SCENE = "RoadScene"
PROTO_OCCLUDED = "SceneWithOccludedPed"
PROTO_VISIBLE = "SceneWithVisiblePed"
PROTO_NO_PED = "SceneWithNoPed"

PROTOTYPE_FOR_LABEL = {
    SceneLabel.PEDESTRIAN_OCCLUDED: PROTO_OCCLUDED,
    SceneLabel.PEDESTRIAN_NOT_OCCLUDED: PROTO_VISIBLE,
    SceneLabel.NONE_PEDESTRIAN: PROTO_NO_PED,
}

ZEBRA_ENTITY = "ZebraCrossing"
MAX_LANE_ENTITY = 6

VEHICLE_STATE_ENTITY = {
    VehicleState.CONTINUOUS_MOVEMENT: "VehContinuousMovement",
    VehicleState.STOPPED: "VehStopped",
    VehicleState.ACCELERATING: "VehAccelerating",
    VehicleState.DECELERATING: "VehDecelerating",
}


class EntityKind(Enum):
    SCENE = "scene"
    FRAME = "frame"
    PEDESTRIAN = "pedestrian"
    VEHICLE_RECORD = "vehicle_record"
    SCENE_CLASS = "scene_class"
    PED_LABEL = "ped_label"
    ZEBRA = "zebra"
    SURROUNDINGS = "surroundings"
    LANE_COUNT = "lane_count"
    VEHICLE_STATE = "vehicle_state"
    LIGHTS = "lights"
    DISTANCE = "distance"
    POSITION = "position"
    OCCLUSION = "occlusion"
    UNKNOWN = "unknown"


_VALUE_KINDS: dict[str, EntityKind] = {}
_VALUE_KINDS[ZEBRA_ENTITY] = EntityKind.ZEBRA
for m in Surroundings:
    _VALUE_KINDS[m.value] = EntityKind.SURROUNDINGS
for n in range(1, MAX_LANE_ENTITY + 1):
    _VALUE_KINDS[f"LaneCount_{n}"] = EntityKind.LANE_COUNT
for v in VEHICLE_STATE_ENTITY.values():
    _VALUE_KINDS[v] = EntityKind.VEHICLE_STATE
for m in BrakingLights:
    _VALUE_KINDS[m.value] = EntityKind.LIGHTS
for m in DistanceBucket:
    _VALUE_KINDS[m.value] = EntityKind.DISTANCE
for m in VehiclePosition:
    _VALUE_KINDS[m.value] = EntityKind.POSITION
for m in SceneLabel:
    _VALUE_KINDS[m.value] = EntityKind.PED_LABEL
# Occlusion-level entities keep the annotation spellings; they never
# collide with the other value vocabularies.
_VALUE_KINDS["None"] = EntityKind.OCCLUSION
_VALUE_KINDS["Partial"] = EntityKind.OCCLUSION
_VALUE_KINDS["Full"] = EntityKind.OCCLUSION
for p in (ROAD_SCENE, PROTO_OCCLUDED, PROTO_VISIBLE, PROTO_NO_PED):
    _VALUE_KINDS[p] = EntityKind.SCENE_CLASS


def entity_kind(entity_id: str) -> EntityKind:
    if entity_id.startswith("scene:"):
        return EntityKind.SCENE
    if entity_id.startswith("frame:"):
        return EntityKind.FRAME
    if entity_id.startswith("ped:"):
        return EntityKind.PEDESTRIAN
    if entity_id.startswith("veh:"):
        return EntityKind.VEHICLE_RECORD
    return _VALUE_KINDS.get(entity_id, EntityKind.UNKNOWN)


class Triple(NamedTuple):
    """A (subject, relation, object) fact.

    A tuple: it equals the plain 3-tuple of its fields and sorts by
    (subject, relation, object).
    """

    subject: str
    relation: str
    object: str


@dataclass(frozen=True)
class OntologySchema:
    """Fixed relation vocabulary with domain/range kinds per relation."""

    relations: Mapping[str, tuple[frozenset[EntityKind], frozenset[EntityKind]]]

    def check(self, triple: Triple) -> Optional[str]:
        """Return a violation description, or None if the triple type-checks.

        Entities of unknown kind (foreign vocabularies loaded from TSV)
        pass; the check is strict only where a kind is recognizable.
        """
        spec = self.relations.get(triple.relation)
        if spec is None:
            return f"unknown relation {triple.relation!r}"
        domain, range_ = spec
        s_kind = entity_kind(triple.subject)
        o_kind = entity_kind(triple.object)
        if s_kind is not EntityKind.UNKNOWN and s_kind not in domain:
            return (
                f"subject {triple.subject!r} of kind {s_kind.value} not allowed "
                f"for relation {triple.relation!r}"
            )
        if o_kind is not EntityKind.UNKNOWN and o_kind not in range_:
            return (
                f"object {triple.object!r} of kind {o_kind.value} not allowed "
                f"for relation {triple.relation!r}"
            )
        return None


def _ks(*kinds: EntityKind) -> frozenset[EntityKind]:
    return frozenset(kinds)


ONTOLOGY = OntologySchema(
    relations={
        "contains": (_ks(EntityKind.FRAME, EntityKind.SCENE_CLASS), _ks(EntityKind.PED_LABEL)),
        "thereIs": (_ks(EntityKind.SCENE, EntityKind.SCENE_CLASS), _ks(EntityKind.ZEBRA)),
        "includes": (
            _ks(EntityKind.SCENE, EntityKind.FRAME, EntityKind.SCENE_CLASS),
            _ks(EntityKind.FRAME, EntityKind.VEHICLE_STATE),
        ),
        "hasSurroundings": (
            _ks(EntityKind.SCENE, EntityKind.SCENE_CLASS),
            _ks(EntityKind.SURROUNDINGS),
        ),
        "hasLanes": (
            _ks(EntityKind.SCENE, EntityKind.SCENE_CLASS),
            _ks(EntityKind.LANE_COUNT),
        ),
        "nextFrame": (_ks(EntityKind.FRAME), _ks(EntityKind.FRAME)),
        "prevFrame": (_ks(EntityKind.FRAME), _ks(EntityKind.FRAME)),
        "hasOcclusionLevel": (_ks(EntityKind.PEDESTRIAN), _ks(EntityKind.OCCLUSION)),
        "hasState": (_ks(EntityKind.VEHICLE_RECORD), _ks(EntityKind.VEHICLE_STATE)),
        "hasBrakingLights": (
            _ks(EntityKind.VEHICLE_RECORD, EntityKind.SCENE_CLASS),
            _ks(EntityKind.LIGHTS),
        ),
        "hasDistance": (
            _ks(EntityKind.VEHICLE_RECORD, EntityKind.SCENE_CLASS),
            _ks(EntityKind.DISTANCE),
        ),
        "hasPosition": (
            _ks(EntityKind.VEHICLE_RECORD, EntityKind.SCENE_CLASS),
            _ks(EntityKind.POSITION),
        ),
        "instanceOfSceneClass": (_ks(EntityKind.FRAME), _ks(EntityKind.SCENE_CLASS)),
    }
)

def lane_entity(lanes: int) -> str:
    return f"LaneCount_{min(max(lanes, 1), MAX_LANE_ENTITY)}"


def scene_entity(scene_id: str) -> str:
    return f"scene:{scene_id}"


def frame_entity(scene_id: str, frame_number: int) -> str:
    return f"frame:{scene_id}:{frame_number}"


# --- Knowledge graph ----------------------------------------------------


class KnowledgeGraph:
    """Read-only triple store: one sorted index array over sorted vocabularies.

    Entities and relations are indexed in sorted ``str`` order. The
    triples are held as one read-only (n, 3) array of [subject, relation,
    object] indices, deduplicated and sorted by row, which is the
    triples' own (subject, relation, object) order. So two graphs with
    equal triple sets are identical structures regardless of the order
    their source documents were processed in, and graphs compare equal
    by their vocabularies and array. Membership tests pack a row into
    the int64 key (s·|R| + r)·|E| + o, which rises with the row.

    ``triples``, the frozenset of ``Triple``, is built from the array on
    first read and cached; it is a view of the array, not a second store.
    """

    def __init__(self, triples: Iterable[tuple[str, str, str]] = ()):
        self._fill([f for s, r, o in triples for f in (s, r, o)])

    @classmethod
    def _from_fields(cls, fields: list[str]) -> KnowledgeGraph:
        """The graph of a flat [subject, relation, object, subject, ...] list."""
        kg = cls.__new__(cls)
        kg._fill(fields)
        return kg

    def _fill(self, fields: list[str]) -> None:
        relations = sorted(set(islice(fields, 1, None, 3)))
        unknown = set(relations) - ONTOLOGY.relations.keys()
        if unknown:
            raise KgBuildError(f"unknown relation(s): {', '.join(sorted(unknown))}")
        entities = sorted({*islice(fields, 0, None, 3), *islice(fields, 2, None, 3)})
        self.entities = tuple(entities)
        self.relations = tuple(relations)
        self.entity_index = {e: i for i, e in enumerate(entities)}
        self.relation_index = {r: i for i, r in enumerate(relations)}
        columns = cycle((self.entity_index, self.relation_index, self.entity_index))
        codes = np.fromiter(map(dict.__getitem__, columns, fields), np.int64, len(fields))
        # Deduplicated by sorting, so each key's first copy rises above its
        # predecessor (numpy's hash-based np.unique is many times slower).
        keys = np.sort(self._packed(codes.reshape(-1, 3)))
        keys = keys[np.diff(keys, prepend=-1) > 0]
        s, rest = np.divmod(keys, len(relations) * len(entities))
        r, o = np.divmod(rest, len(entities))
        self._index = np.stack((s, r, o), axis=1).astype(np.int32)
        self._index.flags.writeable = False

    def _packed(self, index: np.ndarray) -> np.ndarray:
        """The key (s·|R| + r)·|E| + o of each row of an (n, 3) index array."""
        s, r, o = index.astype(np.int64, copy=False).T
        return (s * self.n_relations + r) * self.n_entities + o

    def _has(self, triples: Iterable[tuple[str, str, str]]) -> np.ndarray:
        """Whether each of ``triples`` is in the graph, by packed-key lookup."""
        ent, rel = self.entity_index, self.relation_index
        codes = np.array(
            [i for s, r, o in triples for i in (ent.get(s, -1), rel.get(r, -1), ent.get(o, -1))],
            dtype=np.int64,
        ).reshape(-1, 3)
        keys, queries = self._packed(self._index), self._packed(codes)
        # The keys rise with the row, so a binary search lands on each key
        # present, and any other query lands on a different key or past the end.
        found = np.append(keys, -1)[np.searchsorted(keys, queries)] == queries
        return (codes >= 0).all(axis=1) & found

    def _fields(self) -> list[str]:
        """[subject, relation, object, subject, ...] of the triples in sorted order."""
        names = np.array(self.entities + self.relations, dtype=object)
        return names[(self._index + (0, self.n_entities, 0)).ravel()].tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (
            self.entities == other.entities
            and self.relations == other.relations
            and np.array_equal(self._index, other._index)
        )

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph({self.n_triples} triples, {self.n_entities} entities, "
            f"{self.n_relations} relations)"
        )

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def n_triples(self) -> int:
        return len(self._index)

    @cached_property
    def triples(self) -> frozenset[Triple]:
        return frozenset(self.sorted_triples())

    def sorted_triples(self) -> list[Triple]:
        fields = iter(self._fields())
        # tuple.__new__ is what Triple._make calls, without a Python frame per triple.
        return list(map(tuple.__new__, repeat(Triple), zip(fields, fields, fields)))

    def to_index_array(self, triples: Optional[Iterable[Triple]] = None) -> np.ndarray:
        """(n, 3) int64 array of [subject, relation, object] dense indices.

        With no argument, a copy of the graph's own array: every triple
        once, in sorted order.
        """
        if triples is None:
            return self._index.astype(np.int64)
        ent, rel = self.entity_index, self.relation_index
        # Flat ints, not a row tuple each: ints are not tracked by the
        # garbage collector, so a large graph adds no collections here.
        flat = [i for s, r, o in triples for i in (ent[s], rel[r], ent[o])]
        return np.array(flat, dtype=np.int64).reshape(-1, 3)


# A field holding one of these would split its record when read back.
_UNWRITABLE = re.compile("[\t\n\r]")

# Bytes of whole lines import_kg_tsv decodes and splits at a time.
_TSV_CHUNK_BYTES = 1 << 16


def export_kg_tsv(kg: KnowledgeGraph) -> bytes:
    """Sorted, newline-terminated subject/relation/object TSV.

    A field holding a tab, newline or carriage return raises
    KgBuildError naming its triple, since it could not be read back.
    """
    if any(map(_UNWRITABLE.search, kg.entities)):
        bad = next(t for t in kg.sorted_triples() if _UNWRITABLE.search("".join(t)))
        raise KgBuildError(
            f"triple {tuple(bad)!r} has a field holding a tab, newline or carriage return"
        )
    fields = iter(kg._fields())
    text = "\n".join(map("\t".join, zip(fields, fields, fields)))
    return (text + "\n").encode("utf-8") if text else b""


def import_kg_tsv(data: bytes) -> KnowledgeGraph:
    """The graph of an export_kg_tsv file.

    Records end at "\\n", and one "\\r" before it is dropped; blank
    records are skipped. The data is decoded and split a chunk of whole
    lines at a time, and each field is mapped through one dict, so each
    distinct string is held once however often it occurs.
    """
    fields: list[str] = []
    interned: dict[str, str] = {}
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + _TSV_CHUNK_BYTES) + 1 or len(data)
        lines = data[start:end].decode("utf-8").replace("\r\n", "\n").split("\n")
        rows = list(filter(None, lines))
        # Checked and split in bulk: once every row has exactly two tabs, the
        # rows joined by tabs split into their fields three at a time.
        if rows and set(map(str.count, rows, repeat("\t"))) != {2}:
            first = data.count(b"\n", 0, start) + 1
            for lineno, line in enumerate(lines, start=first):
                if line and line.count("\t") != 2:
                    raise KgBuildError(f"line {lineno}: expected 3 tab-separated fields")
        if rows:
            parts = "\t".join(rows).split("\t")
            fields.extend(map(interned.setdefault, parts, parts))
        start = end
    return KnowledgeGraph._from_fields(fields)


# --- Building -----------------------------------------------------------


def frame_evidence_pairs(
    doc: RoadSceneDocument, frame: FrameAnnotation
) -> list[tuple[str, str, str]]:
    """(relation, value-entity, source) tuples describing one frame.

    Source is "Context" (zebra, surroundings, lanes) or "Vehicle".
    This is the shared vocabulary between prototype linkage and the
    predictor's evidence extraction: class-level triples are exactly
    these pairs re-subjected onto a prototype. Deduplicated; context
    first, then vehicles in id order.
    """
    # ``_value_`` is the enum member's plain value attribute; reading it
    # skips the ``.value`` property, which is a Python-level call.
    ctx = doc.context
    out: list[tuple[str, str, str]] = []
    if ctx.zebra_crossing:
        out.append(("thereIs", ZEBRA_ENTITY, "Context"))
    out.append(("hasSurroundings", ctx.surroundings._value_, "Context"))
    out.append(("hasLanes", lane_entity(ctx.lanes), "Context"))
    seen = {(rel, obj) for rel, obj, _ in out}
    for v in sorted(frame.vehicles, key=lambda v: v.vehicle_id):
        for rel, obj in (
            ("includes", VEHICLE_STATE_ENTITY[v.state]),
            ("hasBrakingLights", v.braking_lights._value_),
            ("hasDistance", v.distance._value_),
            ("hasPosition", v.position._value_),
        ):
            if (rel, obj) not in seen:
                seen.add((rel, obj))
                out.append((rel, obj, "Vehicle"))
    return out


def build_kg(corpus: Sequence[RoadSceneDocument]) -> KnowledgeGraph:
    """Compile documents into a knowledge graph (without prototype linkage).

    Emits per-scene context triples, the frame chain, per-frame scene
    labels, pedestrian occlusion levels and vehicle records. Documents
    must pass validate_document; every emitted triple is type-checked
    against the ontology, through one triple per (relation, subject kind,
    object kind) signature.
    """
    fields: list[str] = []
    add = fields.extend
    seen_ids: set[str] = set()
    for doc in corpus:
        sid = doc.scene_id
        if sid in seen_ids:
            raise KgBuildError(f"duplicate scene_id {sid!r} in corpus")
        seen_ids.add(sid)
        violations = validate_document(doc)
        if violations:
            raise KgBuildError(
                f"scene {sid!r} fails validation: " + "; ".join(violations)
            )
        s_ent = scene_entity(sid)
        ctx = doc.context
        if ctx.zebra_crossing:
            add((s_ent, "thereIs", ZEBRA_ENTITY))
        add((s_ent, "hasSurroundings", ctx.surroundings._value_))
        add((s_ent, "hasLanes", lane_entity(ctx.lanes)))

        prev_f_ent = None
        for frame in doc.frames:
            f_ent = frame_entity(sid, frame.frame_number)
            add((s_ent, "includes", f_ent))
            add((f_ent, "contains", frame.pedestrians_scene._value_))
            if prev_f_ent is not None:
                add((prev_f_ent, "nextFrame", f_ent))
                add((f_ent, "prevFrame", prev_f_ent))
            prev_f_ent = f_ent
            for p in frame.pedestrians:
                p_ent = f"ped:{sid}:{p.pedestrian_id}"
                add((p_ent, "hasOcclusionLevel", p.occlusion._value_))
            for v in frame.vehicles:
                v_ent = f"veh:{sid}:{frame.frame_number}:{v.vehicle_id}"
                state_ent = VEHICLE_STATE_ENTITY[v.state]
                add((f_ent, "includes", state_ent))
                add((v_ent, "hasState", state_ent))
                add((v_ent, "hasBrakingLights", v.braking_lights._value_))
                add((v_ent, "hasDistance", v.distance._value_))
                add((v_ent, "hasPosition", v.position._value_))

    kg = KnowledgeGraph._from_fields(fields)
    # ONTOLOGY.check's verdict depends only on the relation and the two
    # entity kinds, so the first triple of each (relation, subject kind,
    # object kind) signature stands for all of them.
    _, kinds = np.unique([entity_kind(e)._value_ for e in kg.entities], return_inverse=True)
    s, r, o = kg._index.T
    signatures = (r * len(EntityKind) + kinds[s]) * len(EntityKind) + kinds[o]
    _, firsts = np.unique(signatures, return_index=True)
    for s, r, o in kg._index[firsts].tolist():
        problem = ONTOLOGY.check(Triple(kg.entities[s], kg.relations[r], kg.entities[o]))
        if problem:
            raise KgBuildError(f"emitted triple fails ontology check: {problem}")
    return kg


def class_level_triples(corpus: Sequence[RoadSceneDocument]) -> set[Triple]:
    """Prototype-subject triples summarizing a corpus.

    For every frame, its context/vehicle evidence pairs are re-subjected
    onto both the class prototype matching its label and the generic
    RoadScene entity, and its label is recorded as a contains-triple on
    both. Deduplicated by construction.
    """
    pairs: dict[SceneLabel, set[tuple[str, str]]] = {}
    for doc in corpus:
        for frame in doc.frames:
            label = frame.pedestrians_scene
            seen = pairs.setdefault(label, set())
            seen.add(("contains", label._value_))
            seen.update((rel, obj) for rel, obj, _ in frame_evidence_pairs(doc, frame))
    out: set[Triple] = set()
    for label, label_pairs in pairs.items():
        for subject in (PROTOTYPE_FOR_LABEL[label], ROAD_SCENE):
            out.update(Triple(subject, rel, obj) for rel, obj in label_pairs)
    return out


def link_prototypes(
    kg: KnowledgeGraph, corpus: Sequence[RoadSceneDocument]
) -> KnowledgeGraph:
    """Attach class prototypes to a built graph.

    Adds <frame, instanceOfSceneClass, SceneWithX> per frame plus the
    deduplicated class-level evidence and label triples for the three
    prototypes and the generic RoadScene entity.
    """
    frames = [
        (frame_entity(doc.scene_id, frame.frame_number), frame.pedestrians_scene)
        for doc in corpus
        for frame in doc.frames
    ]
    labelled = kg._has([(f_ent, "contains", label._value_) for f_ent, label in frames])
    if not labelled.all():
        f_ent = frames[int(np.argmin(labelled))][0]
        if f_ent not in kg.entity_index:
            raise KgBuildError(f"frame entity {f_ent!r} missing from graph")
        raise KgBuildError(f"frame {f_ent!r} lacks its pedestrians_scene triple")
    fields = kg._fields()
    for f_ent, label in frames:
        fields.extend((f_ent, "instanceOfSceneClass", PROTOTYPE_FOR_LABEL[label]))
    fields.extend(chain.from_iterable(class_level_triples(corpus)))
    return KnowledgeGraph._from_fields(fields)


def build_linked_kg(corpus: Sequence[RoadSceneDocument]) -> KnowledgeGraph:
    """build_kg followed by link_prototypes, the usual pipeline entry."""
    return link_prototypes(build_kg(corpus), corpus)


# --- Statistics ---------------------------------------------------------


@dataclass(frozen=True)
class KgStats:
    n_entities: int
    n_relations: int
    n_triples: int
    per_relation: dict[str, int]
    frames_per_label: dict[str, int]

    def render(self) -> str:
        lines = [
            f"entities   {self.n_entities}",
            f"relations  {self.n_relations}",
            f"triples    {self.n_triples}",
        ]
        for rel in sorted(self.per_relation):
            lines.append(f"  {rel:<22}{self.per_relation[rel]}")
        for label in sorted(self.frames_per_label):
            lines.append(f"  frames[{label}]  {self.frames_per_label[label]}")
        return "\n".join(lines)


def kg_stats(kg: KnowledgeGraph) -> KgStats:
    index = kg._index
    counts = np.bincount(index[:, 1], minlength=kg.n_relations)
    labels = index[index[:, 1] == kg.relation_index.get("contains", -1)]
    ents = kg.entities
    frames_per_label = Counter(
        ents[o] for s, _, o in labels.tolist() if entity_kind(ents[s]) is EntityKind.FRAME
    )
    return KgStats(
        n_entities=kg.n_entities,
        n_relations=kg.n_relations,
        n_triples=kg.n_triples,
        per_relation=dict(zip(kg.relations, counts.tolist())),
        frames_per_label=dict(frames_per_label),
    )


# --- Splitting ----------------------------------------------------------


@dataclass(frozen=True)
class TripleSplit:
    """The triples training and calibration may read.

    ``train`` is the full training knowledge graph's triple set
    (including prototype triples). ``validation`` holds the class-level
    triples of the validation scenes, restricted to the training
    vocabulary; it may coincide with training triples, since prototype
    subjects are shared by construction. Nothing here derives from the
    test fold: only the predictor reads it.
    """

    kg: KnowledgeGraph
    train: tuple[Triple, ...]
    validation: tuple[Triple, ...]

    def all_known(self) -> frozenset[Triple]:
        return frozenset(chain(self.train, self.validation))


@dataclass(frozen=True)
class FoldAssignment:
    """Scene-level fold membership, prior to triple derivation."""

    train: tuple[RoadSceneDocument, ...]
    validation: tuple[RoadSceneDocument, ...]
    test: tuple[RoadSceneDocument, ...]


# The validation share of an experiment's training scenes and of
# `occlukg train`'s triples, unless a spec, config or flag sets another.
DEFAULT_VALIDATION_RATIO = 0.1


def validation_count(validation_ratio: float, n: int) -> int:
    """How many of n items to hold out for validation.

    round(validation_ratio · n), clipped to [1, n − 1] so both sides keep
    an item; 0 when the ratio is 0 or n < 2. A ratio outside [0, 1)
    raises SplitError.
    """
    if not 0.0 <= validation_ratio < 1.0:
        raise SplitError(f"validation_ratio must lie in [0, 1), got {validation_ratio!r}")
    if validation_ratio == 0 or n < 2:
        return 0
    return max(1, min(int(round(validation_ratio * n)), n - 1))


def assign_folds(
    corpus: Sequence[RoadSceneDocument],
    counts: Mapping[Environment, tuple[int, int]],
    seed: int,
    validation_ratio: float = DEFAULT_VALIDATION_RATIO,
) -> FoldAssignment:
    """Assign scenes to train/validation/test folds per environment.

    ``counts`` maps each environment to (train, test) scene counts; the
    validation fold is carved out of the train allotment by
    ``validation_count``. Deterministic under ``seed`` regardless of
    document order.
    """
    by_env: dict[Environment, list[RoadSceneDocument]] = {}
    for doc in sorted(corpus, key=lambda d: d.scene_id):
        by_env.setdefault(doc.context.environment, []).append(doc)

    rng = np.random.default_rng(seed)
    train_docs: list[RoadSceneDocument] = []
    val_docs: list[RoadSceneDocument] = []
    test_docs: list[RoadSceneDocument] = []
    for env in sorted(counts, key=lambda e: e.value):
        n_train, n_test = counts[env]
        if n_train < 0 or n_test < 0:
            raise SplitError(f"environment {env.value}: negative split counts")
        available = by_env.get(env, [])
        if n_train + n_test > len(available):
            raise SplitError(
                f"environment {env.value}: requested {n_train}+{n_test} scenes, "
                f"only {len(available)} available"
            )
        order = rng.permutation(len(available))
        picked = [available[i] for i in order]
        test_docs.extend(picked[:n_test])
        pool = picked[n_test : n_test + n_train]
        n_val = validation_count(validation_ratio, len(pool))
        val_docs.extend(pool[:n_val])
        train_docs.extend(pool[n_val:])

    def key(d: RoadSceneDocument) -> str:
        return d.scene_id

    return FoldAssignment(
        train=tuple(sorted(train_docs, key=key)),
        validation=tuple(sorted(val_docs, key=key)),
        test=tuple(sorted(test_docs, key=key)),
    )


def make_split(folds: FoldAssignment) -> TripleSplit:
    """Derive the triple-level split from the train and validation folds.

    The training KG is compiled from train scenes only; validation
    carries the class-level triples of its scenes restricted to the
    training vocabulary, so every evaluated entity has an embedding.
    ``folds.test`` is never read: only the predictor reads the test fold.
    """
    kg = build_linked_kg(folds.train)
    vocabulary = kg.entity_index
    validation = {
        t for t in class_level_triples(folds.validation)
        if t.subject in vocabulary and t.object in vocabulary
    }
    return TripleSplit(
        kg=kg, train=tuple(kg.sorted_triples()), validation=tuple(sorted(validation))
    )
