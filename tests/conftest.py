"""Shared fixtures: small handmade documents, corpora, planted models."""

import struct

import numpy as np
import pytest

from occlukg.kge.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, ComplexModel
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
    Surroundings,
    VehiclePosition,
    VehicleRecord,
    VehicleState,
)


def make_context(scene_id="scene-0001", environment=Environment.REAL,
                 zebra=False, lanes=2, surroundings=Surroundings.CLEAR):
    return SceneContext(
        scene_id=scene_id,
        environment=environment,
        zebra_crossing=zebra,
        lanes=lanes,
        surroundings=surroundings,
    )


@pytest.fixture
def minimal_doc():
    """Smallest valid document: one pedestrian-free frame, no vehicles."""
    return RoadSceneDocument(
        context=make_context(),
        frames=(
            FrameAnnotation(frame_number=0, pedestrians_scene=SceneLabel.NONE_PEDESTRIAN),
        ),
    )


@pytest.fixture
def occluded_crossing_doc():
    """A scene with a zebra crossing and vegetation where a near,
    decelerating front-left vehicle with braking lights on shields a
    fully hidden pedestrian."""
    vehicle = VehicleRecord(
        vehicle_id="veh-0",
        state=VehicleState.DECELERATING,
        braking_lights=BrakingLights.ON,
        distance=DistanceBucket.NEAR,
        position=VehiclePosition.FRONT_LEFT,
    )
    pedestrian = PedestrianRecord(
        pedestrian_id="ped-0",
        occlusion=OcclusionLevel.FULL,
        visible_fraction=0.1,
    )
    return RoadSceneDocument(
        context=make_context(
            scene_id="scene-occluded-crossing",
            zebra=True,
            lanes=2,
            surroundings=Surroundings.VEGETATION,
        ),
        frames=tuple(
            FrameAnnotation(
                frame_number=n,
                pedestrians_scene=SceneLabel.PEDESTRIAN_OCCLUDED,
                pedestrians=(pedestrian,),
                vehicles=(vehicle,),
            )
            for n in range(3)
        ),
    )


@pytest.fixture
def visible_ped_doc():
    vehicle = VehicleRecord(
        vehicle_id="veh-0",
        state=VehicleState.CONTINUOUS_MOVEMENT,
        braking_lights=BrakingLights.OFF,
        distance=DistanceBucket.FAR,
        position=VehiclePosition.FRONT,
    )
    pedestrian = PedestrianRecord(
        pedestrian_id="ped-0",
        occlusion=OcclusionLevel.NONE,
    )
    return RoadSceneDocument(
        context=make_context(scene_id="scene-visible", lanes=3),
        frames=tuple(
            FrameAnnotation(
                frame_number=n,
                pedestrians_scene=SceneLabel.PEDESTRIAN_NOT_OCCLUDED,
                pedestrians=(pedestrian,),
                vehicles=(vehicle,) if n % 2 == 0 else (),
            )
            for n in range(4)
        ),
    )


@pytest.fixture
def empty_road_doc():
    return RoadSceneDocument(
        context=make_context(scene_id="scene-empty", lanes=1),
        frames=tuple(
            FrameAnnotation(frame_number=n, pedestrians_scene=SceneLabel.NONE_PEDESTRIAN)
            for n in range(2)
        ),
    )


@pytest.fixture
def tiny_corpus(minimal_doc, occluded_crossing_doc, visible_ped_doc, empty_road_doc):
    """Four scenes covering all three frame labels and both vehicle shapes."""
    return (minimal_doc, occluded_crossing_doc, visible_ped_doc, empty_road_doc)


def model_with_scores(score_map, calibration=(1.0, 0.0)):
    """Model whose score of each (subject, relation, object) key equals the
    mapped value, built by giving every planted triple its own dimension.

    Each key must have subject != object.  Queries outside the map score 0
    unless they reverse a planted triple (subject and object swapped with
    the same relation), which would alias onto the planted dimension; such
    keys must simply not be queried.
    """
    entities = sorted({s for s, _, _ in score_map} | {o for _, _, o in score_map})
    relations = sorted({r for _, r, _ in score_map})
    k = max(len(score_map), 1)
    ent_re = np.zeros((len(entities), k))
    ent_im = np.zeros_like(ent_re)
    rel_re = np.zeros((len(relations), k))
    rel_im = np.zeros_like(rel_re)
    e_idx = {e: i for i, e in enumerate(entities)}
    r_idx = {r: i for i, r in enumerate(relations)}
    for j, ((s, r, o), value) in enumerate(sorted(score_map.items())):
        if s == o:
            raise ValueError("planted triples must have subject != object")
        ent_re[e_idx[s], j] = value
        rel_re[r_idx[r], j] = 1.0
        ent_re[e_idx[o], j] = 1.0
    return ComplexModel(
        entities=tuple(entities),
        relations=tuple(relations),
        ent_re=ent_re,
        ent_im=ent_im,
        rel_re=rel_re,
        rel_im=rel_im,
        calibration=calibration,
    )


def hand_written_checkpoint(k, entities, relations=("r",)):
    """(blob, sidecar) of a checkpoint with zero tables, its header written by hand.

    No ComplexModel can hold an empty entity table, so save_checkpoint
    never writes k = 0 or no entity; this writes them for the loader.
    """
    header = struct.pack(
        "<4sIIII dd", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, k, len(entities), len(relations),
        1.0, 0.0,
    )
    blob = header + bytes(8 * k * (2 * len(entities) + 2 * len(relations)))
    sidecar = "".join(f"{name}\n" for name in (*entities, "---", *relations)).encode()
    return blob, sidecar
