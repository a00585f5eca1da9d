"""Synthetic road-scene corpora from conditional probability tables.

Scenes draw a three-way pedestrian label, then context and per-frame
vehicle attributes from label-conditioned CPTs. Default tables follow
the source dataset's qualitative correlations (pedestrian-free scenes:
flowing traffic, lights off, far vehicles; occluded-pedestrian scenes:
decelerating vehicles with braking lights on near vegetation) with
magnitudes chosen for desk-scale learnability, including hard zeros
(e.g. no decelerating vehicles outside occluded scenes) that plant
class-separating structure in the knowledge graph.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .scenes import (
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
    serialize_scene_xml,
    validate_document,
)

ROW_TOLERANCE = 1e-9

# Frame counts behind the default label prior: occluded, visible, none.
LABEL_FRAME_COUNTS = {
    SceneLabel.PEDESTRIAN_OCCLUDED: 8459,
    SceneLabel.PEDESTRIAN_NOT_OCCLUDED: 9735,
    SceneLabel.NONE_PEDESTRIAN: 21520,
}


class GeneratorError(ValueError):
    """Raised for invalid generator configuration."""


def _check_row(name: str, row: Mapping) -> None:
    total = 0.0
    for key, p in row.items():
        if p < 0:
            raise GeneratorError(f"{name}[{key}] is negative")
        total += p
    if abs(total - 1.0) > ROW_TOLERANCE:
        raise GeneratorError(f"{name} sums to {total!r}, not 1")


@dataclass(frozen=True)
class GeneratorConfig:
    n_scenes: Mapping[Environment, int]
    frames_per_scene: tuple[int, int]
    label_prior: Mapping[SceneLabel, float]
    state_given_label: Mapping[SceneLabel, Mapping[VehicleState, float]]
    lights_given_state: Mapping[VehicleState, Mapping[BrakingLights, float]]
    distance_given_label: Mapping[SceneLabel, Mapping[DistanceBucket, float]]
    surroundings_given_label: Mapping[SceneLabel, Mapping[Surroundings, float]]
    zebra_given_label: Mapping[SceneLabel, float]
    occlusion_given_label: Mapping[SceneLabel, Mapping[OcclusionLevel, float]]
    vehicle_count_weights: Mapping[int, float]
    lane_weights: Mapping[int, float]
    position_weights: Mapping[VehiclePosition, float]
    seed: int = 0

    def __post_init__(self):
        for env, n in self.n_scenes.items():
            if n < 0:
                raise GeneratorError(f"n_scenes[{env.value}] is negative")
        lo, hi = self.frames_per_scene
        if not 1 <= lo <= hi:
            raise GeneratorError(f"bad frames_per_scene range ({lo}, {hi})")
        _check_row("label_prior", self.label_prior)
        for label in SceneLabel:
            _check_row(f"state_given_label[{label.value}]", self.state_given_label[label])
            _check_row(
                f"distance_given_label[{label.value}]", self.distance_given_label[label]
            )
            _check_row(
                f"surroundings_given_label[{label.value}]",
                self.surroundings_given_label[label],
            )
            _check_row(
                f"occlusion_given_label[{label.value}]", self.occlusion_given_label[label]
            )
            z = self.zebra_given_label[label]
            if not 0.0 <= z <= 1.0:
                raise GeneratorError(f"zebra_given_label[{label.value}] outside [0,1]")
        for state in VehicleState:
            _check_row(f"lights_given_state[{state.value}]", self.lights_given_state[state])
        _check_row("vehicle_count_weights", self.vehicle_count_weights)
        _check_row("lane_weights", self.lane_weights)
        _check_row("position_weights", self.position_weights)
        occl_row = self.occlusion_given_label[SceneLabel.PEDESTRIAN_OCCLUDED]
        occluded_mass = occl_row.get(OcclusionLevel.PARTIAL, 0.0) + occl_row.get(
            OcclusionLevel.FULL, 0.0
        )
        if occluded_mass <= 0:
            raise GeneratorError(
                "occlusion_given_label[PedestrianOccluded] needs Partial/Full mass"
            )


def default_config() -> GeneratorConfig:
    """Corpus-shaped defaults: 99 scenes (40 Real / 59 Virtual).

    The label prior is the dataset's frame-count ratio 8459:9735:21520.
    Pinned directional values: P(ContinuousMovement|None)=0.8,
    P(Off|moving)=0.9, P(Far|None)=0.6, P(Decelerating|Occluded)=0.7,
    P(On|decelerating)=0.9, P(Vegetation|Occluded)=0.7. Everything else
    is a free magnitude chosen for class separability.
    """
    total = sum(LABEL_FRAME_COUNTS.values())
    occl = SceneLabel.PEDESTRIAN_OCCLUDED
    visible = SceneLabel.PEDESTRIAN_NOT_OCCLUDED
    none = SceneLabel.NONE_PEDESTRIAN
    return GeneratorConfig(
        n_scenes={Environment.REAL: 40, Environment.VIRTUAL: 59},
        frames_per_scene=(10, 16),
        label_prior={label: count / total for label, count in LABEL_FRAME_COUNTS.items()},
        state_given_label={
            none: {
                VehicleState.CONTINUOUS_MOVEMENT: 0.8,
                VehicleState.ACCELERATING: 0.15,
                VehicleState.STOPPED: 0.05,
                VehicleState.DECELERATING: 0.0,
            },
            visible: {
                VehicleState.CONTINUOUS_MOVEMENT: 0.6,
                VehicleState.ACCELERATING: 0.3,
                VehicleState.STOPPED: 0.1,
                VehicleState.DECELERATING: 0.0,
            },
            occl: {
                VehicleState.DECELERATING: 0.7,
                VehicleState.STOPPED: 0.3,
                VehicleState.CONTINUOUS_MOVEMENT: 0.0,
                VehicleState.ACCELERATING: 0.0,
            },
        },
        lights_given_state={
            VehicleState.CONTINUOUS_MOVEMENT: {BrakingLights.OFF: 0.9, BrakingLights.ON: 0.1},
            VehicleState.ACCELERATING: {BrakingLights.OFF: 0.95, BrakingLights.ON: 0.05},
            VehicleState.STOPPED: {BrakingLights.ON: 0.6, BrakingLights.OFF: 0.4},
            VehicleState.DECELERATING: {BrakingLights.ON: 0.9, BrakingLights.OFF: 0.1},
        },
        distance_given_label={
            none: {
                DistanceBucket.FAR: 0.6,
                DistanceBucket.MIDDLE: 0.3,
                DistanceBucket.NEAR: 0.1,
            },
            visible: {
                DistanceBucket.FAR: 0.3,
                DistanceBucket.MIDDLE: 0.4,
                DistanceBucket.NEAR: 0.3,
            },
            occl: {
                DistanceBucket.NEAR: 0.55,
                DistanceBucket.MIDDLE: 0.45,
                DistanceBucket.FAR: 0.0,
            },
        },
        surroundings_given_label={
            none: {Surroundings.CLEAR: 0.9, Surroundings.VEGETATION: 0.1},
            visible: {Surroundings.CLEAR: 1.0, Surroundings.VEGETATION: 0.0},
            occl: {Surroundings.VEGETATION: 0.7, Surroundings.CLEAR: 0.3},
        },
        zebra_given_label={none: 0.0, visible: 0.6, occl: 0.75},
        occlusion_given_label={
            none: {OcclusionLevel.NONE: 1.0},
            visible: {OcclusionLevel.NONE: 1.0},
            occl: {OcclusionLevel.FULL: 0.6, OcclusionLevel.PARTIAL: 0.4},
        },
        vehicle_count_weights={0: 0.05, 1: 0.4, 2: 0.35, 3: 0.2},
        lane_weights={1: 0.3, 2: 0.4, 3: 0.2, 4: 0.1},
        position_weights={p: 0.2 for p in VehiclePosition},
        seed=0,
    )


def uninformative_config(base: Optional[GeneratorConfig] = None) -> GeneratorConfig:
    """Variant whose context/vehicle CPTs ignore the scene label.

    Every label-conditioned row is replaced by the prior-weighted
    average of the base rows, so feature marginals match the base
    corpus while carrying zero label signal. Occlusion rows are kept:
    they only shape annotations inside pedestrian scenes.
    """
    cfg = base if base is not None else default_config()

    def mix(table):
        keys = _category_order({key for row in table.values() for key in row})
        mixed = {
            key: sum(cfg.label_prior[label] * table[label].get(key, 0.0) for label in SceneLabel)
            for key in keys
        }
        total = sum(mixed.values())
        mixed = {key: value / total for key, value in mixed.items()}
        return {label: dict(mixed) for label in SceneLabel}

    zebra = sum(cfg.label_prior[label] * cfg.zebra_given_label[label] for label in SceneLabel)
    return dataclasses.replace(
        cfg,
        state_given_label=mix(cfg.state_given_label),
        distance_given_label=mix(cfg.distance_given_label),
        surroundings_given_label=mix(cfg.surroundings_given_label),
        zebra_given_label={label: zebra for label in SceneLabel},
    )


def _category_order(keys) -> list:
    """Categories in a fixed order, by their text, independent of hashing."""
    return sorted(keys, key=lambda k: str(getattr(k, "value", k)))


# A cumulative draw table: the row's keys in _category_order and the
# cumulative weights that Generator.choice(len(keys), p=...) searches.
_DrawTable = tuple[list, list[float]]


def _draw_table(row: Mapping) -> _DrawTable:
    """Compile one CPT row into keys and cumulative weights.

    The cumulative list is computed exactly as ``Generator.choice`` computes
    it from ``p``, so a draw from it returns the same key and consumes the
    same single double from the stream.
    """
    keys = _category_order(row)
    probs = np.array([row[k] for k in keys], dtype=np.float64)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return keys, cdf.tolist()


def _draw(rng: np.random.Generator, table: _DrawTable):
    """Weighted draw: ``keys[rng.choice(len(keys), p=...)]`` without its per-call setup."""
    keys, cdf = table
    return keys[bisect_right(cdf, rng.random())]


@dataclass(frozen=True)
class _CorpusTables:
    """Every CPT row that _generate_scene draws from, compiled once per corpus."""

    label: _DrawTable
    lanes: _DrawTable
    vehicle_count: _DrawTable
    position: _DrawTable
    state: Mapping[SceneLabel, _DrawTable]
    distance: Mapping[SceneLabel, _DrawTable]
    surroundings: Mapping[SceneLabel, _DrawTable]
    lights: Mapping[VehicleState, _DrawTable]
    occluded_level: _DrawTable

    @classmethod
    def compile(cls, config: GeneratorConfig) -> "_CorpusTables":
        occl_row = config.occlusion_given_label[SceneLabel.PEDESTRIAN_OCCLUDED]
        occluded_row = {
            level: p
            for level, p in occl_row.items()
            if level in (OcclusionLevel.PARTIAL, OcclusionLevel.FULL) and p > 0
        }
        return cls(
            label=_draw_table(config.label_prior),
            lanes=_draw_table(config.lane_weights),
            vehicle_count=_draw_table(config.vehicle_count_weights),
            position=_draw_table(config.position_weights),
            state={lb: _draw_table(config.state_given_label[lb]) for lb in SceneLabel},
            distance={lb: _draw_table(config.distance_given_label[lb]) for lb in SceneLabel},
            surroundings={
                lb: _draw_table(config.surroundings_given_label[lb]) for lb in SceneLabel
            },
            lights={s: _draw_table(config.lights_given_state[s]) for s in VehicleState},
            occluded_level=_draw_table(occluded_row),
        )


def _generate_scene(
    scene_id: str,
    environment: Environment,
    config: GeneratorConfig,
    tables: _CorpusTables,
    rng: np.random.Generator,
) -> RoadSceneDocument:
    label = _draw(rng, tables.label)
    context = SceneContext(
        scene_id=scene_id,
        environment=environment,
        zebra_crossing=bool(rng.random() < config.zebra_given_label[label]),
        lanes=int(_draw(rng, tables.lanes)),
        surroundings=_draw(rng, tables.surroundings[label]),
    )
    pedestrians: tuple[PedestrianRecord, ...] = ()
    if label is SceneLabel.PEDESTRIAN_OCCLUDED:
        level = _draw(rng, tables.occluded_level)
        if level is OcclusionLevel.PARTIAL:
            fraction = float(rng.uniform(0.26, 0.95))
        else:
            fraction = float(rng.uniform(0.01, 0.24))
        pedestrians = (
            PedestrianRecord(pedestrian_id="ped-0", occlusion=level, visible_fraction=fraction),
        )
    elif label is SceneLabel.PEDESTRIAN_NOT_OCCLUDED:
        pedestrians = (
            PedestrianRecord(pedestrian_id="ped-0", occlusion=OcclusionLevel.NONE),
        )

    lo, hi = config.frames_per_scene
    n_frames = int(rng.integers(lo, hi + 1))
    state_table = tables.state[label]
    distance_table = tables.distance[label]
    frames = []
    for number in range(n_frames):
        n_vehicles = int(_draw(rng, tables.vehicle_count))
        vehicles = []
        for v in range(n_vehicles):
            state = _draw(rng, state_table)
            vehicles.append(
                VehicleRecord(
                    vehicle_id=f"veh-{v}",
                    state=state,
                    braking_lights=_draw(rng, tables.lights[state]),
                    distance=_draw(rng, distance_table),
                    position=_draw(rng, tables.position),
                )
            )
        frames.append(
            FrameAnnotation(
                frame_number=number,
                pedestrians_scene=label,
                pedestrians=pedestrians,
                vehicles=tuple(vehicles),
            )
        )
    return RoadSceneDocument(context=context, frames=tuple(frames))


def generate_corpus(config: GeneratorConfig, seed: int) -> list[RoadSceneDocument]:
    """Deterministic corpus for (config, seed); every document validates."""
    rng = np.random.default_rng(seed)
    tables = _CorpusTables.compile(config)
    docs = []
    for env in sorted(config.n_scenes, key=lambda e: e.value):
        for i in range(config.n_scenes[env]):
            scene_id = f"scene-{env.value.lower()}-{i:04d}"
            doc = _generate_scene(scene_id, env, config, tables, rng)
            problems = validate_document(doc)
            if problems:  # unreachable by construction; guards config drift
                raise GeneratorError(
                    f"generated scene {scene_id} fails validation: {problems[0]}"
                )
            docs.append(doc)
    return docs


def asymmetric_corpus(
    seed: int, base: Optional[GeneratorConfig] = None
) -> list[RoadSceneDocument]:
    """Real scenes from the uninformative variant, Virtual from the base.

    Only the Virtual half carries feature-label correlations, which is
    the planted version of one environment yielding more consistent
    detection than the other.
    """
    cfg = base if base is not None else default_config()
    real_only = dataclasses.replace(
        uninformative_config(cfg),
        n_scenes={Environment.REAL: cfg.n_scenes.get(Environment.REAL, 0)},
    )
    virtual_only = dataclasses.replace(
        cfg, n_scenes={Environment.VIRTUAL: cfg.n_scenes.get(Environment.VIRTUAL, 0)}
    )
    docs = generate_corpus(real_only, seed) + generate_corpus(virtual_only, seed + 1)
    return sorted(docs, key=lambda d: d.scene_id)


def write_corpus(docs: Sequence[RoadSceneDocument], out_dir) -> None:
    """One XML file per scene plus a manifest.tsv summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for doc in sorted(docs, key=lambda d: d.scene_id):
        (out / f"{doc.scene_id}.xml").write_bytes(serialize_scene_xml(doc))
        rows.append(
            "\t".join(
                (
                    doc.scene_id,
                    doc.context.environment.value,
                    doc.frames[0].pedestrians_scene.value,
                    str(len(doc.frames)),
                )
            )
        )
    (out / "manifest.tsv").write_text("\n".join(rows) + "\n" if rows else "", encoding="utf-8")
