"""Command-line entry point: gen / build-kg / train / experiment / predict.

Every command is deterministic given its inputs and seed, and echoes
the effective settings (file values with flag overrides applied) next
to its outputs so a run can be reproduced from its artifacts alone.

Exit codes: 0 success, 2 usage or configuration, 3 data validation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .bayes import DEFAULT_HORIZON, DENOMINATOR_MODES, predict_frame
from .harness import (
    ExperimentSpec,
    render_report,
    run_cross_environment,
    run_experiment_with_predictions,
)
from .kg import (
    KgBuildError,
    SplitError,
    TripleSplit,
    build_linked_kg,
    export_kg_tsv,
    import_kg_tsv,
    kg_stats,
    validation_count,
)
from .kge.model import CheckpointError, load_checkpoint, save_checkpoint
from .kge.train import TrainingConfig, train
from .scenes import (
    BrakingLights,
    DistanceBucket,
    Environment,
    OcclusionLevel,
    SceneLabel,
    SceneParseError,
    SceneValidationError,
    Surroundings,
    VehiclePosition,
    VehicleState,
    parse_scene_xml,
)
from .synth import GeneratorConfig, GeneratorError, default_config, generate_corpus, write_corpus

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration keys/values."""


# --- flat `key = value` config files ------------------------------------


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' comments and blank lines allowed."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _render_flat(entries: Mapping[str, object]) -> str:
    lines = []
    for key in sorted(entries):
        value = entries[key]
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {value!r}") from None


def _parse_bool(key: str, value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def _parse_enum(key: str, value: str, enum_type):
    try:
        return enum_type(value)
    except ValueError:
        allowed = ", ".join(m.value for m in enum_type)
        raise ConfigError(f"{key}: {value!r} is not one of {allowed}") from None


# --- generator config ---------------------------------------------------


def generator_config_from_mapping(raw: Mapping[str, str]) -> GeneratorConfig:
    """Apply flat-file overrides on top of default_config()."""
    cfg = default_config()
    n_scenes = dict(cfg.n_scenes)
    frames = list(cfg.frames_per_scene)
    label_prior = dict(cfg.label_prior)
    state = {k: dict(v) for k, v in cfg.state_given_label.items()}
    lights = {k: dict(v) for k, v in cfg.lights_given_state.items()}
    distance = {k: dict(v) for k, v in cfg.distance_given_label.items()}
    surroundings = {k: dict(v) for k, v in cfg.surroundings_given_label.items()}
    zebra = dict(cfg.zebra_given_label)
    occlusion = {k: dict(v) for k, v in cfg.occlusion_given_label.items()}
    vehicle_count = dict(cfg.vehicle_count_weights)
    lanes = dict(cfg.lane_weights)
    position = dict(cfg.position_weights)
    seed = cfg.seed

    for key, value in raw.items():
        parts = key.split(".")
        if parts == ["seed"]:
            seed = _parse_int(key, value)
        elif len(parts) == 2 and parts[0] == "n_scenes":
            n_scenes[_parse_enum(key, parts[1], Environment)] = _parse_int(key, value)
        elif key == "frames_per_scene.min":
            frames[0] = _parse_int(key, value)
        elif key == "frames_per_scene.max":
            frames[1] = _parse_int(key, value)
        elif len(parts) == 2 and parts[0] == "label_prior":
            label_prior[_parse_enum(key, parts[1], SceneLabel)] = _parse_float(key, value)
        elif len(parts) == 3 and parts[0] == "state":
            row = state[_parse_enum(key, parts[1], SceneLabel)]
            row[_parse_enum(key, parts[2], VehicleState)] = _parse_float(key, value)
        elif len(parts) == 3 and parts[0] == "lights":
            row = lights[_parse_enum(key, parts[1], VehicleState)]
            row[_parse_enum(key, parts[2], BrakingLights)] = _parse_float(key, value)
        elif len(parts) == 3 and parts[0] == "distance":
            row = distance[_parse_enum(key, parts[1], SceneLabel)]
            row[_parse_enum(key, parts[2], DistanceBucket)] = _parse_float(key, value)
        elif len(parts) == 3 and parts[0] == "surroundings":
            row = surroundings[_parse_enum(key, parts[1], SceneLabel)]
            row[_parse_enum(key, parts[2], Surroundings)] = _parse_float(key, value)
        elif len(parts) == 2 and parts[0] == "zebra":
            zebra[_parse_enum(key, parts[1], SceneLabel)] = _parse_float(key, value)
        elif len(parts) == 3 and parts[0] == "occlusion":
            row = occlusion[_parse_enum(key, parts[1], SceneLabel)]
            row[_parse_enum(key, parts[2], OcclusionLevel)] = _parse_float(key, value)
        elif len(parts) == 2 and parts[0] == "vehicle_count":
            vehicle_count[_parse_int(key, parts[1])] = _parse_float(key, value)
        elif len(parts) == 2 and parts[0] == "lanes":
            lanes[_parse_int(key, parts[1])] = _parse_float(key, value)
        elif len(parts) == 2 and parts[0] == "position":
            position[_parse_enum(key, parts[1], VehiclePosition)] = _parse_float(key, value)
        else:
            raise ConfigError(f"unknown configuration key {key!r}")

    try:
        return GeneratorConfig(
            n_scenes=n_scenes,
            frames_per_scene=(frames[0], frames[1]),
            label_prior=label_prior,
            state_given_label=state,
            lights_given_state=lights,
            distance_given_label=distance,
            surroundings_given_label=surroundings,
            zebra_given_label=zebra,
            occlusion_given_label=occlusion,
            vehicle_count_weights=vehicle_count,
            lane_weights=lanes,
            position_weights=position,
            seed=seed,
        )
    except GeneratorError as exc:
        raise ConfigError(str(exc)) from None


def render_generator_config(cfg: GeneratorConfig) -> str:
    entries: dict[str, object] = {"seed": cfg.seed}
    for env in sorted(cfg.n_scenes, key=lambda e: e.value):
        entries[f"n_scenes.{env.value}"] = cfg.n_scenes[env]
    entries["frames_per_scene.min"] = cfg.frames_per_scene[0]
    entries["frames_per_scene.max"] = cfg.frames_per_scene[1]
    for label in SceneLabel:
        entries[f"label_prior.{label.value}"] = cfg.label_prior[label]
        entries[f"zebra.{label.value}"] = cfg.zebra_given_label[label]
        for st, p in cfg.state_given_label[label].items():
            entries[f"state.{label.value}.{st.value}"] = p
        for bucket, p in cfg.distance_given_label[label].items():
            entries[f"distance.{label.value}.{bucket.value}"] = p
        for s, p in cfg.surroundings_given_label[label].items():
            entries[f"surroundings.{label.value}.{s.value}"] = p
        for level, p in cfg.occlusion_given_label[label].items():
            entries[f"occlusion.{label.value}.{level.value}"] = p
    for st in VehicleState:
        for light, p in cfg.lights_given_state[st].items():
            entries[f"lights.{st.value}.{light.value}"] = p
    for count, p in cfg.vehicle_count_weights.items():
        entries[f"vehicle_count.{count}"] = p
    for lane, p in cfg.lane_weights.items():
        entries[f"lanes.{lane}"] = p
    for pos, p in cfg.position_weights.items():
        entries[f"position.{pos.value}"] = p
    return _render_flat(entries)


# --- training config ----------------------------------------------------

_TRAINING_FIELDS = {
    "k": int,
    "eta": int,
    "learning_rate": float,
    "batch_size": int,
    "adversarial_temperature": float,
    "max_epochs": int,
    "check_every": int,
    "patience": int,
    "seed": int,
    "l2": float,
}


def training_config_from_mapping(
    raw: Mapping[str, str], prefix: str = ""
) -> TrainingConfig:
    values = {}
    for key, value in raw.items():
        name = key[len(prefix):] if prefix and key.startswith(prefix) else key
        if prefix and not key.startswith(prefix):
            raise ConfigError(f"unknown configuration key {key!r}")
        if name not in _TRAINING_FIELDS:
            raise ConfigError(f"unknown configuration key {key!r}")
        caster = _TRAINING_FIELDS[name]
        values[name] = (
            _parse_int(key, value) if caster is int else _parse_float(key, value)
        )
    try:
        return TrainingConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def render_training_config(cfg: TrainingConfig, prefix: str = "") -> dict[str, object]:
    return {f"{prefix}{name}": getattr(cfg, name) for name in _TRAINING_FIELDS}


# --- experiment spec ----------------------------------------------------


def _parse_env_list(key: str, value: str) -> tuple[Environment, ...]:
    envs = tuple(_parse_enum(key, part.strip(), Environment) for part in value.split(","))
    if not envs:
        raise ConfigError(f"{key}: empty environment list")
    return envs


def experiment_spec_from_mapping(raw: Mapping[str, str]) -> tuple[ExperimentSpec, bool]:
    """(spec, cross_environment flag) from a flat mapping.

    ExperimentSpec receives only the fields the mapping sets, so its
    defaults apply to the rest. It requires both environment lists, so
    they default to Virtual here.
    """
    fields: dict[str, object] = {
        "train_environments": (Environment.VIRTUAL,),
        "test_environments": (Environment.VIRTUAL,),
    }
    counts: dict[Environment, list[int]] = {}
    cross = False
    training_raw: dict[str, str] = {}

    for key, value in raw.items():
        parts = key.split(".")
        if key in ("train_environments", "test_environments"):
            fields[key] = _parse_env_list(key, value)
        elif len(parts) == 3 and parts[0] == "counts" and parts[2] in ("train", "test"):
            env = _parse_enum(key, parts[1], Environment)
            pair = counts.setdefault(env, [0, 0])
            pair[0 if parts[2] == "train" else 1] = _parse_int(key, value)
        elif key in ("horizon", "seed"):
            fields[key] = _parse_int(key, value)
        elif key == "denominator":
            fields[key] = value
        elif key == "validation_ratio":
            fields[key] = _parse_float(key, value)
        elif key == "calibrate":
            fields["calibrate_scores"] = _parse_bool(key, value)
        elif key == "cross_environment":
            cross = _parse_bool(key, value)
        elif parts[0] == "training":
            training_raw[key] = value
        else:
            raise ConfigError(f"unknown configuration key {key!r}")

    if not counts:
        raise ConfigError("spec missing counts.<Environment>.train/test entries")
    if training_raw:
        fields["training"] = training_config_from_mapping(training_raw, prefix="training.")
    try:
        spec = ExperimentSpec(
            counts={env: (pair[0], pair[1]) for env, pair in counts.items()}, **fields
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec, cross


def render_experiment_spec(spec: ExperimentSpec, cross: bool) -> str:
    entries: dict[str, object] = {
        "train_environments": ",".join(e.value for e in spec.train_environments),
        "test_environments": ",".join(e.value for e in spec.test_environments),
        "horizon": spec.horizon,
        "seed": spec.seed,
        "denominator": spec.denominator,
        "validation_ratio": spec.validation_ratio,
        "calibrate": spec.calibrate_scores,
        "cross_environment": cross,
    }
    for env in sorted(spec.counts, key=lambda e: e.value):
        n_train, n_test = spec.counts[env]
        entries[f"counts.{env.value}.train"] = n_train
        entries[f"counts.{env.value}.test"] = n_test
    entries.update(render_training_config(spec.training, prefix="training."))
    return _render_flat(entries)


# --- shared IO ----------------------------------------------------------


def _read_config_file(path: Optional[str]) -> dict[str, str]:
    if path is None:
        return {}
    return parse_flat_config(Path(path).read_text(encoding="utf-8"))


def _read_corpus(corpus_dir: str):
    root = Path(corpus_dir)
    if not root.is_dir():
        raise ConfigError(f"corpus directory {corpus_dir!r} does not exist")
    paths = sorted(root.glob("*.xml"))
    if not paths:
        raise ConfigError(f"no .xml scene files under {corpus_dir!r}")
    docs = []
    failures = []
    for path in paths:
        try:
            docs.append(parse_scene_xml(path.read_bytes()))
        except (SceneParseError, SceneValidationError) as exc:
            failures.append(f"{path.name}: {exc}")
    return docs, failures


def _vocab_path(model_path: str) -> Path:
    return Path(str(model_path) + ".vocab")


def _history_path(model_path: str) -> Path:
    return Path(str(model_path) + ".history")


# --- commands -----------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = generator_config_from_mapping(_read_config_file(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    docs = generate_corpus(cfg, cfg.seed)
    out = Path(args.out)
    write_corpus(docs, out)
    (out / "effective-config.txt").write_text(
        render_generator_config(cfg), encoding="utf-8"
    )
    print(f"wrote {len(docs)} scenes to {args.out}")
    return EXIT_OK


def cmd_build_kg(args) -> int:
    docs, failures = _read_corpus(args.corpus)
    if failures:
        for failure in failures:
            print(f"invalid scene: {failure}", file=sys.stderr)
        return EXIT_DATA
    try:
        kg = build_linked_kg(docs)
    except KgBuildError as exc:
        print(f"invalid corpus: {exc}", file=sys.stderr)
        return EXIT_DATA
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(export_kg_tsv(kg))
    Path(str(out) + ".effective-config.txt").write_text(
        _render_flat({"corpus_scenes": len(docs)}), encoding="utf-8"
    )
    print(kg_stats(kg).render())
    return EXIT_OK


def cmd_train(args) -> int:
    raw = _read_config_file(args.config)
    validation_ratio = 0.1
    if "validation_ratio" in raw:
        validation_ratio = _parse_float("validation_ratio", raw.pop("validation_ratio"))
    if args.validation_ratio is not None:
        validation_ratio = args.validation_ratio
    config = training_config_from_mapping(raw)
    overrides = {
        "k": args.k,
        "eta": args.eta,
        "learning_rate": args.lr,
        "batch_size": args.batch,
        "max_epochs": args.max_epochs,
        "check_every": args.check_every,
        "patience": args.patience,
        "adversarial_temperature": args.temperature,
        "l2": args.l2,
        "seed": args.seed,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    try:
        config = dataclasses.replace(config, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    kg = import_kg_tsv(Path(args.kg).read_bytes())
    triples = tuple(kg.sorted_triples())
    rng = np.random.default_rng(config.seed)
    n_val = validation_count(validation_ratio, len(triples))
    chosen = rng.choice(len(triples), size=n_val, replace=False) if n_val else []
    validation = tuple(triples[i] for i in np.sort(chosen)) if n_val else ()
    held_out = set(validation)
    split = TripleSplit(
        kg=kg,
        train=tuple(t for t in triples if t not in held_out),
        validation=validation,
        test=(),
    )

    result = train(split, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    blob, sidecar = save_checkpoint(result.model)
    out.write_bytes(blob)
    _vocab_path(args.out).write_bytes(sidecar)
    _history_path(args.out).write_text(result.history_text(), encoding="utf-8")
    entries = dict(render_training_config(config))
    entries["validation_ratio"] = validation_ratio
    Path(str(out) + ".effective-config.txt").write_text(
        _render_flat(entries), encoding="utf-8"
    )
    best = repr(result.best_mrr) if validation else "n/a"
    print(f"trained {result.epochs_run} epochs, best validation MRR {best}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    docs, failures = _read_corpus(args.corpus)
    if failures:
        for failure in failures:
            print(f"invalid scene: {failure}", file=sys.stderr)
        return EXIT_DATA
    spec, cross = experiment_spec_from_mapping(_read_config_file(args.spec))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if overrides:
        try:
            spec = dataclasses.replace(spec, **overrides)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if args.cross_environment:
        cross = True

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if cross:
        reports = run_cross_environment(docs, spec)
    else:
        report, predictions = run_experiment_with_predictions(docs, spec)
        reports = {spec.label(): report}
        (out / "predictions.jsonl").write_text(
            "".join(json.dumps(p.to_record(), sort_keys=True) + "\n" for p in predictions),
            encoding="utf-8",
        )
    text, jsonl = render_report(reports)
    (out / "report.txt").write_text(text, encoding="utf-8")
    (out / "report.jsonl").write_text(jsonl, encoding="utf-8")
    (out / "effective-config.txt").write_text(
        render_experiment_spec(spec, cross), encoding="utf-8"
    )
    print(text, end="")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_checkpoint(
        Path(args.model).read_bytes(), _vocab_path(args.model).read_bytes()
    )
    doc = parse_scene_xml(Path(args.scene).read_bytes())
    prediction = predict_frame(
        model, doc, args.frame, horizon=args.horizon, denominator=args.denominator
    )
    shared = {
        "scene": prediction.scene_id,
        "frame": prediction.frame_number,
        "horizon": prediction.horizon,
        "truncated": prediction.truncated,
        "predicted": prediction.predicted.value,
        "ground_truth": prediction.ground_truth.value,
    }
    for report in prediction.reports:
        print(json.dumps({**shared, **report.to_record()}, sort_keys=True))
    return EXIT_OK


# --- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occlukg",
        description="Occluded-pedestrian prediction from road-scene knowledge graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scene corpus")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--config", help="flat key = value generator config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build-kg", help="compile scene XML into a triple file")
    p.add_argument("--corpus", required=True, help="directory of scene .xml files")
    p.add_argument("--out", required=True, help="output triples .tsv path")
    p.set_defaults(func=cmd_build_kg)

    p = sub.add_parser("train", help="train embeddings on a triple file")
    p.add_argument("--kg", required=True, help="input triples .tsv path")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--config", help="flat key = value training config")
    p.add_argument("--k", type=int, help="embedding dimension (default 150)")
    p.add_argument("--eta", type=int, help="corruptions per positive (default 15)")
    p.add_argument("--lr", type=float, help="learning rate (default 0.0005)")
    p.add_argument("--batch", type=int, help="batch size (default 8000)")
    p.add_argument("--max-epochs", type=int, help="epoch cap (default 500)")
    p.add_argument("--check-every", type=int, help="MRR check interval (default 10)")
    p.add_argument("--patience", type=int, help="checks without improvement (default 5)")
    p.add_argument("--temperature", type=float, help="adversarial temperature (default 1)")
    p.add_argument("--l2", type=float, help="L2 coefficient (default 0)")
    p.add_argument("--seed", type=int, help="training seed (default 0)")
    p.add_argument(
        "--validation-ratio",
        type=float,
        help="held-out triple fraction for early stopping (default 0.1)",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("experiment", help="run a split/train/predict experiment")
    p.add_argument("--corpus", required=True, help="directory of scene .xml files")
    p.add_argument("--spec", required=True, help="flat key = value experiment spec")
    p.add_argument("--out", required=True, help="output report directory")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--horizon", type=int, help="override the spec horizon")
    p.add_argument(
        "--cross-environment",
        action="store_true",
        help="run all train/test environment combinations",
    )
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("predict", help="predict one frame of one scene")
    p.add_argument("--model", required=True, help="checkpoint path (expects .vocab sidecar)")
    p.add_argument("--scene", required=True, help="scene .xml path")
    p.add_argument("--frame", type=int, required=True, help="frame index (0-based)")
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON, help="look-ahead in frames")
    p.add_argument(
        "--denominator",
        choices=DENOMINATOR_MODES,
        default="marginal",
        help="evidence denominator mode",
    )
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SceneParseError, SceneValidationError, KgBuildError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SplitError, GeneratorError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
