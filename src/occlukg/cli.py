"""Command-line entry point: gen / build-kg / train / experiment / predict.

Every command is deterministic given its inputs and seed, and echoes
the effective settings (file values with flag overrides applied) next
to its outputs so a run can be reproduced from its artifacts alone.

Exit codes: 0 success, 2 usage or configuration, 3 data validation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import sys
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .bayes import DEFAULT_HORIZON, predict_frame, predictions_jsonl
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


def _parse_bool(key: str, value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


_TYPE_NAMES = {int: "integer", float: "number"}


def _parse_value(key: str, value: str, kind):
    """`value` as `kind`: int, float or an enum type."""
    try:
        return kind(value)
    except ValueError:
        if kind in _TYPE_NAMES:
            raise ConfigError(f"{key}: expected {_TYPE_NAMES[kind]}, got {value!r}") from None
        allowed = ", ".join(m.value for m in kind)
        raise ConfigError(f"{key}: {value!r} is not one of {allowed}") from None


# --- generator config ---------------------------------------------------

# Flat-key prefix -> (GeneratorConfig field, key types of its nested rows,
# value type). A key is the prefix followed by one part per key type, e.g.
# `state.PedestrianOccluded.Stopped`. `seed` and `frames_per_scene.min` /
# `.max` are the only other keys.
_GENERATOR_KEYS = {
    "n_scenes": ("n_scenes", (Environment,), int),
    "label_prior": ("label_prior", (SceneLabel,), float),
    "state": ("state_given_label", (SceneLabel, VehicleState), float),
    "lights": ("lights_given_state", (VehicleState, BrakingLights), float),
    "distance": ("distance_given_label", (SceneLabel, DistanceBucket), float),
    "surroundings": ("surroundings_given_label", (SceneLabel, Surroundings), float),
    "zebra": ("zebra_given_label", (SceneLabel,), float),
    "occlusion": ("occlusion_given_label", (SceneLabel, OcclusionLevel), float),
    "vehicle_count": ("vehicle_count_weights", (int,), float),
    "lanes": ("lane_weights", (int,), float),
    "position": ("position_weights", (VehiclePosition,), float),
}


def generator_config_from_mapping(raw: Mapping[str, str]) -> GeneratorConfig:
    """Apply flat-file overrides on top of default_config()."""
    cfg = default_config()
    tables = {
        field: copy.deepcopy(getattr(cfg, field)) for field, _, _ in _GENERATOR_KEYS.values()
    }
    frames = list(cfg.frames_per_scene)
    seed = cfg.seed

    for key, value in raw.items():
        prefix, *parts = key.split(".")
        table_spec = _GENERATOR_KEYS.get(prefix)
        if key == "seed":
            seed = _parse_value(key, value, int)
        elif key == "frames_per_scene.min":
            frames[0] = _parse_value(key, value, int)
        elif key == "frames_per_scene.max":
            frames[1] = _parse_value(key, value, int)
        elif table_spec and len(parts) == len(table_spec[1]):
            field, key_types, value_type = table_spec
            row = tables[field]
            for part, kind in zip(parts[:-1], key_types):
                row = row[_parse_value(key, part, kind)]
            parsed = _parse_value(key, value, value_type)
            row[_parse_value(key, parts[-1], key_types[-1])] = parsed
        else:
            raise ConfigError(f"unknown configuration key {key!r}")

    try:
        return GeneratorConfig(frames_per_scene=(frames[0], frames[1]), seed=seed, **tables)
    except GeneratorError as exc:
        raise ConfigError(str(exc)) from None


def render_generator_config(cfg: GeneratorConfig) -> str:
    entries: dict[str, object] = {
        "seed": cfg.seed,
        "frames_per_scene.min": cfg.frames_per_scene[0],
        "frames_per_scene.max": cfg.frames_per_scene[1],
    }
    for prefix, (field, key_types, _) in _GENERATOR_KEYS.items():
        rows = [(prefix, getattr(cfg, field))]
        for _ in key_types:
            rows = [
                (f"{name}.{getattr(k, 'value', k)}", v)
                for name, row in rows
                for k, v in row.items()
            ]
        entries.update(rows)
    return _render_flat(entries)


# --- training config ----------------------------------------------------

# Field name -> value type, the type taken from the field's default.
_TRAINING_FIELDS = {
    field.name: type(field.default) for field in dataclasses.fields(TrainingConfig)
}


def training_config_from_mapping(
    raw: Mapping[str, str], prefix: str = ""
) -> TrainingConfig:
    values = {}
    for key, value in raw.items():
        name = key[len(prefix):]
        if not key.startswith(prefix) or name not in _TRAINING_FIELDS:
            raise ConfigError(f"unknown configuration key {key!r}")
        values[name] = _parse_value(key, value, _TRAINING_FIELDS[name])
    try:
        return TrainingConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def render_training_config(cfg: TrainingConfig, prefix: str = "") -> dict[str, object]:
    return {f"{prefix}{name}": value for name, value in dataclasses.asdict(cfg).items()}


# --- experiment spec ----------------------------------------------------


def _parse_env_list(key: str, value: str) -> tuple[Environment, ...]:
    envs = tuple(_parse_value(key, part.strip(), Environment) for part in value.split(","))
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
            env = _parse_value(key, parts[1], Environment)
            pair = counts.setdefault(env, [0, 0])
            pair[0 if parts[2] == "train" else 1] = _parse_value(key, value, int)
        elif key in ("horizon", "seed"):
            fields[key] = _parse_value(key, value, int)
        elif key == "validation_ratio":
            fields[key] = _parse_value(key, value, float)
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
        "validation_ratio": spec.validation_ratio,
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
        validation_ratio = _parse_value(
            "validation_ratio", raw.pop("validation_ratio"), float
        )
    if args.validation_ratio is not None:
        validation_ratio = args.validation_ratio
    config = training_config_from_mapping(raw)
    overrides = {
        name: getattr(args, name)
        for name in _TRAINING_FIELDS
        if getattr(args, name) is not None
    }
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
        kg=kg, train=tuple(t for t in triples if t not in held_out), validation=validation
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
        (out / "predictions.jsonl").write_text(predictions_jsonl(predictions), encoding="utf-8")
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
    prediction = predict_frame(model, doc, args.frame, horizon=args.horizon)
    print(predictions_jsonl([prediction]), end="")
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
    # Flags named apart from their TrainingConfig field write to the field.
    p.add_argument("--lr", type=float, dest="learning_rate", metavar="LR",
                   help="learning rate (default 0.0005)")
    p.add_argument("--batch", type=int, dest="batch_size", metavar="BATCH",
                   help="batch size (default 8000)")
    p.add_argument("--max-epochs", type=int, help="epoch cap (default 500)")
    p.add_argument("--check-every", type=int, help="MRR check interval (default 10)")
    p.add_argument("--patience", type=int, help="checks without improvement (default 5)")
    p.add_argument("--temperature", type=float, dest="adversarial_temperature",
                   metavar="TEMPERATURE", help="adversarial temperature (default 1)")
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
