"""CLI: flat-config parsing, command round-trips, exit codes."""

import argparse
import dataclasses
import importlib
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from occlukg.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    _render_flat,
    build_parser,
    experiment_spec_from_mapping,
    generator_config_from_mapping,
    main,
    parse_flat_config,
    render_experiment_spec,
    render_generator_config,
    render_training_config,
    training_config_from_mapping,
)
from occlukg.bayes import predict_frame, predictions_jsonl
from occlukg.harness import fit_calibration
from occlukg.kg import DEFAULT_VALIDATION_RATIO, build_linked_kg, import_kg_tsv
from occlukg.kge.model import ComplexModel, load_checkpoint, save_checkpoint, score_triple
from occlukg.kge.train import TrainingConfig
from occlukg.scenes import Environment, SceneLabel, VehicleState, parse_scene_xml
from occlukg.synth import default_config

REPO_ROOT = Path(__file__).resolve().parents[1]

GEN_CONFIG = """\
# five scenes per environment, short clips
seed = 4
n_scenes.Real = 5
n_scenes.Virtual = 5
frames_per_scene.min = 5
frames_per_scene.max = 8
"""

SPEC_CONFIG = """\
counts.Real.train = 3
counts.Real.test = 1
counts.Virtual.train = 3
counts.Virtual.test = 1
horizon = 3
validation_ratio = 0.34
training.k = 4
training.eta = 2
training.learning_rate = 0.05
training.batch_size = 256
training.max_epochs = 2
training.check_every = 1
training.patience = 2
"""


def snapshot(directory: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli") / "corpus"
    cfg = tmp_path_factory.mktemp("cli-cfg") / "gen.txt"
    cfg.write_text(GEN_CONFIG, encoding="utf-8")
    assert main(["gen", "--out", str(out), "--config", str(cfg)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def kg_path(corpus_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli-kg") / "triples.tsv"
    assert main(["build-kg", "--corpus", str(corpus_dir), "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def model_path(kg_path, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli-model") / "model.npz"
    code = main([
        "train", "--kg", str(kg_path), "--out", str(out),
        "--k", "4", "--eta", "2", "--lr", "0.05", "--batch", "256",
        "--max-epochs", "2", "--check-every", "1", "--seed", "0",
    ])
    assert code == EXIT_OK
    return out


class TestFlatConfig:
    def test_parses_comments_blanks_and_pairs(self):
        text = "# header\n\n a = 1 \nb=2\nc = x = y\n"
        assert parse_flat_config(text) == {"a": "1", "b": "2", "c": "x = y"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_flat_config("a = 1\na = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_flat_config("just words\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_flat_config("= 3\n")

    def test_render_round_trip(self):
        entries = {"flag": True, "other": False, "rate": 0.1, "n": 7, "name": "x"}
        parsed = parse_flat_config(_render_flat(entries))
        assert parsed == {
            "flag": "true", "other": "false", "rate": "0.1", "n": "7", "name": "x",
        }


class TestGeneratorConfigMapping:
    def test_empty_mapping_is_default(self):
        assert generator_config_from_mapping({}) == default_config()

    def test_overrides_apply(self):
        cfg = generator_config_from_mapping({
            "seed": "9",
            "n_scenes.Real": "3",
            "frames_per_scene.min": "5",
            "frames_per_scene.max": "6",
            "state.PedestrianOccluded.Stopped": "0.2",
            "state.PedestrianOccluded.Decelerating": "0.8",
            "zebra.NonePedestrian": "0.25",
            "vehicle_count.2": "0.35",
        })
        assert cfg.seed == 9
        assert cfg.n_scenes[Environment.REAL] == 3
        assert cfg.frames_per_scene == (5, 6)
        occl_row = cfg.state_given_label[SceneLabel.PEDESTRIAN_OCCLUDED]
        assert occl_row[VehicleState.STOPPED] == 0.2
        assert cfg.zebra_given_label[SceneLabel.NONE_PEDESTRIAN] == 0.25

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            generator_config_from_mapping({"bogus": "1"})

    def test_bad_enum_lists_choices(self):
        with pytest.raises(ConfigError, match="Real"):
            generator_config_from_mapping({"n_scenes.Simulated": "3"})

    def test_row_violation_is_config_error(self):
        with pytest.raises(ConfigError, match="sums to"):
            generator_config_from_mapping({"zebra.NonePedestrian": "0.2",
                                           "label_prior.NonePedestrian": "0.9"})

    def test_render_parse_round_trip(self):
        cfg = default_config()
        text = render_generator_config(cfg)
        assert generator_config_from_mapping(parse_flat_config(text)) == cfg


class TestTrainingConfigMapping:
    def test_empty_is_default(self):
        assert training_config_from_mapping({}) == TrainingConfig()

    def test_round_trip(self):
        cfg = TrainingConfig(
            k=7, eta=3, learning_rate=0.01, batch_size=64,
            max_epochs=9, check_every=2, patience=1, seed=5,
        )
        text = _render_flat(render_training_config(cfg))
        assert training_config_from_mapping(parse_flat_config(text)) == cfg

    def test_prefix_required_when_given(self):
        with pytest.raises(ConfigError, match="unknown"):
            training_config_from_mapping({"k": "4"}, prefix="training.")
        cfg = training_config_from_mapping({"training.k": "4"}, prefix="training.")
        assert cfg.k == 4

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError, match="expected integer"):
            training_config_from_mapping({"k": "wide"})

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError, match="k"):
            training_config_from_mapping({"k": "0"})


class TestExperimentSpecMapping:
    def test_minimal_defaults(self):
        spec, cross = experiment_spec_from_mapping({
            "counts.Virtual.train": "3", "counts.Virtual.test": "1",
        })
        assert spec.train_environments == (Environment.VIRTUAL,)
        assert spec.test_environments == (Environment.VIRTUAL,)
        assert spec.counts == {Environment.VIRTUAL: (3, 1)}
        assert spec.horizon == 30
        assert spec.denominator == "marginal"
        assert cross is False

    def test_missing_counts(self):
        with pytest.raises(ConfigError, match="counts"):
            experiment_spec_from_mapping({"horizon": "3"})

    def test_env_lists(self):
        spec, _ = experiment_spec_from_mapping({
            "train_environments": "Real,Virtual",
            "test_environments": "Real",
            "counts.Real.train": "3", "counts.Real.test": "1",
            "counts.Virtual.train": "3", "counts.Virtual.test": "0",
        })
        assert spec.label() == "Mixed->Real"

    def test_bad_denominator(self):
        # the one denominator is not configurable: the key itself is unknown
        for value in ("mixture", "marginal"):
            with pytest.raises(ConfigError, match="unknown configuration key 'denominator'"):
                experiment_spec_from_mapping({
                    "counts.Virtual.train": "3", "counts.Virtual.test": "1",
                    "denominator": value,
                })

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            experiment_spec_from_mapping({
                "counts.Virtual.train": "3", "counts.Virtual.test": "1",
                "hozizon": "3",
            })

    def test_render_parse_round_trip(self):
        spec, cross = experiment_spec_from_mapping(parse_flat_config(SPEC_CONFIG))
        text = render_experiment_spec(spec, cross)
        spec2, cross2 = experiment_spec_from_mapping(parse_flat_config(text))
        assert spec2 == spec
        assert cross2 == cross


class TestGen:
    def test_writes_scenes_manifest_and_echo(self, corpus_dir):
        xmls = sorted(corpus_dir.glob("*.xml"))
        assert len(xmls) == 10
        assert (corpus_dir / "manifest.tsv").exists()
        echo = (corpus_dir / "effective-config.txt").read_text()
        assert "seed = 4" in echo
        assert "n_scenes.Real = 5" in echo
        doc = parse_scene_xml(xmls[0].read_bytes())
        assert 5 <= len(doc.frames) <= 8

    def test_deterministic_rerun(self, corpus_dir, tmp_path):
        cfg = tmp_path / "gen.txt"
        cfg.write_text(GEN_CONFIG, encoding="utf-8")
        again = tmp_path / "corpus2"
        assert main(["gen", "--out", str(again), "--config", str(cfg)]) == EXIT_OK
        assert snapshot(again) == snapshot(corpus_dir)

    def test_seed_flag_overrides_config(self, corpus_dir, tmp_path):
        cfg = tmp_path / "gen.txt"
        cfg.write_text(GEN_CONFIG, encoding="utf-8")
        other = tmp_path / "corpus-seed11"
        assert main(
            ["gen", "--out", str(other), "--config", str(cfg), "--seed", "11"]
        ) == EXIT_OK
        assert "seed = 11" in (other / "effective-config.txt").read_text()
        assert snapshot(other) != snapshot(corpus_dir)

    def test_missing_config_file(self, tmp_path):
        code = main(["gen", "--out", str(tmp_path / "x"), "--config",
                     str(tmp_path / "nope.txt")])
        assert code == EXIT_USAGE

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "gen.txt"
        cfg.write_text("n_scenes.Real = many\n", encoding="utf-8")
        assert main(["gen", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err


class TestBuildKg:
    def test_tsv_matches_library_build(self, corpus_dir, kg_path):
        docs = [parse_scene_xml(p.read_bytes()) for p in sorted(corpus_dir.glob("*.xml"))]
        assert import_kg_tsv(kg_path.read_bytes()) == build_linked_kg(docs)

    def test_prints_stats(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "kg.tsv"
        assert main(["build-kg", "--corpus", str(corpus_dir), "--out", str(out)]) == EXIT_OK
        assert "triples" in capsys.readouterr().out

    def test_invalid_scene_file(self, corpus_dir, tmp_path, capsys):
        bad_dir = tmp_path / "bad-corpus"
        bad_dir.mkdir()
        good = next(iter(sorted(corpus_dir.glob("*.xml"))))
        shutil.copy(good, bad_dir / good.name)
        (bad_dir / "broken.xml").write_bytes(b"<not-a-scene>")
        code = main(["build-kg", "--corpus", str(bad_dir), "--out", str(tmp_path / "kg.tsv")])
        assert code == EXIT_DATA
        assert "invalid scene: broken.xml" in capsys.readouterr().err

    def test_empty_corpus_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["build-kg", "--corpus", str(empty), "--out",
                     str(tmp_path / "kg.tsv")]) == EXIT_USAGE

    def test_missing_corpus_dir(self, tmp_path):
        assert main(["build-kg", "--corpus", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "kg.tsv")]) == EXIT_USAGE


class TestTrain:
    def test_artifacts_written(self, model_path):
        assert model_path.exists()
        assert Path(str(model_path) + ".vocab").exists()
        history = Path(str(model_path) + ".history").read_text()
        assert history.startswith(("epoch\t", "check\t"))
        echo = Path(str(model_path) + ".effective-config.txt").read_text()
        assert "k = 4" in echo
        assert "validation_ratio = 0.1" in echo

    def test_checkpoint_loads_and_scores(self, model_path, kg_path):
        model = load_checkpoint(
            model_path.read_bytes(), Path(str(model_path) + ".vocab").read_bytes()
        )
        kg = import_kg_tsv(kg_path.read_bytes())
        assert set(model.entities) == set(kg.entities)
        t = kg.sorted_triples()[0]
        assert np.isfinite(score_triple(model, t.subject, t.relation, t.object))

    def test_deterministic_rerun(self, model_path, kg_path, tmp_path):
        out = tmp_path / "model.npz"
        code = main([
            "train", "--kg", str(kg_path), "--out", str(out),
            "--k", "4", "--eta", "2", "--lr", "0.05", "--batch", "256",
            "--max-epochs", "2", "--check-every", "1", "--seed", "0",
        ])
        assert code == EXIT_OK
        assert out.read_bytes() == model_path.read_bytes()
        assert Path(str(out) + ".history").read_text() == Path(
            str(model_path) + ".history"
        ).read_text()

    def test_no_validation_flag(self, kg_path, tmp_path, capsys):
        out = tmp_path / "model.npz"
        code = main([
            "train", "--kg", str(kg_path), "--out", str(out),
            "--k", "4", "--eta", "2", "--lr", "0.05", "--batch", "256",
            "--max-epochs", "1", "--validation-ratio", "0.0",
        ])
        assert code == EXIT_OK
        assert "n/a" in capsys.readouterr().out

    def test_validation_triples_are_not_trained_on(self, kg_path, tmp_path, monkeypatch):
        import occlukg.cli as cli_module

        real_train = cli_module.train
        splits = []

        def capture(split, config):
            splits.append(split)
            return real_train(split, config)

        monkeypatch.setattr(cli_module, "train", capture)
        everything = set(import_kg_tsv(kg_path.read_bytes()).triples)
        for ratio in ("0.2", "0"):
            code = main([
                "train", "--kg", str(kg_path), "--out", str(tmp_path / f"m{ratio}.npz"),
                "--k", "4", "--eta", "2", "--batch", "256", "--max-epochs", "1",
                "--validation-ratio", ratio,
            ])
            assert code == EXIT_OK
        held_out, no_validation = splits
        assert held_out.validation
        assert not set(held_out.train) & set(held_out.validation)
        assert set(held_out.train) | set(held_out.validation) == everything
        assert no_validation.validation == ()
        assert set(no_validation.train) == everything

    def test_flag_overrides_config_file(self, kg_path, tmp_path):
        cfg = tmp_path / "train.txt"
        cfg.write_text("k = 8\nmax_epochs = 1\n", encoding="utf-8")
        out = tmp_path / "model.npz"
        code = main([
            "train", "--kg", str(kg_path), "--out", str(out),
            "--config", str(cfg), "--k", "4", "--eta", "2", "--batch", "256",
            "--lr", "0.05",
        ])
        assert code == EXIT_OK
        assert "k = 4" in Path(str(out) + ".effective-config.txt").read_text()

    def test_every_flag_reaches_its_field(self, kg_path, tmp_path):
        flags = {
            "--k": ("k", "6"),
            "--eta": ("eta", "3"),
            "--lr": ("learning_rate", "0.02"),
            "--batch": ("batch_size", "128"),
            "--max-epochs": ("max_epochs", "4"),
            "--check-every": ("check_every", "2"),
            "--patience": ("patience", "3"),
            "--seed": ("seed", "5"),
        }
        defaults = TrainingConfig()
        assert {name for name, _ in flags.values()} == set(vars(defaults))
        for name, value in flags.values():
            assert str(getattr(defaults, name)) != value
        out = tmp_path / "model.npz"
        argv = [part for flag, (_, value) in flags.items() for part in (flag, value)]
        assert main(["train", "--kg", str(kg_path), "--out", str(out), *argv]) == EXIT_OK
        echoed = parse_flat_config(Path(str(out) + ".effective-config.txt").read_text())
        assert echoed == {"validation_ratio": "0.1", **dict(flags.values())}

    def test_invalid_flag_value(self, kg_path, tmp_path, capsys):
        code = main([
            "train", "--kg", str(kg_path), "--out", str(tmp_path / "m.npz"),
            "--k", "0",
        ])
        assert code == EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["1.5", "1.0", "-0.1"])
    def test_validation_ratio_out_of_range_flag(self, kg_path, tmp_path, capsys, ratio):
        out = tmp_path / "m.npz"
        code = main([
            "train", "--kg", str(kg_path), "--out", str(out),
            "--k", "4", "--max-epochs", "1", "--validation-ratio", ratio,
        ])
        assert code == EXIT_USAGE
        assert "validation_ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_ratio_out_of_range_config_key(self, kg_path, tmp_path, capsys):
        cfg = tmp_path / "train.txt"
        cfg.write_text("validation_ratio = 1.5\n", encoding="utf-8")
        out = tmp_path / "m.npz"
        code = main([
            "train", "--kg", str(kg_path), "--out", str(out), "--config", str(cfg),
            "--k", "4", "--max-epochs", "1",
        ])
        assert code == EXIT_USAGE
        assert "validation_ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_l2_config_key_rejected(self, kg_path, tmp_path, capsys):
        cfg = tmp_path / "train.txt"
        cfg.write_text("l2 = 0.001\n", encoding="utf-8")
        out = tmp_path / "m.npz"
        code = main([
            "train", "--kg", str(kg_path), "--out", str(out), "--config", str(cfg),
            "--k", "4", "--max-epochs", "1",
        ])
        assert code == EXIT_USAGE
        assert "unknown configuration key 'l2'" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_l2_flag_rejected(self, kg_path, tmp_path, capsys):
        out = tmp_path / "m.npz"
        code = main([
            "train", "--kg", str(kg_path), "--out", str(out),
            "--k", "4", "--max-epochs", "1", "--l2", "0.001",
        ])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --l2" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_temperature_config_key_rejected(self, kg_path, tmp_path, capsys):
        cfg = tmp_path / "train.txt"
        cfg.write_text("adversarial_temperature = 1.0\n", encoding="utf-8")
        out = tmp_path / "m.npz"
        code = main([
            "train", "--kg", str(kg_path), "--out", str(out), "--config", str(cfg),
            "--k", "4", "--max-epochs", "1",
        ])
        assert code == EXIT_USAGE
        assert "unknown configuration key 'adversarial_temperature'" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_temperature_flag_rejected(self, kg_path, tmp_path, capsys):
        out = tmp_path / "m.npz"
        code = main([
            "train", "--kg", str(kg_path), "--out", str(out),
            "--k", "4", "--max-epochs", "1", "--temperature", "1.0",
        ])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --temperature" in capsys.readouterr().err
        assert not out.exists()

    def test_help_defaults_match_the_training_config(self):
        # the "(default X)" texts are written by hand; each must name the real default
        [subcommands] = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        stated = {}
        for action in subcommands.choices["train"]._actions:
            match = re.search(r"\(default ([^)]*)\)", action.help or "")
            if match:
                stated[action.dest] = match.group(1)
        assert stated.pop("validation_ratio") == str(DEFAULT_VALIDATION_RATIO)
        defaults = dataclasses.asdict(TrainingConfig())
        assert set(stated) == set(defaults)
        for name, text in stated.items():
            assert type(defaults[name])(text) == defaults[name], name

    def test_checkpoint_carries_the_pattern_grid_fit(self, kg_path, tmp_path, monkeypatch):
        import occlukg.cli as cli_module
        import occlukg.harness as harness_module

        real_train, real_calibrate = cli_module.train, harness_module.calibrate
        trained, fits = [], []

        def capture(split, config):
            result = real_train(split, config)
            trained.append((split, result.model.copy()))
            return result

        def recording_calibrate(model, positives, negatives):
            fits.append(real_calibrate(model, positives, negatives))
            return fits[-1]

        monkeypatch.setattr(cli_module, "train", capture)
        # through harness' global, where perfbench wraps it
        monkeypatch.setattr(harness_module, "calibrate", recording_calibrate)
        out = tmp_path / "model.npz"
        code = main([
            "train", "--kg", str(kg_path), "--out", str(out),
            "--k", "4", "--eta", "2", "--lr", "0.05", "--batch", "256",
            "--max-epochs", "2", "--check-every", "1",
        ])
        assert code == EXIT_OK
        [(split, uncalibrated)] = trained
        assert split.validation
        [fit] = fits
        saved = load_checkpoint(out.read_bytes(), Path(str(out) + ".vocab").read_bytes())
        assert saved.calibration == (fit.a, fit.b) != (1.0, 0.0)
        assert uncalibrated.calibration == (1.0, 0.0)
        again = fit_calibration(uncalibrated, split)
        assert (again.a, again.b) == saved.calibration

    def test_missing_kg_file(self, tmp_path):
        assert main(["train", "--kg", str(tmp_path / "nope.tsv"), "--out",
                     str(tmp_path / "m.npz")]) == EXIT_USAGE

    def test_numerical_failure_exit_code(self, kg_path, tmp_path, monkeypatch):
        import occlukg.cli as cli_module

        def boom(split, config):
            raise RuntimeError("loss diverged")

        monkeypatch.setattr(cli_module, "train", boom)
        code = main([
            "train", "--kg", str(kg_path), "--out", str(tmp_path / "m.npz"),
            "--k", "4", "--max-epochs", "1",
        ])
        assert code == EXIT_NUMERIC


class TestExperiment:
    def test_reports_written(self, corpus_dir, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_CONFIG, encoding="utf-8")
        out = tmp_path / "run"
        code = main(["experiment", "--corpus", str(corpus_dir), "--spec", str(spec),
                     "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "report.txt").read_text()
        assert text.splitlines()[0].split() == ["Train", "Data", "F1", "Precision", "Recall"]
        assert "Virtual->Virtual" in text
        records = [json.loads(ln) for ln in (out / "report.jsonl").read_text().splitlines()]
        assert records[0]["train_data"] == "Virtual->Virtual"
        predictions = [
            json.loads(ln) for ln in (out / "predictions.jsonl").read_text().splitlines()
        ]
        assert predictions
        assert {"scene", "predicted", "ground_truth"} <= set(predictions[0])
        echo = (out / "effective-config.txt").read_text()
        assert "horizon = 3" in echo
        assert "training.k = 4" in echo

    def test_deterministic_rerun(self, corpus_dir, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_CONFIG, encoding="utf-8")
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["experiment", "--corpus", str(corpus_dir),
                         "--spec", str(spec), "--out", str(out)]) == EXIT_OK
            runs.append(snapshot(out))
        assert runs[0] == runs[1]

    def test_horizon_flag_overrides_and_echoes(self, corpus_dir, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_CONFIG, encoding="utf-8")
        out = tmp_path / "run"
        code = main(["experiment", "--corpus", str(corpus_dir), "--spec", str(spec),
                     "--out", str(out), "--horizon", "1"])
        assert code == EXIT_OK
        assert "horizon = 1" in (out / "effective-config.txt").read_text()

    def test_cross_environment_rows(self, corpus_dir, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_CONFIG, encoding="utf-8")
        out = tmp_path / "run"
        code = main(["experiment", "--corpus", str(corpus_dir), "--spec", str(spec),
                     "--out", str(out), "--cross-environment"])
        assert code == EXIT_OK
        text = (out / "report.txt").read_text()
        assert len(text.strip().splitlines()) == 1 + 6
        assert not (out / "predictions.jsonl").exists()
        assert "cross_environment = true" in (out / "effective-config.txt").read_text()

    def test_removed_calibrate_key_rejected(self, corpus_dir, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_CONFIG + "calibrate = false\n", encoding="utf-8")
        out = tmp_path / "run"
        code = main(["experiment", "--corpus", str(corpus_dir), "--spec", str(spec),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "unknown configuration key 'calibrate'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["mixture", "marginal"])
    def test_removed_denominator_key_rejected(self, corpus_dir, tmp_path, capsys, value):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_CONFIG + f"denominator = {value}\n", encoding="utf-8")
        out = tmp_path / "run"
        code = main(["experiment", "--corpus", str(corpus_dir), "--spec", str(spec),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "unknown configuration key 'denominator'" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_training_temperature_key_rejected(self, corpus_dir, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_CONFIG + "training.adversarial_temperature = 1.0\n", encoding="utf-8")
        out = tmp_path / "run"
        code = main(["experiment", "--corpus", str(corpus_dir), "--spec", str(spec),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown configuration key 'training.adversarial_temperature'" in err
        assert not out.exists()

    def test_spec_without_counts(self, corpus_dir, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("horizon = 3\n", encoding="utf-8")
        code = main(["experiment", "--corpus", str(corpus_dir), "--spec", str(spec),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        assert "counts" in capsys.readouterr().err

    def test_infeasible_counts(self, corpus_dir, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            SPEC_CONFIG.replace("counts.Virtual.train = 3", "counts.Virtual.train = 80"),
            encoding="utf-8",
        )
        code = main(["experiment", "--corpus", str(corpus_dir), "--spec", str(spec),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE


class TestPredict:
    def test_prints_the_frames_predictions_jsonl_record(self, corpus_dir, model_path, capsys):
        scene = sorted(corpus_dir.glob("*.xml"))[0]
        code = main(["predict", "--model", str(model_path), "--scene", str(scene),
                     "--frame", "0", "--horizon", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        [record] = [json.loads(ln) for ln in out.splitlines()]
        assert [h["label"] for h in record["hypotheses"]] == [
            "PedestrianOccluded", "PedestrianNotOccluded", "NonePedestrian",
        ]
        assert record["horizon"] == 2
        model = load_checkpoint(model_path.read_bytes(),
                                Path(str(model_path) + ".vocab").read_bytes())
        doc = parse_scene_xml(scene.read_bytes())
        assert out == predictions_jsonl([predict_frame(model, doc, 0, horizon=2)])

    def test_frame_out_of_range(self, corpus_dir, model_path):
        scene = sorted(corpus_dir.glob("*.xml"))[0]
        code = main(["predict", "--model", str(model_path), "--scene", str(scene),
                     "--frame", "999"])
        assert code == EXIT_USAGE

    def test_missing_model(self, corpus_dir, tmp_path):
        scene = sorted(corpus_dir.glob("*.xml"))[0]
        code = main(["predict", "--model", str(tmp_path / "nope.npz"),
                     "--scene", str(scene), "--frame", "0"])
        assert code == EXIT_USAGE

    def test_non_finite_checkpoint_is_bad_data(self, corpus_dir, model_path, tmp_path, capsys):
        blob = model_path.read_bytes()
        nan_model = tmp_path / "nan.npz"
        nan_model.write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
        shutil.copy(str(model_path) + ".vocab", str(nan_model) + ".vocab")
        scene = sorted(corpus_dir.glob("*.xml"))[0]
        code = main(["predict", "--model", str(nan_model), "--scene", str(scene),
                     "--frame", "0"])
        assert code == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("k, entities", [(0, ("a", "b")), (2, ())])
    def test_empty_checkpoint_is_bad_data(self, corpus_dir, tmp_path, capsys, k, entities):
        # tables init_tables never makes: no embedding width, or no entity
        tables = [np.zeros((rows, k)) for rows in (len(entities),) * 2 + (1,) * 2]
        model = ComplexModel(entities, ("r",), *tables)
        blob, sidecar = save_checkpoint(model)
        path = tmp_path / "empty.npz"
        path.write_bytes(blob)
        Path(str(path) + ".vocab").write_bytes(sidecar)
        scene = sorted(corpus_dir.glob("*.xml"))[0]
        code = main(["predict", "--model", str(path), "--scene", str(scene), "--frame", "0"])
        assert code == EXIT_DATA
        assert "need both > 0" in capsys.readouterr().err

    def test_bad_denominator_choice(self, corpus_dir, model_path, capsys):
        # the flag is gone, so even the one denominator is an unknown argument
        scene = sorted(corpus_dir.glob("*.xml"))[0]
        code = main(["predict", "--model", str(model_path), "--scene", str(scene),
                     "--frame", "0", "--denominator", "marginal"])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --denominator" in capsys.readouterr().err


class TestTopLevel:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self):
        assert main([]) == EXIT_USAGE

    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "occlukg" in capsys.readouterr().out

    def test_console_script_installed(self):
        """The declared ``occlukg`` script runs the CLI and passes its exit
        code out, checked from source with the launcher pip would write."""
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        target = pyproject["project"]["scripts"]["occlukg"]
        module, _, attr = target.partition(":")
        assert module and attr, f"not a module:attr target: {target!r}"
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{target!r} does not name a callable"
        )

        launcher = (
            "import sys\n"
            f"from {module} import {attr}\n"
            "sys.argv[0] = 'occlukg'\n"
            f"sys.exit({attr}())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )

        def run(*args):
            return subprocess.run(
                [sys.executable, "-c", launcher, *args],
                capture_output=True, text=True, timeout=60, env=env,
            )

        proc = run("--help")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "occlukg" in proc.stdout
        assert run("frobnicate").returncode == EXIT_USAGE

    @pytest.mark.skipif(
        shutil.which("occlukg") is None,
        reason="occlukg console script not on PATH (package not pip-installed)",
    )
    def test_installed_console_script_runs(self):
        proc = subprocess.run(
            [shutil.which("occlukg"), "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "occlukg" in proc.stdout


class TestReadmeQuickstart:
    def test_every_command_parses(self):
        # a flag deleted from the CLI must not linger in the docs
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("## Quickstart (CLI)", 1)[1].split("\n## ", 1)[0]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0]
        commands = [
            shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("occlukg ")
        ]
        assert [argv[0] for argv in commands] == [
            "gen", "build-kg", "train", "experiment", "predict",
        ]
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: occlukg {shlex.join(argv)}")
