"""Experiment harness: metrics, spec handling, end-to-end runs, reports."""

import dataclasses
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from occlukg import harness
from occlukg.harness import (
    CROSS_ENVIRONMENT_COMBOS,
    ConfusionMatrix,
    CoreMetrics,
    ExperimentSpec,
    MetricsReport,
    _calibration_sets,
    compute_metrics,
    headline_spec,
    render_report,
    run_cross_environment,
    run_experiment,
    run_experiment_with_predictions,
)
from occlukg.kg import (
    PROTO_NO_PED,
    PROTO_OCCLUDED,
    PROTO_VISIBLE,
    ROAD_SCENE,
    SplitError,
    assign_folds,
    make_split,
)
from occlukg.kge.calibrate import calibrate
from occlukg.kge.model import TABLES
from occlukg.kge.train import TrainingConfig
from occlukg.scenes import Environment, SceneLabel
from occlukg.synth import default_config, generate_corpus

PATTERN_SUBJECTS = {ROAD_SCENE, PROTO_OCCLUDED, PROTO_VISIBLE, PROTO_NO_PED}


def tiny_training() -> TrainingConfig:
    return TrainingConfig(
        k=4, eta=2, learning_rate=0.05, batch_size=512, max_epochs=2,
        check_every=1, patience=2, seed=0,
    )


@pytest.fixture(scope="module")
def small_corpus():
    cfg = dataclasses.replace(
        default_config(),
        n_scenes={Environment.REAL: 5, Environment.VIRTUAL: 5},
        frames_per_scene=(5, 9),
    )
    return generate_corpus(cfg, seed=0)


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        train_environments=(Environment.VIRTUAL,),
        test_environments=(Environment.VIRTUAL,),
        counts={Environment.REAL: (3, 1), Environment.VIRTUAL: (3, 1)},
        horizon=3,
        training=tiny_training(),
        seed=0,
        validation_ratio=0.34,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestComputeMetrics:
    def test_perfect(self):
        m = compute_metrics(ConfusionMatrix(tp=10, fp=0, fn=0, tn=0))
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_mixed_hand_example(self):
        m = compute_metrics(ConfusionMatrix(tp=9, fp=1, fn=3, tn=0))
        assert m.precision == pytest.approx(0.9)
        assert m.recall == pytest.approx(0.75)
        assert m.f1 == pytest.approx(9 / 11)
        assert m.f1 == pytest.approx(0.8182, abs=1e-4)

    def test_no_positives_predicted_or_present(self):
        m = compute_metrics(ConfusionMatrix(tp=0, fp=0, fn=5, tn=10))
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_all_zero(self):
        m = compute_metrics(ConfusionMatrix())
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_small_grid_against_direct_formulas(self):
        for tp, fp, fn in itertools.product(range(7), repeat=3):
            m = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=3))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )
            assert m == CoreMetrics(precision=precision, recall=recall, f1=f1)


class TestConfusionMatrix:
    def test_of_routes_each_prediction_to_its_cell(self):
        # one-vs-rest: mistaking visible for pedestrian-free is a true negative
        occluded = SceneLabel.PEDESTRIAN_OCCLUDED
        visible = SceneLabel.PEDESTRIAN_NOT_OCCLUDED
        nobody = SceneLabel.NONE_PEDESTRIAN
        pairs = [
            (occluded, occluded), (occluded, visible), (nobody, occluded),
            (visible, nobody), (nobody, visible),
        ]
        cm = ConfusionMatrix.of(
            [SimpleNamespace(predicted=p, ground_truth=t) for p, t in pairs]
        )
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 2)
        assert ConfusionMatrix.of([]) == ConfusionMatrix()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConfusionMatrix(tp=-1)

    def test_record(self):
        cm = ConfusionMatrix(tp=1, fp=2, fn=3, tn=4)
        assert cm.to_record() == {"tp": 1, "fp": 2, "fn": 3, "tn": 4}


class TestExperimentSpec:
    def test_label_names(self):
        assert small_spec().label() == "Virtual->Virtual"
        both = small_spec(
            train_environments=(Environment.REAL, Environment.VIRTUAL),
            test_environments=(Environment.REAL,),
        )
        assert both.label() == "Mixed->Real"

    def test_echo_is_json_ready(self):
        echo = small_spec().echo()
        parsed = json.loads(json.dumps(echo))
        assert parsed["train_environments"] == ["Virtual"]
        assert parsed["counts"]["Real"] == [3, 1]
        assert parsed["training"]["k"] == 4
        assert parsed["horizon"] == 3

    def test_empty_train_envs(self):
        with pytest.raises(ValueError, match="training environments"):
            small_spec(train_environments=())

    def test_missing_counts(self):
        with pytest.raises(ValueError, match="counts"):
            small_spec(counts={Environment.VIRTUAL: (3, 1)},
                       train_environments=(Environment.REAL,))

    def test_negative_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            small_spec(horizon=-1)

    def test_bad_denominator(self):
        # the one denominator is a class attribute, not a field
        for value in ("mixture", "marginal"):
            with pytest.raises(TypeError, match="denominator"):
                small_spec(denominator=value)
            with pytest.raises(TypeError, match="denominator"):
                dataclasses.replace(small_spec(), denominator=value)
        assert "denominator" not in small_spec().echo()

    def test_bad_validation_ratio(self):
        with pytest.raises(ValueError, match="validation_ratio"):
            small_spec(validation_ratio=1.0)


class TestCalibrationSets:
    def test_pattern_grid(self, small_corpus):
        spec = small_spec()
        split = make_split(assign_folds(small_corpus, spec.counts, 0, 0.34))
        positives, negatives = _calibration_sets(split)
        known = split.all_known()
        assert positives
        assert negatives
        for t in positives:
            assert t.subject in PATTERN_SUBJECTS
            assert t in known
        rel_objs = {(t.relation, t.object) for t in positives}
        for t in negatives:
            assert t.subject in PATTERN_SUBJECTS
            assert t not in known
            assert (t.relation, t.object) in rel_objs

    @pytest.mark.parametrize("validation_ratio", [0.0, 0.34])
    def test_negatives_iff_two_training_labels(self, validation_ratio):
        # The grid has a negative exactly when the training fold holds two
        # or more frame labels: <prototype of A, contains, B> is then absent.
        # With one label, RoadScene and its prototype carry the same pairs.
        seen = set()
        for corpus_seed in range(4):
            cfg = dataclasses.replace(
                default_config(),
                n_scenes={Environment.REAL: 4, Environment.VIRTUAL: 4},
                frames_per_scene=(3, 5),
            )
            corpus = generate_corpus(cfg, seed=corpus_seed)
            for fold_seed, n_train in itertools.product(range(4), (1, 2, 3)):
                counts = {Environment.REAL: (n_train, 1), Environment.VIRTUAL: (n_train, 1)}
                folds = assign_folds(corpus, counts, fold_seed, validation_ratio)
                labels = {f.pedestrians_scene for d in folds.train for f in d.frames}
                _, negatives = _calibration_sets(make_split(folds))
                assert bool(negatives) == (len(labels) >= 2), (corpus_seed, fold_seed, n_train)
                seen.add(len(labels) >= 2)
        assert seen == {False, True}


class TestTestFoldIsolation:
    """Only the predictor reads the test fold.

    Swapping every test-fold scene for another scene with the same id
    and environment keeps the fold assignment, so the trained tables and
    the fitted calibration must not change. Corpus seeds 1 and 3 are
    ones where test scenes hold pattern cells the training scenes lack.
    """

    @pytest.mark.parametrize("corpus_seed", [1, 3])
    def test_training_and_calibration_ignore_test_scenes(self, monkeypatch, corpus_seed):
        spec = headline_spec(k=8, epochs=2)
        corpus = generate_corpus(default_config(), seed=corpus_seed)
        folds = assign_folds(corpus, spec.counts, spec.seed, spec.validation_ratio)
        others = generate_corpus(default_config(), seed=corpus_seed + 100)
        test_ids = {d.scene_id for d in folds.test}
        stand_ins = {d.scene_id: d for d in others if d.scene_id in test_ids}
        swapped = [stand_ins.get(d.scene_id, d) for d in corpus]
        assert len(stand_ins) == len(folds.test)
        assert all(stand_ins[d.scene_id] != d for d in folds.test)
        assert all(
            stand_ins[d.scene_id].context.environment is d.context.environment
            for d in folds.test
        )

        fitted = []

        def recording_calibrate(model, positives, negatives):
            fitted.append(model)
            return calibrate(model, positives, negatives)

        monkeypatch.setattr(harness, "calibrate", recording_calibrate)
        run_experiment(corpus, spec)
        run_experiment(swapped, spec)
        original, other = fitted
        for name in TABLES:
            assert np.array_equal(getattr(original, name), getattr(other, name)), name
        assert original.calibration == other.calibration


class TestRunExperiment:
    def test_report_shape(self, small_corpus):
        report = run_experiment(small_corpus, small_spec())
        assert 0.0 <= report.f1 <= 1.0
        assert report.n_frames == report.confusion.total > 0
        assert set(report.per_environment) == {"Virtual"}
        env = report.per_environment["Virtual"]
        assert env["n_frames"] == report.n_frames
        assert report.spec_echo["label"] == "Virtual->Virtual"
        assert set(report.calibration) == {"a", "b", "warning", "message"}
        assert 0.0 <= report.clamp_rate <= 1.0
        assert 0.0 <= report.truncation_rate <= 1.0
        assert 0.0 <= report.oov_item_rate <= 1.0

    def test_deterministic(self, small_corpus):
        a = run_experiment(small_corpus, small_spec())
        b = run_experiment(small_corpus, small_spec())
        assert a == b

    def test_predictions_returned(self, small_corpus):
        report, predictions = run_experiment_with_predictions(small_corpus, small_spec())
        assert len(predictions) == report.n_frames
        test_docs = {p.scene_id for p in predictions}
        assert len(test_docs) == 1  # (3, 1) counts: one Virtual test scene
        occluded = sum(
            p.predicted is SceneLabel.PEDESTRIAN_OCCLUDED for p in predictions
        )
        assert occluded == report.confusion.tp + report.confusion.fp

    def test_report_is_counted_from_the_predictions(self, small_corpus):
        both = (Environment.REAL, Environment.VIRTUAL)
        spec = small_spec(train_environments=both, test_environments=both)
        report, predictions = run_experiment_with_predictions(small_corpus, spec)
        env_of = {d.scene_id: d.context.environment.value for d in small_corpus}
        occluded = SceneLabel.PEDESTRIAN_OCCLUDED

        def counts(preds):
            cells = [(p.predicted is occluded, p.ground_truth is occluded) for p in preds]
            return {
                "tp": cells.count((True, True)), "fp": cells.count((True, False)),
                "fn": cells.count((False, True)), "tn": cells.count((False, False)),
            }

        assert report.confusion.to_record() == counts(predictions)
        assert set(report.per_environment) == {"Real", "Virtual"}
        for env, record in report.per_environment.items():
            mine = [p for p in predictions if env_of[p.scene_id] == env]
            assert record["confusion"] == counts(mine)
            assert record["n_frames"] == len(mine)
        reports = [r for p in predictions for r in p.reports]
        items = sum(len(p.evidence) + len(p.dropped_evidence) for p in predictions)
        assert report.n_frames == len(predictions)
        assert report.clamp_rate == sum(r.clamp_flagged for r in reports) / len(reports)
        assert report.truncation_rate == sum(p.truncated for p in predictions) / len(predictions)
        assert report.oov_item_rate == (
            sum(len(p.dropped_evidence) for p in predictions) / items
        )
        assert report.truncation_rate > 0  # horizon 3 runs past some scene ends

    def test_horizon_zero_runs(self, small_corpus):
        report = run_experiment(small_corpus, small_spec(horizon=0))
        assert report.truncation_rate == 0.0

    def test_single_label_run_keeps_the_identity_map(self, small_corpus):
        # One Virtual training scene: one label, so the calibration grid has
        # no negative, and that label's prototype is the only one with an
        # embedding, so it wins every frame.
        spec = small_spec(
            counts={Environment.REAL: (3, 1), Environment.VIRTUAL: (1, 2)},
            validation_ratio=0.0,
        )
        folds = assign_folds(small_corpus, spec.counts, spec.seed, spec.validation_ratio)
        train_virtual = [
            d for d in folds.train if d.context.environment is Environment.VIRTUAL
        ]
        labels = {f.pedestrians_scene for d in train_virtual for f in d.frames}
        assert len(labels) == 1
        report, predictions = run_experiment_with_predictions(small_corpus, spec)
        assert report.calibration == {
            "a": 1.0, "b": 0.0, "warning": True,
            "message": "calibration grid has no negative; using identity map",
        }
        assert predictions
        assert {p.predicted for p in predictions} == labels

    def test_cross_environment_test_selection(self, small_corpus):
        spec = small_spec(test_environments=(Environment.REAL,))
        report = run_experiment(small_corpus, spec)
        assert set(report.per_environment) == {"Real"}
        assert report.spec_echo["label"] == "Virtual->Real"

    def test_empty_selection_rejected(self, small_corpus):
        virtual_only = [
            d for d in small_corpus if d.context.environment is Environment.VIRTUAL
        ]
        with pytest.raises(SplitError):
            run_experiment(
                virtual_only,
                small_spec(counts={Environment.REAL: (0, 0), Environment.VIRTUAL: (3, 1)},
                           train_environments=(Environment.REAL,)),
            )

    def test_to_record_round_trips_through_json(self, small_corpus):
        report = run_experiment(small_corpus, small_spec())
        record = json.loads(json.dumps(report.to_record(), sort_keys=True))
        assert record["f1"] == report.f1
        assert record["confusion"] == report.confusion.to_record()
        assert record["spec"]["label"] == "Virtual->Virtual"


class TestCrossEnvironment:
    def test_all_combos_present(self, small_corpus):
        out = run_cross_environment(small_corpus, small_spec())
        assert list(out) == [label for label, _, _ in CROSS_ENVIRONMENT_COMBOS]
        assert out["Virtual->Virtual"].spec_echo["label"] == "Virtual->Virtual"
        assert {e for combo in out.values() for e in combo.per_environment} <= {
            "Real", "Virtual",
        }

    def test_each_training_selection_is_trained_once(self, small_corpus, monkeypatch):
        calls = []
        original = harness.train

        def counting_train(split, config):
            calls.append(split)
            return original(split, config)

        monkeypatch.setattr(harness, "train", counting_train)
        run_cross_environment(small_corpus, small_spec())
        assert len(calls) == 3

    def test_each_combination_equals_its_own_run(self, small_corpus):
        base = small_spec()
        out = run_cross_environment(small_corpus, base)
        for label, train_envs, test_envs in CROSS_ENVIRONMENT_COMBOS:
            spec = dataclasses.replace(
                base, train_environments=train_envs, test_environments=test_envs
            )
            assert out[label].to_record() == run_experiment(small_corpus, spec).to_record()

    def test_selections_checked_before_any_training(self, small_corpus, monkeypatch):
        # Virtual->Virtual selects no training scene; Real->Real, before it, does
        def failing_train(split, config):
            raise AssertionError("trained before the selections were checked")

        monkeypatch.setattr(harness, "train", failing_train)
        counts = {Environment.REAL: (3, 1), Environment.VIRTUAL: (0, 1)}
        with pytest.raises(SplitError, match="zero training scenes"):
            run_cross_environment(small_corpus, small_spec(counts=counts))

    def test_missing_environment_rejected(self, small_corpus):
        virtual_only = [
            d for d in small_corpus if d.context.environment is Environment.VIRTUAL
        ]
        with pytest.raises(SplitError, match="Real"):
            run_cross_environment(virtual_only, small_spec())


def report_with(f1, precision, recall, label="Virtual->Virtual"):
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        confusion=ConfusionMatrix(tp=1, fp=1, fn=1, tn=1),
        per_environment={},
        spec_echo={"label": label},
        clamp_rate=0.0,
        truncation_rate=0.0,
        oov_item_rate=0.0,
        calibration={"a": 1.0, "b": 0.0, "warning": False},
        n_frames=4,
    )


class TestRenderReport:
    def test_two_decimal_rows(self):
        reports = {
            "Virtual": report_with(0.932, 0.914, 0.889),
            "Real": report_with(0.81, 0.75, 0.9104),
        }
        text, jsonl = render_report(reports)
        lines = text.strip().split("\n")
        assert lines[0].split() == ["Train", "Data", "F1", "Precision", "Recall"]
        assert lines[1].split() == ["Virtual", "0.93", "0.91", "0.89"]
        assert lines[2].split() == ["Real", "0.81", "0.75", "0.91"]
        assert text.endswith("\n")
        records = [json.loads(ln) for ln in jsonl.strip().split("\n")]
        assert records[0]["train_data"] == "Virtual"
        assert records[0]["f1"] == 0.932  # full precision survives in records

    def test_label_column_width_adapts(self):
        reports = {"Virtual->Virtual": report_with(0.5, 0.5, 0.5)}
        text, _ = render_report(reports)
        header, row = text.strip().split("\n")
        assert header == f"{'Train Data':<16} F1 Precision Recall"
        assert row == "Virtual->Virtual 0.50 0.50 0.50"

    def test_empty_reports(self):
        text, jsonl = render_report({})
        assert text == "Train Data F1 Precision Recall\n"
        assert jsonl == ""
