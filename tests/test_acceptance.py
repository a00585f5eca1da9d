"""End-to-end acceptance gate.

Each test pins one headline guarantee of the toolkit: exact analytic
gradients, oracle-matched filtered ranking, memorization capacity of
the trainer, posterior identities of the evidence combiner, the
planted-corpus occlusion benchmark, the cross-environment contrast,
the metric formulas, byte-identical reruns, and lossless round trips.
Budgets are wall-clock seconds on a desktop-class machine.
"""

import dataclasses
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import model_with_scores
from occlukg.bayes import EvidenceItem, EvidenceSource, Hypothesis, posterior
from occlukg.cli import EXIT_OK, main
from occlukg.harness import ConfusionMatrix, compute_metrics, headline_spec, run_experiment
from occlukg.kg import PROTO_OCCLUDED, ROAD_SCENE, KnowledgeGraph, Triple, TripleSplit
from occlukg.kge.model import (
    init_embeddings,
    init_tables,
    load_checkpoint,
    save_checkpoint,
    score_gradient,
    score_triple,
)
from occlukg.kge.ranking import evaluate_ranking
from occlukg.kge.train import TrainingConfig, self_adversarial_loss, train
from occlukg.scenes import Environment, SceneLabel, parse_scene_xml, serialize_scene_xml
from occlukg.synth import asymmetric_corpus, default_config, generate_corpus

# --- Gradient exactness -------------------------------------------------


class TestAnalyticGradients:
    def test_score_partials_match_central_differences(self):
        start = time.monotonic()
        h = 1e-5
        rng = np.random.default_rng(101)
        for case in range(100):
            n_ent = int(rng.integers(3, 8))
            n_rel = int(rng.integers(1, 4))
            model = init_tables(
                tuple(f"e{i}" for i in range(n_ent)),
                tuple(f"r{j}" for j in range(n_rel)),
                k=4,
                seed=int(rng.integers(2**31)),
            )
            si, oi = (int(x) for x in rng.choice(n_ent, size=2, replace=False))
            ri = int(rng.integers(n_rel))
            s, r, o = model.entities[si], model.relations[ri], model.entities[oi]
            analytic = score_gradient(model, s, r, o)
            rows = {
                "s_re": (model.ent_re, si),
                "s_im": (model.ent_im, si),
                "r_re": (model.rel_re, ri),
                "r_im": (model.rel_im, ri),
                "o_re": (model.ent_re, oi),
                "o_im": (model.ent_im, oi),
            }
            for key, (table, row) in rows.items():
                numeric = np.empty(4)
                for j in range(4):
                    kept = table[row, j]
                    table[row, j] = kept + h
                    up = score_triple(model, s, r, o)
                    table[row, j] = kept - h
                    down = score_triple(model, s, r, o)
                    table[row, j] = kept
                    numeric[j] = (up - down) / (2.0 * h)
                got = analytic[key]
                rel = np.linalg.norm(got - numeric) / max(
                    np.linalg.norm(got), np.linalg.norm(numeric), 1e-12
                )
                assert rel < 1e-5, f"case {case}, block {key}: relative error {rel}"
        assert time.monotonic() - start < 5.0

    def test_loss_partials_match_central_differences(self):
        start = time.monotonic()
        h = 1e-5
        rng = np.random.default_rng(202)
        for case in range(100):
            n_neg = int(rng.integers(1, 9))
            f_pos = float(rng.uniform(-2.0, 2.0))
            f_neg = rng.uniform(-2.0, 2.0, size=n_neg)
            # one-row batches: the trainer's batched loss, with n = 1
            row = f_neg[None, :]
            _, d_pos, d_neg = self_adversarial_loss(np.array([f_pos]), row)
            d_pos, d_neg = float(d_pos[0]), d_neg[0]

            up = self_adversarial_loss(np.array([f_pos + h]), row)[0]
            down = self_adversarial_loss(np.array([f_pos - h]), row)[0]
            numeric_pos = (up - down) / (2.0 * h)
            rel = abs(d_pos - numeric_pos) / max(abs(d_pos), abs(numeric_pos), 1e-12)
            assert rel < 1e-5, f"case {case}, positive side: relative error {rel}"

            # The negative-side weights are treated as constants, so the
            # reference function freezes them at the unperturbed scores.
            weights = np.exp(f_neg - f_neg.max())
            weights = weights / weights.sum()

            def frozen_loss(neg):
                return float(
                    np.logaddexp(0.0, -f_pos) + np.sum(weights * np.logaddexp(0.0, neg))
                )

            numeric_neg = np.empty(n_neg)
            for i in range(n_neg):
                bumped = f_neg.copy()
                bumped[i] = f_neg[i] + h
                up = frozen_loss(bumped)
                bumped[i] = f_neg[i] - h
                down = frozen_loss(bumped)
                numeric_neg[i] = (up - down) / (2.0 * h)
            rel = np.linalg.norm(d_neg - numeric_neg) / max(
                np.linalg.norm(d_neg), np.linalg.norm(numeric_neg), 1e-12
            )
            assert rel < 1e-5, f"case {case}, negative side: relative error {rel}"
        assert time.monotonic() - start < 5.0


# --- Filtered ranking vs. brute force -----------------------------------

_RELATION_POOL = ("includes", "hasState", "hasDistance", "nextFrame", "contains", "hasLanes")


def _random_graph(rng: np.random.Generator) -> KnowledgeGraph:
    n_ent = int(rng.integers(8, 31))
    n_rel = int(rng.integers(2, 5))
    relations = [str(r) for r in rng.choice(_RELATION_POOL, size=n_rel, replace=False)]
    names = [f"n{i:02d}" for i in range(n_ent)]
    target = int(rng.integers(2 * n_ent, 4 * n_ent))
    triples = set()
    while len(triples) < target:
        s, o = (int(x) for x in rng.choice(n_ent, size=2, replace=False))
        triples.add(Triple(names[s], relations[int(rng.integers(n_rel))], names[o]))
    return KnowledgeGraph(triples=frozenset(triples))


def _complex_score(model, si: int, ri: int, oi: int) -> float:
    """Score from first principles: Re(<e_s, w_r, conj(e_o)>)."""
    e_s = model.ent_re[si] + 1j * model.ent_im[si]
    w_r = model.rel_re[ri] + 1j * model.rel_im[ri]
    e_o = model.ent_re[oi] + 1j * model.ent_im[oi]
    return float(np.sum(e_s * w_r * np.conj(e_o)).real)


def _brute_force_ranks(model, test_triples, known):
    ranks = []
    for t in test_triples:
        si = model.entity_index[t.subject]
        ri = model.relation_index[t.relation]
        oi = model.entity_index[t.object]
        true_score = _complex_score(model, si, ri, oi)

        obj_rank = 1
        for cand, name in enumerate(model.entities):
            if cand == oi or Triple(t.subject, t.relation, name) in known:
                continue
            if _complex_score(model, si, ri, cand) >= true_score:
                obj_rank += 1

        subj_rank = 1
        for cand, name in enumerate(model.entities):
            if cand == si or Triple(name, t.relation, t.object) in known:
                continue
            if _complex_score(model, cand, ri, oi) >= true_score:
                subj_rank += 1

        ranks.append((subj_rank, obj_rank))
    return ranks


class TestFilteredRankingOracle:
    def test_ranks_match_brute_force_on_random_graphs(self):
        start = time.monotonic()
        for case in range(10):
            rng = np.random.default_rng(300 + case)
            kg = _random_graph(rng)
            model = init_embeddings(kg, k=8, seed=case)
            ordered = kg.sorted_triples()
            n_test = max(2, len(ordered) // 5)
            picks = rng.choice(len(ordered), size=n_test, replace=False)
            test_triples = [ordered[int(i)] for i in sorted(picks)]

            report = evaluate_ranking(model, test_triples, kg.triples)
            expected = _brute_force_ranks(model, report.triples, set(kg.triples))
            assert list(report.ranks) == expected

            flat = [r for pair in expected for r in pair]
            assert report.mrr == pytest.approx(sum(1.0 / r for r in flat) / len(flat), rel=1e-12)
            assert report.mean_rank == pytest.approx(sum(flat) / len(flat), rel=1e-12)
            assert report.hits_at_1 == pytest.approx(
                sum(r <= 1 for r in flat) / len(flat), rel=1e-12
            )
        assert time.monotonic() - start < 30.0


# --- Memorization capacity ----------------------------------------------


class TestSmallGraphMemorization:
    def test_fifty_random_triples_are_memorized(self):
        start = time.monotonic()
        rng = np.random.default_rng(42)
        entities = [f"e{i:02d}" for i in range(20)]
        relations = ("includes", "hasState", "hasDistance", "nextFrame")
        triples = set()
        while len(triples) < 50:
            s, o = (int(x) for x in rng.choice(20, size=2, replace=False))
            triples.add(Triple(entities[s], relations[int(rng.integers(4))], entities[o]))
        kg = KnowledgeGraph(triples=frozenset(triples))
        ordered = tuple(kg.sorted_triples())
        split = TripleSplit(kg=kg, train=ordered, validation=ordered)
        config = TrainingConfig(
            k=32,
            eta=10,
            learning_rate=0.05,
            batch_size=64,
            max_epochs=2000,
            check_every=50,
            patience=40,
            seed=0,
        )
        result = train(split, config)
        assert result.best_mrr >= 0.95
        assert result.epochs_run <= 2000
        assert time.monotonic() - start < 60.0


# --- Posterior identities -----------------------------------------------

_EVIDENCE_POOL = (
    ("includes", "VehDecelerating"),
    ("includes", "VehStopped"),
    ("includes", "VehAccelerating"),
    ("includes", "VehContinuousMovement"),
    ("thereIs", "ZebraCrossing"),
    ("hasLanes", "LaneCount_1"),
    ("hasLanes", "LaneCount_2"),
    ("hasLanes", "LaneCount_3"),
)

_OCCLUDED = Hypothesis(SceneLabel.PEDESTRIAN_OCCLUDED)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _planted_model(prior_p: float, factor_probs: dict):
    """Model whose calibrated probabilities equal the requested values.

    ``factor_probs`` maps (relation, object) to (marginal, conditional);
    the prior is planted on the scene-label triple of the occluded class.
    """
    score_map = {
        (ROAD_SCENE, "contains", SceneLabel.PEDESTRIAN_OCCLUDED.value): _logit(prior_p)
    }
    for (rel, obj), (marginal, conditional) in factor_probs.items():
        score_map[(ROAD_SCENE, rel, obj)] = _logit(marginal)
        score_map[(PROTO_OCCLUDED, rel, obj)] = _logit(conditional)
    return model_with_scores(score_map)


def _items(pairs) -> list[EvidenceItem]:
    return [
        EvidenceItem(relation=rel, object=obj, source=EvidenceSource.CONTEXT)
        for rel, obj in pairs
    ]


class TestPosteriorIdentities:
    def test_empty_evidence_reproduces_the_prior_exactly(self):
        for prior_p in (0.05, 0.3, 0.643, 0.95):
            model = _planted_model(prior_p, {_EVIDENCE_POOL[0]: (0.5, 0.5)})
            report = posterior(model, _OCCLUDED, [])
            assert report.raw == report.prior
            assert report.clamped == report.prior
            assert report.denominator == 1.0
            assert report.factors == ()

    def test_neutral_evidence_leaves_the_posterior_at_the_prior(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            picks = [_EVIDENCE_POOL[int(i)] for i in rng.choice(len(_EVIDENCE_POOL), size=n, replace=False)]
            probs = {}
            for pair in picks:
                p = float(rng.uniform(0.05, 0.95))
                probs[pair] = (p, p)
            model = _planted_model(float(rng.uniform(0.05, 0.95)), probs)
            report = posterior(model, _OCCLUDED, _items(picks))
            assert abs(report.raw - report.prior) < 1e-9
            for factor in report.factors:
                assert factor.ratio == pytest.approx(1.0, abs=1e-12)

    def test_posterior_is_monotone_in_each_likelihood_ratio(self):
        rng = np.random.default_rng(505)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            picks = [_EVIDENCE_POOL[int(i)] for i in rng.choice(len(_EVIDENCE_POOL), size=n, replace=False)]
            prior_p = float(rng.uniform(0.05, 0.95))
            probs = {
                pair: (float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.9)))
                for pair in picks
            }
            items = _items(picks)
            base = posterior(_planted_model(prior_p, probs), _OCCLUDED, items)

            bump = picks[int(rng.integers(n))]
            marginal, conditional = probs[bump]

            raised = dict(probs)
            raised[bump] = (
                marginal,
                conditional + float(rng.uniform(0.01, 0.95 - conditional)),
            )
            higher = posterior(_planted_model(prior_p, raised), _OCCLUDED, items)
            assert higher.raw > base.raw

            diluted = dict(probs)
            diluted[bump] = (
                marginal + float(rng.uniform(0.01, 0.96 - marginal)),
                conditional,
            )
            lower = posterior(_planted_model(prior_p, diluted), _OCCLUDED, items)
            assert lower.raw < base.raw


# --- Planted-corpus benchmark -------------------------------------------


@pytest.fixture(scope="module")
def benchmark_outcome():
    corpus = generate_corpus(default_config(), seed=0)
    start = time.monotonic()
    report = run_experiment(corpus, headline_spec())
    return report, time.monotonic() - start


class TestOccludedPedestrianBenchmark:
    def test_virtual_trained_occluded_f1_clears_the_bar(self, benchmark_outcome):
        report, _ = benchmark_outcome
        assert report.f1 >= 0.85

    def test_report_is_internally_consistent(self, benchmark_outcome):
        report, _ = benchmark_outcome
        assert report.spec_echo["label"] == "Virtual->Virtual"
        assert report.n_frames == report.confusion.total
        assert report.calibration["warning"] is False
        core = compute_metrics(report.confusion)
        assert (report.precision, report.recall, report.f1) == (
            core.precision,
            core.recall,
            core.f1,
        )

    def test_runs_inside_the_time_budget(self, benchmark_outcome):
        _, duration = benchmark_outcome
        assert duration < 300.0


# --- Cross-environment contrast -----------------------------------------


@pytest.fixture(scope="module")
def contrast_outcome():
    corpus = asymmetric_corpus(seed=0)
    start = time.monotonic()
    informative = run_experiment(corpus, headline_spec())
    uninformative = run_experiment(corpus, headline_spec((Environment.REAL,)))
    return informative, uninformative, time.monotonic() - start


class TestEnvironmentContrast:
    def test_informative_training_beats_uninformative_by_a_wide_margin(
        self, contrast_outcome
    ):
        informative, uninformative, _ = contrast_outcome
        assert informative.f1 - uninformative.f1 >= 0.1

    def test_both_runs_share_the_test_fold(self, contrast_outcome):
        informative, uninformative, _ = contrast_outcome
        assert informative.n_frames == uninformative.n_frames
        assert informative.spec_echo["label"] == "Virtual->Virtual"
        assert uninformative.spec_echo["label"] == "Real->Virtual"

    def test_runs_inside_the_time_budget(self, contrast_outcome):
        _, _, duration = contrast_outcome
        assert duration < 600.0


# --- Metric formulas ----------------------------------------------------


class TestMetricFormulas:
    def test_matches_exact_rational_formulas_for_all_small_counts(self):
        for tp in range(21):
            for fp in range(21):
                for fn in range(21):
                    got = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=3))
                    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
                    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
                    assert got.precision == float(precision)
                    assert got.recall == float(recall)
                    if tp == 0:
                        assert got.f1 == 0.0
                    else:
                        harmonic = Fraction(2 * tp, 2 * tp + fp + fn)
                        assert got.f1 == pytest.approx(float(harmonic), rel=1e-12)

    def test_true_negatives_never_enter(self):
        for tn in (0, 1, 9, 10**6):
            assert compute_metrics(ConfusionMatrix(2, 3, 4, tn)) == compute_metrics(
                ConfusionMatrix(2, 3, 4, 0)
            )


# --- Deterministic reruns -----------------------------------------------

_GEN_CONFIG = """\
seed = 4
n_scenes.Real = 5
n_scenes.Virtual = 5
frames_per_scene.min = 5
frames_per_scene.max = 8
"""

_SPEC_CONFIG = """\
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


def _run_pipeline(base: Path) -> dict[str, bytes]:
    """gen -> build-kg -> train -> experiment, returning every artifact."""
    base.mkdir()
    gen_cfg = base / "gen.txt"
    spec_cfg = base / "spec.txt"
    gen_cfg.write_text(_GEN_CONFIG, encoding="utf-8")
    spec_cfg.write_text(_SPEC_CONFIG, encoding="utf-8")
    corpus = base / "corpus"
    kg_path = base / "kg.tsv"
    model_path = base / "model.ckpt"
    experiment = base / "experiment"
    assert main(["gen", "--out", str(corpus), "--config", str(gen_cfg)]) == EXIT_OK
    assert main(["build-kg", "--corpus", str(corpus), "--out", str(kg_path)]) == EXIT_OK
    assert (
        main(
            [
                "train",
                "--kg",
                str(kg_path),
                "--out",
                str(model_path),
                "--k",
                "8",
                "--eta",
                "2",
                "--lr",
                "0.05",
                "--batch",
                "256",
                "--max-epochs",
                "3",
                "--check-every",
                "1",
                "--seed",
                "0",
            ]
        )
        == EXIT_OK
    )
    assert (
        main(["experiment", "--corpus", str(corpus), "--out", str(experiment), "--spec", str(spec_cfg)])
        == EXIT_OK
    )
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*"))
        if p.is_file()
    }


class TestDeterministicPipeline:
    def test_full_cli_chain_is_byte_identical_across_reruns(self, tmp_path):
        first = _run_pipeline(tmp_path / "one")
        second = _run_pipeline(tmp_path / "two")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"artifact {name} differs between reruns"


# --- Lossless round trips -----------------------------------------------


class TestLosslessRoundTrips:
    def test_xml_survives_serialize_parse_on_a_large_corpus(self):
        config = dataclasses.replace(
            default_config(),
            n_scenes={Environment.REAL: 500, Environment.VIRTUAL: 500},
        )
        docs = generate_corpus(config, seed=77)
        assert len(docs) == 1000
        for doc in docs:
            assert parse_scene_xml(serialize_scene_xml(doc)) == doc

    def test_checkpoint_restores_bytes_and_scores_exactly(self):
        entities = tuple(f"e{i:02d}" for i in range(12))
        relations = ("hasState", "includes")
        model = init_tables(entities, relations, k=6, seed=9)
        model.calibration = (1.75, -0.4)
        blob, sidecar = save_checkpoint(model)
        loaded = load_checkpoint(blob, sidecar)

        assert loaded.entities == model.entities
        assert loaded.relations == model.relations
        assert loaded.calibration == model.calibration
        for restored, original in (
            (loaded.ent_re, model.ent_re),
            (loaded.ent_im, model.ent_im),
            (loaded.rel_re, model.rel_re),
            (loaded.rel_im, model.rel_im),
        ):
            assert restored.dtype == np.float64
            assert np.array_equal(restored, original)

        rng = np.random.default_rng(1)
        for _ in range(50):
            s, o = (int(x) for x in rng.choice(len(entities), size=2, replace=False))
            r = relations[int(rng.integers(len(relations)))]
            assert score_triple(loaded, entities[s], r, entities[o]) == score_triple(
                model, entities[s], r, entities[o]
            )

        assert save_checkpoint(loaded) == (blob, sidecar)
