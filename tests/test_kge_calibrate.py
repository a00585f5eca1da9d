"""Score-to-probability calibration: Platt fit and the clamped sigmoid map."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from occlukg import harness
from occlukg.kg import Triple
from occlukg.kge.calibrate import (
    PROBABILITY_FLOOR,
    CalibrationResult,
    calibrate,
    fit_platt,
    triple_probability,
)
from occlukg.kge.model import ComplexModel, score_triple
from occlukg.synth import default_config, generate_corpus

from conftest import model_with_scores

REPO_ROOT = Path(__file__).resolve().parents[1]


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestFitPlatt:
    def test_well_separated_scores(self):
        # positives near +10, negatives near -10: fitted map should be
        # confident on both sides
        rng = np.random.default_rng(0)
        pos = 10.0 + rng.normal(0, 0.5, size=50)
        neg = -10.0 + rng.normal(0, 0.5, size=50)
        result = fit_platt(pos, neg)
        assert not result.warning
        assert result.a > 0
        assert sigmoid(result.a * 10.0 + result.b) >= 0.99
        assert sigmoid(result.a * -10.0 + result.b) <= 0.01

    def test_identical_distributions_give_base_rate(self):
        # scores carry no signal: the fit can only express the class
        # prior, so every mapped probability approaches n_pos/(n_pos+n_neg)
        rng = np.random.default_rng(1)
        shared = rng.normal(0, 1, size=200)
        result = fit_platt(shared, np.concatenate((shared, shared, shared)))
        base_rate = 200 / 800
        mapped = [sigmoid(result.a * s + result.b) for s in shared]
        assert np.mean(mapped) == pytest.approx(base_rate, abs=0.02)

    def test_all_scores_identical_warns_identity(self):
        result = fit_platt([1.5, 1.5], [1.5, 1.5, 1.5])
        assert result.warning
        assert (result.a, result.b) == (1.0, 0.0)
        assert "identical" in result.message

    def test_empty_positives_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_platt([], [0.0])

    def test_empty_negatives_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            fit_platt([0.0], [])

    def test_slope_always_positive(self):
        # even with inverted labels (positives scoring lower) the bound
        # keeps a > 0 so probability order equals score order
        result = fit_platt([-5.0, -4.0], [4.0, 5.0])
        assert result.a > 0

    def test_recovers_known_sigmoid(self):
        # labels drawn from sigma(2s - 1): the fit should land close
        rng = np.random.default_rng(2)
        scores = rng.uniform(-4, 4, size=4000)
        p = 1.0 / (1.0 + np.exp(-(2.0 * scores - 1.0)))
        labels = rng.uniform(size=4000) < p
        result = fit_platt(scores[labels], scores[~labels])
        assert result.a == pytest.approx(2.0, abs=0.15)
        assert result.b == pytest.approx(-1.0, abs=0.15)

    def test_deterministic(self):
        pos, neg = [1.0, 2.0, 3.0], [-1.0, -2.0]
        a = fit_platt(pos, neg)
        b = fit_platt(pos, neg)
        assert (a.a, a.b) == (b.a, b.b)

    def test_separable_boundary_lies_between_the_classes(self):
        # a positive far past the boundary keeps its residual -sigma(-z),
        # so the positives pull on the boundary -b/a as the negatives do
        result = fit_platt([1.0, 2.0, 3.0], [-1.0, -2.0])
        assert abs(-result.b / result.a) < 0.01

    def test_mirrored_separable_boundary_at_zero(self):
        result = fit_platt([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
        assert abs(-result.b / result.a) < 1e-12


@pytest.fixture
def planted_model():
    return model_with_scores(
        {
            ("s0", "r", "o0"): 3.0,
            ("s1", "r", "o1"): 2.0,
            ("s2", "r", "o2"): -1.0,
            ("s3", "r", "o3"): -2.5,
        }
    )


class TestCalibrate:
    def test_sets_model_calibration_in_place(self, planted_model):
        positives = [Triple("s0", "r", "o0"), Triple("s1", "r", "o1")]
        negatives = [Triple("s2", "r", "o2"), Triple("s3", "r", "o3")]
        assert planted_model.calibration == (1.0, 0.0)
        result = calibrate(planted_model, positives, negatives)
        assert planted_model.calibration == (result.a, result.b)
        assert result.a > 0

    def test_probability_order_equals_score_order(self, planted_model):
        positives = [Triple("s0", "r", "o0"), Triple("s1", "r", "o1")]
        negatives = [Triple("s2", "r", "o2"), Triple("s3", "r", "o3")]
        calibrate(planted_model, positives, negatives)
        triples = positives + negatives
        scores = [score_triple(planted_model, t.subject, t.relation, t.object) for t in triples]
        probs = [
            triple_probability(planted_model, t.subject, t.relation, t.object)
            for t in triples
        ]
        assert np.argsort(scores).tolist() == np.argsort(probs).tolist()

    def test_duplicate_triples_deduplicated(self, planted_model):
        pos = [Triple("s0", "r", "o0")] * 5 + [Triple("s1", "r", "o1")]
        neg = [Triple("s2", "r", "o2")]
        result = calibrate(planted_model, pos, neg)
        fresh = planted_model.copy()
        fresh.calibration = (1.0, 0.0)
        result2 = calibrate(fresh, set(pos), neg)
        assert (result.a, result.b) == (result2.a, result2.b)


class TestTripleProbability:
    def test_identity_map_is_plain_sigmoid(self):
        model = model_with_scores({("s0", "r", "o0"): 1.25})
        p = triple_probability(model, "s0", "r", "o0")
        assert p == pytest.approx(sigmoid(1.25), abs=1e-12)

    def test_score_zero_maps_to_half(self):
        model = model_with_scores({("s0", "r", "o0"): 5.0, ("s1", "r", "o1"): 2.0})
        # a cross pair lives in orthogonal dimensions, so it scores 0 and
        # the fresh (1, 0) calibration maps it to exactly 1/2
        assert triple_probability(model, "s0", "r", "o1") == pytest.approx(0.5)

    def test_applies_affine_map(self):
        model = model_with_scores({("s0", "r", "o0"): 2.0})
        model.calibration = (1.5, -0.5)
        p = triple_probability(model, "s0", "r", "o0")
        assert p == pytest.approx(sigmoid(1.5 * 2.0 - 0.5), abs=1e-12)

    def test_clamped_high(self):
        model = model_with_scores({("s0", "r", "o0"): 60.0})
        assert triple_probability(model, "s0", "r", "o0") == 1.0 - PROBABILITY_FLOOR

    def test_clamped_low(self):
        model = model_with_scores({("s0", "r", "o0"): -60.0})
        assert triple_probability(model, "s0", "r", "o0") == PROBABILITY_FLOOR

    def test_unknown_entity_raises(self):
        model = model_with_scores({("s0", "r", "o0"): 1.0})
        with pytest.raises(KeyError):
            triple_probability(model, "nope", "r", "o0")


class TestCalibrationProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=20),
        st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=20),
    )
    def test_fit_always_returns_usable_map(self, pos, neg):
        result = fit_platt(pos, neg)
        assert result.a > 0
        assert np.isfinite(result.a) and np.isfinite(result.b)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-100, max_value=100), st.floats(min_value=0.01, max_value=10),
           st.floats(min_value=-10, max_value=10))
    def test_probability_stays_clamped(self, score, a, b):
        entities = ("x", "y")
        model = ComplexModel(
            entities=entities,
            relations=("r",),
            ent_re=np.array([[score], [1.0]]),
            ent_im=np.zeros((2, 1)),
            rel_re=np.ones((1, 1)),
            rel_im=np.zeros((1, 1)),
            calibration=(a, b),
        )
        p = triple_probability(model, "x", "r", "y")
        assert PROBABILITY_FLOOR <= p <= 1.0 - PROBABILITY_FLOOR

    def test_monotone_in_score(self):
        model = model_with_scores(
            {(f"s{i}", "r", f"o{i}"): s for i, s in enumerate([-3.0, -1.0, 0.5, 2.0, 4.0])}
        )
        model.calibration = (0.8, 0.3)
        probs = [triple_probability(model, f"s{i}", "r", f"o{i}") for i in range(5)]
        assert probs == sorted(probs)


class TestResultType:
    def test_defaults(self):
        r = CalibrationResult(2.0, -1.0)
        assert not r.warning
        assert r.message == ""


def _bce_and_gradient(a, b, pos, neg):
    """Mean BCE of sigma(a*s + b) and its partials (dF/da, dF/db)."""
    scores = np.concatenate((np.asarray(pos, float), np.asarray(neg, float)))
    labels = np.concatenate((np.ones(len(pos)), np.zeros(len(neg))))
    z = a * scores + b
    loss = np.mean(labels * np.logaddexp(0.0, -z) + (1 - labels) * np.logaddexp(0.0, z))
    residual = (expit(z) - labels) / scores.size
    return float(loss), float(residual @ scores), float(residual.sum())


def _lbfgs_reference_bce(pos, neg):
    """BCE reached by the bounded L-BFGS-B call that fit_platt used to make."""

    def objective(x):
        loss, da, db = _bce_and_gradient(x[0], x[1], pos, neg)
        return loss, np.array([da, db])

    res = minimize(
        objective, x0=np.array([1.0, 0.0]), jac=True, method="L-BFGS-B",
        bounds=[(PROBABILITY_FLOOR, None), (None, None)],
        options={"maxiter": 200, "ftol": 1e-8},
    )
    return objective(res.x)[0]


def assert_optimal(pos, neg, result):
    """First-order conditions of the bounded fit, and a BCE no worse than L-BFGS-B's.

    At the optimum two fits differ only in rounding, so the BCE may read
    a few units in the last place above the reference's.
    """
    loss, da, db = _bce_and_gradient(result.a, result.b, pos, neg)
    assert abs(db) <= 1e-9
    assert abs(da) <= 1e-9 or (result.a == PROBABILITY_FLOOR and da >= 0)
    reference = _lbfgs_reference_bce(pos, neg)
    assert loss <= reference + 4 * np.spacing(reference)


def _fixture_score_sets():
    rng = np.random.default_rng(0)
    separated = (10.0 + rng.normal(0, 0.5, size=50), -10.0 + rng.normal(0, 0.5, size=50))
    shared = np.random.default_rng(1).normal(0, 1, size=200)
    rng = np.random.default_rng(2)
    scores = rng.uniform(-4, 4, size=4000)
    labels = rng.uniform(size=4000) < 1.0 / (1.0 + np.exp(-(2.0 * scores - 1.0)))
    return {
        "well_separated": separated,
        "identical_distributions": (shared, np.concatenate((shared, shared, shared))),
        "inverted": ([-5.0, -4.0], [4.0, 5.0]),
        "known_sigmoid": (scores[labels], scores[~labels]),
        "small": ([1.0, 2.0, 3.0], [-1.0, -2.0]),
        "planted_model": ([3.0, 2.0], [-1.0, -2.5]),
    }


@pytest.fixture(scope="module")
def seed0_calibration_scores():
    """The positive and negative scores the harness calibrates on at corpus
    seed 0, under the headline spec with a short training run."""
    captured = []

    def capture(model, positives, negatives):
        captured.append((
            [score_triple(model, *t) for t in sorted(set(positives))],
            [score_triple(model, *t) for t in sorted(set(negatives))],
        ))
        return calibrate(model, positives, negatives)

    corpus = generate_corpus(default_config(), seed=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "calibrate", capture)
        harness.run_experiment(corpus, harness.headline_spec(epochs=20))
    (scores,) = captured
    return scores


class TestNewtonFitIsOptimal:
    @pytest.mark.parametrize("name", sorted(_fixture_score_sets()))
    def test_fixture_sets(self, name):
        pos, neg = _fixture_score_sets()[name]
        result = fit_platt(pos, neg)
        assert not result.warning
        assert type(result.a) is float and type(result.b) is float
        assert_optimal(pos, neg, result)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=20),
        st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=20),
    )
    def test_drawn_sets(self, pos, neg):
        result = fit_platt(pos, neg)
        if result.warning:
            assert np.ptp(pos + neg) == 0.0
            return
        assert_optimal(pos, neg, result)

    def test_seed0_harness_calibration_set(self, seed0_calibration_scores):
        pos, neg = seed0_calibration_scores
        assert len(pos) > 10 and len(neg) > 10
        result = fit_platt(pos, neg)
        assert not result.warning
        assert result.a > PROBABILITY_FLOOR
        assert_optimal(pos, neg, result)

    def test_anti_correlated_set_ends_on_the_floor_at_the_base_rate(self):
        pos, neg = [-5.0, -4.0], [4.0, 5.0]
        result = fit_platt(pos, neg)
        assert result.a == PROBABILITY_FLOOR
        mapped = [sigmoid(result.a * s + result.b) for s in pos + neg]
        assert np.mean(mapped) == pytest.approx(0.5, abs=1e-9)


def test_package_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = (
        "import sys\n"
        "import occlukg, occlukg.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy.optimize' or m.startswith('scipy.optimize.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
