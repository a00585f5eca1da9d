"""Trainer pieces: Adam, self-adversarial loss, corruptions, gradient scatter, training loop."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlukg.kg import TripleSplit, build_linked_kg
from occlukg.kge.model import (
    TABLES,
    _object_partials,
    _relation_partials,
    _score_arrays,
    _subject_partials,
    init_embeddings,
    score_batch,
    score_gradient,
    score_triple,
)
from occlukg.kge.train import (
    AdamState,
    TrainingConfig,
    _batch_step,
    _sum_rows,
    adam_step,
    corrupt_batch,
    self_adversarial_loss,
    train,
)

# The submodule itself: ``occlukg.kge.train`` as an attribute is the re-exported function.
train_mod = importlib.import_module("occlukg.kge.train")


class TestTrainingConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.k == 150
        assert cfg.eta == 15
        assert cfg.learning_rate == 0.0005
        assert cfg.batch_size == 8000
        assert cfg.max_epochs == 500
        assert cfg.check_every == 10
        assert cfg.patience == 5

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", 0),
            ("eta", 0),
            ("learning_rate", 0.0),
            ("batch_size", 0),
            ("max_epochs", 0),
            ("check_every", 0),
            ("patience", 0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            TrainingConfig(**{field: value})


class TestAdam:
    def test_first_step_closed_form(self):
        # with m=v=0, one step moves by -lr * g / (|g| + eps) elementwise
        params = np.array([1.0, -2.0, 0.5])
        grads = np.array([1.0, -3.0, 0.25])
        state = AdamState.for_params(params)
        before = params.copy()
        adam_step(state, params, grads, lr=0.001)
        expected = before - 0.001 * grads / (np.abs(grads) + 1e-8)
        assert np.allclose(params, expected, atol=1e-12)

    def test_scalar_first_step_magnitude(self):
        params = np.array([0.0])
        state = AdamState.for_params(params)
        adam_step(state, params, np.array([1.0]), lr=0.001)
        assert params[0] == pytest.approx(-0.001, rel=1e-7)

    def test_constant_gradient_three_steps(self):
        # independent recomputation of the bias-corrected recurrence
        lr, g = 0.01, 2.0
        params = np.array([0.0])
        state = AdamState.for_params(params)
        m = v = 0.0
        x = 0.0
        for t in range(1, 4):
            adam_step(state, params, np.array([g]), lr)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            x -= lr * m_hat / (math.sqrt(v_hat) + 1e-8)
            assert params[0] == pytest.approx(x, rel=1e-12)

    def test_state_advances(self):
        params = np.zeros(2)
        state = AdamState.for_params(params)
        adam_step(state, params, np.ones(2), lr=0.1)
        assert state.t == 1
        assert np.all(state.m > 0)
        adam_step(state, params, np.ones(2), lr=0.1)
        assert state.t == 2

    def test_shape_mismatch(self):
        state = AdamState.for_params(np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, np.zeros(3), np.zeros(4), lr=0.1)

    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, 2.0])
        state = AdamState.for_params(params)
        adam_step(state, params, np.zeros(2), lr=0.1)
        assert np.array_equal(params, np.array([1.0, 2.0]))

    def test_in_place_matches_the_expression_form_bit_for_bit(self):
        # the update written as whole-array expressions, rebinding m and v
        rng = np.random.default_rng(11)
        params = rng.normal(size=(40, 6))
        expected, m, v = params.copy(), np.zeros_like(params), np.zeros_like(params)
        state = AdamState.for_params(params)
        moments = (state.m, state.v)
        for t in range(1, 51):
            grads = rng.normal(size=params.shape) * 10.0 ** rng.integers(-6, 3)
            returned = adam_step(state, params, grads, lr=0.01)
            m = 0.9 * m + (1.0 - 0.9) * grads
            v = 0.999 * v + (1.0 - 0.999) * grads * grads
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            expected -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert returned[0] is params and returned[1] is state
        assert state.m is moments[0] and state.v is moments[1]
        assert state.t == 50
        assert np.array_equal(params, expected)
        assert np.array_equal(state.m, m)
        assert np.array_equal(state.v, v)


def one_row_loss(f_pos, f_neg):
    """The batched loss on a one-row batch (n = 1, so no 1/n), as scalars and one row."""
    loss, d_pos, d_neg = self_adversarial_loss(
        np.array([f_pos], dtype=float), np.asarray([f_neg], dtype=float)
    )
    return loss, float(d_pos[0]), d_neg[0]


class TestSelfAdversarialLoss:
    def test_zero_scores_hand_value(self):
        # softplus(0) for the positive plus weight-1 softplus(0) for the
        # single negative: 2 ln 2
        loss, d_pos, d_neg = one_row_loss(0.0, [0.0])
        assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert d_pos == pytest.approx(-0.5)
        assert np.allclose(d_neg, [0.5])

    def test_equal_negatives_share_weight(self):
        loss, _, d_neg = one_row_loss(0.0, [0.0, 0.0])
        assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert np.allclose(d_neg, [0.25, 0.25])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            f_pos = float(rng.normal())
            f_neg = rng.normal(size=4)
            loss, d_pos, d_neg = one_row_loss(f_pos, f_neg)
            w = np.exp(f_neg)
            w /= w.sum()
            expected = -math.log(1 / (1 + math.exp(-f_pos))) - float(
                np.sum(w * np.log(1 / (1 + np.exp(f_neg))))
            )
            assert loss == pytest.approx(expected, rel=1e-10)
            assert d_pos == pytest.approx(1 / (1 + math.exp(-f_pos)) - 1, rel=1e-10)
            assert np.allclose(d_neg, w / (1 + np.exp(-f_neg)), rtol=1e-10)

    def test_extreme_scores_stay_finite(self):
        loss, d_pos, d_neg = one_row_loss(-500.0, [700.0, -700.0])
        assert np.isfinite(loss)
        assert np.isfinite(d_pos)
        assert np.all(np.isfinite(d_neg))

    def test_needs_a_negative(self):
        with pytest.raises(ValueError):
            one_row_loss(0.0, [])

    def test_batch_is_the_mean_of_its_rows(self):
        rng = np.random.default_rng(5)
        f_pos = rng.normal(size=6)
        f_neg = rng.normal(size=(6, 3))
        loss, d_pos, d_neg = self_adversarial_loss(f_pos, f_neg)
        rows = [one_row_loss(f_pos[i], f_neg[i]) for i in range(6)]
        assert loss == pytest.approx(np.mean([row[0] for row in rows]), rel=1e-12)
        assert np.allclose(d_pos, [row[1] / 6 for row in rows], rtol=1e-12)
        assert np.allclose(d_neg, [row[2] / 6 for row in rows], rtol=1e-12)

    def test_gradient_matches_finite_difference(self):
        # the negative weights are treated as constants (stop-gradient), so
        # d/df_i is w_i * sigmoid(f_i), not the full softmax derivative
        f_pos, f_neg = 0.3, np.array([0.5, -1.0, 0.1])
        _, d_pos, d_neg = one_row_loss(f_pos, f_neg)
        h = 1e-6
        up, _, _ = one_row_loss(f_pos + h, f_neg)
        down, _, _ = one_row_loss(f_pos - h, f_neg)
        assert d_pos == pytest.approx((up - down) / (2 * h), rel=1e-5)
        for i in range(3):
            w = np.exp(f_neg)
            w /= w.sum()
            bumped = f_neg.copy()
            bumped[i] += h
            up = float(np.sum(w * np.logaddexp(0.0, bumped)))
            bumped[i] -= 2 * h
            down = float(np.sum(w * np.logaddexp(0.0, bumped)))
            assert d_neg[i] == pytest.approx((up - down) / (2 * h), rel=1e-4)


@pytest.fixture(scope="module")
def small_kg():
    from occlukg.synth import default_config, generate_corpus

    return build_linked_kg(generate_corpus(default_config(), seed=1)[:3])


class TestCorruptions:
    def test_never_returns_the_positive(self, small_kg):
        rng = np.random.default_rng(0)
        pos = small_kg.to_index_array()[:1]
        for _ in range(200):
            for cand in corrupt_batch(pos, eta=4, n_entities=small_kg.n_entities, rng=rng):
                assert tuple(cand) != tuple(pos[0])

    def test_exactly_one_side_replaced(self, small_kg):
        rng = np.random.default_rng(1)
        pos = small_kg.to_index_array()[5:6]
        s, r, o = (int(x) for x in pos[0])
        for cand in corrupt_batch(pos, eta=50, n_entities=small_kg.n_entities, rng=rng):
            cs, cr, co = (int(x) for x in cand)
            assert cr == r
            assert (cs == s) != (co == o)  # one side intact, one replaced

    def test_both_sides_get_replaced_over_time(self, small_kg):
        rng = np.random.default_rng(2)
        pos = small_kg.to_index_array()[:1]
        s, r, o = (int(x) for x in pos[0])
        cands = corrupt_batch(pos, eta=100, n_entities=small_kg.n_entities, rng=rng)
        assert any(c[0] != s for c in cands)
        assert any(c[2] != o for c in cands)

    def test_deterministic_under_seed(self, small_kg):
        pos = small_kg.to_index_array()[3:4]
        n = small_kg.n_entities
        a = corrupt_batch(pos, 8, n, np.random.default_rng(9))
        b = corrupt_batch(pos, 8, n, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejects_tiny_vocabulary(self):
        from occlukg.kg import KnowledgeGraph, Triple

        kg = KnowledgeGraph(triples=frozenset({Triple("a", "nextFrame", "a")}))
        with pytest.raises(ValueError, match="2 entities"):
            corrupt_batch(
                np.zeros((1, 3), dtype=np.int64), 1, kg.n_entities, np.random.default_rng(0)
            )

    def test_batch_variant_shape_and_sides(self, small_kg):
        rng = np.random.default_rng(3)
        pos = small_kg.to_index_array()[:10]
        neg = corrupt_batch(pos, eta=6, n_entities=small_kg.n_entities, rng=rng)
        assert neg.shape == (60, 3)
        expanded = np.repeat(pos, 6, axis=0)
        assert np.array_equal(neg[:, 1], expanded[:, 1])  # relation untouched
        subject_changed = neg[:, 0] != expanded[:, 0]
        object_changed = neg[:, 2] != expanded[:, 2]
        assert np.array_equal(subject_changed, ~object_changed)
        assert np.all(neg[neg[:, 0] != expanded[:, 0], 0] < small_kg.n_entities)


class TestGradientScatter:
    def test_repeated_rows_sum_into_each_table(self, small_kg):
        model = init_embeddings(small_kg, 6, seed=3)
        base = small_kg.to_index_array()[:3]
        (s0, r0, o0), (_, r1, _), (s2, r2, o2) = ([int(x) for x in row] for row in base)
        assert s0 != o0 and s2 != o2
        x = next(e for e in range(small_kg.n_entities) if e not in {s0, o0, s2, o2})
        # a positive twice, a self-loop positive, replacements equal to the
        # kept entity, and x as a replacement under every positive
        pos = np.array([[s0, r0, o0], [s0, r0, o0], [s0, r1, s0], [s2, r2, o2]])
        neg = np.array([
            [o0, r0, o0], [s0, r0, x], [x, r0, o0],
            [x, r0, o0], [s0, r0, s0], [s0, r0, x],
            [x, r1, s0], [s0, r1, x], [o0, r1, s0],
            [x, r2, o2], [s2, r2, x], [s2, r2, s2],
        ])
        # as corrupt_batch makes them: exactly one entity differs from the positive
        assert np.array_equal((neg != np.repeat(pos, 3, axis=0)).sum(axis=1), np.ones(12))
        _, _, _, grads = _batch_step(model, pos, neg)

        idx = np.concatenate((pos, neg))
        scores = score_batch(model, idx)
        _, d_pos, d_neg = self_adversarial_loss(scores[:4], scores[4:].reshape(4, 3))
        g = np.concatenate((d_pos, d_neg.ravel()))
        expected = {name: np.zeros_like(getattr(model, name)) for name in TABLES}
        for (si, ri, oi), gi in zip(idx, g):
            partials = score_gradient(
                model, model.entities[si], model.relations[ri], model.entities[oi]
            )
            for part in ("re", "im"):
                expected[f"ent_{part}"][si] += gi * partials[f"s_{part}"]
                expected[f"ent_{part}"][oi] += gi * partials[f"o_{part}"]
                expected[f"rel_{part}"][ri] += gi * partials[f"r_{part}"]
        assert len(grads) == len(TABLES)
        for name, got in zip(TABLES, grads):
            assert got.shape == expected[name].shape
            assert np.allclose(got, expected[name], rtol=1e-12, atol=1e-15), name

    @pytest.mark.parametrize("eta", [1, 4])
    def test_scores_and_loss_match_the_expanded_rows(self, small_kg, eta):
        model = init_embeddings(small_kg, 6, seed=5)
        train_idx = small_kg.to_index_array()[:10]
        rng = np.random.default_rng(eta)
        for start in range(0, 10, 4):  # batches of 4, 4 and a short last one of 2
            pos = train_idx[start : start + 4]
            neg = corrupt_batch(pos, eta, small_kg.n_entities, rng)
            loss, pos_scores, neg_scores, _ = _batch_step(model, pos, neg)

            n = pos.shape[0]
            scores = score_batch(model, np.concatenate((pos, neg)))
            expected_neg = scores[n:].reshape(n, eta)
            np.testing.assert_allclose(pos_scores, scores[:n], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(neg_scores, expected_neg, rtol=1e-12, atol=1e-15)
            expected_loss, _, _ = self_adversarial_loss(scores[:n], expected_neg)
            assert loss == pytest.approx(expected_loss, rel=1e-12)

    def test_rows_add_in_in_rows_order(self):
        # input order would give 2**53 + 1 + 1 == 2**53; in_rows order
        # adds the two ones first
        values = np.array([[1.0], [1.0], [2.0**53]])
        out = _sum_rows(values, np.zeros(3, dtype=np.int64), np.array([2, 0, 1]), np.ones(3), 1)
        assert out[0, 0] == 2.0**53 + 2


def reference_partials(s_re, s_im, r_re, r_im, o_re, o_im):
    """The six score partials, written out as one dict."""
    return {
        "s_re": r_re * o_re + r_im * o_im,
        "s_im": r_re * o_im - r_im * o_re,
        "r_re": s_re * o_re + s_im * o_im,
        "r_im": s_re * o_im - s_im * o_re,
        "o_re": s_re * r_re - s_im * r_im,
        "o_im": s_im * r_re + s_re * r_im,
    }


def reference_batch_step(model, pos, neg):
    """_batch_step as whole-batch arrays: six-key partials, np.block, one gather and einsum."""
    n, k = pos.shape[0], model.k
    eta = neg.shape[0] // n
    s, r, o = pos[:, 0], pos[:, 1], pos[:, 2]
    s_re, s_im = model.ent_re[s], model.ent_im[s]
    r_re, r_im = model.rel_re[r], model.rel_im[r]
    o_re, o_im = model.ent_re[o], model.ent_im[o]
    p = reference_partials(s_re, s_im, r_re, r_im, o_re, o_im)
    side_partials = np.block([[p["s_re"], p["s_im"]], [p["o_re"], p["o_im"]]])

    owner = np.repeat(np.arange(n), eta)
    subject_side = neg[:, 0] != s[owner]
    replacement = np.where(subject_side, neg[:, 0], neg[:, 2])
    partial_row = np.where(subject_side, owner, owner + n)
    ent = np.hstack((model.ent_re, model.ent_im))
    pos_scores = _score_arrays(s_re, s_im, r_re, r_im, o_re, o_im)
    neg_scores = np.einsum(
        "ij,ij->i", ent[replacement], side_partials[partial_row]
    ).reshape(n, eta)
    loss, d_pos, d_neg = self_adversarial_loss(pos_scores, neg_scores)

    g, g_c = d_pos[:, None], d_neg.ravel()
    a = _sum_rows(ent, partial_row, replacement, g_c, 2 * n)
    ks_re, ks_im = g * s_re + a[:n, :k], g * s_im + a[:n, k:]
    ko_re, ko_im = g * o_re + a[n:, :k], g * o_im + a[n:, k:]
    kept = reference_partials(ks_re, ks_im, r_re, r_im, ko_re, ko_im)
    rel_s = reference_partials(ks_re, ks_im, r_re, r_im, o_re, o_im)
    rel_o = reference_partials(s_re, s_im, r_re, r_im, a[n:, :k], a[n:, k:])
    ent_values = np.vstack((
        np.block([[kept["s_re"], kept["s_im"]], [kept["o_re"], kept["o_im"]]]),
        side_partials,
    ))
    grad_ent = _sum_rows(
        ent_values,
        np.concatenate((s, o, replacement)),
        np.concatenate((np.arange(2 * n), 2 * n + partial_row)),
        np.concatenate((np.ones(2 * n), g_c)),
        model.ent_re.shape[0],
    )
    grad_rel = _sum_rows(
        np.hstack((rel_s["r_re"] + rel_o["r_re"], rel_s["r_im"] + rel_o["r_im"])),
        r, np.arange(n), np.ones(n), model.rel_re.shape[0],
    )
    grads = (grad_ent[:, :k], grad_ent[:, k:], grad_rel[:, :k], grad_rel[:, k:])
    return loss, pos_scores, neg_scores, grads


class TestBatchStepOracle:
    # 300 positives give 300 and 4,500 corruption rows: at 7 rows a block
    # both end in a partial block, and 4,500 also crosses the default
    # block size into a partial second block.
    @pytest.mark.parametrize("block_rows", [7, train_mod._SCORE_BLOCK_ROWS])
    @pytest.mark.parametrize("eta", [1, 15])
    def test_bit_equal_to_the_whole_batch_formulation(
        self, small_kg, monkeypatch, block_rows, eta
    ):
        monkeypatch.setattr(train_mod, "_SCORE_BLOCK_ROWS", block_rows)
        model = init_embeddings(small_kg, 8, seed=17)
        rng = np.random.default_rng(eta)
        train_idx = small_kg.to_index_array()
        pos = train_idx[rng.integers(train_idx.shape[0], size=300)]
        neg = corrupt_batch(pos, eta, small_kg.n_entities, rng)
        assert neg.shape[0] % block_rows != 0

        got = _batch_step(model, pos, neg)
        want = reference_batch_step(model, pos, neg)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        assert len(got[3]) == len(want[3]) == len(TABLES)
        for name, g_got, g_want in zip(TABLES, got[3], want[3]):
            assert np.array_equal(g_got, g_want), name


class TestPartialHelpers:
    """The per-side partial helpers and score_gradient, bit for bit against reference_partials."""

    @staticmethod
    def assert_helpers_match(s_re, s_im, r_re, r_im, o_re, o_im):
        want = reference_partials(s_re, s_im, r_re, r_im, o_re, o_im)
        got = {}
        got["s_re"], got["s_im"] = _subject_partials(r_re, r_im, o_re, o_im)
        got["r_re"], got["r_im"] = _relation_partials(s_re, s_im, o_re, o_im)
        got["o_re"], got["o_im"] = _object_partials(s_re, s_im, r_re, r_im)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].shape == s_re.shape
            assert np.array_equal(got[key], want[key]), key

    def test_single_rows_and_score_gradient(self, small_kg):
        model = init_embeddings(small_kg, 8, seed=23)
        rng = np.random.default_rng(23)
        idx = small_kg.to_index_array()
        for si, ri, oi in idx[rng.integers(len(idx), size=20)]:
            rows = (model.ent_re[si], model.ent_im[si], model.rel_re[ri], model.rel_im[ri],
                    model.ent_re[oi], model.ent_im[oi])
            self.assert_helpers_match(*rows)
            got = score_gradient(
                model, model.entities[si], model.relations[ri], model.entities[oi]
            )
            want = reference_partials(*rows)
            assert got.keys() == want.keys()
            for key in want:
                assert np.array_equal(got[key], want[key]), key

    def test_blocks_of_rows(self, small_kg):
        model = init_embeddings(small_kg, 8, seed=29)
        rng = np.random.default_rng(29)
        idx = small_kg.to_index_array()
        idx = idx[rng.integers(len(idx), size=300)]
        s, r, o = idx[:, 0], idx[:, 1], idx[:, 2]
        self.assert_helpers_match(
            model.ent_re[s], model.ent_im[s], model.rel_re[r], model.rel_im[r],
            model.ent_re[o], model.ent_im[o],
        )


def make_split(corpus_seed=1, n_docs=3, validation=True):
    from occlukg.synth import default_config, generate_corpus

    docs = generate_corpus(default_config(), seed=corpus_seed)[:n_docs]
    kg = build_linked_kg(docs)
    triples = tuple(kg.sorted_triples())
    val = triples[:: max(len(triples) // 12, 1)][:12] if validation else ()
    return TripleSplit(kg=kg, train=triples, validation=tuple(val))


class TestTrainLoop:
    def test_deterministic(self):
        split = make_split()
        cfg = TrainingConfig(
            k=4, eta=2, learning_rate=0.05, batch_size=256, max_epochs=3,
            check_every=2, patience=2, seed=0,
        )
        a = train(split, cfg)
        b = train(split, cfg)
        assert a.history == b.history
        assert np.array_equal(a.model.ent_re, b.model.ent_re)
        assert np.array_equal(a.model.rel_im, b.model.rel_im)

    def test_history_line_grammar(self):
        split = make_split()
        cfg = TrainingConfig(
            k=4, eta=2, learning_rate=0.05, batch_size=256, max_epochs=4,
            check_every=2, patience=3, seed=0,
        )
        result = train(split, cfg)
        epochs = [ln for ln in result.history if ln.startswith("epoch\t")]
        checks = [ln for ln in result.history if ln.startswith("check\t")]
        assert len(epochs) == result.epochs_run
        assert len(epochs) + len(checks) == len(result.history)
        for ln in epochs:
            _, loss = ln.split("\t")
            float(loss)
        seen_epochs = []
        for ln in checks:
            _, epoch, mrr = ln.split("\t")
            seen_epochs.append(int(epoch))
            assert 0.0 < float(mrr) <= 1.0
        # untrained baseline first, then one check per interval
        assert seen_epochs[0] == 0
        assert all(e % 2 == 0 for e in seen_epochs)

    def test_loss_decreases_on_average(self):
        split = make_split()
        cfg = TrainingConfig(
            k=8, eta=4, learning_rate=0.05, batch_size=512, max_epochs=20,
            check_every=50, patience=5, seed=0,
        )
        result = train(split, cfg)
        losses = [
            float(ln.split("\t")[1]) for ln in result.history if ln.startswith("epoch")
        ]
        assert all(np.isfinite(losses))
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_training_moves_scores_toward_truth(self):
        # no validation: train() then returns the final epoch's model
        # rather than the best validation snapshot
        split = make_split(validation=False)
        cfg = TrainingConfig(
            k=8, eta=4, learning_rate=0.05, batch_size=512, max_epochs=15,
            check_every=50, patience=5, seed=0,
        )
        result = train(split, cfg)
        model0 = init_embeddings(split.kg, cfg.k, cfg.seed)
        some = split.train[:: max(len(split.train) // 30, 1)]
        before = np.mean([score_triple(model0, t.subject, t.relation, t.object) for t in some])
        after = np.mean(
            [score_triple(result.model, t.subject, t.relation, t.object) for t in some]
        )
        assert after > before

    def test_no_validation_runs_all_epochs(self):
        split = make_split(validation=False)
        cfg = TrainingConfig(
            k=4, eta=2, learning_rate=0.05, batch_size=512, max_epochs=3,
            check_every=1, patience=1, seed=0,
        )
        result = train(split, cfg)
        assert result.epochs_run == 3
        assert math.isnan(result.best_mrr)
        assert not any(ln.startswith("check") for ln in result.history)

    def test_patience_stops_early(self):
        split = make_split()
        # lr so small nothing improves over the untrained baseline
        cfg = TrainingConfig(
            k=4, eta=2, learning_rate=1e-12, batch_size=512, max_epochs=50,
            check_every=1, patience=2, seed=0,
        )
        result = train(split, cfg)
        assert result.epochs_run == 2

    def test_best_snapshot_wins(self):
        split = make_split()
        cfg = TrainingConfig(
            k=8, eta=4, learning_rate=0.05, batch_size=512, max_epochs=12,
            check_every=3, patience=4, seed=0,
        )
        result = train(split, cfg)
        checks = [
            float(ln.split("\t")[2]) for ln in result.history if ln.startswith("check")
        ]
        assert result.best_mrr == pytest.approx(max(checks))

    def test_last_epoch_is_checked(self):
        # max_epochs below check_every: the run still ends with a check, so
        # it returns the trained model rather than the untrained snapshot
        split = make_split()
        cfg = TrainingConfig(
            k=8, eta=4, learning_rate=0.05, batch_size=512, max_epochs=5,
            check_every=10, patience=5, seed=0,
        )
        result = train(split, cfg)
        checks = [ln.split("\t") for ln in result.history if ln.startswith("check")]
        assert [int(epoch) for _, epoch, _ in checks] == [0, 5]
        assert float(checks[1][2]) > float(checks[0][2])
        assert result.best_mrr == float(checks[1][2])
        model0 = init_embeddings(split.kg, cfg.k, cfg.seed)
        assert not np.array_equal(result.model.ent_re, model0.ent_re)

    def test_one_epoch_is_one_batch_step_and_a_closed_form_adam_step(self):
        # one epoch of one batch, no validation: the returned model is the
        # initial tables after one Adam step (m = v = 0) on the batch gradient
        split = make_split(validation=False)
        cfg = TrainingConfig(
            k=6, eta=3, learning_rate=0.05, batch_size=10_000, max_epochs=1, seed=4,
        )
        result = train(split, cfg)

        model0 = init_embeddings(split.kg, cfg.k, cfg.seed)
        train_idx = split.kg.to_index_array(split.train)
        assert train_idx.shape[0] <= cfg.batch_size
        rng = np.random.default_rng(cfg.seed)
        pos = train_idx[rng.permutation(train_idx.shape[0])]
        neg = corrupt_batch(pos, cfg.eta, split.kg.n_entities, rng)
        loss, _, _, grads = _batch_step(model0, pos, neg)
        assert result.history == (f"epoch\t{loss!r}",)
        for name, grad in zip(TABLES, grads):
            params = getattr(model0, name)
            m = (1.0 - 0.9) * grad
            v = (1.0 - 0.999) * grad * grad
            step = cfg.learning_rate * (m / (1.0 - 0.9)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-8)
            assert np.array_equal(getattr(result.model, name), params - step), name
        assert not np.array_equal(result.model.ent_re, model0.ent_re)

    def test_empty_training_set_rejected(self):
        split = make_split()
        empty = TripleSplit(kg=split.kg, train=(), validation=())
        with pytest.raises(ValueError, match="no training"):
            train(empty, TrainingConfig(k=2, max_epochs=1))

    def test_history_text_round_trips_floats(self):
        split = make_split()
        cfg = TrainingConfig(
            k=4, eta=2, learning_rate=0.05, batch_size=512, max_epochs=2,
            check_every=1, patience=5, seed=0,
        )
        result = train(split, cfg)
        text = result.history_text()
        assert text.endswith("\n")
        reparsed = text.strip().split("\n")
        assert reparsed == list(result.history)
        losses = [ln for ln in reparsed if ln.startswith("epoch")]
        # repr round-trip: the serialized loss parses back to the same float
        for ln in losses:
            value = float(ln.split("\t")[1])
            assert repr(value) == ln.split("\t")[1]


class TestLossProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-30, max_value=30),
        st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=6),
    )
    def test_finite_and_nonnegative_gradient_signs(self, f_pos, f_neg):
        loss, d_pos, d_neg = one_row_loss(f_pos, f_neg)
        assert np.isfinite(loss)
        assert -1.0 <= d_pos <= 0.0  # pushing the positive up
        assert np.all(d_neg >= 0.0)  # pushing negatives down
        assert np.all(d_neg <= 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-20, max_value=20))
    def test_loss_decreasing_in_positive_score(self, f_pos):
        lo, _, _ = one_row_loss(f_pos, [0.0])
        hi, _, _ = one_row_loss(f_pos + 1.0, [0.0])
        assert hi < lo
