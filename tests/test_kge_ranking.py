"""Filtered ranking evaluation against an exhaustive oracle."""

import numpy as np
import pytest

from occlukg.kg import Triple
from occlukg.kge.model import ComplexModel, init_tables
from occlukg.kge.ranking import RankingReport, evaluate_ranking


def oracle_ranks(model, test, filter_set):
    """Brute force: try every entity in each slot, complex arithmetic."""
    ent = model.ent_re + 1j * model.ent_im
    rel = model.rel_re + 1j * model.rel_im

    def score(s, r, o):
        return float(np.real(np.sum(ent[s] * rel[r] * np.conj(ent[o]))))

    known = set(filter_set)
    out = {}
    for t in sorted(set(test), key=lambda x: (x.subject, x.relation, x.object)):
        s = model.entity_index[t.subject]
        r = model.relation_index[t.relation]
        o = model.entity_index[t.object]
        true = score(s, r, o)
        obj_rank = 1
        for c, name in enumerate(model.entities):
            if c == o or Triple(t.subject, t.relation, name) in known:
                continue
            if score(s, r, c) >= true:
                obj_rank += 1
        subj_rank = 1
        for c, name in enumerate(model.entities):
            if c == s or Triple(name, t.relation, t.object) in known:
                continue
            if score(c, r, o) >= true:
                subj_rank += 1
        out[t] = (subj_rank, obj_rank)
    return out


def random_instance(seed, n_entities, n_relations, n_triples, k=6):
    rng = np.random.default_rng(seed)
    entities = [f"n{i:02d}" for i in range(n_entities)]
    relations = [f"r{i}" for i in range(n_relations)]
    model = init_tables(entities, relations, k, seed)
    triples = set()
    while len(triples) < n_triples:
        s, o = rng.integers(n_entities, size=2)
        r = rng.integers(n_relations)
        triples.add(Triple(entities[s], relations[r], entities[o]))
    triples = sorted(triples, key=lambda t: (t.subject, t.relation, t.object))
    cut = max(1, len(triples) // 4)
    test = triples[:cut]
    return model, test, set(triples)


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "seed,n_ent,n_rel,n_tri",
        [(0, 8, 2, 20), (1, 12, 3, 40), (2, 30, 4, 90), (3, 5, 1, 8), (4, 18, 5, 60)],
    )
    def test_random_graphs(self, seed, n_ent, n_rel, n_tri):
        model, test, filt = random_instance(seed, n_ent, n_rel, n_tri)
        report = evaluate_ranking(model, test, filt)
        expected = oracle_ranks(model, test, filt)
        assert dict(zip(report.triples, report.ranks)) == expected

    def test_zero_model_all_ties(self):
        # every candidate ties at score 0; pessimistic ranks count them all
        entities = ["a", "b", "c", "d"]
        model = ComplexModel(
            entities=tuple(entities),
            relations=("r",),
            ent_re=np.zeros((4, 2)),
            ent_im=np.zeros((4, 2)),
            rel_re=np.zeros((1, 2)),
            rel_im=np.zeros((1, 2)),
        )
        test = [Triple("a", "r", "b")]
        report = evaluate_ranking(model, test, set(test))
        # 4 entities, one filtered (the true one): 1 + 3 remaining ties
        assert report.ranks == ((4, 4),)
        assert report.mrr == 0.25

    def test_extra_filter_triples_improve_rank(self):
        model, test, filt = random_instance(7, 10, 2, 30)
        t = test[0]
        base = dict(zip(*(lambda rep: (rep.triples, rep.ranks))(
            evaluate_ranking(model, test, filt)
        )))[t]
        # filter out every other object candidate: object rank must become 1
        widened = set(filt)
        for name in model.entities:
            if name != t.object:
                widened.add(Triple(t.subject, t.relation, name))
        rep = evaluate_ranking(model, test, widened)
        new = dict(zip(rep.triples, rep.ranks))[t]
        assert new[1] == 1
        assert new[1] <= base[1]

    def test_out_of_vocabulary_filter_entries_ignored(self):
        model, test, filt = random_instance(5, 9, 2, 25)
        noisy = set(filt) | {Triple("not-an-entity", "r0", test[0].object)}
        a = evaluate_ranking(model, test, filt)
        b = evaluate_ranking(model, test, noisy)
        assert a.ranks == b.ranks

    def test_filter_entries_on_every_queried_key(self):
        # every key a test triple queries carries known entities on both
        # sides, entries naming an out-of-vocabulary entity or relation, and
        # the rest of the filter lies on keys no test triple queries
        model, test, filt = random_instance(6, 14, 3, 50)
        noisy = set(filt) | {Triple("oov-subject", "oov-relation", "oov-object")}
        names = model.entities
        for i, t in enumerate(test):
            noisy.add(Triple(t.subject, t.relation, "oov-object"))
            noisy.add(Triple("oov-subject", t.relation, t.object))
            noisy.add(Triple(t.subject, "oov-relation", t.object))
            noisy.update(Triple(t.subject, t.relation, o) for o in names[i % 2 :: 2])
            noisy.update(Triple(s, t.relation, t.object) for s in names[1 - i % 2 :: 2])
        report = evaluate_ranking(model, test, noisy)
        assert dict(zip(report.triples, report.ranks)) == oracle_ranks(model, test, noisy)


class TestExactFixtures:
    @staticmethod
    def chain_model():
        # score(x, r, y) = v_x * v_y with v = 6..1, one real relation
        entities = ("e1", "e2", "e3", "e4", "e5", "e6")
        v = np.array([[6.0], [5.0], [4.0], [3.0], [2.0], [1.0]])
        return ComplexModel(
            entities=entities,
            relations=("r",),
            ent_re=v,
            ent_im=np.zeros((6, 1)),
            rel_re=np.ones((1, 1)),
            rel_im=np.zeros((1, 1)),
        )

    def test_hand_computed_ranks_and_mrr(self):
        model = self.chain_model()
        test = [
            Triple("e1", "r", "e2"),
            Triple("e2", "r", "e1"),
            Triple("e4", "r", "e5"),
        ]
        filt = set(test) | {Triple("e4", "r", "e4")}
        report = evaluate_ranking(model, test, filt)
        assert report.ranks == ((1, 2), (2, 1), (4, 4))
        # rank multiset {1,1,2,2,4,4}: mean reciprocal = (1+1+.5+.5+.25+.25)/6
        assert report.mrr == 3.5 / 6
        assert abs(report.mrr - 0.5833) < 1e-4
        assert report.hits_at_1 == 2 / 6
        assert report.hits_at_3 == 4 / 6
        assert report.hits_at_10 == 1.0
        assert report.mean_rank == 14 / 6

    def test_strictly_highest_scores_give_perfect_mrr(self):
        # antisymmetric form score(x, r, y) = x_re*y_im - x_im*y_re makes
        # self-candidates score 0, so the true pair can dominate strictly
        model = ComplexModel(
            entities=("a", "b", "c"),
            relations=("r",),
            ent_re=np.array([[1.0], [0.0], [0.1]]),
            ent_im=np.array([[0.0], [1.0], [0.1]]),
            rel_re=np.zeros((1, 1)),
            rel_im=np.ones((1, 1)),
        )
        test = [Triple("a", "r", "b")]
        report = evaluate_ranking(model, test, set(test))
        assert report.ranks == ((1, 1),)
        assert report.mrr == 1.0
        assert report.hits_at_1 == 1.0

    def test_duplicate_test_triples_count_once(self):
        model = self.chain_model()
        t = Triple("e1", "r", "e2")
        report = evaluate_ranking(model, [t, t, t], {t})
        assert len(report.triples) == 1
        assert len(report.ranks) == 1


class TestErrors:
    def test_empty_test_set(self):
        model, _, filt = random_instance(0, 6, 1, 10)
        with pytest.raises(ValueError, match="empty test"):
            evaluate_ranking(model, [], filt)

    def test_filter_must_cover_test(self):
        model, test, filt = random_instance(0, 6, 1, 10)
        incomplete = set(filt) - {test[0]}
        with pytest.raises(ValueError, match="superset"):
            evaluate_ranking(model, test, incomplete)

    def test_unknown_test_entity(self):
        model, test, filt = random_instance(0, 6, 1, 10)
        bad = Triple("missing", test[0].relation, test[0].object)
        with pytest.raises(KeyError):
            evaluate_ranking(model, [bad], filt | {bad})


class TestReportValidation:
    @staticmethod
    def valid_kwargs():
        return dict(
            mrr=0.5,
            hits_at_1=0.2,
            hits_at_3=0.4,
            hits_at_10=0.8,
            mean_rank=3.0,
            triples=(Triple("a", "r", "b"),),
            ranks=((2, 3),),
        )

    def test_accepts_valid(self):
        RankingReport(**self.valid_kwargs())

    @pytest.mark.parametrize("mrr", [0.0, -0.1, 1.5])
    def test_rejects_mrr_out_of_range(self, mrr):
        with pytest.raises(ValueError, match="MRR"):
            RankingReport(**{**self.valid_kwargs(), "mrr": mrr})

    def test_rejects_decreasing_hits(self):
        bad = {**self.valid_kwargs(), "hits_at_3": 0.1}
        with pytest.raises(ValueError, match="non-decreasing"):
            RankingReport(**bad)

    def test_rejects_rank_below_one(self):
        bad = {**self.valid_kwargs(), "ranks": ((0, 2),)}
        with pytest.raises(ValueError, match=">= 1"):
            RankingReport(**bad)
