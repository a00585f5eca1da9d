"""Filtered link-prediction evaluation (MRR, Hits@n, mean rank).

Both directions are ranked per test triple: the true object against
every entity substitution, and the true subject likewise. Candidates
that form another known-true triple are filtered out; ties count
against the true triple (pessimistic), so an untrained all-zero model
cannot score a flattering MRR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..kg import Triple
from .model import ComplexModel, score_gradient


@dataclass(frozen=True)
class RankingReport:
    mrr: float
    hits_at_1: float
    hits_at_3: float
    hits_at_10: float
    mean_rank: float
    triples: tuple[Triple, ...]
    ranks: tuple[tuple[int, int], ...]  # (subject-direction, object-direction)

    def __post_init__(self):
        if not 0.0 < self.mrr <= 1.0:
            raise ValueError("MRR must lie in (0, 1]")
        if not self.hits_at_1 <= self.hits_at_3 <= self.hits_at_10:
            raise ValueError("Hits@n must be non-decreasing in n")
        if any(r < 1 for pair in self.ranks for r in pair):
            raise ValueError("ranks must be >= 1")


def evaluate_ranking(
    model: ComplexModel, test: Iterable[Triple], filter: Iterable[Triple]
) -> RankingReport:
    """Rank each test triple's subject and object among all entities.

    ``filter`` must contain every known-true triple (train, validation
    and test); a test triple missing from it is an error. A set or
    frozenset is read as it is; any other iterable is copied into one.
    The rank of a true completion is 1 + the number of unfiltered other
    candidates scoring >= it.
    """
    test_triples = sorted(set(test))
    if not test_triples:
        raise ValueError("empty test set")
    filter_set = filter if isinstance(filter, (set, frozenset)) else set(filter)
    missing = [t for t in test_triples if t not in filter_set]
    if missing:
        raise ValueError(
            f"filter must be a superset of the test set; missing e.g. {missing[0]}"
        )

    # Only the (subject, relation) and (object, relation) keys that a test
    # triple queries are indexed. A queried key's entity and relation are in
    # the model's vocabulary, so a filter triple on it is a candidate unless
    # its other entity is out of vocabulary.
    entity_index = model.entity_index
    known_objects: dict[tuple[str, str], list[int]] = {(s, r): [] for s, r, _ in test_triples}
    known_subjects: dict[tuple[str, str], list[int]] = {(o, r): [] for _, r, o in test_triples}
    for s, r, o in filter_set:
        objects = known_objects.get((s, r))
        if objects is not None and o in entity_index:
            objects.append(entity_index[o])
        subjects = known_subjects.get((o, r))
        if subjects is not None and s in entity_index:
            subjects.append(entity_index[s])

    ranks: list[tuple[int, int]] = []
    for t in test_triples:
        s = entity_index[t.subject]
        o = entity_index[t.object]
        partials = score_gradient(model, *t)

        # The score is linear in each entity embedding, so the partials with
        # respect to the object (subject) score every candidate object (subject).
        obj_scores = model.ent_re @ partials["o_re"] + model.ent_im @ partials["o_im"]
        obj_rank = _pessimistic_rank(obj_scores, o, known_objects[(t.subject, t.relation)])

        subj_scores = model.ent_re @ partials["s_re"] + model.ent_im @ partials["s_im"]
        subj_rank = _pessimistic_rank(subj_scores, s, known_subjects[(t.object, t.relation)])

        ranks.append((subj_rank, obj_rank))

    flat = np.array([r for pair in ranks for r in pair], dtype=np.float64)
    return RankingReport(
        mrr=float(np.mean(1.0 / flat)),
        hits_at_1=float(np.mean(flat <= 1)),
        hits_at_3=float(np.mean(flat <= 3)),
        hits_at_10=float(np.mean(flat <= 10)),
        mean_rank=float(np.mean(flat)),
        triples=tuple(test_triples),
        ranks=tuple(ranks),
    )


def _pessimistic_rank(scores: np.ndarray, true_idx: int, known: list[int]) -> int:
    true_score = scores[true_idx]
    mask = np.ones(scores.shape[0], dtype=bool)
    mask[known] = False
    mask[true_idx] = False
    return 1 + int(np.count_nonzero(scores[mask] >= true_score))
