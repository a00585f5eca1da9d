"""Mini-batch trainer: corruption sampling, self-adversarial loss, Adam.

Each corruption keeps its positive's relation and one of its entities,
so a batch is scored and differentiated through the positives' partials:
a corruption scores as its replacement entity's row times the partial of
the side it replaced, and the corruptions' pull on the kept entities and
the relation is summed per positive before the partials are applied.
The corruptions are scored in blocks of a fixed number of rows into one
preallocated array, so no temporary grows with the number of
corruptions times the embedding width; the partials, one row per
positive, are plain (n, k) arrays copied by slice assignment into the
[re|im] block the scatter reads. Gradient rows are
summed into dense tables by sparse one-hot products (each output row
adds its terms in ascending source-row order, so the result is
deterministic) and applied with one Adam step per batch over all four
embedding tables, updating the parameters and both moments in place.
Early stopping tracks filtered MRR on the validation triples and
returns the best snapshot seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import expit

from ..kg import TripleSplit
from .model import (
    TABLES,
    ComplexModel,
    _object_partials,
    _relation_partials,
    _score_arrays,
    _subject_partials,
    init_embeddings,
)
from .ranking import evaluate_ranking

# Corruption rows scored per block: two gathered (rows, 2k) float64 blocks
# of about 2 MB each at k = 32. Each score reduces over its own row only,
# so the block size changes no result.
_SCORE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class TrainingConfig:
    k: int = 150
    eta: int = 15
    learning_rate: float = 0.0005
    batch_size: int = 8000
    max_epochs: int = 500
    check_every: int = 10
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.eta < 1:
            raise ValueError("eta must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


# Adam's moment decay rates and denominator offset (Kingma & Ba 2015).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class AdamState:
    """First/second-moment accumulators for one parameter table."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update, in place on ``params``, ``state.m`` and ``state.v``.

    Computes m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    params -= lr m_hat / (sqrt(v_hat) + eps), with b1, b2 and eps the
    module constants _BETA1, _BETA2 and _EPS, using two scratch arrays,
    each product and sum in the order those expressions give. ``grads``
    must not share memory with ``params`` or the moments.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"state {state.m.shape}"
        )
    state.t += 1
    m, v = state.m, state.v
    step = np.multiply(grads, 1.0 - _BETA1)
    m *= _BETA1
    m += step
    np.multiply(grads, 1.0 - _BETA2, out=step)
    step *= grads
    v *= _BETA2
    v += step
    denom = np.divide(v, 1.0 - _BETA2 ** state.t, out=step)
    np.sqrt(denom, out=denom)
    denom += _EPS
    step = m / (1.0 - _BETA1 ** state.t)
    step *= lr
    step /= denom
    params -= step
    return params, state


def corrupt_batch(
    pos_idx: np.ndarray, eta: int, n_entities: int, rng: np.random.Generator
) -> np.ndarray:
    """(n*eta, 3) corruptions, eta consecutive rows per positive.

    Each row replaces the subject or the object (fair coin) with an
    entity drawn uniformly from the other |E|-1 via an index shift, so
    the positive itself never comes back. Duplicates are kept.
    """
    if n_entities < 2:
        raise ValueError("corruption sampling needs at least 2 entities")
    n = pos_idx.shape[0] * eta
    neg = np.repeat(pos_idx, eta, axis=0)
    side = rng.integers(2, size=n)
    draw = rng.integers(n_entities - 1, size=n)
    col = np.where(side == 0, 0, 2)
    rows = np.arange(n)
    orig = neg[rows, col]
    draw = draw + (draw >= orig)
    neg[rows, col] = draw
    return neg


def self_adversarial_loss(pos_scores: np.ndarray, neg_scores: np.ndarray):
    """Mean loss and exact score-partials over a batch of positives.

    ``pos_scores`` has shape (n,), ``neg_scores`` (n, eta): row i holds
    the negatives of positive i. Per row, weights w = softmax(f_neg) are
    treated as constants (stop-gradient) and
    loss = -log sigma(f_pos) - sum_j w_j log sigma(-f_j).
    Returns (mean loss, d_mean/d_pos (n,), d_mean/d_neg (n, eta)); the
    partials carry the 1/n of the mean.
    """
    f_pos = np.asarray(pos_scores, dtype=np.float64)
    f_neg = np.asarray(neg_scores, dtype=np.float64)
    if f_neg.ndim != 2 or f_neg.shape[1] == 0:
        raise ValueError("need at least one negative score per positive")
    n = f_pos.shape[0]
    logits = f_neg - f_neg.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    # -log sigma(x) == softplus(-x), computed stably via logaddexp
    per_pos = np.logaddexp(0.0, -f_pos) + np.sum(w * np.logaddexp(0.0, f_neg), axis=1)
    loss = float(per_pos.mean())
    d_pos = (expit(f_pos) - 1.0) / n
    d_neg = w * expit(f_neg) / n
    return loss, d_pos, d_neg


def _sum_rows(
    values: np.ndarray, out_rows: np.ndarray, in_rows: np.ndarray, weights: np.ndarray, n_out: int
) -> np.ndarray:
    """(n_out, cols) array: row j sums weights[i] * values[in_rows[i]] over out_rows[i] == j.

    Computed as one CSR matrix (data = weights) times ``values``. scipy
    sums the weights of repeated (out_rows, in_rows) pairs and sorts each
    CSR row by column, so each output row adds its terms in ascending
    ``in_rows`` order, whatever the input order; the result is
    deterministic.
    """
    onehot = sparse.csr_array((weights, (out_rows, in_rows)), shape=(n_out, values.shape[0]))
    return onehot @ values


@dataclass
class TrainingResult:
    model: ComplexModel
    history: tuple[str, ...]
    epochs_run: int
    best_mrr: float = float("nan")

    def history_text(self) -> str:
        return "\n".join(self.history) + "\n" if self.history else ""


def _halves(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The [re | im] column halves of a block of rows, as views."""
    k = block.shape[1] // 2
    return block[:, :k], block[:, k:]


def _batch_step(model: ComplexModel, pos: np.ndarray, neg: np.ndarray):
    """Loss, scores and table gradients of one batch of positives and their corruptions.

    ``neg`` is corrupt_batch's output for ``pos``: eta rows per positive,
    each keeping the positive's relation and one of its entities and
    replacing the other with a different entity, so the side replaced
    is the one whose subject differs. A corruption scores as its
    replacement's [re|im] row dotted with the positive's partial for
    that side, P_s(r, o) or P_o(s, r). The partials are linear in each
    entity, so the corruptions' pull on the kept rows sums per positive
    first: A_s = sum g_j e_{c_j} over its subject corruptions, A_o over
    its object ones. With g the positive's loss partial, the gradients
    are s: P_s(r, g o + A_o), o: P_o(g s + A_s, r),
    r: P_r(g s + A_s, o) + P_r(s, A_o), and g_j times the side's partial
    for each replacement c_j. The entity partials are assigned into the
    halves of one preallocated (4n, 2k) [re|im] block of scatter rows;
    the two relation partials are stacked and summed.

    Returns (mean loss, positive scores (n,), corruption scores (n, eta),
    gradients of the loss for the tables named in TABLES, in order).
    """
    n, k = pos.shape[0], model.k
    eta = neg.shape[0] // n
    s, r, o = pos[:, 0], pos[:, 1], pos[:, 2]
    s_re, s_im = model.ent_re[s], model.ent_im[s]
    r_re, r_im = model.rel_re[r], model.rel_im[r]
    o_re, o_im = model.ent_re[o], model.ent_im[o]
    # The scatter's [re|im] value rows: :n and n:2n the kept subjects' and
    # objects' partials, 2n: the side partials, P_s(r, o) for each positive
    # and then P_o(s, r).
    ent_values = np.empty((4 * n, 2 * k))
    side_partials = ent_values[2 * n :]
    side_partials[:n, :k], side_partials[:n, k:] = _subject_partials(r_re, r_im, o_re, o_im)
    side_partials[n:, :k], side_partials[n:, k:] = _object_partials(s_re, s_im, r_re, r_im)

    owner = np.repeat(np.arange(n), eta)
    subject_side = neg[:, 0] != s[owner]
    replacement = np.where(subject_side, neg[:, 0], neg[:, 2])
    partial_row = np.where(subject_side, owner, owner + n)
    ent = np.hstack((model.ent_re, model.ent_im))
    pos_scores = _score_arrays(s_re, s_im, r_re, r_im, o_re, o_im)
    neg_scores = np.empty(n * eta)
    for lo in range(0, n * eta, _SCORE_BLOCK_ROWS):
        block = slice(lo, lo + _SCORE_BLOCK_ROWS)
        np.einsum(
            "ij,ij->i", ent[replacement[block]], side_partials[partial_row[block]],
            out=neg_scores[block],
        )
    neg_scores = neg_scores.reshape(n, eta)
    loss, d_pos, d_neg = self_adversarial_loss(pos_scores, neg_scores)

    g, g_c = d_pos[:, None], d_neg.ravel()
    a = _sum_rows(ent, partial_row, replacement, g_c, 2 * n)  # rows :n A_s, rows n: A_o
    (as_re, as_im), (ao_re, ao_im) = _halves(a[:n]), _halves(a[n:])
    ks_re, ks_im = g * s_re + as_re, g * s_im + as_im
    ko_re, ko_im = g * o_re + ao_re, g * o_im + ao_im
    ent_values[:n, :k], ent_values[:n, k:] = _subject_partials(r_re, r_im, ko_re, ko_im)
    ent_values[n : 2 * n, :k], ent_values[n : 2 * n, k:] = _object_partials(
        ks_re, ks_im, r_re, r_im
    )
    rel_values = np.hstack(_relation_partials(ks_re, ks_im, o_re, o_im))
    rel_values += np.hstack(_relation_partials(s_re, s_im, ao_re, ao_im))
    grad_ent = _sum_rows(
        ent_values,
        np.concatenate((s, o, replacement)),
        np.concatenate((np.arange(2 * n), 2 * n + partial_row)),
        np.concatenate((np.ones(2 * n), g_c)),
        model.ent_re.shape[0],
    )
    grad_rel = _sum_rows(rel_values, r, np.arange(n), np.ones(n), model.rel_re.shape[0])
    grads = (*_halves(grad_ent), *_halves(grad_rel))
    return loss, pos_scores, neg_scores, grads


def train(splits: TripleSplit, config: TrainingConfig) -> TrainingResult:
    """Fit embeddings on a split's training triples.

    Every ``check_every`` epochs, and after the last epoch, the
    filtered validation MRR is measured (against the split's training
    and validation triples; it holds nothing of the test fold); ``patience``
    consecutive checks without strict improvement over the best seen —
    including the untrained baseline — stop training, and the best
    snapshot is returned. Without validation triples, runs the full
    ``max_epochs`` and returns the final model.
    """
    kg = splits.kg
    train_idx = kg.to_index_array(splits.train)
    if train_idx.shape[0] == 0:
        raise ValueError("no training triples")
    model = init_embeddings(kg, config.k, config.seed)
    rng = np.random.default_rng(config.seed)
    adam = {name: AdamState.for_params(getattr(model, name)) for name in TABLES}
    history: list[str] = []
    has_validation = len(splits.validation) > 0
    best_model, best_mrr = model, float("nan")
    if has_validation:  # the snapshot is a copy, as training writes the tables in place
        best_model = model.copy()
        known = splits.all_known()
        best_mrr = evaluate_ranking(model, splits.validation, known).mrr
        history.append(f"check\t0\t{best_mrr!r}")

    n = train_idx.shape[0]
    bad_checks = 0
    epochs_run = 0
    for epoch in range(1, config.max_epochs + 1):
        epochs_run = epoch
        order = rng.permutation(n)
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            pos = train_idx[order[start : start + config.batch_size]]
            neg = corrupt_batch(pos, config.eta, kg.n_entities, rng)
            loss, _, _, grads = _batch_step(model, pos, neg)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no} "
                    f"(batch size {pos.shape[0]})"
                )
            loss_sum += loss * pos.shape[0]
            for name, grad in zip(TABLES, grads):
                adam_step(adam[name], getattr(model, name), grad, config.learning_rate)
        history.append(f"epoch\t{loss_sum / n!r}")

        if has_validation and (epoch % config.check_every == 0 or epoch == config.max_epochs):
            mrr = evaluate_ranking(model, splits.validation, known).mrr
            history.append(f"check\t{epoch}\t{mrr!r}")
            if not (mrr > best_mrr):
                bad_checks += 1
                if bad_checks >= config.patience:
                    break
            else:
                best_mrr = mrr
                best_model = model.copy()
                bad_checks = 0

    return TrainingResult(
        model=best_model, history=tuple(history), epochs_run=epochs_run, best_mrr=best_mrr
    )
