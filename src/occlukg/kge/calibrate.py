"""Platt scaling from raw triple scores to probabilities.

A trained model's scores are unbounded reals; the Bayesian combination
downstream needs probabilities. A two-parameter sigmoid p = sigma(a*s + b)
is fitted by binary cross-entropy on labelled score samples, with a > 0
so probability order always equals score order.

The fit is a convex two-parameter logistic regression. It is solved as
Lin, Lin & Weng (2007, "A note on Platt's probabilistic outputs for
support vector machines") solve Platt's problem, by Newton's method on
the analytic 2x2 Hessian with backtracking, in numpy; fit_platt states
the backtracking and the stopping rule. The module imports no
general-purpose optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import expit

from ..kg import Triple
from .model import ComplexModel, score_triple

PROBABILITY_FLOOR = 1e-6


@dataclass(frozen=True)
class CalibrationResult:
    a: float
    b: float
    warning: bool = False
    message: str = ""


def _residuals(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """sigma(z) - label, the BCE's derivative in z.

    A positive's is taken as -sigma(-z): sigma(z) - 1 rounds to exactly 0
    once z passes about 37, while the positive's loss term does not.
    """
    return np.where(labels == 1.0, -expit(-z), expit(z))


def _bce_and_grad(x: np.ndarray, scores: np.ndarray, labels: np.ndarray):
    a, b = x
    z = a * scores + b
    # mean of -log sigma(z) for positives, -log sigma(-z) for negatives
    loss = float(np.mean(np.logaddexp(0.0, -z) * labels + np.logaddexp(0.0, z) * (1 - labels)))
    dz = _residuals(z, labels) / scores.shape[0]
    return loss, np.array([np.dot(dz, scores), np.sum(dz)])


# fit_platt's stopping rule, and its sufficient-decrease fraction.
_RELATIVE_GRADIENT_TOLERANCE = 1e-10
_MAX_ITERATIONS = 100
_ARMIJO = 1e-4
# Damping tried after a rejected Newton step, multiplied by 4 per retry.
_FIRST_DAMPING = 1e-8
_MAX_RETRIES = 60


def _newton_step(
    x: np.ndarray, scores: np.ndarray, labels: np.ndarray, damping: float
) -> np.ndarray:
    """Solve (H + damping * M) step = -grad for the mean BCE at x.

    H = sum p(1-p) [s^2, s; s, 1] / N is the Hessian, and M is the same
    sum with every p(1-p) replaced by 1, so damping raises each score's
    weight p(1-p) by the same amount. The system is solved with the
    scores shifted by the one of largest weight and scaled to unit
    range. Where a single score carries nearly all the weight, as on
    separable scores, its own terms then vanish exactly instead of
    cancelling in rounding, and the scaling keeps squares of tiny score
    differences from underflowing. When a sits on the floor and the step
    would lower it, or when the system is singular, a is held and only
    b is solved.
    """
    a, b = x
    z = a * scores + b
    p = expit(z)
    weights = p * expit(-z) + damping
    residuals = _residuals(z, labels)
    shift = scores[np.argmax(weights)]
    scale = np.max(np.abs(scores - shift))
    u = (scores - shift) / scale
    h_aa, h_ab, h_bb = np.dot(weights, u * u), np.dot(weights, u), weights.sum()
    g_a, g_b = np.dot(residuals, u), residuals.sum()
    # a non-finite step is rejected by fit_platt's acceptance test
    with np.errstate(divide="ignore", invalid="ignore"):
        det = h_aa * h_bb - h_ab * h_ab
        step_a = (h_ab * g_b - h_bb * g_a) / det / scale
        if not np.isfinite(step_a) or (a <= PROBABILITY_FLOOR and step_a <= 0):
            return np.array([0.0, -g_b / h_bb])
        # the solve is in (a * scale, b + a * shift); map it back
        return np.array([step_a, (h_ab * g_a - h_aa * g_b) / det - shift * step_a])


def _feasible(x: np.ndarray, step: np.ndarray) -> np.ndarray:
    """x + step, cut short where it meets a = PROBABILITY_FLOOR."""
    trial = x + step
    if trial[0] < PROBABILITY_FLOOR:
        trial = x + (x[0] - PROBABILITY_FLOOR) / -step[0] * step
        trial[0] = PROBABILITY_FLOOR
    return trial


def _projected_size(x: np.ndarray, grad: np.ndarray) -> float:
    """Largest gradient component, not counting a's where the floor blocks it."""
    if x[0] <= PROBABILITY_FLOOR and grad[0] >= 0:
        return abs(grad[1])
    return max(abs(grad[0]), abs(grad[1]))


def fit_platt(
    positive_scores: Iterable[float], negative_scores: Iterable[float]
) -> CalibrationResult:
    """Fit (a, b) on raw scores by damped Newton steps, a held >= the floor.

    Starts from the identity map (1, 0). Each iteration first tries the
    Newton step of the mean BCE, cut short where it would take a below
    PROBABILITY_FLOOR; when a sits on the floor and the step would lower
    it, only b is solved. A step is accepted if the loss falls by the
    Armijo fraction 1e-4 of its linear decrease, or, where the loss no
    longer resolves the change, if the projected gradient shrinks.
    Otherwise it backtracks along the Levenberg-Marquardt path: the step
    is solved again with damping 1e-8, 4e-8, ... added to each weight
    p(1-p), which shortens it and turns it towards the gradient. That
    way far-off starts, where every score saturates the sigmoid and the
    Newton step is huge, still make progress.

    Stopping rule: stop once no gradient component exceeds 1e-10 times
    the loss in magnitude, not counting a's when a sits on the floor and
    the gradient pushes it down; also when 60 retries find no accepted
    step, or after 100 iterations. The tolerance is relative because
    each score's |p - y| is at most its loss, so the gradient can only
    fall far below the loss near a minimizer. On separable scores there
    is none: the loss falls about e-fold per Newton step, and the
    iteration cap stops the slope at a finite value.
    """
    pos = np.asarray(list(positive_scores), dtype=np.float64)
    neg = np.asarray(list(negative_scores), dtype=np.float64)
    if pos.size == 0:
        raise ValueError("empty positive score set")
    if neg.size == 0:
        raise ValueError("empty negative score set")
    scores = np.concatenate((pos, neg))
    labels = np.concatenate((np.ones(pos.size), np.zeros(neg.size)))
    if np.ptp(scores) == 0.0:
        return CalibrationResult(
            1.0, 0.0, warning=True, message="all scores identical; using identity map"
        )
    x = np.array([1.0, 0.0])
    loss, grad = _bce_and_grad(x, scores, labels)
    for _ in range(_MAX_ITERATIONS):
        size = _projected_size(x, grad)
        if size <= _RELATIVE_GRADIENT_TOLERANCE * loss:
            break
        damping = 0.0
        for _ in range(_MAX_RETRIES):
            trial = _feasible(x, _newton_step(x, scores, labels, damping))
            trial_loss, trial_grad = _bce_and_grad(trial, scores, labels)
            if trial_loss <= loss + _ARMIJO * np.dot(grad, trial - x) or (
                abs(trial_loss - loss) <= 4 * np.spacing(loss)
                and _projected_size(trial, trial_grad) < size
            ):
                break
            damping = max(4 * damping, _FIRST_DAMPING)
        else:
            break
        x, loss, grad = trial, trial_loss, trial_grad
    a, b = float(x[0]), float(x[1])
    if not (np.isfinite(a) and np.isfinite(b)) or a <= 0:
        return CalibrationResult(
            1.0, 0.0, warning=True, message=f"fit degenerate (a={a}, b={b}); using identity map"
        )
    return CalibrationResult(a, b)


def calibrate(
    model: ComplexModel, positives: Iterable[Triple], negatives: Iterable[Triple]
) -> CalibrationResult:
    """Fit the model's calibration map from labelled triples, in place."""
    pos = sorted(set(positives))
    neg = sorted(set(negatives))
    result = fit_platt(
        [score_triple(model, t.subject, t.relation, t.object) for t in pos],
        [score_triple(model, t.subject, t.relation, t.object) for t in neg],
    )
    model.calibration = (result.a, result.b)
    return result


def triple_probability(
    model: ComplexModel, subject: str, relation: str, object: str
) -> float:
    """Calibrated probability for one triple, clamped away from 0 and 1."""
    a, b = model.calibration
    p = float(expit(a * score_triple(model, subject, relation, object) + b))
    return min(max(p, PROBABILITY_FLOOR), 1.0 - PROBABILITY_FLOOR)
