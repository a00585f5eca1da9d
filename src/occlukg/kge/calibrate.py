"""Platt scaling from raw triple scores to probabilities.

A trained model's scores are unbounded reals; the Bayesian combination
downstream needs probabilities. A two-parameter sigmoid p = sigma(a*s + b)
is fitted by binary cross-entropy on labelled score samples, with a > 0
so probability order always equals score order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.optimize import minimize
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


def _bce_and_grad(x: np.ndarray, scores: np.ndarray, labels: np.ndarray):
    a, b = x
    z = a * scores + b
    # mean of -log sigma(z) for positives, -log sigma(-z) for negatives
    loss = float(np.mean(np.logaddexp(0.0, -z) * labels + np.logaddexp(0.0, z) * (1 - labels)))
    dz = (expit(z) - labels) / scores.shape[0]
    return loss, np.array([np.dot(dz, scores), np.sum(dz)])


def fit_platt(
    positive_scores: Iterable[float], negative_scores: Iterable[float]
) -> CalibrationResult:
    """Fit (a, b) on raw scores; bounded L-BFGS, a constrained positive."""
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
    res = minimize(
        _bce_and_grad,
        x0=np.array([1.0, 0.0]),
        args=(scores, labels),
        jac=True,
        method="L-BFGS-B",
        bounds=[(PROBABILITY_FLOOR, None), (None, None)],
        options={"maxiter": 200, "ftol": 1e-8},
    )
    a, b = float(res.x[0]), float(res.x[1])
    if not (np.isfinite(a) and np.isfinite(b)) or a <= 0:
        return CalibrationResult(
            1.0, 0.0, warning=True, message=f"fit degenerate ({res.message}); using identity map"
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
