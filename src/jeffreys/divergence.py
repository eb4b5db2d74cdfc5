"""Lower and upper alpha-divergences between predictions.

The divergence between two predictions is measured geometrically: form the
alpha-weighted mean of their canonical points, then find the largest
vertical shift that keeps the mean a superprediction (lower divergence)
or the smallest shift that makes it a subprediction (upper divergence).
Both shifts are a max-min over the prediction grid, so each numeric
divergence is a single gap search.  The shift, scaled by
``4 / (1 - alpha^2)``, is the divergence value; both quantities are
reported since the raw shift is what the vertical-distance picture reads
off directly.

The closed forms live in the games' table (``jeffreys.games.GAME_SPECS``):
the square-loss family's ``(gamma1 - gamma2)^2`` for every alpha, and the
log-affinity formula for log-loss, re-exported here.  This module adds the
standard alpha-divergence and the Kullback-Leibler limit for log-loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

# the closed forms are re-exported from the games' table
from .games import (Game, _check_alpha_open, _log_affinity, _scale,  # noqa: F401
                    alpha_divergence_log_loss, alpha_divergence_square_loss,
                    subprediction_gap, superprediction_gap)


@dataclass(frozen=True)
class DivergenceResult:
    """Outcome of a divergence computation.

    ``value`` is the scaled divergence ``4 / (1 - alpha^2) * shift``;
    ``shift`` is the raw vertical displacement of the weighted mean (None
    for quantities without a geometric shift, like the standard form).
    ``method`` is ``"closed_form"`` or ``"max_min"`` (one gap search over
    the prediction grid, refined to ``tol * 1e-3`` in the parameter).
    ``bracketed`` is False when the shift is infinite, as for log-loss
    predictions with disjoint support; ``value`` is then ``+inf`` or
    ``-inf``.
    """

    alpha: float
    side: str                    # "lower" | "upper" | "standard" | "kl"
    value: float
    shift: Optional[float]
    method: str                  # "closed_form" | "max_min"
    tol: float
    bracketed: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


def _weighted_mean_point(game: Game, gamma1, gamma2, alpha: float) -> np.ndarray:
    lam1 = game.canonical_point(gamma1)
    lam2 = game.canonical_point(gamma2)
    w1, w2 = (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0
    return w1 * lam1 + w2 * lam2


def lower_alpha_divergence_numeric(game: Game, gamma1, gamma2, alpha: float,
                                   tol: float = 1e-6) -> DivergenceResult:
    """Lower alpha-divergence as a direct max-min over the prediction grid.

    The shift is max over gamma of min over omega of
    ``(mean - lambda_gamma)(omega)``, one superprediction gap search refined
    to ``tol * 1e-3`` in the prediction parameter.
    """
    _check_alpha_open(alpha)
    mean = _weighted_mean_point(game, gamma1, gamma2, alpha)
    shift = -superprediction_gap(game, mean, tol)[1]
    return DivergenceResult(alpha, "lower", _scale(alpha) * shift, shift, "max_min", tol,
                            math.isfinite(shift))


def upper_alpha_divergence_numeric(game: Game, gamma1, gamma2, alpha: float,
                                   tol: float = 1e-6) -> DivergenceResult:
    """Upper alpha-divergence as a direct min-max over the prediction grid.

    The shift is min over gamma of max over omega of
    ``(mean - lambda_gamma)(omega)``: the smallest shift that puts the mean
    below some canonical point, i.e. into the subprediction set.
    """
    _check_alpha_open(alpha)
    mean = _weighted_mean_point(game, gamma1, gamma2, alpha)
    shift = subprediction_gap(game, mean, tol)[1]
    return DivergenceResult(alpha, "upper", _scale(alpha) * shift, shift, "max_min", tol,
                            math.isfinite(shift))


# ---------------------------------------------------------------------------
# log-loss textbook forms

def standard_alpha_divergence_log_loss(gamma1, gamma2, alpha: float) -> float:
    """The textbook alpha-divergence; a lower bound on the game version."""
    return _scale(alpha) * (1.0 - _log_affinity(gamma1, gamma2, alpha))


def kl_divergence_log_loss(gamma1, gamma2) -> float:
    """Kullback-Leibler divergence, the alpha -> -1 limit of the log-loss form.

    Conventions: ``0 * ln(0/q) = 0`` and ``p * ln(p/0) = +inf`` for p > 0.
    """
    g1 = np.asarray(gamma1, dtype=float)
    g2 = np.asarray(gamma2, dtype=float)
    total = 0.0
    for p, q in zip(g1, g2):
        if p == 0.0:
            continue
        if q == 0.0:
            return math.inf
        total += p * math.log(p / q)
    return total
