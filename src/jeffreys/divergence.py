"""Lower and upper alpha-divergences between predictions.

The divergence between two predictions is measured geometrically: form the
alpha-weighted mean of their canonical points, then find the largest
vertical shift that keeps the mean a superprediction (lower divergence)
or the smallest shift that makes it a subprediction (upper divergence).
Both shifts are a max-min over the prediction grid, so each numeric
divergence is one gap search from the mean, ``jeffreys.games.mean_gap``
(re-exported here), as is the numeric level-2 move.  Its inner max over
outcomes is exact on the whole outcome interval
``[outcome_grid[0], outcome_grid[-1]]``: it is taken at the few outcomes
where the excess over the mean can attain it (the kind's ``candidates`` in
``jeffreys.games.GAME_SPECS``), and the outcome grid plays no part, except
for log loss, whose outcome grid is its whole outcome space.  The grid
decides only the membership predicates on arbitrary vectors.
The shift, scaled by ``4 / (1 - alpha^2)``, is the divergence value; both
are reported, since the raw shift is what the vertical-distance picture
reads off directly.

The closed forms live in the games' table (``jeffreys.games.GAME_SPECS``):
the square-loss family's ``(gamma1 - gamma2)^2`` for every alpha, and the
log-affinity formula for log-loss, re-exported here.  This module adds the
standard alpha-divergence and the Kullback-Leibler limit for log-loss; each
closed form is a ``DivergenceResult`` through ``closed_form_divergence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

# the closed forms and the mean's gap search are re-exported from the games' module
from .games import (Game, _log_affinity, _scale, alpha_divergence_log_loss,  # noqa: F401
                    alpha_divergence_square_loss, mean_gap)


@dataclass(frozen=True)
class DivergenceResult:
    """Outcome of a divergence computation.

    ``value`` is the scaled divergence ``4 / (1 - alpha^2) * shift``;
    ``shift`` is the raw vertical displacement of the weighted mean (None
    for quantities without a geometric shift, like the standard form).
    ``method`` is ``"closed_form"`` or ``"max_min"`` (one gap search over
    the prediction grid, refined to ``tol * 1e-3`` in the parameter, with
    each gap exact on the outcome interval; the outcome grid decides only
    the vector membership predicates).
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


def _numeric_divergence(game: Game, gamma1, gamma2, alpha: float, tol: float, side: str):
    game.validate_prediction(gamma1)
    game.validate_prediction(gamma2)
    gap = mean_gap(game, gamma1, gamma2, alpha, tol, side == "upper")[1]
    shift = gap if side == "upper" else -gap
    return DivergenceResult(alpha, side, _scale(alpha) * shift, shift, "max_min", tol,
                            math.isfinite(shift))


def lower_alpha_divergence_numeric(game: Game, gamma1, gamma2, alpha: float,
                                   tol: float = 1e-6) -> DivergenceResult:
    """Lower alpha-divergence as a direct max-min over the prediction grid.

    The shift is max over gamma of min over omega of
    ``(mean - lambda_gamma)(omega)``, one superprediction gap search refined
    to ``tol * 1e-3`` in the prediction parameter.  The min over omega is
    exact on the whole outcome interval (see :func:`mean_gap`); the outcome
    grid decides only the vector membership predicates.
    """
    return _numeric_divergence(game, gamma1, gamma2, alpha, tol, "lower")


def upper_alpha_divergence_numeric(game: Game, gamma1, gamma2, alpha: float,
                                   tol: float = 1e-6) -> DivergenceResult:
    """Upper alpha-divergence as a direct min-max over the prediction grid.

    The shift is min over gamma of max over omega of
    ``(mean - lambda_gamma)(omega)``: the smallest shift that puts the mean
    below some canonical point, i.e. into the subprediction set.  The max
    over omega is exact on the whole outcome interval (see
    :func:`mean_gap`); the outcome grid decides only the vector membership
    predicates.
    """
    return _numeric_divergence(game, gamma1, gamma2, alpha, tol, "upper")


def closed_form_divergence(game: Game, gamma1, gamma2, alpha: float, side: str):
    """``side``'s closed form for validated predictions, as a DivergenceResult; the
    standard form and the KL limit have no geometric shift and report it as None."""
    shift = None
    if side == "kl":
        alpha, value = -1.0, kl_divergence_log_loss(gamma1, gamma2)  # the alpha -> -1 limit
    elif side == "standard":
        value = standard_alpha_divergence_log_loss(gamma1, gamma2, alpha)
    elif game.spec.divergence is None:
        raise ValueError(f"no closed form for the {game.kind.value} game")
    else:
        value = game.spec.divergence(game, alpha)([gamma1], [gamma2])[0]
        shift = value * (1.0 - alpha * alpha) / 4.0 if math.isfinite(value) else value
    return DivergenceResult(alpha, side, value, shift, "closed_form", 0.0)


# ---------------------------------------------------------------------------
# log-loss textbook forms

def standard_alpha_divergence_log_loss(gamma1, gamma2, alpha: float) -> float:
    """The textbook alpha-divergence; a lower bound on the game version."""
    # the affinity checks alpha's range before the scale divides by 1 - alpha^2
    return (1.0 - _log_affinity(gamma1, gamma2, alpha)) * _scale(alpha)


def kl_divergence_log_loss(gamma1, gamma2) -> float:
    """Kullback-Leibler divergence, the alpha -> -1 limit of the log-loss form.

    Conventions: ``0 * ln(0/q) = 0`` and ``p * ln(p/0) = +inf`` for p > 0.
    """
    p, q = np.asarray(gamma1, dtype=float), np.asarray(gamma2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sum(np.where(p == 0.0, 0.0, p * np.log(p / q))))
