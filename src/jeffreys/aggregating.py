"""Exponential-weights aggregation over an expert pool for mixable games.

The mixing step turns the weighted pool of expert loss profiles into a
generalized prediction ``g``; the substitution step finds an actual
prediction whose loss is dominated by ``g`` everywhere, which exists
whenever the game is perfectly mixable at the pool's learning rate.  The
resulting cumulative loss trails every expert by at most
``C * ln(1 / p_k)`` with ``C = 1 / eta``.

:func:`fixed_pool_mixer` is the one mix-and-substitute routine, for the
pool sceptics, prepared once for the experts' predictions: the closed form
in the game's table entry (the bounded square-loss endpoint formula, the
log-loss probability mixture), or else the mixed loss profiles
(:func:`_generalized`) and a numeric minimax search over the prediction
grid, which the closed forms are tested against.

:func:`aa_observe` decays the weights and reports the constant its
anchoring subtracted, so that a caller that keeps the weights'
log-normalizer ``T = ln sum_k e^(log_w_k)`` reads the mixture loss at the
realized outcome off two normalizers: ``-((T' + shift) - T) / eta``, the
quantity the aggregating sceptic re-checks domination against without a
second log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MixabilityViolation, PoolCollapseError
from .games import (Game, MixabilityParams, Prediction, _lse1,
                    check_perfectly_mixable, superprediction_gap)

DOMINATION_TOL = 1e-9


def params_for(game: Game) -> MixabilityParams:
    """The game's (eta, C) = (eta*, 1 / eta*), eta* its kind's mixability
    constant on the outcome bounds; refuses an unbounded or non-mixable kind,
    and a game that fails the perfect-mixability test at eta*."""
    ob = game.bounds()[0]
    eta = game.spec.eta_star(ob[1] - ob[0]) if ob is not None else 0.0
    if eta <= 0.0:
        raise MixabilityViolation(
            f"no mixability parameters for the {game.kind.value} game")
    if not check_perfectly_mixable(game, eta):
        raise MixabilityViolation(
            f"{game.kind.value} game fails the mixability test at eta={eta}")
    return MixabilityParams(eta, 1.0 / eta)


@dataclass
class ExpertPool:
    """Weights and priors for a (possibly truncated) countable expert pool.

    Priors must be strictly positive and sum to at most 1; a deficient sum
    simply loosens the per-expert bound.  ``log_weights`` start at
    ``ln(p_k)`` and decay with eta times each expert's loss;
    normalization happens at read time.
    """

    priors: np.ndarray
    log_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        self.priors = np.asarray(self.priors, dtype=float)
        if not np.all(self.priors > 0.0):
            raise ValueError("priors must be strictly positive")
        if float(self.priors.sum()) > 1.0 + 1e-12:
            raise ValueError("priors must sum to at most 1")
        self.log_weights = np.log(self.priors)

    def __len__(self) -> int:
        return len(self.priors)

    def normalized_log_weights(self) -> np.ndarray:
        total = _lse1(self.log_weights)
        if total == -math.inf:
            raise PoolCollapseError("every expert has suffered infinite loss")
        return self.log_weights - total


def _generalized(log_w: np.ndarray, points: np.ndarray, eta: float) -> np.ndarray:
    """Per-outcome mixture loss ``g(omega) = -ln(sum_k w_k e^(-eta loss_k)) / eta``
    of normalized log-weights over (K, O) expert loss profiles."""
    # -inf - (+inf) is -inf; only a NaN loss makes a NaN, and drops out
    exponents = log_w[:, None] - eta * points
    exponents = np.where(np.isnan(exponents), -np.inf, exponents)
    # a log-sum-exp down each outcome's column, in one pass over all the outcomes
    top = exponents.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return -(top + np.log(np.exp(exponents - top).sum(axis=0))) / eta


def substitute(game: Game, g: np.ndarray, tol: float = DOMINATION_TOL) -> Prediction:
    """A prediction whose loss is dominated by ``g`` on the outcome grid.

    The game's closed form, if it has one, and otherwise a minimax search
    over the prediction grid.  Raises MixabilityViolation when the best
    achievable excess exceeds ``tol`` (learning rate too large, or the game
    is not mixable).
    """
    g = np.asarray(g, dtype=float)
    closed = game.spec.substitute
    gamma = closed(game, g, tol) if closed is not None else None
    return gamma if gamma is not None else _substitute_numeric(game, g, tol)


def _substitute_numeric(game: Game, g: np.ndarray, tol: float) -> Prediction:
    """A prediction whose loss exceeds ``g`` by at most ``tol`` at each outcome
    of the grid, where ``g`` is given: a statement about the grid, not the interval."""
    u, worst = superprediction_gap(game, g, tol)
    if worst > tol:
        raise MixabilityViolation(f"substitution excess {worst:.3g} exceeds {tol:.3g}")
    return game.prediction_from_param(u)


def fixed_pool_mixer(game: Game, eta: float, preds, tol: float):
    """The aggregating move for fixed expert predictions, ``log_w -> prediction``.

    The game's closed form, prepared here once for ``preds``, is tried
    first; where it has none, or it does not dominate within ``tol``, the
    experts' loss profiles are mixed and substituted by :func:`substitute`.
    """
    closed = game.spec.mix(preds, eta, tol) if game.spec.mix is not None else None

    def mix(log_w):
        gamma = closed(log_w) if closed is not None else None
        if gamma is None:
            gamma = substitute(game, _generalized(log_w, game.profiles(preds), eta), tol)
        return gamma
    return mix


def aa_observe(pool: ExpertPool, expert_losses: np.ndarray, eta: float) -> float:
    """Decay the pool's weights by the observed expert losses (in place).

    Weights are stored up to a common additive constant in log space:
    anchoring the maximum at zero costs nothing observable (normalization
    removes constants) and keeps the precision of the weights that matter
    from degrading as cumulative losses grow.  A NaN loss eliminates its expert.
    Returns the constant the anchoring subtracted from every log-weight
    (0.0 when it did not anchor).
    """
    losses = np.asarray(expert_losses, dtype=float)
    # -inf - (+inf) is -inf: a weight stays eliminated against an infinite loss
    decayed = pool.log_weights - (losses if eta == 1.0 else eta * losses)
    top = decayed.max()
    if top != top:
        decayed = np.where(np.isnan(decayed), -np.inf, decayed)
        top = decayed.max()
    shift = 0.0
    if top < -512.0 and math.isfinite(top):
        decayed -= top
        shift = float(top)
    pool.log_weights = decayed
    return shift
