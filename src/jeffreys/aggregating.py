"""Exponential-weights aggregation over an expert pool for mixable games.

The mixing step turns the weighted pool of expert loss profiles into a
generalized prediction ``g``; the substitution step finds an actual
prediction whose loss is dominated by ``g`` everywhere, which exists
whenever the game is perfectly mixable at the pool's learning rate.  The
resulting cumulative loss trails every expert by at most
``C * ln(1 / p_k)`` with ``C = 1 / eta``.

:func:`pool_mixer` is the one mix-and-substitute routine, for the pool
sceptics: the closed form in the game's table entry (the bounded
square-loss endpoint formula, the log-loss probability mixture), or else
the mixed loss profiles and a numeric minimax search over the prediction
grid, which the closed forms are tested against; :func:`fixed_pool_mixer`
prepares it once for expert predictions that a run holds fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MixabilityViolation, PoolCollapseError
from .games import (Game, MixabilityParams, Prediction, _lse1,
                    check_perfectly_mixable, superprediction_gap)

DOMINATION_TOL = 1e-9


def log_sum_exp(x: np.ndarray, axis=None) -> np.ndarray:
    """Overflow-safe log of a sum of exponentials; handles all--inf slices."""
    m = np.max(x, axis=axis, keepdims=axis is not None)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.sum(np.exp(x - safe), axis=axis, keepdims=axis is not None))
    if axis is None:
        return float(out)
    return np.squeeze(out, axis=axis)


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


def uniform_pool(k: int) -> ExpertPool:
    return ExpertPool(np.full(k, 1.0 / k))


def generalized_prediction(pool: ExpertPool, expert_points: np.ndarray,
                           eta: float) -> np.ndarray:
    """Per-outcome mixture loss ``g(omega) = -ln(sum_k w_k e^(-eta loss_k)) / eta``.

    ``expert_points`` has shape (K, O): expert canonical points over the
    outcomes of interest.  Infinite expert losses drop out of the mixture.
    """
    if np.all(np.isneginf(pool.log_weights)):
        raise PoolCollapseError("every expert has suffered infinite loss")
    log_w = pool.log_weights - log_sum_exp(pool.log_weights)
    return _generalized(log_w, np.asarray(expert_points, dtype=float), eta)


def _generalized(log_w: np.ndarray, points: np.ndarray, eta: float) -> np.ndarray:
    # -inf - (+inf) is -inf; only a NaN loss makes a NaN, and drops out
    exponents = log_w[:, None] - eta * points
    exponents = np.where(np.isnan(exponents), -np.inf, exponents)
    return -log_sum_exp(exponents, axis=0) / eta


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
    u, worst = superprediction_gap(game, g, tol)
    if worst > tol:
        raise MixabilityViolation(f"substitution excess {worst:.3g} exceeds {tol:.3g}")
    return game.prediction_from_param(u)


def pool_mixer(game: Game, eta: float, tol: float = DOMINATION_TOL):
    """The aggregating move as a function ``(log_w, preds) -> prediction``.

    ``log_w`` are the pool's normalized log-weights and ``preds`` the
    experts' predictions, shape (K,) or (K, m), which are not validated:
    :func:`fixed_pool_mixer`'s move for those predictions.
    """
    return lambda log_w, preds: fixed_pool_mixer(game, eta, preds, tol)(log_w)


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


def aa_observe(pool: ExpertPool, expert_losses: np.ndarray, eta: float) -> ExpertPool:
    """Decay the pool's weights by the observed expert losses (in place).

    Weights are stored up to a common additive constant in log space:
    anchoring the maximum at zero costs nothing observable (normalization
    removes constants) and keeps the precision of the weights that matter
    from degrading as cumulative losses grow.  A NaN loss eliminates its expert.
    """
    losses = np.asarray(expert_losses, dtype=float)
    # -inf - (+inf) is -inf: a weight stays eliminated against an infinite loss
    decayed = pool.log_weights - (losses if eta == 1.0 else eta * losses)
    top = decayed.max()
    if top != top:
        decayed = np.where(np.isnan(decayed), -np.inf, decayed)
        top = decayed.max()
    if top < -512.0 and math.isfinite(top):
        decayed -= top
    pool.log_weights = decayed
    return pool
